"""Dashed pattern avoidance, stable-pair membership, and the RSK-style maps.

Insertion maps words (arrays) bijectively onto the same-shape tableau pairs
whose column readings jointly avoid three pattern pairs; membership in that
image is what :func:`is_stable_pair` decides.  :func:`rsk` runs the forward
map, :func:`rsk_inverse` refuses non-members and otherwise recovers the
unique preimage.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Literal, Union

from .errors import InvalidInputError, NotInStablePairsError
from .insertion import (
    Mode,
    TableauPair,
    TwoRowedArray,
    array_insert,
    extended_insert,
    mode_spec,
    read_by_recording,
    reverse_insertion,
)
from .tableaux import Tableau, classify, column_reading, reverse_columns, standardize_tableau
from .words import Symbol, Word

StablePairLevel = Literal["standard", "word", "array"]

LEVELS = ("standard", "word", "array")


@dataclass(frozen=True)
class DashedPattern:
    """Permutation pattern split into blocks; matches must be contiguous
    within a block, while any gap (including none) is allowed at a dash."""

    blocks: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        symbols = self.flat()
        if sorted(symbols) != list(range(1, len(symbols) + 1)):
            raise InvalidInputError(f"pattern symbols must form a permutation of 1..{len(symbols)}")
        if any(not block for block in self.blocks):
            raise InvalidInputError("pattern blocks must be nonempty")

    def flat(self) -> tuple[int, ...]:
        return tuple(chain.from_iterable(self.blocks))

    def __len__(self) -> int:
        return len(self.flat())

    def __str__(self) -> str:
        return "-".join("".join(str(s) for s in block) for block in self.blocks)

    @classmethod
    def parse(cls, text: str) -> "DashedPattern":
        """Parse literals like ``"31-2"`` (single-digit symbols, dashes between blocks)."""
        blocks = []
        for part in text.split("-"):
            if not part or not part.isdigit():
                raise InvalidInputError(f"cannot parse pattern {text!r}")
            blocks.append(tuple(int(ch) for ch in part))
        return cls(tuple(blocks))


def _ranks(values: list) -> tuple[int, ...]:
    return tuple(1 + sum(other < v for other in values) for v in values)


def occurrences(word: Iterable[Symbol], pattern: DashedPattern | str) -> list[tuple[int, ...]]:
    """All occurrences of a dashed pattern in a word of distinct symbols.

    Returns the 1-based index tuples, in increasing lexicographic order; the
    indexed subword is order isomorphic to the pattern, block indices are
    consecutive, and gaps (possibly empty) appear only at dashes.
    """
    if isinstance(pattern, str):
        pattern = DashedPattern.parse(pattern)
    syms = tuple(word)
    if len(set(syms)) != len(syms):
        raise InvalidInputError("pattern search requires pairwise-distinct symbols")
    target = pattern.flat()
    sizes = [len(block) for block in pattern.blocks]
    suffix = [sum(sizes[i:]) for i in range(len(sizes) + 1)]
    out: list[tuple[int, ...]] = []

    def place(block_idx: int, start_min: int, acc: tuple[int, ...]) -> None:
        if block_idx == len(sizes):
            if _ranks([syms[i] for i in acc]) == target:
                out.append(tuple(i + 1 for i in acc))
            return
        size = sizes[block_idx]
        for start in range(start_min, len(syms) - suffix[block_idx] + 1):
            place(block_idx + 1, start + size, acc + tuple(range(start, start + size)))

    place(0, 0, ())
    return out


def _triple_code(a: Symbol, b: Symbol, c: Symbol) -> str | None:
    """Dashed-pattern name matched by the triple (positions i, i+1, j)."""
    if b < c < a:
        return "31-2"
    if c < b < a:
        return "32-1"
    if a < c < b:
        return "13-2"
    if c < a < b:
        return "23-1"
    return None


_FORBIDDEN = {("31-2", "13-2"), ("31-2", "23-1"), ("32-1", "13-2")}


def _avoids_forbidden_pairs(left: Word, right: Word) -> bool:
    """No triple (i, i+1, j), j > i+1, matches a forbidden pattern pair in both words."""
    n = len(left)
    for i in range(n - 2):
        for j in range(i + 2, n):
            code_left = _triple_code(left[i], left[i + 1], left[j])
            if code_left not in ("31-2", "32-1"):
                continue
            code_right = _triple_code(right[i], right[i + 1], right[j])
            if (code_left, code_right) in _FORBIDDEN:
                return False
    return True


def _standard_stable(r: Tableau, s: Tableau) -> bool:
    return _avoids_forbidden_pairs(column_reading(r), column_reading(reverse_columns(s)))


def is_stable_pair(pair: TableauPair, mode: Mode, level: StablePairLevel) -> bool:
    """Membership test for the stable pairs set at the requested level.

    * ``standard``: both tableaux standard, tested directly.
    * ``word``: first tableau of the mode's kind, second a recording tableau;
      the first is standardized before the standard test.
    * ``array``: both tableaux of the mode's kind; both are standardized.
    """
    spec = mode_spec(mode)
    p, q = pair
    if p.shape != q.shape:
        raise InvalidInputError(f"tableau shapes differ: {p.shape} vs {q.shape}")
    if level == "standard":
        if not (classify(p).is_standard_ps and classify(q).is_standard_ps):
            raise InvalidInputError("standard level requires two standard tableaux")
        return _standard_stable(p, q)
    if level == "word":
        if not getattr(classify(p), spec.flag):
            raise InvalidInputError(f"first tableau is not an {spec.kind} tableau")
        if not classify(q).is_recording:
            raise InvalidInputError("word level requires a recording tableau")
        return _standard_stable(standardize_tableau(p, spec.direction), q)
    if level == "array":
        if not (getattr(classify(p), spec.flag) and getattr(classify(q), spec.flag)):
            raise InvalidInputError(f"array level requires two {spec.kind} tableaux")
        return _standard_stable(
            standardize_tableau(p, spec.direction), standardize_tableau(q, spec.direction)
        )
    raise InvalidInputError(f"level must be one of {LEVELS}, got {level!r}")


def rsk(value: Union[TwoRowedArray, Iterable[Symbol]], mode: Mode) -> TableauPair:
    """Forward correspondence: insert a word or a two-rowed array.

    The output lands in the stable pairs set of the matching level, so
    :func:`rsk_inverse` round-trips it.
    """
    if isinstance(value, TwoRowedArray):
        return array_insert(value, mode)
    return extended_insert(tuple(value), mode)


def rsk_inverse(
    pair: TableauPair, mode: Mode, level: Literal["word", "array"]
) -> Union[Word, TwoRowedArray]:
    """Recover the unique preimage of a stable pair.

    Raises :class:`NotInStablePairsError` for non-members instead of
    returning the mechanical extraction, which would insert to a different
    pair.
    """
    if level not in ("word", "array"):
        raise InvalidInputError(f"level must be 'word' or 'array', got {level!r}")
    if not is_stable_pair(pair, mode, level):
        raise NotInStablePairsError(
            f"pair is not in the {level}-level {mode} stable pairs set"
        )
    if level == "word":
        return read_by_recording(pair)
    return reverse_insertion(pair, mode)
