"""Dashed pattern avoidance, stable-pair membership, and the RSK-style maps.

Insertion maps words (arrays) bijectively onto the same-shape tableau pairs
whose column readings jointly avoid three pattern pairs.  Because it is a
bijection onto that set, :func:`is_stable_pair` decides membership by round
trip: a pair is a member exactly when what reverse insertion extracts from
it re-inserts to it, which costs about one insertion.  One extraction serves
every level: at the word level the recording labels are 1..n, so the
extracted array's bottom row is the word.  The paper's O(n^2) pattern scan is
kept in :mod:`pstab.oracle` as the reference the verify suite compares with.
:func:`rsk` runs the forward map, :func:`rsk_inverse` refuses non-members
and otherwise returns that same extraction, the unique preimage.
"""

from __future__ import annotations

from itertools import chain
from typing import Any, Iterable, Literal, Union

from .errors import InvalidInputError, NotInStablePairsError
from .insertion import (
    Mode,
    ModeSpec,
    TableauPair,
    TwoRowedArray,
    _insert_pairs,
    _unwind,
    array_insert,
    extended_insert,
    mode_spec,
)
from .tableaux import classify
from .words import StandardizedSymbol, Symbol, Word

StablePairLevel = Literal["standard", "word", "array"]

LEVELS = ("standard", "word", "array")


class DashedPattern:
    """Permutation pattern split into blocks; matches must be contiguous
    within a block, while any gap (including none) is allowed at a dash.

    An immutable value: equality, hashing, ``repr``, pickling and copying go
    by the blocks."""

    __slots__ = ("blocks",)

    blocks: tuple[tuple[int, ...], ...]

    def __init__(self, blocks: tuple[tuple[int, ...], ...]):
        object.__setattr__(self, "blocks", blocks)
        symbols = self.flat()
        if sorted(symbols) != list(range(1, len(symbols) + 1)):
            raise InvalidInputError(f"pattern symbols must form a permutation of 1..{len(symbols)}")
        if any(not block for block in self.blocks):
            raise InvalidInputError("pattern blocks must be nonempty")

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple:
        # pickle and copy would otherwise restore the slot through __setattr__
        return type(self), (self.blocks,)

    def __eq__(self, other: Any) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.blocks == other.blocks

    def __hash__(self) -> int:
        return hash((self.blocks,))

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}(blocks={self.blocks!r})"

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


def _checked_spec(pair: TableauPair, mode: Mode, level: str) -> ModeSpec:
    """The mode's table entry, once ``pair`` has the kinds ``level`` requires.

    Classifies each tableau once.  At the word and array levels the checked
    tableaux must hold plain symbols: the pattern scan that defines these sets
    standardizes them, and a standardized tableau has no standardization.
    """
    spec = mode_spec(mode)
    p, q = pair
    if p.shape != q.shape:
        raise InvalidInputError(f"tableau shapes differ: {p.shape} vs {q.shape}")
    if level == "standard":
        if not (classify(p).is_standard_ps and classify(q).is_standard_ps):
            raise InvalidInputError("standard level requires two standard tableaux")
        return spec
    if level == "word":
        if not getattr(classify(p), spec.flag):
            raise InvalidInputError(f"first tableau is not an {spec.kind} tableau")
        if not classify(q).is_recording:
            raise InvalidInputError("word level requires a recording tableau")
        plain = (p,)
    elif level == "array":
        if not (getattr(classify(p), spec.flag) and getattr(classify(q), spec.flag)):
            raise InvalidInputError(f"array level requires two {spec.kind} tableaux")
        plain = (p, q)
    else:
        raise InvalidInputError(f"level must be one of {LEVELS}, got {level!r}")
    if any(t and isinstance(t.columns[0][0], StandardizedSymbol) for t in plain):
        raise InvalidInputError("tableau is already standardized")
    return spec


def _preimage(pair: TableauPair, spec: ModeSpec) -> TwoRowedArray | None:
    """The array reverse insertion extracts from a checked pair if it is of
    the mode's kind and re-inserts to the pair, else None."""
    arr = _unwind(pair, spec)
    if spec.is_valid_array(arr) and _insert_pairs(zip(arr.bottom, arr.top), spec) == pair:
        return arr
    return None


def is_stable_pair(pair: TableauPair, mode: Mode, level: StablePairLevel) -> bool:
    """Membership test for the stable pairs set at the requested level.

    * ``standard``: both tableaux standard.
    * ``word``: first tableau of the mode's kind, second a recording tableau.
    * ``array``: both tableaux of the mode's kind.

    Insertion is a bijection onto each stable pairs set, so a pair is a member
    exactly when the array reverse insertion extracts from it re-inserts to it.
    """
    return _preimage(pair, _checked_spec(pair, mode, level)) is not None


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
    arr = _preimage(pair, _checked_spec(pair, mode, level))
    if arr is None:
        raise NotInStablePairsError(
            f"pair is not in the {level}-level {mode} stable pairs set"
        )
    return arr.bottom if level == "word" else arr
