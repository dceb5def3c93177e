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

from itertools import accumulate, chain, combinations
from operator import lt
from typing import Iterable, Literal, Union

from .errors import InvalidInputError, NotInStablePairsError
from .insertion import (
    Mode,
    ModeSpec,
    TableauPair,
    TwoRowedArray,
    _checked_pair,
    _insert_pairs,
    _unwind,
    array_insert,
    extended_insert,
    mode_spec,
)
from .tableaux import _Value
from .words import StandardizedSymbol, Symbol, Word, _quote

StablePairLevel = Literal["standard", "word", "array"]

LEVELS = ("standard", "word", "array")


class DashedPattern(_Value):
    """Permutation pattern split into blocks; matches must be contiguous
    within a block, while any gap (including none) is allowed at a dash.

    An immutable value: equality, hashing, ``repr``, pickling and copying go
    by the blocks."""

    __slots__ = ("blocks",)

    blocks: tuple[tuple[int, ...], ...]

    def __init__(self, blocks: Iterable[Iterable[int]]):
        object.__setattr__(self, "blocks", tuple(map(tuple, blocks)))
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
            if not (part.isascii() and part.isdigit()):  # "".isdigit() is False
                raise InvalidInputError(f"cannot parse pattern {_quote(text)}")
            blocks.append(tuple(int(ch) for ch in part))
        return cls(tuple(blocks))


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
    # the pattern's positions in value order: a placement matches when it reads increasing in that order
    order = sorted(range(len(target)), key=target.__getitem__)
    sizes = [len(block) for block in pattern.blocks]
    # block b starts at its pick plus the extra boxes of the blocks before it
    shifts = list(accumulate((size - 1 for size in sizes), initial=0))
    out: list[tuple[int, ...]] = []
    for picks in combinations(range(len(syms) - len(target) + len(sizes)), len(sizes)):
        acc = [i for pick, shift, size in zip(picks, shifts, sizes) for i in range(pick + shift, pick + shift + size)]
        read = [syms[acc[k]] for k in order]
        if all(map(lt, read, read[1:])):
            out.append(tuple(i + 1 for i in acc))
    return out


def _checked_spec(pair: TableauPair, mode: Mode, level: str) -> ModeSpec:
    """The mode's table entry, once ``pair`` has the kinds ``level`` requires.

    At the word and array levels, the tableaux that the set's pattern scan
    standardizes must hold plain symbols.
    """
    spec = mode_spec(mode)
    if level not in LEVELS:
        raise InvalidInputError(f"level must be one of {LEVELS}, got {_quote(level)}")
    # the classify flags each level requires of the first and second tableau
    flags = {"standard": ("is_standard_ps",) * 2, "word": (spec.flag, "is_recording"),
             "array": (spec.flag,) * 2}
    _checked_pair(pair, *flags[level])
    plain = () if level == "standard" else pair[:1] if level == "word" else pair
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
        raise InvalidInputError(f"level must be 'word' or 'array', got {_quote(level)}")
    arr = _preimage(pair, _checked_spec(pair, mode, level))
    if arr is None:
        raise NotInStablePairsError(
            f"pair is not in the {level}-level {mode} stable pairs set"
        )
    return arr.bottom if level == "word" else arr
