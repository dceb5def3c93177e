"""Patience sorting insertion: plain, extended, array-level, and reversed.

Inserting a symbol probes the bottom row (the column heads, kept sorted by
the insertion itself).  In lps mode the symbol bumps the leftmost column
whose head is strictly greater; rps mode bumps the leftmost column whose head
is greater or equal.  When no column qualifies the symbol starts a new
rightmost column.  Bumping pushes the whole column up one box and places the
new symbol in the freed bottom box.

Every order choice that tells the two modes apart lives in one table,
:data:`MODE_SPECS`; :func:`mode_spec` is the only place a mode is checked.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Callable, Iterable, Literal, NamedTuple, Sequence

from .counting import count_lps, count_lps_rec, count_rps, count_rps_rec
from .errors import InvalidInputError, ReverseInsertionError
from .tableaux import Tableau, classify, reverse_columns
from .words import Direction, Symbol, Word, check_word, format_word, parse_word

Mode = Literal["lps", "rps"]


class TableauPair(NamedTuple):
    """Same-shape insertion tableau and its recording tableau."""

    p: Tableau
    q: Tableau


@dataclass(frozen=True)
class TwoRowedArray:
    """Pair of equal-length words, a top word over a bottom word.

    The array is lexicographic (an l-array) when the top word weakly
    increases and the bottom entries weakly increase within each run of equal
    top entries; it is reverse lexicographic (an r-array) when the bottom
    entries weakly decrease within such runs instead.
    """

    top: Word
    bottom: Word

    def __post_init__(self) -> None:
        object.__setattr__(self, "top", tuple(self.top))
        object.__setattr__(self, "bottom", tuple(self.bottom))
        if len(self.top) != len(self.bottom):
            raise InvalidInputError(
                f"top and bottom words differ in length: {len(self.top)} vs {len(self.bottom)}"
            )

    def __len__(self) -> int:
        return len(self.top)

    def __str__(self) -> str:
        return f"{format_word(self.top)} / {format_word(self.bottom)}"

    def is_lexicographic(self) -> bool:
        for i in range(len(self) - 1):
            if self.top[i] > self.top[i + 1]:
                return False
            if self.top[i] == self.top[i + 1] and self.bottom[i] > self.bottom[i + 1]:
                return False
        return True

    def is_reverse_lexicographic(self) -> bool:
        for i in range(len(self) - 1):
            if self.top[i] > self.top[i + 1]:
                return False
            if self.top[i] == self.top[i + 1] and self.bottom[i] < self.bottom[i + 1]:
                return False
        return True

    def is_valid(self, mode: Mode) -> bool:
        return mode_spec(mode).is_valid_array(self)

    @classmethod
    def parse(cls, text: str) -> "TwoRowedArray":
        """Parse from ``"u1 ... uk / v1 ... vk"`` text."""
        parts = text.split("/")
        if len(parts) != 2:
            raise InvalidInputError("array text must contain exactly one '/'")
        return cls(top=parse_word(parts[0]), bottom=parse_word(parts[1]))

    def to_json(self) -> dict:
        return {"top": list(self.top), "bottom": list(self.bottom)}

    @classmethod
    def from_json(cls, obj: dict) -> "TwoRowedArray":
        if not isinstance(obj, dict) or "top" not in obj or "bottom" not in obj:
            raise InvalidInputError("expected a JSON object with 'top' and 'bottom' keys")
        return cls(top=check_word(obj["top"]), bottom=check_word(obj["bottom"]))


@dataclass(frozen=True)
class ModeSpec:
    """The order choices that tell lPS from rPS.

    ``bisect(heads, value)`` is the column a value bumps, or ``len(heads)``
    for a new column.  Reverse insertion takes the largest label from the last
    (``pick_last_top``) or else the first of the columns it tops.
    """

    kind: str
    direction: Direction
    flag: str
    bisect: Callable[[Sequence[Symbol], Symbol], int]
    is_valid_array: Callable[[TwoRowedArray], bool]
    array_kind: str
    pick_last_top: bool
    count: Callable[[Iterable[int]], int]
    count_rec: Callable[[Iterable[int]], int]


MODE_SPECS: dict[str, ModeSpec] = {
    "lps": ModeSpec(
        "lPS", "left", "is_lps", bisect_right, TwoRowedArray.is_lexicographic,
        "lexicographic (l-array)", True, count_lps, count_lps_rec,
    ),
    "rps": ModeSpec(
        "rPS", "right", "is_rps", bisect_left, TwoRowedArray.is_reverse_lexicographic,
        "reverse lexicographic (r-array)", False, count_rps, count_rps_rec,
    ),
}


def mode_spec(mode: str) -> ModeSpec:
    """The table entry of ``mode``; rejects anything but 'lps' and 'rps'."""
    spec = MODE_SPECS.get(mode) if isinstance(mode, str) else None
    if spec is None:
        raise InvalidInputError(f"mode must be 'lps' or 'rps', got {mode!r}")
    return spec


def _insert_pairs(items: Iterable[tuple[Symbol, Symbol]], spec: ModeSpec) -> TableauPair:
    """Insert (bottom symbol, top label) pairs; labels land where boxes are created."""
    p_cols: list[list[Symbol]] = []
    q_cols: list[list[Symbol]] = []
    heads: list[Symbol] = []
    for value, label in items:
        m = spec.bisect(heads, value)
        if m == len(heads):
            p_cols.append([])
            q_cols.append([])
            heads.append(value)
        p_cols[m].append(value)
        q_cols[m].append(label)
        heads[m] = value
    # p columns grow top-first, so a bump is an append; flip them once here.
    return TableauPair(
        Tableau._trusted(col[::-1] for col in p_cols), Tableau._trusted(q_cols)
    )


def ps_insert(word: Iterable[Symbol], mode: Mode) -> Tableau:
    """Insert the symbols of ``word`` left to right into an lPS or rPS tableau."""
    return extended_insert(word, mode).p


def extended_insert(word: Iterable[Symbol], mode: Mode) -> TableauPair:
    """Insert ``word`` while recording, with symbol ``j``, the box created at step ``j``.

    The first component equals :func:`ps_insert` of the word; the second is a
    recording tableau of the same shape.
    """
    spec = mode_spec(mode)
    syms = check_word(word)
    return _insert_pairs(zip(syms, range(1, len(syms) + 1)), spec)


def array_insert(arr: TwoRowedArray, mode: Mode) -> TableauPair:
    """Insert the bottom word of ``arr`` while recording with the top word.

    Requires an l-array in lps mode and an r-array in rps mode; only then is
    the recording tableau guaranteed to be of the same kind.
    """
    spec = mode_spec(mode)
    check_word(arr.top)
    check_word(arr.bottom)
    if not spec.is_valid_array(arr):
        raise InvalidInputError(f"array ({arr}) is not {spec.array_kind}")
    return _insert_pairs(zip(arr.bottom, arr.top), spec)


def reverse_insertion(pair: TableauPair, mode: Mode) -> TwoRowedArray:
    """Mechanically unwind array insertion one box at a time.

    Each step removes from the recording tableau its largest symbol, taken
    from the last column it tops in lps mode and the first in rps mode, and
    from the insertion tableau the bottom box of the same column, sliding the
    rest of that column down.  The removed symbols, read in reverse order of
    removal, form the output array.

    Membership in the stable pairs set is not checked here: for pairs outside
    it the extracted array simply inserts to a different pair.
    """
    spec = mode_spec(mode)
    if pair.p.shape != pair.q.shape:
        raise InvalidInputError(f"tableau shapes differ: {pair.p.shape} vs {pair.q.shape}")
    for name, t in (("first", pair.p), ("second", pair.q)):
        if not getattr(classify(t), spec.flag):
            raise InvalidInputError(f"{name} tableau is not an {spec.kind} tableau")
    p_cols = [list(col) for col in pair.p.columns]
    q_cols = [list(col) for col in pair.q.columns]
    extracted: list[tuple[Symbol, Symbol]] = []
    total = sum(len(col) for col in q_cols)
    for step in range(total, 0, -1):
        largest = max(col[-1] for col in q_cols)  # columns increase upward
        tops = [idx for idx, col in enumerate(q_cols) if col[-1] == largest]
        if not tops:
            raise ReverseInsertionError(f"largest symbol {largest!r} tops no column", step=step)
        j = tops[-1] if spec.pick_last_top else tops[0]
        u = q_cols[j].pop()
        v = p_cols[j].pop(0)
        if not q_cols[j]:
            if j != len(q_cols) - 1:
                raise ReverseInsertionError(
                    "removal emptied a column left of the last one", step=step, column=j + 1
                )
            del q_cols[j]
            del p_cols[j]
        extracted.append((u, v))
    extracted.reverse()
    return TwoRowedArray(
        top=tuple(u for u, _ in extracted), bottom=tuple(v for _, v in extracted)
    )


def read_by_recording(pair: TableauPair) -> Word:
    """Recover a word from its insertion and recording tableaux.

    Symbol ``i`` of the output sits, in the insertion tableau, at the
    column-row position where ``i`` sits in the column-reversed recording
    tableau.  For pairs produced by :func:`extended_insert` this returns the
    inserted word.
    """
    p, q = pair
    if p.shape != q.shape:
        raise InvalidInputError(f"tableau shapes differ: {p.shape} vs {q.shape}")
    if not classify(q).is_recording:
        raise InvalidInputError("second tableau is not a recording tableau")
    flipped = reverse_columns(q)
    position: dict[int, tuple[int, int]] = {}
    for j, col in enumerate(flipped.columns):
        for r, sym in enumerate(col):
            position[sym] = (j, r)
    return tuple(p.columns[position[i][0]][position[i][1]] for i in range(1, len(p) + 1))
