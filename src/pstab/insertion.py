"""Patience sorting insertion: plain, extended, array-level, and reversed.

Inserting a symbol probes the bottom row (the column heads, kept sorted by
the insertion itself).  In lps mode the symbol bumps the leftmost column
whose head is strictly greater; rps mode bumps the leftmost column whose head
is greater or equal.  When no column qualifies the symbol starts a new
rightmost column.  Bumping pushes the whole column up one box and places the
new symbol in the freed bottom box.

Reverse insertion undoes this by removing the largest recording label again
and again; since recording columns are sorted and ties between columns go to
a fixed side, that is one stable sort of the boxes by label, at every level.

Every order choice that tells the two modes apart lives in one table,
:data:`MODE_SPECS`; :func:`mode_spec` is the only place a mode is checked.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from operator import itemgetter
from typing import Any, Callable, Iterable, Literal, NamedTuple, Sequence

from .counting import count_lps, count_rps
from .errors import InvalidInputError
from .tableaux import Tableau, classify
from .words import Direction, Symbol, Word, check_word, format_word, parse_word

Mode = Literal["lps", "rps"]


class TableauPair(NamedTuple):
    """Same-shape insertion tableau and its recording tableau."""

    p: Tableau
    q: Tableau


class TwoRowedArray:
    """Pair of equal-length words, a top word over a bottom word.

    The array is lexicographic (an l-array) when the top word weakly
    increases and the bottom entries weakly increase within each run of equal
    top entries; it is reverse lexicographic (an r-array) when the bottom
    entries weakly decrease within such runs instead.

    An immutable value: equality, hashing, ``repr``, pickling and copying go
    by the two rows.  Arrays built inside the package from checked rows come
    from :meth:`_trusted` and skip the checks.
    """

    __slots__ = ("top", "bottom")

    top: Word
    bottom: Word

    def __init__(self, top: Iterable[Symbol], bottom: Iterable[Symbol]):
        top, bottom = check_word(top), check_word(bottom)
        if len(top) != len(bottom):
            raise InvalidInputError(
                f"top and bottom words differ in length: {len(top)} vs {len(bottom)}"
            )
        object.__setattr__(self, "top", top)
        object.__setattr__(self, "bottom", bottom)

    @classmethod
    def _trusted(cls, top: Word, bottom: Word) -> "TwoRowedArray":
        """Build from two checked words of equal length, without re-checking."""
        arr = object.__new__(cls)
        object.__setattr__(arr, "top", top)
        object.__setattr__(arr, "bottom", bottom)
        return arr

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple:
        # pickle and copy would otherwise restore the slots through __setattr__
        return type(self), (self.top, self.bottom)

    def __eq__(self, other: Any) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.top == other.top and self.bottom == other.bottom

    def __hash__(self) -> int:
        return hash((self.top, self.bottom))

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}(top={self.top!r}, bottom={self.bottom!r})"

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
        if not isinstance(obj, dict) or not all(isinstance(obj.get(row), list) for row in ("top", "bottom")):
            raise InvalidInputError("expected a JSON object whose 'top' and 'bottom' are lists")
        return cls(top=obj["top"], bottom=obj["bottom"])


class ModeSpec(NamedTuple):
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


MODE_SPECS: dict[str, ModeSpec] = {
    "lps": ModeSpec(
        "lPS", "left", "is_lps", bisect_right, TwoRowedArray.is_lexicographic,
        "lexicographic (l-array)", True, count_lps,
    ),
    "rps": ModeSpec(
        "rPS", "right", "is_rps", bisect_left, TwoRowedArray.is_reverse_lexicographic,
        "reverse lexicographic (r-array)", False, count_rps,
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
    """Insert the symbols of ``word`` left to right into an lPS or rPS tableau.

    The loop of :func:`_insert_pairs` without the recording tableau.
    """
    bisect = mode_spec(mode).bisect
    cols: list[list[Symbol]] = []
    heads: list[Symbol] = []
    for value in check_word(word):
        m = bisect(heads, value)
        if m == len(heads):
            cols.append([value])
            heads.append(value)
        else:
            cols[m].append(value)
            heads[m] = value
    return Tableau._trusted(col[::-1] for col in cols)


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
    p, q = pair
    if p.shape != q.shape:
        raise InvalidInputError(f"tableau shapes differ: {p.shape} vs {q.shape}")
    for name, t in (("first", p), ("second", q)):
        if not getattr(classify(t), spec.flag):
            raise InvalidInputError(f"{name} tableau is not an {spec.kind} tableau")
    return _unwind(pair, spec)


def _unwind(pair: TableauPair, spec: ModeSpec) -> TwoRowedArray:
    """:func:`reverse_insertion` of a same-shape pair whose kinds are checked.

    The second tableau's columns increase upward, so each removal takes the
    largest label left from the top of the last column holding it in lps mode
    and the first in rps mode.  The removals therefore run down the boxes by
    label, then column, then row, and the output, which lists them in reverse,
    is one stable sort by label of the boxes listed column by column (right to
    left in rps mode), bottom box first.  The k-th box from the bottom of a
    second-tableau column pairs with the k-th from the top of the first's.
    """
    p, q = pair
    columns = list(zip(q.columns, p.columns))
    if not spec.pick_last_top:
        columns.reverse()
    boxes = [box for q_col, p_col in columns for box in zip(q_col, reversed(p_col))]
    boxes.sort(key=itemgetter(0))
    # the rows are the checked tableaux' symbols, two per box
    return TwoRowedArray._trusted(tuple(map(itemgetter(0), boxes)), tuple(map(itemgetter(1), boxes)))


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
    return _unwind(pair, MODE_SPECS["lps"]).bottom
