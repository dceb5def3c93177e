"""Composition-shaped tableaux stored as bottom-to-top columns.

A tableau is a left-to-right sequence of nonempty columns; each column lists
its symbols from the bottom box upward, so the bottom row is the sequence of
column heads ``column[0]``.  The shape is the tuple of column lengths, a
composition of the number of boxes.

Tableau kinds:

* lPS: every column strictly increases bottom-to-top and the bottom row
  weakly increases left-to-right.
* rPS: every column weakly increases bottom-to-top and the bottom row
  strictly increases left-to-right.
* standard: lPS (equivalently rPS) with pairwise-distinct symbols.
* recording: standard with content exactly ``{1, ..., size}``.

Tableaux, two-rowed arrays and dashed patterns share one immutable value
base: assigning or deleting a field raises ``AttributeError``, equality and
hashing go by the fields, and pickling and copying rebuild through the public
constructor, which checks the fields again.
"""

from __future__ import annotations

import itertools
from typing import Any, Iterable, NamedTuple

from .errors import InvalidInputError
from .words import Direction, Evaluation, Shape, StandardizedSymbol, Symbol, Word, check_word, evaluation, standardize


class _Value:
    """Immutable value over the fields its subclass lists in ``__slots__``.

    Equality holds between instances of the same class only, the hash is the
    hash of the field tuple, and the ``repr`` is the frozen-dataclass one.
    """

    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple:
        # pickle and copy would otherwise restore the slots through __setattr__
        return type(self), self._fields()

    def __eq__(self, other: Any) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"


class Tableau(_Value):
    """Composition-shaped arrangement of symbols, columns bottom-to-top.

    ``Tableau(columns)`` checks that columns are nonempty and that all symbols
    pass :func:`pstab.words.check_word` as one word.  Tableaux built inside the
    package from checked data come from :meth:`_from_tuples`, which takes a
    tuple of nonempty tuple columns and skips that check.

    The value is the columns alone: a second slot holds what :func:`classify`
    found, once it has run, and equality, hashing, ``repr``, pickling and
    copying ignore it.
    """

    __slots__ = ("columns", "_class")

    columns: tuple[tuple[Symbol, ...], ...]

    def __init__(self, columns: Iterable[Iterable[Symbol]] = ()):
        cols = tuple(tuple(col) for col in columns)
        if not all(cols):
            raise InvalidInputError("tableau columns must be nonempty")
        check_word(itertools.chain.from_iterable(cols))
        object.__setattr__(self, "columns", cols)

    @classmethod
    def _from_tuples(cls, columns: tuple[tuple[Symbol, ...], ...]) -> "Tableau":
        """Build from the columns as they are, without re-checking: verify builds ~10^5 tableaux."""
        t = object.__new__(cls)
        object.__setattr__(t, "columns", columns)
        return t

    def _fields(self) -> tuple:
        return (self.columns,)

    # direct, not through _fields: verify compares and hashes ~10^5 tableaux
    def __eq__(self, other: Any) -> bool:
        return isinstance(other, Tableau) and self.columns == other.columns

    def __hash__(self) -> int:
        return hash(self.columns)

    def __len__(self) -> int:
        return sum(map(len, self.columns))

    def __bool__(self) -> bool:
        return bool(self.columns)

    def __repr__(self) -> str:
        return f"Tableau({[list(col) for col in self.columns]!r})"

    @property
    def shape(self) -> Shape:
        return tuple(map(len, self.columns))

    @property
    def bottom_row(self) -> Word:
        return tuple(col[0] for col in self.columns)

    def content(self) -> frozenset:
        return frozenset(itertools.chain.from_iterable(self.columns))

    def entry(self, column: int, row: int) -> Symbol:
        """Symbol at 1-based column-row position (column, row), rows from the bottom."""
        if column < 1 or row < 1:
            raise IndexError(f"no box at position ({column}, {row})")
        return self.columns[column - 1][row - 1]

    def evaluation(self, alphabet_size: int) -> Evaluation:
        return evaluation(itertools.chain.from_iterable(self.columns), alphabet_size)


class TableauClass(NamedTuple):
    """All classification flags of a tableau, computed in one pass."""

    is_pre: bool
    is_lps: bool
    is_rps: bool
    is_standard_ps: bool
    is_recording: bool


def classify(t: Tableau) -> TableauClass:
    """Classify ``t`` against every tableau kind at once.

    One pass over the columns and one over the bottom row.  A strict descent
    ends a pass, since it breaks both the weak and the strict order; a column
    descent skips the bottom row, since the tableau is then neither lPS nor
    rPS.  The empty tableau belongs to every class.  A tableau cannot change,
    so the result is cached on it and later calls return it at once.
    """
    kind = getattr(t, "_class", None)
    if kind is not None:
        return kind
    cols = t.columns
    strict_cols = weak_cols = True
    for col in cols:
        rest = iter(col)
        a = next(rest)
        for b in rest:
            if a >= b:
                strict_cols = False
                if a > b:
                    weak_cols = False
                    break
            a = b
        if not weak_cols:
            break
    strict_bottom = weak_bottom = True
    if weak_cols and cols:
        rest = iter(cols)
        a = next(rest)[0]
        for col in rest:
            b = col[0]
            if a >= b:
                strict_bottom = False
                if a > b:
                    weak_bottom = False
                    break
            a = b
    symbols = set(itertools.chain.from_iterable(cols))
    size = sum(map(len, cols))
    is_pre = len(symbols) == size
    is_lps = strict_cols and weak_bottom
    is_rps = weak_cols and strict_bottom
    is_standard = is_pre and is_lps and is_rps
    is_recording = is_standard and symbols == set(range(1, size + 1))
    kind = TableauClass(is_pre, is_lps, is_rps, is_standard, is_recording)
    object.__setattr__(t, "_class", kind)
    return kind


def column_reading(t: Tableau) -> Word:
    """Read columns left to right, each column top to bottom."""
    return tuple(sym for col in t.columns for sym in reversed(col))


def reverse_columns(t: Tableau) -> Tableau:
    """Flip every column upside down; a shape-preserving involution."""
    return Tableau._from_tuples(tuple(col[::-1] for col in t.columns))


def standardize_tableau(t: Tableau, direction: Direction) -> Tableau:
    """Attach occurrence indices to the entries of an lPS or rPS tableau.

    ``direction="left"`` requires an lPS tableau and indexes occurrences
    reading the columns left to right, each top to bottom.
    ``direction="right"`` requires an rPS tableau and reads the columns right
    to left, each bottom to top.  Either reading turns the tableau into a
    standard one over the indexed alphabet, with base symbols kept in place.
    """
    if t.columns and isinstance(t.columns[0][0], StandardizedSymbol):
        raise InvalidInputError("tableau is already standardized")
    kind = classify(t)
    if direction == "left" and not kind.is_lps:
        raise InvalidInputError("left standardization requires an lPS tableau")
    if direction == "right" and not kind.is_rps:
        raise InvalidInputError("right standardization requires an rPS tableau")
    # the right reading is the column reading reversed; standardize refuses other directions
    indexed = iter(standardize(column_reading(t), direction))
    return Tableau._from_tuples(tuple(tuple(itertools.islice(indexed, len(col)))[::-1] for col in t.columns))


def destandardize_tableau(t: Tableau) -> Tableau:
    """Erase all occurrence indices, keeping shape and base symbols."""
    if t.columns and not isinstance(t.columns[0][0], StandardizedSymbol):
        raise InvalidInputError("destandardization needs standardized entries")
    return Tableau._from_tuples(tuple(tuple(sym.base for sym in col) for col in t.columns))


def _rows(t: Tableau, blank: str) -> list[list[str]]:
    """Cell texts by row, top row first; columns are bottom-justified, with ``blank`` above a shorter one."""
    height = max(map(len, t.columns), default=0)
    return [[str(col[row]) if row < len(col) else blank for col in t.columns] for row in reversed(range(height))]


def render_ascii(t: Tableau) -> str:
    """Render rows top to bottom with the bottom row last, columns bottom-justified."""
    if not t.columns:
        return "(empty)"
    rows = _rows(t, "")
    widths = [max(map(len, cells)) for cells in zip(*rows)]
    return "\n".join(" ".join(map(str.rjust, cells, widths)).rstrip() for cells in rows)


def render_latex(t: Tableau) -> str:
    """Emit a ytableau environment, rows top to bottom, bottom row last."""
    rows = _rows(t, "\\none") or [["\\none"]]
    body = " \\\\\n".join(" & ".join(cells) for cells in rows)
    return f"\\begin{{ytableau}}\n{body}\n\\end{{ytableau}}"


def _symbol_to_json(sym: Symbol) -> Any:
    if isinstance(sym, StandardizedSymbol):
        return [sym.base, sym.index]
    return sym


def _symbol_from_json(obj: Any) -> Any:
    # Tableau() checks the result, so anything else is left for it to reject.
    if isinstance(obj, (list, tuple)) and len(obj) == 2:
        return StandardizedSymbol(*obj)
    return obj


def tableau_to_json(t: Tableau) -> dict:
    """JSON object ``{"columns": [...]}`` with columns bottom-to-top."""
    return {"columns": [[_symbol_to_json(sym) for sym in col] for col in t.columns]}


def tableau_from_json(obj: Any) -> Tableau:
    """Inverse of :func:`tableau_to_json`."""
    if not isinstance(obj, dict) or "columns" not in obj:
        raise InvalidInputError("expected a JSON object with a 'columns' key")
    cols = obj["columns"]
    if not isinstance(cols, list) or not all(isinstance(col, list) for col in cols):
        raise InvalidInputError("'columns' must be a list of lists")
    return Tableau([[_symbol_from_json(sym) for sym in col] for col in cols])
