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

Instances are value objects: treat them as immutable, compare structurally,
and hash freely.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Iterable

from .errors import InvalidInputError
from .words import Direction, Evaluation, StandardizedSymbol, Symbol, Word, check_word, evaluation

Shape = tuple[int, ...]


class Tableau:
    """Composition-shaped arrangement of symbols, columns bottom-to-top.

    ``Tableau(columns)`` checks that columns are nonempty and that all symbols
    pass :func:`pstab.words.check_word` as one word.  Tableaux built inside the
    package from checked data come from :meth:`_trusted` and skip that check.
    """

    __slots__ = ("columns",)

    columns: tuple[tuple[Symbol, ...], ...]

    def __init__(self, columns: Iterable[Iterable[Symbol]] = ()):
        cols = tuple(tuple(col) for col in columns)
        if not all(cols):
            raise InvalidInputError("tableau columns must be nonempty")
        check_word(itertools.chain.from_iterable(cols))
        object.__setattr__(self, "columns", cols)

    @classmethod
    def _trusted(cls, columns: Iterable[Iterable[Symbol]]) -> "Tableau":
        """Build from nonempty columns of checked symbols, without re-checking."""
        t = object.__new__(cls)
        object.__setattr__(t, "columns", tuple(tuple(col) for col in columns))
        return t

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError("Tableau is immutable")

    def __eq__(self, other: Any) -> bool:
        return isinstance(other, Tableau) and self.columns == other.columns

    def __hash__(self) -> int:
        return hash(self.columns)

    def __len__(self) -> int:
        return sum(len(col) for col in self.columns)

    def __bool__(self) -> bool:
        return bool(self.columns)

    def __repr__(self) -> str:
        return f"Tableau({[list(col) for col in self.columns]!r})"

    @property
    def shape(self) -> Shape:
        return tuple(len(col) for col in self.columns)

    @property
    def bottom_row(self) -> Word:
        return tuple(col[0] for col in self.columns)

    def content(self) -> frozenset:
        return frozenset(sym for col in self.columns for sym in col)

    def entry(self, column: int, row: int) -> Symbol:
        """Symbol at 1-based column-row position (column, row), rows from the bottom."""
        return self.columns[column - 1][row - 1]

    def evaluation(self, alphabet_size: int) -> Evaluation:
        return evaluation(itertools.chain.from_iterable(self.columns), alphabet_size)


@dataclass(frozen=True)
class TableauClass:
    """All classification flags of a tableau, computed in one pass."""

    is_pre: bool
    is_lps: bool
    is_rps: bool
    is_standard_ps: bool
    is_recording: bool


def classify(t: Tableau) -> TableauClass:
    """Classify ``t`` against every tableau kind at once.

    The empty tableau belongs to every class.
    """
    cols = t.columns
    strict_cols = all(a < b for col in cols for a, b in itertools.pairwise(col))
    weak_cols = all(a <= b for col in cols for a, b in itertools.pairwise(col))
    bottom = [col[0] for col in cols]
    weak_bottom = all(a <= b for a, b in itertools.pairwise(bottom))
    strict_bottom = all(a < b for a, b in itertools.pairwise(bottom))
    symbols = [sym for col in cols for sym in col]
    is_pre = len(set(symbols)) == len(symbols)
    is_lps = strict_cols and weak_bottom
    is_rps = weak_cols and strict_bottom
    is_standard = is_pre and is_lps and is_rps
    is_recording = is_standard and set(symbols) == set(range(1, len(symbols) + 1))
    return TableauClass(is_pre, is_lps, is_rps, is_standard, is_recording)


def column_reading(t: Tableau) -> Word:
    """Read columns left to right, each column top to bottom."""
    return tuple(sym for col in t.columns for sym in reversed(col))


def reverse_columns(t: Tableau) -> Tableau:
    """Flip every column upside down; a shape-preserving involution."""
    return Tableau._trusted(col[::-1] for col in t.columns)


def standardize_tableau(t: Tableau, direction: Direction) -> Tableau:
    """Attach occurrence indices to the entries of an lPS or rPS tableau.

    ``direction="left"`` requires an lPS tableau and indexes occurrences
    reading the columns left to right, each top to bottom.
    ``direction="right"`` requires an rPS tableau and reads the columns right
    to left, each bottom to top.  Either reading turns the tableau into a
    standard one over the indexed alphabet, with base symbols kept in place.
    """
    kind = classify(t)
    if t.columns and isinstance(t.columns[0][0], StandardizedSymbol):
        raise InvalidInputError("tableau is already standardized")
    if direction == "left":
        if not kind.is_lps:
            raise InvalidInputError("left standardization requires an lPS tableau")
        positions = [
            (j, r)
            for j in range(len(t.columns))
            for r in range(len(t.columns[j]) - 1, -1, -1)
        ]
    elif direction == "right":
        if not kind.is_rps:
            raise InvalidInputError("right standardization requires an rPS tableau")
        positions = [
            (j, r)
            for j in range(len(t.columns) - 1, -1, -1)
            for r in range(len(t.columns[j]))
        ]
    else:
        raise InvalidInputError(f"direction must be 'left' or 'right', got {direction!r}")
    seen: dict[Symbol, int] = {}
    new_cols: list[list[StandardizedSymbol]] = [[None] * len(col) for col in t.columns]  # type: ignore[list-item]
    for j, r in positions:
        base = t.columns[j][r]
        seen[base] = seen.get(base, 0) + 1
        new_cols[j][r] = StandardizedSymbol(base, seen[base])
    return Tableau._trusted(new_cols)


def destandardize_tableau(t: Tableau) -> Tableau:
    """Erase all occurrence indices, keeping shape and base symbols."""
    if t.columns and not isinstance(t.columns[0][0], StandardizedSymbol):
        raise InvalidInputError("destandardization needs standardized entries")
    return Tableau._trusted(tuple(sym.base for sym in col) for col in t.columns)


def render_ascii(t: Tableau) -> str:
    """Render rows top to bottom with the bottom row last, columns bottom-justified."""
    if not t.columns:
        return "(empty)"
    widths = [max(len(str(sym)) for sym in col) for col in t.columns]
    height = max(len(col) for col in t.columns)
    lines = []
    for row in range(height - 1, -1, -1):
        cells = []
        for j, col in enumerate(t.columns):
            text = str(col[row]) if row < len(col) else ""
            cells.append(text.rjust(widths[j]))
        lines.append(" ".join(cells).rstrip())
    return "\n".join(lines)


def render_latex(t: Tableau) -> str:
    """Emit a ytableau environment, rows top to bottom, bottom row last."""
    if not t.columns:
        return "\\begin{ytableau}\n\\none\n\\end{ytableau}"
    height = max(len(col) for col in t.columns)
    rows = []
    for row in range(height - 1, -1, -1):
        cells = [str(col[row]) if row < len(col) else "\\none" for col in t.columns]
        rows.append(" & ".join(cells))
    body = " \\\\\n".join(rows)
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
