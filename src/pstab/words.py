"""Words over totally ordered alphabets, evaluations, and standardization.

Symbols are the positive naturals 1 < 2 < 3 < ...; a word is a tuple of
symbols.  Standardizing a word attaches an occurrence index to every symbol,
producing a word of :class:`StandardizedSymbol` entries in which no symbol
repeats.  Standardized symbols compare base-first, then index, so plain tuple
comparison realizes the indexed-alphabet order.
"""

from __future__ import annotations

from contextlib import suppress
from typing import Any, Callable, Iterable, Literal, NamedTuple, Union

from .errors import InvalidInputError

Direction = Literal["left", "right"]


class StandardizedSymbol(NamedTuple):
    """A symbol tagged with its occurrence index, ordered base-first."""

    base: int
    index: int

    def __str__(self) -> str:
        return f"{self.base}_{self.index}"


Symbol = Union[int, StandardizedSymbol]
Word = tuple[Symbol, ...]
Evaluation = tuple[int, ...]
Shape = tuple[int, ...]


def _quote(value: Any, render: Callable[[Any], str] = repr) -> str:
    """``render(value)`` for an error message, cut short with "...": a string
    past 20 characters shows its first 20, as the digit-limit message quotes a
    token, and any other rendering past 40 characters its first 40.  A value
    that cannot be rendered (it holds an int past ``int``'s digit limit) is
    named by its type."""
    if isinstance(value, str):
        return repr(value) if len(value) <= 20 else f"{value[:20]!r}..."
    try:
        text = render(value)
    except ValueError:
        return f"<{type(value).__name__} too long to print>"
    return text if len(text) <= 40 else f"{text[:40]}..."


def _check_int(value: Any, name: str, least: int | None = 1) -> int:
    """Return ``value`` if it is an int, not a bool, and at least ``least`` (None: any int).

    The package's one rule for counts, sizes and symbols.
    """
    if isinstance(value, int) and not isinstance(value, bool):
        if least is None or value >= least:
            return value
        raise InvalidInputError(f"{name} must be at least {least}")
    raise InvalidInputError(f"{name} must be an integer, got {_quote(value)}")


def _parse_int(token: str, name: str, least: int = 1) -> int:
    """``token`` as an integer under :func:`_check_int`'s rule.

    ``int`` also reads ``_`` separators and other scripts' digits; a count
    written that way is refused, as is any token ``int`` cannot read.  A
    well-formed token that ``int`` refuses is past its digit limit (4300 by
    default), and the message says so, quoting only the token's start.
    """
    value: Any = token
    if token.isascii() and "_" not in token:
        try:
            value = int(token)
        except ValueError:  # a well-formed token fails only past the digit limit
            digits = token.strip()
            if digits[:1] in ("+", "-"):
                digits = digits[1:]
            if digits.isdigit():
                raise InvalidInputError(f"{name} has more digits than int() reads; it starts {token[:20]!r}") from None
    return _check_int(value, name, least)


def check_word(syms: Iterable[Any], kind: type | None = None) -> Word:
    """Return ``syms`` as a word, or raise if an entry is not a symbol.

    Plain symbols are positive ints (never bools); standardized symbols have a
    positive int base and index.  A word never mixes the two kinds, and
    ``kind`` (``int`` or :class:`StandardizedSymbol`) narrows it to one.
    """
    out = tuple(syms)
    if kind in (None, int) and set(map(type, out)) == {int} and min(out) >= 1:
        return out  # the common plain word, accepted without the per-entry loop
    want = kind
    for sym in out:
        got = StandardizedSymbol if isinstance(sym, StandardizedSymbol) else int
        try:
            for part in sym if got is StandardizedSymbol else (sym,):
                _check_int(part, "symbol")
        except InvalidInputError:
            raise InvalidInputError(f"not a symbol: {_quote(sym)}") from None
        want = want or got
        if got is not want:
            kinds = "standardized" if want is StandardizedSymbol else "plain"
            raise InvalidInputError(f"expected only {kinds} symbols, got {_quote(sym, str)}")
    return out


def standardize(word: Iterable[int], direction: Direction = "left") -> tuple[StandardizedSymbol, ...]:
    """Attach occurrence indices to every symbol of ``word``.

    ``direction="left"`` numbers the occurrences of each symbol 1, 2, ...
    reading left to right; ``direction="right"`` reads right to left, so the
    leftmost occurrence of a symbol carries the highest index.  The result is
    a standard word either way.
    """
    plain = check_word(word, int)
    if direction not in ("left", "right"):
        raise InvalidInputError(f"direction must be 'left' or 'right', got {_quote(direction)}")
    seen: dict[int, int] = {}
    out: list[StandardizedSymbol] = []
    for base in plain if direction == "left" else reversed(plain):
        seen[base] = seen.get(base, 0) + 1
        out.append(StandardizedSymbol(base, seen[base]))
    return tuple(out if direction == "left" else reversed(out))


def destandardize(word: Iterable[StandardizedSymbol]) -> tuple[int, ...]:
    """Erase the occurrence indices, recovering the underlying plain word."""
    return tuple(sym.base for sym in check_word(word, StandardizedSymbol))


def evaluation(word: Iterable[int], alphabet_size: int) -> Evaluation:
    """Count the occurrences of each symbol of the alphabet 1..``alphabet_size``.

    Entry ``a`` (1-based) of the result is the number of times ``a`` occurs in
    ``word``; the entries sum to the length of the word.
    """
    counts = [0] * _check_int(alphabet_size, "alphabet_size", 0)
    for sym in check_word(word, int):
        if sym > alphabet_size:
            raise InvalidInputError(f"symbol {_quote(sym)} exceeds alphabet size {_quote(alphabet_size)}")
        counts[sym - 1] += 1
    return tuple(counts)


def is_standard(word: Iterable[Symbol]) -> bool:
    """True iff no symbol of ``word`` repeats."""
    syms = tuple(word)
    return len(set(syms)) == len(syms)


def parse_word(text: str) -> Word:
    """Parse a word from whitespace- or comma-separated tokens.

    Plain symbols are positive integers ("4 6 2" or "4,6,2"); standardized
    symbols use ``base_index`` tokens ("4_1 1_1").  An empty string is the
    empty word.  Digits are ASCII: ``int`` also reads other scripts' digits.
    """
    tokens = text.replace(",", " ").split()
    if "_" not in text and text.isascii():
        with suppress(ValueError):  # else _parse_symbol names the first bad token
            return check_word(list(map(int, tokens)))
    return check_word(list(map(_parse_symbol, tokens)))


def _parse_symbol(tok: str) -> Symbol:
    with suppress(ValueError):
        if tok.isascii():
            if "_" not in tok:
                return int(tok)
            base, index = tok.split("_")  # a ValueError unless exactly one "_"
            return StandardizedSymbol(int(base), int(index))
    parts = (tok[1:] if tok[:1] in ("+", "-") else tok).split("_")  # int() reads one leading sign
    if tok.isascii() and len(parts) <= 2 and all(map(str.isdigit, parts)):  # past int()'s digit limit
        raise InvalidInputError(f"symbol has more digits than int() reads; it starts {tok[:20]!r}")
    raise InvalidInputError(f"cannot parse symbol {_quote(tok)}")


def format_word(word: Iterable[Symbol]) -> str:
    """Render a word as space-separated tokens (``base_index`` when standardized)."""
    return " ".join(str(sym) for sym in word)
