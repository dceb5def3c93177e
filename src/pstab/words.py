"""Words over totally ordered alphabets, evaluations, and standardization.

Symbols are the positive naturals 1 < 2 < 3 < ...; a word is a tuple of
symbols.  Standardizing a word attaches an occurrence index to every symbol,
producing a word of :class:`StandardizedSymbol` entries in which no symbol
repeats.  Standardized symbols compare base-first, then index, so plain tuple
comparison realizes the indexed-alphabet order.
"""

from __future__ import annotations

from typing import Any, Iterable, Literal, NamedTuple, Union

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


def _positive(x: Any) -> bool:
    return isinstance(x, int) and not isinstance(x, bool) and x >= 1


def check_word(syms: Iterable[Any], kind: type | None = None) -> Word:
    """Return ``syms`` as a word, or raise if an entry is not a symbol.

    Plain symbols are positive ints (never bools); standardized symbols have a
    positive int base and index.  A word never mixes the two kinds, and
    ``kind`` (``int`` or :class:`StandardizedSymbol`) narrows it to one.
    """
    out = tuple(syms)
    want = kind
    for sym in out:
        got = StandardizedSymbol if isinstance(sym, StandardizedSymbol) else int
        if not (all(map(_positive, sym)) if got is StandardizedSymbol else _positive(sym)):
            raise InvalidInputError(f"not a symbol: {sym!r}")
        want = want or got
        if got is not want:
            kinds = "standardized" if want is StandardizedSymbol else "plain"
            raise InvalidInputError(f"expected only {kinds} symbols, got {sym}")
    return out


def standardize(word: Iterable[int], direction: Direction = "left") -> tuple[StandardizedSymbol, ...]:
    """Attach occurrence indices to every symbol of ``word``.

    ``direction="left"`` numbers the occurrences of each symbol 1, 2, ...
    reading left to right; ``direction="right"`` reads right to left, so the
    leftmost occurrence of a symbol carries the highest index.  The result is
    a standard word either way.
    """
    plain = check_word(word, int)
    if direction == "left":
        order = range(len(plain))
    elif direction == "right":
        order = range(len(plain) - 1, -1, -1)
    else:
        raise InvalidInputError(f"direction must be 'left' or 'right', got {direction!r}")
    seen: dict[int, int] = {}
    out: list[StandardizedSymbol | None] = [None] * len(plain)
    for pos in order:
        base = plain[pos]
        seen[base] = seen.get(base, 0) + 1
        out[pos] = StandardizedSymbol(base, seen[base])
    return tuple(out)  # type: ignore[arg-type]


def destandardize(word: Iterable[StandardizedSymbol]) -> tuple[int, ...]:
    """Erase the occurrence indices, recovering the underlying plain word."""
    return tuple(sym.base for sym in check_word(word, StandardizedSymbol))


def evaluation(word: Iterable[int], alphabet_size: int) -> Evaluation:
    """Count the occurrences of each symbol of the alphabet 1..``alphabet_size``.

    Entry ``a`` (1-based) of the result is the number of times ``a`` occurs in
    ``word``; the entries sum to the length of the word.
    """
    if alphabet_size < 0:
        raise InvalidInputError("alphabet_size must be nonnegative")
    counts = [0] * alphabet_size
    for sym in check_word(word, int):
        if sym > alphabet_size:
            raise InvalidInputError(f"symbol {sym} exceeds alphabet size {alphabet_size}")
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
    empty word.
    """
    tokens = text.replace(",", " ").split()
    out: list[Symbol] = []
    for tok in tokens:
        try:
            if "_" in tok:
                base_text, index_text = tok.split("_")
                sym: Symbol = StandardizedSymbol(int(base_text), int(index_text))
            else:
                sym = int(tok)
        except ValueError as exc:
            raise InvalidInputError(f"cannot parse symbol {tok!r}") from exc
        out.append(sym)
    return check_word(out)


def format_word(word: Iterable[Symbol]) -> str:
    """Render a word as space-separated tokens (``base_index`` when standardized)."""
    return " ".join(str(sym) for sym in word)
