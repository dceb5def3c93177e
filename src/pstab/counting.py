"""Exact counting of patience sorting tableaux.

Closed forms and recursions for the number of lPS/rPS tableaux with a given
evaluation, two independent routes to the Bell numbers, Stirling numbers,
the hook-length-style count of standard tableaux per composition shape, the
matching fiber size of the sorting projection, and the projection itself.

Everything is ordinary Python integer arithmetic, hence arbitrary precision;
divisions are exact and asserted to be so.
"""

from __future__ import annotations

from functools import cache
from itertools import product
from math import factorial
from typing import Iterable, Iterator, Sequence

from .errors import InternalError, InvalidInputError
from .tableaux import Shape, Tableau, classify
from .words import Evaluation

Count = int


def binomial(m: int, k: int) -> Count:
    """Binomial coefficient with the convention that out-of-range ``k`` gives 0."""
    if k < 0 or k > m:
        return 0
    return factorial(m) // (factorial(k) * factorial(m - k))


def _normalize_evaluation(m: Iterable[int]) -> tuple[int, ...]:
    ev = tuple(m)
    if any(not isinstance(x, int) or isinstance(x, bool) or x < 0 for x in ev):
        raise InvalidInputError(f"evaluation entries must be nonnegative integers: {ev!r}")
    positive = tuple(x for x in ev if x > 0)
    if not positive:
        raise InvalidInputError("evaluation must have at least one positive entry")
    return positive


def bracket_lps(m: Sequence[int], j: Sequence[int]) -> Count:
    """Number of lPS tableaux with evaluation ``m`` whose bottom row holds all
    of symbol 1 and exactly ``j[a]`` copies of symbol ``a+2``.

    Equals the product over a = 2..n of C(m_1 + j_2 + ... + j_{a-1}, m_a - j_a);
    the binomial convention returns 0 for out-of-range bottom rows.
    """
    if len(j) != len(m) - 1:
        raise InvalidInputError(f"need {len(m) - 1} bottom-row entries, got {len(j)}")
    top = m[0]
    result = 1
    for idx in range(1, len(m)):
        result *= binomial(top, m[idx] - j[idx - 1])
        top += j[idx - 1]
    return result


def bracket_rps(m_tail: Sequence[int], j1: int, j: Sequence[int]) -> Count:
    """Number of rPS tableaux with evaluation tail ``m_tail`` = (m_2, ..., m_n)
    whose bottom row is the 0-1 sequence (1, j_2, ..., j_n).

    Equals the product over a = 2..n of C(m_a + j_1 + j_2 + ... + j_{a-1},
    m_a - j_a).  Taking ``j1`` = 0 or 1 gives the same product, because the
    first factor C(m_2 + j_1, m_2 - j_2) only shifts by a compensating term
    absorbed in the running sum; both parameterizations are accepted.
    """
    if len(j) != len(m_tail):
        raise InvalidInputError(f"need {len(m_tail)} bottom-row entries, got {len(j)}")
    acc = j1
    result = 1
    for idx, m_a in enumerate(m_tail):
        result *= binomial(m_a + acc, m_a - j[idx])
        acc += j[idx]
    return result


def count_lps(m: Iterable[int]) -> Count:
    """Number of distinct lPS tableaux with evaluation ``m`` (closed form).

    Sums :func:`bracket_lps` over all bottom-row choices 0 <= j_a <= m_a.
    Zero entries of ``m`` are dropped first; they cannot change the count.
    """
    ev = _normalize_evaluation(m)
    if len(ev) == 1:
        return 1
    return sum(bracket_lps(ev, j) for j in product(*(range(x + 1) for x in ev[1:])))


def count_lps_rec(m: Iterable[int]) -> Count:
    """Same count as :func:`count_lps`, via the recursion
    L(m_1, m_2, rest) = sum_j C(m_1, m_2 - j) L(m_1 + j, rest), L(m_1) = 1."""
    ev = _normalize_evaluation(m)

    @cache
    def rec(t: tuple[int, ...]) -> int:
        if len(t) == 1:
            return 1
        return sum(
            binomial(t[0], t[1] - j) * rec((t[0] + j,) + t[2:]) for j in range(t[1] + 1)
        )

    return rec(ev)


def count_rps(m: Iterable[int]) -> Count:
    """Number of distinct rPS tableaux with evaluation ``m`` (closed form).

    Sums :func:`bracket_rps` over all 0-1 bottom rows.  The result never
    depends on the first evaluation entry: every copy of the smallest symbol
    sits in the first column.
    """
    ev = _normalize_evaluation(m)
    if len(ev) == 1:
        return 1
    return sum(bracket_rps(ev[1:], 0, j) for j in product((0, 1), repeat=len(ev) - 1))


def count_rps_rec(m: Iterable[int]) -> Count:
    """Same count as :func:`count_rps`, via the recursion
    R(m_1, m_2, rest) = R(m_2, rest) + m_2 * sum of brackets with lead 1,
    with bases R(m_1) = 1 and R(m_1, m_2) = 1 + m_2."""
    ev = _normalize_evaluation(m)

    @cache
    def rec(t: tuple[int, ...]) -> int:
        if len(t) == 1:
            return 1
        if len(t) == 2:
            return 1 + t[1]
        tail = sum(bracket_rps(t[2:], 1, j) for j in product((0, 1), repeat=len(t) - 2))
        return rec(t[1:]) + t[1] * tail

    return rec(ev)


def bell_rowsum_terms(n: int) -> list[Count]:
    """Terms of the 0-1 bottom-row expansion of the n-th Bell number.

    One term per tuple (p_2, ..., p_n) in {0,1}^(n-1), in lexicographic
    order: the product over a = 2..n-1 of (1 + p_2 + ... + p_a)^(1 - p_{a+1}).
    """
    if n < 1:
        raise InvalidInputError("n must be at least 1")
    terms = []
    for p in product((0, 1), repeat=n - 1):
        term = 1
        acc = 1
        for a in range(n - 2):
            acc += p[a]
            if p[a + 1] == 0:
                term *= acc
        terms.append(term)
    return terms


def bell_rowsum(n: int) -> Count:
    """n-th Bell number as the sum over 0-1 bottom rows of standard tableaux.

    Equals ``count_lps((1,) * n)`` and ``count_rps((1,) * n)``.
    """
    return sum(bell_rowsum_terms(n))


def stirling2(n: int, k: int) -> Count:
    """Stirling number of the second kind: partitions of n elements into k blocks.

    Also the number of standard tableaux over an n-symbol alphabet with
    exactly k columns.  Out-of-range ``k`` gives 0.
    """
    if n < 1:
        raise InvalidInputError("n must be at least 1")

    @cache
    def rec(a: int, b: int) -> int:
        if b < 0 or b > a:
            return 0
        if a == 0:
            return 1
        return b * rec(a - 1, b) + rec(a - 1, b - 1)

    return rec(n, k)


def compositions(n: int) -> Iterator[Shape]:
    """All 2^(n-1) compositions of ``n``, first part descending, then the tail
    recursively: (3), (2,1), (1,2), (1,1,1).  This order is part of the CLI
    contract for verification reports."""
    if n < 1:
        raise InvalidInputError("n must be at least 1")
    for first in range(n, 0, -1):
        if first == n:
            yield (n,)
        else:
            for rest in compositions(n - first):
                yield (first,) + rest


def _check_shape(n: int, shape: Sequence[int]) -> tuple[int, ...]:
    lam = tuple(shape)
    if any(not isinstance(x, int) or isinstance(x, bool) or x < 1 for x in lam):
        raise InvalidInputError(f"shape parts must be positive integers: {lam!r}")
    if sum(lam) != n:
        raise InvalidInputError(f"shape {lam!r} is not a composition of {n}")
    return lam


def hook_count(n: int, shape: Sequence[int]) -> Count:
    """Number of standard tableaux of the given composition shape over any
    n-symbol alphabet:

        (n - 1)! / (prod_{i=1}^{m-1} (n - lam_1 - ... - lam_i)
                    * prod_k (lam_k - 1)!)

    The division is exact; a nonzero remainder is an internal error, never a
    rounding.
    """
    lam = _check_shape(n, shape)
    denominator = 1
    prefix = 0
    for part in lam[:-1]:
        prefix += part
        denominator *= n - prefix
    for part in lam:
        denominator *= factorial(part - 1)
    quotient, remainder = divmod(factorial(n - 1), denominator)
    if remainder:
        raise InternalError(f"hook count for n={n}, shape={lam} is not an integer")
    return quotient


def fiber_size(n: int, shape: Sequence[int]) -> Count:
    """Number of same-shape fillings that :func:`ps_project` sends to any one
    standard tableau:

        prod_{i=0}^{m-1} (n - lam_1 - ... - lam_i) * prod_k (lam_k - 1)!

    Satisfies fiber_size(n, shape) * hook_count(n, shape) = n!.
    """
    lam = _check_shape(n, shape)
    result = 1
    prefix = 0
    for part in lam:
        result *= n - prefix
        prefix += part
    for part in lam:
        result *= factorial(part - 1)
    return result


def bell_hook(n: int) -> Count:
    """n-th Bell number as the sum of :func:`hook_count` over all compositions."""
    if n < 1:
        raise InvalidInputError("n must be at least 1")
    return sum(hook_count(n, lam) for lam in compositions(n))


def ps_project(t: Tableau, alphabet: Sequence[int] | None = None) -> Tableau:
    """Project a distinct-symbol filling onto a standard tableau of the same
    shape and content.

    Step i swaps the smallest symbol among columns i..m into the bottom box
    of column i, then sorts column i ascending from the bottom.  The map is
    idempotent and fixes every standard tableau; its fibers all have size
    :func:`fiber_size`.
    """
    if not classify(t).is_pre:
        raise InvalidInputError("projection requires pairwise-distinct symbols")
    if alphabet is not None and not t.content() <= set(alphabet):
        raise InvalidInputError("tableau content is not contained in the alphabet")
    cols = [list(col) for col in t.columns]
    for i in range(len(cols)):
        best = (cols[i][0], i, 0)
        for j in range(i, len(cols)):
            for r, sym in enumerate(cols[j]):
                if sym < best[0]:
                    best = (sym, j, r)
        _, j, r = best
        cols[j][r], cols[i][0] = cols[i][0], cols[j][r]
        cols[i].sort()
    return Tableau._trusted(cols)


def _parse_ints(text: str, what: str, least: int) -> tuple[int, ...]:
    """Comma- or whitespace-separated integers, each at least ``least``."""
    tokens = text.replace(",", " ").split()
    try:
        values = tuple(int(tok) for tok in tokens)
    except ValueError as exc:
        raise InvalidInputError(f"cannot parse {what} {text!r}") from exc
    if any(x < least for x in values):
        raise InvalidInputError(f"{what} entries must be at least {least}")
    return values


def parse_evaluation(text: str) -> Evaluation:
    """Parse a comma- or whitespace-separated evaluation like ``"2,1,2"``."""
    return _parse_ints(text, "evaluation", 0)


def parse_shape(text: str) -> Shape:
    """Parse a comma- or whitespace-separated shape like ``"3,1"``."""
    return _parse_ints(text, "shape", 1)
