"""Exact counting of patience sorting tableaux.

Polynomial-time counts and recursions for the number of lPS/rPS tableaux
with a given evaluation, two independent routes to the Bell numbers, Stirling
numbers, the hook-length-style count of standard tableaux per composition
shape, the matching fiber size of the sorting projection, and the projection
itself.  The paper's literal sums (over every bottom row, every 0-1 row and
every composition) are exponential; they live in :mod:`pstab.oracle` as
cross-checks of the dynamic programs here.  The one enumeration here is
budgeted: the walk over set partitions, a third route to the Bell numbers.

Everything is ordinary Python integer arithmetic, hence arbitrary precision,
and the one division, a step along a row of Pascal's triangle, is exact.
"""

from __future__ import annotations

from functools import cache
from itertools import accumulate, chain, product
from math import comb, factorial, prod
from operator import sub
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Sequence

from .errors import BudgetExceededError, InvalidInputError
from .words import Evaluation, Shape, _check_int, _parse_int, _quote

if TYPE_CHECKING:  # ps_project builds its result with its input's class, so counting loads no tableaux
    from .tableaux import Tableau

Count = int


def binomial(m: int, k: int) -> Count:
    """Binomial coefficient with the convention that out-of-range ``k`` gives 0."""
    return comb(m, k) if 0 <= k <= m else 0


def _normalize_evaluation(m: Iterable[int]) -> tuple[int, ...]:
    positive = tuple(x for x in m if _check_int(x, "evaluation entry", 0))
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
    """The product over a = 2..n of C(m_a + j_1 + ... + j_{a-1}, m_a - j_a), for
    the evaluation tail ``m_tail`` = (m_2, ..., m_n) and 0-1 entries j_a.

    The lead ``j1`` counts the columns the tail finds beyond the first.  Lead 0
    (:func:`pstab.oracle.bracket_sum_rps`) counts the rPS tableaux with
    evaluation (m_1, ..., m_n), any m_1, whose bottom row is (1, j_2, ..., j_n).
    Lead 1 (:func:`count_rps_rec`) counts those with evaluation
    (m_1, 1, m_2, ..., m_n) and bottom row (1, 1, j_2, ..., j_n), so
    ``bracket_rps((1,), 0, (0,))`` is 1 but ``bracket_rps((1,), 1, (0,))`` is 2.
    """
    if len(j) != len(m_tail):
        raise InvalidInputError(f"need {len(m_tail)} bottom-row entries, got {len(j)}")
    acc = j1
    result = 1
    for idx, m_a in enumerate(m_tail):
        result *= binomial(m_a + acc, m_a - j[idx])
        acc += j[idx]
    return result


def _fold(m: Iterable[int], factors: Callable[[int, int], tuple[int, Iterable[int]]]) -> dict[int, Count]:
    """Tableaux with evaluation ``m`` by number of columns: from the empty
    tableau (0 columns, one way), the m_a copies of each symbol take c columns
    to c + j in the ways that ``factors(m_a, c)`` lists from its least j on.
    Zero entries of ``m`` are dropped first; they cannot change a count."""
    ways = {0: 1}
    for m_a in _normalize_evaluation(m):
        step: dict[int, Count] = {}
        for c, w in ways.items():
            least, weights = factors(m_a, c)
            for k, f in enumerate(weights, c + least):
                step[k] = step.get(k, 0) + w * f
        ways = step
    return ways


def _lps_factors(m_a: int, c: int) -> tuple[int, Iterable[int]]:
    # c is bracket_lps's running top: j copies open columns, m_a - j top distinct old ones, C(c, m_a - j)
    # ways, from one Pascal row C(c, 0..top) by the exact step C(c, k + 1) = C(c, k) * (c - k) // (k + 1)
    top = min(m_a, c)
    return m_a - top, reversed(list(accumulate(range(top), lambda x, k: x * (c - k) // (k + 1), initial=1)))


def _rps_factors(m_a: int, c: int) -> tuple[int, Iterable[int]]:
    # c - 1 is bracket_rps's 0-1 sum: j <= 1 copies open a column, the rest stack on a multiset of c + j columns
    return 0, (comb(m_a + c - 1, m_a), comb(m_a + c - 1, m_a - 1))


def count_lps(m: Iterable[int]) -> Count:
    """Number of distinct lPS tableaux with evaluation ``m``: the sum of
    :func:`_fold` by :func:`_lps_factors`, O(len(m) * sum(m) * max(m))
    binomials instead of the prod(m_a + 1) brackets of the literal sum,
    :func:`pstab.oracle.bracket_sum_lps`, which checks it."""
    return sum(_fold(m, _lps_factors).values())


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
    """Number of distinct rPS tableaux with evaluation ``m``: the sum of
    :func:`_fold` by :func:`_rps_factors`, O(len(m)^2) binomials instead of the
    2^(n-1) brackets of the literal sum, :func:`pstab.oracle.bracket_sum_rps`,
    which checks it.  The first symbol has one way, so m_1 never matters."""
    return sum(_fold(m, _rps_factors).values())


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


def _stirling_row(n: int, k: int) -> list[Count]:
    """S(n, 0), ..., S(n, k) by the row recurrence S(a, b) = b * S(a - 1, b) + S(a - 1, b - 1)."""
    row = [1]  # row[b] = S(a, b) for b <= min(a, k), from a = 0
    for _ in range(n):
        if len(row) <= k:
            row.append(0)  # S(a - 1, a) = 0
        row = [0] + [b * row[b] + row[b - 1] for b in range(1, len(row))]
    return row


def bell_rowsum(n: int) -> Count:
    """n-th Bell number as the sum over 0-1 bottom rows of standard tableaux.

    Over the running sum of the 0-1 row (from 1), a 0 multiplies by the sum
    and a 1 adds one, so the weight ending at sum b is S(n, b): the sum of
    :func:`_stirling_row`, O(n^2) integer steps instead of the 2^(n-1) terms
    of :func:`pstab.oracle.bell_rowsum_terms`, whose sum checks it.  Equals
    ``count_lps((1,) * n)`` and ``count_rps((1,) * n)``.
    """
    return sum(_stirling_row(_check_int(n, "n"), n))


def count_set_partitions(n: int, max_n: int = 12) -> int:
    """Number of partitions of an n-element set, by direct enumeration.

    Walks every restricted-growth assignment (element i joins one of the
    existing blocks or opens a new one), so each partition is visited once.
    That is B_n leaves, so ``n`` above ``max_n`` is refused up front.
    """
    if _check_int(n, "n", 0) > max_n:
        raise BudgetExceededError(f"n={n} exceeds the set-partition budget of {max_n}")

    def rec(i: int, blocks: int) -> int:
        if i == n:
            return 1
        total = 0
        for choice in range(blocks + 1):
            total += rec(i + 1, blocks + (1 if choice == blocks else 0))
        return total

    return rec(0, 0)


def stirling2(n: int, k: int) -> Count:
    """Stirling number of the second kind: partitions of n elements into k blocks.

    Also the number of standard tableaux over an n-symbol alphabet with
    exactly k columns.  Out-of-range ``k`` gives 0.
    """
    _check_int(n, "n")
    _check_int(k, "k", None)
    return _stirling_row(n, k)[k] if 0 <= k <= n else 0


def compositions(n: int) -> Iterator[Shape]:
    """All 2^(n-1) compositions of ``n``, first part descending, then the tail
    recursively: (3), (2,1), (1,2), (1,1,1).  This order is part of the CLI
    contract for verification reports."""
    yield (_check_int(n, "n"),)
    for first in range(n - 1, 0, -1):
        for rest in compositions(n - first):
            yield (first,) + rest


def _check_shape(n: int, shape: Sequence[int]) -> tuple[int, ...]:
    lam = tuple(_check_int(x, "shape part") for x in shape)
    if sum(lam) != n:
        raise InvalidInputError(f"shape {_quote(lam)} is not a composition of {_quote(n)}")
    return lam


def _columns_left(n: int, shape: Sequence[int]) -> Iterator[tuple[int, int]]:
    """(boxes in this column and those right of it, part) for each column of ``shape``."""
    lam = _check_shape(_check_int(n, "n"), shape)
    return zip(accumulate(lam, sub, initial=n), lam)


def hook_count(n: int, shape: Sequence[int]) -> Count:
    """Number of standard tableaux of the given composition shape over any
    n-symbol alphabet:

        (n - 1)! / (prod_{i=1}^{m-1} (n - lam_1 - ... - lam_i)
                    * prod_k (lam_k - 1)!)

    computed without division as prod_k C(r_k - 1, lam_k - 1), r_k the boxes of
    columns k..m: column k takes the least of their symbols and lam_k - 1 others.
    """
    return prod(comb(left - 1, part - 1) for left, part in _columns_left(n, shape))


def fiber_size(n: int, shape: Sequence[int]) -> Count:
    """Number of same-shape fillings that :func:`ps_project` sends to any one
    standard tableau:

        prod_{i=0}^{m-1} (n - lam_1 - ... - lam_i) * prod_k (lam_k - 1)!

    Satisfies fiber_size(n, shape) * hook_count(n, shape) = n!.
    """
    return prod(left * factorial(part - 1) for left, part in _columns_left(n, shape))


def bell_hook(n: int) -> Count:
    """n-th Bell number as the sum of :func:`hook_count` over all compositions.

    The first factor of :func:`hook_count`'s product gives
    hook_count(r, (a,) + rest) = C(r - 1, a - 1) * hook_count(r - a, rest),
    so B_r = sum_a C(r - 1, a - 1) * B_{r - a} with B_0 = 1, the binomials
    taken from Pascal's triangle row by row: O(n^2) integer steps instead of
    the 2^(n-1) hook counts of the literal sum,
    :func:`pstab.oracle.bell_hook_sum`, which checks it.
    """
    bell = [1]
    row = [1]  # row[i] = C(r - 1, i)
    for _ in range(_check_int(n, "n")):
        bell.append(sum(c * b for c, b in zip(row, reversed(bell))))
        row = [1] + [x + y for x, y in zip(row, row[1:])] + [1]
    return bell[n]


def ps_project(t: Tableau, alphabet: Sequence[int] | None = None) -> Tableau:
    """Project a distinct-symbol filling onto a standard tableau of the same
    shape and content.

    Step i swaps the smallest symbol among columns i..m into the bottom box
    of column i, then sorts column i ascending from the bottom.  The map is
    idempotent and fixes every standard tableau; its fibers all have size
    :func:`fiber_size`.

    One walk over a flat list of the symbols, column after column: at
    column i, the smallest symbol from the column's bottom box onward swaps
    into that box, and the column's slice, sorted, is column i of the result.
    Later steps read only the boxes right of it.
    """
    cols = t.columns
    flat = list(chain.from_iterable(cols))
    content = set(flat)
    if len(content) != len(flat):
        raise InvalidInputError("projection requires pairwise-distinct symbols")
    if alphabet is not None and not content <= set(alphabet):
        raise InvalidInputError("tableau content is not contained in the alphabet")
    projected = []
    start = 0
    for col in cols:
        end = start + len(col)
        low = min(flat[start:])
        k = flat.index(low, start)
        flat[start], flat[k] = low, flat[start]
        projected.append(tuple(sorted(flat[start:end])))
        start = end
    return type(t)._from_tuples(tuple(projected))


def _parse_ints(text: str, what: str, least: int) -> tuple[int, ...]:
    """Comma- or whitespace-separated integers, each at least ``least``."""
    return tuple(_parse_int(tok, what, least) for tok in text.replace(",", " ").split())


def parse_evaluation(text: str) -> Evaluation:
    """Parse a comma- or whitespace-separated evaluation like ``"2,1,2"``."""
    return _parse_ints(text, "evaluation entry", 0)


def parse_shape(text: str) -> Shape:
    """Parse a comma- or whitespace-separated shape like ``"3,1"``."""
    return _parse_ints(text, "shape part", 1)
