import re
import time
from itertools import chain, product
from math import factorial, prod

from hypothesis import given, strategies as st
import pytest

from pstab import (
    InvalidInputError,
    StandardizedSymbol,
    bell_hook_sum,
    Tableau,
    bell_hook,
    bell_rowsum,
    bell_rowsum_terms,
    binomial,
    bracket_lps,
    bracket_rps,
    bracket_sum_lps,
    bracket_sum_rps,
    classify,
    compositions,
    count_lps,
    count_lps_rec,
    count_rps,
    count_rps_rec,
    count_set_partitions,
    fiber_size,
    hook_count,
    parse_evaluation,
    parse_shape,
    ps_project,
    stirling2,
)
from pstab.oracle import fillings

evaluations = st.lists(st.integers(min_value=1, max_value=3), min_size=1, max_size=4).map(tuple)


def test_binomial_convention():
    assert binomial(3, 2) == 3
    assert binomial(2, 5) == 0
    assert binomial(0, 0) == 1
    assert binomial(4, -1) == 0


def test_bracket_lps_examples():
    assert bracket_lps((2, 1, 2), (1, 1)) == 3
    assert bracket_lps((2, 1, 2), (0, 2)) == 2
    # every symbol in the bottom row: all factors choose zero
    assert bracket_lps((3, 2, 4), (2, 4)) == 1
    with pytest.raises(InvalidInputError):
        bracket_lps((2, 1, 2), (1,))


def test_bracket_rps_examples():
    assert bracket_rps((2,), 1, (0,)) == 3
    assert bracket_rps((2,), 1, (1,)) == 3
    assert bracket_rps((5,), 0, (1,)) == 5
    # the lead counts the columns the tail finds beyond the first
    assert bracket_rps((1,), 0, (0,)) == 1
    assert bracket_rps((1,), 1, (0,)) == 2
    with pytest.raises(InvalidInputError):
        bracket_rps((2, 3), 0, (1,))


def test_bracket_rps_lead_zero_sums_to_the_count():
    for tail in [(1,), (2,), (2, 2), (1, 3)]:
        total = sum(bracket_rps(tail, 0, j) for j in product((0, 1), repeat=len(tail)))
        assert total == count_rps((1,) + tail)


def test_count_lps_worked_values():
    assert count_lps((2, 1, 2)) == 15
    assert count_lps((7,)) == 1
    assert count_lps((1, 1, 1, 1)) == 15


def test_count_lps_skips_bottom_rows_that_cannot_occur():
    # j starts at m_a - top, so an entry far above the running top costs two steps, not 10^11
    start = time.perf_counter()
    assert count_lps((1, 10**11)) == 2
    assert time.perf_counter() - start < 1.0


def test_first_step_from_the_empty_tableau_is_forced():
    # the first symbol's copies open all their columns in lPS and one in rPS, in one way, whatever m_1
    start = time.perf_counter()
    assert count_lps((10**18,)) == 1
    assert count_lps((10**18, 1)) == 10**18 + 1
    assert count_rps((10**18, 2, 3)) == count_rps((1, 2, 3))
    assert time.perf_counter() - start < 1.0


def test_count_rps_worked_values():
    assert count_rps((2, 1, 2)) == 9
    assert count_rps((3, 4)) == 5
    assert count_rps((1, 1, 1, 1)) == 15


def test_count_rejects_empty_evaluation():
    for fn in (count_lps, count_rps, count_lps_rec, count_rps_rec):
        with pytest.raises(InvalidInputError):
            fn(())
        with pytest.raises(InvalidInputError):
            fn((0, 0))
        with pytest.raises(InvalidInputError):
            fn((1, -1))


@given(evaluations)
def test_closed_form_equals_recursion(ev):
    assert count_lps(ev) == count_lps_rec(ev)
    assert count_rps(ev) == count_rps_rec(ev)


def test_dp_counts_equal_literal_sums_and_recursions():
    # every evaluation with at most 5 entries, each at most 4
    for size in range(1, 6):
        for ev in product(range(1, 5), repeat=size):
            assert count_lps(ev) == bracket_sum_lps(ev) == count_lps_rec(ev), ev
            assert count_rps(ev) == bracket_sum_rps(ev) == count_rps_rec(ev), ev


def test_dp_counts_at_scale_match_recursion_and_invariances():
    big = (60,) * 5
    assert count_lps(big) == count_lps_rec(big)
    assert count_lps(big[:2] + (0, 0) + big[2:] + (0,)) == count_lps(big)
    assert count_rps((0,) + big + (0,)) == count_rps(big)
    tail = (7, 1, 30, 2, 5, 9, 1, 4, 3, 2, 6, 1, 1, 8)
    assert count_rps((1,) + tail) == count_rps((1000,) + tail) == count_rps_rec((5,) + tail)


@given(evaluations, st.integers(min_value=0, max_value=4))
def test_counts_ignore_zero_entries(ev, pos):
    padded = ev[: pos % (len(ev) + 1)] + (0,) + ev[pos % (len(ev) + 1) :]
    assert count_lps(padded) == count_lps(ev)
    assert count_rps(padded) == count_rps(ev)


@given(evaluations, st.integers(min_value=1, max_value=5))
def test_rps_count_ignores_first_entry(ev, first):
    assert count_rps((first,) + ev) == count_rps((1,) + ev)


def test_rps_two_entry_base_case():
    for m in range(1, 5):
        for n in range(1, 6):
            assert count_rps((m, n)) == 1 + n


def test_bell_rowsum_worked_values():
    assert bell_rowsum(4) == 15
    assert sorted(bell_rowsum_terms(4)) == sorted([1, 2 * 2, 2, 1, 1, 2, 3, 1])
    assert bell_rowsum(1) == 1
    assert bell_rowsum_terms(1) == [1]
    assert bell_rowsum(5) == 52
    for refused in (bell_rowsum, bell_rowsum_terms):
        with pytest.raises(InvalidInputError):
            refused(0)


def test_bell_rowsum_terms_are_the_count_brackets_on_standard_words():
    # the paper restricts the lPS and rPS formulas to standard words, evaluation (1, ..., 1),
    # and reads the Bell expansion off them: term j is the bracket at bottom row j
    for n in range(1, 13):
        rows = list(product((0, 1), repeat=n - 1))
        assert bell_rowsum_terms(n) == [bracket_lps((1,) * n, j) for j in rows]
        assert bell_rowsum_terms(n) == [bracket_rps((1,) * (n - 1), 0, j) for j in rows]


def test_bell_hook_rejects_nonpositive():
    with pytest.raises(InvalidInputError):
        bell_hook(0)


def test_bell_known_prefix():
    known = [1, 2, 5, 15, 52, 203, 877, 4140]
    assert [bell_rowsum(n) for n in range(1, 9)] == known
    assert [bell_hook(n) for n in range(1, 9)] == known


def test_bell_routes_agree_with_literal_sums():
    for n in range(1, 15):
        value = bell_rowsum(n)
        assert value == bell_hook(n) == sum(bell_rowsum_terms(n)) == bell_hook_sum(n), n
        if n <= 10:
            assert value == count_set_partitions(n)


def test_bell_dps_at_scale_match_the_bell_triangle():
    row = [1]  # row k of the triangle ends with B_{k+1}
    for _ in range(199):
        nxt = [row[-1]]
        for x in row:
            nxt.append(nxt[-1] + x)
        row = nxt
    assert bell_rowsum(200) == bell_hook(200) == row[-1]


def test_stirling_examples():
    assert stirling2(4, 2) == 7
    assert stirling2(6, 6) == 1
    assert stirling2(6, 1) == 1
    assert stirling2(3, 0) == 0
    assert stirling2(3, 5) == 0
    with pytest.raises(InvalidInputError):
        stirling2(0, 0)


@pytest.mark.parametrize("k", [2.5, "2", None, True])
def test_stirling_refuses_a_k_that_is_not_an_int(k):
    with pytest.raises(InvalidInputError, match=f"^k must be an integer, got {re.escape(repr(k))}$"):
        stirling2(5, k)


@pytest.mark.parametrize("k", [-1, -(10**20), 6, 10**20])
def test_stirling_answers_zero_for_an_int_k_out_of_range(k):
    assert stirling2(5, k) == 0


def test_stirling_closed_forms_far_beyond_the_recursion_limit():
    n = 2000
    assert stirling2(n, 2) == 2 ** (n - 1) - 1
    assert stirling2(n, 3) == (3**n - 3 * 2**n + 3) // 6


def _stirling2_by_rows(n, k):
    """The loop stirling2 ran before it shared bell_rowsum's row: a reference."""
    if not 0 <= k <= n:
        return 0
    row = [1] + [0] * k
    for _ in range(n):
        row = [0] + [b * row[b] + row[b - 1] for b in range(1, k + 1)]
    return row[k]


def _bell_rowsum_by_running_sums(n):
    """The loop bell_rowsum ran before it summed the Stirling row: a reference."""
    ways = [0, 1]
    for _ in range(n - 1):
        step = [0] * (len(ways) + 1)
        for acc, w in enumerate(ways):
            step[acc] += w * acc
            step[acc + 1] += w
        ways = step
    return sum(ways)


def test_stirling_row_matches_the_old_loops():
    for n in range(1, 61):
        assert bell_rowsum(n) == _bell_rowsum_by_running_sums(n), n
        for k in range(-1, n + 2):
            assert stirling2(n, k) == _stirling2_by_rows(n, k), (n, k)


def _compositions_first_part_descending(n):
    for first in range(n, 0, -1):
        if first == n:
            yield (n,)
        else:
            for rest in _compositions_first_part_descending(n - first):
                yield (first,) + rest


def test_compositions_order_and_count():
    for n in range(1, 13):
        assert list(compositions(n)) == list(_compositions_first_part_descending(n)), n
    assert list(compositions(1)) == [(1,)]
    assert list(compositions(3)) == [(3,), (2, 1), (1, 2), (1, 1, 1)]
    assert len(list(compositions(4))) == 8
    assert len(set(compositions(6))) == 32
    with pytest.raises(InvalidInputError):
        list(compositions(0))


def test_hook_count_rejects_an_empty_alphabet():
    with pytest.raises(InvalidInputError):
        hook_count(0, ())


@pytest.mark.parametrize("count", [hook_count, fiber_size])
@pytest.mark.parametrize("n", [0, -1])
def test_shape_counts_refuse_alphabets_below_one_symbol(count, n):
    for shape in ((), (1,)):
        with pytest.raises(InvalidInputError, match="^n must be at least 1$"):
            count(n, shape)


def test_hook_count_four_box_table():
    expected = {
        (4,): 1,
        (3, 1): 3,
        (1, 3): 1,
        (2, 2): 3,
        (2, 1, 1): 3,
        (1, 2, 1): 2,
        (1, 1, 2): 1,
        (1, 1, 1, 1): 1,
    }
    for lam, value in expected.items():
        assert hook_count(4, lam) == value
    assert sum(expected.values()) == 15


def test_hook_count_degenerate_shapes():
    for n in range(1, 9):
        assert hook_count(n, (n,)) == 1
        assert hook_count(n, (1,) * n) == 1


def test_hook_count_validates_shape():
    with pytest.raises(InvalidInputError):
        hook_count(4, (3, 2))
    with pytest.raises(InvalidInputError):
        hook_count(4, (0, 4))


def test_fiber_size_examples():
    assert fiber_size(3, (3,)) == 6
    assert fiber_size(8, (1, 3, 2, 2)) == 896
    assert fiber_size(4, (3, 1)) == 8
    assert fiber_size(4, (3, 1)) * hook_count(4, (3, 1)) == factorial(4)


@given(st.integers(min_value=1, max_value=10))
def test_fiber_times_hook_is_factorial(n):
    for lam in compositions(n):
        assert fiber_size(n, lam) * hook_count(n, lam) == factorial(n)


@pytest.mark.parametrize("n, lam", [(20000, (10000, 10000)), (2000, (50,) * 40)])
def test_hook_product_at_scale_is_the_papers_quotient(n, lam):
    # (n - 1)! / (prod_{i<m} (n - lam_1 - ... - lam_i) * prod_k (lam_k - 1)!), divided here
    suffixes = [n - sum(lam[:i]) for i in range(1, len(lam))]
    quotient, remainder = divmod(factorial(n - 1), prod(suffixes) * prod(factorial(part - 1) for part in lam))
    assert remainder == 0
    assert hook_count(n, lam) == quotient
    assert fiber_size(n, lam) * hook_count(n, lam) == factorial(n)


@given(st.integers(min_value=1, max_value=10))
def test_hook_counts_sum_to_bell_and_group_to_stirling(n):
    assert sum(hook_count(n, lam) for lam in compositions(n)) == bell_rowsum(n)
    for k in range(1, n + 1):
        grouped = sum(hook_count(n, lam) for lam in compositions(n) if len(lam) == k)
        assert grouped == stirling2(n, k)


def test_ps_project_worked_example():
    t = Tableau([[9], [8, 5, 4], [6, 1], [2, 7]])
    assert ps_project(t, alphabet=(1, 2, 4, 5, 6, 7, 8, 9)) == Tableau(
        [[1], [2, 4, 5], [6, 9], [7, 8]]
    )


def test_ps_project_single_column():
    assert ps_project(Tableau([[5, 2, 4]])) == Tableau([[2, 4, 5]])


def test_ps_project_fixes_standard_tableaux():
    t = Tableau([[1, 6], [2, 3], [4, 5, 7]])
    assert ps_project(t) == t
    assert ps_project(Tableau()) == Tableau()


@pytest.mark.parametrize(
    "columns",
    [
        [[1, 2], [2]],
        [[StandardizedSymbol(1, 1), StandardizedSymbol(2, 1)], [StandardizedSymbol(2, 1)]],
    ],
)
@pytest.mark.parametrize("alphabet", [None, (7, 8)])
def test_ps_project_refuses_repeated_symbols_first(columns, alphabet):
    # the repeat is reported even when the alphabet check would also fail
    with pytest.raises(InvalidInputError, match="^projection requires pairwise-distinct symbols$"):
        ps_project(Tableau(columns), alphabet)


def test_ps_project_validates_input():
    with pytest.raises(InvalidInputError):
        ps_project(Tableau([[1, 1]]))
    with pytest.raises(InvalidInputError):
        ps_project(Tableau([[1, 2]]), alphabet=(2, 3))


def _projected_by_box_scan(t):
    """Step i scans columns i..m box by box for the least symbol, swaps it into column i's bottom box and sorts."""
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
    return Tableau(cols)


def _projected_by_column_lists(t):
    """Step i takes the least symbol of columns i..m, swaps it with column i's bottom box from the first
    column holding it, and sorts column i: the walk over per-column lists that preceded the flat one."""
    cols = [list(col) for col in t.columns]
    for i, col in enumerate(cols):
        low = min(chain.from_iterable(cols[i:]))
        for other in cols[i:]:
            if low in other:
                other[other.index(low)], col[0] = col[0], low
                break
        col.sort()
    return Tableau(cols)


def _small_fillings():
    for n in range(1, 7):
        for lam in compositions(n):
            yield from fillings(range(1, n + 1), lam)


def test_ps_project_matches_the_box_scan_on_every_small_filling():
    for t in _small_fillings():
        assert ps_project(t) == _projected_by_box_scan(t), t


def test_ps_project_matches_the_column_list_walk_on_every_small_filling():
    for t in _small_fillings():
        assert ps_project(t) == _projected_by_column_lists(t), t


@given(st.permutations(list(range(1, 7))), st.sampled_from([(6,), (2, 4), (3, 2, 1), (1, 5)]))
def test_ps_project_idempotent_and_preserving(perm, lam):
    cols = []
    pos = 0
    for part in lam:
        cols.append(perm[pos : pos + part])
        pos += part
    t = Tableau(cols)
    image = ps_project(t)
    assert image.shape == t.shape
    assert image.content() == t.content()
    assert classify(image).is_standard_ps
    assert ps_project(image) == image


def test_parsers():
    assert parse_evaluation("2,1,2") == (2, 1, 2)
    assert parse_evaluation("2 1 2") == (2, 1, 2)
    assert parse_shape("3,1") == (3, 1)
    with pytest.raises(InvalidInputError):
        parse_evaluation("2,-1")
    with pytest.raises(InvalidInputError):
        parse_evaluation("2,x")
    with pytest.raises(InvalidInputError):
        parse_shape("3,0")
    with pytest.raises(InvalidInputError):
        parse_shape("3,x")
