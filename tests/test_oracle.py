import json
import pickle
from dataclasses import fields
from itertools import permutations, product
from math import factorial, prod

import pytest
from hypothesis import given, settings, strategies as st

from pstab import (
    BudgetExceededError,
    Budgets,
    CaseResult,
    InvalidInputError,
    StandardizedSymbol,
    Tableau,
    TableauPair,
    TwoRowedArray,
    VerificationReport,
    count_lps,
    count_rps,
    count_set_partitions,
    count_tableaux_bruteforce,
    enumerate_pstab,
    fiber_bruteforce,
    fiber_census,
    hook_count,
    insertion_image,
    ps_insert,
    verify_suite,
    words_with_evaluation,
)
from pstab.counting import compositions
from pstab.oracle import (
    arrays_over, fillings, mode_tableaux, words_over, _case_table, _Entry, _image_sizes, _positive_evaluations,
    _ps_insert_linear, _run_entry,
)


def test_words_with_evaluation_small_sets():
    assert set(words_with_evaluation((2, 1))) == {(1, 1, 2), (1, 2, 1), (2, 1, 1)}
    assert set(words_with_evaluation((1, 1, 1))) == {
        (1, 2, 3), (1, 3, 2), (2, 1, 3), (2, 3, 1), (3, 1, 2), (3, 2, 1),
    }
    assert sum(1 for _ in words_with_evaluation((2, 2))) == 6


def test_words_with_evaluation_respects_zero_entries():
    assert set(words_with_evaluation((1, 0, 1))) == {(1, 3), (3, 1)}


def test_words_with_evaluation_is_the_sorted_set_of_permutations():
    # order matters: a failing verify case is reproduced from its report line
    checked = 0
    for entries in range(1, 5):
        for ev in product(range(8), repeat=entries):
            if not 1 <= sum(ev) <= 7:
                continue
            multiset = [a + 1 for a, m in enumerate(ev) for _ in range(m)]
            words = list(words_with_evaluation(ev))
            assert words == sorted(set(permutations(multiset))), ev
            assert len(words) == factorial(sum(ev)) // prod(map(factorial, ev))
            checked += 1
    assert checked == 7 + 35 + 119 + 329


def test_words_with_evaluation_rejects_empty():
    with pytest.raises(InvalidInputError):
        list(words_with_evaluation((0, 0)))
    with pytest.raises(InvalidInputError):
        list(words_with_evaluation((-1, 2)))


def test_count_tableaux_bruteforce_worked_values():
    assert count_tableaux_bruteforce((2, 1, 2), "lps") == 15
    assert count_tableaux_bruteforce((2, 1, 2), "rps") == 9
    assert count_tableaux_bruteforce((4,), "lps") == 1
    assert count_tableaux_bruteforce((4,), "rps") == 1
    # at the default budget's edge, sum 10, brute force still meets the closed forms
    assert count_tableaux_bruteforce((3, 3, 4), "lps") == count_lps((3, 3, 4)) == 206
    assert count_tableaux_bruteforce((3, 3, 4), "rps") == count_rps((3, 3, 4)) == 50


def test_count_tableaux_bruteforce_budget():
    with pytest.raises(BudgetExceededError):
        count_tableaux_bruteforce((6, 6), "lps")
    for mode in ("lps", "rps"):
        with pytest.raises(BudgetExceededError, match="^evaluation sum 11 exceeds the budget of 10$"):
            count_tableaux_bruteforce((3, 3, 5), mode)


def _inserted_one_by_one(ev, mode):
    return {ps_insert(w, mode) for w in words_with_evaluation(ev)}


def test_insertion_image_is_the_set_of_insertions():
    checked = 0
    for entries in range(1, 5):
        for ev in product(range(8), repeat=entries):
            if not 1 <= sum(ev) <= 7:
                continue
            for mode in ("lps", "rps"):
                assert insertion_image(ev, mode) == _inserted_one_by_one(ev, mode), (ev, mode)
            checked += 1
    assert checked == 7 + 35 + 119 + 329


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(0, 8), min_size=1, max_size=6).filter(lambda ev: 0 < sum(ev) <= 8),
       st.sampled_from(["lps", "rps"]))
def test_insertion_image_matches_insertion_with_zero_entries(ev, mode):
    assert insertion_image(ev, mode) == _inserted_one_by_one(ev, mode)


def test_insertion_image_refusals():
    for sweep in (insertion_image, count_tableaux_bruteforce):
        with pytest.raises(InvalidInputError, match="^evaluation must have at least one positive entry$"):
            sweep((0, 0), "lps")
        with pytest.raises(BudgetExceededError, match="^evaluation sum 12 exceeds the budget of 10$"):
            sweep((6, 6), "lps")
        with pytest.raises(InvalidInputError, match="^mode must be"):
            sweep((1, 1), "xps")


@pytest.mark.parametrize("mode", ["lps", "rps"])
def test_the_walk_sizes_every_insertion_image_of_the_sweep(mode):
    # one walk over every content of 4 entries with sum <= 8; a composition of fewer entries counts at itself
    # padded with zeros
    sizes = _image_sizes(mode, 4, 8)
    assert set(sizes) == {c for c in product(range(9), repeat=4) if 1 <= sum(c) <= 8}
    for c, size in sizes.items():
        assert size == len(insertion_image(c, mode)), c
    for ev in _positive_evaluations(8, 4):
        assert sizes[ev + (0,) * (4 - len(ev))] == len(insertion_image(ev, mode)) == count_tableaux_bruteforce(ev, mode)
    assert sum(sizes.values()) == {"lps": 18576, "rps": 9896}[mode]


def test_a_walk_that_raises_fails_each_count_case_on_its_own(monkeypatch):
    # the count cases of a mode share one walk; a computation that raises is not kept, so each case asks
    # again and fails with the error, and every other case still runs
    import pstab.oracle as oracle

    calls = []

    def broken(mode, parts, max_sum):
        calls.append(mode)
        raise RuntimeError("boom")

    monkeypatch.setattr(oracle, "_image_sizes", broken)
    budgets = Budgets(word_len=1, array_len=1, eval_sum=3)
    report = verify_suite(max_n=2, budgets=budgets)
    evaluations = _positive_evaluations(3, 4)
    assert [(c.name, c.case_input) for c in report.failures()] == [
        (f"{mode} tableau count, formula vs brute force", f"ev={ev}") for ev in evaluations for mode in ("lps", "rps")
    ]
    assert all((c.formula, c.oracle) == ("runs to completion", "RuntimeError: boom") for c in report.failures())
    assert sorted(calls) == sorted(["lps", "rps"] * len(evaluations))
    assert len(report.cases) == len(list(_case_table(2, budgets)))


def test_enumerate_pstab_worked_examples():
    two_one = enumerate_pstab((2, 4, 5), (2, 1))
    assert set(two_one) == {Tableau([[2, 4], [5]]), Tableau([[2, 5], [4]])}
    assert len(enumerate_pstab((2, 4, 5))) == 5
    assert enumerate_pstab((1,), (1,)) == [Tableau([[1]])]


def test_enumerate_pstab_methods_agree():
    for n in range(1, 6):
        alphabet = tuple(range(1, n + 1))
        for lam in compositions(n):
            direct = enumerate_pstab(alphabet, lam, method="direct")
            assert direct == enumerate_pstab(alphabet, lam, method="filter")
            assert direct == sorted(fiber_census(alphabet, lam), key=lambda t: t.columns)
            assert len(direct) == hook_count(n, lam)


def test_enumerate_pstab_validates_arguments():
    with pytest.raises(InvalidInputError):
        enumerate_pstab((2, 1, 3))
    with pytest.raises(InvalidInputError):
        enumerate_pstab((1, 1, 2))
    with pytest.raises(InvalidInputError):
        enumerate_pstab((1, 2), (3,))
    with pytest.raises(InvalidInputError):
        enumerate_pstab((1, 2), (1, 1), method="guess")
    for method in ("direct", "filter"):
        with pytest.raises(InvalidInputError):
            enumerate_pstab((0, 1), method=method)
        with pytest.raises(InvalidInputError):
            enumerate_pstab((1, 2), (2, 0), method=method)
    with pytest.raises(InvalidInputError):
        list(fillings((0, 1), (2,)))
    with pytest.raises(InvalidInputError):
        list(fillings((1, 2), (1, 1, 1)))


def test_fiber_bruteforce_worked_values():
    assert fiber_bruteforce((1, 2, 3), (3,), Tableau([[1, 2, 3]])) == 6
    for target in enumerate_pstab((1, 2, 3, 4), (3, 1)):
        assert fiber_bruteforce((1, 2, 3, 4), (3, 1), target) == 8


def test_fiber_bruteforce_budget_and_validation():
    with pytest.raises(BudgetExceededError):
        fiber_bruteforce(tuple(range(1, 11)), (10,), Tableau([list(range(1, 11))]))
    with pytest.raises(InvalidInputError):
        fiber_bruteforce((1, 2), (3,), Tableau([[1, 2, 3]]))


def test_fiber_census_covers_every_standard_tableau():
    census = fiber_census((1, 2, 3, 4), (2, 2))
    assert set(census) == set(enumerate_pstab((1, 2, 3, 4), (2, 2)))
    assert set(census.values()) == {8}
    # a plain dict: a tableau that is not standard is no key
    assert type(census) is dict
    with pytest.raises(KeyError):
        census[Tableau([[2, 4], [1, 3]])]


def test_positive_evaluations_are_the_zero_free_evaluations():
    for max_sum in range(11):
        by_parts = [
            [ev for ev in product(range(1, max_sum + 1), repeat=parts) if sum(ev) <= max_sum] for parts in range(1, 6)
        ]
        for max_parts in range(6):
            expected = sorted(ev for evs in by_parts[:max_parts] for ev in evs)
            assert _positive_evaluations(max_sum, max_parts) == expected, (max_sum, max_parts)


def test_count_set_partitions_prefix():
    assert [count_set_partitions(n) for n in range(7)] == [1, 1, 2, 5, 15, 52, 203]
    with pytest.raises(InvalidInputError):
        count_set_partitions(-1)


def test_count_set_partitions_refuses_n_above_its_budget():
    # the enumeration visits B_n leaves; the default budget of 12 is about a second
    with pytest.raises(BudgetExceededError):
        count_set_partitions(13)
    with pytest.raises(BudgetExceededError):
        count_set_partitions(6, max_n=5)
    assert count_set_partitions(6, max_n=6) == 203


def test_linear_reference_matches_bisect_insertion():
    # the 6,560 word-mode pairs over A_3 of length at most 7
    for mode in ("lps", "rps"):
        for length in range(8):
            for w in words_over(3, length):
                assert _ps_insert_linear(w, mode) == ps_insert(w, mode)


def test_mode_tableaux_with_zero_boxes():
    assert mode_tableaux(3, 0, "lps") == [Tableau()]


def test_verify_suite_parallel_jobs_agree_with_serial():
    # the pool runs the multi-case tasks first; every result still lands in its table slot
    budgets = Budgets(word_len=2, array_len=2, eval_sum=3)
    serial = verify_suite(max_n=3, budgets=budgets, jobs=1)
    parallel = verify_suite(max_n=3, budgets=budgets, jobs=2)
    assert parallel.passed and serial.passed
    assert [c.to_dict() for c in parallel.cases] == [c.to_dict() for c in serial.cases]
    assert [(c.name, c.case_input) for c in serial.cases] == [
        (entry.name, entry.case_input) for entry in _case_table(3, budgets)
    ]


@pytest.mark.parametrize("eval_sum", [1, 3])
def test_case_table_pickles_for_the_pool(eval_sum):
    # a pool is sent the entries themselves
    table = list(_case_table(2, Budgets(word_len=1, array_len=1, eval_sum=eval_sum)))
    assert len(pickle.loads(pickle.dumps(table))) == len(table)


@pytest.mark.parametrize("field", ["word_len", "array_len", "eval_sum"])
def test_budgets_reject_negative_sizes(field):
    # zero, which leaves sweeps with nothing to check, and sizes that are not integers:
    # a float sweep would fail its cases with a TypeError, and True would run as 1
    for value in (-1, 0, 2.5, "4", None, True):
        with pytest.raises(InvalidInputError):
            Budgets(**{field: value})


def test_budgets_are_the_three_sizes_callers_set():
    assert [(f.name, f.default) for f in fields(Budgets)] == [("word_len", 4), ("array_len", 4), ("eval_sum", 8)]


def test_verify_suite_rejects_bad_jobs():
    with pytest.raises(InvalidInputError):
        verify_suite(max_n=1, budgets=Budgets(word_len=1, array_len=1, eval_sum=2), jobs=0)


class FakePool:
    """``multiprocessing.Pool`` run in process, keeping the size of each pool and the tasks it was sent."""

    sizes: list[int] = []
    tasks: list = []

    def __init__(self, processes):
        self.sizes.append(processes)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, func, items, chunksize):
        assert chunksize == 1
        self.tasks.extend(items)
        return [func(item) for item in items]


@pytest.fixture
def fake_pool(monkeypatch):
    # verify_suite imports the pool when it runs
    monkeypatch.setattr(FakePool, "sizes", [])
    monkeypatch.setattr(FakePool, "tasks", [])
    monkeypatch.setattr("multiprocessing.Pool", FakePool)
    return FakePool


@pytest.mark.parametrize("jobs, cpus, expected", [(10**6, 8, 8), (10**6, 2, 2), (2, 8, 2), (1, 8, None)])
def test_verify_suite_clamps_the_pool(monkeypatch, fake_pool, jobs, cpus, expected):
    # the pool maps over tasks one at a time, and these budgets give far more than eight
    monkeypatch.setattr("pstab.oracle.os.cpu_count", lambda: cpus)
    report = verify_suite(max_n=2, budgets=Budgets(word_len=1, array_len=1, eval_sum=2), jobs=jobs)
    assert report.passed
    assert fake_pool.sizes == ([] if expected is None else [expected])


def test_verify_suite_clamps_the_pool_to_the_tasks(monkeypatch, fake_pool):
    # cases that share a computation are one task: 3 single cases, the count tasks of lps and rps
    # (3 evaluations each at sum <= 2) and the census tasks of n=2 (3 cases) and n=1 (2)
    import pstab.oracle as oracle

    table = [_Entry("s", "single", "x", lambda: ("1", "1"))] * 3 + [
        entry for entry in _case_table(2, Budgets(1, 1, 2)) if entry.shared is not None
    ]
    monkeypatch.setattr(oracle, "_case_table", lambda max_n, budgets: iter(table))
    monkeypatch.setattr("pstab.oracle.os.cpu_count", lambda: 8)
    report = verify_suite(max_n=2, jobs=8)
    assert len(report.cases) == 14 and report.passed
    assert fake_pool.sizes == [7]
    assert [len(task) for task in fake_pool.tasks] == [3, 3, 3, 2, 1, 1, 1]


@pytest.mark.parametrize("jobs", [1, 2])
def test_verify_suite_computes_each_census_once(monkeypatch, fake_pool, jobs):
    # one census per shape of each n, which the enumerator case and the fiber cases of n share
    import pstab.oracle as oracle

    calls = []
    real = oracle.fiber_census
    monkeypatch.setattr(oracle, "fiber_census", lambda alphabet, shape: calls.append(shape) or real(alphabet, shape))
    monkeypatch.setattr("pstab.oracle.os.cpu_count", lambda: 2)
    report = verify_suite(max_n=4, budgets=Budgets(word_len=1, array_len=1, eval_sum=2), jobs=jobs)
    assert report.passed
    assert len(calls) == 15 and set(calls) == {lam for n in range(1, 5) for lam in compositions(n)}
    assert fake_pool.sizes == ([] if jobs == 1 else [2])


def test_verify_suite_submits_the_multi_case_tasks_first(monkeypatch, fake_pool):
    # the multi-case tasks, the largest first and ties in table order: the census tasks of n = 4, 3, 2, 1
    # (the enumerator case and 2^(n-1) fiber cases) and the count tasks of lps and rps (the 3 evaluations
    # with sum <= 2), then every other case alone
    monkeypatch.setattr("pstab.oracle.os.cpu_count", lambda: 2)
    budgets = Budgets(word_len=1, array_len=1, eval_sum=2)
    report = verify_suite(max_n=4, budgets=budgets, jobs=2)
    table = list(_case_table(4, budgets))
    assert [len(task) for task in fake_pool.tasks] == [9, 5, 3, 3, 3, 2] + [1] * (len(table) - 25)

    def census(n):
        fibers = (("projection fibers uniform at the predicted size", f"n={n}, shape={lam}") for lam in compositions(n))
        return [("three tableau enumerators agree", f"n={n}"), *fibers]

    def counts(mode):
        return [(f"{mode} tableau count, formula vs brute force", f"ev={ev}") for ev in ((1,), (1, 1), (2,))]

    assert [[(entry.name, entry.case_input) for entry in task] for task in fake_pool.tasks[:6]] == [
        census(4), census(3), counts("lps"), counts("rps"), census(2), census(1)
    ]
    singles = [(entry.name, entry.case_input) for entry in table if entry.shared is None]
    assert [(task[0].name, task[0].case_input) for task in fake_pool.tasks[6:]] == singles
    assert [(c.name, c.case_input) for c in report.cases] == [(entry.name, entry.case_input) for entry in table]


def test_mode_tableaux_equal_insertion_images():
    for mode in ("lps", "rps"):
        for boxes in range(1, 5):
            object_level = set(mode_tableaux(3, boxes, mode))
            images = {ps_insert(w, mode) for w in words_over(3, boxes)}
            assert object_level == images


def test_arrays_over_counts_and_validity():
    for mode in ("lps", "rps"):
        arrays = list(arrays_over(2, 2, mode))
        assert all(arr.is_valid(mode) for arr in arrays)
    # tops 11,12,22: the equal-top runs each lose the decreasing bottom order
    assert len(list(arrays_over(2, 2, "lps"))) == 10


@pytest.mark.parametrize("mode", ["lps", "rps"])
def test_arrays_over_is_the_filtered_product(mode):
    # every nondecreasing top with every bottom that makes a valid array, in lexicographic order
    for alphabet_size in range(4):
        for length in range(5):
            words = list(product(range(1, alphabet_size + 1), repeat=length))
            expected = [
                arr for top in words if list(top) == sorted(top)
                for arr in (TwoRowedArray(top, bottom) for bottom in words) if arr.is_valid(mode)
            ]
            assert list(arrays_over(alphabet_size, length, mode)) == expected, (alphabet_size, length)


def test_verify_suite_trivial_scale_passes():
    report = verify_suite(max_n=1, budgets=Budgets(word_len=2, array_len=2, eval_sum=3))
    assert report.passed
    assert report.max_n == 1
    assert all(case.passed for case in report.cases)


def test_verify_suite_small_scale_passes_and_serializes():
    report = verify_suite(max_n=2, budgets=Budgets(word_len=3, array_len=2, eval_sum=4))
    assert report.passed
    blob = json.loads(report.to_json())
    assert blob["passed"] is True
    assert blob["max_n"] == 2
    assert len(blob["cases"]) == len(report.cases)
    text = report.to_text()
    assert text.count("[PASS]") == len(report.cases)
    assert "summary:" in text


def test_verify_suite_includes_the_rejected_counterexample_case():
    report = verify_suite(max_n=1, budgets=Budgets(word_len=1, array_len=1, eval_sum=2))
    names = [case.name for case in report.cases]
    assert "non-member pair is rejected and its reading inserts elsewhere" in names
    case = next(c for c in report.cases if c.name.startswith("non-member pair"))
    assert case.passed and "rejected" in case.oracle


def test_verify_suite_rejects_bad_max_n():
    with pytest.raises(InvalidInputError):
        verify_suite(max_n=0)


def test_verify_suite_detects_an_injected_formula_defect(monkeypatch):
    import pstab.oracle as oracle

    real = oracle.hook_count
    monkeypatch.setattr(
        oracle, "hook_count", lambda n, lam: real(n, lam) + (1 if len(lam) == 2 else 0)
    )
    report = verify_suite(max_n=3, budgets=Budgets(word_len=2, array_len=2, eval_sum=3))
    assert not report.passed
    assert any("hook" in case.name for case in report.failures())


def test_verify_suite_reaches_the_counts_by_name(monkeypatch):
    import pstab.oracle as oracle

    real = oracle.count_lps
    monkeypatch.setattr(oracle, "count_lps", lambda ev: real(ev) + (len(ev) == 2))
    report = verify_suite(max_n=2, budgets=Budgets(word_len=1, array_len=1, eval_sum=3))
    assert not report.passed
    failed = {case.name for case in report.failures()}
    assert "lps tableau count, formula vs brute force" in failed
    assert "rps tableau count, formula vs brute force" not in failed


COUNT_FAMILIES = {f"{mode} tableau count, formula vs brute force" for mode in ("lps", "rps")}


def test_verify_suite_catches_a_tableau_missing_from_the_insertion_image(monkeypatch):
    # the count cases read their brute-force counts from the walk's table
    import pstab.oracle as oracle

    real = oracle._image_sizes

    def drop_one(mode, parts, max_sum):
        return {c: size - (sum(m > 0 for m in c) >= 2) for c, size in real(mode, parts, max_sum).items()}

    monkeypatch.setattr(oracle, "_image_sizes", drop_one)
    report = verify_suite(max_n=2, budgets=Budgets(word_len=1, array_len=1, eval_sum=3))
    assert {case.name for case in report.failures()} == COUNT_FAMILIES


def test_verify_suite_fails_the_counts_on_an_empty_insertion_image(monkeypatch):
    # empty images everywhere: the walk's table of zeros fails the counts, and the bottom-row case,
    # which calls insertion_image, fails on its own
    import pstab.oracle as oracle

    real = oracle._image_sizes
    monkeypatch.setattr(oracle, "_image_sizes", lambda *args: dict.fromkeys(real(*args), 0))
    monkeypatch.setattr(oracle, "insertion_image", lambda ev, mode: set())
    report = verify_suite(max_n=2, budgets=Budgets(word_len=1, array_len=1, eval_sum=3))
    counts = [case for case in report.cases if case.name in COUNT_FAMILIES]
    assert counts and not any(case.passed for case in counts)
    assert all(case.oracle == "0" for case in counts)
    assert {case.name for case in report.failures()} == COUNT_FAMILIES | {"bottom row length within its bounds"}


def _reversed_words(real):
    """``real`` with every word it returns reversed; arrays pass through."""
    def defect(*args):
        out = real(*args)
        return out[::-1] if isinstance(out, tuple) else out

    return defect


def _off_by_one_on_two_parts(real):
    """``real``, a count per (n, shape), one too big on every two-part shape."""
    return lambda n, shape: real(n, shape) + (len(shape) == 2)


def _one_short_on_two_parts(real):
    """``real``, a count per (n, shape), one too small on every two-part shape."""
    return lambda n, shape: real(n, shape) - (len(shape) == 2)


FIBERS_UNIFORM = "projection fibers uniform at the predicted size"
# n = 2..12 each have n - 1 two-part shapes, the first (n - 1, 1)
FIBER_TIMES_HOOK = {
    ("fiber size times hook count equals n!", f"{n - 1} violations, first: shape=({n - 1}, 1)") for n in range(2, 13)
}
# what a hook count off by one on every two-part shape fails, either way
HOOK_COUNT_OFF = FIBER_TIMES_HOOK | {
    ("Bell number, all four routes", "mismatch in ['hook terms']"),
    ("hook counts grouped by columns match Stirling numbers", "1 violations, first: k=2"),
    *((FIBERS_UNIFORM, f"{count} fibers of size {size}") for count, size in ((1, 2), (1, 6), (2, 3))),
    *(("standard tableaux per shape match hook count", count) for count in ("1", "2")),
}

WORD_SWEEP = "24 violations, first: 1 2: "
WORD_SETS = "1 violations, first: 3 boxes: round trip and pattern scan disagree on 4 pairs"


def _rps_off_by_one_on_first_entry_2(real):
    """``count_rps``, one too big on every evaluation whose first entry is 2."""
    return lambda ev: real(ev) + (tuple(ev)[:1] == (2,))


def _swapping_one_one_columns(real):
    """``ps_project`` that swaps the two columns of a (1, 1) filling instead of projecting it."""
    return lambda t, alphabet=None: Tableau(t.columns[::-1]) if t.shape == (1, 1) else real(t, alphabet)


def _with_one_extra_column(real):
    """``insertion_image`` plus the one-column tableau of the evaluation's sorted word."""
    def defect(ev, mode):
        return real(ev, mode) | {Tableau([next(words_with_evaluation(ev))])}

    return defect


def _inserting_21_as_12(real):
    """``extended_insert`` that inserts the word 2 1 as if it were 1 2."""
    return lambda w, mode: real((1, 2) if tuple(w) == (2, 1) else w, mode)


def _blind_past_nine(real):
    """``occurrences`` that finds nothing once a word holds a symbol above 9."""
    return lambda word, pattern: real(word, pattern) if max(word, default=0) < 10 else []


def _stacking_one_one(real):
    """``ps_project`` that stacks a (1, 1) filling into one sorted column."""
    return lambda t, alphabet=None: Tableau([sorted(t.content())]) if t.shape == (1, 1) else real(t, alphabet)


def _with_one_rps_row(real):
    """``insertion_image`` plus, in rps, the one-row tableau of the evaluation's sorted word."""
    def defect(ev, mode):
        row = [[sym] for sym in next(words_with_evaluation(ev))]
        return real(ev, mode) | ({Tableau(row)} if mode == "rps" else set())

    return defect


def _one_more_on_repeated_symbols(real):
    """The walk's table, one too big at every content that repeats a symbol."""
    return lambda mode, parts, max_sum: {c: size + (max(c) > 1) for c, size in real(mode, parts, max_sum).items()}


def _bottom_row_reversed(real):
    """``reverse_insertion`` with the bottom row of its array reversed."""
    def defect(pair, mode):
        arr = real(pair, mode)
        return TwoRowedArray(arr.top, arr.bottom[::-1])

    return defect


def _swapped_on_standardized(real):
    """``array_insert`` that returns (Q, P) for an array holding a standardized symbol."""
    def defect(arr, mode):
        p, q = real(arr, mode)
        standardized = any(isinstance(sym, StandardizedSymbol) for sym in arr.top + arr.bottom)
        return TableauPair(q, p) if standardized else TableauPair(p, q)

    return defect


STABLE_SET_SCAN = "round trip and pattern scan disagree on"
# a defect's id, the oracle binding it is injected into, the defect, and the
# (case, observation) pairs it fails
DEFECTS = {
    "rsk_inverse": ("rsk_inverse", _reversed_words, {
        (f"{mode} word-level roundtrip", WORD_SWEEP + "inverse mismatch") for mode in ("lps", "rps")
    }),
    "is_stable_pair_scan": ("is_stable_pair_scan", lambda real: lambda pair, mode, level: True, {
        ("standard-level stable pairs count", "6 stable pairs; round trip and pattern scan disagree on 1 pairs"),
        ("lps word-level stable pairs are exactly the insertion image", WORD_SETS),
        ("rps word-level stable pairs are exactly the insertion image", WORD_SETS),
        ("non-member pair is rejected and its reading inserts elsewhere", "accepted, diverges"),
    }),
    "ps_project": ("ps_project", lambda real: lambda t, alphabet=None: t, {
        ("three tableau enumerators agree", "disagree"),
        (FIBERS_UNIFORM, "projection image differs from the standard tableaux"),
    }),
    "read_by_recording": ("read_by_recording", _reversed_words, {
        (f"{mode} word roundtrip", WORD_SWEEP + "reading back failed") for mode in ("lps", "rps")
    }),
    "fiber_size": ("fiber_size", _off_by_one_on_two_parts, FIBER_TIMES_HOOK | {
        (FIBERS_UNIFORM, f"fiber sizes [{size}]") for size in (2, 3, 6)
    }),
    "hook_count": ("hook_count", _off_by_one_on_two_parts, HOOK_COUNT_OFF),
    "bell_rowsum": ("bell_rowsum", lambda real: lambda n: real(n) + (n == 3), {
        ("Bell number, all four routes",
         "mismatch in ['hook', 'rowsum terms', 'hook terms', 'lps', 'rps', 'partitions']"),
        ("insertion image over standard words has Bell size, modes agree", "5 (modes agree: True)"),
    }),
    # one too big on every two-entry evaluation: the reference routes are looked up when a check runs
    "count_lps_rec": ("count_lps_rec", lambda real: lambda ev: real(ev) + (len(ev) == 2), {
        ("closed form equals recursion", "45 violations, first: lps ev=(1, 1)"),
        ("lps tableau count, formula vs brute force", "2 (recursion gave 3)"),
        ("lps tableau count, formula vs brute force", "3 (recursion gave 4)"),
    }),
    "count_rps_on_first_entry_2": ("count_rps", _rps_off_by_one_on_first_entry_2, {
        ("rps count ignores the first entry", "7 violations, first: first=2, tail=(1,)"),
        ("counts ignore zero entries", "2 violations, first: ev=(2,) padded at 0"),
        ("closed form equals recursion", "163 violations, first: rps ev=(2,)"),
        ("rps tableau count, formula vs brute force", "1 (recursion gave 1, bracket sum gave 1)"),
        ("rps tableau count, formula vs brute force", "2 (recursion gave 2, bracket sum gave 2)"),
    }),
    # one too small, it no longer bounds each tableau's preimages, and the squares fall short of n!
    "hook_count_low_on_two_parts": ("hook_count", _one_short_on_two_parts, HOOK_COUNT_OFF | {
        ("preimage count per tableau bounded by hook count", "1 violations, first: shape=(1, 1)"),
        ("preimage count per tableau bounded by hook count", "2 violations, first: shape=(1, 2)"),
        ("hook bound on preimages is strict somewhere", "2 not below 2"),
        *(("factorial bounded by sum of squared hook counts", bound) for bound in ("2 > 1", "6 > 3")),
    }),
    "ps_project_swaps_one_one_columns": ("ps_project", _swapping_one_one_columns, {
        ("projection idempotent, preserving, fixing standard tableaux",
         "3 violations, first: n=2, shape=(1, 1): not idempotent"),
        ("three tableau enumerators agree", "disagree"),
        (FIBERS_UNIFORM, "projection image differs from the standard tableaux"),
    }),
    "insertion_image_extra_column": ("insertion_image", _with_one_extra_column, {
        ("bottom row length within its bounds", "4 violations, first: ev=(1, 2), shape=(3,)"),
    }),
    # the count cases read the walk's table: these are the counts that the two insertion_image defects moved
    "image_sizes_one_more_on_repeats": ("_image_sizes", _one_more_on_repeated_symbols, {
        (f"{mode} tableau count, formula vs brute force", count) for mode in ("lps", "rps") for count in ("2", "3", "4")
    }),
    "extended_insert_reads_21_as_12": ("extended_insert", _inserting_21_as_12, {
        ("standard-level stable pairs count", "2 stable pairs; insertion not injective on 2!"),
        *((f"{mode} standardization laws", "3 violations, first: 2 1: standardized word inserts differently")
          for mode in ("lps", "rps")),
        *((f"{mode} insertion well-formed", "2 violations, first: 2 1: plain and extended insertion differ")
          for mode in ("lps", "rps")),
        *((f"{mode} word roundtrip", "1 violations, first: 2 1: reading back failed") for mode in ("lps", "rps")),
        *((f"{mode} identity-top array matches word insertion", "1 violations, first: 2 1")
          for mode in ("lps", "rps")),
    }),
    "occurrences_blind_past_nine": ("occurrences", _blind_past_nine, {
        ("pattern occurrences invariant under order-isomorphic relabeling",
         "4 violations, first: 1 3 2 vs relabeling, pattern 13-2"),
    }),
    "ps_project_stacks_one_one": ("ps_project", _stacking_one_one, {
        ("projection idempotent, preserving, fixing standard tableaux",
         "3 violations, first: n=2, shape=(1, 1): shape or content changed"),
        ("three tableau enumerators agree", "disagree"),
        (FIBERS_UNIFORM, "projection image differs from the standard tableaux"),
    }),
    "insertion_image_rps_row": ("insertion_image", _with_one_rps_row, {
        ("bottom row length within its bounds", "4 violations, first: rps ev=(1, 2), shape=(1, 1, 1)"),
    }),
    "reverse_insertion_bottom_reversed": ("reverse_insertion", _bottom_row_reversed, {
        ("lps array roundtrip", "27 violations, first: (1 1 / 1 2)"),
        ("rps array roundtrip", "27 violations, first: (1 1 / 2 1)"),
    }),
    "is_stable_pair_never": ("is_stable_pair", lambda real: lambda pair, mode, level: False, {
        *((f"{mode} {level}-level roundtrip", f"{count} violations, first: {label}: image not a stable pair")
          for mode in ("lps", "rps") for level, count, label in (("word", 39, "1"), ("array", 54, "(1 / 1)"))),
        *((f"{mode} word-level stable pairs are exactly the insertion image",
           f"6 violations, first: 1 boxes: {STABLE_SET_SCAN} 3 pairs") for mode in ("lps", "rps")),
        *((f"{mode} array-level stable pairs are exactly the insertion image",
           f"4 violations, first: 1 boxes: {STABLE_SET_SCAN} 9 pairs") for mode in ("lps", "rps")),
        *(("standard-level stable pairs count", f"0 stable pairs; {STABLE_SET_SCAN} {count} pairs")
          for count in (1, 2, 6)),
    }),
    "array_insert_swaps_standardized": ("array_insert", _swapped_on_standardized, {
        (f"{mode} array standardization laws", "192 violations, first: (1 / 1): recording standardization (top only)")
        for mode in ("lps", "rps")
    }),
    "standardize_always_left": ("standardize", lambda real: lambda word, direction="left": real(word, "left"), {
        ("rps array standardization laws",
         "InvalidInputError: array (1 1 / 1_1 1_2) is not reverse lexicographic (r-array)"),
        ("rps standardization laws", "66 violations, first: 1 1: standardized word inserts differently"),
        ("rps words inserting to a standardized tableau are standardizations",
         "26 violations, first: 1_2 1_1 inserts to Std(1 1)"),
        ("rps word-level stable pairs are exactly the insertion image",
         f"1 violations, first: 3 boxes: {STABLE_SET_SCAN} 3 pairs"),
    }),
    "standardize_always_right": ("standardize", lambda real: lambda word, direction="left": real(word, "right"), {
        ("lps array standardization laws",
         "InvalidInputError: array (1_2 1_1 / 1 1) is not lexicographic (l-array)"),
        ("rps array standardization laws",
         "InvalidInputError: array (1_2 1_1 / 1 1) is not reverse lexicographic (r-array)"),
        ("lps standardization laws", "66 violations, first: 1 1: standardized word inserts differently"),
        ("lps words inserting to a standardized tableau are standardizations",
         "26 violations, first: 1_1 1_2 inserts to Std(1 1)"),
        ("lps word-level stable pairs are exactly the insertion image",
         f"1 violations, first: 3 boxes: {STABLE_SET_SCAN} 3 pairs"),
    }),
}
# the scale every entry of DEFECTS is measured at
DEFECT_MAX_N, DEFECT_BUDGETS = 3, Budgets(word_len=3, array_len=2, eval_sum=3)


@pytest.mark.parametrize("name", DEFECTS)
def test_verify_suite_reports_each_injected_defect(monkeypatch, name):
    import pstab.oracle as oracle

    binding, defect, failures = DEFECTS[name]
    monkeypatch.setattr(oracle, binding, defect(getattr(oracle, binding)))
    report = verify_suite(max_n=DEFECT_MAX_N, budgets=DEFECT_BUDGETS)
    assert {(case.name, case.oracle) for case in report.failures()} == failures


def test_every_case_family_fails_under_some_defect():
    # a new family arrives with its defect
    families = {entry.name for entry in _case_table(DEFECT_MAX_N, DEFECT_BUDGETS)}
    caught = {name for _, _, failures in DEFECTS.values() for name, _ in failures}
    assert len(families) == 42
    assert families - caught == set()


def _flipped(t):
    return Tableau(col[::-1] for col in t.columns)


def _unflipped_insert(real):
    """``extended_insert`` that leaves its first tableau's columns top-first."""
    return lambda w, mode: TableauPair(_flipped(real(w, mode).p), real(w, mode).q)


# a defect, the binding of _insertion_well_formed it is injected into, and
# the violations that then fire on the word 2 1 2 over A_2
INSERTION_DEFECTS = {
    "unflipped_p_columns": ("extended_insert", _unflipped_insert, [
        "output not {mode}", "plain and extended insertion differ", "binary search differs from linear scan",
    ]),
    "ps_insert_reverses_columns": ("ps_insert", lambda real: lambda w, mode: Tableau(
        real(w, mode).columns[::-1]
    ), ["plain and extended insertion differ"]),
    "linear_reference_flips_columns": ("_ps_insert_linear", lambda real: lambda w, mode: _flipped(
        real(w, mode)
    ), ["binary search differs from linear scan"]),
    # an off-by-one slice that drops each column's bottom box, leaving a one-box column empty
    "reversal_drops_boxes": ("reverse_columns", lambda real: lambda t: Tableau._from_tuples(
        tuple(col[:0:-1] for col in t.columns)
    ), ["column reversal not an involution"]),
    "q_not_recording": ("extended_insert", lambda real: lambda w, mode: TableauPair(
        real(w, mode).p, Tableau(tuple(x + 1 for x in col) for col in real(w, mode).q.columns)
    ), ["recording tableau invalid"]),
    # 2 1 2 inserts to two columns, the last of one box
    "p_drops_a_box": ("extended_insert", lambda real: lambda w, mode: TableauPair(
        Tableau(real(w, mode).p.columns[:-1]), real(w, mode).q
    ), ["evaluation changed", "plain and extended insertion differ", "binary search differs from linear scan"]),
}


@pytest.mark.parametrize("mode", ["lps", "rps"])
@pytest.mark.parametrize("defect", INSERTION_DEFECTS)
def test_insertion_well_formed_names_each_injected_defect(monkeypatch, defect, mode):
    import pstab.oracle as oracle

    name, make, violations = INSERTION_DEFECTS[defect]
    monkeypatch.setattr(oracle, name, make(getattr(oracle, name)))
    found = list(oracle._insertion_well_formed(mode, 2, (2, 1, 2)))
    assert found == [f"2 1 2: {text.format(mode=mode)}" for text in violations]


def test_verify_suite_fails_exactly_these_cases_on_unflipped_columns(monkeypatch):
    import pstab.oracle as oracle

    monkeypatch.setattr(oracle, "extended_insert", _unflipped_insert(oracle.extended_insert))
    report = verify_suite(max_n=3, budgets=Budgets(word_len=3, array_len=2, eval_sum=3))
    assert [(case.name, case.oracle) for case in report.failures()] == [
        ("lps insertion well-formed", "60 violations, first: 2 1: output not lps"),
        ("lps standardization laws", "InvalidInputError: left standardization requires an lPS tableau"),
        ("lps word roundtrip", "20 violations, first: 2 1: reading back failed"),
        ("rps insertion well-formed", "51 violations, first: 2 1: output not rps"),
        ("rps standardization laws", "InvalidInputError: right standardization requires an rPS tableau"),
        ("rps word roundtrip", "17 violations, first: 2 1: reading back failed"),
        ("lps identity-top array matches word insertion", "3 violations, first: 2 1"),
        ("rps identity-top array matches word insertion", "3 violations, first: 2 1"),
        ("standard-level stable pairs count", "2 stable pairs; stable set differs from insertion image"),
        ("standard-level stable pairs count", "6 stable pairs; stable set differs from insertion image"),
    ]


def test_verify_suite_turns_crashes_into_failing_cases(monkeypatch):
    import pstab.oracle as oracle

    def broken(*args, **kwargs):
        raise RuntimeError("boom")

    budgets = Budgets(word_len=1, array_len=1, eval_sum=2)
    monkeypatch.setattr(oracle, "ps_insert", broken)
    report = verify_suite(max_n=1, budgets=budgets)
    assert not report.passed
    assert any("RuntimeError" in case.oracle for case in report.failures())

    # a crash fails only the cases that hit it; every later case still runs
    monkeypatch.undo()
    monkeypatch.setattr(oracle, "count_set_partitions", broken)
    report = verify_suite(max_n=2, budgets=budgets)
    assert [(c.name, c.case_input) for c in report.failures()] == [
        ("Bell number, all four routes", "n=1"),
        ("Bell number, all four routes", "n=2"),
    ]
    assert all(
        (c.formula, c.oracle) == ("runs to completion", "RuntimeError: boom") for c in report.failures()
    )
    last = report.cases[-1]
    assert last.name == "projection idempotent, preserving, fixing standard tableaux" and last.passed


def test_verify_suite_fails_empty_sweeps():
    # a zero budget is refused, and the runner still fails a sweep that checks no input
    with pytest.raises(InvalidInputError, match="^budget array_len must be at least 1$"):
        Budgets(array_len=0)
    result = _run_entry(_Entry("s", "nothing to check", "no inputs", lambda item: [str(item)], lambda: ()))
    assert (result.formula, result.oracle, result.passed) == ("0 violations", "empty sweep", False)


def test_every_sweep_checks_only_nonempty_inputs():
    # budgets of 1 still give every sweep case an input, and no input is, or holds, an empty word or array
    empty = ((), TwoRowedArray((), ()))
    sweeps = [entry for entry in _case_table(2, Budgets(1, 1, 1)) if entry.inputs is not None]
    assert len(sweeps) == 52
    for entry in sweeps:
        inputs = list(entry.inputs())
        assert inputs, entry.name
        for item in inputs:
            parts = item if isinstance(item, tuple) else ()
            assert item not in empty and not any(part in empty for part in parts), entry.name


def test_report_aggregate_fails_when_any_case_fails():
    report = VerificationReport(
        max_n=1,
        cases=[
            CaseResult("s", "good", "x", "1", "1", True),
            CaseResult("s", "bad", "y", "1", "2", False),
        ],
    )
    assert not report.passed
    assert [case.name for case in report.failures()] == ["bad"]
    assert "[FAIL] s :: bad" in report.to_text()
