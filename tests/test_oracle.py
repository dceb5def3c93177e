import json

import pytest

from pstab import (
    BudgetExceededError,
    Budgets,
    CaseResult,
    InvalidInputError,
    Tableau,
    VerificationReport,
    count_set_partitions,
    count_tableaux_bruteforce,
    enumerate_pstab,
    fiber_bruteforce,
    fiber_census,
    hook_count,
    ps_insert,
    verify_suite,
    words_with_evaluation,
)
from pstab.counting import compositions
from pstab.oracle import arrays_over, fillings, mode_tableaux, words_over, _ps_insert_linear


def test_words_with_evaluation_small_sets():
    assert set(words_with_evaluation((2, 1))) == {(1, 1, 2), (1, 2, 1), (2, 1, 1)}
    assert set(words_with_evaluation((1, 1, 1))) == {
        (1, 2, 3), (1, 3, 2), (2, 1, 3), (2, 3, 1), (3, 1, 2), (3, 2, 1),
    }
    assert sum(1 for _ in words_with_evaluation((2, 2))) == 6


def test_words_with_evaluation_respects_zero_entries():
    assert set(words_with_evaluation((1, 0, 1))) == {(1, 3), (3, 1)}


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


def test_count_tableaux_bruteforce_budget():
    with pytest.raises(BudgetExceededError):
        count_tableaux_bruteforce((6, 6), "lps", max_total=10)


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
            assert direct == enumerate_pstab(alphabet, lam, method="project")
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
    for method in ("direct", "filter", "project"):
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


def test_count_set_partitions_prefix():
    assert [count_set_partitions(n) for n in range(7)] == [1, 1, 2, 5, 15, 52, 203]
    with pytest.raises(InvalidInputError):
        count_set_partitions(-1)


def test_linear_reference_matches_bisect_insertion():
    for mode in ("lps", "rps"):
        for length in range(5):
            for w in words_over(3, length):
                assert _ps_insert_linear(w, mode) == ps_insert(w, mode)


def test_mode_tableaux_with_zero_boxes():
    assert mode_tableaux(3, 0, "lps") == [Tableau()]


def test_verify_suite_parallel_jobs_agree_with_serial():
    budgets = Budgets(word_len=2, array_len=2, eval_sum=3)
    serial = verify_suite(max_n=2, budgets=budgets, jobs=1)
    parallel = verify_suite(max_n=2, budgets=budgets, jobs=2)
    assert parallel.passed and serial.passed
    assert [c.to_dict() for c in parallel.cases] == [c.to_dict() for c in serial.cases]


@pytest.mark.parametrize("field", ["word_len", "array_len", "eval_sum", "word_alphabet", "formula_n"])
def test_budgets_reject_negative_sizes(field):
    with pytest.raises(InvalidInputError):
        Budgets(**{field: -1})


def test_verify_suite_rejects_bad_jobs():
    with pytest.raises(InvalidInputError):
        verify_suite(max_n=1, budgets=Budgets(word_len=1, array_len=1, eval_sum=2), jobs=0)


@pytest.mark.parametrize("jobs, cpus, expected", [(10**6, 8, 3), (10**6, 2, 2), (2, 8, 2), (1, 8, None)])
def test_verify_suite_clamps_the_pool(monkeypatch, jobs, cpus, expected):
    # max_n=2 gives three fiber sweeps: shapes (1,), (2,) and (1, 1)
    sizes = []

    class FakePool:
        def __init__(self, processes):
            sizes.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, func, items):
            return [func(item) for item in items]

    monkeypatch.setattr("pstab.oracle.Pool", FakePool)
    monkeypatch.setattr("pstab.oracle.os.cpu_count", lambda: cpus)
    report = verify_suite(max_n=2, budgets=Budgets(word_len=1, array_len=1, eval_sum=2), jobs=jobs)
    assert report.passed
    assert sizes == ([] if expected is None else [expected])


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


def test_verify_suite_turns_crashes_into_failing_cases(monkeypatch):
    import pstab.oracle as oracle

    def broken(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr(oracle, "ps_insert", broken)
    report = verify_suite(max_n=1, budgets=Budgets(word_len=1, array_len=1, eval_sum=2))
    assert not report.passed
    assert any("RuntimeError" in case.oracle for case in report.failures())


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
