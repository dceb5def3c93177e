"""Acceptance criteria, one test per criterion.

Each test prints a single PASS line with its runtime (visible under
``pytest -s``); the stated time budgets are asserted, measured on the library
calls themselves.
"""

import random
import time
from itertools import permutations
from math import factorial

from pstab import (
    Tableau,
    TableauPair,
    TwoRowedArray,
    bell_hook,
    bell_rowsum,
    compositions,
    count_lps,
    count_rps,
    count_set_partitions,
    count_tableaux_bruteforce,
    enumerate_pstab,
    extended_insert,
    fiber_census,
    fiber_size,
    hook_count,
    is_stable_pair,
    ps_insert,
    ps_project,
    read_by_recording,
    rsk,
    rsk_inverse,
    words_with_evaluation,
)
from pstab.oracle import arrays_up_to, mode_tableaux, words_over

MODES = ("lps", "rps")


class Stopwatch:
    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.seconds = time.perf_counter() - self.start
        return False


def report(number, text, seconds, budget):
    print(f"PASS criterion {number}: {text} ({seconds * 1000:.1f} ms, budget {budget})")
    assert seconds < {"1 ms": 0.001, "1 s": 1.0, "10 s": 10.0, "30 s": 30.0,
                      "1 min": 60.0, "2 min": 120.0}[budget]


def test_criterion_01_golden_insertion():
    word = (4, 6, 2, 3, 2, 1, 4)
    expected = TableauPair(
        Tableau([[1, 2, 4], [2, 3, 6], [4]]), Tableau([[1, 3, 6], [2, 4, 5], [7]])
    )
    extended_insert(word, "lps")  # warm-up
    with Stopwatch() as clock:
        pair = extended_insert(word, "lps")
        back = rsk_inverse(pair, "lps", "word")
    assert pair == expected
    assert back == word
    report(1, "golden insertion and inversion of 4623214", clock.seconds, "1 ms")


def test_criterion_02_golden_array_rsk():
    arr = TwoRowedArray(top=(1, 1, 2, 3, 3, 3, 4), bottom=(3, 4, 2, 1, 1, 2, 3))
    expected = TableauPair(
        Tableau([[1, 2, 3], [1, 4], [2], [3]]), Tableau([[1, 2, 3], [1, 3], [3], [4]])
    )
    rsk(arr, "lps")  # warm-up
    with Stopwatch() as clock:
        pair = rsk(arr, "lps")
        back = rsk_inverse(pair, "lps", "array")
    assert pair == expected
    assert back == arr
    report(2, "golden array insertion and reverse insertion", clock.seconds, "1 ms")


def test_criterion_03_worked_counts():
    with Stopwatch() as clock:
        lps_formula = count_lps((2, 1, 2))
        rps_formula = count_rps((2, 1, 2))
        word_count = sum(1 for _ in words_with_evaluation((2, 1, 2)))
        lps_brute = count_tableaux_bruteforce((2, 1, 2), "lps")
        rps_brute = count_tableaux_bruteforce((2, 1, 2), "rps")
    assert lps_formula == 15 == lps_brute
    assert rps_formula == 9 == rps_brute
    assert word_count == 30
    report(3, "L(2,1,2)=15 and R(2,1,2)=9 against 30-word brute force", clock.seconds, "1 s")


def test_criterion_04_bell_agreement():
    with Stopwatch() as clock:
        for n in range(1, 11):
            ones = (1,) * n
            rowsum = bell_rowsum(n)
            assert rowsum == bell_hook(n)
            assert rowsum == count_lps(ones)
            assert rowsum == count_rps(ones)
            assert rowsum == count_set_partitions(n)
        assert bell_rowsum(4) == 15
    report(4, "Bell numbers agree along four routes for n=1..10", clock.seconds, "10 s")


def test_criterion_05_hook_length_formula():
    four_box_table = {
        (4,): 1, (3, 1): 3, (1, 3): 1, (2, 2): 3,
        (2, 1, 1): 3, (1, 2, 1): 2, (1, 1, 2): 1, (1, 1, 1, 1): 1,
    }
    with Stopwatch() as clock:
        for n in range(1, 9):
            alphabet = tuple(range(1, n + 1))
            for lam in compositions(n):
                assert len(enumerate_pstab(alphabet, lam)) == hook_count(n, lam)
        for lam, value in four_box_table.items():
            assert hook_count(4, lam) == value
    report(5, "hook-length counts match enumeration for n<=8", clock.seconds, "30 s")


def test_criterion_06_projection_fibers():
    with Stopwatch() as clock:
        for n in range(1, 7):
            alphabet = tuple(range(1, n + 1))
            for lam in compositions(n):
                census = fiber_census(alphabet, lam)
                assert set(census) == set(enumerate_pstab(alphabet, lam))
                assert set(census.values()) == {fiber_size(n, lam)}
                assert fiber_size(n, lam) * hook_count(n, lam) == factorial(n)
        big_alphabet = (1, 2, 4, 5, 6, 7, 8, 9)
        projected = ps_project(Tableau([[9], [8, 5, 4], [6, 1], [2, 7]]), big_alphabet)
        assert projected == Tableau([[1], [2, 4, 5], [6, 9], [7, 8]])
        census = fiber_census(big_alphabet, (1, 3, 2, 2))
        assert census[projected] == 896 == fiber_size(8, (1, 3, 2, 2))
    report(6, "uniform projection fibers for n<=6 plus the 8! sweep", clock.seconds, "2 min")


def test_criterion_07_bijection_suites():
    with Stopwatch() as clock:
        # (a) standard level: stable pairs are exactly the insertion image
        for n in range(1, 7):
            image = {extended_insert(s, "lps") for s in permutations(range(1, n + 1))}
            assert len(image) == factorial(n)
            members = set()
            for lam in compositions(n):
                tabs = enumerate_pstab(tuple(range(1, n + 1)), lam)
                for p in tabs:
                    for q in tabs:
                        if is_stable_pair(TableauPair(p, q), "lps", "standard"):
                            members.add(TableauPair(p, q))
            assert len(members) == factorial(n)
            assert members == image
        # (b) word level over a three-symbol alphabet, length <= 6
        for mode in MODES:
            for length in range(7):
                for word in words_over(3, length):
                    assert rsk_inverse(rsk(word, mode), mode, "word") == word
        # (c) array level over a three-symbol alphabet, length <= 5
        for mode in MODES:
            image_by_len = {}
            for arr in arrays_up_to(3, 5, mode):
                pair = rsk(arr, mode)
                image_by_len.setdefault(len(arr), set()).add(pair)
                assert rsk_inverse(pair, mode, "array") == arr
            for boxes in range(1, 6):
                by_shape = {}
                for t in mode_tableaux(3, boxes, mode):
                    by_shape.setdefault(t.shape, []).append(t)
                members = set()
                for group in by_shape.values():
                    for p in group:
                        for q in group:
                            pair = TableauPair(p, q)
                            if is_stable_pair(pair, mode, "array"):
                                members.add(pair)
                                assert rsk(rsk_inverse(pair, mode, "array"), mode) == pair
                assert members == image_by_len.get(boxes, set())
    report(7, "bijections at standard, word, and array level", clock.seconds, "2 min")


def test_criterion_08_counterexamples_honored():
    pair = TableauPair(Tableau([[1, 2, 3], [1]]), Tableau([[1, 3, 4], [2]]))
    assert not is_stable_pair(pair, "lps", "word")
    assert not is_stable_pair(pair, "lps", "array")
    extraction = read_by_recording(pair)
    assert extraction == (3, 1, 2, 1)
    assert extended_insert(extraction, "lps") != pair
    target = Tableau([[2, 5], [4, 6]])
    assert ps_insert((5, 2, 6, 4), "lps") == target
    assert ps_insert((5, 6, 2, 4), "lps") == target
    assert ps_insert((5, 6, 4, 2), "lps") != target
    print("PASS criterion 8: counterexample pair rejected, readings behave as printed")


def test_criterion_09_standardization_laws():
    from pstab import destandardize_tableau, standardize, standardize_tableau

    with Stopwatch() as clock:
        for mode in MODES:
            direction = "left" if mode == "lps" else "right"
            for length in range(6):
                for word in words_over(3, length):
                    p, q = extended_insert(word, mode)
                    p_std, q_std = extended_insert(standardize(word, direction), mode)
                    assert p_std.shape == p.shape and q_std == q
                    if word:
                        assert p_std == standardize_tableau(p, direction)
                        assert destandardize_tableau(p_std) == p
            for arr in arrays_up_to(3, 5, mode):
                if not len(arr):
                    continue
                p, q = rsk(arr, mode)
                std_top = standardize(arr.top, "left")
                std_bottom = standardize(arr.bottom, direction)
                q_std = standardize_tableau(q, direction)
                p_std = standardize_tableau(p, direction)
                assert q_std == rsk(TwoRowedArray(std_top, arr.bottom), mode).q
                assert q_std == rsk(TwoRowedArray(std_top, std_bottom), mode).q
                assert p_std == rsk(TwoRowedArray(std_top, std_bottom), mode).p
                assert p_std == rsk(TwoRowedArray(arr.top, std_bottom), mode).p
    report(9, "standardization laws for words and arrays over three symbols", clock.seconds, "1 min")


def test_criterion_10_counting_bounds():
    with Stopwatch() as clock:
        for n in range(1, 13):
            assert factorial(n) <= sum(hook_count(n, lam) ** 2 for lam in compositions(n))
        strict_seen = False
        for n in range(1, 7):
            census = {}
            for sigma in permutations(range(1, n + 1)):
                t = ps_insert(sigma, "lps")
                census[t] = census.get(t, 0) + 1
            for t, hits in census.items():
                assert hits <= hook_count(n, t.shape)
                if hits < hook_count(n, t.shape):
                    strict_seen = True
        witness = Tableau([[2, 5], [4, 6]])
        hits = sum(1 for s in permutations((2, 4, 5, 6)) if ps_insert(s, "lps") == witness)
        assert hits == 2 < hook_count(4, (2, 2)) == 3
        assert strict_seen
    report(10, "factorial and fiber bounds with a strict witness", clock.seconds, "1 min")


def test_criterion_11_membership_at_scale():
    # members of 10^4 boxes at the word and array levels; the pattern scan
    # would take about 30 s on these, the round trip takes milliseconds
    rng = random.Random(11)
    n = 10_000
    cases = []
    for mode in MODES:
        word = tuple(rng.randint(1, 100) for _ in range(n))
        cells = sorted((rng.randint(1, 1000), rng.randint(1, 100)) for _ in range(n))
        if mode == "rps":
            cells.sort(key=lambda tb: (tb[0], -tb[1]))
        arr = TwoRowedArray(tuple(t for t, _ in cells), tuple(b for _, b in cells))
        cases += [(rsk(word, mode), mode, "word", word), (rsk(arr, mode), mode, "array", arr)]
    with Stopwatch() as clock:
        for pair, mode, level, value in cases:
            assert rsk_inverse(pair, mode, level) == value
    report(11, "rsk_inverse on four 10^4-box members, both modes and levels", clock.seconds, "1 s")
