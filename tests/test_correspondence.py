import random
import re
from itertools import permutations
from math import factorial

from hypothesis import given, settings, strategies as st
import pytest

from pstab import (
    DashedPattern,
    InvalidInputError,
    NotInStablePairsError,
    Tableau,
    TableauPair,
    TwoRowedArray,
    classify,
    extended_insert,
    is_stable_pair,
    occurrences,
    rsk,
    rsk_inverse,
    standardize,
)
from pstab.oracle import enumerate_pstab, is_stable_pair_scan, mode_tableaux
from pstab.counting import compositions
from pstab.insertion import array_insert, mode_spec, read_by_recording, reverse_insertion
from pstab.tableaux import standardize_tableau

GOLDEN_PAIR = TableauPair(Tableau([[1, 2, 4], [2, 3, 6], [4]]), Tableau([[1, 3, 6], [2, 4, 5], [7]]))
GOLDEN_ARRAY = TwoRowedArray(top=(1, 1, 2, 3, 3, 3, 4), bottom=(3, 4, 2, 1, 1, 2, 3))
ARRAY_PAIR = TableauPair(Tableau([[1, 2, 3], [1, 4], [2], [3]]), Tableau([[1, 2, 3], [1, 3], [3], [4]]))
NON_MEMBER = TableauPair(Tableau([[1, 2, 3], [1]]), Tableau([[1, 3, 4], [2]]))

words = st.lists(st.integers(min_value=1, max_value=3), max_size=7).map(tuple)
modes = st.sampled_from(["lps", "rps"])


def test_pattern_parse_and_str():
    pat = DashedPattern.parse("31-2")
    assert pat.blocks == ((3, 1), (2,))
    assert str(pat) == "31-2"
    assert len(pat) == 3


def test_pattern_parse_rejects_garbage():
    with pytest.raises(InvalidInputError):
        DashedPattern.parse("3a-2")
    with pytest.raises(InvalidInputError):
        DashedPattern.parse("31-3")
    with pytest.raises(InvalidInputError):
        DashedPattern.parse("31--2")
    # str.isdigit() also holds for other scripts' digits, which int() reads, and for superscripts, which it refuses
    for text in ("\u0663\u0661-\u0662", "31-\u00b2"):
        with pytest.raises(InvalidInputError, match="^cannot parse pattern"):
            DashedPattern.parse(text)


def test_occurrences_worked_examples():
    assert occurrences((3, 1, 4, 2), "2-31") == [(1, 3, 4)]
    assert occurrences(standardize((2, 3, 1, 2), "left"), "2-13") == [(1, 3, 4)]
    assert occurrences((1, 2, 3), "31-2") == []


def test_occurrences_allow_zero_gap_at_dash():
    assert occurrences((3, 1, 2), "31-2") == [(1, 2, 3)]
    assert occurrences((4, 1, 3, 2), "31-2") == [(1, 2, 3), (1, 2, 4)]


def test_occurrences_enforce_block_contiguity():
    # the subword at (1,3,4) is order isomorphic to 312 but its 31 part is not
    # contiguous, so only the occurrence at (2,3,4) counts
    assert occurrences((3, 4, 1, 2), "31-2") == [(2, 3, 4)]


def test_occurrences_reject_repeated_symbols():
    with pytest.raises(InvalidInputError):
        occurrences((1, 2, 1), "31-2")


def _occurrences_by_block_placement(word, pattern):
    """Place the blocks left to right by recursion, each after the last, leaving room for the rest."""
    sizes = [len(block) for block in pattern.blocks]
    suffix = [sum(sizes[i:]) for i in range(len(sizes) + 1)]
    out = []

    def place(block_idx, start_min, acc):
        if block_idx == len(sizes):
            sub = [word[i] for i in acc]
            if tuple(1 + sum(o < v for o in sub) for v in sub) == pattern.flat():
                out.append(tuple(i + 1 for i in acc))
            return
        for start in range(start_min, len(word) - suffix[block_idx] + 1):
            place(block_idx + 1, start + sizes[block_idx], acc + tuple(range(start, start + sizes[block_idx])))

    place(0, 0, ())
    return out


def test_occurrences_match_the_block_placement_recursion():
    patterns = [DashedPattern.parse(text) for text in (
        "1", "21", "1-2", "31-2", "2-31", "1-2-3", "3-1-2", "1234", "21-43", "4-312", "2-41-3", "3-4-1-2",
    )] + [DashedPattern(())]
    for n in range(7):
        for word in permutations(range(1, n + 1)):
            for pattern in patterns:
                assert occurrences(word, pattern) == _occurrences_by_block_placement(word, pattern), (word, pattern)


@given(st.lists(st.integers(1, 6), unique=True, max_size=6).map(tuple),
       st.sampled_from(["31-2", "13-2", "23-1", "32-1"]))
def test_occurrences_invariant_under_order_isomorphism(word, pattern):
    relabeled = tuple(5 * s + 2 for s in word)
    assert occurrences(word, pattern) == occurrences(relabeled, pattern)


def test_stable_pair_rejects_the_unique_bad_pair_over_three_symbols():
    t = Tableau([[1, 3], [2]])
    assert is_stable_pair(TableauPair(t, t), "lps", "standard") is False
    assert is_stable_pair(TableauPair(t, t), "rps", "standard") is False


def test_stable_pair_rejection_via_every_forbidden_combination():
    # readings 4312 / 1342 match (32-1, 13-2) at (1,2,4) and (31-2, 23-1) at (2,3,4)
    t = Tableau([[1, 3, 4], [2]])
    assert is_stable_pair(TableauPair(t, t), "lps", "standard") is False


def test_pattern_constructor_rejects_empty_blocks():
    with pytest.raises(InvalidInputError):
        DashedPattern(((1, 2, 3), ()))


def test_pattern_blocks_are_stored_as_tuples():
    pattern = DashedPattern([[3, 1], [2]])
    assert pattern == DashedPattern(((3, 1), (2,)))
    assert hash(pattern) == hash(DashedPattern(((3, 1), (2,))))
    assert repr(pattern) == "DashedPattern(blocks=((3, 1), (2,)))"


# a tableau of every kind (lPS, rPS, standard, recording) and one of none
ANY_KIND, NO_KIND = Tableau([[1, 2]]), Tableau([[2, 1]])
# entry point, and the kinds it requires of the first and second tableau
PAIR_CHECKS = {
    "reverse_insertion": (lambda pair: reverse_insertion(pair, "lps"), "an lPS", "an lPS"),
    "read_by_recording": (read_by_recording, None, "a recording"),
    "is_stable_pair standard": (lambda pair: is_stable_pair(pair, "lps", "standard"), "a standard", "a standard"),
    "is_stable_pair word": (lambda pair: is_stable_pair(pair, "rps", "word"), "an rPS", "a recording"),
    "is_stable_pair array": (lambda pair: is_stable_pair(pair, "lps", "array"), "an lPS", "an lPS"),
    "rsk_inverse word": (lambda pair: rsk_inverse(pair, "lps", "word"), "an lPS", "a recording"),
    "rsk_inverse array": (lambda pair: rsk_inverse(pair, "rps", "array"), "an rPS", "an rPS"),
}
BAD_PAIRS = {
    "shapes": (TableauPair(ANY_KIND, Tableau([[1], [2]])), "tableau shapes differ: (2,) vs (1, 1)"),
    "first": (TableauPair(NO_KIND, ANY_KIND), "first tableau is not {p_kind} tableau"),
    "second": (TableauPair(ANY_KIND, NO_KIND), "second tableau is not {q_kind} tableau"),
}


@pytest.mark.parametrize("bad", BAD_PAIRS)
@pytest.mark.parametrize("entry", PAIR_CHECKS)
def test_pair_refusals_name_the_tableau(entry, bad):
    call, p_kind, q_kind = PAIR_CHECKS[entry]
    pair, message = BAD_PAIRS[bad]
    if bad == "first" and p_kind is None:
        assert call(pair) == (1, 2)  # read_by_recording reads any first tableau
        return
    with pytest.raises(InvalidInputError, match=f"^{re.escape(message.format(p_kind=p_kind, q_kind=q_kind))}$"):
        call(pair)


def test_triple_classifier_names_all_dashed_shapes():
    from pstab.oracle import _triple_code

    assert _triple_code(3, 1, 2) == "31-2"
    assert _triple_code(3, 2, 1) == "32-1"
    assert _triple_code(1, 3, 2) == "13-2"
    assert _triple_code(2, 3, 1) == "23-1"
    assert _triple_code(1, 2, 3) is None
    assert _triple_code(2, 1, 3) is None


def test_stable_pair_counterexample_word_and_array_level():
    assert is_stable_pair(NON_MEMBER, "lps", "word") is False
    assert is_stable_pair(NON_MEMBER, "lps", "array") is False


@given(words, modes)
def test_insertion_image_is_stable(word, mode):
    assert is_stable_pair(extended_insert(word, mode), mode, "word") is True


def test_stable_pair_validates_preconditions():
    with pytest.raises(InvalidInputError):
        is_stable_pair(TableauPair(Tableau([[1]]), Tableau([[1], [2]])), "lps", "word")
    with pytest.raises(InvalidInputError):
        # not a recording tableau at word level
        is_stable_pair(TableauPair(Tableau([[1], [2]]), Tableau([[2], [3]])), "lps", "word")
    with pytest.raises(InvalidInputError):
        # repeated symbols rule out the standard level
        repeated = Tableau([[1], [1]])
        is_stable_pair(TableauPair(repeated, repeated), "lps", "standard")
    with pytest.raises(InvalidInputError):
        # first tableau must match the mode at word level
        rps_only = Tableau([[1, 1], [2, 2]])
        is_stable_pair(TableauPair(rps_only, Tableau([[1, 2], [3, 4]])), "lps", "word")
    with pytest.raises(InvalidInputError):
        # rPS-only tableau at lps array level
        rps_only = Tableau([[1, 1], [2, 2]])
        is_stable_pair(TableauPair(rps_only, rps_only), "lps", "array")
    with pytest.raises(InvalidInputError):
        is_stable_pair(GOLDEN_PAIR, "lps", "everything")


def test_rsk_dispatches_on_input_kind():
    assert rsk((4, 6, 2, 3, 2, 1, 4), "lps") == GOLDEN_PAIR
    assert rsk(GOLDEN_ARRAY, "lps") == ARRAY_PAIR
    assert rsk((), "lps") == TableauPair(Tableau(), Tableau())


@pytest.mark.parametrize("mode", ["lps", "rps"])
def test_the_empty_input_at_every_step(mode):
    # verify's sweeps start at length 1, so the empty word and array are checked here
    empty = TableauPair(Tableau(), Tableau())
    direction = mode_spec(mode).direction
    assert extended_insert((), mode) == empty
    assert array_insert(TwoRowedArray((), ()), mode) == empty
    assert read_by_recording(empty) == ()
    assert reverse_insertion(empty, mode) == TwoRowedArray((), ())
    assert rsk_inverse(empty, mode, "word") == ()
    assert rsk_inverse(empty, mode, "array") == TwoRowedArray((), ())
    for level in ("word", "array", "standard"):
        assert is_stable_pair(empty, mode, level) and is_stable_pair_scan(empty, mode, level)
    assert standardize((), direction) == ()
    assert standardize_tableau(Tableau(), direction) == Tableau()


def test_rsk_inverse_word_level():
    assert rsk_inverse(GOLDEN_PAIR, "lps", "word") == (4, 6, 2, 3, 2, 1, 4)


def test_rsk_inverse_array_level():
    assert rsk_inverse(ARRAY_PAIR, "lps", "array") == GOLDEN_ARRAY


def test_rsk_inverse_semistandard_worked_pair():
    pair = TableauPair(
        Tableau([[1], [1, 2], [2], [2, 3], [3], [3]]),
        Tableau([[1], [1, 2], [1], [2, 3], [4], [4]]),
    )
    expected = TwoRowedArray(top=(1, 1, 1, 2, 2, 3, 4, 4), bottom=(1, 2, 2, 1, 3, 2, 3, 3))
    assert rsk_inverse(pair, "lps", "array") == expected
    assert rsk(expected, "lps") == pair


def test_rsk_inverse_refuses_non_members():
    with pytest.raises(NotInStablePairsError):
        rsk_inverse(NON_MEMBER, "lps", "word")
    with pytest.raises(NotInStablePairsError):
        rsk_inverse(NON_MEMBER, "lps", "array")
    with pytest.raises(InvalidInputError):
        rsk_inverse(GOLDEN_PAIR, "lps", "standard")


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_standard_level_bijection_small(n):
    image = {extended_insert(sigma, "lps") for sigma in permutations(range(1, n + 1))}
    assert len(image) == factorial(n)
    members = []
    for lam in compositions(n):
        tabs = enumerate_pstab(tuple(range(1, n + 1)), lam)
        for p in tabs:
            for q in tabs:
                if is_stable_pair(TableauPair(p, q), "lps", "standard"):
                    members.append(TableauPair(p, q))
    assert len(members) == factorial(n)
    assert set(members) == image


@given(words, modes)
def test_word_roundtrip(word, mode):
    pair = rsk(word, mode)
    assert rsk_inverse(pair, mode, "word") == word


@pytest.mark.parametrize("mode", ["lps", "rps"])
def test_round_trip_agrees_with_the_scan_on_every_small_pair(mode):
    # every same-shape pair of tableaux over A_3 with at most 4 boxes, at the
    # array level, and every pair with a recording tableau at the word level
    checked = members = 0
    for boxes in range(5):
        tabs = mode_tableaux(3, boxes, mode)
        recording = [t for t in mode_tableaux(boxes, boxes, mode) if classify(t).is_recording]
        for level, partners in (("array", tabs), ("word", recording)):
            for p in tabs:
                for q in partners:
                    if p.shape == q.shape:
                        pair = TableauPair(p, q)
                        member = is_stable_pair(pair, mode, level)
                        assert member == is_stable_pair_scan(pair, mode, level), (pair, level)
                        checked += 1
                        members += member
    assert 0 < members < checked


def _random_array(rng, n, mode):
    # top weakly increasing; bottom sorted within runs of equal top entries,
    # up (l-array) in lps mode and down (r-array) in rps mode
    cells = sorted((rng.randint(1, n // 3), rng.randint(1, 6)) for _ in range(n))
    if mode == "rps":
        cells.sort(key=lambda tb: (tb[0], -tb[1]))
    return TwoRowedArray(tuple(t for t, _ in cells), tuple(b for _, b in cells))


def _swap_labels(rng, pair, kind):
    """q with two labels swapped, still a tableau of ``kind``; None if no try gave one."""
    cols = [list(col) for col in pair.q.columns]
    boxes = [(j, r) for j, col in enumerate(cols) for r in range(len(col))]
    for _ in range(50):
        (j1, r1), (j2, r2) = rng.sample(boxes, 2)
        if cols[j1][r1] == cols[j2][r2]:
            continue
        swapped = [list(col) for col in cols]
        swapped[j1][r1], swapped[j2][r2] = cols[j2][r2], cols[j1][r1]
        q = Tableau(swapped)
        if getattr(classify(q), kind):
            return TableauPair(pair.p, q)
    return None


@settings(max_examples=40, deadline=None)
@given(st.integers(20, 60), modes, st.sampled_from(["word", "array"]), st.randoms(use_true_random=False))
def test_round_trip_agrees_with_the_scan_at_scale(n, mode, level, rng):
    if level == "word":
        member = rsk(tuple(rng.randint(1, 8) for _ in range(n)), mode)
        kind = "is_recording"
    else:
        member = rsk(_random_array(rng, n, mode), mode)
        kind = mode_spec(mode).flag
    assert is_stable_pair(member, mode, level) and is_stable_pair_scan(member, mode, level)
    for _ in range(3):
        other = _swap_labels(rng, member, kind)
        if other is not None:
            assert is_stable_pair(other, mode, level) == is_stable_pair_scan(other, mode, level)


def test_label_swaps_reach_non_members():
    rng = random.Random(7)
    rejected = 0
    for mode in ("lps", "rps"):
        member = rsk(tuple(rng.randint(1, 8) for _ in range(40)), mode)
        for _ in range(20):
            other = _swap_labels(rng, member, "is_recording")
            if other is not None and not is_stable_pair(other, mode, "word"):
                assert not is_stable_pair_scan(other, mode, "word")
                with pytest.raises(NotInStablePairsError):
                    rsk_inverse(other, mode, "word")
                rejected += 1
    assert rejected > 0
