from hypothesis import given, strategies as st
import pytest

from pstab import (
    InvalidInputError,
    StandardizedSymbol,
    Tableau,
    TableauPair,
    TwoRowedArray,
    array_insert,
    classify,
    destandardize_tableau,
    evaluation,
    extended_insert,
    is_stable_pair,
    ps_insert,
    read_by_recording,
    reverse_insertion,
    standardize,
    standardize_tableau,
)

words = st.lists(st.integers(min_value=1, max_value=4), max_size=9).map(tuple)
modes = st.sampled_from(["lps", "rps"])

GOLDEN_WORD = (4, 6, 2, 3, 2, 1, 4)
GOLDEN_P = Tableau([[1, 2, 4], [2, 3, 6], [4]])
GOLDEN_Q = Tableau([[1, 3, 6], [2, 4, 5], [7]])

GOLDEN_ARRAY = TwoRowedArray(top=(1, 1, 2, 3, 3, 3, 4), bottom=(3, 4, 2, 1, 1, 2, 3))
ARRAY_P = Tableau([[1, 2, 3], [1, 4], [2], [3]])
ARRAY_Q = Tableau([[1, 2, 3], [1, 3], [3], [4]])


@st.composite
def valid_arrays(draw):
    mode = draw(modes)
    top = tuple(sorted(draw(st.lists(st.integers(1, 3), max_size=6))))
    bottom = []
    run = []
    for i, u in enumerate(top):
        if i and u == top[i - 1]:
            run.append(draw(st.integers(1, 3)))
        else:
            bottom.extend(sorted(run, reverse=(mode == "rps")))
            run = [draw(st.integers(1, 3))]
    bottom.extend(sorted(run, reverse=(mode == "rps")))
    return TwoRowedArray(top=top, bottom=tuple(bottom)), mode


def test_ps_insert_golden_word():
    assert ps_insert(GOLDEN_WORD, "lps") == GOLDEN_P


def test_ps_insert_hand_simulated():
    assert ps_insert((2, 3, 1), "lps") == Tableau([[1, 2], [3]])


def test_ps_insert_empty():
    assert ps_insert((), "rps") == Tableau()
    assert ps_insert((), "lps") == Tableau()


def test_rps_bumps_on_equality():
    assert extended_insert((2, 2), "rps") == TableauPair(Tableau([[2, 2]]), Tableau([[1, 2]]))
    assert extended_insert((2, 2), "lps") == TableauPair(Tableau([[2], [2]]), Tableau([[1], [2]]))


def test_extended_insert_golden_word():
    assert extended_insert(GOLDEN_WORD, "lps") == TableauPair(GOLDEN_P, GOLDEN_Q)


def test_extended_insert_3121():
    assert extended_insert((3, 1, 2, 1), "lps") == TableauPair(
        Tableau([[1, 3], [1, 2]]), Tableau([[1, 2], [3, 4]])
    )


@pytest.mark.parametrize("mode", ["lps", "rps"])
def test_extended_insert_single_symbol(mode):
    assert extended_insert((7,), mode) == TableauPair(Tableau([[7]]), Tableau([[1]]))


@given(words, modes)
def test_insertion_classifies_and_preserves_evaluation(word, mode):
    p, q = extended_insert(word, mode)
    flag = classify(p)
    assert flag.is_lps if mode == "lps" else flag.is_rps
    assert classify(q).is_recording
    assert p == ps_insert(word, mode)
    assert p.shape == q.shape
    if word:
        assert p.evaluation(4) == evaluation(word, 4)


@given(words, modes)
def test_equivalent_insertions_of_standardized_word(word, mode):
    direction = "left" if mode == "lps" else "right"
    p, q = extended_insert(word, mode)
    p_std, q_std = extended_insert(standardize(word, direction), mode)
    assert p_std.shape == p.shape
    assert q_std == q
    if word:
        assert p_std == standardize_tableau(p, direction)
        assert destandardize_tableau(p_std) == p


@given(words, modes)
def test_word_roundtrip_via_recording(word, mode):
    assert read_by_recording(extended_insert(word, mode)) == word


def test_array_insert_golden_array():
    assert array_insert(GOLDEN_ARRAY, "lps") == TableauPair(ARRAY_P, ARRAY_Q)


@given(words, modes)
def test_identity_top_array_matches_word_insertion(word, mode):
    arr = TwoRowedArray(top=tuple(range(1, len(word) + 1)), bottom=word)
    assert array_insert(arr, mode) == extended_insert(word, mode)


def test_array_insert_rejects_disordered_arrays():
    with pytest.raises(InvalidInputError):
        array_insert(TwoRowedArray(top=(1, 1), bottom=(2, 1)), "lps")
    with pytest.raises(InvalidInputError):
        array_insert(TwoRowedArray(top=(1, 1), bottom=(1, 2)), "rps")
    with pytest.raises(InvalidInputError):
        array_insert(TwoRowedArray(top=(1, 2, 1, 3), bottom=(1, 1, 1, 1)), "lps")


def test_two_rowed_array_validation_and_parsing():
    with pytest.raises(InvalidInputError):
        TwoRowedArray(top=(1, 2), bottom=(1,))
    arr = TwoRowedArray.parse("1 1 2 3 3 3 4 / 3 4 2 1 1 2 3")
    assert arr == GOLDEN_ARRAY
    assert str(arr) == "1 1 2 3 3 3 4 / 3 4 2 1 1 2 3"
    assert TwoRowedArray.from_json(arr.to_json()) == arr
    with pytest.raises(InvalidInputError):
        TwoRowedArray.parse("1 2 3")
    with pytest.raises(InvalidInputError):
        TwoRowedArray.from_json({"top": [1]})
    assert arr.is_lexicographic() and not arr.is_reverse_lexicographic()
    assert not TwoRowedArray(top=(2, 1), bottom=(1, 1)).is_reverse_lexicographic()


def test_unknown_mode_is_rejected():
    one = TableauPair(Tableau([[1]]), Tableau([[1]]))
    arr = TwoRowedArray((1, 2), (2, 1))
    calls = [
        lambda mode: ps_insert((1, 2), mode),
        lambda mode: extended_insert((1, 2), mode),
        lambda mode: array_insert(arr, mode),
        lambda mode: reverse_insertion(one, mode),
        lambda mode: is_stable_pair(one, mode, "word"),
        arr.is_valid,
    ]
    for call in calls:
        for mode in ("xps", "LPS", None, ("lps",)):
            with pytest.raises(InvalidInputError):
                call(mode)


BAD_WORDS = [(0,), (1, -1), (True,), (1, StandardizedSymbol(1, 1)), (StandardizedSymbol(2, 0),)]


@pytest.mark.parametrize("word", BAD_WORDS)
@pytest.mark.parametrize("mode", ["lps", "rps"])
def test_insertion_rejects_bad_symbols(word, mode):
    with pytest.raises(InvalidInputError):
        ps_insert(word, mode)
    with pytest.raises(InvalidInputError):
        extended_insert(word, mode)
    labels = tuple(range(1, len(word) + 1))
    with pytest.raises(InvalidInputError):
        array_insert(TwoRowedArray(top=labels, bottom=word), mode)
    with pytest.raises(InvalidInputError):
        array_insert(TwoRowedArray(top=word, bottom=labels), mode)


def test_reverse_insertion_error_carries_location():
    from pstab import ReverseInsertionError

    err = ReverseInsertionError("stuck", step=3, column=2)
    assert err.step == 3 and err.column == 2


def test_reverse_insertion_recovers_golden_array():
    assert reverse_insertion(TableauPair(ARRAY_P, ARRAY_Q), "lps") == GOLDEN_ARRAY


def test_reverse_insertion_single_box():
    pair = TableauPair(Tableau([[5]]), Tableau([[2]]))
    assert reverse_insertion(pair, "lps") == TwoRowedArray(top=(2,), bottom=(5,))
    assert reverse_insertion(pair, "rps") == TwoRowedArray(top=(2,), bottom=(5,))


def test_reverse_insertion_of_non_member_pairs_is_mechanical():
    # equal tableaux: extraction exists but is not even an l-array
    x = Tableau([[1, 2, 3], [1]])
    out = reverse_insertion(TableauPair(x, x), "lps")
    assert out == TwoRowedArray(top=(1, 1, 2, 3), bottom=(3, 1, 2, 1))
    assert not out.is_lexicographic()
    # recording second component: extraction is a valid array that inserts elsewhere
    out = reverse_insertion(TableauPair(x, Tableau([[1, 3, 4], [2]])), "lps")
    assert out == TwoRowedArray(top=(1, 2, 3, 4), bottom=(3, 1, 2, 1))
    assert array_insert(out, "lps") != TableauPair(x, Tableau([[1, 3, 4], [2]]))


def test_reverse_insertion_validates_input():
    with pytest.raises(InvalidInputError):
        reverse_insertion(TableauPair(Tableau([[1]]), Tableau([[1], [2]])), "lps")
    not_lps = Tableau([[1, 1]])
    with pytest.raises(InvalidInputError):
        reverse_insertion(TableauPair(not_lps, not_lps), "lps")


def test_reverse_insertion_empty_pair():
    assert reverse_insertion(TableauPair(Tableau(), Tableau()), "lps") == TwoRowedArray((), ())


@given(valid_arrays())
def test_array_roundtrip(arr_mode):
    arr, mode = arr_mode
    assert reverse_insertion(array_insert(arr, mode), mode) == arr


def test_read_by_recording_golden_pair():
    assert read_by_recording(TableauPair(GOLDEN_P, GOLDEN_Q)) == GOLDEN_WORD


def test_read_by_recording_small_pair():
    t = Tableau([[1, 3], [2]])
    assert read_by_recording(TableauPair(t, t)) == (3, 2, 1)


def test_read_by_recording_single_box():
    assert read_by_recording(TableauPair(Tableau([[9]]), Tableau([[1]]))) == (9,)


def test_read_by_recording_requires_recording_tableau():
    with pytest.raises(InvalidInputError):
        read_by_recording(TableauPair(Tableau([[1], [2]]), Tableau([[2], [3]])))
    with pytest.raises(InvalidInputError):
        read_by_recording(TableauPair(Tableau([[1]]), Tableau([[1], [2]])))


def test_mixed_alphabet_array_insertion():
    # standardized top word over a plain bottom word: labels are never compared
    # against inserted symbols, so the kinds may differ
    top = standardize((1, 1, 2), "left")
    arr = TwoRowedArray(top=top, bottom=(2, 2, 1))
    pair = array_insert(arr, "lps")
    assert pair.q == Tableau(
        [[StandardizedSymbol(1, 1), StandardizedSymbol(2, 1)], [StandardizedSymbol(1, 2)]]
    )
