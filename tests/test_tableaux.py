import json

from hypothesis import given, strategies as st
import pytest

from pstab import (
    InvalidInputError,
    StandardizedSymbol,
    Tableau,
    classify,
    column_reading,
    destandardize_tableau,
    ps_insert,
    render_ascii,
    render_latex,
    reverse_columns,
    standardize_tableau,
    tableau_from_json,
    tableau_to_json,
)


def S(base, index):
    return StandardizedSymbol(base, index)


words = st.lists(st.integers(min_value=1, max_value=4), min_size=0, max_size=8).map(tuple)
tableaux = st.tuples(words, st.sampled_from(["lps", "rps"])).map(lambda t: ps_insert(*t))


def test_construction_rejects_empty_column():
    with pytest.raises(InvalidInputError):
        Tableau([[1, 2], []])


def test_construction_rejects_bad_symbols():
    with pytest.raises(InvalidInputError):
        Tableau([[0]])
    for columns in ([[1, S(1, 1)]], [[1], [S(1, 1)]], [[True]], [[S(True, 1)]], [[1.0]]):
        with pytest.raises(InvalidInputError):
            Tableau(columns)


def test_tableau_is_immutable_and_hashable():
    t = Tableau([[1, 2], [3]])
    with pytest.raises(AttributeError):
        t.columns = ()
    assert t == Tableau([[1, 2], [3]])
    assert hash(t) == hash(Tableau([[1, 2], [3]]))
    assert t.shape == (2, 1)
    assert len(t) == 3
    assert t.bottom_row == (1, 3)
    assert t.entry(1, 2) == 2
    assert t.content() == {1, 2, 3}
    assert t.evaluation(3) == (1, 1, 1)


def test_classify_lps_example():
    # 8-box variant with three full columns
    kind = classify(Tableau([[1, 2, 4], [1, 2], [2, 3, 4]]))
    assert kind.is_lps and not kind.is_rps and not kind.is_standard_ps
    # the 7-box tableau with a two-box first column
    kind = classify(Tableau([[1, 4], [1, 2], [2, 3, 4]]))
    assert kind.is_lps and not kind.is_rps


def test_classify_rps_example():
    kind = classify(Tableau([[1, 1, 4], [2, 2], [3, 4]]))
    assert kind.is_rps and not kind.is_lps and kind.is_pre is False


def test_classify_standard_recording_example():
    kind = classify(Tableau([[1, 6], [2, 3], [4, 5, 7]]))
    assert kind.is_standard_ps and kind.is_recording and kind.is_lps and kind.is_rps


def test_classify_empty_tableau_is_everything():
    kind = classify(Tableau())
    assert kind.is_pre and kind.is_lps and kind.is_rps
    assert kind.is_standard_ps and kind.is_recording


def test_classify_standard_with_gapped_content_is_not_recording():
    kind = classify(Tableau([[2, 4], [5]]))
    assert kind.is_standard_ps and not kind.is_recording


@given(tableaux)
def test_classify_flag_implications(t):
    kind = classify(t)
    if kind.is_recording:
        assert kind.is_standard_ps
    if kind.is_standard_ps:
        assert kind.is_lps and kind.is_rps and kind.is_pre


def test_column_reading_examples():
    assert column_reading(Tableau([[1, 2, 4], [2, 3, 6], [4]])) == (4, 2, 1, 6, 3, 2, 4)
    assert column_reading(Tableau([[2, 4, 5]])) == (5, 4, 2)
    assert column_reading(Tableau()) == ()


def test_reverse_columns_examples():
    q = Tableau([[1, 3, 6], [2, 4, 5], [7]])
    assert reverse_columns(q) == Tableau([[6, 3, 1], [5, 4, 2], [7]])
    assert reverse_columns(Tableau([[9]])) == Tableau([[9]])


@given(tableaux)
def test_reverse_columns_is_a_shape_preserving_involution(t):
    flipped = reverse_columns(t)
    assert flipped.shape == t.shape
    assert reverse_columns(flipped) == t


def test_standardize_tableau_left_worked_example():
    r = Tableau([[1], [1, 2], [2], [2, 3], [3], [3]])
    assert standardize_tableau(r, "left") == Tableau(
        [
            [S(1, 1)],
            [S(1, 2), S(2, 1)],
            [S(2, 2)],
            [S(2, 3), S(3, 1)],
            [S(3, 2)],
            [S(3, 3)],
        ]
    )


def test_standardize_tableau_right_single_column():
    # bottom box gets index 1: the right reading walks each column bottom-up
    assert standardize_tableau(Tableau([[2, 2]]), "right") == Tableau([[S(2, 1), S(2, 2)]])


def test_standardize_tableau_standard_input_gets_all_indices_one():
    t = Tableau([[1, 6], [2, 3], [4, 5, 7]])
    std = standardize_tableau(t, "left")
    assert all(sym.index == 1 for col in std.columns for sym in col)
    assert destandardize_tableau(std) == t


def test_standardize_tableau_wrong_class_is_an_error():
    rps_only = Tableau([[1, 1, 4], [2, 2], [3, 4]])
    with pytest.raises(InvalidInputError):
        standardize_tableau(rps_only, "left")
    lps_only = Tableau([[1, 4], [1, 2], [2, 3, 4]])
    with pytest.raises(InvalidInputError):
        standardize_tableau(lps_only, "right")
    # a repeated symbol inside a column rules out the lPS reading entirely
    with pytest.raises(InvalidInputError):
        standardize_tableau(Tableau([[1, 2], [1, 2, 3], [2, 2, 3], [3, 3], [3]]), "left")


@given(tableaux)
def test_standardize_preserves_shape_and_bases(t):
    for direction, flag in (("left", "is_lps"), ("right", "is_rps")):
        if not getattr(classify(t), flag):
            continue
        std = standardize_tableau(t, direction)
        assert std.shape == t.shape
        assert destandardize_tableau(std) == t
        assert classify(std).is_standard_ps


def test_destandardize_tableau_empty_and_errors():
    assert destandardize_tableau(Tableau()) == Tableau()
    with pytest.raises(InvalidInputError):
        destandardize_tableau(Tableau([[1, 2]]))


def test_tableau_bool_and_repr():
    assert not Tableau()
    assert Tableau([[1]])
    assert repr(Tableau([[1, 2]])) == "Tableau([[1, 2]])"


def test_tableau_rejects_out_of_range_standardized_symbols():
    with pytest.raises(InvalidInputError):
        Tableau([[S(0, 1)]])


def test_tableau_evaluation_errors():
    with pytest.raises(InvalidInputError):
        Tableau([[5]]).evaluation(4)
    with pytest.raises(InvalidInputError):
        Tableau([[S(1, 1)]]).evaluation(2)


def test_standardize_tableau_rejects_bad_direction_and_double_standardization():
    with pytest.raises(InvalidInputError):
        standardize_tableau(Tableau([[1]]), "up")
    once = standardize_tableau(Tableau([[1], [1]]), "left")
    with pytest.raises(InvalidInputError):
        standardize_tableau(once, "left")


def test_json_roundtrip_plain():
    t = Tableau([[1, 2, 4], [1, 2], [2, 3, 4]])
    blob = json.dumps(tableau_to_json(t))
    assert tableau_from_json(json.loads(blob)) == t
    assert tableau_to_json(t) == {"columns": [[1, 2, 4], [1, 2], [2, 3, 4]]}


def test_json_roundtrip_standardized():
    t = Tableau([[S(1, 1), S(2, 1)], [S(1, 2)]])
    obj = tableau_to_json(t)
    assert obj == {"columns": [[[1, 1], [2, 1]], [[1, 2]]]}
    assert tableau_from_json(obj) == t


def test_json_rejects_malformed_input():
    with pytest.raises(InvalidInputError):
        tableau_from_json({"rows": []})
    for columns in ([["x"]], [[0]], [[True]], [[[1, 0]]], [[[1]]], [[["a", 1]]], [[1, [1, 1]]], [[]]):
        with pytest.raises(InvalidInputError):
            tableau_from_json({"columns": columns})


def test_render_ascii_bottom_row_last():
    t = Tableau([[1, 2, 4], [2, 3, 6], [4]])
    assert render_ascii(t) == "4 6\n2 3\n1 2 4"
    assert render_ascii(Tableau()) == "(empty)"
    assert render_ascii(Tableau([[10, 2]])) == " 2\n10"


def test_render_latex():
    t = Tableau([[1, 2], [3]])
    assert render_latex(t) == "\\begin{ytableau}\n2 & \\none \\\\\n1 & 3\n\\end{ytableau}"
    assert render_latex(Tableau()) == "\\begin{ytableau}\n\\none\n\\end{ytableau}"


def test_json_rejects_non_list_columns():
    with pytest.raises(InvalidInputError):
        tableau_from_json({"columns": "nope"})
