import copy
import itertools
import json
import pickle

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
from pstab.counting import compositions
from pstab.oracle import mode_tableaux
from pstab.tableaux import TableauClass


def _split_filling(word, shape):
    """The tableau whose columns, left to right, are consecutive pieces of ``word`` of the sizes in ``shape``."""
    return Tableau(word[a:b] for a, b in itertools.pairwise(itertools.accumulate(shape, initial=0)))


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


def test_entry_refuses_positions_outside_the_tableau():
    t = Tableau([[1, 2], [3]])
    assert [t.entry(1, 1), t.entry(1, 2), t.entry(2, 1)] == [1, 2, 3]
    for column, row in ((0, 1), (1, 0), (-1, 1), (2, 2), (3, 1)):
        with pytest.raises(IndexError):
            t.entry(column, row)


def test_tableau_is_immutable_and_hashable():
    t = Tableau([[1, 2], [3]])
    with pytest.raises(AttributeError):
        t.columns = ()
    assert t == Tableau([[1, 2], [3]])
    assert hash(t) == hash(Tableau([[1, 2], [3]]))
    # equality holds within one class, as for a frozen dataclass: a subclass's instance differs
    assert t != type("Sub", (Tableau,), {"__slots__": ()})(t.columns)
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


# one tableau of each kind: lPS only, rPS only, standard, recording, none, empty
KINDS = [[[1, 2, 4], [1, 2]], [[1, 1, 4], [2, 2]], [[2, 4], [5]], [[1, 3], [2]], [[2, 1], [1]], []]


def _clones(t):
    return pickle.loads(pickle.dumps(t)), copy.copy(t), copy.deepcopy(t)


@pytest.mark.parametrize("columns", KINDS)
def test_classify_caches_its_result_without_changing_the_value(columns):
    t, fresh = Tableau(columns), Tableau(columns)
    kind = classify(t)
    assert classify(t) is kind
    assert t == fresh and hash(t) == hash(fresh) and repr(t) == repr(fresh)
    assert pickle.dumps(t) == pickle.dumps(fresh)
    assert t.__reduce__() == fresh.__reduce__() == (Tableau, (fresh.columns,))
    for clone in _clones(t):
        assert type(clone) is Tableau and clone == t and hash(clone) == hash(t) and repr(clone) == repr(t)
    with pytest.raises(AttributeError):
        t._class = kind._replace(is_pre=not kind.is_pre)
    assert classify(t) is kind


@pytest.mark.parametrize("columns", KINDS)
def test_pickled_and_copied_tableaux_classify_like_fresh_ones(columns):
    t = Tableau(columns)
    classify(t)
    for clone in _clones(t):
        assert classify(clone) == classify(Tableau(columns))


@given(tableaux)
def test_classify_flag_implications(t):
    kind = classify(t)
    if kind.is_recording:
        assert kind.is_standard_ps
    if kind.is_standard_ps:
        assert kind.is_lps and kind.is_rps and kind.is_pre


def _classify_by_generators(t):
    # The generator-based classify, kept as the reference for the one-pass one.
    cols = t.columns
    strict_cols = all(a < b for col in cols for a, b in itertools.pairwise(col))
    weak_cols = all(a <= b for col in cols for a, b in itertools.pairwise(col))
    bottom = [col[0] for col in cols]
    weak_bottom = all(a <= b for a, b in itertools.pairwise(bottom))
    strict_bottom = all(a < b for a, b in itertools.pairwise(bottom))
    symbols = [sym for col in cols for sym in col]
    is_pre = len(set(symbols)) == len(symbols)
    is_lps = strict_cols and weak_bottom
    is_rps = weak_cols and strict_bottom
    is_standard = is_pre and is_lps and is_rps
    is_recording = is_standard and set(symbols) == set(range(1, len(symbols) + 1))
    return TableauClass(is_pre, is_lps, is_rps, is_standard, is_recording)


def test_classify_matches_the_reference_on_every_small_filling():
    # every filling over A_3 of every composition shape with <= 5 boxes,
    # the standardizations of its lPS and rPS members, and the empty tableau
    checked = {"lps": 0, "rps": 0, "standardized": 0}
    assert classify(Tableau()) == _classify_by_generators(Tableau())
    for boxes in range(1, 6):
        for shape in compositions(boxes):
            for filling in itertools.product((1, 2, 3), repeat=boxes):
                t = _split_filling(filling, shape)
                kind = classify(t)
                assert kind == _classify_by_generators(t)
                for flag, direction in (("lps", "left"), ("rps", "right")):
                    if getattr(kind, f"is_{flag}"):
                        checked[flag] += 1
                        std = standardize_tableau(t, direction)
                        assert classify(std) == _classify_by_generators(std)
                        checked["standardized"] += 1
    assert min(checked.values()) > 0


@st.composite
def large_tableaux(draw):
    # up to 200 boxes: insertion images (lPS, rPS, and standard ones from
    # permutations) and arbitrary fillings with and without sorted columns
    size = draw(st.integers(0, 200))
    kind = draw(st.sampled_from(["lps", "rps", "permutation", "filling", "sorted columns"]))
    if kind == "permutation":
        word = tuple(draw(st.permutations(range(1, size + 1))))
    else:
        top = draw(st.integers(1, max(size, 1)))
        word = tuple(draw(st.lists(st.integers(1, top), min_size=size, max_size=size)))
    if kind in ("lps", "rps", "permutation"):
        t = ps_insert(word, "rps" if kind == "rps" else "lps")
    else:
        cuts = sorted(draw(st.sets(st.integers(1, size - 1)))) if size > 1 else []
        t = _split_filling(word, [b - a for a, b in itertools.pairwise([0, *cuts, size]) if b > a])
        if kind == "sorted columns":
            t = Tableau(map(sorted, t.columns))
    reference = _classify_by_generators(t)
    if draw(st.booleans()) and t and (reference.is_lps or reference.is_rps):
        t = standardize_tableau(t, "left" if reference.is_lps else "right")
    return t


@given(large_tableaux())
def test_classify_matches_the_reference_at_scale(t):
    assert classify(t) == _classify_by_generators(t)


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


def _standardize_tableau_by_positions(t, direction):
    """The positions walk standardize_tableau used before it read through
    words.standardize: a reference for the tests below."""
    kind = classify(t)
    if t.columns and isinstance(t.columns[0][0], StandardizedSymbol):
        raise InvalidInputError("tableau is already standardized")
    if direction == "left":
        if not kind.is_lps:
            raise InvalidInputError("left standardization requires an lPS tableau")
        positions = [(j, r) for j in range(len(t.columns)) for r in range(len(t.columns[j]) - 1, -1, -1)]
    elif direction == "right":
        if not kind.is_rps:
            raise InvalidInputError("right standardization requires an rPS tableau")
        positions = [(j, r) for j in range(len(t.columns) - 1, -1, -1) for r in range(len(t.columns[j]))]
    else:
        raise InvalidInputError(f"direction must be 'left' or 'right', got {direction!r}")
    seen = {}
    new_cols = [[None] * len(col) for col in t.columns]
    for j, r in positions:
        base = t.columns[j][r]
        seen[base] = seen.get(base, 0) + 1
        new_cols[j][r] = StandardizedSymbol(base, seen[base])
    return Tableau(new_cols)


def _outcome(standardizer, t, direction):
    try:
        return standardizer(t, direction)
    except InvalidInputError as exc:
        return f"refused: {exc}"


def test_standardize_tableau_matches_the_positions_walk():
    checked = refused = 0
    for mode, direction in (("lps", "left"), ("rps", "right")):
        for boxes in range(6):
            for t in mode_tableaux(3, boxes, mode):
                # both directions (refused where the tableau lacks the kind), an
                # unknown direction, and an already standardized tableau
                for case in ((t, "left"), (t, "right"), (t, "up"), (standardize_tableau(t, direction), direction)):
                    expected = _outcome(_standardize_tableau_by_positions, *case)
                    assert _outcome(standardize_tableau, *case) == expected, case
                    refused += isinstance(expected, str)
                checked += 1
    assert checked > 400 and refused > 1000


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
    # the tallest column need not be the first; a shorter column leaves a blank above it
    assert render_ascii(Tableau([[1], [2, 3, 4], [5, 6]])) == "  4\n  3 6\n1 2 5"
    assert render_ascii(Tableau([[10, 12], [3], [100, 200, 300]])) == "     300\n12   200\n10 3 100"
    assert render_ascii(Tableau([[S(4, 1), S(5, 1)], [S(4, 2)]])) == "5_1\n4_1 4_2"


def test_render_latex():
    t = Tableau([[1, 2], [3]])
    assert render_latex(t) == "\\begin{ytableau}\n2 & \\none \\\\\n1 & 3\n\\end{ytableau}"
    assert render_latex(Tableau()) == "\\begin{ytableau}\n\\none\n\\end{ytableau}"
    assert render_latex(Tableau([[1], [2, 3, 4], [5, 6]])) == (
        "\\begin{ytableau}\n\\none & 4 & \\none \\\\\n\\none & 3 & 6 \\\\\n1 & 2 & 5\n\\end{ytableau}"
    )
    assert render_latex(Tableau([[10, 12], [3], [100, 200, 300]])) == (
        "\\begin{ytableau}\n\\none & \\none & 300 \\\\\n12 & \\none & 200 \\\\\n10 & 3 & 100\n\\end{ytableau}"
    )
    assert render_latex(Tableau([[S(4, 1), S(5, 1)], [S(4, 2)]])) == (
        "\\begin{ytableau}\n5_1 & \\none \\\\\n4_1 & 4_2\n\\end{ytableau}"
    )


def test_json_rejects_non_list_columns():
    with pytest.raises(InvalidInputError):
        tableau_from_json({"columns": "nope"})
