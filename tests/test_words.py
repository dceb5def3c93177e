from hypothesis import given, strategies as st
import pytest

from pstab import (
    InvalidInputError,
    StandardizedSymbol,
    destandardize,
    evaluation,
    format_word,
    is_standard,
    parse_word,
    standardize,
)


def S(base, index):
    return StandardizedSymbol(base, index)


words = st.lists(st.integers(min_value=1, max_value=5), max_size=10).map(tuple)


def test_standardize_left_worked_example():
    assert standardize((4, 1, 2, 4, 3, 2, 1), "left") == (
        S(4, 1), S(1, 1), S(2, 1), S(4, 2), S(3, 1), S(2, 2), S(1, 2),
    )


def test_standardize_right_worked_example():
    assert standardize((4, 1, 2, 4, 3, 2, 1), "right") == (
        S(4, 2), S(1, 2), S(2, 2), S(4, 1), S(3, 1), S(2, 1), S(1, 1),
    )


def test_standardize_empty():
    assert standardize((), "left") == ()
    assert standardize((), "right") == ()


def test_standardize_rejects_bad_direction():
    with pytest.raises(InvalidInputError):
        standardize((1, 2), "up")


def test_standardize_rejects_nonpositive_symbols():
    with pytest.raises(InvalidInputError):
        standardize((0, 1), "left")


def test_destandardize_worked_example():
    word = (S(4, 1), S(1, 1), S(2, 1), S(4, 2), S(3, 1), S(2, 2), S(1, 2))
    assert destandardize(word) == (4, 1, 2, 4, 3, 2, 1)


def test_destandardize_empty():
    assert destandardize(()) == ()


def test_destandardize_rejects_plain_symbols():
    with pytest.raises(InvalidInputError):
        destandardize((1, 2))
    with pytest.raises(InvalidInputError):
        destandardize((S(1, 1), 2))
    with pytest.raises(InvalidInputError):
        standardize((1, S(1, 1)), "left")


@given(words, st.sampled_from(["left", "right"]))
def test_standardize_roundtrip(word, direction):
    assert destandardize(standardize(word, direction)) == word


@given(words, st.sampled_from(["left", "right"]))
def test_standardize_output_is_standard(word, direction):
    assert is_standard(standardize(word, direction))


@given(words)
def test_standardize_index_order(word):
    left = standardize(word, "left")
    right = standardize(word, "right")
    by_base: dict[int, list[int]] = {}
    for sym in left:
        by_base.setdefault(sym.base, []).append(sym.index)
    for indices in by_base.values():
        assert indices == sorted(indices)
    by_base.clear()
    for sym in right:
        by_base.setdefault(sym.base, []).append(sym.index)
    for indices in by_base.values():
        assert indices == sorted(indices, reverse=True)


def test_standardized_symbol_order_is_base_first():
    assert S(1, 9) < S(2, 1)
    assert S(2, 1) < S(2, 2)
    assert str(S(4, 1)) == "4_1"


def test_evaluation_worked_examples():
    assert evaluation((4, 1, 2, 4, 3, 2, 1), 4) == (2, 2, 1, 2)
    assert evaluation((), 3) == (0, 0, 0)
    assert evaluation((2, 2, 4, 5), 5) == (0, 2, 0, 1, 1)


def test_evaluation_rejects_oversized_symbol():
    with pytest.raises(InvalidInputError):
        evaluation((1, 5), 4)
    with pytest.raises(InvalidInputError):
        evaluation((1,), -1)


@given(words, words)
def test_evaluation_additive_over_concatenation(u, v):
    eu = evaluation(u, 5)
    ev = evaluation(v, 5)
    assert evaluation(u + v, 5) == tuple(a + b for a, b in zip(eu, ev))


def test_is_standard():
    assert is_standard((2, 5, 4))
    assert not is_standard((4, 1, 2, 4, 3, 2, 1))
    assert is_standard(())


def test_parse_word_formats():
    assert parse_word("4 6 2 3 2 1 4") == (4, 6, 2, 3, 2, 1, 4)
    assert parse_word("4,6,2,3,2,1,4") == (4, 6, 2, 3, 2, 1, 4)
    assert parse_word("") == ()
    assert parse_word("4_1 1_1") == (S(4, 1), S(1, 1))


def test_parse_word_rejects_garbage():
    with pytest.raises(InvalidInputError):
        parse_word("4 x")
    for text in ("0 1", "-1", "1_0", "1_1 2", "3 2_1", "1_2_3"):
        with pytest.raises(InvalidInputError):
            parse_word(text)


@given(words)
def test_format_parse_roundtrip(word):
    assert parse_word(format_word(word)) == word


@given(words, st.sampled_from(["left", "right"]))
def test_format_parse_roundtrip_standardized(word, direction):
    std = standardize(word, direction)
    assert parse_word(format_word(std)) == std
