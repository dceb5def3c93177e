from itertools import product
import sys

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


def _standardized_by_position(word, direction):
    """Fill a slot per position, visiting the positions left to right or right to left."""
    order = range(len(word)) if direction == "left" else range(len(word) - 1, -1, -1)
    seen, out = {}, [None] * len(word)
    for pos in order:
        seen[word[pos]] = seen.get(word[pos], 0) + 1
        out[pos] = S(word[pos], seen[word[pos]])
    return tuple(out)


def test_standardize_matches_the_positional_fill():
    for length in range(7):
        for word in product(range(1, 4), repeat=length):
            for direction in ("left", "right"):
                assert standardize(word, direction) == _standardized_by_position(word, direction), word


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
    # int() reads a sign, and an empty field between commas is no token
    assert parse_word("+3") == (3,)
    assert parse_word("1,,2") == (1, 2)


def test_parse_word_rejects_garbage():
    # plain words parse in one pass; on a failure the message still names the first bad token
    for text, message in (
        ("4 x", "cannot parse symbol 'x'"),
        ("1 2 " * 50_000 + "x 3 y", "cannot parse symbol 'x'"),
        ("1 2 " * 50_000 + "0", "not a symbol: 0"),
        ("0 1", "not a symbol: 0"),
        ("-1", "not a symbol: -1"),
        ("1_0", "not a symbol: StandardizedSymbol(base=1, index=0)"),
        ("1_1 2", "expected only standardized symbols, got 2"),
        ("3 2_1", "expected only plain symbols, got 2_1"),
        ("1_2_3", "cannot parse symbol '1_2_3'"),
        ("1__2", "cannot parse symbol '1__2'"),
        ("2_1 1_", "cannot parse symbol '1_'"),
        ("_1", "cannot parse symbol '_1'"),
        ("1 _", "cannot parse symbol '_'"),
        ("1_1 x", "cannot parse symbol 'x'"),
        # int() also reads Arabic-Indic and fullwidth digits
        ("\u0661 \u0662", "cannot parse symbol '\u0661'"),
        ("1 \uff12", "cannot parse symbol '\uff12'"),
        ("\u0662_1 1_1", "cannot parse symbol '\u0662_1'"),
        ("1_\u0661", "cannot parse symbol '1_\u0661'"),
    ):
        with pytest.raises(InvalidInputError) as exc:
            parse_word(text)
        assert str(exc.value) == message


@given(words)
def test_format_parse_roundtrip(word):
    assert parse_word(format_word(word)) == word


@given(words, st.sampled_from(["left", "right"]))
def test_format_parse_roundtrip_standardized(word, direction):
    std = standardize(word, direction)
    assert parse_word(format_word(std)) == std


def test_check_word_plain_fast_path_keeps_every_rejection():
    from pstab.words import check_word

    assert check_word([3, 1, 2]) == (3, 1, 2)
    assert check_word(iter(range(1, 5)), int) == (1, 2, 3, 4)
    assert check_word([]) == ()
    for bad, message in (
        ([1, True], "not a symbol: True"),
        ([2, 0], "not a symbol: 0"),
        ([2, -1], "not a symbol: -1"),
        ([1.0], "not a symbol: 1.0"),
        ([1, S(1, 1)], "expected only plain symbols"),
    ):
        with pytest.raises(InvalidInputError, match=message):
            check_word(bad)
    with pytest.raises(InvalidInputError, match="expected only standardized symbols"):
        check_word([1, 2], StandardizedSymbol)


def test_messages_quote_only_the_start_of_a_long_value():
    # a string is quoted whole up to 20 characters, then by its first 20; any other repr up to 40 characters
    from pstab.words import _check_int, check_word

    twenty, long = "x" * 20, "x" * 5000
    for text, message in (
        (twenty, f"cannot parse symbol {twenty!r}"),
        (long, f"cannot parse symbol {twenty!r}..."),
        (f"1 {long}_1", f"cannot parse symbol {twenty!r}..."),
    ):
        with pytest.raises(InvalidInputError) as exc:
            parse_word(text)
        assert str(exc.value) == message
    for value, message in (
        (twenty, f"n must be an integer, got {twenty!r}"),
        (long, f"n must be an integer, got {twenty!r}..."),
        ([1] * 13, f"n must be an integer, got {[1] * 13!r}"),
        ([1] * 5000, f"n must be an integer, got {repr([1] * 14)[:40]}..."),
    ):
        with pytest.raises(InvalidInputError) as exc:
            _check_int(value, "n")
        assert str(exc.value) == message
    for sym, message in (
        (long, f"not a symbol: {twenty!r}..."),
        (S(long, 1), "not a symbol: StandardizedSymbol(base='xxxxxxxxxxxxxxx..."),
        (S(1, 0), "not a symbol: StandardizedSymbol(base=1, index=0)"),
    ):
        with pytest.raises(InvalidInputError) as exc:
            check_word([sym])
        assert str(exc.value) == message
    # str-style messages are cut the same way
    for syms, message in (
        ([S(1, 1), int("1" * 4000)], f"expected only standardized symbols, got {'1' * 40}..."),
        ([1, S(2, 1)], "expected only plain symbols, got 2_1"),
    ):
        with pytest.raises(InvalidInputError) as exc:
            check_word(syms)
        assert str(exc.value) == message


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="this Python's int() has no digit limit")
def test_messages_name_a_value_too_long_to_print_by_its_type():
    # repr and str of an int past the digit limit raise ValueError; the message must still be built
    from pstab.words import _check_int, check_word

    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        for call, message in (
            (lambda: check_word([S(10**5000, 0)]), "not a symbol: <StandardizedSymbol too long to print>"),
            (lambda: check_word([-10**5000]), "not a symbol: <int too long to print>"),
            (lambda: check_word([S(1, 1), 10**5000]), "expected only standardized symbols, got <int too long to print>"),
            (lambda: _check_int([10**5000], "n"), "n must be an integer, got <list too long to print>"),
            (lambda: evaluation([10**5000], 2), "symbol <int too long to print> exceeds alphabet size 2"),
        ):
            with pytest.raises(InvalidInputError) as exc:
                call()
            assert str(exc.value) == message
    finally:
        sys.set_int_max_str_digits(limit)
