import argparse
import io
import json
import random
import re
import signal
import sys
import tracemalloc
from itertools import chain
from math import comb
from pathlib import Path

import pytest

from pstab import (
    BudgetExceededError, InternalError, InvalidInputError, NotInStablePairsError,
    count_lps_rec, extended_insert, format_word, standardize, tableau_to_json,
)
from pstab import cli
from pstab.cli import _render_pair, main
from pstab.words import _quote

GOLDEN_ASCII = (
    "P:      Q:\n"
    "4 6     6 5\n"
    "2 3     3 4\n"
    "1 2 4   1 2 7"
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out.rstrip("\n"), captured.err


def test_insert_golden_ascii(capsys):
    code, out, _ = run(capsys, "insert", "--mode", "lps", "4 6 2 3 2 1 4")
    assert code == 0
    assert out == GOLDEN_ASCII


def test_insert_accepts_commas(capsys):
    code, out, _ = run(capsys, "insert", "--mode", "lps", "4,6,2,3,2,1,4")
    assert code == 0
    assert out == GOLDEN_ASCII


def test_insert_empty_word(capsys):
    code, out, _ = run(capsys, "insert", "--mode", "lps", "")
    assert code == 0
    assert "(empty)" in out


@pytest.mark.parametrize("mode, word, expected", [
    ("lps", "", "P:        Q:\n(empty)   (empty)\n"),
    ("rps", "", "P:        Q:\n(empty)   (empty)\n"),
    ("lps", "12 1 100 7 7", "P:         Q:\n12 100     2 4\n 1   7 7   1 3 5\n"),
    ("rps", "12 1 100 7 7", "P:       Q:\n   100     5\n12   7   2 4\n 1   7   1 3\n"),
    ("lps", "2_1 1_1 2_2", "P:        Q:\n2_1       2\n1_1 2_2   1 3\n"),
    ("rps", "2_1 1_1 2_2", "P:        Q:\n2_1       2\n1_1 2_2   1 3\n"),
])
def test_insert_ascii_pair_bytes(capsys, mode, word, expected):
    # P and Q side by side, three spaces after P's widest line, trailing blanks stripped
    assert main(["insert", "--mode", mode, word]) == 0
    assert capsys.readouterr().out == expected


def test_insert_json_roundtrips_through_unrsk(capsys):
    code, out, _ = run(capsys, "insert", "--mode", "lps", "4 6 2 3 2 1 4", "--format", "json")
    assert code == 0
    blob = json.loads(out)
    assert blob["p"]["columns"] == [[1, 2, 4], [2, 3, 6], [4]]
    assert blob["q"]["columns"] == [[1, 3, 6], [2, 4, 5], [7]]
    code, word, _ = run(capsys, "unrsk", "--mode", "lps", out)
    assert code == 0
    assert word == "4 6 2 3 2 1 4"


def test_insert_latex(capsys):
    code, out, _ = run(capsys, "insert", "--mode", "lps", "1 2", "--format", "latex")
    assert code == 0
    assert out.startswith("\\begin{ytableau}")
    assert "\\quad" in out


def test_rps_insert_bumps_on_equality(capsys):
    code, out, _ = run(capsys, "insert", "--mode", "rps", "2 2")
    assert code == 0
    assert out == "P:   Q:\n2    2\n2    1"


def test_rsk_array_and_unrsk_roundtrip(capsys, tmp_path):
    code, out, _ = run(
        capsys, "rsk", "--mode", "lps",
        "--array", "1 1 2 3 3 3 4 / 3 4 2 1 1 2 3", "--format", "json",
    )
    assert code == 0
    blob = json.loads(out)
    assert blob["p"]["columns"] == [[1, 2, 3], [1, 4], [2], [3]]
    assert blob["q"]["columns"] == [[1, 2, 3], [1, 3], [3], [4]]
    pair_file = tmp_path / "pair.json"
    pair_file.write_text(out, encoding="utf-8")
    code, arr, _ = run(capsys, "unrsk", "--mode", "lps", "--file", str(pair_file))
    assert code == 0
    assert arr == "1 1 2 3 3 3 4 / 3 4 2 1 1 2 3"


def test_rsk_word_equals_insert(capsys):
    code_a, out_a, _ = run(capsys, "rsk", "--mode", "lps", "--word", "4 6 2 3 2 1 4")
    code_b, out_b, _ = run(capsys, "insert", "--mode", "lps", "4 6 2 3 2 1 4")
    assert code_a == code_b == 0
    assert out_a == out_b


def test_unrsk_rejects_non_members_with_exit_3(capsys):
    pair = json.dumps({"p": {"columns": [[1, 2, 3], [1]]}, "q": {"columns": [[1, 3, 4], [2]]}})
    code, out, err = run(capsys, "unrsk", "--mode", "lps", pair)
    assert code == 3
    assert "stable pairs set" in err


@pytest.mark.parametrize("mode", ["lps", "rps"])
@pytest.mark.parametrize("word", [(), (5,), (4, 6, 2, 3, 2, 1, 4), (2, 2, 2, 1, 1, 3), (12, 1, 100, 7, 7)])
def test_json_pair_matches_the_json_encoder(mode, word):
    for symbols in (word, standardize(word, "left"), standardize(word, "right")):
        pair = extended_insert(symbols, mode)
        expected = json.dumps({"p": tableau_to_json(pair.p), "q": tableau_to_json(pair.q)}, indent=2)
        assert "".join(_render_pair(pair, "json")) == expected


# a seeded lps word over {1, 2}: it inserts to about 10^4 columns
BIG_WORD = tuple(random.Random(15).choices((1, 2), k=20_000))


@pytest.mark.parametrize("command", [["insert"], ["rsk", "--word"]])
def test_json_pair_output_is_the_json_encoders_text(capsys, command):
    for word in (BIG_WORD, (), standardize((4, 6, 2, 3, 2, 1, 4), "left")):
        code = main([command[0], "--mode", "lps", "--format", "json", *command[1:], format_word(word)])
        captured = capsys.readouterr()
        pair = extended_insert(word, "lps")
        assert (code, captured.err) == (0, "")
        assert captured.out == json.dumps({"p": tableau_to_json(pair.p), "q": tableau_to_json(pair.q)}, indent=2) + "\n"


def test_json_pair_output_is_written_in_pieces(monkeypatch):
    pair = extended_insert(BIG_WORD, "lps")

    class Sink:
        """A stdout that counts the writes and characters it is given and keeps none."""

        chars = writes = 0

        def write(self, text):
            self.chars += len(text)
            self.writes += 1

        def writelines(self, pieces):
            for piece in pieces:
                self.write(piece)

    def inserted(word, mode):
        tracemalloc.reset_peak()  # trace the writing alone
        held.append(tracemalloc.get_traced_memory()[0])
        return pair

    sink, held = Sink(), []
    monkeypatch.setattr("pstab.insertion.extended_insert", inserted)
    monkeypatch.setattr(sys, "stdout", sink)
    tracemalloc.start()
    try:
        code = main(["insert", "--mode", "lps", "--format", "json", "1"])
        peak = tracemalloc.get_traced_memory()[1] - held[0]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert sink.chars == len("".join(_render_pair(pair, "json"))) + 1
    # the whole text would be one string of sink.chars characters
    assert peak < sink.chars / 10
    # an unbuffered stdout makes a system call of each write: one per block of text, not per column
    assert sink.writes <= sink.chars / io.DEFAULT_BUFFER_SIZE + 2


def test_unrsk_exit_codes_by_input(capsys):
    # a non-member at both levels exits 3; standardized or malformed input exits 2
    non_member = json.dumps({"p": {"columns": [[1, 2, 3], [1]]}, "q": {"columns": [[1, 3, 4], [2]]}})
    for level in ("word", "array", "auto"):
        assert run(capsys, "unrsk", "--mode", "lps", "--level", level, non_member)[0] == 3
    standardized = json.dumps({"p": {"columns": [[[1, 1]]]}, "q": {"columns": [[1]]}})
    unordered = json.dumps({"p": {"columns": [[2, 1]]}, "q": {"columns": [[1, 2]]}})
    for pair in (standardized, unordered):
        for mode in ("lps", "rps"):
            for level in ("word", "array"):
                code, out, err = run(capsys, "unrsk", "--mode", mode, "--level", level, pair)
                assert (code, out) == (2, "") and err.startswith("error:")


@pytest.mark.parametrize("level", ["word", "array"])
@pytest.mark.parametrize(
    "p, q, message",
    [
        ([[1, 2]], [[1], [2]], "tableau shapes differ: (2,) vs (1, 1)"),
        ([[2, 1]], [[1, 2]], "first tableau is not an lPS tableau"),
        ([[1, 2]], [[2, 1]], "second tableau is not {} tableau"),
    ],
    ids=["shapes", "first", "second"],
)
def test_unrsk_refuses_bad_pairs_with_exit_2(capsys, level, p, q, message):
    pair = json.dumps({"p": {"columns": p}, "q": {"columns": q}})
    code, out, err = run(capsys, "unrsk", "--mode", "lps", "--level", level, pair)
    kind = "a recording" if level == "word" else "an lPS"
    assert (code, out, err) == (2, "", f"error: {message.format(kind)}\n")


def test_unrsk_word_level_refuses_a_second_tableau_that_is_not_recording(capsys):
    # [[1, 3]] is an lPS tableau, so only the word level refuses it
    pair = json.dumps({"p": {"columns": [[1, 2]]}, "q": {"columns": [[1, 3]]}})
    code, out, err = run(capsys, "unrsk", "--mode", "lps", "--level", "word", pair)
    assert (code, out, err) == (2, "", "error: second tableau is not a recording tableau\n")


def test_unrsk_level_flag(capsys):
    pair = json.dumps({"p": {"columns": [[1, 2, 4], [2, 3, 6], [4]]},
                       "q": {"columns": [[1, 3, 6], [2, 4, 5], [7]]}})
    code, out, _ = run(capsys, "unrsk", "--mode", "lps", "--level", "word", pair)
    assert code == 0 and out == "4 6 2 3 2 1 4"
    code, out, _ = run(capsys, "unrsk", "--mode", "lps", "--level", "array", pair, "--format", "json")
    assert code == 0
    assert json.loads(out) == {"top": [1, 2, 3, 4, 5, 6, 7], "bottom": [4, 6, 2, 3, 2, 1, 4]}


def test_count_bell_hook_outputs(capsys):
    assert run(capsys, "count", "--mode", "lps", "2,1,2") == (0, "15", "")
    assert run(capsys, "count", "--mode", "rps", "2,1,2") == (0, "9", "")
    assert run(capsys, "bell", "4", "--method", "rowsum") == (0, "15", "")
    assert run(capsys, "bell", "4", "--method", "hook") == (0, "15", "")
    assert run(capsys, "bell", "4", "--method", "oracle") == (0, "15", "")
    assert run(capsys, "hook", "--n", "4", "--shape", "3,1") == (0, "3", "")


def test_counts_far_beyond_the_literal_sums(capsys):
    # 2^39 terms and 61^4 brackets as the paper writes them; polynomial DPs here
    bell_40 = "157450588391204931289324344702531067"
    assert run(capsys, "bell", "40") == (0, bell_40, "")
    assert run(capsys, "bell", "40", "--method", "hook") == (0, bell_40, "")
    expected = str(count_lps_rec((60,) * 5))
    assert run(capsys, "count", "--mode", "lps", "60,60,60,60,60") == (0, expected, "")


def test_count_answers_an_entry_far_above_the_running_top_at_once(capsys):
    # the lPS count skips bottom rows that cannot occur; the timer makes a regression fail, not hang
    if not hasattr(signal, "setitimer"):
        pytest.skip("this platform has no interval timer")

    def overdue(signum, frame):
        pytest.fail("count --mode lps 1,100000000000 ran past 1 s")

    previous = signal.signal(signal.SIGALRM, overdue)
    signal.setitimer(signal.ITIMER_REAL, 1.0)
    try:
        assert run(capsys, "count", "--mode", "lps", "1,100000000000") == (0, "2", "")
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def test_counts_print_in_full_beyond_the_digit_limit(capsys):
    # C(15999, 7999) has 4815 digits, more than int-to-str converts by default
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    code, out, err = run(capsys, "hook", "--n", "16000", "--shape", "8000,8000")
    assert (code, err) == (0, "")
    value = comb(15999, 7999)
    assert out[:40] == str(value // 10 ** (len(out) - 40))
    assert out[-40:] == str(value % 10**40).zfill(40)
    assert getattr(sys, "get_int_max_str_digits", lambda: 0)() == limit  # restored


def test_bell_oracle_refuses_large_n(capsys):
    code, out, err = run(capsys, "bell", "13", "--method", "oracle")
    assert (code, out) == (2, "")
    assert err.startswith("error:") and "Traceback" not in err
    assert run(capsys, "bell", "13") == (0, "27644437", "")


def test_parse_errors_exit_2(capsys):
    code, _, err = run(capsys, "insert", "--mode", "lps", "4 x")
    assert code == 2 and "error:" in err
    code, _, err = run(capsys, "rsk", "--mode", "lps", "--array", "1 1 / 2 1")
    assert code == 2 and "not lexicographic" in err
    code, _, err = run(capsys, "count", "--mode", "lps", "0,0")
    assert code == 2
    code, _, err = run(capsys, "unrsk", "--mode", "lps", "not json")
    assert code == 2
    code, _, err = run(capsys, "unrsk", "--mode", "lps", '{"a": 1}')
    assert code == 2
    code, _, err = run(capsys, "hook", "--n", "4", "--shape", "3,2")
    assert code == 2
    code, _, err = run(capsys, "insert", "--mode", "lps")
    assert code == 2


def test_every_package_error_and_os_error_exits_2(capsys, monkeypatch):
    for error, code in (
        (InternalError, 2), (BudgetExceededError, 2), (InvalidInputError, 2), (OSError, 2),
        (NotInStablePairsError, 3),
    ):
        def fail(*args, error=error):
            raise error(f"{error.__name__} raised")

        monkeypatch.setattr("pstab.counting.hook_count", fail)
        assert run(capsys, "hook", "--n", "4", "--shape", "3,1") == (code, "", f"error: {error.__name__} raised\n")


@pytest.mark.parametrize("mode", ["lps", "rps"])
@pytest.mark.parametrize("argv", [["insert", "1_1 2"], ["rsk", "--word", "2 1_1"]])
def test_mixed_symbol_word_exits_2(capsys, mode, argv):
    code, out, err = run(capsys, *argv, "--mode", mode)
    assert code == 2 and out == ""
    assert "error:" in err and "Traceback" not in err


@pytest.mark.parametrize("flag", [["--word-len", "-3"], ["--eval-sum", "-1"], ["--jobs", "0"]])
def test_verify_rejects_bad_budgets_and_jobs(capsys, flag):
    code, out, err = run(capsys, "verify", "--max-n", "1", *flag)
    assert code == 2 and out == ""
    assert "error:" in err


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["insert", "--mode", "ups", "1 2"])
    assert exc.value.code == 2


def test_word_from_file(capsys, tmp_path):
    path = tmp_path / "word.txt"
    path.write_text("4 6 2 3 2 1 4\n", encoding="utf-8")
    code, out, _ = run(capsys, "insert", "--mode", "lps", "--file", str(path))
    assert code == 0
    assert out == GOLDEN_ASCII


def test_rsk_from_file_detects_input_kind(capsys, tmp_path):
    path = tmp_path / "input.txt"
    path.write_text("1 1 2 / 1 2 1\n", encoding="utf-8")
    code, out, _ = run(capsys, "rsk", "--mode", "lps", "--file", str(path), "--format", "json")
    assert code == 0
    assert json.loads(out)["q"]["columns"] == [[1], [1, 2]]
    path.write_text("3 1 2\n", encoding="utf-8")
    code, out, _ = run(capsys, "rsk", "--mode", "lps", "--file", str(path), "--format", "json")
    assert code == 0
    assert json.loads(out)["p"]["columns"] == [[1, 3], [2]]


def test_rsk_rejects_both_word_and_array(capsys):
    code, _, err = run(capsys, "rsk", "--mode", "lps", "--word", "1", "--array", "1 / 1")
    assert code == 2 and "not both" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["insert", "--mode", "lps", "5 5"],
        ["rsk", "--mode", "lps", "--word", "5 5"],
        ["unrsk", "--mode", "lps", '{"p": {"columns": [[5]]}, "q": {"columns": [[1]]}}'],
    ],
    ids=["insert", "rsk", "unrsk"],
)
def test_inline_input_and_file_are_refused_together(capsys, tmp_path, argv):
    # the file holds a valid input, so neither source may win silently
    path = tmp_path / "input.txt"
    path.write_text("1 2\n" if argv[0] != "unrsk" else argv[-1], encoding="utf-8")
    code, out, err = run(capsys, *argv, "--file", str(path))
    assert code == 2 and out == ""
    assert err.startswith("error:") and "--file, not both" in err


def test_bell_rejects_nonpositive(capsys):
    code, _, err = run(capsys, "bell", "0")
    assert code == 2


VERIFY_FLAGS = {"--max-n": "1", "--jobs": "1", "--word-len": "1", "--array-len": "1", "--eval-sum": "2"}


def _verify(flag, value):
    return ["verify", *chain.from_iterable({**VERIFY_FLAGS, flag: value}.items())]


def _refused(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "") and err.startswith("error:") and "Traceback" not in err, err


@pytest.mark.parametrize("argv", [
    ["count", "--mode", "lps", "3_1,2"],
    ["hook", "--n", "1_0", "--shape", "10"],
    ["hook", "--n", "22", "--shape", "2_2"],
    ["bell", "1_0"],
    # int() reads each of these as the small value the request would otherwise run with
    *(_verify(flag, "0_" + value) for flag, value in VERIFY_FLAGS.items()),
])
def test_counts_and_sizes_refuse_digit_separators(capsys, argv):
    _refused(capsys, argv)


@pytest.mark.parametrize("argv", [
    # Arabic-Indic digits, which int() reads as 1, 2, 3 and 4
    ["insert", "--mode", "lps", "\u0661 \u0662 \u0661"],
    ["insert", "--mode", "lps", "\u0662_1 1_1"],
    ["rsk", "--mode", "rps", "--array", "\u0661 \u0661 / \u0662 \u0661"],
    ["count", "--mode", "lps", "\u0661,\u0662"],
    ["hook", "--n", "\u0664", "--shape", "4"],
    ["bell", "\u0663"],
    _verify("--max-n", "\u0661"),
])
def test_every_number_refuses_non_ascii_digits(capsys, argv):
    _refused(capsys, argv)


LONG = "1" * 5000


@pytest.mark.parametrize("argv, message", [
    (["count", "--mode", "lps", f"2,{LONG}"], "evaluation entry has"),
    (["hook", "--n", LONG, "--shape", "1"], "n has"),
    (["hook", "--n", "-" + LONG, "--shape", "1"], "n has"),
    (["bell", LONG], "n has"),
    (_verify("--max-n", LONG), "max_n has"),
    (["insert", "--mode", "lps", f"1 {LONG} 2"], "symbol has"),
    (["insert", "--mode", "lps", f"2_{LONG}"], "symbol has"),
    (["insert", "--mode", "lps", "-" + LONG], "symbol has"),
    (["insert", "--mode", "lps", "+" + LONG], "symbol has"),
])
def test_integer_tokens_past_the_digit_limit_say_so(capsys, argv, message):
    # int() refuses more than 4300 digits by default; the message names that and quotes 20 characters
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this Python's int() has no digit limit")
    token = next(tok for arg in argv for tok in arg.replace(",", " ").split() if len(tok) > 4300)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        code, out, err = run(capsys, *argv)
    finally:
        sys.set_int_max_str_digits(limit)
    assert (code, out) == (2, "")
    assert err == f"error: {message} more digits than int() reads; it starts {token[:20]!r}\n"


@pytest.mark.parametrize("argv", [
    ["insert", "--mode", "lps", "x" + LONG],
    ["insert", "--mode", "lps", f"1 x{LONG}_1"],
    ["count", "--mode", "lps", "x" + LONG],
    ["hook", "--n", "x" + LONG, "--shape", "1"],
    ["hook", "--n", "3", "--shape", "x" + LONG],
    ["bell", "x" + LONG],
    _verify("--max-n", "x" + LONG),
    ["rsk", "--mode", "lps", "--array", f"1 / x{LONG}"],
    # a JSON string, a list of 5,000 entries and a string index, each where a symbol belongs
    ["unrsk", "--mode", "lps", f'{{"p": {{"columns": [["{LONG}"]]}}, "q": {{"columns": [[1]]}}}}'],
    ["unrsk", "--mode", "lps", f'{{"p": {{"columns": [[[{", ".join(LONG)}]]]}}, "q": {{"columns": [[1]]}}}}'],
    ["unrsk", "--mode", "lps", f'{{"p": {{"columns": [[[1, "{LONG}"]]]}}, "q": {{"columns": [[1]]}}}}'],
    # well-formed values that the refusal shows: a 3,000-part shape, a 4,001-column array, a 3,000-column
    # pair whose second tableau has another shape, and a 4,000-digit plain symbol after a standardized one
    ["hook", "--n", "5", "--shape", ",".join(["1"] * 3000)],
    ["rsk", "--mode", "lps", "--array", " ".join(["2"] * 2000 + ["1", "/"] + ["1"] * 2001)],
    ["unrsk", "--mode", "lps", json.dumps({"p": {"columns": [[1]] * 3000},
                                           "q": {"columns": [[1, 2]] + [[k] for k in range(3, 3001)]}})],
    ["insert", "--mode", "lps", "1_1 " + "1" * 4000],
    # a file path of about 4 KB, near the OS limit
    ["insert", "--mode", "lps", "--file", "/nonexistent" + ("/" + "a" * 200) * 20],
])
def test_long_bad_values_are_quoted_by_their_start(capsys, argv):
    # one error line, whatever the length of the value it refuses
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "") and err.startswith("error: ") and err.count("\n") == 1, err[:200]
    assert len(err.encode()) < 200, err[:200]


def _usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    assert (exc.value.code, captured.out) == (2, "")
    return captured.err


# a value with quotes, escapes and non-ASCII characters in its first 20, then 5,000 more
ODD = "a'b\"c\n\t\u0662\xe9\x00" + "x" * 5000


@pytest.mark.parametrize("argv, line", [
    (["count", "--mode", ODD, "2,1,2"], f"count: error: argument --mode: invalid choice: {_quote(ODD)} ("),
    (["bell", "5", "--method", LONG], f"bell: error: argument --method: invalid choice: {_quote(LONG)} ("),
    (["rsk", "--mode", "lps", "--format", LONG], f"rsk: error: argument --format: invalid choice: {_quote(LONG)} ("),
    (["unrsk", "--mode", "lps", "--level", LONG], f"unrsk: error: argument --level: invalid choice: {_quote(LONG)} ("),
    (["count", "--mode", "lps", "2,1,2", LONG, "x"], f"pstab: error: unrecognized arguments: {'1' * 40}...\n"),
    (["count", "--mode", "lps", "2,1,2", *["x"] * 3000], f"pstab: error: unrecognized arguments: {'x ' * 20}...\n"),
    (["insert", "--mode", "lps", f"--f={ODD}", "1"],
     f"insert: error: ambiguous option: {f'--f={ODD}'[:40]}... could match --file, --format\n"),
    ([f"--help={LONG}"], f"pstab: error: argument -h/--help: ignored explicit argument {_quote(LONG)}\n"),
    (["count", f"-h={ODD}"], f"count: error: argument -h/--help: ignored explicit argument {_quote(ODD)}\n"),
], ids=["mode", "method", "format", "level", "unrecognized", "many-unrecognized", "ambiguous", "help", "short-help"])
def test_argparse_errors_cut_the_values_they_quote(capsys, argv, line):
    err = _usage_error(capsys, argv)
    assert err.startswith("usage: pstab ") and line in err and "Traceback" not in err
    assert all(len(text.encode()) < 200 for text in err.splitlines()), err[:400]


@pytest.mark.parametrize("argv", [
    ["count", "--mode", "ups", "2,1,2"],
    ["bell", "5", "--method", "oracles"],
    ["insert", "--mode", "lps", "--format", "yaml", "1"],
    ["unrsk", "--mode", "lps", "--level", "\u0662\n'", "{}"],
    ["count", "--mode", "lps", "2,1,2", "--zz", "a b", "x" * 20],
    ["nosuch"],
    ["count", "2,1,2"],
    ["insert", "--mode", "lps", "--f=abc", "1"],
    ["count", "-h=x"],
    ["--help=\u0662\n'"],
])
def test_short_argparse_errors_keep_their_bytes(capsys, monkeypatch, argv):
    err = _usage_error(capsys, argv)
    monkeypatch.setattr(cli._Parser, "error", argparse.ArgumentParser.error)
    assert err == _usage_error(capsys, argv)


def test_an_unrecognized_argument_reads_as_argparse_writes_it(capsys):
    assert _usage_error(capsys, ["count", "--mode", "lps", "2,1,2", "--zz"]) == (
        "usage: pstab [-h] {insert,rsk,unrsk,count,bell,hook,verify} ...\n"
        "pstab: error: unrecognized arguments: --zz\n"
    )


def test_missing_file_exits_2(capsys):
    code, _, err = run(capsys, "insert", "--mode", "lps", "--file", "/nonexistent/word.txt")
    assert code == 2


def test_hook_rejects_an_empty_alphabet(capsys):
    code, _, err = run(capsys, "hook", "--n", "0", "--shape", "")
    assert code == 2 and err.startswith("error:")


def test_file_that_is_not_utf8_exits_2(capsys, tmp_path):
    path = tmp_path / "latin1.txt"
    path.write_bytes(b"\xff 1 2\n")
    code, _, err = run(capsys, "insert", "--mode", "lps", "--file", str(path))
    assert code == 2 and err.startswith(f"error: {_quote(str(path))} is not UTF-8 text: ")


def test_deeply_nested_json_exits_2(capsys, tmp_path):
    # nesting far past the recursion limit, inline and from a file
    deep = "[" * 10**5 + "]" * 10**5
    path = tmp_path / "deep.json"
    path.write_text(deep)
    for source in ((deep,), ("--file", str(path))):
        code, out, err = run(capsys, "unrsk", "--mode", "lps", *source)
        assert (code, out) == (2, "") and err.startswith("error:")


def test_json_integer_past_the_digit_limit_exits_2(capsys, tmp_path):
    # json.loads reads integers with int(), which refuses more than 4300 digits by default
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this Python's int() has no digit limit")
    pair = f'{{"p": {{"columns": [[{LONG}]]}}, "q": {{"columns": [[1]]}}}}'
    path = tmp_path / "pair.json"
    path.write_text(pair, encoding="utf-8")
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        for source in ((pair,), ("--file", str(path))):
            code, out, err = run(capsys, "unrsk", "--mode", "lps", *source)
            assert (code, out) == (2, "")
            assert err == "error: pair holds an integer with more digits than int() reads\n"
    finally:
        sys.set_int_max_str_digits(limit)


def test_module_entry_point():
    import os
    import subprocess
    import sys

    import pstab

    # the child finds the package where this process found it, installed or not
    src = os.path.dirname(os.path.dirname(pstab.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-m", "pstab", "count", "--mode", "lps", "2,1,2"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "15"


def test_verify_small_passes(capsys):
    code, out, _ = run(
        capsys, "verify", "--max-n", "2",
        "--word-len", "2", "--array-len", "2", "--eval-sum", "3",
    )
    assert code == 0
    assert "summary:" in out
    assert "[FAIL]" not in out


def test_verify_report_matches_golden(capsys):
    r"""The report, with its elapsed time masked, equals tests/data/verify_small.txt.

    Regenerate the file with:

        PYTHONPATH=src python -m pstab verify --max-n 2 --word-len 2 --array-len 2 --eval-sum 3 \
            | sed -E '$ s/ in [0-9]+\.[0-9]{2} s$/ in <elapsed> s/' > tests/data/verify_small.txt
    """
    code, out, _ = run(
        capsys, "verify", "--max-n", "2",
        "--word-len", "2", "--array-len", "2", "--eval-sum", "3",
    )
    assert code == 0
    golden = (Path(__file__).parent / "data" / "verify_small.txt").read_text(encoding="utf-8")
    assert re.sub(r" in \d+\.\d\d s$", " in <elapsed> s", out) == golden.rstrip("\n")


def test_verify_fails_empty_sweeps(capsys):
    # a zero budget would leave sweeps with nothing to check, so it is refused like every other count
    for flag in ("--word-len", "--array-len", "--eval-sum"):
        code, out, err = run(capsys, *_verify(flag, "0"))
        assert (code, out) == (2, "")
        assert err == f"error: budget {flag[2:].replace('-', '_')} must be at least 1\n"


def test_verify_json_output(capsys):
    code, out, _ = run(
        capsys, "verify", "--max-n", "1", "--json",
        "--word-len", "1", "--array-len", "1", "--eval-sum", "2",
    )
    assert code == 0
    blob = json.loads(out)
    assert blob["passed"] is True
    assert blob["cases"]
