import json
import re
import sys
from math import comb
from pathlib import Path

import pytest

from pstab import count_lps_rec, extended_insert, standardize, tableau_to_json
from pstab.cli import _render_pair, main

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
        assert _render_pair(pair, "json") == expected


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
    assert code == 2 and err.startswith("error:") and str(path) in err


def test_deeply_nested_json_exits_2(capsys, tmp_path):
    # nesting far past the recursion limit, inline and from a file
    deep = "[" * 10**5 + "]" * 10**5
    path = tmp_path / "deep.json"
    path.write_text(deep)
    for source in ((deep,), ("--file", str(path))):
        code, out, err = run(capsys, "unrsk", "--mode", "lps", *source)
        assert (code, out) == (2, "") and err.startswith("error:")


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
    code, out, _ = run(
        capsys, "verify", "--max-n", "1",
        "--word-len", "0", "--array-len", "0", "--eval-sum", "0",
    )
    assert code == 1
    failed = [line for line in out.splitlines() if line.startswith("[FAIL]")]
    assert failed and all(line.endswith("oracle=empty sweep") for line in failed)
    assert any("formula vs brute force" in line for line in failed)


def test_verify_json_output(capsys):
    code, out, _ = run(
        capsys, "verify", "--max-n", "1", "--json",
        "--word-len", "1", "--array-len", "1", "--eval-sum", "2",
    )
    assert code == 0
    blob = json.loads(out)
    assert blob["passed"] is True
    assert blob["cases"]
