import json

import pytest

from pstab.cli import main

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


def test_bell_rejects_nonpositive(capsys):
    code, _, err = run(capsys, "bell", "0")
    assert code == 2


def test_missing_file_exits_2(capsys):
    code, _, err = run(capsys, "insert", "--mode", "lps", "--file", "/nonexistent/word.txt")
    assert code == 2


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


def test_verify_json_output(capsys):
    code, out, _ = run(
        capsys, "verify", "--max-n", "1", "--json",
        "--word-len", "1", "--array-len", "1", "--eval-sum", "2",
    )
    assert code == 0
    blob = json.loads(out)
    assert blob["passed"] is True
    assert blob["cases"]
