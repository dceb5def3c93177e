"""Command-line interface.

Subcommands: insert, rsk, unrsk, count, bell, hook, verify.  Exit codes:
0 success, 1 verification failure, 2 usage or parse error, 3 stable-set
rejection.  Output is deterministic: identical invocations produce identical
bytes.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Sequence

from .correspondence import rsk, rsk_inverse
from .counting import bell_hook, bell_rowsum, hook_count, parse_evaluation, parse_shape
from .errors import InvalidInputError, NotInStablePairsError, PSTabError
from .insertion import TableauPair, TwoRowedArray, extended_insert, mode_spec
from .oracle import Budgets, count_set_partitions, verify_suite
from .tableaux import (
    classify,
    render_ascii,
    render_latex,
    tableau_from_json,
    tableau_to_json,
)
from .words import format_word, parse_word


def _pair_to_json(pair: TableauPair) -> dict:
    return {"p": tableau_to_json(pair.p), "q": tableau_to_json(pair.q)}


def _pair_from_json(obj: dict) -> TableauPair:
    if not isinstance(obj, dict) or "p" not in obj or "q" not in obj:
        raise InvalidInputError("expected a JSON object with 'p' and 'q' keys")
    return TableauPair(tableau_from_json(obj["p"]), tableau_from_json(obj["q"]))


def _side_by_side(left: str, right: str, gap: str = "   ") -> str:
    left_lines = left.splitlines()
    right_lines = right.splitlines()
    height = max(len(left_lines), len(right_lines))
    left_lines = [""] * (height - len(left_lines)) + left_lines
    right_lines = [""] * (height - len(right_lines)) + right_lines
    width = max((len(line) for line in left_lines), default=0)
    return "\n".join(
        (a.ljust(width) + gap + b).rstrip() for a, b in zip(left_lines, right_lines)
    )


def _render_pair(pair: TableauPair, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(_pair_to_json(pair), indent=2)
    if fmt == "latex":
        return render_latex(pair.p) + "\n\\quad\n" + render_latex(pair.q)
    left = "P:\n" + render_ascii(pair.p)
    right = "Q:\n" + render_ascii(pair.q)
    return _side_by_side(left, right)


def _read_source(args: argparse.Namespace, positional: str | None) -> str:
    if getattr(args, "file", None):
        with open(args.file, encoding="utf-8") as handle:
            return handle.read().strip()
    if positional is None:
        raise InvalidInputError("no input given (pass it as an argument or with --file)")
    return positional


def _cmd_insert(args: argparse.Namespace) -> int:
    word = parse_word(_read_source(args, args.word))
    pair = extended_insert(word, args.mode)
    print(_render_pair(pair, args.format))
    return 0


def _cmd_rsk(args: argparse.Namespace) -> int:
    if args.array is not None and args.word is not None:
        raise InvalidInputError("give either --word or --array, not both")
    if args.array is not None:
        value = TwoRowedArray.parse(args.array)
    elif args.word is not None:
        value = parse_word(args.word)
    else:
        text = _read_source(args, None)
        value = TwoRowedArray.parse(text) if "/" in text else parse_word(text)
    pair = rsk(value, args.mode)
    print(_render_pair(pair, args.format))
    return 0


def _cmd_unrsk(args: argparse.Namespace) -> int:
    text = _read_source(args, args.pair)
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InvalidInputError(f"pair must be JSON: {exc}") from exc
    pair = _pair_from_json(obj)
    level = args.level
    if level == "auto":
        level = "word" if classify(pair.q).is_recording else "array"
    value = rsk_inverse(pair, args.mode, level)
    if isinstance(value, TwoRowedArray):
        print(json.dumps(value.to_json()) if args.format == "json" else str(value))
    else:
        print(json.dumps({"word": list(value)}) if args.format == "json" else format_word(value))
    return 0


def _cmd_count(args: argparse.Namespace) -> int:
    ev = parse_evaluation(args.evaluation)
    print(mode_spec(args.mode).count(ev))
    return 0


def _cmd_bell(args: argparse.Namespace) -> int:
    if args.n < 1:
        raise InvalidInputError("n must be at least 1")
    if args.method == "rowsum":
        print(bell_rowsum(args.n))
    elif args.method == "hook":
        print(bell_hook(args.n))
    else:
        print(count_set_partitions(args.n))
    return 0


def _cmd_hook(args: argparse.Namespace) -> int:
    shape = parse_shape(args.shape)
    print(hook_count(args.n, shape))
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    budgets = Budgets(
        word_len=args.word_len,
        array_len=args.array_len,
        eval_sum=args.eval_sum,
    )
    report = verify_suite(max_n=args.max_n, budgets=budgets, jobs=args.jobs)
    print(report.to_json() if args.json else report.to_text())
    return 0 if report.passed else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pstab",
        description="Patience sorting tableaux: insertion, correspondences, counting, verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_mode(p: argparse.ArgumentParser) -> None:
        p.add_argument("--mode", choices=["lps", "rps"], required=True, help="tableau kind")

    def add_format(p: argparse.ArgumentParser) -> None:
        p.add_argument("--format", choices=["ascii", "json", "latex"], default="ascii")

    p_insert = sub.add_parser("insert", help="insert a word, printing the tableau pair")
    p_insert.add_argument("word", nargs="?", help="word like '4 6 2 3 2 1 4' or '4,6,2'")
    p_insert.add_argument("--file", help="read the word from a UTF-8 text file")
    add_mode(p_insert)
    add_format(p_insert)
    p_insert.set_defaults(func=_cmd_insert)

    p_rsk = sub.add_parser("rsk", help="insert a word or a two-rowed array")
    p_rsk.add_argument("--word", help="word input")
    p_rsk.add_argument("--array", help="array input like '1 1 2 / 3 4 2'")
    p_rsk.add_argument("--file", help="read the input from a UTF-8 text file")
    add_mode(p_rsk)
    add_format(p_rsk)
    p_rsk.set_defaults(func=_cmd_rsk)

    p_unrsk = sub.add_parser("unrsk", help="invert a stable tableau pair")
    p_unrsk.add_argument("pair", nargs="?", help='pair as JSON {"p": {...}, "q": {...}}')
    p_unrsk.add_argument("--file", help="read the pair JSON from a file")
    p_unrsk.add_argument(
        "--level",
        choices=["word", "array", "auto"],
        default="auto",
        help="inverse level; auto picks word when q is a recording tableau",
    )
    add_mode(p_unrsk)
    add_format(p_unrsk)
    p_unrsk.set_defaults(func=_cmd_unrsk)

    p_count = sub.add_parser("count", help="count tableaux with a given evaluation")
    p_count.add_argument("evaluation", help="evaluation like '2,1,2'")
    add_mode(p_count)
    p_count.set_defaults(func=_cmd_count)

    p_bell = sub.add_parser("bell", help="n-th Bell number")
    p_bell.add_argument("n", type=int)
    p_bell.add_argument("--method", choices=["rowsum", "hook", "oracle"], default="rowsum")
    p_bell.set_defaults(func=_cmd_bell)

    p_hook = sub.add_parser("hook", help="standard tableaux of one composition shape")
    p_hook.add_argument("--n", type=int, required=True, help="alphabet size")
    p_hook.add_argument("--shape", required=True, help="composition like '3,1'")
    p_hook.set_defaults(func=_cmd_hook)

    p_verify = sub.add_parser("verify", help="run the verification suite")
    p_verify.add_argument("--max-n", type=int, default=4, dest="max_n")
    p_verify.add_argument("--json", action="store_true", help="machine-readable report")
    p_verify.add_argument("--jobs", type=int, default=1, help="parallel workers for heavy sweeps")
    p_verify.add_argument("--word-len", type=int, default=Budgets.word_len, dest="word_len")
    p_verify.add_argument("--array-len", type=int, default=Budgets.array_len, dest="array_len")
    p_verify.add_argument("--eval-sum", type=int, default=Budgets.eval_sum, dest="eval_sum")
    p_verify.set_defaults(func=_cmd_verify)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except NotInStablePairsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (InvalidInputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except PSTabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
