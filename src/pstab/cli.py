"""Command-line interface.

Subcommands: insert, rsk, unrsk, count, bell, hook, verify.  Exit codes:
0 success, 1 verification failure, 2 usage or parse error, 3 stable-set
rejection.  Output is deterministic: identical invocations produce identical
bytes, except for verify's elapsed time (the ``in X.XX s`` summary suffix and
the JSON ``elapsed_seconds``).
"""

from __future__ import annotations

import argparse
import sys
from typing import Iterable, Sequence

from .correspondence import rsk, rsk_inverse
from .counting import bell_hook, bell_rowsum, hook_count, parse_evaluation, parse_shape
from .errors import InvalidInputError, NotInStablePairsError, PSTabError
from .insertion import TableauPair, TwoRowedArray, extended_insert, mode_spec
from .tableaux import (
    classify,
    render_ascii,
    render_latex,
    tableau_from_json,
)
from .words import StandardizedSymbol, Symbol, format_word, parse_word

# pstab.oracle is imported only inside the two commands that run it (verify,
# bell --method oracle), and json only inside unrsk, so that no other request
# loads them.  The layer imports above stay at module level: perfbench's
# tracer times the layers by rebinding the names they bind here.


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


def _json_list(items: Iterable[str], depth: int) -> str:
    """A JSON array of rendered items laid out as ``json.dumps(indent=2)``
    lays it out when it opens at nesting ``depth``."""
    inner = "\n" + "  " * (depth + 1)
    body = ("," + inner).join(items)
    return "[" + inner + body + "\n" + "  " * depth + "]" if body else "[]"


def _json_column(col: tuple[Symbol, ...], depth: int) -> str:
    # a tableau never mixes kinds; a standardized symbol is a [base, index] array
    if isinstance(col[0], StandardizedSymbol):
        return _json_list((_json_list(map(str, sym), depth + 1) for sym in col), depth)
    return _json_list(map(str, col), depth)


def _pair_json(pair: TableauPair) -> str:
    """``json.dumps({"p": tableau_to_json(p), "q": tableau_to_json(q)}, indent=2)``,
    written by joins over the columns instead of through the JSON encoder."""
    p, q = (_json_list((_json_column(col, 3) for col in t.columns), 2) for t in pair)
    return f'{{\n  "p": {{\n    "columns": {p}\n  }},\n  "q": {{\n    "columns": {q}\n  }}\n}}'


def _render_pair(pair: TableauPair, fmt: str) -> str:
    if fmt == "json":
        return _pair_json(pair)
    if fmt == "latex":
        return render_latex(pair.p) + "\n\\quad\n" + render_latex(pair.q)
    left = "P:\n" + render_ascii(pair.p)
    right = "Q:\n" + render_ascii(pair.q)
    return _side_by_side(left, right)


def _read_source(args: argparse.Namespace, inline: dict[str, str | None]) -> str:
    """The text of the one input a request gives.

    ``inline`` maps the names of the command's inline inputs to their values
    (None when not given); ``--file`` is the other source.
    """
    given = [name for name, text in inline.items() if text is not None]
    if args.file:
        given.append("--file")
    if len(given) > 1:
        raise InvalidInputError(f"give either {given[0]} or {given[1]}, not both")
    if not given:
        raise InvalidInputError("no input given (pass it as an argument or with --file)")
    if not args.file:
        return inline[given[0]]
    with open(args.file, encoding="utf-8") as handle:
        try:
            return handle.read().strip()
        except UnicodeDecodeError as exc:
            raise InvalidInputError(f"{args.file} is not UTF-8 text: {exc}") from exc


def _cmd_insert(args: argparse.Namespace) -> int:
    word = parse_word(_read_source(args, {"an inline word": args.word}))
    pair = extended_insert(word, args.mode)
    print(_render_pair(pair, args.format))
    return 0


def _cmd_rsk(args: argparse.Namespace) -> int:
    text = _read_source(args, {"--word": args.word, "--array": args.array})
    if args.array is not None:
        value = TwoRowedArray.parse(text)
    elif args.word is not None:
        value = parse_word(text)
    else:
        value = TwoRowedArray.parse(text) if "/" in text else parse_word(text)
    pair = rsk(value, args.mode)
    print(_render_pair(pair, args.format))
    return 0


def _cmd_unrsk(args: argparse.Namespace) -> int:
    import json

    text = _read_source(args, {"an inline pair": args.pair})
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InvalidInputError(f"pair must be JSON: {exc}") from exc
    except RecursionError as exc:
        raise InvalidInputError("pair JSON is nested too deeply to parse") from exc
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


def _print_count(value: int) -> None:
    """Print an exact count in full, however many digits it has.

    Python 3.11 (and 3.10.7 on) caps int-to-str conversion at 4300 digits by
    default, a guard against untrusted text that a computed count does not
    need.
    """
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        print(value)
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


def _cmd_count(args: argparse.Namespace) -> int:
    ev = parse_evaluation(args.evaluation)
    _print_count(mode_spec(args.mode).count(ev))
    return 0


def _cmd_bell(args: argparse.Namespace) -> int:
    if args.n < 1:
        raise InvalidInputError("n must be at least 1")
    if args.method == "rowsum":
        _print_count(bell_rowsum(args.n))
    elif args.method == "hook":
        _print_count(bell_hook(args.n))
    else:
        from .oracle import count_set_partitions

        _print_count(count_set_partitions(args.n))
    return 0


def _cmd_hook(args: argparse.Namespace) -> int:
    shape = parse_shape(args.shape)
    _print_count(hook_count(args.n, shape))
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    from .oracle import Budgets, verify_suite

    flags = {"word_len": args.word_len, "array_len": args.array_len, "eval_sum": args.eval_sum}
    budgets = Budgets(**{name: value for name, value in flags.items() if value is not None})
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
    p_verify.add_argument("--jobs", type=int, default=1, help="worker processes sharing the cases")
    p_verify.add_argument("--word-len", type=int, dest="word_len")
    p_verify.add_argument("--array-len", type=int, dest="array_len")
    p_verify.add_argument("--eval-sum", type=int, dest="eval_sum")
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
