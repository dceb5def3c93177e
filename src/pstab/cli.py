"""Command-line interface.

Subcommands: insert, rsk, unrsk, count, bell, hook, verify.  Exit codes:
0 success, 1 verification failure, 2 usage or parse error, 3 stable-set
rejection.  Output is deterministic: identical invocations produce identical
bytes, except for verify's elapsed time (the ``in X.XX s`` summary suffix and
the JSON ``elapsed_seconds``).
"""

from __future__ import annotations

import argparse
import io
import re
import sys
from typing import TYPE_CHECKING, Iterable, Iterator, NoReturn, Sequence

from .errors import InvalidInputError, NotInStablePairsError, PSTabError
from .words import StandardizedSymbol, _parse_int, _quote, format_word, parse_word

if TYPE_CHECKING:
    from .insertion import TableauPair

# Each command imports the layers it runs when it runs, so a request loads
# only those (README.md lists them): count, bell and hook skip compiling
# tableaux, insertion and correspondence, milliseconds of each request when
# there is no bytecode cache.  The oracle loads only for verify, and json only
# for unrsk and verify --json.  perfbench's tracer rebinds a layer function
# only where a module binds it at import, so it does not time the calls these
# commands make.


def _pair_from_json(obj: dict) -> TableauPair:
    from .insertion import TableauPair
    from .tableaux import tableau_from_json

    if not isinstance(obj, dict) or "p" not in obj or "q" not in obj:
        raise InvalidInputError("expected a JSON object with 'p' and 'q' keys")
    return TableauPair(tableau_from_json(obj["p"]), tableau_from_json(obj["q"]))


def _pair_json(pair: TableauPair) -> Iterator[str]:
    """``json.dumps({"p": tableau_to_json(p), "q": tableau_to_json(q)}, indent=2)``, built by column
    and given out in blocks of about a buffer's size: writing it never holds the whole text, and an
    unbuffered stdout (``PYTHONUNBUFFERED``) makes a system call per block, not per column."""
    block, size = [], 0
    for head, t in (('{\n  "p"', pair.p), (',\n  "q"', pair.q)):
        block.append(head + ': {\n    "columns": [')
        for n, col in enumerate(t.columns):
            if isinstance(col[0], StandardizedSymbol):
                col = (f"[\n          {base},\n          {index}\n        ]" for base, index in col)
            block.append(("," if n else "") + "\n      [\n        " + ",\n        ".join(map(str, col)) + "\n      ]")
            size += len(block[-1])
            if size >= io.DEFAULT_BUFFER_SIZE:
                yield "".join(block)
                block, size = [], 0
        block.append("\n    ]\n  }" if t.columns else "]\n  }")
    yield "".join(block) + "\n}"


def _render_pair(pair: TableauPair, fmt: str) -> Iterable[str]:
    from .tableaux import render_ascii, render_latex

    if fmt == "json":
        return _pair_json(pair)
    if fmt == "latex":
        return render_latex(pair.p), "\n\\quad\n", render_latex(pair.q)
    # P and Q share a shape, so their blocks have the same height
    p_lines, q_lines = (f"{name}:\n{render_ascii(t)}".split("\n") for name, t in zip("PQ", pair))
    width = max(map(len, p_lines))
    return ("\n".join((a.ljust(width) + "   " + b).rstrip() for a, b in zip(p_lines, q_lines)),)


def _print_pair(pair: TableauPair, fmt: str) -> None:
    sys.stdout.writelines(_render_pair(pair, fmt))
    sys.stdout.write("\n")


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
    try:
        handle = open(args.file, encoding="utf-8")
    except OSError as exc:  # its text holds the whole path, which may run to kilobytes
        raise InvalidInputError(f"cannot open {_quote(args.file)}: {exc.strerror}") from exc
    with handle:
        try:
            return handle.read().strip()
        except UnicodeDecodeError as exc:
            raise InvalidInputError(f"{_quote(args.file)} is not UTF-8 text: {exc}") from exc


def _cmd_insert(args: argparse.Namespace) -> int:
    from .insertion import extended_insert

    word = parse_word(_read_source(args, {"an inline word": args.word}))
    _print_pair(extended_insert(word, args.mode), args.format)
    return 0


def _cmd_rsk(args: argparse.Namespace) -> int:
    from .correspondence import rsk
    from .insertion import TwoRowedArray

    text = _read_source(args, {"--word": args.word, "--array": args.array})
    is_array = args.array is not None or (args.word is None and "/" in text)
    value = TwoRowedArray.parse(text) if is_array else parse_word(text)
    _print_pair(rsk(value, args.mode), args.format)
    return 0


def _cmd_unrsk(args: argparse.Namespace) -> int:
    import json

    from .correspondence import rsk_inverse
    from .insertion import TwoRowedArray
    from .tableaux import classify

    text = _read_source(args, {"an inline pair": args.pair})
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InvalidInputError(f"pair must be JSON: {exc}") from exc
    except ValueError:  # int() refuses a JSON integer past its digit limit
        raise InvalidInputError("pair holds an integer with more digits than int() reads") from None
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
    from .counting import count_lps, count_rps, parse_evaluation

    ev = parse_evaluation(args.evaluation)
    _print_count({"lps": count_lps, "rps": count_rps}[args.mode](ev))
    return 0


def _cmd_bell(args: argparse.Namespace) -> int:
    from .counting import bell_hook, bell_rowsum, count_set_partitions

    methods = {"rowsum": bell_rowsum, "hook": bell_hook, "oracle": count_set_partitions}
    _print_count(methods[args.method](_parse_int(args.n, "n")))
    return 0


def _cmd_hook(args: argparse.Namespace) -> int:
    from .counting import hook_count, parse_shape

    _print_count(hook_count(_parse_int(args.n, "n"), parse_shape(args.shape)))
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    from .oracle import Budgets, verify_suite

    flags = {"word_len": args.word_len, "array_len": args.array_len, "eval_sum": args.eval_sum}
    sizes = {name: _parse_int(text, f"budget {name}") for name, text in flags.items() if text is not None}
    report = verify_suite(_parse_int(args.max_n, "max_n"), Budgets(**sizes), _parse_int(args.jobs, "jobs"))
    print(report.to_json() if args.json else report.to_text())
    return 0 if report.passed else 1


class _Parser(argparse.ArgumentParser):
    """argparse's parser, subparsers included, with each value that an error
    line quotes whole (a bad choice, the unrecognized arguments) cut by the
    rule of :func:`pstab.words._quote`; a short message keeps its bytes."""

    def error(self, message: str) -> NoReturn:
        if message.startswith("unrecognized arguments: "):
            head, args = message.split(": ", 1)
            message = f"{head}: {_quote(args.split(' '), ' '.join)}"
        elif match := re.fullmatch(r"(argument [^:]*: invalid choice: )(.*)( \(choose from .*)", message):
            head, text, tail = match.groups()
            # text is repr(value): unicode_escape undoes its escapes, and latin-1 passes the other characters
            value = text[1:-1].encode("latin-1", "backslashreplace").decode("unicode_escape")
            message = head + _quote(value) + tail
        super().error(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
    p_bell.add_argument("n")
    p_bell.add_argument("--method", choices=["rowsum", "hook", "oracle"], default="rowsum")
    p_bell.set_defaults(func=_cmd_bell)

    p_hook = sub.add_parser("hook", help="standard tableaux of one composition shape")
    p_hook.add_argument("--n", required=True, help="alphabet size")
    p_hook.add_argument("--shape", required=True, help="composition like '3,1'")
    p_hook.set_defaults(func=_cmd_hook)

    p_verify = sub.add_parser("verify", help="run the verification suite")
    p_verify.add_argument("--max-n", default="4", dest="max_n")
    p_verify.add_argument("--json", action="store_true", help="machine-readable report")
    p_verify.add_argument("--jobs", default="1", help="worker processes sharing the cases")
    p_verify.add_argument("--word-len", dest="word_len")
    p_verify.add_argument("--array-len", dest="array_len")
    p_verify.add_argument("--eval-sum", dest="eval_sum")
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
    except (PSTabError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
