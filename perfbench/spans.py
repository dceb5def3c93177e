"""Traced in-process replay: per-layer metrics from spans.

The layers are the package's modules.  Each layer's public functions are
wrapped by rebinding their names in every ``pstab.*`` namespace that imports
them, so a span opens where one layer calls into another; calls inside a
layer are not spans (except those in INTRA) and their time stays with the
caller.  ``Tableau``
itself is not wrapped (it is constructed hundreds of thousands of times in a
verify run); its cost lands in the self time of whoever constructs it.

Spans live in flat arrays, each with its parent, and are written to a
gzipped TSV file when the run ends.  A layer's ``busy_s`` is the self time of
its spans: duration minus the part its child spans cover.

The replay runs the workload's pass through ``pstab.cli.main`` with output
captured, each request once untraced and once traced, until the run's time
is up.  Verify is replayed with ``--jobs 1``, since spans in worker
processes would be lost.  README.md maps each layer metric to the
end-to-end metric and workload it should move.
"""

from __future__ import annotations

import contextlib
import gzip
import importlib
import io
import math
import os
import signal
import statistics
import sys
import time
import traceback
from array import array

import workloads

LAYERS = ("cli", "words", "tableaux", "insertion", "correspondence", "counting", "oracle")

# Public functions wrapped at every binding outside their own module.
BOUNDARY = {
    "cli": ["main"],
    "words": ["parse_word", "format_word", "standardize", "destandardize", "evaluation", "is_standard"],
    "tableaux": ["classify", "standardize_tableau", "tableau_from_json", "tableau_to_json", "render_ascii"],
    "insertion": ["ps_insert", "extended_insert", "array_insert", "reverse_insertion", "read_by_recording"],
    "correspondence": ["is_stable_pair", "rsk", "rsk_inverse", "occurrences"],
    "counting": [
        "count_lps", "count_rps", "count_lps_rec", "count_rps_rec", "bell_rowsum", "bell_hook",
        "hook_count", "stirling2", "fiber_size", "ps_project", "parse_evaluation", "parse_shape",
    ],
    "oracle": [
        "verify_suite", "count_tableaux_bruteforce", "enumerate_pstab", "fiber_census",
        "fiber_bruteforce", "count_set_partitions", "mode_tableaux",
    ],
}
# Also wrapped inside their own module: the entry point, the membership test
# that rsk_inverse calls, and the oracle sweeps that the oracle's suites call.
INTRA = {
    "cli.main", "correspondence.is_stable_pair",
    "oracle.count_tableaux_bruteforce", "oracle.enumerate_pstab", "oracle.fiber_census",
}
INSERTERS = ("insertion.ps_insert", "insertion.extended_insert", "insertion.array_insert")
REQUEST = "request"


def _size_and_note(name, result):
    """Per-span counts: symbols handled, accept/reject, tall/wide, cases."""
    if name == "words.parse_word":
        return len(result), 0
    if name in ("insertion.ps_insert", "insertion.extended_insert"):
        p = result if name == "insertion.ps_insert" else result.p
        boxes = len(p)
        return boxes, int(len(p.columns) ** 2 < boxes)  # note 1: few tall columns
    if name == "insertion.array_insert":
        return len(result.p), 0
    if name == "correspondence.is_stable_pair":
        return 1, int(bool(result))
    if name == "oracle.verify_suite":
        return len(result.cases), len(result.failures())
    return 0, 0


MEASURED = {"words.parse_word", *INSERTERS, "correspondence.is_stable_pair", "oracle.verify_suite"}
# Functions whose span durations are reported as medians.
MEDIANS = [
    "words.parse_word", "insertion.extended_insert", "insertion.reverse_insertion",
    "correspondence.is_stable_pair", "counting.count_lps", "counting.count_rps",
    "counting.bell_rowsum", "counting.bell_hook",
]


class Tracer:
    """Span store plus the rebinding of layer functions."""

    def __init__(self):
        self.names = [REQUEST]
        self.fid = {REQUEST: 0}
        self.parent = array("i")
        self.func = array("H")
        self.start = array("d")
        self.end = array("d")
        self.extra = {}  # span -> (size, note), for the functions in MEASURED
        self.stack = [-1]  # open spans; -1 is the parent of a request span
        self.bindings = []  # (module, attribute, original, wrapper)
        modules = {name: importlib.import_module(f"pstab.{name}") for name in LAYERS}
        namespaces = [importlib.import_module("pstab"), *modules.values()]
        for layer, funcs in BOUNDARY.items():
            for func_name in funcs:
                original = getattr(modules[layer], func_name)
                name = f"{layer}.{func_name}"
                wrapper = self._wrap(name, original)
                for module in namespaces:
                    if module is modules[layer] and name not in INTRA:
                        continue
                    for attr, value in vars(module).items():
                        if value is original:
                            self.bindings.append((module, attr, original, wrapper))

    def _wrap(self, name, fn):
        fid = len(self.names)
        self.names.append(name)
        self.fid[name] = fid
        parent, func, start, end, extra, stack = (
            self.parent, self.func, self.start, self.end, self.extra, self.stack
        )
        clock = time.perf_counter
        measured = name in MEASURED

        def wrapper(*args, **kwargs):
            idx = len(start)
            parent.append(stack[-1])
            func.append(fid)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if measured:
                extra[idx] = _size_and_note(name, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        return wrapper

    def install(self):
        for module, attr, _, wrapper in self.bindings:
            setattr(module, attr, wrapper)

    def remove(self):
        for module, attr, original, _ in self.bindings:
            setattr(module, attr, original)

    @contextlib.contextmanager
    def request(self):
        idx = len(self.start)
        self.parent.append(self.stack[-1])
        self.func.append(0)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(time.perf_counter())
        try:
            yield idx
        finally:
            self.end[idx] = time.perf_counter()
            self.stack.pop()

    def write(self, path):
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as handle:
            handle.write("span\tparent\tname\tstart_s\tdur_s\tsize\tnote\n")
            t0 = self.start[0] if self.start else 0.0
            for i in range(len(self.start)):
                size, note = self.extra.get(i, (0, 0))
                handle.write(
                    f"{i}\t{self.parent[i]}\t{self.names[self.func[i]]}\t{self.start[i] - t0:.6f}"
                    f"\t{self.end[i] - self.start[i]:.6f}\t{size}\t{note}\n"
                )


class _Deadline(BaseException):
    """Raised by the per-request alarm; not an Exception, so no handler in
    the package (which catches OSError and Exception) can swallow it."""


def _alarm(signum, frame):
    raise _Deadline


def _call(main, argv, timeout):
    """Run one request in process; returns (code, stdout, stderr, timed_out)."""
    out, err = io.StringIO(), io.StringIO()
    code, timed_out = 0, False
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            try:
                signal.setitimer(signal.ITIMER_REAL, timeout)
                code = main(argv)
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
        except _Deadline:
            timed_out = True
        except Exception:  # the CLI's own crash, reported as its traceback would be
            traceback.print_exc(file=err)
            code = 1
    return code, out.getvalue(), err.getvalue(), timed_out


def _median(values):
    return statistics.median(values) if values else 0.0


def _import_package(root):
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    cli = importlib.import_module("pstab.cli")
    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        raise RuntimeError(f"imported pstab from {cli.__file__}, not from {src}")
    return cli


def traced_run(root, workload, seconds, child, spans_path):
    cli = _import_package(root)
    tracer = Tracer()
    reqs = workload.requests
    checker = workloads.Checker()
    previous = signal.signal(signal.SIGALRM, _alarm)
    untraced = [[] for _ in reqs]  # per request: in-process seconds
    traced = [[] for _ in reqs]
    by_order = {True: [0.0, 0.0], False: [0.0, 0.0]}  # untraced first? -> [untraced, traced] seconds
    pass_spans = []  # (first span, end span) of each traced pass
    attempted = failed = 0
    correct = True
    deadline = time.perf_counter() + seconds
    pass_s = 0.0
    try:
        while not pass_spans or time.perf_counter() + pass_s < deadline:
            pass_start = time.perf_counter()
            first = len(tracer.start)
            for index, req in enumerate(reqs):
                argv = req.trace_argv or req.argv
                # Each request runs untraced and traced back to back, so a
                # drift in machine speed hits both; the order alternates so
                # that neither side always gets the warmer caches.
                untraced_first = (index + len(pass_spans)) % 2 == 0
                for with_spans in (not untraced_first, untraced_first):
                    if with_spans:
                        tracer.install()
                    try:
                        with tracer.request() if with_spans else contextlib.nullcontext():
                            t0 = time.perf_counter()
                            code, out, err, timed_out = _call(cli.main, argv, req.timeout)
                            elapsed = time.perf_counter() - t0
                    finally:
                        if with_spans:
                            tracer.remove()
                    (traced if with_spans else untraced)[index].append(elapsed)
                    by_order[untraced_first][with_spans] += elapsed
                    verdict, _ = checker(index, req, code, out, err, timed_out)
                    attempted += 1
                    failed += verdict != workloads.OK
                    correct &= verdict != workloads.WRONG
            pass_spans.append((first, len(tracer.start)))
            pass_s = time.perf_counter() - pass_start
    finally:
        signal.signal(signal.SIGALRM, previous)

    startup = [child.run(["--help"], workloads.NORMAL_TIMEOUT_S)["latency_s"] for _ in range(5)]
    metrics = layer_metrics(tracer, pass_spans)
    untraced_pass = sum(_median(v) for v in untraced)
    traced_pass = sum(_median(v) for v in traced)
    metrics["cli.startup_ms"] = (statistics.median(startup) * 1000, "ms")
    metrics["cli.main_ms"] = (_median([t for v in untraced for t in v]) * 1000, "ms")
    # The second of two back-to-back runs of a request is faster (warm memory),
    # so take the geometric mean of the traced/untraced ratio over both orders.
    ratios = [t / u for u, t in by_order.values() if u > 0]
    metrics["trace.overhead_frac"] = (math.prod(ratios) ** (1 / len(ratios)) - 1, "frac")
    order = [m for m in METRIC_ORDER if m in metrics]
    tracer.write(spans_path)
    details = {
        "spans": len(tracer.start),
        "spans_file": os.path.relpath(spans_path, root),
        "traced_passes": len(pass_spans),
        "untraced_pass_s": untraced_pass,
        "traced_pass_s": traced_pass,
    }
    return {m: metrics[m] for m in order}, details, correct, failed, attempted


METRIC_ORDER = [
    "cli.startup_ms", "cli.main_ms",
    "words.parse_word_ms", "words.symbols_per_s",
    "tableaux.busy_s", "tableaux.calls",
    "insertion.busy_s", "insertion.calls", "insertion.extended_insert_ms.tall",
    "insertion.extended_insert_ms.wide", "insertion.reverse_insertion_ms", "insertion.symbols_per_s",
    "correspondence.is_stable_pair.accept_ms", "correspondence.is_stable_pair.reject_ms",
    "correspondence.accept_frac", "correspondence.busy_s",
    "counting.busy_s", "counting.count_lps_ms", "counting.count_rps_ms",
    "counting.bell_rowsum_ms", "counting.bell_hook_ms",
    "oracle.busy_s", "oracle.count_tableaux_bruteforce_s", "oracle.enumerate_pstab_s",
    "oracle.fiber_census_s", "oracle.cases", "oracle.cases_failed",
    "trace.overhead_frac", "trace.coverage_frac",
]


def layer_metrics(tracer, pass_spans):
    """Per-layer metrics; totals are per traced pass (median over passes),
    durations are medians over spans."""
    names, parent, func = tracer.names, tracer.parent, tracer.func
    start, end, extra = tracer.start, tracer.end, tracer.extra
    layer_of = [name.split(".")[0] for name in names]
    n = len(start)
    dur = [end[i] - start[i] for i in range(n)]
    child = [0.0] * n
    for i in range(n):
        if parent[i] >= 0:
            child[parent[i]] += dur[i]
    main_fid = tracer.fid["cli.main"]
    median_of = {tracer.fid[name] for name in MEDIANS}

    per_pass = []  # per traced pass: {key: total}
    durations = {name: [] for name in MEDIANS}  # name -> [(dur, note)]
    coverage = []
    for first, last in pass_spans:
        k = len(names)
        busy, calls, total_s, size_sum, note_sum = [0.0] * k, [0] * k, [0.0] * k, [0] * k, [0] * k
        below_main = {}  # cli.main span -> time covered by spans of the layers below
        for i in range(first, last):
            f = func[i]
            busy[f] += dur[i] - child[i]
            calls[f] += 1
            total_s[f] += dur[i]
            if i in extra:
                size, note = extra[i]
                size_sum[f] += size
                note_sum[f] += note
            else:
                note = None  # raised, or not a measured function
            if f in median_of:
                durations[names[f]].append((dur[i], note))
            if f == main_fid:
                below_main[i] = 0.0
            elif parent[i] in below_main and layer_of[f] not in ("cli", REQUEST):
                below_main[parent[i]] += dur[i]
        for main_span, below in below_main.items():
            request_span = parent[main_span]
            if request_span >= 0 and dur[request_span] > 0:
                coverage.append(below / dur[request_span])
        totals = {}
        for f, name in enumerate(names):
            layer = layer_of[f]
            totals[f"{layer}.busy_s"] = totals.get(f"{layer}.busy_s", 0.0) + busy[f]
            totals[f"{layer}.calls"] = totals.get(f"{layer}.calls", 0) + calls[f]
            totals[f"{name}.total_s"] = total_s[f]
            totals[f"{name}.size"] = size_sum[f]
            totals[f"{name}.note"] = note_sum[f]
        per_pass.append(totals)

    def total(key):
        return _median([t.get(key, 0) for t in per_pass])

    def med_ms(name, want_note=None):
        values = [d for d, nt in durations[name] if want_note is None or nt == want_note]
        return _median(values) * 1000

    def rate(names_):
        symbols = sum(total(f"{nm}.size") for nm in names_)
        secs = sum(total(f"{nm}.total_s") for nm in names_)
        return symbols / secs if secs else 0.0

    stable_calls = total("correspondence.is_stable_pair.size")
    return {
        "words.parse_word_ms": (med_ms("words.parse_word"), "ms"),
        "words.symbols_per_s": (rate(["words.parse_word"]), "1/s"),
        "tableaux.busy_s": (total("tableaux.busy_s"), "s"),
        "tableaux.calls": (total("tableaux.calls"), "count"),
        "insertion.busy_s": (total("insertion.busy_s"), "s"),
        "insertion.calls": (total("insertion.calls"), "count"),
        "insertion.extended_insert_ms.tall": (med_ms("insertion.extended_insert", 1), "ms"),
        "insertion.extended_insert_ms.wide": (med_ms("insertion.extended_insert", 0), "ms"),
        "insertion.reverse_insertion_ms": (med_ms("insertion.reverse_insertion"), "ms"),
        "insertion.symbols_per_s": (rate(INSERTERS), "1/s"),
        "correspondence.is_stable_pair.accept_ms": (med_ms("correspondence.is_stable_pair", 1), "ms"),
        "correspondence.is_stable_pair.reject_ms": (med_ms("correspondence.is_stable_pair", 0), "ms"),
        "correspondence.accept_frac": (
            total("correspondence.is_stable_pair.note") / stable_calls if stable_calls else 0.0, "frac"
        ),
        "correspondence.busy_s": (total("correspondence.busy_s"), "s"),
        "counting.busy_s": (total("counting.busy_s"), "s"),
        "counting.count_lps_ms": (med_ms("counting.count_lps"), "ms"),
        "counting.count_rps_ms": (med_ms("counting.count_rps"), "ms"),
        "counting.bell_rowsum_ms": (med_ms("counting.bell_rowsum"), "ms"),
        "counting.bell_hook_ms": (med_ms("counting.bell_hook"), "ms"),
        "oracle.busy_s": (total("oracle.busy_s"), "s"),
        "oracle.count_tableaux_bruteforce_s": (total("oracle.count_tableaux_bruteforce.total_s"), "s"),
        "oracle.enumerate_pstab_s": (total("oracle.enumerate_pstab.total_s"), "s"),
        "oracle.fiber_census_s": (total("oracle.fiber_census.total_s"), "s"),
        "oracle.cases": (total("oracle.verify_suite.size"), "count"),
        "oracle.cases_failed": (total("oracle.verify_suite.note"), "count"),
        "trace.coverage_frac": (_median(coverage), "frac"),
    }
