"""Seeded request lists for each workload, and the checker of their outputs.

A workload is one *pass*: a fixed sequence of request classes that the run
repeats, in whole passes, until its time is up.  The classes never depend on
the seed, so every seed spends its time on the same mix; the seed only picks
the contents (words, pairs, evaluations) inside each class, from pools of
equal cost.

Why each workload exists:

* ``bijection`` loads words, tableaux, insertion and correspondence with big
  inputs: 10^4 symbol words in both modes over 2, 50 and about n letters
  (few tall columns or many short ones), 10^5 symbol words in the tallest
  and the widest of these cases, 10^4-column arrays, and
  1500-2000 box pairs to invert, three members to every non-member.  The
  O(n^2) membership scan dominates it, and it exits early on non-members, so
  a membership change shows on members and non-members separately.  Counting
  and the oracle stay idle.
* ``counting`` runs exponential bracket sums and Bell sums (large requests)
  next to tiny ones where interpreter start-up dominates, so a polynomial
  counting algorithm and a start-up cut each show on their own half.
  Insertion and correspondence stay idle.
* ``verify`` repeats ``verify --max-n 6 --jobs 2``: about 10^5 tiny
  insertions and several 10^5 tableau constructions under the oracle sweeps,
  the opposite of ``bijection``; ``--jobs`` lets a parallel verify show.

Known defects stay in the lists on purpose (``known_defect`` below): the
mixed-symbol insert that ends in a traceback, and the ``bell 40`` and
``count 60^5`` requests that never finish and hit their short timeout.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import re
from dataclasses import dataclass, field

import reference as ref

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN_PATH = os.path.join(HERE, "golden.json")

NORMAL_TIMEOUT_S = 60.0
OVERSIZE_TIMEOUT_S = 1.0

# ---------------------------------------------------------------------------
# pools of counting inputs; the golden table holds a value for every entry


def _pool(name, size, make):
    rng = random.Random(name)
    out = []
    while len(out) < size:
        ev = make(rng)
        if ev not in out:
            out.append(ev)
    return out


def _lps(tail):
    """lps evaluations with a fixed tail multiset: the bracket sum has
    prod(m_a + 1) terms whatever the order and the first entry."""
    def make(rng):
        t = list(tail)
        rng.shuffle(t)
        return (rng.randint(1, 9), *t)
    return make


def _rps(length, hi):
    """rps evaluations of one length: 2^(length - 1) terms whatever the entries."""
    return lambda rng: tuple(rng.randint(1, hi) for _ in range(length))


# class name -> (mode, pool); term counts from 243 to 2.3 * 10^5
COUNT_POOLS = {
    "lps-3x4x5": ("lps", _pool("lps-3x4x5", 8, _lps((2, 3, 4, 2, 3, 4, 3, 3, 3)))),
    "lps-3e5": ("lps", _pool("lps-3e5", 8, _lps((2,) * 5))),
    "rps-2e9": ("rps", _pool("rps-2e9", 8, _rps(10, 4))),
    "rps-2e15": ("rps", _pool("rps-2e15", 8, _rps(16, 3))),
}


def _small_evaluations():
    out = []

    def rec(prefix, remaining):
        if prefix:
            out.append(prefix)
        if len(prefix) == 4:
            return
        for x in range(1, remaining + 1):
            rec(prefix + (x,), remaining - x)

    rec((), 6)
    return out


SMALL_EVALUATIONS = _small_evaluations()


def _compositions(n):
    if n == 0:
        return [()]
    return [(first,) + rest for first in range(n, 0, -1) for rest in _compositions(n - first)]


SMALL_SHAPES = [(n, lam) for n in range(3, 8) for lam in _compositions(n)]
BELL_SUM_NS = range(14, 21)
BELL_ORACLE_NS = range(6, 11)
OVERSIZE_BELL = 40
OVERSIZE_EVALUATION = (60, 60, 60, 60, 60)


def golden_entries():
    """Every (kind, key) the workloads can ask for, in a stable order."""
    counts = [(mode, ev) for mode, pool in COUNT_POOLS.values() for ev in pool]
    counts += [(mode, ev) for ev in SMALL_EVALUATIONS for mode in ("lps", "rps")]
    counts.append(("lps", OVERSIZE_EVALUATION))
    bells = sorted(set(BELL_SUM_NS) | set(BELL_ORACLE_NS) | {OVERSIZE_BELL})
    return counts, bells, SMALL_SHAPES


def count_key(mode, ev):
    return f"{mode}:{','.join(map(str, ev))}"


def hook_key(n, lam):
    return f"{n}:{','.join(map(str, lam))}"


def load_golden():
    with open(GOLDEN_PATH, encoding="utf-8") as handle:
        golden = json.load(handle)
    counts, bells, shapes = golden_entries()
    missing = [count_key(m, ev) for m, ev in counts if count_key(m, ev) not in golden["count"]]
    missing += [str(n) for n in bells if str(n) not in golden["bell"]]
    missing += [hook_key(n, lam) for n, lam in shapes if hook_key(n, lam) not in golden["hook"]]
    if missing:
        raise RuntimeError(f"golden.json lacks {len(missing)} entries; rerun make_golden.py")
    return golden


# ---------------------------------------------------------------------------
# requests


@dataclass
class Request:
    """One CLI invocation and what its output must be."""

    cls: str  # request class: same cost for every seed
    argv: list
    expect: tuple  # checker spec, see check()
    known_defect: bool = False
    timeout: float = NORMAL_TIMEOUT_S
    trace_argv: list | None = None  # in-process replay variant, if different


@dataclass
class Workload:
    name: str
    requests: list = field(default_factory=list)
    tail_pct: float = 0.0  # percentile reported as req_tail_ms


def _write(workdir, name, text):
    path = os.path.join(workdir, name)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)
    return path


def _words_text(word):
    return " ".join(map(str, word))


def _pair_json(p, q):
    return json.dumps({"p": {"columns": p}, "q": {"columns": q}})


def _random_array(rng, n, alphabet, mode):
    top = sorted(rng.randint(1, alphabet) for _ in range(n))
    bottom = [rng.randint(1, alphabet) for _ in range(n)]
    pairs = sorted(zip(top, bottom), key=lambda t: (t[0], t[1] if mode == "lps" else -t[1]))
    return [u for u, _ in pairs], [v for _, v in pairs]


def _member(rng, n, mode, level):
    if level == "word":
        return ref.insert_word([rng.randint(1, n) for _ in range(n)], mode)
    return ref.insert_array(*_random_array(rng, n, 40, mode), mode)


def _fits(col, r, value, strict):
    """Would ``value`` keep column ``col`` ordered at row ``r`` (r >= 1)?"""
    above = col[r + 1] if r + 1 < len(col) else None
    if strict:
        return col[r - 1] < value and (above is None or value < above)
    return col[r - 1] <= value and (above is None or value <= above)


def _non_member(rng, n, mode, level, tries=500):
    """Perturb a member until the extract-and-reinsert round trip fails.

    Two boxes above the bottom row of q swap labels, both taken from the
    first tenth of q's reading (columns left to right, each bottom to top),
    which the membership scan examines first: so the scan finds the defect
    early for every seed, and a non-member costs about the same whatever the
    seed.  The swap keeps q's columns ordered (and at word level swaps k with
    k+1, so q stays a recording tableau), so the pair is well-formed input
    and the only right answer is the stable-set rejection.
    """
    p, q = _member(rng, n, mode, level)
    strict = level == "word" or mode == "lps"
    early = [(j, r) for j, col in enumerate(q) for r in range(len(col))][: n // 10]
    early = [(j, r) for j, r in early if r >= 1]
    for _ in range(tries):
        j1, r1 = rng.choice(early)
        a = q[j1][r1]
        partners = [
            (j2, r2) for j2, r2 in early
            if j2 != j1
            and (q[j2][r2] in (a - 1, a + 1) if level == "word" else q[j2][r2] != a)
            and _fits(q[j1], r1, q[j2][r2], strict) and _fits(q[j2], r2, a, strict)
        ]
        if not partners:
            continue
        j2, r2 = rng.choice(partners)
        q2 = [list(col) for col in q]
        q2[j1][r1], q2[j2][r2] = q2[j2][r2], a
        if not ref.is_member(p, q2, mode, level):
            return p, q2
    raise RuntimeError(f"no non-member found for {mode}/{level} at n={n}")


def _interleave(light, heavy):
    """Merge two lists evenly, so that each class's requests spread over the
    pass and a slow spell of the host does not land on one class alone."""
    out, i, j = [], 0, 0
    while i < len(light) or j < len(heavy):
        if j >= len(heavy) or (i < len(light) and i * len(heavy) <= j * len(light)):
            out.append(light[i])
            i += 1
        else:
            out.append(heavy[j])
            j += 1
    return out


_INSERT_COMBOS = [(mode, k) for k in ("2", "50", "n") for mode in ("lps", "rps")]
# 10^5-symbol words: lps over 2 letters (few tall columns) and rps over about
# n letters (many short ones); the other four combinations run at 10^4 only,
# which keeps a pass short enough for several passes a run.
_BIG_INSERTS = [("lps", "2"), ("rps", "n")]
_UNRSK = [  # (level, mode, boxes, member); three members to every non-member
    ("word", "lps", 1500, True),
    ("array", "rps", 1500, True),
    ("word", "rps", 1750, True),
    ("array", "lps", 2000, False),
]


def _bijection_slots():
    # Light requests outnumber heavy ones, so the median sits inside the light
    # cluster instead of on the step between the two.
    big = [("insert", 100_000, mode, k) for mode, k in _BIG_INSERTS]
    unrsk = [("unrsk", *spec) for spec in _UNRSK]
    # The wide 10^5 insert comes three times: it is the request at the tail
    # percentile, so it needs the samples.
    heavy = [big[1], unrsk[0], big[0], unrsk[1], big[1], unrsk[2], unrsk[3], big[1]]
    # Each light request comes twice a pass: it is short enough to fall
    # wholly inside a slow spell of one vCPU, so its median needs more
    # samples than a heavy one's.
    small = [("insert", 10_000, mode, k) for mode, k in _INSERT_COMBOS] * 2
    rsk_and_malformed = [x for i in range(2) for x in (("rsk", "lps" if i % 2 else "rps"), ("malformed", i))] * 2
    return _interleave(_interleave(small, rsk_and_malformed), heavy)


_MALFORMED = [
    lambda rng: ["insert", "--mode", rng.choice(["lps", "rps"]), f"{rng.randint(2, 9)} 0 {rng.randint(1, 9)}"],
    lambda rng: ["count", "--mode", rng.choice(["lps", "rps"]), f"{rng.randint(1, 5)},x,{rng.randint(1, 5)}"],
    lambda rng: ["hook", "--n", "4", "--shape", f"{rng.randint(2, 3)},{rng.randint(3, 4)}"],
    lambda rng: ["rsk", "--mode", "lps", "--array", f"{rng.randint(3, 9)} 1 / 1 2"],
    lambda rng: ["unrsk", "--mode", rng.choice(["lps", "rps"]), '{"p": [' + str(rng.randint(1, 9))],
    lambda rng: ["bell", str(-rng.randint(0, 5))],
]


def bijection(seed, workdir):
    rng = random.Random(f"bijection:{seed}")
    malformed = rng.sample(_MALFORMED, 1)
    reqs, made = [], {}
    for idx, slot in enumerate(_bijection_slots()):
        if slot in made:  # a repeated slot is the same request
            reqs.append(made[slot])
            continue
        kind = slot[0]
        if kind == "insert":
            _, n, mode, k = slot
            alphabet = n if k == "n" else int(k)
            word = rng.choices(range(1, alphabet + 1), k=n)
            path = _write(workdir, f"word{idx}.txt", _words_text(word))
            reqs.append(Request(
                f"insert-{n}-{mode}-{k}",
                ["insert", "--file", path, "--mode", mode, "--format", "json"],
                ("insert", word, mode),
            ))
        elif kind == "rsk":
            mode = slot[1]
            top, bottom = _random_array(rng, 10_000, 100, mode)
            path = _write(workdir, f"array{idx}.txt", f"{_words_text(top)} / {_words_text(bottom)}")
            reqs.append(Request(
                f"rsk-{mode}",
                ["rsk", "--file", path, "--mode", mode, "--format", "json"],
                ("rsk", top, bottom, mode),
            ))
        elif kind == "unrsk":
            _, level, mode, n, member = slot
            p, q = _member(rng, n, mode, level) if member else _non_member(rng, n, mode, level)
            path = _write(workdir, f"pair{idx}.json", _pair_json(p, q))
            reqs.append(Request(
                f"unrsk-{level}-{mode}-{n}-{'member' if member else 'reject'}",
                ["unrsk", "--file", path, "--mode", mode, "--level", level, "--format", "json"],
                ("unrsk", p, q, mode, level, member),
            ))
        elif slot[1] == 0:
            reqs.append(Request(
                "malformed-mixed-symbols",
                ["insert", "--mode", rng.choice(["lps", "rps"]), "1_1 2"],
                ("exit2",),
                known_defect=True,
            ))
        else:
            reqs.append(Request("malformed", malformed[slot[1] - 1](rng), ("exit2",)))
        made[slot] = reqs[-1]
    return Workload("bijection", reqs, tail_pct=80.0)


def _counting_slots():
    # A repeated class is the same request each time (see counting()), so
    # the short requests and the one at the tail percentile get more samples.
    # The three cheapest classes fill more than half the pass, so that the
    # median falls inside them rather than on a step to the next ones.
    light = [
        "hook", "count-small", "count:lps-3e5", "oracle", "hook", "count-small", "count:lps-3e5",
        "hook", "count-small", "count:lps-3e5", "count:rps-2e9", "hook", "count-small",
        "count:lps-3e5", "hook", "count-small", "count:lps-3e5",
    ]
    # Expensive and moderate requests alternate; n = 14..20 is covered by
    # the two methods together rather than by each.
    heavy = [
        "bell:rowsum:20", "bell:hook:17", "count:rps-2e15", "oversize-count", "bell:hook:17", "bell:hook:14",
        "count:lps-3x4x5", "bell:rowsum:16", "oversize-bell", "bell:hook:17",
    ]
    return _interleave(light, heavy)


def _value(cls, argv, expected, oversize=False):
    """A request whose stdout must be ``expected``; an oversize one may also
    be refused with exit 2, and gets a short timeout."""
    timeout = OVERSIZE_TIMEOUT_S if oversize else NORMAL_TIMEOUT_S
    return Request(cls, argv, ("value", expected, oversize), known_defect=oversize, timeout=timeout)


def counting(seed, workdir):
    rng = random.Random(f"counting:{seed}")
    golden = load_golden()
    reqs, made = [], {}
    for slot in _counting_slots():
        if slot in made:
            reqs.append(made[slot])
            continue
        if slot.startswith("count"):
            if slot == "count-small":
                ev, mode = rng.choice(SMALL_EVALUATIONS), rng.choice(["lps", "rps"])
            else:
                mode, pool = COUNT_POOLS[slot[6:]]
                ev = rng.choice(pool)
            argv = ["count", "--mode", mode, ",".join(map(str, ev))]
            reqs.append(_value(slot, argv, golden["count"][count_key(mode, ev)]))
        elif slot == "hook":
            n, lam = rng.choice(SMALL_SHAPES)
            argv = ["hook", "--n", str(n), "--shape", ",".join(map(str, lam))]
            reqs.append(_value(slot, argv, golden["hook"][hook_key(n, lam)]))
        elif slot == "oracle":
            n = str(rng.choice(BELL_ORACLE_NS))
            reqs.append(_value(slot, ["bell", n, "--method", "oracle"], golden["bell"][n]))
        elif slot.startswith("bell:"):
            _, method, n = slot.split(":")
            reqs.append(_value(slot, ["bell", n, "--method", method], golden["bell"][n]))
        elif slot == "oversize-bell":
            n = str(OVERSIZE_BELL)
            reqs.append(_value(slot, ["bell", n], golden["bell"][n], oversize=True))
        else:
            ev = ",".join(map(str, OVERSIZE_EVALUATION))
            expected = golden["count"][count_key("lps", OVERSIZE_EVALUATION)]
            reqs.append(_value(slot, ["count", "--mode", "lps", ev], expected, oversize=True))
        made[slot] = reqs[-1]
    return Workload("counting", reqs, tail_pct=80.0)


def verify(seed, workdir):
    # The request is the same for every seed; the seed has nothing to pick.
    argv = ["verify", "--max-n", "6", "--jobs", "2"]
    req = Request("verify", argv, ("verify",), trace_argv=argv[:-1] + ["1"])
    # About 5-7 samples a run, so no percentile leaves 10 beyond it; p75 is
    # steadier than the maximum (see README).
    return Workload("verify", [req], tail_pct=75.0)


WORKLOADS = {"bijection": bijection, "counting": counting, "verify": verify}


# ---------------------------------------------------------------------------
# checker


OK, WRONG, ERROR = "ok", "wrong", "error"
_SUMMARY = re.compile(r"^summary: (\d+)/(\d+) cases passed", re.MULTILINE)


def _pair_from_output(stdout):
    blob = json.loads(stdout)
    return blob["p"]["columns"], blob["q"]["columns"]


def _check_insert(stdout, word, mode):
    p, q = _pair_from_output(stdout)
    if ref.shape(p) != ref.shape(q) or not ref.is_kind(p, mode) or not ref.is_recording(q):
        return "pair fails the kind or shape check"
    if ref.read_by_recording(p, q) != list(word):
        return "read_by_recording does not give the word back"
    return None


def _check_rsk(stdout, top, bottom, mode):
    if list(_pair_from_output(stdout)) != list(ref.insert_array(top, bottom, mode)):
        return "pair differs from the reference array insertion"
    return None


def _check_unrsk(stdout, p, q, mode, level):
    blob = json.loads(stdout)
    if level == "word":
        again = ref.insert_word(blob["word"], mode)
    else:
        again = ref.insert_array(blob["top"], blob["bottom"], mode)
    if again != (p, q):
        return "output does not re-insert to the given pair"
    return None


def _check_verify(stdout):
    match = _SUMMARY.search(stdout)
    if not match:
        return "no summary line"
    good, total = int(match.group(1)), int(match.group(2))
    if total == 0 or good != total or "[FAIL]" in stdout:
        return f"{good}/{total} cases passed"
    return None


def check(req, code, stdout, stderr, timed_out):
    """Return (verdict, reason).

    ``wrong`` is a definite answer that contradicts the expected one: a wrong
    value, exit 0 where the input must be refused, exit 3 on a member, or a
    failed verification (exit 1).  ``error`` is a traceback, any other
    unexpected exit code, or a timeout.  Both count as failed requests.
    """
    if timed_out:
        return ERROR, f"timed out after {req.timeout:g} s"
    if "Traceback (most recent call last)" in stderr:
        return ERROR, f"traceback, exit {code}"
    kind = req.expect[0]
    refusal = 2 if kind == "exit2" else 3 if kind == "unrsk" and not req.expect[5] else None
    if refusal is not None:
        if code == refusal:
            return OK, ""
        return (WRONG if code == 0 else ERROR), f"exit {code}, expected {refusal}"
    if kind == "value" and req.expect[2] and code == 2:
        return OK, "refused"
    if code != 0:
        definite = (kind, code) in (("verify", 1), ("unrsk", 3))
        return (WRONG if definite else ERROR), f"exit {code}, expected 0"
    try:
        if kind == "insert":
            reason = _check_insert(stdout, req.expect[1], req.expect[2])
        elif kind == "rsk":
            reason = _check_rsk(stdout, *req.expect[1:])
        elif kind == "unrsk":
            reason = _check_unrsk(stdout, *req.expect[1:5])
        elif kind == "value":
            reason = None if stdout.strip() == req.expect[1] else f"printed {stdout.strip()[:40]!r}"
        else:
            reason = _check_verify(stdout)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        reason = f"unreadable output: {type(exc).__name__}: {exc}"
    return (WRONG, reason) if reason else (OK, "")


class Checker:
    """Checks each distinct output once; outputs are byte-deterministic, so a
    repeat of the same bytes for the same request gets the same verdict."""

    def __init__(self):
        self._seen = {}

    def __call__(self, index, req, code, stdout, stderr, timed_out):
        digest = hashlib.sha1(stdout.encode()).digest()
        key = (index, code, digest, timed_out, "Traceback" in stderr)
        if key not in self._seen:
            self._seen[key] = check(req, code, stdout, stderr, timed_out)
        return self._seen[key]
