"""Brute-force ground truth at desk scale.

Exhaustive enumeration of words, fillings, tableaux, arrays, and tableau
pairs, used to validate every counting formula and bijection in the package.
Budgets are explicit and conservative; raise them from the CLI when you want
a bigger sweep.  All enumeration orders are deterministic (lexicographic), so
a failing case is reproducible by its report line.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from itertools import combinations, permutations, product
from math import factorial
from multiprocessing import Pool
from typing import Iterable, Iterator, Sequence

from .correspondence import is_stable_pair, occurrences, rsk, rsk_inverse
from .counting import (
    _check_shape,
    _normalize_evaluation,
    bell_hook,
    bell_rowsum,
    compositions,
    count_rps,
    fiber_size,
    hook_count,
    ps_project,
    stirling2,
)
from .errors import BudgetExceededError, InvalidInputError
from .insertion import (
    MODE_SPECS,
    Mode,
    TableauPair,
    TwoRowedArray,
    array_insert,
    extended_insert,
    mode_spec,
    ps_insert,
    read_by_recording,
    reverse_insertion,
)
from .tableaux import (
    Shape,
    Tableau,
    classify,
    destandardize_tableau,
    reverse_columns,
    standardize_tableau,
)
from .words import Word, check_word, destandardize, evaluation, format_word, standardize

# ---------------------------------------------------------------------------
# enumerators


def words_with_evaluation(ev: Sequence[int]) -> Iterator[Word]:
    """All distinct words with the given evaluation, in lexicographic order.

    Yields (sum ev)! / prod(ev_a!) words; entry ``a`` of ``ev`` is the
    multiplicity of symbol ``a + 1``.
    """
    _normalize_evaluation(ev)
    counts = list(ev)
    total = sum(counts)
    word: list[int] = []

    def rec() -> Iterator[Word]:
        if len(word) == total:
            yield tuple(word)
            return
        for a in range(len(counts)):
            if counts[a]:
                counts[a] -= 1
                word.append(a + 1)
                yield from rec()
                word.pop()
                counts[a] += 1

    yield from rec()


def words_over(alphabet_size: int, length: int) -> Iterator[Word]:
    """All words of the given length over 1..alphabet_size, lexicographically."""
    return product(range(1, alphabet_size + 1), repeat=length)


def words_up_to(alphabet_size: int, max_length: int) -> Iterator[Word]:
    """All words of length 0..max_length over 1..alphabet_size."""
    for length in range(max_length + 1):
        yield from words_over(alphabet_size, length)


def arrays_over(alphabet_size: int, length: int, mode: Mode) -> Iterator[TwoRowedArray]:
    """All valid l-arrays (lps) or r-arrays (rps) of the given length."""
    for top in words_over(alphabet_size, length):
        if any(a > b for a, b in zip(top, top[1:])):
            continue
        for bottom in words_over(alphabet_size, length):
            arr = TwoRowedArray(top=top, bottom=bottom)
            if arr.is_valid(mode):
                yield arr


def arrays_up_to(alphabet_size: int, max_length: int, mode: Mode) -> Iterator[TwoRowedArray]:
    for length in range(max_length + 1):
        yield from arrays_over(alphabet_size, length, mode)


def mode_tableaux(alphabet_size: int, boxes: int, mode: Mode) -> list[Tableau]:
    """All lPS (rPS) tableaux with the given box count and entries <= alphabet_size.

    Object-level enumeration: every filling of every composition shape is
    classified, independently of the insertion algorithm.
    """
    flag = mode_spec(mode).flag
    found = []
    if boxes == 0:
        return [Tableau()]
    for lam in compositions(boxes):
        for filling in product(range(1, alphabet_size + 1), repeat=boxes):
            t = _split_filling(filling, lam)
            if getattr(classify(t), flag):
                found.append(t)
    return found


def _split_filling(filling: Sequence, lam: Shape) -> Tableau:
    cols = []
    pos = 0
    for part in lam:
        cols.append(filling[pos : pos + part])
        pos += part
    return Tableau._trusted(cols)


def fillings(alphabet: Sequence[int], shape: Shape) -> Iterator[Tableau]:
    """All distinct-symbol fillings of ``shape`` with content ``alphabet``."""
    alphabet = check_word(alphabet)
    _check_shape(len(alphabet), shape)
    for perm in permutations(alphabet):
        yield _split_filling(perm, shape)


def _pstab_direct(symbols: tuple[int, ...], lam: Shape) -> Iterator[tuple[tuple[int, ...], ...]]:
    # Standard tableaux of shape lam over `symbols` are the ordered set
    # partitions into blocks of sizes lam with strictly increasing minima;
    # each block, sorted ascending, is a column bottom-to-top.
    if not lam:
        if not symbols:
            yield ()
        return
    for extra in combinations(symbols[1:], lam[0] - 1):
        block = (symbols[0],) + extra
        taken = set(extra)
        remaining = tuple(s for s in symbols[1:] if s not in taken)
        for rest in _pstab_direct(remaining, lam[1:]):
            yield (block,) + rest


def enumerate_pstab(
    alphabet: Sequence[int], shape: Shape | None = None, method: str = "direct"
) -> list[Tableau]:
    """All standard tableaux with content ``alphabet`` and the given shape.

    ``shape=None`` enumerates every composition shape, in the order of
    :func:`pstab.counting.compositions`.  Methods:

    * ``direct``: recursive construction respecting the column and bottom-row
      orders (fast, no filtering);
    * ``filter``: classify every distinct-symbol filling;
    * ``project``: collect the image of :func:`pstab.counting.ps_project`
      over every filling.

    The three methods must agree; the verification suite cross-checks them.
    """
    symbols = check_word(alphabet)
    if list(symbols) != sorted(set(symbols)):
        raise InvalidInputError("alphabet must be strictly increasing")
    if shape is None:
        shapes: Iterable[Shape] = compositions(len(symbols)) if symbols else ((),)
    else:
        shapes = (_check_shape(len(symbols), shape),)
    out: list[Tableau] = []
    for lam in shapes:
        if method == "direct":
            batch = [Tableau._trusted(cols) for cols in _pstab_direct(symbols, lam)]
        elif method == "filter":
            batch = [t for t in fillings(symbols, lam) if classify(t).is_standard_ps]
        elif method == "project":
            batch = list({ps_project(t) for t in fillings(symbols, lam)})
        else:
            raise InvalidInputError(f"unknown method {method!r}")
        out.extend(sorted(batch, key=lambda t: t.columns))
    return out


def fiber_census(alphabet: Sequence[int], shape: Shape) -> dict[Tableau, int]:
    """How many fillings of ``shape`` project onto each standard tableau."""
    census: dict[Tableau, int] = {}
    for t in fillings(alphabet, shape):
        image = ps_project(t)
        census[image] = census.get(image, 0) + 1
    return census


def fiber_bruteforce(
    alphabet: Sequence[int], shape: Shape, target: Tableau, max_alphabet: int = 9
) -> int:
    """Count the fillings of ``shape`` that project onto ``target`` by full sweep."""
    symbols = tuple(alphabet)
    if len(symbols) > max_alphabet:
        raise BudgetExceededError(
            f"alphabet of {len(symbols)} symbols exceeds the budget of {max_alphabet}"
        )
    return fiber_census(symbols, tuple(shape)).get(target, 0)


def count_tableaux_bruteforce(ev: Sequence[int], mode: Mode, max_total: int = 10) -> int:
    """Number of distinct tableaux obtained by inserting every word with
    evaluation ``ev``."""
    total = sum(ev)
    if total > max_total:
        raise BudgetExceededError(f"evaluation sum {total} exceeds the budget of {max_total}")
    return len({ps_insert(w, mode) for w in words_with_evaluation(ev)})


def count_set_partitions(n: int) -> int:
    """Number of partitions of an n-element set, by direct enumeration.

    Walks every restricted-growth assignment (element i joins one of the
    existing blocks or opens a new one), so each partition is visited once.
    """
    if n < 0:
        raise InvalidInputError("n must be nonnegative")

    def rec(i: int, blocks: int) -> int:
        if i == n:
            return 1
        total = 0
        for choice in range(blocks + 1):
            total += rec(i + 1, blocks + (1 if choice == blocks else 0))
        return total

    return rec(0, 0)


def _ps_insert_linear(word: Iterable, mode: Mode) -> Tableau:
    # Reference insertion with a linear scan for the bumped column, kept as an
    # independent check of the binary-search implementation.
    cols: list[list] = []
    for sym in word:
        heads = [c[0] for c in cols]
        if not cols or (heads[-1] <= sym if mode == "lps" else heads[-1] < sym):
            cols.append([sym])
        else:
            if mode == "lps":
                m = next(i for i, r in enumerate(heads) if sym < r)
            else:
                m = next(i for i, r in enumerate(heads) if sym <= r)
            cols[m].insert(0, sym)
    return Tableau(cols)


# ---------------------------------------------------------------------------
# verification report


@dataclass
class CaseResult:
    """One verified case: an input, the formula value, the oracle value."""

    suite: str
    name: str
    case_input: str
    formula: str
    oracle: str
    passed: bool

    def to_dict(self) -> dict:
        return {
            "suite": self.suite,
            "name": self.name,
            "input": self.case_input,
            "formula": self.formula,
            "oracle": self.oracle,
            "passed": self.passed,
        }


@dataclass
class VerificationReport:
    """Outcome of a verification run; passes iff every case passes."""

    max_n: int
    cases: list[CaseResult] = field(default_factory=list)
    elapsed_seconds: float = 0.0

    @property
    def passed(self) -> bool:
        return all(case.passed for case in self.cases)

    def failures(self) -> list[CaseResult]:
        return [case for case in self.cases if not case.passed]

    def to_dict(self) -> dict:
        return {
            "max_n": self.max_n,
            "elapsed_seconds": self.elapsed_seconds,
            "passed": self.passed,
            "cases": [case.to_dict() for case in self.cases],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    def to_text(self) -> str:
        lines = [f"verification report (max_n={self.max_n})"]
        for case in self.cases:
            mark = "PASS" if case.passed else "FAIL"
            lines.append(
                f"[{mark}] {case.suite} :: {case.name} :: {case.case_input}"
                f" :: formula={case.formula} oracle={case.oracle}"
            )
        good = sum(case.passed for case in self.cases)
        lines.append(
            f"summary: {good}/{len(self.cases)} cases passed in {self.elapsed_seconds:.2f} s"
        )
        return "\n".join(lines)


@dataclass(frozen=True)
class Budgets:
    """Sweep sizes for the verification suite; conservative by default."""

    word_alphabet: int = 3
    word_len: int = 4
    array_alphabet: int = 3
    array_len: int = 4
    eval_sum: int = 8
    eval_symbols: int = 4
    rec_eval_sum: int = 10
    rec_eval_symbols: int = 5
    reading_boxes: int = 4
    formula_n: int = 12

    def __post_init__(self) -> None:
        for name, value in vars(self).items():
            if value < 0:
                raise InvalidInputError(f"budget {name} must be nonnegative, got {value}")


def _case(suite: str, name: str, case_input: str, formula, oracle) -> CaseResult:
    return CaseResult(suite, name, case_input, str(formula), str(oracle), str(formula) == str(oracle))


def _violations(suite: str, name: str, case_input: str, bad: list[str]) -> CaseResult:
    summary = "0 violations" if not bad else f"{len(bad)} violations, first: {bad[0]}"
    return CaseResult(suite, name, case_input, "0 violations", summary, not bad)


def _positive_evaluations(max_sum: int, max_parts: int) -> list[tuple[int, ...]]:
    out: list[tuple[int, ...]] = []

    def rec(prefix: tuple[int, ...], remaining: int, parts_left: int) -> None:
        if prefix:
            out.append(prefix)
        if parts_left == 0:
            return
        for x in range(1, remaining + 1):
            rec(prefix + (x,), remaining - x, parts_left - 1)

    rec((), max_sum, max_parts)
    return sorted(set(out))


# ---------------------------------------------------------------------------
# suites


def _insertion_suite(budgets: Budgets) -> list[CaseResult]:
    suite = "insertion"
    cases = []
    sweep = f"words over A_{budgets.word_alphabet}, length <= {budgets.word_len}"
    for mode, spec in MODE_SPECS.items():
        basic: list[str] = []
        laws: list[str] = []
        roundtrip: list[str] = []
        for w in words_up_to(budgets.word_alphabet, budgets.word_len):
            p, q = extended_insert(w, mode)
            if not getattr(classify(p), spec.flag):
                basic.append(f"{format_word(w)}: output not {mode}")
            if w and p.evaluation(budgets.word_alphabet) != evaluation(w, budgets.word_alphabet):
                basic.append(f"{format_word(w)}: evaluation changed")
            if not classify(q).is_recording:
                basic.append(f"{format_word(w)}: recording tableau invalid")
            if p != ps_insert(w, mode):
                basic.append(f"{format_word(w)}: plain and extended insertion differ")
            if p != _ps_insert_linear(w, mode):
                basic.append(f"{format_word(w)}: binary search differs from linear scan")
            if reverse_columns(reverse_columns(p)) != p:
                basic.append(f"{format_word(w)}: column reversal not an involution")
            std_word = standardize(w, spec.direction)
            p_std, q_std = extended_insert(std_word, mode)
            if p_std.shape != p.shape or q_std != q:
                laws.append(f"{format_word(w)}: standardized word inserts differently")
            if w and p_std != standardize_tableau(p, spec.direction):
                laws.append(f"{format_word(w)}: tableau standardization mismatch")
            if w and destandardize_tableau(p_std) != p:
                laws.append(f"{format_word(w)}: destandardization does not recover tableau")
            if read_by_recording((p, q)) != w:
                roundtrip.append(f"{format_word(w)}: reading back failed")
        cases.append(_violations(suite, f"{mode} insertion well-formed", sweep, basic))
        cases.append(_violations(suite, f"{mode} standardization laws", sweep, laws))
        cases.append(_violations(suite, f"{mode} word roundtrip", sweep, roundtrip))

    arr_sweep = f"arrays over A_{budgets.array_alphabet}, length <= {budgets.array_len}"
    for mode in MODE_SPECS:
        arr_bad: list[str] = []
        ident_bad: list[str] = []
        for arr in arrays_up_to(budgets.array_alphabet, budgets.array_len, mode):
            pair = array_insert(arr, mode)
            if reverse_insertion(pair, mode) != arr:
                arr_bad.append(f"({arr})")
        for w in words_up_to(budgets.array_alphabet, budgets.array_len):
            ident = TwoRowedArray(top=tuple(range(1, len(w) + 1)), bottom=w)
            if array_insert(ident, mode) != extended_insert(w, mode):
                ident_bad.append(format_word(w))
        cases.append(_violations(suite, f"{mode} array roundtrip", arr_sweep, arr_bad))
        cases.append(
            _violations(suite, f"{mode} identity-top array matches word insertion", arr_sweep, ident_bad)
        )

    for mode, spec in MODE_SPECS.items():
        reading_bad: list[str] = []
        seen: set[Tableau] = set()
        for w in words_up_to(2, budgets.reading_boxes):
            base = ps_insert(w, mode)
            if not w or base in seen:
                continue
            seen.add(base)
            std_tab = standardize_tableau(base, spec.direction)
            entries = sorted(sym for col in std_tab.columns for sym in col)
            for perm in permutations(entries):
                if ps_insert(perm, mode) == std_tab:
                    if standardize(destandardize(perm), spec.direction) != perm:
                        reading_bad.append(f"{format_word(perm)} inserts to Std({format_word(w)})")
        cases.append(
            _violations(
                suite,
                f"{mode} words inserting to a standardized tableau are standardizations",
                f"tableaux from words over A_2, <= {budgets.reading_boxes} boxes",
                reading_bad,
            )
        )
    return cases


def _standard_pairs_over(n: int) -> Iterator[TableauPair]:
    for lam in compositions(n):
        tabs = enumerate_pstab(tuple(range(1, n + 1)), lam, method="direct")
        for p in tabs:
            for q in tabs:
                yield TableauPair(p, q)


def _correspondence_suite(max_n: int, budgets: Budgets) -> list[CaseResult]:
    suite = "correspondence"
    cases = []
    for n in range(1, max_n + 1):
        image = {}
        for sigma in permutations(range(1, n + 1)):
            image[extended_insert(sigma, "lps")] = sigma
        members = [
            pair for pair in _standard_pairs_over(n) if is_stable_pair(pair, "lps", "standard")
        ]
        problems: list[str] = []
        if len(image) != factorial(n):
            problems.append(f"insertion not injective on {n}!")
        if set(members) != set(image):
            problems.append("stable pairs differ from the insertion image")
        observed = f"{len(members)} stable pairs" + ("" if not problems else "; " + problems[0])
        cases.append(
            _case(suite, "standard-level stable pairs count", f"n={n}", f"{factorial(n)} stable pairs", observed)
        )

    for mode in MODE_SPECS:
        rt_bad: list[str] = []
        for w in words_up_to(budgets.word_alphabet, budgets.word_len):
            pair = rsk(w, mode)
            if not is_stable_pair(pair, mode, "word"):
                rt_bad.append(f"{format_word(w)}: image not a stable pair")
            elif rsk_inverse(pair, mode, "word") != w:
                rt_bad.append(f"{format_word(w)}: inverse mismatch")
        cases.append(
            _violations(
                suite,
                f"{mode} word-level roundtrip",
                f"words over A_{budgets.word_alphabet}, length <= {budgets.word_len}",
                rt_bad,
            )
        )

        comp_bad: list[str] = []
        for boxes in range(1, budgets.word_len + 1):
            image_pairs = {
                rsk(w, mode) for w in words_over(budgets.word_alphabet, boxes)
            }
            candidates = []
            tabs = mode_tableaux(budgets.word_alphabet, boxes, mode)
            recording = {
                lam: enumerate_pstab(tuple(range(1, boxes + 1)), lam, method="direct")
                for lam in compositions(boxes)
            }
            for p in tabs:
                for q in recording[p.shape]:
                    pair = TableauPair(p, q)
                    if is_stable_pair(pair, mode, "word"):
                        candidates.append(pair)
            if set(candidates) != image_pairs or len(candidates) != len(image_pairs):
                comp_bad.append(f"{boxes} boxes: stable set differs from insertion image")
        cases.append(
            _violations(
                suite,
                f"{mode} word-level stable pairs are exactly the insertion image",
                f"over A_{budgets.word_alphabet}, <= {budgets.word_len} boxes",
                comp_bad,
            )
        )

    for mode in MODE_SPECS:
        fwd_bad: list[str] = []
        image_by_len: dict[int, set[TableauPair]] = {}
        for arr in arrays_up_to(budgets.array_alphabet, budgets.array_len, mode):
            pair = rsk(arr, mode)
            image_by_len.setdefault(len(arr), set()).add(pair)
            if not is_stable_pair(pair, mode, "array"):
                fwd_bad.append(f"({arr}): image not a stable pair")
            elif rsk_inverse(pair, mode, "array") != arr:
                fwd_bad.append(f"({arr}): inverse mismatch")
        cases.append(
            _violations(
                suite,
                f"{mode} array-level roundtrip",
                f"arrays over A_{budgets.array_alphabet}, length <= {budgets.array_len}",
                fwd_bad,
            )
        )

        back_bad: list[str] = []
        for boxes in range(1, budgets.array_len + 1):
            tabs = mode_tableaux(budgets.array_alphabet, boxes, mode)
            by_shape: dict[Shape, list[Tableau]] = {}
            for t in tabs:
                by_shape.setdefault(t.shape, []).append(t)
            members = set()
            for lam, group in by_shape.items():
                for p in group:
                    for q in group:
                        pair = TableauPair(p, q)
                        if is_stable_pair(pair, mode, "array"):
                            members.add(pair)
                            arr = rsk_inverse(pair, mode, "array")
                            if rsk(arr, mode) != pair:
                                back_bad.append(f"{boxes} boxes: pair does not round-trip")
            if members != image_by_len.get(boxes, set()):
                back_bad.append(f"{boxes} boxes: stable set differs from insertion image")
        cases.append(
            _violations(
                suite,
                f"{mode} array-level stable pairs are exactly the insertion image",
                f"over A_{budgets.array_alphabet}, <= {budgets.array_len} boxes",
                back_bad,
            )
        )

    for mode, spec in MODE_SPECS.items():
        law_bad: list[str] = []
        for arr in arrays_up_to(budgets.array_alphabet, budgets.array_len, mode):
            if not len(arr):
                continue
            p, q = array_insert(arr, mode)
            std_top = standardize(arr.top, "left")
            std_bottom = standardize(arr.bottom, spec.direction)
            q_std = standardize_tableau(q, spec.direction)
            p_std = standardize_tableau(p, spec.direction)
            if q_std != array_insert(TwoRowedArray(std_top, arr.bottom), mode).q:
                law_bad.append(f"({arr}): recording standardization (top only)")
            if q_std != array_insert(TwoRowedArray(std_top, std_bottom), mode).q:
                law_bad.append(f"({arr}): recording standardization (both rows)")
            if p_std != array_insert(TwoRowedArray(std_top, std_bottom), mode).p:
                law_bad.append(f"({arr}): insertion standardization (both rows)")
            if p_std != array_insert(TwoRowedArray(arr.top, std_bottom), mode).p:
                law_bad.append(f"({arr}): insertion standardization (bottom only)")
        cases.append(
            _violations(
                suite,
                f"{mode} array standardization laws",
                f"arrays over A_{budgets.array_alphabet}, length <= {budgets.array_len}",
                law_bad,
            )
        )

    relabel_bad: list[str] = []
    pattern_names = ("31-2", "13-2", "23-1", "32-1")
    for size in range(1, min(budgets.word_len, 4) + 1):
        for sigma in permutations(range(1, size + 1)):
            relabeled = tuple(3 * s + 1 for s in sigma)
            for name in pattern_names:
                if occurrences(sigma, name) != occurrences(relabeled, name):
                    relabel_bad.append(f"{format_word(sigma)} vs relabeling, pattern {name}")
    cases.append(
        _violations(
            suite,
            "pattern occurrences invariant under order-isomorphic relabeling",
            f"standard words of length <= {min(budgets.word_len, 4)}",
            relabel_bad,
        )
    )

    bad_pair = TableauPair(Tableau([[1, 2, 3], [1]]), Tableau([[1, 3, 4], [2]]))
    rejected = not is_stable_pair(bad_pair, "lps", "word") and not is_stable_pair(
        bad_pair, "lps", "array"
    )
    reading = read_by_recording(bad_pair)
    diverges = extended_insert(reading, "lps") != bad_pair
    cases.append(
        _case(
            suite,
            "non-member pair is rejected and its reading inserts elsewhere",
            "pair ([[1,2,3],[1]], [[1,3,4],[2]]), reading 3121",
            "rejected, diverges",
            f"{'rejected' if rejected else 'accepted'}, {'diverges' if diverges else 'reinserts'}",
        )
    )
    return cases


def _counting_suite(max_n: int, budgets: Budgets, jobs: int = 1) -> list[CaseResult]:
    suite = "counting"
    cases = []

    for ev in _positive_evaluations(budgets.eval_sum, budgets.eval_symbols):
        for mode, spec in MODE_SPECS.items():
            formula = spec.count(ev)
            recursive = spec.count_rec(ev)
            brute = count_tableaux_bruteforce(ev, mode, max_total=budgets.eval_sum)
            observed = str(brute) if formula == recursive else f"{brute} (recursion gave {recursive})"
            cases.append(
                _case(suite, f"{mode} tableau count, formula vs brute force", f"ev={ev}", formula, observed)
            )

    rec_bad: list[str] = []
    for ev in _positive_evaluations(budgets.rec_eval_sum, budgets.rec_eval_symbols):
        for mode, spec in MODE_SPECS.items():
            if spec.count(ev) != spec.count_rec(ev):
                rec_bad.append(f"{mode} ev={ev}")
    cases.append(
        _violations(
            suite,
            "closed form equals recursion",
            f"evaluations with sum <= {budgets.rec_eval_sum}, <= {budgets.rec_eval_symbols} symbols",
            rec_bad,
        )
    )

    zero_bad: list[str] = []
    for ev in _positive_evaluations(min(budgets.eval_sum, 6), 3):
        for pos in range(len(ev) + 1):
            padded = ev[:pos] + (0,) + ev[pos:]
            if any(spec.count(padded) != spec.count(ev) for spec in MODE_SPECS.values()):
                zero_bad.append(f"ev={ev} padded at {pos}")
    cases.append(_violations(suite, "counts ignore zero entries", "padded evaluations", zero_bad))

    invariance_bad: list[str] = []
    for ev in _positive_evaluations(min(budgets.eval_sum, 6), 3):
        reference = count_rps((1,) + ev)
        for first in range(2, 5):
            if count_rps((first,) + ev) != reference:
                invariance_bad.append(f"first={first}, tail={ev}")
    cases.append(
        _violations(suite, "rps count ignores the first entry", "tails with sum <= 6", invariance_bad)
    )

    for n in range(1, max_n + 1):
        ones = (1,) * n
        formula = bell_rowsum(n)
        pieces = {
            "hook": bell_hook(n),
            **{mode: spec.count(ones) for mode, spec in MODE_SPECS.items()},
            "partitions": count_set_partitions(n),
        }
        mismatches = [k for k, v in pieces.items() if v != formula]
        observed = str(pieces["partitions"]) if not mismatches else f"mismatch in {mismatches}"
        cases.append(_case(suite, "Bell number, all four routes", f"n={n}", formula, observed))

    for n in range(1, max(budgets.formula_n, max_n) + 1):
        fiber_bad = [
            f"shape={lam}"
            for lam in compositions(n)
            if fiber_size(n, lam) * hook_count(n, lam) != factorial(n)
        ]
        cases.append(
            _violations(suite, "fiber size times hook count equals n!", f"n={n}", fiber_bad)
        )

    for n in range(1, min(max(budgets.formula_n, max_n), 10) + 1):
        by_columns: dict[int, int] = {}
        for lam in compositions(n):
            by_columns[len(lam)] = by_columns.get(len(lam), 0) + hook_count(n, lam)
        stirling_bad = [
            f"k={k}" for k in range(1, n + 1) if by_columns.get(k, 0) != stirling2(n, k)
        ]
        cases.append(
            _violations(suite, "hook counts grouped by columns match Stirling numbers", f"n={n}", stirling_bad)
        )

    for n in range(1, max(budgets.formula_n, max_n) + 1):
        total = sum(hook_count(n, lam) ** 2 for lam in compositions(n))
        cases.append(
            _case(
                suite,
                "factorial bounded by sum of squared hook counts",
                f"n={n}",
                f"{factorial(n)} <= {total}",
                f"{factorial(n)} <= {total}" if factorial(n) <= total else f"{factorial(n)} > {total}",
            )
        )

    bound_bad: list[str] = []
    for ev in _positive_evaluations(min(budgets.eval_sum, 6), 3):
        tableaux_seen = {ps_insert(w, "lps") for w in words_with_evaluation(ev)}
        lo, hi = max(ev), sum(ev)
        for t in tableaux_seen:
            if not lo <= len(t.columns) <= hi:
                bound_bad.append(f"ev={ev}, shape={t.shape}")
        for t in {ps_insert(w, "rps") for w in words_with_evaluation(ev)}:
            if not 1 <= len(t.columns) <= len(ev):
                bound_bad.append(f"rps ev={ev}, shape={t.shape}")
    cases.append(
        _violations(suite, "bottom row length within its bounds", "evaluations with sum <= 6", bound_bad)
    )

    for n in range(1, max_n + 1):
        alphabet = tuple(range(1, n + 1))
        for lam in compositions(n):
            direct = enumerate_pstab(alphabet, lam, method="direct")
            cases.append(
                _case(
                    suite,
                    "standard tableaux per shape match hook count",
                    f"n={n}, shape={lam}",
                    hook_count(n, lam),
                    len(direct),
                )
            )
        if n <= 6:
            agree = True
            for lam in compositions(n):
                direct = enumerate_pstab(alphabet, lam, method="direct")
                if direct != enumerate_pstab(alphabet, lam, method="filter"):
                    agree = False
                if direct != enumerate_pstab(alphabet, lam, method="project"):
                    agree = False
            cases.append(
                _case(suite, "three tableau enumerators agree", f"n={n}", "agree", "agree" if agree else "disagree")
            )

    fiber_args = [(n, lam) for n in range(1, max_n + 1) for lam in compositions(n)]
    workers = min(jobs, os.cpu_count() or 1, len(fiber_args))
    if workers > 1:
        with Pool(workers) as pool:
            fiber_rows = pool.map(_fiber_uniformity_case, fiber_args)
    else:
        fiber_rows = [_fiber_uniformity_case(args) for args in fiber_args]
    for (n, lam), (expected, observed) in zip(fiber_args, fiber_rows):
        cases.append(
            _case(suite, "projection fibers uniform at the predicted size", f"n={n}, shape={lam}", expected, observed)
        )

    for n in range(1, max_n + 1):
        images = {}
        for mode in MODE_SPECS:
            images[mode] = {ps_insert(sigma, mode) for sigma in permutations(range(1, n + 1))}
        bell = bell_rowsum(n)
        ok = images["lps"] == images["rps"] and len(images["lps"]) == bell
        cases.append(
            _case(
                suite,
                "insertion image over standard words has Bell size, modes agree",
                f"n={n}",
                bell,
                len(images["lps"]) if ok else f"{len(images['lps'])} (modes agree: {images['lps'] == images['rps']})",
            )
        )

    for n in range(1, max_n + 1):
        census: dict[Tableau, int] = {}
        for sigma in permutations(range(1, n + 1)):
            t = ps_insert(sigma, "lps")
            census[t] = census.get(t, 0) + 1
        over = [
            f"shape={t.shape}" for t, k in census.items() if k > hook_count(n, t.shape)
        ]
        cases.append(
            _violations(suite, "preimage count per tableau bounded by hook count", f"n={n}", over)
        )

    witness_alphabet = (2, 4, 5, 6)
    witness = Tableau([[2, 5], [4, 6]])
    hits = sum(
        1 for sigma in permutations(witness_alphabet) if ps_insert(sigma, "lps") == witness
    )
    bound = hook_count(4, (2, 2))
    cases.append(
        _case(
            suite,
            "hook bound on preimages is strict somewhere",
            "alphabet {2,4,5,6}, tableau [[2,5],[4,6]]",
            f"strictly below {bound}",
            f"strictly below {bound}" if hits < bound else f"{hits} not below {bound}",
        )
    )

    project_bad: list[str] = []
    for n in range(1, min(max_n, 4) + 1):
        alphabet = tuple(range(1, n + 1))
        for lam in compositions(n):
            for t in fillings(alphabet, lam):
                image = ps_project(t)
                if ps_project(image) != image:
                    project_bad.append(f"n={n}, shape={lam}: not idempotent")
                if image.shape != t.shape or image.content() != t.content():
                    project_bad.append(f"n={n}, shape={lam}: shape or content changed")
                if classify(t).is_standard_ps and image != t:
                    project_bad.append(f"n={n}, shape={lam}: standard tableau moved")
    cases.append(
        _violations(suite, "projection idempotent, preserving, fixing standard tableaux", f"n <= {min(max_n, 4)}", project_bad)
    )
    return cases


def _fiber_uniformity_case(args: tuple[int, Shape]) -> tuple[str, str]:
    n, lam = args
    alphabet = tuple(range(1, n + 1))
    census = fiber_census(alphabet, lam)
    expected_size = fiber_size(n, lam)
    expected = f"{hook_count(n, lam)} fibers of size {expected_size}"
    targets = set(enumerate_pstab(alphabet, lam, method="direct"))
    if set(census) != targets:
        return expected, "projection image differs from the standard tableaux"
    sizes = set(census.values())
    if sizes != {expected_size}:
        return expected, f"fiber sizes {sorted(sizes)}"
    return expected, f"{len(census)} fibers of size {expected_size}"


def verify_suite(max_n: int = 4, budgets: Budgets | None = None, jobs: int = 1) -> VerificationReport:
    """Run every cross-check of the package at the given scale.

    ``max_n`` bounds the n-indexed case families (bijections, Bell numbers,
    tableau enumerations, fiber sweeps); ``budgets`` bounds the word, array,
    and evaluation sweeps.  ``jobs`` worker processes run the fiber sweeps,
    capped by the CPU count and the number of sweeps.  Failures become report
    entries, never exceptions.
    """
    if max_n < 1:
        raise InvalidInputError("max_n must be at least 1")
    if jobs < 1:
        raise InvalidInputError("jobs must be at least 1")
    budgets = budgets or Budgets()
    start = time.perf_counter()
    cases: list[CaseResult] = []
    builders = (
        ("insertion", lambda: _insertion_suite(budgets)),
        ("correspondence", lambda: _correspondence_suite(max_n, budgets)),
        ("counting", lambda: _counting_suite(max_n, budgets, jobs)),
    )
    for suite, build in builders:
        try:
            cases.extend(build())
        except Exception as exc:
            cases.append(
                CaseResult(
                    suite,
                    "suite aborted by an unexpected error",
                    "-",
                    "runs to completion",
                    f"{type(exc).__name__}: {exc}",
                    False,
                )
            )
    elapsed = time.perf_counter() - start
    return VerificationReport(max_n=max_n, cases=cases, elapsed_seconds=elapsed)
