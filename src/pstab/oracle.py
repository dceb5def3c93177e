"""Brute-force ground truth at desk scale.

Exhaustive enumeration of words, fillings, tableaux, arrays, and tableau
pairs, used to validate every counting formula and bijection in the package.
Three conservative budgets, each at least 1, size the sweeps: the word length,
the array length and the evaluation sum, which the CLI raises for a bigger
sweep; the case table fixes every other size.  Word and array sweeps start at
length 1, so no input is empty.  All enumeration orders are deterministic
(lexicographic), so a failing case is reproducible by its report line.
"""

from __future__ import annotations

import os
import time
from collections import Counter
from dataclasses import dataclass, field
from functools import cache, partial
from itertools import accumulate, chain, combinations, combinations_with_replacement, pairwise, permutations, product
from math import factorial
from operator import itemgetter
from typing import Callable, Iterable, Iterator, Sequence

from .correspondence import StablePairLevel, _checked_spec, is_stable_pair, occurrences, rsk, rsk_inverse
from .counting import (
    Count,
    _check_shape,
    _normalize_evaluation,
    bell_hook,
    bell_rowsum,
    bracket_lps,
    bracket_rps,
    compositions,
    count_lps,
    count_lps_rec,
    count_rps,
    count_rps_rec,
    count_set_partitions,
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
    column_reading,
    destandardize_tableau,
    reverse_columns,
    standardize_tableau,
)
from .words import Symbol, Word, _check_int, _quote, check_word, destandardize, evaluation, format_word, standardize

_IMAGE_BUDGET = 10  # the largest evaluation sum that insertion_image walks

# ---------------------------------------------------------------------------
# enumerators


def words_with_evaluation(ev: Sequence[int]) -> Iterator[Word]:
    """All distinct words with the given evaluation, in lexicographic order.

    Yields (sum ev)! / prod(ev_a!) words; entry ``a`` of ``ev`` is the
    multiplicity of symbol ``a + 1``.  Starts from the sorted word and steps
    to the next permutation of the multiset until the word is nonincreasing.
    """
    _normalize_evaluation(ev)
    word = [a + 1 for a, m in enumerate(ev) for _ in range(m)]
    last = len(word) - 1
    while True:
        yield tuple(word)
        i = last - 1
        while i >= 0 and word[i] >= word[i + 1]:
            i -= 1
        if i < 0:
            return
        j = last
        while word[j] <= word[i]:
            j -= 1
        word[i], word[j] = word[j], word[i]
        word[i + 1 :] = reversed(word[i + 1 :])


def words_over(alphabet_size: int, length: int) -> Iterator[Word]:
    """All words of the given length over 1..alphabet_size, lexicographically."""
    return product(range(1, alphabet_size + 1), repeat=length)


def words_up_to(alphabet_size: int, max_length: int) -> Iterator[Word]:
    """All words of length 1..max_length over 1..alphabet_size."""
    for length in range(1, max_length + 1):
        yield from words_over(alphabet_size, length)


def arrays_over(alphabet_size: int, length: int, mode: Mode) -> Iterator[TwoRowedArray]:
    """All valid l-arrays (lps) or r-arrays (rps) of the given length."""
    for top in combinations_with_replacement(range(1, alphabet_size + 1), length):
        for bottom in words_over(alphabet_size, length):
            arr = TwoRowedArray(top=top, bottom=bottom)
            if arr.is_valid(mode):
                yield arr


def arrays_up_to(alphabet_size: int, max_length: int, mode: Mode) -> Iterator[TwoRowedArray]:
    """All valid l-arrays (lps) or r-arrays (rps) of length 1..max_length."""
    for length in range(1, max_length + 1):
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
        cuts = _column_slices(lam)
        for filling in product(range(1, alphabet_size + 1), repeat=boxes):
            t = Tableau._from_tuples(tuple(map(filling.__getitem__, cuts)))
            if getattr(classify(t), flag):
                found.append(t)
    return found


def _column_slices(lam: Shape) -> list[slice]:
    """The slice of a flat filling that each column of ``lam`` takes, left to right."""
    return [slice(start, end) for start, end in pairwise(accumulate(lam, initial=0))]


def fillings(alphabet: Sequence[int], shape: Shape) -> Iterator[Tableau]:
    """All distinct-symbol fillings of ``shape`` with content ``alphabet``."""
    alphabet = check_word(alphabet)
    cuts = _column_slices(_check_shape(len(alphabet), shape))
    for perm in permutations(alphabet):
        yield Tableau._from_tuples(tuple(map(perm.__getitem__, cuts)))


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
    * ``filter``: classify every distinct-symbol filling.

    The two methods must agree; the verification suite cross-checks them with
    the keys of :func:`fiber_census`, the image of
    :func:`pstab.counting.ps_project` over every filling.
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
            batch = [Tableau._from_tuples(cols) for cols in _pstab_direct(symbols, lam)]
        elif method == "filter":
            batch = [t for t in fillings(symbols, lam) if classify(t).is_standard_ps]
        else:
            raise InvalidInputError(f"unknown method {_quote(method)}")
        out.extend(sorted(batch, key=lambda t: t.columns))
    return out


def fiber_census(alphabet: Sequence[int], shape: Shape) -> dict[Tableau, int]:
    """How many fillings of ``shape`` project onto each standard tableau."""
    return dict(Counter(map(ps_project, fillings(alphabet, shape))))


def fiber_bruteforce(alphabet: Sequence[int], shape: Shape, target: Tableau) -> int:
    """Count the fillings of ``shape`` that project onto ``target`` by full
    sweep, over at most 9 symbols (9! fillings)."""
    symbols = tuple(alphabet)
    if len(symbols) > 9:
        raise BudgetExceededError(f"alphabet of {len(symbols)} symbols exceeds the budget of 9")
    return fiber_census(symbols, tuple(shape)).get(target, 0)


def _image_walk(mode: Mode, bound: tuple[int, ...], total: int) -> Iterator[tuple[tuple[int, ...], set]]:
    """Each content c <= bound with sum 1..total, by sum, with the distinct columns that the words of evaluation c
    insert to: each tableau of content c - e_a takes the symbol a + 1, a step that reads only the columns and the
    symbol.  It holds the contents of sum k - 1 and those of sum k built so far, and keeps none of the last."""
    bisect, head = mode_spec(mode).bisect, itemgetter(0)
    layer = {(0,) * len(bound): {()}}  # columns bottom box first, as in a Tableau
    for k in range(1, total + 1):
        grown = {}
        for c in {p[:a] + (m + 1,) + p[a + 1 :] for p in layer for a, m in enumerate(p) if m < bound[a]}:
            tabs = set()
            for sym, m in enumerate(c, 1):
                for cols in layer[c[: sym - 1] + (m - 1,) + c[sym:]] if m else ():
                    i = bisect(cols, sym, key=head)  # sym goes to the bottom of the column it bumps, or a new one
                    tabs.add(cols[:i] + ((sym,) + cols[i] if i < len(cols) else (sym,),) + cols[i + 1 :])
            yield c, tabs
            if k < total:
                grown[c] = tabs
        layer = grown


def insertion_image(ev: Sequence[int], mode: Mode) -> set[Tableau]:
    """``{ps_insert(w, mode) for w in words_with_evaluation(ev)}``: the last
    content of the insertion walk bounded by ``ev``."""
    total = sum(_normalize_evaluation(ev))
    if total > _IMAGE_BUDGET:
        raise BudgetExceededError(f"evaluation sum {total} exceeds the budget of {_IMAGE_BUDGET}")
    for _, tabs in _image_walk(mode, tuple(ev), total):
        pass
    return {Tableau._from_tuples(cols) for cols in tabs}


def _image_sizes(mode: Mode, parts: int, max_sum: int) -> dict[tuple[int, ...], int]:
    """``len(insertion_image(c, mode))`` at every content c of ``parts`` entries with sum <= max_sum, in one walk."""
    return {c: len(tabs) for c, tabs in _image_walk(mode, (max_sum,) * parts, max_sum)}


def count_tableaux_bruteforce(ev: Sequence[int], mode: Mode) -> int:
    """The number of distinct tableaux that the words with evaluation ``ev`` insert to."""
    return len(insertion_image(ev, mode))


# ---------------------------------------------------------------------------
# the paper's literal counting sums, exponential in the evaluation; the
# dynamic programs in pstab.counting must agree with them


def bracket_sum_lps(m: Iterable[int]) -> Count:
    """lPS count as :func:`bracket_lps` summed over every bottom row
    0 <= j_a <= m_a: prod(m_a + 1) brackets."""
    ev = _normalize_evaluation(m)
    return sum(bracket_lps(ev, j) for j in product(*(range(x + 1) for x in ev[1:])))


def bracket_sum_rps(m: Iterable[int]) -> Count:
    """rPS count as :func:`bracket_rps` (lead 0) summed over every 0-1 bottom
    row: 2^(n-1) brackets."""
    ev = _normalize_evaluation(m)
    return sum(bracket_rps(ev[1:], 0, j) for j in product((0, 1), repeat=len(ev) - 1))


def _count_routes(mode: Mode) -> dict[str, Callable[[Iterable[int]], Count]]:
    """The reference routes to the count of ``mode``, which the dynamic program
    in pstab.counting must agree with: the paper's recursion and its literal
    sum, through this module's names when called."""
    recursion, bracket_sum = {
        "lps": (count_lps_rec, bracket_sum_lps),
        "rps": (count_rps_rec, bracket_sum_rps),
    }[mode]
    return {"recursion": recursion, "bracket sum": bracket_sum}


def _count(mode: Mode, ev: Iterable[int]) -> Count:
    """The package's count of ``mode``, through this module's names when called."""
    return {"lps": count_lps, "rps": count_rps}[mode](ev)


def bell_rowsum_terms(n: int) -> list[Count]:
    """Terms of the 0-1 bottom-row expansion of the n-th Bell number.

    The rPS bracket at the evaluation 1^n, lead 0, once per bottom row
    (p_2, ..., p_n) in {0,1}^(n-1), in lexicographic order: the product over
    a = 2..n-1 of (1 + p_2 + ... + p_a)^(1 - p_{a+1}).
    """
    tail = (1,) * (_check_int(n, "n") - 1)
    return [bracket_rps(tail, 0, row) for row in product((0, 1), repeat=n - 1)]


def bell_hook_sum(n: int) -> Count:
    """n-th Bell number as :func:`hook_count` summed over all 2^(n-1)
    compositions of ``n``."""
    return sum(hook_count(n, lam) for lam in compositions(n))


def _ps_insert_linear(word: Iterable, mode: Mode) -> Tableau:
    # Reference insertion by level sets, sharing nothing with the bisecting loop: column i holds the
    # symbols whose longest increasing subsequence ends at length i, the last one at the bottom.  The
    # keys (symbol, k) in lps and (symbol, -k) in rps make that weakly increasing in lps, strictly in rps.
    sign = 1 if MODE_SPECS[mode].direction == "left" else -1
    keys = [(sym, sign * k) for k, sym in enumerate(word)]
    levels: list[int] = []
    for key in keys:
        levels.append(1 + max((lev for lev, earlier in zip(levels, keys) if earlier < key), default=0))
    cols: list[list] = [[] for _ in range(max(levels, default=0))]
    for (sym, _), lev in zip(keys, levels):
        cols[lev - 1].insert(0, sym)
    return Tableau(cols)


# ---------------------------------------------------------------------------
# the paper's forbidden-pattern scan for stable pairs, O(n^2); the round-trip
# membership test in pstab.correspondence must agree with it


def _triple_code(a: Symbol, b: Symbol, c: Symbol) -> str | None:
    """Dashed-pattern name matched by the triple (positions i, i+1, j)."""
    if b < c < a:
        return "31-2"
    if c < b < a:
        return "32-1"
    if a < c < b:
        return "13-2"
    if c < a < b:
        return "23-1"
    return None


_FORBIDDEN = {("31-2", "13-2"), ("31-2", "23-1"), ("32-1", "13-2")}


def _avoids_forbidden_pairs(left: Word, right: Word) -> bool:
    """No triple (i, i+1, j), j > i+1, matches a forbidden pattern pair in both words."""
    n = len(left)
    for i in range(n - 2):
        for j in range(i + 2, n):
            code_left = _triple_code(left[i], left[i + 1], left[j])
            if code_left not in ("31-2", "32-1"):
                continue
            code_right = _triple_code(right[i], right[i + 1], right[j])
            if (code_left, code_right) in _FORBIDDEN:
                return False
    return True


def is_stable_pair_scan(pair: TableauPair, mode: Mode, level: StablePairLevel) -> bool:
    """Stable-pair membership by the paper's definition, a pattern scan.

    Takes the same input as :func:`pstab.correspondence.is_stable_pair` and
    checks it the same way.  It scans the first tableau's column reading,
    standardized in the mode's direction at the word and array levels, against
    the second tableau read column by column, each bottom to top, which is
    standardized first at the array level.
    """
    direction = _checked_spec(pair, mode, level).direction
    p, q = pair
    left = column_reading(p) if level == "standard" else standardize(column_reading(p), direction)
    if level == "array":
        q = standardize_tableau(q, direction)
    return _avoids_forbidden_pairs(left, tuple(chain.from_iterable(q.columns)))


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
        import json  # only a --json report loads it

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
    """Sweep sizes for the verification suite, each at least 1; conservative by default.

    The case table fixes the other sizes: words and arrays over an alphabet of
    3, at most 4 symbols in the brute-force evaluations, sum <= 10 over <= 5
    symbols for "closed form equals recursion", at most 4 boxes for the
    standardized preimages, and n <= max(12, max_n) for the formula families.
    """

    word_len: int = 4
    array_len: int = 4
    eval_sum: int = 8

    def __post_init__(self) -> None:
        for name, value in vars(self).items():
            _check_int(value, f"budget {name}")


def _positive_evaluations(max_sum: int, max_parts: int) -> list[tuple[int, ...]]:
    # an evaluation without zero entries is a composition of its sum
    return sorted(ev for n in range(1, max_sum + 1) for ev in compositions(n) if len(ev) <= max_parts)


# ---------------------------------------------------------------------------
# sweeps, and the per-input checks run over them: each check yields the
# violations found at one input


def _distinct_insertions(mode: Mode, max_length: int) -> Iterator[tuple[Word, Tableau]]:
    # each tableau inserted from a word over A_2, with its first word
    seen: set[Tableau] = set()
    for w in words_up_to(2, max_length):
        base = ps_insert(w, mode)
        if base not in seen:
            seen.add(base)
            yield w, base


def _standard_words(max_length: int) -> Iterator[Word]:
    for size in range(1, max_length + 1):
        yield from permutations(range(1, size + 1))


def _hook_counts_by_columns(n: int) -> Iterator[tuple[int, int]]:
    by_columns: Counter[int] = Counter()
    for lam in compositions(n):
        by_columns[len(lam)] += hook_count(n, lam)
    return ((k, by_columns[k]) for k in range(1, n + 1))


def _lps_preimage_counts(n: int) -> Iterable[tuple[Tableau, int]]:
    return Counter(ps_insert(sigma, "lps") for sigma in permutations(range(1, n + 1))).items()


def _small_fillings(max_n: int) -> Iterator[tuple[int, Shape, Tableau]]:
    for n in range(1, max_n + 1):
        for lam in compositions(n):
            for t in fillings(tuple(range(1, n + 1)), lam):
                yield n, lam, t


def _insertion_well_formed(mode: Mode, alphabet_size: int, w: Word) -> Iterator[str]:
    p, q = extended_insert(w, mode)
    if not getattr(classify(p), MODE_SPECS[mode].flag):
        yield f"{format_word(w)}: output not {mode}"
    if p.evaluation(alphabet_size) != evaluation(w, alphabet_size):
        yield f"{format_word(w)}: evaluation changed"
    if not classify(q).is_recording:
        yield f"{format_word(w)}: recording tableau invalid"
    if p != ps_insert(w, mode):
        yield f"{format_word(w)}: plain and extended insertion differ"
    if p != _ps_insert_linear(w, mode):
        yield f"{format_word(w)}: binary search differs from linear scan"
    if reverse_columns(reverse_columns(p)) != p:
        yield f"{format_word(w)}: column reversal not an involution"


def _word_standardization_laws(mode: Mode, w: Word) -> Iterator[str]:
    direction = MODE_SPECS[mode].direction
    p, q = extended_insert(w, mode)
    p_std, q_std = extended_insert(standardize(w, direction), mode)
    if p_std.shape != p.shape or q_std != q:
        yield f"{format_word(w)}: standardized word inserts differently"
    if p_std != standardize_tableau(p, direction):
        yield f"{format_word(w)}: tableau standardization mismatch"
    if destandardize_tableau(p_std) != p:
        yield f"{format_word(w)}: destandardization does not recover tableau"


def _word_reads_back(mode: Mode, w: Word) -> Iterator[str]:
    if read_by_recording(extended_insert(w, mode)) != w:
        yield f"{format_word(w)}: reading back failed"


def _array_reverses(mode: Mode, arr: TwoRowedArray) -> Iterator[str]:
    if reverse_insertion(array_insert(arr, mode), mode) != arr:
        yield f"({arr})"


def _identity_top_array(mode: Mode, w: Word) -> Iterator[str]:
    ident = TwoRowedArray(top=tuple(range(1, len(w) + 1)), bottom=w)
    if array_insert(ident, mode) != extended_insert(w, mode):
        yield format_word(w)


def _standardized_preimages(mode: Mode, item: tuple[Word, Tableau]) -> Iterator[str]:
    w, base = item
    direction = MODE_SPECS[mode].direction
    std_tab = standardize_tableau(base, direction)
    entries = sorted(sym for col in std_tab.columns for sym in col)
    for perm in permutations(entries):
        if ps_insert(perm, mode) == std_tab:
            if standardize(destandardize(perm), direction) != perm:
                yield f"{format_word(perm)} inserts to Std({format_word(w)})"


def _rsk_roundtrip(mode: Mode, level: str, value: Word | TwoRowedArray) -> Iterator[str]:
    label = format_word(value) if level == "word" else f"({value})"
    pair = rsk(value, mode)
    if not is_stable_pair(pair, mode, level):
        yield f"{label}: image not a stable pair"
    elif rsk_inverse(pair, mode, level) != value:
        yield f"{label}: inverse mismatch"


def _check_stable_set(
    mode: Mode, level: StablePairLevel, firsts: list[Tableau], seconds: list[Tableau], image: set[TableauPair]
) -> tuple[int, list[str]]:
    # members by round trip, and what is wrong: each first tableau meets every second of its shape,
    # membership is tested once per pair and method (round trip, pattern scan), and both must give the image
    by_shape: dict[Shape, list[Tableau]] = {}
    for q in seconds:
        by_shape.setdefault(q.shape, []).append(q)
    by_trip: set[TableauPair] = set()
    by_scan: set[TableauPair] = set()
    for pair in (TableauPair(p, q) for p in firsts for q in by_shape[p.shape]):
        if is_stable_pair(pair, mode, level):
            by_trip.add(pair)
        if is_stable_pair_scan(pair, mode, level):
            by_scan.add(pair)
    problems = []
    if by_trip != by_scan:
        problems.append(f"round trip and pattern scan disagree on {len(by_trip ^ by_scan)} pairs")
    if by_trip != image:
        problems.append("stable set differs from insertion image")
    return len(by_trip), problems


def _word_stable_set(mode: Mode, alphabet_size: int, boxes: int) -> Iterator[str]:
    firsts, seconds = mode_tableaux(alphabet_size, boxes, mode), enumerate_pstab(range(1, boxes + 1))
    image = {rsk(w, mode) for w in words_over(alphabet_size, boxes)}
    for problem in _check_stable_set(mode, "word", firsts, seconds, image)[1]:
        yield f"{boxes} boxes: {problem}"


def _array_stable_set(mode: Mode, alphabet_size: int, boxes: int) -> Iterator[str]:
    tabs = mode_tableaux(alphabet_size, boxes, mode)
    image = {rsk(arr, mode) for arr in arrays_over(alphabet_size, boxes, mode)}
    for problem in _check_stable_set(mode, "array", tabs, tabs, image)[1]:
        yield f"{boxes} boxes: {problem}"


def _array_standardization_laws(mode: Mode, arr: TwoRowedArray) -> Iterator[str]:
    direction = MODE_SPECS[mode].direction
    p, q = array_insert(arr, mode)
    std_top = standardize(arr.top, "left")
    std_bottom = standardize(arr.bottom, direction)
    q_std = standardize_tableau(q, direction)
    p_std = standardize_tableau(p, direction)
    if q_std != array_insert(TwoRowedArray(std_top, arr.bottom), mode).q:
        yield f"({arr}): recording standardization (top only)"
    both = array_insert(TwoRowedArray(std_top, std_bottom), mode)
    if q_std != both.q:
        yield f"({arr}): recording standardization (both rows)"
    if p_std != both.p:
        yield f"({arr}): insertion standardization (both rows)"
    if p_std != array_insert(TwoRowedArray(arr.top, std_bottom), mode).p:
        yield f"({arr}): insertion standardization (bottom only)"


def _relabeling_invariance(sigma: Word) -> Iterator[str]:
    relabeled = tuple(3 * s + 1 for s in sigma)
    for name in ("31-2", "13-2", "23-1", "32-1"):
        if occurrences(sigma, name) != occurrences(relabeled, name):
            yield f"{format_word(sigma)} vs relabeling, pattern {name}"


def _closed_form_is_recursion(ev: tuple[int, ...]) -> Iterator[str]:
    for mode in MODE_SPECS:
        if {route(ev) for route in _count_routes(mode).values()} != {_count(mode, ev)}:
            yield f"{mode} ev={ev}"


def _zero_entries_ignored(ev: tuple[int, ...]) -> Iterator[str]:
    for pos in range(len(ev) + 1):
        padded = ev[:pos] + (0,) + ev[pos:]
        if any(_count(mode, padded) != _count(mode, ev) for mode in MODE_SPECS):
            yield f"ev={ev} padded at {pos}"


def _rps_first_entry_ignored(ev: tuple[int, ...]) -> Iterator[str]:
    reference = count_rps((1,) + ev)
    for first in range(2, 5):
        if count_rps((first,) + ev) != reference:
            yield f"first={first}, tail={ev}"


def _fiber_times_hook(n: int, lam: Shape) -> Iterator[str]:
    if fiber_size(n, lam) * hook_count(n, lam) != factorial(n):
        yield f"shape={lam}"


def _stirling_by_columns(n: int, item: tuple[int, int]) -> Iterator[str]:
    k, total = item
    if total != stirling2(n, k):
        yield f"k={k}"


def _bottom_row_bounds(ev: tuple[int, ...]) -> Iterator[str]:
    lo, hi = max(ev), sum(ev)
    lps, rps = insertion_image(ev, "lps"), insertion_image(ev, "rps")
    if not (lps and rps):
        yield f"ev={ev}: empty insertion image"
    for t in lps:
        if not lo <= len(t.columns) <= hi:
            yield f"ev={ev}, shape={t.shape}"
    for t in rps:
        if not 1 <= len(t.columns) <= len(ev):
            yield f"rps ev={ev}, shape={t.shape}"


def _preimages_within_hook_count(n: int, item: tuple[Tableau, int]) -> Iterator[str]:
    t, preimages = item
    if preimages > hook_count(n, t.shape):
        yield f"shape={t.shape}"


def _projection_laws(item: tuple[int, Shape, Tableau]) -> Iterator[str]:
    n, lam, t = item
    image = ps_project(t)
    if ps_project(image) != image:
        yield f"n={n}, shape={lam}: not idempotent"
    if image.shape != t.shape or image.content() != t.content():
        yield f"n={n}, shape={lam}: shape or content changed"
    if classify(t).is_standard_ps and image != t:
        yield f"n={n}, shape={lam}: standard tableau moved"


# ---------------------------------------------------------------------------
# single computations: each returns (formula, observed)


def _standard_stable_pairs(n: int) -> tuple[str, str]:
    image = {extended_insert(sigma, "lps") for sigma in permutations(range(1, n + 1))}
    tabs = enumerate_pstab(range(1, n + 1))
    members, problems = _check_stable_set("lps", "standard", tabs, tabs, image)
    if len(image) != factorial(n):
        problems.insert(0, f"insertion not injective on {n}!")
    observed = f"{members} stable pairs" + ("" if not problems else "; " + problems[0])
    return f"{factorial(n)} stable pairs", observed


def _non_member_rejected() -> tuple[str, str]:
    bad_pair = TableauPair(Tableau([[1, 2, 3], [1]]), Tableau([[1, 3, 4], [2]]))
    rejected = not any(
        test(bad_pair, "lps", level)
        for test in (is_stable_pair, is_stable_pair_scan)
        for level in ("word", "array")
    )
    diverges = extended_insert(read_by_recording(bad_pair), "lps") != bad_pair
    observed = f"{'rejected' if rejected else 'accepted'}, {'diverges' if diverges else 'reinserts'}"
    return "rejected, diverges", observed


def _count_vs_bruteforce(mode: Mode, parts: int, ev: tuple[int, ...], sizes: Callable[[], dict]) -> tuple[int, str]:
    formula = _count(mode, ev)
    routes = {name: route(ev) for name, route in _count_routes(mode).items()}
    brute = sizes()[ev + (0,) * (parts - len(ev))]
    wrong = [f"{name} gave {value}" for name, value in routes.items() if value != formula]
    return formula, f"{brute} ({', '.join(wrong)})" if wrong else str(brute)


def _bell_routes(n: int) -> tuple[int, str]:
    ones = (1,) * n
    formula = bell_rowsum(n)
    pieces = {
        "hook": bell_hook(n),
        "rowsum terms": sum(bell_rowsum_terms(n)),
        "hook terms": bell_hook_sum(n),
        **{mode: _count(mode, ones) for mode in MODE_SPECS},
        "partitions": count_set_partitions(n, max_n=n),
    }
    mismatches = [k for k, v in pieces.items() if v != formula]
    return formula, str(pieces["partitions"]) if not mismatches else f"mismatch in {mismatches}"


def _factorial_bound(n: int) -> tuple[str, str]:
    total = sum(hook_count(n, lam) ** 2 for lam in compositions(n))
    formula = f"{factorial(n)} <= {total}"
    return formula, formula if factorial(n) <= total else f"{factorial(n)} > {total}"


def _tableaux_per_shape(n: int, lam: Shape) -> tuple[int, int]:
    return hook_count(n, lam), len(enumerate_pstab(tuple(range(1, n + 1)), lam, method="direct"))


def _censuses(n: int, shapes: Iterable[Shape] | None = None) -> dict[Shape, dict[Tableau, int]]:
    # the fiber census of each shape of n (default: every composition), shared by the cases that read it
    alphabet = tuple(range(1, n + 1))
    return {lam: fiber_census(alphabet, lam) for lam in (compositions(n) if shapes is None else shapes)}


def _enumerators_agree(n: int, censuses: Callable[[], dict[Shape, dict[Tableau, int]]]) -> tuple[str, str]:
    # the projection enumerator is the census's keys, sorted as enumerate_pstab sorts a shape's tableaux
    alphabet = tuple(range(1, n + 1))
    agree = all(
        enumerate_pstab(alphabet, lam, method="direct")
        == enumerate_pstab(alphabet, lam, method="filter")
        == sorted(censuses()[lam], key=lambda t: t.columns)
        for lam in compositions(n)
    )
    return "agree", "agree" if agree else "disagree"


def _fibers_uniform(n: int, lam: Shape, censuses: Callable[[], dict[Shape, dict[Tableau, int]]]) -> tuple[str, str]:
    alphabet = tuple(range(1, n + 1))
    census = censuses()[lam]
    expected_size = fiber_size(n, lam)
    expected = f"{hook_count(n, lam)} fibers of size {expected_size}"
    if set(census) != set(enumerate_pstab(alphabet, lam, method="direct")):
        return expected, "projection image differs from the standard tableaux"
    sizes = set(census.values())
    if sizes != {expected_size}:
        return expected, f"fiber sizes {sorted(sizes)}"
    return expected, f"{len(census)} fibers of size {expected_size}"


def _standard_image_has_bell_size(n: int) -> tuple[int, int | str]:
    lps, rps = (
        {ps_insert(sigma, mode) for sigma in permutations(range(1, n + 1))} for mode in ("lps", "rps")
    )
    bell = bell_rowsum(n)
    if lps == rps and len(lps) == bell:
        return bell, len(lps)
    return bell, f"{len(lps)} (modes agree: {lps == rps})"


def _hook_bound_strict() -> tuple[str, str]:
    witness = Tableau([[2, 5], [4, 6]])
    hits = sum(1 for sigma in permutations((2, 4, 5, 6)) if ps_insert(sigma, "lps") == witness)
    bound = hook_count(4, (2, 2))
    expected = f"strictly below {bound}"
    return expected, expected if hits < bound else f"{hits} not below {bound}"


# ---------------------------------------------------------------------------
# the case table and its runner


@dataclass(frozen=True)
class _Entry:
    """One case of the report.

    Without ``inputs``, ``check()`` returns ``(formula, observed)``.  With
    them, ``check(item)`` yields the violations found at each item of
    ``inputs()``.  With ``shared``, a computation that several cases read,
    the check takes first a callable that returns its value; the entries
    holding the same ``shared`` object run as one task, which computes it
    once.  Fields hold module-level functions and partials of them, so an
    entry pickles and a pool can be sent the entries themselves.
    """

    suite: str
    name: str
    case_input: str
    check: Callable
    inputs: Callable[[], Iterable] | None = None
    shared: Callable[[], object] | None = None


def _case_table(max_n: int, b: Budgets) -> Iterator[_Entry]:
    """Every verify case, in report order.

    Entries bind arguments and oracle functions only; the package functions
    a check calls are looked up when it runs, so code that rebinds them in
    this module (a test's fake, a tracer) sees every call.
    """
    alphabet = 3
    words = partial(words_up_to, alphabet, b.word_len)
    word_sweep = f"words over A_{alphabet}, length <= {b.word_len}"
    array_sweep = f"arrays over A_{alphabet}, length <= {b.array_len}"
    formula_n = max(12, max_n)
    # at n <= 6 the enumerator case and the fiber cases of n read one census of every shape of n
    censuses = {n: partial(_censuses, n) for n in range(1, min(max_n, 6) + 1)}

    case = partial(_Entry, "insertion")
    for mode in MODE_SPECS:
        yield case(f"{mode} insertion well-formed", word_sweep,
                   partial(_insertion_well_formed, mode, alphabet), words)
        yield case(f"{mode} standardization laws", word_sweep, partial(_word_standardization_laws, mode), words)
        yield case(f"{mode} word roundtrip", word_sweep, partial(_word_reads_back, mode), words)
    for mode in MODE_SPECS:
        arrays = partial(arrays_up_to, alphabet, b.array_len, mode)
        yield case(f"{mode} array roundtrip", array_sweep, partial(_array_reverses, mode), arrays)
        yield case(f"{mode} identity-top array matches word insertion", array_sweep,
                   partial(_identity_top_array, mode), partial(words_up_to, alphabet, b.array_len))
    for mode in MODE_SPECS:
        yield case(f"{mode} words inserting to a standardized tableau are standardizations",
                   "tableaux from words over A_2, <= 4 boxes",
                   partial(_standardized_preimages, mode), partial(_distinct_insertions, mode, 4))

    case = partial(_Entry, "correspondence")
    for n in range(1, max_n + 1):
        yield case("standard-level stable pairs count", f"n={n}", partial(_standard_stable_pairs, n))
    for mode in MODE_SPECS:
        yield case(f"{mode} word-level roundtrip", word_sweep, partial(_rsk_roundtrip, mode, "word"), words)
        yield case(f"{mode} word-level stable pairs are exactly the insertion image",
                   f"over A_{alphabet}, <= {b.word_len} boxes",
                   partial(_word_stable_set, mode, alphabet), partial(range, 1, b.word_len + 1))
    for mode in MODE_SPECS:
        arrays = partial(arrays_up_to, alphabet, b.array_len, mode)
        yield case(f"{mode} array-level roundtrip", array_sweep, partial(_rsk_roundtrip, mode, "array"), arrays)
        yield case(f"{mode} array-level stable pairs are exactly the insertion image",
                   f"over A_{alphabet}, <= {b.array_len} boxes",
                   partial(_array_stable_set, mode, alphabet), partial(range, 1, b.array_len + 1))
    for mode in MODE_SPECS:
        yield case(f"{mode} array standardization laws", array_sweep, partial(_array_standardization_laws, mode),
                   partial(arrays_up_to, alphabet, b.array_len, mode))
    relabel_len = min(b.word_len, 4)
    yield case("pattern occurrences invariant under order-isomorphic relabeling",
               f"standard words of length <= {relabel_len}",
               _relabeling_invariance, partial(_standard_words, relabel_len))
    yield case("non-member pair is rejected and its reading inserts elsewhere",
               "pair ([[1,2,3],[1]], [[1,3,4],[2]]), reading 3121", _non_member_rejected)

    case = partial(_Entry, "counting")
    images = {mode: partial(_image_sizes, mode, 4, b.eval_sum) for mode in MODE_SPECS}
    for ev in _positive_evaluations(b.eval_sum, 4):
        for mode in MODE_SPECS:
            yield case(f"{mode} tableau count, formula vs brute force", f"ev={ev}",
                       partial(_count_vs_bruteforce, mode, 4, ev), shared=images[mode])
    yield case("closed form equals recursion", "evaluations with sum <= 10, <= 5 symbols",
               _closed_form_is_recursion, partial(_positive_evaluations, 10, 5))
    small_sum = min(b.eval_sum, 6)
    small_evaluations = partial(_positive_evaluations, small_sum, 3)
    yield case("counts ignore zero entries", "padded evaluations", _zero_entries_ignored, small_evaluations)
    yield case("rps count ignores the first entry", f"tails with sum <= {small_sum}",
               _rps_first_entry_ignored, small_evaluations)
    for n in range(1, max_n + 1):
        yield case("Bell number, all four routes", f"n={n}", partial(_bell_routes, n))
    for n in range(1, formula_n + 1):
        yield case("fiber size times hook count equals n!", f"n={n}",
                   partial(_fiber_times_hook, n), partial(compositions, n))
    for n in range(1, min(formula_n, 10) + 1):
        yield case("hook counts grouped by columns match Stirling numbers", f"n={n}",
                   partial(_stirling_by_columns, n), partial(_hook_counts_by_columns, n))
    for n in range(1, formula_n + 1):
        yield case("factorial bounded by sum of squared hook counts", f"n={n}", partial(_factorial_bound, n))
    yield case("bottom row length within its bounds", f"evaluations with sum <= {small_sum}",
               _bottom_row_bounds, small_evaluations)
    for n in range(1, max_n + 1):
        for lam in compositions(n):
            yield case("standard tableaux per shape match hook count", f"n={n}, shape={lam}",
                       partial(_tableaux_per_shape, n, lam))
        if n <= 6:
            yield case("three tableau enumerators agree", f"n={n}", partial(_enumerators_agree, n),
                       shared=censuses[n])
    for n in range(1, max_n + 1):
        for lam in compositions(n):
            yield case("projection fibers uniform at the predicted size", f"n={n}, shape={lam}",
                       partial(_fibers_uniform, n, lam),
                       shared=censuses[n] if n in censuses else partial(_censuses, n, (lam,)))
    for n in range(1, max_n + 1):
        yield case("insertion image over standard words has Bell size, modes agree", f"n={n}",
                   partial(_standard_image_has_bell_size, n))
    for n in range(1, max_n + 1):
        yield case("preimage count per tableau bounded by hook count", f"n={n}",
                   partial(_preimages_within_hook_count, n), partial(_lps_preimage_counts, n))
    yield case("hook bound on preimages is strict somewhere", "alphabet {2,4,5,6}, tableau [[2,5],[4,6]]",
               _hook_bound_strict)
    yield case("projection idempotent, preserving, fixing standard tableaux", f"n <= {min(max_n, 4)}",
               _projection_laws, partial(_small_fillings, min(max_n, 4)))


def _run_entry(entry: _Entry, shared: Callable[[], object] | None = None) -> CaseResult:
    """Run one case; a sweep that checks no input, or an exception, fails it.

    ``shared``, the cached computation of the case's task, goes to the check first.
    """
    check = entry.check if shared is None else partial(entry.check, shared)
    try:
        if entry.inputs is None:
            formula, observed = check()
        else:
            formula, checked, bad = "0 violations", 0, []
            for checked, item in enumerate(entry.inputs(), 1):
                bad.extend(check(item))
            if not checked:
                observed = "empty sweep"
            else:
                observed = f"{len(bad)} violations, first: {bad[0]}" if bad else "0 violations"
    except Exception as exc:
        formula, observed = "runs to completion", f"{type(exc).__name__}: {exc}"
    formula, observed = str(formula), str(observed)
    return CaseResult(entry.suite, entry.name, entry.case_input, formula, observed, formula == observed)


def _run_task(task: tuple[_Entry, ...]) -> list[CaseResult]:
    """Run the cases of one task in order.  What they share is computed once,
    when a case first asks for it, and dropped with the task; a computation
    that raises is not kept, so each case that asks fails with its error."""
    shared = task[0].shared and cache(task[0].shared)
    return [_run_entry(entry, shared) for entry in task]


def verify_suite(max_n: int = 4, budgets: Budgets | None = None, jobs: int = 1) -> VerificationReport:
    """Run every cross-check of the package at the given scale.

    ``max_n`` bounds the n-indexed case families (bijections, Bell numbers,
    tableau enumerations, fiber sweeps); ``budgets`` bounds the word, array,
    and evaluation sweeps.  ``jobs`` worker processes share the tasks, capped
    by the CPU count and the number of tasks.  A task is one case, or the
    cases that share a computation; the multi-case tasks go first, the
    largest first, then the single cases in table order, and each result
    returns to its case's place in the report.  Failures become report
    entries, never exceptions: a case that raises, or whose sweep checks no
    input, fails on its own and every other case still runs.
    """
    _check_int(max_n, "max_n")
    _check_int(jobs, "jobs")
    budgets = budgets or Budgets()
    start = time.perf_counter()
    table = list(_case_table(max_n, budgets))
    groups: dict[object, list[int]] = {}  # keyed by the shared computation, or by the slot of a case without one
    for slot, entry in enumerate(table):
        groups.setdefault(entry.shared or slot, []).append(slot)
    slots = sorted(groups.values(), key=len, reverse=True)  # a stable sort: single cases keep table order
    tasks = [tuple(table[slot] for slot in task) for task in slots]
    workers = min(jobs, os.cpu_count() or 1, len(tasks))
    if workers > 1:
        from multiprocessing import Pool  # a serial run does not load the pool's modules

        # one task at a time: a few tasks cost most of the run, so chunks of several would leave a worker idle
        with Pool(workers) as pool:
            results = pool.map(_run_task, tasks, chunksize=1)
    else:
        results = list(map(_run_task, tasks))
    by_slot = dict(zip(chain.from_iterable(slots), chain.from_iterable(results)))
    cases = [by_slot[slot] for slot in range(len(table))]
    elapsed = time.perf_counter() - start
    return VerificationReport(max_n=max_n, cases=cases, elapsed_seconds=elapsed)
