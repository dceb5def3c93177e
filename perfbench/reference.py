"""Reference computations the checker trusts, written without importing pstab.

Everything here is an independent re-implementation from the definitions in
PAPER.md, so a defect in the package cannot also hide in the check of its own
output.  Tableaux are lists of columns, each listed bottom to top.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left, bisect_right
from functools import cache
from itertools import product
from math import comb, factorial


def insert_pairs(items, mode):
    """Patience insertion of (value, label) pairs; returns (p_cols, q_cols).

    Columns are grown top-first and reversed once at the end, so a tall
    column costs O(1) per bump instead of a list prepend.
    """
    p_rev, q_cols, heads = [], [], []
    for value, label in items:
        if not heads or (heads[-1] <= value if mode == "lps" else heads[-1] < value):
            p_rev.append([value])
            q_cols.append([label])
            heads.append(value)
        else:
            m = bisect_right(heads, value) if mode == "lps" else bisect_left(heads, value)
            p_rev[m].append(value)
            q_cols[m].append(label)
            heads[m] = value
    return [col[::-1] for col in p_rev], q_cols


def insert_word(word, mode):
    return insert_pairs(zip(word, range(1, len(word) + 1)), mode)


def insert_array(top, bottom, mode):
    return insert_pairs(zip(bottom, top), mode)


def is_kind(cols, mode):
    """lPS: columns strictly increase, bottom row weakly increases; rPS the reverse."""
    strict_col = mode == "lps"
    for col in cols:
        if not col:
            return False
        for a, b in zip(col, col[1:]):
            if not (a < b if strict_col else a <= b):
                return False
    bottom = [col[0] for col in cols]
    return all((a <= b if strict_col else a < b) for a, b in zip(bottom, bottom[1:]))


def is_recording(cols):
    symbols = [s for col in cols for s in col]
    return (
        is_kind(cols, "lps")
        and is_kind(cols, "rps")
        and sorted(symbols) == list(range(1, len(symbols) + 1))
    )


def shape(cols):
    return [len(col) for col in cols]


def read_by_recording(p_cols, q_cols):
    """Word whose i-th symbol sits in p where i sits in q with columns flipped."""
    position = {}
    for j, col in enumerate(q_cols):
        h = len(col)
        for r, sym in enumerate(col):
            position[sym] = (j, h - 1 - r)
    return [p_cols[j][r] for j, r in (position[i] for i in range(1, len(position) + 1))]


def reverse_insert(p_cols, q_cols, mode):
    """Unwind array insertion; returns (top, bottom) or None when it gets stuck.

    Each step removes the largest remaining label of q: in lps mode from the
    rightmost column holding it, in rps mode from the leftmost one.  The
    largest label always tops every column holding it, so a heap per label
    value of the columns it currently tops finds that column in O(log n).
    """
    p = [col[::-1] for col in p_cols]  # top first, so the bottom box pops off the end
    q = [list(col) for col in q_cols]
    tops: dict = {}
    for j, col in enumerate(q):
        tops.setdefault(col[-1], []).append(-j if mode == "lps" else j)
    for heap in tops.values():
        heapq.heapify(heap)
    labels = sorted((s for col in q for s in col), reverse=True)
    live = len(q)
    out = []
    for label in labels:
        heap = tops.get(label)
        if not heap:
            return None
        key = heapq.heappop(heap)
        j = -key if mode == "lps" else key
        if q[j][-1] != label:
            return None
        q[j].pop()
        out.append((label, p[j].pop()))
        if q[j]:
            nxt = q[j][-1]
            heapq.heappush(tops.setdefault(nxt, []), -j if mode == "lps" else j)
        else:
            if j != live - 1:
                return None
            live -= 1
    out.reverse()
    return [u for u, _ in out], [v for _, v in out]


def is_member(p_cols, q_cols, mode, level):
    """Stable-pair membership by the extract-and-reinsert round trip."""
    if shape(p_cols) != shape(q_cols) or not is_kind(p_cols, mode):
        return False
    if level == "word":
        if not is_recording(q_cols):
            return False
        again = insert_word(read_by_recording(p_cols, q_cols), mode)
    else:
        if not is_kind(q_cols, mode):
            return False
        arr = reverse_insert(p_cols, q_cols, mode)
        if arr is None:
            return False
        again = insert_array(arr[0], arr[1], mode)
    return again == (p_cols, q_cols)


# ---------------------------------------------------------------------------
# counting: two routes for every value in the golden table


def count_closed_form(ev, mode):
    """The bracket sums of the paper, summed term by term (exponential)."""
    ev = [x for x in ev if x > 0]
    if len(ev) == 1:
        return 1
    total = 0
    if mode == "lps":
        for j in product(*(range(x + 1) for x in ev[1:])):
            top, term = ev[0], 1
            for m_a, j_a in zip(ev[1:], j):
                term *= comb(top, m_a - j_a)
                top += j_a
            total += term
    else:
        for j in product((0, 1), repeat=len(ev) - 1):
            acc, term = 0, 1
            for m_a, j_a in zip(ev[1:], j):
                term *= comb(m_a + acc, m_a - j_a)
                acc += j_a
            total += term
    return total


def count_recursive(ev, mode):
    """Same counts by a forward recursion over the running bottom-row total.

    The bracket product depends on earlier choices only through one running
    sum, so summing over that sum's values is polynomial.
    """
    ev = [x for x in ev if x > 0]
    states = {ev[0] if mode == "lps" else 0: 1}
    for m_a in ev[1:]:
        nxt: dict = {}
        for acc, ways in states.items():
            choices = range(m_a + 1) if mode == "lps" else (0, 1)
            for j_a in choices:
                factor = comb(acc, m_a - j_a) if mode == "lps" else comb(m_a + acc, m_a - j_a)
                if factor:
                    nxt[acc + j_a] = nxt.get(acc + j_a, 0) + ways * factor
        states = nxt
    return sum(states.values())


def bell_triangle(n):
    row = [1]
    for _ in range(n - 1):
        nxt = [row[-1]]
        for x in row:
            nxt.append(nxt[-1] + x)
        row = nxt
    return row[-1]


def bell_stirling(n):
    """Sum of Stirling numbers of the second kind, by their recursion."""
    row = [1]  # S(0, k)
    for m in range(1, n + 1):
        row = [0] + [k * (row[k] if k < len(row) else 0) + row[k - 1] for k in range(1, m + 1)]
    return sum(row)


def hook_formula(n, lam):
    denominator, prefix = 1, 0
    for part in lam[:-1]:
        prefix += part
        denominator *= n - prefix
    for part in lam:
        denominator *= factorial(part - 1)
    quotient, remainder = divmod(factorial(n - 1), denominator)
    if remainder:
        raise ArithmeticError(f"hook formula is not integral for n={n}, shape={lam}")
    return quotient


@cache
def hook_recursive(lam):
    """Standard tableaux of shape lam, by where the largest symbol can sit.

    The largest symbol tops some column of height >= 2, or it is the whole
    last column (the bottom row increases).
    """
    if not lam:
        return 1
    total = 0
    for i, part in enumerate(lam):
        if part >= 2:
            total += hook_recursive(lam[:i] + (part - 1,) + lam[i + 1 :])
    if lam[-1] == 1:
        total += hook_recursive(lam[:-1])
    return total
