"""Rebuild golden.json, the expected value of every count the workloads ask for.

Each value is computed by two routes that share no code and must agree:
tableau counts by the literal bracket sum and by a forward recursion, Bell
numbers by the Bell triangle and by the Stirling recursion (and against the
count of (1,)*n), hook counts by the closed formula and by a recursion on
where the largest symbol sits.  Neither route imports pstab.

    python3 perfbench/make_golden.py        # takes about a minute
"""

from __future__ import annotations

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import reference as ref  # noqa: E402
import workloads  # noqa: E402


def build():
    counts, bells, shapes = workloads.golden_entries()
    table = {"count": {}, "bell": {}, "hook": {}}
    for mode, ev in counts:
        closed, rec = ref.count_closed_form(ev, mode), ref.count_recursive(ev, mode)
        if closed != rec:
            raise SystemExit(f"{mode} {ev}: closed form {closed} != recursion {rec}")
        table["count"][workloads.count_key(mode, ev)] = str(closed)
    for n in bells:
        values = {ref.bell_triangle(n), ref.bell_stirling(n), ref.count_recursive((1,) * n, "lps")}
        if len(values) != 1:
            raise SystemExit(f"Bell {n}: routes disagree: {sorted(values)}")
        table["bell"][str(n)] = str(values.pop())
    for n, lam in shapes:
        formula, rec = ref.hook_formula(n, lam), ref.hook_recursive(lam)
        if formula != rec:
            raise SystemExit(f"hook {n} {lam}: formula {formula} != recursion {rec}")
        table["hook"][workloads.hook_key(n, lam)] = str(formula)
    return table


if __name__ == "__main__":
    with open(workloads.GOLDEN_PATH, "w", encoding="utf-8") as handle:
        json.dump(build(), handle, indent=1, sort_keys=True)
        handle.write("\n")
