#!/usr/bin/env python3
"""How far the ordered-coloring enumerator separates small graphs.

Sweeps isomorphism classes by vertex count, groups them by the enumerator F
and by the chromatic symmetric function X, and prints the collision groups.
At n = 5 the classical chromatic collision pair shows up and F splits it.

Usage:
    python scripts/collision_report.py [--max-n 5] [--connected]
"""

import argparse
import sys

from nestoqsym.cli import guarded
from nestoqsym.errors import check_limit
from nestoqsym.graphs import from_graph6
from nestoqsym.invariants import F_graph_recurrence, collision_search
from nestoqsym.qsym import render


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-n", type=int, default=5)
    ap.add_argument("--connected", action="store_true")
    args = ap.parse_args()
    check_limit("enumeration", args.max_n)

    for n in range(1, args.max_n + 1):
        for invariant in ("F", "X"):
            r = collision_search(n, invariant, args.connected)
            print(
                f"n={n} {invariant}: {r.class_count} classes, "
                f"{r.value_count} values, {len(r.collisions)} collision group(s)"
            )
            for group in r.collisions:
                print(f"    {' '.join(group)}")
                if invariant == "X":
                    for code in group:
                        F = F_graph_recurrence(from_graph6(code))
                        print(f"      {code}: F = {render(F)}")
            if invariant == "X" and r.f_separates is not None:
                print(f"    F separates every X collision: {r.f_separates}")


if __name__ == "__main__":
    sys.exit(guarded(main))
