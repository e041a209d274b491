#!/usr/bin/env python3
"""Vertex counts of the four classical graph-associahedron families.

Tabulates permutohedra (n!), associahedra (Catalan), cyclohedra (central
binomial) and stellohedra against three computation routes and checks the
shift recurrences against the vertex-deletion route on the defining graphs.

Exits 1 when a check fails.

Usage:
    python scripts/family_table.py [--max-n 7] [--check-recurrences]
"""

import argparse
import sys

from nestoqsym.buildset import from_graph
from nestoqsym.cli import guarded
from nestoqsym.errors import check_limit
from nestoqsym.graphs import FAMILIES
from nestoqsym.invariants import (
    family_F,
    family_graph,
    family_recurrence_check,
    family_vertex_counts,
)
from nestoqsym.nestopoly import maximal_nested_sets
from nestoqsym.qsym import vertex_count


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-n", type=int, default=7)
    ap.add_argument("--check-recurrences", action="store_true")
    args = ap.parse_args()
    check_limit("family", args.max_n)

    kinds = tuple(f.polytope for f in FAMILIES)
    failed = 0
    print(f"{'n':>3} " + " ".join(f"{f.alias:>8}" for f in FAMILIES))
    for n in range(1, args.max_n + 1):
        counts = family_vertex_counts(n)
        print(f"{n:>3} " + " ".join(f"{c:>8}" for c in counts))
        for kind, expect in zip(kinds, counts):
            got = [vertex_count(family_F(kind, n), n)]  # chi(-1), every row
            if n <= 7:
                got.append(len(maximal_nested_sets(from_graph(family_graph(kind, n)))))
            if got != [expect] * len(got):
                print(f"{kind} n={n}: closed form {expect}, chi(-1) and nested sets {got}")
                failed = 1
    if not failed:
        print("nested-set and specialization routes agree with the closed forms")

    if args.check_recurrences:
        for kind in kinds:
            ok = all(family_recurrence_check(kind, n) for n in range(1, args.max_n + 1))
            print(f"{kind}: shift recurrence matches the deletion route: {ok}")
            failed |= not ok
    return failed


if __name__ == "__main__":
    sys.exit(guarded(main))
