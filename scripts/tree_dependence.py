#!/usr/bin/env python3
"""Linear dependence among tree enumerators.

For each size prints the unlabeled rooted trees, their enumerators, the rank
of the enumerator matrix and a primitive basis of the integer kernel.  The
first dependence appears at 5 nodes: 9 trees against an 8-dimensional space
of candidate expansions (every term must end in a part 1).

Usage:
    python scripts/tree_dependence.py [--max-n 6]
"""

import argparse
import sys

from nestoqsym.cli import guarded
from nestoqsym.errors import check_limit
from nestoqsym.invariants import F_tree, tree_matrix_kernel
from nestoqsym.nestopoly import enumerate_tree_shapes
from nestoqsym.qsym import render, zero


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-n", type=int, default=6)
    args = ap.parse_args()
    check_limit("kernel", args.max_n)

    for n in range(1, args.max_n + 1):
        shapes = enumerate_tree_shapes(n)
        rank, kernel = tree_matrix_kernel(n)
        print(f"n={n}: {len(shapes)} trees, rank {rank}, kernel dim {len(kernel)}")
        if n <= 4:
            for sh in shapes:
                print(f"    {sh.code:>14}  {render(F_tree(sh))}")
        for rel in kernel:
            terms = " ".join(
                f"{c:+d}*{sh.code}" for c, sh in zip(rel, shapes) if c
            )
            print(f"    relation: {terms}")
            acc = zero("M")
            for c, sh in zip(rel, shapes):
                acc = acc + F_tree(sh).scale(c)
            print(f"    checks out: {acc.is_zero()}")


if __name__ == "__main__":
    sys.exit(guarded(main))
