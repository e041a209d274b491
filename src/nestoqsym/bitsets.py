"""Small helpers for subsets of [n] encoded as machine-word bit masks, and
the one memoized walk over ordered set partitions built from them."""

from __future__ import annotations


def mask_of(vertices) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def bits(mask: int):
    """Yield the set bit positions of mask in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def compress(mask: int, keep: int) -> int:
    """The bits of mask at the positions of keep, packed down in order: the
    order-preserving relabeling of the minors (`takeuchi_antipode` and
    `coproduct` read it from compress_tables instead)."""
    out = i = 0
    while keep:
        low = keep & -keep
        if mask & low:
            out |= 1 << i
        i += 1
        keep ^= low
    return out


_SHARED_TABLES = [{0: 0}]


def compress_tables(full: int) -> list:
    """tables[step][t] == compress(t, step) for every step <= full = 2^n - 1
    and every t inside step: 3^n entries, each table built from the table of
    step without its top vertex, which the top vertex's bit extends.

    tables[step] does not depend on full, so the tables of n <= 6 are built
    once, at import (3^6 = 729 entries), and every call starts from them:
    callers share them and must only read them.  Larger n builds the rest
    per call."""
    if full < len(_SHARED_TABLES):
        return _SHARED_TABLES[: full + 1]
    tables = _SHARED_TABLES[:]
    for step in range(len(tables), full + 1):
        top = 1 << step.bit_length() - 1
        below = tables[step ^ top]  # 2^k entries, k of step's bits below top: top goes to bit k
        tables.append(below | {t | top: x | len(below) for t, x in below.items()})
    return tables


_SHARED_TABLES = compress_tables(63)


def singletons(mask: int):
    """Yield the one-bit submasks of mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low
        mask ^= low


def submasks(mask: int):
    """All submasks of mask, including 0 and mask itself."""
    sub = mask
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & mask


def nonempty_submasks(mask: int):
    sub = mask
    while sub:
        yield sub
        sub = (sub - 1) & mask


def flag_walk(n: int, admissible, key, blocks=nonempty_submasks) -> list:
    """Ordered set partitions of [n] whose blocks come from blocks(rest) and
    pass admissible(done, block), listed as their sequences of key(block).

    The continuations depend on the covered mask alone, so they are memoized
    on it, as lists: each (done, block) pair is tested once, 3^n tests for
    all blocks.  Every sequence is listed once per partition, so key=int
    lists the partitions themselves, and blocks=singletons with distinct
    keys lists orderings.  Sequences come in depth-first order, blocks in
    the order blocks(rest) yields them.
    """
    full = (1 << n) - 1
    memo = {full: [()]}

    def rest(done: int) -> list:
        hit = memo.get(done)
        if hit is None:
            hit = memo[done] = [
                (key(blk),) + seq
                for blk in blocks(full & ~done)
                if admissible(done, blk)
                for seq in rest(done | blk)
            ]
        return hit

    out = rest(0)
    memo.clear()  # rest's closure is a cycle, so the memo would outlive the call
    return out
