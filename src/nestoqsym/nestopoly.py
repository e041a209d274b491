"""Nested sets, B-trees, tree shapes and vertex coordinates of nestohedra.

Nested sets are enumerated by depth-first extension in increasing member
order with incremental (N1)/(N2) pruning; both violations are monotone
under extension, so pruning is safe.  Disconnected building sets are
handled directly: members of B_max are excluded from nested sets, and
cross-component unions are never in B, so the complex is the join of the
component complexes (faces of product polytopes multiply).

The vertices (maximal nested sets) come from the root-vertex decomposition
instead, which visits no other nested set; see `maximal_nested_sets`.

Each vertex's B-tree and coordinates come from one cover map (`_vertex`).
Only `b_tree` and `vertex_coordinates` validate a family (a caller's);
loops over maximal_nested_sets call `_vertex` directly.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache

from .bitsets import bits
from .buildset import BuildingSet, _components_in, is_connected, maximal_members
from .errors import InputError, check_limit


def is_nested(b: BuildingSet, family) -> bool:
    """(N1) pairwise nested-or-disjoint and (N2) no disjoint union lies in B."""
    fam = sorted(set(family))
    members = b.member_set
    for s in fam:
        if s not in members:
            raise InputError(f"family member {bin(s)} is not in the building set")
        if s in b.maxima:
            raise InputError(
                "nested sets exclude the maximal members of the building set"
            )
    for i, s in enumerate(fam):
        for t in fam[i + 1 :]:
            if s & t and (s | t) != s and (s | t) != t:
                return False
    unions = []
    for s in fam:
        unions = _admit(members, unions, s)
        if unions is None:
            return False
    return True


def _admit(members: frozenset, unions: list, s: int):
    """The (N2) step: add member s to a nested family, or return None.

    Members arrive in increasing mask order, so s contains or misses each
    top-level member so far (those inside no other), and unions lists the
    unions of nonempty sets of top-level members.  A union of disjoint
    members that lies in B forces a union of two or more children of one
    node into B (lift a member whose parent is lowest to that parent; the
    union grows and stays in B).  The children of s were tested against
    each other while they were top level, so s is tested only against the
    unions of the top-level members it misses.
    """
    free = [u for u in unions if not u & s]
    joined = [u | s for u in free]
    if not members.isdisjoint(joined):
        return None
    return free + joined + [s]


def _walk_nested(b: BuildingSet, visit):
    """Call visit(family_tuple) once for every nested set of b."""
    check_limit("nested", b.n)
    members = b.member_set
    cand = sorted(s for s in b.sets if s not in b.maxima)

    def rec(avail, family, unions):
        visit(family)
        for idx, s in enumerate(avail):
            new_unions = _admit(members, unions, s)
            if new_unions is None:
                continue
            new_avail = [
                t
                for t in avail[idx + 1 :]
                if t & s == 0 or (t | s) == s or (t | s) == t
            ]
            rec(new_avail, family + (s,), new_unions)

    rec(cand, (), [])


def nested_sets(b: BuildingSet) -> list:
    """All nested sets as tuples of member masks, lexicographically ordered."""
    out = []
    _walk_nested(b, out.append)
    out.sort()
    return out


def nested_sets_by_size(b: BuildingSet) -> tuple:
    """Counts of nested sets by cardinality 0, 1, ...

    For connected B the top cardinality is n-1 and its count is the vertex
    count of the nestohedron; the size-1 count is mu(B) - 1, the facets.
    """
    counts = Counter()
    _walk_nested(b, lambda fam: counts.update([len(fam)]))
    top = max(counts)
    return tuple(counts.get(k, 0) for k in range(top + 1))


def maximal_nested_sets(b: BuildingSet) -> list:
    """All maximal nested sets of a connected building set (size n-1 each),
    as sorted tuples, in increasing order; [()] for the empty set.

    By the root-vertex decomposition: the maximal nested sets of B|S
    without S itself, for a member S, are the unions over v in S of the
    products over the components C of B|(S - v) of {C} plus those of B|C.
    They are memoized on S for one call.
    """
    roots = maximal_members(b)
    if len(roots) > 1:
        raise InputError("maximal nested sets require a connected building set")
    check_limit("nested", b.n)
    memo = {}

    def below(S: int) -> list:
        hit = memo.get(S)
        if hit is None:
            hit = []
            for v in bits(S):
                fams = [()]
                for C in _components_in(b, S & ~(1 << v)):
                    fams = [f + (C,) + g for f in fams for g in below(C)]
                hit += fams
            memo[S] = hit
        return hit

    fams = below(roots[0]) if roots else [()]
    return sorted(tuple(sorted(f)) for f in fams)


@dataclass(frozen=True)
class BTree:
    """Rooted tree (or forest) on 0-based vertices; parent[v] is None at a root."""

    n: int
    parent: tuple

    def roots(self) -> list:
        return [v for v in range(self.n) if self.parent[v] is None]

    def children(self) -> list:
        ch = [[] for _ in range(self.n)]
        for v, p in enumerate(self.parent):
            if p is not None:
                ch[p].append(v)
        return ch


def _checked_family(b: BuildingSet, family) -> list:
    if not is_connected(b):
        raise InputError("this computation requires a connected building set")
    fam = sorted(set(family))
    if len(fam) != b.n - 1 or not is_nested(b, fam):
        raise InputError("not a maximal nested set")
    return fam


def _vertex(b: BuildingSet, family) -> tuple:
    """(B-tree, member I at each label i_I) of a trusted maximal nested set.

    Members containing I form a chain of growing masks, so the parent of I
    is the first later member containing it; i_I is I minus its children.
    """
    nodes = sorted(family) + [b.full_mask()] if b.n else []
    below = dict.fromkeys(nodes, 0)
    cover = {}
    for k, I in enumerate(nodes[:-1]):
        cover[I] = next(J for J in nodes[k + 1 :] if J & I == I)
        below[cover[I]] |= I
    label = {I: (I & ~below[I]).bit_length() - 1 for I in nodes}
    up = {label[I]: label[J] for I, J in cover.items()}
    parent = tuple(up.get(v) for v in range(b.n))
    return BTree(b.n, parent), tuple(sorted(nodes, key=label.get))


def _mu_inside(b: BuildingSet, masks) -> dict:
    """I -> mu(B|_I), the number of members inside I."""
    return {I: sum(1 for s in b.sets if s & ~I == 0) for I in masks}


def _coordinates(tree: BTree, member, mu_inside) -> tuple:
    """x_{i_I} = mu(B|_I) - sum of mu(B|_J) over the children J of I."""
    x = [mu_inside[I] for I in member]
    for v, p in enumerate(tree.parent):
        if p is not None:
            x[p] -= mu_inside[member[v]]
    return tuple(x)


def _all_coordinates(b: BuildingSet) -> list:
    """Coordinates of every vertex, in maximal_nested_sets order."""
    mu_inside = _mu_inside(b, b.sets)
    return [_coordinates(*_vertex(b, fam), mu_inside) for fam in maximal_nested_sets(b)]


def b_tree(b: BuildingSet, family) -> BTree:
    """The B-tree of a maximal nested set: I -> i_I with containment covers."""
    return _vertex(b, _checked_family(b, family))[0]


def vertex_coordinates(b: BuildingSet, family) -> tuple:
    """Integer coordinates of the vertex of P_B at a maximal nested set.

    x_{i_I} = mu(B|_I) - sum of mu(B|_J) over the children J of I; the
    coordinates sum to mu(B).
    """
    tree, member = _vertex(b, _checked_family(b, family))
    return _coordinates(tree, member, _mu_inside(b, member))


def realization_failures(b: BuildingSet) -> list:
    """Vertices violating a facet inequality or the predicted tight set."""
    check_limit("realization", b.n)
    failures = []
    full = b.full_mask()
    mu_inside = _mu_inside(b, b.sets)
    for fam in maximal_nested_sets(b):
        x = _coordinates(*_vertex(b, fam), mu_inside)
        if sum(x) != b.mu:
            failures.append({"nested_set": fam, "reason": "hyperplane", "x": x})
            continue
        tight = set(fam)
        for s in b.sets:
            if s == full:
                continue
            val = sum(x[v] for v in bits(s))
            if s in tight and val != mu_inside[s]:
                failures.append(
                    {"nested_set": fam, "reason": "missing equality", "facet": s, "x": x}
                )
            elif s not in tight and val <= mu_inside[s]:
                failures.append(
                    {"nested_set": fam, "reason": "inequality", "facet": s, "x": x}
                )
    return failures


def check_realization(b: BuildingSet) -> bool:
    """True iff every vertex satisfies every facet constraint as predicted."""
    return not realization_failures(b)


# ---------------------------------------------------------------------------
# unlabeled rooted trees

@dataclass(frozen=True, order=True)
class TreeShape:
    """Canonical code of an unlabeled rooted tree: sorted child codes in parens."""

    code: str

    @property
    def size(self) -> int:
        return self.code.count("(")


def shape_of(tree: BTree) -> TreeShape:
    """Canonical shape of a rooted tree (single root required)."""
    roots = tree.roots()
    if len(roots) != 1:
        raise InputError("shape_of expects a single-rooted tree")
    return forest_shapes(tree)[0]


def forest_shapes(tree: BTree) -> tuple:
    """Sorted component shapes of a forest."""
    ch = tree.children()

    def code(v: int) -> str:
        return "(" + "".join(sorted(code(c) for c in ch[v])) + ")"

    return tuple(sorted(TreeShape(code(r)) for r in tree.roots()))


def child_codes(shape: TreeShape) -> list:
    """Top-level subtree codes of a shape code."""
    inner = shape.code[1:-1]
    out, depth, start = [], 0, 0
    for i, c in enumerate(inner):
        depth += 1 if c == "(" else -1
        if depth == 0:
            out.append(inner[start : i + 1])
            start = i + 1
    return out


def tree_multiset(b: BuildingSet) -> Counter:
    """Shapes of all B-trees with multiplicity; total equals the vertex count.

    Empty for n = 0: the one vertex has the empty B-tree, which has no shape.
    """
    out = Counter()
    if b.n == 0:
        return out
    for fam in maximal_nested_sets(b):
        out[shape_of(_vertex(b, fam)[0])] += 1
    return out


@lru_cache(maxsize=None)
def _partitions(n: int) -> tuple:
    """Partitions of n as weakly decreasing tuples."""
    if n == 0:
        return ((),)
    out = []

    def rec(rest, maxpart, acc):
        if rest == 0:
            out.append(tuple(acc))
            return
        for p in range(min(rest, maxpart), 0, -1):
            rec(rest - p, p, acc + [p])

    rec(n, n, [])
    return tuple(out)


@lru_cache(maxsize=None)
def enumerate_tree_shapes(n: int) -> tuple:
    """All unlabeled rooted trees on n nodes, each exactly once, sorted."""
    if n < 1:
        raise InputError(f"tree shapes need n >= 1, got {n}")
    check_limit("tree shapes", n)
    if n == 1:
        return (TreeShape("()"),)
    from itertools import combinations_with_replacement, product as iproduct

    out = set()
    for part in _partitions(n - 1):
        sizes = sorted(set(part), reverse=True)
        choices = []
        for s in sizes:
            mult = part.count(s)
            choices.append(
                list(combinations_with_replacement(enumerate_tree_shapes(s), mult))
            )
        for combo in iproduct(*choices):
            codes = [t.code for group in combo for t in group]
            out.add(TreeShape("(" + "".join(sorted(codes)) + ")"))
    return tuple(sorted(out))


# ---------------------------------------------------------------------------
# linear extensions

def _descending_labels(tree: BTree) -> list:
    """Labels 1..n increasing away from the roots (breadth first, children sorted)."""
    omega = [0] * tree.n
    ch = tree.children()
    queue = sorted(tree.roots())
    nxt = 1
    while queue:
        v = queue.pop(0)
        omega[v] = nxt
        nxt += 1
        queue.extend(sorted(ch[v]))
    return omega


def extension_listings(tree: BTree) -> list:
    """All orderings of the vertices placing every child before its parent."""
    check_limit("extensions", tree.n)
    ch = tree.children()
    pending = [len(c) for c in ch]
    out = []
    listing = []

    def rec(ready):
        if len(listing) == tree.n:
            out.append(tuple(listing))
            return
        for v in sorted(ready):
            listing.append(v)
            nxt = set(ready)
            nxt.discard(v)
            p = tree.parent[v]
            if p is not None:
                pending[p] -= 1
                if pending[p] == 0:
                    nxt.add(p)
            rec(nxt)
            if p is not None:
                pending[p] += 1
            listing.pop()

    rec({v for v in range(tree.n) if pending[v] == 0})
    return out


def linear_extensions(tree: BTree) -> list:
    """Linear extensions as permutation words under the decreasing labeling.

    The tree is labeled so labels increase from each root toward the leaves;
    a listing of the vertices with children before parents then reads off a
    permutation of 1..n.  The multiset of descent compositions of these
    words is independent of the labeling choice.
    """
    omega = _descending_labels(tree)
    words = sorted(tuple(omega[v] for v in listing) for listing in extension_listings(tree))
    return words
