"""Nested sets, B-trees, tree shapes and vertex coordinates of nestohedra.

Nested sets are enumerated by depth-first extension in increasing member
order with incremental (N1)/(N2) pruning; both violations are monotone
under extension, so pruning is safe.  Disconnected building sets are
handled directly: members of B_max are excluded from nested sets, and
cross-component unions are never in B, so the complex is the join of the
component complexes (faces of product polytopes multiply).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache

from .bitsets import bits
from .buildset import BuildingSet, is_connected, maximal_members
from .errors import CapacityError, InputError

NESTED_CAP = 8
TREE_SHAPE_CAP = 9
EXTENSION_CAP = 9
REALIZATION_CAP = 7


def is_nested(b: BuildingSet, family) -> bool:
    """(N1) pairwise nested-or-disjoint and (N2) no disjoint union lies in B."""
    fam = sorted(set(family))
    members = set(b.sets)
    maxima = set(maximal_members(b))
    for s in fam:
        if s not in members:
            raise InputError(f"family member {bin(s)} is not in the building set")
        if s in maxima:
            raise InputError(
                "nested sets exclude the maximal members of the building set"
            )
    for i, s in enumerate(fam):
        for t in fam[i + 1 :]:
            if s & t and (s | t) != s and (s | t) != t:
                return False
    # unions of >= 2 pairwise disjoint members must avoid B
    disjoint_unions = []
    for s in fam:
        for u in disjoint_unions:
            if u & s == 0 and (u | s) in members:
                return False
        disjoint_unions.extend([u | s for u in disjoint_unions if u & s == 0])
        disjoint_unions.append(s)
    return True


def _walk_nested(b: BuildingSet, visit):
    """Call visit(family_tuple) once for every nested set of b."""
    members = set(b.sets)
    maxima = set(maximal_members(b))
    cand = sorted(s for s in b.sets if s not in maxima)

    def rec(avail, family, disjoint_unions):
        visit(family)
        for idx, s in enumerate(avail):
            if any(u & s == 0 and (u | s) in members for u in disjoint_unions):
                continue
            new_unions = disjoint_unions + [
                u | s for u in disjoint_unions if u & s == 0
            ]
            new_unions.append(s)
            new_avail = [
                t
                for t in avail[idx + 1 :]
                if t & s == 0 or (t | s) == s or (t | s) == t
            ]
            rec(new_avail, family + (s,), new_unions)

    rec(cand, (), [])


def nested_sets(b: BuildingSet) -> list:
    """All nested sets as tuples of member masks, lexicographically ordered."""
    if b.n > NESTED_CAP:
        raise CapacityError(f"nested-set enumeration capped at n <= {NESTED_CAP}")
    out = []
    _walk_nested(b, out.append)
    out.sort()
    return out


def nested_sets_by_size(b: BuildingSet) -> tuple:
    """Counts of nested sets by cardinality 0, 1, ...

    For connected B the top cardinality is n-1 and its count is the vertex
    count of the nestohedron; the size-1 count is mu(B) - 1, the facets.
    """
    if b.n > NESTED_CAP:
        raise CapacityError(f"nested-set enumeration capped at n <= {NESTED_CAP}")
    counts = Counter()
    _walk_nested(b, lambda fam: counts.update([len(fam)]))
    top = max(counts)
    return tuple(counts.get(k, 0) for k in range(top + 1))


def maximal_nested_sets(b: BuildingSet) -> list:
    """All maximal nested sets of a connected building set (size n-1 each)."""
    if b.n > NESTED_CAP:
        raise CapacityError(f"nested-set enumeration capped at n <= {NESTED_CAP}")
    if not is_connected(b):
        raise InputError("maximal nested sets require a connected building set")
    want = b.n - 1
    out = []
    _walk_nested(b, lambda fam: out.append(fam) if len(fam) == want else None)
    out.sort()
    return out


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


def _poset_nodes(b: BuildingSet, family) -> list:
    if not is_connected(b):
        raise InputError("this computation requires a connected building set")
    fam = sorted(set(family))
    if len(fam) != b.n - 1 or not is_nested(b, fam):
        raise InputError("not a maximal nested set")
    return fam + [b.full_mask()]


def _node_labels(nodes) -> dict:
    """I -> i_I, the unique vertex of I not covered by smaller members."""
    label = {}
    for I in nodes:
        rest = 0
        for J in nodes:
            if J != I and J & I == J:
                rest |= J
        free = I & ~rest
        if free.bit_count() != 1:
            raise InputError("nested set does not induce a vertex bijection")
        label[I] = free.bit_length() - 1
    return label


def b_tree(b: BuildingSet, family) -> BTree:
    """The B-tree of a maximal nested set: I -> i_I with containment covers."""
    nodes = _poset_nodes(b, family)
    label = _node_labels(nodes)
    parent = [None] * b.n
    for I in nodes:
        if I == b.full_mask():
            continue
        covers = [J for J in nodes if J != I and I & J == I]
        direct = min(covers, key=lambda J: J.bit_count())
        parent[label[I]] = label[direct]
    return BTree(b.n, tuple(parent))


def vertex_coordinates(b: BuildingSet, family) -> tuple:
    """Integer coordinates of the vertex of P_B at a maximal nested set.

    x_{i_I} = mu(B|_I) - sum of mu(B|_J) over the children J of I; the
    coordinates sum to mu(B).
    """
    nodes = _poset_nodes(b, family)
    mu_inside = {I: sum(1 for s in b.sets if s & ~I == 0) for I in nodes}
    label = _node_labels(nodes)
    x = [0] * b.n
    for I in nodes:
        strict_below = [J for J in nodes if J != I and J & I == J]
        child_sum = 0
        for J in strict_below:
            if not any(K != J and K != I and J & K == J and K & I == K for K in nodes):
                child_sum += mu_inside[J]
        x[label[I]] = mu_inside[I] - child_sum
    return tuple(x)


def realization_failures(b: BuildingSet) -> list:
    """Vertices violating a facet inequality or the predicted tight set."""
    if b.n > REALIZATION_CAP:
        raise CapacityError(f"realization check capped at n <= {REALIZATION_CAP}")
    failures = []
    full = b.full_mask()
    mu_inside = {s: sum(1 for t in b.sets if t & ~s == 0) for s in b.sets}
    for fam in maximal_nested_sets(b):
        x = vertex_coordinates(b, fam)
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
    """Shapes of all B-trees with multiplicity; total equals the vertex count."""
    if b.n > NESTED_CAP:
        raise CapacityError(f"B-tree enumeration capped at n <= {NESTED_CAP}")
    out = Counter()
    for fam in maximal_nested_sets(b):
        out[shape_of(b_tree(b, fam))] += 1
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
    if n > TREE_SHAPE_CAP:
        raise CapacityError(f"tree shapes capped at n <= {TREE_SHAPE_CAP}, got {n}")
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
    if tree.n > EXTENSION_CAP:
        raise CapacityError(f"linear extensions capped at n <= {EXTENSION_CAP}")
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
