"""Nested sets, B-trees, tree shapes and vertex coordinates of nestohedra.

The faces of the nestohedron P_B are the nested sets of B and its vertices
the maximal ones; both come from one root-block decomposition (Postnikov,
"Permutohedra, associahedra, and beyond", 2009, section 7).  A nested set
of a connected B|S that leaves S out has top-level members covering S - R
for a nonempty root block R, and those members are exactly the components
of B|(S - R) (`buildset.components_within`); see `_nested`.  Disconnected
building sets are handled directly: members of B_max are excluded from
nested sets, and cross-component unions are never in B, so the complex is
the join of the component complexes (faces of product polytopes multiply).

Each vertex's B-tree and coordinates come from one pass over its members
(`_vertex`), mu(B|I) from the building set's table (`BuildingSet.mu_inside`).
Only `b_tree` and `vertex_coordinates` validate a family (a caller's); the
loops over maximal_nested_sets in `tree_multiset`, `_all_coordinates` and
`realization_failures` call `_vertex` directly.  The f-vector counts on the
same decomposition and lists no nested set (`nested_sets_by_size`).

`linear_extensions` lists a tree's orderings, children before parents, on
one table filled from the full placed set down.  No route calls it: the
fundamental route counts their descent sets without listing them
(`invariants._descents`).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .bitsets import bits, mask_of, nonempty_submasks, singletons
from .buildset import BuildingSet, components_within, is_connected, maximal_members
from .errors import InputError, check_int, check_limit


def is_nested(b: BuildingSet, family) -> bool:
    """(N1) pairwise nested-or-disjoint and (N2) no disjoint union lies in B."""
    fam = sorted({check_int(s, "nested set member") for s in family})
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
    # (N2): given (N1), some union of two or more disjoint members lies in B
    # iff some m in B is the union of the members strictly inside it (the
    # largest of those are disjoint; the parts of such a union lie inside m).
    # A mask strictly inside m is smaller than m, so the scan of fam stops there.
    cover = 0
    for s in fam:
        cover |= s
    for m in b.sets:
        if m & ~cover == 0:
            inside = 0
            for s in fam:
                if s >= m:
                    break
                if s | m == m:
                    inside |= s
            if inside == m:
                return False
    return True


def _nested(b: BuildingSet, blocks) -> list:
    """Nested sets of b as unsorted tuples, with root blocks from blocks(S).

    The nested sets of a connected B|S that leave S out are, summed over
    nonempty root blocks R inside S, the products over the components C of
    B|(S - R) of {C} plus the nested sets of B|C.  R is nonempty, since
    otherwise the top-level members would split S into a disjoint union
    lying in B; and the top-level members are exactly those components,
    since a member inside their union that meets two of them would put
    their union in B.  R is the part of S no top-level member covers, so
    each nested set arises once.  Every nonempty R gives all nested sets,
    one-vertex blocks the maximal ones.  Each component is a smaller
    member, so the lists fill in increasing mask order; b's nested sets
    are the products over its maximal members.
    """
    check_limit("nested", b.n)
    below = {}
    for S in b.sets:
        below[S] = []
        for R in blocks(S):
            fams = [()]
            for C in components_within(b, S & ~R):
                fams = [f + (C,) + g for f in fams for g in below[C]]
            below[S] += fams
    fams = [()]
    for M in maximal_members(b):
        fams = [f + g for f in fams for g in below[M]]
    return fams


def nested_sets(b: BuildingSet) -> list:
    """All nested sets as sorted tuples of member masks, in increasing order."""
    return sorted(tuple(sorted(f)) for f in _nested(b, nonempty_submasks))


def nested_sets_by_size(b: BuildingSet) -> tuple:
    """Counts of nested sets by cardinality 0, 1, ...

    For connected B the top cardinality is n-1 and its count is the vertex
    count of the nestohedron; the size-1 count is mu(B) - 1, the facets.
    They are counted on `_nested`'s decomposition, with no set listed: the
    nested sets of a connected B|S that leave S out have the size
    polynomial P(S), the sum over nonempty root blocks R inside S of the
    product over the components C of B|(S - R) of x P(C).  P(S) is a list
    of |S| counts, filled in increasing mask order like `_nested`'s lists;
    b's polynomial is the product over its maximal members.
    """
    check_limit("nested", b.n)
    below = {}
    for S in b.sets:
        below[S] = counts = [0] * S.bit_count()
        for R in nonempty_submasks(S):
            p = [1]
            for C in components_within(b, S & ~R):
                p = _times(p, [0] + below[C])
            for k, c in enumerate(p):
                counts[k] += c
    total = [1]
    for M in maximal_members(b):
        total = _times(total, below[M])
    return tuple(total)


def _times(p: list, q: list) -> list:
    """The product of two polynomials given as coefficient lists."""
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, c in enumerate(q):
            out[i + j] += a * c
    return out


def maximal_nested_sets(b: BuildingSet) -> list:
    """All maximal nested sets of a connected building set (size n-1 each),
    as sorted tuples, in increasing order; [()] for the empty set.

    These are the nested sets whose root blocks are all single vertices.
    """
    if len(b.maxima) > 1:
        raise InputError("maximal nested sets require a connected building set")
    fams = _nested(b, singletons)
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


def _forest(tree: BTree, limit: str) -> BTree:
    """tree, once its size is within LIMITS[limit] and its parent tuple is a
    forest on range(n): n entries, each None or a vertex, and no cycle."""
    n, parent = tree.n, tree.parent
    check_limit(limit, check_int(n, "tree size"))
    if len(parent) != n or any(p is not None and not 0 <= check_int(p, "parent") < n for p in parent):
        raise InputError(f"parents {parent} are not n = {n} entries, each None or in range(n)")
    up = list(range(n))
    for _ in range(n):  # a vertex at depth d reaches a root's None in d + 1 <= n steps
        up = [parent[v] for v in up if parent[v] is not None]
    if up:
        raise InputError(f"parents {parent} have a cycle")
    return tree


def _checked_family(b: BuildingSet, family) -> list:
    if not is_connected(b):
        raise InputError("this computation requires a connected building set")
    fam = sorted({check_int(I, "nested set member") for I in family})
    if len(fam) != max(b.n - 1, 0) or not is_nested(b, fam):
        raise InputError("not a maximal nested set")
    return fam


def _vertex(b: BuildingSet, family) -> tuple:
    """(B-tree, member I at each label i_I) of a trusted maximal nested set,
    in one pass by decreasing mask: owner[v], first [n], is the smallest
    member seen that holds v.  Those holding v form a chain, so on reaching
    I the owner of its lowest vertex is I's parent; at the end owner[v] is
    the node labelled v, as i_I is I minus its children."""
    owner = [b.full_mask()] * b.n
    up = {}
    for I in sorted(family, reverse=True):
        up[I] = owner[(I & -I).bit_length() - 1]
        for v in bits(I):
            owner[v] = I
    label = {I: v for v, I in enumerate(owner)}
    parent = tuple(label.get(up.get(I)) for I in owner)  # [n] is not in up: None
    return BTree(b.n, parent), tuple(owner)


def _coordinates(tree: BTree, member, mu_inside) -> tuple:
    """x_{i_I} = mu(B|_I) - sum of mu(B|_J) over the children J of I."""
    x = [mu_inside[I] for I in member]
    for v, p in enumerate(tree.parent):
        if p is not None:
            x[p] -= mu_inside[member[v]]
    return tuple(x)


def _all_coordinates(b: BuildingSet) -> list:
    """Coordinates of every vertex, in maximal_nested_sets order."""
    return [_coordinates(*_vertex(b, fam), b.mu_inside) for fam in maximal_nested_sets(b)]


def b_tree(b: BuildingSet, family) -> BTree:
    """The B-tree of a maximal nested set: I -> i_I with containment covers."""
    return _vertex(b, _checked_family(b, family))[0]


def vertex_coordinates(b: BuildingSet, family) -> tuple:
    """Integer coordinates of the vertex of P_B at a maximal nested set.

    x_{i_I} = mu(B|_I) - sum of mu(B|_J) over the children J of I; the
    coordinates sum to mu(B).
    """
    tree, member = _vertex(b, _checked_family(b, family))
    return _coordinates(tree, member, b.mu_inside)


def realization_failures(b: BuildingSet) -> list:
    """Vertices violating a facet inequality or the predicted tight set
    (maximal_nested_sets holds b to the nested row)."""
    failures = []
    full, mu_inside = b.full_mask(), b.mu_inside
    for fam in maximal_nested_sets(b):
        x = _coordinates(*_vertex(b, fam), mu_inside)
        if sum(x) != b.mu:
            failures.append({"nested_set": fam, "reason": "hyperplane", "x": x})
            continue
        tight, sums = set(fam), [0]  # sums[s]: the sum of x over the vertices of s
        for xv in x:
            sums += [t + xv for t in sums]
        for s in b.sets:
            if s == full:
                continue
            val = sums[s]
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


def _read(shape: TreeShape) -> tuple:
    """(parent, span) of a shape code's vertices in preorder, in one pass:
    each "(" opens a vertex under the innermost open one, and code[span[v]]
    is v's own code.  Anything but one rooted tree is refused, and so is a
    tree whose children's codes are not in the sorted order forest_shapes
    writes, since one tree has one code."""
    code = shape.code
    if type(code) is str:
        parent, span, v = [], [], None  # v: the innermost open vertex
        last = {}  # last[v]: the code of v's last closed child
        for i, c in enumerate(code):
            if c == "(" and (v is not None or i == 0):
                parent.append(v)
                v = len(span)
                span.append(i)
            elif c == ")" and v is not None:
                span[v] = slice(span[v], i + 1)
                own, v = code[span[v]], parent[v]
                if own < last.get(v, ""):
                    raise InputError(
                        f"tree shape code {code!r} is not canonical: "
                        f"child {own} sorts below its previous sibling {last[v]}"
                    )
                last[v] = own
            else:
                break
        else:
            if parent and v is None:
                return tuple(parent), span
    raise InputError(f"tree shape code {code!r} is not one rooted tree")


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
    """Top-level subtree codes of a shape code, in order."""
    parent, span = _read(shape)
    return [shape.code[sp] for p, sp in zip(parent, span) if p == 0]


def shape_tree(shape: TreeShape) -> BTree:
    """A tree of the given shape, its vertices in the preorder of the code:
    the root is 0, and each child's subtree follows its parent in order."""
    parent = _read(shape)[0]
    return BTree(len(parent), parent)


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


def enumerate_tree_shapes(n: int) -> tuple:
    """All unlabeled rooted trees on n nodes, each once, sorted: a root over
    each forest on n - 1 nodes, forests being nondecreasing tuples of tree
    codes (a tree t on k nodes, then a forest on m - k nodes of trees >= t)."""
    if check_int(n, "tree shape size") < 1:
        raise InputError(f"tree shapes need n >= 1, got {n}")
    check_limit("tree shapes", n)
    trees, forests = [[], ["()"]], [[()]]  # at index m: the codes, the forests on m nodes
    for m in range(1, n):
        forests.append([
            (t,) + rest
            for k in range(1, m + 1)
            for t in trees[k]
            for rest in forests[m - k]
            if not rest or t <= rest[0]
        ])
        trees.append(sorted("(" + "".join(f) + ")" for f in forests[m]))
    return tuple(map(TreeShape, trees[n]))


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


def linear_extensions(tree: BTree) -> list:
    """Linear extensions as permutation words under the decreasing labeling,
    sorted: the tests' oracle of invariants._descents, called by no route.

    The tree is labeled so labels increase from each root toward the leaves;
    a listing of the vertices with children before parents then reads off a
    permutation of 1..n.  The multiset of descent compositions of these
    words is independent of the labeling choice.  The words are listed on a
    table of continuations filled from the full placed set down, over the
    placed sets that hold every child of a vertex they hold.
    """
    n = _forest(tree, "extensions").n
    label, kids = _descending_labels(tree), [mask_of(c) for c in tree.children()]
    full = (1 << n) - 1
    rest = {full: [()]}
    for done in range(full - 1, -1, -1):
        if all(kids[v] & ~done == 0 for v in bits(done)):
            rest[done] = [
                (label[x],) + seq
                for x in range(n)
                if not done >> x & 1 and kids[x] & ~done == 0
                for seq in rest[done | 1 << x]
            ]
    return sorted(rest[0])
