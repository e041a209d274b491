"""Nestohedron enumerators by four independent routes, plus graph checks.

The four routes to the same quasisymmetric function:

  * F_splitting       -- counts splitting chains of the building set, packed,
                         each last block meeting each component at most once
                         (BuildingSet.lowest; _flag_counts counts them),
  * F_btree_route     -- sums tree enumerators over the B-trees at vertices,
  * F_graph_colorings -- counts ordered colorings of the graph, packed, read
                         from the last class back, each class independent
                         in the graph contracted on the set still uncolored
                         (_remaining_blocks; _flag_counts counts them),
  * F_graph_recurrence -- vertex-deletion recurrence with a shift.

ROUTES names the four, each as a function of a graph.

Routes 1 and 3 and the ordered colorings differ only in the sets each
hands _flag_counts per set; route 3 filters each remaining set's blocks
from its parent's, and contracts no graph.

All four routes, the family recurrences and F_of_hopf hold F as one int, a
64-bit slot per composition code (qsym.code_table, see `_terms`): the shift
is a bit shift (`_shift`), and products go through one bounded memo shared
by every call (`_product`).  The recurrence (`_recurrence`) needs only one
component of each restriction, so it serves building sets too: F_of_hopf
runs it on every factor of a word of building sets, with the factor's
component table (BuildingSet.lowest) in place of the graph's neighbourhood
table (graphs._lowest_component).  Its memo is per call.  F and X of an induced
subgraph depend only on that subgraph, so both also go in one memo shared
by every call (`_SUBGRAPHS`), capped at 8,192 entries and keyed on the
subgraph's edge code in the labels of the graph (graphs._pairs_within): a
sweep over classes computes a small subgraph once, not once per class.  X
counts block sizes packed into one integer.

A Hopf check meets the same small minors again and again, so route 1 and
F_of_hopf's recurrence per factor each keep one bounded memo shared by every
call, on building sets of at most _SHARED_W vertices (qsym._gated_memo);
the two stay apart, so that the antipode side is not route 1.

The fundamental expansion (F_fundamental) counts the descent compositions
of the linear extensions of every B-tree.  By Stanley's P-partition theory
that multiset depends only on the tree's shape, so it sums the shapes of
tree_multiset, each times one packed count per shape (_descents, a DP over
placed sets), memoized like the shapes' tree enumerators; no extension is
listed.

Disconnected inputs reduce to component products everywhere (the enumerator
is multiplicative); splitting chains are counted by the component form of
the flag condition, which agrees with the component product without a
connectedness hypothesis.

Everything is pure and exact (no floating point anywhere).
"""

from __future__ import annotations

import random
import sys
from collections import OrderedDict
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from math import comb, factorial, gcd, prod

from . import qsym
from .bitsets import bits, mask_of, singletons, submasks
from .buildset import (
    BuildingSet,
    HopfElement,
    components,
    coproduct,
    from_graph,
    is_connected,
    product,
    takeuchi_antipode,
)
from .errors import LIMITS, InputError, check_int, check_limit
from .graphs import (
    FAMILIES,
    Graph,
    _components_within,
    _independent_sets,
    _lowest_component,
    _neighbourhoods,
    _pairs_within,
    connectivity,
    edge_code,
    enumerate_graphs,
    family,
    independence_fvector,
    to_graph6,
)
from .nestopoly import (
    TreeShape,
    _forest,
    _read,
    child_codes,
    enumerate_tree_shapes,
    forest_shapes,
    shape_tree,
    tree_multiset,
)
from .qsym import (
    QSymElement,
    QSymTensor,
    _gated_memo,
    _mul_d,
    antipode,
    code_table,
    compositions_of,
    mul,
    refinements,
    tensor_product,
)


# ---------------------------------------------------------------------------
# splitting chains

def _splitting_ends(b: BuildingSet):
    """ends(U) of route 1 for _flag_counts.  A member inside U lies in one
    component of B|U, and the components are members, so U's last block
    meets each component in at most one vertex: one or none of each
    component of two or more vertices (the rests are U minus each such
    choice) and any subset of the one-vertex components (free).  ends(U)
    lists each rest minus each submask of free."""
    low = b.lowest

    def ends(U: int) -> list:
        rests, free, left = [U], 0, U
        while left:
            c = low[left]
            left ^= c
            if c & c - 1:
                rests = [r ^ v for r in rests for v in (0, *singletons(c))]
            else:
                free |= c
        return [r ^ f for f in submasks(free) for r in rests] if free else rests

    return ends


def zeta(b: BuildingSet, alpha) -> int:
    """Number of splitting chains whose step sizes are alpha, in order: one
    coefficient of F_splitting(b)."""
    alpha = qsym.composition(alpha)
    if sum(alpha) != b.n:
        raise InputError(f"composition weighs {sum(alpha)}, ground set has {b.n}")
    return F_splitting(b).coeff(alpha)


def F_splitting(b: BuildingSet) -> QSymElement:
    """Monomial expansion by splitting chains, counted by the flag condition
    and read out of the packed count in term order."""
    check_limit("splitting", b.n)
    return _splitting(b)


_SHARED_W = 6  # F is shared on at most 6 vertices, at most 256 bytes a value


# Keyed on (n, sets): over the 2,000 seed-1 `hopf` inputs, 151,280 calls on
# 4,274 distinct sets, 96 % hits.  An entry holds at most 63 members and 32
# terms, about 4 KB; full, 0.8 MiB after those inputs (tracemalloc).
@_gated_memo(lambda b: b.n <= _SHARED_W, 1024)
def _splitting(b: BuildingSet) -> QSymElement:
    return QSymElement("M", *_terms(_flag_counts(b.n, _splitting_ends(b)), b.n))


# ---------------------------------------------------------------------------
# packed enumerators

def _terms(value: int, w: int) -> tuple:
    """(keys, coeffs) of F on w vertices packed into one int, 64-bit slot i
    holding the coefficient of the composition with code i
    (qsym.code_table).  A coefficient counts ordered set partitions of one
    type, so it is at most w! < 2^64, as code_table refuses w > 17: slots
    never carry.  The nonzero slots are read in code_table's term order,
    so an element built on the two tuples needs no sort, and its keys are
    code_table's compositions."""
    slots = memoryview(value.to_bytes(8 << max(w - 1, 0), sys.byteorder)).cast("Q")
    order = code_table(w)[2]
    # two passes, no transient (key, coeff) pairs: pairs transposed by zip
    # left about 0.2 MiB of freed tuples on the interpreter's free lists
    keys = tuple([alpha for i, alpha in order if slots[i]])
    return keys, tuple([c for i, _ in order if (c := slots[i])])


def _shift(value: int, w: int) -> int:
    """M_alpha -> M_(alpha,1) on a packed F of w vertices: appending a part 1
    sets code bit w - 1, so every slot moves up 2^(w - 1) places."""
    return value << 64 * (1 << w >> 1)


def _flag_counts(n: int, ends) -> int:
    """The ordered set partitions of [n] that a route admits, counted by
    step sizes and packed as in _terms.  ends(U) lists the sets covered
    before U's last block.  Counts fill in increasing order of U, each the
    sum of those sets' counts shifted by their sizes: a block appended to
    w vertices is _shift(value, w), whatever its size.  The empty block
    (U itself) reads U's own slot, still 0.  Route 1's U is a covered set;
    route 3 walks a coloring from its last class, so its U is a remaining
    set, the blocks come in reverse, and so do the step sizes of the
    count."""
    shifted = [1] + [0] * ((1 << n) - 1)  # shifted[U]: U's count, shifted by |U|
    read, value = shifted.__getitem__, 1
    for U in range(1, 1 << n):
        value = sum(map(read, ends(U)))
        shifted[U] = _shift(value, U.bit_count())
    return value


@lru_cache(maxsize=1024)
def _product(a: int, u: int, b: int, v: int) -> int:
    """Packed F on u vertices times packed F on v vertices, packed again.
    F on 0 vertices is a scalar, packed as itself, so a weight 0 scales.

    One bounded memo serves every call: a sweep over classes meets few
    distinct products (71 over the 853 connected classes at n = 7).
    """
    if not u or not v:
        return a * b
    code_of = code_table(u + v)[1]
    packed = bytearray(8 * len(code_of))
    slots = memoryview(packed).cast("Q")
    for alpha, c in _mul_d(zip(*_terms(a, u)), zip(*_terms(b, v))).items():
        slots[code_of[alpha]] = c
    return int.from_bytes(packed, sys.byteorder)


def _fold(factors) -> tuple:
    """(packed product, weight) of (packed F, weight) pairs."""
    value, w = 1, 0
    for a, u in factors:
        value, w = _product(value, w, a, u), w + u
    return value, w


# ---------------------------------------------------------------------------
# tree enumerators

@lru_cache(maxsize=None)
def _f_shape(code: str) -> int:
    """Packed F of a tree shape: its subtrees' product, shifted."""
    subtrees = [(_f_shape(child), child.count("(")) for child in child_codes(TreeShape(code))]
    return _shift(*_fold(subtrees))


def F_tree(tree) -> QSymElement:
    """Enumerator of strictly root-increasing maps on a tree or forest."""
    if isinstance(tree, TreeShape):
        check_limit("tree enumerators", len(_read(tree)[0]))
        shapes = (tree,)
    else:
        shapes = forest_shapes(_forest(tree, "tree enumerators"))
    return QSymElement("M", *_terms(*_fold((_f_shape(sh.code), sh.size) for sh in shapes)))


def F_btree_route(b: BuildingSet) -> QSymElement:
    """Sum of tree enumerators over all B-trees; components multiply."""
    sums = [
        (sum(mult * _f_shape(sh.code) for sh, mult in tree_multiset(comp).items()), comp.n)
        for _, comp in components(b)
    ]
    return QSymElement("M", *_terms(*_fold(sums)))


# ---------------------------------------------------------------------------
# graph routes

def F_graph_colorings(g: Graph) -> QSymElement:
    """Enumerator of ordered colorings: each color class is discrete after
    contracting all smaller color classes.

    Counted on _flag_counts, the coloring read from its last class back:
    U, the union of a class and every later one, is the set still
    uncolored when that class is chosen, and the class is any independent
    set of the graph contracted on U (_remaining_blocks); ends(U) is U
    minus each.  The count holds the reversed compositions, re-packed at
    code_table's keys."""
    check_limit("colorings", g.n)
    n = g.n
    blocks = _remaining_blocks(g)
    ends = lambda U: [U ^ s for s in blocks[U]]

    code_of = code_table(n)[1]
    terms = zip(*_terms(_flag_counts(n, ends), n))
    return QSymElement("M", *_terms(sum([c << 64 * code_of[k[::-1]] for k, c in terms]), n))


def _remaining_blocks(g: Graph) -> list:
    """blocks[U]: the independent sets of g contracted on U, for every
    remaining set U.  That graph depends on U alone (uncolored u ~ w iff
    some u-w path in g has only colored inner vertices), and one list
    filters its parent's, from the full set down: contracting U's lowest
    missing vertex low in the graph on U | low only joins the vertices of
    U around it, those next to low's component in g outside U.  So a
    block of U is a block of U | low that misses low and meets them at
    most once."""
    full = (1 << g.n) - 1
    nbr = _neighbourhoods(g.adj)
    blocks = [None] * full + [_independent_sets(g.adj, full)]
    for U in range(full - 1, -1, -1):
        low = ~U & U + 1  # U's lowest missing vertex
        comp, out = low, full ^ U
        while (grown := comp | nbr[comp] & out) != comp:
            comp = grown
        around = nbr[comp] & U
        blocks[U] = [s for s in blocks[U | low] if not s & low and not (t := s & around) & t - 1]
    return blocks


# F and X of induced subgraphs, shared by every call (see _recurrence and
# _block_counts): both depend only on the subgraph, so a value found in one
# graph serves every graph that induces the same labeled subgraph.
_SUBGRAPHS = OrderedDict()
_SUBGRAPHS_MAXSIZE = 8192  # full: 3.0 MiB (F, n = 8) to 5.8 MiB (X, n = 11), tracemalloc


def _remember(key, value):
    """Store value in _SUBGRAPHS, dropping the oldest entry past the cap."""
    _SUBGRAPHS[key] = value
    if len(_SUBGRAPHS) > _SUBGRAPHS_MAXSIZE:
        _SUBGRAPHS.popitem(last=False)


def _recurrence(n: int, first, code: int | None = None) -> int:
    """F by vertex deletion, packed as below, memoized on the surviving
    vertex set; first(mask) is one component of the restriction.

    The memo and the result hold F packed as in _terms.  Connected: the
    deletions' sum, shifted.  Disconnected: first component times the rest,
    through _product; slot 2^(w - 1) - 1 holds w! > 0, so length fixes w.
    Given a graph's edge code, a connected mask of 2 <= w <= n - 2 vertices,
    w <= _SHARED_W, is also looked up in, and on a miss stored in,
    _SUBGRAPHS, keyed on the code of the subgraph it induces: with an edge
    at every vertex, that code fixes the vertex set.  Larger subgraphs are
    met again less often (over the connected classes at n = 8, 6 % of the
    lookups on 7 vertices hit, 55 % on 5) and would each push out many
    small values.  The per-call memo stays, since the shared one is bounded.
    """
    memo = {0: 1}
    top, pairs = 0, None
    if code is not None:
        top, pairs = min(n - 2, _SHARED_W), _pairs_within(n)
    shared = _SUBGRAPHS.get

    def rec(mask: int) -> int:
        hit = memo.get(mask)
        if hit is None:
            w = mask.bit_count()
            comp = first(mask)
            if comp != mask:
                a, b = rec(comp), rec(mask ^ comp)
                u = comp.bit_count()
                hit = _product(a, u, b, w - u) if a <= b else _product(b, w - u, a, u)
            else:
                key = 1 < w <= top and code & pairs[mask]
                hit = key and shared(key)
                if not hit:  # a packed F is never 0
                    hit, left = 0, mask
                    while left:
                        low = left & -left
                        hit += memo.get(mask ^ low) or rec(mask ^ low)
                        left ^= low
                    hit = _shift(hit, w - 1)
                    if key:
                        _remember(key, hit)
            memo[mask] = hit
        return hit

    out = rec((1 << n) - 1)
    del rec  # rec's closure is a cycle; the memo goes with the call
    return out


def _packed_F(g: Graph) -> int:
    """F of a graph packed as in _recurrence: equal integers are equal F."""
    check_limit("recurrence", g.n)
    return _recurrence(g.n, _lowest_component(g), edge_code(g))


def F_graph_recurrence(g: Graph) -> QSymElement:
    """Vertex-deletion recurrence over the components of induced subgraphs."""
    return QSymElement("M", *_terms(_packed_F(g), g.n))


ROUTES = {
    "splitting": lambda g: F_splitting(from_graph(g)),
    "trees": lambda g: F_btree_route(from_graph(g)),
    "colorings": F_graph_colorings,
    "recurrence": F_graph_recurrence,
}


# ---------------------------------------------------------------------------
# fundamental basis and the antipode image

@lru_cache(maxsize=None)
def _descents(code: str) -> int:
    """The descent compositions of the linear extensions of one tree of a
    shape, counted and packed as in _terms (one slot per composition code).
    By Stanley's P-partition theory that multiset depends only on the
    shape, so one tree serves every B-tree of the shape, labeled by its
    preorder index, which increases away from the root (shape_tree).
    The nested row bounds the memo: 200 shapes on at most 8 nodes.

    No extension is listed.  table[U][x] counts the orderings of a placed
    set U (every child placed before its parent) that end at x; x can end U
    iff U - x is such a set and holds x's children.  A word's descents are
    its descent composition's partial sums, so they are its code: placing x
    after v, with k vertices placed before it, sets code bit k - 1 when
    v > x, the shift of route 1 (_shift)."""
    tree = shape_tree(TreeShape(code))
    kids = [mask_of(c) for c in tree.children()]
    table = {0: {-1: 1}}
    for U in range(1, 1 << tree.n):
        k, row = U.bit_count() - 1, {}
        for x in bits(U):
            prev = table.get(U ^ 1 << x)
            if prev is not None and kids[x] & ~U == 0:
                row[x] = sum([_shift(c, k) if v > x else c for v, c in prev.items()])
        if row:
            table[U] = row
    return sum(table[(1 << tree.n) - 1].values())


def F_fundamental(b: BuildingSet) -> QSymElement:
    """Positive fundamental expansion from linear extensions of B-trees:
    each shape of tree_multiset, times its multiplicity, adds its descent
    compositions (_descents).  The slots sum to F's coefficient of
    M_(1^n), n!, so none carries; the nested row bounds b."""
    if not is_connected(b):
        raise InputError("fundamental route requires a connected building set")
    if b.n == 0:
        return qsym.one("L")  # one vertex, whose empty B-tree has no shape
    value = sum(mult * _descents(sh.code) for sh, mult in tree_multiset(b).items())
    return QSymElement("L", *_terms(value, b.n))


def F_star(b: BuildingSet) -> QSymElement:
    """Antipode image of the enumerator, in the fundamental basis."""
    return antipode(F_fundamental(b))


# ---------------------------------------------------------------------------
# chromatic symmetric function

@dataclass(frozen=True, repr=False, slots=True)
class SymElement(qsym.Combination):
    """Integer combination of monomial symmetric functions m_mu."""

    keys: tuple  # partitions, in canonical order
    coeffs: tuple

    basis = "m"  # a class attribute, not a field: read by qsym.render
    sort_key = staticmethod(qsym.term_key)

    def __str__(self):
        return qsym.render(self)


def chromatic_symmetric(g: Graph) -> SymElement:
    """Stanley's chromatic symmetric function in the monomial basis.

    c_mu is the number of proper colorings whose i-th color class has size
    mu_i, i.e. color slots of equal size count as distinguishable.  This is
    the unique convention under which every ordered-coloring coefficient is
    dominated by c_{sort(alpha)}; it also matches the literal monomial
    coefficient of x_1^{mu_1} x_2^{mu_2} ... in the power series.  So c_mu
    is the ordered-coloring count of the composition mu itself.

    It is computed from the unordered partitions of the vertices into
    independent sets, counted by their block sizes: each block takes the
    lowest vertex not yet covered, memoized on the uncovered mask, per call
    and in _SUBGRAPHS, there keyed on (n, mask, code of the subgraph it
    induces).  The blocks of that vertex v are v joined to each independent
    subset of the uncovered vertices outside v's neighbourhood
    (graphs._independent_sets), so no block is tested.  The block sizes
    are kept as one integer, sum_k m_k (n + 1)^(k - 1) with m_k the
    number of blocks of size k, so adding a block adds a constant.  Ordering
    the blocks into the color slots of mu gives prod_k m_k! colorings per
    partition; _partitions(n) pairs each key with its mu and that factor, in
    term order, so the terms need no decoding and no sort.
    """
    whole = _block_counts(g)
    parts = _partitions(g.n)
    keys = tuple([mu for key, mu, _ in parts if key in whole])
    return SymElement(keys, tuple([whole[key] * ways for key, _, ways in parts if key in whole]))


@lru_cache(maxsize=None)
def _partitions(n: int) -> tuple:
    """(block-size key, partition mu, prod_k m_k!) for every partition of n,
    in term order: the compositions of n whose parts do not increase.
    Bounded by the chromatic row."""
    check_limit("chromatic", n)
    out = []
    for mu in compositions_of(n):
        if all(a >= b for a, b in zip(mu, mu[1:])):
            ways = prod(factorial(mu.count(k)) for k in set(mu))
            out.append((sum((n + 1) ** (k - 1) for k in mu), mu, ways))
    return tuple(out)


def _block_counts(g: Graph) -> dict:
    """{block-size key: partitions of the vertices into independent sets
    with those block sizes}, keyed as in chromatic_symmetric."""
    check_limit("chromatic", g.n)
    n, adj = g.n, g.adj
    full = (1 << n) - 1
    code, pairs = edge_code(g), _pairs_within(n)
    step = [(n + 1) ** (k - 1) for k in range(n + 1)]  # one block of size k
    memo = {0: {0: 1}}

    def rest(left: int) -> dict:
        hit = memo.get(left)
        if hit is None:
            key = (n, left, code & pairs[left])
            hit = _SUBGRAPHS.get(key)
            if hit is None:
                hit = {}
                low = left & -left
                for s in _independent_sets(adj, left & ~(low | adj[low.bit_length() - 1])):
                    blk = s | low
                    inc = step[blk.bit_count()]
                    for sizes, c in rest(left ^ blk).items():
                        sizes += inc
                        hit[sizes] = hit.get(sizes, 0) + c
                if left != full:
                    _remember(key, hit)
            memo[left] = hit
        return hit

    whole = rest(full)
    del rest  # rest's closure is a cycle; the memo goes with the call
    return whole


def ordered_colorings_by_type(g: Graph) -> dict:
    """Proper-coloring ordered set partitions counted by size sequence:
    any independent subset of U may end U (graphs._independent_sets)."""
    check_limit("chromatic", g.n)
    ends = lambda U: [U ^ s for s in _independent_sets(g.adj, U)]
    return dict(zip(*_terms(_flag_counts(g.n, ends), g.n)))


# ---------------------------------------------------------------------------
# coefficient properties of the graph invariant

def check_thm72(g: Graph) -> dict:
    """Verify the coefficient properties of the ordered-coloring expansion.

    (a) hook coefficients against the independence complex f-vector,
    (b) the vanishing pattern for q-connected graphs,
    (c) the separator enumeration for types (1^{n-q-k}, k, 1^q): the exact
        count uses one vertex from each of k distinct components of the
        graph minus a q-set (an elementary symmetric function of the
        component sizes); the weaker published phrasing, which sums only
        over q-sets leaving exactly k components, is reported alongside,
    (d) monotonicity under refinement,
    (e) domination by the chromatic coefficients, whose row bounds g.
    The ordered-coloring counts are F's, read from the recurrence route.
    """
    check_limit("chromatic", g.n)
    n = g.n
    zd = F_graph_recurrence(g).as_dict()

    fvec = independence_fvector(g)
    a_cases = []
    for k in range(1, n + 1):
        alpha = (k,) + (1,) * (n - k)
        fk = fvec[k] if k < len(fvec) else 0
        a_cases.append(
            {"k": k, "zeta": zd.get(alpha, 0), "expected": factorial(n - k) * fk}
        )
    a_ok = all(c["zeta"] == c["expected"] for c in a_cases)

    kappa = connectivity(g)
    b_viol = []
    for q in range(1, kappa + 1):
        for alpha, c in zd.items():
            k = len(alpha)
            if c and any(alpha[j] > 1 for j in range(max(k - q, 0), k)):
                b_viol.append({"q": q, "alpha": alpha, "zeta": c})
    b_ok = not b_viol

    c_cases = []
    full = (1 << n) - 1
    for q in range(1, kappa + 1):
        # component sizes of g minus each q-set S of separator vertices
        seps = [
            [c.bit_count() for c in _components_within(g, full & ~mask_of(S))]
            for S in combinations(range(n), q)
        ]
        for k in range(2, n - q + 1):
            lead = n - q - k
            scale = factorial(lead) * factorial(q)
            transversal = sum(prod(p) for sizes in seps for p in combinations(sizes, k))
            literal = sum(prod(sizes) for sizes in seps if len(sizes) == k)
            c_cases.append(
                {
                    "q": q,
                    "k": k,
                    "zeta": zd.get((1,) * lead + (k,) + (1,) * q, 0),
                    "transversal": scale * transversal,
                    "literal": scale * literal,
                }
            )
    c_ok = all(c["zeta"] == c["transversal"] for c in c_cases)
    c_literal_ok = all(c["zeta"] == c["literal"] for c in c_cases)

    d_viol = []
    for alpha in compositions_of(n):
        za = zd.get(alpha, 0)
        for beta in refinements(alpha):
            if za > zd.get(beta, 0):
                d_viol.append({"alpha": alpha, "beta": beta})
    d_ok = not d_viol

    X = chromatic_symmetric(g)
    cd = X.as_dict()
    e_viol = []
    for alpha, c in zd.items():
        mu = tuple(sorted(alpha, reverse=True))
        if c > cd.get(mu, 0):
            e_viol.append({"alpha": alpha, "zeta": c, "c_mu": cd.get(mu, 0)})
    e_ok = not e_viol

    return {
        "a": {"holds": a_ok, "cases": a_cases},
        "b": {"holds": b_ok, "violations": b_viol, "connectivity": kappa},
        "c": {"holds": c_ok, "paper_literal_holds": c_literal_ok, "cases": c_cases},
        "d": {"holds": d_ok, "violations": d_viol},
        "e": {"holds": e_ok, "violations": e_viol},
        "passed": a_ok and b_ok and c_ok and d_ok and e_ok,
    }


# ---------------------------------------------------------------------------
# the four classical families

_FAMILY_NAMES = {name: f for f in FAMILIES for name in (f.alias, f.polytope)}


def _family(kind: str, n: int):
    """The row of graphs.FAMILIES named by its alias or its polytope, at n >= 0."""
    if kind not in _FAMILY_NAMES:
        raise InputError(f"unknown polytope family {kind!r}")
    if check_int(n, "family index") < 0:
        raise InputError("family index must be >= 0")
    return _FAMILY_NAMES[kind]


def family_F(kind: str, n: int) -> QSymElement:
    """Enumerator of the n-vertex member of a classical family, by recurrence."""
    kind = _family(kind, n).polytope
    check_limit("family", n)
    return QSymElement("M", *_terms(_family_packed(kind, n), n))


def _family_packed(kind: str, n: int) -> int:
    """family_F packed, by each family's shift recurrence: the values on
    0, ..., n vertices filled in order, each from the ones below it."""
    if kind == "cyclohedron":  # n times the associahedron below, shifted
        return n * _shift(_family_packed("associahedron", n - 1), n - 1) if n else 1
    F = [1]  # the point
    for m in range(1, n + 1):
        if kind == "associahedron":
            below = sum(_product(F[k], k, F[m - 1 - k], m - 1 - k) for k in range(m))
        elif kind == "stellohedron":  # M_(1) is packed as 1 on one vertex
            below = (m - 1) * F[m - 1] + _fold([(1, 1)] * (m - 1))[0]
        else:  # permutohedron
            below = m * F[m - 1]
        F.append(_shift(below, m - 1))
    return F[n]


def family_graph(kind: str, n: int) -> Graph:
    graph_kind = _family(kind, n).graph
    if n == 0:
        return Graph(0, ())  # the point, which `family` refuses
    if graph_kind == "cycle" and n < 3:
        graph_kind = "path"  # C_1, C_2 degenerate to the path cases
    return family(graph_kind, n)


def family_recurrence_check(kind: str, n: int) -> bool:
    """Recurrence value == vertex-deletion route on the defining graph."""
    return family_F(kind, n) == F_graph_recurrence(family_graph(kind, n))


def family_vertex_counts(n: int) -> tuple:
    """(p_n, a_n, c_n, s_n) closed forms."""
    if check_int(n, "family index") < 1:
        raise InputError(f"family counts need n >= 1, got {n}")
    check_limit("family", n)
    p = factorial(n)
    a = comb(2 * n, n) // (n + 1)
    c = comb(2 * n - 2, n - 1)
    s = 1
    for k in range(2, n + 1):
        s = (k - 1) * s + 1
    return p, a, c, s


# ---------------------------------------------------------------------------
# linear dependence of tree enumerators

def tree_matrix_kernel(n: int) -> tuple:
    """Rank and integer kernel of the tree-enumerator matrix at size n.

    Rows are the enumerators of all unlabeled rooted trees on n nodes,
    written in the monomial basis; the kernel rows are primitive integer
    dependence relations among them (empty when independent).
    """
    check_limit("kernel", check_int(n, "kernel size"))
    shapes = enumerate_tree_shapes(n)  # refuses n < 1
    rows, cols = [], compositions_of(n)
    for sh in shapes:
        coeff = dict(zip(*_terms(_f_shape(sh.code), n)))
        rows.append([coeff.get(alpha, 0) for alpha in cols])
    return _integer_kernel(rows)


def _integer_kernel(rows: list) -> tuple:
    """Fraction-free Gaussian elimination over Z: (rank, primitive kernel
    rows).  No later step reads a row above a pivot, so only those below are cleared."""
    m = len(rows)
    ncols = len(rows[0]) if rows else 0
    aug = [list(r) + [1 if j == i else 0 for j in range(m)] for i, r in enumerate(rows)]
    rank = 0
    for c in range(ncols):
        piv = next((r for r in range(rank, m) if aug[r][c]), None)
        if piv is None:
            continue
        aug[rank], aug[piv] = aug[piv], aug[rank]
        pivot = aug[rank][c]
        for r in range(rank + 1, m):
            if f := aug[r][c]:
                aug[r] = _primitive([pivot * x - f * y for x, y in zip(aug[r], aug[rank])])
        rank += 1
    kernel = []
    for r in range(rank, m):
        row = aug[r]
        assert all(x == 0 for x in row[:ncols])
        kernel.append(tuple(_primitive(row[ncols:])))
    return rank, kernel


def _primitive(row: list) -> list:
    g = gcd(*row)
    if g > 1:
        row = [x // g for x in row]
    lead = next((x for x in row if x), 0)
    if lead < 0:
        row = [-x for x in row]
    return row


# ---------------------------------------------------------------------------
# collision search

@dataclass(frozen=True)
class CollisionReport:
    n: int
    invariant: str
    connected_only: bool
    class_count: int
    value_count: int
    collisions: tuple  # tuples of graph6 codes sharing one invariant value
    f_separates: bool | None  # for X: does F split every colliding group?


def collision_search(n: int, invariant: str = "F", connected_only: bool = False) -> CollisionReport:
    """Group isomorphism classes by invariant value and report collisions."""
    if invariant not in ("F", "X"):
        raise InputError(f"invariant must be F or X, got {invariant!r}")
    graphs = enumerate_graphs(n, connected_only)
    value = _packed_F if invariant == "F" else chromatic_symmetric
    groups: dict = {}
    for g in graphs:
        groups.setdefault(value(g), []).append(g)
    # Only shared values are rendered: the groups are listed in text order.
    text = (lambda v: qsym.render(QSymElement("M", *_terms(v, n)))) if invariant == "F" else str
    shared = {text(v): grp for v, grp in groups.items() if len(grp) > 1}
    collisions = tuple(tuple(to_graph6(g) for g in shared[t]) for t in sorted(shared))
    f_separates = None
    if invariant == "X":
        f_separates = all(
            len({_packed_F(g) for g in grp}) == len(grp) for grp in shared.values()
        )
    return CollisionReport(
        n=n,
        invariant=invariant,
        connected_only=connected_only,
        class_count=len(graphs),
        value_count=len(groups),
        collisions=collisions,
        f_separates=f_separates,
    )


# ---------------------------------------------------------------------------
# Hopf morphism checks

def F_of_hopf(h: HopfElement) -> QSymElement:
    """Extend the enumerator linearly over words, multiplicatively over factors.

    Each distinct factor runs the recurrence once per call (memoized across
    calls on at most _SHARED_W vertices), over the components of the
    building set (the lowest, read off BuildingSet.lowest), and the factors
    multiply through the product memo the graph route uses.  Words with
    equal packed products add their coefficients first, so each distinct
    product is decoded once.  F of a word is F of the product building
    set, so the word's total weight, summed from the factors looked up
    once each, is held to the recurrence row, and a factor past it is
    refused before it runs.
    """
    by_factor, by_product = {}, {}
    for word, c in zip(h.keys, h.coeffs):
        pairs = []
        for factor in word:
            a = by_factor.get(factor)
            if a is None:
                check_limit("recurrence", factor.n)
                a = by_factor[factor] = _factor_F(factor)
            pairs.append((a, factor.n))
        check_limit("recurrence", sum([u for _, u in pairs]))
        key = _fold(pairs)
        by_product[key] = by_product.get(key, 0) + c
    acc = {}
    for key, c in by_product.items():
        for alpha, x in zip(*_terms(*key)):
            acc[alpha] = acc.get(alpha, 0) + c * x
    return QSymElement.of(acc, basis="M")


# Apart from _splitting's memo, so that the antipode side is not route 1;
# gated like it (44,553 lookups on 4,273 distinct factors, 86 % hits).
@_gated_memo(lambda factor: factor.n <= _SHARED_W, 1024)
def _factor_F(factor: BuildingSet) -> int:
    """Packed F of one factor, by the recurrence over its components."""
    return _recurrence(factor.n, factor.lowest.__getitem__)


def hopf_morphism_check(b: BuildingSet) -> dict:
    """Check that the enumerator intertwines product, coproduct and antipode.

    The product check multiplies b by a probe building set: b itself when
    2n <= the splitting limit - 2, else the K_2 building set.  The antipode
    check sets F_of_hopf of the Takeuchi antipode (the recurrence, per
    factor) against the qsym antipode of F_splitting(b).
    """
    S_image = F_of_hopf(takeuchi_antipode(b))  # first: the takeuchi row refuses b
    small = 2 * b.n <= LIMITS["splitting"].limit - 2
    probe = b if small else from_graph(family("complete", 2))
    Fb = F_splitting(b)
    product_ok = F_splitting(product(b, probe)) == mul(Fb, F_splitting(probe))
    coproduct_ok = qsym.coproduct(Fb) == _coproduct_image(b)
    antipode_ok = S_image == antipode(Fb)
    return {
        "product": product_ok,
        "coproduct": coproduct_ok,
        "antipode": antipode_ok,
        "probe_n": probe.n,
        "passed": product_ok and coproduct_ok and antipode_ok,
    }


def _coproduct_image(b: BuildingSet) -> QSymTensor:
    """The sum over I of F(B|I) (x) F(B/I): the 2^n pieces add into one
    dict, sorted once (pairwise sums re-sort at every new key)."""
    acc = {}
    for _, left, right in coproduct(b):
        piece = tensor_product(F_splitting(left), F_splitting(right))
        for k, c in zip(piece.keys, piece.coeffs):
            acc[k] = acc.get(k, 0) + c
    return QSymTensor.of(acc)


def random_building_sets(count: int, seed: int = 20250809, max_n: int = 4) -> list:
    """Deterministic sample of valid building sets, by union-closing random families.

    There are only so many building sets to draw (2 on 2 vertices, 12 on 3,
    420 on 4), so the draws stop with an InputError once a run of draws
    that bring no new set is 10,000 times as long as the list so far.
    Collecting all 434 for max_n = 4 (seeds 1, 7 and 20250809) took runs
    of at most 95,342 such draws."""
    if check_int(count, "count") < 0:
        raise InputError(f"count must be >= 0, got {count}")
    if check_int(max_n, "max_n") < 2:
        raise InputError(f"max_n must be >= 2, got {max_n}")
    rng = random.Random(seed)
    out, seen, stale = [], set(), 0
    while len(out) < count:
        if stale > 10_000 * len(out):
            raise InputError(
                f"count={count} building sets not found on 2..max_n={max_n} vertices: "
                f"{stale} draws in a row brought none new after {len(out)}"
            )
        n = rng.randint(2, max_n)
        full = (1 << n) - 1
        masks = {1 << v for v in range(n)}
        for _ in range(rng.randint(0, 2 * n)):
            masks.add(rng.randint(1, full))
        changed = True
        while changed:
            changed = False
            for a in list(masks):
                for bm in list(masks):
                    if a & bm and (a | bm) not in masks:
                        masks.add(a | bm)
                        changed = True
        bset = BuildingSet(n, tuple(sorted(masks)))
        key = (n, bset.sets)
        if key not in seen:
            seen.add(key)
            out.append(bset)
            stale = 0
        else:
            stale += 1
    return out
