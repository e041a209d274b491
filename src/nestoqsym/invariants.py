"""Nestohedron enumerators by four independent routes, plus graph checks.

The four routes to the same quasisymmetric function:

  * F_splitting       -- counts splitting chains of the building set by the
                         flag condition (splitting_chains lists them, the
                         brute-force oracle),
  * F_btree_route     -- sums tree enumerators over the B-trees at vertices,
  * F_graph_colorings -- counts ordered colorings of the graph,
  * F_graph_recurrence -- vertex-deletion recurrence with a shift.

Disconnected inputs reduce to component products everywhere (the enumerator
is multiplicative); splitting chains are enumerated by the verbatim flag
condition, which agrees with the component product without a connectedness
hypothesis.

Everything is pure and exact (no floating point anywhere).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from math import comb, factorial

from . import qsym
from .bitsets import bits, nonempty_submasks
from .buildset import (
    BuildingSet,
    HopfElement,
    OrderedSetPartition,
    components,
    coproduct,
    from_graph,
    is_connected,
    product,
    takeuchi_antipode,
)
from .errors import CapacityError, InputError
from .graphs import (
    Graph,
    _components_within,
    components as graph_components,
    connectivity,
    enumerate_graphs,
    family,
    independence_fvector,
    induced,
    to_graph6,
)
from .nestopoly import (
    TreeShape,
    b_tree,
    child_codes,
    enumerate_tree_shapes,
    forest_shapes,
    linear_extensions,
    maximal_nested_sets,
    tree_multiset,
)
from .qsym import (
    QSymElement,
    antipode,
    compositions_of,
    descent_composition,
    mul,
    one,
    refinements,
    shift1,
    tensor_product,
    vertex_count,
    zero,
)

ZETA_CAP = 9
SPLITTING_CAP = 8
COLORINGS_CAP = 8
RECURRENCE_CAP = 11
FUNDAMENTAL_CAP = 7
TREE_PARTITION_CAP = 12
FAMILY_RECURRENCE_CAP = 9
FAMILY_COUNT_CAP = 10
THM72_CAP = 7
KERNEL_CAP = 7
HOPF_CHECK_CAP = 5


# ---------------------------------------------------------------------------
# splitting chains

def _pair_index(b: BuildingSet) -> dict:
    """(u, v) -> members containing both, smallest first (fast early exit)."""
    idx = {}
    for s in sorted(b.sets, key=int.bit_count):
        if s.bit_count() < 2:
            continue
        vs = list(bits(s))
        for i, u in enumerate(vs):
            for v in vs[i + 1 :]:
                idx.setdefault((u, v), []).append(s)
    return idx


def _block_ok(pair_index, done: int, block: int) -> bool:
    # (B restricted to done|block) / done is discrete iff no member inside
    # done|block meets block in >= 2 vertices; singleton blocks pass outright
    if block & (block - 1) == 0:
        return True
    inside = done | block
    vs = list(bits(block))
    for i, u in enumerate(vs):
        for v in vs[i + 1 :]:
            for s in pair_index.get((u, v), ()):
                if s & ~inside == 0:
                    return False
    return True


def splitting_chains(b: BuildingSet) -> list:
    """Every splitting chain, as the ordered set partition of its steps."""
    if b.n > SPLITTING_CAP:
        raise CapacityError(f"splitting chains capped at n <= {SPLITTING_CAP}")
    pairs = _pair_index(b)
    full = (1 << b.n) - 1
    out = []

    def rec(done: int, blocks: tuple):
        if done == full:
            out.append(OrderedSetPartition(b.n, blocks))
            return
        for blk in nonempty_submasks(full & ~done):
            if _block_ok(pairs, done, blk):
                rec(done | blk, blocks + (blk,))

    rec(0, ())
    return out


def _flag_dp(n: int, admissible) -> dict:
    """Ordered set partitions of [n] whose every block passes
    admissible(done, block), counted by block-size sequence.

    The count of the continuations depends on the covered mask alone, so it
    is memoized on it: each (done, block) pair is tested once, 3^n tests.
    """
    full = (1 << n) - 1
    memo = {full: {(): 1}}

    def rest(done: int) -> dict:
        hit = memo.get(done)
        if hit is None:
            hit = {}
            for blk in nonempty_submasks(full & ~done):
                if admissible(done, blk):
                    k = blk.bit_count()
                    for sizes, c in rest(done | blk).items():
                        key = (k,) + sizes
                        hit[key] = hit.get(key, 0) + c
            memo[done] = hit
        return hit

    return rest(0)


def _splitting_types(b: BuildingSet) -> dict:
    pairs = _pair_index(b)
    return _flag_dp(b.n, lambda done, blk: _block_ok(pairs, done, blk))


def zeta(b: BuildingSet, alpha) -> int:
    """Number of splitting chains whose step sizes are alpha, in order."""
    alpha = qsym.composition(alpha)
    if sum(alpha) != b.n:
        raise InputError(f"composition weighs {sum(alpha)}, ground set has {b.n}")
    if b.n > ZETA_CAP:
        raise CapacityError(f"zeta enumeration capped at n <= {ZETA_CAP}")
    return _splitting_types(b).get(alpha, 0)


def F_splitting(b: BuildingSet) -> QSymElement:
    """Monomial expansion by splitting chains, counted by the flag condition."""
    if b.n > SPLITTING_CAP:
        raise CapacityError(f"splitting-chain route capped at n <= {SPLITTING_CAP}")
    return qsym.element("M", _splitting_types(b))


# ---------------------------------------------------------------------------
# tree enumerators

@lru_cache(maxsize=None)
def _f_shape(code: str) -> QSymElement:
    prod = one("M")
    for child in child_codes(TreeShape(code)):
        prod = mul(prod, _f_shape(child))
    return shift1(prod)


def F_tree(tree) -> QSymElement:
    """Enumerator of strictly root-increasing maps on a tree or forest."""
    if isinstance(tree, TreeShape):
        shapes = (tree,)
    else:
        if tree.n > TREE_PARTITION_CAP:
            raise CapacityError(
                f"tree enumerators capped at n <= {TREE_PARTITION_CAP}"
            )
        shapes = forest_shapes(tree)
    out = one("M")
    for sh in shapes:
        out = mul(out, _f_shape(sh.code))
    return out


def F_btree_route(b: BuildingSet) -> QSymElement:
    """Sum of tree enumerators over all B-trees; components multiply."""
    if b.n == 0:
        return one("M")
    if is_connected(b):
        out = zero("M")
        for sh, mult in sorted(tree_multiset(b).items()):
            out = out + _f_shape(sh.code).scale(mult)
        return out
    out = one("M")
    for _, comp in components(b):
        out = mul(out, F_btree_route(comp))
    return out


# ---------------------------------------------------------------------------
# graph routes

def F_graph_colorings(g: Graph) -> QSymElement:
    """Enumerator of ordered colorings: each color class is discrete after
    contracting all smaller color classes."""
    if g.n > COLORINGS_CAP:
        raise CapacityError(f"ordered-coloring route capped at n <= {COLORINGS_CAP}")
    full = (1 << g.n) - 1
    acc = {}

    def rec(adj: tuple, remaining: int, sizes: tuple):
        if remaining == 0:
            acc[sizes] = acc.get(sizes, 0) + 1
            return
        for blk in nonempty_submasks(remaining):
            if any(adj[v] & blk for v in bits(blk)):
                continue  # not independent in the contracted graph
            rest = remaining & ~blk
            new_adj = list(adj)
            for u in bits(rest):
                extra = 0
                for w in bits(adj[u] & blk):
                    extra |= adj[w]
                new_adj[u] = (adj[u] | extra) & rest & ~(1 << u)
            rec(tuple(new_adj), rest, sizes + (blk.bit_count(),))

    rec(g.adj, full, ())
    return qsym.element("M", acc)


def F_graph_recurrence(g: Graph) -> QSymElement:
    """Vertex-deletion recurrence, memoized on the surviving vertex set.

    Connected graphs: the shifted sum over vertices of the enumerator of
    the deletion.  Disconnected graphs: product over components.
    """
    if g.n > RECURRENCE_CAP:
        raise CapacityError(f"recurrence route capped at n <= {RECURRENCE_CAP}")
    memo = {0: one("M")}

    def rec(mask: int) -> QSymElement:
        hit = memo.get(mask)
        if hit is None:
            comps = _components_within(g, mask)
            if len(comps) > 1:
                hit = one("M")
                for c in comps:
                    hit = mul(hit, rec(c))
            else:
                hit = zero("M")
                for v in bits(mask):
                    hit = hit + rec(mask & ~(1 << v))
                hit = shift1(hit)
            memo[mask] = hit
        return hit

    return rec((1 << g.n) - 1)


def F_graph(g: Graph) -> QSymElement:
    """The graph invariant (recurrence route, the fastest)."""
    return F_graph_recurrence(g)


# ---------------------------------------------------------------------------
# fundamental basis and the antipode image

def F_fundamental(b: BuildingSet) -> QSymElement:
    """Positive fundamental expansion from linear extensions of B-trees."""
    if b.n > FUNDAMENTAL_CAP:
        raise CapacityError(f"fundamental route capped at n <= {FUNDAMENTAL_CAP}")
    if not is_connected(b):
        raise InputError("fundamental route requires a connected building set")
    acc = {}
    for fam in maximal_nested_sets(b):
        tree = b_tree(b, fam)
        for word in linear_extensions(tree):
            beta = descent_composition(word)
            acc[beta] = acc.get(beta, 0) + 1
    return qsym.element("L", acc)


def F_star(b: BuildingSet) -> QSymElement:
    """Antipode image of the enumerator, in the fundamental basis."""
    return antipode(F_fundamental(b))


# ---------------------------------------------------------------------------
# chromatic symmetric function

@dataclass(frozen=True)
class SymElement:
    """Integer combination of monomial symmetric functions m_mu."""

    terms: tuple  # ((partition, coeff), ...) canonical order

    def as_dict(self):
        return dict(self.terms)

    def coeff(self, mu) -> int:
        return self.as_dict().get(tuple(mu), 0)

    def __str__(self):
        if not self.terms:
            return "0"
        chunks = []
        for mu, c in self.terms:
            body = f"m[{','.join(map(str, mu))}]"
            chunks.append(body if c == 1 else f"{c}*{body}")
        return " + ".join(chunks)


def _sym_element(d: dict) -> SymElement:
    items = tuple(
        sorted(((mu, c) for mu, c in d.items() if c), key=lambda t: qsym.term_key(t[0]))
    )
    return SymElement(items)


def chromatic_symmetric(g: Graph) -> SymElement:
    """Stanley's chromatic symmetric function in the monomial basis.

    c_mu is the number of proper colorings whose i-th color class has size
    mu_i, i.e. color slots of equal size count as distinguishable.  This is
    the unique convention under which every ordered-coloring coefficient is
    dominated by c_{sort(alpha)}; it also matches the literal monomial
    coefficient of x_1^{mu_1} x_2^{mu_2} ... in the power series.  So c_mu
    is the ordered-coloring count of the composition mu itself.
    """
    by_type = ordered_colorings_by_type(g)
    return _sym_element(
        {mu: c for mu, c in by_type.items() if qsym.partition_of(mu) == mu}
    )


def ordered_colorings_by_type(g: Graph) -> dict:
    """Proper-coloring ordered set partitions counted by size sequence."""
    if g.n > COLORINGS_CAP:
        raise CapacityError(f"chromatic enumeration capped at n <= {COLORINGS_CAP}")
    return _flag_dp(g.n, lambda done, blk: all(g.adj[v] & blk == 0 for v in bits(blk)))


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
    (e) domination by the chromatic coefficients.
    """
    if g.n > THM72_CAP:
        raise CapacityError(f"coefficient checks capped at n <= {THM72_CAP}")
    n = g.n
    F = F_graph_colorings(g)
    zd = F.as_dict()

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
    for q in range(1, kappa + 1):
        for k in range(2, n - q + 1):
            lead = n - q - k
            alpha = (1,) * lead + (k,) + (1,) * q
            literal = 0
            transversal = 0
            for S in combinations(range(n), q):
                keep = [v for v in range(n) if v not in S]
                comps = graph_components(induced(g, keep))
                sizes = [c.bit_count() for c in comps]
                ek = sum(
                    _prod(pick) for pick in combinations(sizes, k)
                ) if len(sizes) >= k else 0
                transversal += factorial(lead) * factorial(q) * ek
                if len(sizes) == k:
                    literal += factorial(lead) * factorial(q) * _prod(sizes)
            c_cases.append(
                {
                    "q": q,
                    "k": k,
                    "zeta": zd.get(alpha, 0),
                    "transversal": transversal,
                    "literal": literal,
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


def _prod(xs) -> int:
    out = 1
    for x in xs:
        out *= x
    return out


# ---------------------------------------------------------------------------
# the four classical families

FAMILY_ALIASES = {
    "pe": "permutohedron",
    "as": "associahedron",
    "cy": "cyclohedron",
    "st": "stellohedron",
}


def _family_kind(kind: str) -> str:
    kind = FAMILY_ALIASES.get(kind, kind)
    if kind not in ("permutohedron", "associahedron", "cyclohedron", "stellohedron"):
        raise InputError(f"unknown polytope family {kind!r}")
    return kind


@lru_cache(maxsize=None)
def family_F(kind: str, n: int) -> QSymElement:
    """Enumerator of the n-vertex member of a classical family, by recurrence."""
    kind = _family_kind(kind)
    if n < 0:
        raise InputError("family index must be >= 0")
    if n > FAMILY_COUNT_CAP:
        raise CapacityError(f"family recurrences capped at n <= {FAMILY_COUNT_CAP}")
    if n == 0:
        return one("M")
    if kind == "permutohedron":
        return shift1(family_F(kind, n - 1)).scale(n)
    if kind == "associahedron":
        acc = zero("M")
        for k in range(1, n + 1):
            acc = acc + mul(family_F(kind, k - 1), family_F(kind, n - k))
        return shift1(acc)
    if kind == "cyclohedron":
        return shift1(family_F("associahedron", n - 1)).scale(n)
    # stellohedron
    power = one("M")
    for _ in range(n - 1):
        power = mul(power, qsym.monomial((1,)))
    return shift1(family_F(kind, n - 1).scale(n - 1) + power)


def family_graph(kind: str, n: int) -> Graph:
    kind = _family_kind(kind)
    graph_kind = {
        "permutohedron": "complete",
        "associahedron": "path",
        "cyclohedron": "cycle",
        "stellohedron": "star",
    }[kind]
    if graph_kind == "cycle" and n < 3:
        graph_kind = "path"  # C_1, C_2 degenerate to the path cases
    return family(graph_kind, n)


def family_recurrence_check(kind: str, n: int) -> bool:
    """Recurrence value == vertex-deletion route on the defining graph."""
    if n > FAMILY_RECURRENCE_CAP:
        raise CapacityError(
            f"family recurrence checks capped at n <= {FAMILY_RECURRENCE_CAP}"
        )
    return family_F(kind, n) == F_graph_recurrence(family_graph(kind, n))


def family_vertex_counts(n: int) -> tuple:
    """(p_n, a_n, c_n, s_n) closed forms; the chi(-1) route must agree."""
    if not 1 <= n <= FAMILY_COUNT_CAP:
        raise CapacityError(f"family counts capped at n <= {FAMILY_COUNT_CAP}")
    p = factorial(n)
    a = comb(2 * n, n) // (n + 1)
    c = comb(2 * n - 2, n - 1)
    s = 1
    for k in range(2, n + 1):
        s = (k - 1) * s + 1
    closed = (p, a, c, s)
    via_chi = tuple(
        vertex_count(family_F(kind, n), n)
        for kind in ("permutohedron", "associahedron", "cyclohedron", "stellohedron")
    )
    if closed != via_chi:
        raise InputError(
            f"closed forms {closed} disagree with the chi(-1) route {via_chi}"
        )
    return closed


# ---------------------------------------------------------------------------
# linear dependence of tree enumerators

def tree_matrix_kernel(n: int) -> tuple:
    """Rank and integer kernel of the tree-enumerator matrix at size n.

    Rows are the enumerators of all unlabeled rooted trees on n nodes,
    written in the monomial basis; the kernel rows are primitive integer
    dependence relations among them (empty when independent).
    """
    if not 1 <= n <= KERNEL_CAP:
        raise CapacityError(f"kernel computation capped at n <= {KERNEL_CAP}")
    shapes = enumerate_tree_shapes(n)
    cols = {alpha: i for i, alpha in enumerate(compositions_of(n))}
    rows = []
    for sh in shapes:
        vec = [0] * len(cols)
        for alpha, c in _f_shape(sh.code).terms:
            vec[cols[alpha]] = c
        rows.append(vec)
    return _integer_kernel(rows)


def _integer_kernel(rows: list) -> tuple:
    """Fraction-free elimination over Z: (rank, primitive kernel rows)."""
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
        for r in range(m):
            if r != rank and aug[r][c]:
                f = aug[r][c]
                aug[r] = [pivot * x - f * y for x, y in zip(aug[r], aug[rank])]
                aug[r] = _primitive(aug[r])
        rank += 1
    kernel = []
    for r in range(rank, m):
        row = aug[r]
        assert all(x == 0 for x in row[:ncols])
        kernel.append(tuple(_primitive(row[ncols:])))
    return rank, kernel


def _primitive(row: list) -> list:
    from math import gcd

    g = 0
    for x in row:
        g = gcd(g, x)
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
    if n > 7 or (n == 7 and not connected_only):
        raise CapacityError(
            "collision search capped at n <= 6 (n = 7 connected-only)"
        )
    graphs = enumerate_graphs(n, connected_only)
    groups: dict = {}
    for g in graphs:
        if invariant == "F":
            key = qsym.render(F_graph_recurrence(g))
        else:
            key = str(chromatic_symmetric(g))
        groups.setdefault(key, []).append(g)
    collisions = tuple(
        tuple(to_graph6(g) for g in grp)
        for key, grp in sorted(groups.items())
        if len(grp) > 1
    )
    f_separates = None
    if invariant == "X":
        f_separates = True
        for key, grp in groups.items():
            if len(grp) > 1:
                fs = [qsym.render(F_graph_recurrence(g)) for g in grp]
                if len(set(fs)) != len(fs):
                    f_separates = False
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
    """Extend the enumerator linearly over words, multiplicatively over factors."""
    out = zero("M")
    for word, c in h.terms:
        prod = one("M")
        for factor in word:
            prod = mul(prod, F_splitting(factor))
        out = out + prod.scale(c)
    return out


def hopf_morphism_check(b: BuildingSet, probe: BuildingSet | None = None) -> dict:
    """Check that the enumerator intertwines product, coproduct and antipode.

    The product check multiplies by a probe building set (b itself when the
    result stays within the splitting-route cap, else the K_2 building set).
    """
    if b.n > HOPF_CHECK_CAP:
        raise CapacityError(f"Hopf checks capped at n <= {HOPF_CHECK_CAP}")
    if probe is None:
        probe = b if 2 * b.n <= SPLITTING_CAP - 2 else from_graph(family("complete", 2))
    Fb = F_splitting(b)
    product_ok = F_splitting(product(b, probe)) == mul(Fb, F_splitting(probe))
    lhs = qsym.coproduct(Fb)
    rhs = None
    for _, left, right in coproduct(b):
        piece = tensor_product(F_splitting(left), F_splitting(right))
        rhs = piece if rhs is None else rhs + piece
    coproduct_ok = lhs == rhs
    antipode_ok = F_of_hopf(takeuchi_antipode(b)) == antipode(Fb)
    return {
        "product": product_ok,
        "coproduct": coproduct_ok,
        "antipode": antipode_ok,
        "probe_n": probe.n,
        "passed": product_ok and coproduct_ok and antipode_ok,
    }


def random_building_sets(count: int, seed: int = 20250809, max_n: int = 4) -> list:
    """Deterministic sample of valid building sets, by union-closing random families."""
    rng = random.Random(seed)
    out, seen = [], set()
    while len(out) < count:
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
    return out
