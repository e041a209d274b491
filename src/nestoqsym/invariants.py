"""Nestohedron enumerators by four independent routes, plus graph checks.

The four routes to the same quasisymmetric function:

  * F_splitting       -- counts splitting chains of the building set by the
                         flag condition (splitting_chains lists them, the
                         brute-force oracle),
  * F_btree_route     -- sums tree enumerators over the B-trees at vertices,
  * F_graph_colorings -- counts ordered colorings of the graph,
  * F_graph_recurrence -- vertex-deletion recurrence with a shift.

The recurrence (`_recurrence`) needs only the components of each restriction,
so it serves building sets too: F_of_hopf runs it on every factor of a word
of building sets, with the components of the building set in place of those
of the graph.  Its memo lists coefficients by composition code (the
partial-sum set as a bit mask, qsym.code_table), so the shift is a prefix
of zeros and the connected sum adds lists; X keys its memo on the block-size
counts packed into one integer.

Disconnected inputs reduce to component products everywhere (the enumerator
is multiplicative); splitting chains are enumerated by the verbatim flag
condition, which agrees with the component product without a connectedness
hypothesis.

Everything is pure and exact (no floating point anywhere).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache, partial
from itertools import combinations
from math import comb, factorial, prod

from . import qsym
from .bitsets import bits, mask_of, nonempty_submasks, submasks
from .buildset import (
    BuildingSet,
    HopfElement,
    OrderedSetPartition,
    _components_in,
    components,
    coproduct,
    from_graph,
    is_connected,
    product,
    takeuchi_antipode,
)
from .errors import LIMITS, InputError, check_limit
from .graphs import (
    FAMILIES,
    Graph,
    _components_within,
    connectivity,
    enumerate_graphs,
    family,
    independence_fvector,
    to_graph6,
)
from .nestopoly import (
    TreeShape,
    _vertex,
    child_codes,
    enumerate_tree_shapes,
    forest_shapes,
    linear_extensions,
    maximal_nested_sets,
    tree_multiset,
)
from .qsym import (
    QSymElement,
    _element,
    _mul_d,
    antipode,
    code_table,
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
    check_limit("splitting chains", b.n)
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
    check_limit("zeta", b.n)
    return _splitting_types(b).get(alpha, 0)


def F_splitting(b: BuildingSet) -> QSymElement:
    """Monomial expansion by splitting chains, counted by the flag condition."""
    check_limit("splitting", b.n)
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
        check_limit("tree enumerators", tree.n)
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
    check_limit("colorings", g.n)
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


def _terms(mask: int, coeffs: list) -> list:
    """(composition, coeff) pairs of a coefficient list indexed by code."""
    by_code = code_table(mask.bit_count())[0]
    return [(by_code[i], c) for i, c in enumerate(coeffs) if c]


def _recurrence(n: int, components) -> dict:
    """F by vertex deletion, as a {composition: coeff} dict, memoized on the
    surviving vertex set; components(mask) lists the components there.

    The memo holds, for a mask of w vertices, the coefficients of F listed
    by composition code (qsym.code_table).  Connected: the sum over
    vertices of the deletions, shifted; appending a part 1 sets code bit
    w - 2, so the shift puts 2^(w - 2) zeros in front.  Disconnected: the
    quasi-shuffle product of the components.
    """
    memo = {0: [1]}
    factors = {}  # component mask -> its (composition, coeff) pairs

    def factor(comp: int) -> list:
        hit = factors.get(comp)
        if hit is None:
            hit = factors[comp] = _terms(comp, rec(comp))
        return hit

    def rec(mask: int) -> list:
        hit = memo.get(mask)
        if hit is None:
            comps = components(mask)
            if len(comps) > 1:
                prod = factor(comps[0])
                for c in comps[1:]:
                    prod = _mul_d(prod, factor(c)).items()
                code_of = code_table(mask.bit_count())[1]
                hit = [0] * len(code_of)
                for a, c in prod:
                    hit[code_of[a]] = c
            else:
                deletions, left = [], mask
                while left:
                    low = left & -left
                    deletions.append(memo.get(mask ^ low) or rec(mask ^ low))
                    left ^= low
                hit = [0] * len(deletions[0]) if len(deletions) > 1 else []
                hit += map(sum, zip(*deletions))
            memo[mask] = hit
        return hit

    full = (1 << n) - 1
    return dict(_terms(full, rec(full)))


def F_graph_recurrence(g: Graph) -> QSymElement:
    """Vertex-deletion recurrence over the components of induced subgraphs."""
    check_limit("recurrence", g.n)
    return _element("M", _recurrence(g.n, partial(_components_within, g)))


def F_graph(g: Graph) -> QSymElement:
    """The graph invariant (recurrence route, the fastest)."""
    return F_graph_recurrence(g)


# ---------------------------------------------------------------------------
# fundamental basis and the antipode image

def F_fundamental(b: BuildingSet) -> QSymElement:
    """Positive fundamental expansion from linear extensions of B-trees."""
    check_limit("fundamental", b.n)
    if not is_connected(b):
        raise InputError("fundamental route requires a connected building set")
    if b.n == 0:
        return one("L")
    acc = {}
    for fam in maximal_nested_sets(b):
        for word in linear_extensions(_vertex(b, fam)[0]):
            beta = descent_composition(word)
            acc[beta] = acc.get(beta, 0) + 1
    return qsym.element("L", acc)


def F_star(b: BuildingSet) -> QSymElement:
    """Antipode image of the enumerator, in the fundamental basis."""
    return antipode(F_fundamental(b))


# ---------------------------------------------------------------------------
# chromatic symmetric function

@dataclass(frozen=True)
class SymElement(qsym.Combination):
    """Integer combination of monomial symmetric functions m_mu."""

    terms: tuple  # ((partition, coeff), ...) canonical order

    sort_key = staticmethod(qsym.term_key)

    def __str__(self):
        if not self.terms:
            return "0"
        chunks = []
        for mu, c in self.terms:
            body = f"m[{','.join(map(str, mu))}]"
            chunks.append(body if c == 1 else f"{c}*{body}")
        return " + ".join(chunks)


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
    lowest vertex not yet covered, memoized on the covered mask.  The block
    sizes are kept as one integer, sum_k m_k (n + 1)^(k - 1) with m_k the
    number of blocks of size k, so adding a block adds a constant.  Ordering
    the blocks into the color slots of mu gives prod_k m_k! colorings per
    partition.
    """
    check_limit("chromatic", g.n)
    n = g.n
    full = (1 << n) - 1
    independent = [True] * (full + 1)
    for s in range(1, full + 1):
        low = s & -s
        v = low.bit_length() - 1
        independent[s] = independent[s ^ low] and not g.adj[v] & s
    step = [(n + 1) ** (k - 1) for k in range(n + 1)]  # one block of size k
    memo = {full: {0: 1}}

    def rest(done: int) -> dict:
        hit = memo.get(done)
        if hit is None:
            hit = {}
            left = full & ~done
            low = left & -left
            for sub in submasks(left ^ low):
                blk = sub | low
                if independent[blk]:
                    inc = step[blk.bit_count()]
                    for key, c in rest(done | blk).items():
                        key += inc
                        hit[key] = hit.get(key, 0) + c
            memo[done] = hit
        return hit

    counts = {}
    for key, c in rest(0).items():
        parts = []
        for k in range(1, n + 1):
            key, m = divmod(key, n + 1)
            parts += [k] * m
            c *= factorial(m)
        counts[tuple(reversed(parts))] = c
    return SymElement.of(counts)


def ordered_colorings_by_type(g: Graph) -> dict:
    """Proper-coloring ordered set partitions counted by size sequence."""
    check_limit("chromatic", g.n)
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
    check_limit("thm72", g.n)
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


def _family(kind: str):
    """The row of graphs.FAMILIES named by its alias or its polytope."""
    if kind not in _FAMILY_NAMES:
        raise InputError(f"unknown polytope family {kind!r}")
    return _FAMILY_NAMES[kind]


@lru_cache(maxsize=None)
def family_F(kind: str, n: int) -> QSymElement:
    """Enumerator of the n-vertex member of a classical family, by recurrence."""
    kind = _family(kind).polytope
    if n < 0:
        raise InputError("family index must be >= 0")
    check_limit("family", n)
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
    graph_kind = _family(kind).graph
    if graph_kind == "cycle" and n < 3:
        graph_kind = "path"  # C_1, C_2 degenerate to the path cases
    return family(graph_kind, n)


def family_recurrence_check(kind: str, n: int) -> bool:
    """Recurrence value == vertex-deletion route on the defining graph."""
    check_limit("family check", n)
    return family_F(kind, n) == F_graph_recurrence(family_graph(kind, n))


def family_vertex_counts(n: int) -> tuple:
    """(p_n, a_n, c_n, s_n) closed forms; the chi(-1) route must agree."""
    if n < 1:
        raise InputError(f"family counts need n >= 1, got {n}")
    check_limit("family", n)
    p = factorial(n)
    a = comb(2 * n, n) // (n + 1)
    c = comb(2 * n - 2, n - 1)
    s = 1
    for k in range(2, n + 1):
        s = (k - 1) * s + 1
    closed = (p, a, c, s)
    via_chi = tuple(vertex_count(family_F(f.polytope, n), n) for f in FAMILIES)
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
    check_limit("kernel", n)
    shapes = enumerate_tree_shapes(n)  # refuses n < 1
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
    check_limit("collide connected" if connected_only else "collide", n)
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
    """Extend the enumerator linearly over words, multiplicatively over factors.

    Each distinct factor runs the recurrence once, over the components of
    the building set.
    """
    by_factor = {}
    acc = {}
    for word, c in h.terms:
        prod = {(): c}
        for factor in word:
            if factor not in by_factor:
                check_limit("recurrence", factor.n)
                F = _recurrence(factor.n, partial(_components_in, factor))
                by_factor[factor] = F.items()
            prod = _mul_d(prod.items(), by_factor[factor])
        for a, x in prod.items():
            acc[a] = acc.get(a, 0) + x
    return _element("M", acc)


def hopf_morphism_check(b: BuildingSet) -> dict:
    """Check that the enumerator intertwines product, coproduct and antipode.

    The product check multiplies b by a probe building set: b itself when
    2n <= the splitting limit - 2, else the K_2 building set.  The antipode
    check sets F_of_hopf of the Takeuchi antipode (the recurrence, per
    factor) against the qsym antipode of F_splitting(b).
    """
    check_limit("hopf", b.n)
    small = 2 * b.n <= LIMITS["splitting"].limit - 2
    probe = b if small else from_graph(family("complete", 2))
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
