"""The pinned verification suite: eleven criteria with exact expected values.

Each criterion returns (passed, detail); run_suite times them, prints one
PASS/FAIL line per criterion and returns overall success.  Criterion 2
pins a published antipode value whose composition is reversed relative to
the Hopf-axiom antipode (see the antipode docstring); it is checked as
pinned and reports the computed value when it disagrees.
"""

from __future__ import annotations

import random
import time

from . import qsym
from .buildset import building_set, from_graph
from .graphs import enumerate_graphs, family, graph_from_edges, induced
from .invariants import (
    F_btree_route,
    F_graph_colorings,
    F_graph_recurrence,
    F_splitting,
    check_thm72,
    collision_search,
    family_F,
    family_graph,
    family_vertex_counts,
    hopf_morphism_check,
    random_building_sets,
    tree_matrix_kernel,
)
from .nestopoly import (
    check_realization,
    enumerate_tree_shapes,
    maximal_nested_sets,
    nested_sets_by_size,
    vertex_coordinates,
)
from .qsym import (
    QSymElement,
    antipode,
    compositions_of,
    coproduct,
    element,
    from_fundamental,
    monomial,
    mul,
    one,
    principal_specialization,
    render,
    to_fundamental,
    vertex_count,
)

EXAMPLE_54 = element("M", {(1, 1, 1, 1): 24, (2, 1, 1): 6, (1, 2, 1): 4})
EXAMPLE_62_L = element("L", {(1, 1, 1, 1): 14, (2, 1, 1): 6, (1, 2, 1): 4})
EXAMPLE_62_STAR = element("L", {(4,): 14, (1, 3): 6, (2, 2): 4})


def criterion_1():
    """Four routes on the 4-path give the pinned monomial expansion."""
    g = family("path", 4)
    b = from_graph(g)
    routes = {
        "splitting": F_splitting(b),
        "trees": F_btree_route(b),
        "colorings": F_graph_colorings(g),
        "recurrence": F_graph_recurrence(g),
    }
    bad = {k: render(v) for k, v in routes.items() if v != EXAMPLE_54}
    if bad:
        return False, f"routes disagree with {render(EXAMPLE_54)}: {bad}"
    return True, f"all four routes = {render(EXAMPLE_54)}"


def criterion_2():
    """Fundamental expansion and its antipode match the pinned values."""
    b = from_graph(family("path", 4))
    F_L = to_fundamental(F_splitting(b))
    ok_f = F_L == EXAMPLE_62_L
    S = antipode(F_L)
    ok_s = S == EXAMPLE_62_STAR
    detail = f"F in L = {render(F_L)}; antipode = {render(S)}"
    if not ok_s:
        detail += (
            f"; pinned antipode value {render(EXAMPLE_62_STAR)} differs from the "
            f"Hopf-axiom antipode (reversed composition in the L[1,3] term)"
        )
    return ok_f and ok_s, detail


def criterion_3():
    """Family vertex counts for n = 1..7 agree three ways with closed forms."""
    kinds = ("permutohedron", "associahedron", "cyclohedron", "stellohedron")
    for n in range(1, 8):
        closed = family_vertex_counts(n)
        for kind, expect in zip(kinds, closed):
            g = family_graph(kind, n)
            via_chi = vertex_count(F_graph_recurrence(g), n)
            via_nested = len(maximal_nested_sets(from_graph(g)))
            via_recur = vertex_count(family_F(kind, n), n)
            if not expect == via_chi == via_nested == via_recur:
                return False, (
                    f"{kind} n={n}: closed {expect}, chi {via_chi}, "
                    f"nested {via_nested}, recurrence {via_recur}"
                )
    return True, "n=1..7, all four families, three routes each"


def criterion_4():
    """Exact four-route equality on every isomorphism class at n = 4 and 5."""
    checked = 0
    for n in (4, 5):
        for g in enumerate_graphs(n):
            b = from_graph(g)
            fs = F_splitting(b)
            if not (
                fs == F_btree_route(b) == F_graph_colorings(g) == F_graph_recurrence(g)
            ):
                return False, f"route mismatch on n={n} graph {g.edges()}"
            checked += 1
    return True, f"{checked} isomorphism classes (11 at n=4, 34 at n=5)"


def criterion_5():
    """At n = 5: F is complete, X collides, and F splits every X collision."""
    rf = collision_search(5, "F")
    if rf.class_count != 34 or rf.value_count != 34 or rf.collisions:
        return False, f"F collisions at n=5: {rf}"
    rx = collision_search(5, "X")
    if not rx.collisions:
        return False, "expected at least one chromatic collision at n=5"
    if rx.f_separates is not True:
        return False, f"F fails to separate an X collision: {rx.collisions}"
    return True, (
        f"34 distinct F values; {len(rx.collisions)} X collision group(s) "
        f"{rx.collisions}, all split by F"
    )


def criterion_6():
    """The pinned building-set pair: equal face counts, different F."""
    b1 = building_set(4, [0b0001, 0b0010, 0b0100, 0b1000, 0b0011, 0b0111])
    b2 = building_set(4, [0b0001, 0b0010, 0b0100, 0b1000, 0b0011, 0b1100])
    f1, f2 = F_splitting(b1), F_splitting(b2)
    faces1, faces2 = nested_sets_by_size(b1), nested_sets_by_size(b2)
    if faces1 != faces2:
        return False, f"face counts differ: {faces1} vs {faces2}"
    if f1 == f2:
        return False, "enumerators unexpectedly equal"
    return True, f"face counts {faces1} equal, F differs ({render(f1)} vs {render(f2)})"


def criterion_7():
    """Tree-enumerator matrix: rank 8 with a 1-dim kernel at n=5; rank 4 at n=4."""
    rank5, kernel5 = tree_matrix_kernel(5)
    rank4, kernel4 = tree_matrix_kernel(4)
    ok = rank5 == 8 and len(kernel5) == 1 and rank4 == 4 and not kernel4
    shapes5 = enumerate_tree_shapes(5)
    detail = (
        f"n=5: rank {rank5}, kernel {kernel5}; n=4: rank {rank4}; "
        f"{len(shapes5)} shapes at n=5"
    )
    return ok, detail


def criterion_8():
    """Product, coproduct and Takeuchi antipode intertwine the enumerator."""
    bsets = []
    for n in range(1, 5):
        for g in enumerate_graphs(n):
            bsets.append(from_graph(g))
    bsets += random_building_sets(20)
    for b in bsets:
        r = hopf_morphism_check(b)
        if not r["passed"]:
            return False, f"failed on {b.sets}: {r}"
    return True, f"{len(bsets)} building sets (18 graphical, 20 random)"


def criterion_9():
    """QSym kernel property suite, exact."""
    rng = random.Random(1729)

    def rand_element(max_weight, max_terms=3):
        d = {}
        for _ in range(rng.randint(1, max_terms)):
            w = rng.randint(0, max_weight)
            opts = compositions_of(w)
            d[opts[rng.randrange(len(opts))]] = rng.randint(-4, 4)
        return element("M", d)

    for _ in range(25):
        F = rand_element(7)
        if from_fundamental(to_fundamental(F)) != F:
            return False, f"basis round trip failed on {render(F)}"
    for _ in range(15):
        A, B, C = rand_element(3, 2), rand_element(3, 2), rand_element(3, 2)
        if mul(mul(A, B), C) != mul(A, mul(B, C)) or mul(A, B) != mul(B, A):
            return False, "quasi-shuffle associativity/commutativity failed"
        if mul(one(), A) != A:
            return False, "unit failed"
    for _ in range(15):
        F = rand_element(5, 2)
        if _double_coproduct(F, left_first=True) != _double_coproduct(F, False):
            return False, f"coassociativity failed on {render(F)}"
    for n in range(0, 7):
        for alpha in compositions_of(n):
            F = monomial(alpha)
            conv = _convolve_antipode(F)
            expect = one().scale(1 if alpha == () else 0)
            if conv != expect:
                return False, f"antipode axiom failed on M{list(alpha)}"
    for _ in range(15):
        A, B = rand_element(3, 2), rand_element(3, 2)
        for m in (-2, -1, 0, 1, 2, 3):
            lhs = principal_specialization(mul(A, B), m)
            rhs = principal_specialization(A, m) * principal_specialization(B, m)
            if lhs != rhs:
                return False, f"ps_{m} not multiplicative"
    return True, "round trip, quasi-shuffle laws, coassociativity, antipode axiom, ps_m"


def _double_coproduct(F: QSymElement, left_first: bool) -> dict:
    out = {}
    for (a, b), c in coproduct(F).terms:
        inner = coproduct(monomial(a)) if left_first else coproduct(monomial(b))
        for (x, y), d in inner.terms:
            key = (x, y, b) if left_first else (a, x, y)
            out[key] = out.get(key, 0) + c * d
    return {k: v for k, v in out.items() if v}


def _convolve_antipode(F: QSymElement) -> QSymElement:
    acc = qsym.zero("M")
    for (a, b), c in coproduct(F).terms:
        acc = acc + mul(antipode(monomial(a)), monomial(b)).scale(c)
    return acc


def criterion_10():
    """Coefficient properties on every class n <= 5 plus n = 6 samples."""
    graphs = []
    for n in range(1, 6):
        graphs.extend(enumerate_graphs(n))
    graphs.append(family("cycle", 6))
    graphs.append(graph_from_edges(6, [(i, j) for i in (0, 1, 2) for j in (3, 4, 5)]))
    graphs.extend(_petersen_samples())
    literal_misses = 0
    for g in graphs:
        r = check_thm72(g)
        if not r["passed"]:
            return False, f"coefficient checks failed on {g.edges()}: {r}"
        if not r["c"]["paper_literal_holds"]:
            literal_misses += 1
    return True, (
        f"{len(graphs)} graphs pass (a)-(e); the weaker exactly-k-components "
        f"phrasing of (c) misses on {literal_misses} of them, as reported"
    )


def _petersen_samples():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    petersen = graph_from_edges(10, outer + spokes + inner)
    return [induced(petersen, vs) for vs in ((0, 1, 2, 3, 4, 5), (0, 1, 5, 6, 7, 9))]


def criterion_11():
    """Vertex coordinates satisfy the defining hyperplane and facet system."""
    for kind in ("complete", "path", "cycle", "star"):
        for n in range(1, 6):
            if kind == "cycle" and n < 3:
                continue
            b = from_graph(family(kind, n))
            if not check_realization(b):
                return False, f"realization failed for {kind} n={n}"
    k3 = from_graph(family("complete", 3))
    coords = sorted(vertex_coordinates(k3, fam) for fam in maximal_nested_sets(k3))
    from itertools import permutations as perms

    expect = sorted(set(perms((1, 2, 4))))
    if coords != expect:
        return False, f"triangle-family vertex set {coords} != permutations of (1,2,4)"
    return True, "families n <= 5 realized; K3 vertices are the permutations of (1,2,4)"


CRITERIA = (
    (1, "four routes, 4-path, pinned expansion", criterion_1, 1.0),
    (2, "fundamental expansion and pinned antipode image", criterion_2, 5.0),
    (3, "family vertex counts n=1..7, three ways", criterion_3, 30.0),
    (4, "four-route equality, all classes n=4,5", criterion_4, 60.0),
    (5, "F complete at n=5, X collision split by F", criterion_5, 30.0),
    (6, "building-set pair: equal faces, distinct F", criterion_6, 5.0),
    (7, "tree-enumerator rank/kernel at n=4,5", criterion_7, 5.0),
    (8, "Hopf morphism: product/coproduct/antipode", criterion_8, 60.0),
    (9, "QSym kernel property suite", criterion_9, 30.0),
    (10, "coefficient properties (a)-(e)", criterion_10, 30.0),
    (11, "vertex-coordinate realization", criterion_11, 30.0),
)


def run_suite(numbers=None, out=print) -> bool:
    """Run the verification criteria; one PASS/FAIL line each."""
    all_ok = True
    for num, name, fn, _budget in CRITERIA:
        if numbers and num not in numbers:
            continue
        t0 = time.perf_counter()
        try:
            ok, detail = fn()
        except Exception as e:  # a crash is a failure, not an abort
            ok, detail = False, f"exception: {e!r}"
        dt = time.perf_counter() - t0
        all_ok &= ok
        out(f"{'PASS' if ok else 'FAIL'}  {num:2d}  {name} [{dt:.2f}s] -- {detail}")
    return all_ok
