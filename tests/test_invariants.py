"""The enumerator routes, coefficient theorems, families, collisions, Hopf checks."""

import random
from itertools import product as iproduct
from math import comb

import pytest
from hypothesis import given, settings

from conftest import graphs, naive_components
from nestoqsym import invariants, qsym
from nestoqsym.bitsets import bits, mask_of
from nestoqsym.buildset import (
    BuildingSet,
    building_set,
    discrete_building_set,
    from_graph,
    hopf_monomial,
    takeuchi_antipode,
)
from nestoqsym.errors import CapacityError, InputError
from nestoqsym.graphs import (
    contract,
    enumerate_graphs,
    family,
    graph_from_edges,
)
from nestoqsym.invariants import (
    F_btree_route,
    F_fundamental,
    F_graph_colorings,
    F_graph_recurrence,
    F_of_hopf,
    F_splitting,
    F_star,
    F_tree,
    check_thm72,
    chromatic_symmetric,
    collision_search,
    family_F,
    family_graph,
    family_recurrence_check,
    family_vertex_counts,
    hopf_morphism_check,
    ordered_colorings_by_type,
    random_building_sets,
    splitting_chains,
    tree_matrix_kernel,
    zeta,
)
from nestoqsym.nestopoly import BTree, enumerate_tree_shapes
from nestoqsym.qsym import (
    _mul_d,
    antipode,
    element,
    from_fundamental,
    monomial,
    mul,
    one,
    principal_specialization,
    vertex_count,
)


def m(*verts):
    return mask_of(v - 1 for v in verts)


L4B = from_graph(family("path", 4))
K2B = from_graph(family("complete", 2))
K3B = from_graph(family("complete", 3))
EX54 = element("M", {(1, 1, 1, 1): 24, (2, 1, 1): 6, (1, 2, 1): 4})


# ---------------------------------------------------------------------------
# splitting chains

def test_zeta_examples():
    assert zeta(K2B, (1, 1)) == 2
    assert zeta(K2B, (2,)) == 0
    assert zeta(L4B, (2, 1, 1)) == 6
    with pytest.raises(InputError):
        zeta(K2B, (3,))


def test_splitting_chains_types_match_F():
    graphical = [from_graph(g) for n in range(1, 6) for g in enumerate_graphs(n)]
    for b in graphical + random_building_sets(40, max_n=6):
        acc = {}
        for chain in splitting_chains(b):
            t = chain.type()
            acc[t] = acc.get(t, 0) + 1
        assert element("M", acc) == F_splitting(b)


def test_splitting_chains_satisfy_flag_condition_verbatim():
    # dual route: re-check every produced chain through the real minors
    from nestoqsym.buildset import contraction, is_discrete, restriction

    for b in (K3B, L4B, discrete_building_set(3), from_graph(family("star", 4))):
        chains = splitting_chains(b)
        for chain in chains:
            done = 0
            for blk in chain.blocks:
                step = contraction(restriction(b, done | blk), _relabel(done, done | blk))
                assert is_discrete(step)
                done |= blk
        # and completeness: every ordered set partition not produced fails
        produced = {c.blocks for c in chains}
        total = _count_ordered_set_partitions(b.n)
        assert len(produced) <= total


def _relabel(mask, inside):
    verts = [v for v in range(inside.bit_length()) if inside >> v & 1]
    return mask_of(verts.index(v) for v in bits(mask))


def _count_ordered_set_partitions(n):
    from math import comb

    memo = {0: 1}

    def fub(k):
        if k not in memo:
            memo[k] = sum(comb(k, j) * fub(k - j) for j in range(1, k + 1))
        return memo[k]

    return fub(n)


def test_zeta_above_splitting_cap_matches_family_recurrence():
    alphas = ((1,) * 9, (2,) + (1,) * 7, (1, 2) + (1,) * 6, (3, 3, 1, 1, 1), (9,))
    for kind in ("pe", "as", "cy", "st"):
        b = from_graph(family_graph(kind, 9))
        F = family_F(kind, 9)
        for alpha in alphas:
            assert zeta(b, alpha) == F.coeff(alpha)


def test_F_splitting_examples():
    assert F_splitting(L4B) == EX54
    assert F_splitting(BuildingSet(1, (1,))) == monomial((1,))
    assert F_splitting(K3B) == element("M", {(1, 1, 1): 6})
    assert F_splitting(BuildingSet(0, ())) == one()


def test_F_splitting_multiplicative_over_components():
    d2 = discrete_building_set(2)
    assert F_splitting(d2) == element("M", {(1, 1): 2, (2,): 1})
    assert F_splitting(d2) == mul(monomial((1,)), monomial((1,)))


# ---------------------------------------------------------------------------
# tree route

def test_F_tree_examples():
    leaf = BTree(1, (None,))
    assert F_tree(leaf) == monomial((1,))
    chain2 = BTree(2, (1, None))
    assert F_tree(chain2) == monomial((1, 1))
    cherry = BTree(3, (2, 2, None))
    assert F_tree(cherry) == element("M", {(1, 1, 1): 2, (2, 1): 1})
    forest = BTree(2, (None, None))
    assert F_tree(forest) == element("M", {(1, 1): 2, (2,): 1})


def test_F_btree_route_examples():
    assert F_btree_route(L4B) == EX54
    assert F_btree_route(K2B) == element("M", {(1, 1): 2})
    star4 = from_graph(family("star", 4))
    assert vertex_count(F_btree_route(star4), 4) == 16


# ---------------------------------------------------------------------------
# graph routes

def test_F_graph_colorings_examples():
    assert F_graph_colorings(family("path", 3)) == element(
        "M", {(1, 1, 1): 6, (2, 1): 1}
    )
    assert F_graph_colorings(family("complete", 3)) == element("M", {(1, 1, 1): 6})
    assert F_graph_colorings(family("path", 4)) == EX54


def test_F_graph_recurrence_examples():
    assert F_graph_recurrence(family("complete", 3)) == element("M", {(1, 1, 1): 6})
    assert F_graph_recurrence(graph_from_edges(1, [])) == monomial((1,))
    assert F_graph_recurrence(family("path", 4)) == EX54


@given(graphs(max_n=4))
@settings(max_examples=25)
def test_four_routes_agree(g):
    b = from_graph(g)
    fs = F_splitting(b)
    assert fs == F_btree_route(b)
    assert fs == F_graph_colorings(g)
    assert fs == F_graph_recurrence(g)


def test_four_routes_agree_on_families_through_n6():
    for kind in ("complete", "path", "cycle", "star"):
        for n in range(3, 7):
            g = family(kind, n)
            b = from_graph(g)
            fs = F_splitting(b)
            assert fs == F_btree_route(b) == F_graph_colorings(g) == F_graph_recurrence(g)


def test_recurrence_matches_colorings_at_n7():
    for g in _random_graphs(30, 7, seed=30):
        assert F_graph_recurrence(g) == F_graph_colorings(g)


def dict_recurrence(n, components):
    """The deletion recurrence on {composition: coeff} dicts, as it stood
    before its memo moved onto lists indexed by composition code."""
    memo = {0: {(): 1}}

    def rec(mask):
        hit = memo.get(mask)
        if hit is None:
            comps = components(mask)
            if len(comps) > 1:
                hit = rec(comps[0])
                for c in comps[1:]:
                    hit = _mul_d(hit.items(), rec(c).items())
            else:
                hit = {}
                for v in bits(mask):
                    for a, c in rec(mask & ~(1 << v)).items():
                        a += (1,)
                        hit[a] = hit.get(a, 0) + c
            memo[mask] = hit
        return hit

    return rec((1 << n) - 1)


def _matches_dict_recurrence(g):
    oracle = dict_recurrence(g.n, lambda mask: naive_components(g, mask))
    return F_graph_recurrence(g).as_dict() == oracle


def test_recurrence_matches_dict_recurrence_on_every_class_at_n7():
    classes = enumerate_graphs(7)
    assert len(classes) == 1044
    for g in classes:
        assert _matches_dict_recurrence(g), g


def test_recurrence_matches_dict_recurrence_on_families_and_edgeless():
    for kind in ("path", "cycle", "star", "complete"):
        for n in range(3 if kind == "cycle" else 1, 12):  # C_n needs n >= 3
            assert _matches_dict_recurrence(family(kind, n)), (kind, n)
    for n in range(0, 5):
        assert _matches_dict_recurrence(graph_from_edges(n, [])), n


def test_recurrence_above_old_memo_cutoff():
    for kind in ("pe", "as", "cy", "st"):
        assert F_graph_recurrence(family_graph(kind, 10)) == family_F(kind, 10)
    assert vertex_count(F_graph_recurrence(family("cycle", 11)), 11) == comb(20, 10)
    assert vertex_count(F_graph_recurrence(family("path", 11)), 11) == 58786  # Catalan


def test_connected_terms_end_in_1():
    for n in range(1, 6):
        for g in enumerate_graphs(n, connected_only=True):
            for alpha, _ in F_graph_recurrence(g).terms:
                assert alpha[-1] == 1


# ---------------------------------------------------------------------------
# fundamental basis and the antipode image

def test_F_fundamental_examples():
    assert F_fundamental(L4B) == element(
        "L", {(1, 1, 1, 1): 14, (2, 1, 1): 6, (1, 2, 1): 4}
    )
    assert F_fundamental(K2B) == element("L", {(1, 1): 2})
    assert F_fundamental(BuildingSet(0, ())) == qsym.one("L")
    with pytest.raises(InputError):
        F_fundamental(discrete_building_set(2))


def test_F_fundamental_matches_splitting_for_connected():
    for n in range(1, 6):
        for g in enumerate_graphs(n, connected_only=True):
            b = from_graph(g)
            assert from_fundamental(F_fundamental(b)) == F_splitting(b)


def test_F_star_examples():
    # the axiom-correct antipode image (the pinned reference value reverses
    # the middle composition; see the verification suite)
    assert F_star(L4B) == element("L", {(4,): 14, (3, 1): 6, (2, 2): 4})
    assert F_star(BuildingSet(1, (1,))) == element("L", {(1,): -1})
    assert principal_specialization(from_fundamental(F_star(L4B)), 1) == 14


def test_F_star_segment():
    assert F_star(K2B) == element("L", {(2,): 2})


# ---------------------------------------------------------------------------
# chromatic symmetric function

def test_chromatic_examples():
    X = chromatic_symmetric(family("complete", 2))
    assert X.coeff((1, 1)) == 2  # equal-size color slots are distinguishable
    X = chromatic_symmetric(family("complete", 3))
    assert X.as_dict() == {(1, 1, 1): 6}
    X = chromatic_symmetric(graph_from_edges(2, []))
    assert X.as_dict() == {(2,): 1, (1, 1): 2}


def _random_graphs(count, n, seed):
    """G(n, p) with p drawn uniformly per graph."""
    rng = random.Random(seed)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    out = []
    for _ in range(count):
        p = rng.random()
        out.append(graph_from_edges(n, [e for e in pairs if rng.random() < p]))
    return out


def test_chromatic_matches_ordered_walk():
    # the partition DP against the partition entries of the ordered walk
    cases = [g for n in range(1, 7) for g in enumerate_graphs(n)]
    cases += _random_graphs(40, 7, seed=7) + _random_graphs(40, 8, seed=8)
    cases += [family(kind, 8) for kind in ("path", "cycle", "star", "complete")]
    cases.append(graph_from_edges(8, []))
    for g in cases:
        by_type = ordered_colorings_by_type(g)
        walk = {mu: c for mu, c in by_type.items() if list(mu) == sorted(mu, reverse=True)}
        assert chromatic_symmetric(g).as_dict() == walk
    assert chromatic_symmetric(graph_from_edges(0, [])).as_dict() == {(): 1}
    with pytest.raises(CapacityError, match="chromatic enumeration capped at n <= 8"):
        chromatic_symmetric(family("path", 9))


def test_chromatic_convention_matches_ordered_expansion():
    # the per-composition ordered count equals c_{sort(alpha)} for every alpha
    for n in range(1, 6):
        for g in enumerate_graphs(n):
            X = chromatic_symmetric(g).as_dict()
            by_type = ordered_colorings_by_type(g)
            for alpha, count in by_type.items():
                assert count == X[tuple(sorted(alpha, reverse=True))]


def test_chromatic_matches_brute_force_colorings():
    # c_mu is the coefficient of x_1^mu_1 x_2^mu_2 ...: proper colorings whose
    # i-th color is used mu_i times, read off every map V -> [n]
    for n in range(1, 6):
        for g in enumerate_graphs(n):
            counts = {}
            for f in iproduct(range(n), repeat=n):
                if any(f[u] == f[v] for u, v in g.edges()):
                    continue
                used = [f.count(c) for c in range(n)]
                while used[-1] == 0:
                    used.pop()
                mu = tuple(used)
                if mu == tuple(sorted(mu, reverse=True)) and 0 not in mu:
                    counts[mu] = counts.get(mu, 0) + 1
            assert chromatic_symmetric(g).as_dict() == counts


def brute_ordered_colorings(g, colors):
    """Count maps V -> [colors] whose level flag is discrete at every step."""
    total = 0
    for f in iproduct(range(1, colors + 1), repeat=g.n):
        vals = sorted(set(f))
        done = []
        ok = True
        for v in vals:
            level = [u for u in range(g.n) if f[u] == v]
            contracted = contract(g, done)
            survivors = [u for u in range(g.n) if u not in done]
            idx = {u: i for i, u in enumerate(survivors)}
            if any(
                contracted.has_edge(idx[a], idx[b])
                for i, a in enumerate(level)
                for b in level[i + 1 :]
            ):
                ok = False
                break
            done.extend(level)
        total += ok
    return total


def test_chi_counts_ordered_colorings():
    cases = enumerate_graphs(2) + enumerate_graphs(3) + [
        family("path", 4),
        family("star", 4),
        family("cycle", 4),
        family("complete", 4),
    ]
    for g in cases:
        F = F_graph_recurrence(g)
        for colors in range(0, 4):
            assert principal_specialization(F, colors) == brute_ordered_colorings(
                g, colors
            )


# ---------------------------------------------------------------------------
# coefficient properties

def test_thm72_examples():
    r = check_thm72(family("path", 3))
    assert r["passed"]
    zd = F_graph_colorings(family("path", 3)).as_dict()
    assert zd[(2, 1)] == 1  # 1! * f_1 of the independence complex

    c5 = check_thm72(family("cycle", 5))
    assert c5["passed"] and c5["b"]["connectivity"] == 2
    for alpha, c in F_graph_colorings(family("cycle", 5)).as_dict().items():
        if c:
            assert alpha[-1] == 1 and (len(alpha) < 2 or alpha[-2] == 1)


def test_thm72_literal_c_misses_on_stars():
    r = check_thm72(family("star", 5))
    assert r["passed"]
    assert not r["c"]["paper_literal_holds"]
    case = next(c for c in r["c"]["cases"] if c["q"] == 1 and c["k"] == 2)
    assert case["zeta"] == case["transversal"] > case["literal"]


def test_thm72_passes_on_small_classes():
    for n in range(1, 5):
        for g in enumerate_graphs(n):
            assert check_thm72(g)["passed"]


def rebuilt_separator_cases(g):
    """Part (c) the literal way: every q-set's graph minus S is rebuilt with
    `induced` and split into components once per (q, k)."""
    from itertools import combinations
    from math import factorial, prod

    from nestoqsym.graphs import components, connectivity, induced

    n, cases = g.n, []
    for q in range(1, connectivity(g) + 1):
        for k in range(2, n - q + 1):
            scale = factorial(n - q - k) * factorial(q)
            transversal = literal = 0
            for S in combinations(range(n), q):
                keep = [v for v in range(n) if v not in S]
                sizes = [c.bit_count() for c in components(induced(g, keep))]
                transversal += scale * sum(prod(p) for p in combinations(sizes, k))
                if len(sizes) == k:
                    literal += scale * prod(sizes)
            cases.append((q, k, transversal, literal))
    return cases


def test_thm72_separator_counts_match_rebuilt_graphs():
    total = 0
    for n in range(1, 6):
        for g in enumerate_graphs(n):
            cases = check_thm72(g)["c"]["cases"]
            got = [(c["q"], c["k"], c["transversal"], c["literal"]) for c in cases]
            assert got == rebuilt_separator_cases(g), g
            total += len(got)
    assert total == 103


# ---------------------------------------------------------------------------
# families

def test_family_F_examples():
    assert family_F("permutohedron", 3) == element("M", {(1, 1, 1): 6})
    assert family_F("associahedron", 4) == EX54
    assert family_F("cyclohedron", 3) == element("M", {(1, 1, 1): 6})
    with pytest.raises(InputError):
        family_F("simplex", 3)


def test_family_recurrences_match_graph_route():
    for kind in ("pe", "as", "cy", "st"):
        for n in range(1, 7):
            assert family_recurrence_check(kind, n)


def test_family_vertex_counts_examples():
    assert family_vertex_counts(4) == (24, 14, 20, 16)
    assert family_vertex_counts(1) == (1, 1, 1, 1)
    assert family_vertex_counts(5)[1] == 42


# ---------------------------------------------------------------------------
# tree-enumerator linear algebra

def test_tree_matrix_kernel_examples():
    rank5, kernel5 = tree_matrix_kernel(5)
    assert (rank5, len(kernel5)) == (8, 1)
    assert tree_matrix_kernel(4) == (4, [])
    assert tree_matrix_kernel(2) == (1, [])


def test_kernel_relation_annihilates_tree_enumerators():
    rank, kernel = tree_matrix_kernel(5)
    shapes = enumerate_tree_shapes(5)
    for rel in kernel:
        acc = qsym.zero("M")
        for c, sh in zip(rel, shapes):
            acc = acc + F_tree(sh).scale(c)
        assert acc.is_zero()
    from math import gcd

    g = 0
    for c in kernel[0]:
        g = gcd(g, c)
    assert g == 1  # primitive integer relation


# ---------------------------------------------------------------------------
# collisions

def test_collision_search_small():
    r = collision_search(2, "F")
    assert r.class_count == 2 and r.value_count == 2 and not r.collisions
    with pytest.raises(CapacityError):
        collision_search(8, "F")
    with pytest.raises(InputError):
        collision_search(3, "Y")


# ---------------------------------------------------------------------------
# Hopf morphism

def test_hopf_morphism_k2_product_matches_remark_pair():
    r = hopf_morphism_check(K2B)
    assert r["passed"]
    # (2 M[1,1])^2 equals the splitting enumerator of the two-segment product
    lhs = mul(F_splitting(K2B), F_splitting(K2B))
    b2 = building_set(4, [m(1), m(2), m(3), m(4), m(1, 2), m(3, 4)])
    assert lhs == F_splitting(b2)


def test_hopf_primitive_coproduct():
    point = BuildingSet(1, (1,))
    lhs = qsym.coproduct(F_splitting(point))
    assert lhs.as_dict() == {((), (1,)): 1, ((1,), ()): 1}
    r = hopf_morphism_check(point)
    assert r["passed"]


def test_takeuchi_antipode_image_is_qsym_antipode():
    s = takeuchi_antipode(K2B)
    assert F_of_hopf(s) == element("M", {(2,): 2, (1, 1): 2})
    assert F_of_hopf(s) == antipode(F_splitting(K2B))


def splitting_product(h):
    """F of a sum of words through F_splitting of every factor (the oracle)."""
    out = qsym.zero("M")
    for word, c in h.terms:
        prod = one("M")
        for factor in word:
            prod = mul(prod, F_splitting(factor))
        out = out + prod.scale(c)
    return out


def test_F_of_hopf_matches_splitting_product_on_criterion_8_sample():
    sample = [from_graph(g) for n in range(1, 5) for g in enumerate_graphs(n)]
    sample += random_building_sets(20)
    assert len(sample) == 38
    for b in sample:
        s = takeuchi_antipode(b)
        assert F_of_hopf(s) == splitting_product(s), b


def test_building_set_recurrence_matches_splitting():
    for b in random_building_sets(300, seed=7, max_n=7) + [BuildingSet(0, ())]:
        assert F_of_hopf(hopf_monomial(b)) == F_splitting(b), b


def test_F_of_hopf_never_runs_the_splitting_route(monkeypatch):
    b = from_graph(family("path", 4))
    expected = antipode(F_splitting(b))

    def refuse(*args):
        raise AssertionError("F_of_hopf ran the splitting route")

    monkeypatch.setattr(invariants, "F_splitting", refuse)
    assert F_of_hopf(takeuchi_antipode(b)) == expected


def test_hopf_morphism_on_random_building_sets():
    for b in random_building_sets(8, seed=99):
        assert hopf_morphism_check(b)["passed"]


def test_product_intertwines_on_distinct_pairs():
    from nestoqsym.buildset import product

    pool = [
        from_graph(family("path", 2)),
        from_graph(family("path", 3)),
        from_graph(family("complete", 3)),
        discrete_building_set(2),
        BuildingSet(1, (1,)),
    ]
    for b1 in pool:
        for b2 in pool:
            if b1.n + b2.n <= 6:
                lhs = F_splitting(product(b1, b2))
                assert lhs == mul(F_splitting(b1), F_splitting(b2))


# ---------------------------------------------------------------------------
# the pinned building-set pair

def test_remark_pair_values():
    b1 = building_set(4, [m(1), m(2), m(3), m(4), m(1, 2), m(1, 2, 3)])
    b2 = building_set(4, [m(1), m(2), m(3), m(4), m(1, 2), m(3, 4)])
    assert F_splitting(b1) == element(
        "M",
        {(1, 1, 1, 1): 24, (2, 1, 1): 10, (1, 2, 1): 8, (1, 1, 2): 6, (3, 1): 2, (2, 2): 2},
    )
    assert F_splitting(b2) == element(
        "M",
        {(1, 1, 1, 1): 24, (2, 1, 1): 8, (1, 2, 1): 8, (1, 1, 2): 8, (2, 2): 4},
    )
    from nestoqsym.nestopoly import nested_sets_by_size

    assert nested_sets_by_size(b1) == nested_sets_by_size(b2) == (1, 4, 4)
    assert vertex_count(F_splitting(b1), 4) == vertex_count(F_splitting(b2), 4) == 4


# ---------------------------------------------------------------------------
# three-way vertex count agreement

def test_three_way_vertex_counts():
    from nestoqsym.nestopoly import maximal_nested_sets, tree_multiset

    for n in range(1, 6):
        for g in enumerate_graphs(n, connected_only=True):
            b = from_graph(g)
            trees = tree_multiset(b)
            count = sum(trees.values())
            assert count == len(maximal_nested_sets(b))
            assert count == vertex_count(F_graph_recurrence(g), n)
    for kind in ("complete", "path", "cycle", "star"):
        for n in range(3, 8):
            b = from_graph(family(kind, n))
            assert sum(tree_multiset(b).values()) == vertex_count(
                family_F({"complete": "pe", "path": "as", "cycle": "cy", "star": "st"}[kind], n),
                n,
            )
