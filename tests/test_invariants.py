"""The enumerator routes, coefficient theorems, families, collisions, Hopf checks."""

import gc
import os
import random
import subprocess
import sys
from collections import Counter
from functools import lru_cache
from itertools import product as iproduct
from math import comb, factorial, prod
from pathlib import Path

import pytest
from hypothesis import given, settings

from conftest import components_by_size, graphs, naive_components
from nestoqsym import invariants, qsym
from nestoqsym.bitsets import bits, mask_of, nonempty_submasks
from nestoqsym.buildset import (
    BuildingSet,
    HopfElement,
    building_set,
    components,
    coproduct,
    discrete_building_set,
    from_graph,
    hopf_monomial,
    hopf_word,
    is_connected,
    product,
    takeuchi_antipode,
)
from nestoqsym.errors import LIMITS, CapacityError, InputError
from nestoqsym.graphs import (
    FAMILY_KINDS,
    _contract_vertex,
    _independent_sets,
    contract,
    edge_code,
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
    tree_matrix_kernel,
    zeta,
)
from nestoqsym.nestopoly import (
    BTree,
    TreeShape,
    _vertex,
    child_codes,
    enumerate_tree_shapes,
    forest_shapes,
    linear_extensions,
    maximal_nested_sets,
    shape_tree,
    tree_multiset,
)
from nestoqsym.qsym import (
    QSymElement,
    _mul_d,
    antipode,
    descent_composition,
    element,
    from_fundamental,
    monomial,
    mul,
    one,
    principal_specialization,
    render,
    shift1,
    to_fundamental,
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
        for chain in literal_splitting_chains(b):
            t = tuple(blk.bit_count() for blk in chain)
            acc[t] = acc.get(t, 0) + 1
        assert element("M", acc) == F_splitting(b)


def test_splitting_chains_satisfy_flag_condition_verbatim():
    # dual route: re-check every produced chain through the real minors
    from nestoqsym.buildset import contraction, is_discrete, restriction

    for b in (K3B, L4B, discrete_building_set(3), from_graph(family("star", 4))):
        chains = literal_splitting_chains(b)
        for chain in chains:
            done = 0
            for blk in chain:
                step = contraction(restriction(b, done | blk), _relabel(done, done | blk))
                assert is_discrete(step)
                done |= blk
        # and completeness: every ordered set partition not produced fails
        produced = set(chains)
        total = _count_ordered_set_partitions(b.n)
        assert len(produced) <= total


def literal_splitting_chains(b):
    """Oracle: the splitting chains by a plain recursion over ordered set
    partitions, the flag condition read through a pair index (the members
    containing each vertex pair, smallest first)."""
    pairs = {}
    for s in sorted(b.sets, key=int.bit_count):
        vs = list(bits(s))
        for i, u in enumerate(vs):
            for v in vs[i + 1 :]:
                pairs.setdefault((u, v), []).append(s)

    def discrete_step(done, block):
        vs = list(bits(block))
        return not any(
            s & ~(done | block) == 0
            for i, u in enumerate(vs)
            for v in vs[i + 1 :]
            for s in pairs.get((u, v), ())
        )

    full = (1 << b.n) - 1
    out = []

    def rec(done, blocks):
        if done == full:
            out.append(blocks)
            return
        for blk in nonempty_submasks(full & ~done):
            if discrete_step(done, blk):
                rec(done | blk, blocks + (blk,))

    rec(0, ())
    return out


def test_route_1_matches_literal_recursion():
    # F_splitting and zeta by the types of the literal recursion's chains
    oracle_sets = (
        [from_graph(g) for n in range(1, 6) for g in enumerate_graphs(n)]
        + random_building_sets(200, seed=7, max_n=5)
        + [discrete_building_set(n) for n in range(1, 6)]
        + [BuildingSet(0, ())]
    )
    for b in oracle_sets:
        chains = literal_splitting_chains(b)
        types = Counter(tuple(blk.bit_count() for blk in c) for c in chains)
        assert F_splitting(b) == element("M", types)
        for alpha, count in types.items():
            assert zeta(b, alpha) == count


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


def test_zeta_at_the_splitting_row_matches_family_recurrence():
    n = LIMITS["splitting"].limit
    alphas = ((1,) * n, (2,) + (1,) * (n - 2), (1, 2) + (1,) * (n - 3), (3, 3) + (1,) * (n - 6), (n,))
    for kind in ("pe", "as", "cy", "st"):
        b = from_graph(family_graph(kind, n))
        F = family_F(kind, n)
        for alpha in alphas:
            assert sum(alpha) == n
            assert zeta(b, alpha) == F.coeff(alpha)


def test_F_splitting_examples():
    assert F_splitting(L4B) == EX54
    assert F_splitting(BuildingSet(1, (1,))) == monomial((1,))
    assert F_splitting(K3B) == element("M", {(1, 1, 1): 6})
    assert F_splitting(BuildingSet(0, ())) == one()


def test_F_splitting_terms_are_the_code_table_compositions():
    cases = [BuildingSet(0, ())] + random_building_sets(60, seed=7, max_n=7)
    cases += [from_graph(family(kind, 9)) for kind in FAMILY_KINDS]
    for b in cases:
        F = F_splitting(b)
        # the old construction: every composition built and checked afresh
        old = element("M", dict_walk_types(b))
        assert F == old and render(F) == render(old)
        by_code, code_of, in_order = qsym.code_table(b.n)
        # the stored keys are code_table's compositions, not copies
        assert all(alpha is by_code[code_of[alpha]] for alpha in F.keys)
        assert list(F.keys) == [a for _, a in in_order if a in F.as_dict()]


def dict_flag_walk(n: int, admissible, key, blocks=nonempty_submasks) -> dict:
    """A memoized walk over ordered set partitions: each covered set's
    continuations counted by key sequence in a dict.  The oracle of the
    packed counts (route 1, the ordered colorings).

    Ordered set partitions of [n] whose blocks come from blocks(rest) and
    pass admissible(done, block), listed by their sequence of key(block).

    The continuations depend on the covered mask alone, so they are memoized
    on it: each (done, block) pair is tested once, 3^n tests for all blocks.
    key=int lists the partitions themselves, each counted once, and
    blocks=singletons walks orderings.  Keys come in depth-first order,
    blocks in the order blocks(rest) yields them.
    """
    full = (1 << n) - 1
    memo = {full: {(): 1}}

    def rest(done: int) -> dict:
        hit = memo.get(done)
        if hit is None:
            hit = {}
            for blk in blocks(full & ~done):
                if admissible(done, blk):
                    k = (key(blk),)
                    for seq, c in rest(done | blk).items():
                        seq = k + seq
                        hit[seq] = hit.get(seq, 0) + c
            memo[done] = hit
        return hit

    out = rest(0)
    memo.clear()  # rest's closure is a cycle, so the memo would outlive the call
    return out


def _discrete_step(b: BuildingSet):
    """The flag condition as admissible(done, block): (B restricted to
    done | block) / done is discrete iff no member inside done | block meets
    block in two or more vertices.  Members of two or more vertices are
    scanned smallest first; a one-vertex block passes without a scan.
    The dict walk's predicate; the count reads the components of B|U
    (BuildingSet.lowest) instead."""
    wide = sorted((s for s in b.sets if s & (s - 1)), key=int.bit_count)

    def admissible(done: int, block: int) -> bool:
        if block & (block - 1):
            inside = done | block
            for s in wide:
                meet = s & block
                if meet & (meet - 1) and s & ~inside == 0:
                    return False
        return True

    return admissible


def dict_walk_types(b):
    """Route 1's former walk, the oracle of the packed count: splitting
    chains counted by their step sizes in a dict per covered set."""
    return dict_flag_walk(b.n, _discrete_step(b), key=int.bit_count)


ROUTE_1_CASES = (
    [from_graph(family_graph(kind, n)) for kind in ("pe", "as", "cy", "st") for n in range(10)]
    + [discrete_building_set(n) for n in range(10)]
    + random_building_sets(300, seed=7, max_n=6)
    + [product(from_graph(family("cycle", 4)), from_graph(family("star", 4)))]
)


def test_packed_route_1_matches_the_dict_walk():
    # the count reads the components of B|U (_splitting_ends); the dict
    # walk tests every block by the flag condition (_discrete_step)
    for b in ROUTE_1_CASES:
        types = dict_walk_types(b)
        F, old = F_splitting(b), element("M", types)
        assert F == old and render(F) == render(old)
        # zeta reads one slot, zero where no chain has the type; each call
        # walks afresh, so 8 compositions are read, evenly spaced
        alphas = qsym.compositions_of(b.n)
        for alpha in alphas[:: max(1, len(alphas) // 8)]:
            assert zeta(b, alpha) == types.get(alpha, 0), (b, alpha)


def test_ordered_colorings_match_the_dict_walk():
    for g in [family(kind, 7) for kind in ("path", "cycle", "star", "complete")] + [
        graph_from_edges(0, []),
        graph_from_edges(5, [(0, 1), (2, 3)]),
    ]:
        independent = lambda done, blk: all(g.adj[v] & blk == 0 for v in bits(blk))
        assert ordered_colorings_by_type(g) == dict_flag_walk(g.n, independent, key=int.bit_count)


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


def test_F_tree_caps_a_shape_like_a_tree():
    row = LIMITS["tree enumerators"]
    past = row.limit + 1
    with pytest.raises(CapacityError) as exc:
        F_tree(TreeShape("(" * past + ")" * past))
    assert str(exc.value) == (
        f"{row.what} capped at {row.size} <= {row.limit}, got {past} ({row.why})"
    )


@pytest.mark.parametrize("code", ["(()", "())", "()()", ")(", "", "(x)", "(()))(", "x", "(a)", 7])
def test_F_tree_refuses_a_code_that_is_not_one_tree(code):
    # F_tree read "(()" as a 2-node tree, M[2]; shape_tree read "()()" as a
    # chain and "" as one vertex, child_codes split "()()" into [")("], and
    # both raised TypeError on 7
    assert F_tree(TreeShape("(()())")) == F_tree(BTree(3, (None, 0, 0)))
    for read in (F_tree, shape_tree, child_codes):
        with pytest.raises(InputError, match="not one rooted tree"):
            read(TreeShape(code))


def test_tree_shape_codes_are_read_iff_canonical():
    # "(()(()))" was read as a shape unequal to ((())()), the code that
    # forest_shapes writes for the same tree, and _f_shape memoized both
    for read in (F_tree, shape_tree, child_codes):
        with pytest.raises(InputError, match="is not canonical"):
            read(TreeShape("(()(()))"))
    for n in range(1, 8):
        accepted = set()
        for inner in iproduct("()", repeat=2 * n - 2):
            code = "(" + "".join(inner) + ")"
            try:
                shape_tree(TreeShape(code))
            except InputError:
                continue
            accepted.add(code)
        assert accepted == {sh.code for sh in enumerate_tree_shapes(n)}, n


def test_random_building_sets_refuses_max_n_below_2():
    # max_n = 1 raised a bare ValueError from randrange
    assert len(random_building_sets(2, max_n=2)) == 2  # both building sets on 2 vertices
    for max_n in (1, 0, -3, 2.5):
        with pytest.raises(InputError, match="max_n"):
            random_building_sets(3, max_n=max_n)


def test_random_building_sets_stops_when_too_few_exist():
    # Two building sets exist on 2 vertices and 12 on 3, and asking for more
    # drew forever; a separate process fails that in seconds.
    src = str(Path(__file__).resolve().parent.parent / "src")
    code = "from nestoqsym.invariants import random_building_sets as r; r(3, max_n=2)"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        timeout=20,
    )
    assert "InputError: count=3 " in proc.stderr and "max_n=2 " in proc.stderr
    assert len(random_building_sets(14, max_n=3)) == 14


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


def submask_colorings(g):
    """Route 3 as it stood before it generated its blocks: every nonempty
    submask of the remaining vertices, tested for independence in the
    contracted graph, and a recursive call on the empty remainder to count
    each coloring."""
    n = g.n
    count = [0] * (1 << max(n - 1, 0))

    def rec(adj: tuple, remaining: int, code: int):
        if remaining == 0:
            count[code] += 1
            return
        code |= 1 << n - remaining.bit_count() >> 1
        for blk in nonempty_submasks(remaining):
            if any(adj[v] & blk for v in bits(blk)):
                continue
            rest = remaining & ~blk
            new_adj = list(adj)
            for u in bits(rest):
                extra = 0
                for w in bits(adj[u] & blk):
                    extra |= adj[w]
                new_adj[u] = (adj[u] | extra) & rest & ~(1 << u)
            rec(tuple(new_adj), rest, code)

    rec(g.adj, (1 << n) - 1, 0)
    packed = sum([c << 64 * code for code, c in enumerate(count)])
    return QSymElement("M", *invariants._terms(packed, n))


def walk_colorings(g):
    """Route 3 as it stood before it ran on _flag_counts: a recursion with
    one step per ordered coloring, each step building the independent sets
    of its contracted graph one vertex at a time, a per-walk table of the
    contracted graph of each remaining set, and a complete contracted
    graph on r vertices counted at once, as the r! orders of its vertices
    as singleton classes.  Each contracted graph is read off g by the path
    rule (contracted_by_paths), not contracted from its parent."""
    n = g.n
    full = (1 << n) - 1
    count = [0] * (1 << max(n - 1, 0))  # ordered colorings by composition code
    contracted = {}  # remaining set -> its contracted adjacency tuple
    top = len(count) - 1  # every cut

    def rec(adj: tuple, remaining: int, code: int):
        r = remaining.bit_count()
        code |= 1 << n - r >> 1  # bit s - 1 for s colored, none at s = 0
        blocks = [0]
        for v in bits(remaining):
            blocks += [s | 1 << v for s in blocks if not adj[v] & s]
        if len(blocks) == r + 1:  # complete: r! singleton orders
            count[code | top & ~((1 << n - r) - 1)] += factorial(r)
            return
        for blk in blocks:
            if blk == remaining:  # the last class
                count[code] += 1
            elif blk:
                rest = remaining ^ blk
                new_adj = contracted.get(rest)
                if new_adj is None:
                    new_adj = contracted[rest] = contracted_by_paths(g, full ^ rest)
                rec(new_adj, rest, code)

    rec(g.adj, full, 0)
    packed = sum([c << 64 * code for code, c in enumerate(count)])
    return QSymElement("M", *invariants._terms(packed, n))


def assert_matches_submask_colorings(g):
    # both oracles: the submask walk, and the recursion the route replaced
    got = F_graph_colorings(g)
    for want in (submask_colorings(g), walk_colorings(g)):
        assert got == want and repr(got) == repr(want), g.adj


def test_colorings_match_the_submask_recursion_on_every_class_through_n6():
    for n in range(1, 7):
        for g in enumerate_graphs(n):
            assert_matches_submask_colorings(g)


@pytest.mark.parametrize("kind", FAMILY_KINDS)
def test_colorings_match_the_submask_recursion_on_families_through_n8(kind):
    for n in range(1, 9):
        assert_matches_submask_colorings(_family_or_edgeless(kind, n))


@pytest.mark.parametrize("n, count", [(7, 32), (8, 8)])
def test_colorings_match_the_submask_recursion_on_random_graphs(n, count):
    # G(n, p) with p spread evenly over 0.2-0.8, from sparse to dense
    rng = random.Random(41 + n)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    for i in range(count):
        p = 0.2 + 0.6 * i / (count - 1)
        assert_matches_submask_colorings(
            graph_from_edges(n, [e for e in pairs if rng.random() < p])
        )


def complete_bipartite(a, b):
    return graph_from_edges(a + b, [(u, a + w) for u in range(a) for w in range(b)])


def wheel(n):
    """A hub, vertex 0, joined to every vertex of the cycle 1, ..., n - 1."""
    rim = [(i, i % (n - 1) + 1) for i in range(1, n)]
    return graph_from_edges(n, [(0, i) for i in range(1, n)] + rim)


def test_colorings_match_the_submask_recursion_where_the_rest_turns_complete():
    # coloring one side of K_{a,b} leaves the other side complete, and the
    # hub of a wheel joins its rim into one clique: complete contracted
    # graphs met mid-coloring, where walk_colorings counts in closed form
    for a in range(1, 7):
        for b in range(1, 8 - a):
            assert_matches_submask_colorings(complete_bipartite(a, b))
    for n in range(4, 8):
        assert_matches_submask_colorings(wheel(n))


@pytest.mark.parametrize(
    "g",
    [family("complete", 8), complete_bipartite(4, 4), wheel(8)],
    ids=["K8", "K4,4", "wheel8"],
)
def test_colorings_match_the_recurrence_where_the_rest_turns_complete(g):
    assert F_graph_colorings(g) == F_graph_recurrence(g)


def test_colorings_of_a_complete_graph_are_the_orders_of_its_vertices():
    # every class of a complete graph is one vertex: n! M[1^n], to the row
    for n in range(1, LIMITS["colorings"].limit + 1):
        got = F_graph_colorings(family("complete", n))
        assert got == element("M", {(1,) * n: factorial(n)}), n


@pytest.mark.parametrize("n, want", [(0, one("M")), (1, monomial((1,)))])
def test_routes_agree_on_no_vertex_and_one(n, want):
    # route 3 re-packs its count at the reversed compositions, and on no
    # vertex and on one that count has a single slot: each route must still
    # count the one coloring of each graph, the empty one included
    g = graph_from_edges(n, [])
    got = {name: route(g) for name, route in invariants.ROUTES.items()}
    assert got == dict.fromkeys(invariants.ROUTES, want)


def contracted_by_paths(g, colored):
    """Route 3's contracted graph once the vertices of colored are colored,
    read off g alone: uncolored u ~ w iff some u-w path in g has every
    inner vertex colored.  Colored vertices keep no neighbours."""
    adj = [0] * g.n
    for u in bits(((1 << g.n) - 1) & ~colored):
        reach, stack = 0, [u]
        while stack:  # path ends reached from u through colored vertices
            for y in bits(g.adj[stack.pop()] & ~reach & ~(1 << u)):
                reach |= 1 << y
                if colored >> y & 1:
                    stack.append(y)
        adj[u] = reach & ~colored
    return tuple(adj)


def assert_contractions_follow_the_paths(g):
    # every remaining set and every vertex of it: contracting the vertex in
    # the path graph of the set gives the path graph of the set without it
    full = (1 << g.n) - 1
    assert contracted_by_paths(g, 0) == g.adj
    for remaining in range(1, full + 1):
        adj = contracted_by_paths(g, full ^ remaining)
        for x in bits(remaining):
            rest = remaining ^ 1 << x
            want = contracted_by_paths(g, full ^ rest)
            assert _contract_vertex(adj, x, rest) == want, (g.adj, remaining, x)


def test_contracted_graphs_follow_the_paths_on_every_class_through_n6():
    for n in range(1, 7):
        for g in enumerate_graphs(n):
            assert_contractions_follow_the_paths(g)


@pytest.mark.parametrize("kind", FAMILY_KINDS)
def test_contracted_graphs_follow_the_paths_on_families_at_n7(kind):
    assert_contractions_follow_the_paths(family(kind, 7))


def assert_blocks_follow_the_paths(g):
    # route 3 filters each remaining set's blocks from its parent's; each
    # list must still be the independent sets of the path graph of its set
    full = (1 << g.n) - 1
    blocks = invariants._remaining_blocks(g)
    assert len(blocks) == full + 1
    for remaining, got in enumerate(blocks):
        want = _independent_sets(contracted_by_paths(g, full ^ remaining), remaining)
        assert sorted(got) == sorted(want), (g.adj, remaining)


def test_remaining_blocks_follow_the_paths_on_every_class_through_n6():
    for n in range(1, 7):
        for g in enumerate_graphs(n):
            assert_blocks_follow_the_paths(g)


@pytest.mark.parametrize("kind", FAMILY_KINDS)
def test_remaining_blocks_follow_the_paths_on_families_at_n7(kind):
    assert_blocks_follow_the_paths(family(kind, 7))


def test_remaining_blocks_follow_the_paths_on_random_graphs_at_n8():
    # G(8, p) with p spread evenly over 0.1-0.9, from sparse to dense
    rng = random.Random(46)
    pairs = [(u, v) for u in range(8) for v in range(u + 1, 8)]
    for i in range(20):
        p = 0.1 + 0.8 * i / 19
        assert_blocks_follow_the_paths(graph_from_edges(8, [e for e in pairs if rng.random() < p]))


@pytest.mark.parametrize(
    "route",
    [
        F_graph_colorings,
        F_graph_recurrence,
        chromatic_symmetric,
        lambda g: F_splitting(from_graph(g)),
    ],
    ids=["colorings", "recurrence", "chromatic", "splitting"],
)
def test_routes_leave_no_cyclic_garbage(route):
    # A recursive closure is a reference cycle; each call breaks its own,
    # so with the collector off nothing is left for it to find.
    for kind in ("cycle", "path", "star"):
        g = family(kind, 8)
        gc.collect()
        gc.disable()
        try:
            route(g)
            left = gc.collect()
        finally:
            gc.enable()
        assert left == 0, kind


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


def test_recurrence_above_old_limit_matches_closed_forms():
    stellohedra = [1]  # s(1) = 1, s(n) = (n - 1) s(n - 1) + 1
    for n in range(2, 15):
        stellohedra.append((n - 1) * stellohedra[-1] + 1)
    for n in range(12, 15):
        closed = {
            "path": comb(2 * n, n) // (n + 1),  # Catalan
            "cycle": comb(2 * n - 2, n - 1),
            "star": stellohedra[n - 1],
            "complete": factorial(n),
        }
        for kind, count in closed.items():
            F = F_graph_recurrence(family(kind, n))
            assert vertex_count(F, n) == count, (kind, n)
            assert F.coeff((1,) * n) == factorial(n), (kind, n)  # every ordering


def test_recurrence_coefficients_fit_their_64_bit_slots():
    # a coefficient counts ordered set partitions of one type: at most n!
    assert factorial(LIMITS["recurrence"].limit) < 2**64


def test_recurrence_multiplies_each_pair_of_values_once(monkeypatch):
    calls = []

    def counted(F_terms, G_terms):
        calls.append(1)
        return _mul_d(F_terms, G_terms)

    monkeypatch.setattr(invariants, "_mul_d", counted)
    invariants._product.cache_clear()
    invariants._SUBGRAPHS.clear()
    # star:11 less its centre leaves k equal leaves for each of 2^10 leaf sets
    assert vertex_count(F_graph_recurrence(family("star", 11)), 11) == 9864101
    assert 1 <= len(calls) <= 10
    calls.clear()
    assert vertex_count(F_graph_recurrence(family("star", 11)), 11) == 9864101
    assert calls == []  # every product is in the shared memo


def test_product_memo_is_bounded():
    assert invariants._product.cache_info().maxsize is not None


def test_product_memo_cold_and_warm_agree():
    sample = enumerate_graphs(7, connected_only=True)[::40]
    cold = []
    for g in sample:
        invariants._product.cache_clear()
        invariants._SUBGRAPHS.clear()
        cold.append(F_graph_recurrence(g))
    assert [F_graph_recurrence(g) for g in sample] == cold


def test_subgraph_memo_cold_and_warm_agree():
    sample = enumerate_graphs(7, connected_only=True)[::40]
    cold = []
    for g in sample:
        invariants._SUBGRAPHS.clear()
        cold.append((F_graph_recurrence(g), chromatic_symmetric(g)))
    # the other way round, so shared values come from the other graphs
    warm = [(F_graph_recurrence(g), chromatic_symmetric(g)) for g in reversed(sample)]
    assert warm[::-1] == cold


def test_subgraph_memo_stays_within_its_budget():
    # the budget is the cap on entries
    memo = invariants._SUBGRAPHS
    memo.clear()
    graphs = [family(kind, 14) for kind in ("path", "cycle", "star", "complete")]
    graphs += _random_graphs(1, 14, seed=14, p=0.5)
    for g in graphs:
        F_graph_recurrence(g)
    small = [family(kind, 8) for kind in ("path", "cycle", "star", "complete")]
    for g in small:
        chromatic_symmetric(g)
    assert 0 < len(memo) <= invariants._SUBGRAPHS_MAXSIZE
    # no whole-graph value: a sweep never meets the same graph twice
    whole = {edge_code(g) for g in graphs}
    whole |= {(g.n, (1 << g.n) - 1, edge_code(g)) for g in small}
    assert not whole & memo.keys()


def test_subgraph_memo_budget_is_finite():
    cap = invariants._SUBGRAPHS_MAXSIZE
    assert type(cap) is int and cap > 0
    memo = invariants._SUBGRAPHS
    memo.clear()
    try:
        for i in range(cap + 5):
            invariants._remember(("probe", i), i)
            assert len(memo) == min(i + 1, cap)
        assert list(memo) == [("probe", i) for i in range(5, cap + 5)]
    finally:
        memo.clear()


def test_connected_terms_end_in_1():
    for n in range(1, 6):
        for g in enumerate_graphs(n, connected_only=True):
            for alpha, _ in F_graph_recurrence(g).terms:
                assert alpha[-1] == 1


def _family_or_edgeless(kind, n):
    """The family's n-vertex graph, the path for a cycle below 3, and the
    graph on no vertices at n = 0."""
    if n == 0:
        return graph_from_edges(0, [])
    return family("path" if kind == "cycle" and n < 3 else kind, n)


def test_terms_read_in_slot_order_match_the_sorted_construction():
    # the recurrence's terms, read off its packed value in term order, are
    # the tuple Combination.of sorts out of the slots read in code order
    cases = [g for n in range(1, 8) for g in enumerate_graphs(n)]
    cases += [
        _family_or_edgeless(kind, n)
        for kind in ("path", "cycle", "star", "complete")
        for n in range(0, 13)
    ]
    for g in cases:
        by_code = qsym.code_table(g.n)[0]
        packed = invariants._packed_F(g).to_bytes(8 * len(by_code), sys.byteorder)
        slots = memoryview(packed).cast("Q")
        in_code_order = {by_code[i]: c for i, c in enumerate(slots) if c}
        sorted_form = qsym.QSymElement.of(in_code_order, basis="M")
        assert F_graph_recurrence(g).terms == sorted_form.terms, g


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


def _fundamental_by_vertices(b):
    """The oracle: the descent compositions of the linear extensions of the
    B-tree at every vertex, each vertex built and listed in turn."""
    acc = {}
    for fam in maximal_nested_sets(b):
        for word in linear_extensions(_vertex(b, fam)[0]):
            beta = descent_composition(word)
            acc[beta] = acc.get(beta, 0) + 1
    return element("L", acc)


def assert_fundamental_matches_vertices(b):
    expect = _fundamental_by_vertices(b)
    assert F_fundamental(b) == expect, b
    assert F_star(b) == antipode(expect), b


def test_fundamental_by_shapes_matches_vertices_on_graphical_sets():
    sample = [from_graph(g) for n in range(1, 6) for g in enumerate_graphs(n)]
    assert len(sample) == 52
    for b in sample:
        if is_connected(b):
            assert_fundamental_matches_vertices(b)
        else:
            with pytest.raises(InputError):
                F_fundamental(b)


def test_fundamental_by_shapes_matches_vertices_on_random_sets():
    sample = [b for b in random_building_sets(200, seed=7, max_n=6) if is_connected(b)]
    assert len(sample) == 138
    for b in sample:
        assert_fundamental_matches_vertices(b)


@pytest.mark.parametrize("kind", ["pe", "as", "cy", "st"])
def test_fundamental_by_shapes_matches_vertices_on_families(kind):
    for n in range(1, 8):
        assert_fundamental_matches_vertices(from_graph(family_graph(kind, n)))


def test_shape_descents_count_the_linear_extensions():
    # hook-length formula: a tree on n nodes has n! / prod of subtree sizes
    # linear extensions, one descent composition each
    def sizes(code):
        kids = child_codes(TreeShape(code))
        below = [s for kid in kids for s in sizes(kid)]
        return [1 + sum(sizes(kid)[0] for kid in kids)] + below

    for n in range(1, 8):
        for sh in enumerate_tree_shapes(n):
            packed = invariants._descents(sh.code)
            total = sum(invariants._terms(packed, n)[1])
            assert total == factorial(n) // prod(sizes(sh.code)), sh


def test_shape_descents_by_code_match_the_descent_compositions():
    # _descents counts descent sets on its DP over placed sets; listing the
    # extensions and building each one's descent composition is the oracle
    for n in range(1, 10):
        code_of = qsym.code_table(n)[1]
        for sh in enumerate_tree_shapes(n):
            words = linear_extensions(shape_tree(sh))
            want = sum(1 << 64 * code_of[descent_composition(w)] for w in words)
            assert invariants._descents.__wrapped__(sh.code) == want, sh


def test_shape_descents_match_the_tree_enumerators_past_listing():
    # Stanley: a tree's enumerator is the sum of L over its extensions'
    # descent compositions, so the basis change of F_tree is the oracle
    # where the extensions are too many to list (11! on star:12)
    shapes = [TreeShape("(" + "()" * 11 + ")"), TreeShape("(" * 12 + ")" * 12)]
    shapes += random.Random(37).sample(enumerate_tree_shapes(10), 20)
    for sh in shapes:
        packed = invariants._descents.__wrapped__(sh.code)
        assert QSymElement("L", *invariants._terms(packed, sh.size)) == to_fundamental(F_tree(sh)), sh


@pytest.mark.parametrize("kind", FAMILY_KINDS)
def test_fundamental_route_at_n8_matches_the_recurrence(kind):
    g = family(kind, 8)
    assert from_fundamental(F_fundamental(from_graph(g))) == F_graph_recurrence(g)


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


def _random_graphs(count, n, seed, p=None):
    """G(n, p), with p drawn uniformly per graph unless it is given."""
    rng = random.Random(seed)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    out = []
    for _ in range(count):
        q = rng.random() if p is None else p
        out.append(graph_from_edges(n, [e for e in pairs if rng.random() < q]))
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
    with pytest.raises(CapacityError, match="chromatic enumeration capped at n <= 11"):
        chromatic_symmetric(family("path", 12))


def oracle_decode(whole, n):
    """The block-size keys decoded one digit at a time, then sorted."""
    counts = {}
    for key, c in whole.items():
        parts = []
        for k in range(1, n + 1):
            key, mult = divmod(key, n + 1)
            parts += [k] * mult
            c *= factorial(mult)
        counts[tuple(reversed(parts))] = c
    return invariants.SymElement.of(counts)


def oracle_str(X):
    """The text form of X with each term's body formatted in place."""
    if not X.terms:
        return "0"
    return " + ".join(
        f"m[{','.join(map(str, mu))}]" if c == 1 else f"{c}*m[{','.join(map(str, mu))}]"
        for mu, c in X.terms
    )


def test_chromatic_table_read_matches_the_decoded_keys():
    cases = [g for n in range(1, 8) for g in enumerate_graphs(n)]
    cases += [graph_from_edges(n, []) for n in range(0, LIMITS["chromatic"].limit + 1)]
    for g in cases:
        X = chromatic_symmetric(g)
        assert X.terms == oracle_decode(invariants._block_counts(g), g.n).terms, g
        assert str(X) == oracle_str(X)


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


def test_thm72_parts_b_d_e_fail_on_a_planted_F(monkeypatch):
    # F of path:4 plus 25 M[4]: one-block colorings of a graph with edges,
    # more of them than of any refinement (4! of (1,1,1,1) at most) and
    # than X's coefficient of m_(4), so (b), (d) and (e) each name M[4].
    recurrence = invariants.F_graph_recurrence
    monkeypatch.setattr(
        invariants, "F_graph_recurrence", lambda g: recurrence(g) + monomial((4,), 25)
    )
    r = check_thm72(family("path", 4))
    assert not r["passed"]
    assert r["b"]["holds"] is r["d"]["holds"] is r["e"]["holds"] is False
    assert r["b"]["violations"] == [{"q": 1, "alpha": (4,), "zeta": 25}]
    finer = [(1, 3), (2, 2), (3, 1), (1, 1, 2), (1, 2, 1), (2, 1, 1), (1, 1, 1, 1)]
    assert r["d"]["violations"] == [{"alpha": (4,), "beta": beta} for beta in finer]
    assert r["e"]["violations"] == [{"alpha": (4,), "zeta": 25, "c_mu": 0}]


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


def test_tree_matrix_rank_is_half_the_compositions():
    dims = {5: 1, 6: 4, 7: 16, 8: 51, 9: 158}
    for n in range(2, 10):
        rank, kernel = tree_matrix_kernel(n)
        assert (rank, len(kernel)) == (2 ** (n - 2), dims.get(n, 0)), n


def gauss_jordan_kernel(rows):
    """_integer_kernel's elimination that also clears the rows above each pivot."""
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
                aug[r] = invariants._primitive(
                    [pivot * x - f * y for x, y in zip(aug[r], aug[rank])]
                )
        rank += 1
    kernel = [tuple(invariants._primitive(row[ncols:])) for row in aug[rank:]]
    return rank, kernel


def test_gaussian_kernel_matches_gauss_jordan():
    for n in range(1, 9):
        assert tree_matrix_kernel(n) == gauss_jordan_kernel(chain_kernel_rows(n)), n


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

def test_collision_search_renders_only_shared_values(monkeypatch):
    rendered = []
    render = qsym.render
    monkeypatch.setattr(qsym, "render", lambda F: rendered.append(F) or render(F))
    assert len(collision_search(6, "F").collisions) == len(rendered) == 3
    rendered.clear()  # str(X) renders through qsym.render too
    assert len(collision_search(6, "X").collisions) == len(rendered) == 10


def test_collision_search_small():
    r = collision_search(2, "F")
    assert r.class_count == 2 and r.value_count == 2 and not r.collisions
    with pytest.raises(CapacityError):
        collision_search(9, "F")
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


def test_takeuchi_antipode_image_at_the_takeuchi_row():
    n = LIMITS["takeuchi"].limit
    for kind in FAMILY_KINDS:
        b = from_graph(family(kind, n))
        assert F_of_hopf(takeuchi_antipode(b)) == antipode(F_splitting(b)), kind


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


def test_F_of_hopf_ignores_a_wrong_value_in_route_1s_memo(monkeypatch):
    # The antipode side sets the recurrence against route 1, so a wrong F
    # planted in route 1's memo for every factor must not reach F_of_hopf.
    b = from_graph(family("path", 4))
    s = takeuchi_antipode(b)
    factors = {f for word, _ in s.terms for f in word}
    memos = (invariants._splitting, invariants._factor_F)
    for memo in memos:
        memo.cache_clear()
    expected = F_of_hopf(s)
    invariants._factor_F.cache_clear()  # the last F_of_hopf recomputes
    true = {f: F_splitting(f) for f in factors}
    invariants._splitting.cache_clear()
    flag_counts = invariants._flag_counts
    monkeypatch.setattr(invariants, "_flag_counts", lambda n, ends: 2 * flag_counts(n, ends))
    try:
        for f in factors:
            F_splitting(f)  # stores twice the true F
        monkeypatch.undo()
        assert all(F_splitting(f) == true[f].scale(2) for f in factors)
        assert F_of_hopf(s) == expected
    finally:
        for memo in memos:
            memo.cache_clear()


def test_shared_hopf_memos_are_bounded_and_hold_small_sets_only():
    memos = (invariants._splitting, invariants._factor_F)
    assert [m.cache_info().maxsize for m in memos] == [1024, 1024]
    large = [from_graph(family("complete", 8)), from_graph(family("path", 8))]

    def run(sets):
        for b in sets:
            F_splitting(b)
            F_of_hopf(hopf_monomial(b))

    for memo in memos:
        memo.cache_clear()
    run(large)
    assert [m.cache_info().currsize for m in memos] == [0, 0]
    run(random_building_sets(2000, seed=11, max_n=6))
    assert [m.cache_info().currsize for m in memos] == [1024, 1024]
    before = [m.cache_info() for m in memos]
    run(large + large)
    assert [m.cache_info() for m in memos] == before  # on 8 vertices, never read nor stored


def test_shared_hopf_memos_cold_and_warm_agree():
    sample = random_building_sets(60, seed=5, max_n=6)
    memos = (invariants._splitting, invariants._factor_F)
    cold = []
    for b in sample:
        for memo in memos:
            memo.cache_clear()
        cold.append((F_splitting(b), F_of_hopf(takeuchi_antipode(b))))
    warm = [(F_splitting(b), F_of_hopf(takeuchi_antipode(b))) for b in sample]
    assert warm == cold and repr(warm) == repr(cold)


def test_coproduct_image_matches_the_pairwise_sum():
    # hopf_morphism_check adds the 2^n pieces into one dict and sorts once;
    # the sum one piece at a time is the oracle.
    families = [from_graph(family(kind, n)) for kind in FAMILY_KINDS for n in range(3, 7)]
    discrete = [discrete_building_set(n) for n in range(5)]
    for b in families + discrete + random_building_sets(100, seed=13, max_n=6):
        want = None
        for _, left, right in coproduct(b):
            piece = qsym.tensor_product(F_splitting(left), F_splitting(right))
            want = piece if want is None else want + piece
        got = invariants._coproduct_image(b)
        assert got == want and repr(got) == repr(want), b


def test_F_of_hopf_checks_the_recurrence_row_before_a_large_factor_runs(monkeypatch):
    row = LIMITS["recurrence"].limit

    def refuse(factor):
        raise AssertionError(f"the recurrence ran on {factor.n} vertices")

    with monkeypatch.context() as m:
        m.setattr(invariants, "_factor_F", refuse)
        with pytest.raises(CapacityError):
            F_of_hopf(hopf_monomial(discrete_building_set(row + 1)))
    half = discrete_building_set(row // 2 + 1)
    with pytest.raises(CapacityError):
        F_of_hopf(HopfElement.of({hopf_word([half, half]): 1}))


def test_hopf_morphism_on_random_building_sets():
    for b in random_building_sets(8, seed=99):
        assert hopf_morphism_check(b)["passed"]


def _flip_one_sign(b):
    s = takeuchi_antipode(b)
    return HopfElement(s.keys, (-s.coeffs[0], *s.coeffs[1:]))


# One planted fault per side of the Hopf check, each on the name
# hopf_morphism_check reads: one Takeuchi term with its sign flipped, the
# coproduct without its I = {} piece, and the product with a discrete set in
# place of the probe.
PLANTED = {
    "antipode": ("takeuchi_antipode", _flip_one_sign),
    "coproduct": ("coproduct", lambda b: coproduct(b)[1:]),
    "product": ("product", lambda b, probe: product(b, discrete_building_set(probe.n))),
}


@pytest.mark.parametrize("verdict", PLANTED)
def test_each_hopf_verdict_fails_on_its_own_fault(monkeypatch, verdict):
    b = from_graph(family("path", 3))
    assert hopf_morphism_check(b)["passed"]
    name, planted = PLANTED[verdict]
    monkeypatch.setattr(invariants, name, planted)
    r = hopf_morphism_check(b)
    assert [k for k in PLANTED if not r[k]] == [verdict]
    assert r["passed"] is False


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


# ---------------------------------------------------------------------------
# the element-chain enumerators, kept as oracles of the packed ones

@lru_cache(maxsize=None)
def chain_f_shape(code):
    prod = one("M")
    for child in child_codes(TreeShape(code)):
        prod = mul(prod, chain_f_shape(child))
    return shift1(prod)


def chain_F_tree(tree):
    out = one("M")
    for sh in (tree,) if isinstance(tree, TreeShape) else forest_shapes(tree):
        out = mul(out, chain_f_shape(sh.code))
    return out


def chain_F_btree_route(b, trees=tree_multiset):
    if b.n == 0:
        return one("M")
    if is_connected(b):
        out = qsym.zero("M")
        for sh, mult in sorted(trees(b).items()):
            out = out + chain_f_shape(sh.code).scale(mult)
        return out
    out = one("M")
    for _, comp in components(b):
        out = mul(out, chain_F_btree_route(comp, trees))
    return out


@lru_cache(maxsize=None)
def chain_family_F(kind, n):
    if n == 0:
        return one("M")
    if kind == "permutohedron":
        return shift1(chain_family_F(kind, n - 1)).scale(n)
    if kind == "associahedron":
        acc = qsym.zero("M")
        for k in range(1, n + 1):
            acc = acc + mul(chain_family_F(kind, k - 1), chain_family_F(kind, n - k))
        return shift1(acc)
    if kind == "cyclohedron":
        return shift1(chain_family_F("associahedron", n - 1)).scale(n)
    power = one("M")
    for _ in range(n - 1):
        power = mul(power, monomial((1,)))
    return shift1(chain_family_F(kind, n - 1).scale(n - 1) + power)


def chain_F_of_hopf(h):
    by_factor = {}
    acc = {}
    for word, c in h.terms:
        prod = {(): c}
        for factor in word:
            if factor not in by_factor:
                by_factor[factor] = dict_F(factor).terms
            prod = _mul_d(prod.items(), by_factor[factor])
        for a, x in prod.items():
            acc[a] = acc.get(a, 0) + x
    return qsym.QSymElement.of(acc, basis="M")


def dict_F(b):
    """F of a building set by the dict recurrence over its components."""
    return element("M", dict_recurrence(b.n, lambda mask: components_by_size(b, mask)))


def chain_kernel_rows(n):
    cols = {alpha: i for i, alpha in enumerate(qsym.compositions_of(n))}
    rows = []
    for sh in enumerate_tree_shapes(n):
        vec = [0] * len(cols)
        for alpha, c in chain_f_shape(sh.code).terms:
            vec[cols[alpha]] = c
        rows.append(vec)
    return rows


def test_packed_tree_enumerators_match_the_element_chains():
    for n in range(1, 11):
        for sh in enumerate_tree_shapes(n):
            assert F_tree(sh) == chain_F_tree(sh), sh
    forests = [BTree(n, (None,) * n) for n in range(LIMITS["tree enumerators"].limit + 1)]
    forests += [BTree(5, (None, 0, None, 2, 2)), BTree(6, (None, 0, 0, None, 3, None))]
    for tree in forests:
        assert F_tree(tree) == chain_F_tree(tree), tree


def test_packed_family_recurrences_match_the_element_chains():
    for kind in ("permutohedron", "associahedron", "cyclohedron", "stellohedron"):
        for n in range(LIMITS["family"].limit + 1):
            assert family_F(kind, n) == chain_family_F(kind, n), (kind, n)


def test_packed_btree_route_matches_the_element_chain(monkeypatch):
    # both routes read the B-tree shapes from one memo: only the sums differ
    trees = lru_cache(maxsize=None)(tree_multiset)
    monkeypatch.setattr(invariants, "tree_multiset", trees)
    sample = [from_graph(g) for n in range(1, 7) for g in enumerate_graphs(n)]
    sample += random_building_sets(200, seed=7, max_n=6)
    sample += [BuildingSet(0, ()), discrete_building_set(4), product(L4B, K2B)]
    sample += [product(K2B, from_graph(family("star", 4)))]
    assert sum(not is_connected(b) for b in sample) > 100
    for b in sample:
        assert F_btree_route(b) == chain_F_btree_route(b, trees), b


def test_packed_F_of_hopf_matches_the_element_chain():
    sample = [from_graph(g) for n in range(1, 6) for g in enumerate_graphs(n)]
    sample += random_building_sets(30, seed=5, max_n=5)
    for b in sample:
        s = takeuchi_antipode(b)
        assert F_of_hopf(s) == chain_F_of_hopf(s), b


def test_kernel_rows_read_from_packed_values_match_the_element_chains():
    for n in range(1, 8):
        assert tree_matrix_kernel(n) == invariants._integer_kernel(chain_kernel_rows(n)), n
