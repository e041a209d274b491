"""Nested sets, B-trees, tree shapes, coordinates, linear extensions."""

import gc
import tracemalloc
from collections import Counter
from functools import lru_cache
from itertools import combinations, permutations, product as iproduct
from math import comb, prod

import pytest
from hypothesis import given
import hypothesis.strategies as st

from conftest import graphs
from nestoqsym import nestopoly
from nestoqsym.bitsets import bits, mask_of
from nestoqsym.buildset import (
    BuildingSet,
    building_set,
    from_graph,
    is_connected as bs_connected,
    product,
)
from nestoqsym.errors import CapacityError, InputError
from nestoqsym.graphs import enumerate_graphs, family, is_connected
from nestoqsym.invariants import F_btree_route, F_tree, family_graph, random_building_sets
from nestoqsym.nestopoly import (
    BTree,
    _all_coordinates,
    _descending_labels,
    _forest,
    TreeShape,
    b_tree,
    check_realization,
    child_codes,
    enumerate_tree_shapes,
    forest_shapes,
    is_nested,
    linear_extensions,
    maximal_nested_sets,
    nested_sets,
    nested_sets_by_size,
    realization_failures,
    shape_of,
    shape_tree,
    tree_multiset,
    vertex_coordinates,
)
from nestoqsym.qsym import vertex_count


def m(*verts):
    return mask_of(v - 1 for v in verts)


def bs(n, *vertex_sets):
    return building_set(n, [m(*vs) for vs in vertex_sets])


L4 = from_graph(family("path", 4))
K3 = from_graph(family("complete", 3))
SEGMENT = bs(2, [1], [2], [1, 2])


def naive_is_nested(b, fam):
    """(N1)/(N2) checked by raw definition over all subfamilies."""
    fam = sorted(fam)
    for s, t in combinations(fam, 2):
        if s & t and (s | t) != s and (s | t) != t:
            return False
    members = set(b.sets)
    for size in range(2, len(fam) + 1):
        for sub in combinations(fam, size):
            if all(a & b2 == 0 for a, b2 in combinations(sub, 2)):
                u = 0
                for a in sub:
                    u |= a
                if u in members:
                    return False
    return True


def test_is_nested_examples():
    assert is_nested(L4, [m(1), m(1, 2)])
    assert not is_nested(L4, [m(1, 2), m(2, 3)])
    assert not is_nested(L4, [m(1), m(2)])
    with pytest.raises(InputError):
        is_nested(L4, [m(1, 3)])  # not a member
    with pytest.raises(InputError):
        is_nested(L4, [m(1, 2, 3, 4)])  # maximal member excluded
    # the simplex on 32 vertices: 31 disjoint singletons, 2^31 unions, none
    # of them the full set; with {1, 2} added to B, {1} and {2} join in B
    singles = [m(v) for v in range(1, 32)]
    assert is_nested(bs(32, range(1, 33)), singles)
    assert not is_nested(bs(32, range(1, 33), [1, 2]), singles)


# graphical sets, where (N2) fails on a pair whenever it fails, and random
# ones, where it can fail on three or more disjoint members alone
RANDOM_SETS = random_building_sets(100, seed=7, max_n=5)


def _candidates(b):
    from nestoqsym.buildset import maximal_members

    maxima = set(maximal_members(b))
    return [s for s in b.sets if s not in maxima]


@given(st.one_of(graphs(max_n=5).map(from_graph), st.sampled_from(RANDOM_SETS)), st.data())
def test_is_nested_matches_naive(b, data):
    candidates = _candidates(b)
    if not candidates:
        return
    fam = data.draw(
        st.lists(st.sampled_from(candidates), min_size=0, max_size=4, unique=True)
    )
    assert is_nested(b, fam) == naive_is_nested(b, fam)


def test_is_nested_matches_naive_on_every_small_family():
    # 14,774 families; a check of pairs alone misses 92 of them
    for b in RANDOM_SETS:
        candidates = _candidates(b)
        for size in range(4):
            for fam in combinations(candidates, size):
                assert is_nested(b, fam) == naive_is_nested(b, fam), (b, fam)


def test_nested_sets_by_size_examples():
    assert nested_sets_by_size(L4) == (1, 9, 21, 14)
    assert nested_sets_by_size(K3)[-1] == 6
    assert nested_sets_by_size(bs(3, [1], [2], [3], [1, 2, 3])) == (1, 3, 3)


def test_nested_sets_enumeration_is_complete():
    # every subset of candidates that passes the naive check is found
    for b in (K3, SEGMENT, bs(3, [1], [2], [3], [1, 2], [1, 2, 3])):
        from nestoqsym.buildset import maximal_members

        candidates = [s for s in b.sets if s not in set(maximal_members(b))]
        expected = set()
        for size in range(len(candidates) + 1):
            for fam in combinations(candidates, size):
                if naive_is_nested(b, fam):
                    expected.add(tuple(sorted(fam)))
        assert set(nested_sets(b)) == expected


def test_maximal_nested_sets_examples():
    assert len(maximal_nested_sets(from_graph(family("path", 3)))) == 5
    assert len(maximal_nested_sets(from_graph(family("complete", 4)))) == 24
    assert len(maximal_nested_sets(from_graph(family("cycle", 6)))) == 252
    assert maximal_nested_sets(SEGMENT) == [(m(1),), (m(2),)]
    with pytest.raises(InputError):
        maximal_nested_sets(bs(2, [1], [2]))  # disconnected
    with pytest.raises(CapacityError):
        maximal_nested_sets(from_graph(family("path", 9)))


def walked_nested_sets(b, size=None):
    """The oracle: every nested set (of the given size), sorted, by
    depth-first extension.

    Members are added in increasing mask order with incremental (N1)/(N2)
    pruning; both violations are monotone under extension, so pruning is
    safe.  unions lists the unions of nonempty sets of top-level members,
    and a new member s is tested only against those it misses.
    """
    members = b.member_set
    out = []

    def rec(avail, family, unions):
        if size in (None, len(family)):
            out.append(family)
        for idx, s in enumerate(avail):
            free = [u for u in unions if not u & s]
            joined = [u | s for u in free]
            if not members.isdisjoint(joined):
                continue
            rest = [t for t in avail[idx + 1 :] if t & s == 0 or t | s in (s, t)]
            rec(rest, family + (s,), free + joined + [s])

    rec(sorted(s for s in b.sets if s not in b.maxima), (), [])
    return sorted(out)


def walked_maximal_nested_sets(b):
    """The oracle: every nested set walked, those of size n - 1 kept."""
    return walked_nested_sets(b, max(b.n - 1, 0))


def assert_matches_walk(b):
    walked = walked_nested_sets(b)
    assert nested_sets(b) == walked, b
    sizes = Counter(map(len, walked))
    assert nested_sets_by_size(b) == tuple(sizes[k] for k in range(max(sizes) + 1)), b
    if bs_connected(b):
        top = max(b.n - 1, 0)
        assert maximal_nested_sets(b) == [f for f in walked if len(f) == top], b
    else:
        with pytest.raises(InputError):
            maximal_nested_sets(b)


@pytest.mark.parametrize("kind", ["cycle", "complete", "path", "star"])
def test_decomposition_matches_walk_on_families_at_n8(kind):
    b = from_graph(family(kind, 8))
    assert maximal_nested_sets(b) == walked_maximal_nested_sets(b)


def test_decomposition_matches_walk_on_graphical_sets():
    # every graph with n <= 5, connected or not, and the empty set
    sample = [from_graph(g) for n in range(1, 6) for g in enumerate_graphs(n)]
    for b in sample + [BuildingSet(0, ())]:
        assert_matches_walk(b)
    assert len(sample) == 52


def test_decomposition_matches_walk_on_random_sets():
    sample = random_building_sets(200, seed=7, max_n=6)
    assert sum(map(bs_connected, sample)) == 138
    for b in sample:
        assert_matches_walk(b)


def sizes_by_listing(b):
    """The oracle: nested_sets listed, then counted by size."""
    counts = Counter(map(len, nested_sets(b)))
    return tuple(counts[k] for k in range(max(counts) + 1))


@pytest.mark.parametrize("kind", ["pe", "as", "cy", "st"])
def test_fvector_counts_match_the_listing_on_families(kind):
    for n in range(1, 8):
        b = from_graph(family_graph(kind, n))
        assert nested_sets_by_size(b) == sizes_by_listing(b), (kind, n)


def test_fvector_of_K8_by_counting():
    # the listing holds 545,835 tuples here (112 MiB); the count holds a
    # list of at most 8 counts per member
    fv = nested_sets_by_size(from_graph(family("complete", 8)))
    assert fv == (1, 254, 5796, 40824, 126000, 191520, 141120, 40320)
    assert sum(fv) == 545835


def test_fvector_of_disconnected_sets_multiplies():
    b1 = from_graph(family("path", 3))
    b2 = from_graph(family("complete", 3))
    joined = nested_sets_by_size(product(b1, b2))
    assert joined == sizes_by_listing(product(b1, b2))
    p1, p2 = nested_sets_by_size(b1), nested_sets_by_size(b2)
    assert joined == tuple(
        sum(p1[i] * p2[k - i] for i in range(len(p1)) if 0 <= k - i < len(p2))
        for k in range(len(p1) + len(p2) - 1)
    )


def test_empty_building_set_has_one_vertex():
    empty = BuildingSet(0, ())
    assert maximal_nested_sets(empty) == nested_sets(empty) == [()]
    assert vertex_count(F_btree_route(empty), 0) == 1
    assert tree_multiset(empty) == Counter()
    assert _all_coordinates(empty) == [()]
    assert b_tree(empty, ()) == BTree(0, ())
    assert vertex_coordinates(empty, ()) == ()
    assert check_realization(empty)


@given(graphs(max_n=5))
def test_maximal_nested_sets_have_size_n_minus_1(g):
    b = from_graph(g)
    if not is_connected(g):
        return
    for fam in maximal_nested_sets(b):
        assert len(fam) == b.n - 1
        assert is_nested(b, fam)


def test_b_tree_examples():
    t = b_tree(K3, [m(1), m(1, 2)])
    assert t.parent == (1, 2, None)  # chain 1 -> 2 -> 3, root 3
    t = b_tree(from_graph(family("path", 3)), [m(1), m(3)])
    assert t.parent == (1, None, 1)  # root 2 with children 1 and 3
    t = b_tree(SEGMENT, [m(1)])
    assert t.parent == (1, None)
    with pytest.raises(InputError):
        b_tree(K3, [m(1)])  # not maximal


@pytest.mark.parametrize("compute", [b_tree, vertex_coordinates])
@pytest.mark.parametrize("fam", [[1.5, 3], [1, 3.0], ["a", 3], [True, 3]])
def test_family_members_that_are_not_integers_are_refused(compute, fam):
    # a float or a string raised TypeError; True was read as the member {1}
    assert compute(K3, [1, 3]) is not None
    with pytest.raises(InputError, match="nested set member must be an integer"):
        compute(K3, fam)


@pytest.mark.parametrize("fam", [[1.5], ["a"], [1.0], [True], [m(1), 2.0]])
def test_is_nested_refuses_members_that_are_not_integers(fam):
    # floats and strings raised TypeError; [True] was read as the member {1}
    assert is_nested(K3, [m(1)])
    with pytest.raises(InputError, match="nested set member must be an integer"):
        is_nested(K3, fam)


def test_vertex_coordinates_examples():
    assert vertex_coordinates(K3, [m(1), m(1, 2)]) == (1, 2, 4)
    coords = sorted(vertex_coordinates(K3, fam) for fam in maximal_nested_sets(K3))
    assert coords == sorted(set(permutations((1, 2, 4))))
    x = vertex_coordinates(bs(3, [1], [2], [3], [1, 2, 3]), [m(1), m(2)])
    assert min(x) >= 1 and sum(x) == 4


def test_permutohedron_coordinates_are_powers_of_two():
    k4 = from_graph(family("complete", 4))
    coords = sorted(vertex_coordinates(k4, fam) for fam in maximal_nested_sets(k4))
    assert coords == sorted(set(permutations((1, 2, 4, 8))))
    assert all(sum(x) == 15 for x in coords)  # mu(B(K4)) = 2^4 - 1


@given(graphs(max_n=5))
def test_vertex_coordinates_sum_to_mu(g):
    if not is_connected(g):
        return
    b = from_graph(g)
    for fam in maximal_nested_sets(b):
        assert sum(vertex_coordinates(b, fam)) == b.mu


def rescan_vertex(b, fam):
    """B-tree parents and coordinates by containment rescans over all nodes.

    The test oracle for the one-pass builder: i_I is I minus every smaller
    node inside it, the parent of I is its smallest strict superset, and a
    child of I is a node below I with no node strictly between.
    """
    nodes = sorted(fam) + [b.full_mask()]
    label = {}
    for I in nodes:
        rest = 0
        for J in nodes:
            if J != I and J & I == J:
                rest |= J
        free = I & ~rest
        assert free.bit_count() == 1
        label[I] = free.bit_length() - 1
    parent = [None] * b.n
    for I in nodes[:-1]:
        covers = [J for J in nodes if J != I and I & J == I]
        parent[label[I]] = label[min(covers, key=lambda J: J.bit_count())]
    mu_inside = {I: sum(1 for s in b.sets if s & ~I == 0) for I in nodes}
    x = [0] * b.n
    for I in nodes:
        child_sum = 0
        for J in nodes:
            if J != I and J & I == J and not any(
                K != J and K != I and J & K == J and K & I == K for K in nodes
            ):
                child_sum += mu_inside[J]
        x[label[I]] = mu_inside[I] - child_sum
    return tuple(parent), tuple(x)


def test_b_trees_and_coordinates_match_rescan_oracle():
    # every connected graphical building set n <= 5, then random ones n <= 6
    sample = [
        from_graph(g)
        for n in range(1, 6)
        for g in enumerate_graphs(n, connected_only=True)
    ]
    sample += [b for b in random_building_sets(300, seed=7, max_n=6) if bs_connected(b)]
    vertices = 0
    for b in sample:
        for fam, x in zip(maximal_nested_sets(b), _all_coordinates(b), strict=True):
            parent, coords = rescan_vertex(b, fam)
            assert b_tree(b, fam).parent == parent
            assert vertex_coordinates(b, fam) == coords == x
            vertices += 1
    assert len(sample) == 246 and vertices == 13713


def test_check_realization_examples():
    assert check_realization(L4)
    assert check_realization(from_graph(family("complete", 4)))
    assert check_realization(SEGMENT)
    assert realization_failures(L4) == []


def _mu_by_scan(b):
    """Oracle of b.mu_inside: I -> mu(B|_I) for every member I, by a scan
    of all members per member."""
    return {I: sum(1 for s in b.sets if s & ~I == 0) for I in b.sets}


def _realization_failures_by_facet_sums(b):
    """Oracle: realization_failures summing x over each facet's vertices."""
    failures = []
    full = b.full_mask()
    mu_inside = _mu_by_scan(b)
    for fam in maximal_nested_sets(b):
        x = nestopoly._coordinates(*nestopoly._vertex(b, fam), mu_inside)
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


REALIZATION_CASES = [
    from_graph(family_graph(kind, n)) for kind in ("pe", "as", "cy", "st") for n in range(7)
] + [b for b in random_building_sets(60, seed=7, max_n=6) if bs_connected(b)]


def test_mu_inside_matches_the_member_scan():
    for b in REALIZATION_CASES + [from_graph(family("complete", 8))]:
        fresh = BuildingSet(b.n, b.sets)  # an empty table, filled in this order
        assert {I: fresh.mu_inside[I] for I in reversed(b.sets)} == _mu_by_scan(b)
    for b in REALIZATION_CASES:
        fresh = BuildingSet(b.n, b.sets)
        for I in range(b.full_mask() + 1):  # non-members too
            assert fresh.mu_inside[I] == sum(1 for s in b.sets if s & ~I == 0)


def test_realization_failures_match_the_facet_sum_oracle():
    assert len(REALIZATION_CASES) == 28 + 39
    for b in REALIZATION_CASES:
        assert realization_failures(b) == _realization_failures_by_facet_sums(b) == []


def test_realization_failures_match_the_oracle_where_they_fail(monkeypatch):
    real = nestopoly._coordinates

    def moved(tree, member, mu_inside, shift):
        x = list(real(tree, member, mu_inside))
        x[0] += 1
        x[-1] -= shift  # 1 keeps the sum, so the facets are checked
        return tuple(x)

    for shift in (0, 1):
        monkeypatch.setattr(nestopoly, "_coordinates", lambda *a: moved(*a, shift))
        for b in (b for b in REALIZATION_CASES if b.n):  # a point has no x[0]
            got = realization_failures(b)
            assert got == _realization_failures_by_facet_sums(b)
            assert (got != []) == (b.n > shift)


def test_check_realization_non_graphical():
    # connected but not the building set of any graph
    b = bs(3, [1], [2], [3], [1, 2], [1, 2, 3])
    assert check_realization(b)
    assert nested_sets_by_size(b) == (1, 4, 4)
    coords = sorted(vertex_coordinates(b, fam) for fam in maximal_nested_sets(b))
    assert coords == [(1, 2, 2), (1, 3, 1), (2, 1, 2), (3, 1, 1)]


def test_tree_multiset_examples():
    counts = tree_multiset(L4)
    assert sum(counts.values()) == 14
    assert set(counts) <= set(enumerate_tree_shapes(4))
    chain2 = shape_of(BTree(2, (1, None)))
    assert tree_multiset(from_graph(family("complete", 2))) == {chain2: 2}
    chain3 = shape_of(BTree(3, (1, 2, None)))
    assert tree_multiset(K3) == {chain3: 6}


def test_enumerate_tree_shapes_counts():
    # OEIS A000081
    assert [len(enumerate_tree_shapes(n)) for n in range(1, 15)] == [
        1, 1, 2, 4, 9, 20, 48, 115, 286, 719, 1842, 4766, 12486, 32973,
    ]
    assert enumerate_tree_shapes(1) == (TreeShape("()"),)
    with pytest.raises(CapacityError):
        enumerate_tree_shapes(15)


def _partitions(rest, largest):
    """Partitions of rest into parts <= largest, parts nonincreasing."""
    if rest == 0:
        yield ()
    for p in range(min(rest, largest), 0, -1):
        for tail in _partitions(rest - p, p):
            yield (p,) + tail


def oracle_tree_shapes(n):
    """The enumeration the forests replaced: for each partition of n - 1 into
    subtree sizes, every multiset of shapes of each size, deduplicated."""
    from itertools import combinations_with_replacement, product

    out = set()
    for part in _partitions(n - 1, n - 1):
        choices = [
            list(combinations_with_replacement(oracle_tree_shapes(s), part.count(s)))
            for s in sorted(set(part), reverse=True)
        ]
        for combo in product(*choices):
            codes = [code for group in combo for code in group]
            out.add("(" + "".join(sorted(codes)) + ")")
    return tuple(sorted(out))


@lru_cache(maxsize=None)
def oracle_tree_count(n):
    """The partition oracle counted, not listed: for each partition of n - 1,
    the multisets of part.count(s) shapes on s nodes, C(t + k - 1, k) each."""
    return sum(
        prod(comb(oracle_tree_count(s) + k - 1, k) for s, k in Counter(part).items())
        for part in _partitions(n - 1, n - 1)
    )


def test_tree_shape_and_face_tables_do_not_outlive_the_call():
    # The tables are a call's locals, in no reference cycle, so they are
    # freed on return with the collector off.
    K8 = from_graph(family("complete", 8))
    calls = [
        lambda: len(enumerate_tree_shapes(12)) == 4766,
        lambda: nested_sets_by_size(K8)[-1] == 40320,  # the permutohedron's 8! vertices
    ]
    for call in calls:
        assert call()  # warm: first-call allocations that stay are not the tables'
        gc.disable()
        tracemalloc.start()
        try:
            assert call()
            # as in test_takeuchi_memo_does_not_outlive_the_call: frees only
            # the free lists of dead tuples, lists and dicts
            gc.freeze()
            gc.collect()
            left = tracemalloc.get_traced_memory()[0]
        finally:
            gc.unfreeze()
            tracemalloc.stop()
            gc.enable()
        assert left < 4096, left


def test_enumerate_tree_shapes_matches_the_partition_oracle():
    for n in range(1, 11):
        assert tuple(sh.code for sh in enumerate_tree_shapes(n)) == oracle_tree_shapes(n)
    # at the row, where listing the oracle is too slow: OEIS A000081
    assert len(enumerate_tree_shapes(14)) == oracle_tree_count(14) == 32973


def test_shape_codes_distinguish_the_4_vertex_trees():
    path = shape_of(BTree(4, (1, 2, 3, None)))
    star = shape_of(BTree(4, (3, 3, 3, None)))
    assert path != star
    assert {path, star} <= set(enumerate_tree_shapes(4))


def test_child_codes_inverts_shapes():
    for n in range(1, 7):
        for sh in enumerate_tree_shapes(n):
            kids = child_codes(sh)
            assert "(" + "".join(sorted(kids)) + ")" == sh.code
            assert sum(TreeShape(k).size for k in kids) == n - 1


def test_linear_extensions_examples():
    chain = BTree(3, (1, 2, None))
    assert linear_extensions(chain) == [(3, 2, 1)]
    cherry = BTree(3, (2, 2, None))  # root with two leaf children
    assert len(linear_extensions(cherry)) == 2
    forest = BTree(3, (None, None, None))
    assert len(linear_extensions(forest)) == 6
    assert sorted(set(linear_extensions(forest))) == sorted(
        permutations((1, 2, 3))
    )


def extension_listings(tree):
    """Vertex orderings by the literal recursion, once nestopoly._forest
    has checked the parent tuple on the extensions row, as
    linear_extensions does."""
    return literal_extension_listings(_forest(tree, "extensions"))


@pytest.mark.parametrize("compute", [F_tree, linear_extensions, extension_listings])
@pytest.mark.parametrize(
    "tree",
    [
        pytest.param(BTree(1, (None, None)), id="too-many-parents"),
        pytest.param(BTree(2, (None,)), id="too-few-parents"),
        pytest.param(BTree(2, (1.0, None)), id="float-parent"),
        pytest.param(BTree(2, (True, None)), id="bool-parent"),
        pytest.param(BTree(2, (5, None)), id="parent-out-of-range"),
        pytest.param(BTree(2, (-1, None)), id="negative-parent"),
        pytest.param(BTree(2, (0, None)), id="self-parent"),
        pytest.param(BTree(2, (1, 0)), id="2-cycle"),
        pytest.param(BTree(4, (None, 2, 3, 1)), id="3-cycle-beside-a-root"),
    ],
)
def test_parent_tuples_that_are_not_forests_are_refused(compute, tree):
    # F_tree raised IndexError or TypeError, or returned a value of the
    # wrong weight (M[] for the 2-cycle); the extensions came back empty
    assert compute(BTree(2, (1, None))) and compute(BTree(0, ()))
    with pytest.raises(InputError):
        compute(tree)


def test_shape_tree_realizes_every_shape():
    for n in range(1, 9):
        for sh in enumerate_tree_shapes(n):
            tree = shape_tree(sh)
            assert shape_of(tree) == sh
            # preorder: every vertex but the root hangs below an earlier one
            assert tree.parent[0] is None
            assert all(p < v for v, p in enumerate(tree.parent) if v)


def brute_tree_enumerator(tree):
    """Count strict root-increasing maps directly, by value pattern.

    The M_alpha coefficient is the number of maps whose value set is exactly
    {1..k}, one fixed choice of values per composition length.
    """
    from nestoqsym import qsym

    n = tree.n
    acc = {}
    for f in iproduct(range(1, n + 1), repeat=n):
        vals = sorted(set(f))
        if vals != list(range(1, len(vals) + 1)):
            continue
        if all(f[v] < f[p] for v, p in enumerate(tree.parent) if p is not None):
            comp = tuple(sum(1 for x in f if x == v) for v in vals)
            acc[comp] = acc.get(comp, 0) + 1
    return qsym.element("M", acc)


def test_extensions_give_fundamental_expansion_of_tree_enumerator():
    # brute-force oracle: L-expansion from extensions equals the direct count
    from nestoqsym import qsym
    from nestoqsym.qsym import descent_composition, from_fundamental

    for n in range(1, 6):
        for sh in enumerate_tree_shapes(n):
            tree = shape_tree(sh)
            acc = {}
            for word in linear_extensions(tree):
                beta = descent_composition(word)
                acc[beta] = acc.get(beta, 0) + 1
            via_extensions = from_fundamental(qsym.element("L", acc))
            assert via_extensions == brute_tree_enumerator(tree)


def literal_extension_listings(tree):
    """Oracle: the orderings placing every child before its parent, by a
    plain recursion over the ready vertices, smallest first."""
    pending = [len(c) for c in tree.children()]
    out, listing = [], []

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


def test_extensions_match_literal_recursion():
    trees = [
        b_tree(b, fam)
        for b in (from_graph(g) for n in range(1, 6) for g in enumerate_graphs(n))
        if bs_connected(b)
        for fam in maximal_nested_sets(b)
    ]
    trees += [shape_tree(sh) for n in range(1, 9) for sh in enumerate_tree_shapes(n)]
    trees += [BTree(n, (None,) * n) for n in range(0, 7)]
    trees += [BTree(7, (None, 0, 0, None, 3, None, 5)), BTree(8, (None, 0, 1, 1, None, 4, 4, None))]
    for tree in trees:
        listings = literal_extension_listings(tree)
        omega = _descending_labels(tree)
        words = sorted(tuple(omega[v] for v in listing) for listing in listings)
        assert linear_extensions(tree) == words


@given(graphs(max_n=5))
def test_extension_listings_partition_all_orders(g):
    # each strict order picks exactly one vertex of the nestohedron
    if not is_connected(g):
        return
    b = from_graph(g)
    seen = set()
    for fam in maximal_nested_sets(b):
        listings = set(extension_listings(b_tree(b, fam)))
        assert not (listings & seen)
        seen |= listings
    assert len(seen) == __import__("math").factorial(b.n)


def test_extension_listings_partition_at_n6():
    b = from_graph(family("cycle", 6))
    total = 0
    seen = set()
    for fam in maximal_nested_sets(b):
        listings = set(extension_listings(b_tree(b, fam)))
        assert not (listings & seen)
        seen |= listings
        total += len(listings)
    assert total == 720


def test_forest_shapes():
    forest = BTree(5, (None, 0, None, 2, 2))
    shapes = forest_shapes(forest)
    assert len(shapes) == 2
    assert sorted(s.size for s in shapes) == [2, 3]
