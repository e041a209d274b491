"""Nested sets, B-trees, tree shapes, coordinates, linear extensions."""

from collections import Counter
from itertools import combinations, permutations, product as iproduct

import pytest
from hypothesis import given
import hypothesis.strategies as st

from conftest import graphs
from nestoqsym.bitsets import mask_of
from nestoqsym.buildset import (
    BuildingSet,
    building_set,
    from_graph,
    is_connected as bs_connected,
)
from nestoqsym.errors import CapacityError, InputError
from nestoqsym.graphs import enumerate_graphs, family, is_connected
from nestoqsym.invariants import F_btree_route, random_building_sets
from nestoqsym.nestopoly import (
    BTree,
    _all_coordinates,
    TreeShape,
    b_tree,
    check_realization,
    child_codes,
    enumerate_tree_shapes,
    extension_listings,
    forest_shapes,
    is_nested,
    linear_extensions,
    maximal_nested_sets,
    nested_sets,
    nested_sets_by_size,
    realization_failures,
    shape_of,
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
    assert [len(enumerate_tree_shapes(n)) for n in range(1, 10)] == [
        1, 1, 2, 4, 9, 20, 48, 115, 286,
    ]
    assert enumerate_tree_shapes(1) == (TreeShape("()"),)
    with pytest.raises(CapacityError):
        enumerate_tree_shapes(10)


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


def shape_to_btree(code):
    """Build a concrete tree realizing a shape code."""
    parent = []

    def build(c, parent_idx):
        idx = len(parent)
        parent.append(parent_idx)
        for kid in child_codes(TreeShape(c)):
            build(kid, idx)

    build(code, None)
    return BTree(len(parent), tuple(parent))


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
            tree = shape_to_btree(sh.code)
            acc = {}
            for word in linear_extensions(tree):
                beta = descent_composition(word)
                acc[beta] = acc.get(beta, 0) + 1
            via_extensions = from_fundamental(qsym.element("L", acc))
            assert via_extensions == brute_tree_enumerator(tree)


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
