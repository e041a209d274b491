"""Graphs: families, minors, invariants, canonical forms, serialization."""

import hashlib
import random
from itertools import combinations, permutations

import pytest
from hypothesis import given
import hypothesis.strategies as st

from conftest import graphs, naive_components
from nestoqsym.bitsets import mask_of
from nestoqsym.errors import CapacityError, InputError, ParseError
from nestoqsym.graphs import (
    FAMILY_KINDS,
    CanonicalForm,
    _components_within,
    _graph_from_code,
    _min_code,
    _slot,
    canonical_form,
    components,
    contract,
    edge_code,
    enumerate_graphs,
    family,
    from_graph6,
    graph_from_edges,
    independence_fvector,
    induced,
    is_connected,
    is_q_connected,
    parse_graph,
    permuted,
    serialize_graph,
    to_graph6,
)


def test_family_examples():
    assert family("path", 4).edges() == [(0, 1), (1, 2), (2, 3)]
    assert family("star", 4).edges() == [(0, 1), (0, 2), (0, 3)]
    assert canonical_form(family("cycle", 3)) == canonical_form(family("complete", 3))
    with pytest.raises(InputError):
        family("cycle", 2)
    with pytest.raises(InputError):
        family("path", 0)
    with pytest.raises(InputError):
        family("hypercube", 3)


def test_induced_examples():
    l4 = family("path", 4)
    assert induced(l4, [0, 1, 2]).edges() == family("path", 3).edges()
    assert induced(l4, []).n == 0
    c4 = family("cycle", 4)
    assert induced(c4, [0, 2]).edges() == []
    with pytest.raises(InputError):
        induced(l4, [5])


def test_contract_examples():
    c4 = family("cycle", 4)
    tri = contract(c4, [0])
    assert tri.edges() == [(0, 1), (1, 2), (0, 2)] or set(tri.edges()) == {
        (0, 1),
        (1, 2),
        (0, 2),
    }
    l4 = family("path", 4)
    assert contract(l4, []).edges() == l4.edges()
    l3 = family("path", 3)
    assert contract(l3, [1]).edges() == [(0, 1)]


def _reachable_through(g, u, v, allowed):
    """BFS oracle: a u-v path with every internal vertex in allowed."""
    frontier, seen = {u}, {u}
    while frontier:
        nxt = set()
        for w in frontier:
            for x in range(g.n):
                if g.has_edge(w, x) and x not in seen:
                    if x == v:
                        return True
                    if x in allowed:
                        nxt.add(x)
                        seen.add(x)
        frontier = nxt
    return False


@given(graphs(max_n=6), st.data())
def test_contract_matches_path_oracle(g, data):
    I = set(data.draw(st.sets(st.sampled_from(range(g.n)), max_size=g.n))
            ) if g.n else set()
    rest = [v for v in range(g.n) if v not in I]
    h = contract(g, I)
    for i, u in enumerate(rest):
        for j, v in enumerate(rest):
            if i < j:
                assert h.has_edge(i, j) == _reachable_through(g, u, v, I)


@given(graphs(max_n=6), st.data())
def test_contract_composes(g, data):
    I = data.draw(st.sets(st.sampled_from(range(g.n)), max_size=g.n - 1)
                  if g.n > 1 else st.just(set()))
    rest = [v for v in range(g.n) if v not in I]
    J_orig = set(data.draw(st.sets(st.sampled_from(rest), max_size=len(rest) - 1))
                 ) if len(rest) > 1 else set()
    # J in the relabeled coordinates of contract(g, I)
    J_re = {rest.index(v) for v in J_orig}
    lhs = contract(contract(g, I), J_re)
    rhs = contract(g, I | J_orig)
    assert lhs.n == rhs.n and lhs.adj == rhs.adj


def test_q_connectivity_examples():
    assert is_q_connected(family("cycle", 5), 2)
    assert not is_q_connected(family("path", 3), 2)
    assert is_q_connected(family("complete", 4), 3)
    with pytest.raises(InputError):
        is_q_connected(family("path", 3), 0)


def test_independence_fvector_examples():
    assert independence_fvector(family("path", 3)) == (1, 3, 1)
    for n in range(2, 6):
        assert independence_fvector(family("complete", n)) == (1, n)
    assert independence_fvector(graph_from_edges(3, [])) == (1, 3, 3, 1)


def test_canonical_form_examples():
    l3 = family("path", 3)
    relabeled = graph_from_edges(3, [(1, 0), (0, 2)])  # the 2-1-3 path
    assert canonical_form(l3) == canonical_form(relabeled)
    assert canonical_form(l3) != canonical_form(family("complete", 3))
    assert canonical_form(family("path", 4)) != canonical_form(family("star", 4))
    with pytest.raises(CapacityError):
        canonical_form(graph_from_edges(11, []))


@given(graphs(max_n=6), st.randoms())
def test_canonical_form_is_invariant(g, rnd):
    sigma = list(range(g.n))
    rnd.shuffle(sigma)
    assert canonical_form(g) == canonical_form(permuted(g, sigma))


def _exhaustive_min_code(n, edges):
    """Oracle: the smallest column-major edge code over all n! relabelings."""
    best = 0 if not edges else None
    for sigma in permutations(range(n)):
        m = 0
        for u, v in edges:
            a, b = sigma[u], sigma[v]
            m |= 1 << (_slot(a, b) if a < b else _slot(b, a))
        if best is None or m < best:
            best = m
    return best


def _all_graphs(n):
    pairs = list(combinations(range(n), 2))
    for code in range(1 << len(pairs)):
        yield graph_from_edges(n, [p for k, p in enumerate(pairs) if code >> k & 1])


def _assert_min_code_matches_oracle(g):
    best = _exhaustive_min_code(g.n, g.edges())
    assert _min_code(g.n, g.adj) == best, g
    # the early exit: asked to beat the graph's own code, the search gives
    # that code back iff it is minimal, and -1 otherwise
    own = edge_code(g)
    assert _min_code(g.n, g.adj, own) == (own if own == best else -1), g


def test_min_code_matches_exhaustive_oracle():
    for n in range(6):
        for g in _all_graphs(n):
            _assert_min_code_matches_oracle(g)
    rnd = random.Random(20140)
    for n in (6, 7):
        pairs = list(combinations(range(n), 2))
        for _ in range(150):
            p = rnd.random()
            _assert_min_code_matches_oracle(
                graph_from_edges(n, [e for e in pairs if rnd.random() < p])
            )
    for kind in FAMILY_KINDS:
        for n in range(3 if kind == "cycle" else 1, 8):
            _assert_min_code_matches_oracle(family(kind, n))
    assert canonical_form(graph_from_edges(0, [])) == CanonicalForm(0, 0)
    assert canonical_form(graph_from_edges(1, [])) == CanonicalForm(1, 0)


# sha256 of the comma-joined decimal edge codes of enumerate_graphs(n), in
# order: n = 7 as the orbit-marking enumeration over all 5040 relabelings
# gave them, n = 8 as the level-by-level augmentation below gave them
ENUMERATION_7_SHA256 = "cb0450eee4c3f597f4eb71166861586c9206aa5166d274300f16003ec6288482"
ENUMERATION_8_SHA256 = "fd9bc0ba447767cbcad7b315e31b56ad5b4d64c1bf07eec287675d4ce2b877b3"


def test_enumerate_graphs_counts():
    # OEIS A000088 and A001349
    classes = [enumerate_graphs(n) for n in range(1, 9)]
    assert [len(reps) for reps in classes] == [1, 2, 4, 11, 34, 156, 1044, 12346]
    connected = [enumerate_graphs(n, connected_only=True) for n in range(1, 9)]
    assert [len(reps) for reps in connected] == [1, 1, 2, 6, 21, 112, 853, 11117]
    for reps, conn in zip(classes, connected):
        assert conn == [g for g in reps if is_connected(g)]
    for reps, pinned in ((classes[6], ENUMERATION_7_SHA256), (classes[7], ENUMERATION_8_SHA256)):
        codes = [edge_code(g) for g in reps]
        assert codes == sorted(codes)
        assert hashlib.sha256(",".join(map(str, codes)).encode()).hexdigest() == pinned
    with pytest.raises(CapacityError):
        enumerate_graphs(9)


def augmented_codes(n, connected_only=False):
    """Oracle: the level-by-level augmentation that orderly deletion replaced.

    The classes with m + 1 edges are the minimal codes of the classes with
    m edges plus one absent edge, deduplicated in a set.
    """
    slots = [(i, j) for j in range(n) for i in range(j)]
    level, reps = [0], [0]
    for _ in slots:
        grown = set()
        for code in level:
            adj = _graph_from_code(n, code).adj
            for s, (i, j) in enumerate(slots):
                if not code >> s & 1:
                    a = list(adj)
                    a[i] |= 1 << j
                    a[j] |= 1 << i
                    grown.add(_min_code(n, a))
        level = grown
        reps.extend(level)
    if connected_only:
        reps = [c for c in reps if is_connected(_graph_from_code(n, c))]
    return sorted(reps)


def test_enumerate_graphs_matches_augmentation_oracle():
    for n in range(1, 7):
        for connected_only in (False, True):
            codes = [edge_code(g) for g in enumerate_graphs(n, connected_only)]
            assert codes == augmented_codes(n, connected_only), (n, connected_only)


def test_enumerate_graphs_agrees_with_canonical_dedup():
    # independent route: dedupe all edge subsets by the exhaustive oracle
    for n in range(1, 6):
        seen = {_exhaustive_min_code(n, g.edges()) for g in _all_graphs(n)}
        assert sorted(seen) == [edge_code(g) for g in enumerate_graphs(n)]


def test_enumerate_graphs_matches_networkx_atlas():
    nx = pytest.importorskip("networkx")
    atlas = {}
    for h in nx.graph_atlas_g():
        g = graph_from_edges(h.number_of_nodes(), list(h.edges()))
        atlas.setdefault(g.n, []).append(canonical_form(g))
    for n in range(1, 8):
        forms = [canonical_form(g) for g in enumerate_graphs(n)]
        assert sorted(atlas[n]) == forms


def test_enumerate_graphs_yields_canonical_representatives():
    reps = enumerate_graphs(4)
    forms = {canonical_form(g) for g in reps}
    assert len(forms) == len(reps)


# ---------------------------------------------------------------------------
# serialization

def test_graph6_known_code():
    g = from_graph6("D?{")
    assert g.n == 5
    assert g.edges() == [(0, 4), (1, 4), (2, 4), (3, 4)]
    assert to_graph6(g) == "D?{"


def test_graph6_classics():
    assert to_graph6(family("complete", 5)) == "D~{"
    # path 1-2-3-4: bits (1,2),(1,3),(2,3),(1,4),(2,4),(3,4) = 101001 = 'h'
    assert to_graph6(family("path", 4)) == "Ch"
    assert from_graph6("Ch").edges() == family("path", 4).edges()
    assert to_graph6(graph_from_edges(1, [])) == "@"


def test_graph6_hand_packed():
    # 5 vertices, edges (1,2) and (3,5) 1-based: column-major upper-triangle
    # bit order (1,2),(1,3),(2,3),(1,4),(2,4),(3,4),(1,5),(2,5),(3,5),(4,5)
    g = graph_from_edges(5, [(0, 1), (2, 4)])
    bitstring = "1000000010"
    packed = [bitstring[:6], bitstring[6:] + "00"]
    expected = chr(5 + 63) + "".join(chr(int(b, 2) + 63) for b in packed)
    assert to_graph6(g) == expected
    assert from_graph6(expected).adj == g.adj


@given(graphs(max_n=7))
def test_graph6_round_trip(g):
    assert from_graph6(to_graph6(g)).adj == g.adj


def test_graph6_errors():
    with pytest.raises(ParseError):
        from_graph6("")
    with pytest.raises(ParseError):
        from_graph6("D?")  # truncated
    with pytest.raises(ParseError):
        from_graph6("D????")  # too long
    with pytest.raises(ParseError):
        from_graph6("B" + chr(62))  # data character out of range
    with pytest.raises(ParseError):
        from_graph6("A" + chr(63 + 1))  # nonzero padding bit


def test_parse_graph_json():
    g = parse_graph('{"n":2,"edges":[[1,2]]}')
    assert g.edges() == [(0, 1)]
    with pytest.raises(ParseError):
        parse_graph('{"n":2,"edges":[[1,1]]}')
    with pytest.raises(ParseError):
        parse_graph('{"n":2,"edges":[[1,3]]}')
    with pytest.raises(ParseError):
        parse_graph('{"n":2}')
    with pytest.raises(ParseError):
        parse_graph("{bad json")


@given(graphs(max_n=6))
def test_serialize_round_trip(g):
    assert parse_graph(serialize_graph(g)).adj == g.adj
    assert parse_graph(serialize_graph(g, "graph6")).adj == g.adj


def test_components_and_connectivity():
    g = graph_from_edges(4, [(0, 1), (2, 3)])
    assert components(g) == [mask_of([0, 1]), mask_of([2, 3])]
    assert not is_connected(g)
    assert is_connected(family("cycle", 5))
    assert is_connected(graph_from_edges(1, []))


def test_components_within_matches_naive_search_on_every_mask():
    for g in enumerate_graphs(6):
        for mask in range(1 << g.n):
            assert _components_within(g, mask) == naive_components(g, mask), (g, mask)
