"""Building sets: axioms, minors, Hopf operations."""

import gc
import hashlib
import tracemalloc
from collections import Counter

import pytest
from hypothesis import given
import hypothesis.strategies as st

from conftest import components_by_size, graphs
from nestoqsym.bitsets import (
    bits,
    compress,
    compress_tables,
    mask_of,
    nonempty_submasks,
    submasks,
)
from nestoqsym.buildset import (
    BuildingSet,
    HopfElement,
    _minor,
    building_set,
    components,
    components_within,
    contraction,
    coproduct,
    discrete_building_set,
    from_graph,
    hopf_monomial,
    hopf_word,
    is_connected,
    maximal_members,
    parse_building_set,
    product,
    restriction,
    serialize_building_set,
    takeuchi_antipode,
    validate,
)
from nestoqsym.errors import InputError, NotABuildingSetError, ParseError
from nestoqsym.graphs import (
    FAMILY_KINDS,
    _components_within,
    _lowest_component,
    contract,
    enumerate_graphs,
    family,
    graph_from_edges,
    induced,
)
from nestoqsym.invariants import random_building_sets


def bs(n, *vertex_sets):
    return building_set(n, [mask_of(v - 1 for v in vs) for vs in vertex_sets])


def test_validate_examples():
    assert bs(2, [1], [2], [1, 2]).mu == 3
    with pytest.raises(NotABuildingSetError) as err:
        bs(3, [1], [2], [3], [1, 2], [2, 3])
    assert "{1,2}" in str(err.value) and "{2,3}" in str(err.value)
    assert bs(4, [1], [2], [3], [4], [1, 2], [1, 2, 3]).mu == 6


def test_validate_singleton_handling():
    b = building_set(3, [mask_of([0, 1, 2])])
    assert b.sets == (1, 2, 4, 7)
    with pytest.raises(NotABuildingSetError):
        validate([mask_of([0, 1, 2])], 3, add_singletons=False)
    with pytest.raises(InputError):
        validate([0], 2)
    with pytest.raises(InputError):
        validate([8], 2)


def test_from_graph_examples():
    b = from_graph(family("path", 4))
    assert b.members() == [
        [1], [2], [1, 2], [3], [2, 3], [1, 2, 3], [4], [3, 4], [2, 3, 4],
        [1, 2, 3, 4],
    ]
    assert from_graph(family("complete", 2)).sets == (1, 2, 3)
    assert from_graph(graph_from_edges(2, [])).sets == (1, 2)


def test_from_graph_keeps_the_masks_the_search_finds_connected():
    graphs = [g for n in range(1, 7) for g in enumerate_graphs(n)]
    graphs += [family("path", 16), family("complete", 16)]
    for g in graphs:
        connected = tuple(
            m for m in range(1, 1 << g.n) if len(_components_within(g, m)) == 1
        )
        assert from_graph(g).sets == connected, g


@given(graphs(max_n=6))
def test_from_graph_always_validates(g):
    b = from_graph(g)
    assert validate(b.sets, b.n, add_singletons=False) == b


def test_restriction_examples():
    b4 = from_graph(family("path", 4))
    assert restriction(b4, mask_of([0, 1, 2])) == from_graph(family("path", 3))
    assert restriction(b4, 0) == BuildingSet(0, ())
    assert restriction(b4, 0b1111) == b4


def test_contraction_examples():
    b4 = from_graph(family("path", 4))
    assert contraction(b4, mask_of([1])) == from_graph(family("path", 3))
    assert contraction(b4, 0) == b4
    assert contraction(from_graph(family("complete", 2)), 1) == BuildingSet(1, (1,))


def test_minor_masks_outside_the_ground_set_are_refused():
    b = from_graph(family("path", 3))
    for minor in (restriction, contraction):
        for bad in (-1, 1 << 5, 2.0, True):
            with pytest.raises(InputError):
                minor(b, bad)
    assert restriction(b, b.full_mask()) == b == contraction(b, 0)


def _minor_by_positions(b, inside, contracted):
    """Oracle: the minor relabeled through a vertex -> position dict."""
    verts = list(bits(inside & ~contracted))
    pos = {v: i for i, v in enumerate(verts)}
    out = set()
    for s in b.sets:
        if s & ~inside:
            continue
        t = s & ~contracted
        if t:
            out.add(mask_of(pos[v] for v in bits(t)))
    return BuildingSet(len(verts), tuple(sorted(out)))


MINOR_CASES = random_building_sets(40, max_n=5) + [
    from_graph(g) for n in range(1, 6) for g in enumerate_graphs(n)
]


def test_minor_matches_the_position_dict_oracle():
    pairs = 0
    for b in MINOR_CASES:
        for inside in range(1 << b.n):
            for contracted in submasks(inside):
                assert _minor(b, inside, contracted) == _minor_by_positions(
                    b, inside, contracted
                )
                pairs += 1
    assert len(MINOR_CASES) == 92 and pairs == 15_402


def test_components_within_matches_the_size_order_oracle():
    for b in MINOR_CASES + [BuildingSet(0, ())]:
        assert len(b.lowest) == 1 << b.n
        for mask in range(1 << b.n):
            # the same components, listed by increasing lowest vertex
            oracle = sorted(components_by_size(b, mask), key=lambda c: c & -c)
            assert list(components_within(b, mask)) == oracle
            assert b.lowest[mask] == (oracle[0] if mask else 0)


def test_lowest_matches_the_graph_neighbourhood_table():
    for n in range(1, 7):
        for g in enumerate_graphs(n):
            lowest = _lowest_component(g)
            assert from_graph(g).lowest == [lowest(U) for U in range(1 << n)], g


def test_components_examples():
    b = bs(4, [1], [2], [3], [4], [1, 2], [3, 4])
    comps = components(b)
    assert [c[0] for c in comps] == [(0, 1), (2, 3)]
    assert all(c[1] == from_graph(family("complete", 2)) for c in comps)
    assert is_connected(from_graph(family("path", 4)))
    assert components(discrete_building_set(3)) == [
        ((0,), BuildingSet(1, (1,))),
        ((1,), BuildingSet(1, (1,))),
        ((2,), BuildingSet(1, (1,))),
    ]


def quadratic_maximal_members(b):
    """The definition: members inside no other member, in mask order."""
    return [s for s in b.sets if not any(t != s and t & s == s for t in b.sets)]


def test_maximal_members_matches_definition():
    cases = random_building_sets(300, seed=7, max_n=7)
    cases += [from_graph(g) for n in range(1, 6) for g in enumerate_graphs(n)]
    assert len(cases) == 352
    for b in cases + [BuildingSet(0, ())]:
        assert maximal_members(b) == quadratic_maximal_members(b)


def test_cached_properties_leave_identity_alone():
    b = from_graph(family("path", 4))
    fresh = BuildingSet(b.n, b.sets)
    assert b.member_set == frozenset(b.sets)
    assert b.maxima == frozenset(maximal_members(b)) == {0b1111}
    assert b == fresh and hash(b) == hash(fresh) and repr(b) == repr(fresh)
    assert repr(b) == f"BuildingSet(n=4, sets={b.sets!r})"


def test_product_examples():
    point = BuildingSet(1, (1,))
    assert product(point, point) == discrete_building_set(2)
    k2 = from_graph(family("complete", 2))
    assert product(k2, k2) == bs(4, [1], [2], [3], [4], [1, 2], [3, 4])
    assert product(k2, BuildingSet(0, ())) == k2


def test_coproduct_examples():
    point = BuildingSet(1, (1,))
    terms = coproduct(point)
    assert len(terms) == 2
    assert terms[0] == (0, BuildingSet(0, ()), point)
    assert terms[1] == (1, point, BuildingSet(0, ()))
    k2 = from_graph(family("complete", 2))
    terms = coproduct(k2)
    assert len(terms) == 4
    assert terms[1] == (1, BuildingSet(1, (1,)), BuildingSet(1, (1,)))


def _coproduct_counter(b):
    return Counter(
        (left.sets, left.n, right.sets, right.n)
        for _, left, right in coproduct(b)
    )


def test_coproduct_coassociative_on_path3():
    b = from_graph(family("path", 3))
    left = Counter()
    right = Counter()
    for _, x, y in coproduct(b):
        for _, a, c in coproduct(x):
            left[(a.sets, c.sets, y.sets, a.n, c.n, y.n)] += 1
        for _, c, d in coproduct(y):
            right[(x.sets, c.sets, d.sets, x.n, c.n, d.n)] += 1
    assert left == right


def test_takeuchi_examples():
    point = BuildingSet(1, (1,))
    s = takeuchi_antipode(point)
    assert s.as_dict() == {hopf_word([point]): -1}

    k2 = from_graph(family("complete", 2))
    s = takeuchi_antipode(k2)
    assert s.as_dict() == {
        hopf_word([k2]): -1,
        hopf_word([point, point]): 2,
    }

    d2 = discrete_building_set(2)
    s = takeuchi_antipode(d2)
    assert s.as_dict() == {
        hopf_word([d2]): -1,
        hopf_word([point, point]): 2,
    }


# ---------------------------------------------------------------------------
# minor identities (the bialgebra compatibility laws)

def _relabel_through(mask, removed, n):
    """Translate an original-label mask to post-removal coordinates."""
    survivors = [v for v in range(n) if not removed >> v & 1]
    return mask_of(survivors.index(v) for v in bits(mask))


def test_compress_is_the_survivor_relabeling():
    n = 6
    full = (1 << n) - 1
    for keep in range(1 << n):
        for mask in range(1 << n):
            assert compress(mask, keep) == _relabel_through(mask & keep, full & ~keep, n)


def test_compress_tables_hold_compress():
    for n in range(9):
        tables = compress_tables((1 << n) - 1)
        assert len(tables) == 1 << n
        for step, table in enumerate(tables):
            assert table == {t: compress(t, step) for t in submasks(step)}


def test_compress_tables_share_one_read_only_prefix():
    # The tables of n <= 6 are built once; every call starts from them.
    shared = compress_tables(63)
    assert compress_tables(63) is not shared  # callers get their own list
    for full in (0, 1, 7, 63, 127, 255):
        tables = compress_tables(full)
        assert all(a is b for a, b in zip(tables, shared))
    assert compress_tables(255)[64] is not compress_tables(255)[64]


def _coproduct_by_minors(b):
    """Oracle: each minor by _minor, one compress call per member."""
    full = b.full_mask()
    return [(I, _minor(b, I, 0), _minor(b, full, I)) for I in range(full + 1)]


def test_coproduct_matches_the_minor_oracle():
    families = [from_graph(family(kind, n)) for kind in FAMILY_KINDS for n in range(3, 8)]
    small = [discrete_building_set(n) for n in range(3)]
    cases = small + families + random_building_sets(300, seed=7, max_n=6)
    for b in cases:
        got, want = coproduct(b), _coproduct_by_minors(b)
        assert got == want and repr(got) == repr(want), b


def test_minor_identities_on_closure_generated_sets():
    from nestoqsym.invariants import random_building_sets

    full_cases = []
    for b in random_building_sets(12, seed=4242, max_n=4):
        n = b.n
        for I in range(1 << n):
            for J in range(1 << n):
                if I & J:
                    continue
                full_cases.append((b, I, J))
    for b, I, J in full_cases:
        n = b.n
        J_re = _relabel_through(J, I, n)
        lhs = restriction(contraction(b, I), J_re)
        rhs = contraction(
            restriction(b, I | J),
            _relabel_through(I, ~(I | J) & ((1 << n) - 1), n),
        )
        assert lhs == rhs
        assert contraction(contraction(b, I), J_re) == contraction(b, I | J)


@given(graphs(max_n=5), st.data())
def test_minor_identities(g, data):
    b = from_graph(g)
    n = b.n
    I = data.draw(st.integers(0, (1 << n) - 1))
    J = data.draw(st.integers(0, (1 << n) - 1)) & ~I
    # (B/I)|_J = (B|_{I u J})/I  and  (B/I)/J = B/(I u J)
    J_re = _relabel_through(J, I, n)
    assert restriction(contraction(b, I), J_re) == contraction(
        restriction(b, I | J), _relabel_through(I, ~(I | J) & ((1 << n) - 1), n)
    )
    assert contraction(contraction(b, I), J_re) == contraction(b, I | J)


@given(graphs(max_n=6), st.data())
def test_graphical_minors_commute(g, data):
    I = data.draw(st.integers(0, (1 << g.n) - 1))
    verts = list(bits(I))
    assert from_graph(induced(g, verts)) == restriction(from_graph(g), I)
    assert from_graph(contract(g, verts)) == contraction(from_graph(g), I)


@given(graphs(max_n=3), graphs(max_n=2), st.data())
def test_product_coproduct_compatibility(g1, g2, data):
    b1, b2 = from_graph(g1), from_graph(g2)
    b = product(b1, b2)
    I1 = data.draw(st.integers(0, (1 << b1.n) - 1))
    I2 = data.draw(st.integers(0, (1 << b2.n) - 1))
    I = I1 | (I2 << b1.n)
    assert restriction(b, I) == product(restriction(b1, I1), restriction(b2, I2))
    assert contraction(b, I) == product(contraction(b1, I1), contraction(b2, I2))


HOPF_DIGESTS = {
    # sha256 of repr(takeuchi_antipode(b)) and of repr(coproduct(b))
    "complete": (
        "89de268f3c8f54afa2910714281703344141e5ac462bda3610c8f89b027c9c2d",
        "fa9caed07aa3a937c78b6d0c7d9a0f7dc46b1fe0e74ab07fd95dc314da0bb98e",
    ),
    "path": (
        "78b5dcb30248b87a9945484f3e4ddbf9b1af6190a27dfd214e9a5219deb10d6d",
        "0449b18e9630884e674afaec028bd9d59ac005f29159c457949c4d1717441c84",
    ),
    "cycle": (
        "caf3b54770092459f4342b4f0b9295d5b1d03d1de935b0b40df59df074e2deef",
        "ae0b65f638079824fd9e203a43820db6cfefb68fcf94e6050774e28bfac1ae19",
    ),
    "star": (
        "e6cb0f0631967569249394931a9c84f7ca96f76f2e56bfdf68e88020cc60adb2",
        "9cb35151bec0f12137396cc09f443f828caf3354a75622f2cf5b5f0a4abb0c1d",
    ),
    # of the lists over random_building_sets(20, seed=7, max_n=5)
    "random": (
        "95f37b40a74360203537da60d314a1059998c17f9b4ffed4c3fe96651e4ae27f",
        "d899072bd1432d98a9b4d2d6c8ffdf8e894c3eefd86d74f2af4c7fd026d8e3a5",
    ),
}


def _takeuchi_by_chains(b):
    """Oracle: the walk over every chain, accumulating words of building
    sets, each factor built once per (done, step)."""
    if b.n == 0:
        return hopf_monomial(BuildingSet(0, ()))
    full = b.full_mask()
    acc, minors = {}, {}

    def walk(done, factors, k):
        if done == full:
            w = hopf_word(factors)
            acc[w] = acc.get(w, 0) + (-1 if k % 2 else 1)
            return
        for step in nonempty_submasks(full & ~done):
            m = minors.get((done, step))
            if m is None:
                m = minors[done, step] = _minor(b, done | step, done)
            walk(done | step, factors + (m,), k + 1)

    walk(0, (), 0)
    return HopfElement.of(acc)


def test_takeuchi_matches_the_chain_walk():
    graphical = [from_graph(g) for n in range(1, 6) for g in enumerate_graphs(n)]
    # the families below n = 3 are among the graphical sets
    families = [
        from_graph(family(kind, n)) for kind in FAMILY_KINDS for n in range(3, 7)
    ]
    discrete = [discrete_building_set(n) for n in range(8)]
    cases = (
        graphical
        + families
        + discrete
        + [from_graph(family("path", 7))]
        + random_building_sets(200, seed=7, max_n=6)
    )
    for b in cases:
        got, want = takeuchi_antipode(b), _takeuchi_by_chains(b)
        assert got == want and repr(got) == repr(want), b
    assert len(cases) == 52 + 16 + 8 + 1 + 200


def test_takeuchi_and_coproduct_pinned_digests():
    def digest(value):
        return hashlib.sha256(repr(value).encode()).hexdigest()

    got = {}
    for kind in FAMILY_KINDS:
        b = from_graph(family(kind, 5))
        got[kind] = (digest(takeuchi_antipode(b)), digest(coproduct(b)))
    sample = random_building_sets(20, seed=7, max_n=5)
    got["random"] = (
        digest([takeuchi_antipode(b) for b in sample]),
        digest([coproduct(b) for b in sample]),
    )
    assert got == HOPF_DIGESTS


TAKEUCHI_DIGESTS_AT_8 = {
    # sha256 of repr(takeuchi_antipode(b)) at n = 8, from the chain walk
    "complete": "17a01e83c94714f33a7914a4a3702e3f483af09a543fafe77913c0a3cf4b0cc3",
    "path": "74affc3cd9ccb66bf159560b6cdd31c0eb944697bf633df8b5cf0f6bb31622bf",
    "cycle": "b96121921049e8e21d12452eef802d466b74bab2179b6ab13e4c01c294c4e582",
    "star": "53203b8727e07b0ab1771a35ac23b28cf0b7bb5cfd7f7f945e2bad1ad03bd7bc",
    "discrete": "2f59d04eafe57b5cc6d0b4dfbeda83dad2bd8c781a83bfac21b3a2879c53c9c0",
}


def test_takeuchi_pinned_digests_at_n8():
    cases = {kind: from_graph(family(kind, 8)) for kind in FAMILY_KINDS}
    cases["discrete"] = discrete_building_set(8)
    got = {
        kind: hashlib.sha256(repr(takeuchi_antipode(b)).encode()).hexdigest()
        for kind, b in cases.items()
    }
    assert got == TAKEUCHI_DIGESTS_AT_8


TAKEUCHI_DIGESTS_AT_9 = {
    # sha256 of repr(takeuchi_antipode(b)) at n = 9, from the loop over
    # every covered set (_takeuchi_by_covered_set)
    "complete": "3109c375ca59e7ea47ff93cdcb8776a35549c889bb468f754a233e78220d321b",
    "path": "bd00c4fed996ce41704cd52b3f45ffe70bde9a1b19269decf29dc6d29730c58e",
    "cycle": "36469ebbfb52032896b5e98fce2b8e3191626203bc2c205a0e723a974b570dde",
    "star": "9476cabc0f7c85496615b3123b17548e5caf88d1f3f2788f2c46bebcbf5c0a73",
    "discrete": "b49b770c6e8815607c4574149d7e2586ebddec2fe89231f2e04b20ab14250f89",
}


def test_takeuchi_pinned_digests_at_n9():
    cases = {kind: from_graph(family(kind, 9)) for kind in FAMILY_KINDS}
    cases["discrete"] = discrete_building_set(9)
    got = {
        kind: hashlib.sha256(repr(takeuchi_antipode(b)).encode()).hexdigest()
        for kind, b in cases.items()
    }
    assert got == TAKEUCHI_DIGESTS_AT_9


def _takeuchi_by_covered_set(b):
    """Oracle: one sum per covered set, each word sorted afresh, the terms
    sorted by HopfElement.of (takeuchi_antipode shares the sums of equal
    contractions and inserts ids by bisect)."""
    if b.n == 0:
        return hopf_monomial(BuildingSet(0, ()))
    full = b.full_mask()
    tables = compress_tables(full)
    ids, rest = {}, [None] * full + [{(): 1}]
    for done in range(full - 1, -1, -1):
        acc = {}
        left = sorted({s & ~done for s in b.sets} - {0})
        for step in nonempty_submasks(full & ~done):
            tab = tables[step]
            key = (step.bit_count(), tuple([tab[t] for t in left if not t & ~step]))
            i = ids.setdefault(key, len(ids))
            for w, c in rest[done | step].items():
                w = tuple(sorted(w + (i,)))
                acc[w] = acc.get(w, 0) - c
        rest[done] = {w: c for w, c in acc.items() if c}
    factors = [BuildingSet(*key) for key in ids]
    return HopfElement.of({hopf_word([factors[i] for i in w]): c for w, c in rest[0].items()})


def test_takeuchi_matches_the_covered_set_loop():
    families = [from_graph(family(kind, n)) for kind in FAMILY_KINDS for n in (7, 8)]
    discrete = [discrete_building_set(n) for n in range(9)]
    sample = random_building_sets(120, seed=3, max_n=7)
    assert sum(b.n == 7 for b in sample) == 20
    cases = families + discrete + sample
    for b in cases:
        got, want = takeuchi_antipode(b), _takeuchi_by_covered_set(b)
        assert got == want and repr(got) == repr(want), b


def test_takeuchi_sums_once_per_distinct_contraction(monkeypatch):
    # Every contraction of these sets on k vertices is the same set on k
    # vertices, so of the 2^6 - 1 proper covered sets, 6 run the step loop.
    from nestoqsym import buildset

    loops = []
    counted = lambda m: loops.append(m) or nonempty_submasks(m)
    monkeypatch.setattr(buildset, "nonempty_submasks", counted)
    sets = [from_graph(family(k, 6)) for k in ("complete", "path", "cycle")]
    sets.append(discrete_building_set(6))
    for b in sets:
        loops.clear()
        assert takeuchi_antipode(b) == _takeuchi_by_covered_set(b)
        assert sorted(m.bit_count() for m in loops) == [1, 2, 3, 4, 5, 6], b


def test_takeuchi_memo_does_not_outlive_the_call():
    # With the collector off, whatever the call leaves in a reference cycle
    # stays; the table of sums is a local, freed on return.
    b = from_graph(family("cycle", 8))
    takeuchi_antipode(b)  # warm: first-call allocations that stay are not the memo's
    gc.disable()
    tracemalloc.start()
    try:
        s = takeuchi_antipode(b)
        del s
        # Frozen objects are never collected, so this full collection
        # frees only the interpreter's free lists of dead tuples and dicts,
        # which tracemalloc would count, and leaves the call's cycle alone.
        gc.freeze()
        gc.collect()
        left = tracemalloc.get_traced_memory()[0]
    finally:
        gc.unfreeze()
        tracemalloc.stop()
        gc.enable()
    assert left < 4096, left


def test_serialization_round_trip():
    b = bs(4, [1], [2], [3], [4], [1, 2], [1, 2, 3])
    assert parse_building_set(serialize_building_set(b)) == parse_building_set(str(b)) == b
    assert parse_building_set('{"n":2,"sets":[[1],[2],[1,2]]}').mu == 3
    with pytest.raises(ParseError):
        parse_building_set('{"n":2,"sets":[[0]]}')
    with pytest.raises(ParseError):
        parse_building_set('{"n":2}')
    with pytest.raises(NotABuildingSetError):
        parse_building_set(
            '{"n":3,"sets":[[1,2],[2,3]]}'
        )  # union closure fails after singleton insertion
