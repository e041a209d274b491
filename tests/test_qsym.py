"""The quasisymmetric kernel: exact values and algebraic laws."""

import dataclasses
import hashlib
from itertools import accumulate

import pytest
from hypothesis import given
import hypothesis.strategies as st

from conftest import compositions, qsym_elements, small_compositions, small_qsym_elements
from nestoqsym import qsym
from nestoqsym.bitsets import submasks
from nestoqsym.buildset import HopfElement, discrete_building_set, from_graph, hopf_word
from nestoqsym.buildset import coproduct as bcoproduct
from nestoqsym.errors import CapacityError, InputError, ParseError
from nestoqsym.graphs import family
from nestoqsym.invariants import F_splitting, chromatic_symmetric, random_building_sets
from nestoqsym.qsym import (
    antipode,
    binomial,
    coarsenings,
    code_table,
    compositions_of,
    coproduct,
    descent_composition,
    element,
    from_fundamental,
    fundamental,
    monomial,
    mul,
    one,
    parse,
    principal_specialization,
    refines,
    refinements,
    render,
    shift1,
    tensor_product,
    term_key,
    to_fundamental,
    to_json,
    vertex_count,
    zero,
)

M = monomial
L = fundamental

EX54 = element("M", {(1, 1, 1, 1): 24, (2, 1, 1): 6, (1, 2, 1): 4})
EX62 = element("L", {(1, 1, 1, 1): 14, (2, 1, 1): 6, (1, 2, 1): 4})


# ---------------------------------------------------------------------------
# compositions

def brute_refines(beta, alpha):
    """Try every way to cut beta into len(alpha) consecutive blocks."""
    from itertools import combinations

    k = len(alpha)
    if k == 0:
        return len(beta) == 0
    for cuts in combinations(range(1, len(beta)), k - 1):
        bounds = (0,) + cuts + (len(beta),)
        if all(
            sum(beta[bounds[i] : bounds[i + 1]]) == alpha[i] for i in range(k)
        ):
            return True
    return False


def test_refines_examples():
    assert refines((1, 1, 1, 1), (2, 1, 1))
    assert refines((2, 2), (2, 2))
    assert not refines((1, 2, 1), (2, 2))
    assert not brute_refines((1, 2, 1), (2, 2))


@given(compositions, compositions)
def test_refines_matches_bruteforce(beta, alpha):
    assert refines(beta, alpha) == brute_refines(beta, alpha)


def test_coarsenings_examples():
    assert coarsenings((1, 1)) == {(1, 1), (2,)}
    assert coarsenings((2,)) == {(2,)}
    assert coarsenings((1, 1, 1)) == {(1, 1, 1), (2, 1), (1, 2), (3,)}


@given(compositions)
def test_coarsenings_count_and_membership(alpha):
    cs = coarsenings(alpha)
    assert alpha in cs
    assert len(cs) == (1 << max(len(alpha) - 1, 0))
    for beta in cs:
        assert refines(alpha, beta)


def test_refinements_inverse_of_coarsening():
    for n in range(0, 6):
        for alpha in compositions_of(n):
            for beta in refinements(alpha):
                assert refines(beta, alpha)
            assert len(set(refinements(alpha))) == len(refinements(alpha))


def test_code_table_lists_each_composition_once():
    for w in range(0, 11):
        by_code, code_of, in_order = code_table(w)
        assert sorted(by_code) == sorted(compositions_of(w))
        assert all(code_of[alpha] == code for code, alpha in enumerate(by_code))
        # the third item pairs each code with its composition, in term order
        assert [alpha for _, alpha in in_order] == sorted(by_code, key=term_key)
        assert all(by_code[code] is alpha for code, alpha in in_order)


def test_code_of_appending_a_one_sets_the_top_bit():
    assert code_table(1)[1] == {(1,): 0}
    for w in range(1, 10):
        code_of, longer = code_table(w)[1], code_table(w + 1)[1]
        for alpha, code in code_of.items():
            assert longer[alpha + (1,)] == code | 1 << (w - 1)


@pytest.mark.parametrize(
    "call",
    [
        lambda: refines((0, 1), (1,)),
        lambda: refines((-1, 3), (2,)),
        lambda: coarsenings((1.5, 0.5)),
        lambda: refinements((0, 2)),
        lambda: refinements((2.5,)),
    ],
    ids=["refines-zero-part", "refines-negative-part", "coarsenings-floats",
         "refinements-zero-part", "refinements-float"],
)
def test_composition_helpers_refuse_non_compositions(call):
    with pytest.raises(InputError):
        call()


def test_refinements_of_the_empty_composition():
    assert refinements(()) == ((),)
    assert coarsenings(()) == {()}
    assert refines((), ())
    assert not refines((1,), ())


# The enumerations the partial-sum code replaced, kept as oracles.

def oracle_compositions_of(n):
    """First part, then every composition of the rest; sorted by term_key."""
    if n == 0:
        return ((),)
    res = []
    for first in range(1, n + 1):
        for rest in oracle_compositions_of(n - first):
            res.append((first,) + rest)
    return tuple(sorted(res, key=term_key))


def oracle_code_table(w):
    """Read each code's set bits as partial sums, one part at a time."""
    if w == 0:
        return ((),)
    by_code = []
    for code in range(1 << (w - 1)):
        parts, last = [], 0
        for s in range(w - 1):
            if code >> s & 1:
                parts.append(s + 1 - last)
                last = s + 1
        parts.append(w - last)
        by_code.append(tuple(parts))
    return tuple(by_code)


def oracle_refinements(alpha, by_weight):
    """Concatenate one refinement of each part, in every way."""
    out = [()]
    for a in alpha:
        out = [b + c for b in out for c in by_weight[a]]
    return out


def oracle_coarsenings(alpha):
    """Each next part starts a new part or merges into the last one."""
    if not alpha:
        return {()}
    out = [alpha[:1]]
    for a in alpha[1:]:
        out = [c + (a,) for c in out] + [c[:-1] + (c[-1] + a,) for c in out]
    return set(out)


def oracle_antipode_L(alpha):
    """Scan 0..n right to left, keeping the positions that are not cuts."""
    n = sum(alpha)
    cuts = set(accumulate(alpha[:-1]))
    ends = [j for j in range(n, -1, -1) if j not in cuts]
    return tuple(a - b for a, b in zip(ends, ends[1:]))


def test_code_table_and_compositions_of_match_the_recursion():
    for w in range(0, 15):
        assert code_table(w)[0] == oracle_code_table(w)
        assert compositions_of(w) == oracle_compositions_of(w)


def test_refinements_and_coarsenings_match_the_concatenations():
    by_weight = {w: oracle_compositions_of(w) for w in range(13)}
    for w in range(0, 13):
        for alpha in by_weight[w]:
            refs = refinements(alpha)
            assert len(refs) == len(set(refs))
            assert set(refs) == set(oracle_refinements(alpha, by_weight))
            assert coarsenings(alpha) == oracle_coarsenings(alpha)


def test_refinements_are_cached_in_term_order():
    # the cached tuple holds the submask walk's refinements, in term order
    for w in range(0, 13):
        for alpha in compositions_of(w):
            code = qsym._code(alpha)
            walk = {qsym._composition(code | s, w) for s in submasks(qsym._free(code, w))}
            cached = qsym._refinements(alpha)
            assert set(cached) == walk and len(cached) == len(walk)
            assert list(cached) == sorted(cached, key=term_key)


def test_antipode_matches_the_scans_on_every_basis_function():
    for w in range(0, 13):
        for alpha in compositions_of(w):
            sign = -1 if len(alpha) % 2 else 1
            expect = element("M", {b: sign for b in oracle_coarsenings(alpha[::-1])})
            assert antipode(monomial(alpha)) == expect
            beta = oracle_antipode_L(alpha)
            assert antipode(fundamental(alpha)) == fundamental(beta, (-1) ** w)


# ---------------------------------------------------------------------------
# product: quasi-shuffle vs truncated power-series expansion

def poly(F, nvars):
    """Expand an M-basis element in nvars variables: exponent tuple -> coeff."""
    from itertools import combinations

    out = {}
    for alpha, c in F.terms:
        k = len(alpha)
        for support in combinations(range(nvars), k):
            expo = [0] * nvars
            for pos, a in zip(support, alpha):
                expo[pos] = a
            key = tuple(expo)
            out[key] = out.get(key, 0) + c
    return {k: v for k, v in out.items() if v}


def poly_mul(p, q):
    out = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            key = tuple(a + b for a, b in zip(e1, e2))
            out[key] = out.get(key, 0) + c1 * c2
    return {k: v for k, v in out.items() if v}


def test_mul_examples():
    assert mul(M((1,)), M((1,))) == element("M", {(1, 1): 2, (2,): 1})
    assert mul(one(), EX54) == EX54
    assert mul(M((1, 1)), M((1, 1))) == element(
        "M", {(1, 1, 1, 1): 6, (2, 1, 1): 2, (1, 2, 1): 2, (1, 1, 2): 2, (2, 2): 1}
    )


@given(small_qsym_elements, small_qsym_elements)
def test_mul_matches_polynomial_expansion(F, G):
    # 6 variables resolve every composition of length <= 6 in the product
    assert poly(mul(F, G), 6) == poly_mul(poly(F, 6), poly(G, 6))


@given(small_qsym_elements, small_qsym_elements, small_qsym_elements)
def test_mul_associative_commutative(A, B, C):
    assert mul(mul(A, B), C) == mul(A, mul(B, C))
    assert mul(A, B) == mul(B, A) == B * A
    assert mul(one(), A) == A


def test_mul_requires_m_basis():
    with pytest.raises(InputError):
        mul(L((1,)), M((1,)))


# ---------------------------------------------------------------------------
# shift and coproduct

def test_shift1_examples():
    assert shift1(M((2, 1))) == M((2, 1, 1))
    assert shift1(one()) == M((1,))
    assert shift1(element("M", {(1, 1): 2, (2,): 1})) == element(
        "M", {(1, 1, 1): 2, (2, 1): 1}
    )


@given(qsym_elements)
def test_shift1_grading(F):
    shifted = shift1(F)
    before = sorted(sum(a) for a, _ in F.terms)
    after = sorted(sum(a) - 1 for a, _ in shifted.terms)
    assert before == after


def test_coproduct_examples():
    assert coproduct(M((2, 1))).as_dict() == {
        ((), (2, 1)): 1,
        ((2,), (1,)): 1,
        ((2, 1), ()): 1,
    }
    assert coproduct(one()).as_dict() == {((), ()): 1}
    assert coproduct(M((3,))).as_dict() == {((), (3,)): 1, ((3,), ()): 1}


def coproduct_by_slices(F):
    """Oracle: each term's deconcatenations sliced afresh."""
    acc = {}
    for a, c in F.terms:
        for i in range(len(a) + 1):
            k = (a[:i], a[i:])
            acc[k] = acc.get(k, 0) + c
    return qsym.QSymTensor.of(acc)


@given(qsym_elements)
def test_coproduct_matches_the_slice_oracle(F):
    got, want = coproduct(F), coproduct_by_slices(F)
    assert got == want and repr(got) == repr(want)


def test_coproducts_share_their_keys():
    F = element("M", {(1, 2, 1): 3, (2, 2): -1, (4,): 2})
    first, second = coproduct(F), coproduct(element("M", dict(F.terms)))
    assert [k for k, _ in first.terms] == [k for k, _ in second.terms]
    assert all(k is j for (k, _), (j, _) in zip(first.terms, second.terms))


def tensor_by_pairs(F, G):
    """Oracle: each (a, b) key built afresh."""
    acc = {}
    for a, ca in F.terms:
        for b, cb in G.terms:
            acc[a, b] = acc.get((a, b), 0) + ca * cb
    return qsym.QSymTensor.of(acc)


@given(small_qsym_elements, small_qsym_elements)
def test_tensor_product_matches_the_pair_oracle(F, G):
    got, want = tensor_product(F, G), tensor_by_pairs(F, G)
    assert got == want and repr(got) == repr(want)


_FACTORS = [discrete_building_set(1), discrete_building_set(2), from_graph(family("path", 3))]
_KEYS = {
    qsym.QSymElement: compositions,
    qsym.QSymTensor: st.tuples(small_compositions, small_compositions),
    HopfElement: st.lists(st.sampled_from(_FACTORS), min_size=1, max_size=3).map(hopf_word),
}


def _of(cls, d):
    return cls.of(d, basis="M") if cls is qsym.QSymElement else cls.of(d)


@st.composite
def _summands(draw, cls):
    """(a, b): b cancels some of a's terms outright, changes others, and
    brings keys of its own only when drawn to."""
    a = draw(st.dictionaries(_KEYS[cls], st.integers(-3, 3), max_size=5))
    b = {k: draw(st.one_of(st.just(-c), st.integers(-3, 3))) for k, c in a.items()}
    if draw(st.booleans()):
        b.update(draw(st.dictionaries(_KEYS[cls], st.integers(-3, 3), max_size=3)))
    return _of(cls, a), _of(cls, b)


@pytest.mark.parametrize("cls", [qsym.QSymElement, qsym.QSymTensor, HopfElement])
@given(data=st.data())
def test_sums_are_the_canonical_form_of_the_merged_dict(cls, data):
    a, b = data.draw(_summands(cls))
    merged = dict(a.terms)
    for k, c in b.terms:
        merged[k] = merged.get(k, 0) + c
    got, want = a + b, _of(cls, merged)
    assert got == want and repr(got) == repr(want)
    assert all(c for _, c in got.terms)
    assert (a + a.scale(-1)).is_zero() and a + _of(cls, {}) == a


def dict_sum(a, b):
    """a + b as it stood before sums without a new key took one pass in
    key order: one dict merge, then the canonical sort, whatever the keys."""
    acc = dict(zip(a.keys, a.coeffs))
    for k, c in zip(b.keys, b.coeffs):
        acc[k] = acc.get(k, 0) + c
    keys, coeffs = a._canonical(acc)
    return dataclasses.replace(a, keys=keys, coeffs=coeffs)


def assert_sums_match_the_dict_path(a, b):
    for x, y in ((a, b), (b, a)):
        got, want = x + y, dict_sum(x, y)
        assert got == want and repr(got) == repr(want), (x, y)


def test_coproduct_piece_sums_match_the_dict_path():
    # the sums the `hopf` benchmark makes: F ⊗ F of each coproduct piece,
    # added in turn; most bring no new key
    for b in random_building_sets(60, seed=41, max_n=5):
        pieces = [tensor_product(F_splitting(x), F_splitting(y)) for _, x, y in bcoproduct(b)]
        total = pieces[0]
        for piece in pieces[1:]:
            assert_sums_match_the_dict_path(total, piece)
            total = total + piece


_BASE = {(1,): 1, (1, 1): 3, (1, 2): 5, (1, 1, 1): 2}  # in term order


@pytest.mark.parametrize(
    "other",
    [
        {k: -c for k, c in _BASE.items()},  # cancels every term
        {(1,): -1, (1, 2): 1},  # cancels the first term, changes another
        {(1, 1): -3},  # cancels a middle term
        {(1, 1, 1): -2, (1,): 4},  # cancels the last term
        {(1, 1): 1, (1, 1, 1): 1},  # no new key, nothing cancels
        {(): 7, (1, 2): 1},  # a new key at the front
        {(2,): 7, (3,): -1},  # new keys in the middle
        {(4,): 7, (1, 1): -3},  # a new key at the end, one term cancelled
        {},
    ],
)
def test_sums_match_the_dict_path(other):
    assert_sums_match_the_dict_path(element("M", _BASE), element("M", other))


def test_hopf_and_symmetric_sums_match_the_dict_path():
    one_, two, p3 = _FACTORS
    words = [hopf_word([one_]), hopf_word([two]), hopf_word([one_, two]), hopf_word([p3])]
    a = HopfElement.of({words[0]: 1, words[2]: -2, words[3]: 4})
    assert_sums_match_the_dict_path(a, HopfElement.of({words[2]: 2, words[3]: 1}))
    assert_sums_match_the_dict_path(a, HopfElement.of({words[1]: 5, words[0]: -1}))
    X = chromatic_symmetric(family("path", 4))
    assert_sums_match_the_dict_path(X, chromatic_symmetric(family("star", 4)))
    assert_sums_match_the_dict_path(X, X.scale(-1) + chromatic_symmetric(family("path", 2)))


def _nonzero(d: dict) -> dict:
    return {k: c for k, c in d.items() if c}


def _holds(x, d: dict) -> bool:
    """x is d's nonzero terms as parallel tuples, keys strictly increasing."""
    order = [type(x).sort_key(k) for k in x.keys]
    return (
        all(a < b for a, b in zip(order, order[1:]))
        and len(x.keys) == len(x.coeffs)
        and all(x.coeffs)
        and x.terms == tuple(sorted(_nonzero(d).items(), key=lambda kc: type(x).sort_key(kc[0])))
    )


@pytest.mark.parametrize("cls", [qsym.QSymElement, qsym.QSymTensor, HopfElement])
@given(data=st.data())
def test_values_hold_parallel_key_and_coefficient_tuples(cls, data):
    d = data.draw(st.dictionaries(_KEYS[cls], st.integers(-3, 3), max_size=6))
    e = data.draw(st.dictionaries(_KEYS[cls], st.integers(-3, 3), max_size=6))
    s = data.draw(st.integers(-3, 3))
    a, b = _of(cls, d), _of(cls, e)
    assert _holds(a, d)
    assert _holds(a + b, {k: d.get(k, 0) + e.get(k, 0) for k in d.keys() | e.keys()})
    assert _holds(a + a.scale(-1), {})
    assert _holds(a.scale(s), {k: s * c for k, c in d.items()})
    if cls is qsym.QSymElement:
        assert _holds(-a, {k: -c for k, c in d.items()})


def test_tensor_products_share_the_coproduct_keys():
    F = element("M", {(1, 2, 1): 3, (2, 2): -1, (4,): 2})
    keys = {k: k for k, _ in coproduct(F).terms}
    for (a, b), _ in coproduct(F).terms:
        (k, _), = tensor_product(monomial(a), monomial(b)).terms
        assert k is keys[a, b]


def double_coproduct(F, left_first):
    out = {}
    for (a, b), c in coproduct(F).terms:
        inner = coproduct(monomial(a) if left_first else monomial(b))
        for (x, y), d in inner.terms:
            key = (x, y, b) if left_first else (a, x, y)
            out[key] = out.get(key, 0) + c * d
    return {k: v for k, v in out.items() if v}


@given(small_qsym_elements)
def test_coassociativity(F):
    assert double_coproduct(F, True) == double_coproduct(F, False)


# ---------------------------------------------------------------------------
# basis change

def test_fundamental_examples():
    assert from_fundamental(L((2,))) == element("M", {(2,): 1, (1, 1): 1})
    assert to_fundamental(M((1, 1))) == L((1, 1))
    assert to_fundamental(EX54) == EX62


@given(qsym_elements)
def test_basis_round_trip(F):
    assert from_fundamental(to_fundamental(F)) == F


# ---------------------------------------------------------------------------
# descents and the antipode

def test_descent_composition_examples():
    assert descent_composition((2, 4, 1, 5, 3)) == (2, 2, 1)
    assert descent_composition(tuple(range(1, 8))) == (7,)
    assert descent_composition(tuple(range(7, 0, -1))) == (1,) * 7
    with pytest.raises(InputError):
        descent_composition((1, 1, 2))


def descent_word(alpha):
    """A permutation with descent composition alpha: runs of consecutive
    ascending values with descending run starts, so run j takes the largest
    values not yet used."""
    word, hi = [], sum(alpha)
    for a in alpha:
        word.extend(range(hi - a + 1, hi + 1))
        hi -= a
    return tuple(word)


def test_antipode_matches_word_reversal():
    # oracle: S(L_des(pi)) = (-1)^n L_des(pi read right to left); the code
    # complements and reflects the descent set instead of writing a word
    count = 0
    for n in range(0, 11):
        for alpha in compositions_of(n):
            word = descent_word(alpha)
            assert descent_composition(word) == alpha
            beta = descent_composition(word[::-1])
            assert antipode(L(alpha, 3)) == L(beta, 3 * (-1) ** n)
            count += 1
    assert count == 1024


def test_antipode_examples():
    assert antipode(L((1, 1, 1, 1))) == L((4,))
    assert antipode(L(())) == L(())
    # the antipode image of the associahedron enumerator (criterion 2); the
    # descent-complement map would put the 6 on L[1,3] instead
    assert antipode(EX62) == element("L", {(4,): 14, (3, 1): 6, (2, 2): 4})


def test_antipode_round_trips_basis():
    F = EX54
    assert antipode(F).basis == "M"
    assert antipode(to_fundamental(F)).basis == "L"
    assert from_fundamental(antipode(to_fundamental(F))) == antipode(F)


def test_antipode_independent_of_permutation_choice():
    from itertools import permutations

    for n in range(1, 6):
        buckets = {}
        for pi in permutations(range(1, n + 1)):
            buckets.setdefault(
                descent_composition(pi), set()
            ).add(descent_composition(tuple(reversed(pi))))
        assert all(len(images) == 1 for images in buckets.values())


def convolve_antipode(F, S=antipode):
    acc = zero("M")
    for (a, b), c in coproduct(F).terms:
        acc = acc + mul(S(monomial(a)), monomial(b)).scale(c)
    return acc


def test_antipode_axiom_through_degree_six():
    for n in range(0, 7):
        for alpha in compositions_of(n):
            expect = one() if alpha == () else zero("M")
            assert convolve_antipode(monomial(alpha)) == expect


@given(small_qsym_elements, small_qsym_elements)
def test_antipode_multiplicative(F, G):
    assert antipode(mul(F, G)) == mul(antipode(F), antipode(G))


def test_antipode_matches_monomial_formula():
    # Malvenuto-Reutenauer (1995), Ehrenborg (1996): S(M_alpha) is
    # (-1)^len(alpha) times the sum of M_beta over the coarsenings beta of
    # alpha reversed
    def S(alpha):
        sign = -1 if len(alpha) % 2 else 1
        return element("M", {beta: sign for beta in coarsenings(alpha[::-1])})

    for n in range(0, 7):
        for alpha in compositions_of(n):
            assert antipode(monomial(alpha)) == S(alpha)
    image = zero("M")
    for alpha, c in from_fundamental(EX62).terms:
        image = image + S(alpha).scale(c)
    assert to_fundamental(image) == element("L", {(4,): 14, (3, 1): 6, (2, 2): 4})


def test_antipodes_share_their_keys():
    F = element("M", {(1, 2, 1): 3, (2, 2): -1, (4,): 2, (1, 1, 1, 1): 5})
    first, second = antipode(F), antipode(element("M", dict(F.terms)))
    assert first == second
    assert all(k is j for (k, _), (j, _) in zip(first.terms, second.terms))


def test_antipode_runs_past_the_code_table():
    # weight 31 is past the refinements row that code_table(31) checks, but
    # the term has only 128 coarsenings: the value is the coarsening formula
    alpha = (1, 2, 1, 3, 1, 1, 2, 20)
    with pytest.raises(CapacityError):
        code_table(sum(alpha))
    got = antipode(monomial(alpha))
    assert got == element("M", {beta: 1 for beta in coarsenings(alpha[::-1])})
    assert len(got.terms) == 128
    assert hashlib.sha256(repr(got).encode()).hexdigest() == (
        "ae2ecdd35d479d24fadcb607c4488b5479cbea739479eb2cc2836e309ea1f89c"
    )


def test_antipode_is_refused_by_the_coarsenings_row():
    with pytest.raises(CapacityError) as exc:
        antipode(monomial((1,) * 18))
    assert str(exc.value) == (
        "coarsenings of a term capped at l - 1 <= 16, got 17 (2^(l - 1) per term)"
    )


def test_antipode_matches_fundamental_round_trip():
    # the code's M-basis antipode is the coarsening formula above; the
    # L-basis round trip is the independent oracle for it
    count = 0
    for n in range(0, 10):
        for alpha in compositions_of(n):
            F = monomial(alpha, 3)
            assert antipode(F) == from_fundamental(antipode(to_fundamental(F)))
            count += 1
    assert count == 512
    assert antipode(EX54) == from_fundamental(antipode(to_fundamental(EX54)))


def descent_complement(F):
    """psi(L_des(pi)) = (-1)^n L_des(n+1-pi) on an L-basis element: the
    descent set is complemented but not reversed."""
    acc = zero("L")
    for alpha, c in F.terms:
        n = sum(alpha)
        pi = descent_word(alpha)
        beta = descent_composition(tuple(n + 1 - v for v in pi))
        acc = acc + L(beta, c * (-1) ** n)
    return acc


def test_descent_complement_is_not_an_antipode():
    # psi gives the former criterion-2 reference value ...
    assert descent_complement(EX62) == element("L", {(4,): 14, (1, 3): 6, (2, 2): 4})
    # ... but fails the antipode axiom already on L[2,1]
    def psi(F):
        return from_fundamental(descent_complement(to_fundamental(F)))

    residue = convolve_antipode(from_fundamental(L((2, 1))), psi)
    assert residue == M((2, 1)) - M((1, 2))


def test_antipode_involution():
    for n in range(0, 7):
        for alpha in compositions_of(n):
            assert antipode(antipode(monomial(alpha))) == monomial(alpha)


# ---------------------------------------------------------------------------
# specialization

def test_binomial_negative_arguments():
    assert [binomial(-1, k) for k in range(5)] == [1, -1, 1, -1, 1]
    assert binomial(-2, 3) == -4
    assert binomial(3, 5) == 0


def test_principal_specialization_examples():
    assert principal_specialization(element("M", {(1, 1): 2}), 2) == 2
    assert principal_specialization(EX54, -1) == 14
    for n in range(1, 6):
        assert principal_specialization(M((n,)), 1) == 1
    with pytest.raises(InputError):
        principal_specialization(L((1,)), 1)


@given(small_qsym_elements, small_qsym_elements, st.sampled_from([-2, -1, 0, 1, 2, 3]))
def test_principal_specialization_multiplicative(F, G, m):
    lhs = principal_specialization(mul(F, G), m)
    rhs = principal_specialization(F, m) * principal_specialization(G, m)
    assert lhs == rhs


def test_vertex_count_examples():
    assert vertex_count(EX54, 4) == 14
    assert vertex_count(M((1,)), 1) == 1
    assert vertex_count(element("M", {(1, 1, 1): 6}), 3) == 6
    with pytest.raises(InputError):
        vertex_count(element("M", {(1,): 1, (2,): 1}), 2)
    with pytest.raises(InputError):
        vertex_count(element("M", {(2,): 1}), 2)  # chi(-1) = -1 < 0


# ---------------------------------------------------------------------------
# text and JSON round trips

def test_render_canonical_order():
    assert render(EX54) == "4*M[1,2,1] + 6*M[2,1,1] + 24*M[1,1,1,1]"
    assert render(zero()) == "0"
    assert render(element("M", {(): 1})) == "M[]"
    assert render(element("M", {(2,): -1, (1, 1): 3})) == "-M[2] + 3*M[1,1]"


def oracle_render(F):
    """The text form with each term's body formatted in place."""
    if not F.terms:
        return "0"
    chunks = []
    for alpha, c in F.terms:
        body = f"{F.basis}[{','.join(map(str, alpha))}]"
        mag = body if abs(c) == 1 else f"{abs(c)}*{body}"
        if not chunks:
            chunks.append(mag if c > 0 else "-" + mag)
        else:
            chunks.append(("+ " if c > 0 else "- ") + mag)
    return " ".join(chunks)


@given(qsym_elements)
def test_render_matches_the_formatted_form(F):
    assert render(F) == str(F) == oracle_render(F)
    L = element("L", F.terms)
    assert render(L) == oracle_render(L)


def test_render_body_cache_is_bounded():
    assert qsym._body.cache_info().maxsize is not None


def test_per_term_memos_keep_small_terms_only():
    memos = (qsym._refinements, qsym._coarsenings)
    assert [memo.cache_info().maxsize for memo in memos] == [256, 256]
    before = [memo.cache_info().currsize for memo in memos]
    # 2^16 refinements and 2^16 coarsenings: built afresh, never kept
    assert len(to_fundamental(monomial((17,))).terms) == 1 << 16
    assert len(antipode(monomial((1,) * 17)).terms) == 1 << 16
    assert [memo.cache_info().currsize for memo in memos] == before
    # every term of weight <= 8 is kept: a second pass only hits
    small = [alpha for w in range(9) for alpha in compositions_of(w)]
    for memo in memos:
        memo.cache_clear()
        for alpha in small * 2:
            memo(alpha)
        info = memo.cache_info()
        assert (info.misses, info.hits) == (len(small), len(small))


def test_parse_accepts_text_and_json():
    s = "24*M[1,1,1,1] + 6*M[2,1,1] + 4*M[1,2,1]"
    assert parse(s) == EX54
    assert parse(to_json(EX54)) == EX54
    assert parse("M[]") == one()
    assert parse("-L[2] + 3*L[1,1]") == element("L", {(2,): -1, (1, 1): 3})
    assert parse("0") == zero()


@given(qsym_elements)
def test_parse_render_round_trip(F):
    assert parse(render(F)) == F
    assert parse(to_json(F)) == F
    assert render(parse(render(F))) == render(F)


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as err:
        parse("3*M[1,2] & M[1]")
    assert err.value.position == 9  # the offending '&'
    with pytest.raises(ParseError):
        parse("3*M[1] + 2*L[1]")  # mixed bases
    with pytest.raises(ParseError):
        parse("not an element")
    with pytest.raises(InputError):
        parse('{"basis":"M","terms":[{"comp":[0],"coeff":1}]}')
