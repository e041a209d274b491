"""Exact quasisymmetric-function arithmetic with integer coefficients.

Elements are finite Z-linear combinations of basis functions indexed by
compositions, in either the monomial (M) or fundamental (L) basis.
Compositions are plain tuples of positive ints; the empty tuple indexes the
unit.  Coefficients are Python ints, so arithmetic is exact at every size
(an arithmetic-overflow failure mode cannot occur); the practical limit is
the enumeration cost of the callers, not the coefficient width.

Compositions are enumerated and compared through one code, the set of
partial sums below the weight as a bit mask (Gessel): refinement is
containment of codes, and the L-basis antipode complements and reverses.

Values are immutable after construction and every operation is a pure
function, so elements can be shared freely across threads.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, fields
from functools import lru_cache, wraps
from itertools import accumulate, combinations
from math import factorial

from .bitsets import bits, submasks
from .errors import InputError, ParseError, check_int, check_limit, json_int, load_json

# A composition is a tuple of ints >= 1; () is the unique composition of 0.
Composition = tuple


def composition(parts) -> Composition:
    """Validate an iterable of parts as a composition."""
    alpha = tuple(check_int(a, "composition part") for a in parts)
    if any(a < 1 for a in alpha):
        raise InputError(f"composition parts must be positive, got {alpha}")
    return alpha


def term_key(alpha):
    """Canonical total order on compositions: weight, length, lexicographic."""
    return (sum(alpha), len(alpha), alpha)


def _code(alpha) -> int:
    """The partial sums of alpha below its weight, as a mask: bit s - 1 for s.
    The mask has w - 1 bits, so the weight is checked first."""
    check_limit("weight", sum(alpha))
    return sum(1 << (s - 1) for s in accumulate(alpha[:-1]))


def _composition(code: int, w: int) -> Composition:
    """The composition of w whose partial sums below w are the bits of code."""
    if w == 0:
        return ()
    parts, last = [], 0
    for s in bits(code):
        parts.append(s + 1 - last)
        last = s + 1
    parts.append(w - last)
    return tuple(parts)


def _free(code: int, w: int) -> int:
    """The cut positions in [w - 1] that code leaves unset, as a mask."""
    return ((1 << max(w - 1, 0)) - 1) & ~code


def refines(beta, alpha) -> bool:
    """True iff beta cuts into consecutive blocks summing to alpha's parts:
    both weigh the same and every partial sum of alpha is one of beta's."""
    beta, alpha = composition(beta), composition(alpha)
    return sum(beta) == sum(alpha) and _code(alpha) & ~_code(beta) == 0


def coarsenings(alpha) -> set:
    """All beta obtained by merging adjacent parts of alpha (2^(l-1) of length l):
    the compositions whose codes are submasks of alpha's."""
    alpha = composition(alpha)
    check_limit("coarsenings", len(alpha) - 1)
    return {_composition(sub, sum(alpha)) for sub in submasks(_code(alpha))}


def _gated_memo(keep, maxsize: int):
    """Memoize a one-argument function in an lru_cache of maxsize entries,
    but only the calls on x with keep(x); any other x is computed afresh.
    The wrapper carries the cache's cache_info and cache_clear."""

    def wrap(build):
        memo = lru_cache(maxsize=maxsize)(build)

        def table(x):
            return memo(x) if keep(x) else build(x)

        table.cache_info, table.cache_clear = memo.cache_info, memo.cache_clear
        return wraps(build)(table)

    return wrap


# The per-term tables keep the terms alpha whose table holds at most 2^12
# parts (2^(l - 1) coarsenings or 2^(w - l) refinements, each of at most l
# or w parts), in 256 entries: a table of 2^16 compositions holds 7.5 MiB,
# while a kept one holds at most about 37 KB (sys.getsizeof), so a full memo
# stays under 10 MiB.  Every term of weight <= 8 is kept.
@_gated_memo(lambda alpha: len(alpha) << len(alpha) >> 1 <= 1 << 12, 256)
def _coarsenings(alpha) -> tuple:
    """coarsenings(alpha) as a tuple.  One bounded memo serves every
    M-basis antipode, so equal terms share their keys."""
    return tuple(coarsenings(alpha))


def compositions_of(n: int) -> tuple:
    """All compositions of n in canonical term order."""
    return tuple([alpha for _, alpha in code_table(n)[2]])


@lru_cache(maxsize=None)
def code_table(w: int) -> tuple:
    """(compositions of w indexed by code, {composition: code}, the
    (code, composition) pairs in canonical term order).

    The code of a composition of w is its set of partial sums below w, as a
    bit mask over [w - 1]: bit s - 1 is set iff the first parts sum to s.
    It is one-to-one, refinement is containment of codes, and appending a
    part 1 to a composition of w sets bit w - 1, so the codes of (alpha, 1)
    fill the top half of the table at weight w + 1.
    """
    if check_int(w, "weight") < 0:
        raise InputError(f"negative weight {w}")
    check_limit("weight", w)
    check_limit("refinements", w - 1)
    by_code = tuple(_composition(code, w) for code in range(1 << max(w - 1, 0)))
    in_order = sorted(enumerate(by_code), key=lambda pair: term_key(pair[1]))
    return by_code, {alpha: code for code, alpha in enumerate(by_code)}, tuple(in_order)


def refinements(alpha) -> tuple:
    """All beta with refines(beta, alpha)."""
    return _refinements(composition(alpha))


@_gated_memo(lambda alpha: sum(alpha) << sum(alpha) - len(alpha) <= 1 << 12, 256)
def _refinements(alpha) -> tuple:
    """alpha's code joined with each set of the cut positions it leaves free,
    in term order, so the basis changes hand their sort near-sorted sums:
    fewer cuts first, and among as many cuts, the sets of cuts in the
    lexicographic order of their sorted positions, which is the
    lexicographic order of the parts."""
    w, code = sum(alpha), _code(alpha)
    check_limit("refinements", w - len(alpha))
    free = [1 << s for s in bits(_free(code, w))]
    return tuple(
        _composition(code | sum(cuts), w)
        for k in range(len(free) + 1)
        for cuts in combinations(free, k)
    )


class Combination:
    """A finite integer combination of keys, in one canonical form.

    QSym elements, coproduct tensors, symmetric functions and words of
    building sets are all frozen dataclasses on this base.  Their last two
    fields are parallel tuples: ``keys``, ordered by the subclass's
    ``sort_key`` with no repeat, and ``coeffs``, the nonzero coefficient of
    each key.  So equality, hashing and rendering are byte-stable, and a
    term costs two tuple slots (16 bytes) beside its key and coefficient,
    not a (key, coeff) pair object.  Any other field (a QSymElement's basis)
    passes through every operation unchanged.
    """

    __slots__ = ()

    @classmethod
    def of(cls, d: dict, **extra):
        """The combination of a {key: coeff} dict, in canonical form."""
        keys, coeffs = cls._canonical(d)
        return cls(keys=keys, coeffs=coeffs, **extra)

    @classmethod
    def _canonical(cls, d: dict) -> tuple:
        """(keys, coeffs) of the nonzero terms of d, the keys sorted by one
        sort_key call each."""
        keys = sorted((k for k, c in d.items() if c), key=cls.sort_key)
        return tuple(keys), tuple([d[k] for k in keys])

    @property
    def terms(self) -> tuple:
        """The (key, coeff) pairs in canonical order: a view built per read."""
        return tuple(zip(self.keys, self.coeffs))

    def as_dict(self) -> dict:
        return dict(zip(self.keys, self.coeffs))

    def coeff(self, key) -> int:
        key = tuple(key)
        return next((c for k, c in zip(self.keys, self.coeffs) if k == key), 0)

    def is_zero(self) -> bool:
        return not self.keys

    def _with(self, keys: tuple, coeffs: tuple):
        """A combination like self on the given canonical tuples.  A subclass
        with fields of its own overrides it to pass them on."""
        return type(self)(keys, coeffs)

    def __add__(self, other):
        keys, coeffs, at = self.keys, list(self.coeffs), 0
        try:
            # Both sides are canonical, so other's keys, when all are in
            # self, come in self's order: one pass, no dict and no sort.
            # Most sums are of this kind (57,499 of the 72,640 that the
            # `hopf` benchmark's coproduct sides make on its seed-1 inputs).
            for k, c in zip(other.keys, other.coeffs):
                at = keys.index(k, at)
                coeffs[at] += c
        except ValueError:  # a new key: one merge and one sort
            acc = dict(zip(keys, self.coeffs))
            for k, c in zip(other.keys, other.coeffs):
                acc[k] = acc.get(k, 0) + c
            return self._with(*self._canonical(acc))
        if all(coeffs):
            return self._with(keys, tuple(coeffs))
        kept = [i for i, c in enumerate(coeffs) if c]
        return self._with(tuple([keys[i] for i in kept]), tuple([coeffs[i] for i in kept]))

    def scale(self, c: int):
        """c times the combination; the keys keep their order."""
        check_int(c, "scalar")
        if not c:
            return self._with((), ())
        return self._with(self.keys, tuple([c * v for v in self.coeffs]))

    def __repr__(self):
        """The dataclass form, with the pairs in one terms=(...) field."""
        shown = [f"{f.name}={getattr(self, f.name)!r}" for f in fields(self)[:-2]]
        shown.append(f"terms={tuple(zip(self.keys, self.coeffs))!r}")
        return f"{type(self).__qualname__}({', '.join(shown)})"


@dataclass(frozen=True, repr=False, slots=True)
class QSymElement(Combination):
    """Immutable linear combination of M_alpha or L_alpha basis functions.

    ``keys`` are compositions in canonical term order, ``coeffs`` their
    coefficients; inhomogeneous combinations are allowed.
    """

    basis: str
    keys: tuple
    coeffs: tuple

    sort_key = staticmethod(term_key)

    def _with(self, keys: tuple, coeffs: tuple):
        return QSymElement(self.basis, keys, coeffs)

    def __add__(self, other):
        if not isinstance(other, QSymElement):
            raise InputError(f"cannot add {other!r} to a quasisymmetric function")
        if self.basis != other.basis:
            raise InputError(
                f"basis mismatch: {self.basis} vs {other.basis}; convert first"
            )
        # slots=True makes a new class, so a zero-argument super() fails here on 3.10 and 3.11
        return Combination.__add__(self, other)

    def __neg__(self):
        return self.scale(-1)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, QSymElement):
            return mul(self, other)
        return self.scale(other)

    __rmul__ = __mul__

    def __str__(self):
        return render(self)


def _element(basis: str, d: dict) -> QSymElement:
    if basis not in ("M", "L"):
        raise InputError(f"unknown basis tag {basis!r}")
    return QSymElement.of(d, basis=basis)


def element(basis: str, terms) -> QSymElement:
    """Build an element from any mapping or pair iterable of (parts, coeff)."""
    items = terms.items() if hasattr(terms, "items") else terms
    acc = {}
    for parts, c in items:
        alpha = composition(parts)
        acc[alpha] = acc.get(alpha, 0) + check_int(c, "coefficient")
    return _element(basis, acc)


def zero(basis: str = "M") -> QSymElement:
    return QSymElement(basis, (), ())


def one(basis: str = "M") -> QSymElement:
    return QSymElement(basis, ((),), (1,))


def monomial(alpha, coeff: int = 1) -> QSymElement:
    return element("M", [(alpha, coeff)])


def fundamental(alpha, coeff: int = 1) -> QSymElement:
    return element("L", [(alpha, coeff)])


@lru_cache(maxsize=16384)
def _quasi_shuffle(a, b) -> tuple:
    """Quasi-shuffles of two compositions with multiplicity.

    Interleavings where at each step the head of a, the head of b, or their
    sum is emitted.  Returns ((composition, multiplicity), ...).
    """
    if not a:
        return ((b, 1),)
    if not b:
        return ((a, 1),)
    acc = {}
    for gamma, c in _quasi_shuffle(a[1:], b):
        g = (a[0],) + gamma
        acc[g] = acc.get(g, 0) + c
    for gamma, c in _quasi_shuffle(a, b[1:]):
        g = (b[0],) + gamma
        acc[g] = acc.get(g, 0) + c
    for gamma, c in _quasi_shuffle(a[1:], b[1:]):
        g = (a[0] + b[0],) + gamma
        acc[g] = acc.get(g, 0) + c
    return tuple(acc.items())


def _mul_d(F_terms, G_terms) -> dict:
    """Quasi-shuffle product of two (composition, coeff) pair iterables.

    Returns an unsorted dict, which may hold zero coefficients; callers that
    multiply repeatedly keep dicts and build one element at the end.
    """
    acc, G_terms = {}, tuple(G_terms)  # read once per term of F
    for a, ca in F_terms:
        for b, cb in G_terms:
            c = ca * cb
            for g, m in _quasi_shuffle(a, b):
                acc[g] = acc.get(g, 0) + c * m
    return acc


def mul(F: QSymElement, G: QSymElement) -> QSymElement:
    """Product in the M basis (quasi-shuffle on basis elements)."""
    if F.basis != "M" or G.basis != "M":
        raise InputError("mul requires both operands in the M basis")
    return _element("M", _mul_d(zip(F.keys, F.coeffs), zip(G.keys, G.coeffs)))


def shift1(F: QSymElement) -> QSymElement:
    """The shifting operator: M_alpha goes to M_(alpha,1), extended linearly."""
    if F.basis != "M":
        raise InputError("shift1 is defined on the M basis")
    return _element("M", {a + (1,): c for a, c in zip(F.keys, F.coeffs)})


@dataclass(frozen=True, repr=False, slots=True)
class QSymTensor(Combination):
    """Two-slot tensor of monomial quasisymmetric functions, exact coefficients."""

    keys: tuple  # ((alpha, beta), ...), left slot major
    coeffs: tuple

    # term_key of the left slot, then of the right, as one flat tuple
    sort_key = staticmethod(lambda k: (sum(a := k[0]), len(a), a, sum(b := k[1]), len(b), b))


@lru_cache(maxsize=1024)
def _deconcatenations(alpha) -> tuple:
    """The (prefix, suffix) pairs of alpha, shortest prefix first.  One
    bounded memo serves every coproduct and tensor product, so equal terms
    share their keys."""
    return tuple([(alpha[:i], alpha[i:]) for i in range(len(alpha) + 1)])


def coproduct(F: QSymElement) -> QSymTensor:
    """Deconcatenation coproduct on the M basis."""
    if F.basis != "M":
        raise InputError("coproduct is defined on the M basis")
    acc = {}
    for a, c in zip(F.keys, F.coeffs):
        for k in _deconcatenations(a):
            acc[k] = acc.get(k, 0) + c
    return QSymTensor.of(acc)


def tensor_product(F: QSymElement, G: QSymElement) -> QSymTensor:
    """Outer tensor F (x) G of two M-basis elements.  Both operands are
    canonical, so the left-major double loop yields distinct keys, nonzero
    coefficients and QSymTensor's term order: the terms need no sort."""
    if F.basis != "M" or G.basis != "M":
        raise InputError("tensor_product requires M-basis operands")
    keys = tuple([_deconcatenations(a + b)[len(a)] for a in F.keys for b in G.keys])
    return QSymTensor(keys, tuple([ca * cb for ca in F.coeffs for cb in G.coeffs]))


def to_fundamental(F: QSymElement) -> QSymElement:
    """Basis change M -> L via Moebius inversion over refinement."""
    if F.basis != "M":
        raise InputError("to_fundamental expects an M-basis element")
    acc = {}
    for alpha, c in zip(F.keys, F.coeffs):
        k = len(alpha)
        for beta in _refinements(alpha):
            s = -1 if (len(beta) - k) % 2 else 1
            acc[beta] = acc.get(beta, 0) + c * s
    return _element("L", acc)


def from_fundamental(F: QSymElement) -> QSymElement:
    """Basis change L -> M: L_alpha is the sum of M_beta over refinements."""
    if F.basis != "L":
        raise InputError("from_fundamental expects an L-basis element")
    acc = {}
    for alpha, c in zip(F.keys, F.coeffs):
        for beta in _refinements(alpha):
            acc[beta] = acc.get(beta, 0) + c
    return _element("M", acc)


def descent_composition(pi) -> Composition:
    """Lengths of the maximal increasing runs of a permutation word."""
    word = tuple(check_int(x, "permutation letter") for x in pi)
    if sorted(word) != list(range(1, len(word) + 1)):
        raise InputError(f"not a permutation of 1..{len(word)}: {word}")
    if not word:
        return ()
    parts, run = [], 1
    for prev, cur in zip(word, word[1:]):
        if cur > prev:
            run += 1
        else:
            parts.append(run)
            run = 1
    parts.append(run)
    return tuple(parts)


def antipode(F: QSymElement) -> QSymElement:
    """Hopf antipode, in the caller's basis.

    S(M_alpha) = (-1)^l(alpha) times the sum of M_beta over the coarsenings
    beta of alpha reversed (Malvenuto-Reutenauer, Ehrenborg), and
    S(L_alpha) = (-1)^n L_beta, where beta is the reverse of the composition
    whose code is the complement of alpha's in [n - 1]: the descent set of
    alpha complemented and reflected.  Equivalently, beta is the descent
    composition of any permutation with descent composition alpha, read
    right to left.  This is
    the unique map satisfying the antipode axiom for the deconcatenation
    coproduct; the value-complement variant pi(i) -> n+1-pi(i) only
    complements the descent set and is not a Hopf antipode.
    """
    acc = {}
    if F.basis == "M":
        for alpha, c in zip(F.keys, F.coeffs):
            s = -c if len(alpha) % 2 else c
            for beta in _coarsenings(alpha[::-1]):
                acc[beta] = acc.get(beta, 0) + s
        return _element("M", acc)
    for alpha, c in zip(F.keys, F.coeffs):
        n = sum(alpha)
        beta = _composition(_free(_code(alpha), n), n)[::-1]
        acc[beta] = acc.get(beta, 0) + (-c if n % 2 else c)
    return _element("L", acc)


def binomial(m: int, k: int) -> int:
    """Generalized binomial coefficient C(m, k) for any integer m, k >= 0."""
    if k < 0:
        return 0
    num = 1
    for i in range(k):
        num *= m - i
    return num // factorial(k)


def principal_specialization(F: QSymElement, m: int) -> int:
    """ps_m(F): substitute 1 for the first m variables, 0 for the rest."""
    if F.basis != "M":
        raise InputError("principal specialization expects the M basis")
    check_int(m, "number of variables")
    return sum(c * binomial(m, len(alpha)) for alpha, c in zip(F.keys, F.coeffs))


def vertex_count(F: QSymElement, n: int) -> int:
    """(-1)^n ps_{-1}(F) for F homogeneous of degree n; must be >= 0."""
    check_int(n, "degree")
    if any(sum(a) != n for a in F.keys):
        raise InputError(f"element is not homogeneous of degree {n}")
    v = (-1) ** n * principal_specialization(F, -1)
    if v < 0:
        raise InputError(f"negative count {v}: not a nestohedron enumerator")
    return v


# ---------------------------------------------------------------------------
# text and JSON forms


@lru_cache(maxsize=1024)
def _body(letter: str, parts: tuple) -> str:
    """The text of one basis function, e.g. M[2,1] or m[3,1]."""
    return f"{letter}[{','.join(map(str, parts))}]"


def render(F: QSymElement) -> str:
    """Deterministic text form, e.g. '24*M[1,1,1,1] + 6*M[2,1,1]'."""
    if not F.keys:
        return "0"
    chunks = []
    for alpha, c in zip(F.keys, F.coeffs):
        body = _body(F.basis, alpha)
        mag = body if abs(c) == 1 else f"{abs(c)}*{body}"
        if not chunks:
            chunks.append(mag if c > 0 else "-" + mag)
        else:
            chunks.append(("+ " if c > 0 else "- ") + mag)
    return " ".join(chunks)


def to_json(F: QSymElement) -> str:
    obj = {
        "basis": F.basis,
        "terms": [{"comp": list(a), "coeff": c} for a, c in zip(F.keys, F.coeffs)],
    }
    return json.dumps(obj)


_TERM_RE = re.compile(r"([+-])?\s*(?:(\d+)\s*\*\s*)?([ML])\[([0-9,\s]*)\]")


def parse(text: str) -> QSymElement:
    """Parse either the text rendering or the JSON form of an element."""
    s = text.strip()
    if s.startswith("{"):
        return _from_json(s)
    if s == "0":
        return zero()
    acc, basis = {}, None
    pos, first = 0, True
    while pos < len(s):
        while pos < len(s) and s[pos].isspace():
            pos += 1
        m = _TERM_RE.match(s, pos)
        if not m:
            raise ParseError(f"expected a term like 3*M[1,2] in {s!r}", pos)
        sign, coeff, letter, inner = m.groups()
        if not first and sign is None:
            raise ParseError("missing + or - between terms", pos)
        if basis is None:
            basis = letter
        elif letter != basis:
            raise ParseError(f"mixed bases {basis} and {letter}", pos)
        c = _int(coeff, m.start(2)) if coeff is not None else 1
        if sign == "-":
            c = -c
        parts = inner.split(",") if inner.strip() else ()
        alpha = composition(_int(p, m.start(4)) for p in parts)
        acc[alpha] = acc.get(alpha, 0) + c
        pos = m.end()
        first = False
    if basis is None:
        raise ParseError(f"no terms found in {s!r}", 0)
    return _element(basis, acc)


def _int(digits: str, pos: int) -> int:
    """A coefficient or part matched by _TERM_RE: digits and spaces."""
    try:
        return int(digits)
    except ValueError:  # no digits, inner spaces, or past the digit limit
        raise ParseError(f"expected a number, got {digits[:20]!r}", pos) from None


def _from_json(s: str) -> QSymElement:
    obj = load_json(s)
    if not (isinstance(obj, dict) and "basis" in obj and isinstance(obj.get("terms"), list)):
        raise ParseError("JSON element needs a 'basis' key and a 'terms' list", 0)
    acc = {}
    for i, t in enumerate(obj["terms"]):
        if not (isinstance(t, dict) and isinstance(t.get("comp"), list) and "coeff" in t):
            raise ParseError(f"term {i} needs a 'comp' list and a 'coeff'", i)
        alpha = composition(json_int(p, f"term {i}: part", i) for p in t["comp"])
        c = t["coeff"]
        if type(c) is not int:
            raise ParseError(f"term {i}: 'coeff' must be an integer, got {json.dumps(c)}", i)
        acc[alpha] = acc.get(alpha, 0) + c
    return _element(obj["basis"], acc)
