"""Building sets on [n] and their Hopf operations.

A building set is a family of nonempty subsets of [n], containing every
singleton and closed under union of intersecting members.  Members are bit
masks; the family is stored sorted and deduplicated, so equality and
serialization are canonical.

Restriction and contraction relabel the surviving vertices to an initial
segment with the order-preserving map (`bitsets.compress`); the coproduct
and the Takeuchi antipode read it from one table per vertex set
(`bitsets.compress_tables`).  Callers that need the original labels (the
CLI does) keep the vertex list on the side.  The components of B|U come
from one table per building set (`BuildingSet.lowest`, read by
`components_within`).
"""

from __future__ import annotations

import json
from bisect import bisect
from dataclasses import dataclass
from functools import cached_property

from .bitsets import bits, compress, compress_tables, mask_of, nonempty_submasks, singletons
from .errors import (
    InputError, NotABuildingSetError, ParseError, check_int, check_limit, json_int, load_json
)
from .graphs import Graph, _lowest_component
from .qsym import Combination


@dataclass(frozen=True)
class BuildingSet:
    """n plus the sorted tuple of member masks (equality, hashing and repr
    use these two fields alone; the cached properties derive from them)."""

    n: int
    sets: tuple

    @property
    def mu(self) -> int:
        """Number of members."""
        return len(self.sets)

    @cached_property
    def member_set(self) -> frozenset:
        return frozenset(self.sets)

    @cached_property
    def maxima(self) -> frozenset:
        """The maximal members (see maximal_members)."""
        return frozenset(maximal_members(self))

    @cached_property
    def mu_inside(self) -> dict:
        """I -> mu(B|I), the number of members inside I, counted on lookup."""
        return _CountsInside(self.sets)

    @cached_property
    def lowest(self) -> list:
        """lowest[U]: the component of B|U holding U's lowest vertex (0 at
        U = 0), 2^n entries, so only bounded rows read it.  The components
        are the members inside U and inside no other: disjoint (two that
        meet have their union in B) and covering U.  lowest[U] is U for a member, else
        the largest lowest[U - v] over U's other vertices v."""
        low = [0] * (1 << self.n)
        for s in self.sets:
            low[s] = s
        for U in range(1, 1 << self.n):
            low[U] = low[U] or max([low[U ^ v] for v in singletons(U & U - 1)])
        return low

    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def members(self) -> list:
        """Members as sorted 1-based vertex lists (I/O convention)."""
        return [[v + 1 for v in bits(m)] for m in self.sets]

    def __str__(self):
        return serialize_building_set(self)


class _CountsInside(dict):
    """mu(B|I) per mask I, counted on its first lookup by a scan of the
    members up to I (a member inside I is no larger) and kept."""

    def __init__(self, sets: tuple):
        super().__init__()
        self.sets = sets

    def __missing__(self, I: int) -> int:
        sets = self.sets
        count = self[I] = sum([not s & ~I for s in sets[: bisect(sets, I)]])
        return count


def _set_name(mask: int) -> str:
    return "{" + ",".join(str(v + 1) for v in bits(mask)) + "}"


def validate(sets, n: int, add_singletons: bool = True) -> BuildingSet:
    """Check the building-set axioms; singletons are inserted unless strict.

    Raises NotABuildingSetError naming the offending pair when union closure
    fails, or the missing singleton in strict mode.
    """
    if check_int(n, "ground set size") < 0:
        raise InputError(f"ground set size must be >= 0, got {n}")
    check_limit("ground", n)  # before any mask is built
    full = (1 << n) - 1
    masks = set()
    for s in sets:
        m = check_int(s, "building set member mask")
        if m == 0:
            raise InputError("building set members must be nonempty")
        if m & ~full:
            raise InputError(f"member {_set_name(m)} is not a subset of [1..{n}]")
        masks.add(m)
    for v in range(n):
        if not (1 << v) in masks:
            if add_singletons:
                masks.add(1 << v)
            else:
                raise NotABuildingSetError(f"missing singleton {{{v + 1}}}")
    ordered = sorted(masks)
    for i, a in enumerate(ordered):
        for b in ordered[i + 1 :]:
            if a & b and (a | b) not in masks:
                raise NotABuildingSetError(
                    f"{_set_name(a)} and {_set_name(b)} intersect but their "
                    f"union {_set_name(a | b)} is missing"
                )
    return BuildingSet(n, tuple(ordered))


def building_set(n: int, sets) -> BuildingSet:
    """validate() with singleton auto-insertion on (the standing convention)."""
    return validate(sets, n, add_singletons=True)


def discrete_building_set(n: int) -> BuildingSet:
    """The singletons of [n], on at most the ground row's vertices."""
    return validate((), n)


def is_discrete(b: BuildingSet) -> bool:
    return all(m.bit_count() == 1 for m in b.sets)


def from_graph(g: Graph) -> BuildingSet:
    """The graphical building set: supports of connected induced subgraphs."""
    check_limit("graphical", g.n)
    lowest = _lowest_component(g)
    return BuildingSet(g.n, tuple(m for m in range(1, 1 << g.n) if lowest(m) == m))


def _minor(b: BuildingSet, inside: int, contracted: int) -> BuildingSet:
    """(B restricted to inside) contracted by contracted, relabeled by one
    compress call per surviving member (coproduct reads compress_tables
    instead, and is tested against this)."""
    keep = inside & ~contracted
    out = {compress(s, keep) for s in b.sets if s & keep and not s & ~inside}
    return BuildingSet(keep.bit_count(), tuple(sorted(out)))


def _vertex_mask(b: BuildingSet, I) -> int:
    if not 0 <= check_int(I, "vertex mask") <= b.full_mask():
        raise InputError(f"vertex mask {I} is not a subset of [1..{b.n}]")
    return I


def restriction(b: BuildingSet, I: int) -> BuildingSet:
    """Members inside I, relabeled to an initial segment."""
    return _minor(b, _vertex_mask(b, I), 0)


def contraction(b: BuildingSet, I: int) -> BuildingSet:
    """B/I = {S \\ I : S in B, S not inside I}, relabeled."""
    return _minor(b, b.full_mask(), _vertex_mask(b, I))


def components_within(b: BuildingSet, mask: int):
    """Yield the components of b restricted to mask (see
    BuildingSet.lowest), by increasing lowest vertex."""
    low = b.lowest
    while mask:
        c = low[mask]
        yield c
        mask ^= c


def maximal_members(b: BuildingSet) -> list:
    """Members inside no other member, in mask order: the components of b.
    A member's proper supersets are larger masks, so the scan by decreasing
    mask meets each before anything inside it.  No 2^n table: this runs up
    to the ground row."""
    kept, covered, full = [], 0, b.full_mask()
    for s in reversed(b.sets):
        if covered == full:
            break
        if not s & covered:
            kept.append(s)
            covered |= s
    return kept[::-1]


def is_connected(b: BuildingSet) -> bool:
    if b.n == 0:
        return True
    return b.full_mask() in b.member_set


def components(b: BuildingSet) -> list:
    """(sorted 0-based vertex tuple, restricted building set) per maximal member."""
    return [(tuple(bits(m)), restriction(b, m)) for m in maximal_members(b)]


def product(b1: BuildingSet, b2: BuildingSet) -> BuildingSet:
    """Disjoint union on [n1 + n2], the second factor shifted by n1."""
    shifted = tuple(s << b1.n for s in b2.sets)
    return BuildingSet(b1.n + b2.n, tuple(sorted(b1.sets + shifted)))


def coproduct(b: BuildingSet) -> list:
    """All (I, B restricted to I, B/I) in increasing subset-mask order.

    Both minors relabel through one table per vertex set (compress_tables).
    compress keeps the order of the masks inside its set, so B|I comes out
    sorted; B/I maps the remainders s \\ I, which may coincide, and is sorted.
    """
    check_limit("coproduct", b.n)
    full = b.full_mask()
    tables = compress_tables(full)
    out = []
    for I in range(full + 1):
        inside, outside, k = tables[I], tables[full ^ I], I.bit_count()
        left = tuple([inside[s] for s in b.sets if not s & ~I])
        right = tuple(sorted({outside[s & ~I] for s in b.sets if s & ~I}))
        out.append((I, BuildingSet(k, left), BuildingSet(b.n - k, right)))
    return out


# ---------------------------------------------------------------------------
# the free commutative algebra on building sets, for the Takeuchi antipode

def _bs_key(b: BuildingSet):
    return (b.n, b.sets)


def hopf_word(factors) -> tuple:
    """Commutative product word: the factors sorted canonically."""
    return tuple(sorted(factors, key=_bs_key))


@dataclass(frozen=True, repr=False, slots=True)
class HopfElement(Combination):
    """Formal integer combination of product words of building sets."""

    keys: tuple  # words, sorted by their factors' keys
    coeffs: tuple

    sort_key = staticmethod(lambda word: tuple(map(_bs_key, word)))


def hopf_monomial(b: BuildingSet, coeff: int = 1) -> HopfElement:
    return HopfElement.of({hopf_word([b]): coeff})


def takeuchi_antipode(b: BuildingSet) -> HopfElement:
    """Alternating sum over strict flags of contracted restrictions.

    S(B) = sum over chains 0 = I_0 < I_1 < ... < I_k = [n] of (-1)^k times
    the product word of (B restricted to I_j) / I_{j-1}.

    The chains after I_{j-1} depend on B/I_{j-1} alone, so the sum is
    filled in on the covered set done, from [n] down to 0, once per
    distinct relabeled contraction B/done: rest[done] is minus the sum over
    nonempty steps of (B/done)|step times rest[done | step], one dict
    shared by the covered sets with equal contractions.  Factors are
    relabeled from the remainders s \\ done through one table per step, and
    equal ones share a per-call id, keyed on (n, sets).  Words are sorted
    id tuples, each id put in by bisect; ranking the ids by key at the end
    sorts the terms canonically.
    """
    check_limit("takeuchi", b.n)
    if b.n == 0:
        return hopf_monomial(BuildingSet(0, ()))
    full = b.full_mask()
    tables = compress_tables(full)
    ids, by_contraction, rest = {}, {}, [None] * full + [{(): 1}]
    for done in range(full - 1, -1, -1):  # done | step > done is filled first
        left = sorted({s & ~done for s in b.sets} - {0})  # so relabeled sets are sorted
        todo = full ^ done
        tab = tables[todo]
        key = (todo.bit_count(), tuple([tab[t] for t in left]))
        acc = by_contraction.get(key)
        if acc is None:
            acc = {}
            for step in nonempty_submasks(todo):
                tab = tables[step]
                factor = (step.bit_count(), tuple([tab[t] for t in left if not t & ~step]))
                i = ids.setdefault(factor, len(ids))
                for w, c in rest[done | step].items():
                    k = bisect(w, i)
                    w = w[:k] + (i,) + w[k:]
                    acc[w] = acc.get(w, 0) - c
            acc = by_contraction[key] = {w: c for w, c in acc.items() if c}
        rest[done] = acc
    keys = sorted(ids)
    rank = {ids[key]: r for r, key in enumerate(keys)}
    words = {tuple(sorted([rank[i] for i in w])): c for w, c in rest[0].items()}
    factors = [BuildingSet(*key) for key in keys]
    order = sorted(words)
    return HopfElement(
        tuple([tuple([factors[r] for r in w]) for w in order]), tuple([words[w] for w in order])
    )


# ---------------------------------------------------------------------------
# serialization

def parse_building_set(text: str, add_singletons: bool = True) -> BuildingSet:
    """JSON form {"n":4,"sets":[[1],[2],[1,2]]} with 1-based members."""
    s = text.strip()
    obj = load_json(s)
    if not (isinstance(obj, dict) and "n" in obj and isinstance(obj.get("sets"), list)):
        raise ParseError("building-set JSON needs an 'n' key and a 'sets' list", 0)
    n = json_int(obj["n"], "'n'", 0)
    check_limit("ground", n)  # before any member mask is built
    masks = []
    for i, member in enumerate(obj["sets"]):
        if not isinstance(member, (list, tuple)) or not member:
            raise ParseError(f"set {i} must be a nonempty vertex list", i)
        vs = [json_int(v, f"set {i}: vertex", i) for v in member]
        if any(not 1 <= v <= n for v in vs):
            raise ParseError(f"set {i}: vertex out of range 1..{n}", i)
        masks.append(mask_of(v - 1 for v in vs))
    return validate(masks, n, add_singletons=add_singletons)


def serialize_building_set(b: BuildingSet) -> str:
    return json.dumps({"n": b.n, "sets": b.members()})
