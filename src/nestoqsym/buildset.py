"""Building sets on [n] and their Hopf operations.

A building set is a family of nonempty subsets of [n], containing every
singleton and closed under union of intersecting members.  Members are bit
masks; the family is stored sorted and deduplicated, so equality and
serialization are canonical.

Restriction and contraction relabel the surviving vertices to an initial
segment with the order-preserving map; callers that need the original
labels (the CLI does) keep the sorted vertex list on the side.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .bitsets import bits, mask_of, nonempty_submasks
from .errors import CapacityError, InputError, NotABuildingSetError, ParseError
from .graphs import Graph, _components_within, json_int

COPRODUCT_CAP = 12  # 2^n coproduct terms
TAKEUCHI_CAP = 6  # chains grow like ordered set partitions


@dataclass(frozen=True)
class BuildingSet:
    """n plus the sorted tuple of member masks."""

    n: int
    sets: tuple

    @property
    def mu(self) -> int:
        """Number of members."""
        return len(self.sets)

    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def members(self) -> list:
        """Members as sorted 1-based vertex lists (I/O convention)."""
        return [[v + 1 for v in bits(m)] for m in self.sets]

    def __str__(self):
        return serialize_building_set(self)


def _set_name(mask: int) -> str:
    return "{" + ",".join(str(v + 1) for v in bits(mask)) + "}"


def validate(sets, n: int, add_singletons: bool = True) -> BuildingSet:
    """Check the building-set axioms; singletons are inserted unless strict.

    Raises NotABuildingSetError naming the offending pair when union closure
    fails, or the missing singleton in strict mode.
    """
    if n < 0:
        raise InputError(f"ground set size must be >= 0, got {n}")
    full = (1 << n) - 1
    masks = set()
    for s in sets:
        m = int(s)
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
    return BuildingSet(n, tuple(1 << v for v in range(n)))


def is_discrete(b: BuildingSet) -> bool:
    return all(m.bit_count() == 1 for m in b.sets)


def from_graph(g: Graph) -> BuildingSet:
    """The graphical building set: supports of connected induced subgraphs."""
    if g.n > 16:
        raise CapacityError(f"graphical building set capped at n <= 16, got {g.n}")
    out = []
    for mask in range(1, 1 << g.n):
        if len(_components_within(g, mask)) == 1:
            out.append(mask)
    return BuildingSet(g.n, tuple(sorted(out)))


def _minor(b: BuildingSet, inside: int, contracted: int) -> BuildingSet:
    """(B restricted to inside) contracted by contracted, relabeled."""
    keep = inside & ~contracted
    verts = list(bits(keep))
    pos = {v: i for i, v in enumerate(verts)}
    out = set()
    for s in b.sets:
        if s & ~inside:
            continue
        t = s & ~contracted
        if t:
            out.add(mask_of(pos[v] for v in bits(t)))
    return BuildingSet(len(verts), tuple(sorted(out)))


def restriction(b: BuildingSet, I: int) -> BuildingSet:
    """Members inside I, relabeled to an initial segment."""
    return _minor(b, I, 0)


def contraction(b: BuildingSet, I: int) -> BuildingSet:
    """B/I = {S \\ I : S in B, S not inside I}, relabeled."""
    return _minor(b, b.full_mask(), I)


def maximal_members(b: BuildingSet) -> list:
    return [s for s in b.sets if not any(t != s and t & s == s for t in b.sets)]


def is_connected(b: BuildingSet) -> bool:
    if b.n == 0:
        return True
    return b.full_mask() in b.sets


def components(b: BuildingSet) -> list:
    """(sorted 0-based vertex tuple, restricted building set) per maximal member."""
    return [(tuple(bits(m)), restriction(b, m)) for m in maximal_members(b)]


def product(b1: BuildingSet, b2: BuildingSet) -> BuildingSet:
    """Disjoint union on [n1 + n2], the second factor shifted by n1."""
    shifted = tuple(s << b1.n for s in b2.sets)
    return BuildingSet(b1.n + b2.n, tuple(sorted(b1.sets + shifted)))


def coproduct(b: BuildingSet) -> list:
    """All (I, B restricted to I, B/I) in increasing subset-mask order."""
    if b.n > COPRODUCT_CAP:
        raise CapacityError(
            f"coproduct has 2^n terms, capped at n <= {COPRODUCT_CAP}, got {b.n}"
        )
    return [
        (I, restriction(b, I), contraction(b, I)) for I in range(1 << b.n)
    ]


# ---------------------------------------------------------------------------
# the free commutative algebra on building sets, for the Takeuchi antipode

def _bs_key(b: BuildingSet):
    return (b.n, b.sets)


def hopf_word(factors) -> tuple:
    """Commutative product word: the factors sorted canonically."""
    return tuple(sorted(factors, key=_bs_key))


@dataclass(frozen=True)
class HopfElement:
    """Formal integer combination of product words of building sets."""

    terms: tuple  # ((word, coeff), ...) sorted by word keys

    def as_dict(self):
        return dict(self.terms)

    def __add__(self, other):
        acc = self.as_dict()
        for w, c in other.terms:
            acc[w] = acc.get(w, 0) + c
        return _hopf_element(acc)

    def scale(self, c: int):
        return _hopf_element({w: c * v for w, v in self.terms})


def _hopf_element(d: dict) -> HopfElement:
    items = tuple(
        sorted(
            ((w, c) for w, c in d.items() if c),
            key=lambda t: tuple(_bs_key(f) for f in t[0]),
        )
    )
    return HopfElement(items)


def hopf_monomial(b: BuildingSet, coeff: int = 1) -> HopfElement:
    return _hopf_element({hopf_word([b]): coeff})


def takeuchi_antipode(b: BuildingSet) -> HopfElement:
    """Alternating sum over strict flags of contracted restrictions.

    S(B) = sum over chains 0 = I_0 < I_1 < ... < I_k = [n] of (-1)^k times
    the product word of (B restricted to I_j) / I_{j-1}.
    """
    if b.n > TAKEUCHI_CAP:
        raise CapacityError(
            f"antipode chain count grows like ordered set partitions; "
            f"capped at n <= {TAKEUCHI_CAP}, got {b.n}"
        )
    if b.n == 0:
        return hopf_monomial(BuildingSet(0, ()))
    full = b.full_mask()
    acc = {}

    def walk(done: int, factors: tuple, k: int):
        if done == full:
            w = hopf_word(factors)
            acc[w] = acc.get(w, 0) + (-1 if k % 2 else 1)
            return
        rem = full & ~done
        for step in nonempty_submasks(rem):
            walk(done | step, factors + (_minor(b, done | step, done),), k + 1)

    walk(0, (), 0)
    return _hopf_element(acc)


# ---------------------------------------------------------------------------
# ordered set partitions (weak orders) of a ground set

@dataclass(frozen=True)
class OrderedSetPartition:
    """Ordered disjoint nonempty blocks covering a ground mask."""

    n: int
    blocks: tuple  # masks, in order

    def __post_init__(self):
        seen = 0
        for blk in self.blocks:
            if blk == 0:
                raise InputError("ordered set partition blocks must be nonempty")
            if blk & seen:
                raise InputError("ordered set partition blocks must be disjoint")
            seen |= blk
        if seen != (1 << self.n) - 1:
            raise InputError("ordered set partition must cover the ground set")

    def type(self) -> tuple:
        return tuple(blk.bit_count() for blk in self.blocks)


# ---------------------------------------------------------------------------
# serialization

def parse_building_set(text: str, add_singletons: bool = True) -> BuildingSet:
    """JSON form {"n":4,"sets":[[1],[2],[1,2]]} with 1-based members."""
    s = text.strip()
    try:
        obj = json.loads(s)
    except json.JSONDecodeError as e:
        raise ParseError(f"invalid JSON: {e.msg}", e.pos) from e
    if not (isinstance(obj, dict) and "n" in obj and isinstance(obj.get("sets"), list)):
        raise ParseError("building-set JSON needs an 'n' key and a 'sets' list", 0)
    n = json_int(obj["n"], "'n'", 0)
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
