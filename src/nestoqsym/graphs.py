"""Simple graphs on small vertex sets with bit-set adjacency.

Vertices are 0-based internally; all I/O (JSON edge lists, error messages,
CLI) is 1-based.  Isomorphism plumbing is exhaustive over relabelings, which
keeps it trivially auditable; the documented cost is n! * n^2, so canonical
forms are capped at n <= 10 and whole-class enumeration at n <= 7.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import combinations, permutations

from .bitsets import bits, mask_of
from .errors import CapacityError, InputError, ParseError

GRAPH_CAP = 32  # single computations
ENUMERATION_CAP = 7  # one representative per isomorphism class
CANONICAL_CAP = 10  # n! relabelings; n = 10 already takes minutes


@dataclass(frozen=True)
class Graph:
    """Loop-free undirected graph; adj[v] is the neighbor bit mask of v."""

    n: int
    adj: tuple

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)

    def edges(self) -> list:
        return [(u, v) for u in range(self.n) for v in bits(self.adj[u]) if u < v]

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def __str__(self):
        return serialize_graph(self)


def graph_from_edges(n: int, edges) -> Graph:
    """Build a graph from 0-based edge pairs, rejecting loops and bad ranges."""
    if n < 0 or n > GRAPH_CAP:
        raise CapacityError(f"vertex count {n} exceeds the cap {GRAPH_CAP}")
    adj = [0] * n
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise InputError(f"edge ({u + 1},{v + 1}) out of range 1..{n}")
        if u == v:
            raise InputError(f"loop edge at vertex {u + 1}")
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return Graph(n, tuple(adj))


FAMILY_KINDS = ("complete", "path", "cycle", "star")


def family(kind: str, n: int) -> Graph:
    """K_n, L_n, C_n or K_{1,n-1} with fixed labeling (star center = vertex 1)."""
    if n < 1:
        raise InputError(f"family size must be >= 1, got {n}")
    if kind == "complete":
        edges = combinations(range(n), 2)
    elif kind == "path":
        edges = ((i, i + 1) for i in range(n - 1))
    elif kind == "cycle":
        if n < 3:
            raise InputError(f"cycle needs n >= 3, got {n}")
        edges = [(i, i + 1) for i in range(n - 1)] + [(n - 1, 0)]
    elif kind == "star":
        edges = ((0, i) for i in range(1, n))
    else:
        raise InputError(f"unknown family kind {kind!r}; pick from {FAMILY_KINDS}")
    return graph_from_edges(n, edges)


def _check_subset(g: Graph, I) -> list:
    verts = sorted(set(I))
    if verts and not (0 <= verts[0] and verts[-1] < g.n):
        bad = [v for v in verts if not 0 <= v < g.n]
        raise InputError(f"vertex {bad[0] + 1} out of range 1..{g.n}")
    return verts


def induced(g: Graph, I) -> Graph:
    """Subgraph on I, relabeled order-preservingly to 0..|I|-1."""
    verts = _check_subset(g, I)
    pos = {v: i for i, v in enumerate(verts)}
    adj = [0] * len(verts)
    for v in verts:
        for u in bits(g.adj[v]):
            if u in pos:
                adj[pos[v]] |= 1 << pos[u]
    return Graph(len(verts), tuple(adj))


def contract(g: Graph, I) -> Graph:
    """Contraction of I: survivors joined iff an edge or a path through I.

    Implemented by reachability through the components of g restricted to I,
    not by iterated single-vertex contraction.
    """
    verts = _check_subset(g, I)
    imask = mask_of(verts)
    comps = _components_within(g, imask)
    rest = [v for v in range(g.n) if not imask >> v & 1]
    pos = {v: i for i, v in enumerate(rest)}
    adj = [0] * len(rest)
    touch = [[c for c in comps if g.adj[v] & c] for v in rest]
    for i, v in enumerate(rest):
        for j in range(i + 1, len(rest)):
            u = rest[j]
            joined = g.has_edge(u, v) or any(c in touch[j] for c in touch[i])
            if joined:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    return Graph(len(rest), tuple(adj))


def _components_within(g: Graph, mask: int) -> list:
    """Connected components of the induced subgraph on mask, as masks."""
    comps, left = [], mask
    while left:
        seed = left & -left
        comp = seed
        while True:
            grow = comp
            for v in bits(comp):
                grow |= g.adj[v] & mask
            if grow == comp:
                break
            comp = grow
        comps.append(comp)
        left &= ~comp
    return comps


def is_connected(g: Graph) -> bool:
    if g.n == 0:
        return True
    return len(components(g)) == 1


def components(g: Graph) -> list:
    """Vertex masks of the connected components."""
    if g.n == 0:
        return []
    return _components_within(g, (1 << g.n) - 1)


def is_q_connected(g: Graph, q: int) -> bool:
    """Connected after deleting any q-1 vertices."""
    if not 1 <= q <= g.n:
        raise InputError(f"need 1 <= q <= n, got q={q}, n={g.n}")
    for removed in combinations(range(g.n), q - 1):
        keep = [v for v in range(g.n) if v not in removed]
        if not is_connected(induced(g, keep)):
            return False
    return True


def connectivity(g: Graph) -> int:
    """Largest q for which g is q-connected (0 for a disconnected graph)."""
    q = 0
    while q < g.n and is_q_connected(g, q + 1):
        q += 1
    return q


def independence_fvector(g: Graph) -> tuple:
    """(f_-1, f_0, ...): independent sets counted by cardinality, f_-1 = 1."""
    if g.n > 16:
        raise CapacityError(f"independence enumeration capped at n <= 16, got {g.n}")
    counts = [0] * (g.n + 1)
    for mask in range(1 << g.n):
        if all(g.adj[v] & mask == 0 for v in bits(mask)):
            counts[mask.bit_count()] += 1
    while len(counts) > 1 and counts[-1] == 0:
        counts.pop()
    return tuple(counts)


# ---------------------------------------------------------------------------
# canonical forms and enumeration

def _slot(i: int, j: int) -> int:
    # column-major upper triangle, the same order graph6 uses
    return j * (j - 1) // 2 + i


def edge_code(g: Graph) -> int:
    m = 0
    for u, v in g.edges():
        m |= 1 << _slot(u, v)
    return m


def _graph_from_code(n: int, code: int) -> Graph:
    adj = [0] * n
    for j in range(n):
        for i in range(j):
            if code >> _slot(i, j) & 1:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    return Graph(n, tuple(adj))


@dataclass(frozen=True, order=True)
class CanonicalForm:
    """Total-order key; equal iff the graphs are isomorphic."""

    n: int
    code: int


def canonical_form(g: Graph) -> CanonicalForm:
    """Minimal edge encoding over all n! relabelings."""
    if g.n > CANONICAL_CAP:
        raise CapacityError(
            f"canonical form is exhaustive (n! relabelings), capped at n <= {CANONICAL_CAP}"
        )
    E = g.edges()
    best = None
    for sigma in permutations(range(g.n)):
        m = 0
        for u, v in E:
            a, b = sigma[u], sigma[v]
            m |= 1 << (_slot(a, b) if a < b else _slot(b, a))
        if best is None or m < best:
            best = m
    return CanonicalForm(g.n, best if best is not None else 0)


def permuted(g: Graph, sigma) -> Graph:
    """Relabel: vertex v becomes sigma[v]."""
    adj = [0] * g.n
    for v in range(g.n):
        for u in bits(g.adj[v]):
            adj[sigma[v]] |= 1 << sigma[u]
    return Graph(g.n, tuple(adj))


def enumerate_graphs(n: int, connected_only: bool = False) -> list:
    """One representative per isomorphism class, by orbit marking.

    Deterministic: representatives are the numerically smallest edge codes,
    listed in increasing order.
    """
    if n < 1:
        raise InputError(f"class enumeration needs n >= 1, got {n}")
    if n > ENUMERATION_CAP:
        raise CapacityError(
            f"class enumeration capped at n <= {ENUMERATION_CAP}, got {n}"
        )
    nslots = n * (n - 1) // 2
    slotmaps = []
    for sigma in permutations(range(n)):
        sm = [0] * nslots
        for j in range(n):
            for i in range(j):
                a, b = sigma[i], sigma[j]
                sm[_slot(i, j)] = _slot(a, b) if a < b else _slot(b, a)
        slotmaps.append(sm)
    seen = bytearray(1 << nslots)
    reps = []
    for code in range(1 << nslots):
        if seen[code]:
            continue
        reps.append(code)
        for sm in slotmaps:
            m2, rem = 0, code
            while rem:
                low = rem & -rem
                m2 |= 1 << sm[low.bit_length() - 1]
                rem ^= low
            seen[m2] = 1
    graphs = [_graph_from_code(n, code) for code in reps]
    if connected_only:
        graphs = [g for g in graphs if is_connected(g)]
    return graphs


# ---------------------------------------------------------------------------
# serialization: JSON edge lists (1-based) and graph6

def to_graph6(g: Graph) -> str:
    if g.n > 62:
        raise CapacityError("graph6 writer supports n <= 62")
    nslots = g.n * (g.n - 1) // 2
    code = edge_code(g)
    chars = [chr(g.n + 63)]
    for start in range(0, nslots, 6):
        val = 0
        for t in range(6):
            k = start + t
            bit = code >> k & 1 if k < nslots else 0
            val = val << 1 | bit
        chars.append(chr(val + 63))
    return "".join(chars)


def from_graph6(s: str) -> Graph:
    s = s.strip()
    if not s:
        raise ParseError("empty graph6 string", 0)
    c0 = ord(s[0])
    if c0 == 126:
        raise ParseError("multi-byte graph6 vertex counts are not supported", 0)
    if not 63 <= c0 <= 125:
        raise ParseError(f"invalid graph6 size character {s[0]!r}", 0)
    n = c0 - 63
    if n > GRAPH_CAP:
        raise CapacityError(f"graph6 vertex count {n} exceeds the cap {GRAPH_CAP}")
    nslots = n * (n - 1) // 2
    need = (nslots + 5) // 6
    if len(s) - 1 != need:
        raise ParseError(
            f"expected {need} data characters for n={n}, got {len(s) - 1}", 1
        )
    code = 0
    for idx, ch in enumerate(s[1:]):
        v = ord(ch) - 63
        if not 0 <= v < 64:
            raise ParseError(f"invalid graph6 data character {ch!r}", idx + 1)
        for t in range(6):
            k = idx * 6 + t
            bit = v >> (5 - t) & 1
            if k < nslots:
                code |= bit << k
            elif bit:
                raise ParseError("nonzero graph6 padding bits", idx + 1)
    return _graph_from_code(n, code)


def json_int(value, what: str, position) -> int:
    """A JSON count or vertex: strings, fractions, booleans and negatives fail."""
    if type(value) is not int or value < 0:
        raise ParseError(
            f"{what} must be a non-negative integer, got {json.dumps(value)}", position
        )
    return value


def parse_graph(text: str) -> Graph:
    """Accepts the JSON form {"n":4,"edges":[[1,2],...]} or a graph6 line."""
    s = text.strip()
    if s.startswith("{"):
        try:
            obj = json.loads(s)
        except json.JSONDecodeError as e:
            raise ParseError(f"invalid JSON: {e.msg}", e.pos) from e
        if not (isinstance(obj, dict) and "n" in obj and isinstance(obj.get("edges"), list)):
            raise ParseError("graph JSON needs an 'n' key and an 'edges' list", 0)
        n = json_int(obj["n"], "'n'", 0)
        edges = []
        for i, e in enumerate(obj["edges"]):
            if not (isinstance(e, (list, tuple)) and len(e) == 2):
                raise ParseError(f"edge {i} is not a pair", i)
            u, v = (json_int(x, f"edge {i}: vertex", i) for x in e)
            if not (1 <= u <= n and 1 <= v <= n):
                raise ParseError(f"edge {i}: vertex out of range 1..{n}", i)
            if u == v:
                raise ParseError(f"edge {i}: loop at vertex {u}", i)
            edges.append((u - 1, v - 1))
        return graph_from_edges(n, edges)
    return from_graph6(s)


def serialize_graph(g: Graph, fmt: str = "json") -> str:
    if fmt == "json":
        edges = [[u + 1, v + 1] for u, v in g.edges()]
        return json.dumps({"n": g.n, "edges": edges})
    if fmt == "graph6":
        return to_graph6(g)
    raise InputError(f"unknown graph format {fmt!r}")
