"""Simple graphs on small vertex sets with bit-set adjacency.

Vertices are 0-based internally; all I/O (JSON edge lists, error messages,
CLI) is 1-based.  A canonical form is the smallest column-major edge code
(graph6 bit order) over all relabelings, found by a search that places one
vertex per position from the top down and keeps only the partial labelings
whose columns so far are smallest.  Classes are enumerated by orderly
generation (Read, "Every one a winner", Ann. Discrete Math. 2, 1978), run
on complements: a depth-first search from K_n deletes edges and keeps a
child only if its code is minimal, which the search tests with an early exit.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import NamedTuple

from .bitsets import bits, compress, mask_of
from .errors import InputError, ParseError, check_int, check_limit, json_int, load_json


@dataclass(frozen=True)
class Graph:
    """Loop-free undirected graph; adj[v] is the neighbor bit mask of v."""

    n: int
    adj: tuple

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)

    def edges(self) -> list:
        return [(u, v) for u in range(self.n) for v in bits(self.adj[u]) if u < v]

    def __str__(self):
        return serialize_graph(self)


def graph_from_edges(n: int, edges) -> Graph:
    """Build a graph from 0-based edge pairs, rejecting loops, bad ranges
    and anything that is not an integer vertex count or a pair of integers."""
    if check_int(n, "vertex count") < 0:
        raise InputError(f"vertex count must be >= 0, got {n}")
    check_limit("ground", n)
    adj = [0] * n
    for e in edges:
        if not isinstance(e, (tuple, list)) or len(e) != 2:
            raise InputError(f"edge {e!r} is not a pair of vertices")
        u, v = (check_int(x, "edge vertex") for x in e)
        if not (0 <= u < n and 0 <= v < n):
            raise InputError(f"edge ({u + 1},{v + 1}) out of range 1..{n}")
        if u == v:
            raise InputError(f"loop edge at vertex {u + 1}")
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return Graph(n, tuple(adj))


class Family(NamedTuple):
    alias: str  # the short name, as in `polytope --family`
    polytope: str
    graph: str  # the family kind of the graph whose nestohedron it is


# The four classical families of graph-associahedra, in one table.
FAMILIES = (
    Family("pe", "permutohedron", "complete"),
    Family("as", "associahedron", "path"),
    Family("cy", "cyclohedron", "cycle"),
    Family("st", "stellohedron", "star"),
)
FAMILY_KINDS = tuple(f.graph for f in FAMILIES)


def family(kind: str, n: int) -> Graph:
    """K_n, L_n, C_n or K_{1,n-1} with fixed labeling (star center = vertex 1)."""
    if check_int(n, "family size") < 1:
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


def _check_subset(g: Graph, I) -> int:
    verts = {check_int(v, "vertex") for v in I}
    for v in sorted(verts):
        if not 0 <= v < g.n:
            raise InputError(f"vertex {v + 1} out of range 1..{g.n}")
    return mask_of(verts)


def induced(g: Graph, I) -> Graph:
    """Subgraph on I, relabeled order-preservingly to 0..|I|-1."""
    keep = _check_subset(g, I)
    return Graph(keep.bit_count(), tuple(compress(g.adj[v], keep) for v in bits(keep)))


def contract(g: Graph, I) -> Graph:
    """Contraction of I: survivors joined iff an edge or a path through I.

    The vertices of I are contracted one at a time (`_contract_vertex`),
    each joining its neighbours still kept, then the survivors relabeled.
    """
    imask = _check_subset(g, I)
    adj, keep = g.adj, (1 << g.n) - 1
    for x in bits(imask):
        keep ^= 1 << x
        adj = _contract_vertex(adj, x, keep)
    return Graph(keep.bit_count(), tuple(compress(adj[v], keep) for v in bits(keep)))


def _contract_vertex(adj: tuple, x: int, keep: int) -> tuple:
    """adj with vertex x contracted, in the same labels: u and w of keep are
    joined if adjacent or both adjacent to x.  A vertex outside keep, x
    among them, keeps no neighbours."""
    out, bit, around = [0] * len(adj), 1 << x, adj[x]
    for u in bits(keep):
        a = adj[u]
        out[u] = (a | around if a & bit else a) & keep & ~(1 << u)
    return tuple(out)


def _independent_sets(adj: tuple, mask: int) -> list:
    """The independent subsets of mask in adj, the empty set first, built
    one vertex at a time: each vertex of mask joins every set so far that
    holds none of its neighbours."""
    sets = [0]
    for v in bits(mask):
        sets += [s | 1 << v for s in sets if not adj[v] & s]
    return sets


def _components_within(g: Graph, mask: int) -> list:
    """Connected components of the induced subgraph on mask, as masks,
    ordered by lowest vertex; a breadth-first search expands each vertex once.
    """
    adj = g.adj
    comps, left = [], mask
    while left:
        comp = frontier = left & -left
        while frontier:
            grow = 0
            while frontier:
                low = frontier & -frontier
                grow |= adj[low.bit_length() - 1]
                frontier ^= low
            frontier = grow & left & ~comp
            comp |= frontier
        comps.append(comp)
        left &= ~comp
    return comps


def _neighbourhoods(adj: tuple) -> list:
    """nbr[S]: the neighbours of the vertex set S, for all 2^n sets, filled
    as nbr[S] = nbr[S - v] | adj[v] for the top vertex v of S."""
    nbr = [0]
    for a in adj:
        nbr += [s | a for s in nbr]
    return nbr


def _lowest_component(g: Graph):
    """lowest(mask): the component of g on mask holding the lowest vertex.

    On the table of neighbourhoods (_neighbourhoods) a component grows by
    one breadth-first layer per lookup: comp |= nbr[comp] & mask.
    """
    nbr = _neighbourhoods(g.adj)

    def lowest(mask: int) -> int:
        comp = mask & -mask
        while True:
            grown = comp | nbr[comp] & mask
            if grown == comp:
                return comp
            comp = grown

    return lowest


def is_connected(g: Graph) -> bool:
    if g.n == 0:
        return True
    return len(components(g)) == 1


def components(g: Graph) -> list:
    """Vertex masks of the connected components."""
    return _components_within(g, (1 << g.n) - 1)


def is_q_connected(g: Graph, q: int) -> bool:
    """Connected after deleting any q-1 vertices."""
    if not 1 <= check_int(q, "q") <= g.n:
        raise InputError(f"need 1 <= q <= n, got q={q}, n={g.n}")
    full, cuts = (1 << g.n) - 1, combinations(range(g.n), q - 1)
    return all(len(_components_within(g, full & ~mask_of(S))) == 1 for S in cuts)


def connectivity(g: Graph) -> int:
    """Largest q for which g is q-connected (0 for a disconnected graph)."""
    q = 0
    while q < g.n and is_q_connected(g, q + 1):
        q += 1
    return q


def independence_fvector(g: Graph) -> tuple:
    """(f_-1, f_0, ...): independent sets counted by cardinality, f_-1 = 1."""
    check_limit("independence", g.n)
    counts = [0] * (g.n + 1)
    for s in _independent_sets(g.adj, (1 << g.n) - 1):
        counts[s.bit_count()] += 1
    while len(counts) > 1 and counts[-1] == 0:
        counts.pop()
    return tuple(counts)


# ---------------------------------------------------------------------------
# canonical forms and enumeration

def _slot(i: int, j: int) -> int:
    # column-major upper triangle, the same order graph6 uses
    return j * (j - 1) // 2 + i


def edge_code(g: Graph) -> int:
    # the slots (u, v), u < v, of column v are v's lower neighbours, shifted
    m = 0
    for v, a in enumerate(g.adj):
        m |= (a & (1 << v) - 1) << _slot(0, v)
    return m


@lru_cache(maxsize=None)
def _pairs_within(n: int) -> tuple:
    """P[mask]: the edge-code slots of the pairs inside mask, for all 2^n masks.

    So edge_code(g) & P[mask] is the code of the subgraph g induces on mask,
    in g's labels.  Built by doubling over the vertices: adding v to m adds
    the slots (u, v) for u in m, P[m | 1 << v] = P[m] | m << _slot(0, v).
    One table per n; its callers stop at the recurrence limit.
    """
    P = [0]
    for v in range(n):
        base = _slot(0, v)
        P += [p | m << base for m, p in enumerate(P)]
    return tuple(P)


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


def _min_code(n: int, adj, beat: int = 0) -> int:
    """Smallest edge code over all relabelings, position n-1 filled first;
    -1 as soon as that minimum is known to lie below the code beat.

    The high columns of the code decide the low ones: a state is an ordered
    partition of the unplaced vertices into cells, each owning a contiguous
    block of positions (lowest block first).  The vertex at the top position
    comes from the top cell, and its column is smallest with its neighbors
    on the lowest positions of every cell, so its column depends only on
    its neighbor count per cell.  Candidates with the smallest column go on,
    each cell split into neighbors below non-neighbors; equal partitions
    lead to equal completions, so states are kept as a set.  While the
    columns placed equal beat's, a candidate column below beat's at p
    proves the minimum smaller than beat; beat = 0 never exits.
    """
    code = 0
    states = {((1 << n) - 1,)}
    for p in range(n - 1, 0, -1):
        best, nxt = 1 << p, set()  # above every p-bit column
        goal = beat >> p * (p - 1) // 2 & (1 << p) - 1
        for cells in states:
            top = cells[-1]
            for v in bits(top):
                left = top ^ 1 << v
                rest = cells[:-1] + (left,) if left else cells[:-1]
                nb = adj[v]
                col = off = 0
                for c in rest:
                    col |= ((1 << (nb & c).bit_count()) - 1) << off
                    off += c.bit_count()
                if col < goal:
                    return -1
                if col > best:
                    continue
                if col < best:
                    best, nxt = col, set()
                split = []
                for c in rest:
                    a = c & nb
                    if a:
                        split.append(a)
                    if a != c:
                        split.append(c ^ a)
                nxt.add(tuple(split))
        code |= best << p * (p - 1) // 2
        states = nxt
    return code


def canonical_form(g: Graph) -> CanonicalForm:
    """Minimal edge encoding over all relabelings, found by `_min_code`."""
    check_limit("canonical", g.n)
    return CanonicalForm(g.n, _min_code(g.n, g.adj))


def permuted(g: Graph, sigma) -> Graph:
    """Relabel: vertex v becomes sigma[v], for sigma a permutation of range(n)."""
    if sorted(check_int(s, "permutation entry") for s in sigma) != list(range(g.n)):
        raise InputError(f"{list(sigma)} is not a permutation of range({g.n})")
    adj = [0] * g.n
    for v in range(g.n):
        for u in bits(g.adj[v]):
            adj[sigma[v]] |= 1 << sigma[u]
    return Graph(g.n, tuple(adj))


def enumerate_graphs(n: int, connected_only: bool = False) -> list:
    """One representative per isomorphism class, by orderly edge deletion.

    Read's rule on complements: adding the edge at the lowest empty slot z
    of a minimal code gives a minimal code, so every class but K_n has one
    parent.  From K_n, a depth-first search removes each edge below z and
    keeps the child iff `_min_code` cannot beat its code.  Deleting edges
    never reconnects a graph, so connected_only drops a disconnected child
    with its subtree.  Representatives are the numerically smallest edge
    codes, listed in increasing order.
    """
    if check_int(n, "class enumeration size") < 1:
        raise InputError(f"class enumeration needs n >= 1, got {n}")
    check_limit("enumeration", n)
    slots = [(i, j) for j in range(n) for i in range(j)]
    reps, stack = {}, [((1 << len(slots)) - 1, len(slots), family("complete", n))]
    while stack:
        code, z, g = stack.pop()
        reps[code] = g
        for s in range(z):  # every slot below z holds an edge
            i, j = slots[s]
            a = list(g.adj)
            a[i] ^= 1 << j
            a[j] ^= 1 << i
            child = Graph(n, tuple(a))
            if connected_only and not is_connected(child):
                continue
            c = code ^ 1 << s
            if _min_code(n, a, c) == c:
                stack.append((c, s, child))
    return [reps[code] for code in sorted(reps)]


# ---------------------------------------------------------------------------
# serialization: JSON edge lists (1-based) and graph6

def to_graph6(g: Graph) -> str:
    check_limit("graph6", g.n)
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
    check_limit("ground", n)
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


def parse_graph(text: str) -> Graph:
    """Accepts the JSON form {"n":4,"edges":[[1,2],...]} or a graph6 line."""
    s = text.strip()
    if s.startswith("{"):
        obj = load_json(s)
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


def serialize_graph(g: Graph) -> str:
    edges = [[u + 1, v + 1] for u, v in g.edges()]
    return json.dumps({"n": g.n, "edges": edges})
