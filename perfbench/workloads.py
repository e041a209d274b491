"""The four benchmark workloads: seeded inputs, one job per input, checks.

Every workload is a closed loop with one client: the next job is issued only
after the previous one returns.  A workload is a set of plain functions:

  cycle                  -> period of the job mix, in jobs
  make_inputs(seed)      -> iterable of job inputs (plain data, no program
                            objects), generated lazily up to POOL
  setup(inputs)          -> program set-up run before the first job is due;
                            returns the jobs (classes enumerates here)
  compute(job)           -> every program call of one job, timed
  check(job, result)     -> None when the result is right, else a reason
  corrupt(result)        -> a deliberately wrong copy, for the checker self-test
  finish(results)        -> None or a reason, for checks over a whole run

Inputs are stratified by job index (sizes and densities follow a fixed
low-discrepancy sequence) and drawn at random from the seed within each
stratum, so two seeds give different graphs of the same mix.  That keeps the
cost of a run's job mix from swinging with the seed.
"""

from __future__ import annotations

import hashlib
import json
import random
from collections import Counter
from pathlib import Path

import nestoqsym as nq
from nestoqsym import buildset, invariants, qsym

PINNED_CLASSES = Path(__file__).with_name("classes_pinned.json")

# More inputs than any run consumes at this commit; a run that exhausts them
# simply ends early.
POOL = 2000
GOLDEN = 0.6180339887498949


def stratum(i: int) -> float:
    """i-th point of the golden-ratio sequence in [0, 1)."""
    return (0.5 + i * GOLDEN) % 1.0


def digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()[:16]


def _pairs(n: int) -> list:
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def _adjacency(n: int, edges) -> list:
    adj = [0] * n
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return adj


def _connected_within(adj: list, mask: int) -> bool:
    seen = frontier = mask & -mask
    while frontier:
        nxt = 0
        for v, nbrs in enumerate(adj):
            if frontier >> v & 1:
                nxt |= nbrs
        frontier = nxt & mask & ~seen
        seen |= frontier
    return seen == mask


def random_graph(rng, n: int, p: float, connected: bool = False) -> tuple:
    """G(n, M) with M = round(p * C(n, 2)): the edge count is fixed by p, so
    it adds no noise; redrawn until connected when asked."""
    pairs = _pairs(n)
    m = round(p * len(pairs))
    while True:
        edges = sorted(rng.sample(pairs, m))
        if not connected or _connected_within(_adjacency(n, edges), (1 << n) - 1):
            return ("graph", n, edges)


def random_family(rng, n: int, k: int, with_full: bool) -> tuple:
    """Union closure of the singletons, k random subsets and optionally [n]."""
    full = (1 << n) - 1
    masks = {1 << v for v in range(n)}
    if with_full:
        masks.add(full)
    masks.update(rng.randint(1, full) for _ in range(k))
    todo = list(masks)
    while todo:
        a = todo.pop()
        for b in list(masks):
            if a & b and (a | b) not in masks:
                masks.add(a | b)
                todo.append(a | b)
    return ("family", n, sorted(masks))


def to_building_set(job: tuple):
    kind, n, data = job
    if kind == "graph":
        return nq.from_graph(nq.graph_from_edges(n, data))
    return nq.building_set(n, data)


def _ok(cond: bool, reason: str):
    return None if cond else reason


# ---------------------------------------------------------------------------
# routes: three independent routes to F on seeded graphs, n in {7, 8}

def routes_inputs(seed: int):
    rng = random.Random(seed)
    for i in range(POOL):
        n = 8 if i % 25 == 12 else 7
        k = i // 25 if n == 8 else i
        yield random_graph(rng, n, 0.2 + 0.6 * stratum(k))


def routes_compute(job):
    _, n, edges = job
    g = nq.graph_from_edges(n, edges)
    return (
        nq.F_splitting(nq.from_graph(g)),
        nq.F_graph_colorings(g),
        nq.F_graph_recurrence(g),
    )


def routes_check(job, result):
    split, colorings, recurrence = result
    return _ok(split == colorings == recurrence, "the three routes disagree")


def routes_corrupt(result):
    split, colorings, recurrence = result
    return split, colorings, recurrence + qsym.monomial((1,))


# ---------------------------------------------------------------------------
# polytope: nested sets, vertex coordinates and the B-tree routes

def graph_mu(n: int, edges) -> int:
    """Members of the graphical building set: connected vertex subsets.

    A subset of two or more vertices is connected iff dropping some vertex
    adjacent to the rest leaves a connected subset (a leaf of a spanning
    tree), so one pass over the subsets in increasing order decides all.
    """
    adj = _adjacency(n, edges)
    conn = [False] * (1 << n)
    for mask in range(1, 1 << n):
        conn[mask] = mask & (mask - 1) == 0 or any(
            mask >> v & 1 and conn[mask ^ (1 << v)] and adj[v] & mask
            for v in range(n)
        )
    return sum(conn)


def with_mu(draw, mu_of, target: int):
    """Redraw until the building set has about `target` members.

    The cost of a polytope job grows steeply with mu, so fixing mu per job
    index keeps the seed from changing the cost of a run's job mix.
    """
    while True:
        job = draw()
        if abs(mu_of(job) - target) <= 1:
            return job


def median_mu(draw, mu_of, k: int = 5):
    """Of k draws, the one with the median number of members."""
    return sorted((draw() for _ in range(k)), key=mu_of)[k // 2]


def polytope_inputs(seed: int):
    rng = random.Random(seed)
    gmu = lambda job: graph_mu(job[1], job[2])
    fmu = lambda job: len(job[2])
    for i in range(POOL):
        u = stratum(i)
        slot = i % 10
        if slot < 4:
            draw = lambda: random_graph(rng, 6, rng.randint(5, 9) / 15, connected=True)
            yield with_mu(draw, gmu, 25 + round(18 * u))
        elif slot < 7:
            draw = lambda: random_family(rng, 6, rng.randint(2, 10), True)
            yield with_mu(draw, fmu, 10 + round(10 * u))
        elif slot < 9 or i % 40 != 9:
            draw = lambda: random_family(rng, 7, rng.randint(2, 10), True)
            yield with_mu(draw, fmu, 11 + round(14 * u))
        else:
            # sparse n = 7 graphs: trees and unicyclic graphs (K7 alone costs ~11 s)
            draw = lambda: random_graph(rng, 7, rng.randint(6, 7) / 21, connected=True)
            yield with_mu(draw, gmu, 36 + round(8 * u))


def polytope_compute(job):
    b = to_building_set(job)
    mns = nq.maximal_nested_sets(b)
    coords = [nq.vertex_coordinates(b, fam) for fam in mns]
    f_btree = nq.F_btree_route(b)
    return {
        "mu": b.mu,
        "vertices": len(mns),
        "coords": coords,
        "btree_vertex_count": nq.vertex_count(f_btree, b.n),
        "btree_L": nq.to_fundamental(f_btree),
        "fundamental": nq.F_fundamental(b),
        "realized": nq.check_realization(b),
    }


def polytope_check(job, r):
    if not r["btree_vertex_count"] == r["vertices"] == len(r["coords"]):
        return "vertex counts disagree"
    if r["btree_L"] != r["fundamental"]:
        return "B-tree route and fundamental route disagree"
    if any(sum(x) != r["mu"] for x in r["coords"]):
        return "a coordinate vector does not sum to mu"
    return _ok(r["realized"], "realization check failed")


def polytope_corrupt(r):
    return dict(r, coords=r["coords"][:-1])


# ---------------------------------------------------------------------------
# classes: every connected isomorphism class on 7 vertices

CLASSES_N = 7


def classes_inputs(seed: int) -> list:
    """The seed fixes only the order in which the classes are visited."""
    order = list(range(853))
    random.Random(seed).shuffle(order)
    return order


def classes_setup(order) -> list:
    graphs = nq.enumerate_graphs(CLASSES_N, connected_only=True)
    order = list(order)
    if len(graphs) != len(order):
        return [None] * len(order)
    return [graphs[i] for i in order]


def wl_key(g) -> str:
    """Colour-refinement certificate of a graph, computed without the program.

    Isomorphic graphs get the same key; the few non-isomorphic classes that
    share a key are told apart by the pinned value lists of their bucket.
    """
    colors = [g.adj[v].bit_count() for v in range(g.n)]
    for _ in range(3):
        sig = [
            (colors[v], tuple(sorted(colors[u] for u in range(g.n) if g.adj[v] >> u & 1)))
            for v in range(g.n)
        ]
        palette = {s: i for i, s in enumerate(sorted(set(sig)))}
        colors = [palette[s] for s in sig]
    return digest([g.n, sorted(sig)])


def value_digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def classes_compute(g):
    if g is None:
        raise ValueError("enumerate_graphs returned the wrong number of classes")
    return (
        wl_key(g),
        value_digest(qsym.render(nq.F_graph_recurrence(g))),
        value_digest(str(nq.chromatic_symmetric(g))),
    )


_PINS = None


def pins() -> dict:
    global _PINS
    if _PINS is None:
        _PINS = json.loads(PINNED_CLASSES.read_text())
    return _PINS


def classes_check(g, result):
    key, f, x = result
    return _ok([f, x] in pins()["buckets"].get(key, []), "F or X differs from the pinned value")


def classes_corrupt(result):
    key, f, x = result
    return key, value_digest("0"), x


def group_counts(values) -> tuple:
    """(distinct values, values shared by two or more classes)."""
    c = Counter(values)
    return len(c), sum(1 for k in c.values() if k > 1)


def classes_summary(results) -> dict:
    """The collision facts of a full sweep, from its (key, F, X) triples."""
    fs = [f for _, f, _ in results]
    xs = [x for _, _, x in results]
    by_x = {}
    for _, f, x in results:
        by_x.setdefault(x, []).append(f)
    f_separates = all(len(set(grp)) == len(grp) for grp in by_x.values())
    return {
        "classes": len(results),
        "F_values_groups": list(group_counts(fs)),
        "X_values_groups": list(group_counts(xs)),
        "F_separates_X": f_separates,
    }


def pinned_buckets(results) -> dict:
    """Certificate -> sorted [F digest, X digest] pairs of its classes."""
    buckets = {}
    for key, f, x in results:
        buckets.setdefault(key, []).append([f, x])
    return {key: sorted(pairs) for key, pairs in buckets.items()}


def classes_finish(results):
    """Once every class is done, values and collision facts must match the pins."""
    if len(results) < 853:
        return None
    if pinned_buckets(results) != pins()["buckets"]:
        return "the multiset of class values differs from the pinned one"
    want = pins()["summary"]
    got = classes_summary(results)
    return _ok(got == want, f"collision facts {got} differ from {want}")


# ---------------------------------------------------------------------------
# hopf: Takeuchi antipode and building-set coproduct against qsym

def hopf_inputs(seed: int):
    rng = random.Random(seed)
    gmu = lambda job: graph_mu(job[1], job[2])
    fmu = lambda job: len(job[2])
    for i in range(POOL):
        u = stratum(i)
        n = (4, 5, 6, 5, 6, 4)[i % 6]
        kind = (i // 6) % 3
        if kind == 0:
            draw = lambda: random_graph(rng, n, 0.3 + 0.5 * u)
            yield median_mu(draw, gmu)
        else:
            draw = lambda: random_family(rng, n, 1 + round(n * u), kind == 1)
            yield median_mu(draw, fmu)


def hopf_compute(job):
    b = to_building_set(job)
    s = nq.takeuchi_antipode(b)
    f = nq.F_splitting(b)
    rhs = None
    for _, left, right in buildset.coproduct(b):
        piece = qsym.tensor_product(nq.F_splitting(left), nq.F_splitting(right))
        rhs = piece if rhs is None else rhs + piece
    return {
        "S_image": invariants.F_of_hopf(s),
        "antipode": qsym.antipode(f),
        "coproduct": qsym.coproduct(f),
        "coproduct_sum": rhs,
    }


def hopf_check(job, r):
    if r["S_image"] != r["antipode"]:
        return "F(Takeuchi antipode) differs from the qsym antipode of F"
    return _ok(r["coproduct"] == r["coproduct_sum"], "F is not a coalgebra map here")


def hopf_corrupt(r):
    return dict(r, antipode=-r["antipode"])


# ---------------------------------------------------------------------------

def _no_setup(inputs):
    return inputs


def _no_finish(results):
    return None


WORKLOADS = {
    "routes": dict(
        cycle=25, make_inputs=routes_inputs, setup=_no_setup, compute=routes_compute,
        check=routes_check, corrupt=routes_corrupt, finish=_no_finish,
    ),
    "polytope": dict(
        cycle=40, make_inputs=polytope_inputs, setup=_no_setup, compute=polytope_compute,
        check=polytope_check, corrupt=polytope_corrupt, finish=_no_finish,
    ),
    "classes": dict(
        cycle=1, make_inputs=classes_inputs, setup=classes_setup, compute=classes_compute,
        check=classes_check, corrupt=classes_corrupt, finish=classes_finish,
    ),
    "hopf": dict(
        cycle=18, make_inputs=hopf_inputs, setup=_no_setup, compute=hopf_compute,
        check=hopf_check, corrupt=hopf_corrupt, finish=_no_finish,
    ),
}
