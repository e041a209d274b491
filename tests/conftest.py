import hypothesis
import hypothesis.strategies as st

from nestoqsym import qsym
from nestoqsym.graphs import graph_from_edges

hypothesis.settings.register_profile(
    "suite", max_examples=40, deadline=None, derandomize=True
)
hypothesis.settings.load_profile("suite")


compositions = st.lists(st.integers(1, 4), min_size=0, max_size=4).map(tuple)

small_compositions = st.lists(st.integers(1, 3), min_size=0, max_size=3).map(tuple)


def _element_from(pairs, basis="M"):
    return qsym.element(basis, pairs)


qsym_elements = st.dictionaries(
    compositions, st.integers(-5, 5), min_size=0, max_size=4
).map(_element_from)

small_qsym_elements = st.dictionaries(
    small_compositions, st.integers(-3, 3), min_size=0, max_size=3
).map(_element_from)


@st.composite
def graphs(draw, max_n=6):
    n = draw(st.integers(1, max_n))
    nslots = n * (n - 1) // 2
    code = draw(st.integers(0, (1 << nslots) - 1))
    edges = []
    k = 0
    for j in range(n):
        for i in range(j):
            if code >> k & 1:
                edges.append((i, j))
            k += 1
    return graph_from_edges(n, edges)


def naive_components(g, mask):
    """Components of g on mask by a vertex-at-a-time search, lowest first."""
    comps, seen = [], set()
    for s in range(g.n):
        if not mask >> s & 1 or s in seen:
            continue
        comp, stack = {s}, [s]
        while stack:
            u = stack.pop()
            for v in range(g.n):
                if mask >> v & 1 and g.has_edge(u, v) and v not in comp:
                    comp.add(v)
                    stack.append(v)
        seen |= comp
        comps.append(sum(1 << v for v in comp))
    return comps
