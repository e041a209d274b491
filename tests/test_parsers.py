"""The three text parsers on arbitrary input: a value or a clean refusal.

Every input either parses or raises InputError (ParseError is one) or
CapacityError, which the command line turns into exit 2 or 3 with a one-line
message; any other exception would reach the user as a traceback.  The
public constructors behind them refuse non-integers the same way.
"""

import json

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from nestoqsym import qsym
from nestoqsym.buildset import (
    building_set,
    discrete_building_set,
    parse_building_set,
    validate,
)
from nestoqsym.errors import LIMITS, CapacityError, InputError
from nestoqsym.graphs import (
    enumerate_graphs,
    family,
    from_graph6,
    graph_from_edges,
    is_q_connected,
    parse_graph,
    serialize_graph,
)
from nestoqsym.invariants import (
    F_tree,
    collision_search,
    family_F,
    family_vertex_counts,
    random_building_sets,
    tree_matrix_kernel,
)
from nestoqsym.nestopoly import (
    BTree,
    TreeShape,
    b_tree,
    enumerate_tree_shapes,
    shape_of,
    vertex_coordinates,
)

KEYS = ("n", "edges", "sets", "basis", "terms", "comp", "coeff")

json_texts = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.sampled_from(("M", "L"))
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(KEYS), inner, max_size=4),
    max_leaves=12,
).map(json.dumps)

element_texts = st.text(alphabet="ML[]0123456789,+-* ", max_size=24)

graph6_texts = st.text(alphabet=[chr(c) for c in range(60, 128)], max_size=8)

inputs = json_texts | element_texts | graph6_texts | st.text(max_size=16)


@given(inputs)
@settings(max_examples=200)
def test_parsers_return_or_refuse(text):
    for parse in (qsym.parse, parse_graph, parse_building_set):
        try:
            parse(text)
        except (InputError, CapacityError):
            pass


@pytest.mark.parametrize("bad", [1.5, 3.0, True, "3"], ids=["float", "whole float", "bool", "str"])
@pytest.mark.parametrize(
    "build",
    [
        lambda x: qsym.composition([x, 2]),
        lambda x: qsym.element("M", {(1,): x}),
        lambda x: qsym.monomial((1,), x),
        lambda x: qsym.fundamental((x,)),
        lambda x: building_set(2, [x]),
        lambda x: building_set(x, []),
    ],
    ids=["composition part", "element coeff", "monomial coeff", "fundamental part",
         "building-set member", "ground set size"],
)
def test_constructors_refuse_non_integers(build, bad):
    # an int-like value is refused, not truncated or stored as it is
    with pytest.raises(InputError, match="must be an integer"):
        build(bad)


@pytest.mark.parametrize(
    "call",
    [
        lambda: enumerate_graphs(2.0),
        lambda: enumerate_tree_shapes(2.0),
        lambda: enumerate_tree_shapes(True),
        lambda: tree_matrix_kernel(3.0),
        lambda: collision_search(3.0),
        lambda: family_F("pe", 2.0),
        lambda: family_F("pe", True),
        lambda: family_vertex_counts(2.5),
        lambda: family_vertex_counts(True),
        lambda: is_q_connected(family("complete", 3), 1.5),
        lambda: qsym.principal_specialization(qsym.monomial((1,)), 1.5),
        lambda: qsym.vertex_count(qsym.monomial((1,)), 1.0),
    ],
    ids=["enumerate_graphs", "tree shapes float", "tree shapes bool", "tree_matrix_kernel",
         "collision_search", "family_F float", "family_F bool", "family_vertex_counts float",
         "family_vertex_counts bool", "is_q_connected", "principal_specialization",
         "vertex_count"],
)
def test_counts_refuse_non_integers(call):
    # a float raised TypeError, True was read as 1, and the two
    # specializations returned the float 1.0
    with pytest.raises(InputError, match="must be an integer"):
        call()


@pytest.mark.parametrize(
    "call",
    [
        lambda: random_building_sets(2.0, max_n=3),
        lambda: random_building_sets(3.5, max_n=3),
        lambda: random_building_sets(True, max_n=3),
        lambda: random_building_sets(-1, max_n=3),
        lambda: qsym.compositions_of(True),
        lambda: qsym.compositions_of(2.0),
        lambda: qsym.code_table(2.0),
        lambda: discrete_building_set(2.0),
        lambda: discrete_building_set(-1),
        lambda: qsym.monomial((1,)).scale(1.5),
        lambda: qsym.monomial((1,)).scale(True),
        lambda: qsym.monomial((1,)) * 1.5,
        lambda: 1.5 * qsym.monomial((1,)),
        lambda: qsym.monomial((1,)) + 3,
        lambda: qsym.descent_composition((1.0, 2)),
    ],
    ids=["random float", "random fraction", "random bool", "random negative",
         "compositions_of bool", "compositions_of float", "code_table float",
         "discrete float", "discrete negative", "scale float", "scale bool",
         "times float", "float times", "plus int", "descent float letter"],
)
def test_counts_and_coefficients_refuse_bad_values(call):
    # each was read silently (2.0 sets, True as 1, -1 as none, 1.5 as a
    # float coefficient, 1.0 as the letter 1) or raised TypeError or
    # AttributeError
    with pytest.raises(InputError):
        call()


def test_discrete_building_set_checks_the_ground_row():
    # returned a building set on 40 vertices, past the bit-mask row
    with pytest.raises(CapacityError, match="ground set"):
        discrete_building_set(LIMITS["ground"].limit + 1)


@pytest.mark.parametrize(
    "build",
    [lambda n: building_set(n, []), lambda n: validate([], n)],
    ids=["building_set", "validate"],
)
def test_building_set_checks_the_ground_row(build):
    # returned a building set on 40 (33) vertices, past the bit-mask row
    with pytest.raises(CapacityError, match="ground set"):
        build(40)
    with pytest.raises(CapacityError, match="ground set"):
        build(LIMITS["ground"].limit + 1)


def test_tree_shape_code_must_be_a_string():
    # raised AttributeError
    with pytest.raises(InputError, match="not one rooted tree"):
        F_tree(TreeShape(5))


M, L = qsym.monomial((1,)), qsym.fundamental((1,))

# Refusals the parsers never reach: each public call below refuses its
# argument with this message.
REFUSALS = {
    "edge out of range": (lambda: graph_from_edges(2, [(0, 2)]), "edge (1,3) out of range 1..2"),
    "loop edge": (lambda: graph_from_edges(2, [(1, 1)]), "loop edge at vertex 2"),
    "graph6 multi-byte size": (
        lambda: from_graph6("~??~"),
        "multi-byte graph6 vertex counts are not supported (at position 0)",
    ),
    "graph format": (
        lambda: serialize_graph(family("path", 2), "dot"), "unknown graph format 'dot'"
    ),
    "negative weight": (lambda: qsym.code_table(-1), "negative weight -1"),
    "plus int": (lambda: M + 1, "cannot add 1 to a quasisymmetric function"),
    "plus other basis": (lambda: M + L, "basis mismatch: M vs L; convert first"),
    "shift1 of L": (lambda: qsym.shift1(L), "shift1 is defined on the M basis"),
    "coproduct of L": (lambda: qsym.coproduct(L), "coproduct is defined on the M basis"),
    "tensor_product of L": (
        lambda: qsym.tensor_product(L, M), "tensor_product requires M-basis operands"
    ),
    "to_fundamental of L": (
        lambda: qsym.to_fundamental(L), "to_fundamental expects an M-basis element"
    ),
    "from_fundamental of M": (
        lambda: qsym.from_fundamental(M), "from_fundamental expects an L-basis element"
    ),
    "coordinates of a disconnected set": (
        lambda: vertex_coordinates(discrete_building_set(2), [1]),
        "this computation requires a connected building set",
    ),
    "B-tree of a disconnected set": (
        lambda: b_tree(discrete_building_set(2), [1]),
        "this computation requires a connected building set",
    ),
    "shape of a forest": (
        lambda: shape_of(BTree(2, (None, None))), "shape_of expects a single-rooted tree"
    ),
    "negative family index": (lambda: family_F("pe", -1), "family index must be >= 0"),
    # read as a shape unequal to ((())()), the canonical code of its tree
    "non-canonical tree shape": (
        lambda: F_tree(TreeShape("(()(()))")),
        "tree shape code '(()(()))' is not canonical: child (()) sorts below its previous sibling ()",
    ),
}


@pytest.mark.parametrize("call, message", REFUSALS.values(), ids=REFUSALS)
def test_library_refusals(call, message):
    with pytest.raises(InputError) as exc:
        call()
    assert str(exc.value) == message
