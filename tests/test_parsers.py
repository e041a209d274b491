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
from nestoqsym.buildset import building_set, parse_building_set
from nestoqsym.errors import CapacityError, InputError
from nestoqsym.graphs import enumerate_graphs, family, is_q_connected, parse_graph
from nestoqsym.invariants import (
    F_tree,
    collision_search,
    family_F,
    family_vertex_counts,
    tree_matrix_kernel,
)
from nestoqsym.nestopoly import TreeShape, enumerate_tree_shapes

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


def test_tree_shape_code_must_be_a_string():
    # raised AttributeError
    with pytest.raises(InputError, match="not one rooted tree"):
        F_tree(TreeShape(5))
