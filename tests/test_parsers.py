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
from nestoqsym.graphs import parse_graph

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
