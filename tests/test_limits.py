"""The one table of size limits: every row is reached, read the same way,
documented in the README, and the only place a capacity error is raised."""

import re
from pathlib import Path

import pytest

from nestoqsym.buildset import (
    coproduct,
    discrete_building_set,
    from_graph,
    takeuchi_antipode,
)
from nestoqsym.cli import main
from nestoqsym.errors import LIMITS, CapacityError, InputError
from nestoqsym.graphs import (
    Graph,
    canonical_form,
    enumerate_graphs,
    graph_from_edges,
    independence_fvector,
    to_graph6,
)
from nestoqsym.invariants import (
    F_fundamental,
    F_graph_colorings,
    F_graph_recurrence,
    F_splitting,
    F_tree,
    check_thm72,
    chromatic_symmetric,
    collision_search,
    family_F,
    family_recurrence_check,
    family_vertex_counts,
    hopf_morphism_check,
    splitting_chains,
    tree_matrix_kernel,
    zeta,
)
from nestoqsym.nestopoly import (
    BTree,
    check_realization,
    enumerate_tree_shapes,
    linear_extensions,
    nested_sets,
)
from nestoqsym.qsym import antipode, coarsenings, fundamental, monomial, to_fundamental

ROOT = Path(__file__).resolve().parent.parent

discrete = discrete_building_set


def empty(n):
    return graph_from_edges(n, [])


def forest(n):
    return BTree(n, (None,) * n)


# row name -> a public call that is refused with value v for that row
PROBES = {
    "ground": lambda v: graph_from_edges(v, []),
    "independence": lambda v: independence_fvector(empty(v)),
    "canonical": lambda v: canonical_form(empty(v)),
    "enumeration": lambda v: enumerate_graphs(v),
    "graph6": lambda v: to_graph6(Graph(v, (0,) * v)),
    "graphical": lambda v: from_graph(empty(v)),
    "coproduct": lambda v: coproduct(discrete(v)),
    "takeuchi": lambda v: takeuchi_antipode(discrete(v)),
    "weight": lambda v: antipode(fundamental((v,))),
    "refinements": lambda v: to_fundamental(monomial((v + 1,))),
    "coarsenings": lambda v: coarsenings((1,) * (v + 1)),
    "nested": lambda v: nested_sets(discrete(v)),
    "realization": lambda v: check_realization(discrete(v)),
    "tree shapes": lambda v: enumerate_tree_shapes(v),
    "extensions": lambda v: linear_extensions(forest(v)),
    "zeta": lambda v: zeta(discrete(v), (1,) * v),
    "splitting": lambda v: F_splitting(discrete(v)),
    "splitting chains": lambda v: splitting_chains(discrete(v)),
    "tree enumerators": lambda v: F_tree(forest(v)),
    "colorings": lambda v: F_graph_colorings(empty(v)),
    "chromatic": lambda v: chromatic_symmetric(empty(v)),
    "recurrence": lambda v: F_graph_recurrence(empty(v)),
    "fundamental": lambda v: F_fundamental(discrete(v)),
    "thm72": lambda v: check_thm72(empty(v)),
    "family": lambda v: family_F("permutohedron", v),
    "family check": lambda v: family_recurrence_check("associahedron", v),
    "kernel": lambda v: tree_matrix_kernel(v),
    "hopf": lambda v: hopf_morphism_check(discrete(v)),
    "collide": lambda v: collision_search(v, "F"),
    "collide connected": lambda v: collision_search(v, "F", connected_only=True),
}


def test_every_row_has_a_probe():
    assert set(PROBES) == set(LIMITS)


@pytest.mark.parametrize("name", sorted(LIMITS))
def test_row_refuses_one_past_its_limit(name):
    row = LIMITS[name]
    value = row.limit + 1
    with pytest.raises(CapacityError) as exc:
        PROBES[name](value)
    assert str(exc.value) == (
        f"{row.what} capped at {row.size} <= {row.limit}, got {value} ({row.why})"
    )


def test_below_range_sizes_are_input_errors():
    with pytest.raises(InputError, match="family counts need n >= 1, got 0"):
        family_vertex_counts(0)
    with pytest.raises(InputError, match="tree shapes need n >= 1, got 0"):
        tree_matrix_kernel(0)
    with pytest.raises(InputError, match="vertex count must be >= 0, got -1"):
        graph_from_edges(-1, [])


CAPACITY_ARGV = [
    ("invariant", "--graph", "cycle:12"),
    ("invariant", "--graph", "cycle:9", "--route", "splitting"),
    ("invariant", "--graph", "cycle:9", "--route", "trees"),
    ("invariant", "--graph", "cycle:9", "--route", "colorings"),
    ("invariant", "--graph", "cycle:9", "--route", "all"),
    ("invariant", "--graph", "complete:17", "--route", "splitting"),
    ("invariant", "--graph", '{"n":33,"edges":[]}'),
    ("chromatic", "--graph", "path:9"),
    ("fvector", "--graph", "path:9"),
    ("fvector", "--sets", '{"n":9,"sets":[]}'),
    ("polytope", "--family", "pe", "--n", "9", "--coords"),
    ("polytope", "--family", "as", "--n", "9", "--fvector"),
    ("polytope", "--family", "st", "--n", "11"),
    ("collide", "--n", "8"),
    ("collide", "--n", "8", "--connected"),
    ("trees", "--n", "8", "--kernel"),
    ("trees", "--n", "10"),
    ("antipode", "--qsym", "M[" + ",".join(["1"] * 20) + "]"),
    ("antipode", "--qsym", "L[5000]"),
    ("antipode", "--qsym", "M[99999999999999999999999]"),
]


def test_cli_capacity_errors_are_one_line(capsys):
    for argv in CAPACITY_ARGV:
        code = main(list(argv))
        out, err = capsys.readouterr()
        assert code == 3, argv
        assert out == "" and "Traceback" not in err, argv
        assert err.startswith("capacity error: ") and err.count("\n") == 1, argv
    main(["antipode", "--qsym", "M[" + ",".join(["1"] * 20) + "]"])
    assert "got 19 (2^(l - 1) per term)" in capsys.readouterr().err  # the user's term


def test_capacity_errors_are_raised_only_from_the_table():
    for path in sorted((ROOT / "src" / "nestoqsym").glob("*.py")):
        if path.name == "errors.py":
            continue
        text = path.read_text()
        assert "raise CapacityError" not in text, path.name
        assert not re.search(r"^\s*\w*_CAP\s*=", text, re.M), path.name


def test_readme_limits_table_matches_code():
    readme = (ROOT / "README.md").read_text()
    rows = re.findall(r"^\| `([^`]+)` \| [^|]*?<= ([\d,]+) \|", readme, re.M)
    assert {name: int(limit.replace(",", "")) for name, limit in rows} == {
        name: row.limit for name, row in LIMITS.items()
    }
    assert len(rows) == len(LIMITS)
