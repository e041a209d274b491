"""End-to-end runs of every subcommand and flag combination."""

import json

import pytest

from nestoqsym.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_invariant_all_routes(capsys):
    code, out, _ = run(capsys, "invariant", "--graph", "path:4", "--route", "all")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 4
    expansions = {line.split(": ", 1)[1] for line in lines}
    assert expansions == {"4*M[1,2,1] + 6*M[2,1,1] + 24*M[1,1,1,1]"}


def test_invariant_is_byte_stable(capsys):
    _, out1, _ = run(capsys, "invariant", "--graph", "cycle:5", "--route", "all", "--json")
    _, out2, _ = run(capsys, "invariant", "--graph", "cycle:5", "--route", "all", "--json")
    assert out1 == out2


def test_invariant_basis_and_chi(capsys):
    code, out, _ = run(
        capsys, "invariant", "--graph", "path:4", "--basis", "L", "--chi", "-1"
    )
    assert code == 0
    assert "4*L[1,2,1] + 6*L[2,1,1] + 14*L[1,1,1,1]" in out
    assert "chi(-1) = 14" in out


def test_invariant_json_payload(capsys):
    code, out, _ = run(
        capsys, "invariant", "--graph", "complete:3", "--route", "splitting", "--json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["routes"]["splitting"]["terms"] == [
        {"comp": [1, 1, 1], "coeff": 6}
    ]


def test_invariant_graph_file_with_graph6_lines(capsys, tmp_path):
    f = tmp_path / "graphs.g6"
    f.write_text("A_\nBw\n")  # K2 and the triangle
    code, out, _ = run(capsys, "invariant", "--graph", str(f))
    assert code == 0
    blocks = [l for l in out.splitlines() if l.startswith("# graph")]
    assert len(blocks) == 2


def test_buildset_validate_restrict_contract(capsys):
    code, out, _ = run(
        capsys,
        "buildset",
        "--sets",
        '{"n":3,"sets":[[1,2],[2,3],[1,2,3]]}',
        "--validate",
        "--contract",
        "2",
    )
    assert code == 0
    assert "valid building set" in out
    assert "kept original vertices [1, 3]" in out
    assert '{"n": 2, "sets": [[1], [2], [1, 2]]}' in out


def test_buildset_restrict_and_json(capsys):
    code, out, _ = run(
        capsys,
        "buildset",
        "--sets",
        '{"n":4,"sets":[[1,2],[2,3],[3,4],[1,2,3],[2,3,4],[1,2,3,4]]}',
        "--restrict",
        "1,2,3",
        "--json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["restrict"]["kept"] == [1, 2, 3]
    assert payload["result"] == {"n": 3, "sets": [[1], [2], [1, 2], [3], [2, 3], [1, 2, 3]]}


def test_buildset_strict_mode_rejects(capsys):
    code, _, err = run(
        capsys,
        "buildset",
        "--sets",
        '{"n":2,"sets":[[1,2]]}',
        "--no-auto-singletons",
        "--validate",
    )
    assert code == 2
    assert "singleton" in err


def test_buildset_union_closure_error_names_pair(capsys):
    code, _, err = run(
        capsys, "buildset", "--sets", '{"n":3,"sets":[[1,2],[2,3]]}', "--validate"
    )
    assert code == 2
    assert "{1,2}" in err and "{2,3}" in err


def test_polytope_vertices(capsys):
    code, out, _ = run(capsys, "polytope", "--family", "as", "--n", "4", "--vertices")
    assert code == 0 and out.strip() == "14"
    code, out, _ = run(capsys, "polytope", "--family", "st", "--n", "4")
    assert code == 0 and out.strip() == "16"


def test_polytope_fvector_and_coords(capsys):
    code, out, _ = run(capsys, "polytope", "--family", "as", "--n", "4", "--fvector")
    assert code == 0 and out.strip() == "1 9 21 14"
    code, out, _ = run(capsys, "polytope", "--family", "pe", "--n", "3", "--coords")
    assert code == 0
    rows = out.strip().splitlines()
    assert rows == ["1 2 4", "1 4 2", "2 1 4", "2 4 1", "4 1 2", "4 2 1"]
    code, out, _ = run(capsys, "polytope", "--family", "cy", "--n", "5", "--json")
    assert code == 0
    assert json.loads(out) == {"family": "cy", "n": 5, "vertices": 70}


def test_chromatic(capsys):
    code, out, _ = run(capsys, "chromatic", "--graph", "complete:3")
    assert code == 0 and out.strip() == "6*m[1,1,1]"
    code, out, _ = run(capsys, "chromatic", "--graph", "complete:2", "--json")
    payload = json.loads(out)
    assert payload["terms"] == [{"mu": [1, 1], "coeff": 2}]


def test_antipode_qsym_input(capsys):
    code, out, _ = run(capsys, "antipode", "--qsym", "L[1,1,1,1]")
    assert code == 0 and out.strip() == "L[4]"
    code, out, _ = run(capsys, "antipode", "--qsym", "M[2]")
    assert code == 0 and out.strip() == "-M[2]"  # element keeps its own basis
    code, out, _ = run(capsys, "antipode", "--qsym", "M[2]", "--basis", "L")
    assert code == 0 and out.strip() == "-L[2] + L[1,1]"


def test_antipode_graph_input(capsys):
    code, out, _ = run(capsys, "antipode", "--graph", "path:4")
    assert code == 0
    assert out.strip() == "14*L[4] + 4*L[2,2] + 6*L[3,1]"
    code, out, _ = run(capsys, "antipode", "--graph", "path:4", "--basis", "M")
    assert code == 0 and "M[" in out
    code, out, _ = run(capsys, "antipode", "--qsym", "L[2]", "--json")
    assert json.loads(out) == {"basis": "L", "terms": [{"comp": [1, 1], "coeff": 1}]}


def test_fvector_graph_and_sets(capsys):
    code, out, _ = run(capsys, "fvector", "--graph", "path:4")
    assert code == 0
    assert out.splitlines()[0] == "1 9 21 14"
    assert "vertices: 14" in out and "facets: 9" in out
    code, out, _ = run(
        capsys, "fvector", "--sets", '{"n":3,"sets":[[1],[2],[3],[1,2,3]]}'
    )
    assert code == 0
    assert out.splitlines()[0] == "1 3 3"
    code, out, _ = run(capsys, "fvector", "--graph", "complete:3", "--json")
    assert json.loads(out)["nested_set_counts"] == [1, 6, 6]


def test_collide(capsys):
    code, out, _ = run(capsys, "collide", "--n", "4")
    assert code == 0
    assert "classes: 11" in out and "distinct values: 11" in out
    code, out, _ = run(capsys, "collide", "--n", "5", "--invariant", "X", "--json")
    payload = json.loads(out)
    assert payload["classes"] == 34 and payload["values"] == 33
    assert payload["f_separates"] is True


def test_collide_connected(capsys):
    code, out, _ = run(capsys, "collide", "--n", "4", "--connected", "--json")
    assert code == 0
    assert json.loads(out)["classes"] == 6


def test_trees(capsys):
    code, out, _ = run(capsys, "trees", "--n", "4")
    assert code == 0 and len(out.strip().splitlines()) == 4
    code, out, _ = run(capsys, "trees", "--n", "5", "--kernel")
    assert code == 0
    assert "rank: 8" in out and "kernel dimension: 1" in out
    code, out, _ = run(capsys, "trees", "--n", "3", "--kernel", "--json")
    payload = json.loads(out)
    assert payload["shapes"] == ["((()))", "(()())"] and payload["rank"] == 2


def test_verify_single_criteria(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "paper", "--criterion", "1")
    assert code == 0
    assert out.startswith("PASS   1")
    # criterion 2 pins a published value that conflicts with the Hopf axiom;
    # it is expected to fail and the runner must say so
    code, out, _ = run(capsys, "verify", "--suite", "paper", "--criterion", "2")
    assert code == 1
    assert out.startswith("FAIL   2")
    code, out, _ = run(
        capsys, "verify", "--suite", "paper", "--criterion", "6", "--criterion", "7"
    )
    assert code == 0
    assert len(out.strip().splitlines()) == 2


def test_exit_codes(capsys):
    code, _, err = run(capsys, "invariant", "--graph", "path:zebra")
    assert code == 2
    code, _, err = run(capsys, "invariant", "--graph", "no_such_file.json")
    assert code == 2 and "neither" in err
    code, _, err = run(capsys, "collide", "--n", "9")
    assert code == 3 and "capacity" in err
    code, _, err = run(capsys, "trees", "--n", "12")
    assert code == 3
    for argv in BAD_INPUTS:
        code, out, err = run(capsys, *argv)
        assert code == 2, argv
        assert err.startswith("input error: ") and err.count("\n") == 1, argv
        assert "Traceback" not in out + err


BAD_INPUTS = (
    ("invariant", "--graph", '{"n":"x","edges":[]}'),
    ("invariant", "--graph", '{"n":2,"edges":[[1,"a"]]}'),
    ("invariant", "--graph", '{"n":3,"edges":[[1,2.5]]}'),
    ("invariant", "--graph", '{"n":-1,"edges":[]}'),
    ("invariant", "--graph", '{"n":2,"edges":5}'),
    ("buildset", "--sets", '{"n":"x","sets":[[1]]}'),
    ("buildset", "--sets", '{"n":2,"sets":[[1,"a"]]}'),
    ("buildset", "--sets", '{"n":3,"sets":[[1,2.5]]}'),
    ("buildset", "--sets", '{"n":2,"sets":[[1],[2]]}', "--restrict", "a"),
    ("collide", "--n", "0"),
    ("trees", "--n", "0"),
)


def test_argparse_rejects_conflicting_flags(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["polytope", "--family", "as", "--n", "4", "--vertices", "--coords"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["antipode"])
    assert exc.value.code == 2
