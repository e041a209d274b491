"""End-to-end runs of every subcommand and flag combination."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from nestoqsym import cli, verify
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


def test_module_entry_point_matches_main(capsys):
    argv = ["invariant", "--graph", "path:4", "--route", "all"]
    code, out, _ = run(capsys, *argv)
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + path if path else src)
    proc = subprocess.run(
        [sys.executable, "-m", "nestoqsym", *argv],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert (proc.returncode, code) == (0, 0), proc.stderr
    assert proc.stdout == out


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


def test_invariant_computes_each_route_once(capsys, monkeypatch, tmp_path):
    f = tmp_path / "graphs.g6"
    f.write_text("A_\nBw\n")  # K2 and the triangle
    calls = []
    for name, route in list(cli.ROUTES.items()):
        def counted(g, name=name, route=route):
            calls.append(name)
            return route(g)
        monkeypatch.setitem(cli.ROUTES, name, counted)
    code, out, _ = run(capsys, "invariant", "--graph", str(f), "--chi", "2")
    assert code == 0 and out.count("chi(2) = ") == 2
    assert calls == ["recurrence", "recurrence"]
    calls.clear()
    code, out, _ = run(capsys, "invariant", "--graph", str(f), "--route", "all", "--chi", "2")
    assert code == 0 and out.count("chi(2) = ") == 2
    assert sorted(calls) == sorted(list(cli.ROUTES) * 2)


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


def test_polytope_at_n0_is_the_point_in_every_mode(capsys):
    modes = (
        ("--vertices", "1", "vertices", 1),
        ("--fvector", "1", "nested_set_counts", [1]),
        ("--coords", "", "coordinates", [[]]),  # one vertex, no coordinates
    )
    for kind in ("pe", "as", "cy", "st"):
        for mode, text, key, value in modes:
            code, out, _ = run(capsys, "polytope", "--family", kind, "--n", "0", mode)
            assert code == 0 and out == text + "\n"
            code, out, _ = run(capsys, "polytope", "--family", kind, "--n", "0", mode, "--json")
            assert code == 0 and json.loads(out) == {"family": kind, "n": 0, key: value}
    code, out, _ = run(capsys, "fvector", "--graph", '{"n":0,"edges":[]}')
    assert code == 0 and out == "1\n"
    code, _, err = run(capsys, "fvector", "--graph", "path:0")
    assert code == 2 and "family size must be >= 1" in err


def test_polytope_negative_n_is_one_input_error_in_every_mode(capsys):
    # --coords and --fvector build no enumerator, yet refuse --n -1 with
    # the message --vertices gives
    for kind in ("pe", "as", "cy", "st"):
        for mode in ("--vertices", "--fvector", "--coords"):
            got = run(capsys, "polytope", "--family", kind, "--n", "-1", mode)
            assert got == (2, "", "input error: family index must be >= 0\n"), (kind, mode)


def test_polytope_coords_pinned_digests(capsys):
    # sha256 of the sorted coordinate rows, one line per vertex
    pinned = {
        "as": (132, "e745563a5d6c0f4bb1da6698228fcb7c5ac76d9d0beb7c57483289c90c7f8af9"),
        "cy": (252, "40319db6d08fd10d349061c16b4613d752814d0085e3fe10043c4dc97fb110e5"),
        "st": (326, "efb48301d61e5ed335c16fa1748912798ecc01fb4ea9743653f667921ccc1b62"),
    }
    for kind, (vertices, digest) in pinned.items():
        code, out, _ = run(capsys, "polytope", "--family", kind, "--n", "6", "--coords")
        assert code == 0
        assert len(out.splitlines()) == vertices
        assert hashlib.sha256(out.encode()).hexdigest() == digest


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


def test_collide_n6_pinned_groups(capsys):
    code, out, _ = run(capsys, "collide", "--n", "6", "--json")
    assert code == 0
    payload = json.loads(out)
    assert (payload["classes"], payload["values"]) == (156, 153)
    assert payload["collisions"] == [
        ["Ezn?", "E^n?"], ["E^v_", "Ef~_"], ["E|N?", "E\\n?"]
    ]
    code, out, _ = run(capsys, "collide", "--n", "6", "--invariant", "X", "--json")
    assert code == 0
    payload = json.loads(out)
    assert (payload["classes"], payload["values"]) == (156, 146)
    assert payload["collisions"] == [
        ["E^~?", "E|v_"], ["E^Q?", "Ejq?"], ["EfY?", "ETr?"], ["Ez_?", "Eto?"],
        ["ExQ?", "EtQ?"], ["E~N?", "E|n?"], ["EzY?", "Etr?"], ["E^n?", "Etv_"],
        ["Ez]?", "Etn?"], ["E~n?", "E}v_"],
    ]
    assert payload["f_separates"] is True


def test_collide_n7_pinned_digests(capsys):
    # sha256 of the --json stdout, and the README counts: 853 connected
    # classes, F 810 values in 41 groups, X 759 values in 82 groups; 1,044
    # classes in all, F 998 values in 44 groups, X 939 values in 93 groups
    pinned = {
        ("F", "--connected"): (853, 810, 41, "d7e81df35b2dff2053170ac97967dfa2fbc6b5c17e6205dec168d54e77569542"),
        ("X", "--connected"): (853, 759, 82, "b26c51152558ea39f079664b7af880f76727307f690a15cd8817140e9383ea6a"),
        ("F",): (1044, 998, 44, "11e30d1849dcb021fd9bee96c010cb786661c03c5a3a3d6ca0007fb40b882ddb"),
        ("X",): (1044, 939, 93, "f586a3a806d26fd5bcbd7a9474b93fbea888916d044e279be9a7d2164fab060b"),
    }
    for (inv, *flags), (classes, values, groups, digest) in pinned.items():
        code, out, _ = run(
            capsys, "collide", "--n", "7", *flags, "--invariant", inv, "--json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["classes"] == classes
        assert (payload["values"], len(payload["collisions"])) == (values, groups)
        assert payload["f_separates"] is (None if inv == "F" else False)
        assert hashlib.sha256(out.encode()).hexdigest() == digest


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


def test_verify_single_criteria(capsys, monkeypatch):
    code, out, _ = run(capsys, "verify", "--suite", "paper", "--criterion", "1")
    assert code == 0
    assert out.startswith("PASS   1")
    code, out, _ = run(capsys, "verify", "--suite", "paper", "--criterion", "2")
    assert code == 0
    assert out.startswith("PASS   2")
    code, out, _ = run(
        capsys, "verify", "--suite", "paper", "--criterion", "6", "--criterion", "7"
    )
    assert code == 0
    assert len(out.strip().splitlines()) == 2
    # a failing criterion makes the runner exit 1 with a FAIL line and its detail
    failing = (2, "always fails", lambda: (False, "forced mismatch"), 1.0)
    monkeypatch.setattr(verify, "CRITERIA", verify.CRITERIA[:1] + (failing,))
    code, out, _ = run(capsys, "verify", "--suite", "paper")
    assert code == 1
    lines = out.strip().splitlines()
    assert lines[0].startswith("PASS   1")
    assert lines[1].startswith("FAIL   2  always fails") and "forced mismatch" in lines[1]


def test_exit_codes(capsys):
    code, _, err = run(capsys, "invariant", "--graph", "path:zebra")
    assert code == 2
    code, _, err = run(capsys, "invariant", "--graph", "no_such_file.json")
    assert code == 2 and "neither" in err
    code, _, err = run(capsys, "collide", "--n", "9")
    assert code == 3 and "capacity" in err
    code, _, err = run(capsys, "trees", "--n", "15")
    assert code == 3
    code, out, err = run(capsys, "antipode", "--qsym", "M[99999999999999999999999]")
    assert code == 3 and err.startswith("capacity error: ") and err.count("\n") == 1
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
    # an empty token or a repeated vertex is refused, not dropped
    *(
        ("buildset", "--sets", '{"n":2,"sets":[[1],[2]]}', flag, vertices)
        for flag in ("--restrict", "--contract")
        for vertices in ("1,,2", "2,2", "1,", "")
    ),
    ("buildset", "--sets", '{"n":5,"sets":[]}', "--restrict", "9"),
    ("collide", "--n", "0"),
    ("trees", "--n", "0"),
    ("polytope", "--family", "pe", "--n", "-1"),
    ("antipode", "--qsym", "M[,2]"),
    ("antipode", "--qsym", "M[1,,2]"),
    ("antipode", "--qsym", '{"basis":"M","terms":[{"comp":["a"],"coeff":1}]}'),
    ("antipode", "--qsym", '{"basis":"M","terms":[{"comp":[1],"coeff":"x"}]}'),
    ("antipode", "--qsym", '{"basis":"M","terms":5}'),
    ("antipode", "--qsym", '{"basis":"M","terms":[{"comp":5,"coeff":1}]}'),
    ("antipode", "--qsym", '{"basis":"M","terms":[{"comp":[1.5],"coeff":1}]}'),
)


# (argv, the text of the file FILE names, exit code, stdout, stderr)
FILE_INPUTS = (
    (("invariant", "--graph", "FILE"), '{"n":3,"edges":[[1,2],[2,3]]}', 0,
     "recurrence: M[2,1] + 6*M[1,1,1]\n", ""),
    (("buildset", "--sets", "FILE"), '{"n":3,"sets":[[1,2],[1,2,3]]}', 0,
     '{"n": 3, "sets": [[1], [2], [1, 2], [3], [1, 2, 3]]}\n', ""),
    (("fvector", "--graph", "FILE"), "A_\nBw\n", 2,
     "", "input error: fvector expects a single graph\n"),
)


@pytest.mark.parametrize(
    "argv, text, want_code, want_out, want_err",
    FILE_INPUTS,
    ids=["invariant JSON graph file", "buildset file", "fvector two-graph file"],
)
def test_file_inputs(capsys, tmp_path, argv, text, want_code, want_out, want_err):
    f = tmp_path / "input"
    f.write_text(text)
    got = run(capsys, *(str(f) if a == "FILE" else a for a in argv))
    assert got == (want_code, want_out, want_err)


def test_malformed_inputs_exit_cleanly(capsys, tmp_path):
    binary = tmp_path / "binary"
    binary.write_bytes(b"\xff\xfe\x00")
    argvs = [("antipode", "--qsym", q) for q in MALFORMED_QSYM + (str(binary),)]
    for spec in MALFORMED_GRAPHS + (str(binary),):
        argvs += [("invariant", "--graph", spec), ("chromatic", "--graph", spec)]
    for spec in MALFORMED_SETS + (str(binary),):
        argvs += [("buildset", "--sets", spec, "--validate"), ("fvector", "--sets", spec)]
    for argv in argvs:
        code, out, err = run(capsys, *argv)
        assert code in (0, 2, 3), argv
        assert "Traceback" not in out + err, argv
        if code:
            assert err.count("\n") == 1, argv


DEEP = "[" * 5000 + "]" * 5000
LONG = "9" * 5000

MALFORMED_QSYM = (
    "", " ", "0", "M[", "M[1]]", "M[1 2]", "3*", "*M[1]", "+", "M[1] M[2]",
    "M[1] + L[1]", "M[0]", "M[-1]", "L[99999999999999999999999]", "M[20]", "L[5000]",
    LONG + "*M[1]", "M[" + LONG + "]", "x" * 5000, ".", "/",
    "{", "{}", "[]", '{"basis":"M"}', '{"basis":"M","terms":[5]}',
    '{"basis":"M","terms":[{"comp":[1],"coeff":1.5}]}',
    '{"basis":"M","terms":[{"comp":[0],"coeff":1}]}',
    '{"basis":"Q","terms":[]}', '{"basis":["M"],"terms":[]}',
    '{"basis":"M","terms":' + DEEP + "}",
    '{"basis":"M","terms":[{"comp":[1],"coeff":' + LONG + "}]}",
)

MALFORMED_GRAPHS = (
    "path:", "path:-1", "path:0", "path:\u00b2", "path:" + LONG, "path:99999999999",
    "path:999999999", "cycle:2", "complete:40", "kite:4",
    "{", "{}", '{"n":2}', '{"n":2,"edges":[[1,2,3]]}', '{"n":2,"edges":[[1,1]]}',
    '{"n":2,"edges":[[0,1]]}', '{"n":99999999999,"edges":[[1,99999999999]]}',
    '{"n":1e3,"edges":[]}', '{"n":true,"edges":[]}', '{"n":' + LONG + ',"edges":[]}',
    '{"n":2,"edges":' + DEEP + "}", "A", "~", "~~", "B?", "A_x", "@", "x" * 5000, ".", "/",
)

MALFORMED_SETS = (
    "{", "{}", '{"n":2}', '{"n":2,"sets":5}', '{"n":2,"sets":[[]]}', '{"n":2,"sets":[[3]]}',
    '{"n":2,"sets":[["1"]]}', '{"n":99999999999,"sets":[]}',
    '{"n":99999999999,"sets":[[99999999999]]}', '{"n":3,"sets":[[1,2],[2,3]]}',
    '{"n":-1,"sets":[]}', '{"n":2,"sets":' + DEEP + "}", "x" * 5000, ".", "/",
)


def test_argparse_rejects_conflicting_flags(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["polytope", "--family", "as", "--n", "4", "--vertices", "--coords"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["antipode"])
    assert exc.value.code == 2
