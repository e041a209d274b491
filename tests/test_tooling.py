"""The repository's tooling agrees with the program and with README.

The benchmark's tracer (perfbench/tracing.py, read here and never changed
from here) reports per-layer metrics on functions it finds by name, and CI
checks the output digests that README lists.
"""

import importlib.util
import re
from pathlib import Path

import nestoqsym as nq
from nestoqsym import invariants
from nestoqsym.graphs import family

ROOT = Path(__file__).resolve().parent.parent


def _tracing():
    path = ROOT / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_traced_metrics_name_public_functions():
    # Tracer.layer_metrics reads every SELF_S and CALLS name from the spans
    # of the functions targets() found, and raises KeyError on any other
    tracing = _tracing()
    traced = {name for name, _ in tracing.targets()}
    assert [name for name in tracing.SELF_S + tracing.CALLS if name not in traced] == []


def test_a_traced_hopf_job_reports_every_layer_metric():
    tracing = _tracing()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.active = True
        b = nq.from_graph(family("path", 4))
        # called through the bindings the tracer replaced
        assert invariants.F_of_hopf(nq.takeuchi_antipode(b)) == nq.antipode(nq.F_splitting(b))
    finally:
        tracer.active = False
        tracer.restore()
    metrics = tracer.layer_metrics()
    assert {name for name, _ in tracing.metric_names()} - set(metrics) == {"trace.overhead_ratio"}
    # the observer counts len(result.terms) of each Takeuchi antipode
    assert tracer.takeuchi_words == len(nq.takeuchi_antipode(b).terms) > 0


def _workflow_rows() -> list:
    text = (ROOT / ".github" / "workflows" / "tests.yml").read_text()
    block = re.search(r"<<'ROWS'\n(.*?)\n\s*ROWS\n", text, re.S).group(1)
    return [" ".join(line.split()) for line in block.splitlines()]


def _readme_rows() -> list:
    text = (ROOT / "README.md").read_text()
    block = re.search(r"### Output digests\n.*?```text\n(.*?)```", text, re.S).group(1)
    return [" ".join(line.split()) for line in block.splitlines()]


def test_readme_lists_the_digests_ci_checks():
    rows = _workflow_rows()
    assert rows and all(re.fullmatch(r"[0-9a-f]{16} \S.*", row) for row in rows)
    assert _readme_rows() == rows
    # a digest quoted in README's prose is one of the checked rows
    quoted = set(re.findall(r"`([0-9a-f]{16})`", (ROOT / "README.md").read_text()))
    assert quoted <= {row.split()[0] for row in rows}
