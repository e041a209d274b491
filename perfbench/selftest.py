"""Self-test of the benchmark's checkers and tracer; about 10 s.

For each workload it runs a few jobs through the same closed loop the
benchmark uses, once as computed and once with the first result replaced by
a deliberately wrong one, and requires the wrong result, and only it, to be
counted as failed.  It also feeds the classes whole-run check a sweep with
one changed value, and checks that tracing restores every binding it
replaced.

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import nestoqsym as nq  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402
from worker import closed_loop  # noqa: E402

JOBS = 3


def sample_jobs(name: str) -> list:
    w = workloads.WORKLOADS[name]
    if name == "classes":
        # any connected 7-vertex graph is a class; skips the 12 s enumeration
        return [nq.family(kind, 7) for kind in ("path", "cycle", "star")]
    jobs = iter(w["make_inputs"](1))
    return [next(jobs) for _ in range(JOBS)]


def check_workload(name: str) -> list:
    w = workloads.WORKLOADS[name]
    jobs = sample_jobs(name)
    problems = []
    clean = closed_loop(w, jobs, max_jobs=JOBS)
    if clean["failures"]:
        problems.append(f"{name}: clean run failed: {clean['failures']}")
    bad = closed_loop(w, jobs, max_jobs=JOBS, corrupt_at=0)
    if len(bad["failures"]) != 1 or not bad["failures"][0].startswith("job 0:"):
        problems.append(f"{name}: a wrong first result gave failures {bad['failures']}")
    print(f"{name}: clean failed {len(clean['failures'])}/{clean['attempted']}, "
          f"corrupted failed {len(bad['failures'])}/{bad['attempted']}")
    return problems


def check_sweep() -> list:
    """The whole-run check of classes accepts the pins and rejects a change."""
    pins = workloads.pins()["buckets"]
    sweep = [(key, f, x) for key, pairs in pins.items() for f, x in pairs]
    problems = []
    if workloads.classes_finish(sweep) is not None:
        problems.append("classes: the pinned sweep itself fails the whole-run check")
    key, f, x = sweep[0]
    changed = [(key, f, sweep[1][2])] + sweep[1:]
    if workloads.classes_finish(changed) is None:
        problems.append("classes: a sweep with one changed X value passed")
    print(f"classes whole-run check: {len(sweep)} pinned classes, one changed value caught")
    return problems


def check_tracer() -> list:
    """Spans are recorded through imported names, and every binding comes back."""
    from nestoqsym import invariants, nestopoly, qsym

    originals = (invariants.mul, nestopoly.maximal_members, nq.F_splitting, qsym.mul)
    tracer = tracing.Tracer()
    tracer.install()
    tracer.active = True
    b = nq.from_graph(nq.family("path", 4))
    nq.maximal_nested_sets(b)  # calls maximal_members through nestopoly's import
    invariants.F_of_hopf(nq.takeuchi_antipode(b))  # mul through invariants' import
    tracer.active = False
    tracer.restore()
    totals = tracer.totals()
    problems = []
    now = (invariants.mul, nestopoly.maximal_members, nq.F_splitting, qsym.mul)
    if any(was is not back for was, back in zip(originals, now)):
        problems.append("tracer: a binding was not restored")
    for name in ("nestopoly.maximal_nested_sets", "buildset.maximal_members",
                 "invariants.F_of_hopf", "qsym.mul"):
        if totals[name][0] == 0:
            problems.append(f"tracer: no span for {name}")
    print(f"tracer: {len(tracer.span_start)} spans, {len(tracer.bindings)} bindings left")
    return problems


def main() -> int:
    problems = []
    for name in workloads.WORKLOADS:
        problems += check_workload(name)
    problems += check_sweep()
    problems += check_tracer()
    for p in problems:
        print("FAIL", p)
    print("self-test", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
