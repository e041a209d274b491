"""One benchmark pass in a fresh interpreter, so module caches start cold.

Runs one workload's closed loop and prints one JSON object on stdout:
per-job latencies, attempted and failed job counts, the first failure
reasons, the program's own set-up time, peak resident memory and, when
traced, the per-layer metrics.

    python3 perfbench/worker.py --workload routes --seed 1 --seconds 12
    python3 perfbench/worker.py --workload routes --seed 1 --jobs 50 --trace 1

run.py starts it; it is not meant to be run by hand except for debugging.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
from itertools import chain, islice
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import nestoqsym  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402
from probe import at_reference, probe  # noqa: E402

RAW_CAP = 2.5
DIGEST_JOBS = 100
_END = object()


def closed_loop(w: dict, jobs, seconds=None, max_jobs=None, corrupt_at=None,
                clock=perf_counter) -> dict:
    """Issue each job after the previous one returns; check every result.

    Stops after `max_jobs` jobs, when the jobs run out, or once the jobs have
    taken `seconds` at the reference host speed, so that a slow spell on the
    host does not change which jobs a run covers.  That stop waits for the
    end of the workload's input cycle, so every run holds whole cycles of
    the job mix.  A run is still cut after RAW_CAP times `seconds` of wall
    time.  When the jobs run out, the workload's check over the whole run
    (`finish`) counts as one more attempted item.  Each job's probe time is
    the mean of the probes taken just before and just after it.
    """
    compute, check = w["compute"], w["check"]
    latencies, probes, ok, failures, results = [], [], [], [], []
    last_probe = probe()
    t0, elapsed, exhausted = clock(), 0.0, False
    todo = iter(jobs)
    cycle = w["cycle"]
    while max_jobs is None or len(latencies) < max_jobs:
        if seconds is not None and (
            elapsed >= seconds and len(latencies) % cycle == 0
            or clock() - t0 >= RAW_CAP * seconds
        ):
            break
        job = next(todo, _END)
        if job is _END:
            exhausted = True
            break
        i = len(latencies)
        start = clock()
        try:
            result = compute(job)
            if i == corrupt_at:
                result = w["corrupt"](result)
            reason = check(job, result)
        except Exception as exc:  # a job that raises is a failed job
            reason = f"{type(exc).__name__}: {exc}"
        end = clock()
        latencies.append(end - start)
        p = probe()
        probes.append((last_probe + p) / 2)
        elapsed += at_reference(end - start, probes[-1])
        last_probe = p
        ok.append(reason is None)
        if reason is None:
            results.append(result)
        else:
            failures.append(f"job {i}: {reason}")
    attempted = len(latencies)
    if exhausted and not failures:
        attempted += 1
        reason = w["finish"](results)
        if reason is not None:
            failures.append(f"whole run: {reason}")
    return {
        "latencies": latencies, "probes": probes, "ok": ok,
        "failures": failures, "attempted": attempted,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--jobs", type=int)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    ap.add_argument("--spans", help="gzip file for the spans of a traced pass")
    args = ap.parse_args(argv)

    if Path(nestoqsym.__file__).resolve().parent != SRC / "nestoqsym":
        print(f"imported nestoqsym from {nestoqsym.__file__}, not {SRC}", file=sys.stderr)
        return 2
    w = workloads.WORKLOADS[args.workload]
    inputs = iter(w["make_inputs"](args.seed))
    head = list(islice(inputs, DIGEST_JOBS))
    inputs = chain(head, inputs)

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
        tracer.active = True
    before = probe()
    t_setup = perf_counter()
    jobs = w["setup"](inputs)
    setup_s = perf_counter() - t_setup
    setup_probe = (before + probe()) / 2
    # the counting work done in untimed() is not job time
    loop = closed_loop(w, jobs, args.seconds, args.jobs, clock=tracer.clock if tracer else perf_counter)
    out = {
        "input_digest": workloads.digest(head),
        "attempted": loop["attempted"],
        "failed": len(loop["failures"]),
        "failures": loop["failures"][:5],
        "cycle": w["cycle"],
        "latencies": loop["latencies"],
        "probes": loop["probes"],
        "ok": loop["ok"],
        "program_setup_s": setup_s,
        "program_setup_probe_s": setup_probe,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        tracer.active = False
        tracer.restore()
        values = tracer.layer_metrics()
        out["layers"] = {
            name: {"value": values[name], "unit": unit}
            for name, unit in tracing.metric_names()
            if name in values
        }
        out["spans"] = len(tracer.span_start)
        if args.spans:
            tracer.write(args.spans)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
