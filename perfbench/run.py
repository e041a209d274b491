"""nestoqsym benchmark: one workload, one run, one JSON line of metrics.

    python3 perfbench/run.py --workload routes --seed 1 --seconds 12 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``.  Each pass over the jobs runs in a fresh interpreter
(perfbench/worker.py), so module caches start cold, as a command-line user
meets them.

--trace 0 reports the end-to-end metrics: set-up time, correct jobs per
second, median and p90 job latency, and peak resident memory, with times
scaled to a reference host speed (probe.py).  --trace 1 runs a fixed
number of jobs (TRACE_JOBS; --seconds is not used) twice, untraced and
traced, and reports the per-layer metrics plus the tracing overhead.  Before the result line, one
JSON line records the seed, a digest of the generated inputs, the sample
count and the host; the same record is written to .perfbench_runs/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter, time

from probe import at_reference, probe

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
RUNS = ROOT / ".perfbench_runs"
DEADLINE_S = 170  # a run must end within 180 s
IMPORT_SPAWNS = 5

# Jobs in a traced run: fixed, so counts repeat exactly for one seed; sized
# so both passes of a traced run take about 20 s on a 2-core host.
TRACE_JOBS = {"routes": 50, "polytope": 40, "classes": 200, "hopf": 108}

END_TO_END = (
    ("setup_s", "s"),
    ("jobs_per_s", "1/s"),
    ("job_p50_s", "s"),
    ("job_p90_s", "s"),
    ("peak_rss_mib", "MiB"),
)


def fail(msg: str) -> int:
    print(f"perfbench: {msg}", file=sys.stderr)
    return 2


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def remaining(t_start: float) -> float:
    return max(1.0, DEADLINE_S - (perf_counter() - t_start))


def import_seconds(t_start: float) -> tuple:
    """Median time for a fresh interpreter to import nestoqsym: (raw, scaled).

    wait() without a timeout blocks in waitpid; with one, it polls at up to
    50 ms steps, which would round every reading to that grid.  A timer
    kills a child that overruns instead.
    """
    raw, scaled = [], []
    for _ in range(IMPORT_SPAWNS):
        before = probe()
        t0 = perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", "import nestoqsym"], env=child_env(), cwd=ROOT)
        watchdog = threading.Timer(remaining(t_start), proc.kill)
        watchdog.start()
        try:
            code = proc.wait()
        finally:
            watchdog.cancel()
        wall = perf_counter() - t0
        if code != 0:
            raise RuntimeError(f"importing nestoqsym exited {code}")
        raw.append(wall)
        scaled.append(at_reference(wall, (before + probe()) / 2))
    return statistics.median(raw), statistics.median(scaled)


def run_worker(t_start: float, *args) -> dict:
    proc = subprocess.run(
        [sys.executable, str(WORKER), *map(str, args)],
        env=child_env(), cwd=ROOT, capture_output=True, text=True,
        timeout=remaining(t_start),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def host() -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "calibration_s": probe(),
        "loadavg_1m": os.getloadavg()[0],
    }


def percentile(sorted_values: list, q: float) -> float:
    """Linear interpolation between closest ranks, q in [0, 1]."""
    pos = q * (len(sorted_values) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def whole_cycles(r: dict) -> int:
    """Jobs in the run's complete cycles of the job mix (all, if none is)."""
    n = len(r["latencies"])
    return n // r["cycle"] * r["cycle"] or n


def end_to_end(t_start: float, a) -> tuple:
    import_raw, import_scaled = import_seconds(t_start)
    r = run_worker(
        t_start, "--workload", a.workload, "--seed", a.seed, "--seconds", a.seconds
    )
    if not r["latencies"]:
        raise RuntimeError("no job completed")
    # latency metrics cover whole cycles only, so every run has the same mix
    n = whole_cycles(r)
    raw = r["latencies"][:n]
    lat = sorted(map(at_reference, raw, r["probes"][:n]))
    raw = sorted(raw)
    correct = sum(r["ok"][:n])
    values = {
        "setup_s": import_scaled + at_reference(r["program_setup_s"], r["program_setup_probe_s"]),
        # one client, no think time: the timed wall is the sum of latencies
        "jobs_per_s": correct / sum(lat),
        "job_p50_s": percentile(lat, 0.5),
        "job_p90_s": percentile(lat, 0.9),
        "peak_rss_mib": r["peak_rss_kb"] / 1024,
    }
    record = {
        "samples": n,
        "jobs_run": len(r["latencies"]),
        # p90 is resolved only with at least ten samples above it
        "p90_resolved": n >= 100,
        "mean_probe_s": statistics.fmean(r["probes"]),
        "raw": {
            "setup_s": import_raw + r["program_setup_s"],
            "jobs_per_s": correct / sum(raw),
            "job_p50_s": percentile(raw, 0.5),
            "job_p90_s": percentile(raw, 0.9),
        },
    }
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    return r, metrics, record


def traced(t_start: float, a) -> tuple:
    common = ("--workload", a.workload, "--seed", a.seed, "--jobs", TRACE_JOBS[a.workload])
    RUNS.mkdir(exist_ok=True)
    spans = RUNS / f"spans-{a.workload}-seed{a.seed}.tsv.gz"
    plain = run_worker(t_start, *common)
    r = run_worker(t_start, *common, "--trace", 1, "--spans", spans)
    untraced_s, traced_s = (
        sum(map(at_reference, x["latencies"], x["probes"])) for x in (plain, r)
    )
    metrics = dict(r["layers"])
    metrics["trace.overhead_ratio"] = {"value": traced_s / untraced_s, "unit": "ratio"}
    r["failed"] += plain["failed"]
    r["failures"] += plain["failures"]
    record = {
        "samples": len(r["latencies"]),
        "spans": r["spans"],
        "spans_file": str(spans.relative_to(ROOT)),
        "untraced_s": untraced_s,
        "traced_s": traced_s,
    }
    return r, metrics, record


def main(argv=None) -> int:
    t_start = perf_counter()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(TRACE_JOBS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args(argv)
    if not (ROOT / "src" / "nestoqsym" / "__init__.py").is_file():
        return fail(f"no nestoqsym sources under {ROOT / 'src'}; run from a full checkout")

    started = time()
    try:
        r, metrics, record = (traced if a.trace else end_to_end)(t_start, a)
    except (RuntimeError, subprocess.SubprocessError, OSError, ValueError) as exc:
        return fail(str(exc))
    record = {
        "workload": a.workload,
        "seed": a.seed,
        "seconds": a.seconds,
        "trace": a.trace,
        "started_unix": started,
        "input_digest": r["input_digest"],
        "attempted": r["attempted"],
        "failed": r["failed"],
        "fail_ratio": r["failed"] / r["attempted"],
        "failures": r["failures"],
        **record,
        "host": host(),
        "metrics": metrics,
    }
    RUNS.mkdir(exist_ok=True)
    (RUNS / f"{a.workload}-seed{a.seed}-trace{a.trace}.json").write_text(json.dumps(record, indent=1))
    print(json.dumps({k: v for k, v in record.items() if k != "metrics"}))
    print(json.dumps({
        "correct": r["failed"] == 0,
        "attempted": r["attempted"],
        "failed": r["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
