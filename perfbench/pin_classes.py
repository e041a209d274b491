"""Write classes_pinned.json: the value of F and X for every connected
isomorphism class on 7 vertices, keyed by a colour-refinement certificate.

The classes workload checks each job against this file, so it must be
written from code whose values are trusted; it was written from the
original, unoptimized routes.  Takes about 40 s.

    python3 perfbench/pin_classes.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402


def main() -> int:
    graphs = workloads.classes_setup(workloads.classes_inputs(0))
    results = [workloads.classes_compute(g) for g in graphs]
    pins = {
        "summary": workloads.classes_summary(results),
        "buckets": workloads.pinned_buckets(results),
    }
    workloads.PINNED_CLASSES.write_text(json.dumps(pins, indent=0, sort_keys=True) + "\n")
    print(json.dumps(pins["summary"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
