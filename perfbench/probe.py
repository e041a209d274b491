"""Host-speed probe shared by run.py and its workers."""

from time import perf_counter

# Times are reported at a reference host speed: scaled by REF_PROBE_S over
# the probe time measured around them.  0.5 ms is the probe on an idle
# 2-core x86-64 host under CPython 3.11.
REF_PROBE_S = 0.0005


def probe() -> float:
    """Seconds for a fixed pure-Python loop: the host's speed right now.

    The host is shared, and its speed drifts by up to a factor of two over
    seconds to minutes.  Probes bracket every job, so each job's latency can
    be read against the host speed it ran at.  Median of three, so that one
    preempted probe does not count.
    """
    walls = []
    for _ in range(3):
        t0 = perf_counter()
        d = {}
        acc = 0
        for i in range(3000):
            k = i & 63
            d[k] = d.get(k, 0) + (i * i) % 7
            acc += len((k, i))
        walls.append(perf_counter() - t0)
    return sorted(walls)[1]


def at_reference(seconds: float, probe_s: float) -> float:
    """A time measured while the probe took probe_s, scaled to REF_PROBE_S."""
    return seconds * REF_PROBE_S / probe_s
