"""A fixed reference computation that measures how fast the CPU runs right now.

On the 2-vCPU machine the benchmark was defined on, the same op took from 35
to 54 ms in windows a few seconds apart, and whole runs drifted by a factor
of 1.6 over minutes, while an op's time over the probe's time, taken side by
side, mostly stayed within 5%. So the benchmark runs `probe()` before every
op and reports op times scaled to the CPU speed at which the probe takes
`REFERENCE_S`; the info line keeps the raw times. The probe gains more than
the ops do when the CPU runs at its fastest, so scaling then overshoots.
"""

from __future__ import annotations

from time import perf_counter

REFERENCE_S = 0.002


def probe() -> float:
    """Seconds taken by a closure in (Z/36)^4, shaped like the program's inner loops."""
    n = 36
    gens = ((1, 5, 7, 23), (0, 6, 12, 18), (9, 0, 3, 0))
    start = perf_counter()
    seen = {(0, 0, 0, 0)}
    frontier = [(0, 0, 0, 0)]
    while frontier:
        x = frontier.pop()
        for g in gens:
            y = ((x[0] + g[0]) % n, (x[1] + g[1]) % n, (x[2] + g[2]) % n, (x[3] + g[3]) % n)
            if y not in seen:
                seen.add(y)
                frontier.append(y)
    elapsed = perf_counter() - start
    if len(seen) != 1296:
        raise AssertionError(f"probe closure has {len(seen)} elements, expected 1296")
    return elapsed


def scaled(times: list[float], probes: list[float], window: int = 10) -> list[float]:
    """Each time scaled by REFERENCE_S over the median of the probes within `window` of it."""
    out = []
    for i, t in enumerate(times):
        near = sorted(probes[max(0, i - window) : i + window + 1])
        out.append(t * REFERENCE_S / near[len(near) // 2])
    return out
