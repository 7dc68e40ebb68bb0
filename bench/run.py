"""Benchmark of the `bhk` command line, one workload per run.

    python3 bench/run.py --workload picard-single --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout: it imports `bhk` from `src/` and needs
nothing else. Workloads are `picard-single`, `subgroups-lattice` and
`batch-mixed` (see `workloads.py` for why each was chosen). The seed picks
the documents; the program only sees the generated JSON files.

A run times `import bhk.cli` in fresh interpreters, then starts one fresh
worker process that drives the ops as a closed loop, one op at a time (see
`worker.py`), and checks each op's output against the frozen oracle. Times
are scaled by a probe of the CPU's current speed (see `speed.py`). The last
stdout line is the result: with `--trace 0` the end-to-end metrics, with
`--trace 1` the per-layer metrics from a traced phase of the same worker.
The line before it records the environment, the raw times and the counts
behind the metrics. METRICS.md says which end-to-end metric each per-layer
metric should move, and on which workload.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from spans import COUNTERS, TRACED
from speed import REFERENCE_S, scaled
from workloads import ORACLE, WORKLOADS, generate

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 11
RUN_LIMIT_S = 170

# One setup sample in a fresh interpreter: the probe's median of five, then
# `import bhk.cli`. Only `sys`, `time` and the probe are loaded before it.
IMPORT_PROBE = (
    "import sys, time; sys.path[:0] = sys.argv[1:3]; from speed import probe; "
    "p = sorted(probe() for _ in range(5))[2]; "
    "t = time.perf_counter(); import bhk.cli; print(time.perf_counter() - t, p)"
)


def fail(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def git_sha() -> str | None:
    """The checkout's commit, read from .git without running git; None outside a repository."""
    try:
        head = (ROOT / ".git" / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = ROOT / ".git" / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def setup_samples() -> list[tuple[float, float]]:
    """(import seconds, probe seconds) of fresh interpreters.

    The interpreters may write bytecode, as an installed `bhk` would have it,
    so every sample but the first, which is dropped, loads cached bytecode.
    """
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    samples = []
    for _ in range(SETUP_SAMPLES + 1):
        proc = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE, str(SRC), str(BENCH)],
            capture_output=True,
            text=True,
            timeout=60,
            cwd=ROOT,
            env=env,
        )
        if proc.returncode != 0:
            fail(f"import bhk.cli failed: {proc.stderr.strip()}")
        import_s, probe_s = map(float, proc.stdout.split())
        samples.append((import_s, probe_s))
    return samples[1:]


def p90(values: list[float]) -> tuple[float, int]:
    """The 90th percentile and the number of samples above it."""
    cut = statistics.quantiles(values, n=10)[8]
    return cut, sum(v > cut for v in values)


def end_to_end(raw: dict, setup: list[tuple[float, float]]) -> tuple[dict, dict]:
    """Op times scaled by the probe (see speed.py); the info line keeps them raw."""
    plain = raw["plain"]
    op_s = scaled(plain["op_s"], plain["probe_s"])
    cut, beyond = p90(op_s)
    import_s = [t * REFERENCE_S / p for t, p in setup]
    metrics = {
        "op_ms.p50": (statistics.median(op_s) * 1000, "ms"),
        "op_ms.p90": (cut * 1000, "ms"),
        "docs_per_s": (plain["docs"] / sum(op_s), "1/s"),
        "peak_rss_mb": (raw["peak_rss_mb"], "MB"),
        "correct_ratio": ((plain["docs"] - plain["failed"]) / plain["docs"], "ratio"),
        "setup_s": (statistics.median(import_s), "s"),
    }
    unscaled = plain["op_s"]
    info = {
        "op_ms.p90_samples_beyond": beyond,
        "probe_ms.p50": statistics.median(plain["probe_s"]) * 1000,
        "raw": {
            "op_ms.p50": statistics.median(unscaled) * 1000,
            "op_ms.p90": p90(unscaled)[0] * 1000,
            "docs_per_s": plain["docs"] / sum(unscaled),
            "setup_s": statistics.median(t for t, _ in setup),
        },
    }
    return metrics, info


def per_layer(raw: dict) -> tuple[dict, dict]:
    traced = raw["traced"]
    ops = len(traced["op_s"])
    calls, self_s, raised = traced["calls"], traced["self_s"], traced["raised"]
    metrics = {}
    library_s = 0.0
    for layer, names in TRACED.items():
        layer_s = 0.0
        for name in names:
            qual = f"{layer}.{name}"
            metrics[f"{qual}.calls"] = (calls.get(qual, 0) / ops, "count")
            metrics[f"{qual}.self_ms"] = (self_s.get(qual, 0.0) * 1000 / ops, "ms")
            layer_s += self_s.get(qual, 0.0)
        if layer != "cli":
            library_s += layer_s
            metrics[f"{layer}.self_ms"] = (layer_s * 1000 / ops, "ms")
        metrics[f"{layer}.raised"] = (
            sum(raised.get(f"{layer}.{name}", 0) for name in names) / ops,
            "count",
        )
    # cli.self_ms: op time not covered by any span of the library layers.
    metrics["cli.self_ms"] = ((sum(traced["op_s"]) - library_s) * 1000 / ops, "ms")
    for name in COUNTERS:
        metrics[name] = (traced["counters"].get(name, 0) / ops, "count")
    metrics["docs.rejected_ms"] = (traced["rejected_s"] * 1000 / ops, "ms")
    plain = raw["plain"]
    overhead = statistics.median(scaled(traced["op_s"], traced["probe_s"])) / statistics.median(
        scaled(plain["op_s"], plain["probe_s"])
    )
    metrics["trace.overhead"] = (overhead, "ratio")
    info = {
        "trace.overhead": overhead,
        "traced_ops": ops,
        "absent": traced["absent"],
        "selfcheck": raw["selfcheck"],
    }
    return metrics, info


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    started = perf_counter()

    if not (SRC / "bhk" / "cli.py").is_file():
        fail(f"no src/bhk/cli.py under {ROOT}: run from the root of a checkout")
    if not ORACLE.is_file():
        fail(f"missing oracle {ORACLE}")

    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        files, ops, check_op = generate(args.workload, args.seed, work)
        for path, text in files.items():
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text)
        spec = work / "spec.json"
        spec.write_text(
            json.dumps(
                {
                    "root": str(ROOT),
                    "ops": ops,
                    "selfcheck": check_op,
                    "seconds": args.seconds,
                    "trace": bool(args.trace),
                }
            )
        )
        setup = [] if args.trace else setup_samples()
        try:
            proc = subprocess.run(
                [sys.executable, str(BENCH / "worker.py"), str(spec)],
                capture_output=True,
                text=True,
                timeout=max(1.0, RUN_LIMIT_S - (perf_counter() - started)),
                cwd=ROOT,
            )
        except subprocess.TimeoutExpired:
            fail("worker did not finish in time")
        if proc.returncode != 0:
            fail(f"worker exited with {proc.returncode}: {proc.stderr.strip()[-2000:]}")
        raw = json.loads(proc.stdout.splitlines()[-1])
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    phases = [raw["plain"]] + ([raw["traced"]] if args.trace else [])
    attempted = sum(p["docs"] for p in phases)
    failed = sum(p["failed"] for p in phases)
    correct = failed == 0
    if args.trace:
        metrics, info = per_layer(raw)
        check = raw["selfcheck"]
        correct = correct and check["repeats"] and check["correct"]
    else:
        metrics, info = end_to_end(raw, setup)
    env = {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_sha": git_sha(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "ops": len(raw["plain"]["op_s"]),
        "docs": raw["plain"]["docs"],
        "distinct_ops": len(ops),
    }
    info["failed_ratio"] = {"value": failed / attempted, "unit": "ratio"}
    info["failures"] = [f for p in phases for f in p["failures"]]
    print(json.dumps({"env": env, **info}, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )


if __name__ == "__main__":
    main()
