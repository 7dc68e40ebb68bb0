"""Closed-loop driver for one benchmark run, in a fresh interpreter.

    python3 bench/worker.py SPEC_JSON

`run.py` writes the spec: the checkout root, the ops with their expected
outcomes, the seconds to measure and whether to trace. The worker imports
`bhk` from the checkout's `src/` and calls `bhk.cli.main(argv)` for one op
after another, in this one thread: the next op starts when the previous one
returns. Each op is timed with its stdout and stderr captured, and is
checked against its expected outcome outside the timed region. A wrong
outcome or an uncaught exception fails the op's documents and the run goes
on. The worker prints one JSON line of raw results.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
from pathlib import Path
from time import perf_counter

from spans import Tracer
from speed import probe

# Calls one traced `bhk picard` on (2,3,7,42) with SL makes at the commit that
# defined the benchmark. A later change may move them; the run reports the
# comparison and fails only when two traced runs of the op disagree.
SEED_COUNTS = {
    "delsarte.build_delsarte": 5,
    "symmetry.aut_group": 9,
    "duality.dual_group": 3,
    "picard.transcendental_set": 6,
    "duality.pairing": 5964,
}
MAX_REPORTED_FAILURES = 5


def outcomes(op: dict, status, stdout: str) -> list[tuple[bool, bool, str]]:
    """(correct, ended rejected, reason) for each document of a finished op."""
    if "out" not in op:
        ok = status == op["status"] and stdout == op["stdout"]
        return [(ok, status != 0, "" if ok else f"{op['argv']}: status {status} or report differs")]
    expected = op["lines"]
    try:
        lines = Path(op["out"]).read_text().splitlines()
    except OSError as err:
        lines, status = [], f"{status} ({err})"
    if status != op["status"] or len(lines) != len(expected):
        why = f"{op['argv']}: status {status}, {len(lines)} lines for {len(expected)} documents"
        return [(False, True, why)] * len(expected)
    result = []
    for want, line in zip(expected, lines):
        got = json.loads(line)
        rejected = got.get("status") != "ok"
        if "line" in want:
            ok = line == want["line"]
        else:
            error = got.get("error", {})
            ok = got.get("file") == want["file"] and rejected and error.get("category") == want["category"]
        result.append((ok, rejected, "" if ok else f"{op['argv'][1]}/{want['file']}: {line[:200]}"))
    return result


def run_op(main, op: dict) -> tuple[float, list[tuple[bool, bool, str]]]:
    """Time one op and score its documents."""
    if "out" in op:
        Path(op["out"]).unlink(missing_ok=True)
    out, err = io.StringIO(), io.StringIO()
    start = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            status = main(op["argv"])
    except (Exception, SystemExit) as exc:
        elapsed = perf_counter() - start
        return elapsed, [(False, True, f"{op['argv']}: uncaught {type(exc).__name__}: {exc}")] * op["docs"]
    elapsed = perf_counter() - start
    return elapsed, outcomes(op, status, out.getvalue())


class Phase:
    """Op times and document outcomes of one measuring phase."""

    def __init__(self, tracer: Tracer | None = None):
        self.tracer = tracer
        self.op_s: list[float] = []
        self.probe_s: list[float] = []
        self.docs = 0
        self.failed = 0
        self.failures: list[str] = []
        self.rejected_s = 0.0

    def add(self, elapsed: float, docs: list[tuple[bool, bool, str]]) -> None:
        self.op_s.append(elapsed)
        self.docs += len(docs)
        for ok, _, why in docs:
            if not ok:
                self.failed += 1
                if len(self.failures) < MAX_REPORTED_FAILURES:
                    self.failures.append(why)
        if self.tracer is not None:
            self.rejected_s += self._rejected_time(elapsed, docs)
            self.tracer.doc_starts.clear()

    def _rejected_time(self, elapsed: float, docs) -> float:
        """Op time of the documents that ended rejected, split at each parse_input call."""
        starts = self.tracer.doc_starts
        if len(docs) == 1 or len(starts) != len(docs):
            return elapsed if any(rejected for _, rejected, _ in docs) else 0.0
        ends = starts[1:] + [self.tracer.last_end]
        return sum(end - start for (_, rejected, _), start, end in zip(docs, starts, ends) if rejected)

    def run(self, main, ops: list[dict], seconds: float, whole_passes: bool) -> None:
        """Ops in order, round and round, until `seconds` have gone; at least one pass.

        With `whole_passes` the phase ends only at the end of a pass (the one
        closest to `seconds`), so every op runs equally often and per-op
        counts repeat exactly from run to run.
        """
        start = perf_counter()
        passes = 0
        while True:
            for op in ops:
                self.probe_s.append(probe())
                self.add(*run_op(main, op))
                if passes and not whole_passes and perf_counter() - start >= seconds:
                    return
            passes += 1
            elapsed = perf_counter() - start
            if elapsed + (elapsed / passes / 2 if whole_passes else 0) >= seconds:
                return

    def dump(self) -> dict:
        return {
            "op_s": self.op_s,
            "probe_s": self.probe_s,
            "docs": self.docs,
            "failed": self.failed,
            "failures": self.failures,
            "rejected_s": self.rejected_s,
        }


def selfcheck(main, tracer: Tracer, op: dict) -> dict:
    """Trace the self-check op twice; its counts must repeat exactly."""
    runs = []
    for _ in range(2):
        tracer.reset()
        _, docs = run_op(main, op)
        runs.append({name: tracer.calls[name] for name in SEED_COUNTS})
    tracer.reset()
    return {
        "counts": runs[0],
        "repeats": runs[0] == runs[1],
        "correct": docs[0][0],
        "matches_seed": runs[0] == SEED_COUNTS,
    }


def main() -> None:
    spec = json.loads(Path(sys.argv[1]).read_text())
    src = Path(spec["root"]) / "src"
    sys.path.insert(0, str(src))
    import bhk.cli

    if not Path(bhk.cli.__file__).resolve().is_relative_to(src.resolve()):
        sys.exit(f"imported bhk from {bhk.cli.__file__}, not from {src}")
    cli_main = bhk.cli.main
    ops, seconds, trace = spec["ops"], spec["seconds"], spec["trace"]

    run_op(cli_main, ops[0])  # warm-up, not counted
    plain = Phase()
    plain.run(cli_main, ops, seconds / 2 if trace else seconds, whole_passes=False)
    result = {"plain": plain.dump()}
    if trace:
        tracer = Tracer()
        tracer.install()
        result["selfcheck"] = selfcheck(cli_main, tracer, spec["selfcheck"])
        traced = Phase(tracer)
        traced.run(cli_main, ops, seconds / 2, whole_passes=True)
        result["traced"] = traced.dump()
        result["traced"].update(
            calls=dict(tracer.calls),
            self_s=dict(tracer.self_s),
            raised=dict(tracer.raised),
            counters=dict(tracer.counters),
            absent=tracer.absent,
        )
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(result))


if __name__ == "__main__":
    main()
