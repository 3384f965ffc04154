"""Benchmark entry point.

    python3 perfbench/run.py --workload gol-full --seed 0 --seconds 30 --trace 0

Runs one workload in this process: operations (set-up + solve + check) on
the inputs the seed makes, repeated for about ``--seconds`` and at least
``MIN_OPERATIONS`` times.  The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  ``--workload all`` runs every workload, each in a fresh
process.  Results and traces are also written under ``perfbench/out/``.
See README.md in this directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

# the program under test is the source next to this directory
if not (SRC / "fuseforge" / "__init__.py").is_file():
    sys.exit(f"error: the program's source is missing ({SRC / 'fuseforge'})")
sys.path.insert(0, str(SRC))

from cases import CASES, COUNTERS, LAYER_METRICS  # noqa: E402
from tracing import Tracer, clock_bias  # noqa: E402

MIN_OPERATIONS = 3

END_TO_END = {"setup_s": "s", "solve_s": "s", "peak_rss_mb": "MiB", "exact_count": "count"}


def operation(case, tracer=None):
    """One set-up and solve, each timed; returns (setup, result, setup_s, solve_s)."""
    case.prepare()
    gc.collect()
    t0 = time.perf_counter()
    setup = case.setup(tracer)
    t1 = time.perf_counter()
    if tracer is not None:
        tracer.reset_counters()
    result = case.solve(setup, tracer)
    t2 = time.perf_counter()
    return setup, result, t1 - t0, t2 - t1


class Run:
    """Operations attempted in one run, with what they measured."""

    def __init__(self, case, seconds: int, trace: bool):
        self.case = case
        self.seconds = seconds
        self.trace = trace
        self.start = time.perf_counter()
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.times: dict[str, list[float]] = {"setup": [], "solve": [],
                                               "traced_setup": [], "traced_solve": []}
        self.counts: list = []
        self.layers: list[dict[str, float]] = []
        self.bias: dict = {}
        self.peak_rss_mb: float | None = None

    def more(self, per_round: int, minimum: int) -> bool:
        """Whether another round of ``per_round`` operations fits in the
        run, or the run has not yet attempted ``minimum``."""
        if self.attempted < minimum:
            return True
        elapsed = time.perf_counter() - self.start
        return elapsed + per_round * elapsed / self.attempted <= self.seconds

    def attempt(self, tracer=None) -> None:
        self.attempted += 1
        case = self.case
        try:
            if tracer is None:
                setup, result, setup_s, solve_s = operation(case)
            else:
                since = len(tracer.spans)
                with case.instrument(tracer):
                    setup, result, setup_s, solve_s = operation(case, tracer)
                self.layers.append(layer_times(tracer, since, self.bias))
            if self.peak_rss_mb is None:
                # before the first check, whose reference would count too
                self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            self.problems += case.check(setup, result)
        except Exception:  # a failed operation is counted, and the run goes on
            traceback.print_exc()
            self.failed += 1
            return
        prefix = "" if tracer is None else "traced_"
        print(f"operation {self.attempted}{' (traced)' if tracer else ''}: "
              f"setup {setup_s:.4f} s, solve {solve_s:.4f} s", flush=True)
        self.times[prefix + "setup"].append(setup_s)
        self.times[prefix + "solve"].append(solve_s)
        if tracer is not None:
            self.problems += case.trace_check(setup)
            return
        self.counts.append(case.exact_count(setup, result))
        if self.trace:
            self.layers.append(case.layer_counts(setup, result))


def layer_times(tracer, since: int, bias: dict) -> dict[str, float]:
    """Per-layer times of the traced operation whose spans start at ``since``.

    Counted calls are corrected by ``bias``, the seconds each counter's own
    clock readings add to one call.
    """
    out = {
        "graphgen.generate_s": tracer.duration("graphgen.generate", since),
        "graphgen.partition_s": tracer.duration("graphgen.partition", since),
        "workloads.build_s": tracer.self_time("workloads.build", since),
        "optimizer.pipeline_s": tracer.duration("optimizer.pipeline", since),
        "runtime.compile_s": tracer.duration("runtime.compile", since),
        "pi.setup_normalize_s": tracer.duration("pi.initial_state", since),
    }
    for p in ("refine", "pushdown", "cache", "remote", "local", "merge"):
        out[f"optimizer.{p}_s"] = tracer.duration(f"optimizer.{p}", since)
    for counter, clock in COUNTERS.items():
        seconds, calls = tracer.counter(counter)
        out[f"{counter}_s"] = seconds - calls * bias[clock]
        out[f"{counter}_calls"] = calls
    return out


def median_or_zero(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def measure(case, seconds: int, trace: bool) -> dict:
    run = Run(case, seconds, trace)
    if not trace:
        while run.more(1, MIN_OPERATIONS):
            run.attempt()
    else:
        tracer = Tracer()
        run.bias = {clock: clock_bias(clock) for clock in set(COUNTERS.values())}
        # untraced and traced operations alternate; their difference is the
        # cost of the trace itself
        while run.more(2, 2):
            run.attempt()
            run.attempt(tracer)
        write_json(OUT / f"trace-{case.name}-seed{case.seed}.json",
                   {"workload": case.name, "seed": case.seed, "spans": tracer.spans,
                    "operations": run.layers})
    if len(set(run.counts)) > 1:
        run.problems.append(f"exact count differs between operations: {sorted(set(run.counts))}")
    for p in run.problems:
        print(f"check failed: {p}", file=sys.stderr)
    t = run.times
    if trace:
        metrics = {k: 0.0 for k in LAYER_METRICS}
        for key in {k for layer in run.layers for k in layer}:
            metrics[key] = median_or_zero([layer[key] for layer in run.layers if key in layer])
        if case.solve_layer == "runtime":
            # the untraced solve, so that the counters' own cost is left out
            metrics["runtime.self_s"] = (median_or_zero(t["solve"])
                                         - metrics["workloads.compute_s"])
        metrics["trace.setup_overhead_s"] = (median_or_zero(t["traced_setup"])
                                             - median_or_zero(t["setup"]))
        metrics["trace.solve_overhead_s"] = (median_or_zero(t["traced_solve"])
                                             - median_or_zero(t["solve"]))
        units = LAYER_METRICS
    else:
        metrics = {
            "setup_s": median_or_zero(t["setup"]),
            "solve_s": median_or_zero(t["solve"]),
            "peak_rss_mb": run.peak_rss_mb or 0.0,
            "exact_count": run.counts[0] if run.counts else 0,
        }
        units = END_TO_END
    return {
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def write_json(path: Path, payload: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload) + "\n")


def run_all(args) -> dict:
    """Every workload in its own process, one after another."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in CASES:
        child = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900,
        )
        sys.stderr.write(child.stderr)
        lines = child.stdout.strip().splitlines()
        if child.returncode not in (0, 1) or not lines:
            raise RuntimeError(f"{workload} exited with {child.returncode} and no result")
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        total["correct"] = total["correct"] and result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            total["metrics"][f"{workload}.{metric}"] = entry
    return total


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if args.workload == "all":
        result = run_all(args)
    elif args.workload in CASES:
        case = CASES[args.workload](args.seed)
        result = measure(case, args.seconds, bool(args.trace))
        print(f"{args.workload} seed {args.seed}: {result['attempted']} operations, "
              f"{result['failed']} failed, correct={result['correct']}")
        for metric, entry in result["metrics"].items():
            print(f"  {metric} = {entry['value']} {entry['unit']}")
        write_json(OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json",
                   result)
    else:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(CASES)} or all")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
