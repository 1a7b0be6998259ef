"""End-to-end and per-layer benchmark of apmsim's batch CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; apmsim is imported from its src/
directory. The seed selects the generated inputs (inputs.py), which are
written to a scratch directory inside the checkout and removed afterwards.
Operations call the public entry point apmsim.cli.main(argv) in-process, one
after another (closed loop, one client, no extra threads).

Every run first executes the gate: one small default-seed input for each
CLI command, whose output must equal the expected files under golden/.
Every operation is then checked (checks.py); any failure makes the run exit
with code 1.

--trace 0 measures the end-to-end metrics: setup_s (median over fresh
interpreters that import apmsim.cli and load the workload's first input,
started at even intervals between the operations of the timed loop),
peak_rss_mb, and op_time_rel over a timed loop that starts after one untimed
warm-up operation and cycles through the workload's input pool. Latency is
the time inside cli.main; checks between operations are not timed.
op_time_rel is the median over operations of each operation's latency
divided by the mean latency of a fixed pure-Python reference loop
(calibration.py) timed just before and just after it. On a shared host whose
speed shifts by up to 2x for seconds at a time, the raw latencies of a run
follow the share of time spent in each state; the ratio does not. The run
record line also shows the raw latencies in ms (op_best_ms: each input's
fastest invocation, averaged over the inputs; op_p50_ms; op_p90_ms with at
least 100 timed operations), ops_per_s, the reference loop's median time and
error_rate. Those are not gated.

--trace 1 alternates untraced and traced passes, each pass being the gate
plus the workload's whole input pool. Per-layer counts come from one traced
pass and must repeat exactly in every traced pass; self times are medians
over traced passes; trace.ops_per_s_ratio is traced over untraced ops_per_s.

The last line of stdout is the result as one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
import warnings
from pathlib import Path
from time import perf_counter

import calibration
import checks
import inputs
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".perfbench_tmp"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# Fresh interpreters timed for setup_s, after one untimed start that fills
# the bytecode cache.
SETUP_REPEATS = 5
# op_p90_ms is shown only when at least ten samples lie beyond it.
P90_MIN_OPS = 100


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_program():
    """apmsim.cli from this checkout's src/, never from anywhere else."""
    if not (SRC / "apmsim" / "cli.py").is_file():
        sys.exit(f"perfbench: no apmsim sources at {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import apmsim.cli

    if Path(apmsim.cli.__file__).resolve().parent != SRC / "apmsim":
        sys.exit(f"perfbench: imported apmsim from {apmsim.cli.__file__}, not {SRC}")
    return apmsim.cli


class Runner:
    """Runs operations through cli.main and checks each one."""

    def __init__(self, cli) -> None:
        self.cli = cli
        self.attempted = 0
        self.failed = 0
        self.bytes_out = 0
        self.rule_warnings = 0
        self._warnings: list[warnings.WarningMessage] = []
        self._first: dict[str, tuple[str, str | None]] = {}

    @contextlib.contextmanager
    def capturing_warnings(self):
        """Record every warning instead of printing it, so stderr output does
        not enter the timings and design-rule warnings can be counted."""
        with warnings.catch_warnings(record=True) as log:
            warnings.simplefilter("always")
            self._warnings = log
            yield

    def run(self, op: inputs.Op, golden: bool = False) -> float:
        """Run one operation, check it, and return its latency in seconds."""
        if op.out is not None:
            op.out.unlink(missing_ok=True)
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            start = perf_counter()
            try:
                rc = self.cli.main(op.argv)
            except SystemExit as exc:
                rc = exc.code
            except Exception:
                rc = None
                traceback.print_exc()
            elapsed = perf_counter() - start
        stdout = buf.getvalue()
        out_text = op.out.read_text(encoding="utf-8") if op.out is not None and op.out.is_file() else None
        self.rule_warnings += sum(issubclass(w.category, UserWarning) for w in self._warnings)
        self._warnings.clear()
        self.bytes_out += len(stdout.encode()) + (len(out_text.encode()) if out_text else 0)

        try:
            errors = checks.check_op(op, rc, stdout, out_text)
            if golden and not errors:
                errors = checks.check_golden(op, stdout, out_text)
        except (ValueError, LookupError, TypeError) as exc:
            errors = [f"{op.key}: malformed output ({exc!r})"]
        first = self._first.setdefault(op.key, (stdout, out_text))
        if not errors and first != (stdout, out_text):
            errors = [f"{op.key}: output differs from the first run of the same input"]
        self.attempted += 1
        if errors:
            self.failed += 1
            for error in errors[:5]:
                print(f"perfbench: FAILED {error}", file=sys.stderr)
        return elapsed

    def run_pass(self, ops: list[inputs.Op], gate: list[inputs.Op]) -> float:
        """Gate plus one run of every pool input; returns summed latency."""
        return sum(self.run(op, golden=True) for op in gate) + sum(self.run(op) for op in ops)


def setup_probe(probe_args: list[str]) -> float:
    """Seconds for a fresh interpreter to import apmsim.cli and load the
    workload's first input."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    start = perf_counter()
    proc = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), *probe_args],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    elapsed = perf_counter() - start
    if proc.returncode != 0:
        sys.exit(f"perfbench: setup probe failed ({proc.returncode}): {proc.stderr.strip()}")
    return elapsed


def end_to_end(runner: Runner, ops, gate, seconds: float, probe_args) -> tuple[dict, dict]:
    setup_probe(probe_args)
    for op in gate:
        runner.run(op, golden=True)
    runner.run(ops[0])
    latencies, relative, loops = [], [], []
    best: dict[str, float] = {}
    setup = []
    # The set-up probes are spread over the timed loop, between operations,
    # so that they sample the machine at several moments of the run.
    start = perf_counter()
    deadline = start + seconds
    before = calibration.time_loop()
    while not latencies or perf_counter() < deadline or len(setup) < SETUP_REPEATS:
        if len(setup) < SETUP_REPEATS and perf_counter() >= start + seconds * len(setup) / SETUP_REPEATS:
            setup.append(setup_probe(probe_args))
            before = calibration.time_loop()
            continue
        op = ops[len(latencies) % len(ops)]
        latency = runner.run(op)
        after = calibration.time_loop()
        latencies.append(latency)
        relative.append(2.0 * latency / (before + after))
        loops.append(after)
        best[op.key] = min(latency, best.get(op.key, latency))
        before = after
    metrics = {
        "op_time_rel": (statistics.median(relative), "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "setup_s": (statistics.median(setup), "s"),
    }
    shown = {
        "setup samples": len(setup),
        "timed ops": len(latencies),
        "inputs": len(best),
        "op_best_ms": 1e3 * statistics.fmean(best.values()),
        "ops_per_s": len(latencies) / sum(latencies),
        "op_p50_ms": 1e3 * statistics.median(latencies),
        "reference_loop_p50_ms": 1e3 * statistics.median(loops),
    }
    if len(latencies) >= P90_MIN_OPS:
        p90 = statistics.quantiles(latencies, n=10, method="inclusive")[-1]
        shown["op_p90_ms"] = 1e3 * p90
        shown["samples beyond p90"] = sum(x > p90 for x in latencies)
    return metrics, shown


def per_layer(runner: Runner, ops, gate, seconds: float) -> tuple[dict, dict]:
    tracer = tracing.Tracer()
    runner.run(ops[0])
    untraced, traced, passes = [], [], []
    deadline = perf_counter() + seconds
    while not traced or perf_counter() < deadline:
        untraced.append(runner.run_pass(ops, gate))
        lo, cells, out, warned = len(tracer), tracer.frechet_cells, runner.bytes_out, runner.rule_warnings
        tracer.install()
        try:
            traced.append(runner.run_pass(ops, gate))
        finally:
            tracer.uninstall()
        counts, times = tracer.summarize(lo, len(tracer))
        extra = {
            "validation.frechet_cells": tracer.frechet_cells - cells,
            "cli.bytes_out": runner.bytes_out - out,
            "geometry.rule_warnings": runner.rule_warnings - warned,
        }
        passes.append(tracing.layer_metrics(counts, times, extra))

    values = dict(passes[0])
    for name in tracing.COUNTS + tracing.EXACT_RATIOS:
        if any(p[name] != values[name] for p in passes):
            runner.failed += 1
            print(f"perfbench: FAILED count {name} differs between traced passes", file=sys.stderr)
    for name in tracing.SELF_TIMES:
        values[name] = statistics.median(p[name] for p in passes)
    # The gate runs every command in every pass, so no base below is zero.
    values["validation.frechet_cells_per_s"] = (
        values["validation.frechet_cells"] / values["validation.discrete_frechet.self_s"]
    )
    values["trace.ops_per_s_ratio"] = statistics.median(untraced) / statistics.median(traced)
    metrics = {name: (value, tracing.unit_of(name)) for name, value in values.items()}
    shown = {"traced passes": len(traced), "untraced passes": len(untraced), "spans": len(tracer)}
    return metrics, shown


def run_record(args, runner: Runner, shown: dict) -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "ops_attempted": runner.attempted,
        "ops_failed": runner.failed,
        "error_rate": runner.failed / runner.attempted,
        **shown,
    }


def measure(cli, workload: str, seed: int, seconds: float, trace: int, workdir: Path):
    """Write the inputs into workdir and run one measurement; returns the
    runner (for its counts), the metrics and the values shown beside them."""
    ops = inputs.workload_ops(workload, seed, workdir)
    gate = inputs.gate_ops(workdir)
    runner = Runner(cli)
    with runner.capturing_warnings():
        if trace:
            metrics, shown = per_layer(runner, ops, gate, seconds)
        else:
            metrics, shown = end_to_end(runner, ops, gate, seconds, inputs.first_input(workload, ops))
    return runner, metrics, shown


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    cli = import_program()
    workdir = SCRATCH / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        runner, metrics, shown = measure(cli, args.workload, args.seed, args.seconds, args.trace, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            SCRATCH.rmdir()

    for name, (value, unit) in metrics.items():
        print(f"{args.workload:>15} {name:<42} {value:>16.6f} {unit}")
    print(f"{args.workload:>15} record {json.dumps(run_record(args, runner, shown))}")
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if runner.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
