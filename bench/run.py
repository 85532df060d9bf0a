"""Benchmark of the besum CLI verbs, driven in-process.

    python3 bench/run.py --workload rational-sums --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout: besum is imported from ./src.
One process and one thread act as a closed-loop caller: each op starts
only after the previous one has ended and been checked.  The seed builds
the op deck (workloads.py); the program sees only the generated
arguments and input files.  Every op's output is checked by an oracle
(oracles.py) outside the timed region.

Times are process CPU time (time.process_time), not wall time.  On a
2-vCPU virtual machine shared with other tenants, a fixed Python loop's
wall time varied 0.36-0.85 s from one second to the next while its CPU
time stayed within 0.33-0.43 s.  The ops are CPU-bound and, with the
numeric libraries pinned to one thread below, run on the calling thread
alone, so their CPU time is their latency minus the periods in which the
host gave the CPU to someone else.

--trace 0 runs whole cycles of the deck, repeating it if needed, until
the ops have taken --seconds of CPU time, and reports the end-to-end
metrics.  Between cycles it takes set-up samples (see `measure_end_to_end`).
--trace 1 runs each op of the first cycles of the deck
(workloads.TRACE_CYCLES) untraced and then traced (tracing.py), and
reports the per-layer metrics of the traced runs and their extra time
over the untraced ones.  Known-defect inputs run once after the
measurement and are reported on stderr only.  The last line of stdout
is one JSON object.
"""

from __future__ import annotations

import os

if __name__ == "__main__":
    # One thread: numpy's BLAS must not start workers (set before numpy loads).
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[_var] = "1"

import argparse
import gc
import importlib
import itertools
import json
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from click.testing import CliRunner

import oracles  # noqa: E402  (after the thread settings above)
import tracing  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
# Set-up samples: at least SETUP_MIN, spread evenly over the run, and more
# while their CPU time is under SETUP_SHARE of the ops' time.
SETUP_SHARE = 0.05
SETUP_MIN = 5


@dataclass
class Outcome:
    elapsed: float
    error: str | None
    bytes_out: int


@dataclass
class Pass:
    latencies: list[float] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)
    bytes_out: int = 0

    @property
    def busy(self) -> float:
        """CPU seconds spent in ops."""
        return sum(self.latencies)

    def add(self, op: workloads.Op, out: Outcome) -> None:
        self.latencies.append(out.elapsed)
        self.bytes_out += out.bytes_out
        if out.error is not None:
            self.failures.append(f"{' '.join(op.argv)}: {out.error}")


def _besum_modules() -> dict:
    return {name: mod for name, mod in sys.modules.items() if name.split(".")[0] == "besum"}


def import_besum():
    """A fresh import of besum.cli (third-party modules stay loaded)."""
    for name in _besum_modules():
        del sys.modules[name]
    return importlib.import_module("besum.cli").main


def set_up(workload: str, seed: int, workdir: Path, cycles: int | None = None):
    """The benchmark's set-up: a fresh import of besum and the seeded deck. Returns (main, deck)."""
    shutil.rmtree(workdir, ignore_errors=True)
    return import_besum(), workloads.build(workload, seed, workdir, cycles)


def time_set_up(workload: str, seed: int, workdir: Path) -> float:
    """CPU seconds of one more set-up, made aside.

    The besum modules in use are put back afterwards, so the ops keep
    running on the modules and deck they started with.  A full collection
    first gives every sample the same heap to start from.
    """
    kept = _besum_modules()
    gc.collect()
    start = time.process_time()
    set_up(workload, seed, workdir)
    elapsed = time.process_time() - start
    for name in _besum_modules():
        del sys.modules[name]
    sys.modules.update(kept)
    shutil.rmtree(workdir, ignore_errors=True)
    return elapsed


def execute(runner, main, op: workloads.Op, tracer: tracing.Tracer | None = None) -> Outcome:
    """Run one op, then check it; only the invocation is timed."""
    start = time.process_time()
    if tracer is None:
        result = runner.invoke(main, op.argv)
    else:
        result = tracer.call("cli", runner.invoke, main, op.argv)
    elapsed = time.process_time() - start
    error = None
    if result.exception is not None and not isinstance(result.exception, SystemExit):
        error = f"traceback: {type(result.exception).__name__}: {result.exception}"
    elif result.exit_code != 0:
        error = f"exit {result.exit_code}: {result.output.strip()[-200:]}"
    else:
        try:
            oracles.check(op, result.stdout)
        except Exception as exc:  # any malformed output fails the op, not the run
            error = f"oracle: {type(exc).__name__}: {exc}"
    size = len(result.stdout_bytes) + sum(p.stat().st_size for p in op.outputs if p.exists())
    return Outcome(elapsed, error, size)


def run_pass(runner, main, deck, seconds: float | None = None, after_cycle=None) -> Pass:
    """One pass over the deck; with `seconds`, whole deck cycles until the ops took that long.

    Stopping only between cycles keeps the mix of a run fixed: a
    `rational-sums` cycle holds one 1.8 s op among 22 lighter ones, so a
    run cut inside a cycle would depend on where the cut fell.
    `after_cycle(result)` is called after every cycle, outside the ops' time.
    """
    cycles = [list(ops) for _, ops in itertools.groupby(deck, key=lambda op: op.cycle)]
    result = Pass()
    k = 0
    while k < len(cycles) if seconds is None else result.busy < seconds:
        for op in cycles[k % len(cycles)]:
            result.add(op, execute(runner, main, op))
        k += 1
        if after_cycle is not None:
            after_cycle(result)
    return result


def percentile(values: list[float], pct: int) -> tuple[float, int]:
    """The pct-th percentile, or the highest one with ten samples above it."""
    n = len(values)
    while pct > 50 and n - n * pct / 100 < 10:
        pct -= 1
    if n < 2:
        return values[0], pct
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1], pct


def measure_end_to_end(runner, main, deck, seconds: float, sample_set_up):
    """The end-to-end metrics, name -> (value, unit), and the timed pass.

    `sample_set_up()` makes one set-up aside and returns its CPU time.  After
    each cycle it is called until the samples keep pace with the run:
    SETUP_MIN of them by its end, and SETUP_SHARE of the ops' time.  The
    samples are thus spread over the run and meet the same host speed as
    the ops; their median is setup_s.
    """
    setup_times: list[float] = []

    def sample(timed: Pass) -> None:
        while (len(setup_times) < SETUP_MIN * min(1.0, timed.busy / seconds)
               or sum(setup_times) < SETUP_SHARE * timed.busy):
            setup_times.append(sample_set_up())

    timed = run_pass(runner, main, deck, seconds=seconds, after_cycle=sample)
    ok = len(timed.latencies) - len(timed.failures)
    p50, _ = percentile(timed.latencies, 50)
    p90, pct = percentile(timed.latencies, 90)
    print(f"{len(timed.latencies)} ops over {len(timed.latencies) / len(deck):.2f} passes "
          f"of a {len(deck)}-op deck; op_p90_ms is p{pct} of {len(timed.latencies)} samples; "
          f"setup_s is the median of {len(setup_times)} set-ups", file=sys.stderr)
    metrics = {
        "ops_per_s": (ok / timed.busy, "1/s"),
        "op_p50_ms": (p50 * 1e3, "ms"),
        "op_p90_ms": (p90 * 1e3, "ms"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    return metrics, [timed]


def measure_layers(runner, main, deck):
    """The per-layer metrics, name -> (value, unit), and the untraced and traced passes.

    Each op runs untraced and then traced, back to back, so that drift in
    the host's speed cancels out of the tracing overhead.
    """
    untraced, traced = Pass(), Pass()
    tracer = tracing.Tracer()
    for op in deck:
        untraced.add(op, execute(runner, main, op))
        tracer.install()
        try:
            traced.add(op, execute(runner, main, op, tracer))
        finally:
            tracer.uninstall()
    bound_n = sum(op.params["N"] for op in deck if op.kind == "bound")
    metrics = tracing.layer_metrics(tracer, bound_n, traced.bytes_out, traced.busy - untraced.busy)
    return metrics, [untraced, traced]


def record(metrics: dict, passes: list[Pass]) -> dict:
    """The result object: every op of every pass counts as attempted."""
    failures = [f for p in passes for f in p.failures]
    return {
        "correct": not failures,
        "attempted": sum(len(p.latencies) for p in passes),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def probe_known_defects(runner, main, workload: str, seed: int, workdir: Path) -> None:
    for defect in workloads.known_defects(workload, seed, workdir):
        out = execute(runner, main, defect.op)
        state = "still fails" if out.error is not None else "no longer fails"
        print(f"known defect ({defect.symptom}), expected exit {defect.exit_code} at the seed: "
              f"{state}: besum {' '.join(defect.op.argv)}: {out.error or 'ok'}", file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "besum" / "__init__.py").is_file():
        print(f"error: no besum sources under {src}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    workdir = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    aside = workdir.with_name(workdir.name + "-setup")
    try:
        # The first set-up makes the deck the run uses; it is not a sample.
        main_cmd, deck = set_up(args.workload, args.seed, workdir,
                                workloads.TRACE_CYCLES[args.workload] if args.trace else None)
        runner = CliRunner()
        print(f"{args.workload} seed {args.seed}:", file=sys.stderr)
        if args.trace:
            metrics, passes = measure_layers(runner, main_cmd, deck)
        else:
            metrics, passes = measure_end_to_end(
                runner, main_cmd, deck, args.seconds,
                lambda: time_set_up(args.workload, args.seed, aside))
        probe_known_defects(runner, main_cmd, args.workload, args.seed, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        shutil.rmtree(aside, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run still uses it

    result = record(metrics, passes)
    for failure in [f for p in passes for f in p.failures][:20]:
        print(f"FAILED {failure}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
