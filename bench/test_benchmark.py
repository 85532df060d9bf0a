"""Tests of the benchmark itself: metric names, failure counting, trace accounting.

They drive a small hand-made deck that touches every traced module, so
they run in a few seconds.  Run with:

    PYTHONPATH=src python -m pytest -q bench/test_benchmark.py
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest
from click.testing import CliRunner

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import Op, Planted  # noqa: E402

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def small_deck(workdir: Path) -> list[Op]:
    """A few cheap ops of every kind the workloads use."""
    rng = random.Random("bench-self-test")
    planted = Planted(pre=(1, 2, 1), block=(2, 0, 1, 1), length=400)
    coeffs = workdir / "small.coeffs"
    workloads.write_coeffs(coeffs, planted)
    spec = {"planted": planted, "path": coeffs}
    deck = [
        Op("sum-rational", ["sum", "--f", "n2", "--alpha", "1/3", "--N", "2000"],
           {"f": "n2", "p": 1, "q": 3, "N": 2000}),
        Op("sup-sweep", ["sup-sweep", "--f", "identity", "--qmax", "5", "--N", "500"],
           {"f": "identity", "qmax": 5, "N": 500}),
        Op("qn-demo", ["qn-demo", "--q", "3", "--alpha", "1/3", "--N", "300"],
           {"q": 3, "a": 1, "b": 3, "N": 300}),
        *workloads._sample_chain(rng, workdir, 40, 60),
        *workloads._encode_chain(rng, workdir, zero_tail=False),
        Op("bound", ["bound", "--alpha", "2/7", "--N", "50"],
           {"f": "n2", "a": "n2", "p": 2, "q": 7, "N": 50}),
        Op("construct", ["construct", "--nmax", "6"], {"f": "n2", "nmax": 6}),
        workloads._mass_check(rng, "n2", 3, 6),
        Op("dimension", ["dimension", "--jmax", "200"], {"f": "n2", "a": "n2", "jmax": 200}),
        Op("cond-ii", ["cond-ii", "--eps", "0.5", "--imax", "300"],
           {"f": "n2", "eps": 0.5, "imax": 300}),
        Op("periodicity", ["periodicity", "--coeffs", str(coeffs), "--max-period", "8"],
           {**spec, "max_preperiod": 64, "max_period": 8}),
        Op("sector-eval", ["sector-eval", "--coeffs", str(coeffs), "--theta1", "0.2",
                           "--theta2", "0.3", "--A", "300"],
           {**spec, "theta1": 0.2, "theta2": 0.3, "A": 300, "radii": (0.9, 0.99, 0.999),
            "n_theta": 16}),
    ]
    return deck


@pytest.fixture
def deck(tmp_path):
    return small_deck(tmp_path)


@pytest.fixture
def main_cmd():
    from besum.cli import main
    return main


def test_small_deck_is_correct(deck, main_cmd):
    result = run.run_pass(CliRunner(), main_cmd, deck)
    assert result.failures == []


def test_every_end_to_end_metric_is_printed_with_its_unit(deck, main_cmd):
    samples = []
    # Set-up samples longer than the whole pass: only the minimum count is taken.
    metrics, _ = run.measure_end_to_end(CliRunner(), main_cmd, deck, seconds=0.2,
                                        sample_set_up=lambda: samples.append(9.0) or 9.0)
    assert len(samples) == run.SETUP_MIN
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {name: unit for name, (_, unit) in metrics.items()} == want
    assert all(value > 0 for value, _ in metrics.values())


def test_every_per_layer_metric_is_printed_with_its_unit(deck, main_cmd):
    metrics, _ = run.measure_layers(CliRunner(), main_cmd, deck)
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {name: unit for name, (_, unit) in metrics.items()} == want
    # The small deck calls every traced function at least once.
    assert all(metrics[f"{mod}.{fn}.calls"][0] > 0
               for mod, names in tracing.TRACED.items() for fn in names)


class FlipRe:
    """A runner that negates the `re` column of every CSV it returns."""

    def __init__(self):
        self.runner = CliRunner()

    def invoke(self, main, argv):
        res = self.runner.invoke(main, argv)
        lines = res.stdout.splitlines()
        data = [i for i, ln in enumerate(lines) if ln and not ln.startswith("#")]
        if data and "re" in lines[data[0]].split(","):
            col = lines[data[0]].split(",").index("re")
            for i in data[1:]:
                cells = lines[i].split(",")
                cells[col] = repr(-float(cells[col]))
                lines[i] = ",".join(cells)
        stdout = "\n".join(lines) + "\n"
        return SimpleNamespace(exception=res.exception, exit_code=res.exit_code,
                               output=stdout, stdout=stdout, stdout_bytes=stdout.encode())


def test_corrupted_output_counts_as_failure(deck, main_cmd):
    result = run.record({}, [run.run_pass(FlipRe(), main_cmd, deck)])
    sums = [op for op in deck if op.argv[0] == "sum"]
    assert (result["attempted"], result["failed"]) == (len(deck), len(sums))
    assert result["correct"] is False


class ListOutput:
    """A runner whose every op prints a JSON list where the oracles expect a dict or rows."""

    def __init__(self):
        self.runner = CliRunner()

    def invoke(self, main, argv):
        res = self.runner.invoke(main, argv)
        return SimpleNamespace(exception=res.exception, exit_code=res.exit_code,
                               output="[]\n", stdout="[]\n", stdout_bytes=b"[]\n")


def test_malformed_output_fails_the_op_not_the_run(deck, main_cmd):
    result = run.run_pass(ListOutput(), main_cmd, deck)
    # Every check that parses stdout fails; sample-e and encode read their files.
    failed = {f.split(":")[0] for f in result.failures}
    assert failed == {" ".join(op.argv) for op in deck if op.kind not in ("sample-e", "encode")}
    assert any("TypeError" in f for f in result.failures)


def test_traced_self_times_add_up_to_traced_time(deck, main_cmd):
    metrics, (untraced, traced) = run.measure_layers(CliRunner(), main_cmd, deck)
    total_self = sum(v for name, (v, unit) in metrics.items()
                     if name.endswith("self_s"))
    overhead = metrics["trace.overhead_s"][0]
    assert overhead == pytest.approx(traced.busy - untraced.busy)
    # Only the loop around each root span is outside every span.
    assert 0.0 <= traced.busy - total_self <= max(overhead, 1e-4 * len(deck))


def test_tracer_restores_besum():
    import besum.construction as construction
    import besum.expsum as expsum
    originals = (construction.af_sum_rational, expsum.SumTrace.add_unit)
    tracer = tracing.Tracer()
    tracer.install()
    assert construction.af_sum_rational is not originals[0]
    tracer.uninstall()
    assert (construction.af_sum_rational, expsum.SumTrace.add_unit) == originals


def test_set_up_sample_keeps_the_modules_in_use(tmp_path, main_cmd):
    before = run._besum_modules()
    assert run.time_set_up("rational-sums", 1, tmp_path / "aside") > 0
    assert run._besum_modules() == before
    assert not (tmp_path / "aside").exists()


def test_deck_depends_only_on_seed(tmp_path):
    def argvs(seed, sub):
        return [op.argv for op in workloads.build("rational-sums", seed, tmp_path / sub, cycles=1)]
    assert argvs(3, "a") == argvs(3, "b")
    assert argvs(3, "a") != argvs(4, "a")


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, f"{BENCH.name}/run.py", "--workload", "rational-sums",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
