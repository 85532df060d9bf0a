import gc
import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import click.testing
import pytest
from click.testing import CliRunner

import besum
from besum.cli import main
from besum.construction import get_growth, rational_profile
from besum.dimension import condition_ii_check
from besum.factoradic import encode, write_digit_file
from besum.periodicity import CoefficientSequence, write_coeffs_file


@pytest.fixture
def runner():
    return CliRunner()


def strip_timestamp(text: str) -> str:
    return "\n".join(
        ln for ln in text.splitlines() if not ln.startswith("# timestamp") and '"timestamp"' not in ln
    )


def write_sample_digits(path, x=Fraction(1, 3), depth=40):
    with open(path, "w") as fp:
        write_digit_file(encode(x, depth), fp)
    return path


class TestSumVerb:
    def test_rational_csv(self, runner, tmp_path):
        out = tmp_path / "s.csv"
        result = runner.invoke(main, ["sum", "--f", "n2", "--alpha", "1/3", "--N", "100", "--out", str(out)])
        assert result.exit_code == 0, result.output
        lines = out.read_text().splitlines()
        assert lines[0].startswith("# tool=besum")
        header = next(ln for ln in lines if not ln.startswith("#"))
        assert header.split(",")[:3] == ["alpha_num", "alpha_den", "N"]
        # Log-spaced schedule: 1,2,5,10,20,50,100.
        data = [ln for ln in lines if not ln.startswith("#")][1:]
        assert len(data) == 7

    def test_digit_file_angle(self, runner, tmp_path):
        digits = write_sample_digits(tmp_path / "a.digits")
        result = runner.invoke(main, ["sum", "--f", "n2", "--alpha-digits", str(digits), "--N", "5"])
        assert result.exit_code == 0, result.output
        assert "phase_error" in result.output

    def test_alpha_xor_digits_required(self, runner):
        result = runner.invoke(main, ["sum", "--N", "10"])
        assert result.exit_code == 2

    def test_bad_alpha_is_config_error(self, runner):
        result = runner.invoke(main, ["sum", "--alpha", "5/3", "--N", "10"])
        assert result.exit_code == 2

    def test_unknown_registry_name_lists_known(self, runner):
        result = runner.invoke(main, ["sum", "--f", "bogus", "--alpha", "1/3", "--N", "10"])
        assert result.exit_code == 2
        assert "identity" in result.output

    def test_insufficient_depth_exit_code(self, runner, tmp_path):
        digits = write_sample_digits(tmp_path / "a.digits", Fraction(1, 7), depth=5)
        result = runner.invoke(
            main, ["sum", "--f", "n2", "--alpha-digits", str(digits), "--N", "10"]
        )
        assert result.exit_code == 4

    def test_dry_run(self, runner):
        result = runner.invoke(main, ["sum", "--alpha", "1/3", "--N", "10", "--dry-run"])
        assert result.exit_code == 0
        assert result.output.startswith("dry-run:")

    @pytest.mark.parametrize("verb", ["sum", "bound"])
    @pytest.mark.parametrize("n_max", ["0", "-3"])
    def test_nonpositive_n_is_config_error(self, runner, verb, n_max):
        result = runner.invoke(main, [verb, "--alpha", "1/3", "--N", n_max])
        assert result.exit_code == 2
        assert "--N must be >= 1" in result.output
        assert not isinstance(result.exception, IndexError)

    def test_one_profile_per_invocation(self, runner):
        for _ in range(2):
            result = runner.invoke(main, ["sum", "--alpha", "2/7", "--N", "1000"])
            assert result.exit_code == 0, result.output
            info = rational_profile.cache_info()
            # Built once, then read at the other nine schedule points.
            assert (info.misses, info.hits) == (1, 9)

    def test_huge_n(self, runner):
        result = runner.invoke(main, ["sum", "--f", "identity", "--alpha", "500/997",
                                      "--N", str(10**12)])
        assert result.exit_code == 0, result.output
        assert result.output.splitlines()[-1].startswith("500,997,1000000000000,")


def test_in_process_invocations_release_their_output(runner):
    def captured():
        return sum(isinstance(o, click.testing._NamedTextIOWrapper) for o in gc.get_objects())

    gc.collect()
    before = captured()
    for _ in range(200):
        assert runner.invoke(main, ["sum", "--alpha", "1/3", "--N", "10"]).exit_code == 0
    gc.collect()
    assert captured() - before <= 5


class TestDeterminism:
    def test_byte_identical_modulo_timestamp(self, runner, tmp_path):
        args = ["mass-check", "--s", "0.5", "--imax", "6", "--seed", "3"]
        outs = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            result = runner.invoke(main, args + ["--out", str(out)])
            assert result.exit_code == 0, result.output
            outs.append(strip_timestamp(out.read_text()))
        assert outs[0] == outs[1]

    def test_sample_e_deterministic(self, runner, tmp_path):
        texts = []
        for d in ("d1", "d2"):
            out_dir = tmp_path / d
            result = runner.invoke(
                main,
                ["sample-e", "--depth", "20", "--seed", "11", "--count", "2",
                 "--out-dir", str(out_dir)],
            )
            assert result.exit_code == 0, result.output
            texts.append(sorted(p.read_text() for p in out_dir.iterdir()))
        assert texts[0] == texts[1]


class TestVerbs:
    def test_construct(self, runner):
        result = runner.invoke(main, ["construct", "--f", "identity", "--nmax", "5"])
        assert result.exit_code == 0
        assert "5,125" in result.output

    def test_construct_budget_exit_code(self, runner, monkeypatch):
        monkeypatch.setenv("BESUM_BIT_BUDGET", "100")
        result = runner.invoke(main, ["construct", "--f", "pow2", "--nmax", "30"])
        assert result.exit_code == 3

    def test_factoradic_encode_decode(self, runner, tmp_path):
        out = tmp_path / "x.digits"
        result = runner.invoke(
            main, ["factoradic", "encode", "--value", "1/4", "--depth", "6", "--out", str(out)]
        )
        assert result.exit_code == 0
        result = runner.invoke(main, ["factoradic", "decode", "--digits", str(out)])
        assert result.exit_code == 0
        doc = json.loads(result.output)
        assert doc["lower"] == "1/4" and doc["upper"] == "1/4"

    def test_membership(self, runner, tmp_path):
        digits = write_sample_digits(tmp_path / "a.digits", Fraction(1, 2), depth=10)
        result = runner.invoke(main, ["membership", "--alpha-digits", str(digits)])
        assert result.exit_code == 0
        assert json.loads(result.output)["membership"] in {"yes", "no"}

    def test_bound(self, runner):
        result = runner.invoke(main, ["bound", "--alpha", "1/2", "--N", "10"])
        assert result.exit_code == 0
        assert "bound" in result.output

    def test_dimension(self, runner, tmp_path):
        out = tmp_path / "d.json"
        result = runner.invoke(main, ["dimension", "--jmax", "20", "--out", str(out)])
        assert result.exit_code == 0
        doc = json.loads(out.read_text())
        assert doc["series"][-1]["j"] == 20

    def test_cond_ii(self, runner):
        result = runner.invoke(main, ["cond-ii", "--eps", "0.5", "--imax", "100"])
        assert result.exit_code == 0
        assert json.loads(result.output)["attained_at"] <= 100

    def test_sup_sweep(self, runner):
        result = runner.invoke(main, ["sup-sweep", "--qmax", "4", "--N", "500"])
        assert result.exit_code == 0
        assert "True" in result.output

    def test_sup_sweep_ok_checks_the_bound_where_it_applies(self, runner):
        # identity at 8/19 peaks at N = 6, above the bound, which holds for N >= q - 1.
        result = runner.invoke(main, ["sup-sweep", "--f", "identity", "--qmax", "19", "--N", "100"])
        assert result.exit_code == 0, result.output
        lines = [ln for ln in result.output.splitlines() if not ln.startswith("#")]
        rows = [dict(zip(lines[0].split(","), ln.split(","))) for ln in lines[1:]]
        row = next(r for r in rows if (r["alpha_num"], r["alpha_den"]) == ("8", "19"))
        assert float(row["empirical_sup"]) > float(row["bound_rhs"])
        assert float(row["tail_sup"]) <= float(row["bound_rhs"])
        assert all(r["ok"] == "True" for r in rows)

    def test_sup_sweep_at_huge_n(self, runner):
        result = runner.invoke(main, ["sup-sweep", "--qmax", "40", "--N", str(10**12)])
        assert result.exit_code == 0, result.output
        rows = [ln for ln in result.output.splitlines() if not ln.startswith("#")][1:]
        assert len(rows) == 489 and all(ln.endswith(",True") for ln in rows)

    def test_periodicity(self, runner, tmp_path):
        coeffs = tmp_path / "c.coeffs"
        with open(coeffs, "w") as fp:
            write_coeffs_file(CoefficientSequence((0,) + (1, 0) * 30), fp)
        result = runner.invoke(
            main, ["periodicity", "--coeffs", str(coeffs), "--max-preperiod", "5", "--max-period", "5"]
        )
        assert result.exit_code == 0
        doc = json.loads(result.output)
        assert doc["periodic"] and doc["period"] == 2 and doc["collapse"] is False

    def test_sector_eval(self, runner, tmp_path):
        coeffs = tmp_path / "c.coeffs"
        with open(coeffs, "w") as fp:
            write_coeffs_file(CoefficientSequence((0,) + (1,) * 500), fp)
        result = runner.invoke(
            main,
            ["sector-eval", "--coeffs", str(coeffs), "--theta1", "0.45", "--theta2", "0.55",
             "--A", "500", "--radii", "0.9"],
        )
        assert result.exit_code == 0
        assert json.loads(result.output)["max_modulus"] > 0

    def test_qn_demo(self, runner):
        result = runner.invoke(main, ["qn-demo", "--q", "3", "--alpha", "1/3", "--N", "300"])
        assert result.exit_code == 0
        assert json.loads(result.output)["empirical_sup"] == pytest.approx(100)

    def test_qn_demo_with_a_large_denominator(self, runner):
        # A ten-digit decimal is 1234567891/10^10: 1000 terms, not a period of 10^10.
        result = runner.invoke(main, ["qn-demo", "--q", "3", "--alpha", "0.1234567891",
                                      "--N", "3000"])
        assert result.exit_code == 0, result.output
        assert json.loads(result.output)["empirical_sup"] == pytest.approx(1.0872263217241)

    def test_every_verb_has_dry_run(self, runner, tmp_path):
        digits = write_sample_digits(tmp_path / "a.digits")
        coeffs = tmp_path / "c.coeffs"
        with open(coeffs, "w") as fp:
            write_coeffs_file(CoefficientSequence((0, 1, 0, 1)), fp)
        cases = [
            ["sum", "--alpha", "1/3", "--N", "10", "--dry-run"],
            ["sup-sweep", "--qmax", "3", "--N", "10", "--dry-run"],
            ["factoradic", "encode", "--value", "1/3", "--dry-run"],
            ["factoradic", "decode", "--digits", str(digits), "--dry-run"],
            ["construct", "--nmax", "3", "--dry-run"],
            ["membership", "--alpha-digits", str(digits), "--dry-run"],
            ["sample-e", "--depth", "10", "--dry-run"],
            ["bound", "--alpha", "1/3", "--N", "10", "--dry-run"],
            ["dimension", "--jmax", "10", "--dry-run"],
            ["mass-check", "--s", "0.5", "--imax", "6", "--dry-run"],
            ["cond-ii", "--eps", "0.5", "--imax", "10", "--dry-run"],
            ["periodicity", "--coeffs", str(coeffs), "--dry-run"],
            ["sector-eval", "--coeffs", str(coeffs), "--theta1", "0.1", "--theta2", "0.2",
             "--A", "3", "--dry-run"],
            ["qn-demo", "--q", "2", "--alpha", "1/3", "--N", "10", "--dry-run"],
        ]
        for args in cases:
            result = runner.invoke(main, args)
            assert result.exit_code == 0, (args, result.output)
            assert result.output.startswith("dry-run:"), args


# One fixed invocation of each verb and the config_hash it must keep.  Input
# files are named relative to the working directory, because paths are hashed.
PINNED_CONFIG_HASHES = {
    "sum": (["sum", "--f", "identity", "--alpha", "2/7", "--N", "50"], "6be7c69103214c15"),
    "sup-sweep": (["sup-sweep", "--qmax", "5", "--N", "30"], "71735b6b5843a9ef"),
    "factoradic-encode": (["factoradic", "encode", "--value", "1/4", "--depth", "6"],
                          "9e1ee35fea66a919"),
    "factoradic-decode": (["factoradic", "decode", "--digits", "a.digits"], "0e6608f6873812a9"),
    "construct": (["construct", "--f", "identity", "--nmax", "5"], "3706d9809a2dbeac"),
    "membership": (["membership", "--a", "pow2", "--alpha-digits", "a.digits"],
                   "c234ec14a2b0798a"),
    "sample-e": (["sample-e", "--depth", "12", "--seed", "4", "--count", "2"], "8c1577717c1211fe"),
    "bound": (["bound", "--a", "nfact", "--alpha", "1/3", "--N", "20"], "9005a3255b23910f"),
    "dimension": (["dimension", "--jmax", "12"], "3583a20fbc52eb4b"),
    "mass-check": (["mass-check", "--s", "0.5", "--imax", "6", "--seed", "2"], "3b01e4c2eae2d21b"),
    "cond-ii": (["cond-ii", "--f", "pow2", "--eps", "0.25", "--imax", "30"], "c2184b96a2d65ca5"),
    "periodicity": (["periodicity", "--coeffs", "c.coeffs", "--max-preperiod", "5",
                     "--max-period", "5"], "f3fa6d24223f8c74"),
    "sector-eval": (["sector-eval", "--coeffs", "c.coeffs", "--theta1", "0.1", "--theta2", "0.2",
                     "--A", "40"], "827669f416793265"),
    "qn-demo": (["qn-demo", "--q", "3", "--alpha", "2/5", "--N", "100"], "fa04d87c0ee12ac4"),
}


@pytest.mark.parametrize("argv, config_hash", PINNED_CONFIG_HASHES.values(),
                         ids=PINNED_CONFIG_HASHES)
def test_config_hash_is_pinned(runner, tmp_path, monkeypatch, argv, config_hash):
    monkeypatch.chdir(tmp_path)
    write_sample_digits(tmp_path / "a.digits")
    with open(tmp_path / "c.coeffs", "w") as fp:
        write_coeffs_file(CoefficientSequence((0,) + (1, 0) * 30), fp)
    # The dry-run line prints the hashed config itself.
    dry = runner.invoke(main, argv + ["--dry-run"])
    assert dry.exit_code == 0, dry.output
    blob = dry.output.removeprefix("dry-run: ").rstrip("\n")
    assert hashlib.sha256(blob.encode()).hexdigest()[:16] == config_hash
    result = runner.invoke(main, argv)
    assert result.exit_code == 0, result.output
    header = [ln for ln in result.output.splitlines() if "config_hash" in ln]
    # factoradic encode and sample-e print bare digit files, with no header.
    assert all(config_hash in ln for ln in header)


def test_cli_import_leaves_mpmath_unloaded():
    # mpmath is only needed to order near-tied moduli; importing it costs every start.
    code = "import sys, besum.cli; print('mpmath' in sys.modules)"
    src = str(Path(besum.__file__).parents[1])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "False"


def _strict_json(text: str):
    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")

    return json.loads(text, parse_constant=reject)


@pytest.mark.parametrize("argv, message", [
    (["sample-e", "--depth", "10", "--count", "-1"], "--count must be >= 1"),
    (["sample-e", "--depth", "10", "--count", "0"], "--count must be >= 1"),
    (["qn-demo", "--q", "3", "--alpha", "1/3", "--N", "-5"], "--N must be >= 1"),
    (["sup-sweep", "--qmax", "5", "--N", "0"], "--N must be >= 1"),
    (["sup-sweep", "--qmax", "1", "--N", "10"], "--qmax must be >= 2"),
    (["cond-ii", "--eps", "0.5", "--imax", "0"], "--imax must be >= 1"),
    (["sector-eval", "--coeffs", "c.coeffs", "--theta1", "0.1", "--theta2", "0.2", "--A", "-1"],
     "--A must be >= 1"),
    (["sector-eval", "--coeffs", "c.coeffs", "--theta1", "0.1", "--theta2", "0.2", "--A", "-5"],
     "--A must be >= 1"),
    (["periodicity", "--coeffs", "c.coeffs", "--max-period", "0"], "--max-period must be >= 1"),
    (["periodicity", "--coeffs", "c.coeffs", "--max-preperiod", "-1"],
     "--max-preperiod must be >= 0"),
])
@pytest.mark.parametrize("dry_run", [False, True])
def test_out_of_range_integers_are_config_errors(runner, tmp_path, monkeypatch, argv, message,
                                                 dry_run):
    monkeypatch.chdir(tmp_path)
    with open(tmp_path / "c.coeffs", "w") as fp:
        write_coeffs_file(CoefficientSequence((0,) + (1, 0) * 150), fp)
    result = runner.invoke(main, argv + ["--dry-run"] * dry_run)
    assert result.exit_code == 2, result.output
    assert message in result.output


@pytest.mark.parametrize("value", ["1/0", "x"])
def test_unparsable_encode_value_is_config_error(runner, value):
    result = runner.invoke(main, ["factoradic", "encode", "--value", value])
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)
    assert f"--value: cannot parse {value!r} as p/q" in result.output


def test_json_output_is_strict(runner, tmp_path):
    digits = write_sample_digits(tmp_path / "a.digits")
    coeffs = tmp_path / "c.coeffs"
    with open(coeffs, "w") as fp:
        write_coeffs_file(CoefficientSequence((0,) + (1, 0) * 150), fp)
    cases = [
        ["factoradic", "decode", "--digits", str(digits)],
        ["membership", "--alpha-digits", str(digits)],
        ["dimension", "--jmax", "10"],
        ["mass-check", "--s", "0.5", "--imax", "6"],
        ["cond-ii", "--eps", "0.5", "--imax", "1"],
        ["periodicity", "--coeffs", str(coeffs)],
        ["sector-eval", "--coeffs", str(coeffs), "--theta1", "0.1", "--theta2", "0.2", "--A", "1"],
        ["qn-demo", "--q", "2", "--alpha", "1/3", "--N", "1"],
    ]
    for argv in cases:
        result = runner.invoke(main, argv)
        assert result.exit_code == 0, (argv, result.output)
        _strict_json(result.output)


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid:RuntimeWarning")
def test_non_finite_json_value_is_config_error(runner, tmp_path):
    # Ten terms of 1e308 overflow the sector sums to NaN, which JSON cannot carry.
    coeffs = tmp_path / "big.coeffs"
    with open(coeffs, "w") as fp:
        write_coeffs_file(CoefficientSequence((0,) + (1e308,) * 10), fp)
    result = runner.invoke(main, ["sector-eval", "--coeffs", str(coeffs), "--theta1", "0",
                                  "--theta2", "0.1", "--A", "10"])
    assert result.exit_code == 2, result.output
    assert "NaN" not in result.output and "not JSON compliant" in result.output


def test_condition_ii_needs_a_positive_range():
    with pytest.raises(ValueError, match="i_max"):
        condition_ii_check(get_growth("n2"), 0.5, 0)
