import csv
import gc
import hashlib
import io
import itertools
import json
import os
import subprocess
import sys
import weakref
from fractions import Fraction
from pathlib import Path

import click.testing
import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

import besum
import digit_oracles
from besum import dimension
from besum.cli import Columns, _csv_text, _json_text, main
from besum.construction import (
    DigitConstraintSet,
    FactoradicProfile,
    get_growth,
    get_weights,
    profile,
    rational_sums,
)
from besum.dimension import condition_ii_check
from besum.expsum import GeometricTail
from besum.factoradic import encode, write_digit_file
from besum.periodicity import SectorGrid
from periodicity_oracles import coeffs_text


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

    def test_a_field_with_a_comma_or_quote_is_quoted(self, runner, tmp_path):
        digits = write_sample_digits(tmp_path / 'a,"b".digits')
        result = runner.invoke(main, ["sum", "--f", "n2", "--alpha-digits", str(digits), "--N", "2"])
        assert result.exit_code == 0, result.output
        table = [ln for ln in result.output.splitlines() if not ln.startswith("#")]
        header, *rows = csv.reader(table)
        assert len(rows) == 2 and all(len(row) == len(header) for row in rows)
        assert {row[header.index("alpha_digits_file")] for row in rows} == {str(digits)}
        assert f'"{str(digits).replace(chr(34), 2 * chr(34))}"' in table[1]

    @pytest.mark.parametrize("records, text", [
        ([["a", "b"], ["1", "2.5"]], "a,b\n1,2.5"),
        ([["a", "b"], ["x\ny", 'q"'], ["1,2", "\r"], ['"', ","]],
         'a,b\n"x\ny","q"""\n"1,2","\r"\n"""",","'),
    ])
    def test_csv_text_quotes_only_fields_with_a_separator_or_quote(self, records, text):
        assert _csv_text(records) == text
        assert list(csv.reader(io.StringIO(text, newline=""))) == records

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
        assert f"Invalid value for '--N': {n_max} is not in the range x>=1." in result.output
        assert not isinstance(result.exception, IndexError)

    def test_one_profile_per_invocation(self, runner, builds):
        built = builds(GeometricTail)
        for runs in (1, 2):
            result = runner.invoke(main, ["sum", "--alpha", "2/7", "--N", "1000"])
            assert result.exit_code == 0, result.output
            # Built once and read at all ten schedule points; the slot is empty afterwards.
            assert len(built) == runs
            assert profile.cache_info().currsize == 0
            assert built[-1]() is None

    def test_sup_sweep_builds_and_sups_each_angle_once(self, runner, builds, monkeypatch):
        built = builds(GeometricTail)
        sups = []
        sup = GeometricTail.sup

        def counted(sums, n):
            sups.append(n)
            return sup(sums, n)
        monkeypatch.setattr(GeometricTail, "sup", counted)
        result = runner.invoke(main, ["sup-sweep", "--qmax", "5", "--N", "50"])
        assert result.exit_code == 0, result.output
        # Nine reduced p/q with q <= 5: each profile is built once and read for the sum, the
        # bound's head sum and the tail sup; only the sum takes a sup.
        assert len(built) == 9
        assert len(sups) == 9

    def test_a_profile_is_freed_when_the_next_angle_is_read(self):
        f = get_growth("n2")
        profile.cache_clear()
        first = weakref.ref(profile(rational_sums, f, 1, 7))
        profile(rational_sums, f, 1, 7)
        assert first() is not None
        profile(rational_sums, f, 2, 7)
        assert first() is None

    def test_a_depth_error_leaves_no_profile(self, runner, builds, tmp_path):
        digits = write_sample_digits(tmp_path / "a.digits", Fraction(1, 1009), depth=30)
        built = builds(FactoradicProfile)
        result = runner.invoke(main, ["sum", "--alpha-digits", str(digits), "--N", "50"])
        assert result.exit_code == 4, result.output
        assert len(built) == 1
        assert profile.cache_info().currsize == 0
        del result  # its exception chain holds the frame that read the profile
        gc.collect()
        assert built[0]() is None

    @pytest.mark.parametrize("alpha", ["1/10000019", "3/20000038", "1/100000980001501"])
    def test_denominator_past_the_head_limit_is_a_budget_error(self, runner, alpha):
        # The prime factor 10000019 puts S(q) over the limit, also as 10000019 * 10000079,
        # which trial division up to the limit must rule out.
        result = runner.invoke(main, ["sum", "--alpha", alpha, "--N", "5"])
        assert result.exit_code == 3, result.output
        assert isinstance(result.exception, SystemExit)
        assert "over the limit of 10000000 (construction.RATIONAL_MAX_HEAD)" in result.output

    @pytest.mark.parametrize("alpha", ["1/10000000000", "1e-30", "7/1180591620717411303424"])
    def test_huge_smooth_denominator_has_a_short_head(self, runner, alpha):
        # S(10^10) = 45, S(10^30) = 125 and S(2^70) = 72: heads of a few terms.
        result = runner.invoke(main, ["sum", "--alpha", alpha, "--N", str(10**15)])
        assert result.exit_code == 0, result.output

    @pytest.mark.parametrize("alpha, code", [("1/97", 0), ("1/101", 3), ("1/1022117", 3)])
    def test_head_limit_is_checked_before_the_head(self, runner, monkeypatch, alpha, code):
        # With the limit at 100, S(97) = 97 passes; S(101) = 101 and S(1009 * 1013) = 1013 do
        # not, found by trial division that stops at 100.
        monkeypatch.setattr("besum.construction.RATIONAL_MAX_HEAD", 100)
        if code:
            monkeypatch.setattr("besum.construction._head_residues", None)  # stepping would fail
        result = runner.invoke(main, ["sum", "--f", "identity", "--alpha", alpha, "--N", "5"])
        assert result.exit_code == code, result.output

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

    def test_construct_budget_exit_code(self, runner):
        # pow2: f(30)! = (2^30)! needs about 3e10 bits.
        result = runner.invoke(main, ["construct", "--f", "pow2", "--nmax", "30"])
        assert result.exit_code == 3
        assert "over the budget of 10000000 (construction.BIT_BUDGET)" in result.output

    def test_construct_past_the_text_limit_is_config_error(self, runner):
        limit = sys.get_int_max_str_digits()
        if limit == 0:
            pytest.skip("this interpreter converts integers of any length to text")
        # n2: 41 + 1681! has 4695 decimal digits, over the default limit of 4300.
        result = runner.invoke(main, ["construct", "--f", "n2", "--nmax", "41"])
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)
        assert "--nmax 41" in result.output and f"limit of {limit} digits" in result.output

    def test_construct_past_the_float_range_is_budget_error(self, runner):
        # pow2: f(1100) = 2^1100 has no float, so lgamma cannot size f(1100)!.
        result = runner.invoke(main, ["construct", "--f", "pow2", "--nmax", "1100"])
        assert result.exit_code == 3, result.output
        assert isinstance(result.exception, SystemExit)

    def test_mass_check_past_depth_177(self, runner):
        # float(|B|) underflows to 0 from depth 178 on; the check works in logs.
        result = runner.invoke(main, ["mass-check", "--s", "0.5", "--i0", "178", "--imax", "181"])
        assert result.exit_code == 0, result.output
        doc = _strict_json(result.output)
        assert doc["violations"] == [] and doc["intervals_tested"] > 40
        assert doc["a_constant"] > 0

    @pytest.mark.parametrize("lower_chain", [0.0, 12.0])
    @pytest.mark.parametrize("argv, call", [
        (["--s", "0.5", "--imax", "9", "--seed", "5"], ("n2", "n2", 0.5, 3, 9, 5)),
        (["--f", "identity", "--a", "nfact", "--s", "0.9", "--i0", "2", "--imax", "12",
          "--seed", "1"], ("identity", "nfact", 0.9, 2, 12, 1)),
    ])
    def test_mass_check_prints_the_oracle_document_in_order(self, runner, monkeypatch, argv,
                                                            call, lower_chain):
        # A chain coefficient lowered by e^12 makes violations, so their keys are compared too.
        chain = dimension.log_chain_coefficient
        lowered = lambda *args: chain(*args) - lower_chain  # noqa: E731
        monkeypatch.setattr(dimension, "log_chain_coefficient", lowered)
        monkeypatch.setattr(digit_oracles, "log_chain_coefficient", lowered)
        f, a, s, i0, i_max, seed = call
        constraints = DigitConstraintSet(get_growth(f), get_weights(a))
        expected = digit_oracles.mass_check_by_fractions(constraints, s, i0, i_max, seed)
        result = runner.invoke(main, ["mass-check", *argv])
        assert result.exit_code == 0, result.output
        doc = _strict_json(result.output)
        assert bool(doc["violations"]) == bool(lower_chain)
        # json.dumps keeps key order, so equal texts mean the same keys in the same order.
        assert json.dumps(doc) == json.dumps({"provenance": doc["provenance"], **expected})

    def test_mass_check_a_constant_below_the_float_range_is_config_error(self, runner):
        result = runner.invoke(main, ["mass-check", "--s", "0.3", "--i0", "250", "--imax", "252"])
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)
        assert "depth 250, s = 0.3" in result.output and '"a_constant"' not in result.output

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

    def test_sup_sweep_tail_sup_is_0_below_q_minus_1(self, runner):
        # eq4_rhs bounds |S(N)| for N >= q - 1 only; with N = 5 no such N exists past q = 6.
        result = runner.invoke(main, ["sup-sweep", "--qmax", "11", "--N", "5"])
        assert result.exit_code == 0, result.output
        lines = [ln for ln in result.output.splitlines() if not ln.startswith("#")]
        rows = [dict(zip(lines[0].split(","), ln.split(","))) for ln in lines[1:]]
        assert {r["alpha_den"] for r in rows} == {str(q) for q in range(2, 12)}
        for r in rows:
            assert (float(r["tail_sup"]) == 0.0) == (int(r["alpha_den"]) > 6)
            assert r["ok"] == "True"

    def test_sup_sweep_at_huge_n(self, runner):
        result = runner.invoke(main, ["sup-sweep", "--qmax", "40", "--N", str(10**12)])
        assert result.exit_code == 0, result.output
        rows = [ln for ln in result.output.splitlines() if not ln.startswith("#")][1:]
        assert len(rows) == 489 and all(ln.endswith(",True") for ln in rows)

    def test_periodicity(self, runner, tmp_path):
        coeffs = tmp_path / "c.coeffs"
        coeffs.write_text(coeffs_text((0,) + (1, 0) * 30))
        result = runner.invoke(
            main, ["periodicity", "--coeffs", str(coeffs), "--max-preperiod", "5", "--max-period", "5"]
        )
        assert result.exit_code == 0
        doc = json.loads(result.output)
        assert doc["periodic"] and doc["period"] == 2 and doc["collapse"] is False

    def test_sector_eval(self, runner, tmp_path):
        coeffs = tmp_path / "c.coeffs"
        coeffs.write_text(coeffs_text((0,) + (1,) * 500))
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
        coeffs.write_text(coeffs_text((0, 1, 0, 1)))
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
    (tmp_path / "c.coeffs").write_text(coeffs_text((0,) + (1, 0) * 30))
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
    # The same bytes go to --out (sample-e: to --out-dir, one file a sample, in seed order).
    if argv[0] == "sample-e":
        written = runner.invoke(main, argv + ["--out-dir", "samples"])
        text = "".join((tmp_path / "samples" / f"sample_{s}.digits").read_text() for s in (4, 5))
    else:
        written = runner.invoke(main, argv + ["--out", "out.txt"])
        text = (tmp_path / "out.txt").read_text()
    assert written.exit_code == 0 and written.output == "", written.output
    assert strip_timestamp(text) == strip_timestamp(result.output)


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


# Each case breaks one declared bound, given as "--option must be >= low".
@pytest.mark.parametrize("argv, bound", [
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
    (["factoradic", "encode", "--value", "1/3", "--depth", "1"], "--depth must be >= 2"),
    (["sample-e", "--depth", "1", "--out-dir", "d"], "--depth must be >= 2"),
    (["dimension", "--jmax", "3"], "--jmax must be >= 4"),
    (["qn-demo", "--q", "1", "--alpha", "1/3", "--N", "5"], "--q must be >= 2"),
    (["mass-check", "--s", "0.5", "--i0", "1", "--imax", "6"], "--i0 must be >= 2"),
])
@pytest.mark.parametrize("dry_run", [False, True])
def test_out_of_range_integers_are_config_errors(runner, tmp_path, monkeypatch, argv, bound,
                                                 dry_run):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "c.coeffs").write_text(coeffs_text((0,) + (1, 0) * 150))
    result = runner.invoke(main, argv + ["--dry-run"] * dry_run)
    assert result.exit_code == 2, result.output
    option, low = bound.split(" must be >= ")
    value = argv[argv.index(option) + 1]
    assert f"Invalid value for '{option}': {value} is not in the range x>={low}." in result.output
    assert not (tmp_path / "d").exists()  # rejected before sample-e makes its --out-dir


@pytest.mark.parametrize("argv, message", [
    (["construct", "--nmax", "3", "--out", "missing/x.csv"], "cannot write missing/x.csv"),
    (["construct", "--nmax", "3", "--out", "."], "cannot write ."),
    (["sample-e", "--depth", "10", "--out-dir", "taken"], "cannot create directory taken"),
])
def test_unwritable_output_path_is_config_error(runner, tmp_path, monkeypatch, argv, message):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "taken").write_text("a file, not a directory\n")
    result = runner.invoke(main, argv)
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)
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
    coeffs.write_text(coeffs_text((0,) + (1, 0) * 150))
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


def test_non_finite_json_value_is_config_error(runner, tmp_path, monkeypatch):
    # Ten terms of 1e308 overflow the sector sums; sector_eval refuses them.
    coeffs = tmp_path / "big.coeffs"
    coeffs.write_text(coeffs_text((0,) + (1e308,) * 10))
    argv = ["sector-eval", "--coeffs", str(coeffs), "--theta1", "0", "--theta2", "0.1", "--A", "10"]
    result = runner.invoke(main, argv)
    assert result.exit_code == 2, result.output
    assert "NaN" not in result.output and "not finite" in result.output
    # A NaN that reaches the JSON emitter is refused there too, not printed.
    grid = SectorGrid(np.zeros((1, 2)), float("nan"), (0.9, 0.0))
    monkeypatch.setattr("besum.cli.sector_eval", lambda *args: grid)
    result = runner.invoke(main, argv)
    assert result.exit_code == 2, result.output
    assert "NaN" not in result.output and "not JSON compliant" in result.output


def test_condition_ii_needs_a_positive_range():
    with pytest.raises(ValueError, match="i_max"):
        condition_ii_check(get_growth("n2"), 0.5, 0)


@pytest.mark.parametrize("argv, limit", [
    (["dimension", "--jmax"], "dimension.DIMENSION_MAX_J"),
    (["cond-ii", "--f", "identity", "--eps", "0.5", "--imax"], "dimension.CONDITION_II_MAX_I"),
    (["sample-e", "--depth"], "construction.SAMPLE_MAX_DEPTH"),
])
def test_sizes_past_their_limit_exit_3(runner, monkeypatch, argv, limit):
    # The limit lowered to 100, so no run allocates anything large.
    monkeypatch.setattr(f"besum.{limit}", 100)
    assert runner.invoke(main, [*argv, "100"]).exit_code == 0
    result = runner.invoke(main, [*argv, "101"])
    assert result.exit_code == 3, result.output
    assert f"101 is over the limit of 100 ({limit})" in result.output
    assert "Traceback" not in result.output


def test_sector_grid_past_its_limit_exits_3(runner, monkeypatch, tmp_path):
    # At A = 40, B + Q = 7 + 6, so two thetas make a grid of 26 phase cells.
    coeffs = tmp_path / "c.coeffs"
    coeffs.write_text(coeffs_text((0,) + (1, 0) * 30))
    argv = ["sector-eval", "--coeffs", str(coeffs), "--theta1", "0.1", "--theta2", "0.2",
            "--A", "40", "--n-theta", "2"]
    monkeypatch.setattr("besum.periodicity.SECTOR_MAX_CELLS", 26)
    assert runner.invoke(main, argv).exit_code == 0
    monkeypatch.setattr("besum.periodicity.SECTOR_MAX_CELLS", 25)
    result = runner.invoke(main, argv)
    assert result.exit_code == 3, result.output
    assert "= 26 is over the limit of 25 (periodicity.SECTOR_MAX_CELLS)" in result.output
    assert "Traceback" not in result.output


# --- JSON emission: the column template against json.dumps --------------------

_SCALAR_KINDS = [
    st.integers(min_value=-(10**30), max_value=10**30),
    st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=True),
    st.sampled_from([0.0, -0.0, 5e-324, 1e300]),
    st.text(max_size=8),
    st.booleans(),
    st.none(),
]
_SCALARS = st.one_of(_SCALAR_KINDS)
_VALUES = st.recursive(
    st.one_of(_SCALARS, st.just([])),
    lambda inner: st.one_of(st.lists(inner, max_size=3),
                            st.dictionaries(st.text(max_size=5), inner, max_size=3)),
    max_leaves=12,
)
_DOCS = st.dictionaries(st.text(max_size=8), _VALUES, max_size=5)

_INTS = st.integers(min_value=-(10**30), max_value=10**30)
_FLOATS = st.one_of(st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=True),
                    st.sampled_from([0.0, -0.0, 5e-324, 2.2e-308, 1e308, -1e308]))


@st.composite
def _tables(draw):
    """(keys, columns, float column indices): 1-3 columns, each all ints or all floats.

    Keys may hold the template's own characters (% and "), and a table may run
    to hundreds of rows, as dimension's series does: its drawn rows repeated."""
    key = st.one_of(st.text(max_size=6), st.text(alphabet='%"s\\ab', min_size=1, max_size=6))
    keys = draw(st.lists(key, min_size=1, max_size=3, unique=True))
    kinds = [draw(st.sampled_from([_INTS, _FLOATS])) for _ in keys]
    n_rows = draw(st.integers(0, 6))
    columns = [draw(st.lists(kind, min_size=n_rows, max_size=n_rows)) for kind in kinds]
    if n_rows and draw(st.booleans()):
        n_rows = draw(st.integers(100, 400))
        columns = [list(itertools.islice(itertools.cycle(c), n_rows)) for c in columns]
    floats = [i for i, kind in enumerate(kinds) if kind is _FLOATS]
    return tuple(keys), tuple(map(tuple, columns)), floats


def _rows(keys, columns):
    """The table's rows as json.dumps takes them: one dict per row."""
    return [dict(zip(keys, row)) for row in zip(*columns)]


@settings(max_examples=150, deadline=None)
@given(table=_tables(), before=_DOCS, after=_DOCS)
def test_columns_are_written_as_json_dumps_writes_their_rows(table, before, after):
    keys, columns, _ = table
    doc = {**before, "series": Columns(keys, columns), **after}
    rows_doc = {k: _rows(*v[:2]) if type(v) is Columns else v for k, v in doc.items()}
    assert _json_text(doc) == json.dumps(rows_doc, indent=2, allow_nan=False)


@settings(max_examples=80, deadline=None)
@given(table=_tables().filter(lambda t: t[1][0] and t[2]), data=st.data())
def test_columns_refuse_nan_and_infinity_anywhere_in_a_float_column(table, data):
    keys, columns, floats = table
    i = data.draw(st.sampled_from(floats))
    row = data.draw(st.integers(0, len(columns[i]) - 1))
    bad = data.draw(st.sampled_from([float("nan"), float("inf"), -float("inf")]))
    columns = list(columns)
    columns[i] = columns[i][:row] + (bad,) + columns[i][row + 1 :]
    with pytest.raises(ValueError, match="not JSON compliant"):
        _json_text({"series": Columns(keys, tuple(columns))})


@settings(max_examples=150, deadline=None)
@given(doc=_DOCS)
def test_json_text_equals_json_dumps(doc):
    assert _json_text(doc) == json.dumps(doc, indent=2, allow_nan=False)


@settings(max_examples=60, deadline=None)
@given(doc=_DOCS.filter(lambda d: d), data=st.data())
def test_json_text_refuses_nan_and_infinity_anywhere(doc, data):
    key = data.draw(st.sampled_from(sorted(doc)))
    bad = data.draw(st.sampled_from([float("nan"), float("inf"), -float("inf")]))
    rows = doc[key] if isinstance(doc[key], list) and doc[key] else None
    if rows is not None and all(type(r) is dict and r for r in rows):
        row = data.draw(st.sampled_from(rows))
        row[data.draw(st.sampled_from(sorted(row)))] = bad
    else:
        doc[key] = bad
    with pytest.raises(ValueError, match="not JSON compliant"):
        json.dumps(doc, indent=2, allow_nan=False)
    with pytest.raises(ValueError, match="not JSON compliant"):
        _json_text(doc)


def test_dimension_series_bytes_equal_json_dumps(runner):
    result = runner.invoke(main, ["dimension", "--jmax", "300"])
    assert result.exit_code == 0, result.output
    assert result.output == json.dumps(json.loads(result.output), indent=2) + "\n"


# --- periodicity verbs: exact collapse, bad run counts ---------------------------


def test_periodicity_tiny_float_block_does_not_collapse(runner, tmp_path):
    coeffs = tmp_path / "c.coeffs"
    coeffs.write_text("coeffs v1\nalphabet 0 1e-10j\n" + "1*0 1*1e-10j " * 40 + "\n")
    result = runner.invoke(main, ["periodicity", "--coeffs", str(coeffs), "--max-preperiod", "4",
                                  "--max-period", "4"])
    assert result.exit_code == 0, result.output
    doc = json.loads(result.output)
    assert (doc["periodic"], doc["period"], doc["collapse"]) == (True, 2, False)


_VERB_ARGS = {
    "periodicity": ["--max-preperiod", "2", "--max-period", "2"],
    "sector-eval": ["--theta1", "0.1", "--theta2", "0.2", "--A", "5"],
}


@pytest.mark.parametrize("verb", sorted(_VERB_ARGS))
@pytest.mark.parametrize("token, code, message", [
    ("-5*1", 2, "count must be >= 1"),
    ("0*1", 2, "count must be >= 1"),
    ("99999999999999999999*1", 3, "over the limit of 10000000"),
    ("10000000000*1", 3, "over the limit of 10000000"),
])
def test_bad_run_counts_exit_cleanly(runner, tmp_path, verb, token, code, message):
    coeffs = tmp_path / "c.coeffs"
    coeffs.write_text(f"coeffs v1\nalphabet 0 1\n1*0 6*1 {token}\n")
    result = runner.invoke(main, [verb, "--coeffs", str(coeffs), *_VERB_ARGS[verb]])
    assert result.exit_code == code, result.output
    assert message in result.output and "Traceback" not in result.output
    assert not isinstance(result.exception, (OverflowError, MemoryError))


@pytest.mark.parametrize("verb", sorted(_VERB_ARGS))
@pytest.mark.parametrize("alphabet, runs", [("0 nan", "1*0 3*nan"), ("0 1", "1*0 6*1 3*nan")])
def test_nan_coefficients_are_refused_by_name(runner, tmp_path, verb, alphabet, runs):
    coeffs = tmp_path / "c.coeffs"
    coeffs.write_text(f"coeffs v1\nalphabet {alphabet}\n{runs}\n")
    result = runner.invoke(main, [verb, "--coeffs", str(coeffs), *_VERB_ARGS[verb]])
    assert result.exit_code == 2, result.output
    assert "'nan' is NaN" in result.output and "outside the declared alphabet" not in result.output


@pytest.mark.parametrize("verb", sorted(_VERB_ARGS))
def test_runs_past_the_length_limit_exit_3(runner, tmp_path, monkeypatch, verb):
    monkeypatch.setattr("besum.periodicity.COEFFS_MAX_LENGTH", 50)
    coeffs = tmp_path / "c.coeffs"
    coeffs.write_text("coeffs v1\nalphabet 0 1\n1*0 " + "20*1 " * 3 + "\n")
    result = runner.invoke(main, [verb, "--coeffs", str(coeffs), *_VERB_ARGS[verb]])
    assert result.exit_code == 3, result.output
    assert "over the limit of 50" in result.output


def test_integer_past_the_float_range(runner, tmp_path):
    # Exact codes still find the period; the sector sums overflow and say so (exit 2).
    big = str(10**400)
    coeffs = tmp_path / "c.coeffs"
    coeffs.write_text(f"coeffs v1\nalphabet 0 {big}\n" + f"1*0 1*{big} " * 20 + "\n")
    result = runner.invoke(main, ["periodicity", "--coeffs", str(coeffs), "--max-preperiod", "2",
                                  "--max-period", "4"])
    assert result.exit_code == 0, result.output
    assert json.loads(result.output)["period"] == 2
    result = runner.invoke(main, ["sector-eval", "--coeffs", str(coeffs),
                                  *_VERB_ARGS["sector-eval"]])
    assert result.exit_code == 2, result.output
    assert "not finite" in result.output
