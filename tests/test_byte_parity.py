"""Byte parity: what 65 in-process invocations print and write, pinned as sha256.

Each case runs one verb through CliRunner in a directory holding the input
files that `make_inputs` builds from fixed seeds, with relative file names,
so the hashed config is the same in every checkout.  The digest covers the
exit code, stdout, stderr and each file the case wrote, with the provenance
timestamp line masked.  All 14 verbs are covered: the registered f and a,
coefficient and digit files, and the documented bad inputs with their exit
codes.

Float bytes depend on the interpreter, numpy and libm, so the digests are
checked only under the Python and numpy versions they were pinned with.  A
change that alters output on purpose pins again with

    PYTHONPATH=src python tests/test_byte_parity.py

and names every case whose digest moved.
"""

import hashlib
import json
import platform
import random
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from besum.cli import main
from besum.construction import DigitConstraintSet, get_growth, get_weights, sample_e_set
from besum.factoradic import FactoradicReal, Tail, encode, write_digit_file
from periodicity_oracles import coeffs_text, ultimately_periodic

PINS = Path(__file__).with_name("byte_parity.json")

CASES = {
    # sum at rational angles
    "sum-n2-1/3": ["sum", "--f", "n2", "--alpha", "1/3", "--N", "100000"],
    "sum-n2-2/3-tie": ["sum", "--f", "n2", "--alpha", "2/3", "--N", "100000"],
    "sum-identity-500/997": ["sum", "--f", "identity", "--alpha", "500/997", "--N", "1000000000000"],
    "sum-pow2-3/10": ["sum", "--f", "pow2", "--alpha", "3/10", "--N", "1000"],
    "sum-n3-7/60": ["sum", "--f", "n3", "--alpha", "7/60", "--N", "5000"],
    "sum-identity-8/19-out": ["sum", "--f", "identity", "--alpha", "8/19", "--N", "200",
                              "--out", "s.csv"],
    "sum-n2-1/1000": ["sum", "--f", "n2", "--alpha", "1/1000", "--N", "1000000"],
    "sum-n2-0.25-decimal": ["sum", "--alpha", "0.25", "--N", "50"],
    "sum-over-q-limit": ["sum", "--f", "n2", "--alpha", "1/10000019", "--N", "5"],
    "sum-alpha-outside": ["sum", "--alpha", "5/3", "--N", "10"],
    "sum-alpha-unparsed": ["sum", "--alpha", "x/3", "--N", "10"],
    "sum-both-angles": ["sum", "--alpha", "1/3", "--alpha-digits", "third.digits", "--N", "10"],
    "sum-unknown-f": ["sum", "--f", "bogus", "--alpha", "1/3", "--N", "10"],
    "sum-n-zero": ["sum", "--alpha", "1/3", "--N", "0"],
    "sum-dry-run": ["sum", "--alpha", "1/3", "--N", "10", "--dry-run"],
    # sum at digit angles
    "sum-digits-n2-third": ["sum", "--f", "n2", "--alpha-digits", "third.digits", "--N", "30"],
    "sum-digits-identity-sample": ["sum", "--f", "identity", "--alpha-digits", "sample.digits",
                                   "--N", "20"],
    "sum-digits-pow2-third": ["sum", "--f", "pow2", "--alpha-digits", "third.digits", "--N", "60"],
    "sum-digits-unknown": ["sum", "--f", "n2", "--alpha-digits", "unknown.digits", "--N", "6"],
    "sum-digits-too-shallow": ["sum", "--f", "n2", "--alpha-digits", "seventh.digits", "--N", "10"],
    # sup-sweep
    "sweep-n2-7": ["sup-sweep", "--f", "n2", "--qmax", "7", "--N", "1000"],
    "sweep-identity-5": ["sup-sweep", "--f", "identity", "--qmax", "5", "--N", "100000"],
    "sweep-pow2-6": ["sup-sweep", "--f", "pow2", "--qmax", "6", "--N", "10"],
    "sweep-n3-4-out": ["sup-sweep", "--f", "n3", "--qmax", "4", "--N", "50", "--out", "w.csv"],
    "sweep-qmax-1": ["sup-sweep", "--qmax", "1", "--N", "10"],
    # qn-demo
    "qn-resonant": ["qn-demo", "--q", "3", "--alpha", "1/3", "--N", "30000"],
    "qn-7-2/5": ["qn-demo", "--q", "7", "--alpha", "2/5", "--N", "9000"],
    "qn-decimal": ["qn-demo", "--q", "3", "--alpha", "0.1234567891", "--N", "3000"],
    "qn-5-3/7-huge-n": ["qn-demo", "--q", "5", "--alpha", "3/7", "--N", "1000000000000"],
    "qn-q-1": ["qn-demo", "--q", "1", "--alpha", "1/3", "--N", "10"],
    # factoradic encode / decode
    "encode-1/4": ["factoradic", "encode", "--value", "1/4", "--depth", "12"],
    "encode-5/7-out": ["factoradic", "encode", "--value", "5/7", "--depth", "40", "--out", "e.digits"],
    "encode-bad-value": ["factoradic", "encode", "--value", "x/0"],
    "decode-third": ["factoradic", "decode", "--digits", "third.digits"],
    "decode-unknown": ["factoradic", "decode", "--digits", "unknown.digits"],
    "decode-bad-file": ["factoradic", "decode", "--digits", "bad.digits"],
    # construct
    "construct-n2-6": ["construct", "--f", "n2", "--nmax", "6"],
    "construct-identity-30": ["construct", "--f", "identity", "--nmax", "30"],
    "construct-over-bits": ["construct", "--f", "pow2", "--nmax", "30"],
    # membership
    "member-n2-n2-third": ["membership", "--f", "n2", "--a", "n2", "--alpha-digits", "third.digits"],
    "member-n2-pow2-sample": ["membership", "--f", "n2", "--a", "pow2", "--alpha-digits",
                              "sample.digits"],
    "member-identity-nfact-unknown": ["membership", "--f", "identity", "--a", "nfact",
                                      "--alpha-digits", "unknown.digits"],
    # sample-e
    "sample-n2-n2": ["sample-e", "--f", "n2", "--a", "n2", "--depth", "60", "--seed", "7",
                     "--count", "2"],
    "sample-pow2-nfact-dir": ["sample-e", "--f", "pow2", "--a", "nfact", "--depth", "30",
                              "--seed", "1", "--count", "3", "--out-dir", "samples"],
    "sample-over-depth": ["sample-e", "--depth", "300000000"],
    # bound
    "bound-n2-n2": ["bound", "--f", "n2", "--a", "n2", "--alpha", "1/3", "--N", "1000"],
    "bound-pow2-nfact": ["bound", "--f", "pow2", "--a", "nfact", "--alpha", "2/7", "--N", "300"],
    "bound-identity-pow2": ["bound", "--f", "identity", "--a", "pow2", "--alpha", "5/11",
                            "--N", "50"],
    # dimension
    "dimension-n2-n2": ["dimension", "--f", "n2", "--a", "n2", "--jmax", "200"],
    "dimension-pow2-nfact": ["dimension", "--f", "pow2", "--a", "nfact", "--jmax", "60",
                             "--out", "d.json"],
    "dimension-over-j": ["dimension", "--jmax", "2000000"],
    # mass-check
    "mass-n2-n2": ["mass-check", "--f", "n2", "--a", "n2", "--s", "0.5", "--imax", "9"],
    "mass-pow2-pow2": ["mass-check", "--f", "pow2", "--a", "pow2", "--s", "0.8", "--imax", "12",
                       "--seed", "3"],
    # cond-ii
    "cond-n2": ["cond-ii", "--f", "n2", "--eps", "0.5", "--imax", "10000"],
    "cond-pow2": ["cond-ii", "--f", "pow2", "--eps", "0.1", "--imax", "40"],
    "cond-identity": ["cond-ii", "--f", "identity", "--eps", "0.93", "--imax", "4000"],
    # periodicity
    "periodicity-periodic": ["periodicity", "--coeffs", "periodic.coeffs"],
    "periodicity-aperiodic": ["periodicity", "--coeffs", "aperiodic.coeffs", "--max-period", "40"],
    "periodicity-complex": ["periodicity", "--coeffs", "complex.coeffs"],
    "periodicity-bad-file": ["periodicity", "--coeffs", "bad.coeffs"],
    "periodicity-over-length": ["periodicity", "--coeffs", "long.coeffs"],
    # sector-eval
    "sector-periodic": ["sector-eval", "--coeffs", "periodic.coeffs", "--theta1", "0.3",
                        "--theta2", "0.36", "--A", "2000"],
    "sector-complex": ["sector-eval", "--coeffs", "complex.coeffs", "--theta1", "0.2",
                       "--theta2", "0.5", "--radii", "0.5,0.9", "--n-theta", "5", "--A", "300"],
    "sector-bad-theta": ["sector-eval", "--coeffs", "complex.coeffs", "--theta1", "-0.2",
                         "--theta2", "0.5", "--A", "300"],
    "sector-bad-radii": ["sector-eval", "--coeffs", "periodic.coeffs", "--theta1", "0.3",
                         "--theta2", "0.36", "--radii", "0.9,x", "--A", "20"],
}


def make_inputs(directory: Path) -> None:
    """The digit and coefficient files the cases read, each from a fixed seed."""
    def digits(name: str, value: FactoradicReal) -> None:
        with open(directory / name, "w") as fp:
            write_digit_file(value, fp)

    digits("third.digits", encode(Fraction(1, 3), 40))
    digits("seventh.digits", encode(Fraction(1, 7), 5))
    constraints = DigitConstraintSet(get_growth("n2"), get_weights("n2"))
    digits("sample.digits", sample_e_set(constraints, 60, 3))
    rng = random.Random(5)
    digits("unknown.digits", FactoradicReal(tuple(rng.randrange(m) for m in range(2, 51)),
                                            Tail.UNKNOWN))
    (directory / "bad.digits").write_text("factoradic v1\ndepth=5\ntail=ZERO\n1 2 9 0\n")
    np_rng = np.random.default_rng(9)
    preperiod = [int(v) for v in np_rng.integers(0, 3, 17)]
    (directory / "periodic.coeffs").write_text(
        coeffs_text(ultimately_periodic(preperiod, (1, 0, 2, 0, 0, 1), 3000)))
    (directory / "aperiodic.coeffs").write_text(
        coeffs_text((0,) + tuple(int(v) for v in np_rng.integers(0, 2, 500))))
    alphabet = (0, 1, 1j, -1 + 2j)
    (directory / "complex.coeffs").write_text(
        coeffs_text((0,) + tuple(alphabet[int(v)] for v in np_rng.integers(0, 4, 400))))
    (directory / "bad.coeffs").write_text("coeffs v1\nalphabet 0 1\n3*0 2*x\n")
    (directory / "long.coeffs").write_text("coeffs v1\nalphabet 0 1\n1*0 10000000*1\n")


def _masked(text: str) -> str:
    return "\n".join(ln for ln in text.split("\n")
                     if not ln.startswith("# timestamp=") and '"timestamp":' not in ln)


def _files(directory: Path) -> set[Path]:
    return {p for p in directory.rglob("*") if p.is_file()}


def digest(argv: list[str], directory: Path) -> str:
    """sha256 of one invocation's exit code, stdout, stderr and new files, timestamps masked.

    The files it wrote are removed afterwards, so cases do not see each other's output.
    """
    before = _files(directory)
    result = CliRunner().invoke(main, argv)
    h = hashlib.sha256()
    h.update(f"exit {result.exit_code}\n".encode())
    for text in (result.stdout, result.stderr):
        h.update(_masked(text).encode() + b"\0")
    for path in sorted(_files(directory) - before):
        h.update(path.relative_to(directory).as_posix().encode() + b"\0")
        h.update(_masked(path.read_text()).encode() + b"\0")
        path.unlink()
    return h.hexdigest()


def _versions() -> dict:
    return {"python": platform.python_version(), "numpy": np.__version__}


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    directory = tmp_path_factory.mktemp("parity")
    make_inputs(directory)
    return directory


@pytest.fixture(scope="module")
def pins():
    pinned = json.loads(PINS.read_text())
    if pinned["versions"] != _versions():
        pytest.skip(f"digests pinned under {pinned['versions']}, running {_versions()}")
    return pinned["digests"]


def test_every_case_is_pinned(pins):
    assert sorted(pins) == sorted(CASES)


@pytest.mark.parametrize("case", sorted(CASES))
def test_output_bytes_are_the_pinned_ones(case, inputs, pins, monkeypatch):
    monkeypatch.chdir(inputs)
    assert digest(CASES[case], inputs) == pins[case]


if __name__ == "__main__":
    import os
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        make_inputs(Path(tmp))
        table = {case: digest(argv, Path(tmp)) for case, argv in sorted(CASES.items())}
    old = json.loads(PINS.read_text())["digests"] if PINS.exists() else {}
    moved = sorted(case for case in table if old.get(case) != table[case])
    PINS.write_text(json.dumps({"versions": _versions(), "digests": table}, indent=1) + "\n")
    print(f"pinned {len(table)} cases; moved: {moved}", file=sys.stderr)
