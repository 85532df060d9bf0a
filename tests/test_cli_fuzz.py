"""Fuzz of the CLI: any verb, each option omitted or given a token from a fixed pool.

Each run gives up to two of the verb's options a token from POOL, or
omits them, and gives the others a token in range for them.  Whatever
the arguments, a run must end in a documented exit code (0, 2 config,
3 resource budget, 4 digit depth) with no exception escaping but
SystemExit, JSON on stdout must be strict JSON, and no profile may be
left in the profile slot.  The in-range tokens are kept small so that
every run is small: N <= 50, depth <= 40, qmax <= 5, jmax <= 40,
imax <= 8, nmax <= 12.
"""

import json
from fractions import Fraction

from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from besum.cli import main
from besum.construction import profile
from besum.factoradic import encode, write_digit_file
from periodicity_oracles import coeffs_text

# Input files, written afresh into each run's working directory by _write_fixtures.
DIGITS_ZERO, DIGITS_UNKNOWN, DIGITS_BAD = "zero.digits", "unknown.digits", "bad.digits"
COEFFS, COEFFS_BAD, MISSING = "c.coeffs", "bad.coeffs", "missing.file"

# Tokens any option may be given: out of range, unparsable, non-finite, empty, and files.
# "2/7", "1e-30", "1e-400" and "1/10000000000" are also angles in (0,1); at 1e-400,
# 1/sin(pi alpha) is past the float range.
POOL = ["0", "-1", "1/0", "2/7", "1e-30", "1e-400", "1/10000000000", "nan", "inf", "x", "",
        DIGITS_ZERO, DIGITS_UNKNOWN, DIGITS_BAD, COEFFS, COEFFS_BAD, MISSING]

# None: the option is left out, which is in range where it has a default.
F = [None, "identity", "n2", "pow2"]
A = [None, "n2", "pow2", "nfact"]
DIGITS = [DIGITS_ZERO, DIGITS_UNKNOWN]
OUT = [None, "out.txt"]

# Each verb's options and the tokens in range for each.
VERBS = {
    ("sum",): {"--f": F, "--alpha": [None, "1/3"], "--alpha-digits": [None, *DIGITS],
               "--N": ["17", "50"], "--out": OUT},
    ("sup-sweep",): {"--f": F, "--qmax": ["2", "5"], "--N": ["1", "50"], "--out": OUT},
    ("factoradic", "encode"): {"--value": ["1/3", "5/7"], "--depth": [None, "2", "40"],
                               "--out": OUT},
    ("factoradic", "decode"): {"--digits": DIGITS, "--out": OUT},
    ("construct",): {"--f": F + ["n3"], "--nmax": ["1", "12"], "--out": OUT},
    ("membership",): {"--f": F, "--a": A, "--alpha-digits": DIGITS, "--out": OUT},
    ("sample-e",): {"--f": F, "--a": A, "--depth": ["12", "40"], "--seed": [None, "4"],
                    "--count": [None, "2"], "--out-dir": [None, "samples"]},
    ("bound",): {"--f": F, "--a": A, "--alpha": ["1/3"], "--N": ["1", "50"], "--out": OUT},
    ("dimension",): {"--f": F, "--a": A, "--jmax": ["4", "40"], "--out": OUT},
    ("mass-check",): {"--f": F, "--a": A, "--s": ["0.5", "0.9"], "--i0": [None, "2", "5"],
                      "--imax": ["4", "8"], "--seed": [None, "2"], "--out": OUT},
    ("cond-ii",): {"--f": F, "--eps": ["0.25", "0.5"], "--imax": ["1", "8"], "--out": OUT},
    ("periodicity",): {"--coeffs": [COEFFS], "--max-preperiod": [None, "5"],
                       "--max-period": [None, "1", "5"], "--out": OUT},
    ("sector-eval",): {"--coeffs": [COEFFS], "--theta1": ["0.1", "0.45"],
                       "--theta2": ["0.2", "0.55"], "--radii": [None, "0.9,0.99"],
                       "--n-theta": [None, "2"], "--A": ["1", "40"], "--out": OUT},
    ("qn-demo",): {"--q": ["2", "7"], "--alpha": ["1/3", "0.1234567891"], "--N": ["1", "50"],
                   "--out": OUT},
}
JSON_VERBS = {("factoradic", "decode"), ("membership",), ("dimension",), ("mass-check",),
              ("cond-ii",), ("periodicity",), ("sector-eval",), ("qn-demo",)}


def _write_fixtures() -> None:
    with open(DIGITS_ZERO, "w") as fp:
        write_digit_file(encode(Fraction(1, 3), 40), fp)
    with open(DIGITS_UNKNOWN, "w") as fp:
        write_digit_file(encode(Fraction(1, 1009), 30), fp)
    with open(DIGITS_BAD, "w") as fp:
        fp.write("factoradic v1\ndepth=5\ntail=ZERO\n1 2 9 0\n")
    with open(COEFFS, "w") as fp:
        fp.write(coeffs_text((0,) + (1, 0) * 30))
    with open(COEFFS_BAD, "w") as fp:
        fp.write("coeffs v1\nalphabet 0 1\n1*0 3*2\n")


@st.composite
def invocations(draw):
    verb = draw(st.sampled_from(sorted(VERBS)))
    options = VERBS[verb]
    bad = draw(st.sets(st.sampled_from(sorted(options)), max_size=2))
    argv = list(verb)
    for option, in_range in options.items():
        token = draw(st.sampled_from([None, *POOL] if option in bad else in_range))
        if token is not None:
            argv += [option, token]
    if draw(st.booleans()):
        argv.append("--dry-run")
    return verb, argv


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


@settings(max_examples=200, deadline=None)
@given(invocations())
def test_any_arguments_end_in_a_documented_exit_code(invocation):
    verb, argv = invocation
    runner = CliRunner()
    with runner.isolated_filesystem():
        _write_fixtures()
        result = runner.invoke(main, argv)
    assert result.exit_code in (0, 2, 3, 4), (argv, result.output)
    assert result.exception is None or isinstance(result.exception, SystemExit), (
        argv, repr(result.exception))
    assert profile.cache_info().currsize == 0, argv
    if result.exit_code == 0 and verb in JSON_VERBS and not {"--dry-run", "--out"} & set(argv):
        json.loads(result.stdout, parse_constant=_reject_constant)
