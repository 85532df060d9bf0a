"""The batched factoradic path against the term-by-term references.

`af_sum_factoradic` steps every phase as one integer mod depth!: n X by
adding X, and f(n)! X by block products of the factors below depth,
starting from term 1's {f(1)! alpha}, which `frac_factorial` reads from
X mod (depth!/f(1)!).  The references in digit_oracles walk the digits
by Horner and add Fractions term by term.  The results must agree
exactly, not within a tolerance: both round the same rationals once
each, in the same order.
"""

import random
import time
from unittest import mock

import pytest
from click.testing import CliRunner
from hypothesis import example, given, settings
from hypothesis import strategies as st

from besum.cli import main
from besum.construction import (
    DigitConstraintSet,
    af_sum_factoradic,
    get_growth,
    get_weights,
    profile,
    sample_e_set,
)
from besum.factoradic import (
    FactoradicReal,
    InsufficientDepthError,
    Tail,
    frac_factorial,
    write_digit_file,
)
from digit_oracles import (
    af_sums_by_terms,
    bound_series_by_terms,
    bound_series_sum,
    frac_factorial_by_digits,
)

GROWTH = ["identity", "n2", "n3", "pow2"]


@st.composite
def digit_values(draw):
    depth = draw(st.integers(2, 300))
    digits = tuple(draw(st.integers(0, n - 1)) for n in range(2, depth + 1))
    return FactoradicReal(digits, draw(st.sampled_from(Tail)))


def allowed_n(f, alpha: FactoradicReal) -> int:
    """The largest N to check.

    An UNKNOWN tail allows every N with f(N) + 1 < depth.  A ZERO tail
    allows any N; {f(n)! alpha} = 0 once f(n) >= depth, so a few N past
    that point cover the rest.
    """
    n = 0
    while f(n + 1) + 1 < alpha.depth:
        n += 1
    return n if alpha.tail is Tail.UNKNOWN else n + 3


def digits_upto(depth: int) -> tuple[int, ...]:
    return tuple(n // 2 for n in range(2, depth + 1))


@given(f_name=st.sampled_from(GROWTH), alpha=digit_values(), rng=st.randoms())
# f(1) = 2 >= depth: every phase is n alpha.
@example(f_name="pow2", alpha=FactoradicReal((1,), Tail.ZERO), rng=random.Random(0))
# One step from below depth 20 to past it: 16 -> 32 and 8 -> 27.
@example(f_name="pow2", alpha=FactoradicReal(digits_upto(20), Tail.ZERO), rng=random.Random(0))
@example(f_name="n3", alpha=FactoradicReal(digits_upto(20), Tail.ZERO), rng=random.Random(0))
# UNKNOWN tail read at its deepest N: f(5) + 1 = 26 = depth - 1.
@example(f_name="n2", alpha=FactoradicReal(digits_upto(27), Tail.UNKNOWN), rng=random.Random(0))
@settings(max_examples=60, deadline=None)
def test_sums_and_phase_errors_equal_the_reference(f_name, alpha, rng):
    f = get_growth(f_name)
    n_max = allowed_n(f, alpha)
    want = af_sums_by_terms(f, alpha, n_max)
    profile.cache_clear()
    # Any order of N: the profile extends its partial sums only when asked for more,
    # and reads frac_factorial for term 1 only.
    order = list(range(1, n_max + 1))
    rng.shuffle(order)
    with mock.patch("besum.construction.frac_factorial", wraps=frac_factorial) as spy:
        for n in order:
            assert af_sum_factoradic(f, alpha, n) == want[n - 1], n
    assert spy.call_count == min(n_max, 1)
    if alpha.tail is Tail.UNKNOWN:
        with pytest.raises(InsufficientDepthError):
            af_sum_factoradic(f, alpha, n_max + 1)
    top = alpha.depth - 1 if alpha.tail is Tail.UNKNOWN else alpha.depth + 2
    for m in range(1, top + 1):
        assert frac_factorial(m, alpha) == frac_factorial_by_digits(m, alpha), m


@pytest.mark.parametrize("f_name", GROWTH)
@pytest.mark.parametrize("a_name", ["n2", "pow2", "nfact"])
def test_bound_series_equals_the_fraction_loop(f_name, a_name):
    f, a = get_growth(f_name), get_weights(a_name)
    for n in [1, 2, 3, 7, 64, 199, 200]:
        assert bound_series_sum(f, a, n) == bound_series_by_terms(f, a, n), n


def test_depth_1200_sample_matches_the_reference():
    f = get_growth("n2")
    alpha = sample_e_set(DigitConstraintSet(f, get_weights("n2")), 1200, 17)
    profile.cache_clear()
    want = af_sums_by_terms(f, alpha, 34)
    for n in range(1, 35):
        assert af_sum_factoradic(f, alpha, n) == want[n - 1], n


def _digit_file(tmp_path, alpha: FactoradicReal):
    path = tmp_path / "alpha.digits"
    with open(path, "w") as fp:
        write_digit_file(alpha, fp)
    return str(path)


def _sum_rows(output: str) -> list[list[str]]:
    lines = [ln for ln in output.splitlines() if ln and not ln.startswith("#")]
    return [ln.split(",") for ln in lines[1:]]


def test_pow2_zero_tail_to_n60_is_fast_and_exact(tmp_path):
    # f(60)! is a number of about 2^66 bits; past the depth its phase is 0 and is never formed.
    alpha = FactoradicReal(tuple(n // 2 for n in range(2, 41)), Tail.ZERO)
    start = time.process_time()
    result = CliRunner().invoke(main, ["sum", "--f", "pow2", "--alpha-digits",
                                       _digit_file(tmp_path, alpha), "--N", "60"])
    elapsed = time.process_time() - start
    assert result.exit_code == 0, result.output
    assert elapsed < 1.0
    want = af_sums_by_terms(get_growth("pow2"), alpha, 60)
    rows = _sum_rows(result.output)
    assert [int(r[1]) for r in rows] == [1, 2, 5, 10, 20, 50, 60]
    for row in rows:
        total, err = want[int(row[1]) - 1]
        assert (float(row[2]), float(row[3]), float(row[5])) == (total.real, total.imag, err)


@pytest.mark.parametrize("a_name, n_max, last", [
    ("n2", 10000, "74.75296272021114"),
    # prod_{n<=N} n! has about N^2 log2(N) / 2 bits; the series must stay near lcm = N!.
    ("nfact", 2000, "75.91601674883312"),
])
def test_bound_to_large_n_takes_seconds(a_name, n_max, last):
    start = time.process_time()
    result = CliRunner().invoke(main, ["bound", "--a", a_name, "--alpha", "2/7",
                                       "--N", str(n_max)])
    elapsed = time.process_time() - start
    assert result.exit_code == 0, result.output
    assert elapsed < 5.0
    assert _sum_rows(result.output)[-1] == [str(n_max), last]


def test_too_little_depth_exits_4_with_the_same_message(tmp_path):
    alpha = FactoradicReal(tuple([0] * 9), Tail.UNKNOWN)  # depth 10
    result = CliRunner().invoke(main, ["sum", "--alpha-digits", _digit_file(tmp_path, alpha),
                                       "--N", "5"])
    assert result.exit_code == 4
    assert result.output == "error: N=5 needs digits through position 26, have depth 10\n"
