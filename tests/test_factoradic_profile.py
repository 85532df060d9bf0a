"""The digit path against an independent reference.

`af_sum_factoradic` reads alpha's prefix X/depth! as a rational angle on
`expsum.GeometricTail` (`construction.digit_sums`): the head steps
f(n)! X mod depth!, and past it, where f(n) >= depth, the sum is a
geometric series in closed form.  The reference, `af_sum_50_digits`,
reduces every phase exactly in Fractions and sums in 50-digit mpmath; the
engine's value must be within its stated `error(N)` of it.  phase_error
must be the float of 2 pi (N(N+1)/2 + sum_{n<=N} f(n)!)/depth! bit for bit.
"""

import time

import pytest
from click.testing import CliRunner
from hypothesis import example, given, settings
from hypothesis import strategies as st

from besum.cli import main
from besum.construction import (
    DigitConstraintSet,
    af_sum_factoradic,
    digit_sums,
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
    af_sum_50_digits,
    bound_series_by_terms,
    bound_series_sum,
    frac_factorial_by_digits,
    from_digit_map,
    phase_error_formula,
)

GROWTH = ["identity", "n2", "n3", "pow2"]


@st.composite
def digit_values(draw):
    depth = draw(st.integers(2, 300))
    digits = tuple(draw(st.integers(0, n - 1)) for n in range(2, depth + 1))
    return FactoradicReal(digits, draw(st.sampled_from(Tail)))


def first_past_depth(f, alpha: FactoradicReal) -> int:
    """n0, the first n with f(n) >= depth: from it on f(n)! alpha's prefix is an integer."""
    n = 1
    while f(n) < alpha.depth:
        n += 1
    return n


def deepest_n(f, alpha: FactoradicReal) -> int:
    """The largest N an UNKNOWN tail allows: f(N) + 1 < depth (0 if none)."""
    n = 0
    while f(n + 1) + 1 < alpha.depth:
        n += 1
    return n


def digits_upto(depth: int) -> tuple[int, ...]:
    return tuple(n // 2 for n in range(2, depth + 1))


def assert_within_stated_error(f, alpha: FactoradicReal, n: int) -> None:
    total, phase_error = af_sum_factoradic(f, alpha, n)
    want = af_sum_50_digits(f, alpha, n)
    err = profile(digit_sums, f, alpha).error(n) if alpha.numerator else 0.0
    assert abs(total - want) <= err, (n, total, want, err)
    assert phase_error == phase_error_formula(f, alpha, n), n


@given(f_name=st.sampled_from(GROWTH), alpha=digit_values(),
       big=st.lists(st.integers(1, 10**12), max_size=4), rng=st.randoms())
# f(1) = 2 >= depth: every phase is n alpha.
@example(f_name="pow2", alpha=FactoradicReal((1,), Tail.ZERO), big=[10**12], rng=None)
# One step from below depth 20 to past it: 16 -> 32 and 8 -> 27.
@example(f_name="pow2", alpha=FactoradicReal(digits_upto(20), Tail.ZERO), big=[10**9], rng=None)
@example(f_name="n3", alpha=FactoradicReal(digits_upto(20), Tail.ZERO), big=[10**12], rng=None)
# UNKNOWN tail read at its deepest N: f(5) + 1 = 26 = depth - 1.
@example(f_name="n2", alpha=FactoradicReal(digits_upto(27), Tail.UNKNOWN), big=[], rng=None)
# X/depth! within 2^-1000 of 0 and of 1: the closed form's sines come from mpmath.
@example(f_name="n2", alpha=from_digit_map({300: 1}, 300), big=[10**12], rng=None)
@example(f_name="identity", alpha=FactoradicReal(tuple(range(1, 300)), Tail.ZERO),
         big=[10**12], rng=None)
@settings(max_examples=60, deadline=None)
def test_sums_are_within_their_stated_error_of_the_50_digit_sum(f_name, alpha, big, rng):
    f = get_growth(f_name)
    if alpha.tail is Tail.UNKNOWN:  # the first N and the deepest ones
        top = deepest_n(f, alpha)
        order = sorted({n for n in (*range(1, 13), top // 2, top - 1, top) if 1 <= n <= top})
    else:  # through n0 and a few past it, then N up to 10^12
        n0 = first_past_depth(f, alpha)
        order = sorted({n for n in (*range(1, min(n0, 12) + 1), n0 - 1, n0, n0 + 1, n0 + 7) if n >= 1}) + big
    if rng is not None:  # any order of N: the head is stepped only as far as a read asks
        rng.shuffle(order)
    profile.cache_clear()
    for n in order:
        assert_within_stated_error(f, alpha, n)
    if alpha.tail is Tail.UNKNOWN:
        with pytest.raises(InsufficientDepthError):
            af_sum_factoradic(f, alpha, deepest_n(f, alpha) + 1)
    top = alpha.depth - 1 if alpha.tail is Tail.UNKNOWN else alpha.depth + 2
    for m in range(1, top + 1):
        assert frac_factorial(m, alpha) == frac_factorial_by_digits(m, alpha), m


@pytest.mark.parametrize("tail", list(Tail))
@pytest.mark.parametrize("f_name", GROWTH)
def test_a_zero_prefix_sums_to_n(f_name, tail):
    f, alpha = get_growth(f_name), FactoradicReal((0,) * 29, tail)  # depth 30
    top = deepest_n(f, alpha) if tail is Tail.UNKNOWN else 10**12
    for n in sorted({1, 2, top // 2 or 1, top}):
        assert af_sum_factoradic(f, alpha, n) == (complex(n), phase_error_formula(f, alpha, n))


@pytest.mark.parametrize("f_name", GROWTH)
def test_an_unknown_tail_needs_depth_past_f_n_plus_1(f_name):
    f = get_growth(f_name)
    for n in (1, 2, 3):
        deep = FactoradicReal(digits_upto(f(n) + 2), Tail.UNKNOWN)
        assert_within_stated_error(f, deep, n)
        shallow = FactoradicReal(digits_upto(f(n) + 1), Tail.UNKNOWN)
        with pytest.raises(InsufficientDepthError, match=f"N={n} needs digits through "
                           f"position {f(n) + 1}, have depth {f(n) + 1}"):
            af_sum_factoradic(f, shallow, n)


@pytest.mark.parametrize("f_name", GROWTH)
@pytest.mark.parametrize("a_name", ["n2", "pow2", "nfact"])
def test_bound_series_equals_the_fraction_loop(f_name, a_name):
    f, a = get_growth(f_name), get_weights(a_name)
    for n in [1, 2, 3, 7, 64, 199, 200]:
        assert bound_series_sum(f, a, n) == bound_series_by_terms(f, a, n), n


def _digit_file(tmp_path, alpha: FactoradicReal):
    path = tmp_path / "alpha.digits"
    with open(path, "w") as fp:
        write_digit_file(alpha, fp)
    return str(path)


def _sum_rows(output: str) -> list[list[str]]:
    lines = [ln for ln in output.splitlines() if ln and not ln.startswith("#")]
    return [ln.split(",") for ln in lines[1:]]


def _check_sum_rows(f_name: str, alpha: FactoradicReal, output: str) -> list[int]:
    f = get_growth(f_name)
    rows = _sum_rows(output)
    for row in rows:
        n = int(row[1])
        want = af_sum_50_digits(f, alpha, n)
        err = profile(digit_sums, f, alpha).error(n)
        assert abs(complex(float(row[2]), float(row[3])) - want) <= err, row
        assert float(row[5]) == 0.0
    return [int(r[1]) for r in rows]


def test_pow2_zero_tail_to_n60_is_fast_and_within_its_error(tmp_path):
    # f(60)! is a number of about 2^66 bits; past the depth its phase is 0 and is never formed.
    alpha = FactoradicReal(digits_upto(40), Tail.ZERO)
    start = time.process_time()
    result = CliRunner().invoke(main, ["sum", "--f", "pow2", "--alpha-digits",
                                       _digit_file(tmp_path, alpha), "--N", "60"])
    elapsed = time.process_time() - start
    assert result.exit_code == 0, result.output
    assert elapsed < 1.0
    assert _check_sum_rows("pow2", alpha, result.output) == [1, 2, 5, 10, 20, 50, 60]


def test_depth_1200_sample_to_n_10_12_takes_under_a_second(tmp_path):
    f = get_growth("n2")
    alpha = sample_e_set(DigitConstraintSet(f, get_weights("n2")), 1200, 17)
    path = _digit_file(tmp_path, alpha)
    start = time.process_time()
    result = CliRunner().invoke(main, ["sum", "--f", "n2", "--alpha-digits", path,
                                       "--N", str(10**12)])
    elapsed = time.process_time() - start
    assert result.exit_code == 0, result.output
    assert elapsed < 1.0
    assert _check_sum_rows("n2", alpha, result.output)[-1] == 10**12


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
