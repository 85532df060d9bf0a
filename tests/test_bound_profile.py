"""The fixed-point bound series against the exact one.

`BoundProfile.value(N)` must be the correctly rounded float of
`bound_series_sum(f, a, N)`, bit for bit, whichever order the N come in
and whether the bracket or the exact fallback decided it.
"""

import math
from fractions import Fraction

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

import besum.construction as construction
from besum.cli import main
from besum.construction import BoundProfile, get_growth, get_weights, profile
from besum.expsum import dirichlet_bound
from digit_oracles import bound_series_sum

GROWTH = ["identity", "n2", "n3", "pow2"]
WEIGHTS = ["n2", "pow2", "nfact"]


def exact_bound(f, a, alpha: Fraction, n: int) -> float:
    """The bound with its series rounded once from the exact Fraction."""
    return dirichlet_bound(alpha) * (1.0 + 4.0 * math.pi * float(bound_series_sum(f, a, n)))


@pytest.fixture
def exact_calls(monkeypatch):
    """The N of every exact _bound_series call the profile makes."""
    calls = []
    exact = construction._bound_series

    def counted(f, a, n_terms):
        calls.append(n_terms)
        return exact(f, a, n_terms)

    monkeypatch.setattr(construction, "_bound_series", counted)
    return calls


def _bound_rows(output: str) -> list[tuple[int, float]]:
    lines = [ln for ln in output.splitlines() if ln and not ln.startswith("#")]
    return [(int(n), float(b)) for n, b in (ln.split(",") for ln in lines[1:])]


@settings(max_examples=40, deadline=None)
@given(f_name=st.sampled_from(GROWTH), a_name=st.sampled_from(WEIGHTS),
       ns=st.lists(st.integers(1, 400), min_size=1, max_size=6, unique=True))
def test_profile_equals_the_exact_series_ascending_and_descending(f_name, a_name, ns):
    f, a = get_growth(f_name), get_weights(a_name)
    want = {n: float(bound_series_sum(f, a, n)) for n in ns}
    profile = BoundProfile(f, a)
    for n in sorted(ns) + sorted(ns, reverse=True):
        assert profile.value(n) == want[n], n


def test_narrow_guard_bits_take_the_exact_path_and_agree(monkeypatch, exact_calls):
    # With 60 guard bits the bracket is ~3e-18 N wide: some reads here round
    # its two ends to one float, about a third fall back to the exact series.
    # Either way the value must be the exact series, rounded once.
    monkeypatch.setattr(construction, "BOUND_GUARD_BITS", 60)
    fell_back = 0
    for f_name in GROWTH:
        for a_name in WEIGHTS:
            f, a = get_growth(f_name), get_weights(a_name)
            profile = BoundProfile(f, a)
            for n in (1, 2, 3, 7, 33, 64, 100, 200, 399):
                want = float(bound_series_sum(f, a, n))
                exact_calls.clear()
                assert profile.value(n) == want, (f_name, a_name, n)
                assert exact_calls in ([], [n])
                fell_back += len(exact_calls)
    assert fell_back > 0


@pytest.mark.parametrize("n_max, alpha", [(1500, "1/3"), (1646, "500/997"), (1800, "2/7")])
def test_cli_rows_equal_the_exact_series(n_max, alpha):
    result = CliRunner().invoke(main, ["bound", "--f", "n2", "--a", "n2", "--alpha", alpha,
                                       "--N", str(n_max)])
    assert result.exit_code == 0, result.output
    rows = _bound_rows(result.output)
    assert rows[-1][0] == n_max
    f, a = get_growth("n2"), get_weights("n2")
    for n, got in rows:
        assert got == exact_bound(f, a, Fraction(alpha), n), n


def test_pow2_to_1800_needs_no_exact_series(exact_calls):
    # The lcm of 2^n + 1 over n <= N has about N^2/2 bits; the exact series
    # at N = 1800 took seconds, the fixed-point pass a few milliseconds.
    runner = CliRunner()
    result = runner.invoke(main, ["bound", "--f", "pow2", "--a", "n2", "--alpha", "1/3",
                                  "--N", "1800"])
    assert result.exit_code == 0, result.output
    assert _bound_rows(result.output)[-1][0] == 1800
    assert exact_calls == []
    # The schedule has no N = 300 row: --N 300 ends on one.
    result = runner.invoke(main, ["bound", "--f", "pow2", "--a", "n2", "--alpha", "1/3",
                                  "--N", "300"])
    assert result.exit_code == 0, result.output
    assert exact_calls == []
    f, a = get_growth("pow2"), get_weights("n2")
    assert _bound_rows(result.output)[-1] == (300, exact_bound(f, a, Fraction(1, 3), 300))


def test_one_profile_per_invocation(builds):
    built = builds(BoundProfile)
    for runs in (1, 2):
        result = CliRunner().invoke(main, ["bound", "--alpha", "2/7", "--N", "1000"])
        assert result.exit_code == 0, result.output
        # Built once and read at all ten schedule points; the slot is empty afterwards.
        assert len(built) == runs
        assert profile.cache_info().currsize == 0
