"""Command-line front end: reproducible experiments with CSV/JSON emission.

Every output file starts with a provenance header (tool version, a hash
of the effective config, the seed); given the same config and seed the
output is byte-identical apart from the timestamp line.  Exit codes:
2 config error, 3 resource-budget error, 4 insufficient digit depth.
"""

from __future__ import annotations

import datetime
import functools
import hashlib
import io
import json
import math
import os
import sys
from fractions import Fraction
from pathlib import Path

import click

from . import __version__
from .construction import (
    DEFAULT_BIT_BUDGET,
    DigitConstraintSet,
    ResourceBudgetError,
    af_elements,
    af_sum_factoradic,
    af_sum_rational,
    bound_theoretical,
    eq4_rhs,
    get_growth,
    get_weights,
    membership,
    rational_profile,
    sample_e_set,
)
from .dimension import condition_ii_check, dimension_lower_estimate, mass_check
from .expsum import Angle, csv_row, qn_counterexample_sup
from .factoradic import (
    FactoradicReal,
    InsufficientDepthError,
    decode,
    encode,
    read_digit_file,
    write_digit_file,
)
from .periodicity import (
    SectorSpec,
    detect_ultimate_period,
    period_collapse_test,
    read_coeffs_file,
    sector_eval,
)

EXIT_CONFIG = 2
EXIT_RESOURCE = 3
EXIT_DEPTH = 4

BIT_BUDGET_ENV = "BESUM_BIT_BUDGET"
# Options outside the hashed config: where output goes, --dry-run, and the
# seed, which the provenance reports on its own.
_UNHASHED = ("out", "out_dir", "dry_run", "seed")


def _echo(text: str, err: bool = False) -> None:
    """Write text to the current sys.stdout (sys.stderr if err).

    Naming the stream matters: click.echo without a file caches a wrapper
    per stream in a WeakKeyDictionary whose value keeps its key alive, so
    the output captured by every in-process invocation would never be freed.
    """
    click.echo(text, file=sys.stderr if err else sys.stdout, nl=False)


def verb(group: click.Group, name: str):
    """Declare the decorated function as the CLI verb `name` under `group`.

    The verb gets a --dry-run flag (see _stop_if_dry_run) and domain errors
    end in the documented exit codes; the function takes every other option.
    """
    def declare(fn):
        @functools.wraps(fn)
        def run(dry_run, **options):
            try:
                fn(**options)
            except InsufficientDepthError as exc:
                _echo(f"error: {exc}\n", err=True)
                sys.exit(EXIT_DEPTH)
            except ResourceBudgetError as exc:
                _echo(f"error: {exc}\n", err=True)
                sys.exit(EXIT_RESOURCE)
            except (ValueError, KeyError) as exc:
                _echo(f"error: {exc}\n", err=True)
                sys.exit(EXIT_CONFIG)

        # Options given to a command are appended, so --dry-run comes last.
        return click.option("--dry-run", is_flag=True)(group.command(name)(run))
    return declare


def _at_least(low: int):
    """Option callback: reject integers below low (exit 2, --dry-run included)."""
    def check(ctx, param, value):
        if value < low:
            raise click.BadParameter(f"{param.opts[0]} must be >= {low}, got {value}")
        return value
    return check


_F = click.option("--f", default="n2", show_default=True, help="Growth function name.")
_A = click.option("--a", default="n2", show_default=True)
_N = click.option("--N", "N", type=int, required=True, callback=_at_least(1))
_OUT = click.option("--out", type=click.Path(path_type=Path), default=None)


def _config() -> str:
    """The running verb's name and options, but _UNHASHED, as canonical JSON text."""
    ctx = click.get_current_context()
    config = {k: str(v) for k, v in ctx.params.items() if k not in _UNHASHED}
    # The command path without the program name: "sum", "factoradic-encode".
    prog = ctx.find_root().command_path
    config["verb"] = ctx.command_path[len(prog):].strip().replace(" ", "-")
    return json.dumps(config, sort_keys=True)


def _stop_if_dry_run() -> None:
    """Under --dry-run, print the config and exit 0; verbs call this once their inputs check out."""
    if click.get_current_context().params["dry_run"]:
        _echo(f"dry-run: {_config()}\n")
        sys.exit(0)


def _provenance(seed: int | None) -> dict:
    return {
        "tool": f"besum {__version__}",
        "config_hash": hashlib.sha256(_config().encode()).hexdigest()[:16],
        "seed": seed,
        # Excluded from the determinism contract.
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }


def _emit(out: Path | None, text: str) -> None:
    if out is None:
        _echo(text)
    else:
        out.write_text(text)


def _emit_csv(out: Path | None, fields: list[str], rows: list[dict]) -> None:
    lines = [f"# {k}={v}" for k, v in _provenance(None).items()]
    lines.append(",".join(fields))
    for row in rows:
        lines.append(",".join(str(row.get(f, "")) for f in fields))
    _emit(out, "\n".join(lines) + "\n")


def _emit_json(out: Path | None, payload: dict, seed: int | None = None) -> None:
    doc = {"provenance": _provenance(seed), **payload}
    # Strict JSON: a NaN or an infinity is an error, not a non-standard constant.
    _emit(out, json.dumps(doc, indent=2, allow_nan=False) + "\n")


def _emit_digits(out: Path | None, value: FactoradicReal) -> None:
    buf = io.StringIO()
    write_digit_file(value, buf)
    _emit(out, buf.getvalue())


def _parse_rational(text: str, option: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise click.UsageError(f"{option}: cannot parse {text!r} as p/q: {exc}")


def _load_alpha(alpha: str | None, alpha_digits: str | None = None) -> Fraction | FactoradicReal:
    """The angle: --alpha, a rational in (0,1), or --alpha-digits, a digit file; exactly one."""
    if (alpha is None) == (alpha_digits is None):
        raise click.UsageError("give exactly one of --alpha or --alpha-digits")
    if alpha_digits is not None:
        with open(alpha_digits) as fp:
            return read_digit_file(fp)
    value = _parse_rational(alpha, "--alpha")
    if not (0 < value < 1):
        raise click.UsageError(f"--alpha: {alpha} outside (0,1)")
    return value


def _n_schedule(n_max: int) -> list[int]:
    """Log-spaced checkpoints (1, 2, 5 per decade), always including n_max >= 1."""
    points = []
    decade = 1
    while decade <= n_max:
        for mult in (1, 2, 5):
            if mult * decade <= n_max:
                points.append(mult * decade)
        decade *= 10
    if points[-1] != n_max:
        points.append(n_max)
    return points


def _bit_budget() -> int:
    raw = os.environ.get(BIT_BUDGET_ENV, str(DEFAULT_BIT_BUDGET))
    try:
        return int(raw)
    except ValueError:
        raise click.UsageError(f"{BIT_BUDGET_ENV}={raw!r} is not an integer")


@click.group()
@click.version_option(__version__)
def main():
    """Exact-arithmetic laboratory for bounded exponential sums."""


@verb(main, "sum")
@_F
@click.option("--alpha", default=None, help="Rational angle p/q in (0,1).")
@click.option("--alpha-digits", default=None, type=click.Path(exists=True, dir_okay=False))
@_N
@_OUT
def sum_cmd(f, alpha, alpha_digits, N, out):
    """Sum e((n+f(n)!) alpha) for n <= N, snapshots on a log-spaced schedule."""
    f = get_growth(f)
    value = _load_alpha(alpha, alpha_digits)
    _stop_if_dry_run()
    rows = []
    if isinstance(value, Fraction):
        angle = Angle(value)
        rational_profile.cache_clear()  # one profile per invocation, for every N below
        for n in _n_schedule(N):
            _, trace = af_sum_rational(f, value.numerator, value.denominator, n)
            rows.append(csv_row(angle, trace))
        fields = ["alpha_num", "alpha_den", "N", "re", "im", "modulus", "empirical_sup", "sup_at"]
    else:
        for n in _n_schedule(N):
            total, phase_error = af_sum_factoradic(f, value, n)
            rows.append({
                "alpha_digits_file": alpha_digits, "N": n, "re": total.real,
                "im": total.imag, "modulus": abs(total), "phase_error": phase_error,
            })
        fields = ["alpha_digits_file", "N", "re", "im", "modulus", "phase_error"]
    _emit_csv(out, fields, rows)


@verb(main, "sup-sweep")
@_F
@click.option("--qmax", type=int, required=True, callback=_at_least(2),
              help="All reduced p/q with q <= qmax.")
@_N
@_OUT
def sup_sweep(f, qmax, N, out):
    """Empirical sup of |S_{A(f)}(p/q, N)| against the rational-case bound.

    empirical_sup is over 1 <= N' <= N; the bound holds for N' >= q - 1, so
    ok compares tail_sup, the sup over q - 1 <= N' <= N, with bound_rhs.
    """
    f = get_growth(f)
    _stop_if_dry_run()
    rows = []
    rational_profile.cache_clear()  # profiles last one invocation
    for q in range(2, qmax + 1):
        for p in range(1, q):
            if math.gcd(p, q) != 1:
                continue
            _, trace = af_sum_rational(f, p, q, N)
            rhs = eq4_rhs(f, p, q)
            tail_sup = rational_profile(f, p, q).tail_sup(N)
            rows.append({
                "alpha_num": p, "alpha_den": q, "N": N,
                "empirical_sup": trace.sup_modulus, "sup_at": trace.sup_at,
                "tail_sup": tail_sup, "bound_rhs": rhs, "ok": tail_sup <= rhs,
            })
    fields = ["alpha_num", "alpha_den", "N", "empirical_sup", "sup_at", "tail_sup", "bound_rhs",
              "ok"]
    _emit_csv(out, fields, rows)


@main.group("factoradic")
def factoradic_group():
    """Encode/decode factorial-base digit files."""


@verb(factoradic_group, "encode")
@click.option("--value", required=True, help="Rational p/q in [0,1).")
@click.option("--depth", type=int, default=32, show_default=True)
@_OUT
def factoradic_encode(value, depth, out):
    x = _parse_rational(value, "--value")
    _stop_if_dry_run()
    _emit_digits(out, encode(x, depth))


@verb(factoradic_group, "decode")
@click.option("--digits", required=True, type=click.Path(exists=True, dir_okay=False))
@_OUT
def factoradic_decode(digits, out):
    with open(digits) as fp:
        f = read_digit_file(fp)
    _stop_if_dry_run()
    lower, upper = decode(f)
    _emit_json(out, {
        "depth": f.depth, "tail": f.tail.value,
        "lower": str(lower), "upper": str(upper),
    })


@verb(main, "construct")
@_F
@click.option("--nmax", type=int, required=True)
@_OUT
def construct(f, nmax, out):
    """List the exact elements n + f(n)! for n <= nmax."""
    f = get_growth(f)
    _stop_if_dry_run()
    elements = af_elements(f, nmax, bit_budget=_bit_budget())
    rows = [{"n": n, "element": el} for n, el in enumerate(elements, start=1)]
    _emit_csv(out, ["n", "element"], rows)


@verb(main, "membership")
@_F
@_A
@click.option("--alpha-digits", required=True, type=click.Path(exists=True, dir_okay=False))
@_OUT
def membership_cmd(f, a, alpha_digits, out):
    """Three-valued E(f,a) membership of a digit-file angle."""
    constraints = DigitConstraintSet(get_growth(f), get_weights(a))
    with open(alpha_digits) as fp:
        alpha = read_digit_file(fp)
    _stop_if_dry_run()
    verdict = membership(constraints, alpha)
    _emit_json(out, {"membership": verdict.value, "depth": alpha.depth})


@verb(main, "sample-e")
@_F
@_A
@click.option("--depth", type=int, required=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--count", type=int, default=1, show_default=True, callback=_at_least(1))
@click.option("--out-dir", type=click.Path(path_type=Path), default=None,
              help="Write one digit file per sample here; default prints digit files.")
def sample_e(f, a, depth, seed, count, out_dir):
    """Seeded samples from E(f,a), emitted as digit files."""
    constraints = DigitConstraintSet(get_growth(f), get_weights(a))
    _stop_if_dry_run()
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
    for i in range(count):
        out = None if out_dir is None else out_dir / f"sample_{seed + i}.digits"
        _emit_digits(out, sample_e_set(constraints, depth, seed + i))


@verb(main, "bound")
@_F
@_A
@click.option("--alpha", required=True, help="Rational angle p/q.")
@_N
@_OUT
def bound_cmd(f, a, alpha, N, out):
    """The closed-form boundedness estimate for A(f) over E(f,a)."""
    f = get_growth(f)
    a = get_weights(a)
    value = _load_alpha(alpha)
    _stop_if_dry_run()
    rows = [{"N": n, "bound": bound_theoretical(f, a, value, n)} for n in _n_schedule(N)]
    _emit_csv(out, ["N", "bound"], rows)


@verb(main, "dimension")
@_F
@_A
@click.option("--jmax", type=int, required=True)
@_OUT
def dimension_cmd(f, a, jmax, out):
    """log(cylinder count)/log(j!) series: the full-dimension proxy."""
    constraints = DigitConstraintSet(get_growth(f), get_weights(a))
    _stop_if_dry_run()
    series = dimension_lower_estimate(constraints, jmax)
    _emit_json(out, {"series": [{"j": j, "ratio": r} for j, r in series]})


@verb(main, "mass-check")
@_F
@_A
@click.option("--s", type=float, required=True)
@click.option("--i0", type=int, default=3, show_default=True)
@click.option("--imax", type=int, required=True)
@click.option("--seed", type=int, default=0, show_default=True)
@_OUT
def mass_check_cmd(f, a, s, i0, imax, seed, out):
    """Empirical mass-distribution check mu(B) <= a |B|^s."""
    constraints = DigitConstraintSet(get_growth(f), get_weights(a))
    _stop_if_dry_run()
    report = mass_check(constraints, s, i0, imax, seed=seed)
    _emit_json(out, report.to_json_dict(), seed=seed)


@verb(main, "cond-ii")
@_F
@click.option("--eps", type=float, required=True)
@click.option("--imax", type=int, required=True, callback=_at_least(1))
@_OUT
def cond_ii(f, eps, imax, out):
    """Growth-condition statistic sup_i [sum log(f(j)+1) - eps log i!]."""
    f = get_growth(f)
    _stop_if_dry_run()
    sup_log, attained_at, _ = condition_ii_check(f, eps, imax)
    _emit_json(out, {"sup_log": sup_log, "attained_at": attained_at})


@verb(main, "periodicity")
@click.option("--coeffs", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--max-preperiod", type=int, default=64, show_default=True, callback=_at_least(0))
@click.option("--max-period", type=int, default=100, show_default=True, callback=_at_least(1))
@_OUT
def periodicity_cmd(coeffs, max_preperiod, max_period, out):
    """Detect ultimate periodicity and test the period-collapse condition."""
    with open(coeffs) as fp:
        sequence = read_coeffs_file(fp)
    _stop_if_dry_run()
    found = detect_ultimate_period(sequence, max_preperiod, max_period)
    if found is None:
        _emit_json(out, {"periodic": False, "window": [max_preperiod, max_period]})
        return
    k, q = found
    _emit_json(out, {
        "periodic": True, "preperiod": k, "period": q,
        "collapse": period_collapse_test(sequence, k, q),
    })


@verb(main, "sector-eval")
@click.option("--coeffs", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--theta1", type=float, required=True)
@click.option("--theta2", type=float, required=True)
@click.option("--radii", default="0.9,0.99,0.999", show_default=True)
@click.option("--n-theta", type=int, default=16, show_default=True)
@click.option("--A", "A", type=int, required=True, callback=_at_least(1))
@_OUT
def sector_eval_cmd(coeffs, theta1, theta2, radii, n_theta, A, out):
    """Max modulus of prefix power sums on a sector grid (prefix_sup semantics)."""
    with open(coeffs) as fp:
        sequence = read_coeffs_file(fp)
    r_grid = tuple(float(tok) for tok in radii.split(","))
    sector = SectorSpec(theta1, theta2, r_grid, n_theta)
    _stop_if_dry_run()
    grid = sector_eval(sequence, sector, min(A, len(sequence) - 1))
    _emit_json(out, {
        "max_modulus": grid.max_modulus,
        "max_at_r": grid.max_at[0],
        "max_at_theta": grid.max_at[1],
    })


@verb(main, "qn-demo")
@click.option("--q", type=int, required=True)
@click.option("--alpha", required=True)
@_N
@_OUT
def qn_demo(q, alpha, N, out):
    """The {qn} counterexample: bounded off p/q, linear growth at p/q."""
    value = _load_alpha(alpha)
    _stop_if_dry_run()
    sup = qn_counterexample_sup(q, value, N)
    _emit_json(out, {"q": q, "alpha": str(value), "N": N, "empirical_sup": sup})


if __name__ == "__main__":
    main()
