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
import json
import math
import sys
from fractions import Fraction
from pathlib import Path

import click

from . import __version__
from .construction import (
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


def _echo(text: str, err: bool = False) -> None:
    """Write text to the current sys.stdout (sys.stderr if err).

    Naming the stream matters: click.echo without a file caches a wrapper
    per stream in a WeakKeyDictionary whose value keeps its key alive, so
    the output captured by every in-process invocation would never be freed.
    """
    click.echo(text, file=sys.stderr if err else sys.stdout, nl=False)


def _mapped_errors(fn):
    """Map domain errors onto the documented exit codes."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except InsufficientDepthError as exc:
            _echo(f"error: {exc}\n", err=True)
            sys.exit(EXIT_DEPTH)
        except ResourceBudgetError as exc:
            _echo(f"error: {exc}\n", err=True)
            sys.exit(EXIT_RESOURCE)
        except (ValueError, KeyError) as exc:
            _echo(f"error: {exc}\n", err=True)
            sys.exit(EXIT_CONFIG)

    return wrapper


def _config_hash(params: dict) -> str:
    blob = json.dumps({k: str(v) for k, v in sorted(params.items())}, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _provenance(params: dict, seed: int | None = None) -> dict:
    return {
        "tool": f"besum {__version__}",
        "config_hash": _config_hash(params),
        "seed": seed,
        # Excluded from the determinism contract.
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }


def _emit_csv(out: Path | None, params: dict, fields: list[str], rows: list[dict],
              seed: int | None = None) -> None:
    prov = _provenance(params, seed)
    lines = [f"# {k}={v}" for k, v in prov.items()]
    lines.append(",".join(fields))
    for row in rows:
        lines.append(",".join(str(row.get(f, "")) for f in fields))
    text = "\n".join(lines) + "\n"
    if out is None:
        _echo(text)
    else:
        out.write_text(text)


def _emit_json(out: Path | None, params: dict, payload: dict, seed: int | None = None) -> None:
    doc = {"provenance": _provenance(params, seed), **payload}
    text = json.dumps(doc, indent=2) + "\n"
    if out is None:
        _echo(text)
    else:
        out.write_text(text)


def _parse_rational(text: str) -> Fraction:
    try:
        value = Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise click.UsageError(f"--alpha: cannot parse {text!r} as p/q: {exc}")
    if not (0 < value < 1):
        raise click.UsageError(f"--alpha: {text} outside (0,1)")
    return value


def _load_alpha(alpha: str | None, alpha_digits: str | None) -> Fraction | FactoradicReal:
    if (alpha is None) == (alpha_digits is None):
        raise click.UsageError("give exactly one of --alpha or --alpha-digits")
    if alpha is not None:
        return _parse_rational(alpha)
    with open(alpha_digits) as fp:
        return read_digit_file(fp)


def _n_schedule(n_max: int) -> list[int]:
    """Log-spaced checkpoints (1, 2, 5 per decade), always including n_max."""
    if n_max < 1:
        raise ValueError(f"--N must be >= 1, got {n_max}")
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


def _dry_run_exit(params: dict) -> None:
    _echo("dry-run: " + json.dumps({k: str(v) for k, v in sorted(params.items())}) + "\n")
    sys.exit(0)


def _bit_budget() -> int:
    import os

    raw = os.environ.get(BIT_BUDGET_ENV)
    if raw is None:
        from .construction import DEFAULT_BIT_BUDGET

        return DEFAULT_BIT_BUDGET
    try:
        return int(raw)
    except ValueError:
        raise click.UsageError(f"{BIT_BUDGET_ENV}={raw!r} is not an integer")


@click.group()
@click.version_option(__version__)
def main():
    """Exact-arithmetic laboratory for bounded exponential sums."""


@main.command("sum")
@click.option("--f", "f_name", default="n2", show_default=True, help="Growth function name.")
@click.option("--alpha", default=None, help="Rational angle p/q in (0,1).")
@click.option("--alpha-digits", default=None, type=click.Path(exists=True, dir_okay=False))
@click.option("--N", "n_max", type=int, required=True)
@click.option("--out", type=click.Path(path_type=Path), default=None)
@click.option("--dry-run", is_flag=True)
@_mapped_errors
def sum_cmd(f_name, alpha, alpha_digits, n_max, out, dry_run):
    """Sum e((n+f(n)!) alpha) for n <= N, snapshots on a log-spaced schedule."""
    params = dict(verb="sum", f=f_name, alpha=alpha, alpha_digits=alpha_digits, N=n_max)
    f = get_growth(f_name)
    value = _load_alpha(alpha, alpha_digits)
    if dry_run:
        _dry_run_exit(params)
    rows = []
    if isinstance(value, Fraction):
        angle = Angle(value)
        rational_profile.cache_clear()  # one profile per invocation, for every N below
        for n in _n_schedule(n_max):
            _, trace = af_sum_rational(f, value.numerator, value.denominator, n)
            rows.append(csv_row(angle, trace))
        fields = ["alpha_num", "alpha_den", "N", "re", "im", "modulus", "empirical_sup", "sup_at"]
    else:
        for n in _n_schedule(n_max):
            total, phase_error = af_sum_factoradic(f, value, n)
            rows.append({
                "alpha_digits_file": alpha_digits, "N": n, "re": total.real,
                "im": total.imag, "modulus": abs(total), "phase_error": phase_error,
            })
        fields = ["alpha_digits_file", "N", "re", "im", "modulus", "phase_error"]
    _emit_csv(out, params, fields, rows)


@main.command("sup-sweep")
@click.option("--f", "f_name", default="n2", show_default=True)
@click.option("--qmax", type=int, required=True, help="All reduced p/q with q <= qmax.")
@click.option("--N", "n_max", type=int, required=True)
@click.option("--out", type=click.Path(path_type=Path), default=None)
@click.option("--dry-run", is_flag=True)
@_mapped_errors
def sup_sweep(f_name, qmax, n_max, out, dry_run):
    """Empirical sup of |S_{A(f)}(p/q, N)| against the rational-case bound.

    empirical_sup is over 1 <= N' <= N; the bound holds for N' >= q - 1, so
    ok compares tail_sup, the sup over q - 1 <= N' <= N, with bound_rhs.
    """
    params = dict(verb="sup-sweep", f=f_name, qmax=qmax, N=n_max)
    f = get_growth(f_name)
    if qmax < 2:
        raise click.UsageError("--qmax must be >= 2")
    if dry_run:
        _dry_run_exit(params)
    rows = []
    rational_profile.cache_clear()  # profiles last one invocation
    for q in range(2, qmax + 1):
        for p in range(1, q):
            if math.gcd(p, q) != 1:
                continue
            _, trace = af_sum_rational(f, p, q, n_max)
            rhs = eq4_rhs(f, p, q)
            tail_sup = rational_profile(f, p, q).tail_sup(n_max)
            rows.append({
                "alpha_num": p, "alpha_den": q, "N": n_max,
                "empirical_sup": trace.sup_modulus, "sup_at": trace.sup_at,
                "tail_sup": tail_sup, "bound_rhs": rhs, "ok": tail_sup <= rhs,
            })
    fields = ["alpha_num", "alpha_den", "N", "empirical_sup", "sup_at", "tail_sup", "bound_rhs",
              "ok"]
    _emit_csv(out, params, fields, rows)


@main.group("factoradic")
def factoradic_group():
    """Encode/decode factorial-base digit files."""


@factoradic_group.command("encode")
@click.option("--value", required=True, help="Rational p/q in [0,1).")
@click.option("--depth", type=int, default=32, show_default=True)
@click.option("--out", type=click.Path(path_type=Path), default=None)
@click.option("--dry-run", is_flag=True)
@_mapped_errors
def factoradic_encode(value, depth, out, dry_run):
    params = dict(verb="factoradic-encode", value=value, depth=depth)
    x = Fraction(value)
    if dry_run:
        _dry_run_exit(params)
    f = encode(x, depth)
    if out is None:
        write_digit_file(f, sys.stdout)
    else:
        with open(out, "w") as fp:
            write_digit_file(f, fp)


@factoradic_group.command("decode")
@click.option("--digits", "digits_path", required=True,
              type=click.Path(exists=True, dir_okay=False))
@click.option("--out", type=click.Path(path_type=Path), default=None)
@click.option("--dry-run", is_flag=True)
@_mapped_errors
def factoradic_decode(digits_path, out, dry_run):
    from .factoradic import decode as fdecode

    params = dict(verb="factoradic-decode", digits=digits_path)
    with open(digits_path) as fp:
        f = read_digit_file(fp)
    if dry_run:
        _dry_run_exit(params)
    lower, upper = fdecode(f)
    _emit_json(out, params, {
        "depth": f.depth, "tail": f.tail.value,
        "lower": str(lower), "upper": str(upper),
    })


@main.command("construct")
@click.option("--f", "f_name", default="n2", show_default=True)
@click.option("--nmax", type=int, required=True)
@click.option("--out", type=click.Path(path_type=Path), default=None)
@click.option("--dry-run", is_flag=True)
@_mapped_errors
def construct(f_name, nmax, out, dry_run):
    """List the exact elements n + f(n)! for n <= nmax."""
    params = dict(verb="construct", f=f_name, nmax=nmax)
    f = get_growth(f_name)
    if dry_run:
        _dry_run_exit(params)
    elements = af_elements(f, nmax, bit_budget=_bit_budget())
    rows = [{"n": n, "element": el} for n, el in enumerate(elements, start=1)]
    _emit_csv(out, params, ["n", "element"], rows)


@main.command("membership")
@click.option("--f", "f_name", default="n2", show_default=True)
@click.option("--a", "a_name", default="n2", show_default=True)
@click.option("--alpha-digits", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--out", type=click.Path(path_type=Path), default=None)
@click.option("--dry-run", is_flag=True)
@_mapped_errors
def membership_cmd(f_name, a_name, alpha_digits, out, dry_run):
    """Three-valued E(f,a) membership of a digit-file angle."""
    params = dict(verb="membership", f=f_name, a=a_name, alpha_digits=alpha_digits)
    constraints = DigitConstraintSet(get_growth(f_name), get_weights(a_name))
    with open(alpha_digits) as fp:
        alpha = read_digit_file(fp)
    if dry_run:
        _dry_run_exit(params)
    verdict = membership(constraints, alpha)
    _emit_json(out, params, {"membership": verdict.value, "depth": alpha.depth})


@main.command("sample-e")
@click.option("--f", "f_name", default="n2", show_default=True)
@click.option("--a", "a_name", default="n2", show_default=True)
@click.option("--depth", type=int, required=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--count", type=int, default=1, show_default=True)
@click.option("--out-dir", type=click.Path(path_type=Path), default=None,
              help="Write one digit file per sample here; default prints digit files.")
@click.option("--dry-run", is_flag=True)
@_mapped_errors
def sample_e(f_name, a_name, depth, seed, count, out_dir, dry_run):
    """Seeded samples from E(f,a), emitted as digit files."""
    params = dict(verb="sample-e", f=f_name, a=a_name, depth=depth, count=count)
    constraints = DigitConstraintSet(get_growth(f_name), get_weights(a_name))
    if dry_run:
        _dry_run_exit(params)
    for i in range(count):
        sample = sample_e_set(constraints, depth, seed + i)
        if out_dir is None:
            write_digit_file(sample, sys.stdout)
        else:
            out_dir.mkdir(parents=True, exist_ok=True)
            with open(out_dir / f"sample_{seed + i}.digits", "w") as fp:
                write_digit_file(sample, fp)


@main.command("bound")
@click.option("--f", "f_name", default="n2", show_default=True)
@click.option("--a", "a_name", default="n2", show_default=True)
@click.option("--alpha", required=True, help="Rational angle p/q.")
@click.option("--N", "n_max", type=int, required=True)
@click.option("--out", type=click.Path(path_type=Path), default=None)
@click.option("--dry-run", is_flag=True)
@_mapped_errors
def bound_cmd(f_name, a_name, alpha, n_max, out, dry_run):
    """The closed-form boundedness estimate for A(f) over E(f,a)."""
    params = dict(verb="bound", f=f_name, a=a_name, alpha=alpha, N=n_max)
    f = get_growth(f_name)
    a = get_weights(a_name)
    value = _parse_rational(alpha)
    if dry_run:
        _dry_run_exit(params)
    rows = [{"N": n, "bound": bound_theoretical(f, a, value, n)} for n in _n_schedule(n_max)]
    _emit_csv(out, params, ["N", "bound"], rows)


@main.command("dimension")
@click.option("--f", "f_name", default="n2", show_default=True)
@click.option("--a", "a_name", default="n2", show_default=True)
@click.option("--jmax", type=int, required=True)
@click.option("--out", type=click.Path(path_type=Path), default=None)
@click.option("--dry-run", is_flag=True)
@_mapped_errors
def dimension_cmd(f_name, a_name, jmax, out, dry_run):
    """log(cylinder count)/log(j!) series: the full-dimension proxy."""
    params = dict(verb="dimension", f=f_name, a=a_name, jmax=jmax)
    constraints = DigitConstraintSet(get_growth(f_name), get_weights(a_name))
    if dry_run:
        _dry_run_exit(params)
    series = dimension_lower_estimate(constraints, jmax)
    _emit_json(out, params, {"series": [{"j": j, "ratio": r} for j, r in series]})


@main.command("mass-check")
@click.option("--f", "f_name", default="n2", show_default=True)
@click.option("--a", "a_name", default="n2", show_default=True)
@click.option("--s", type=float, required=True)
@click.option("--i0", type=int, default=3, show_default=True)
@click.option("--imax", type=int, required=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--out", type=click.Path(path_type=Path), default=None)
@click.option("--dry-run", is_flag=True)
@_mapped_errors
def mass_check_cmd(f_name, a_name, s, i0, imax, seed, out, dry_run):
    """Empirical mass-distribution check mu(B) <= a |B|^s."""
    params = dict(verb="mass-check", f=f_name, a=a_name, s=s, i0=i0, imax=imax)
    constraints = DigitConstraintSet(get_growth(f_name), get_weights(a_name))
    if dry_run:
        _dry_run_exit(params)
    report = mass_check(constraints, s, i0, imax, seed=seed)
    _emit_json(out, params, report.to_json_dict(), seed=seed)


@main.command("cond-ii")
@click.option("--f", "f_name", default="n2", show_default=True)
@click.option("--eps", type=float, required=True)
@click.option("--imax", type=int, required=True)
@click.option("--out", type=click.Path(path_type=Path), default=None)
@click.option("--dry-run", is_flag=True)
@_mapped_errors
def cond_ii(f_name, eps, imax, out, dry_run):
    """Growth-condition statistic sup_i [sum log(f(j)+1) - eps log i!]."""
    params = dict(verb="cond-ii", f=f_name, eps=eps, imax=imax)
    f = get_growth(f_name)
    if dry_run:
        _dry_run_exit(params)
    sup_log, attained_at, _ = condition_ii_check(f, eps, imax)
    _emit_json(out, params, {"sup_log": sup_log, "attained_at": attained_at})


@main.command("periodicity")
@click.option("--coeffs", "coeffs_path", required=True,
              type=click.Path(exists=True, dir_okay=False))
@click.option("--max-preperiod", type=int, default=64, show_default=True)
@click.option("--max-period", type=int, default=100, show_default=True)
@click.option("--out", type=click.Path(path_type=Path), default=None)
@click.option("--dry-run", is_flag=True)
@_mapped_errors
def periodicity_cmd(coeffs_path, max_preperiod, max_period, out, dry_run):
    """Detect ultimate periodicity and test the period-collapse condition."""
    params = dict(verb="periodicity", coeffs=coeffs_path,
                  max_preperiod=max_preperiod, max_period=max_period)
    with open(coeffs_path) as fp:
        coeffs = read_coeffs_file(fp)
    if dry_run:
        _dry_run_exit(params)
    found = detect_ultimate_period(coeffs, max_preperiod, max_period)
    if found is None:
        _emit_json(out, params, {"periodic": False, "window": [max_preperiod, max_period]})
        return
    k, q = found
    _emit_json(out, params, {
        "periodic": True, "preperiod": k, "period": q,
        "collapse": period_collapse_test(coeffs, k, q),
    })


@main.command("sector-eval")
@click.option("--coeffs", "coeffs_path", required=True,
              type=click.Path(exists=True, dir_okay=False))
@click.option("--theta1", type=float, required=True)
@click.option("--theta2", type=float, required=True)
@click.option("--radii", default="0.9,0.99,0.999", show_default=True)
@click.option("--n-theta", type=int, default=16, show_default=True)
@click.option("--A", "n_terms", type=int, required=True)
@click.option("--out", type=click.Path(path_type=Path), default=None)
@click.option("--dry-run", is_flag=True)
@_mapped_errors
def sector_eval_cmd(coeffs_path, theta1, theta2, radii, n_theta, n_terms, out, dry_run):
    """Max modulus of prefix power sums on a sector grid (prefix_sup semantics)."""
    params = dict(verb="sector-eval", coeffs=coeffs_path, theta1=theta1,
                  theta2=theta2, radii=radii, n_theta=n_theta, A=n_terms)
    with open(coeffs_path) as fp:
        coeffs = read_coeffs_file(fp)
    r_grid = tuple(float(tok) for tok in radii.split(","))
    sector = SectorSpec(theta1, theta2, r_grid, n_theta)
    if dry_run:
        _dry_run_exit(params)
    grid = sector_eval(coeffs, sector, min(n_terms, len(coeffs) - 1))
    _emit_json(out, params, {
        "max_modulus": grid.max_modulus,
        "max_at_r": grid.max_at[0],
        "max_at_theta": grid.max_at[1],
    })


@main.command("qn-demo")
@click.option("--q", type=int, required=True)
@click.option("--alpha", required=True)
@click.option("--N", "n_max", type=int, required=True)
@click.option("--out", type=click.Path(path_type=Path), default=None)
@click.option("--dry-run", is_flag=True)
@_mapped_errors
def qn_demo(q, alpha, n_max, out, dry_run):
    """The {qn} counterexample: bounded off p/q, linear growth at p/q."""
    params = dict(verb="qn-demo", q=q, alpha=alpha, N=n_max)
    value = _parse_rational(alpha)
    if dry_run:
        _dry_run_exit(params)
    sup = qn_counterexample_sup(q, value, n_max)
    _emit_json(out, params, {"q": q, "alpha": str(value), "N": n_max, "empirical_sup": sup})


if __name__ == "__main__":
    main()
