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
import sys
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple, Sequence

import click

from . import __version__
from .construction import (
    DigitConstraintSet,
    ResourceBudgetError,
    af_elements,
    af_sum_factoradic,
    af_sum_rational,
    bound_theoretical,
    check_bit_budget,
    eq4_rhs,
    get_growth,
    get_weights,
    membership,
    profile,
    rational_sums,
    sample_e_set,
)
from .dimension import condition_ii_check, dimension_lower_estimate, mass_check
from .expsum import qn_counterexample_sup
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
    end in the documented exit codes.  The function takes every other
    option but --out and returns one document, which `verb` writes to
    --out, or to stdout without it (_render): a list of row dicts is CSV,
    its header the first row's keys; a dict is JSON, with a Columns value
    as its list of rows; a FactoradicReal is a digit file.  A verb that
    writes its own files returns None.
    """
    def declare(fn):
        @functools.wraps(fn)
        def run(dry_run, out=None, **options):
            try:
                document = fn(**options)
                if document is not None:
                    _emit(out, _render(document))
            except InsufficientDepthError as exc:
                _echo(f"error: {exc}\n", err=True)
                sys.exit(EXIT_DEPTH)
            except ResourceBudgetError as exc:
                _echo(f"error: {exc}\n", err=True)
                sys.exit(EXIT_RESOURCE)
            except (ValueError, KeyError) as exc:
                _echo(f"error: {exc}\n", err=True)
                sys.exit(EXIT_CONFIG)
            finally:
                profile.cache_clear()  # whatever the exit, no profile outlives the verb

        # Options given to a command are appended, so --dry-run comes last.
        return click.option("--dry-run", is_flag=True)(group.command(name)(run))
    return declare


_F = click.option("--f", default="n2", show_default=True, help="Growth function name.")
_A = click.option("--a", default="n2", show_default=True)
_N = click.option("--N", "N", type=click.IntRange(min=1), required=True)
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


def _provenance() -> dict:
    return {
        "tool": f"besum {__version__}",
        "config_hash": hashlib.sha256(_config().encode()).hexdigest()[:16],
        "seed": click.get_current_context().params.get("seed"),
        # Excluded from the determinism contract.
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }


def _emit(out: Path | None, text: str) -> None:
    if out is None:
        _echo(text)
        return
    try:
        out.write_text(text)
    except OSError as exc:
        raise ValueError(f"cannot write {out}: {exc.strerror}") from exc


class Columns(NamedTuple):
    """A table held as its columns: row r is {keys[k]: columns[k][r]}, every column
    the same length and all ints or all floats (not bools)."""

    keys: tuple[str, ...]
    columns: tuple[Sequence, ...]


def _columns_json(table: Columns) -> str:
    """json.dumps(rows, indent=2) of the table's rows, nested one level deep.

    One %-template of every row fills in all the fields, laid row by row
    into a list of their final size: %s writes an int or a float as its
    repr, which is what json writes.  A float column is checked finite
    first.  Grown from an iterator instead, such lists raised
    cylinder-measure's peak RSS from 61 to 89-139 MB.
    """
    keys, columns = table
    n_rows = len(columns[0])
    if not n_rows:
        return "[]"
    for column in columns:
        if type(column[0]) is float and not all(map(math.isfinite, column)):
            raise ValueError("Out of range float values are not JSON compliant")
    fields = [None] * (n_rows * len(keys))
    for i, column in enumerate(columns):
        fields[i :: len(keys)] = column
    names = (json.encoder.encode_basestring_ascii(k).replace("%", "%%") for k in keys)
    record = "    {\n" + ",\n".join(f"      {k}: %s" for k in names) + "\n    }"
    return "[\n" + ",\n".join([record] * n_rows) % tuple(fields) + "\n  ]"


def _json_text(doc: dict) -> str:
    """json.dumps(doc, indent=2, allow_nan=False) of a doc with str keys, each Columns
    value written as its list of rows.

    A Columns value is written by one template (_columns_json): indent=2
    makes json use its pure-Python encoder, where dimension's series of
    tens of thousands of rows spent most of its op.  Strict JSON: a NaN or
    an infinity is an error (ValueError), not a non-standard constant.
    """
    items = [f"  {json.encoder.encode_basestring_ascii(key)}: " + (
        _columns_json(value) if type(value) is Columns
        else json.dumps(value, indent=2, allow_nan=False).replace("\n", "\n  ")
    ) for key, value in doc.items()]
    return "{\n" + ",\n".join(items) + "\n}" if items else "{}"


def _render(document: list[dict] | dict | FactoradicReal) -> str:
    """A verb's document as the text `verb` writes."""
    if isinstance(document, FactoradicReal):
        buf = io.StringIO()
        write_digit_file(document, buf)
        return buf.getvalue()
    if isinstance(document, dict):
        return _json_text({"provenance": _provenance(), **document}) + "\n"
    lines = [f"# {k}={v}" for k, v in _provenance().items()]
    records = [list(document[0]), *(list(map(str, row.values())) for row in document)]
    return "\n".join(lines) + "\n" + _csv_text(records) + "\n"


def _csv_text(records: list[list[str]]) -> str:
    """CSV lines (RFC 4180): a field holding a comma, a quote or a line break is
    quoted, its quotes doubled; every other field is written bare."""
    return "\n".join(",".join(map(_csv_field, record)) for record in records)


def _csv_field(text: str) -> str:
    if "," in text or '"' in text or "\n" in text or "\r" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


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
def sum_cmd(f, alpha, alpha_digits, N):
    """Sum e((n+f(n)!) alpha) for n <= N, snapshots on a log-spaced schedule."""
    f = get_growth(f)
    value = _load_alpha(alpha, alpha_digits)
    _stop_if_dry_run()
    rows = []
    if isinstance(value, Fraction):
        p, q = value.numerator, value.denominator
        for n in _n_schedule(N):
            trace = af_sum_rational(f, p, q, n)
            rows.append({
                "alpha_num": p, "alpha_den": q, "N": n, "re": trace.re, "im": trace.im,
                "modulus": trace.modulus, "empirical_sup": trace.sup_modulus,
                "sup_at": trace.sup_at,
            })
    else:
        for n in _n_schedule(N):
            total, phase_error = af_sum_factoradic(f, value, n)
            rows.append({
                "alpha_digits_file": alpha_digits, "N": n, "re": total.real,
                "im": total.imag, "modulus": abs(total), "phase_error": phase_error,
            })
    return rows


@verb(main, "sup-sweep")
@_F
@click.option("--qmax", type=click.IntRange(min=2), required=True,
              help="All reduced p/q with q <= qmax.")
@_N
@_OUT
def sup_sweep(f, qmax, N):
    """Empirical sup of |S_{A(f)}(p/q, N)| against the rational-case bound.

    empirical_sup is over 1 <= N' <= N; the bound holds for N' >= q - 1, so
    ok compares tail_sup, the sup over q - 1 <= N' <= N, with bound_rhs.
    """
    f = get_growth(f)
    _stop_if_dry_run()
    rows = []
    for q in range(2, qmax + 1):
        for p in range(1, q):
            if math.gcd(p, q) != 1:
                continue
            trace = af_sum_rational(f, p, q, N)
            rhs = eq4_rhs(f, p, q)
            tail_sup = profile(rational_sums, f, p, q).max_modulus(q - 1, N)
            rows.append({
                "alpha_num": p, "alpha_den": q, "N": N,
                "empirical_sup": trace.sup_modulus, "sup_at": trace.sup_at,
                "tail_sup": tail_sup, "bound_rhs": rhs, "ok": tail_sup <= rhs,
            })
    return rows


@main.group("factoradic")
def factoradic_group():
    """Encode/decode factorial-base digit files."""


@verb(factoradic_group, "encode")
@click.option("--value", required=True, help="Rational p/q in [0,1).")
@click.option("--depth", type=click.IntRange(min=2), default=32, show_default=True)
@_OUT
def factoradic_encode(value, depth):
    x = _parse_rational(value, "--value")
    _stop_if_dry_run()
    return encode(x, depth)


@verb(factoradic_group, "decode")
@click.option("--digits", required=True, type=click.Path(exists=True, dir_okay=False))
@_OUT
def factoradic_decode(digits):
    with open(digits) as fp:
        f = read_digit_file(fp)
    _stop_if_dry_run()
    lower, upper = decode(f)
    return {"depth": f.depth, "tail": f.tail.value, "lower": str(lower), "upper": str(upper)}


@verb(main, "construct")
@_F
@click.option("--nmax", type=click.IntRange(min=1), required=True)
@_OUT
def construct(f, nmax):
    """List the exact elements n + f(n)! for n <= nmax."""
    f = get_growth(f)
    _stop_if_dry_run()
    check_bit_budget(f, nmax)  # over the budget is exit 3, before the text limit
    digits = int(math.lgamma(f(nmax) + 1) / math.log(10)) + 1  # of f(nmax)!, the largest element
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # 0: no limit, or Python < 3.10.7
    if digits > limit > 0:
        raise ValueError(
            f"--nmax {nmax}: element n + f(n)! has {digits} decimal digits, over the limit "
            f"of {limit} digits Python converts to text (sys.get_int_max_str_digits)"
        )
    return [{"n": n, "element": el} for n, el in enumerate(af_elements(f, nmax), start=1)]


@verb(main, "membership")
@_F
@_A
@click.option("--alpha-digits", required=True, type=click.Path(exists=True, dir_okay=False))
@_OUT
def membership_cmd(f, a, alpha_digits):
    """Three-valued E(f,a) membership of a digit-file angle."""
    constraints = DigitConstraintSet(get_growth(f), get_weights(a))
    with open(alpha_digits) as fp:
        alpha = read_digit_file(fp)
    _stop_if_dry_run()
    verdict = membership(constraints, alpha)
    return {"membership": verdict.value, "depth": alpha.depth}


@verb(main, "sample-e")
@_F
@_A
@click.option("--depth", type=click.IntRange(min=2), required=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--count", type=click.IntRange(min=1), default=1, show_default=True)
@click.option("--out-dir", type=click.Path(path_type=Path), default=None,
              help="Write one digit file per sample here; default prints digit files.")
def sample_e(f, a, depth, seed, count, out_dir):
    """Seeded samples from E(f,a), emitted as digit files."""
    constraints = DigitConstraintSet(get_growth(f), get_weights(a))
    _stop_if_dry_run()
    if out_dir is not None:
        try:
            out_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ValueError(f"cannot create directory {out_dir}: {exc.strerror}") from exc
    for i in range(count):
        out = None if out_dir is None else out_dir / f"sample_{seed + i}.digits"
        _emit(out, _render(sample_e_set(constraints, depth, seed + i)))


@verb(main, "bound")
@_F
@_A
@click.option("--alpha", required=True, help="Rational angle p/q.")
@_N
@_OUT
def bound_cmd(f, a, alpha, N):
    """The closed-form boundedness estimate for A(f) over E(f,a)."""
    f = get_growth(f)
    a = get_weights(a)
    value = _load_alpha(alpha)
    _stop_if_dry_run()
    return [{"N": n, "bound": bound_theoretical(f, a, value, n)} for n in _n_schedule(N)]


@verb(main, "dimension")
@_F
@_A
@click.option("--jmax", type=click.IntRange(min=4), required=True)
@_OUT
def dimension_cmd(f, a, jmax):
    """log(cylinder count)/log(j!) series: the full-dimension proxy."""
    constraints = DigitConstraintSet(get_growth(f), get_weights(a))
    _stop_if_dry_run()
    series = dimension_lower_estimate(constraints, jmax)
    # zip(*series) makes both columns at their final size (see _columns_json).
    return {"series": Columns(("j", "ratio"), tuple(zip(*series)))}


@verb(main, "mass-check")
@_F
@_A
@click.option("--s", type=float, required=True)
@click.option("--i0", type=click.IntRange(min=2), default=3, show_default=True)
@click.option("--imax", type=int, required=True)
@click.option("--seed", type=int, default=0, show_default=True)
@_OUT
def mass_check_cmd(f, a, s, i0, imax, seed):
    """Empirical mass-distribution check mu(B) <= a |B|^s."""
    constraints = DigitConstraintSet(get_growth(f), get_weights(a))
    _stop_if_dry_run()
    return mass_check(constraints, s, i0, imax, seed=seed)


@verb(main, "cond-ii")
@_F
@click.option("--eps", type=float, required=True)
@click.option("--imax", type=click.IntRange(min=1), required=True)
@_OUT
def cond_ii(f, eps, imax):
    """Growth-condition statistic sup_i [sum log(f(j)+1) - eps log i!]."""
    f = get_growth(f)
    _stop_if_dry_run()
    sup_log, attained_at = condition_ii_check(f, eps, imax)
    return {"sup_log": sup_log, "attained_at": attained_at}


@verb(main, "periodicity")
@click.option("--coeffs", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--max-preperiod", type=click.IntRange(min=0), default=64, show_default=True)
@click.option("--max-period", type=click.IntRange(min=1), default=100, show_default=True)
@_OUT
def periodicity_cmd(coeffs, max_preperiod, max_period):
    """Detect ultimate periodicity and test the period-collapse condition."""
    with open(coeffs) as fp:
        sequence = read_coeffs_file(fp)
    _stop_if_dry_run()
    found = detect_ultimate_period(sequence, max_preperiod, max_period)
    if found is None:
        return {"periodic": False, "window": [max_preperiod, max_period]}
    k, q = found
    return {"periodic": True, "preperiod": k, "period": q,
            "collapse": period_collapse_test(sequence, k, q)}


@verb(main, "sector-eval")
@click.option("--coeffs", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--theta1", type=float, required=True)
@click.option("--theta2", type=float, required=True)
@click.option("--radii", default="0.9,0.99,0.999", show_default=True)
@click.option("--n-theta", type=int, default=16, show_default=True)
@click.option("--A", "A", type=click.IntRange(min=1), required=True)
@_OUT
def sector_eval_cmd(coeffs, theta1, theta2, radii, n_theta, A):
    """Max modulus of sum_{n<=A} a_n z^n over the sector's r-theta grid."""
    with open(coeffs) as fp:
        sequence = read_coeffs_file(fp)
    r_grid = tuple(float(tok) for tok in radii.split(","))
    sector = SectorSpec(theta1, theta2, r_grid, n_theta)
    _stop_if_dry_run()
    grid = sector_eval(sequence, sector, min(A, len(sequence) - 1))
    return {"max_modulus": grid.max_modulus, "max_at_r": grid.max_at[0],
            "max_at_theta": grid.max_at[1]}


@verb(main, "qn-demo")
@click.option("--q", type=click.IntRange(min=2), required=True)
@click.option("--alpha", required=True)
@_N
@_OUT
def qn_demo(q, alpha, N):
    """The {qn} counterexample: bounded off p/q, linear growth at p/q."""
    value = _load_alpha(alpha)
    _stop_if_dry_run()
    sup = qn_counterexample_sup(q, value, N)
    return {"q": q, "alpha": str(value), "N": N, "empirical_sup": sup}


if __name__ == "__main__":
    main()
