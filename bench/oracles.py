"""Independent checks of every op's output.

Each check recomputes what the op should print by a different route
than besum takes: per-residue integer counts and one period of the
rational tail instead of term-by-term accumulation, integer arithmetic
modulo depth! instead of factoradic Horner with Fractions, plain float
series, direct numpy recomputation in chunks.  None of it imports besum.
A check raises OracleError on the first disagreement.  References are
computed on an op's first run and cached on the op (`op.expect`), so a
repeated op costs only parsing and comparison.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from pathlib import Path

import numpy as np

from workloads import Op, Planted

GROWTH = {"identity": lambda n: n, "n2": lambda n: n * n, "n3": lambda n: n ** 3,
          "pow2": lambda n: 2 ** n}
WEIGHT = {"n2": lambda n: n * n, "pow2": lambda n: 2 ** n, "nfact": math.factorial}
E_UPPER = 2.71828182846  # besum's rational upper bound for Euler's e


class OracleError(AssertionError):
    """An op's output disagrees with the oracle."""


def check(op: Op, stdout: str) -> None:
    CHECKS[op.kind](op, stdout)


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise OracleError(msg)


def _close(got: float, want: float, tol: float, what: str) -> None:
    _require(abs(got - want) <= tol, f"{what}: got {got!r}, want {want!r} (tol {tol:.3g})")


def _reject_constant(name: str):
    raise OracleError(f"non-finite JSON constant {name}")


def _json(text: str) -> dict:
    try:
        return json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise OracleError(f"invalid JSON: {exc}") from exc


def _csv(text: str) -> list[dict]:
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    _require(bool(lines), "empty CSV")
    header = lines[0].split(",")
    return [dict(zip(header, ln.split(","))) for ln in lines[1:]]


def schedule(n_max: int) -> list[int]:
    """1, 2, 5 per decade up to n_max, then n_max itself."""
    points = [m * 10 ** k for k in range(len(str(n_max))) for m in (1, 2, 5) if m * 10 ** k <= n_max]
    return points if points[-1] == n_max else points + [n_max]


def _turn(t: float) -> tuple[float, float]:
    return math.cos(2 * math.pi * t), math.sin(2 * math.pi * t)


# --- rational angles ----------------------------------------------------------


def factorial_residues(f: str, q: int) -> list[int]:
    """f(n)! mod q for n = 1..H, where H is the first n with f(n)! = 0 mod q."""
    fn = GROWTH[f]
    out, fact_mod, arg = [], 1, 0
    while fact_mod:
        n = len(out) + 1
        for k in range(arg + 1, fn(n) + 1):
            fact_mod = fact_mod * k % q
            if not fact_mod:
                break
        arg = fn(n)
        out.append(fact_mod)
    return out


class RationalSum:
    """S(N) = sum_{n<=N} e((n + f(n)!) p/q) from per-residue integer counts.

    Until f(n)! = 0 mod q (the head, H terms) each term's residue is explicit;
    after it term n is e(n p/q), so the partial sums repeat with period q and
    their sup over any N is reached within H + q terms.
    """

    def __init__(self, f: str, p: int, q: int):
        self.p, self.q = p, q
        # residue index of term n = 1..H
        self.head = [(n + r) * p % q for n, r in enumerate(factorial_residues(f, q), start=1)]
        self.roots = [_turn(k / q) for k in range(q)]
        self._prefix_sup: list[float] = []
        re = im = best = 0.0
        for n in range(1, len(self.head) + q + 1):
            c, s = self.roots[self._residue(n)]
            re, im = re + c, im + s
            best = max(best, math.hypot(re, im))
            self._prefix_sup.append(best)

    def _residue(self, n: int) -> int:
        return self.head[n - 1] if n <= len(self.head) else n * self.p % self.q

    def value(self, n_max: int) -> complex:
        counts = [0] * self.q
        for k in self.head[:n_max]:
            counts[k] += 1
        start = len(self.head) + 1
        if n_max >= start:
            full, rem = divmod(n_max - start + 1, self.q)
            for j in range(self.q):
                counts[(start + j) * self.p % self.q] += full + (j < rem)
        re = math.fsum(c * r[0] for c, r in zip(counts, self.roots))
        im = math.fsum(c * r[1] for c, r in zip(counts, self.roots))
        return complex(re, im)

    def sup(self, n_max: int) -> float:
        return self._prefix_sup[min(n_max, len(self._prefix_sup)) - 1]


def _sum_tol(n: int) -> float:
    # Each of the N unit terms carries ~1e-16 rounding in both programs.
    return 1e-9 + 1e-15 * n


def _check_sum_rational(op: Op, out: str) -> None:
    p, q, n_max = op.params["p"], op.params["q"], op.params["N"]
    if op.expect is None:
        op.expect = RationalSum(op.params["f"], p, q)
    ref: RationalSum = op.expect
    rows = _csv(out)
    _require([int(r["N"]) for r in rows] == schedule(n_max), "schedule rows")
    for r in rows:
        n = int(r["N"])
        _require((int(r["alpha_num"]), int(r["alpha_den"])) == (p, q), "alpha echo")
        want = ref.value(n)
        _close(float(r["re"]), want.real, _sum_tol(n), f"re at N={n}")
        _close(float(r["im"]), want.imag, _sum_tol(n), f"im at N={n}")
        _close(float(r["modulus"]), abs(want), _sum_tol(n), f"modulus at N={n}")
        _close(float(r["empirical_sup"]), ref.sup(n), _sum_tol(n), f"empirical_sup at N={n}")
        _require(1 <= int(r["sup_at"]) <= n, f"sup_at at N={n} outside 1..N")


def _check_sup_sweep(op: Op, out: str) -> None:
    f, qmax, n_max = op.params["f"], op.params["qmax"], op.params["N"]
    if op.expect is None:
        op.expect = {}
        for q in range(2, qmax + 1):
            for p in range(1, q):
                if math.gcd(p, q) == 1:
                    ref = RationalSum(f, p, q)
                    rhs = abs(ref.value(q - 1)) + 2.0 / math.sin(math.pi * p / q) + 1.0
                    op.expect[(p, q)] = (ref.sup(n_max), rhs)
    rows = _csv(out)
    _require([(int(r["alpha_num"]), int(r["alpha_den"])) for r in rows] == list(op.expect),
             "rows are not every reduced p/q with q <= qmax")
    for r in rows:
        key = (int(r["alpha_num"]), int(r["alpha_den"]))
        sup, rhs = op.expect[key]
        _require(int(r["N"]) == n_max, "N echo")
        _close(float(r["empirical_sup"]), sup, _sum_tol(n_max), f"empirical_sup at {key}")
        _close(float(r["bound_rhs"]), rhs, 1e-9, f"bound_rhs at {key}")
        _require(r["ok"] == "True" and float(r["empirical_sup"]) <= float(r["bound_rhs"]),
                 f"bound not met at {key}")


def _check_qn_demo(op: Op, out: str) -> None:
    q, a, b, n_max = (op.params[k] for k in ("q", "a", "b", "N"))
    doc = _json(out)
    _require((doc["q"], doc["alpha"], doc["N"]) == (q, f"{a}/{b}", n_max), "echo")
    terms = n_max // q
    step = q * a % b  # the {qn} terms are e(k * step / b)
    if step == 0:
        # Resonance: every term is exactly 1, so the sup is exactly N/q.
        _require(doc["empirical_sup"] == float(terms), f"resonant sup {doc['empirical_sup']} != {terms}")
        return
    period = b // math.gcd(step, b)
    s = math.sin(math.pi * step / b)
    want = max(abs(math.sin(math.pi * k * step / b) / s) for k in range(1, min(terms, period) + 1))
    _close(doc["empirical_sup"], want, 1e-9, "off-resonance sup")


# --- digit files and big-number paths ----------------------------------------


def parse_digits(text: str) -> tuple[int, str, list[int]]:
    """(depth, tail, digits s_2..s_depth) of a `factoradic v1` file."""
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    _require(lines[:1] == ["factoradic v1"], "digit file header")
    depth = int(lines[1].removeprefix("depth="))
    tail = lines[2].removeprefix("tail=")
    digits = [int(t) for t in " ".join(lines[3:]).split()]
    _require(len(digits) == depth - 1, "digit count != depth - 1")
    _require(all(0 <= s < m for m, s in enumerate(digits, start=2)), "digit out of range")
    return depth, tail, digits


def _numerator(digits: list[int]) -> int:
    """k with sum s_m/m! = k/depth!."""
    k = 0
    for m, s in enumerate(digits, start=2):
        k = k * m + s
    return k


def _caps(f: str, a: str, depth: int) -> dict[int, int]:
    """Digit cap per constrained position of E(f, a) up to depth."""
    caps, i = {}, 1
    while GROWTH[f](i) + 1 <= depth:
        m = GROWTH[f](i) + 1
        caps[m] = m // WEIGHT[a](i)
        i += 1
    return caps


def cylinder_count(f: str, a: str, depth: int) -> int:
    """Number of depth-cylinders of E(f, a) u {0}: the product of allowed digit counts."""
    caps = _caps(f, a, depth)
    count = 1
    for m in range(2, depth + 1):
        count *= m if m not in caps else min(m - 1, caps[m]) + 1
    return count


def _check_sample(op: Op, out: str) -> None:
    depth, tail, digits = parse_digits(Path(op.params["path"]).read_text())
    _require(depth == op.params["depth"] and tail == "ZERO", "sample depth or tail")
    caps = _caps(op.params["f"], op.params["a"], depth)
    _require(all(digits[m - 2] <= cap for m, cap in caps.items()), "sample digit above its cap")
    _require(any(digits), "sample is alpha = 0")


def _check_membership(op: Op, out: str) -> None:
    doc = _json(out)
    _require(doc["membership"] == op.params["expected"], f"membership {doc['membership']}")
    _require(doc["depth"] == op.params["depth"], "depth echo")


def _exact_digit_sum(f: str, digits: list[int], n_max: int) -> list[complex]:
    """Partial sums S(1..n_max) at alpha = k/depth!, phases reduced exactly mod depth!."""
    depth = len(digits) + 1
    modulus = math.factorial(depth)
    k = _numerator(digits)
    fn = GROWTH[f]
    out, re, im = [], [], []
    fact_mod, arg = 1, 0
    for n in range(1, n_max + 1):
        for j in range(arg + 1, min(fn(n), depth) + 1):
            fact_mod = fact_mod * j % modulus
        arg = max(arg, min(fn(n), depth))
        c, s = _turn((n + fact_mod) * k % modulus / modulus)
        re.append(c)
        im.append(s)
        out.append(complex(math.fsum(re), math.fsum(im)))
    return out


def _bound(f: str, a: str, alpha: float, n_max: int) -> list[float]:
    """besum's closed-form bound at N = 1..n_max, as plain floats."""
    acc, out = 0.0, []
    for n in range(1, n_max + 1):
        acc += 1.0 / WEIGHT[a](n) + E_UPPER / (GROWTH[f](n) + 1)
        out.append(1.0 / math.sin(math.pi * alpha) * (1.0 + 4.0 * math.pi * acc))
    return out


def _check_sum_digits(op: Op, out: str) -> None:
    n_max = op.params["N"]
    if op.expect is None:
        depth, tail, digits = parse_digits(Path(op.params["path"]).read_text())
        if op.params["alpha"] is None:  # a sample: check exactly, and against the bound
            alpha = _numerator(digits) / math.factorial(depth)
            sums = _exact_digit_sum(op.params["f"], digits, n_max)
            op.expect = (sums, _bound(op.params["f"], op.params["a"], alpha, n_max))
        else:  # an encoded p/q: compare with the rational path
            ref = RationalSum(op.params["f"], *op.params["alpha"])
            op.expect = ([ref.value(n) for n in range(1, n_max + 1)], None)
    sums, bounds = op.expect
    rows = _csv(out)
    _require([int(r["N"]) for r in rows] == schedule(n_max), "schedule rows")
    for r in rows:
        n = int(r["N"])
        got = complex(float(r["re"]), float(r["im"]))
        err = float(r["phase_error"])
        _require(err >= 0.0, "negative phase_error")
        _require(abs(got - sums[n - 1]) <= err + 1e-9,
                 f"S({n}) = {got} differs from {sums[n - 1]} by more than phase_error {err:.3g}")
        _close(float(r["modulus"]), abs(got), 1e-12, f"modulus at N={n}")
        if bounds is not None:
            _require(err == 0.0, "ZERO tail with nonzero phase_error")
            _require(abs(got) <= bounds[n - 1] + err, f"|S({n})| above the closed-form bound")


def _check_encode(op: Op, out: str) -> None:
    p, q, depth = op.params["p"], op.params["q"], op.params["depth"]
    got_depth, tail, digits = parse_digits(Path(op.params["path"]).read_text())
    modulus = math.factorial(depth)
    _require(got_depth == depth, "depth")
    gap = p * modulus - _numerator(digits) * q  # q * depth! * (p/q - prefix)
    if modulus % q == 0:
        _require(tail == "ZERO" and gap == 0, "q | depth! but the encoding is not exact")
    else:
        _require(tail == "UNKNOWN" and 0 < gap < q, "prefix is not p/q truncated to depth")


def _check_decode(op: Op, out: str) -> None:
    p, q, depth = op.params["p"], op.params["q"], op.params["depth"]
    doc = _json(out)
    lower, upper, x = Fraction(doc["lower"]), Fraction(doc["upper"]), Fraction(p, q)
    _require(doc["depth"] == depth, "depth echo")
    if doc["tail"] == "ZERO":
        _require(lower == upper == x, "decode(encode(x)) != x")
    else:
        _require(lower <= x < upper and upper - lower == Fraction(1, math.factorial(depth)),
                 "x outside its decoded depth-cylinder")


def _check_bound(op: Op, out: str) -> None:
    n_max = op.params["N"]
    if op.expect is None:
        op.expect = _bound(op.params["f"], op.params["a"], op.params["p"] / op.params["q"], n_max)
    rows = _csv(out)
    _require([int(r["N"]) for r in rows] == schedule(n_max), "schedule rows")
    for r in rows:
        want = op.expect[int(r["N"]) - 1]
        _close(float(r["bound"]), want, 1e-9 * want, f"bound at N={r['N']}")


def _check_construct(op: Op, out: str) -> None:
    fn = GROWTH[op.params["f"]]
    rows = _csv(out)
    _require([int(r["n"]) for r in rows] == list(range(1, op.params["nmax"] + 1)), "rows")
    for r in rows:
        n = int(r["n"])
        _require(r["element"] == str(n + math.factorial(fn(n))), f"element {n} != n + f(n)!")


# --- cylinders, dimension, periodicity ----------------------------------------


def _check_mass(op: Op, out: str) -> None:
    doc = _json(out)
    i0, imax = op.params["i0"], op.params["imax"]
    _require((doc["s"], doc["i0"], doc["i_max"]) == (op.params["s"], i0, imax), "echo")
    _require(doc["violations"] == [], f"{len(doc['violations'])} mass-distribution violations")
    _require(1 <= doc["intervals_tested"] <= 20 * (imax - i0), "intervals_tested")
    _require(doc["a_constant"] > 0, "a_constant")


def _log_ratio(f: str, a: str, jmax: int) -> list[float]:
    """log(count_j) / log(j!) for j = 2..jmax, accumulated in besum's order."""
    caps = _caps(f, a, jmax)
    out, log_count, log_fact = [], 0.0, 0.0
    for m in range(2, jmax + 1):
        cap = caps.get(m)
        log_count += math.log(m if cap is None else min(m - 1, cap) + 1)
        log_fact += math.log(m)
        out.append(log_count / log_fact)
    return out


def _check_dimension(op: Op, out: str) -> None:
    jmax = op.params["jmax"]
    checkpoints = [j for j in (10, 100, 1000, 10_000) if j < jmax] + [jmax]
    if op.expect is None:
        ratios = _log_ratio(op.params["f"], op.params["a"], jmax)
        op.expect = [ratios[j - 2] for j in checkpoints]
    series = _json(out)["series"]
    _require([row["j"] for row in series] == list(range(2, jmax + 1)), "series indices")
    ratios = [series[j - 2]["ratio"] for j in checkpoints]
    for j, got, want in zip(checkpoints, ratios, op.expect):
        _close(got, want, 1e-12, f"ratio at j={j}")
    _require(all(x < y for x, y in zip(ratios, ratios[1:])), "series does not rise at its checkpoints")


def _check_cond_ii(op: Op, out: str) -> None:
    fn, eps, imax = GROWTH[op.params["f"]], op.params["eps"], op.params["imax"]
    if op.expect is None:
        prod_log = fact_log = 0.0
        best, best_at, j = -math.inf, 0, 1
        for i in range(1, imax + 1):
            fact_log += math.log(i)
            while fn(j) <= i:
                prod_log += math.log(fn(j) + 1)
                j += 1
            if prod_log - eps * fact_log > best:
                best, best_at = prod_log - eps * fact_log, i
        op.expect = (best, best_at)
    best, best_at = op.expect
    doc = _json(out)
    _close(doc["sup_log"], best, 1e-9 * max(1.0, abs(best)), "sup_log")
    _require(doc["attained_at"] == best_at, "attained_at")


def _check_periodicity(op: Op, out: str) -> None:
    planted: Planted = op.params["planted"]
    doc = _json(out)
    _require(doc["periodic"] is True, "planted period not found")
    k, q = doc["preperiod"], doc["period"]
    _require(k <= op.params["max_preperiod"] and 1 <= q <= len(planted.block),
             f"(K={k}, q={q}) longer than the planted period {len(planted.block)}")
    a = planted.values()
    if op.expect != (k, q):
        _require(a[k:-q] == a[k + q:], f"(K={k}, q={q}) does not hold on the prefix")
        op.expect = (k, q)
    block = a[k:k + q]
    _require(doc["collapse"] == (len(set(block)) == 1), "collapse verdict")


def _sector_max(planted: Planted, theta1: float, theta2: float, radii, n_theta: int,
                n_terms: int, chunk: int = 8192) -> float:
    thetas = np.linspace(theta1, theta2, n_theta)
    coeffs = np.array(planted.values()[: n_terms + 1], dtype=complex)
    vals = np.zeros((len(radii), n_theta), dtype=complex)
    for lo in range(0, n_terms + 1, chunk):
        n = np.arange(lo, min(lo + chunk, n_terms + 1))
        a = coeffs[lo: lo + chunk]
        phase = np.exp(2j * np.pi * np.outer(thetas, n))
        for i, r in enumerate(radii):
            vals[i] += phase @ (a * r ** n)
    return float(np.abs(vals).max())


def _check_sector(op: Op, out: str) -> None:
    prm = op.params
    n_terms = min(prm["A"], prm["planted"].length - 1)
    if op.expect is None:
        op.expect = _sector_max(prm["planted"], prm["theta1"], prm["theta2"], prm["radii"],
                                prm["n_theta"], n_terms)
    doc = _json(out)
    _close(doc["max_modulus"], op.expect, 1e-9 * op.expect, "max_modulus")
    _require(doc["max_at_r"] in prm["radii"], "max_at_r off the grid")
    _require(prm["theta1"] - 1e-12 <= doc["max_at_theta"] <= prm["theta2"] + 1e-12,
             "max_at_theta off the sector")


CHECKS = {
    "sum-rational": _check_sum_rational,
    "sup-sweep": _check_sup_sweep,
    "qn-demo": _check_qn_demo,
    "sample-e": _check_sample,
    "membership": _check_membership,
    "sum-digits": _check_sum_digits,
    "encode": _check_encode,
    "decode": _check_decode,
    "bound": _check_bound,
    "construct": _check_construct,
    "mass-check": _check_mass,
    "dimension": _check_dimension,
    "cond-ii": _check_cond_ii,
    "periodicity": _check_periodicity,
    "sector-eval": _check_sector,
}
