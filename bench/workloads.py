"""Seeded op decks for the three benchmark workloads.

A deck is the list of besum CLI invocations one pass of a workload runs.
It is built from repeated cycles.  Every cycle holds the same op classes
in the same proportions; the seed picks the concrete inputs inside each
class and the order of the ops.  Each class has a narrow cost band, so
the percentiles of a run land inside a class, not on a class edge, and
runs with different seeds do comparable work.

This module does not import besum: it only writes argument lists and
input files, and records for the oracles what each op was given.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

WORKLOADS = ("rational-sums", "digit-sums", "cylinder-measure")

GROWTHS = ("n2", "identity", "pow2")
WEIGHTS = ("n2", "pow2", "nfact")

# Cycles in a deck: about one deck per 25 s run on a 2-vCPU x86 host, so
# nearly every op of a run is a fresh draw from the seed.
CYCLES = {"rational-sums": 7, "digit-sums": 32, "cylinder-measure": 7}
# Cycles the traced run takes from the front of the deck: about 10 s of ops.
TRACE_CYCLES = {"rational-sums": 2, "digit-sums": 8, "cylinder-measure": 2}

# Deepest mass-check window that still runs at the seed: depth i >= 178
# makes float(width) ** s underflow to 0 (see NOTES.md, known defects).
MASS_CHECK_DEPTH_LIMIT = 177


@dataclass
class Op:
    """One CLI invocation, with the inputs its oracle needs."""

    kind: str
    argv: list[str]
    params: dict
    outputs: tuple[Path, ...] = ()
    cycle: int = 0  # index of the deck cycle the op belongs to
    expect: object = field(default=None, repr=False)  # oracle cache


@dataclass
class KnownDefect:
    """An input that fails at the seed; run outside the timed loop."""

    op: Op
    exit_code: int
    symptom: str


def build(workload: str, seed: int, workdir: Path, cycles: int | None = None) -> list[Op]:
    """The deck for one pass of `workload`, writing input files under workdir.

    A deck of fewer cycles is a prefix of the full deck.
    """
    rng = random.Random(f"{workload}/{seed}")
    cycle = {
        "rational-sums": _rational_cycle,
        "digit-sums": _digit_cycle,
        "cylinder-measure": _cylinder_cycle,
    }[workload]
    deck: list[Op] = []
    for c in range(CYCLES[workload] if cycles is None else cycles):
        cycle_dir = workdir / f"c{c}"
        cycle_dir.mkdir(parents=True, exist_ok=True)
        groups = cycle(rng, cycle_dir)
        rng.shuffle(groups)
        for group in groups:
            for op in group:
                op.cycle = c
            deck.extend(group)
    return deck


def known_defects(workload: str, seed: int, workdir: Path) -> list[KnownDefect]:
    """Inputs of `workload` that fail at the seed, drawn from the seed."""
    rng = random.Random(f"{workload}/{seed}/defects")
    if workload == "digit-sums":
        nmax = rng.randint(40, 45)
        return [KnownDefect(
            Op("construct", ["construct", "--f", "n2", "--nmax", str(nmax)], {"f": "n2", "nmax": nmax}),
            2, "integer string conversion limit (4300 digits)")]
    if workload == "cylinder-measure":
        i0 = rng.randint(MASS_CHECK_DEPTH_LIMIT + 1, 188)
        return [KnownDefect(_mass_check(rng, rng.choice(WEIGHTS), i0, i0 + 2),
                            1, "ZeroDivisionError: float(width)**s underflows")]
    return []


# --- shared input helpers ---------------------------------------------------


def _primes(lo: int, hi: int) -> list[int]:
    return [n for n in range(max(lo, 2), hi + 1)
            if all(n % d for d in range(2, math.isqrt(n) + 1))]


PRIMES_TO_1000 = _primes(2, 1000)


def _coprime(rng: random.Random, q: int) -> int:
    while True:
        p = rng.randint(1, q - 1)
        if math.gcd(p, q) == 1:
            return p


def _reduced_pairs(qmax: int) -> int:
    return sum(1 for q in range(2, qmax + 1) for p in range(1, q) if math.gcd(p, q) == 1)


def _denominator(rng: random.Random) -> int:
    """q up to 1000; half are primes >= 100, whose identity heads run ~q terms."""
    if rng.random() < 0.5:
        return rng.choice([p for p in PRIMES_TO_1000 if p >= 100])
    return rng.randint(2, 1000)


# --- rational-sums ------------------------------------------------------------


def _sum_rational(rng: random.Random, n_lo: int, n_hi: int) -> Op:
    f = rng.choice(GROWTHS)
    q = _denominator(rng)
    p = _coprime(rng, q)
    n = rng.randint(n_lo, n_hi)
    return Op("sum-rational", ["sum", "--f", f, "--alpha", f"{p}/{q}", "--N", str(n)],
              {"f": f, "p": p, "q": q, "N": n})


def _sup_sweep(rng: random.Random, f: str, qmax_lo: int, qmax_hi: int, terms: int) -> Op:
    """A sweep over all reduced p/q, q <= qmax, evaluating about `terms` terms."""
    qmax = rng.randint(qmax_lo, qmax_hi)
    n = min(100_000, terms // _reduced_pairs(qmax))
    return Op("sup-sweep", ["sup-sweep", "--f", f, "--qmax", str(qmax), "--N", str(n)],
              {"f": f, "qmax": qmax, "N": n})


def _qn_demo(rng: random.Random, resonant: bool) -> Op:
    q = rng.randint(2, 9)
    if resonant:
        b = rng.choice([d for d in range(2, q + 1) if q % d == 0])
    else:
        b = rng.choice([d for d in range(2, 13) if q % d])
    a = _coprime(rng, b)
    n = q * rng.randint(8000, 9000)
    return Op("qn-demo", ["qn-demo", "--q", str(q), "--alpha", f"{a}/{b}", "--N", str(n)],
              {"q": q, "a": a, "b": b, "N": n})


def _rational_cycle(rng: random.Random, workdir: Path) -> list[list[Op]]:
    ops = [_qn_demo(rng, resonant=i < 3) for i in range(5)]
    ops += [_sum_rational(rng, 40_000, 50_000) for _ in range(8)]
    ops += [_sup_sweep(rng, f, 5, 9, 150_000) for f in ("n2", "identity", "pow2", "n2")]
    ops += [_sum_rational(rng, 250_000, 280_000) for _ in range(3)]
    ops += [_sup_sweep(rng, rng.choice(GROWTHS), 4, 4, 500_000) for _ in range(2)]
    ops.append(_sum_rational(rng, 1_000_000, 1_000_000))
    return [[op] for op in ops]


# --- digit-sums ---------------------------------------------------------------


def _sample_chain(rng: random.Random, workdir: Path, depth_lo: int, depth_hi: int) -> list[Op]:
    """sample-e, then membership and sum --alpha-digits on the sample (ZERO tail)."""
    depth = rng.randint(depth_lo, depth_hi)
    sample_seed = rng.randrange(10**6)
    out_dir = workdir / f"samples{rng.randrange(10**9)}"
    path = out_dir / f"sample_{sample_seed}.digits"
    n = rng.randint(25, 35)
    spec = {"f": "n2", "a": "n2", "depth": depth, "path": path}
    return [
        Op("sample-e", ["sample-e", "--f", "n2", "--a", "n2", "--depth", str(depth),
                        "--seed", str(sample_seed), "--count", "1", "--out-dir", str(out_dir)],
           spec, outputs=(path,)),
        Op("membership", ["membership", "--f", "n2", "--a", "n2", "--alpha-digits", str(path)],
           {**spec, "expected": "yes"}),
        Op("sum-digits", ["sum", "--f", "n2", "--alpha-digits", str(path), "--N", str(n)],
           {**spec, "N": n, "alpha": None}),
    ]


def _encode_chain(rng: random.Random, workdir: Path, zero_tail: bool) -> list[Op]:
    """factoradic encode of p/q, decode, then sum --alpha-digits on the encoding.

    q divides depth! for a ZERO tail; a prime q > depth leaves an UNKNOWN
    tail, where the sum needs digits past f(N) + 1 and carries a phase-error
    budget.
    """
    depth = rng.randint(60, 250)
    if zero_tail:
        depth_fact = math.factorial(depth)
        q = rng.choice([q for q in range(2, 1001) if depth_fact % q == 0])
        n = rng.randint(10, 30)
    else:
        q = rng.choice([p for p in PRIMES_TO_1000 if p > depth])
        n = math.isqrt(depth - 2)
    p = _coprime(rng, q)
    path = workdir / f"enc{rng.randrange(10**9)}.digits"
    spec = {"p": p, "q": q, "depth": depth, "path": path}
    return [
        Op("encode", ["factoradic", "encode", "--value", f"{p}/{q}", "--depth", str(depth),
                      "--out", str(path)], spec, outputs=(path,)),
        Op("decode", ["factoradic", "decode", "--digits", str(path)], spec),
        Op("sum-digits", ["sum", "--f", "n2", "--alpha-digits", str(path), "--N", str(n)],
           {"f": "n2", "depth": depth, "path": path, "N": n, "alpha": (p, q)}),
    ]


def _bound(rng: random.Random, n_lo: int, n_hi: int) -> Op:
    q = rng.randint(2, 1000)
    p = _coprime(rng, q)
    n = rng.randint(n_lo, n_hi)
    return Op("bound", ["bound", "--f", "n2", "--a", "n2", "--alpha", f"{p}/{q}", "--N", str(n)],
              {"f": "n2", "a": "n2", "p": p, "q": q, "N": n})


def _construct(rng: random.Random) -> Op:
    nmax = rng.randint(10, 39)
    return Op("construct", ["construct", "--f", "n2", "--nmax", str(nmax)], {"f": "n2", "nmax": nmax})


def _digit_cycle(rng: random.Random, workdir: Path) -> list[list[Op]]:
    groups = [_sample_chain(rng, workdir, 300, 600)]
    groups += [_sample_chain(rng, workdir, 900, 1200) for _ in range(2)]
    groups += [_encode_chain(rng, workdir, zero_tail) for zero_tail in (True, False)]
    groups += [[_bound(rng, 1500, 1800)] for _ in range(3)]
    groups += [[_construct(rng)] for _ in range(3)]
    return groups


# --- cylinder-measure ---------------------------------------------------------


def _mass_check_cost(i: int) -> float:
    """Seconds one depth i costs mass-check at the seed (fit on a 2-core x86 host)."""
    return 1.5e-3 + 7.5e-6 * i * i


def _mass_check(rng: random.Random, a: str, i0: int, imax: int) -> Op:
    s = round(rng.uniform(0.3, 0.7), 2)
    seed = rng.randrange(10**6)
    return Op("mass-check", ["mass-check", "--f", "n2", "--a", a, "--s", str(s), "--i0", str(i0),
                             "--imax", str(imax), "--seed", str(seed)],
              {"f": "n2", "a": a, "s": s, "i0": i0, "imax": imax})


def _mass_window(rng: random.Random, a: str, lo: int, hi: int, target_s: float) -> Op:
    """A depth window starting in [lo, hi] that costs about target_s."""
    i0 = rng.randint(lo, hi)
    imax, cost = i0 + 1, _mass_check_cost(i0)
    while cost + _mass_check_cost(imax) / 2 < target_s and imax <= MASS_CHECK_DEPTH_LIMIT:
        cost += _mass_check_cost(imax)
        imax += 1
    return _mass_check(rng, a, i0, imax)


def _dimension(rng: random.Random, jmax_lo: int, jmax_hi: int) -> Op:
    a = rng.choice(WEIGHTS)
    jmax = rng.randint(jmax_lo, jmax_hi)
    return Op("dimension", ["dimension", "--f", "n2", "--a", a, "--jmax", str(jmax)],
              {"f": "n2", "a": a, "jmax": jmax})


def _cond_ii(rng: random.Random) -> Op:
    f = rng.choice(("n2", "n3", "pow2", "identity"))
    eps = round(rng.uniform(0.2, 0.9), 2)
    imax = rng.randint(4000, 5000)
    return Op("cond-ii", ["cond-ii", "--f", f, "--eps", str(eps), "--imax", str(imax)],
              {"f": f, "eps": eps, "imax": imax})


EXACT_ALPHABETS = ((0, 1, 2), (0, 1, 3, 5), (0, 2, 7))
COMPLEX_ALPHABET = (0, 1j, 1 + 1j, -0.5 + 0j)


@dataclass(frozen=True)
class Planted:
    """a_0 = 0, a_1..a_k0 = pre, then block repeated: preperiod k0 + 1, period len(block).

    The block has no shorter period and pre[-1] != block[-1], so the planted
    (preperiod, period) is the smallest one.
    """

    pre: tuple
    block: tuple
    length: int

    def values(self) -> list:
        head = [0, *self.pre]
        reps = -(-(self.length - len(head)) // len(self.block))
        return (head + list(self.block) * reps)[: self.length]


def _plant(rng: random.Random, alphabet: tuple, length: int, period: int) -> Planted:
    while True:
        block = tuple(rng.choice(alphabet) for _ in range(period))
        if period == 1 or all(block != block[d:] + block[:d] for d in range(1, period)):
            break
    k0 = rng.randint(5, 60)
    pre = [rng.choice(alphabet) for _ in range(k0)]
    while pre[-1] == block[-1]:
        pre[-1] = rng.choice(alphabet)
    return Planted(tuple(pre), block, length)


def write_coeffs(path: Path, planted: Planted) -> None:
    """The `coeffs v1` file format: alphabet line, then run-length tokens."""
    values = planted.values()
    names = {v: str(v) for v in set(values)}
    runs = [f"{len(list(group))}*{names[v]}" for v, group in itertools.groupby(values)]
    alphabet = sorted(names.values())
    path.write_text("coeffs v1\nalphabet " + " ".join(alphabet) + "\n" + " ".join(runs) + "\n")


def _coeff_pair(rng: random.Random, workdir: Path, exact: bool, collapse: bool) -> list[list[Op]]:
    """One seeded coefficient file, read by one periodicity and one sector-eval op.

    A collapsing file has a constant periodic block (period 1).
    """
    # A fixed A per alphabet: the (16, A) phase grid of sector-eval sets the
    # workload's peak memory, which should not depend on the seed.
    if exact:
        alphabet, length, n_terms = rng.choice(EXACT_ALPHABETS), rng.randint(160_000, 200_000), 100_000
    else:
        alphabet, length, n_terms = COMPLEX_ALPHABET, rng.randint(60_000, 80_000), 30_000
    period = 1 if collapse else rng.randint(2, 25)
    planted = _plant(rng, alphabet, length, period)
    path = workdir / f"coeffs{rng.randrange(10**9)}.coeffs"
    write_coeffs(path, planted)
    max_period = max(4, 4 * period)
    theta1 = round(rng.uniform(0.0, 0.85), 3)
    theta2 = round(theta1 + rng.uniform(0.02, 0.1), 3)
    spec = {"planted": planted, "path": path}
    return [
        [Op("periodicity", ["periodicity", "--coeffs", str(path), "--max-preperiod", "64",
                            "--max-period", str(max_period)],
            {**spec, "max_preperiod": 64, "max_period": max_period})],
        [Op("sector-eval", ["sector-eval", "--coeffs", str(path), "--theta1", str(theta1),
                            "--theta2", str(theta2), "--A", str(n_terms)],
            {**spec, "theta1": theta1, "theta2": theta2, "A": n_terms,
             "radii": (0.9, 0.99, 0.999), "n_theta": 16})],
    ]


def _cylinder_cycle(rng: random.Random, workdir: Path) -> list[list[Op]]:
    groups = [[_cond_ii(rng)] for _ in range(4)]
    groups += [[_dimension(rng, 4000, 5000)] for _ in range(2)]
    groups += [[_dimension(rng, 18_000, 20_000)] for _ in range(2)]
    for a, (lo, hi) in zip(WEIGHTS * 2, ((3, 60), (60, 140), (150, MASS_CHECK_DEPTH_LIMIT)) * 2):
        groups.append([_mass_window(rng, a, lo, hi, 0.3)])
    for exact, collapse in ((True, False), (False, False), (rng.random() < 0.5, True)):
        groups += _coeff_pair(rng, workdir, exact, collapse)
    return groups
