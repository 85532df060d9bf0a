"""Per-layer tracing of besum, installed from outside the package.

`Tracer.install` replaces each public function named in TRACED, in every
besum module that binds it, with a wrapper that records a span: name,
parent span, start and end.  A layer's self time is its spans' durations
minus the parts their child spans cover; times are process CPU time,
as in run.py.  The root span of each op is
"cli": the whole in-process invocation, so cli self time is click
parsing, provenance, emission and the output capture around them.

Per-term primitives get counters, not spans: a span per term would cost
more than the term.  SumTrace.add_unit is counted without a wrapper, from
the `count` field of every SumTrace made during the traced pass;
DigitConstraintSet.cap_for_position is counted by a wrapper.  Other
counts are derived from a traced call's arguments and result by a hook
that runs after the call's span closes.  `uninstall` restores every
replaced attribute.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter

import oracles

TRACED = {
    "construction": ("af_sum_rational", "eq4_rhs", "af_sum_factoradic", "bound_theoretical",
                     "af_elements", "sample_e_set", "membership"),
    "expsum": ("qn_counterexample_sup",),
    "factoradic": ("encode", "decode", "frac_factorial", "read_digit_file", "write_digit_file"),
    "dimension": ("mass_check", "covering_measure", "count_cylinders",
                  "dimension_lower_estimate", "condition_ii_check"),
    "periodicity": ("read_coeffs_file", "detect_ultimate_period", "period_collapse_test",
                    "sector_eval"),
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, parent index or -1, start, end]
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._sum_traces: list = []  # every SumTrace made while installed
        self._head_cache: dict = {}
        self._cylinder_cache: dict = {}

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn inside a span called name."""
        rec = [name, self._stack[-1] if self._stack else -1, 0.0, 0.0]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[2] = time.process_time()
        try:
            return fn(*args, **kwargs)
        finally:
            rec[3] = time.process_time()
            self._stack.pop()

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "besum"]
        hooks = self._hooks()
        for mod_name, names in TRACED.items():
            owner = sys.modules[f"besum.{mod_name}"]
            for fn_name in names:
                orig = getattr(owner, fn_name)
                wrapper = self._wrap(f"{mod_name}.{fn_name}", orig, hooks.get(fn_name))
                for mod in modules:
                    for attr, val in list(vars(mod).items()):
                        if val is orig:
                            self._patch(mod, attr, wrapper)
        constraints = sys.modules["besum.construction"].DigitConstraintSet
        self._patch(constraints, "cap_for_position",
                    self._count("construction.cap_lookups", constraints.cap_for_position))
        sum_trace = sys.modules["besum.expsum"].SumTrace
        self._patch(sum_trace, "__init__", self._track(sum_trace.__init__))

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def _wrap(self, name: str, fn, hook):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = self.call(name, fn, *args, **kwargs)
            if hook is not None:
                hook(result, *args, **kwargs)
            return result
        return wrapper

    def _track(self, init):
        @functools.wraps(init)
        def wrapper(trace, *args, **kwargs):
            init(trace, *args, **kwargs)
            self.counts["expsum.add_unit.calls"] -= trace.count
            self._sum_traces.append(trace)
        return wrapper

    def add_unit_calls(self) -> int:
        """SumTrace.add_unit calls: each one advances its trace's count by one."""
        return self.counts["expsum.add_unit.calls"] + sum(t.count for t in self._sum_traces)

    def _count(self, counter: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[counter] += 1
            return fn(*args, **kwargs)
        return wrapper

    # --- counts derived from traced calls -----------------------------------

    def _hooks(self) -> dict:
        c = self.counts

        def af_sum_rational(result, f, p, q, n_terms):
            c["construction.terms"] += n_terms
            c["construction.head_terms"] += min(n_terms, self._head_length(f, q))

        def bound_theoretical(result, f, a, alpha, n_terms):
            c["construction.bound_series_terms"] += n_terms

        def af_elements(result, f, n_max, bit_budget=None):
            c["construction.element_bits"] += sum(el.bit_length() for el in result)

        def frac_factorial(result, m, f):
            c["factoradic.digits_walked"] += max(0, f.depth - m)

        def covering_measure(result, constraints, b_lo, b_hi, depth):
            mu, hits = result
            c["dimension.cylinders_touched"] += hits
            c["dimension.cylinders_in_e"] += int(mu * self._cylinder_count(constraints, depth))

        def read_coeffs_file(result, fp):
            c["periodicity.coeffs_read"] += len(result)

        return {fn.__name__: fn for fn in (af_sum_rational, bound_theoretical, af_elements,
                                           frac_factorial, covering_measure, read_coeffs_file)}

    def _head_length(self, f, q: int) -> int:
        """First n with f(n)! = 0 mod q: the terms before the periodic tail."""
        key = (f.name, q)
        if key not in self._head_cache:
            self._head_cache[key] = len(oracles.factorial_residues(f.name, q))
        return self._head_cache[key]

    def _cylinder_count(self, constraints, depth: int) -> int:
        key = (constraints.f.name, constraints.a.name, depth)
        if key not in self._cylinder_cache:
            self._cylinder_cache[key] = oracles.cylinder_count(*key)
        return self._cylinder_cache[key]

    # --- results ----------------------------------------------------------------

    def self_times(self) -> dict[str, list]:
        """name -> [calls, self seconds]."""
        out: dict[str, list] = {}
        for name, parent, start, end in self.spans:
            entry = out.setdefault(name, [0, 0.0])
            entry[0] += 1
            entry[1] += end - start
            if parent >= 0:
                out.setdefault(self.spans[parent][0], [0, 0.0])[1] -= end - start
        return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, bound_n: int, bytes_out: int, overhead_s: float) -> dict:
    """Every per-layer metric, name -> (value, unit).

    bound_n is the sum of N over the pass's `bound` ops, the series length
    a single cumulative pass would need.  overhead_s is traced minus
    untraced CPU time and is not clamped: where no per-term wrapper runs
    (`rational-sums`) it is noise around 0, sometimes negative, and a
    comparison of it there means nothing.  Clamped, it would read 0.0 on
    every run.
    """
    times = tracer.self_times()
    c = tracer.counts
    metrics = {}
    for mod_name, names in TRACED.items():
        for fn_name in names:
            calls, self_s = times.get(f"{mod_name}.{fn_name}", (0, 0.0))
            metrics[f"{mod_name}.{fn_name}.calls"] = (calls, "count")
            metrics[f"{mod_name}.{fn_name}.self_s"] = (self_s, "s")
    metrics["expsum.add_unit.calls"] = (tracer.add_unit_calls(), "count")
    for name in ("construction.terms", "construction.head_terms",
                 "construction.bound_series_terms", "construction.cap_lookups",
                 "factoradic.digits_walked", "dimension.cylinders_touched",
                 "periodicity.coeffs_read"):
        metrics[name] = (c[name], "count")
    metrics["construction.element_bits"] = (c["construction.element_bits"], "bits")
    metrics["construction.periodic_tail_share"] = (
        _ratio(c["construction.terms"] - c["construction.head_terms"], c["construction.terms"]),
        "ratio")
    metrics["construction.bound_series_terms_per_N"] = (
        _ratio(c["construction.bound_series_terms"], bound_n), "ratio")
    metrics["construction.cap_lookups_per_cylinder"] = (
        _ratio(c["construction.cap_lookups"], c["dimension.cylinders_touched"]), "ratio")
    metrics["dimension.in_e_ratio"] = (
        _ratio(c["dimension.cylinders_in_e"], c["dimension.cylinders_touched"]), "ratio")
    metrics["cli.self_s"] = (times.get("cli", (0, 0.0))[1], "s")
    metrics["cli.bytes_out"] = (bytes_out, "bytes")
    metrics["trace.overhead_s"] = (overhead_s, "s")
    return metrics
