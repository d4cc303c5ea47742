"""Per-layer tracing, installed from the benchmark's side of the API.

``Tracer.install()`` replaces public functions of each newtonpoly module and
the MultiPoly arithmetic methods with wrappers.  A spanned wrapper records
(name, parent span, start, end) in memory; a counted wrapper only counts
calls, for functions called so often that a span each would swamp the run.
Every module-level binding of a wrapped function is patched, so a name that
one module imported from another (``qalgebra.binomial`` is
``closedform.binomial``) is traced as well.

``metrics()`` derives the per-layer numbers from the spans: a layer's self
time is its spans' durations minus the time covered by their direct
children.  Sizes such as ``polyring.mul.term_pairs`` are computed from the
operands and results after the wrapped call returns, outside its span.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from pathlib import Path

# (module, attribute, layer name); methods are "Class.method".
SPANNED = (
    ("polyring", "MultiPoly.__mul__", "polyring.mul"),
    ("polyring", "MultiPoly.__add__", "polyring.addsub"),
    ("polyring", "MultiPoly.__sub__", "polyring.addsub"),
    ("polyring", "MultiPoly.__eq__", "polyring.eq"),
    ("polyring", "MultiPoly.substitute", "polyring.substitute"),
    ("polyring", "MultiPoly.evaluate", "polyring.evaluate"),
    ("polyring", "MultiPoly.to_dict", "polyring.to_dict"),
    ("polyring", "divexact", "polyring.divexact"),
    ("newton", "iterate_pair", "newton.iterate_pair"),
    ("newton", "coprimality_check", "newton.coprimality_check"),
    ("newton", "sylvester_resultant", "newton.sylvester_resultant"),
    ("newton", "eval_pair", "newton.eval_pair"),
    ("newton", "iterate_value", "newton.iterate_value"),
    ("closedform", "closed_p", "closedform.closed_pq"),
    ("closedform", "closed_q", "closedform.closed_pq"),
    ("closedform", "lemma1_check", "closedform.lemma1_check"),
    ("smoothness", "certify_pair", "smoothness.certify_pair"),
    ("smoothness", "sieve_primes", "smoothness.sieve_primes"),
    ("quadfield", "root_form_pair", "quadfield.root_form_pair"),
    ("quadfield", "conjugacy_check", "quadfield.conjugacy_check"),
    ("qalgebra", "nc_iterate", "qalgebra.nc_iterate"),
    ("qalgebra", "nc_closed", "qalgebra.nc_closed"),
    ("cli", "main", "cli.main"),
    ("cli", "canonical_json", "cli.canonical_json"),
)

COUNTED = (
    ("closedform", "binomial", "closedform.binomial"),
    ("smoothness", "smooth_part", "smoothness.smooth_part"),
    ("qalgebra", "qbinomial", "qalgebra.qbinomial"),
)

# Counts computed by the result hooks below.
HOOKED = ("polyring.mul.term_pairs", "polyring.mul.out_terms", "polyring.mul.max_coeff_bits",
          "newton.iterate_pair.terms", "newton.iterate_pair.max_coeff_bits",
          "newton.coprimality_check.trials")


def _coefficients(poly):
    terms = getattr(poly, "_terms", None)
    return terms.values() if terms is not None else [c for _, c in poly.sorted_terms()]


def _max_bits(*polys) -> int:
    return max((max(map(int.bit_length, _coefficients(p)), default=0) for p in polys),
               default=0)


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.spans: list[list] = []          # [name index, parent index, start, end]
        self.stack: list[int] = []
        self.counts: dict[str, int] = {}
        self.sieve_limits: set[int] = set()

    # ------------------------------------------------------------ hooks on results

    def _after_mul(self, args, result) -> None:
        if result is NotImplemented:
            return
        left, right = args
        right_len = len(right) if hasattr(right, "varset") else 1
        self._add("polyring.mul.term_pairs", len(left) * right_len)
        self._add("polyring.mul.out_terms", len(result))
        self._max("polyring.mul.max_coeff_bits", _max_bits(result))

    def _after_iterate_pair(self, args, result) -> None:
        self._max("newton.iterate_pair.terms", len(result.p) + len(result.q))
        self._max("newton.iterate_pair.max_coeff_bits", _max_bits(result.p, result.q))

    def _after_coprimality(self, args, result) -> None:
        self._add("newton.coprimality_check.trials", result.trials)

    def _after_sieve(self, args, result) -> None:
        self.sieve_limits.add(args[0])

    _AFTER = {
        "polyring.mul": _after_mul,
        "newton.iterate_pair": _after_iterate_pair,
        "newton.coprimality_check": _after_coprimality,
        "smoothness.sieve_primes": _after_sieve,
    }

    def _add(self, key: str, amount: int) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def _max(self, key: str, value: int) -> None:
        self.counts[key] = max(self.counts.get(key, 0), value)

    # ------------------------------------------------------------ wrappers

    def _spanned(self, fn, name: str):
        if name not in self.names:
            self.names.append(name)
        name_index = self.names.index(name)
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        after = self._AFTER.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name_index, stack[-1] if stack else -1, clock(), 0.0]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if after is not None:
                after(self, args, result)
            return result

        return wrapper

    def _counted(self, fn, name: str):
        key = name + ".calls"
        counts = self.counts
        counts.setdefault(key, 0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "newtonpoly" or name.startswith("newtonpoly."))]
        for specs, make in ((SPANNED, self._spanned), (COUNTED, self._counted)):
            for module_name, attribute, layer in specs:
                module = sys.modules[f"newtonpoly.{module_name}"]
                if "." in attribute:
                    class_name, method = attribute.split(".")
                    owner = getattr(module, class_name)
                    original = owner.__dict__[method]
                    wrapper = make(original, layer)
                    for key, value in list(owner.__dict__.items()):
                        if value is original:          # e.g. __rmul__ = __mul__
                            setattr(owner, key, wrapper)
                    continue
                original = getattr(module, attribute)
                wrapper = make(original, layer)
                for other in modules:
                    for key, value in list(vars(other).items()):
                        if value is original:
                            setattr(other, key, wrapper)

    # ------------------------------------------------------------ results

    def self_times(self) -> dict[str, tuple[int, float]]:
        """Layer name -> (span count, summed self time in seconds)."""
        covered = [0.0] * len(self.spans)
        for name_index, parent, start, end in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out: dict[str, tuple[int, float]] = {}
        for (name_index, _parent, start, end), child in zip(self.spans, covered):
            name = self.names[name_index]
            calls, self_s = out.get(name, (0, 0.0))
            out[name] = (calls + 1, self_s + (end - start) - child)
        return out

    def metrics(self) -> dict[str, float]:
        values: dict[str, float] = dict.fromkeys(HOOKED, 0)
        for _module, _attribute, layer in SPANNED:
            values[layer + ".calls"] = values[layer + ".self_s"] = 0
        values.update(self.counts)
        for name, (calls, self_s) in self.self_times().items():
            values[name + ".calls"] = calls
            values[name + ".self_s"] = self_s
        sieves = values.get("smoothness.sieve_primes.calls", 0)
        values["smoothness.sieve_distinct_limits"] = len(self.sieve_limits)
        values["smoothness.sieve_useful_ratio"] = (
            len(self.sieve_limits) / sieves if sieves else 0.0)
        return values

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"names": self.names,
                                    "fields": ["name", "parent", "start", "end"],
                                    "spans": self.spans}), encoding="utf-8")
