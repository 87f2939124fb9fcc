"""In-memory span recorder that wraps the package's public functions.

Nothing under ``src/`` knows about tracing: ``Tracer.install`` replaces
each traced function or method with a wrapper and ``Tracer.uninstall``
puts the originals back. A module-level function is replaced under every
name that refers to it in every ``poincare_series`` module, because
``cli`` and ``golden`` bind ``poincare_series`` (and ``cli`` binds
``dimension`` and ``single_form_series``) at import time; patching only
the defining module would miss those calls.

A span is (name, start_ns, end_ns, parent span, request id). Spans are
kept in flat arrays while the pass runs and are only aggregated or
written out after it ends.
"""

from __future__ import annotations

import functools
import sys
from array import array
from bisect import bisect_left, bisect_right
from itertools import accumulate
from time import perf_counter_ns

PACKAGE = "poincare_series"


def coeff_bits(poly) -> int:
    """Largest bit length of a numerator or denominator among the coefficients."""
    return max(
        (max(abs(c.numerator).bit_length(), c.denominator.bit_length()) for c in poly.coeffs),
        default=0,
    )


class Tracer:
    """Records one span per call of each traced function, plus a few counters."""

    def __init__(self):
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.parent = array("i")
        self.request = array("i")
        self.start = array("q")
        self.end = array("q")
        self.stack = [-1]
        self.request_id = -1
        self.counters: dict[str, int] = {}
        self.phi_max_degree = 0
        # results whose sizes are measured after the pass, off the clock
        self.pfd_results: list = []
        self.series_results: list = []
        self.repeat_spans: list[int] = []
        self._seen_series: set = set()
        self.patches: list = []

    # recording

    def _name_id(self, name: str) -> int:
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    def _open(self, name_id: int) -> int:
        sid = len(self.start)
        self.span_name.append(name_id)
        self.parent.append(self.stack[-1])
        self.request.append(self.request_id)
        self.start.append(perf_counter_ns())
        self.end.append(0)
        self.stack.append(sid)
        return sid

    def _close(self, sid: int) -> None:
        self.end[sid] = perf_counter_ns()
        self.stack.pop()

    def count(self, key: str, amount: int) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def wrap(self, name: str, fn, before=None, after=None):
        """A wrapper that records a span around fn; hooks run outside the span."""
        name_id = self._name_id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(args)
            sid = self._open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(sid)
            if after is not None:
                after(sid, args, result)
            return result

        return traced

    def run_request(self, request_id: int, fn, *args):
        """Run one benchmark request under a root span tagged with its id."""
        self.request_id = request_id
        sid = self._open(self._name_id("request"))
        try:
            return fn(*args)
        finally:
            self._close(sid)
            self.request_id = -1

    # installation

    def _patch_attr(self, owner, attr: str, replacement) -> None:
        self.patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def _patch_function(self, original, replacement) -> None:
        for module in package_modules():
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patch_attr(module, attr, replacement)

    def install(self) -> None:
        """Replace every traced name in the already-imported package."""
        from poincare_series import algebra, cli, closedform, counting, golden, springer

        Poly = algebra.Poly
        poly_mul = Poly.__mul__

        def mul_sizes(args):
            a, b = args
            if isinstance(b, Poly):
                self.count("algebra.poly_mul.coeff_ops", len(a.coeffs) * len(b.coeffs))

        traced_mul = self.wrap("algebra.poly_mul", poly_mul, before=mul_sizes)

        # only Poly x Poly products get a span, so that self time and
        # coeff_ops describe the same calls; scalar products stay with the caller
        def mul(a, b):
            if isinstance(b, Poly):
                return traced_mul(a, b)
            return poly_mul(a, b)

        self._patch_attr(Poly, "__mul__", mul)
        self._patch_attr(Poly, "__divmod__", self.wrap("algebra.poly_divmod", Poly.__divmod__))
        self._patch_attr(algebra.RatFun, "__init__", self.wrap("algebra.ratfun_init", algebra.RatFun.__init__))
        frf = algebra.FactoredRatFun
        self._patch_attr(frf, "__add__", self.wrap("algebra.factored_add", frf.__add__))
        self._patch_attr(frf, "derivative", self.wrap("algebra.factored_derivative", frf.derivative))
        self._patch_attr(frf, "reduced", self.wrap("algebra.factored_reduced", frf.reduced))
        self._patch_attr(frf, "to_ratfun", self.wrap("algebra.to_ratfun", frf.to_ratfun))

        def pfd_done(sid, args, result):
            self.pfd_results.append(result)

        def phi_done(sid, args, result):
            self.phi_max_degree = max(self.phi_max_degree, result.num.degree)

        def series_before(args):
            key = (counting.as_degree_vector(args[0]).degrees, args[1])
            if key in self._seen_series:
                # the span opened next is this call's
                self.repeat_spans.append(len(self.start))
            self._seen_series.add(key)

        def series_done(sid, args, result):
            self.series_results.append(result)

        def main_done(sid, args, result):
            if result != 0:
                self.count("cli.main.nonzero_exits", 1)

        functions = [
            ("algebra.poly_gcd", algebra.poly_gcd, None, None),
            ("springer.partial_fractions", springer.partial_fractions, None, pfd_done),
            ("springer.phi_factored", springer.phi_factored, None, phi_done),
            ("springer.psi_term", springer.psi_term_factored, None, None),
            ("springer.single_form_series", springer.single_form_series, None, series_done),
            ("springer.poincare_series", springer.poincare_series, series_before, series_done),
            ("counting.dimension", counting.dimension, None, None),
            ("closedform.all_ones", closedform.all_ones, None, None),
            ("closedform.all_twos", closedform.all_twos, None, None),
            ("golden.check_record", golden.check_record, None, None),
            ("cli.main", cli.main, None, main_done),
            ("cli.greedy_factor", cli.greedy_factor, None, None),
        ]
        for name, fn, before, after in functions:
            self._patch_function(fn, self.wrap(name, fn, before, after))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self.patches):
            setattr(owner, attr, original)
        self.patches.clear()

    # results

    def self_times_ns(self, pauses: list) -> list[int]:
        """Per span: its duration minus the time covered by its child spans.

        ``pauses`` are the (start, end) of the speed samples taken while the
        pass ran, in time order (see ``speed.Span``). A sample runs between
        two bytecodes of the innermost open span, so it lies wholly inside or
        outside each span; it is taken out of every span that holds it.
        """
        starts = [s for s, _ in pauses]
        before = list(accumulate((e - s for s, e in pauses), initial=0))
        duration = [
            e - s - (before[bisect_right(starts, e)] - before[bisect_left(starts, s)])
            for s, e in zip(self.start, self.end)
        ]
        own = list(duration)
        for sid, p in enumerate(self.parent):
            if p >= 0:
                own[p] -= duration[sid]
        return own

    def layer_metrics(self, pauses: list) -> dict:
        """Per-layer counts, self times and sizes of the traced pass, each with its unit."""
        own = self.self_times_ns(pauses)
        calls = [0] * len(self.names)
        self_ns = [0] * len(self.names)
        for sid, name_id in enumerate(self.span_name):
            calls[name_id] += 1
            self_ns[name_id] += own[sid]

        # install() registered every name, so each has an id
        out = {}
        for name in (
            "algebra.poly_mul", "algebra.poly_divmod", "algebra.poly_gcd",
            "algebra.factored_add", "algebra.factored_derivative",
            "springer.phi_factored", "springer.poincare_series",
            "counting.dimension", "golden.check_record", "cli.main", "cli.greedy_factor",
        ):
            out[f"{name}.calls"] = (calls[self.name_ids[name]], "count")
        for name in (
            "algebra.poly_mul", "algebra.poly_divmod", "algebra.poly_gcd",
            "algebra.ratfun_init", "algebra.to_ratfun", "algebra.factored_add",
            "algebra.factored_derivative", "algebra.factored_reduced",
            "springer.partial_fractions", "springer.phi_factored", "springer.psi_term",
            "springer.single_form_series", "springer.poincare_series",
            "counting.dimension", "closedform.all_ones", "closedform.all_twos",
            "golden.check_record", "cli.main", "cli.greedy_factor",
        ):
            out[f"{name}.self_s"] = (self_ns[self.name_ids[name]] / 1e9, "s")
        coeff_ops = self.counters.get("algebra.poly_mul.coeff_ops", 0)
        out["algebra.poly_mul.coeff_ops"] = (coeff_ops, "count")
        mul_ns = self_ns[self.name_ids["algebra.poly_mul"]]
        out["algebra.poly_mul.ns_per_coeff_op"] = (mul_ns / coeff_ops if coeff_ops else 0.0, "ns")
        terms = [a for pfd in self.pfd_results for _, _, a in pfd.terms]
        results = self.series_results
        repeat_ns = sum(own[sid] for sid in self.repeat_spans)
        out["springer.pfd.terms"] = (len(terms), "count")
        out["springer.pfd.max_num_degree"] = (
            max((a.num.degree for a in terms), default=0), "degree"
        )
        out["springer.pfd.max_coeff_bits"] = (
            max((coeff_bits(a.num) for a in terms), default=0), "bits"
        )
        out["springer.phi_factored.max_num_degree"] = (self.phi_max_degree, "degree")
        out["springer.poincare_series.repeat_calls"] = (len(self.repeat_spans), "count")
        out["springer.poincare_series.repeat_s"] = (repeat_ns / 1e9, "s")
        out["springer.result.max_num_degree"] = (
            max((f.num.degree for f in results), default=0), "degree"
        )
        out["springer.result.max_coeff_bits"] = (
            max((max(coeff_bits(f.num), coeff_bits(f.den)) for f in results), default=0), "bits"
        )
        out["cli.main.nonzero_exits"] = (self.counters.get("cli.main.nonzero_exits", 0), "count")
        return {name: {"value": value, "unit": unit} for name, (value, unit) in out.items()}

    def write_spans(self, path) -> None:
        """One tab-separated line per span: id, parent, request, name, start_ns, end_ns."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("span\tparent\trequest\tname\tstart_ns\tend_ns\n")
            names = self.names
            for sid in range(len(self.start)):
                handle.write(
                    f"{sid}\t{self.parent[sid]}\t{self.request[sid]}\t"
                    f"{names[self.span_name[sid]]}\t{self.start[sid]}\t{self.end[sid]}\n"
                )


def package_modules() -> list:
    return [
        module
        for name, module in list(sys.modules.items())
        if module is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
    ]
