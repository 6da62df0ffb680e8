"""Per-layer timers for the traced run, installed from outside the program.

:class:`Tracer` replaces public ``kzero`` functions and methods with
wrappers that record a span (name, start, end, parent) per call and
bump named counters.  A module-level function is replaced at every
``kzero`` module that holds it, so ``series_invert`` is caught whether
it is reached as ``kzero.series_invert``, ``kzero.cli.series_invert`` or
``kzero.verify.series_invert``.  ``restore()`` puts the originals back.

Spans stay in memory, in flat arrays, until the run ends.  A span's
self time is its duration minus the durations of its direct children;
in this single-threaded program children never overlap, so that is the
time the children cover.

Base-ring counts (every ``K0Class`` built or multiplied) come from
:class:`BaseCounter` in a pass of their own, so that their wrappers on
hundreds of thousands of tiny calls do not distort the traced times.
"""

from __future__ import annotations

import sys
from array import array
from collections import Counter
from time import perf_counter_ns

# name -> unit; every traced run reports all of them.  Times are
# inclusive span durations except cli.emit_s, the self time of main.
LAYER_METRICS = {
    "base.k0_new": "count",
    "base.k0_mul_calls": "count",
    "series.hilbert_coeff_calls": "count",
    "series.hilbert_coeff_s": "s",
    "series.invert_calls": "count",
    "series.invert_coeffs": "count",
    "series.invert_s": "s",
    "series.mul_poly_s": "s",
    "series.poly_mul_calls": "count",
    "series.poly_mul_s": "s",
    "bundle.reduce_calls": "count",
    "bundle.reduce_s": "s",
    "surface.euler_form_calls": "count",
    "surface.term_pairs": "count",
    "surface.euler_form_s": "s",
    "surface.neron_severi_calls": "count",
    "surface.neron_severi_s": "s",
    "intlinalg.kernel_calls": "count",
    "intlinalg.kernel_s": "s",
    "intlinalg.kernel_max_bits": "bits",
    "verify.intersection_s": "s",
    "verify.rank_law_s": "s",
    "verify.inversion_s": "s",
    "verify.radical_s": "s",
    "verify.checks": "count",
    "cli.parse_s": "s",
    "cli.run_s": "s",
    "cli.emit_s": "s",
    "cli.report_bytes": "bytes",
    "trace.overhead_s": "s",
}

# span name -> the *_calls counter it feeds, for spans that have one
_CALL_COUNTERS = {
    "series.hilbert_coeff": "series.hilbert_coeff_calls",
    "series.invert": "series.invert_calls",
    "series.poly_mul": "series.poly_mul_calls",
    "bundle.reduce": "bundle.reduce_calls",
    "surface.euler_form": "surface.euler_form_calls",
    "surface.neron_severi": "surface.neron_severi_calls",
    "intlinalg.kernel": "intlinalg.kernel_calls",
}


def _kzero_modules():
    return [m for n, m in list(sys.modules.items()) if n == "kzero" or n.startswith("kzero.")]


class _Patcher:
    def __init__(self):
        self._undo = []

    def replace_function(self, original, wrapper):
        """Rebind every kzero module attribute that names ``original``."""
        for mod in _kzero_modules():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
                    self._undo.append((mod, attr, original))

    def replace_method(self, cls, attr, wrapper):
        self._undo.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, wrapper)

    def restore(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()


def per_round(count, rounds):
    """A count per round: an int when every round did the same work."""
    return count // rounds if count % rounds == 0 else count / rounds


class Tracer(_Patcher):
    def __init__(self):
        super().__init__()
        # span i: names[name_ids[i]], starts[i], ends[i], parents[i] (-1 at the top)
        self.names = []
        self.name_ids = array("H")
        self.starts = array("q")
        self.ends = array("q")
        self.parents = array("q")
        self.counts = Counter()
        self.max_bits = 0
        self._stack = []

    def wrap(self, name, fn, after=None):
        if name not in self.names:
            self.names.append(name)
        name_id = self.names.index(name)
        ids, starts, ends, parents = self.name_ids, self.starts, self.ends, self.parents
        stack, counts = self._stack, self.counts
        calls = _CALL_COUNTERS.get(name)

        def traced(*args, **kwargs):
            idx = len(starts)
            ids.append(name_id)
            parents.append(stack[-1] if stack else -1)
            ends.append(0)
            stack.append(idx)
            starts.append(perf_counter_ns())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter_ns()
                stack.pop()
            if calls:
                counts[calls] += 1
            if after:
                after(args, result)
            return result

        return traced

    def install(self, kz):
        series, surface = kz.series, kz.surface
        fn = self.replace_function

        def count_coeffs(args, result):
            self.counts["series.invert_coeffs"] += len(result.coeffs)

        def count_pairs(args, result):
            _, a, b = args
            self.counts["surface.term_pairs"] += len(a.rep.support()) * len(b.rep.support())

        def kernel_bits(args, result):
            bits = max((abs(x).bit_length() for vec in result for x in vec), default=0)
            self.max_bits = max(self.max_bits, bits)

        def suite_checks(args, result):
            self.counts["verify.checks"] += result.passed + result.failed

        fn(series.hilbert_coeff_ruled, self.wrap("series.hilbert_coeff", series.hilbert_coeff_ruled))
        fn(series.series_invert, self.wrap("series.invert", series.series_invert, count_coeffs))
        fn(kz.bundle.reduce_poly, self.wrap("bundle.reduce", kz.bundle.reduce_poly))
        fn(kz.intlinalg.integer_kernel, self.wrap("intlinalg.kernel", kz.intlinalg.integer_kernel, kernel_bits))
        for suite, name in (
            ("intersection_suite", "verify.intersection"),
            ("rank_law_suite", "verify.rank_law"),
            ("inversion_suite", "verify.inversion"),
            ("radical_suite", "verify.radical"),
        ):
            original = getattr(kz.verify, suite)
            fn(original, self.wrap(name, original, suite_checks))
        fn(kz.cli.jobspec_from_dict, self.wrap("cli.parse", kz.cli.jobspec_from_dict))
        fn(kz.cli.run, self.wrap("cli.run", kz.cli.run))
        self._install_main(kz.cli.main)

        meth = self.replace_method
        cls = series.TruncatedSeries
        meth(cls, "mul_poly", self.wrap("series.mul_poly", cls.mul_poly))
        cls = surface.RuledSurface
        meth(cls, "euler_form", self.wrap("surface.euler_form", cls.euler_form, count_pairs))
        meth(cls, "neron_severi", self.wrap("surface.neron_severi", cls.neron_severi))
        # only polynomial-by-polynomial products are spans; scaling by a
        # class or an int goes straight through
        poly = series.LaurentPoly
        scalar_mul = poly.__mul__
        traced_mul = self.wrap("series.poly_mul", scalar_mul)

        def mul(a, b):
            return (traced_mul if isinstance(b, poly) else scalar_mul)(a, b)

        meth(poly, "__mul__", mul)

    def _install_main(self, original):
        traced_main = self.wrap("cli.main", original)

        def main(argv=None):
            # the benchmark captures stdout in a StringIO; its position
            # moves by the characters main writes, all ASCII
            out = sys.stdout
            start = out.tell()
            try:
                return traced_main(argv)
            finally:
                self.counts["cli.report_bytes"] += out.tell() - start

        self.replace_function(original, main)

    def layer_metrics(self, rounds, overhead_s):
        """Per-round values of every LAYER_METRICS entry."""
        total = [0] * len(self.names)
        self_ns = [0] * len(self.names)
        ids = self.name_ids
        for name_id, start, end, parent in zip(ids, self.starts, self.ends, self.parents):
            total[name_id] += end - start
            self_ns[name_id] += end - start
            if parent >= 0:
                self_ns[ids[parent]] -= end - start
        total = Counter(dict(zip(self.names, total)))
        self_ns = Counter(dict(zip(self.names, self_ns)))
        seconds = {
            "series.hilbert_coeff_s": total["series.hilbert_coeff"],
            "series.invert_s": total["series.invert"],
            "series.mul_poly_s": total["series.mul_poly"],
            "series.poly_mul_s": total["series.poly_mul"],
            "bundle.reduce_s": total["bundle.reduce"],
            "surface.euler_form_s": total["surface.euler_form"],
            "surface.neron_severi_s": total["surface.neron_severi"],
            "intlinalg.kernel_s": total["intlinalg.kernel"],
            "verify.intersection_s": total["verify.intersection"],
            "verify.rank_law_s": total["verify.rank_law"],
            "verify.inversion_s": total["verify.inversion"],
            "verify.radical_s": total["verify.radical"],
            "cli.parse_s": total["cli.parse"],
            "cli.run_s": total["cli.run"],
            "cli.emit_s": self_ns["cli.main"],
        }
        out = {name: ns / 1e9 / rounds for name, ns in seconds.items()}
        for name, unit in LAYER_METRICS.items():
            if unit in ("count", "bytes") and not name.startswith("base."):
                out[name] = per_round(self.counts[name], rounds)
        out["intlinalg.kernel_max_bits"] = self.max_bits
        out["trace.overhead_s"] = overhead_s
        return out

    def span_table(self):
        """The spans as JSON-ready columns; times in ns from the first span."""
        t0 = self.starts[0] if self.starts else 0
        return {
            "names": self.names,
            "name": self.name_ids.tolist(),
            "start_ns": [t - t0 for t in self.starts],
            "end_ns": [t - t0 for t in self.ends],
            "parent": self.parents.tolist(),
        }


class BaseCounter(_Patcher):
    """Counts K0Class constructions and multiplications."""

    def __init__(self):
        super().__init__()
        self.counts = Counter()

    def install(self, kz):
        cls = kz.base.K0Class
        counts = self.counts
        post_init, mul, rmul = cls.__post_init__, cls.__mul__, cls.__rmul__

        def counted_post_init(self):
            counts["base.k0_new"] += 1
            post_init(self)

        def counted_mul(a, b):
            counts["base.k0_mul_calls"] += 1
            return mul(a, b)

        def counted_rmul(a, b):
            counts["base.k0_mul_calls"] += 1
            return rmul(a, b)

        self.replace_method(cls, "__post_init__", counted_post_init)
        self.replace_method(cls, "__mul__", counted_mul)
        self.replace_method(cls, "__rmul__", counted_rmul)
