"""Self-check suites swept over parameter grids.

Each suite runs a family of exact identities over a grid of surfaces or
random polynomials and counts passes and failures; the ``kzero verify``
command drives them and exits nonzero if anything fails.  The Euler
pairing is looked up on the surface object at call time, so tests can
substitute a deliberately wrong pairing and confirm the harness notices.
Exceptions raised mid-check are counted as failures rather than aborting
the sweep.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .base import curve
from .series import LaurentPoly, TruncatedSeries, hilbert_coeff_ruled, series_invert
from .surface import RuledSurface

MAX_RECORDED_FAILURES = 20


@dataclass
class SuiteResult:
    name: str
    passed: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)

    def check(self, ok: bool, message: str) -> None:
        if ok:
            self.passed += 1
        else:
            self.failed += 1
            if len(self.failures) < MAX_RECORDED_FAILURES:
                self.failures.append(message)

    def guard(self, fn, message: str) -> None:
        try:
            ok = bool(fn())
        except Exception as exc:
            self.check(False, f"{message}: raised {exc!r}")
            return
        self.check(ok, message)


def _grid(gmax: int, dmax: int):
    for g in range(0, gmax + 1):
        for de in range(-dmax, dmax + 1):
            for dq in range(-dmax, dmax + 1):
                yield g, de, dq


def intersection_suite(gmax: int = 5, dmax: int = 5) -> SuiteResult:
    """fiber.fiber = 0, fiber.H = H.fiber = 1, H.H = deg E, exactly."""
    res = SuiteResult("intersection identities")
    for g, de, dq in _grid(gmax, dmax):
        s = RuledSurface.from_degrees(g, de, dq)
        f = s.fiber_class()
        h = s.section_class()
        where = f"(g={g}, deg E={de}, deg Q={dq})"
        res.guard(lambda: s.intersect(f, f) == 0, f"fiber.fiber != 0 at {where}")
        res.guard(lambda: s.intersect(f, h) == 1, f"fiber.H != 1 at {where}")
        res.guard(lambda: s.intersect(h, f) == 1, f"H.fiber != 1 at {where}")
        res.guard(lambda: s.intersect(h, h) == de, f"H.H != deg E at {where}")
    return res


def rank_law_suite(dmax: int = 5, nmax: int = 50) -> SuiteResult:
    """rank(B_n) = n+1, and the recursion matches direct series inversion."""
    res = SuiteResult("hilbert rank law")
    x = curve(0)
    for de in range(-dmax, dmax + 1):
        for dq in range(-dmax, dmax + 1):
            where = f"(deg E={de}, deg Q={dq})"

            def laws(de=de, dq=dq):
                e_cls, q_cls = x.k0(2, de), x.k0(1, dq)
                rel = LaurentPoly(x, {0: x.one, 1: -e_cls, 2: q_cls})
                inverted = series_invert(rel, nmax)
                ok_rank = ok_match = True
                for n in range(nmax + 1):
                    b = hilbert_coeff_ruled(e_cls, q_cls, n)
                    ok_rank = ok_rank and b.rank == n + 1
                    ok_match = ok_match and inverted.coeff(n) == b
                return ok_rank, ok_match

            try:
                ok_rank, ok_match = laws()
            except Exception as exc:
                res.check(False, f"rank law raised at {where}: {exc!r}")
                continue
            res.check(ok_rank, f"rank(B_n) != n+1 at {where}")
            res.check(ok_match, f"series inversion disagrees with recursion at {where}")
    return res


def random_unit_poly(rng: random.Random, base, max_deg: int = 6) -> LaurentPoly:
    """Random polynomial with unit constant term and no negative exponents."""
    terms = {0: base.k0(rng.choice((1, -1)), 0 if base.is_point else rng.randint(-5, 5))}
    for e in range(1, rng.randint(1, max_deg) + 1):
        terms[e] = base.k0(rng.randint(-5, 5), 0 if base.is_point else rng.randint(-5, 5))
    return LaurentPoly(base, terms)


def inversion_suite(trials: int = 200, order: int = 30, seed: int = 20260808) -> SuiteResult:
    """p * series_invert(p, N) = 1 modulo T^(N+1) for random unit-term p."""
    res = SuiteResult("series inversion identity")
    rng = random.Random(seed)
    for t in range(trials):
        base = curve(rng.randint(0, 5))
        p = random_unit_poly(rng, base)
        res.guard(
            lambda: series_invert(p, order).mul_poly(p) == TruncatedSeries.one(base, order),
            f"p * p^-1 != 1 mod T^{order + 1} for trial {t}: p = {p!r}",
        )
    return res


def radical_suite(gmax: int = 5, dmax: int = 5) -> SuiteResult:
    """The radical is spanned by fiber.H and the quotient Gram is [[0,1],[1,deg E]]."""
    res = SuiteResult("radical and Neron-Severi lattice")
    for g, de, dq in _grid(gmax, dmax):
        s = RuledSurface.from_degrees(g, de, dq)
        where = f"(g={g}, deg E={de}, deg Q={dq})"
        try:
            lat = s.neron_severi()
        except Exception as exc:
            res.check(False, f"lattice computation raised at {where}: {exc!r}")
            res.check(False, f"quotient Gram unavailable at {where}")
            continue
        res.check(
            len(lat.radical_basis) == 1 and tuple(map(abs, lat.radical_basis[0])) == (0, 1, 0),
            f"radical is not the span of fiber.H at {where}",
        )
        res.check(
            lat.ns_gram == ((0, 1), (1, de)),
            f"quotient Gram != [[0,1],[1,deg E]] at {where}",
        )
    return res


def run_all(
    gmax: int = 5,
    dmax: int = 5,
    trials: int = 200,
    order: int = 30,
    nmax: int = 50,
    seed: int = 20260808,
) -> list[SuiteResult]:
    return [
        intersection_suite(gmax, dmax),
        rank_law_suite(dmax, nmax),
        inversion_suite(trials, order, seed),
        radical_suite(gmax, dmax),
    ]
