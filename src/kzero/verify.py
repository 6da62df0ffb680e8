"""Self-check suites swept over parameter grids.

Each suite runs a family of exact identities over a grid of surfaces or
random polynomials and counts passes and failures; the ``kzero verify``
command drives them and exits nonzero if anything fails.  The Euler
pairing (on the surface object) and ``ruled_piece`` (in this module) are
looked up at call time, so tests can substitute wrong ones and confirm
the harness notices; the radical suite's Gram is walked inside
``neron_severi`` and does not call the pairing.  The radical it reads off
the Gram is checked against an integer kernel, an independent route.
The Gram depends on deg E alone, so the suite solves one kernel per
distinct Gram (2*dmax+1 of them) and checks every surface against it.
Failure messages are built only for checks that fail.  Exceptions
raised mid-check are counted as failures rather than aborting the sweep.

The surface grid is the only parameter.  B_n is checked to degree 50,
and series inversion on 200 random polynomials at order 30, seed 20260808.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .base import curve
from .intlinalg import integer_kernel
from .series import LaurentPoly, TruncatedSeries, ruled_piece, series_invert
from .surface import RuledSurface

MAX_RECORDED_FAILURES = 20
RANK_LAW_NMAX = 50  # B_n is checked for n = 0 .. RANK_LAW_NMAX
INVERSION_TRIALS = 200
INVERSION_ORDER = 30
INVERSION_SEED = 20260808
MAX_RANDOM_DEGREE = 6


@dataclass
class SuiteResult:
    name: str
    passed: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)

    def check(self, ok: bool, message) -> None:
        """Count one check; ``message`` is its failure text, or a callable building it on failure."""
        if ok:
            self.passed += 1
        else:
            self.failed += 1
            if len(self.failures) < MAX_RECORDED_FAILURES:
                self.failures.append(message() if callable(message) else message)

    def guard(self, fn, message) -> None:
        try:
            ok = bool(fn())
        except Exception as exc:
            ok, message = False, f"{message() if callable(message) else message}: raised {exc!r}"
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
        where = lambda: f"(g={g}, deg E={de}, deg Q={dq})"
        res.guard(lambda: s.intersect(f, f) == 0, lambda: f"fiber.fiber != 0 at {where()}")
        res.guard(lambda: s.intersect(f, h) == 1, lambda: f"fiber.H != 1 at {where()}")
        res.guard(lambda: s.intersect(h, f) == 1, lambda: f"H.fiber != 1 at {where()}")
        res.guard(lambda: s.intersect(h, h) == de, lambda: f"H.H != deg E at {where()}")
    return res


def rank_law_suite(dmax: int = 5) -> SuiteResult:
    """rank(B_n) = n+1, and the recursion matches direct series inversion."""
    res = SuiteResult("hilbert rank law")
    for _, de, dq in _grid(0, dmax):
        where = lambda: f"(deg E={de}, deg Q={dq})"
        try:
            s = RuledSurface.from_degrees(0, de, dq)
            inverted = series_invert(s.relation_poly(), RANK_LAW_NMAX)
            pieces = TruncatedSeries._dense(s.base, *zip(*(ruled_piece(de, dq, n) for n in range(RANK_LAW_NMAX + 1))))
        except Exception as exc:
            res.check(False, f"rank law raised at {where()}: {exc!r}")
            res.check(False, f"series inversion unavailable at {where()}")
            continue
        res.check(pieces.ranks() == tuple(range(1, RANK_LAW_NMAX + 2)), lambda: f"rank(B_n) != n+1 at {where()}")
        res.check(inverted == pieces, lambda: f"series inversion disagrees with recursion at {where()}")
    return res


def random_unit_poly(rng: random.Random, base) -> LaurentPoly:
    """Random polynomial with unit constant term and no negative exponents."""
    ranks, degrees = [rng.choice((1, -1))], [0 if base.is_point else rng.randint(-5, 5)]
    for _ in range(rng.randint(1, MAX_RANDOM_DEGREE)):
        ranks.append(rng.randint(-5, 5))
        degrees.append(0 if base.is_point else rng.randint(-5, 5))
    return LaurentPoly._dense(base, 0, ranks, degrees)


def inversion_suite() -> SuiteResult:
    """p * series_invert(p, N) = 1 modulo T^(N+1) for random unit-term p."""
    res = SuiteResult("series inversion identity")
    rng = random.Random(INVERSION_SEED)
    for t in range(INVERSION_TRIALS):
        base = curve(rng.randint(0, 5))
        p = random_unit_poly(rng, base)
        res.guard(
            lambda: series_invert(p, INVERSION_ORDER).mul_poly(p) == TruncatedSeries.one(base, INVERSION_ORDER),
            lambda: f"p * p^-1 != 1 mod T^{INVERSION_ORDER + 1} for trial {t}: p = {p!r}",
        )
    return res


def radical_suite(gmax: int = 5, dmax: int = 5) -> SuiteResult:
    """neron_severi's radical and the integer kernel are both fiber.H; the quotient Gram is [[0,1],[1,deg E]]."""
    res = SuiteResult("radical and Neron-Severi lattice")
    kernels = {}  # Gram -> kernel of the Gram stacked on its transpose
    for g, de, dq in _grid(gmax, dmax):
        s = RuledSurface.from_degrees(g, de, dq)
        where = lambda: f"(g={g}, deg E={de}, deg Q={dq})"
        try:
            lat = s.neron_severi()
            kernel = kernels.get(lat.gram)
            if kernel is None:
                kernel = kernels[lat.gram] = integer_kernel([*lat.gram, *zip(*lat.gram)])
        except Exception as exc:
            res.check(False, f"lattice computation raised at {where()}: {exc!r}")
            res.check(False, f"quotient Gram unavailable at {where()}")
            continue
        res.check(
            lat.radical_basis == ((0, 1, 0),) and kernel in ([[0, 1, 0]], [[0, -1, 0]]),
            lambda: f"radical is not the span of fiber.H at {where()}",
        )
        res.check(
            lat.ns_gram == ((0, 1), (1, de)),
            lambda: f"quotient Gram != [[0,1],[1,deg E]] at {where()}",
        )
    return res


def run_all(gmax: int = 5, dmax: int = 5) -> list[SuiteResult]:
    return [
        intersection_suite(gmax, dmax),
        rank_law_suite(dmax),
        inversion_suite(),
        radical_suite(gmax, dmax),
    ]
