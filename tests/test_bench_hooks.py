"""The benchmark's traced mode and workloads still find the kzero names they hook and call.

``bench/tracing.py`` rebinds kzero functions and methods by name, and
``bench/workloads.py`` calls kzero through module attributes, so a moved
or renamed function breaks ``bench/run.py`` without failing any library
test.  These tests install both tracers, send one small call through
every hook, restore, and build each workload and run its warm-up.
"""

import contextlib
import io
from pathlib import Path

import pytest

import kzero
import kzero.cli
import kzero.verify


@pytest.fixture
def bench(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    import tracing
    import workloads

    return tracing, workloads


def _bindings():
    """Every callable attribute of kzero's modules and of the classes the tracers patch, by owner and name."""
    modules = (kzero, kzero.base, kzero.bundle, kzero.cli, kzero.intlinalg, kzero.series, kzero.surface, kzero.verify)
    classes = (kzero.K0Class, kzero.LaurentPoly, kzero.TruncatedSeries, kzero.RuledSurface)
    owners = modules + classes
    return {(owner, attr): value for owner in owners for attr, value in vars(owner).items() if callable(value)}


def _one_call_through_each_hook():
    x = kzero.curve(1)
    s = kzero.RuledSurface.from_degrees(1, 1, 0)
    p = kzero.LaurentPoly(x, {0: x.one, 1: x.k0(2, 1)})
    kzero.hilbert_coeff_ruled(x.k0(2, 1), x.one, 3)
    kzero.series_invert(p, 3).mul_poly(p)
    kzero.reduce_poly(p * p, s.bundle_spec())
    kzero.integer_kernel([[1, 2, 3]])
    s.euler_form(s.fiber_class(), s.section_class())
    s.neron_severi()
    assert x.k0(2, 1) * x.k0(1, 1) == x.k0(2, 3) and 2 * x.one == x.k0(2)
    v = kzero.verify
    suites = v.intersection_suite(0, 0), v.rank_law_suite(0), v.inversion_suite(), v.radical_suite(0, 0)
    assert not any(suite.failed for suite in suites)
    with contextlib.redirect_stdout(io.StringIO()):
        assert kzero.cli.main(["run", "--mode", "ruled", "--genus", "1", "--deg-e", "1", "--deg-q", "0"]) == 0


def test_every_tracer_hook_sees_its_call_and_restore_puts_the_originals_back(bench):
    tracing, _ = bench
    before = _bindings()
    tracer, counter = tracing.Tracer(), tracing.BaseCounter()
    tracer.install(kzero)
    counter.install(kzero)
    try:
        assert _bindings() != before
        _one_call_through_each_hook()
    finally:
        counter.restore()
        tracer.restore()
    assert _bindings() == before
    assert {tracer.names[i] for i in tracer.name_ids} == set(tracer.names)
    assert tracer.counts["verify.checks"] > 0 and tracer.counts["cli.report_bytes"] > 0
    assert counter.counts["base.k0_new"] > 0 and counter.counts["base.k0_mul_calls"] >= 2


def test_each_workload_builds_and_its_warm_up_passes_its_checks(bench, tmp_path):
    _, workloads = bench
    for name, build in workloads.WORKLOADS.items():
        load = build(kzero, 1, tmp_path)
        assert load.ops and load.warmup, name
        for op in load.warmup:
            assert op.check(op.run()) == [], (name, op.family)
