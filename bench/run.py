"""kzero benchmark: one workload per process, every output checked.

Usage, from the root of a source checkout::

    python3 bench/run.py --workload verify_sweep --seed 1 --seconds 35 --trace 0

The benchmark imports ``kzero`` from the checkout's ``src/`` and nowhere
else, and exits 2 without a result if it is missing.  It then

1. sets up -- a fresh import of kzero, the seeded inputs, a warm-up --
   at least 3 times and for at least 1 s before the timed rounds, and at
   least 4 times and 1.5 s after them, and reports the median of all as
   ``setup_s``;
2. runs whole rounds of the workload's operations until ``--seconds``
   have passed, timing each operation and checking each output against
   the oracles in ``oracles.py`` before dropping it;
3. with ``--trace 1``, runs the same rounds again untraced, traced and
   with base-ring counters, and reports per-layer figures per round.

The last line of standard output is the result as JSON.  The same
result, with the Python version and the git commit when the checkout has
one, is written to ``bench/results/``; a traced run also writes its
spans there, gzipped.
"""

from __future__ import annotations

import argparse
import gzip
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RESULTS = BENCH_DIR / "results"
# Set-ups are timed before and after the timed rounds, each batch at
# least this many times and for at least this many seconds: the
# machine's speed drifts over tens of seconds, and a set-up can take as
# little as 40 ms, so one short burst of samples is a poor median.
SETUP_BEFORE = (3, 1.0)
SETUP_AFTER = (4, 1.5)

sys.path.insert(0, str(BENCH_DIR))

import tracing  # noqa: E402
import workloads  # noqa: E402

END_TO_END = {"setup_s": "s", "ops_per_s": "1/s", "op_ms_p50": "ms", "peak_rss_mb": "MB"}


def fresh_kzero():
    """Import kzero from the checkout's src/, dropping any earlier import."""
    for name in [n for n in sys.modules if n == "kzero" or n.startswith("kzero.")]:
        del sys.modules[name]
    kz = importlib.import_module("kzero")
    importlib.import_module("kzero.cli")
    if Path(kz.__file__).resolve().parent != SRC / "kzero":
        raise ImportError(f"kzero imported from {kz.__file__}, not from {SRC}")
    return kz


class Runner:
    """Times and checks rounds of one workload's operations."""

    def __init__(self, ops):
        self.ops = ops
        self.durations_ns = []
        self.failed = 0
        self.unexpected = []
        self._accepted = {}  # op index -> digest of an output the oracle accepted
        self.first_round_rss_mb = None

    def round(self):
        for idx, op in enumerate(self.ops):
            start = time.perf_counter_ns()
            try:
                out, error = op.run(), None
            except Exception as exc:  # a crash is a failed operation, not the end of the run
                out, error = None, exc
            self.durations_ns.append(time.perf_counter_ns() - start)
            problems = [f"raised {error!r}"] if error else self._check(idx, op, out)
            del out
            if problems:
                self.failed += 1
                if not (op.known_fault and any(op.known_fault in p for p in problems)):
                    self.unexpected.append(f"{op.family} #{idx}: {'; '.join(problems)}")

    def _check(self, idx, op, out):
        key = op.digest(out) if op.digest else None
        if key is not None and self._accepted.get(idx) == key:
            return []
        try:
            problems = op.check(out)
        except Exception as exc:  # output the oracle cannot even read
            problems = [f"check raised {exc!r}"]
        if not problems and key is not None:
            self._accepted[idx] = key
        return problems

    def run_for(self, seconds):
        """Whole rounds until ``seconds`` of wall time have passed; returns rounds run."""
        start, rounds = time.perf_counter(), 0
        while True:
            self.round()
            rounds += 1
            if self.first_round_rss_mb is None:
                self.first_round_rss_mb = peak_rss_mb()
            if time.perf_counter() - start >= seconds:
                return rounds

    def run_rounds(self, rounds):
        start = len(self.durations_ns)
        for _ in range(rounds):
            self.round()
        return sum(self.durations_ns[start:]) / 1e9


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def set_up(name, seed, workdir, batch):
    """Import kzero afresh, build the inputs and warm up, repeatedly.

    ``batch`` is (at least this many times, for at least this many
    seconds).  Returns the last import, its workload and the time of each
    set-up.
    """
    times = []
    repeats, seconds = batch
    while len(times) < repeats or sum(times) < seconds:
        start = time.perf_counter()
        kz = fresh_kzero()
        load = workloads.WORKLOADS[name](kz, seed, workdir)
        for op in load.warmup:
            op.run()
        times.append(time.perf_counter() - start)
    return kz, load, times


def measure(name, seed, workdir, seconds):
    _, load, setup_times = set_up(name, seed, workdir, SETUP_BEFORE)
    runner = Runner(load.ops)
    runner.run_for(seconds)
    setup_times += set_up(name, seed, workdir, SETUP_AFTER)[2]
    times = runner.durations_ns
    metrics = {
        "setup_s": statistics.median(setup_times),
        "ops_per_s": len(times) / (sum(times) / 1e9),
        "op_ms_p50": statistics.median(times) / 1e6,
        # read once every operation has run: later rounds repeat the same
        # work, and how many fit in the run depends on the machine's speed
        "peak_rss_mb": runner.first_round_rss_mb,
    }
    return runner, {k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()}, None


def measure_traced(name, seed, workdir, seconds):
    """Untraced, traced and counted passes over the same whole rounds."""
    kz, load, _ = set_up(name, seed, workdir, SETUP_BEFORE)
    runner = Runner(load.ops)
    rounds = runner.run_for(seconds / 2)
    # op durations exclude checking, so the first pass is the untraced baseline
    plain_s = sum(runner.durations_ns) / 1e9
    tracer = tracing.Tracer()
    tracer.install(kz)
    try:
        traced_s = runner.run_rounds(rounds)
    finally:
        tracer.restore()
    counter = tracing.BaseCounter()
    counter.install(kz)
    try:
        runner.run_rounds(1)
    finally:
        counter.restore()
    values = tracer.layer_metrics(rounds, (traced_s - plain_s) / rounds)
    values.update(counter.counts)
    for metric in ("base.k0_new", "base.k0_mul_calls"):
        values.setdefault(metric, 0)
    metrics = {k: {"value": values[k], "unit": u} for k, u in tracing.LAYER_METRICS.items()}
    return runner, metrics, tracer.span_table()


def git_commit():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            path = ROOT / ".git" / ref[5:]
            if path.exists():
                return path.read_text().strip()
            for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
                if line.endswith(" " + ref[5:]):
                    return line.split()[0]
            return None
        return ref
    except OSError:
        return None


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "kzero" / "__init__.py").is_file():
        print(f"error: no kzero package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workdir = BENCH_DIR / ".work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        measure_run = measure_traced if args.trace else measure
        runner, metrics, spans = measure_run(args.workload, args.seed, workdir, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    result = {
        "correct": not runner.unexpected,
        "attempted": len(runner.durations_ns),
        "failed": runner.failed,
        "metrics": metrics,
    }
    for message in runner.unexpected[:10]:
        print(f"UNEXPECTED FAILURE {message}", file=sys.stderr)
    for name, m in metrics.items():
        print(f"{name}: {m['value']:.6g} {m['unit']}")
    print(f"attempted: {result['attempted']}  failed: {result['failed']}  correct: {result['correct']}")
    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "python": platform.python_version(),
        "git_commit": git_commit(),
        "result": result,
    }
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if spans is not None:
        with gzip.open(RESULTS / f"{stem}-spans.json.gz", "wt") as handle:
            json.dump(spans, handle)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
