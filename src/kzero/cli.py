"""Command-line front end.

::

    kzero run --spec job.json [--json] [--series-order N]
    kzero run --mode ruled --genus 0 --deg-e -1 --deg-q -1 [--json]
    kzero run --mode point --relation 1,-3,3,-1
    kzero run --mode pnbundle --genus 1 --n 2 --koszul 1:0,3:2,3:1,1:0
    kzero verify [--grid GMAX,DMAX]

A job is a JSON document with keys ``mode`` (``ruled`` | ``pnbundle`` |
``point``), ``base`` (``{"kind": "point"}`` or
``{"kind": "curve", "genus": G}``), ``parameters`` (per mode: ``deg_e``
and ``deg_q``; ``n`` and ``koszul`` as a list of [rank, degree] pairs;
``relation`` as a list of integer coefficients), and an optional
``series_order`` (default 32, at most MAX_SERIES_ORDER = 100000).  Flags
may supply the same fields; on conflict the JSON document wins.  A job
document may hold at most MAX_SPEC_BYTES = 1048576 bytes; a longer one
is a parse error, read no further than one byte past the limit.  Every
integer in an emitted report is a decimal string, so arbitrary-precision
values survive consumers that parse JSON numbers as doubles.  Hilbert
ranks are exact ``Decimal`` integers (``str`` is linear in a Decimal's
digits, quadratic in an int's).  A job past a budget is a validation
error.  Relation ranks of (1 - T)^(n + 1), as in every ruled and
pnbundle job and a quantum P^n in point mode, take the rank law
binomial(n + i, n), one product a step.  Other relations run a
recurrence charged MAX_RANK_STEPS = 1000000 steps (series_order per
nonzero relation rank past T^0) and MAX_RANK_WORK = 5000000000 digit
products.  MAX_SERIES_ORDER and MAX_REPORT_DIGITS = 30000000 bound both.

``--json`` writes the layout of ``json.dumps(report, indent=2)``.  The
rank list is written as joined text: its strings are digits and '-'
only, so they need none of the escaping that the pure-Python encoder
(which any ``indent`` selects) would scan them for.

``kzero verify`` sweeps genera 0..GMAX and degrees -DMAX..DMAX (default
5,5).  The sweep itself refuses a negative bound; past that, a grid of
more than MAX_GRID_SURFACES = 100000 surfaces, (GMAX+1)*(2*DMAX+1)^2,
is refused before it runs.  Both are validation errors.

Exit codes: 0 success; 1 usage, parse or validation error, or standard
output closed before the whole report was written; 2 verification
failure; 3 internal error (a consistency check inside kzero failed,
which is a fault in kzero, not in the input).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass
from decimal import MAX_EMAX, MAX_PREC, MIN_EMIN, Context, Decimal, DecimalException, localcontext
from decimal import Inexact, InvalidOperation, Overflow, Rounded
from functools import cache, partial

from .base import BaseSpace, curve, point
from .bundle import PnBundleSpec, group_structure
from .errors import InvariantViolation, ParseError, ValidationError
from .series import LaurentPoly
from .surface import RuledSurface
from . import verify as verify_mod

SCHEMA_VERSION = 1
DEFAULT_SERIES_ORDER = 32
MAX_SERIES_ORDER = 100_000
MAX_GRID_SURFACES = 100_000
MAX_SPEC_BYTES = 1_048_576  # bytes of a --spec job document (1 MiB)
MAX_REPORT_DIGITS = 30_000_000  # digits of all Hilbert ranks in one report
MAX_RANK_STEPS = 1_000_000  # recurrence: order * nonzero ranks past T^0; the rank law stops at MAX_SERIES_ORDER
MAX_RANK_WORK = 5_000_000_000  # recurrence: sum over steps of relation digits * widest rank digits
# integers as Decimals: any rounding, overflow or invalid operation traps
_EXACT = Context(prec=MAX_PREC, Emax=MAX_EMAX, Emin=MIN_EMIN, traps=[Inexact, Rounded, Overflow, InvalidOperation])


# -- job specifications ----------------------------------------------


@dataclass
class JobSpec:
    mode: str
    base: BaseSpace
    parameters: dict
    series_order: int


def _as_int(value, what: str) -> int:
    if isinstance(value, bool):
        raise ParseError(f"{what} must be an integer, got a boolean")
    if isinstance(value, int):
        return value
    if isinstance(value, str):
        try:
            return int(value, 10)
        except ValueError:
            raise ParseError(f"{what} is not a decimal integer: {value!r}") from None
    raise ParseError(f"{what} must be an integer or decimal string, got {type(value).__name__}")


def _base_from_dict(doc) -> BaseSpace:
    if not isinstance(doc, dict) or "kind" not in doc:
        raise ParseError("base must be an object with a 'kind' key")
    kind = doc["kind"]
    if kind == "point":
        return point()
    if kind == "curve":
        return curve(_as_int(doc.get("genus", 0), "base.genus"))
    raise ParseError(f"base.kind must be 'point' or 'curve', got {kind!r}")


def _pair(value, what: str) -> tuple[int, int]:
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise ParseError(f"{what} must be a [rank, degree] pair")
    return _as_int(value[0], f"{what}.rank"), _as_int(value[1], f"{what}.degree")


def _list_of(read, value, what: str, nonempty: bool = False) -> tuple:
    if not isinstance(value, list) or (nonempty and not value):
        raise ParseError(f"{what} must be a {'nonempty ' * nonempty}list")
    return tuple(read(v, f"{what}[{i}]") for i, v in enumerate(value))


# mode -> {parameter: reader(value, what)}, in the order reports echo them
PARAMETERS = {
    "ruled": {"deg_e": _as_int, "deg_q": _as_int},
    "pnbundle": {"n": _as_int, "koszul": partial(_list_of, _pair)},
    "point": {"relation": partial(_list_of, _as_int, nonempty=True)},
}
MODES = tuple(PARAMETERS)


def jobspec_from_dict(doc) -> JobSpec:
    if not isinstance(doc, dict):
        raise ParseError("job document must be a JSON object")
    mode = doc.get("mode")
    if mode not in MODES:
        raise ParseError(f"mode must be one of {MODES}, got {mode!r}")
    base = _base_from_dict(doc.get("base", {"kind": "point" if mode == "point" else "curve"}))
    raw = doc.get("parameters", {})
    if not isinstance(raw, dict):
        raise ParseError("parameters must be an object")
    for key in PARAMETERS[mode]:
        if key not in raw:
            raise ParseError(f"{mode} mode needs parameter {key!r}")
    params = {key: read(raw[key], key) for key, read in PARAMETERS[mode].items()}
    return JobSpec(mode, base, params, _as_int(doc.get("series_order", DEFAULT_SERIES_ORDER), "series_order"))


def _echo(value):
    return [_echo(v) for v in value] if isinstance(value, tuple) else str(value)


def jobspec_to_dict(job: JobSpec) -> dict:
    base = {"kind": "point"} if job.base.is_point else {"kind": "curve", "genus": str(job.base.genus)}
    params = {key: _echo(value) for key, value in job.parameters.items()}
    return {"mode": job.mode, "base": base, "parameters": params, "series_order": str(job.series_order)}


# -- report building -------------------------------------------------


def _poly_json(p: LaurentPoly) -> dict:
    # relation coefficients are job inputs, which were parsed within the int-to-string digit limit
    terms = enumerate(zip(p.ranks, p.degrees), p.lo)
    return {str(e): {"rank": str(r), "degree": str(d)} for e, (r, d) in terms if r or d}


def _hilbert_ranks(relation: LaurentPoly, order: int) -> list[Decimal]:
    """Ranks of 1/relation to T^order, as ``series_invert`` gives them: rank is a ring map.

    Ranks of (1 - T)^(n + 1), n = deg h - 1, as in every bundle and a quantum P^n, take b_i = binomial(n + i, n).  Any
    other relation is free: b_0 = 1, b_i = -sum_k c_k * b_(i-k) over its ranks c_k, each step weighed in digits.
    """
    n = len(relation.ranks) - 2  # the compare stops at the first rank off the law
    law = all(c == (-1) ** q * math.comb(n + 1, q) for q, c in enumerate(relation.ranks))
    zero, digits, widest, widests = Decimal(), 1, 1, 0
    if not law:  # only the free recurrence is charged: one product per nonzero c_k a step, the rank law's one
        terms = [(k, Decimal(-c)) for k, c in enumerate(relation.ranks) if k and c]
        if order * len(terms) > MAX_RANK_STEPS:
            raise ValidationError(
                f"hilbert ranks take {order} x {len(terms)} steps, past MAX_RANK_STEPS = {MAX_RANK_STEPS}"
            )
        widests_limit = MAX_RANK_WORK // max(1, sum(c.adjusted() + 1 for _, c in terms))  # per digit of the c_k
    ranks = [zero] * (len(relation.ranks) - 1) + [Decimal(1)]  # b_i = 0 for i < 0 pads the front
    try:
        with localcontext(_EXACT):
            for i in range(1, order + 1):
                if law:
                    r = ranks[-1] * (n + i) // i  # exact: b_(i-1) * (n + i) = i * b_i
                else:
                    widests += widest  # a step weighs the digits of the c_k times those of the widest rank so far
                    if widests > widests_limit:
                        raise ValidationError(f"hilbert ranks pass MAX_RANK_WORK = {MAX_RANK_WORK} digit products")
                    r = zero  # a sum from +0 never ends at -0, which would print as "-0"
                    for k, c in terms:
                        r += c * ranks[-k]
                d = r.adjusted() + 1
                digits += d
                if digits > MAX_REPORT_DIGITS:
                    raise ValidationError(f"hilbert ranks pass MAX_REPORT_DIGITS = {MAX_REPORT_DIGITS} digits")
                widest = d if d > widest else widest
                ranks.append(r)
    except DecimalException as exc:
        raise InvariantViolation(f"inexact hilbert rank arithmetic: {exc!r}") from None
    return ranks[len(relation.ranks) - 1 :]


def _surface_report(surface: RuledSurface) -> dict:
    lattice = surface.neron_severi()
    names = lattice.ns_basis_names  # ns_gram is the intersection pairing on (fiber, H)
    table = {f"{a}.{b}": str(x) for a, row in zip(names, lattice.ns_gram) for b, x in zip(names, row)}
    return {
        "intersection_table": table,
        "gram_f1": _echo(lattice.gram),
        "radical_basis": _echo(lattice.radical_basis),
        "gram_ns": _echo(lattice.ns_gram),
        "e_invariant": str(surface.e_invariant()),
    }


def run(job: JobSpec) -> dict:
    """Compute the full report for a job; raises ValidationError on bad input.

    Every mode yields a relation h, whose rank deg h ``group_structure`` reads.
    The Hilbert series is 1/h, read off h alone by ``_hilbert_ranks``.  Ruled
    mode adds the surface's intersection data.
    """
    report = {"schema": SCHEMA_VERSION, "input": jobspec_to_dict(job)}
    if job.series_order < 0:
        raise ValidationError("series_order must be >= 0")
    if job.series_order > MAX_SERIES_ORDER:
        raise ValidationError(f"series_order must be <= {MAX_SERIES_ORDER}")
    surface = None
    if job.mode == "point":
        if not job.base.is_point:
            raise ValidationError("point mode needs a point base")
        relation = LaurentPoly.from_int_coeffs(job.base, job.parameters["relation"])
    elif job.mode == "ruled":
        if job.base.is_point:
            raise ValidationError("ruled mode needs a curve base")
        surface = RuledSurface.from_degrees(job.base.genus, job.parameters["deg_e"], job.parameters["deg_q"])
        relation = surface.relation_poly()
    else:
        koszul = tuple(job.base.k0(r, d) for r, d in job.parameters["koszul"])
        relation = PnBundleSpec(job.base, job.parameters["n"], koszul).relation_poly()
    gs = group_structure(relation)
    ranks = _hilbert_ranks(relation, job.series_order)
    report["relation"] = _poly_json(relation)
    report["group_structure"] = {k: None if v is None else str(v) for k, v in vars(gs).items()}
    report["hilbert_ranks"] = [str(r) for r in ranks]
    if surface is not None:
        report.update(_surface_report(surface))
    return report


def _print_report(report: dict, out) -> None:
    inp = report["input"]
    base = inp["base"]
    base_text = "point" if base["kind"] == "point" else f"curve of genus {base['genus']}"
    print(f"mode: {inp['mode']}    base: {base_text}", file=out)
    rel = ", ".join(f"T^{e}: ({c['rank']},{c['degree']})" for e, c in report["relation"].items())
    print(f"relation: {rel}", file=out)
    gs = report["group_structure"]
    line = f"group structure: free of rank {gs['free_rank_over_base']} over the base ring"
    if gs["point_base_abelian_rank"] is not None:
        line += f"; free abelian of rank {gs['point_base_abelian_rank']}"
    print(line, file=out)
    print("hilbert ranks: " + " ".join(report["hilbert_ranks"]), file=out)
    if "intersection_table" in report:
        table = report["intersection_table"]
        print(
            "intersection table: "
            + "  ".join(f"{k}={v}" for k, v in table.items()),
            file=out,
        )
        print(f"rank-zero Euler Gram (fiber, fiber.H, H): {report['gram_f1']}", file=out)
        print(f"radical basis: {report['radical_basis']}", file=out)
        print(f"Neron-Severi Gram (fiber, H): {report['gram_ns']}", file=out)
        print(f"e-invariant: {report['e_invariant']}", file=out)


# -- argument handling ------------------------------------------------


def _job_from_args(args) -> JobSpec:
    doc = {}
    if args.spec is not None:
        try:
            with open(args.spec, "rb") as handle:
                # one byte past the budget tells an over-long file; one read of it all would allocate it all
                data, budget = b"", MAX_SPEC_BYTES + 1
                while len(data) < budget and (piece := handle.read(min(1 << 16, budget - len(data)))):
                    data += piece
        except OSError as exc:
            raise ParseError(f"cannot read {args.spec}: {exc}") from None
        if len(data) > MAX_SPEC_BYTES:
            raise ParseError(f"job document {args.spec} passes MAX_SPEC_BYTES = {MAX_SPEC_BYTES} bytes")
        try:
            doc = json.loads(data.decode("utf-8"))
        except (ValueError, RecursionError) as exc:  # also bad UTF-8, deep nesting and over-long integers
            raise ParseError(f"invalid JSON in {args.spec}: {exc}") from None
        if not isinstance(doc, dict):
            raise ParseError("job document must be a JSON object")
    merged = dict(doc)
    for key in ("mode", "series_order"):
        if getattr(args, key) is not None:
            merged.setdefault(key, getattr(args, key))
    if args.point or args.genus is not None:
        merged.setdefault("base", {"kind": "point"} if args.point else {"kind": "curve", "genus": args.genus})
    params = merged.get("parameters", {})
    if isinstance(params, dict):  # anything else is rejected by jobspec_from_dict
        flags = {key: getattr(args, key) for table in PARAMETERS.values() for key in table}
        merged["parameters"] = {k: v for k, v in flags.items() if v is not None} | params  # the document wins
    return jobspec_from_dict(merged)


def _report_json(report: dict) -> str:
    """``json.dumps(report, indent=2)``, with the (never empty) rank list joined as text.

    Only a top-level list closes at a two-space indent, and none precedes
    the ranks, so the first match is their placeholder.
    """
    head, _, tail = json.dumps({**report, "hilbert_ranks": [0]}, indent=2).partition("[\n    0\n  ]")
    ranks = '",\n    "'.join(report["hilbert_ranks"])
    return f'{head}[\n    "{ranks}"\n  ]{tail}'


def _cmd_run(args, out) -> int:
    job = _job_from_args(args)
    report = run(job)
    if args.json:
        print(_report_json(report), file=out)
    else:
        _print_report(report, out)
    return 0


def _cmd_verify(args, out) -> int:
    bits = args.grid.split(",")
    if len(bits) != 2:
        raise ParseError("--grid expects GMAX,DMAX")
    gmax = _as_int(bits[0], "GMAX")
    dmax = _as_int(bits[1], "DMAX")
    if max(0, gmax + 1) * max(0, 2 * dmax + 1) ** 2 > MAX_GRID_SURFACES:
        raise ValidationError(f"--grid {gmax},{dmax} holds more than {MAX_GRID_SURFACES} surfaces")
    results = verify_mod.run_all(gmax=gmax, dmax=dmax)
    total_failed = 0
    for res in results:
        print(f"{res.name}: passed={res.passed} failed={res.failed}", file=out)
        for message in res.failures:
            print(f"  FAIL {message}", file=out)
        total_failed += res.failed
    if total_failed:
        print(f"verification FAILED ({total_failed} failures)", file=out)
        return 2
    print("verification passed", file=out)
    return 0


@cache
def _parser() -> argparse.ArgumentParser:
    # built once per process, on the first main(); parse_args keeps no state in it
    parser = argparse.ArgumentParser(
        prog="kzero",
        description="Grothendieck groups and intersection theory of quantum projective-space bundles",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    runp = sub.add_parser("run", help="compute a report for one job")
    runp.add_argument("--spec", metavar="FILE.json", help="JSON job document (wins over flags)")
    runp.add_argument("--json", action="store_true", help="emit the machine-readable report")
    runp.add_argument("--series-order", dest="series_order", metavar="N")
    runp.add_argument("--mode", choices=MODES)
    runp.add_argument("--genus")
    runp.add_argument("--point", action="store_true", help="use a point base")
    runp.add_argument("--deg-e", dest="deg_e")
    runp.add_argument("--deg-q", dest="deg_q")
    runp.add_argument("--n", help="fiber dimension for pnbundle mode")
    runp.add_argument(
        "--koszul",
        type=lambda s: [pair.split(":") for pair in s.split(",")],
        help="comma-separated rank:degree pairs for pnbundle mode",
    )
    runp.add_argument("--relation", type=lambda s: s.split(","), help="comma-separated coefficients for point mode")

    verp = sub.add_parser("verify", help="run the built-in property grids")
    verp.add_argument("--grid", default="5,5", metavar="GMAX,DMAX", help="genus and degree bounds (default 5,5)")
    return parser


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:  # argparse printed help (code 0) or usage and an error (code 2)
        return 1 if exc.code else 0
    try:
        code = _cmd_run(args, sys.stdout) if args.command == "run" else _cmd_verify(args, sys.stdout)
        sys.stdout.flush()
        return code
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except InvariantViolation as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    except BrokenPipeError:
        # the reader is gone; send the rest of stdout to devnull so the
        # interpreter's flush at exit does not raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
