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
``series_order`` (default 32, at most 100000; a larger order is a
validation error).  Flags may supply the same fields; on
conflict the JSON document wins.  Every integer in an emitted report is
a decimal string, so arbitrary-precision values survive consumers that
parse JSON numbers as doubles.

``kzero verify`` sweeps genera 0..GMAX and degrees -DMAX..DMAX (default
5,5); a negative bound, or a grid of more than MAX_GRID_SURFACES = 100000
surfaces, (GMAX+1)*(2*DMAX+1)^2, is a validation error.

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
from dataclasses import dataclass, field

from .base import BaseSpace, curve, point
from .bundle import PnBundleSpec, free_abelian_rank, group_structure
from .errors import InvariantViolation, ParseError, ValidationError
from .series import LaurentPoly, series_invert
from .surface import RuledSurface
from . import verify as verify_mod

SCHEMA_VERSION = 1
DEFAULT_SERIES_ORDER = 32
MAX_SERIES_ORDER = 100_000
MAX_GRID_SURFACES = 100_000
MODES = ("ruled", "pnbundle", "point")


# -- job specifications ----------------------------------------------


@dataclass
class JobSpec:
    mode: str
    base: BaseSpace
    parameters: dict = field(default_factory=dict)
    series_order: int = DEFAULT_SERIES_ORDER


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


def _base_from_dict(doc, what: str = "base") -> BaseSpace:
    if not isinstance(doc, dict) or "kind" not in doc:
        raise ParseError(f"{what} must be an object with a 'kind' key")
    kind = doc["kind"]
    if kind == "point":
        return point()
    if kind == "curve":
        return curve(_as_int(doc.get("genus", 0), f"{what}.genus"))
    raise ParseError(f"{what}.kind must be 'point' or 'curve', got {kind!r}")


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
    if mode == "ruled":
        for key in ("deg_e", "deg_q"):
            if key not in raw:
                raise ParseError(f"ruled mode needs parameter {key!r}")
        params = {"deg_e": _as_int(raw["deg_e"], "deg_e"), "deg_q": _as_int(raw["deg_q"], "deg_q")}
    elif mode == "pnbundle":
        if "n" not in raw or "koszul" not in raw:
            raise ParseError("pnbundle mode needs parameters 'n' and 'koszul'")
        pairs = raw["koszul"]
        if not isinstance(pairs, list):
            raise ParseError("koszul must be a list of [rank, degree] pairs")
        koszul = []
        for idx, pair in enumerate(pairs):
            if not isinstance(pair, (list, tuple)) or len(pair) != 2:
                raise ParseError(f"koszul[{idx}] must be a [rank, degree] pair")
            koszul.append(
                (_as_int(pair[0], f"koszul[{idx}].rank"), _as_int(pair[1], f"koszul[{idx}].degree"))
            )
        params = {"n": _as_int(raw["n"], "n"), "koszul": tuple(koszul)}
    else:
        if "relation" not in raw:
            raise ParseError("point mode needs parameter 'relation'")
        coeffs = raw["relation"]
        if not isinstance(coeffs, list) or not coeffs:
            raise ParseError("relation must be a nonempty list of integer coefficients")
        params = {"relation": tuple(_as_int(c, f"relation[{i}]") for i, c in enumerate(coeffs))}
    return JobSpec(mode, base, params, _as_int(doc.get("series_order", DEFAULT_SERIES_ORDER), "series_order"))


def jobspec_to_dict(job: JobSpec) -> dict:
    base = {"kind": "point"} if job.base.is_point else {"kind": "curve", "genus": str(job.base.genus)}
    if job.mode == "ruled":
        params = {"deg_e": str(job.parameters["deg_e"]), "deg_q": str(job.parameters["deg_q"])}
    elif job.mode == "pnbundle":
        params = {
            "n": str(job.parameters["n"]),
            "koszul": [[str(r), str(d)] for r, d in job.parameters["koszul"]],
        }
    else:
        params = {"relation": [str(c) for c in job.parameters["relation"]]}
    return {"mode": job.mode, "base": base, "parameters": params, "series_order": str(job.series_order)}


# -- report building -------------------------------------------------


def _decimal(n: int) -> str:
    """str(n), also past CPython's int-to-string digit limit, which stays as it is."""
    try:
        return str(n)
    except ValueError:
        from decimal import Decimal  # imported only for such integers

        return str(Decimal(n))


def _poly_json(p: LaurentPoly) -> dict:
    return {str(e): {"rank": _decimal(c.rank), "degree": _decimal(c.degree)} for e, c in p.terms()}


def _check_rank_growth(ranks, n: int) -> None:
    for i, r in enumerate(ranks):
        if r != math.comb(n + i, n):
            raise InvariantViolation(f"hilbert rank check failed at T^{i}: {r} != binomial({n + i},{n})")


def _surface_report(surface: RuledSurface) -> dict:
    fiber = surface.fiber_class()
    section = surface.section_class()
    lattice = surface.neron_severi()
    return {
        "intersection_table": {
            "fiber.fiber": str(surface.intersect(fiber, fiber)),
            "fiber.H": str(surface.intersect(fiber, section)),
            "H.fiber": str(surface.intersect(section, fiber)),
            "H.H": str(surface.intersect(section, section)),
        },
        "gram_f1": [[str(x) for x in row] for row in lattice.gram],
        "radical_basis": [[str(x) for x in vec] for vec in lattice.radical_basis],
        "gram_ns": [[str(x) for x in row] for row in lattice.ns_gram],
        "e_invariant": str(surface.e_invariant()),
    }


def run(job: JobSpec) -> dict:
    """Compute the full report for a job; raises ValidationError on bad input.

    Every mode yields a relation polynomial and the group structure; the
    Hilbert series is its inverse.  Bundle modes also check the Hilbert
    ranks against binomial(n + i, n), and ruled mode adds the surface's
    intersection data.
    """
    report = {"schema": SCHEMA_VERSION, "input": jobspec_to_dict(job)}
    if job.series_order < 0:
        raise ValidationError("series_order must be >= 0")
    if job.series_order > MAX_SERIES_ORDER:
        raise ValidationError(f"series_order must be <= {MAX_SERIES_ORDER}")
    spec = surface = None
    if job.mode == "point":
        if not job.base.is_point:
            raise ValidationError("point mode needs a point base")
        relation = LaurentPoly.from_int_coeffs(job.base, job.parameters["relation"])
        free_rank = abelian_rank = free_abelian_rank(relation)
    else:
        if job.mode == "ruled":
            if job.base.is_point:
                raise ValidationError("ruled mode needs a curve base")
            surface = RuledSurface.from_degrees(job.base.genus, job.parameters["deg_e"], job.parameters["deg_q"])
            spec = surface.bundle_spec()
        else:
            koszul = tuple(job.base.k0(r, d) for r, d in job.parameters["koszul"])
            spec = PnBundleSpec(job.base, job.parameters["n"], koszul)
        relation = spec.relation_poly()
        gs = group_structure(spec)
        free_rank, abelian_rank = gs.free_rank_over_base, gs.point_base_abelian_rank
    series = series_invert(relation, job.series_order)
    if spec is not None:
        _check_rank_growth(series.ranks(), spec.n)
    report["relation"] = _poly_json(relation)
    report["group_structure"] = {
        "free_rank_over_base": str(free_rank),
        "point_base_abelian_rank": None if abelian_rank is None else str(abelian_rank),
    }
    report["hilbert_ranks"] = [_decimal(r) for r in series.ranks()]
    if surface is not None:
        report.update(_surface_report(surface))
    return report


def _print_report(report: dict, out) -> None:
    inp = report["input"]
    base = inp["base"]
    base_text = "point" if base["kind"] == "point" else f"curve of genus {base['genus']}"
    print(f"mode: {inp['mode']}    base: {base_text}", file=out)
    rel = ", ".join(
        f"T^{e}: ({c['rank']},{c['degree']})" for e, c in sorted(report["relation"].items(), key=lambda kv: int(kv[0]))
    )
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


def _parse_koszul_flag(text: str):
    pairs = []
    for chunk in text.split(","):
        bits = chunk.split(":")
        if len(bits) != 2:
            raise ParseError(f"koszul entry {chunk!r} is not rank:degree")
        pairs.append([bits[0], bits[1]])
    return pairs


def _job_from_args(args) -> JobSpec:
    doc = {}
    if args.spec is not None:
        try:
            with open(args.spec, "r", encoding="utf-8") as handle:
                doc = json.load(handle)
        except OSError as exc:
            raise ParseError(f"cannot read {args.spec}: {exc}") from None
        except json.JSONDecodeError as exc:
            raise ParseError(f"invalid JSON in {args.spec}: {exc}") from None
        if not isinstance(doc, dict):
            raise ParseError("job document must be a JSON object")
    merged = dict(doc)
    if "mode" not in merged and args.mode is not None:
        merged["mode"] = args.mode
    if "base" not in merged:
        if args.point:
            merged["base"] = {"kind": "point"}
        elif args.genus is not None:
            merged["base"] = {"kind": "curve", "genus": args.genus}
    if "series_order" not in merged and args.series_order is not None:
        merged["series_order"] = args.series_order
    params = dict(merged.get("parameters", {}))
    flag_params = {}
    if args.deg_e is not None:
        flag_params["deg_e"] = args.deg_e
    if args.deg_q is not None:
        flag_params["deg_q"] = args.deg_q
    if args.n is not None:
        flag_params["n"] = args.n
    if args.koszul is not None:
        flag_params["koszul"] = _parse_koszul_flag(args.koszul)
    if args.relation is not None:
        flag_params["relation"] = args.relation.split(",")
    for key, value in flag_params.items():
        params.setdefault(key, value)
    merged["parameters"] = params
    return jobspec_from_dict(merged)


def _cmd_run(args, out) -> int:
    job = _job_from_args(args)
    report = run(job)
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=False), file=out)
    else:
        _print_report(report, out)
    return 0


def _cmd_verify(args, out) -> int:
    bits = args.grid.split(",")
    if len(bits) != 2:
        raise ParseError("--grid expects GMAX,DMAX")
    gmax = _as_int(bits[0], "GMAX")
    dmax = _as_int(bits[1], "DMAX")
    if gmax < 0 or dmax < 0:
        raise ValidationError("--grid bounds GMAX and DMAX must be >= 0")
    if (gmax + 1) * (2 * dmax + 1) ** 2 > MAX_GRID_SURFACES:
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kzero",
        description="Grothendieck groups and intersection theory of quantum projective-space bundles",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    runp = sub.add_parser("run", help="compute a report for one job")
    runp.add_argument("--spec", metavar="FILE.json", help="JSON job document (wins over flags)")
    runp.add_argument("--json", action="store_true", help="emit the machine-readable report")
    runp.add_argument("--series-order", type=int, dest="series_order", metavar="N")
    runp.add_argument("--mode", choices=MODES)
    runp.add_argument("--genus", type=int)
    runp.add_argument("--point", action="store_true", help="use a point base")
    runp.add_argument("--deg-e", type=int, dest="deg_e")
    runp.add_argument("--deg-q", type=int, dest="deg_q")
    runp.add_argument("--n", type=int, help="fiber dimension for pnbundle mode")
    runp.add_argument("--koszul", help="comma-separated rank:degree pairs for pnbundle mode")
    runp.add_argument("--relation", help="comma-separated integer coefficients for point mode")

    verp = sub.add_parser("verify", help="run the built-in property grids")
    verp.add_argument("--grid", default="5,5", metavar="GMAX,DMAX", help="genus and degree bounds (default 5,5)")
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
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
