"""Command-line behavior: parsing, reports, exit codes."""

import decimal
import json
import math
import os
import resource
import subprocess
import sys
import time
from decimal import Decimal
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import kzero.cli
import kzero.surface
import kzero.verify
from kzero import (
    InvariantViolation,
    LaurentPoly,
    ParseError,
    PnBundleSpec,
    RuledSurface,
    ValidationError,
    curve,
    point,
    series_invert,
)
from kzero.cli import (
    DEFAULT_SERIES_ORDER,
    MAX_GRID_SURFACES,
    MAX_RANK_STEPS,
    MAX_RANK_WORK,
    MAX_REPORT_DIGITS,
    MAX_SERIES_ORDER,
    _hilbert_ranks,
    _report_json,
    jobspec_from_dict,
    jobspec_to_dict,
    main,
    run,
)


def ruled_doc(genus="0", deg_e="-1", deg_q="-1", order=None):
    doc = {
        "mode": "ruled",
        "base": {"kind": "curve", "genus": genus},
        "parameters": {"deg_e": deg_e, "deg_q": deg_q},
    }
    if order is not None:
        doc["series_order"] = order
    return doc


def assert_all_strings(value):
    if isinstance(value, dict):
        for v in value.values():
            assert_all_strings(v)
    elif isinstance(value, list):
        for v in value:
            assert_all_strings(v)
    else:
        assert value is None or isinstance(value, str)


# -- job parsing -------------------------------------------------------


def test_jobspec_round_trip():
    job = jobspec_from_dict(ruled_doc("2", "3", "-4", "12"))
    assert job.series_order == 12
    assert jobspec_from_dict(jobspec_to_dict(job)) == job

    point_job = jobspec_from_dict(
        {"mode": "point", "base": {"kind": "point"}, "parameters": {"relation": ["1", "-2", "1"]}}
    )
    assert jobspec_from_dict(jobspec_to_dict(point_job)) == point_job

    pn_job = jobspec_from_dict(
        {
            "mode": "pnbundle",
            "base": {"kind": "curve", "genus": 1},
            "parameters": {"n": 2, "koszul": [[1, 0], [3, 2], [3, 1], [1, 0]]},
        }
    )
    assert jobspec_from_dict(jobspec_to_dict(pn_job)) == pn_job


def test_jobspec_accepts_ints_and_strings():
    a = jobspec_from_dict(ruled_doc(0, -1, -1))
    b = jobspec_from_dict(ruled_doc("0", "-1", "-1"))
    assert a == b
    assert a.series_order == DEFAULT_SERIES_ORDER


def test_jobspec_rejects_garbage():
    from kzero import ParseError

    with pytest.raises(ParseError):
        jobspec_from_dict({"mode": "nonsense"})
    with pytest.raises(ParseError):
        jobspec_from_dict({"mode": "ruled", "parameters": {"deg_e": "1"}})
    with pytest.raises(ParseError):
        jobspec_from_dict(ruled_doc("0", "1.5", "0"))


# -- reports -----------------------------------------------------------


def test_ruled_report_contents():
    report = run(jobspec_from_dict(ruled_doc("0", "-1", "-1", "8")))
    assert report["schema"] == 1
    assert report["intersection_table"] == {
        "fiber.fiber": "0",
        "fiber.H": "1",
        "H.fiber": "1",
        "H.H": "-1",
    }
    assert report["e_invariant"] == "1"
    assert report["hilbert_ranks"] == [str(i + 1) for i in range(9)]
    assert report["radical_basis"] == [["0", "1", "0"]]
    assert report["gram_ns"] == [["0", "1"], ["1", "-1"]]


def test_report_integers_are_decimal_strings():
    report = run(jobspec_from_dict(ruled_doc("1", "2", "-3", "4")))
    payload = {k: v for k, v in report.items() if k != "schema"}
    assert_all_strings(payload)


def test_report_input_echo_round_trips():
    job = jobspec_from_dict(ruled_doc("2", "5", "1", "6"))
    report = run(job)
    assert jobspec_from_dict(report["input"]) == job


def test_point_report():
    job = jobspec_from_dict(
        {"mode": "point", "base": {"kind": "point"}, "parameters": {"relation": ["1", "-3", "3", "-1"]}}
    )
    report = run(job)
    assert report["group_structure"]["free_rank_over_base"] == "3"
    assert report["group_structure"]["point_base_abelian_rank"] == "3"
    assert report["hilbert_ranks"][:4] == ["1", "3", "6", "10"]


# -- exit codes ----------------------------------------------------------


def test_run_exit_zero_and_json_output(tmp_path, capsys):
    spec = tmp_path / "job.json"
    spec.write_text(json.dumps(ruled_doc("0", "-1", "-1", "4")))
    assert main(["run", "--spec", str(spec), "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["e_invariant"] == "1"


def test_flags_equivalent_to_json(capsys):
    assert main(["run", "--mode", "ruled", "--genus", "0", "--deg-e", "-1", "--deg-q", "-1", "--json"]) == 0
    by_flags = json.loads(capsys.readouterr().out)
    assert by_flags["input"]["parameters"] == {"deg_e": "-1", "deg_q": "-1"}
    assert by_flags["e_invariant"] == "1"


def test_json_wins_over_flags(tmp_path, capsys):
    spec = tmp_path / "job.json"
    spec.write_text(json.dumps(ruled_doc("0", "-2", "0", "4")))
    code = main(["run", "--spec", str(spec), "--deg-e", "7", "--genus", "3", "--json"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["input"]["parameters"]["deg_e"] == "-2"
    assert report["input"]["base"]["genus"] == "0"
    assert report["e_invariant"] == "2"


def test_validation_error_names_the_violated_constraint(tmp_path, capsys):
    spec = tmp_path / "bad.json"
    spec.write_text(
        json.dumps(
            {
                "mode": "pnbundle",
                "base": {"kind": "curve", "genus": "0"},
                "parameters": {"n": "1", "koszul": [["1", "0"], ["5", "0"], ["1", "0"]]},
            }
        )
    )
    assert main(["run", "--spec", str(spec)]) == 1
    err = capsys.readouterr().err
    assert "rank(E_1)" in err and "binomial(2,1) = 2" in err


def test_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "broken.json"
    bad.write_text("{not json")
    assert main(["run", "--spec", str(bad)]) == 1
    assert main(["run", "--spec", str(tmp_path / "missing.json")]) == 1
    assert main(["run", "--mode", "point", "--relation", "2,-1"]) == 1


def test_verify_small_grid_passes(capsys):
    assert main(["verify", "--grid", "1,1"]) == 0
    out = capsys.readouterr().out
    assert "verification passed" in out


def test_verify_rejects_negative_grid_bounds(capsys):
    # a negative bound empties the surface grids, which used to pass with 0 checks
    for grid in ("-1,-1", "0,-3", "-1,0"):
        assert main(["verify", f"--grid={grid}"]) == 1
        captured = capsys.readouterr()
        assert "GMAX and DMAX must be >= 0" in captured.err and captured.out == ""


def test_verify_grid_size_limit(monkeypatch, capsys):
    assert MAX_GRID_SURFACES == 100_000
    assert main(["verify", "--grid", "400,400"]) == 1
    assert "more than 100000 surfaces" in capsys.readouterr().err
    # (GMAX+1) * (2*DMAX+1)^2 surfaces: 4000 * 25 is exactly the limit
    swept = []
    monkeypatch.setattr(kzero.verify, "run_all", lambda gmax, dmax: swept.append((gmax, dmax)) or [])
    assert main(["verify", "--grid", "3999,2"]) == 0
    assert main(["verify", "--grid", "4000,2"]) == 1
    assert main(["verify", "--grid", "0,158"]) == 1
    assert swept == [(3999, 2)]


def test_verify_catches_a_corrupted_euler_form(monkeypatch, capsys):
    true_form = RuledSurface.euler_form

    def corrupted(self, a, b):
        return true_form(self, a, b) + 1

    monkeypatch.setattr(RuledSurface, "euler_form", corrupted)
    assert main(["verify", "--grid", "0,0"]) == 2
    out = capsys.readouterr().out
    assert "verification FAILED" in out


def test_verify_bad_grid_flag(capsys):
    assert main(["verify", "--grid", "5"]) == 1


def test_usage_errors_exit_one_with_the_usage_text(capsys):
    # exit 2 is reserved for a failed verification
    assert main(["run", "--mode", "bogus"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage: kzero run") and "invalid choice: 'bogus'" in err
    assert main(["frobnicate"]) == 1
    assert main([]) == 1
    assert main(["--help"]) == 0


def test_series_order_limit(capsys):
    assert MAX_SERIES_ORDER == 100_000
    ruled = ["run", "--mode", "ruled", "--genus", "0", "--deg-e", "-1", "--deg-q", "-1"]
    assert main([*ruled, "--series-order", "100001"]) == 1
    assert "series_order must be <= 100000" in capsys.readouterr().err
    assert main(["run", "--mode", "point", "--relation", "1,-1", "--series-order", "100000", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["hilbert_ranks"] == ["1"] * 100_001


def test_internal_invariant_failure_exits_three_without_a_traceback(monkeypatch, capsys):
    assert not issubclass(InvariantViolation, ValueError)  # never read as bad input
    # a radical vector with middle entry 2 does not complement fiber and H
    monkeypatch.setattr(kzero.surface, "integer_kernel", lambda mat: [[0, 2, 0]])
    assert main(["run", "--mode", "ruled", "--genus", "0", "--deg-e", "-1", "--deg-q", "-1"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("internal error: radical does not complement") and "Traceback" not in err
    # verify counts the same fault as a failed check
    assert main(["verify", "--grid", "0,0"]) == 2
    assert "verification FAILED" in capsys.readouterr().out


def test_report_integers_may_pass_the_int_to_string_digit_limit(capsys):
    limit = sys.get_int_max_str_digits()
    argv = ["run", "--mode", "point", "--relation", "1,-1000,1", "--series-order", "1500", "--json"]
    assert main(argv) == 0
    assert sys.get_int_max_str_digits() == limit
    ranks = [int(Decimal(r)) for r in json.loads(capsys.readouterr().out)["hilbert_ranks"]]
    assert len(ranks) == 1501 and max(ranks).bit_length() > 14_300  # past 4,300 digits
    # (1 - 1000 T + T^2) * b = 1 modulo T^1501
    p = (1, -1000, 1)
    products = [sum(p[k] * ranks[n - k] for k in range(3) if k <= n) for n in range(1501)]
    assert products == [1] + [0] * 1500


def _kzero_child(argv, **kwargs):
    """``python -m kzero argv`` in a child process that imports kzero from this checkout."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-m", "kzero", *argv], capture_output=True, env=env, **kwargs)


def _limit_memory():
    resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))


def test_report_digit_budget_rejects_huge_outputs_quickly():
    assert MAX_REPORT_DIGITS == 30_000_000
    # about 15 GB of ranks without the budget, which stops it near T^4470;
    # a child process under a memory limit keeps a broken budget from taking the machine
    argv = ["run", "--mode", "point", "--relation", "1,-1000,1", "--series-order", "100000"]
    start = time.perf_counter()
    proc = _kzero_child(argv, timeout=60, preexec_fn=_limit_memory)
    assert time.perf_counter() - start < 5
    assert (proc.returncode, proc.stdout) == (1, b"")
    assert proc.stderr == b"error: hilbert ranks pass MAX_REPORT_DIGITS = 30000000 digits\n"


def test_report_digit_budget_counts_every_rank_digit(monkeypatch, capsys):
    monkeypatch.setattr(kzero.cli, "MAX_REPORT_DIGITS", 100)
    argv = ["run", "--mode", "point", "--relation", "1,-1", "--json", "--series-order"]
    assert main([*argv, "99"]) == 0  # 100 ranks of one digit each
    assert json.loads(capsys.readouterr().out)["hilbert_ranks"] == ["1"] * 100
    assert main([*argv, "100"]) == 1
    assert "MAX_REPORT_DIGITS = 100" in capsys.readouterr().err
    # bundle modes count the same digits: the ruled ranks 1 .. 54 have 9 + 90
    ruled = ["run", "--mode", "ruled", "--genus", "0", "--deg-e", "10000", "--deg-q", "-10000"]
    assert main([*ruled, "--series-order", "53"]) == 0
    assert main([*ruled, "--series-order", "54"]) == 1
    assert "MAX_REPORT_DIGITS = 100" in capsys.readouterr().err


def test_rank_step_budget_accepts_jobs_at_the_limit(monkeypatch, capsys):
    assert MAX_RANK_STEPS == 1_000_000
    # 1/(1 + T + ... + T^1000) = (1 - T)/(1 - T^1001): order 1000 times 1000 relation ranks is exactly the limit
    argv = ["run", "--mode", "point", "--relation", ",".join(["1"] * 1001), "--series-order", "1000", "--json"]
    assert main(argv) == 0
    assert json.loads(capsys.readouterr().out)["hilbert_ranks"] == ["1", "-1"] + ["0"] * 999
    # zero relation ranks and the constant term take no step
    monkeypatch.setattr(kzero.cli, "MAX_RANK_STEPS", 10)
    argv = ["run", "--mode", "point", "--relation", "1,0,0,-1", "--json", "--series-order"]
    assert main([*argv, "10"]) == 0
    assert json.loads(capsys.readouterr().out)["hilbert_ranks"] == ["1", "0", "0"] * 3 + ["1", "0"]
    assert main([*argv, "11"]) == 1
    assert capsys.readouterr().err == "error: hilbert ranks take 11 x 1 steps, past MAX_RANK_STEPS = 10\n"


def test_rank_step_budget_rejects_one_step_past_it_quickly():
    # 1,001 ones at order 1,001: 1,000 relation ranks, 1,001,000 steps, rejected before any rank is computed;
    # a child process with a timeout and a memory limit, as for the digit budget
    argv = ["run", "--mode", "point", "--relation", ",".join(["1"] * 1001), "--series-order", "1001"]
    start = time.perf_counter()
    proc = _kzero_child(argv, timeout=60, preexec_fn=_limit_memory)
    assert time.perf_counter() - start < 5
    assert (proc.returncode, proc.stdout) == (1, b"")
    assert proc.stderr == b"error: hilbert ranks take 1001 x 1000 steps, past MAX_RANK_STEPS = 1000000\n"


def test_rank_step_budget_charges_a_bundle_job_one_step_per_order(capsys):
    # P^100 over a point at order 9,901: 101 relation ranks, but the rank law takes one product a step
    koszul = ",".join(f"{math.comb(101, q)}:0" for q in range(102))
    argv = ["run", "--mode", "pnbundle", "--point", "--n", "100", "--koszul", koszul, "--series-order", "9901"]
    assert main([*argv, "--json"]) == 0
    ranks = json.loads(capsys.readouterr().out)["hilbert_ranks"]
    assert ranks == [str(math.comb(100 + i, 100)) for i in range(9902)]


def test_rank_work_budget_counts_relation_digits_times_the_widest_rank(monkeypatch, capsys):
    assert MAX_RANK_WORK == 5_000_000_000
    # the ranks of 1/(1 - 10 T + T^2) are 1, 10, 99, 980: each step multiplies the 3 relation digits by the
    # digits of the widest rank so far, 1, 2, 2 and then 3
    monkeypatch.setattr(kzero.cli, "MAX_RANK_WORK", 15)  # 3 + 6 + 6 after three steps, 24 after four
    argv = ["run", "--mode", "point", "--relation", "1,-10,1", "--json", "--series-order"]
    assert main([*argv, "3"]) == 0
    assert json.loads(capsys.readouterr().out)["hilbert_ranks"] == ["1", "10", "99", "980"]
    assert main([*argv, "4"]) == 1
    assert capsys.readouterr().err == "error: hilbert ranks pass MAX_RANK_WORK = 15 digit products\n"
    # bundle ranks follow the rank law and are not weighed
    pn = ["run", "--mode", "pnbundle", "--point", "--n", "1", "--koszul", "1:0,2:0,1:0", "--series-order", "40"]
    assert main(pn) == 0


def test_rank_work_budget_rejects_wide_coefficients_quickly(tmp_path, capsys):
    # 100 relation ranks of 1,000 digits (and a unit on top) at order 200: 20,200 steps, well inside
    # MAX_RANK_STEPS, but about 2e12 digit products and some 40 s of work without the budget
    spec = tmp_path / "wide.json"
    relation = ["1"] + [str(10**999 + 7)] * 100 + ["1"]
    spec.write_text(json.dumps({"mode": "point", "parameters": {"relation": relation}, "series_order": 200}))
    start = time.perf_counter()
    assert main(["run", "--spec", str(spec), "--json"]) == 1
    assert time.perf_counter() - start < 1
    assert capsys.readouterr().err == f"error: hilbert ranks pass MAX_RANK_WORK = {MAX_RANK_WORK} digit products\n"


def test_rank_work_budget_admits_the_benchmark_point_jobs(tmp_path, monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    import workloads

    # |b_i| <= S^i for S = sum |c_k| over k >= 1, so the work is at most width * sum_(i < order) (i log10 S + 1)
    def work_bound(coeffs, order):
        width = sum(len(str(abs(c))) for c in coeffs[1:] if c)
        return width * (order + math.log10(sum(abs(c) for c in coeffs[1:])) * order * (order - 1) / 2)

    for seed in range(1, 40):
        workloads.build_cli_jobs(kzero, seed, tmp_path)
        for path in tmp_path.glob("job*.json"):
            doc = json.loads(path.read_text())
            if doc["mode"] == "point":
                coeffs = [int(c) for c in doc["parameters"]["relation"]]
                assert work_bound(coeffs, int(doc["series_order"])) < MAX_RANK_WORK
    for coeffs, order in (workloads.LARGEST_POINT_JOB, *workloads.DIGIT_LIMIT_JOBS):
        assert work_bound(coeffs, order) < MAX_RANK_WORK
        argv = ["run", "--mode", "point", "--relation", ",".join(map(str, coeffs)), "--series-order", str(order)]
        assert main(argv) == 0
    capsys.readouterr()


def test_rank_arithmetic_leaves_the_decimal_context_and_traps_inexact_steps(monkeypatch, capsys):
    context = decimal.getcontext()
    state = repr(context)
    point_job = ["run", "--mode", "point", "--relation", "1,-1000,1", "--series-order"]
    assert main([*point_job, "1500"]) == 0
    monkeypatch.setattr(kzero.cli, "MAX_REPORT_DIGITS", 1000)
    assert main([*point_job, "1500"]) == 1  # leaves through the digit budget
    capsys.readouterr()
    # five digits of precision: the ranks of 1/(1 - 1000 T + T^2) round at T^2
    monkeypatch.setattr(kzero.cli, "_EXACT", decimal.Context(prec=5, traps=[decimal.Inexact, decimal.Rounded]))
    assert main([*point_job, "1"]) == 0
    assert main([*point_job, "2"]) == 3  # leaves through a trapped signal
    err = capsys.readouterr().err
    assert err.startswith("internal error: inexact hilbert rank arithmetic") and "Traceback" not in err
    assert decimal.getcontext() is context
    assert repr(context) == state


def test_closed_stdout_pipe_ends_without_a_traceback():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    argv = ["run", "--mode", "point", "--relation", "1,-3,3,-1", "--series-order", "20000", "--json"]
    proc = subprocess.Popen(
        [sys.executable, "-m", "kzero", *argv], stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env
    )
    try:
        head = proc.stdout.read(10)
        proc.stdout.close()  # the report is hundreds of kilobytes, far more than the pipe holds
        _, err = proc.communicate(timeout=120)
    finally:
        proc.kill()  # no-op once it has exited
    assert head == b'{\n  "schem'
    assert err == b""
    assert proc.returncode == 1


def test_unreadable_job_documents_are_parse_errors(tmp_path, capsys):
    files = {
        "deep.json": b"[" * 200_000 + b"]" * 200_000,  # deeper than the recursion limit
        "latin1.json": '{"mode": "ruled", "base": {"kind": "curve", "genus": "\xe9"}}'.encode("latin-1"),
        "long_int.json": b'{"mode": "point", "series_order": ' + b"7" * 5000 + b"}",  # past 4,300 digits
    }
    for name, data in files.items():
        path = tmp_path / name
        path.write_bytes(data)
        assert main(["run", "--spec", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: invalid JSON in {path}: "), name
        assert "Traceback" not in err


def test_non_object_parameters_in_a_job_file_are_parse_errors(tmp_path, capsys):
    path = tmp_path / "job.json"
    for params in (5, "ab", [["deg_e", 1]], None):
        path.write_text(json.dumps({"mode": "ruled", "base": {"kind": "curve"}, "parameters": params}))
        assert main(["run", "--spec", str(path), "--deg-e", "1", "--deg-q", "1"]) == 1
        assert capsys.readouterr().err == "error: parameters must be an object\n"


def pn_doc(koszul):
    return {"mode": "pnbundle", "base": {"kind": "curve", "genus": 0}, "parameters": {"n": 1, "koszul": koszul}}


def point_doc(relation, **extra):
    return {"mode": "point", "base": {"kind": "point"}, "parameters": {"relation": relation}, **extra}


REJECTED = {
    "genus true": (ParseError, ruled_doc(True)),
    "genus 1.5": (ParseError, ruled_doc(1.5)),
    "empty base": (ParseError, {**ruled_doc(), "base": {}}),
    "torus base": (ParseError, {**ruled_doc(), "base": {"kind": "torus"}}),
    "koszul entry [2]": (ParseError, pn_doc([[1, 0], [2], [1, 0]])),
    "relation as a string": (ParseError, point_doc("1,2")),
    "empty relation": (ParseError, point_doc([])),
    "series_order -1": (ValidationError, point_doc(["1", "-1"], series_order="-1")),
    "point mode on a curve": (ValidationError, {**point_doc(["1", "-1"]), "base": {"kind": "curve", "genus": 1}}),
    "a list, not an object": (ParseError, [1]),
}


@pytest.mark.parametrize("error, doc", REJECTED.values(), ids=REJECTED)
def test_each_rejected_job_raises_its_named_error_and_exits_one(error, doc, tmp_path, capsys):
    with pytest.raises(ValueError) as caught:
        run(jobspec_from_dict(doc))
    assert caught.type is error
    path = tmp_path / "job.json"
    path.write_text(json.dumps(doc))
    assert main(["run", "--spec", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(caught.value) in err


# -- job documents, property-based ----------------------------------------

KEYS = {"ruled": ("deg_e", "deg_q"), "pnbundle": ("n", "koszul"), "point": ("relation",)}


def numbers(ints):
    """An integer, or the same integer as a decimal string."""
    return st.one_of(ints, ints.map(str))


@st.composite
def job_documents(draw, ints, orders):
    mode = draw(st.sampled_from(sorted(KEYS)))
    num = numbers(ints)
    if mode == "ruled":
        params = {"deg_e": draw(num), "deg_q": draw(num)}
    elif mode == "pnbundle":
        params = {"n": draw(num), "koszul": draw(st.lists(st.lists(num, min_size=2, max_size=2), max_size=5))}
    else:
        params = {"relation": draw(st.lists(num, min_size=1, max_size=6))}
    doc = {"mode": mode, "parameters": params}
    if draw(st.booleans()):
        doc["base"] = draw(st.sampled_from(({"kind": "point"}, {"kind": "curve", "genus": draw(numbers(orders))})))
    if draw(st.booleans()):
        doc["series_order"] = draw(numbers(orders))
    return doc


@settings(max_examples=200, deadline=None)
@given(job_documents(st.integers(-(10**40), 10**40), st.integers(0, 10**40)), st.data())
def test_valid_job_documents_survive_the_round_trip(doc, data):
    # parameters of the other modes are ignored and left out of the echo
    for mode, keys in KEYS.items():
        if mode != doc["mode"] and data.draw(st.booleans()):
            doc["parameters"].update({key: data.draw(st.integers(-3, 3)) for key in keys})
    job = jobspec_from_dict(doc)
    echo = jobspec_to_dict(job)
    assert jobspec_from_dict(echo) == job
    assert_all_strings(echo)
    assert tuple(echo["parameters"]) == KEYS[doc["mode"]]


NAMES = ("mode", "base", "kind", "genus", "parameters", "series_order", *(k for keys in KEYS.values() for k in keys))
SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 50),
    st.floats(-3, 50),
    st.sampled_from(("ruled", "pnbundle", "point", "curve", "1", "-1", "0", "2", "x", "")),
)
JSON = st.recursive(
    SCALARS,
    lambda inner: st.one_of(st.lists(inner, max_size=4), st.dictionaries(st.sampled_from(NAMES), inner)),
    max_leaves=12,
)
DOCUMENTS = st.one_of(
    job_documents(st.integers(-3, 6), st.integers(0, 50)), JSON, st.dictionaries(st.sampled_from(NAMES), JSON)
)


@settings(max_examples=200, deadline=None)
@given(DOCUMENTS)
def test_any_json_value_is_a_report_or_a_value_error(doc):
    try:
        report = run(jobspec_from_dict(doc))
    except ValueError:
        return
    assert report["schema"] == 1 and report["hilbert_ranks"]


# -- Hilbert ranks, property-based --------------------------------------------


@st.composite
def rank_jobs(draw):
    """A valid job document of any mode and the relation polynomial it inverts."""
    mode = draw(st.sampled_from(sorted(KEYS)))
    order = draw(st.integers(0, 200))
    if mode == "point":
        coeffs = [1]
        if draw(st.booleans()):
            middle = st.one_of(st.just(0), st.integers(-(10**6), 10**6))
            coeffs += draw(st.lists(middle, max_size=5)) + [draw(st.sampled_from((1, -1)))]
        doc = {"mode": mode, "parameters": {"relation": coeffs}}
        return doc, order, LaurentPoly.from_int_coeffs(point(), coeffs)
    genus = draw(st.integers(0, 4))
    degrees = st.integers(-(10**6), 10**6)
    if mode == "ruled":
        deg_e, deg_q = draw(degrees), draw(degrees)
        doc = {"mode": mode, "base": {"kind": "curve", "genus": genus}, "parameters": {"deg_e": deg_e, "deg_q": deg_q}}
        return doc, order, RuledSurface.from_degrees(genus, deg_e, deg_q).bundle_spec().relation_poly()
    n = draw(st.integers(1, 5))
    base = point() if draw(st.booleans()) else curve(genus)
    return pnbundle_rank_job(base, n, [0 if base.is_point else draw(degrees) for _ in range(n + 1)], order)


def pnbundle_rank_job(base, n, degrees, order):
    """A pnbundle job of ``rank_jobs``: Koszul ranks binomial(n + 1, q) and the given degrees for q >= 1."""
    koszul = [[1, 0]] + [[math.comb(n + 1, q), d] for q, d in enumerate(degrees, 1)]
    doc = {
        "mode": "pnbundle",
        "base": {"kind": "point"} if base.is_point else {"kind": "curve", "genus": base.genus},
        "parameters": {"n": n, "koszul": koszul},
    }
    return doc, order, PnBundleSpec(base, n, tuple(base.k0(r, d) for r, d in koszul)).relation_poly()


@settings(max_examples=200, deadline=None)
@given(rank_jobs())
# bundle reports step the rank law binomial(n + i, n); fixed examples reach the large n that draws do not
@example(pnbundle_rank_job(point(), 1, [0, 0], 300))
@example(pnbundle_rank_job(curve(1), 2, [2, 1, 0], 300))
@example(pnbundle_rank_job(curve(3), 7, [q - 4 for q in range(8)], 200))
@example(pnbundle_rank_job(point(), 300, [0] * 301, 300))
def test_report_ranks_are_the_ranks_of_the_inverted_relation(job):
    doc, order, relation = job
    report = run(jobspec_from_dict({**doc, "series_order": order}))
    assert report["hilbert_ranks"] == [str(r) for r in series_invert(relation, order).ranks()]


def test_rank_growth_check_steps_the_binomials_exactly():
    # the rank law and the point recurrence, run on the same bundle relation, both give binomial(n + i, n)
    for n in (1, 2, 7, 300):
        ranks = [math.comb(n + i, n) for i in range(60)]
        doc, _, relation = pnbundle_rank_job(point(), n, [0] * (n + 1), 59)
        assert _hilbert_ranks(relation, 59, n) == ranks
        assert _hilbert_ranks(relation, 59, None) == ranks
        report = run(jobspec_from_dict({**doc, "series_order": 59}))
        assert report["hilbert_ranks"] == [str(r) for r in ranks]


# -- the report writers ---------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(rank_jobs())
def test_report_json_is_json_dumps_with_indent_two(job):
    doc, order, _ = job
    report = run(jobspec_from_dict({**doc, "series_order": order}))
    assert _report_json(report) == json.dumps(report, indent=2)


@pytest.mark.parametrize(
    "doc",
    [
        {"mode": "point", "parameters": {"relation": [1]}, "series_order": 0},  # the rank list is ["1"]
        {"mode": "point", "parameters": {"relation": [1, 0, 1]}, "series_order": 9},  # zero and negative ranks
        {"mode": "point", "parameters": {"relation": [1, -1000, 1]}, "series_order": 1500},  # past 4,300 digits
        {"mode": "pnbundle", "base": {"kind": "point"}, "parameters": {"n": 1, "koszul": [[1, 0], [2, 0], [1, 0]]}},
        ruled_doc("0", "-1", "-1", "0"),  # the ruled keys follow the rank list
        ruled_doc("7", "13", "-40", "200"),
    ],
)
def test_report_json_is_json_dumps_with_indent_two_on_seeded_reports(doc):
    report = run(jobspec_from_dict(doc))
    assert _report_json(report) == json.dumps(report, indent=2)


def test_reused_parser_leaks_no_state_between_calls(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")  # the help text wraps at the terminal width
    spec = tmp_path / "job.json"
    spec.write_text(json.dumps(ruled_doc("0", "-2", "0", "4")))
    ruled = ["run", "--mode", "ruled", "--genus", "0", "--deg-e", "-1", "--deg-q", "-1"]
    calls = [
        (["run", "--mode", "bogus"], 1),
        (["--help"], 0),
        ([*ruled, "--series-order", "5", "--json"], 0),
        (["run", "--mode", "point", "--point", "--relation", "1,-3,3,-1"], 0),
        (["verify", "--grid", "0,0"], 0),
        ([*ruled, "--deg-e", "7"], 0),
        (["run", "--spec", str(spec), "--deg-e", "7"], 0),  # the document's deg_e of -2 wins
    ]
    for argv, code in calls:
        assert main(argv) == code, argv
        captured = capsys.readouterr()
        fresh = _kzero_child(argv, timeout=120)
        assert (fresh.returncode, fresh.stdout.decode()) == (code, captured.out), argv
        assert fresh.stderr.decode() == captured.err, argv
