"""Command-line behavior: parsing, reports, exit codes."""

import json
import os
import subprocess
import sys
from decimal import Decimal
from pathlib import Path

import pytest

import kzero.surface
import kzero.verify
from kzero import InvariantViolation, RuledSurface
from kzero.cli import (
    DEFAULT_SERIES_ORDER,
    MAX_GRID_SURFACES,
    MAX_SERIES_ORDER,
    _check_rank_growth,
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
    with pytest.raises(InvariantViolation, match="T\\^1"):
        _check_rank_growth([1, 3], 1)
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
