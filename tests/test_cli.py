"""Command-line front-end: dispatch, exit codes, and report determinism."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from riccstab import acceptance, cli
from riccstab.acceptance import SelftestResult
from riccstab.cli import _build_parser, main
from riccstab.ddesim import decay_check
from riccstab.matcore import BlockSymmetric
from riccstab.riccati import MatrixPair, make_witness, solve_diagonal, verify_certificate

FEASIBLE = {"A": [[-2.0]], "B": [[1.0]]}
REFUTED = {"A": [[-1.0]], "B": [[2.0]]}
CHAIN = {
    "A": [[-1.0, 0.0, 0.0], [-1.0, -1.0, 0.0], [0.0, 1.5, -1.0]],
    "B": [[0.0, 0.0, 0.1], [0.0, 0.0, -0.1], [0.0, 0.0, 0.0]],
}


def write(tmp_path, payload, name="problem.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def run_main(capsys, argv):
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse refuses a usage error by exiting
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_check_feasible(tmp_path, capsys):
    code, out, _ = run_main(capsys, ["check", write(tmp_path, FEASIBLE)])
    assert code == 0
    report = json.loads(out)
    assert report["status"] == "Feasible"
    assert report["margin"] > 0.0


def test_check_refuted_with_witness(tmp_path, capsys):
    code, out, _ = run_main(capsys, ["check", write(tmp_path, REFUTED)])
    assert code == 0
    report = json.loads(out)
    assert report["status"] == "Refuted"
    assert report["witness_S"] == [[1.0, 1.0], [1.0, 1.0]]


def test_classify_structured(tmp_path, capsys):
    code, out, _ = run_main(capsys, ["classify", write(tmp_path, CHAIN)])
    assert code == 0
    report = json.loads(out)
    assert report["tag"]["name"] == "Chain3x3"
    assert set(report["condition_values"]) == {"diagonal_margin", "tail_margin", "determinant_margin"}
    assert report["stable"] == "Stable"


def test_classify_unstructured_falls_back_to_check(tmp_path, capsys):
    dense = {
        "A": [[-3.0, 0.4, -0.2], [0.3, -2.5, 0.1], [-0.1, 0.2, -2.0]],
        "B": [[0.1, -0.1, 0.0], [0.0, 0.1, 0.1], [0.1, 0.0, -0.1]],
    }
    code, out, _ = run_main(capsys, ["classify", write(tmp_path, dense)])
    report = json.loads(out)
    assert report["tag"]["name"] == "Unstructured"
    assert report["verdict"]["status"] == "Feasible"
    assert code == 0


def test_refute_emits_witness_or_empty(tmp_path, capsys):
    code, out, _ = run_main(capsys, ["refute", write(tmp_path, REFUTED)])
    assert code == 0
    assert json.loads(out)["failing_minor"] == -1.0

    code, out, _ = run_main(capsys, ["refute", write(tmp_path, FEASIBLE)])
    assert code == 2
    assert json.loads(out)["witness"] is None


# feasible with margin about 1e-9, below the default tol: check ends Unknown
BOUNDARY = {"A": [[-1.0]], "B": [[1.0 - 1e-9]]}


def test_refute_reports_the_screen_count_when_nothing_refutes(tmp_path, capsys):
    screened = solve_diagonal(MatrixPair(BOUNDARY["A"], BOUNDARY["B"])).samples_tried
    code, out, _ = run_main(capsys, ["refute", write(tmp_path, BOUNDARY)])
    assert code == 2
    assert json.loads(out) == {"samples_tried": screened, "witness": None}


# neither extreme refutes it and the barrier cannot certify it: the dual iterate refutes
REFUSED_HIT_PAIR = {
    "A": [[-2.0, 2.0, -2.0, -1.0], [-4.0, -3.0, 2.0, -2.0], [1.0, 2.0, -4.0, 0.0], [0.0, 3.0, -3.0, -5.0]],
    "B": [[1.0, 1.0, 0.0, -1.0], [-1.0, 0.0, 0.0, 1.0], [0.0, -1.0, 0.0, -3.0], [0.0, -1.0, 0.0, -1.0]],
}


def test_refute_runs_the_solver(tmp_path, capsys):
    code, out, _ = run_main(capsys, ["refute", write(tmp_path, REFUSED_HIT_PAIR)])
    assert code == 0
    report = json.loads(out)
    assert report["samples_tried"] == 3
    witness = BlockSymmetric(report["witness_S"])
    assert make_witness(MatrixPair(REFUSED_HIT_PAIR["A"], REFUSED_HIT_PAIR["B"]), witness) is not None
    # a pair that unit weights certify gets no screen at all
    code, out, _ = run_main(capsys, ["refute", write(tmp_path, FEASIBLE)])
    assert code == 2
    assert json.loads(out) == {"samples_tried": 0, "witness": None}
    # the solver reads the options: the README pair needs one Newton step to
    # be certified (2 tried); with none, the dual is offered too and refused
    for flags, tried in (([], 2), (["--max-iter", "0"], 3)):
        code, out, _ = run_main(capsys, ["refute", write(tmp_path, README_PAIR)] + flags)
        assert code == 2
        assert json.loads(out) == {"samples_tried": tried, "witness": None}


def test_refute_beyond_the_float_range_exits_one_naming_it(tmp_path, capsys):
    # max|A| + max|B| is beyond the float range and neither extreme refutes
    code, out, err = run_main(capsys, ["refute", write(tmp_path, {"A": [[-1.5e308]], "B": [[7.5e307]]})])
    assert code == 1
    assert out == ""
    assert "float range" in err


def test_check_answers_above_the_minor_walk_cap(tmp_path, capsys):
    n = 15
    problem = {"A": (-2.0 * np.eye(n)).tolist(), "B": (0.1 * np.eye(n)).tolist()}
    code, out, _ = run_main(capsys, ["check", write(tmp_path, problem)])
    assert code == 0
    assert json.loads(out)["status"] == "Feasible"


def test_transform_maps_certificate(tmp_path, capsys):
    problem = dict(FEASIBLE, transform={"d": [2.0], "e": [1.0]})
    code, out, _ = run_main(capsys, ["check", write(tmp_path, problem)])
    assert code == 0
    certificate = json.loads(out)
    code, out, _ = run_main(capsys, ["transform", write(tmp_path, problem)])
    assert code == 0
    report = json.loads(out)
    assert report["A"] == [[-8.0]]
    assert report["B"] == [[2.0]]
    # the map (P, Q) -> (P, DQD) applied to the check certificate, exactly
    assert report["certificate"]["P"] == certificate["P"]
    assert report["certificate"]["Q"] == [2.0 * 2.0 * q for q in certificate["Q"]]


def test_simulate_reports_and_csv(tmp_path, capsys):
    problem = dict(FEASIBLE, tau=[0.0, 1.0])
    out_path = tmp_path / "traj.csv"
    code, out, _ = run_main(
        capsys,
        ["simulate", write(tmp_path, problem), "--horizon", "40", "--step", "0.02", "--out", str(out_path)],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["certificate_status"] == "Feasible"
    assert [r["tau"] for r in payload["reports"]] == [0.0, 1.0]
    assert all(r["decayed"] for r in payload["reports"])
    pair = MatrixPair(FEASIBLE["A"], FEASIBLE["B"])
    expected = decay_check(pair, solve_diagonal(pair).certificate, [0.0, 1.0], 40.0, 0.02)
    assert payload["reports"] == [report.to_json() for report in expected]
    for tau_name in ("traj_tau0.csv", "traj_tau1.csv"):
        text = (tmp_path / tau_name).read_text()
        assert text.startswith("t,x_1,V\n")


@pytest.mark.parametrize(
    "taus, clash",
    [("1,1.0000001", "1.0 and 1.0000001"), ("1,1", "1.0 and 1.0"), ("0,2,1,2.0000001", "2.0 and 2.0000001")],
)
def test_simulate_refuses_delays_that_share_a_csv_file(tmp_path, capsys, taus, clash):
    problem = write(tmp_path, FEASIBLE)
    code, out, err = run_main(capsys, ["simulate", problem, "--tau", taus, "--out", str(tmp_path / "t.csv")])
    assert code == 1
    assert out == ""
    assert "--out" in err and clash in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["problem.json"]


@pytest.mark.parametrize(
    "argv",
    [
        ["check"],
        ["classify"],
        ["refute"],
        ["transform"],
        ["simulate", "--tau", "0,1", "--horizon", "1"],
        ["simulate", "--tau", "1", "--horizon", "1", "--format", "csv"],
        ["selftest"],
    ],
    ids=["check", "classify", "refute", "transform", "simulate-json", "simulate-csv", "selftest"],
)
def test_out_in_a_missing_directory_exits_one_naming_the_flag(tmp_path, capsys, monkeypatch, argv):
    report = {"seed": 0, "criteria": {}, "all_passed": True}
    monkeypatch.setattr(acceptance, "selftest", lambda seed: SelftestResult(report, {}, "{}", "{}"))
    problem = [] if argv[0] == "selftest" else [write(tmp_path, dict(FEASIBLE, transform={"d": [2.0], "e": [1.0]}))]
    out = str(tmp_path / "missing" / "out.csv")
    code, stdout, err = run_main(capsys, argv[:1] + problem + argv[1:] + ["--out", out])
    assert code == 1
    assert stdout == ""
    assert "Traceback" not in err
    assert err.startswith(f"riccstab: error: --out {tmp_path / 'missing'}")


def test_simulate_reads_a_scalar_tau_from_the_problem_file(tmp_path, capsys):
    problem = write(tmp_path, {"A": [[-2.0]], "B": [[0.5]], "tau": 1})
    code, out, _ = run_main(capsys, ["simulate", problem, "--horizon", "20"])
    assert code == 0
    assert [r["tau"] for r in json.loads(out)["reports"]] == [1.0]


@pytest.mark.parametrize("tau", ["1", True, None, {"value": 1}])
def test_simulate_rejects_a_tau_that_is_not_a_number_or_list(tmp_path, capsys, tau):
    problem = write(tmp_path, {"A": [[-2.0]], "B": [[0.5]], "tau": tau})
    code, out, err = run_main(capsys, ["simulate", problem])
    assert code == 1
    assert out == ""
    assert "tau" in err


def test_simulate_csv_stdout_single_tau(tmp_path, capsys):
    code, out, _ = run_main(
        capsys,
        ["simulate", write(tmp_path, FEASIBLE), "--tau", "0.5", "--horizon", "40", "--step", "0.1", "--format", "csv"],
    )
    assert code == 0
    assert out.startswith("t,x_1,V\n")


def test_input_errors_exit_one(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run_main(capsys, ["check", str(bad)])
    assert code == 1
    assert "error" in err

    mismatched = write(tmp_path, {"A": [[-1.0]], "B": [[1.0, 0.0], [0.0, 1.0]]}, "dims.json")
    code, _, err = run_main(capsys, ["check", mismatched])
    assert code == 1

    code, _, err = run_main(capsys, ["simulate", write(tmp_path, FEASIBLE), "--tau", "0,1", "--format", "csv"])
    assert code == 1
    assert "exactly one delay" in err


@pytest.mark.parametrize(
    "flags, name",
    [
        (["--horizon", "inf"], "horizon"),
        (["--horizon", "nan"], "horizon"),
        (["--step", "nan"], "step"),
        (["--step", "inf"], "step"),
        (["--tau", "inf"], "tau"),
        (["--tau", "nan"], "tau"),
        (["--horizon", "1e12"], "MAX_GRID_VALUES"),
        (["--tau", "1e-12"], "MAX_GRID_VALUES"),
    ],
)
def test_simulate_rejects_unusable_grid_arguments(tmp_path, capsys, flags, name):
    code, out, err = run_main(capsys, ["simulate", write(tmp_path, FEASIBLE)] + flags)
    assert code == 1
    assert out == ""
    assert name in err


@pytest.mark.parametrize(
    "keys, name",
    [
        ({"options": {"horizon": True, "step": 0.5}}, "horizon"),
        ({"options": {"horizon": "5"}}, "horizon"),
        ({"options": {"step": True}}, "step"),
        ({"tau": [True]}, "tau"),
        ({"tau": [0.0, "1"]}, "tau"),
        ({"options": [60.0]}, "options"),
    ],
)
def test_simulate_refuses_file_values_that_are_not_numbers(tmp_path, capsys, keys, name):
    # JSON true is not 1 and "5" is not 5, as for the solver's options
    code, out, err = run_main(capsys, ["simulate", write(tmp_path, dict(FEASIBLE, **keys))])
    assert code == 1
    assert out == ""
    assert name in err


README_PAIR = {"A": [[-3.0, 1.0], [1.0, -3.0]], "B": [[1.0, 0.0], [0.0, 1.0]]}


@pytest.mark.parametrize(
    "flags, name",
    [
        (["--tol", "nan"], "tol"),
        (["--tol", "inf"], "tol"),
        (["--tol", "-1"], "tol"),
        (["--max-iter", "-5"], "max_iter"),
    ],
)
@pytest.mark.parametrize("command", ["check", "refute"])
def test_solve_options_out_of_range_exit_one_naming_the_field(tmp_path, capsys, command, flags, name):
    code, out, err = run_main(capsys, [command, write(tmp_path, README_PAIR)] + flags)
    assert code == 1
    assert out == ""
    assert name in err


@pytest.mark.parametrize(
    "key, value",
    [
        ("max_iter", 2.7),
        ("max_iter", True),
        ("tol", True),
        ("tol", "1e-7"),
    ],
)
@pytest.mark.parametrize("command", ["check", "refute"])
def test_malformed_file_options_exit_one_naming_the_option(tmp_path, capsys, command, key, value):
    # JSON true is not 1 and 2.7 is not 2: a problem file's options are taken as written or refused
    problem = dict(README_PAIR, options={key: value})
    code, out, err = run_main(capsys, [command, write(tmp_path, problem)])
    assert code == 1
    assert out == ""
    assert key in err


def test_integral_file_options_are_accepted(tmp_path, capsys):
    problem = dict(README_PAIR, options={"tol": 0, "max_iter": 60.0, "seed": 2, "samples": 8.0})
    code, out, _ = run_main(capsys, ["check", write(tmp_path, problem)])
    assert code == 0
    assert json.loads(out)["status"] == "Feasible"


def test_selftest_refuses_a_negative_seed_naming_it(capsys):
    code, out, err = run_main(capsys, ["selftest", "--seed", "-3"])
    assert code == 1
    assert out == ""
    assert "seed" in err and "non-negative integer" not in err


def _strict_json(text):
    """json.loads that refuses NaN and +-Infinity, which are not JSON."""

    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")

    return json.loads(text, parse_constant=refuse)


def test_overflowing_failing_minor_is_strict_json(tmp_path, capsys):
    # the failing minor of {0, 1} is about -5e600, beyond the float range
    pair = {"A": [[-1e300, -2e300], [-3e300, -1e300]], "B": [[1e299, 0.0], [0.0, 1e299]]}
    code, out, err = run_main(capsys, ["check", write(tmp_path, pair)])
    assert code == 0
    assert err == ""
    report = _strict_json(out)
    assert report["status"] == "Refuted"
    assert report["failing_subset"] == [0, 1]
    assert report["failing_minor"] == -sys.float_info.max


@pytest.mark.parametrize(
    "pair",
    [
        # the pair's scale max|A| + max|B| is beyond the float range
        {"A": [[-1.5e308]], "B": [[7.5e307]]},
        # the scale is finite, but the block form at unit weights is not
        {"A": [[-1e308]], "B": [[1e307]]},
    ],
)
def test_check_beyond_the_float_range_exits_one_naming_it(tmp_path, capsys, pair):
    code, out, err = run_main(capsys, ["check", write(tmp_path, pair)])
    assert code == 1
    assert out == ""
    assert "float range" in err


def test_check_skips_an_extreme_whose_image_overflows(tmp_path, capsys):
    # -(A + B) is -inf, but the S12 = -1 extreme's image -(A - B) is 0
    code, out, err = run_main(capsys, ["check", write(tmp_path, {"A": [[1e308]], "B": [[1e308]]})])
    assert code == 0
    assert err == ""
    report = _strict_json(out)
    assert report["status"] == "Refuted"
    assert report["samples_tried"] == 2
    assert report["failing_minor"] == 0.0


def test_selftest_writes_timings_to_stderr(tmp_path, capsys, monkeypatch):
    report = {"seed": 0, "criteria": {}, "all_passed": True}
    timings = {
        "first_run": {"positive_oracle": 1.5, "total": 1.5},
        "second_run": {"positive_oracle": 1.25, "total": 1.25},
    }
    monkeypatch.setattr(acceptance, "selftest", lambda seed: SelftestResult(report, timings, "{}", "{}"))
    code, out, err = run_main(capsys, ["selftest"])
    assert code == 0
    assert out == json.dumps(report, indent=2, sort_keys=True) + "\n"
    assert err.splitlines() == [
        "riccstab: selftest first_run positive_oracle 1.500 s",
        "riccstab: selftest first_run total 1.500 s",
        "riccstab: selftest second_run positive_oracle 1.250 s",
        "riccstab: selftest second_run total 1.250 s",
    ]


def test_unknown_flag_exits_one(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["check", write(tmp_path, FEASIBLE), "--bogus"])
    assert exc.value.code == 1


def test_csv_format_rejected_outside_simulate(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["check", write(tmp_path, FEASIBLE), "--format", "csv"])
    assert exc.value.code == 1


# each command's flags; every other flag of the nine is refused
FLAG_TABLE = {
    "check": {"--tol", "--max-iter", "--out"},
    "classify": {"--tol", "--max-iter", "--out"},
    "refute": {"--tol", "--max-iter", "--out"},
    "transform": {"--tol", "--max-iter", "--out"},
    "simulate": {"--tol", "--max-iter", "--out", "--tau", "--horizon", "--step", "--format"},
    "selftest": {"--seed", "--out"},
}
FLAG_VALUES = {
    "--tol": ("1e-6", 1e-6),
    "--seed": ("3", 3),
    "--samples": ("16", 16),
    "--max-iter": ("5", 5),
    "--tau": ("0,1", [0.0, 1.0]),
    "--horizon": ("20", 20.0),
    "--step": ("0.05", 0.05),
    "--format": ("csv", "csv"),
    "--out": ("out.json", "out.json"),
}


@pytest.mark.parametrize("flag", sorted(FLAG_VALUES))
@pytest.mark.parametrize("command", sorted(FLAG_TABLE))
def test_each_command_accepts_only_the_flags_it_reads(tmp_path, capsys, command, flag):
    text, value = FLAG_VALUES[flag]
    argv = [command] + ([] if command == "selftest" else [write(tmp_path, FEASIBLE)]) + [flag, text]
    if flag in FLAG_TABLE[command]:
        args = _build_parser().parse_args(argv)
        assert getattr(args, flag[2:].replace("-", "_")) == value
        return
    code, out, err = run_main(capsys, argv)
    assert code == 1
    assert out == ""
    assert flag in err


@pytest.mark.parametrize("command", sorted(FLAG_TABLE))
def test_help_lists_exactly_the_flags_of_the_command(capsys, command):
    code, out, _ = run_main(capsys, [command, "--help"])
    assert code == 0
    assert set(re.findall(r"--[a-z-]+", out)) == FLAG_TABLE[command] | {"--help"}


def test_simulate_names_a_tau_that_is_not_a_number(tmp_path, capsys):
    code, out, err = run_main(capsys, ["simulate", write(tmp_path, FEASIBLE), "--tau", "0,abc"])
    assert code == 1
    assert out == ""
    assert "--tau" in err and "'0,abc'" in err


def test_simulate_refuses_csv_for_several_delays_before_solving(tmp_path, capsys, monkeypatch):
    def refuse(*_):
        raise AssertionError("solve_diagonal called")

    monkeypatch.setattr(cli, "solve_diagonal", refuse)
    code, out, err = run_main(capsys, ["simulate", write(tmp_path, FEASIBLE), "--format", "csv", "--tau", "0,1,2"])
    assert code == 1
    assert out == ""
    assert "exactly one delay" in err


def test_check_certifies_a_diagonal_near_the_float_range(tmp_path, capsys):
    # the proof's trace, 4 * 6e307, is beyond the float range at unit weights
    pair = {"A": [[-6e307, 0.0], [0.0, -6e307]], "B": [[0.0, 0.0], [0.0, 0.0]]}
    code, out, err = run_main(capsys, ["check", write(tmp_path, pair)])
    assert code == 0
    assert err == ""
    report = _strict_json(out)
    assert report["status"] == "Feasible"
    assert (report["P"], report["Q"], report["margin"]) == ([1.0, 1.0], [6e307, 6e307], 6e307)
    assert verify_certificate(MatrixPair(pair["A"], pair["B"]), report["P"], report["Q"])[0]


SRC = str(Path(__file__).resolve().parents[1] / "src")


def python(*argv):
    """Run the interpreter on argv with the package's source tree importable,
    whether or not PYTHONPATH names it."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH")))))
    return subprocess.run([sys.executable, *argv], capture_output=True, text=True, env=env)


def test_reports_byte_identical_across_processes(tmp_path):
    path = write(tmp_path, CHAIN)
    cmd = ["-m", "riccstab.cli", "check", path]
    first = python(*cmd)
    second = python(*cmd)
    assert first.returncode == 0
    assert first.stdout == second.stdout
    assert first.stdout.strip() != ""


def test_package_runs_as_a_module(tmp_path):
    path = write(tmp_path, CHAIN)
    as_package = python("-m", "riccstab", "check", path)
    as_cli = python("-m", "riccstab.cli", "check", path)
    assert as_package.returncode == 0, as_package.stderr
    assert as_package.stdout == as_cli.stdout
    assert json.loads(as_package.stdout)["status"] == "Feasible"


def test_import_does_not_load_scipy():
    code = "import sys, riccstab; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    proc = python("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
