"""CLI behavior: exit codes, output formats, determinism, console script."""

import json
import os
import subprocess
import sys

import pytest

from trunc_centroid.centroid import centroid_exterior, shift_comparison
from trunc_centroid.cli import build_parser, run
from trunc_centroid.model import ExcludedInterval, GaussianParams
from trunc_centroid.quadrature import centroid_quadrature

REF = ["--mu=1", "--sigma=2", "--lower=-1", "--upper=4"]
REF_PARAMS = GaussianParams(1.0, 2.0)
REF_HOLE = ExcludedInterval(-1.0, 4.0)


def _g17(value: float) -> str:
    return format(value, ".17g")


# ---------------------------------------------------------------- exit codes


def test_no_subcommand_is_usage_error(capsys):
    assert run([]) == 2
    capsys.readouterr()


def test_help_exits_zero(capsys):
    assert run(["--help"]) == 0
    assert "centroid" in capsys.readouterr().out
    assert run(["centroid", "--help"]) == 0
    capsys.readouterr()


def test_missing_required_flag(capsys):
    assert run(["centroid", "--mu=1", "--sigma=2", "--lower=-1"]) == 2
    capsys.readouterr()


def test_non_finite_input_rejected_at_parse(capsys):
    assert run(["centroid", "--mu=nan", "--sigma=2", "--lower=-1", "--upper=4"]) == 2
    assert run(["centroid", "--mu=1", "--sigma=inf", "--lower=-1", "--upper=4"]) == 2
    capsys.readouterr()


def test_bad_sigma_is_domain_error(capsys):
    assert run(["centroid", "--mu=1", "--sigma=0", "--lower=-1", "--upper=4"]) == 1
    err = capsys.readouterr().err
    assert "sigma" in err


def test_bad_hole_is_domain_error(capsys):
    assert run(["centroid", "--mu=1", "--sigma=2", "--lower=4", "--upper=4"]) == 1
    assert run(["centroid", "--mu=1", "--sigma=2", "--lower=5", "--upper=4"]) == 1
    capsys.readouterr()


def test_monte_carlo_needs_n_and_seed(capsys):
    assert run(["centroid", *REF, "--method", "monte_carlo"]) == 2
    assert run(["centroid", *REF, "--method", "monte_carlo", "--n", "100"]) == 2
    assert (
        run(["centroid", *REF, "--method", "monte_carlo", "--n", "1", "--seed", "1"])
        == 2
    )
    assert "usage error" in capsys.readouterr().err


def test_verify_random_needs_seed(capsys):
    assert run(["verify", "--check", "certificate", "--mode", "random"]) == 2
    capsys.readouterr()


def test_sample_needs_two_draws(capsys):
    assert run(["sample", *REF, "--n", "1", "--seed", "1"]) == 2
    capsys.readouterr()


def test_deep_truncation_exit_code(capsys):
    argv = ["--mu=0", "--sigma=1", "--lower=-40", "--upper=41"]
    assert run(["sample", *argv, "--n", "10", "--seed", "1"]) == 1
    assert run(["centroid", *argv, "--method", "quadrature"]) == 1
    assert "error" in capsys.readouterr().err


def test_unattainable_tolerance_exit_code(capsys):
    assert (
        run(
            [
                "centroid",
                *REF,
                "--method",
                "quadrature",
                "--abs-tol=1e-30",
                "--rel-tol=1e-30",
            ]
        )
        == 1
    )
    capsys.readouterr()


def test_negative_scientific_notation_with_equals(capsys):
    assert run(["centroid", *REF, "--shift=-1e-3"]) == 0
    capsys.readouterr()


# ------------------------------------------------------------------ centroid


def test_centroid_text_output(capsys):
    assert run(["centroid", *REF]) == 0
    out = capsys.readouterr().out
    expected = centroid_exterior(REF_PARAMS, REF_HOLE, 0.0)
    assert f"value={_g17(expected.value)}" in out
    assert f"support_mass={_g17(expected.support_mass)}" in out
    assert out.startswith("closed_form:")


def test_centroid_json_round_trip(capsys):
    argv = ["centroid", *REF, "--shift=2", "--format", "json"]
    assert run(argv) == 0
    first = capsys.readouterr().out
    payload = json.loads(first)
    expected = centroid_exterior(REF_PARAMS, REF_HOLE, 2.0)
    assert payload["results"][0]["method"] == "closed_form"
    assert payload["results"][0]["value"] == expected.value
    assert payload["results"][0]["support_mass"] == expected.support_mass
    # rebuild the command line from the reported inputs; output must agree
    inputs = payload["inputs"]
    rebuilt = [
        "centroid",
        f"--mu={inputs['mu']!r}",
        f"--sigma={inputs['sigma']!r}",
        f"--lower={inputs['lower']!r}",
        f"--upper={inputs['upper']!r}",
        f"--shift={inputs['shift']!r}",
        "--method",
        inputs["method"],
        "--format",
        "json",
    ]
    assert run(rebuilt) == 0
    assert capsys.readouterr().out == first


def test_centroid_method_all(capsys):
    argv = [
        "centroid",
        *REF,
        "--method",
        "all",
        "--n",
        "20000",
        "--seed",
        "7",
        "--format",
        "json",
    ]
    assert run(argv) == 0
    payload = json.loads(capsys.readouterr().out)
    methods = [r["method"] for r in payload["results"]]
    assert methods == ["closed_form", "quadrature", "monte_carlo"]
    disc = payload["discrepancies"]
    assert disc["closed_form_vs_quadrature"] < 1e-9
    mc = payload["results"][2]
    assert disc["closed_form_vs_monte_carlo"] < 4.0 * mc["std_error"]
    assert mc["n"] == 20000


def test_centroid_csv_matches_json(capsys):
    argv = ["centroid", *REF, "--method", "quadrature"]
    assert run([*argv, "--format", "json"]) == 0
    value_json = json.loads(capsys.readouterr().out)["results"][0]
    assert run([*argv, "--format", "csv"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "method,value,support_mass,std_error,n,warnings"
    cells = lines[1].split(",")
    assert cells[0] == "quadrature"
    assert float(cells[1]) == value_json["value"]
    assert float(cells[2]) == value_json["support_mass"]


def test_centroid_warning_surface(capsys):
    argv = ["centroid", "--mu=0", "--sigma=1", "--lower=-8", "--upper=8"]
    assert run(argv) == 0
    assert "low_support_mass" in capsys.readouterr().out


def test_centroid_output_file(tmp_path, capsys):
    target = tmp_path / "result.json"
    argv = ["centroid", *REF, "--format", "json", "--output", str(target)]
    assert run(argv) == 0
    assert capsys.readouterr().out == ""
    payload = json.loads(target.read_text(encoding="utf-8"))
    assert payload["results"][0]["method"] == "closed_form"


# ------------------------------------------------------------------- compare


def test_compare_text_and_sign(capsys):
    assert run(["compare", *REF, "--shift=2"]) == 0
    out = capsys.readouterr().out
    comparison = shift_comparison(REF_PARAMS, REF_HOLE, 2.0)
    assert f"delta:   {_g17(comparison.delta)}" in out
    assert comparison.delta > 0.0
    assert run(["compare", *REF, "--shift=-2"]) == 0
    out = capsys.readouterr().out
    assert "delta:   -" in out


def test_compare_json_fields(capsys):
    assert run(["compare", *REF, "--shift=2", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    comparison = shift_comparison(REF_PARAMS, REF_HOLE, 2.0)
    assert payload["base"]["value"] == comparison.base.value
    assert payload["shifted"]["value"] == comparison.shifted.value
    assert payload["delta"] == comparison.delta
    assert payload["delta"] == comparison.shifted.value - comparison.base.value


def test_compare_requires_shift(capsys):
    assert run(["compare", *REF]) == 2
    capsys.readouterr()


# -------------------------------------------------------------------- verify


def test_verify_text_pass_line(capsys):
    argv = [
        "verify",
        "--check",
        "certificate",
        "--l-range",
        "-2",
        "2",
        "0.5",
        "--u-range",
        "-2",
        "2",
        "0.5",
    ]
    assert run(argv) == 0
    out = capsys.readouterr().out
    assert out.startswith("certificate_positive: checks=81 ")
    assert "PASS" in out


def test_verify_json_report(capsys):
    argv = [
        "verify",
        "--check",
        "bounds",
        "--l-range",
        "-3",
        "3",
        "0.5",
        "--u-range",
        "-3",
        "3",
        "0.5",
        "--format",
        "json",
    ]
    assert run(argv) == 0
    payload = json.loads(capsys.readouterr().out)
    report = payload["reports"][0]
    assert report["name"] == "bounds"
    assert report["passed"] is True
    assert report["checks_run"] == 13 * 4 + 13 * 13
    assert report["min_margin"] > 0.0
    assert report["min_margin_at"]["check"]


def test_verify_random_mode_with_seed(capsys):
    argv = [
        "verify",
        "--check",
        "monotonicity",
        "--mode",
        "random",
        "--n-random",
        "100",
        "--seed",
        "13",
        "--h-range",
        "0",
        "3",
        "0.5",
    ]
    assert run(argv) == 0
    first = capsys.readouterr().out
    assert run(argv) == 0
    assert capsys.readouterr().out == first
    assert "PASS" in first


def test_verify_csv_format(capsys):
    argv = [
        "verify",
        "--check",
        "certificate",
        "--l-range",
        "-1",
        "1",
        "1",
        "--u-range",
        "-1",
        "1",
        "1",
        "--format",
        "csv",
    ]
    assert run(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "check,x1,x2,h,lhs,rhs,margin"
    assert lines[-1].startswith("certificate_positive:min_margin,")


def test_verify_wide_bounds_exits_zero(capsys):
    argv = [
        "verify",
        "--check",
        "bounds",
        "--mode",
        "random",
        "--seed",
        "3",
        "--n-random",
        "500",
        "--l-range",
        "-60",
        "60",
        "1",
        "--u-range",
        "-60",
        "60",
        "1",
        "--format",
        "json",
    ]
    assert run(argv) == 0
    report = json.loads(capsys.readouterr().out)["reports"][0]
    assert report["checks_run"] == 500 * 5
    assert report["passed"] is True
    assert report["violations"] == []
    assert report["untestable"]


# -------------------------------------------------------------------- sample


def test_sample_deterministic_output(capsys):
    argv = ["sample", *REF, "--n", "5000", "--seed", "99", "--format", "csv"]
    assert run(argv) == 0
    first = capsys.readouterr().out
    assert run(argv) == 0
    assert capsys.readouterr().out == first
    lines = first.splitlines()
    assert lines[0] == "mean,std_error,n,acceptance_rate,seed"
    mean, std_error, n, rate, seed = lines[1].split(",")
    assert n == "5000"
    assert seed == "99"
    assert 0.0 < float(rate) <= 1.0
    closed = centroid_exterior(REF_PARAMS, REF_HOLE, 0.0).value
    assert abs(float(mean) - closed) < 4.0 * float(std_error)


def test_sample_json(capsys):
    argv = ["sample", *REF, "--n", "2000", "--seed", "4", "--format", "json"]
    assert run(argv) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["estimate"]["n"] == 2000
    assert payload["inputs"]["seed"] == 4
    assert 0.0 < payload["acceptance_rate"] <= 1.0


# -------------------------------------------------------------------- figure


def test_figure_stdout(capsys):
    assert run(["figure"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2003
    assert lines[0] == "x,fX_masked,fY_masked"
    assert lines[-1].startswith("centroid,")


def test_figure_file_modes(tmp_path, capsys):
    target = tmp_path / "fig.csv"
    assert run(["figure", "--output", str(target)]) == 0
    out = capsys.readouterr().out
    assert str(target) in out
    text = target.read_text(encoding="utf-8")
    assert text.splitlines()[0] == "x,fX_masked,fY_masked"
    target2 = tmp_path / "fig2.csv"
    assert run(["figure", "--output", str(target2), "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["output"] == str(target2)
    assert abs(payload["centroid_base"] - 0.0025) < 5e-4
    assert abs(payload["centroid_shifted"] - 4.7995) < 5e-4


# ------------------------------------------------------------ console script


def test_parser_builds():
    parser = build_parser()
    args = parser.parse_args(["centroid", *REF])
    assert args.command == "centroid"
    assert args.sigma == 2.0


def _console_script(*args: str) -> subprocess.CompletedProcess:
    # The console script's entry point, run as `python -m trunc_centroid`
    # in a fresh process so that no install is needed; the package is
    # found through the same sys.path as this test run.
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    return subprocess.run(
        [sys.executable, "-m", "trunc_centroid", *args],
        capture_output=True,
        text=True,
        timeout=60,
        env=env,
    )


def test_console_script_help():
    proc = _console_script("--help")
    assert proc.returncode == 0
    assert "centroid" in proc.stdout


def test_console_script_centroid():
    proc = _console_script("centroid", *REF, "--format", "json")
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    expected = centroid_exterior(REF_PARAMS, REF_HOLE, 0.0).value
    assert payload["results"][0]["value"] == expected
