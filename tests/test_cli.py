"""CLI behavior: exit codes, output formats, determinism, console script."""

import json
import os
import resource
import subprocess
import sys

import pytest

from trunc_centroid.centroid import centroid_exterior, shift_comparison
from trunc_centroid.cli import build_parser, run
from trunc_centroid.figure import reference_example_rows
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
    assert "must be finite" in capsys.readouterr().err
    assert run(["centroid", "--mu=abc", "--sigma=2", "--lower=-1", "--upper=4"]) == 2
    assert "argument --mu: not a number: 'abc'" in capsys.readouterr().err


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
    assert capsys.readouterr().err == "usage error: --mode random requires --seed\n"
    argv = ["verify", "--check", "certificate", "--mode", "random", "--seed", "1"]
    assert run([*argv, "--n-random", "0"]) == 2
    assert capsys.readouterr().err == "usage error: --n-random must be >= 1\n"


def test_sample_needs_two_draws(capsys):
    assert run(["sample", *REF, "--n", "1", "--seed", "1"]) == 2
    capsys.readouterr()


def test_deep_truncation_exit_code(capsys):
    argv = ["--mu=0", "--sigma=1", "--lower=-40", "--upper=41"]
    assert run(["sample", *argv, "--n", "10", "--seed", "1"]) == 1
    assert run(["centroid", *argv, "--method", "quadrature"]) == 1
    assert "error" in capsys.readouterr().err
    # A hole that leaves the oracle's window one ulp of mass is declined too.
    sliver = ["--mu=0", "--sigma=1", "--lower=-12", "--upper=11.999999999999998"]
    assert run(["centroid", *sliver, "--method", "quadrature"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: the support mass inside the window") and err.count("\n") == 1


def test_range_whose_point_count_overflows_exit_code(capsys):
    # 1e300 / 1e-300 steps overflow to inf.  Counts of 2^53 or more, which
    # numpy would refuse with a ValueError, are refused before any draw, and
    # so is a range whose width overflows (1e308 is written in fixed point,
    # as argparse reads -1e308 as an option).  The derivative sweep divides
    # by a support mass of 0 at the holes with both edges beyond about 38.5.
    sweep = ["verify", "--mode", "random", "--seed", "1", "--n-random"]
    big = f"{1e308:.0f}"
    sample = ["sample", "--mu=0", "--sigma=1", "--lower=-1", "--upper=1", "--seed", "1", "--n"]
    cases = [
        (["verify", "--check", "certificate", "--l-range", "0", "1e300", "1e-300"],
         "range (0.0, 1e+300, 1e-300) has too many points to grid"),
        ([*sample, "2000000000000000000"], "need 1 <= n < 2^53, got 2000000000000000000"),
        ([*sample, "10000000000000000000"], "need 1 <= n < 2^53, got 10000000000000000000"),
        ([*sweep, "10000000000000000000", "--check", "bounds"],
         "2 x n_random = 20000000000000000000 is too many draws (2^53 or more)"),
        ([*sweep, "1000000000000000000", "--check", "certificate"],
         "2 x n_random = 2000000000000000000 is too many draws (2^53 or more)"),
        ([*sweep, "4", "--check", "certificate", "--l-range", f"-{big}", big, "1",
          "--u-range", "-1", "1", "1"],
         "l_range (-1e+308, 1e+308, 1.0) is too wide to draw from: max - min overflows"),
        (["verify", "--check", "derivative", "--mode", "random", "--seed", "3", "--n-random",
          "500", "--l-range", "-60", "60", "1", "--u-range", "-60", "60", "1"],
         "derivative sweep: the support mass underflows to 0 where both edges lie about"
         " 38.5 or more from the shift"),
    ]
    for argv, message in cases:
        assert run(argv) == 1, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"


def _cap_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


def test_range_of_2_53_points_or_more_exit_code():
    # 1e200 points are refused before any is built.  The process runs with
    # a timeout and 1 GiB of address space, so a grid that is built after
    # all fails fast.
    proc = _console_script("verify", "--check", "monotonicity", "--h-range", "0", "1", "1e-200",
                           preexec_fn=_cap_address_space)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr == "error: range (0.0, 1.0, 1e-200) has too many points to grid\n"


@pytest.mark.parametrize("method", ["closed_form", "quadrature"])
def test_overflowing_centroid_exit_code(method, capsys):
    # The exact centroid, about 1.798e308, is beyond the float range.
    argv = ["centroid", "--mu=1.79e308", "--sigma=1e306", "--lower=-1e308",
            "--upper=1.79e308", "--method", method, "--format", "json"]
    assert run(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: the centroid overflows the float range, mu + shift = 1.79e+308\n"
    )


@pytest.mark.parametrize("method", ["closed_form", "quadrature", "monte_carlo"])
@pytest.mark.parametrize("flag", ["--abs-tol=0", "--rel-tol=-1e-12", "--abs-tol=x"])
def test_malformed_tolerance_is_usage_error(method, flag, capsys):
    # The oracle's tolerances are no options, so any spelling of them is
    # an unrecognized argument, whichever method runs, and no traceback.
    argv = ["centroid", *REF, "--method", method, "--n=10", "--seed=1", flag]
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert f"unrecognized arguments: {flag}" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "flag",
    ["--tail-cutoff=12", "--max-subdivisions=60", "--abs-tol=1e-13", "--rel-tol=1e-12"],
)
def test_fixed_oracle_settings_are_not_flags(flag, capsys):
    # The oracle's window and tolerances are module constants, and its
    # fixed panels have no split budget, so none of these is an option.
    assert run(["centroid", *REF, "--method", "quadrature", flag]) == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert run(["centroid", "--help"]) == 0
    out = capsys.readouterr().out
    assert "--method" in out and flag.split("=")[0] not in out


def test_monte_carlo_non_finite_location(capsys):
    # Same message as the quadrature oracle gives for this input.
    argv = ["centroid", "--mu=1e308", "--sigma=2", "--lower=-1", "--upper=4",
            "--shift=1e308", "--n=10", "--seed=1"]
    for method in ("monte_carlo", "quadrature"):
        assert run([*argv, "--method", method]) == 1
        assert capsys.readouterr().err == "error: mu + shift must be finite, got inf\n"


@pytest.mark.parametrize("sigma", ["1e200", "1e308"])
def test_quadrature_at_extreme_scale_exits_zero(sigma, capsys):
    # The oracle integrates in units of sigma: no remainder scaled by sigma
    # and no window edge that overflows.
    argv = ["--mu=0", f"--sigma={sigma}", "--lower=-1", "--upper=1"]
    assert run(["centroid", *argv, "--method", "quadrature", "--format", "json"]) == 0
    result = json.loads(capsys.readouterr().out)["results"][0]
    assert set(result) == {"method", "value", "support_mass", "warnings"}
    closed = centroid_exterior(
        GaussianParams(0.0, float(sigma)), ExcludedInterval(-1.0, 1.0), 0.0
    )
    assert result["value"] == closed.value == 0.0
    # The two rays' rounded masses sum past 1; the oracle caps the sum.
    assert result["support_mass"] == 1.0


EDGE_OVERFLOW = ["--mu=0", "--sigma=1", "--lower=-1", "--upper=1.7e308", "--shift=-1.7e308"]
MU_OVERFLOW = ["--mu=1.7e308", "--sigma=1e306", "--lower=-1e308", "--upper=1.7e308"]
BIG = "1.7976931348623157e308"


@pytest.mark.parametrize(
    "argv, answers",
    [
        # u - h overflows: its tail is exactly 0.
        (["centroid", *EDGE_OVERFLOW], lambda p: [p["results"][0]["value"]]),
        (
            ["compare", *EDGE_OVERFLOW],
            lambda p: [p["base"]["value"], p["shifted"]["value"], p["delta"]],
        ),
        (
            ["sample", "--mu=0", "--sigma=1", "--lower=1.7e308", "--upper=1.75e308",
             "--shift=-1.7e308", "--n", "10", "--seed", "1"],
            lambda p: [p["estimate"]["mean"], p["estimate"]["std_error"]],
        ),
        # 1/R(a) overflows where the nearer edge is the largest double.
        (
            ["centroid", "--mu=0", "--sigma=1", f"--lower=-{BIG}", f"--upper={BIG}",
             "--shift=-93.36"],
            lambda p: [p["results"][0]["value"]],
        ),
        # lower - mu overflows where lower/sigma - mu/sigma does not.
        (["centroid", *MU_OVERFLOW], lambda p: [p["results"][0]["value"]]),
        (
            ["compare", *MU_OVERFLOW, "--shift=1"],
            lambda p: [p["base"]["value"], p["shifted"]["value"], p["delta"]],
        ),
        (
            ["centroid", *MU_OVERFLOW, "--method", "quadrature"],
            lambda p: [p["results"][0]["value"]],
        ),
    ],
    ids=["centroid", "compare", "sample", "far-edge", "mu-centroid", "mu-compare",
         "mu-quadrature"],
)
def test_overflowing_edge_distance_exits_zero(argv, answers, capsys):
    assert run([*argv, "--format", "json"]) == 0
    captured = capsys.readouterr()
    values = answers(_strict_json(captured.out))
    assert captured.err == ""
    assert all(isinstance(v, float) and abs(v) <= float(BIG) for v in values), values


# A finite sigma that takes the standardized point out of range is a
# computation error (exit 1), not a traceback.
@pytest.mark.parametrize("command", ["centroid", "compare"])
@pytest.mark.parametrize(
    "argv, name",
    [
        (["--sigma=1e-300", "--lower=-1e10", "--upper=1e10", "--shift=0"], "l_hat"),
        (["--sigma=1e-300", "--lower=-1", "--upper=1", "--shift=1e10"], "h_hat"),
        (["--sigma=1e300", "--lower=0", "--upper=1e-300", "--shift=0"],
         "u_hat > l_hat"),
    ],
    ids=["edge_overflows", "shift_overflows", "edges_round_equal"],
)
def test_standardized_point_out_of_range_exit_code(command, argv, name, capsys):
    assert run([command, "--mu=0", *argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and name in captured.err
    assert "Traceback" not in captured.err


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
    # --output gets the bytes stdout would get, with "\n" line ends.
    from trunc_centroid import verification

    written = {}
    for argv in (
        ["centroid", *REF, "--format", "json"],
        ["verify", "--check", "certificate", "--format", "csv"],
    ):
        assert run(argv) == 0
        stdout = capsys.readouterr().out
        target = tmp_path / argv[0]
        assert run([*argv, "--output", str(target)]) == 0
        assert capsys.readouterr().out == ""
        raw = target.read_bytes()
        assert b"\r" not in raw
        assert raw.decode("utf-8") == stdout
        written[argv[0]] = stdout
    assert json.loads(written["centroid"])["results"][0]["method"] == "closed_form"
    # The default certificate sweep finds only its minimum-margin row.
    certificate = verification.verify_certificate_positive()
    assert not certificate.violations and not certificate.untestable
    r = certificate.min_margin_record
    min_row = ",".join([f"{r.check}:min_margin", *map(_g17, r[1:])])
    assert written["verify"] == f"check,x1,x2,h,lhs,rhs,margin\n{min_row}\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["centroid", *REF, "--output", "{missing}/x.json"],
        ["figure", "--output", "{missing}/f.csv"],
        ["verify", "--check", "certificate", "--format", "csv", "--output", "{dir}"],
    ],
    ids=["centroid_missing_dir", "figure_missing_dir", "verify_directory"],
)
def test_unwritable_output_is_usage_error(argv, tmp_path, capsys):
    paths = {"{missing}": str(tmp_path / "missing"), "{dir}": str(tmp_path)}
    for key, path in paths.items():
        argv = [a.replace(key, path) for a in argv]
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Traceback" not in captured.err
    assert captured.err.startswith(f"usage error: cannot write {argv[-1]}: ")


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


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--check", "monotonicity", "--h-range", "0", "1", "2"],
        ["verify", "--check", "derivative"]
        + ["--l-range", "5", "8", "1", "--u-range", "-8", "-5", "1"],
    ],
    ids=["one_shift", "no_hole"],
)
def test_verify_that_checks_nothing_fails(argv, capsys):
    # One shift makes no pair to compare; every lower edge above every upper
    # edge makes no hole.  A sweep that checked nothing has not passed.
    assert run(argv) == 0
    assert capsys.readouterr().out.rstrip().endswith("checks=0 violations=0 "
                                                     "untestable=0 min_margin=nan FAIL")
    assert run([*argv, "--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out)["reports"][0]
    assert report["checks_run"] == 0 and report["passed"] is False


def test_verify_with_only_untestable_points_fails(capsys):
    # Shifts below 1e-300 leave every margin under the untestable floor: the
    # sweep checked two points but could test neither.
    argv = ["verify", "--check", "monotonicity", "--mode", "random", "--seed", "1"]
    argv += ["--n-random", "1", "--h-range", "0", "1e-300", "1"]
    assert run(argv) == 0
    assert capsys.readouterr().out == (
        "monotonicity: checks=2 violations=0 untestable=2 min_margin=nan FAIL\n"
    )
    assert run([*argv, "--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out)["reports"][0]
    assert report["checks_run"] == len(report["untestable"]) == 2
    assert report["passed"] is False


def test_sweep_out_of_memory_is_error(monkeypatch, capsys):
    # A fine grid over a wide plane asks numpy for terabytes; whether that
    # allocation fails depends on the host's overcommit setting, so the
    # sweep is replaced by one that fails the way numpy does.
    from trunc_centroid import verification

    def too_large(spec):
        raise MemoryError("Unable to allocate 18.6 TiB for an array")

    monkeypatch.setattr(verification, "verify_certificate_positive", too_large)
    argv = ["verify", "--check", "certificate"]
    assert run(argv + ["--l-range", "-8", "8", "1e-5", "--u-range", "-8", "8", "1e-5"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: Unable to allocate 18.6 TiB for an array\n"


def test_bare_out_of_memory_says_so(monkeypatch, capsys):
    # A MemoryError raised without a message still names its cause.
    from trunc_centroid import cli

    def bare(args):
        raise MemoryError()

    monkeypatch.setitem(cli._COMMANDS, "figure", bare)
    assert run(["figure"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: out of memory\n"


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


WIDE_BOUNDS = [
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


def test_verify_wide_bounds_exits_zero(capsys):
    assert run(WIDE_BOUNDS) == 0
    report = json.loads(capsys.readouterr().out)["reports"][0]
    assert report["checks_run"] == 500 * 5
    assert report["passed"] is True
    assert report["violations"] == []
    assert report["untestable"]


def _strict_json(text: str):
    def refuse(token):
        raise ValueError(f"non-standard JSON token {token}")

    return json.loads(text, parse_constant=refuse)


@pytest.mark.parametrize(
    "argv",
    [
        ["centroid", *REF, "--method", "all", "--n=1000", "--seed=7", "--format", "json"],
        ["verify", "--check", "bounds", "--format", "json"]
        + ["--l-range", "-1", "1", "1", "--u-range", "-1", "1", "1"],
        WIDE_BOUNDS,
    ],
    ids=["centroid_all", "verify_small", "verify_wide"],
)
def test_json_output_is_strict(argv, capsys):
    # NaN and Infinity are not JSON; non-finite floats are written as null.
    assert run(argv) == 0
    payload = _strict_json(capsys.readouterr().out)
    if argv[0] == "centroid":
        assert payload["results"][2]["support_mass"] is None
    else:
        report = payload["reports"][0]
        assert report["min_margin_at"]["h"] is None  # the bounds use no shift
        if argv is WIDE_BOUNDS:
            assert any(row["margin"] is None for row in report["untestable"])


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


@pytest.mark.parametrize("seed", [-5, 1 << 64])
def test_sample_reports_the_seed_as_given(seed, capsys):
    argv = ["sample", *REF, "--n", "10", f"--seed={seed}"]
    assert run([*argv, "--format", "csv"]) == 0
    assert capsys.readouterr().out.splitlines()[1].split(",")[-1] == str(seed)
    assert run([*argv, "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["inputs"]["seed"] == seed
    argv = ["centroid", *REF, "--method", "monte_carlo", "--n", "10", f"--seed={seed}"]
    assert run([*argv, "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["inputs"]["seed"] == payload["results"][0]["seed"] == seed


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
    raw = target.read_bytes()
    assert b"\r" not in raw
    base = centroid_exterior(REF_PARAMS, REF_HOLE, 0.0).value
    shifted = centroid_exterior(REF_PARAMS, REF_HOLE, 2.0).value
    lines = [
        "x,fX_masked,fY_masked",
        *(",".join(map(_g17, row)) for row in reference_example_rows()),
        f"centroid,{_g17(base)},{_g17(shifted)}",
    ]
    assert raw.decode("utf-8") == "\n".join(lines) + "\n"
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


def _console_script(*args: str, **options) -> subprocess.CompletedProcess:
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
        **options,
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
