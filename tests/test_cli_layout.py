"""CLI output layout, down to the byte.

The expected text is written out literally here; only the numbers come
from library calls in this process, so the tests do not depend on the
platform's libm.  `sample` and `centroid --method all` draw random
numbers, so for them only the CSV header, the JSON key order and the
shape of the text line are pinned.
"""

import json
import math
import re

import pytest

from trunc_centroid.centroid import centroid_exterior, shift_comparison
from trunc_centroid.cli import run
from trunc_centroid.model import ExcludedInterval, GaussianParams
from trunc_centroid.quadrature import centroid_quadrature

REF = ["--mu=1", "--sigma=2", "--lower=-1", "--upper=4"]
REF_PARAMS = GaussianParams(1.0, 2.0)
REF_HOLE = ExcludedInterval(-1.0, 4.0)
LOW_MASS = ["--mu=0", "--sigma=1", "--lower=-8", "--upper=8"]
LOW_PARAMS = GaussianParams(0.0, 1.0)
LOW_HOLE = ExcludedInterval(-8.0, 8.0)


def g(x: float) -> str:
    return format(x, ".17g")


def j(x: float) -> str:
    # a float as strict JSON writes it
    return repr(x) if math.isfinite(x) else "null"


def _stdout(argv, capsys) -> str:
    assert run(argv) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    return captured.out


@pytest.mark.parametrize(
    "problem, params, hole, shift, method, solve",
    [
        (REF, REF_PARAMS, REF_HOLE, 2.0, "closed_form", centroid_exterior),
        (REF, REF_PARAMS, REF_HOLE, 2.0, "quadrature", centroid_quadrature),
        (LOW_MASS, LOW_PARAMS, LOW_HOLE, 0.0, "closed_form", centroid_exterior),
    ],
    ids=["closed_form", "quadrature", "closed_form_low_mass"],
)
def test_centroid_layout(problem, params, hole, shift, method, solve, capsys):
    argv = ["centroid", *problem, f"--shift={shift!r}", "--method", method]
    r = solve(params, hole, shift)
    if r.warnings:
        json_warnings = "[\n        " + ",\n        ".join(
            f'"{w}"' for w in r.warnings
        ) + "\n      ]"
    else:
        json_warnings = "[]"
    warnings = "|".join(r.warnings)

    assert _stdout([*argv, "--format", "json"], capsys) == (
        "{\n"
        '  "command": "centroid",\n'
        '  "inputs": {\n'
        f'    "mu": {j(params.mu)},\n'
        f'    "sigma": {j(params.sigma)},\n'
        f'    "lower": {j(hole.lower)},\n'
        f'    "upper": {j(hole.upper)},\n'
        f'    "shift": {j(shift)},\n'
        f'    "method": "{method}",\n'
        '    "n": null,\n'
        '    "seed": null\n'
        "  },\n"
        '  "results": [\n'
        "    {\n"
        f'      "method": "{method}",\n'
        f'      "value": {j(r.value)},\n'
        f'      "support_mass": {j(r.support_mass)},\n'
        f'      "warnings": {json_warnings}\n'
        "    }\n"
        "  ],\n"
        '  "discrepancies": {}\n'
        "}\n"
    )
    assert _stdout([*argv, "--format", "csv"], capsys) == (
        "method,value,support_mass,std_error,n,warnings\n"
        f"{method},{g(r.value)},{g(r.support_mass)},,,{warnings}\n"
    )
    text = f"{method}: value={g(r.value)} support_mass={g(r.support_mass)}"
    if warnings:
        text += f" warnings={warnings}"
    assert _stdout([*argv, "--format", "text"], capsys) == text + "\n"


def test_compare_layout(capsys):
    argv = ["compare", *REF, "--shift=2"]
    c = shift_comparison(REF_PARAMS, REF_HOLE, 2.0)

    def result(name, r):
        return (
            f'  "{name}": {{\n'
            '    "method": "closed_form",\n'
            f'    "value": {j(r.value)},\n'
            f'    "support_mass": {j(r.support_mass)},\n'
            '    "warnings": []\n'
            "  },\n"
        )

    assert _stdout([*argv, "--format", "json"], capsys) == (
        "{\n"
        '  "command": "compare",\n'
        '  "inputs": {\n'
        '    "mu": 1.0,\n'
        '    "sigma": 2.0,\n'
        '    "lower": -1.0,\n'
        '    "upper": 4.0,\n'
        '    "shift": 2.0\n'
        "  },\n"
        + result("base", c.base)
        + result("shifted", c.shifted)
        + '  "shift": 2.0,\n'
        f'  "delta": {j(c.delta)}\n'
        "}\n"
    )
    assert _stdout([*argv, "--format", "csv"], capsys) == (
        "quantity,value,support_mass,warnings\n"
        f"base,{g(c.base.value)},{g(c.base.support_mass)},\n"
        f"shifted,{g(c.shifted.value)},{g(c.shifted.support_mass)},\n"
        f"delta,{g(c.delta)},,\n"
    )
    assert _stdout([*argv, "--format", "text"], capsys) == (
        f"base:    {g(c.base.value)}\n"
        f"shifted: {g(c.shifted.value)}\n"
        f"delta:   {g(c.delta)}\n"
    )


def test_verify_layout(capsys):
    pytest.importorskip("numpy")
    from trunc_centroid import verification as v

    grid = ["--l-range", "-1", "1", "1", "--u-range", "-1", "1", "1"]
    argv = ["verify", "--check", "all", *grid, "--h-range", "0", "1", "1"]
    spec = v.SweepSpec((-1.0, 1.0, 1.0), (-1.0, 1.0, 1.0), (0.0, 1.0, 1.0))
    reports = [
        v.verify_monotonicity(spec),
        v.verify_certificate_positive(spec),
        v.verify_bounds(spec),
        v.verify_derivative(spec),
    ]
    for r in reports:
        # the layout below writes empty violation and untestable lists
        assert r.passed and not r.violations and not r.untestable

    def report(r):
        m = r.min_margin_record
        return (
            "    {\n"
            f'      "name": "{r.name}",\n'
            f'      "checks_run": {r.checks_run},\n'
            '      "violations": [],\n'
            '      "untestable": [],\n'
            f'      "min_margin": {j(r.min_margin)},\n'
            '      "min_margin_at": {\n'
            f'        "check": "{m.check}",\n'
            f'        "x1": {j(m.x1)},\n'
            f'        "x2": {j(m.x2)},\n'
            f'        "h": {j(m.h)},\n'
            f'        "lhs": {j(m.lhs)},\n'
            f'        "rhs": {j(m.rhs)},\n'
            f'        "margin": {j(m.margin)}\n'
            "      },\n"
            '      "passed": true\n'
            "    }"
        )

    assert _stdout([*argv, "--format", "json"], capsys) == (
        "{\n"
        '  "command": "verify",\n'
        '  "inputs": {\n'
        '    "check": "all",\n'
        '    "mode": "grid",\n'
        '    "n_random": 1000,\n'
        '    "seed": null\n'
        "  },\n"
        '  "reports": [\n' + ",\n".join(map(report, reports)) + "\n  ]\n"
        "}\n"
    )
    rows = [
        ",".join(
            [f"{m.check}:min_margin"]
            + [g(x) for x in (m.x1, m.x2, m.h, m.lhs, m.rhs, m.margin)]
        )
        for m in (r.min_margin_record for r in reports)
    ]
    assert _stdout([*argv, "--format", "csv"], capsys) == (
        "check,x1,x2,h,lhs,rhs,margin\n" + "".join(row + "\n" for row in rows)
    )
    assert _stdout([*argv, "--format", "text"], capsys) == "".join(
        f"{r.name}: checks={r.checks_run} violations=0 untestable=0 "
        f"min_margin={g(r.min_margin)} PASS\n"
        for r in reports
    )


def test_figure_summary_layout(tmp_path, capsys):
    # With --output the CSV goes to the file in every format, and --format
    # shapes only the one-line summary on stdout; its JSON is unindented.
    target = str(tmp_path / "figure.csv")
    base = centroid_exterior(REF_PARAMS, REF_HOLE, 0.0).value
    shifted = centroid_exterior(REF_PARAMS, REF_HOLE, 2.0).value
    line = f"wrote {target}: base={g(base)} shifted={g(shifted)}\n"
    argv = ["figure", "--output", target]
    assert _stdout([*argv, "--format", "text"], capsys) == line
    assert _stdout([*argv, "--format", "csv"], capsys) == line
    assert _stdout([*argv, "--format", "json"], capsys) == (
        f'{{"command": "figure", "output": {json.dumps(target)}, '
        f'"centroid_base": {j(base)}, "centroid_shifted": {j(shifted)}}}\n'
    )


NUMBER = r"-?\d[\d.e+-]*|nan"


@pytest.mark.parametrize(
    "argv, header, keys, line",
    [
        (
            ["sample", *REF, "--n=1000", "--seed=3"],
            "mean,std_error,n,acceptance_rate,seed",
            {
                "": ["command", "inputs", "estimate", "acceptance_rate"],
                "inputs": ["mu", "sigma", "lower", "upper", "shift", "n", "seed"],
                "estimate": ["mean", "std_error", "n"],
            },
            rf"mean=({NUMBER}) std_error=({NUMBER}) n=1000 acceptance_rate=({NUMBER})",
        ),
        (
            ["centroid", *REF, "--method", "all", "--n=1000", "--seed=3"],
            "method,value,support_mass,std_error,n,warnings",
            {
                "": ["command", "inputs", "results", "discrepancies"],
                "inputs": [
                    "mu", "sigma", "lower", "upper", "shift", "method", "n", "seed"
                ],
                "discrepancies": [
                    "closed_form_vs_quadrature", "closed_form_vs_monte_carlo"
                ],
            },
            rf"closed_form: value=({NUMBER}) support_mass=({NUMBER})\n"
            rf"quadrature: value=({NUMBER}) support_mass=({NUMBER})\n"
            rf"monte_carlo: value=({NUMBER}) support_mass=({NUMBER}) std_error=({NUMBER})\n"
            rf"closed_form_vs_quadrature=({NUMBER})\n"
            rf"closed_form_vs_monte_carlo=({NUMBER})",
        ),
    ],
    ids=["sample", "centroid_all"],
)
def test_seeded_command_layout(argv, header, keys, line, capsys):
    pytest.importorskip("numpy")
    payload = json.loads(_stdout([*argv, "--format", "json"], capsys))
    for key, order in keys.items():
        assert list(payload[key] if key else payload) == order
    if argv[0] == "centroid":
        assert [list(r) for r in payload["results"]] == [
            ["method", "value", "support_mass", "warnings"],
            ["method", "value", "support_mass", "warnings"],
            ["method", "value", "support_mass", "warnings", "std_error", "n",
             "seed", "acceptance_rate"],
        ]
    csv = _stdout([*argv, "--format", "csv"], capsys)
    assert csv.startswith(header + "\n") and csv.endswith("\n")
    assert re.fullmatch(line + "\n", _stdout([*argv, "--format", "text"], capsys))
