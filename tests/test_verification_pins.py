"""Byte pins of sweep reports.

The strings and digests below were rendered by the scalar, one point at a
time implementation of the sweeps.  The array implementation must
reproduce them exactly: same rows, same 17-digit values, same
minimum-margin tie-break.
"""

import hashlib

import pytest

from trunc_centroid.verification import (
    DEFAULT_BOUNDS_SPEC,
    DEFAULT_CERTIFICATE_SPEC,
    DEFAULT_DERIVATIVE_SPEC,
    DEFAULT_MONOTONICITY_SPEC,
    SweepSpec,
    render_report_csv,
    verify_bounds,
    verify_certificate_positive,
    verify_derivative,
    verify_monotonicity,
)

HEADER = "check,x1,x2,h,lhs,rhs,margin\n"

SWEEPS = {
    "monotonicity": (verify_monotonicity, DEFAULT_MONOTONICITY_SPEC),
    "certificate": (verify_certificate_positive, DEFAULT_CERTIFICATE_SPEC),
    "bounds": (verify_bounds, DEFAULT_BOUNDS_SPEC),
    "derivative": (verify_derivative, DEFAULT_DERIVATIVE_SPEC),
}

DEFAULT_CSV = {
    "monotonicity": "monotonicity:min_margin,-5,5,-1,-5.2252836808381167,"
    "-5.2513894696759102,0.026105788837793575\n",
    "certificate": "certificate_positive:min_margin,8,-8,nan,"
    "1.0212394752655882e-28,0,1.0212394752655882e-28\n",
    "bounds": "cdf_linear_bound:min_margin,-8,nan,nan,4.1662360783149508e-14,"
    "4.1662094653352794e-14,2.6612979671469517e-19\n",
    "derivative": "derivative_forms:min_margin,-4,4,-0.75,0.18895395819885066,"
    "0.1889539581988533,9.9997363220316519e-11\n",
}

# Default ranges, mode="random", n_random=1000.
SEEDED_CSV = {
    ("monotonicity", 11): "shift_sign:min_margin,-4.7592621130957777,"
    "2.8778410758106432,-0.0048764111827699352,-0.00052217605143045631,0,"
    "0.00052217605143045631\n",
    ("certificate", 12): "certificate_positive:min_margin,7.4511340858904198,"
    "-7.9619368191765325,nan,9.6511723373584711e-27,0,9.6511723373584711e-27\n",
    ("bounds", 13): "tail_linear_bound:min_margin,7.9993844392495319,nan,nan,"
    "4.1864992648221535e-14,4.186472510750946e-14,2.6754071207550357e-19\n",
    ("derivative", 14): "derivative_forms:min_margin,-3.3593129470287302,"
    "3.1365334669124252,0.86473434677401251,0.15105833104281752,"
    "0.15105833104281974,9.9997779553950753e-11\n",
}

WIDE = dict(l_range=(-60.0, 60.0, 1.0), u_range=(-60.0, 60.0, 1.0), h_range=(-30.0, 30.0, 1.0))

# (check, spec) -> (checks_run, untestable rows, min_margin row, sha256 of the CSV)
WIDE_PINS = [
    (
        "certificate",
        SweepSpec(**WIDE, mode="random", n_random=1000, seed=1),
        1000,
        64,
        "certificate_positive:min_margin,25.025130712692302,-29.738019840592344,"
        "nan,4.1954194256000599e-279,0,4.1954194256000599e-279",
        "b1113aa92f97e3fc515ac852b230647bb61d43e3981530237110a57bfb8c5291",
    ),
    (
        # About half of these holes put the centroid on the log branch.
        "monotonicity",
        SweepSpec(**WIDE, mode="random", n_random=1000, seed=2),
        2000,
        0,
        "monotonicity:min_margin,-58.535797994306535,39.795473710376243,"
        "-4.4935972282856973,39.818029680765974,39.817971608533483,"
        "5.8072232491213072e-05",
        "5d064d97586369bc6568ddd10f0ee55f4f97f45904ded81b95dde2f70abb2247",
    ),
    (
        "certificate",
        SweepSpec((-40.0, 40.0, 0.5), (-40.0, 40.0, 0.5), (0.0, 1.0, 1.0)),
        25921,
        900,
        "certificate_positive:min_margin,25,-40,nan,1.4807800082705503e-278,0,"
        "1.4807800082705503e-278",
        "db8872d1f7bc037ac2a017533c08627b24ecbcd53c775d9eb9fe66929727d772",
    ),
    (
        "monotonicity",
        SweepSpec((-45.0, 45.0, 5.0), (-45.0, 45.0, 5.0), (-5.0, 5.0, 1.0)),
        3249,
        0,
        "monotonicity:min_margin,-45,45,-1,-45.022703854544837,"
        "-45.023230726686954,0.00052687214211744049",
        "0b0ea1ee6f5a041db8bd26ef58a8ce530b618f7fd1ab9893f7dc29aba5734e96",
    ),
]


@pytest.mark.parametrize("check", sorted(DEFAULT_CSV))
def test_default_report_bytes(check):
    run, _ = SWEEPS[check]
    assert render_report_csv([run()]) == HEADER + DEFAULT_CSV[check]


@pytest.mark.parametrize("check,seed", sorted(SEEDED_CSV))
def test_seeded_report_bytes(check, seed):
    run, d = SWEEPS[check]
    spec = SweepSpec(d.l_range, d.u_range, d.h_range, mode="random", n_random=1000, seed=seed)
    assert render_report_csv([run(spec)]) == HEADER + SEEDED_CSV[(check, seed)]


@pytest.mark.parametrize("pin", WIDE_PINS, ids=lambda p: f"{p[0]}-{p[1].mode}")
def test_wide_report_pins(pin):
    check, spec, checks_run, untestable, min_row, digest = pin
    report = SWEEPS[check][0](spec)
    text = render_report_csv([report])
    assert report.checks_run == checks_run
    assert len(report.untestable) == untestable
    assert text.splitlines()[-1] == min_row
    assert hashlib.sha256(text.encode()).hexdigest() == digest
