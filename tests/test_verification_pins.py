"""Byte pins of sweep reports.

The strings and digests below were rendered by the scalar, one point at a
time implementation of the sweeps.  The array implementation must
reproduce them exactly: same rows, same 17-digit values, same
minimum-margin tie-break.  The two wide monotonicity pins are the
exception: they hold holes whose support mass is subnormal, which the
scalar sweeps sent to a log-space centroid and the array sweeps set aside
as untestable, so they were rendered by the array sweeps.  So were the
four pins that span several tiles, over the whole plane or cloud at once,
before the sweeps ran in tiles.

The reports are formatted by the CLI's CSV code, as `verify --format csv`
prints them.
"""

import hashlib

import pytest

pytest.importorskip("numpy")

from trunc_centroid.cli import _csv
from trunc_centroid.verification import (
    DEFAULT_BOUNDS_SPEC,
    DEFAULT_CERTIFICATE_SPEC,
    DEFAULT_DERIVATIVE_SPEC,
    DEFAULT_MONOTONICITY_SPEC,
    CheckRecord,
    SweepSpec,
    report_rows,
    verify_bounds,
    verify_certificate_positive,
    verify_derivative,
    verify_monotonicity,
)

HEADER = "check,x1,x2,h,lhs,rhs,margin\n"


def render(report) -> str:
    return _csv(",".join(CheckRecord._fields), report_rows([report]))


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

# An x1 axis whose values repeat: at 1e16 a step of 0.5 rounds to 0 or 2.
REPEATED_X1 = SweepSpec((1e16, 1e16 + 64.0, 0.5), (-40.0, 40.0, 0.05), (0.0, 1.0, 1.0))

# id -> (check, spec, checks_run, untestable rows, min_margin row, sha256 of the CSV)
WIDE_PINS = {
    "certificate-random": (
        "certificate",
        SweepSpec(**WIDE, mode="random", n_random=1000, seed=1),
        1000,
        64,
        "certificate_positive:min_margin,25.025130712692302,-29.738019840592344,"
        "nan,4.1954194256000599e-279,0,4.1954194256000599e-279",
        "b1113aa92f97e3fc515ac852b230647bb61d43e3981530237110a57bfb8c5291",
    ),
    "monotonicity-random": (
        # About half of these holes have a support mass below 1e-300, and
        # 134 rows compare a centroid whose mass is subnormal.
        "monotonicity",
        SweepSpec(**WIDE, mode="random", n_random=1000, seed=2),
        2000,
        134,
        "shift_sign:min_margin,-31.358334724879199,58.585560082724342,"
        "0.25885874690285249,0.00025952086720337775,0,0.00025952086720337775",
        "d28bc4cdc2086d42cd47cb551e26d7f3cbd45e7465c7bc43dd2d6b0c17795e86",
    ),
    "certificate-grid": (
        "certificate",
        SweepSpec((-40.0, 40.0, 0.5), (-40.0, 40.0, 0.5), (0.0, 1.0, 1.0)),
        25921,
        900,
        "certificate_positive:min_margin,25,-40,nan,1.4807800082705503e-278,0,"
        "1.4807800082705503e-278",
        "db8872d1f7bc037ac2a017533c08627b24ecbcd53c775d9eb9fe66929727d772",
    ),
    "monotonicity-grid": (
        "monotonicity",
        SweepSpec((-45.0, 45.0, 5.0), (-45.0, 45.0, 5.0), (-5.0, 5.0, 1.0)),
        3249,
        79,
        "monotonicity:min_margin,-45,35,-1,35.027735075280169,"
        "35.026987686123356,0.00074738915681393792",
        "3c0b4131b51c952361624fa95b476fd515804c84454def352ed9789190baf8f2",
    ),
    # The pins below span several tiles.  Rows whose x1 repeats across a
    # tile boundary sort by x2 among each other, as over the whole plane.
    "certificate-grid-repeated-x1": (
        "certificate",
        REPEATED_X1,
        206529,
        38571,
        "certificate_positive:min_margin,10000000000000000,-25.049999999999997,nan,"
        "1.2028724007545838e-279,0,1.2028724007545838e-279",
        "7e08cda79954019b7f38f99e158d552c2bfa69e0d680a1c272d8007a954e3df4",
    ),
    "bounds-grid-repeated-x1": (
        "bounds",
        REPEATED_X1,
        207045,
        12255,
        "summed_bound:min_margin,10000000000000000,-35.399999999999999,nan,"
        "1.0724297977445538e-271,1.0724297966650279e-271,1.0795258836907057e-280",
        "8c879192ad1f3f30c0478434e00efbff092cb1706fc9682a3776497840c931dd",
    ),
    # Untestable rows in all five checks.
    "bounds-grid": (
        "bounds",
        SweepSpec((-40.0, 40.0, 0.25), (-40.0, 40.0, 0.25), (0.0, 1.0, 1.0)),
        104325,
        439,
        "cdf_linear_bound:min_margin,-35.25,nan,nan,2.1367244044780379e-269,"
        "2.1367244022718515e-269,2.2061864134136137e-278",
        "92c28c00de51a047ed8041a0bbfbd00fd8d0d5a968c9868aef64830aea8ff9dc",
    ),
    # More points than one run of a random sweep.
    "certificate-random-runs": (
        "certificate",
        SweepSpec(**WIDE, mode="random", n_random=20000, seed=3),
        20000,
        1758,
        "certificate_positive:min_margin,36.77552586326793,-25.063764648882497,nan,"
        "6.0213743632433329e-280,0,6.0213743632433329e-280",
        "44c1a603b1b18695d51612326bac4a1dc760629fb90d7e80b0ac7c9e2b7cccaf",
    ),
}


@pytest.mark.parametrize("check", sorted(DEFAULT_CSV))
def test_default_report_bytes(check):
    run, _ = SWEEPS[check]
    assert render(run()) == HEADER + DEFAULT_CSV[check]


@pytest.mark.parametrize("check,seed", sorted(SEEDED_CSV))
def test_seeded_report_bytes(check, seed):
    run, d = SWEEPS[check]
    spec = SweepSpec(d.l_range, d.u_range, d.h_range, mode="random", n_random=1000, seed=seed)
    assert render(run(spec)) == HEADER + SEEDED_CSV[(check, seed)]


@pytest.mark.parametrize("pin", WIDE_PINS.values(), ids=list(WIDE_PINS))
def test_wide_report_pins(pin):
    check, spec, checks_run, untestable, min_row, digest = pin
    report = SWEEPS[check][0](spec)
    text = render(report)
    assert report.checks_run == checks_run
    assert len(report.untestable) == untestable
    assert text.splitlines()[-1] == min_row
    assert hashlib.sha256(text.encode()).hexdigest() == digest
