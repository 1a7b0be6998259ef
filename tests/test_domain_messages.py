"""The exact text of every array domain check of the model layers.

Each check reports the first element of its input that fails, so each row
passes an array whose first element is valid and whose later elements fail
with different values: the message must name the first failing one. The NaN
rows pin which masks fail a NaN and which let it through to a later check.
"""

import warnings

import numpy as np
import pytest

from apmsim.actuation import adjustment_coefficient, contraction_force, junction_stretch, simulate_pressure
from apmsim.cli import main
from apmsim.errors import DomainError
from apmsim.geometry import (
    MyofibrilSpec,
    SarcomereGeometry,
    SpaGeometry,
    check_length_ratio,
    contraction_angle,
    myofibril_length,
    semi_ellipse_arc_length,
    solve_major_axis,
)
from apmsim.material import MATERIALS, YeohMaterial, cauchy_stress, inverse_cauchy_stress, wall_stress_factor

NAN = float("nan")
SPA = SpaGeometry(t_w=1.5, a_ch=9.5, b_ch=10.0, h_ch=5.0, h_jz=2.0, a_hz=6.0, b_hz=15.0)
# Accepted dimensions whose expansion force overflows at any positive pressure.
OVERFLOWING_SPA = SpaGeometry(t_w=1.5, a_ch=1e308, b_ch=1e-320, h_ch=5.0, h_jz=2.0, a_hz=6.0, b_hz=15.0)
DRAGONSKIN = MATERIALS["dragonskin-30"]


def spec(spa=SPA, myosin_height=None):
    sarcomere = SarcomereGeometry(a_band=30.0, i_band=20.0, actin_arc=10.0 * np.pi, myosin_height=myosin_height)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        return MyofibrilSpec(n=1, sarcomere=sarcomere, spa=spa, material=DRAGONSKIN)


def overflowing_pass(pressures):
    # The CLI runs the pass with numpy's warnings off, as here.
    with np.errstate(over="ignore"):
        return simulate_pressure(spec(OVERFLOWING_SPA), pressures)


def a(*values):
    return np.array(values)


# (check, call, message): one row per check, in module order.
MESSAGES = [
    # actuation
    ("_check_pressure", lambda: junction_stretch(a(0.0, -1.0, -2.0), SPA, DRAGONSKIN),
     "pressure must be non-negative, got -1.0"),
    ("adjustment_coefficient", lambda: adjustment_coefficient(a(0.2, -0.1, -0.2), 0.1),
     "wall ratio must be non-negative, got -0.1"),
    ("contraction_force", lambda: contraction_force(1.0, a(0.5, 2.0, -1.0)),
     "theta must lie in (0, pi/2), got 2.0"),
    ("simulate_pressure", lambda: overflowing_pass(a(0.0, 0.1, 0.2)),
     "f_e is not finite (inf)"),
    # geometry
    ("check_length_ratio", lambda: check_length_ratio(a(1.0, 1.0, 1.0), a(1.0, 0.0, -1.0)),
     "resting length must be positive, got 0.0"),
    ("semi_ellipse_arc_length minor", lambda: semi_ellipse_arc_length(2.0, a(1.0, 0.0, -1.0)),
     "minor semi-axis must be positive, got 0.0"),
    ("semi_ellipse_arc_length major", lambda: semi_ellipse_arc_length(a(2.0, 1.0, 0.5), a(1.0, 1.5, 1.0)),
     "major semi-axis 1.0 must not be smaller than minor 1.5; orient the axes before constructing"),
    ("solve_major_axis positive", lambda: solve_major_axis(a(4.0, 4.0, -4.0), a(1.0, 0.0, 1.0)),
     "arc length and chord must be positive"),
    ("solve_major_axis arc", lambda: solve_major_axis(a(4.0, 1.0, 2.0), a(1.0, 2.0, 3.0)),
     "arc length 1 must exceed the vertical chord 2"),
    ("_axis_and_length chord", lambda: myofibril_length([spec(myosin_height=28.0), spec(myosin_height=7.0),
                                                         spec(myosin_height=6.0)], 0.0),
     "myosin_height leaves no room for the actin chord (chord=-1 mm)"),
    ("_axis_and_length delta_hm", lambda: myofibril_length(spec(), a(0.0, -1.0, -2.0)),
     "delta_hm must be non-negative, got -1.0"),
    ("contraction_angle arc", lambda: contraction_angle(SPA, 1.0, a(30.0, 0.0, -1.0)),
     "actin arc must be positive, got 0.0"),
    ("contraction_angle cos >= 1", lambda: contraction_angle(SPA, a(1.0, 100.0, 200.0), 30.0),
     "actin arc 30 mm too short for the stacked height 408 mm (cos(theta) >= 1)"),
    ("contraction_angle cos > 0", lambda: contraction_angle(SPA, a(1.0, -100.0, -200.0), 30.0),
     "cos(theta) must be positive, got -13.0667"),
    # material
    ("YeohMaterial", lambda: YeohMaterial("{0}{", c1=0.1, c2=-0.1),
     "{0}{: Cauchy stress is not strictly increasing on [1, 5.0] (sampled near lambda=1.2344)"),
    ("_i1_minus_3", lambda: cauchy_stress(DRAGONSKIN, a(1.0, 0.5, 0.25)),
     "stretch ratio must be >= 1, got 0.5"),
    ("inverse_cauchy_stress", lambda: inverse_cauchy_stress(DRAGONSKIN, a(0.0, -1.0, -2.0)),
     "stress must be non-negative, got -1.0"),
    ("wall_stress_factor positive", lambda: wall_stress_factor(a(1.0, 0.0, -1.0), 5.0),
     "wall dimensions must be positive, got t_w=0.0, h_ch=5.0"),
    ("wall_stress_factor finite", lambda: wall_stress_factor(a(1.0, 5e-324, 1e-323), 5.0),
     "wall stress factor is not finite for t_w=5e-324, h_ch=5.0"),
]


@pytest.mark.parametrize("call, message", [row[1:] for row in MESSAGES], ids=[row[0] for row in MESSAGES])
def test_domain_check_names_its_first_failing_element(call, message):
    with pytest.raises(DomainError) as info:
        call()
    assert str(info.value) == message


def test_every_array_check_has_a_row():
    assert len(MESSAGES) == 19
    assert len({check for check, _, _ in MESSAGES}) == 19


# (case, call, expected): NaN at index 1. A mask written as ~(ok) fails a
# NaN; one written as the failing condition lets it through, to a later
# check's message or into the result (an array expected).
NAN_ROWS = [
    ("_check_pressure fails NaN", lambda: junction_stretch(a(0.0, NAN), SPA, DRAGONSKIN),
     "pressure must be non-negative, got nan"),
    ("semi_ellipse_arc_length major fails NaN", lambda: semi_ellipse_arc_length(a(2.0, NAN), 1.0),
     "major semi-axis nan must not be smaller than minor 1.0; orient the axes before constructing"),
    ("solve_major_axis positive fails NaN", lambda: solve_major_axis(a(4.0, NAN), 1.0),
     "arc length and chord must be positive"),
    ("inverse_cauchy_stress fails NaN", lambda: inverse_cauchy_stress(DRAGONSKIN, a(0.0, NAN)),
     "stress must be non-negative, got nan"),
    ("check_length_ratio rest passes NaN", lambda: check_length_ratio(a(1.0, 1.0), a(1.0, NAN)),
     np.array(["valid", "valid"], dtype=object)),
    ("_i1_minus_3 fails NaN", lambda: cauchy_stress(DRAGONSKIN, a(1.0, NAN)),
     "stretch ratio must be >= 1, got nan"),
    ("delta_hm fails NaN", lambda: myofibril_length(spec(), a(0.0, NAN)),
     "delta_hm must be non-negative, got nan"),
    ("contraction_angle cos >= 1 passes NaN", lambda: contraction_angle(SPA, a(1.0, NAN), 30.0),
     "cos(theta) must be positive, got nan"),
]


@pytest.mark.parametrize("call, expected", [row[1:] for row in NAN_ROWS], ids=[row[0] for row in NAN_ROWS])
def test_domain_check_nan(call, expected):
    if not isinstance(expected, str):
        np.testing.assert_array_equal(call(), expected)
        return
    with pytest.raises(DomainError) as info:
        call()
    assert str(info.value) == expected


def test_custom_material_name_reaches_the_message_as_is(tmp_path, capsys):
    # A name that looks like a format string is printed as written.
    config = tmp_path / "custom.ini"
    config.write_text(
        "[material]\nname = {0}{\nc1 = 0.1\nc2 = -0.1\n"
        "[sarcomere]\na_band = 30\n"
        "[spa]\nt_w = 1.5\na_ch = 9.5\nb_ch = 10\nh_ch = 5\nh_jz = 2\na_hz = 6\nb_hz = 15\n",
        encoding="utf-8",
    )
    assert main(["simulate", "--config", str(config)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: invalid custom material: {0}{: Cauchy stress is not strictly increasing "
        "on [1, 5.0] (sampled near lambda=1.2344)\n"
    )
