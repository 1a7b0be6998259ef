import dataclasses
import math
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.integrate import quad

from apmsim.errors import DomainError
from apmsim.geometry import (
    _axis_and_length,
    _lengths,
    _record,
    MyofibrilSpec,
    RATIO_OVER_CONTRACTED,
    RATIO_OVER_STRETCHED,
    RATIO_VALID,
    SarcomereGeometry,
    SpaGeometry,
    check_length_ratio,
    contraction_angle,
    design_from_a_band,
    myofibril_length,
    myosin_height_bounds,
    resting_length,
    semi_ellipse_arc_length,
    solve_major_axis,
)
from apmsim.material import MATERIALS

PROTO_SPA = SpaGeometry(t_w=1.5, a_ch=9.5, b_ch=10.0, h_ch=5.0, h_jz=2.0, a_hz=6.0, b_hz=15.0)


def quad_arc_length(r1, r2):
    """Quadrature oracle: r1 * integral_0^pi sqrt(1 - e^2 sin^2 t) dt."""
    e2 = 1.0 - (r2 / r1) ** 2
    val, _ = quad(lambda t: math.sqrt(1.0 - e2 * math.sin(t) ** 2), 0.0, math.pi,
                  epsabs=1e-12, epsrel=1e-12, limit=200)
    return r1 * val


def conforming_spec(a_band=30.0, n=1, spa=PROTO_SPA):
    return MyofibrilSpec(
        n=n,
        sarcomere=design_from_a_band(a_band),
        spa=spa,
        material=MATERIALS["dragonskin-30"],
    )


# ---------------------------------------------------------------- rest length

def test_resting_length_single_unit():
    assert resting_length(conforming_spec(30.0, n=1)) == 50.0


def test_resting_length_three_units():
    assert resting_length(conforming_spec(30.0, n=3)) == 150.0


def test_zero_units_rejected():
    with pytest.raises(DomainError):
        conforming_spec(30.0, n=0)


# ---------------------------------------------------------------- length ratio

def test_length_ratio_classification():
    assert check_length_ratio(100.0, 100.0) == RATIO_VALID
    assert check_length_ratio(59.0, 100.0) == RATIO_OVER_CONTRACTED
    assert check_length_ratio(171.0, 100.0) == RATIO_OVER_STRETCHED
    # band edges are valid
    assert check_length_ratio(60.0, 100.0) == RATIO_VALID
    assert check_length_ratio(170.0, 100.0) == RATIO_VALID


def test_length_ratio_rejects_nonpositive_rest():
    with pytest.raises(DomainError):
        check_length_ratio(50.0, 0.0)


# ---------------------------------------------------------------- design rules

def test_design_from_a_band_reference_dims():
    sarc = design_from_a_band(30.0)
    assert sarc.i_band == pytest.approx(20.0, abs=1e-12)
    assert sarc.actin_arc == pytest.approx(31.4159265, abs=1e-6)
    assert sarc.rest_radius == pytest.approx(10.0, abs=1e-12)


def test_design_from_a_band_scales():
    sarc = design_from_a_band(3.0)
    assert sarc.i_band == pytest.approx(2.0, abs=1e-12)
    assert sarc.actin_arc == pytest.approx(math.pi, abs=1e-12)


def test_design_identities_hold_exactly():
    for a_band in (0.3, 3.0, 30.0, 123.456):
        sarc = design_from_a_band(a_band)
        assert abs(sarc.i_band - 2.0 * a_band / 3.0) <= 1e-12 * a_band
        assert abs(sarc.actin_arc - math.pi / 2.0 * sarc.i_band) <= 1e-12 * a_band
        assert not sarc.conformity_warnings()


def test_design_from_a_band_rejects_nonpositive():
    with pytest.raises(DomainError):
        design_from_a_band(0.0)


def test_myosin_height_bounds_reference():
    low, high = myosin_height_bounds(30.0, 1.5, 5.0)
    assert low == pytest.approx(28.0, abs=1e-12)
    assert high == pytest.approx(math.pi / 3.0 * 30.0 + 8.0, abs=1e-12)


def test_myosin_height_bounds_small():
    low, high = myosin_height_bounds(3.0, 0.5, 1.0)
    assert low == pytest.approx(4.0, abs=1e-12)
    assert high == pytest.approx(math.pi + 2.0, abs=1e-12)


def test_myosin_height_bounds_ordering():
    rng = np.random.default_rng(7)
    for _ in range(25):
        a, t, h = rng.uniform(0.1, 100.0, 3)
        low, high = myosin_height_bounds(a, t, h)
        assert low < high


def test_myosin_height_bounds_rejects_nonpositive():
    with pytest.raises(DomainError):
        myosin_height_bounds(30.0, 0.0, 5.0)


# ---------------------------------------------------------------- arc length

def test_arc_length_circle_values():
    for r in (0.1, 1.0, 10.0, 100.0):
        assert abs(semi_ellipse_arc_length(r, r) - math.pi * r) <= 1e-9


def test_arc_length_matches_quadrature():
    assert semi_ellipse_arc_length(10.0, 5.0) == pytest.approx(24.2211, abs=1e-4)
    rng = np.random.default_rng(11)
    for _ in range(30):
        r1 = rng.uniform(0.5, 50.0)
        r2 = r1 * rng.uniform(0.05, 1.0)
        assert semi_ellipse_arc_length(r1, r2) == pytest.approx(
            quad_arc_length(r1, r2), abs=1e-9 * max(1.0, r1)
        )


def test_arc_length_degenerate_limit():
    assert semi_ellipse_arc_length(10.0, 1e-9) == pytest.approx(20.0, rel=1e-6)


def test_arc_length_rejects_swapped_axes():
    # A NaN major semi-axis fails the axis-order check as well; a NaN or
    # negative minor one, the positivity check before it.
    for r1, r2 in ((5.0, 10.0), (math.nan, 1.0), (2.0, math.nan), (1.0, -1.0)):
        with pytest.raises(DomainError, match="semi-axis"):
            semi_ellipse_arc_length(r1, r2)


# ---------------------------------------------------------------- axis solver

def test_solve_major_axis_circle_roundtrip():
    assert solve_major_axis(math.pi * 10.0, 20.0) == 10.0


def test_solve_major_axis_circle_identity_any_arc():
    for arc in (1.0, 31.41593, 250.0):
        assert solve_major_axis(arc, 2.0 * arc / math.pi) == pytest.approx(
            arc / math.pi, rel=1e-12
        )


def test_solve_major_axis_roundtrip_wide():
    arc = quad_arc_length(10.0, 5.0)
    assert solve_major_axis(arc, 10.0) == pytest.approx(10.0, rel=1e-6)


def test_solve_major_axis_roundtrip_random():
    rng = np.random.default_rng(13)
    for _ in range(100):
        r1 = rng.uniform(0.5, 50.0)
        r2 = r1 * rng.uniform(0.05, 0.999)
        arc = semi_ellipse_arc_length(r1, r2)
        assert solve_major_axis(arc, 2.0 * r2) == pytest.approx(r1, rel=1e-6)


def test_solve_major_axis_tall_regime():
    # Chord longer than the semicircle diameter: the horizontal semi-axis
    # comes back smaller than the vertical one.
    arc = semi_ellipse_arc_length(10.0, 6.0)  # vertical major 10, horizontal 6
    rh = solve_major_axis(arc, 20.0)
    assert rh == pytest.approx(6.0, rel=1e-6)
    assert rh < 10.0


def test_solve_major_axis_infeasible():
    with pytest.raises(DomainError):
        solve_major_axis(19.0, 20.0)  # arc shorter than the chord
    with pytest.raises(DomainError):
        solve_major_axis(-1.0, 20.0)


# ---------------------------------------------------------------- myofibril length

def test_myofibril_rest_equals_resting_exactly():
    spec = conforming_spec(30.0, n=1)
    assert myofibril_length(spec, 0.0) == resting_length(spec)
    spec3 = conforming_spec(30.0, n=3)
    assert myofibril_length(spec3, 0.0) == resting_length(spec3)
    assert myofibril_length(spec3, 0.0) == 150.0


def test_myofibril_length_strictly_decreasing():
    spec = conforming_spec(30.0)
    arc = spec.sarcomere.actin_arc
    delta_max = arc - spec.sarcomere.i_band  # chord reaches the arc here
    deltas = np.linspace(0.0, 0.999 * delta_max, 100)
    lengths = [myofibril_length(spec, d) for d in deltas]
    assert all(b < a for a, b in zip(lengths, lengths[1:]))


def test_myofibril_full_contraction_limit():
    # Near the feasible end the horizontal semi-axis collapses and the length
    # approaches n * a_band, the lower band of the allowed length ratio.
    spec = conforming_spec(30.0)
    delta_max = spec.sarcomere.actin_arc - spec.sarcomere.i_band
    length = myofibril_length(spec, delta_max - 1e-4)
    assert abs(length - 30.0) < 0.1
    assert length / resting_length(spec) == pytest.approx(0.6, abs=0.002)


def test_myofibril_rejects_negative_delta():
    with pytest.raises(DomainError):
        myofibril_length(conforming_spec(30.0), -0.1)


def test_myofibril_rejects_infeasible_delta():
    spec = conforming_spec(30.0)
    delta_max = spec.sarcomere.actin_arc - spec.sarcomere.i_band
    with pytest.raises(DomainError):
        myofibril_length(spec, delta_max + 1.0)


def test_nonconforming_prototype_warns_but_simulatable():
    sarc = SarcomereGeometry(
        a_band=30.0, i_band=20.0, actin_arc=32.0, myosin_height=28.0
    )
    with pytest.warns(UserWarning, match="semicircle"):
        spec = MyofibrilSpec(n=1, sarcomere=sarc, spa=PROTO_SPA,
                             material=MATERIALS["dragonskin-30"])
    # rest chord 28 - 3 - 5 = 20; the solved rest length differs from the
    # nominal one because the measured arc is longer than the semicircle
    length = myofibril_length(spec, 0.0)
    assert length > resting_length(spec)
    assert length == pytest.approx(50.0, abs=1.0)


def test_myosin_height_warning():
    sarc = SarcomereGeometry(
        a_band=30.0, i_band=20.0, actin_arc=math.pi / 2 * 20.0, myosin_height=50.0
    )
    with pytest.warns(UserWarning, match="bounds"):
        MyofibrilSpec(n=1, sarcomere=sarc, spa=PROTO_SPA,
                      material=MATERIALS["dragonskin-30"])


def test_design_rule_warnings_name_the_line_that_built_the_spec():
    # Both warnings point past the __init__ that dataclasses generate.
    sarc = SarcomereGeometry(a_band=30.0, i_band=20.0, actin_arc=32.0, myosin_height=50.0)
    with pytest.warns(UserWarning) as record:
        MyofibrilSpec(n=1, sarcomere=sarc, spa=PROTO_SPA, material=MATERIALS["dragonskin-30"])
    assert [str(w.message).split("=")[0] for w in record] == ["actin_arc", "myosin_height"]
    assert [w.filename for w in record] == [__file__, __file__]


# ---------------------------------------------------------------- contraction angle

def test_contraction_angle_reference_geometry():
    # (2*1.5 + 5 + 2*1*2) / 32 = 12/32
    theta = contraction_angle(PROTO_SPA, 1.0, 32.0)
    assert theta == pytest.approx(math.acos(12.0 / 32.0), abs=1e-12)
    assert math.degrees(theta) == pytest.approx(67.98, abs=0.01)


def test_contraction_angle_sixty_degrees():
    # numerator equals half the arc -> arccos(1/2)
    spa = SpaGeometry(t_w=1.0, a_ch=5.0, b_ch=5.0, h_ch=6.0, h_jz=4.0, a_hz=4.0, b_hz=4.0)
    theta = contraction_angle(spa, 1.0, 32.0)  # (2 + 6 + 8) / 32 = 0.5
    assert theta == pytest.approx(math.pi / 3.0, abs=1e-12)


def test_contraction_angle_decreasing_in_stretch():
    thetas = [contraction_angle(PROTO_SPA, lam, 32.0) for lam in np.linspace(1.0, 3.0, 30)]
    assert all(b < a for a, b in zip(thetas, thetas[1:]))


def test_contraction_angle_domain_errors():
    with pytest.raises(DomainError):
        contraction_angle(PROTO_SPA, 1.0, 12.0)  # argument exactly 1
    with pytest.raises(DomainError):
        contraction_angle(PROTO_SPA, 5.0, 10.0)  # arc far too short
    with pytest.raises(DomainError):
        contraction_angle(PROTO_SPA, 1.0, -3.0)


# ---------------------------------------------------------------- spa geometry

def test_spa_geometry_rejects_nonpositive():
    with pytest.raises(DomainError):
        SpaGeometry(t_w=0.0, a_ch=9.5, b_ch=10.0, h_ch=5.0, h_jz=2.0, a_hz=6.0, b_hz=15.0)


def test_sarcomere_rejects_bad_junction_count():
    with pytest.raises(DomainError):
        SarcomereGeometry(a_band=30.0, i_band=20.0, actin_arc=31.0, junctions_per_myosin=0)


@pytest.mark.parametrize("count", [2**53 + 1, 10**400])
def test_counts_beyond_exact_floats_rejected(count):
    # Counts enter the pipeline as floats; 10**400 used to overflow there.
    with pytest.raises(DomainError, match=r"sarcomere count n must lie within \[1, 2\*\*53\]"):
        conforming_spec(30.0, n=count)
    with pytest.raises(DomainError, match="junctions_per_myosin must lie within"):
        SarcomereGeometry(a_band=30.0, i_band=20.0, actin_arc=31.0, junctions_per_myosin=count)


def test_largest_exact_count_accepted():
    assert resting_length(conforming_spec(30.0, n=2**53)) == 2**53 * 50.0
    SarcomereGeometry(a_band=30.0, i_band=20.0, actin_arc=31.0, junctions_per_myosin=2**53)


@pytest.mark.parametrize("dims, message", [
    (dict(h_ch=1e-320), "wall ratio t_w/h_ch must be positive and finite, got inf"),
    (dict(a_hz=1e-320, b_hz=1e-320), "H-zone area a_hz\\*b_hz must be positive and finite, got 0.0"),
])
def test_spa_geometry_rejects_degenerate_derived_values(dims, message):
    # Both used to reach the pipeline: c_m of an infinite wall ratio printed
    # -inf forces, and a zero H-zone area divided by zero.
    with pytest.raises(DomainError, match=message):
        SpaGeometry(**{**dict(t_w=1.5, a_ch=9.5, b_ch=10.0, h_ch=5.0, h_jz=2.0, a_hz=6.0,
                              b_hz=15.0), **dims})


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", ["t_w", "a_ch", "b_ch", "h_ch", "h_jz", "a_hz", "b_hz"])
def test_spa_geometry_rejects_non_finite(name, value):
    dims = dict(t_w=1.5, a_ch=9.5, b_ch=10.0, h_ch=5.0, h_jz=2.0, a_hz=6.0, b_hz=15.0)
    dims[name] = value
    with pytest.raises(DomainError, match=f"{name} must be positive and finite"):
        SpaGeometry(**dims)


@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize("name", ["a_band", "i_band", "actin_arc", "myosin_height"])
def test_sarcomere_rejects_non_finite(name, value):
    dims = dict(a_band=30.0, i_band=20.0, actin_arc=31.0, myosin_height=28.0)
    dims[name] = value
    with pytest.raises(DomainError, match=f"{name} must be positive and finite"):
        SarcomereGeometry(**dims)


@pytest.mark.parametrize("a_band", [math.nan, math.inf, 1e308])
def test_design_from_a_band_rejects_non_finite_and_overflow(a_band):
    # 2 * 1e308 overflows, so the derived i_band is inf.
    with pytest.raises(DomainError, match="must be positive and finite"):
        design_from_a_band(a_band)


@pytest.mark.parametrize(
    "a_band, t_w, h_ch",
    [(math.nan, 1.0, 1.0), (30.0, math.inf, 1.0), (1e308, 1.0, 1.0), (30.0, 1e308, 1.0)],
)
def test_myosin_height_bounds_rejects_non_finite_and_overflow(a_band, t_w, h_ch):
    with pytest.raises(DomainError, match="must be positive and finite"):
        myosin_height_bounds(a_band, t_w, h_ch)


def test_contraction_angle_rejects_nan():
    with pytest.raises(DomainError, match="actin arc must be positive, got nan"):
        contraction_angle(PROTO_SPA, 1.1, math.nan)
    with pytest.raises(DomainError, match="cos\\(theta\\) must be positive, got nan"):
        contraction_angle(PROTO_SPA, math.nan, 32.0)


def test_contraction_angle_array_arc_names_first_bad_element():
    with pytest.raises(DomainError, match="actin arc must be positive, got -1.0"):
        contraction_angle(PROTO_SPA, np.full(3, 1.1), np.array([32.0, -1.0, math.nan]))


def test_contraction_angle_array_arc_equals_elementwise():
    arcs = np.linspace(20.0, 60.0, 9)
    batch = contraction_angle(PROTO_SPA, 1.1, arcs)
    assert batch.tolist() == [contraction_angle(PROTO_SPA, 1.1, a) for a in arcs.tolist()]


def test_rest_chord_rejects_nan():
    record = SimpleNamespace(n=1, a_band=30.0, actin_arc=32.0, rest_chord=math.nan)
    with pytest.raises(DomainError, match="chord=nan mm"):
        _axis_and_length(record, 0.0)


def test_rest_chord_array_names_first_bad_element():
    # 28 - 3 - 5 = 20 fits; 7 - 3 - 5 = -1 is the first that does not.
    sarc = design_from_a_band(30.0)
    with pytest.warns(UserWarning, match="outside the design bounds"):
        specs = [
            MyofibrilSpec(1, dataclasses.replace(sarc, myosin_height=h), PROTO_SPA, MATERIALS["dragonskin-30"])
            for h in (28.0, 7.0, 9.0)
        ]
    record = _record(specs, _lengths)
    assert record.rest_chord.tolist() == [20.0, -1.0, 1.0]
    with pytest.raises(DomainError, match="chord=-1 mm"):
        _axis_and_length(record, 0.0)
    record.rest_chord = np.array([20.0, -1.0, math.nan])
    with pytest.raises(DomainError, match="chord=-1 mm"):
        _axis_and_length(record, 0.0)
    assert _axis_and_length(_record(specs[::2], _lengths), 0.0)[0].tolist() == [
        solve_major_axis(sarc.actin_arc, 20.0),
        solve_major_axis(sarc.actin_arc, 1.0),
    ]
