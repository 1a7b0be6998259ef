"""Property tests of the numeric contracts of the array pipeline.

Both root solves (the stress inverse and the half-ellipse axis solve) must
give each element of an array the same bits as a call with that element
alone, and meet their residual tolerances; the pressure pipeline must keep
lambda_jz strictly increasing, the rest state exact, give each sweep point
the state of its own pressure, and report the lowest failing pressure of a
sweep; one pass over many cells must give each cell its own sweep's states
or the first failing cell's error. The wavefront Frechet DP must give exactly the
row-by-row DP's result, be exactly symmetric, and be zero only on identical
point sequences.
"""

import math

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from apmsim import _numeric
from apmsim.actuation import (
    ActuationState,
    PressureSweep,
    junction_stretch,
    simulate_cells,
    simulate_pressure,
    simulate_sweep,
)
from apmsim.config import DEFAULT_PRESSURE_GRIDS
from apmsim.errors import DomainError
from apmsim.geometry import (
    MyofibrilSpec,
    SarcomereGeometry,
    SpaGeometry,
    design_from_a_band,
    semi_ellipse_arc_length,
    solve_major_axis,
)
from apmsim.material import (
    DEFAULT_LAMBDA_MAX,
    MATERIALS,
    YeohMaterial,
    cauchy_stress,
    inverse_cauchy_stress,
    wall_stress_factor,
)
from apmsim.validation import Curve, discrete_frechet

PROTO_SPA = SpaGeometry(t_w=1.5, a_ch=9.5, b_ch=10.0, h_ch=5.0, h_jz=2.0, a_hz=6.0, b_hz=15.0)
# Rigid chamber sandwich 2*t_w + h_ch of PROTO_SPA, below the actin chord.
PROTO_STACK = 8.0

fractions = st.floats(0.0, 1.0)


@st.composite
def yeoh_materials(draw):
    """A built-in material or a constructible Yeoh fit of elastomer stiffness."""
    if draw(st.booleans()):
        return draw(st.sampled_from(list(MATERIALS.values())))
    try:
        return YeohMaterial(
            "drawn",
            c1=draw(st.floats(0.005, 2.0)),
            c2=draw(st.floats(-0.01, 0.1)),
            c3=draw(st.floats(0.0, 0.01)),
        )
    except DomainError:
        reject()


@st.composite
def prototype_specs(draw, arc=st.floats(30.0, 34.0), chord_share=st.floats(0.55, 0.7)):
    """A prototype-like design with a drawn actin arc, rest chord and material,
    or a rule-conforming one (rest semicircle)."""
    material = draw(yeoh_materials())
    if draw(st.booleans()):
        sarcomere = design_from_a_band(draw(st.floats(20.0, 40.0)))
    else:
        actin_arc = draw(arc)
        sarcomere = SarcomereGeometry(
            a_band=30.0,
            i_band=20.0,
            actin_arc=actin_arc,
            myosin_height=PROTO_STACK + draw(chord_share) * actin_arc,
        )
    n = draw(st.integers(1, 3))
    return MyofibrilSpec(n=n, sarcomere=sarcomere, spa=PROTO_SPA, material=material)


# ------------------------------------------------------------- stress inverse


@given(yeoh_materials(), st.lists(fractions, min_size=1, max_size=30))
def test_stress_inverse_array_equals_elementwise(material, shares):
    sigmas = np.array(shares) * cauchy_stress(material, DEFAULT_LAMBDA_MAX)
    batch = inverse_cauchy_stress(material, sigmas)
    assert batch.tolist() == [inverse_cauchy_stress(material, s) for s in sigmas.tolist()]


@given(yeoh_materials(), fractions)
def test_stress_residual_within_contract(material, share):
    sigma = share * cauchy_stress(material, DEFAULT_LAMBDA_MAX)
    lam = inverse_cauchy_stress(material, sigma)
    assert 1.0 <= lam <= DEFAULT_LAMBDA_MAX
    assert abs(cauchy_stress(material, lam) - sigma) <= 1e-9 * max(1.0, sigma)


# ------------------------------------------------------------ axis solve


chord_shares = st.one_of(st.floats(0.001, 1.0, exclude_max=True), st.just(2.0 / math.pi))


@given(st.floats(0.01, 100.0), st.lists(chord_shares, min_size=1, max_size=30))
def test_axis_solve_array_equals_elementwise(arc, shares):
    chords = np.array(shares) * arc
    batch = solve_major_axis(arc, chords)
    assert batch.tolist() == [solve_major_axis(arc, c) for c in chords.tolist()]


@given(st.floats(0.01, 100.0), chord_shares)
def test_axis_solve_residual_both_regimes_and_circle(arc, share):
    chord = share * arc
    b = chord / 2.0
    x = solve_major_axis(arc, chord)
    if abs(arc - math.pi * b) <= 1e-12 * arc:
        assert x == b
        return
    assert 0.0 < x <= arc / 2.0
    if abs(arc - math.pi * b) > 1e-9 * arc:
        # wider than tall exactly when the arc exceeds the semicircle's
        assert (x > b) == (arc > math.pi * b)
    assert abs(semi_ellipse_arc_length(max(x, b), min(x, b)) - arc) <= 1e-12 * arc


# -------------------------------------------------------------- pipeline


@given(yeoh_materials(), st.lists(st.integers(0, 999), min_size=2, max_size=40, unique=True))
def test_junction_stretch_strictly_increasing_in_pressure(material, steps):
    spa = PROTO_SPA
    # Pressure at which the junction stress reaches the stress at lambda_max.
    p_cap = (
        cauchy_stress(material, DEFAULT_LAMBDA_MAX)
        * spa.a_hz
        * spa.b_hz
        / (2.0 * wall_stress_factor(spa.t_w, spa.h_ch) * spa.a_ch * spa.b_ch)
    )
    pressures = np.array(sorted(steps)) / 1000.0 * p_cap
    lam = junction_stretch(pressures, spa, material)
    assert np.all(np.diff(lam) > 0.0)


@pytest.mark.filterwarnings("ignore::UserWarning")
@given(prototype_specs(), st.integers(1, 60))
def test_length_ratio_exactly_one_at_zero_pressure(spec, points):
    states = simulate_sweep(spec, PressureSweep(0.0, 1e-3, 1e-3 / points))
    assert states[0].pressure == 0.0
    assert states[0].length_ratio == 1.0
    assert simulate_pressure(spec, 0.0).length_ratio == 1.0


@pytest.mark.filterwarnings("ignore::UserWarning")
@settings(max_examples=60, deadline=None)
@given(
    prototype_specs(arc=st.floats(12.0, 40.0), chord_share=st.floats(0.3, 0.95)),
    st.floats(0.05, 3.0),
)
def test_sweep_reports_lowest_failing_pressure(spec, end):
    sweep = PressureSweep(0.0, end, end / 30)
    expected = None
    for p in sweep.pressures():
        try:
            simulate_pressure(spec, p)
        except DomainError as err:
            expected = f"at pressure {p:.6f} MPa: {err}"
            break
    if expected is None:
        assert len(simulate_sweep(spec, sweep)) == len(sweep.pressures())
    else:
        with pytest.raises(DomainError) as info:
            simulate_sweep(spec, sweep)
        assert str(info.value) == expected


@pytest.mark.filterwarnings("ignore::UserWarning")
@settings(max_examples=60, deadline=None)
@given(prototype_specs(), st.floats(1e-4, 0.3), st.integers(1, 40))
def test_sweep_states_equal_single_pressure_states(spec, end, intervals):
    # simulate_sweep transposes one array-valued state into per-point
    # tuples; each must be the state of its own pressure, field by field.
    sweep = PressureSweep(0.0, end, end / intervals)
    try:
        states = simulate_sweep(spec, sweep)
    except DomainError:
        reject()
    assert [s.pressure for s in states] == sweep.pressures()
    for state in states:
        assert type(state) is ActuationState
        alone = simulate_pressure(spec, state.pressure)
        for name in ActuationState._fields:
            assert getattr(state, name) == getattr(alone, name), name


@st.composite
def study_cells(draw):
    """A (spec, sweep) cell of the wall-ratio study: a built-in material, a
    wall ratio in [0.125, 1.5], a rule-conforming sarcomere or one with a
    drawn myosin height, and a 1-50-point grid that ends below or up to four
    times past the end of the material's study grid, where some cells fail."""
    name = draw(st.sampled_from(sorted(MATERIALS)))
    ratio = draw(st.floats(0.125, 1.5))
    spa = SpaGeometry(t_w=10.0 * ratio, a_ch=14.0, b_ch=14.0, h_ch=10.0, h_jz=3.0, a_hz=6.0, b_hz=20.0)
    sarcomere = design_from_a_band(60.0)
    if draw(st.booleans()):
        sarcomere = SarcomereGeometry(
            a_band=60.0,
            i_band=40.0,
            actin_arc=sarcomere.actin_arc,
            myosin_height=2.0 * spa.t_w + spa.h_ch + draw(st.floats(0.5, 0.7)) * sarcomere.actin_arc,
        )
    spec = MyofibrilSpec(n=draw(st.integers(1, 3)), sarcomere=sarcomere, spa=spa, material=MATERIALS[name])
    points = draw(st.integers(1, 50))
    end = draw(st.floats(0.05, 4.0)) * DEFAULT_PRESSURE_GRIDS[name].end
    return spec, PressureSweep(end / points, end, end / points)


@pytest.mark.filterwarnings("ignore::UserWarning")
@settings(max_examples=80, deadline=None)
@given(st.lists(study_cells(), min_size=1, max_size=8))
def test_cells_equal_their_own_sweeps(cells):
    # One pass over all cells gives each cell the states of its own sweep,
    # field by field, or the error of the first cell that fails alone.
    expected, error = [], None
    for spec, sweep in cells:
        try:
            expected.append(simulate_sweep(spec, sweep))
        except DomainError as err:
            error = str(err)
            break
    if error is not None:
        with pytest.raises(DomainError) as info:
            simulate_cells(cells)
        assert str(info.value) == error
        return
    results = simulate_cells(cells)
    assert len(results) == len(cells)
    for states, alone in zip(results, expected):
        assert len(states) == len(alone)
        for state, reference in zip(states, alone):
            assert type(state) is ActuationState
            for field in ActuationState._fields:
                assert getattr(state, field) == getattr(reference, field), field


# ---------------------------------------------------------- iteration cap


def test_iteration_cap_raises_domain_error(monkeypatch):
    monkeypatch.setattr(_numeric, "MAX_ITERATIONS", 1)
    with pytest.raises(DomainError, match="iterations"):
        inverse_cauchy_stress(MATERIALS["dragonskin-30"], 0.5)
    with pytest.raises(DomainError, match="iterations"):
        solve_major_axis(32.0, 24.0)


def test_iteration_cap_ends_a_solve_that_cannot_converge():
    # No double squares to exactly 2, so a zero tolerance is never met.
    with pytest.raises(DomainError, match="iterations"):
        _numeric.bracketed_newton(
            lambda x: (x * x - 2.0, 2.0 * x), 1.0, 2.0, np.array([1.0, 1.5]), 0.0
        )


# ------------------------------------------------------------ Frechet DP


def row_by_row_frechet(a, b):
    """The Eiter & Mannila DP filled row by row in plain Python (oracle)."""
    pa = list(zip(a.x.tolist(), a.y.tolist()))
    pb = list(zip(b.x.tolist(), b.y.tolist()))
    row = []
    for i, (ax, ay) in enumerate(pa):
        new = []
        for j, (bx, by) in enumerate(pb):
            d = math.hypot(ax - bx, ay - by)
            if i == 0 and j == 0:
                new.append(d)
            elif i == 0:
                new.append(max(new[j - 1], d))
            elif j == 0:
                new.append(max(row[0], d))
            else:
                new.append(max(min(row[j], new[j - 1], row[j - 1]), d))
        row = new
    return row[-1]


# Very unequal shapes put the diagonal bounds at both edges of the grid.
curve_sizes = st.one_of(
    st.tuples(st.integers(2, 3), st.integers(2, 400)),
    st.tuples(st.integers(2, 400), st.integers(2, 3)),
    st.tuples(st.integers(2, 400), st.integers(2, 400)),
)


def seeded_curve(rng, size):
    scale = 10.0 ** rng.integers(-6, 7)
    x = np.cumsum(rng.uniform(0.01, 1.0, size)) * scale
    return Curve(x - rng.uniform(0.0, x[-1]), rng.normal(0.0, scale, size))


@st.composite
def curve_pairs(draw):
    """Two curves; b may reuse points of a, which makes exact distance ties."""
    m, n = draw(curve_sizes)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = seeded_curve(rng, m)
    if n <= m and draw(st.booleans()):
        idx = np.sort(rng.choice(m, n, replace=False))
        keep = rng.random(n) < 0.5
        return a, Curve(a.x[idx], np.where(keep, a.y[idx], rng.normal(0.0, 1.0, n)))
    return a, seeded_curve(rng, n)


@settings(max_examples=60, deadline=None)
@given(curve_pairs())
def test_frechet_equals_row_by_row_dp(pair):
    a, b = pair
    assert discrete_frechet(a, b) == row_by_row_frechet(a, b)


@settings(max_examples=60, deadline=None)
@given(curve_pairs())
def test_frechet_exactly_symmetric(pair):
    a, b = pair
    assert discrete_frechet(a, b) == discrete_frechet(b, a)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(2, 400),
    st.integers(0, 2**32 - 1),
    st.sampled_from(["same", "x_ulp", "y_ulp", "other_length"]),
)
def test_frechet_zero_only_on_identical_sequences(size, seed, change):
    rng = np.random.default_rng(seed)
    a = seeded_curve(rng, size)
    x, y = a.x.copy(), a.y.copy()
    k = int(rng.integers(0, size))
    if change == "x_ulp":
        # Stays strictly increasing: the next point is at least a step away.
        x[k] = np.nextafter(x[k], -math.inf)
    elif change == "y_ulp":
        y[k] = np.nextafter(y[k], math.inf)
    elif change == "other_length":
        x, y = np.delete(x, k), np.delete(y, k)
        if x.size < 2:
            x, y = np.append(a.x, a.x[-1] + 1.0), np.append(a.y, 0.0)
    b = Curve(x, y)
    identical = np.array_equal(a.x, b.x) and np.array_equal(a.y, b.y)
    assert (discrete_frechet(a, b) == 0.0) == identical
    assert identical == (change == "same")
