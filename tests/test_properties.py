"""Property tests of the numeric contracts of the array pipeline.

Both root solves (the stress inverse and the half-ellipse axis solve) must
give each element of an array the same bits as a call with that element
alone, and meet their residual tolerances; the pressure pipeline must keep
lambda_jz strictly increasing, the rest state exact, give each sweep point
the state of its own pressure, and report the lowest failing pressure of a
sweep; one pass over many cells must give each cell the columns of its own
sweep's states or the first failing cell's error. A pressure grid must be
bit for bit the scalar loop start + i*step, and every length-ratio flag one
of the three RATIO_* constants. The complete elliptic integrals must match
mpmath to 1e-15 relative, be exact at the circle and where the squared axis
ratio underflows, and give each element of an array the bits of its own
call. The Frechet DP must give exactly the row-by-row DP's result, whether
a free path proves its lower bound or the wavefront runs, also on near ties
and offset pairs whose value an exact reach decides, be exactly symmetric,
and be zero only on identical point sequences; its fast distances must stay
within the window slack of math.hypot, its exact free mask must free the
cells of exact distance at most t, its bit-parallel free-space reach must
decide as a cell-by-cell reachability does, and a scan's band must leave
out only cells whose fast distance lies above the window, with x or y out
of order too, and leave out most cells of a raw force-curve pair.
Curve.from_csv must read every text as a row-by-row csv oracle does. The
CSV writer must print each float as CPython's "%.6f" does, in blocks of at
most BLOCK_ROWS rows.
qq_pairs must give np.quantile's linear quantiles bit for bit, signs of zero
included, and quantile_grid np.linspace's probabilities.
Every float that simulate and sweep print, in CSV and in JSON, must agree
with the chain evaluated exactly by mpmath, within an error bound derived
from the solve tolerances and the stages' condition numbers.
"""

import contextlib
import copy
import csv
import io
import json
import math
import sys
import tempfile
import tracemalloc
import warnings
from itertools import accumulate
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

from apmsim import _numeric, geometry, validation
from apmsim._csvtext import BLOCK_ROWS, csv_text
from apmsim.actuation import (
    ActuationState,
    PressureSweep,
    junction_stretch,
    simulate_cells,
    simulate_pressure,
    simulate_sweep,
)
from apmsim.cli import STATE_COLUMNS, main
from apmsim.config import DEFAULT_PRESSURE_GRIDS, load_config, parse_ratio
from apmsim.errors import DomainError
from apmsim.geometry import (
    SPA_FIELDS,
    MyofibrilSpec,
    SarcomereGeometry,
    SpaGeometry,
    check_length_ratio,
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


# ---------------------------------------------------- elliptic integrals


# Axis ratios r in [1e-12, 1], drawn both uniformly and log-uniformly (the
# log term dominates at small r), plus the circle.
axis_ratios = st.one_of(
    st.floats(1e-12, 1.0),
    st.floats(-12.0, 0.0).map(lambda e: 10.0**e),
    st.just(1.0),
)


@settings(max_examples=300)
@given(axis_ratios)
def test_elliptic_integrals_match_mpmath(r):
    with mpmath.workdps(40):
        m = 1 - mpmath.mpf(r) ** 2
        exact_e, exact_k = mpmath.ellipe(m), mpmath.ellipk(m)
        assert abs(geometry._ellip_e(np.array([r]))[0] - exact_e) <= 1e-15 * exact_e
        assert abs(geometry._ellip_k(np.array([r]))[0] - exact_k) <= 1e-15 * exact_k


def test_elliptic_integrals_at_the_ends():
    # The circle's arc is exactly pi*r1; where r^2 underflows, E is exactly 1
    # and K stays finite (no 0 * -inf from log(r^2)), also where r itself
    # underflowed (2 and 5e-324 are valid semi-axes), without a warning.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert geometry._ellip_e(np.array([1.0]))[0] == math.pi / 2.0
        e, k = geometry._ellip_e(np.array([1e-200]))[0], geometry._ellip_k(np.array([1e-200]))[0]
        assert e == 1.0
        assert math.isfinite(k) and k > 0.0
        assert geometry._ellip_e(np.array([0.0]))[0] == 1.0
        assert semi_ellipse_arc_length(2.0, 5e-324) == 4.0


@given(st.lists(st.one_of(axis_ratios, st.floats(1e-300, 1.0)), min_size=1, max_size=40))
def test_elliptic_integrals_array_equals_elementwise(ratios):
    batch = np.array(ratios)
    for func in (geometry._ellip_e, geometry._ellip_k):
        assert func(batch).tolist() == [func(np.array([r]))[0] for r in ratios]


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


def per_cell(columns, counts):
    # Each cell's columns: its row range of simulate_cells' columns.
    bounds = list(accumulate(counts, initial=0))
    return [[column[a:b] for column in columns] for a, b in zip(bounds, bounds[1:])]


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
    # One pass over all cells gives each cell the columns of its own sweep's
    # states, as numpy arrays whose .tolist() equals them value for value
    # and type for type, or the error of the first cell that fails alone;
    # simulate_sweep still hands out ActuationStates.
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
    results = per_cell(*simulate_cells(cells))
    assert len(results) == len(cells)
    for columns, alone in zip(results, expected):
        assert all(type(state) is ActuationState for state in alone)
        assert len(columns) == len(ActuationState._fields)
        for field, column, reference in zip(ActuationState._fields, columns, zip(*alone), strict=True):
            assert type(column) is np.ndarray
            assert column.shape == (len(alone),)
            # Plain Python values in .tolist(), as the JSON writers encode them.
            values = column.tolist()
            want = str if field == "ratio_flag" else float
            assert all(type(value) is want for value in values), field
            assert values == list(reference), field


# ------------------------------------------------------ grid and flag rules

grid_starts = st.one_of(st.just(0.0), st.floats(0.0, 10.0), st.floats(0.0, 1e300))
grid_steps = st.one_of(st.floats(1e-6, 1.0), st.floats(5e-324, 1e300))


@settings(max_examples=300, deadline=None)
@given(grid_starts, grid_steps, st.integers(0, 2000), st.floats(-0.45, 0.45))
def test_pressures_equal_the_scalar_grid_bit_for_bit(start, step, k, frac):
    # The end lies k + frac steps past the start: the grid keeps it when it
    # is within half a step of the last increment.
    end = start + (k + frac) * step
    try:
        sweep = PressureSweep(start, end, step)
    except DomainError:
        reject()
    count = math.floor((end - start) / step + 0.5)
    expected = [start + i * step for i in range(count + 1)]
    pressures = sweep.pressures()
    assert [p.hex() for p in pressures] == [p.hex() for p in expected]
    assert all(type(p) is float for p in pressures)
    if start <= 10.0 and 1e-6 <= step <= 1.0:
        # Here rounding is far below the 0.05-step margin on frac.
        assert len(pressures) == k + 1


length_ratios = st.one_of(
    st.sampled_from([geometry.LENGTH_RATIO_MIN, geometry.LENGTH_RATIO_MAX, math.nan]),
    st.floats(0.0, 3.0),
    st.floats(allow_nan=True, allow_infinity=True),
)


@given(st.lists(length_ratios, max_size=20))
@example([math.nan, 0.5, 2.0])  # NaN still reads as valid
def test_length_ratio_flags_are_the_constants(ratios):
    expected = [
        geometry.RATIO_OVER_CONTRACTED if r < geometry.LENGTH_RATIO_MIN
        else geometry.RATIO_OVER_STRETCHED if r > geometry.LENGTH_RATIO_MAX
        else geometry.RATIO_VALID
        for r in ratios
    ]
    flags = geometry.check_length_ratio(np.array(ratios, dtype=float), 1.0)
    assert flags.shape == (len(ratios),)
    assert all(flag is want for flag, want in zip(flags.tolist(), expected, strict=True))
    for r, want in zip(ratios, expected):
        flag = geometry.check_length_ratio(r, 1.0)
        assert type(flag) is str and flag is want


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
    """Two curves; b may reuse points of a, which makes exact distance ties,
    or be some of a's points shifted by one offset in y with one point
    nudged a few ulps, which makes near ties: distinct exact distances a
    few ulps apart in the window, between which an exact reach decides. A
    close b is a's polyline resampled at n points with small noise in y:
    about half of such pairs have a free path at the lower bound and half
    do not, so both the proved value and the fast wavefront are drawn."""
    m, n = draw(curve_sizes)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = seeded_curve(rng, m)
    kinds = ["independent", "close"] + (["shared", "near_tie"] if n <= m else [])
    kind = draw(st.sampled_from(kinds))
    if kind == "close":
        x = np.linspace(a.x[0], a.x[-1], n)
        return a, Curve(x, np.interp(x, a.x, a.y) + rng.normal(0.0, 0.01 * np.std(a.y), n))
    if kind in ("shared", "near_tie"):
        idx = np.sort(rng.choice(m, n, replace=False))
        if kind == "shared":
            keep = rng.random(n) < 0.5
            return a, Curve(a.x[idx], np.where(keep, a.y[idx], rng.normal(0.0, 1.0, n)))
        y = a.y[idx] + rng.normal(0.0, np.std(a.y))
        k = rng.integers(0, n)
        y[k] += rng.integers(1, 5) * np.spacing(y[k])
        return a, Curve(a.x[idx], y)
    return a, seeded_curve(rng, n)


@settings(max_examples=60, deadline=None)
@given(curve_pairs())
def test_frechet_equals_row_by_row_dp(pair):
    a, b = pair
    runs = []
    with pytest.MonkeyPatch.context() as patch:
        spy(patch, "_reaches", runs.append)
        spy(patch, "_wavefront", lambda value: runs.append(None))
        assert discrete_frechet(a, b) == row_by_row_frechet(a, b)
    # runs holds each reach's result and None for a wavefront: at most one
    # runs, right after a failed fast reach, of which there are at most three.
    waves = [k for k, run in enumerate(runs) if run is None]
    assert waves == [] or len(waves) == 1 and 1 <= waves[0] <= 3 and runs[waves[0] - 1] is False


@settings(max_examples=60, deadline=None)
@given(curve_pairs())
def test_frechet_exactly_symmetric(pair):
    a, b = pair
    assert discrete_frechet(a, b) == discrete_frechet(b, a)


def test_fast_distance_slack_holds():
    # discrete_frechet is exact only if np.abs of a complex difference lies
    # within FAST_DISTANCE_REL relative plus FAST_DISTANCE_ABS of math.hypot,
    # an overflow counting as the largest float; a numpy or libm build whose
    # hypot is less accurate would make its result silently inexact.
    rng = np.random.default_rng(2024)
    count = 240_000
    big = np.finfo(float).max
    scale = 10.0 ** rng.uniform(-320.0, 300.0, count)
    dx = scale * rng.uniform(-1.0, 1.0, count)
    dy = dx * 10.0 ** rng.uniform(-20.0, 0.0, count) * rng.choice([-1.0, 1.0], count)
    dx[:20_000] = rng.integers(-2**20, 2**20, 20_000) * 5e-324  # subnormal pairs
    dy[:20_000] = rng.integers(-2**20, 2**20, 20_000) * 5e-324
    dx[20_000:40_000] = 0.0  # zeros, with y on any scale and zero itself
    dy[20_000:21_000] = 0.0
    # Near the largest float, where either kernel may overflow alone.
    angle = rng.uniform(0.0, math.pi / 2.0, 40_000)
    for part, value in ((dx, np.cos(angle)), (dy, np.sin(angle))):
        part[40_000:80_000] = np.minimum(value * (1.0 + rng.uniform(-1e-15, 1e-15, 40_000)), 1.0) * big
    swap = rng.random(count) < 0.5
    dx, dy = np.where(swap, dy, dx), np.where(swap, dx, dy)
    dz = np.empty(count, complex)
    dz.real, dz.imag = dx, dy
    exact = np.minimum(list(map(math.hypot, dx.tolist(), dy.tolist())), big)
    # The wavefront takes np.abs of contiguous slices; check strided input too.
    strided = np.empty(2 * count, complex)
    strided[::2] = dz
    for fast in (np.abs(dz), np.abs(strided[::2])):
        fast = np.minimum(fast, big)
        slack = validation.FAST_DISTANCE_REL * exact + validation.FAST_DISTANCE_ABS
        assert np.all(np.abs(fast - exact) <= slack)


def spy(monkeypatch, name, record):
    """Patch validation.<name> to pass each call's result to record."""
    real = getattr(validation, name)

    def spied(*args):
        result = real(*args)
        record(result)
        return result

    monkeypatch.setattr(validation, name, spied)


@pytest.fixture
def wavefront_runs(monkeypatch):
    """The value of every wavefront pass discrete_frechet runs."""
    values = []
    spy(monkeypatch, "_wavefront", values.append)
    return values


@pytest.fixture
def reach_results(monkeypatch):
    """Whether each free-space reach that discrete_frechet runs finds a path."""
    results = []
    spy(monkeypatch, "_reaches", results.append)
    return results


def test_frechet_near_tie_falls_back_to_exact_dp(reach_results, wavefront_runs):
    # The optimum is d(1, 1) = 1 + 2**-52, the lower bound, and the diagonal
    # reaches it, so no fast wavefront runs; d(0, 0) = 1 lies in the window
    # around that value, so the window holds two exact values, and the
    # exact reach at 1.0 fails, which decides for the other.
    a = Curve([0.0, 1.0], [0.0, 0.0])
    b = Curve([0.0, 1.0], [1.0, 1.0 + 2.0**-52])
    assert discrete_frechet(a, b) == row_by_row_frechet(a, b) == 1.0 + 2.0**-52
    assert reach_results == [True, False]
    assert wavefront_runs == []


def test_frechet_bisects_the_window_of_an_offset_pair(reach_results, wavefront_runs):
    # The diagonal cells of a pair offset by 0.01 in y have exact distances
    # a few ulps apart, all in the window around the proved lower bound. The
    # end cells' distances lie below it, so the reach at them fails first.
    x = np.linspace(0.0, 2.0 * math.pi, 300)
    a, b = Curve(x, np.sin(3.0 * x)), Curve(x, np.sin(3.0 * x) + 0.01)
    value = discrete_frechet(a, b)
    assert value.hex() == row_by_row_frechet(a, b).hex() == (0.010000000000000009).hex()
    assert wavefront_runs == []
    assert reach_results[:2] == [False, True] and len(reach_results) > 3


def force_curve_pairs(count):
    """validate_long-like pairs: rising, slightly curved, noisy 300 x 260 curves."""
    rng = np.random.default_rng(9)
    for _ in range(count):
        p_max, gain, bend = rng.uniform(0.3, 0.5), rng.uniform(20.0, 40.0), rng.uniform(-15.0, 15.0)
        xr = np.linspace(0.0, p_max, 260)
        xm = np.linspace(0.0, p_max * rng.uniform(0.97, 1.03), 300)
        ref = Curve(xr, gain * xr + bend * xr**2 + rng.normal(0.0, 0.05, 260))
        model = Curve(xm, 1.05 * gain * xm + bend * xm**2 + rng.normal(0.0, 0.02, 300))
        yield model, ref


def test_frechet_certifies_long_force_curves(reach_results, wavefront_runs):
    for model, ref in force_curve_pairs(3):
        assert discrete_frechet(model, ref) == row_by_row_frechet(model, ref)
    # The lower bound is proved and its window holds one exact value: one
    # reach per pair and no wavefront.
    assert reach_results == [True] * 3
    assert wavefront_runs == []


def test_frechet_scans_keep_one_set_of_block_buffers():
    # Every scan fills the same 96 KB of block buffers. A second set alive
    # at once, or numpy's 126 KB copy of a block's broadcast operand under
    # the default ufunc buffer, would take the peak past the bound.
    model, ref = next(force_curve_pairs(1))
    tracemalloc.start()
    try:
        discrete_frechet(model, ref)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 160 * 1024


@pytest.mark.parametrize("a_points, b_points, bound", [
    # The middle column's minimum: b's middle point is far from all of a.
    ([(0.0, 0.0), (2.0, 0.0)], [(0.0, 0.0), (1.0, 5.0), (2.0, 0.0)], math.hypot(1.0, 5.0)),
    # The middle row's minimum, the same pair swapped.
    ([(0.0, 0.0), (1.0, 5.0), (2.0, 0.0)], [(0.0, 0.0), (2.0, 0.0)], math.hypot(1.0, 5.0)),
    # d(0, 0): each of the first points is nearer to a later one.
    ([(0.0, 0.0), (1.0, 5.0), (2.0, 0.0)], [(0.0, 5.0), (1.0, 0.0), (2.0, 0.0)], 5.0),
    # d(m-1, n-1), the same pair reversed.
    ([(0.0, 0.0), (1.0, 0.0), (2.0, 5.0)], [(0.0, 0.0), (1.0, 5.0), (2.0, 0.0)], 5.0),
])
def test_frechet_lower_bound_takes_every_part(a_points, b_points, bound, reach_results, wavefront_runs):
    # The value is each case's one part of the bound that is not a row or
    # column minimum below it, so a bound without that part has no free path.
    a, b = Curve.from_points(a_points), Curve.from_points(b_points)
    assert discrete_frechet(a, b) == row_by_row_frechet(a, b) == bound
    assert reach_results == [True]
    assert wavefront_runs == []


@pytest.mark.parametrize("a_points, b_points", [
    # Row 1 has no free cell; rows 0 and 2 alone would join the end cells.
    ([(0.0, 0.0), (1.0, 10.0), (2.0, 0.0)], [(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)]),
    # The last row has no free cell.
    ([(0.0, 0.0), (1.0, 0.0), (2.0, 10.0)], [(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)]),
    # Every cell but (0, 0) is free.
    ([(1.0, 0.0), (2.0, 0.0)], [(0.0, 10.0), (1.0, 0.0), (2.0, 0.0)]),
])
def test_reach_needs_a_free_cell_in_every_row_and_at_both_ends(a_points, b_points):
    # Below the lower bound such cells can be missing; at the threshold 1.0
    # no free path joins the end cells, and the reach must not find one.
    scan = validation._Scan(*(validation._points(Curve.from_points(p)) for p in (a_points, b_points)))
    assert not validation._reaches(scan, scan.blocks(1.0), validation._Window(1.0).fast_free)


def test_frechet_restores_numpy_settings():
    before = np.getbufsize(), np.geterr()
    discrete_frechet(*next(force_curve_pairs(1)))
    assert (np.getbufsize(), np.geterr()) == before


def noise_curve(rng, size):
    """Increasing x in (0, 1] under N(0, 1) noise in y: in effect independent
    noise, whose couplings rarely follow the row and column minima."""
    x = np.cumsum(rng.uniform(0.5, 1.0, size))
    return Curve(x / x[-1], rng.normal(0.0, 1.0, size))


def zigzag_curve(size, phase):
    return Curve(np.linspace(0.0, 1.0, size), np.where(np.arange(size) % 2 == phase, 1.0, -1.0))


# The reach at the end cells' distance fails; where the row and column
# minima set a bound above it, the reach at that bound fails too.
@pytest.mark.parametrize("make_pair, reaches", [
    (lambda rng: (noise_curve(rng, 400), noise_curve(rng, 400)), [False]),
    (lambda rng: (noise_curve(rng, 5000), noise_curve(rng, 3)), [False, False]),
    (lambda rng: (noise_curve(rng, 3), noise_curve(rng, 5000)), [False, False]),
], ids=["noise_400x400", "noise_5000x3", "noise_3x5000"])
def test_frechet_without_a_free_path_runs_the_wavefront(make_pair, reaches, reach_results, wavefront_runs):
    a, b = make_pair(np.random.default_rng(0))
    assert discrete_frechet(a, b) == row_by_row_frechet(a, b)
    assert reach_results == reaches
    assert len(wavefront_runs) == 1


def test_frechet_proves_the_zigzag_pair_without_a_wavefront(reach_results, wavefront_runs):
    # Every other cell of a row is free, 200 runs per row, and the diagonal
    # at the value 2: one carry per row follows them all.
    a, b = zigzag_curve(400, 0), zigzag_curve(400, 1)
    assert discrete_frechet(a, b) == row_by_row_frechet(a, b) == 2.0
    assert reach_results == [True]
    assert wavefront_runs == []


def test_frechet_proves_an_end_cell_bound_in_one_scan(monkeypatch, reach_results, wavefront_runs):
    # In these validate_long-like pairs the last cell sets the lower bound,
    # raw and normalized: the scan at the end cells' distance takes the
    # minima and finds the path, so no second scan or reach runs.
    scans = []
    blocks = validation._Scan.blocks
    monkeypatch.setattr(validation._Scan, "blocks", lambda scan, t: scans.append(t) or blocks(scan, t))
    for model, ref in force_curve_pairs(3):
        for frechet in (discrete_frechet, validation.normalized_frechet):
            scans.clear()
            frechet(model, ref)
            assert len(scans) == 1
    assert reach_results == [True] * 6
    assert wavefront_runs == []


def rescan_pair(seed):
    """Two noisy curves of 40-119 points on one wide x range, y on one of
    three scales."""
    rng = np.random.default_rng(seed)
    m, n = rng.integers(40, 120, 2)
    xa = np.sort(rng.uniform(-1e6, 3e6, m))
    xb = np.sort(rng.uniform(-1e6, 3e6, n))
    scale = rng.choice([1.0, 1e3, 1e5])
    a = Curve(xa, rng.normal(0, scale, m))
    b = Curve(xb, rng.normal(0, scale, n))
    return a, b


# The reach at t_end fails, and the bound B that the banded scan at t_end
# takes is not yet the row and column minima: at seed 8 it exceeds the
# minima of the wider band at B; at seed 0 a column lies outside every
# band of the scan at t_end, so B is inf. The scan at that B joins and
# takes the minima, whose lower B needs a last scan. Proving the first B
# that joins would miss the value.
@pytest.mark.parametrize("seed, shape, thresholds", [
    (8, (97, 66), [39950.19, 131486.82, 104035.13]),
    (0, (108, 90), [14692.21, math.inf, 115219.32]),
])
def test_frechet_rescans_until_its_bound_is_the_minima(monkeypatch, seed, shape, thresholds, reach_results, wavefront_runs):
    a, b = rescan_pair(seed)
    assert (len(a), len(b)) == shape
    scans = []
    blocks = validation._Scan.blocks
    monkeypatch.setattr(validation._Scan, "blocks", lambda scan, t: scans.append(t) or blocks(scan, t))
    value = discrete_frechet(a, b)
    assert [round(t, 2) for t in scans] == thresholds
    assert reach_results == [False, True, True]
    assert wavefront_runs == []
    assert value == row_by_row_frechet(a, b)


def out_of_order(rng, values):
    """values with two neighbours swapped, or a run of them shuffled."""
    values = values.copy()
    k = rng.integers(0, len(values) - 1)
    if rng.random() < 0.5:
        values[[k, k + 1]] = values[[k + 1, k]]
    else:
        rng.shuffle(values[k : k + rng.integers(2, 40)])
    return values


def test_raw_force_curves_scan_a_band_in_y(monkeypatch):
    # Raw validate_long-like pairs pit MPa against N: the threshold is about
    # the x span or more, so the x band keeps nearly every cell, and the y
    # band leaves most of them out of the first scan.
    fractions = []
    blocks = validation._Scan.blocks

    def counted(scan, t):
        cells = 0
        for block in blocks(scan, t):
            cells += block[3].size
            yield block
        fractions.append(cells / (scan.za.size * scan.zb.size))

    monkeypatch.setattr(validation._Scan, "blocks", counted)
    for model, ref in force_curve_pairs(3):
        fractions.clear()
        discrete_frechet(model, ref)
        assert fractions[0] < 0.4


@st.composite
def band_cases(draw):
    """Two curves and a threshold for _Scan.blocks. The threshold is a cell's
    fast or exact distance, a few ulps off it, zero, the largest float or
    inf. The curves come from curve_pairs, or are level (distances are x
    differences, so cells lie at the band's edge), or have runs of equal x
    reassigned after construction, as a rescaled copy may, or have x spread
    over most of the float range, where x differences and x +- margin
    overflow, or have x reassigned out of order, or y sorted and then put
    out of order in places, so that the y band prunes where the raw y are
    not monotone."""
    a, b = draw(curve_pairs())
    kind = draw(st.sampled_from(["drawn", "level", "equal_x", "huge", "unsorted_x", "unsorted_y"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "level":
        a, b = Curve(a.x, np.zeros(len(a))), Curve(b.x, np.zeros(len(b)))
    elif kind == "unsorted_y":
        a, b = (Curve(c.x, out_of_order(rng, np.sort(c.y))) for c in (a, b))
    elif kind != "drawn":
        a, b = copy.copy(a), copy.copy(b)
        scale = max(np.abs(a.x).max(), np.abs(b.x).max())
        for c in (a, b):
            if kind == "unsorted_x":
                c.x = out_of_order(rng, c.x)
            else:
                c.x = np.floor(c.x / scale * 8.0) if kind == "equal_x" else c.x / scale * 0.9 * FLOAT_MAX
    za, zb = validation._points(a), validation._points(b)
    i, j = draw(st.integers(0, len(a) - 1)), draw(st.integers(0, len(b) - 1))
    with np.errstate(over="ignore"):
        dz = za[i : i + 1] - zb[j : j + 1]
        t = draw(st.sampled_from([np.abs(dz)[0], validation._exact_distances(dz)[0], 0.0, FLOAT_MAX, math.inf]))
        for _ in range(draw(st.integers(0, 4))):
            t = np.nextafter(t, math.inf)
        for _ in range(draw(st.integers(0, 4))):
            t = np.nextafter(t, 0.0)
    return a, b, float(t)


@settings(max_examples=300, deadline=None)
# Level rows half a step apart: with a margin of t alone, the first row's
# band leaves out cell (0, 0) at distance 0.5, just above t.
@example((Curve(np.arange(40.0), np.zeros(40)), Curve(np.arange(40.0) - 0.5, np.zeros(40)), 0.5 - 2.0**-54))
# Rows whose y alternate 7, 0, 7, ...: a block's first column must come from
# the least y of its rows and all later ones, not from its first row's 7.
@example((Curve(np.arange(17.0) * 1e-9, [7.0, 0.0] * 8 + [7.0]), Curve(np.arange(8.0) * 1e-9, np.arange(8.0)), 0.5))
@given(band_cases())
def test_scan_band_leaves_out_only_cells_above_the_window(case):
    a, b, t = case
    za, zb = validation._points(a), validation._points(b)
    covered = np.zeros((za.size, zb.size), bool)
    rows = 0
    with pytest.MonkeyPatch.context() as patch, np.errstate(over="ignore"):
        # Blocks of 64 cells: pairs of a few dozen points have many.
        patch.setattr(validation, "_SCAN_BLOCK_CELLS", 64)
        scan = validation._Scan(za, zb)
        for start, first, dz, d in scan.blocks(t):
            # The blocks take the rows in order, each with one run of columns.
            assert start == rows
            rows += len(d)
            assert np.array_equal(dz, za[start:rows, None] - zb[first : first + d.shape[1]])
            covered[start:rows, first : first + d.shape[1]] = True
        fast = np.abs(za[:, None] - zb)
    assert rows == za.size
    assert np.all(fast[~covered] > validation._Window(t).high)


def with_x(x, y):
    """A Curve of points (x, y) whose x, in any order, was reassigned after
    construction, as a Curve allows."""
    curve = Curve(np.arange(len(x), dtype=float), y)
    curve.x = np.asarray(x, dtype=float)
    return curve


@st.composite
def unsorted_pairs(draw):
    """A curve_pairs pair whose second curve's x is reassigned out of order:
    two neighbours swapped, or all shuffled."""
    a, b = draw(curve_pairs())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = b.x.copy()
    if draw(st.booleans()):
        k = rng.integers(0, len(x) - 1)
        x[[k, k + 1]] = x[[k + 1, k]]
    else:
        rng.shuffle(x)
    return a, with_x(x, b.y)


@settings(max_examples=60, deadline=None)
# A band taken from x out of order leaves out a cell of the optimum here.
@example((with_x([0, 4, 2, 3, 3], [2, 1, 2, 3, 1]), with_x([2, 1], [3, 2])))
@given(unsorted_pairs())
def test_frechet_with_x_out_of_order_equals_row_by_row_dp(pair):
    # The scans band by the envelopes of x, which x out of order only widen.
    a, b = pair
    with pytest.MonkeyPatch.context() as patch:
        # One row per block, so that a band could apply to every pair.
        patch.setattr(validation, "_SCAN_BLOCK_CELLS", 1)
        assert discrete_frechet(a, b) == discrete_frechet(b, a) == row_by_row_frechet(a, b)


class MaskScan(validation._Scan):
    """A _Scan with the real block layout whose fast distances are 0 on
    the free cells of `free` and 2 elsewhere, so threshold 1 frees exactly
    those cells."""

    def __init__(self, free):
        m, n = free.shape
        super().__init__(np.zeros(m, complex), np.zeros(n, complex))
        self.distances = np.where(free, 0.0, 2.0)

    def blocks(self, t):
        for start, first, dz, d in super().blocks(t):
            d[...] = self.distances[start : start + len(d), first : first + d.shape[1]]
            yield start, first, dz, d


def cell_by_cell_reach(free):
    """Whether a monotone path of free cells joins the end cells (oracle)."""
    m, n = free.shape
    above = [False] * n
    for i in range(m):
        row = []
        for j in range(n):
            entered = (i == 0 and j == 0) or above[j] or (j > 0 and (row[j - 1] or above[j - 1]))
            row.append(bool(free[i, j]) and entered)
        above = row
    return above[-1]


@st.composite
def free_masks(draw):
    """Random free masks, half of them around a random monotone path with a
    few cells knocked out; shapes from one cell up to several _Scan blocks,
    tall, wide, and one row per block (n > _SCAN_BLOCK_CELLS)."""
    m, n = draw(st.one_of(
        st.tuples(st.integers(1, 12), st.integers(1, 12)),
        st.sampled_from([(40, 300), (10, 1000), (3000, 3), (2, 4500), (3, 4500)]),
    ))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    free = rng.random((m, n)) < draw(st.floats(0.2, 1.0))
    if draw(st.booleans()):
        i = j = 0
        free[0, 0] = True
        while (i, j) != (m - 1, n - 1):
            step = rng.integers(3) if i < m - 1 and j < n - 1 else 0 if i < m - 1 else 1
            i, j = i + (step != 1), j + (step != 0)
            free[i, j] = True
        for _ in range(draw(st.integers(0, 2))):
            free[rng.integers(m), rng.integers(n)] = False
    # Mostly both end cells as drawn; else one of them blocked.
    start, end = draw(st.sampled_from([(True, True)] * 4 + [(False, True), (True, False)]))
    free[0, 0] &= start
    free[-1, -1] &= end
    return free


@settings(max_examples=150, deadline=None)
@given(free_masks())
def test_reach_equals_cell_by_cell_reachability(free):
    scan = MaskScan(free)
    assert validation._reaches(scan, scan.blocks(1.0), validation._Window(1.0).fast_free) == cell_by_cell_reach(free)


FLOAT_MAX = float(np.finfo(float).max)
# Thresholds of the exact free mask: zero, subnormal, normal, near and at the
# largest float, and inf.
free_thresholds = st.one_of(
    st.sampled_from([0.0, 5e-324, 1.0, 0.01, FLOAT_MAX, math.inf]),
    st.floats(5e-324, 2.2250738585072014e-308),
    st.floats(1e-300, 1e300),
    st.floats(1e307, FLOAT_MAX),
)


@st.composite
def blocks_near(draw):
    """A threshold t and a block of complex differences whose exact
    distances lie at t or within 1-8 ulps of it, along the axes and at
    random angles. A radius nudged past the largest float stays at it, and
    its direction grows by the nudge instead, so those differences overflow
    in np.abs, math.hypot, both or neither."""
    t = draw(free_thresholds)
    shape = draw(st.tuples(st.integers(1, 4), st.integers(1, 64)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    steps = rng.integers(-8, 9, shape) * (rng.random(shape) < 0.7)
    radius = np.full(shape, t)
    with np.errstate(over="ignore"):
        for k in range(8):
            radius = np.where(steps > k, np.nextafter(radius, math.inf), radius)
            radius = np.where(steps < -k, np.nextafter(radius, 0.0), radius)
    grow = np.where(radius > FLOAT_MAX, 1.0 + np.maximum(steps, 0) * 2.0**-52, 1.0)
    radius = np.minimum(radius, FLOAT_MAX)
    angle = np.where(rng.random(shape) < 0.2, rng.choice([0.0, math.pi / 2], shape), rng.uniform(0.0, math.pi / 2, shape))
    dz = np.empty(shape, complex)
    dz.real = np.minimum(np.cos(angle) * grow, 1.0) * radius
    dz.imag = np.minimum(np.sin(angle) * grow, 1.0) * radius
    return t, dz


@settings(max_examples=300, deadline=None)
# With numpy 2.4.6 on x86-64, np.abs reads this cell 2 ulps below math.hypot
# and t lies between the two, so a window without its lower margin frees it.
@example((1.8050029237453802, np.array([[1.7517541995616157 + 0.43519280675077143j]])))
@given(blocks_near())
def test_exact_reach_frees_the_cells_of_exact_distance_at_most_t(block):
    t, dz = block
    with np.errstate(over="ignore"):
        d = np.abs(dz)
    free = np.empty(dz.shape, bool)
    validation._Window(t).exact_free(dz, d, free)
    exact = validation._exact_distances(dz.ravel()).reshape(dz.shape)
    assert np.array_equal(free, exact <= t)


@pytest.mark.parametrize("a_points, b_points, expected", [
    # Every difference overflows: inf in both kernels.
    ([(0.0, -1e308), (1.0, -1e308)], [(0.0, 1e308), (1.0, 1e308)], math.inf),
    # Identical curves.
    ([(0.0, 1.0), (2.0, -3.0), (5.0, 0.5)], [(0.0, 1.0), (2.0, -3.0), (5.0, 0.5)], 0.0),
    # Subnormal coordinates and distances.
    ([(0.0, 0.0), (1.0, 0.0)], [(0.0, 5e-324), (1.0, 3e-320)], 3e-320),
    # d(0, 0) is finite but its fast value overflows; the optimum d(1, 1) is
    # the largest float, with a finite fast value just below it.
    ([(-3.841571146670398e305, 8.595429458512823e307),
      (7.57492965411631e306, -8.415660145026594e307)],
     [(-5.75261803155941e307, -8.449157733852883e307),
      (6.471695285504337e307, 8.628927047339115e307)],
     np.finfo(float).max),
])
def test_frechet_edge_cases_match_row_by_row_dp(a_points, b_points, expected):
    a, b = Curve.from_points(a_points), Curve.from_points(b_points)
    assert discrete_frechet(a, b) == discrete_frechet(b, a) == row_by_row_frechet(a, b) == expected


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


# ----------------------------------------------------------- Q-Q quantiles

# Sample values that make a quantile's bits easy to get wrong: subnormals,
# magnitudes near 1e+-300 whose differences overflow or underflow, and small
# values. A sample of 1-60 values draws from a few of them and both zeros,
# so that values repeat and zeros of both signs meet.
quantile_values = st.one_of(
    st.sampled_from([1.0, -1.0, 0.5]),
    st.floats(-2.2250738585072014e-308, 2.2250738585072014e-308),
    st.floats(1e299, 1e301),
    st.floats(-1e301, -1e299),
    st.floats(-1e-299, 1e-299),
    st.floats(-10.0, 10.0).map(lambda v: round(v, 1)),
)
quantile_samples = st.tuples(st.integers(1, 60), st.lists(quantile_values, max_size=8)).flatmap(
    lambda size_pool: st.lists(
        st.sampled_from([0.0, -0.0, *size_pool[1]]), min_size=size_pool[0], max_size=size_pool[0]
    )
)


@settings(max_examples=300, deadline=None)
@example([0.0, -0.0, -0.0, 5e-324], [-0.0, 1e300, -1e300], validation.MAX_QUANTILES)
# A NaN sample gives NaN at every probability, and inf - inf gives NaN too.
@example([1.0, math.nan, -0.0], [math.inf, 2.0, -math.inf, 2.0], 7)
@given(quantile_samples, quantile_samples, st.integers(2, 500))
def test_qq_pairs_are_numpy_linear_quantiles_bit_for_bit(a, b, k):
    # Equal values and equal signs of zero: qq_pairs follows np.quantile's
    # own steps, whose partition and lerp decide which zero comes out.
    probs = np.linspace(0.0, 1.0, k)
    with np.errstate(over="ignore", invalid="ignore"):
        got = np.array(validation.qq_pairs(a, b, k))
        want = np.column_stack([np.quantile(np.array(s), probs, method="linear") for s in (a, b)])
    assert np.array_equal(got, want, equal_nan=True)
    assert np.array_equal(np.signbit(got), np.signbit(want))


@example(2)
@example(3)
@example(9)
@example(validation.MAX_QUANTILES)
@given(st.integers(2, validation.MAX_QUANTILES))
def test_quantile_grid_is_linspace_bit_for_bit(k):
    assert validation.quantile_grid(k).tobytes() == np.linspace(0.0, 1.0, k).tobytes()


# -------------------------------------------------------------- CSV text

def ulps_away(x, k):
    # The float k steps of one ulp from x, towards +inf for k > 0.
    for _ in range(abs(k)):
        x = math.nextafter(x, math.copysign(math.inf, k))
    return x


# Floats whose "%.6f" text is easy to get wrong: exact half ties (odd
# multiples of 1/128, whose x*10**6 is a half integer), the floats nearest
# k + 0.5 millionths (x*1e6 rounds onto a half integer that the exact
# product is not), signed zeros and negatives that round to zero, carries
# into a new digit and out of a seven-digit integer part, values around
# 2**52 / 1e6 and far beyond, subnormals, and each of them a few ulps away.
hard_floats = st.tuples(
    st.one_of(
        st.floats(),
        st.integers(-(2**45), 2**45).map(lambda m: (2 * m + 1) / 128),
        st.integers(-(10**13), 10**13).map(lambda k: (k + 0.5) / 1e6),
        st.sampled_from([0.0, -0.0, 9.9999995, 999999.9999996, 9999999.9999995, 99999.9999995]),
        st.floats(-5e-7, 5e-7),
        st.integers(-6, 12).map(lambda k: 10.0**k - 5e-7),
        st.floats(9.9e6, 1.01e7),
        st.floats(4.5e9, 4.6e9),
        st.sampled_from([2**52 / 1e6, 1e15, -1e15, 1e300, -1e300, sys.float_info.max, -sys.float_info.max]),
        st.floats(-2.2250738585072014e-308, 2.2250738585072014e-308),
    ),
    st.integers(-2, 2),
).map(lambda pair: ulps_away(*pair))


def per_row_csv(names, cells):
    # The CSV text row by row with CPython's %: each cell's head, "%.6f,"
    # of each float column, the last column's text, its tail and a newline.
    lines = [",".join(names) + "\n"]
    for head, columns, tail in cells:
        row = "%.6f," * (len(columns) - 1) + "%s"
        lines += [head + row % values + tail + "\n" for values in zip(*(c.tolist() for c in columns))]
    return "".join(lines)


@settings(max_examples=150, deadline=None)
@example(  # one of each kind across a block boundary, in two cells
    [-0.0, -1e-9, 0.0078125, 2.5e-06, 3.5e-06, 9.9999995, 999999.9999996, 9999999.9999995,
     2**52 / 1e6, 1e15, 1e300, sys.float_info.max, 5e-324, -math.inf, math.nan],
    513, 11, 3, 2, ["valid", "é"],
)
@example(  # one column climbing through the decades: each block at its own width, the second unpadded
    [1.5 * 10.0 ** (k // 86) for k in range(512)] + [1234567.25 + k for k in range(512)] + [0.5],
    1025, 1, 0, 1, ["valid"],
)
@example(  # negative and positive values in each column of one block
    [-12.5, 3.25, 0.125, -0.0, 1000000.5, -7.75, 99.0, -0.001],
    4, 2, 0, 1, ["valid", "over-stretched"],
)
@example(  # one text of more than 16 bytes in an otherwise narrow block
    [0.25, 1.5, 3.0, 0.75, -123456789.25, 2.0, 0.5, 1.0],
    4, 2, 0, 2, ["valid"],
)
@given(
    st.lists(hard_floats, min_size=1, max_size=40),
    st.sampled_from([1, 2, 7, 511, 512, 513, 1025]),
    st.integers(1, 11),
    st.integers(0, 40),
    st.integers(1, 3),
    st.lists(st.sampled_from(["valid", "over-stretched", "é"]), min_size=1, max_size=3),
)
def test_csv_floats_are_cpython_text(values, rows, width, shift, cell_count, labels):
    # Every float cell the writer prints is '%.6f' % v, whichever row and
    # column of whichever block or cell it sits in.
    table = np.resize(np.roll(np.array(values), shift), rows * width).reshape(rows, width)
    texts = np.array([labels[i % len(labels)] for i in range(rows)], dtype=object)
    bounds = np.linspace(0, rows, min(cell_count, rows) + 1).astype(int)
    cells = [
        (f"m{i},{i}.5,", [*table[a:b].T, texts[a:b]], f",tail{i}")
        for i, (a, b) in enumerate(zip(bounds[:-1], bounds[1:]))
    ]
    names = tuple(f"c{i}" for i in range(width + 1))
    # The writer takes the whole table's columns and each cell's row count.
    counted = [(head, len(columns[0]), tail) for head, columns, tail in cells]
    pieces = list(csv_text(names, [*table.T, texts], counted))
    assert "".join(pieces) == per_row_csv(names, cells)
    # The header, then the rows in blocks of BLOCK_ROWS.
    assert [piece.count("\n") for piece in pieces] == [1] + [
        min(BLOCK_ROWS, rows - start) for start in range(0, rows, BLOCK_ROWS)
    ]


@pytest.mark.parametrize(
    "head, label, tail", [("m\0,", "valid", ""), ("", "val\0id", ""), ("", "valid", ",\0")],
    ids=["head", "label", "tail"],
)
def test_csv_text_rejects_a_nul(head, label, tail):
    # The writer drops every NUL byte of a block, so a NUL in a cell's text
    # would vanish from the CSV: it is refused instead.
    columns, cells = [np.array([1.5]), np.array([label], dtype=object)], [(head, 1, tail)]
    with pytest.raises(ValueError, match="NUL"):
        list(csv_text(("x", "flag"), columns, cells))


# ------------------------------------------------------------ curve CSV read

def row_by_row_from_csv(path):
    """Curve.from_csv with one (x, y) float pair per csv row, the byte-order
    mark stripped from the decoded text (oracle)."""
    path = Path(path)
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(io.StringIO(fh.read().removeprefix("\ufeff"), newline="")))
    if not rows or tuple(c.strip() for c in rows[0]) != validation.CURVE_CSV_HEADER:
        raise DomainError(f"{path}: expected header row 'x,y'")
    body = [r for r in rows[1:] if r]
    for r in body:
        if len(r) != 2:
            raise DomainError(f"{path}: malformed data row {r!r}: expected 2 fields, got {len(r)}")
    try:
        pts = np.array([(float(x), float(y)) for x, y in body]).reshape(-1, 2)
    except ValueError as err:
        raise DomainError(f"{path}: malformed data row ({err})") from None
    return Curve(pts[:, 0], pts[:, 1], path.stem)


# Fields that float() reads oddly or rejects: underscores, padding, signed
# zero, overflow, nan, inf, hex, empty and plain bad text.
odd_fields = st.sampled_from([
    "1_000", "1_0.5", "1__0", "_1", "1_", " 2 ", "\t3", "-0", "-0.0", "1e400", "nan", "inf",
    "0x10", "", "abc", "1.5.2", "1,5", "1\n2",
])


@st.composite
def curve_texts(draw):
    """The bytes of a curve CSV: a header, maybe padded or wrong, after an
    optional byte-order mark; rows of increasing x and drawn y as repr
    texts, a few fields replaced by odd ones, quoted, dropped or added to;
    blank and whitespace-only lines; LF, CRLF or CR line ends."""
    header = draw(st.sampled_from(["x,y"] * 6 + [" x , y", '"x","y"', "x,y,", "X,Y", "y,x"]))
    count = draw(st.integers(0, 12))
    x = np.cumsum(draw(st.lists(st.floats(1e-3, 1e3), min_size=count, max_size=count)))
    y = draw(st.lists(st.floats(-1e6, 1e6), min_size=count, max_size=count))
    rows = [[repr(float(a)), repr(b)] for a, b in zip(x, y)]
    for _ in range(draw(st.integers(0, 3)) if rows else 0):
        row = rows[draw(st.integers(0, len(rows) - 1))]
        k = draw(st.integers(0, len(row) - 1)) if row else 0
        edit = draw(st.sampled_from(["odd", "quote", "drop", "add"]))
        if edit == "odd" and row:
            row[k] = draw(odd_fields)
        if edit in ("odd", "quote") and row and draw(st.booleans()):
            row[k] = '"' + row[k] + '"'
        elif edit == "drop" and row:
            del row[k]
        elif edit == "add":
            row.append(draw(odd_fields | st.just("1")))
    lines = [header] + [",".join(row) for row in rows]
    for _ in range(draw(st.integers(0, 2))):
        lines.insert(draw(st.integers(1, len(lines))), draw(st.sampled_from(["", "", "", " ", "\t"])))
    end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    text = end.join(lines) + (end if draw(st.booleans()) else "")
    return (b"\xef\xbb\xbf" if draw(st.booleans()) else b"") + text.encode("utf-8")


@settings(max_examples=300, deadline=None)
@given(curve_texts())
def test_from_csv_equals_a_row_by_row_oracle(data):
    # The same float bits, or the same DomainError text, as one float pair
    # per row.
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "curve.csv"
        path.write_bytes(data)
        results = []
        for read in (Curve.from_csv, row_by_row_from_csv):
            try:
                curve = read(path)
                results.append((curve.x.tobytes(), curve.y.tobytes(), curve.label))
            except DomainError as err:
                results.append(str(err))
    assert results[0] == results[1]


# --------------------------------------------- printed digits against mpmath

# The oracle evaluates simulate's chain exactly, to 50 digits, on the float
# inputs: the config's values, each grid point's float pressure and the c_m
# fit's coefficients as floats, with pi exact. Each output float lies within
# a first-order error bound of that exact value (Higham, Accuracy and
# Stability of Numerical Algorithms, 2nd ed., ch. 1-3), the sum of:
# - the solve tolerances. The stress inverse stops at a residual of
#   1e-12*max(1, sigma) and the axis solve at 1e-12*arc; the last Newton
#   step only shrinks that. A residual r moves a root by r over the slope
#   there, the root's condition number.
# - the rounding of each float stage. A stage of at most 16 operations,
#   each rounded with relative error at most u = 2**-53 (the standard model,
#   (2.4)), is off by at most 16u times the same expression evaluated with
#   every term made non-negative (Lemma 3.1 and the sum and product bounds
#   of ch. 3). _ROUNDING is that 16u.
# - the Cephes elliptic integral's 3e-16 relative error in the axis solve.
# - each stage's input errors times its partial derivatives.
# A printed "%.6f" cell must be the correctly rounded exact value, or the
# other neighbour of a rounding tie that lies within the bound of it; a JSON
# float, printed in full, must lie within the bound.
_ROUNDING = 16 * 2.0**-53
_CEPHES = 3e-16
_SOLVE_TOL = 1e-12
# The fitted c_m(t_w/h_ch, P) = -2.49*(t_w/h_ch) - 6.101*P + 11.457.
_CM_FIT = (-2.49, -6.101, 11.457)


def exact_arc(x, b):
    # Arc 2*major*E(1 - (minor/major)^2) of the half ellipse of horizontal
    # semi-axis x and vertical semi-axis b.
    major, minor = max(x, b), min(x, b)
    return 2 * major * mpmath.ellipe(1 - (minor / major) ** 2)


def exact_arc_slopes(x, b):
    # d(arc)/dx and d(arc)/db. With E, K at m = 1 - r^2, r = minor/major and
    # dE/dm = (E - K)/(2m): along the major axis 2E + 2(E - K)r^2/m, along
    # the minor one 2(K - E)r/m.
    major, minor = max(x, b), min(x, b)
    r = minor / major
    m = 1 - r * r
    e, k = mpmath.ellipe(m), mpmath.ellipk(m)
    along_major, along_minor = 2 * e + 2 * (e - k) * r * r / m, 2 * (k - e) * r / m
    return (along_major, along_minor) if x >= b else (along_minor, along_major)


def exact_axis(arc, chord, chord_bound, start):
    # The horizontal semi-axis of the half ellipse with this arc and vertical
    # chord, found from the float solve's result, and the bound on that
    # result's error: the residual tolerance, the arc's evaluation error and
    # the chord's error, over the slope in x.
    b = chord / 2
    x = mpmath.findroot(lambda x: exact_arc(x, b) - arc, (start, start * (1 + 1e-9)))
    along_x, along_b = exact_arc_slopes(x, b)
    residual = (_SOLVE_TOL + _CEPHES) * arc + _ROUNDING * (arc + along_x * x + along_b * b)
    return x, (residual + along_b * chord_bound / 2) / along_x


def exact_states(spec, pressures, columns):
    """One dict per pressure of one design's sweep: each float field's exact
    value and the bound on its float's error. The float columns only seed
    the root searches."""
    mpf = mpmath.mpf
    t_w, a_ch, b_ch, h_ch, h_jz, a_hz, b_hz = (mpf(getattr(spec.spa, name)) for name in SPA_FIELDS)
    c1, c2, c3 = (mpf(getattr(spec.material, name)) for name in ("c1", "c2", "c3"))
    sarc, n, jpm = spec.sarcomere, spec.n, spec.sarcomere.junctions_per_myosin
    a_band, arc = mpf(sarc.a_band), mpf(sarc.actin_arc)
    if sarc.myosin_height is None:
        rest_chord, rest_bound = mpf(sarc.i_band), 0
    else:
        rest_chord = sarc.myosin_height - 2 * t_w - h_ch
        rest_bound = _ROUNDING * (sarc.myosin_height + 2 * t_w + h_ch)
    # The float branch test t_w < h_ch/4 is exact.
    if spec.spa.t_w < spec.spa.h_ch / 4:
        k_wall = h_ch / (2 * t_w)
    else:
        k_wall = 1 + h_ch**2 / (2 * t_w * (t_w + h_ch))

    def stress(lam):
        # Yeoh stress, its slope, and the stress expression with every term
        # made non-negative, which bounds its float evaluation's error.
        u, geo = lam**2 + lam**-2 - 2, lam - lam**-3
        poly = 2 * c1 + 4 * c2 * u + 6 * c3 * u**2
        slope = (1 + 3 * lam**-4) * poly + 2 * geo**2 * (4 * c2 + 12 * c3 * u)
        s = lam**2 + lam**-2 + 4
        magnitude = (lam + lam**-3) * (2 * c1 + 4 * abs(c2) * s + 6 * abs(c3) * s**2)
        return geo * poly, slope, magnitude

    r0, r0_bound = exact_axis(arc, rest_chord, rest_bound, rest_chord / 2)
    l_rest = n * (a_band + 2 * r0)
    l_rest_bound = n * (2 * r0_bound + _ROUNDING * l_rest / n)
    states = []
    for i, p in enumerate(pressures):
        P = mpf(p)
        sigma = 2 * P * k_wall * a_ch * b_ch / (a_hz * b_hz)
        lam0 = columns["lambda_jz"][i]
        lam = mpmath.findroot(lambda x: stress(x)[0] - sigma, (lam0, lam0 * (1 + 1e-9)))
        _, slope, magnitude = stress(lam)
        # The inverse's residual: its tolerance, the rounding of the target
        # and of the stress evaluated at the float root.
        residual = _SOLVE_TOL * max(1, sigma) + _ROUNDING * (sigma + magnitude)
        lam_bound = residual / slope

        ratio = t_w / h_ch
        c_m = _CM_FIT[0] * ratio + _CM_FIT[1] * P + _CM_FIT[2]
        c_m_bound = _ROUNDING * (abs(_CM_FIT[0]) * ratio + abs(_CM_FIT[1]) * P + _CM_FIT[2])
        height = lam * h_jz + h_ch + 2 * t_w
        f_e = c_m * P * mpmath.pi * a_ch * height
        f_e_bound = abs(f_e) * (
            c_m_bound / abs(c_m) + (h_jz * lam_bound + _ROUNDING * height) / height + _ROUNDING
        )
        # sigma(lam) is the target itself; the float f_r is off by the
        # inverse's residual plus the stress's rounding at the float root.
        f_r = sigma * a_hz * b_hz
        f_r_bound = a_hz * b_hz * (residual + _ROUNDING * magnitude) + _ROUNDING * f_r
        f_spa = f_e - f_r
        f_spa_bound = f_e_bound + f_r_bound + _ROUNDING * abs(f_spa)
        stacked = 2 * t_w + h_ch + 2 * lam * h_jz
        cos_theta = stacked / arc
        theta = mpmath.acos(cos_theta)
        cos_bound = (2 * h_jz * lam_bound + _ROUNDING * stacked) / arc
        theta_bound = cos_bound / mpmath.sqrt(1 - cos_theta**2) + _ROUNDING * theta
        tan = mpmath.tan(theta)
        f_contr = f_spa * tan
        f_contr_bound = (
            tan * f_spa_bound + abs(f_spa) * (1 + tan**2) * theta_bound + _ROUNDING * abs(f_contr)
        )
        delta = jpm * (lam - 1) * h_jz
        chord = rest_chord + delta
        chord_bound = rest_bound + jpm * h_jz * (lam_bound + _ROUNDING * (lam + 1)) + _ROUNDING * chord
        r1, r1_bound = exact_axis(arc, chord, chord_bound, columns["r1"][i])
        l_mf = n * (a_band + 2 * r1)
        l_mf_bound = n * (2 * r1_bound + _ROUNDING * (a_band + 2 * r1))
        length_ratio = l_mf / l_rest
        ratio_bound = length_ratio * (l_mf_bound / l_mf + l_rest_bound / l_rest + _ROUNDING)
        states.append({
            "pressure": (P, 0),
            "lambda_jz": (lam, lam_bound),
            "c_m": (c_m, c_m_bound),
            "f_e": (f_e, f_e_bound),
            "f_r": (f_r, f_r_bound),
            "f_spa": (f_spa, f_spa_bound),
            "theta": (theta, theta_bound),
            "f_contr": (f_contr, f_contr_bound),
            "r1": (r1, r1_bound),
            "l_mf": (l_mf, l_mf_bound),
            "length_ratio": (length_ratio, ratio_bound),
        })
    return states


def rounded_text(x) -> str:
    # The "%.6f" text of the exact value x correctly rounded.
    q = abs(x) * 10**6
    k = int(mpmath.floor(q + mpmath.mpf(0.5)))
    return f"{'-' if x < 0 else ''}{k // 10**6}.{k % 10**6:06d}"


def check_printed(text, value, exact, bound, what):
    # A window narrower than half the last printed digit, so at most one
    # rounding tie lies in it, and text either neighbour of that tie.
    assert bound < 5e-7, what
    assert text in {rounded_text(exact - bound), rounded_text(exact + bound)}, (what, exact, bound)
    assert abs(value - exact) <= bound, (what, value, exact, bound)


def near(value):
    return st.floats(0.9 * value, 1.1 * value)


def ini(sections) -> str:
    return "".join(
        f"[{name}]\n" + "".join(f"{key} = {value}\n" for key, value in keys.items())
        for name, keys in sections.items()
    )


@st.composite
def oracle_runs(draw):
    """A config text and the CLI command that runs it: simulate of a design
    near configs/prototype.ini, or sweep at one or two of the study ratios of
    a design near configs/wall_ratio_study.ini. Either takes one built-in
    material and a [sweep] grid of 1-4 points that ends at up to its study
    grid's end."""
    name = draw(st.sampled_from(sorted(MATERIALS)))
    points = draw(st.integers(1, 4))
    end = draw(st.floats(0.1, 1.0)) * DEFAULT_PRESSURE_GRIDS[name].end
    grid = {"start": repr(end / points), "end": repr(end), "step": repr(end / points)}
    n = draw(st.integers(1, 3))
    if draw(st.booleans()):
        shipped = dict(zip(SPA_FIELDS, (1.5, 9.5, 10.0, 5.0, 2.0, 6.0, 15.0)))
        sarcomere = {"a_band": draw(near(30.0))}
        if draw(st.booleans()):
            sarcomere.update(actin_arc=draw(near(32.0)), myosin_height=draw(near(28.0)))
        sarcomere.update(junctions_per_myosin=draw(st.integers(1, 2)), n=n)
        command = ["simulate"]
    else:
        shipped = {"a_ch": 14.0, "b_ch": 14.0, "h_jz": 3.0, "a_hz": 6.0, "b_hz": 20.0, "assumed_h_ch": 10.0}
        sarcomere = {"a_band": draw(near(60.0)), "n": n}
        ratios = st.sampled_from(["1/5", "1/4", "1/3", "1/2", "1", "3/2"])
        chosen = draw(st.lists(ratios, min_size=1, max_size=2, unique=True))
        command = ["sweep", "--materials", name, "--ratios", ",".join(chosen)]
    spa = {key: draw(near(value)) for key, value in shipped.items()}
    text = ini({"material": {"name": name}, "spa": spa, "sarcomere": sarcomere, "sweep": grid})
    return text, command


def run_cli(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        assert main(argv) == 0
    return out.getvalue()


@pytest.mark.filterwarnings("ignore::UserWarning")
@settings(max_examples=40, deadline=None)
@given(oracle_runs())
def test_printed_digits_equal_an_mpmath_oracle(run):
    # Every float that simulate and sweep print, as a "%.6f" CSV cell and as
    # a JSON float, against the exact chain on the same inputs; a sweep's
    # cell maxima and their mean too.
    text, command = run
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "run.ini"
        path.write_text(text, encoding="utf-8")
        argv = [command[0], "--config", str(path), *command[1:]]
        csv_rows = [line.split(",") for line in run_cli(argv).splitlines()[1:]]
        document = json.loads(run_cli([*argv, "--format", "json"]))
        config = load_config(path)
    pressures = config.sweep.pressures()
    if command[0] == "simulate":
        specs = [config.build_spec()]
        cells = [(csv_rows, document)]
    else:
        specs = [config.spec_with_spa(config.spa_for_ratio(parse_ratio(r)), MATERIALS[command[2]])
                 for r in command[4].split(",")]
        count = len(pressures)
        cells = [(csv_rows[i * count:(i + 1) * count], cell) for i, cell in enumerate(document["cells"])]
    assert len(csv_rows) == len(specs) * len(pressures)
    fields = list(zip(ActuationState._fields, STATE_COLUMNS))
    maxima = []
    with mpmath.workdps(50):
        for spec, (rows, cell) in zip(specs, cells, strict=True):
            # A sweep row holds material, ratio and h_ch before the states.
            offset = 3 if command[0] == "sweep" else 0
            columns = {name: [state[key] for state in cell["states"]] for name, key in fields}
            exact = exact_states(spec, pressures, columns)
            for row, state, point in zip(rows, cell["states"], exact, strict=True):
                for i, (name, key) in enumerate(fields[:-1]):
                    check_printed(row[offset + i], state[key], *point[name], name)
                ratio, bound = point["length_ratio"]
                flags = {check_length_ratio(float(ratio + side), 1.0) for side in (-bound, bound)}
                assert row[offset + 11] == state["ratio_flag"] and state["ratio_flag"] in flags
            # The largest f_spa of a cell is within the largest bound of the
            # cell's f_spa values.
            top = (max(point["f_spa"][0] for point in exact), max(point["f_spa"][1] for point in exact))
            maxima.append(top)
            if command[0] == "sweep":
                for row in rows:
                    check_printed(row[-2], cell["max_f_spa_n"], *top, "max_f_spa")
        if command[0] == "sweep":
            mean = sum(value for value, _ in maxima) / len(maxima)
            mean_bound = sum(bound for _, bound in maxima) / len(maxima) + _ROUNDING * abs(mean)
            for rows, cell in cells:
                for row in rows:
                    check_printed(row[-1], cell["mean_max_f_spa_n"], mean, mean_bound, "mean_max_f_spa")
