import math
from itertools import accumulate

import numpy as np
import pytest

from apmsim import actuation
from apmsim.actuation import (
    MAX_GRID_POINTS,
    ActuationState,
    LoadedTrial,
    PressureSweep,
    actuation_strain,
    adjustment_coefficient,
    contraction_force,
    expansion_force,
    junction_stretch,
    restoring_force,
    simulate_cells,
    simulate_pressure,
    simulate_sweep,
)
from apmsim.errors import DataError, DomainError, UnbracketedRootError
from apmsim.geometry import RATIO_VALID, MyofibrilSpec, SpaGeometry, design_from_a_band
from apmsim.material import MATERIALS, cauchy_stress, wall_stress_factor

PROTO_SPA = SpaGeometry(t_w=1.5, a_ch=9.5, b_ch=10.0, h_ch=5.0, h_jz=2.0, a_hz=6.0, b_hz=15.0)
DRAGONSKIN = MATERIALS["dragonskin-30"]

# Chamber-array cross-section of the wall-ratio study; the chamber height is
# the assumed 10 mm and the A-band is chosen large enough to keep the
# contraction geometry feasible over the whole ratio range.
STUDY_DIMS = dict(a_ch=14.0, b_ch=14.0, h_jz=3.0, a_hz=6.0, b_hz=20.0)
STUDY_GRIDS = {
    "ecoflex-00-30": PressureSweep(0.001, 0.011, 0.001),
    "elastosil-m4601": PressureSweep(0.01, 0.085, 0.005),
    "smooth-sil-950": PressureSweep(0.02, 0.22, 0.02),
}
STUDY_RATIOS = (1 / 5, 1 / 4, 1 / 3, 1 / 2, 1.0, 3 / 2)


def proto_spec(n=1):
    return MyofibrilSpec(
        n=n, sarcomere=design_from_a_band(30.0), spa=PROTO_SPA, material=DRAGONSKIN
    )


def study_spec(material_name, ratio, assumed_h_ch=10.0):
    spa = SpaGeometry(t_w=ratio * assumed_h_ch, h_ch=assumed_h_ch, **STUDY_DIMS)
    return MyofibrilSpec(
        n=1,
        sarcomere=design_from_a_band(60.0),
        spa=spa,
        material=MATERIALS[material_name],
    )


def per_cell(columns, counts):
    # Each cell's columns: its row range of simulate_cells' columns.
    bounds = list(accumulate(counts, initial=0))
    return [[column[a:b] for column in columns] for a, b in zip(bounds, bounds[1:])]


def bisect_stress(material, sigma, lo=1.0, hi=5.0, iters=80):
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if cauchy_stress(material, mid) < sigma:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# ------------------------------------------------------------ pressure sweeps

def test_sweep_grid_counts():
    assert len(PressureSweep(0.001, 0.011, 0.001).pressures()) == 11
    assert len(PressureSweep(0.01, 0.085, 0.005).pressures()) == 16
    assert len(PressureSweep(0.02, 0.22, 0.02).pressures()) == 11


def test_sweep_degenerate_grids():
    assert PressureSweep(0.05, 0.05, 0.01).pressures() == [0.05]
    assert PressureSweep(0.0, 0.004, 0.01).pressures() == [0.0]


def test_sweep_invariants():
    with pytest.raises(DomainError):
        PressureSweep(-0.01, 0.1, 0.01)
    with pytest.raises(DomainError):
        PressureSweep(0.2, 0.1, 0.01)
    with pytest.raises(DomainError):
        PressureSweep(0.0, 0.1, 0.0)


@pytest.mark.parametrize(
    "start, end, step",
    [
        (math.nan, 0.1, 0.01),
        (0.0, math.nan, 0.01),
        (0.0, 0.1, math.nan),
        (0.0, math.inf, 0.01),
        (math.inf, math.inf, 0.01),
        (0.0, 0.1, math.inf),
        (0.0, 0.1, -math.inf),
    ],
)
def test_sweep_rejects_non_finite_values(start, end, step):
    with pytest.raises(DomainError, match="finite"):
        PressureSweep(start, end, step)


def test_sweep_point_cap_is_checked_before_any_grid_is_built():
    # Exact binary values: end/step whole steps give end/step + 1 points.
    # Only the constructor runs, so no grid is allocated.
    PressureSweep(0.0, MAX_GRID_POINTS - 1.0, 1.0)
    for end, step in ((float(MAX_GRID_POINTS), 1.0), (0.1, 1e-12), (1e308, 5e-324)):
        with pytest.raises(DomainError, match=f"more than {MAX_GRID_POINTS} points"):
            PressureSweep(0.0, end, step)


def test_sweep_cap_counts_the_points_pressures_builds(monkeypatch):
    # A small cap, so the grids at it are cheap to build; 0.6 / 0.1 rounds
    # below 6 in floating point, and the check must count it as pressures()
    # does.
    monkeypatch.setattr(actuation, "MAX_GRID_POINTS", 7)
    assert len(PressureSweep(0.0, 0.6, 0.1).pressures()) == 7
    assert len(PressureSweep(0.1, 0.74, 0.1).pressures()) == 7
    for end in (0.7, 0.76):
        with pytest.raises(DomainError, match="more than 7 points"):
            PressureSweep(0.0, end, 0.1)


# ---------------------------------------------------------- junction stretch

def test_junction_stretch_zero_pressure():
    assert junction_stretch(0.0, PROTO_SPA, DRAGONSKIN) == 1.0


def test_junction_stretch_reference_chain():
    # sigma_w = P*K, junction stress spreads the wall force over the H-zone.
    k = wall_stress_factor(1.5, 5.0)
    sigma_jz = 2.0 * 0.1 * k * 9.5 * 10.0 / (6.0 * 15.0)
    assert sigma_jz == pytest.approx(0.481767, abs=1e-6)
    lam = junction_stretch(0.1, PROTO_SPA, DRAGONSKIN)
    assert lam == pytest.approx(bisect_stress(DRAGONSKIN, sigma_jz), abs=1e-9)
    assert lam == pytest.approx(1.93, abs=0.005)


def test_junction_stretch_rejects_negative_pressure():
    with pytest.raises(DomainError):
        junction_stretch(-0.01, PROTO_SPA, DRAGONSKIN)


def test_junction_stretch_pressure_out_of_range():
    with pytest.raises(UnbracketedRootError, match="pressure"):
        junction_stretch(2.0, PROTO_SPA, DRAGONSKIN)


@pytest.mark.parametrize("name", sorted(STUDY_GRIDS))
def test_junction_stretch_strictly_increasing(name):
    material = MATERIALS[name]
    for ratio in STUDY_RATIOS:
        spa = SpaGeometry(t_w=ratio * 10.0, h_ch=10.0, **STUDY_DIMS)
        lams = [junction_stretch(p, spa, material) for p in STUDY_GRIDS[name].pressures()]
        assert all(b > a for a, b in zip(lams, lams[1:]))


def test_junction_stretch_small_pressure_linearization():
    # d(sigma)/d(lambda) at rest is 8*c1, so lambda - 1 ~ sigma/(8*c1).
    for name in ("dragonskin-30", "elastosil-m4601", "smooth-sil-950"):
        material = MATERIALS[name]
        p = 1e-5
        k = wall_stress_factor(PROTO_SPA.t_w, PROTO_SPA.h_ch)
        sigma_jz = 2.0 * p * k * PROTO_SPA.a_ch * PROTO_SPA.b_ch / (PROTO_SPA.a_hz * PROTO_SPA.b_hz)
        lam = junction_stretch(p, PROTO_SPA, material)
        assert lam - 1.0 == pytest.approx(sigma_jz / (8.0 * material.c1), rel=0.01)


# ------------------------------------------------------ adjustment coefficient

def test_adjustment_coefficient_intercept():
    assert adjustment_coefficient(0.0, 0.0) == pytest.approx(11.457, abs=1e-12)


def test_adjustment_coefficient_values():
    assert adjustment_coefficient(0.3, 0.1) == pytest.approx(
        -2.49 * 0.3 - 6.101 * 0.1 + 11.457, abs=1e-12
    )
    assert adjustment_coefficient(0.3, 0.1) == pytest.approx(10.0999, abs=1e-9)
    assert adjustment_coefficient(1.5, 0.22) == pytest.approx(6.37978, abs=1e-9)


def test_adjustment_coefficient_affine_slopes():
    rng = np.random.default_rng(3)
    for _ in range(20):
        r, p = rng.uniform(0.05, 2.0), rng.uniform(0.0, 0.25)
        base = adjustment_coefficient(r, p)
        assert adjustment_coefficient(r + 1.0, p) - base == pytest.approx(-2.49, abs=1e-9)
        assert adjustment_coefficient(r, p + 0.1) - base == pytest.approx(-0.6101, abs=1e-9)


# -------------------------------------------------------------------- forces

def test_expansion_force_zero_pressure():
    assert expansion_force(0.0, PROTO_SPA, 1.5, 10.0) == 0.0


def test_expansion_force_direct_substitution():
    expected = 10.1018 * 0.1 * math.pi * 9.5 * (1.93 * 2.0 + 5.0 + 3.0)
    assert expansion_force(0.1, PROTO_SPA, 1.93, 10.1018) == pytest.approx(expected, rel=1e-12)
    assert expected == pytest.approx(357.8, abs=0.5)


def test_expansion_force_affine_in_stretch():
    f1 = expansion_force(0.1, PROTO_SPA, 1.2, 10.0)
    f2 = expansion_force(0.1, PROTO_SPA, 1.4, 10.0)
    f3 = expansion_force(0.1, PROTO_SPA, 1.6, 10.0)
    assert f2 > f1
    assert f3 - f2 == pytest.approx(f2 - f1, rel=1e-9)


def test_restoring_force_rest():
    assert restoring_force(1.0, PROTO_SPA, DRAGONSKIN) == 0.0


def test_restoring_force_is_stress_times_area():
    lam = 1.93
    expected = cauchy_stress(DRAGONSKIN, lam) * 6.0 * 15.0
    assert restoring_force(lam, PROTO_SPA, DRAGONSKIN) == pytest.approx(expected, rel=1e-12)
    assert expected == pytest.approx(43.36, abs=0.25)


def test_restoring_force_matches_wall_force_identity():
    # The stretch is defined by pushing the wall force through the H-zone, so
    # the restoring force at that stretch must reproduce 2*P*K*a_ch*b_ch.
    rng = np.random.default_rng(17)
    materials = list(MATERIALS.values())
    checked = 0
    while checked < 50:
        spa = SpaGeometry(
            t_w=rng.uniform(0.5, 5.0),
            a_ch=rng.uniform(5.0, 20.0),
            b_ch=rng.uniform(5.0, 20.0),
            h_ch=rng.uniform(2.0, 12.0),
            h_jz=rng.uniform(1.0, 5.0),
            a_hz=rng.uniform(4.0, 10.0),
            b_hz=rng.uniform(10.0, 25.0),
        )
        material = materials[checked % len(materials)]
        p = rng.uniform(0.001, 0.02)
        try:
            lam = junction_stretch(p, spa, material)
        except UnbracketedRootError:
            continue  # soft material with an unreachable stress; redraw
        wall_force = 2.0 * p * wall_stress_factor(spa.t_w, spa.h_ch) * spa.a_ch * spa.b_ch
        assert restoring_force(lam, spa, material) == pytest.approx(wall_force, rel=1e-6)
        checked += 1


def test_contraction_force_identities():
    assert contraction_force(0.0, 0.7) == 0.0
    assert contraction_force(12.5, math.pi / 4.0) == pytest.approx(12.5, rel=1e-12)
    with pytest.raises(DomainError):
        contraction_force(1.0, math.pi / 2.0)
    with pytest.raises(DomainError):
        contraction_force(1.0, 0.0)


# ------------------------------------------------------------------ pipeline

def test_zero_pressure_state_is_rest_state():
    state = simulate_pressure(proto_spec(), 0.0)
    assert state.lambda_jz == 1.0
    assert state.f_e == 0.0
    assert state.f_r == 0.0
    assert state.f_spa == 0.0
    assert state.f_contr == 0.0
    assert state.length_ratio == 1.0
    assert state.ratio_flag == "valid"


def test_full_chain_reference_pressure():
    state = simulate_pressure(proto_spec(), 0.1)
    assert state.lambda_jz == pytest.approx(1.934, abs=0.001)
    assert state.f_e == pytest.approx(357.7, abs=0.5)
    assert state.f_r == pytest.approx(43.36, abs=0.05)
    assert state.f_spa == pytest.approx(state.f_e - state.f_r, rel=1e-12)
    # The printed-formula force is orders of magnitude above the measured
    # sub-newton output; the chain is checked for consistency, not value.
    assert state.f_contr == pytest.approx(state.f_spa * math.tan(state.theta), rel=1e-12)
    assert state.f_contr > 0.0
    assert math.isfinite(state.f_contr)


def test_f_spa_increasing_on_study_grids():
    for name, grid in STUDY_GRIDS.items():
        for ratio in STUDY_RATIOS:
            spec = study_spec(name, ratio)
            forces = [s.f_spa for s in simulate_sweep(spec, grid)]
            assert all(b > a for a, b in zip(forces, forces[1:])), (name, ratio)


def test_stiffness_ordering_of_mean_maxima():
    means = {}
    for name, grid in STUDY_GRIDS.items():
        maxima = []
        for ratio in STUDY_RATIOS:
            states = simulate_sweep(study_spec(name, ratio), grid)
            maxima.append(max(s.f_spa for s in states))
        means[name] = sum(maxima) / len(maxima)
    assert means["ecoflex-00-30"] < means["elastosil-m4601"] < means["smooth-sil-950"]


def test_simulate_sweep_shapes():
    spec = study_spec("ecoflex-00-30", 0.5)
    states = simulate_sweep(spec, STUDY_GRIDS["ecoflex-00-30"])
    assert len(states) == 11
    pressures = [s.pressure for s in states]
    assert pressures == sorted(pressures)
    assert simulate_sweep(spec, PressureSweep(0.005, 0.005, 0.001))[0].pressure == 0.005


def test_simulate_sweep_reports_offending_pressure():
    spec = proto_spec()
    with pytest.raises(DomainError, match="2.000000"):
        simulate_sweep(spec, PressureSweep(2.0, 2.0, 0.1))


# ----------------------------------------------------------- actuation strain

def test_actuation_strain_zero_change():
    trial = LoadedTrial(load_mass_g=50.0, lengths={0.0: 165.0, 0.08: 165.0},
                        resting_unloaded=165.0)
    assert actuation_strain(trial, 0.08) == 0.0
    assert actuation_strain(trial, 0.0) == 0.0


def test_actuation_strain_contraction_value():
    trial = LoadedTrial(load_mass_g=0.0, lengths={0.0: 165.0, 0.08: 144.4},
                        resting_unloaded=165.0)
    assert actuation_strain(trial, 0.08) == pytest.approx(-0.1248, abs=5e-5)
    assert actuation_strain(trial, 0.08) < 0.0


def test_actuation_strain_sign_flip_on_stretch():
    trial = LoadedTrial(load_mass_g=100.0, lengths={0.0: 165.0, 0.05: 170.0},
                        resting_unloaded=165.0)
    assert actuation_strain(trial, 0.05) > 0.0


def test_actuation_strain_missing_records():
    trial = LoadedTrial(load_mass_g=10.0, lengths={0.0: 165.0}, resting_unloaded=165.0)
    with pytest.raises(DataError):
        actuation_strain(trial, 0.07)
    no_zero = LoadedTrial(load_mass_g=10.0, lengths={0.05: 160.0}, resting_unloaded=165.0)
    with pytest.raises(DataError):
        actuation_strain(no_zero, 0.05)


def test_loaded_trial_rejects_nonpositive_lengths():
    with pytest.raises(DomainError):
        LoadedTrial(load_mass_g=10.0, lengths={0.0: -1.0}, resting_unloaded=165.0)


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_loaded_trial_rejects_non_finite_lengths(value):
    with pytest.raises(DomainError, match="positive and finite"):
        LoadedTrial(load_mass_g=10.0, lengths={0.0: value}, resting_unloaded=165.0)
    with pytest.raises(DomainError, match="positive and finite"):
        LoadedTrial(load_mass_g=10.0, lengths={0.0: 165.0}, resting_unloaded=value)


# ------------------------------------------------------------ batched cells

def test_adjustment_coefficient_rejects_nan():
    with pytest.raises(DomainError, match="wall ratio must be non-negative, got nan"):
        adjustment_coefficient(math.nan, 0.1)
    with pytest.raises(DomainError, match="pressure must be non-negative, got nan"):
        adjustment_coefficient(0.1, math.nan)


def test_adjustment_coefficient_array_names_first_bad_ratio():
    with pytest.raises(DomainError, match="wall ratio must be non-negative, got -0.5"):
        adjustment_coefficient(np.array([0.1, -0.5, math.nan]), 0.1)
    ratios = np.array([0.0, 0.3, 1.5])
    assert adjustment_coefficient(ratios, 0.1).tolist() == [
        adjustment_coefficient(r, 0.1) for r in ratios.tolist()
    ]


def test_simulate_cells_of_no_cells():
    assert simulate_cells([]) == ([], [])


def test_simulate_cells_first_failing_cell_reports():
    fine = (study_spec("ecoflex-00-30", 0.5), STUDY_GRIDS["ecoflex-00-30"])
    # The prototype passes below 0.5 MPa and fails from 0.8 MPa on.
    at_2 = (proto_spec(), PressureSweep(0.1, 2.0, 1.9))
    at_3 = (proto_spec(), PressureSweep(0.2, 3.0, 2.8))
    with pytest.raises(DomainError, match="^at pressure 2.000000 MPa"):
        simulate_cells([fine, at_2, at_3])
    with pytest.raises(DomainError, match="^at pressure 3.000000 MPa"):
        simulate_cells([fine, at_3, at_2])


def test_simulate_cells_is_one_pipeline_pass(monkeypatch):
    passes = []
    simulate = actuation.simulate_pressure

    def counting(spec, pressure):
        passes.append([len(grid) for grid in pressure])
        return simulate(spec, pressure)

    monkeypatch.setattr(actuation, "simulate_pressure", counting)
    cells = [(study_spec(name, r), grid) for name, grid in STUDY_GRIDS.items() for r in (0.2, 1.0)]
    columns, counts = simulate_cells(cells)
    results = per_cell(columns, counts)
    assert passes == [[len(grid.pressures()) for _, grid in cells]]
    # Each cell gets one column per ActuationState field, cut to its grid.
    assert [len(columns) for columns in results] == [len(ActuationState._fields)] * len(cells)
    assert [{len(column) for column in columns} for columns in results] == [{n} for n in passes[0]]


def test_simulate_cells_hands_on_the_pass_columns(monkeypatch):
    # The columns are the one pass's own arrays, each cell's count is its
    # grid's length, and its row range of the columns is its own sweep. Each
    # distinct sweep's grid is built once, however many cells share it.
    states, built = [], []
    simulate, grid = actuation.simulate_pressure, PressureSweep._grid

    def recording(spec, pressure):
        states.append(simulate(spec, pressure))
        return states[-1]

    def counting(sweep):
        built.append(sweep)
        return grid(sweep)

    cells = [(study_spec(name, r), sweep) for name, sweep in STUDY_GRIDS.items() for r in (0.2, 0.5, 1.0)]
    # A sweep equal to the first, made apart from it, and a one-point grid.
    cells += [(study_spec("ecoflex-00-30", 1.5), PressureSweep(0.001, 0.011, 0.001)),
              (proto_spec(), PressureSweep(0.0, 0.0, 0.01))]
    monkeypatch.setattr(actuation, "simulate_pressure", recording)
    monkeypatch.setattr(PressureSweep, "_grid", counting)
    columns, counts = simulate_cells(cells)
    assert len(states) == 1
    assert all(column is field for column, field in zip(columns, states[0], strict=True))
    assert built == [*STUDY_GRIDS.values(), PressureSweep(0.0, 0.0, 0.01)]
    assert counts == [11, 11, 11, 16, 16, 16, 11, 11, 11, 11, 1]
    monkeypatch.undo()
    for (spec, sweep), cell in zip(cells, per_cell(columns, counts), strict=True):
        assert list(zip(*(column.tolist() for column in cell))) == simulate_sweep(spec, sweep)


def test_float_pressure_gives_plain_python_values():
    # A float pressure is the size-1 case: each field is the Python value of
    # its one element, the flag the RATIO_* constant itself.
    state = simulate_pressure(proto_spec(), 0.05)
    assert [type(value) for value in state] == [float] * (len(state) - 1) + [str]
    assert state.ratio_flag is RATIO_VALID


def test_simulate_pressure_batch_equals_single_designs():
    specs = [study_spec("ecoflex-00-30", 0.2), proto_spec(n=2), study_spec("smooth-sil-950", 1.5)]
    grids = [np.linspace(0.0, 0.01, 4), np.array([0.05]), np.linspace(0.02, 0.2, 7)]
    batch = simulate_pressure(specs, grids)
    for name in batch._fields:
        alone = np.concatenate([simulate_pressure(s, g)._asdict()[name] for s, g in zip(specs, grids)])
        assert batch._asdict()[name].tolist() == alone.tolist(), name
