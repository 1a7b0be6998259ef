"""Pressure-to-output pipeline for one myofibril design.

For a fluid pressure P (MPa) the chain is: wall stress P*K -> junction-zone
stress -> junction stretch lambda_jz (stress inversion) -> expansion and
restoring forces -> net actuator force F_spa -> contraction force through
the actin angle -> deformed geometry and length ratio. Pressures and
stresses are in MPa and lengths in mm, so forces come out in newtons.

Every stage takes a float or an ndarray of pressures, so a pressure sweep is
one pass of the chain over the whole grid; a single pressure is the size-1
case. Grid points are independent: each point's values do not depend on the
rest of the grid, and the output order is the grid order. A batch of
designs is one pass too: simulate_pressure concatenates their grids and
repeats each design's parameters over its own grid points, and
simulate_cells runs a batch of sweeps that way.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import islice
from typing import NamedTuple

import numpy as np

from ._numeric import check_positive_finite, first_index, flatten, unflatten
from .errors import DataError, DomainError, UnbracketedRootError
from .geometry import (
    MyofibrilSpec,
    SpaGeometry,
    _major_axis,
    _per_design,
    _rest_chord,
    _rest_stack,
    check_length_ratio,
    contraction_angle,
    myofibril_length,
)
from .material import (
    DEFAULT_LAMBDA_MAX,
    YeohMaterial,
    cauchy_stress,
    inverse_cauchy_stress,
    wall_stress_factor,
)

# Fitted adjustment-coefficient surface c_m(t_w/h_ch, P).
_CM_RATIO_SLOPE = -2.49
_CM_PRESSURE_SLOPE = -6.101
_CM_INTERCEPT = 11.457

# Largest pressure grid a PressureSweep accepts.
MAX_GRID_POINTS = 100_000


@dataclass(frozen=True)
class PressureSweep:
    """An inclusive pressure grid start..end (MPa) in increments of step,
    of at most MAX_GRID_POINTS points. Every value must be finite."""

    start: float
    end: float
    step: float

    def __post_init__(self) -> None:
        # Written so that NaN fails every check.
        if not (math.isfinite(self.start) and math.isfinite(self.end)):
            raise DomainError(
                f"start and end must be finite, got start={self.start}, end={self.end}"
            )
        if not 0.0 <= self.start <= self.end:
            raise DomainError(
                f"need 0 <= start <= end, got start={self.start}, end={self.end}"
            )
        if not (self.step > 0.0 and math.isfinite(self.step)):
            raise DomainError(f"step must be positive and finite, got {self.step}")
        # pressures() has floor(q + 0.5) + 1 points; q + 0.5 is checked as a
        # float, so an overflowing count is rejected before any grid is built.
        if not (self.end - self.start) / self.step + 0.5 < MAX_GRID_POINTS:
            raise DomainError(
                f"grid start={self.start}, end={self.end}, step={self.step} "
                f"has more than {MAX_GRID_POINTS} points"
            )

    def pressures(self) -> list[float]:
        """Grid points start + i*step; the end point is kept when it lands
        within half a step of the last increment."""
        count = math.floor((self.end - self.start) / self.step + 0.5)
        return [self.start + i * self.step for i in range(count + 1)]


class ActuationState(NamedTuple):
    """Every computed quantity at one pressure point, as an immutable
    NamedTuple.

    pressure in MPa; lambda_jz dimensionless; forces in N; theta in rad;
    r1 and l_mf in mm; length_ratio relative to the zero-pressure length;
    ratio_flag is the check_length_ratio classification. The field order is
    the output column order (cli.STATE_COLUMNS), so the CLI formats a state
    as a plain tuple. simulate_pressure given an ndarray of pressures fills
    every field with an ndarray of the same shape.
    """

    pressure: float
    lambda_jz: float
    c_m: float
    f_e: float
    f_r: float
    f_spa: float
    theta: float
    f_contr: float
    r1: float
    l_mf: float
    length_ratio: float
    ratio_flag: str


@dataclass(frozen=True)
class LoadedTrial:
    """Measured myofibril lengths (mm) under one hanging load.

    lengths maps pressure (MPa) to the loaded length; it must contain the
    zero-pressure entry. resting_unloaded is the length with neither load
    nor pressure.
    """

    load_mass_g: float
    lengths: dict[float, float]
    resting_unloaded: float

    def __post_init__(self) -> None:
        check_positive_finite("resting unloaded length", self.resting_unloaded)
        for p, length in self.lengths.items():
            check_positive_finite(f"length at P={p}", length)


def junction_stretch(
    pressure: float | np.ndarray,
    spa: SpaGeometry,
    material: YeohMaterial,
    lambda_max: float = DEFAULT_LAMBDA_MAX,
) -> float | np.ndarray:
    """Junction-zone stretch lambda_jz >= 1 at a fluid pressure (MPa).

    The chamber walls push on each other with force 2*sigma_w*a_ch*b_ch;
    spreading that force over the H-zone cross-section a_hz*b_hz gives the
    junction stress, and inverting the material's stress curve gives the
    stretch. Strictly increasing in pressure; exactly 1 at zero pressure.
    Takes a float or an ndarray of pressures.
    """
    _check_pressure(pressure)
    sigma_w = pressure * wall_stress_factor(spa.t_w, spa.h_ch)
    sigma_jz = 2.0 * sigma_w * spa.a_ch * spa.b_ch / (spa.a_hz * spa.b_hz)
    try:
        return inverse_cauchy_stress(material, sigma_jz, lambda_max)
    except UnbracketedRootError as err:
        raise UnbracketedRootError(
            f"pressure {np.ravel(pressure)[err.index]:.6g} MPa out of range: {err}", err.index
        ) from err


def _check_pressure(pressure: float | np.ndarray) -> None:
    flat = np.ravel(pressure)
    bad = first_index(~(flat >= 0.0))
    if bad is not None:
        raise DomainError(f"pressure must be non-negative, got {flat[bad]}")


def adjustment_coefficient(
    tw_hch_ratio: float | np.ndarray, pressure: float | np.ndarray
) -> float | np.ndarray:
    """Fitted expansion-force adjustment coefficient c_m.

    Affine in the wall ratio and the pressure (floats or ndarrays that
    broadcast together): c_m = -2.49*(t_w/h_ch) - 6.101*P + 11.457. A
    negative or NaN ratio or pressure raises DomainError.
    """
    ratio = np.ravel(tw_hch_ratio)
    bad = first_index(~(ratio >= 0.0))
    if bad is not None:
        raise DomainError(f"wall ratio must be non-negative, got {ratio[bad]}")
    _check_pressure(pressure)
    return _CM_RATIO_SLOPE * tw_hch_ratio + _CM_PRESSURE_SLOPE * pressure + _CM_INTERCEPT


def expansion_force(
    pressure: float, spa: SpaGeometry, lambda_jz: float, c_m: float
) -> float:
    """Expansion force F_e (N) driving the junction zone apart.

    F_e = c_m * P * pi * a_ch * (lambda_jz*h_jz + h_ch + 2*t_w); zero at
    zero pressure and affine-increasing in lambda_jz.
    """
    return (
        c_m
        * pressure
        * math.pi
        * spa.a_ch
        * (lambda_jz * spa.h_jz + spa.h_ch + 2.0 * spa.t_w)
    )


def restoring_force(lambda_jz: float, spa: SpaGeometry, material: YeohMaterial) -> float:
    """Elastic restoring force F_r (N) of the stretched junction zone.

    The junction stress at lambda_jz acts on the H-zone cross-section:
    F_r = cauchy_stress(lambda_jz) * a_hz * b_hz. By construction of
    junction_stretch this equals the wall force 2*sigma_w*a_ch*b_ch up to the
    inversion tolerance.
    """
    return cauchy_stress(material, lambda_jz) * spa.a_hz * spa.b_hz


def contraction_force(f_spa: float | np.ndarray, theta: float | np.ndarray) -> float | np.ndarray:
    """Contraction force F_contr = F_spa * tan(theta), theta in (0, pi/2)."""
    shape, (force, angle) = flatten(f_spa, theta)
    bad = first_index(~((0.0 < angle) & (angle < math.pi / 2.0)))
    if bad is not None:
        raise DomainError(f"theta must lie in (0, pi/2), got {angle[bad]}")
    return unflatten(force * np.tan(angle), shape)


class _Points(NamedTuple):
    """Design parameters at the pressure points of one pipeline pass.

    For one design each field holds its value, which broadcasts over the
    pressures. For a batch of designs each field holds one value per design
    (see _design_points) or, once _per_point repeated it over the designs'
    grids, one value per pressure point. The SPA and Yeoh fields carry the
    SpaGeometry and YeohMaterial field names, so the stage functions read
    the record as their spa and material; name joins the material names.
    geometry._rest_chord gives the rest chord from rest_height, rest_t_w and
    rest_h_ch.
    """

    t_w: float | np.ndarray
    a_ch: float | np.ndarray
    b_ch: float | np.ndarray
    h_ch: float | np.ndarray
    h_jz: float | np.ndarray
    a_hz: float | np.ndarray
    b_hz: float | np.ndarray
    name: str
    c1: float | np.ndarray
    c2: float | np.ndarray
    c3: float | np.ndarray
    actin_arc: float | np.ndarray
    a_band: float | np.ndarray
    n: int | np.ndarray
    junctions_per_myosin: int | np.ndarray
    rest_height: float | np.ndarray
    rest_t_w: float | np.ndarray
    rest_h_ch: float | np.ndarray


def _design_values(spec: MyofibrilSpec) -> tuple:
    spa, sarc, material = spec.spa, spec.sarcomere, spec.material
    return (
        spa.t_w, spa.a_ch, spa.b_ch, spa.h_ch, spa.h_jz, spa.a_hz, spa.b_hz,
        material.name, material.c1, material.c2, material.c3,
        sarc.actin_arc, sarc.a_band, spec.n, sarc.junctions_per_myosin,
        *_rest_stack(spec),
    )


def _design_points(spec: MyofibrilSpec | Sequence[MyofibrilSpec]) -> _Points:
    # The values of one design, or one array per field over a batch.
    points = _Points(*_per_design(spec, _design_values))
    if isinstance(spec, MyofibrilSpec):
        return points
    return points._replace(name=", ".join(dict.fromkeys(points.name.tolist())))


def _per_point(value, counts: Sequence[int]):
    # A batch's per-design array repeated over the designs' grids, counts[i]
    # points for design i. One design's value, and a batch of one's, is used
    # as it is and broadcasts over the grid.
    return np.repeat(value, counts) if len(counts) > 1 and np.ndim(value) else value


def simulate_pressure(
    spec: MyofibrilSpec | Sequence[MyofibrilSpec], pressure: float | np.ndarray | Sequence[np.ndarray]
) -> ActuationState:
    """Evaluate the full pipeline at a pressure and return the state.

    For an ndarray of pressures every field of the state is an ndarray of
    that shape, computed in one pass over the whole array; a float pressure
    is the size-1 case and gives plain floats. A batch of designs is one
    pass too: for a sequence of specs, pressure is a sequence of 1-d arrays,
    one per spec, and every field is a flat array over their concatenation.
    The length ratio is taken against the zero-deformation length of the
    same design (identical to resting_length for rule-conforming
    geometries), solved once per design; it is exactly 1 at zero pressure.
    """
    counts: Sequence[int] = ()
    if not isinstance(spec, MyofibrilSpec):
        counts = [len(grid) for grid in pressure]
        pressure = np.concatenate(pressure)
    designs = _design_points(spec)
    d = _Points(*(_per_point(value, counts) for value in designs))
    lam = junction_stretch(pressure, d, d)
    c_m = adjustment_coefficient(d.t_w / d.h_ch, pressure)
    f_e = expansion_force(pressure, d, lam, c_m)
    f_r = restoring_force(lam, d, d)
    f_spa = f_e - f_r
    theta = contraction_angle(d, lam, d.actin_arc)
    f_contr = contraction_force(f_spa, theta)
    delta_hm = d.junctions_per_myosin * (lam - 1.0) * d.h_jz
    rest_chord = _rest_chord(designs.rest_height, designs.rest_t_w, designs.rest_h_ch)
    r1 = _major_axis(d.actin_arc, _per_point(rest_chord, counts), delta_hm)
    l_mf = d.n * (d.a_band + 2.0 * r1)
    l_rest = _per_point(myofibril_length(spec, 0.0), counts)
    return ActuationState(
        pressure=pressure,
        lambda_jz=lam,
        c_m=c_m,
        f_e=f_e,
        f_r=f_r,
        f_spa=f_spa,
        theta=theta,
        f_contr=f_contr,
        r1=r1,
        l_mf=l_mf,
        length_ratio=l_mf / l_rest,
        ratio_flag=check_length_ratio(l_mf, l_rest),
    )


def simulate_cells(
    cells: Sequence[tuple[MyofibrilSpec, PressureSweep]],
) -> list[list[ActuationState]]:
    """One list of ActuationStates per (spec, sweep) cell, in cell order,
    each in ascending pressure order.

    All cells are one simulate_pressure pass over the concatenated grids,
    so cells[i]'s list equals simulate_sweep(*cells[i]). Any model error
    aborts the whole call: the first cell, in the given order, that fails
    on its own reports its lowest failing pressure as simulate_sweep does.
    No cells give an empty list.
    """
    if not cells:
        return []
    specs = [spec for spec, _ in cells]
    grids = [np.array(sweep.pressures()) for _, sweep in cells]
    try:
        state = simulate_pressure(specs, grids)
    except DomainError:
        for spec, pressures in zip(specs, grids):
            try:
                simulate_pressure(spec, pressures)
            except DomainError:
                _raise_lowest_failure(spec, pressures)
                raise
        raise
    # Transpose the array-valued state into per-point tuples at C speed and
    # cut them into the cells' grids.
    points = map(ActuationState._make, zip(*(column.tolist() for column in state)))
    return [list(islice(points, len(grid))) for grid in grids]


def simulate_sweep(spec: MyofibrilSpec, sweep: PressureSweep) -> list[ActuationState]:
    """One ActuationState per grid point, in ascending pressure order.

    The one-cell case of simulate_cells. Any model error aborts the sweep
    and reports the lowest failing pressure with the error that
    simulate_pressure raises at that pressure alone.
    """
    return simulate_cells([(spec, sweep)])[0]


def _raise_lowest_failure(spec: MyofibrilSpec, pressures: np.ndarray) -> None:
    # A prefix of the grid fails exactly when one of its points does, so
    # bisect on the prefix length for the lowest failing point, then raise
    # that point's own error. Returns only if that point passes alone, which
    # element independence rules out; the caller then re-raises the grid's.
    passing, failing = 0, len(pressures)
    while failing - passing > 1:
        mid = (passing + failing) // 2
        try:
            simulate_pressure(spec, pressures[:mid])
            passing = mid
        except DomainError:
            failing = mid
    pressure = float(pressures[passing])
    try:
        simulate_pressure(spec, pressure)
    except DomainError as err:
        raise DomainError(f"at pressure {pressure:.6f} MPa: {err}") from err


def actuation_strain(trial: LoadedTrial, pressure: float) -> float:
    """Actuation strain of a loaded trial at a pressure.

    (L[P, load] - L[0, load]) / L[0, 0]; negative for contraction, zero at
    zero pressure. Raises DataError when a required length record is absent.
    """
    try:
        length_p = trial.lengths[pressure]
    except KeyError:
        raise DataError(f"no length record at P={pressure} MPa") from None
    try:
        length_0 = trial.lengths[0.0]
    except KeyError:
        raise DataError("no zero-pressure length record") from None
    return (length_p - length_0) / trial.resting_unloaded
