"""Pressure-to-output pipeline for one myofibril design.

For a fluid pressure P (MPa) the chain is: wall stress P*K -> junction-zone
stress -> junction stretch lambda_jz (stress inversion) -> expansion and
restoring forces -> net actuator force F_spa -> contraction force through
the actin angle -> deformed geometry and length ratio. Pressures and
stresses are in MPa and lengths in mm, so forces come out in newtons.

Every stage takes a float or an ndarray of pressures, so a pressure sweep is
one pass of the chain over the whole grid; a single pressure is the size-1
case. Grid points are independent: each point's values do not depend on the
rest of the grid, and the output order is the grid order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from ._numeric import first_index, flatten, unflatten
from .errors import DataError, DomainError, UnbracketedRootError
from .geometry import (
    MyofibrilSpec,
    SpaGeometry,
    check_length_ratio,
    contraction_angle,
    current_major_axis,
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


@dataclass(frozen=True)
class ActuationState:
    """Every computed quantity at one pressure point.

    pressure in MPa; lambda_jz dimensionless; forces in N; theta in rad;
    r1 and l_mf in mm; length_ratio relative to the zero-pressure length;
    ratio_flag is the check_length_ratio classification. simulate_pressure
    given an ndarray of pressures fills every field with an ndarray of the
    same shape.
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
        if self.resting_unloaded <= 0.0:
            raise DomainError("resting unloaded length must be positive")
        for p, length in self.lengths.items():
            if length <= 0.0:
                raise DomainError(f"length at P={p} must be positive, got {length}")


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
    bad = first_index(np.ravel(pressure) < 0.0)
    if bad is not None:
        raise DomainError(f"pressure must be non-negative, got {np.ravel(pressure)[bad]}")


def adjustment_coefficient(tw_hch_ratio: float, pressure: float | np.ndarray) -> float | np.ndarray:
    """Fitted expansion-force adjustment coefficient c_m.

    Affine in the wall ratio and the pressure (a float or an ndarray):
    c_m = -2.49*(t_w/h_ch) - 6.101*P + 11.457.
    """
    if tw_hch_ratio < 0.0:
        raise DomainError(f"wall ratio must be non-negative, got {tw_hch_ratio}")
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


def simulate_pressure(spec: MyofibrilSpec, pressure: float | np.ndarray) -> ActuationState:
    """Evaluate the full pipeline at a pressure and return the state.

    For an ndarray of pressures every field of the state is an ndarray of
    that shape, computed in one pass over the whole array; a float pressure
    is the size-1 case and gives plain floats. The length ratio is taken
    against the zero-deformation length of the same design (identical to
    resting_length for rule-conforming geometries), solved once per call;
    it is exactly 1 at zero pressure.
    """
    spa = spec.spa
    lam = junction_stretch(pressure, spa, spec.material)
    c_m = adjustment_coefficient(spa.t_w / spa.h_ch, pressure)
    f_e = expansion_force(pressure, spa, lam, c_m)
    f_r = restoring_force(lam, spa, spec.material)
    f_spa = f_e - f_r
    theta = contraction_angle(spa, lam, spec.sarcomere.actin_arc)
    f_contr = contraction_force(f_spa, theta)
    delta_hm = spec.sarcomere.junctions_per_myosin * (lam - 1.0) * spa.h_jz
    r1 = current_major_axis(spec, delta_hm)
    l_mf = spec.n * (spec.sarcomere.a_band + 2.0 * r1)
    l_rest = myofibril_length(spec, 0.0)
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


def simulate_sweep(spec: MyofibrilSpec, sweep: PressureSweep) -> list[ActuationState]:
    """One ActuationState per grid point, in ascending pressure order.

    The whole grid is one simulate_pressure call. Any model error aborts the
    sweep and reports the lowest failing pressure with the error that
    simulate_pressure raises at that pressure alone.
    """
    pressures = np.array(sweep.pressures())
    try:
        grid = simulate_pressure(spec, pressures)
    except DomainError:
        _raise_lowest_failure(spec, pressures)
        raise
    columns = [getattr(grid, f.name).tolist() for f in fields(ActuationState)]
    return list(map(ActuationState, *columns))


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
