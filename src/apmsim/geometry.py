"""Sarcomere and myofibril kinematics.

Design rules tie the contraction-unit dimensions together: the I-band is 2/3
of the A-band, the actin thread rests as a semicircle spanning the I-band,
and the myosin height is bounded by the rest and fully-contracted actin
shapes. Lengths are in mm. The deformed actin is treated as a half ellipse
whose vertical chord grows with inflation; its arc is 2*r1*E with E the
complete elliptic integral of the second kind, evaluated here (with K, the
first kind, for the slope) by the Cephes rational-log forms. Its horizontal
semi-axis is recovered numerically from the (fixed) arc length, for a whole
array of chords at once, by Newton steps on the elliptic-integral slope kept
inside a bisection bracket.

All functions are pure and thread-safe.
"""

from __future__ import annotations

import math
import warnings
from collections.abc import Sequence
from dataclasses import dataclass, fields
from types import SimpleNamespace

import numpy as np

from ._numeric import bracketed_newton, check_positive_finite, flatten, reject, unflatten
from .errors import DomainError
from .material import YeohMaterial

# Allowed contraction/stretch band for the length ratio L/L_rest.
LENGTH_RATIO_MIN = 0.6
LENGTH_RATIO_MAX = 1.7

RATIO_VALID = "valid"
RATIO_OVER_CONTRACTED = "over-contracted"
RATIO_OVER_STRETCHED = "over-stretched"
# The flags indexed by (ratio < MIN) + 2*(ratio > MAX); NaN reads as valid.
_RATIO_FLAGS = np.array([RATIO_VALID, RATIO_OVER_CONTRACTED, RATIO_OVER_STRETCHED], dtype=object)

# Relative tolerance at which an (arc, chord) pair is recognised as the exact
# semicircle; keeps the zero-deformation rest state bit-exact.
_CIRCLE_SNAP_REL = 1e-12

# Relative arc-length residual at which the axis solve stops.
_ARC_SOLVE_RTOL = 1e-12

# Coefficients, highest power first, of the Cephes ellpe/ellpk forms
# E = P_E(x) - log(x)*x*Q_E(x) and K = P_K(x) - log(x)*Q_K(x) in x = r^2,
# r = minor/major (S. L. Moshier, Methods and Programs for Mathematical
# Functions, 1989; Abramowitz & Stegun 17.3.34-36). Both are within 3e-16
# relative of the exact integrals for r in [1e-12, 1], and E(1) = pi/2.
_P_E = (
    1.53552577301013293365e-4, 2.50888492163602060990e-3, 8.68786816565889628429e-3,
    1.07350949056076193403e-2, 7.77395492516787092951e-3, 7.58395289413514708519e-3,
    1.15688436810574127319e-2, 2.18317996015557253103e-2, 5.68051945617860553470e-2,
    4.43147180560990850618e-1, 1.00000000000000000299e0,
)
_Q_E = (
    3.27954898576485872656e-5, 1.00962792679356715133e-3, 6.50609489976927491433e-3,
    1.68862163993311317300e-2, 2.61769742454493659583e-2, 3.34833904888224918614e-2,
    4.27180926518931511717e-2, 5.85936634471101055642e-2, 9.37499997197644278445e-2,
    2.49999999999888314361e-1,
)
_P_K = (
    1.37982864606273237150e-4, 2.28025724005875567385e-3, 7.97404013220415179367e-3,
    9.85821379021226008714e-3, 6.87489687449949877925e-3, 6.18901033637687613229e-3,
    8.79078273952743772254e-3, 1.49380448916805252718e-2, 3.08851465246711995998e-2,
    9.65735902811690126535e-2, 1.38629436111989062502e0,
)
_Q_K = (
    2.94078955048598507511e-5, 9.14184723865917226571e-4, 5.94058303753167793257e-3,
    1.54850516649762399335e-2, 2.39089602715924892727e-2, 3.01204715227604046988e-2,
    3.73774314173823228969e-2, 4.88280347570998239232e-2, 7.03124996963957469739e-2,
    1.24999999999870820058e-1, 4.99999999999999999821e-1,
)

_SMALLEST_SUBNORMAL = 5e-324


def _horner(coeffs: tuple[float, ...], x: np.ndarray) -> np.ndarray:
    # The polynomial with these coefficients (highest power first) at x.
    acc = coeffs[0] * x
    for c in coeffs[1:-1]:
        acc += c
        acc *= x
    acc += coeffs[-1]
    return acc


def _ellip_e(ratio: np.ndarray) -> np.ndarray:
    # Complete elliptic integral of the second kind E(m), m = 1 - ratio^2,
    # for axis ratios 0 <= ratio <= 1. Taking the ratio itself keeps the
    # parameter 1 - m = ratio^2 unrounded; log(x) is 2*log(ratio), so where
    # ratio^2 underflows to 0 the log term is 0 and E is exactly 1. A ratio
    # that underflowed to 0 itself takes the smallest subnormal's log, which
    # stays finite, so the zero x cancels it.
    x = ratio * ratio
    log_x = 2.0 * np.log(np.maximum(ratio, _SMALLEST_SUBNORMAL))
    return _horner(_P_E, x) - log_x * x * _horner(_Q_E, x)


def _ellip_k(ratio: np.ndarray) -> np.ndarray:
    # Complete elliptic integral of the first kind K(m), m = 1 - ratio^2, for
    # axis ratios 0 < ratio <= 1; finite wherever ratio is positive.
    x = ratio * ratio
    return _horner(_P_K, x) - 2.0 * np.log(ratio) * _horner(_Q_K, x)


@dataclass(frozen=True)
class SpaGeometry:
    """Chamber and junction dimensions of one soft pneumatic actuator (mm).

    t_w: chamber wall thickness; a_ch/b_ch/h_ch: inner channel length, width
    and height; h_jz: junction-zone height between chamber arrays; a_hz/b_hz:
    H-zone cross-section length and width. Each must be positive and finite,
    and so must the wall ratio t_w/h_ch and the H-zone area a_hz*b_hz, which
    the pressure pipeline derives from them.
    """

    t_w: float
    a_ch: float
    b_ch: float
    h_ch: float
    h_jz: float
    a_hz: float
    b_hz: float

    def __post_init__(self) -> None:
        for name in SPA_FIELDS:
            check_positive_finite(f"SPA dimension {name}", getattr(self, name))
        check_positive_finite("wall ratio t_w/h_ch", self.t_w / self.h_ch)
        check_positive_finite("H-zone area a_hz*b_hz", self.a_hz * self.b_hz)


# The SpaGeometry dimension names, in declaration order.
SPA_FIELDS = tuple(f.name for f in fields(SpaGeometry))


@dataclass(frozen=True)
class SarcomereGeometry:
    """Rest dimensions of one contraction unit (mm).

    a_band/i_band: myosin-spanning and actin-only region lengths; actin_arc:
    actin thread arc length; myosin_height: overall rest height of one myosin
    (None when not yet chosen); junctions_per_myosin counts the junction
    zones stacked through the myosin height (two in the reference chamber
    stack). a_band, i_band, actin_arc and a given myosin_height must be
    positive and finite, junctions_per_myosin within [1, 2**53].
    """

    a_band: float
    i_band: float
    actin_arc: float
    myosin_height: float | None = None
    junctions_per_myosin: int = 2

    def __post_init__(self) -> None:
        for name in ("a_band", "i_band", "actin_arc"):
            check_positive_finite(f"sarcomere dimension {name}", getattr(self, name))
        if self.myosin_height is not None:
            check_positive_finite("myosin_height", self.myosin_height)
        # Counts enter the pipeline as floats, exact up to 2**53.
        if not 1 <= self.junctions_per_myosin <= 2**53:
            raise DomainError("junctions_per_myosin must lie within [1, 2**53]")

    def conformity_warnings(self) -> list[str]:
        """Deviations from the design rules (I' = 2A'/3, rest semicircle).

        Non-conforming geometries remain simulatable; these are advisory.
        """
        msgs = []
        if abs(self.i_band - 2.0 * self.a_band / 3.0) > 1e-9:
            msgs.append(
                f"i_band={self.i_band:.6g} deviates from 2/3 of a_band "
                f"({2.0 * self.a_band / 3.0:.6g})"
            )
        if abs(self.actin_arc - math.pi / 2.0 * self.i_band) > 1e-9:
            msgs.append(
                f"actin_arc={self.actin_arc:.6g} deviates from the rest semicircle "
                f"length {math.pi / 2.0 * self.i_band:.6g}"
            )
        return msgs

    @property
    def rest_radius(self) -> float:
        """Rest major semi-axis of the actin half-ellipse (half the I-band)."""
        return self.i_band / 2.0


@dataclass(frozen=True)
class MyofibrilSpec:
    """A complete simulatable design: n sarcomeres (1 <= n <= 2**53) of one
    geometry and material."""

    n: int
    sarcomere: SarcomereGeometry
    spa: SpaGeometry
    material: YeohMaterial

    def __post_init__(self) -> None:
        if not 1 <= self.n <= 2**53:
            raise DomainError("sarcomere count n must lie within [1, 2**53]")
        # stacklevel 3 names the line that built the spec, not the __init__
        # that dataclasses generate.
        for msg in self.sarcomere.conformity_warnings():
            warnings.warn(msg, stacklevel=3)
        if self.sarcomere.myosin_height is not None:
            low, high = myosin_height_bounds(self.sarcomere.a_band, self.spa.t_w, self.spa.h_ch)
            h_m = self.sarcomere.myosin_height
            if not (low - 1e-9 <= h_m <= high + 1e-9):
                warnings.warn(
                    f"myosin_height={h_m:.6g} outside the design bounds "
                    f"[{low:.6g}, {high:.6g}]",
                    stacklevel=3,
                )


def resting_length(spec: MyofibrilSpec) -> float:
    """Rest length of the myofibril, n * (a_band + i_band), in mm."""
    return spec.n * (spec.sarcomere.a_band + spec.sarcomere.i_band)


def check_length_ratio(
    current: float | np.ndarray, resting: float | np.ndarray
) -> str | np.ndarray:
    """Classify a length ratio against the allowed contraction/stretch band.

    Returns RATIO_VALID for 0.6 <= current/resting <= 1.7 (and for a NaN
    ratio), otherwise RATIO_OVER_CONTRACTED or RATIO_OVER_STRETCHED. For
    ndarray input it returns an object array whose elements are those
    constants themselves.
    """
    shape, (cur, rest) = flatten(current, resting)
    reject(rest <= 0.0, lambda i: f"resting length must be positive, got {rest[i]}")
    ratio = cur / rest
    flags = _RATIO_FLAGS[(ratio < LENGTH_RATIO_MIN) + 2 * (ratio > LENGTH_RATIO_MAX)]
    return unflatten(flags, shape)


def design_from_a_band(a_band: float) -> SarcomereGeometry:
    """Derive a rule-conforming sarcomere geometry from the A-band length.

    i_band = (2/3)*a_band, the rest actin forms a semicircle of radius
    a_band/3 so actin_arc = (pi/3)*a_band. The myosin height is left unset;
    pick it within myosin_height_bounds once the chamber stack is known.
    Raises DomainError unless a_band and the derived lengths are positive
    and finite (a_band near the float maximum overflows i_band).
    """
    i_band = 2.0 * a_band / 3.0
    return SarcomereGeometry(
        a_band=a_band,
        i_band=i_band,
        actin_arc=math.pi / 2.0 * i_band,
    )


def myosin_height_bounds(a_band: float, t_w: float, h_ch: float) -> tuple[float, float]:
    """Feasible [low, high] myosin height in mm for a given chamber stack.

    low corresponds to the rest semicircle, high to the fully contracted
    actin; both include the rigid 2*t_w + h_ch chamber sandwich. Raises
    DomainError unless the inputs and both bounds are positive and finite.
    """
    for name, value in (("a_band", a_band), ("t_w", t_w), ("h_ch", h_ch)):
        check_positive_finite(name, value)
    stack = 2.0 * t_w + h_ch
    low, high = 2.0 * a_band / 3.0 + stack, math.pi / 3.0 * a_band + stack
    for bound in (low, high):
        check_positive_finite("myosin height bound", bound)
    return low, high


def semi_ellipse_arc_length(r1: float | np.ndarray, r2: float | np.ndarray) -> float | np.ndarray:
    """Arc length of a half ellipse with semi-axes r1 >= r2 > 0, in mm.

    Equals 2*r1*E(m) with E the complete elliptic integral of the second
    kind and m = 1 - (r2/r1)^2 the squared eccentricity, evaluated from the
    axis ratio r2/r1 to within 3e-16 relative; ranges from 2*r1 (degenerate)
    to pi*r1 (circle, exactly). Takes floats or ndarrays that broadcast
    together. Raises DomainError unless r2 > 0 and r1 >= r2; NaN fails both.
    """
    shape, (major, minor) = flatten(r1, r2)
    reject(~(minor > 0.0), lambda i: f"minor semi-axis must be positive, got {minor[i]}")
    # Written so that a NaN major semi-axis fails too.
    reject(
        ~(major >= minor),
        lambda i: f"major semi-axis {major[i]} must not be smaller than minor {minor[i]}; "
        "orient the axes before constructing",
    )
    return unflatten(2.0 * major * _ellip_e(minor / major), shape)


def solve_major_axis(
    arc_length: float | np.ndarray, minor_diameter: float | np.ndarray
) -> float | np.ndarray:
    """Horizontal semi-axis of the half ellipse with a given arc and vertical chord.

    minor_diameter is the vertical chord (twice the vertical semi-axis b).
    Floats or ndarrays that broadcast together; the result has their shape.
    The arc length 2*max(x, b)*E(1 - (min(x, b)/max(x, b))^2) increases in
    the horizontal semi-axis x, so one solve covers both regimes: wider than
    tall (arc_length > pi*b, x > b) and, past the semicircle point, taller
    than wide (x < b, tending to zero at full contraction). Every element is
    solved on the bracket [0, arc_length/2] by Newton steps from the inverse
    of Ramanujan's first perimeter formula, with the slope from
    dE/dm = (E - K)/(2m), kept inside the bracket by bisection, until the
    arc residual is at most 1e-12 * arc_length, keeping the Newton step from
    there; each element's result does not depend on the others. An exact
    semicircle (to 1e-12 relative) returns b directly.

    Raises DomainError when arc_length <= minor_diameter (no half ellipse has
    an arc that short for that chord), for non-positive or NaN inputs, and
    when the solve misses its tolerance within the iteration cap.
    """
    shape, (arc, chord) = flatten(arc_length, minor_diameter)
    reject(~((arc > 0.0) & (chord > 0.0)), lambda i: "arc length and chord must be positive")
    reject(arc <= chord, lambda i: f"arc length {arc[i]:.6g} must exceed the vertical chord {chord[i]:.6g}")
    b = chord / 2.0
    circle = np.abs(arc - math.pi * b) <= _CIRCLE_SNAP_REL * arc
    # Ramanujan's first formula puts the arc at
    # pi/2*(3(x + b) - sqrt((3x + b)(x + 3b))); start from the x where that
    # equals the target, the larger root of
    # 6x^2 + (8b - 6u)x + 6b^2 - 6ub + u^2 = 0 with u = 2*arc/pi, which is
    # (3u - 4b + sqrt(3u^2 + 12ub - 20b^2))/6 (the discriminant is positive
    # for arc > 2b; it is factored so that no square overflows). Off the
    # bracket, start from its midpoint instead.
    u = 2.0 * arc / math.pi
    root = np.sqrt(u) * np.sqrt(3.0 * u + 12.0 * b - 20.0 * b * (b / u))
    guess = (3.0 * u - 4.0 * b + root) / 6.0
    guess = np.where((guess > 0.0) & (guess < arc / 2.0), guess, arc / 4.0)
    x = bracketed_newton(
        lambda x: _arc_residual(x, b, arc),
        0.0,
        arc / 2.0,
        np.where(circle, b, guess),
        np.where(circle, np.inf, _ARC_SOLVE_RTOL * arc),
    )
    return unflatten(x, shape)


def _arc_residual(x: np.ndarray, b: np.ndarray, arc: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # Arc length minus the target for horizontal semi-axis x and vertical b,
    # and its slope in x. With E, K at m = 1 - ratio^2 and dE/dm = (E - K)/(2m):
    # wide (x > b): d/dx 2x*E = 2E + 2(E - K)*ratio^2/m;
    # tall (x < b): d/dx 2b*E = 2(K - E)*ratio/m.
    major, minor = np.maximum(x, b), np.minimum(x, b)
    length = semi_ellipse_arc_length(major, minor)
    ratio = minor / major
    m = 1.0 - ratio * ratio
    e = length / (2.0 * major)
    k = _ellip_k(ratio)
    slope = np.where(x > b, 2.0 * e + 2.0 * (e - k) * ratio * ratio / m, 2.0 * (k - e) * ratio / m)
    return length - arc, slope


def _lengths(spec: MyofibrilSpec) -> dict:
    # One design's values that fix its length, by name. The rest chord is the
    # deformable vertical chord of the actin half-ellipse at rest: the myosin
    # height minus the rigid 2*t_w + h_ch sandwich or, when no myosin height
    # was chosen, the I-band (identical for rule-conforming designs).
    sarc = spec.sarcomere
    rest_chord = sarc.i_band
    if sarc.myosin_height is not None:
        rest_chord = sarc.myosin_height - 2.0 * spec.spa.t_w - spec.spa.h_ch
    return {
        "n": spec.n,
        "a_band": sarc.a_band,
        "actin_arc": sarc.actin_arc,
        "rest_chord": rest_chord,
    }


def _record(spec: MyofibrilSpec | Sequence[MyofibrilSpec], design, counts=()) -> SimpleNamespace:
    # design(spec)'s values by name. One design's are as they are. A batch's
    # are a float64 row per name of one names x designs table, repeated over
    # the designs' grids (counts[i] points for design i) in one call when
    # there is more than one; a material name joins the designs' names.
    if isinstance(spec, MyofibrilSpec):
        return SimpleNamespace(**design(spec))
    designs = list(map(design, spec))
    keys = [key for key in designs[0] if key != "name"]
    table = np.array([[one[key] for one in designs] for key in keys], float)
    if len(counts) > 1:
        table = np.repeat(table, counts, axis=1)
    record = dict(zip(keys, table))
    if "name" in designs[0]:
        record["name"] = ", ".join(dict.fromkeys(one["name"] for one in designs))
    return SimpleNamespace(**record)


def _axis_and_length(record: SimpleNamespace, delta_hm: float | np.ndarray) -> tuple:
    # Horizontal semi-axis r1 (mm) of the actin after the myosin grew by
    # delta_hm, and the myofibril length n * (a_band + 2*r1), for a _record of
    # _lengths; its values and delta_hm are floats or ndarrays that broadcast
    # together. A NaN rest chord or delta_hm fails its check.
    chord, delta = np.ravel(record.rest_chord), np.ravel(delta_hm)
    reject(
        ~(chord > 0.0),
        lambda i: f"myosin_height leaves no room for the actin chord (chord={chord[i]:.6g} mm)",
    )
    reject(~(delta >= 0.0), lambda i: f"delta_hm must be non-negative, got {delta[i]}")
    r1 = solve_major_axis(record.actin_arc, record.rest_chord + delta_hm)
    return r1, record.n * (record.a_band + 2.0 * r1)


def myofibril_length(
    spec: MyofibrilSpec | Sequence[MyofibrilSpec], delta_hm: float | np.ndarray
) -> float | np.ndarray:
    """Myofibril length n * (a_band + 2*r1) in mm after a myosin height change
    (a float or an ndarray).

    Strictly decreasing in delta_hm: a taller myosin pulls the actin ends
    together. At delta_hm = 0 a rule-conforming design reproduces
    resting_length exactly; the feasible range ends where the chord reaches
    the actin arc length (full contraction, length -> n * a_band). spec may
    also be a sequence of designs, one value per design broadcasting against
    delta_hm, solved together in one pass.
    """
    return _axis_and_length(_record(spec, _lengths), delta_hm)[1]


def contraction_angle(
    spa: SpaGeometry, lambda_jz: float | np.ndarray, actin_arc: float | np.ndarray
) -> float | np.ndarray:
    """Angle theta (rad) between the actin chord approximation and the horizontal.

    theta = arccos((2*t_w + h_ch + 2*lambda_jz*h_jz) / actin_arc), strictly
    decreasing in lambda_jz. lambda_jz and actin_arc are floats or ndarrays
    that broadcast together. Raises DomainError for a non-positive or NaN
    actin arc, and when the stacked height reaches the arc length (argument
    >= 1) or the argument is non-positive or NaN.
    """
    shape, (lam, arc) = flatten(lambda_jz, actin_arc)
    reject(~(arc > 0.0), lambda i: f"actin arc must be positive, got {arc[i]}")
    stacked = 2.0 * spa.t_w + spa.h_ch + 2.0 * lam * spa.h_jz
    ratio = stacked / arc
    reject(
        ratio >= 1.0,
        lambda i: f"actin arc {arc[i]:.6g} mm too short for the stacked height "
        f"{stacked[i]:.6g} mm (cos(theta) >= 1)",
    )
    reject(~(ratio > 0.0), lambda i: f"cos(theta) must be positive, got {ratio[i]:.6g}")
    return unflatten(np.arccos(ratio), shape)
