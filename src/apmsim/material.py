"""Yeoh hyperelastic material model for silicone elastomers.

Uniaxial incompressible kinematics: the dominant stretch ratio lambda gives
the first invariant I1 = lambda^2 + 1/lambda^2 + 1, strain energy
W = sum_i Ci * (I1 - 3)^i (up to three terms) and Cauchy stress
sigma = dW/dlambda. Stresses are in MPa throughout, so stress times an area
in mm^2 yields newtons.

Stretches and stresses may be floats or ndarrays; the stress inverse solves a
whole array at once with Newton steps on the closed-form stress slope, kept
inside a bisection bracket. The stress functions read a material only through
its name and c1..c3. Stress is a polynomial in the coefficients, so they
also take the pressure pipeline's per-point parameter record, whose c1..c3
are flat arrays with one coefficient per stretch.

All functions are pure and thread-safe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._numeric import bracketed_newton, check_positive_finite, first_index, flatten, unflatten
from .errors import DomainError, UnbracketedRootError

# Default upper end of the stretch bracket used for stress inversion and for
# the monotonicity check at construction time.
DEFAULT_LAMBDA_MAX = 5.0

_MONOTONICITY_SAMPLES = 256


@dataclass(frozen=True)
class YeohMaterial:
    """Yeoh coefficients (MPa) and density (kg/m^3, informational) of one elastomer.

    c3 is zero for second-order fits. c1 must be positive and finite, c2, c3
    and density finite. The constructor also rejects materials whose uniaxial
    Cauchy stress is not strictly increasing on the inversion bracket
    [1, DEFAULT_LAMBDA_MAX], since stress inversion requires a monotone curve.
    """

    name: str
    c1: float
    c2: float = 0.0
    c3: float = 0.0
    density: float = 0.0

    def __post_init__(self) -> None:
        check_positive_finite(f"{self.name}: c1", self.c1)
        for name in ("c2", "c3", "density"):
            if not math.isfinite(getattr(self, name)):
                raise DomainError(f"{self.name}: {name} must be finite, got {getattr(self, name)}")
        k = np.arange(1, _MONOTONICITY_SAMPLES + 1)
        lam = 1.0 + (DEFAULT_LAMBDA_MAX - 1.0) * k / _MONOTONICITY_SAMPLES
        stress = cauchy_stress(self, lam)
        # Each sample must exceed the one before it; the first one, sigma(1) = 0.
        fold = first_index(stress <= np.concatenate(([0.0], stress[:-1])))
        if fold is not None:
            raise DomainError(
                f"{self.name}: Cauchy stress is not strictly increasing on "
                f"[1, {DEFAULT_LAMBDA_MAX}] (sampled near lambda={lam[fold]:.4f})"
            )


def _i1_minus_3(lam: float | np.ndarray) -> float | np.ndarray:
    # u = I1 - 3 at a uniaxial stretch lam >= 1 (up to solver noise), a float
    # or an ndarray; I1 = lam^2 + 1/lam^2 + 1 is summed before the 3 comes off.
    low = first_index(np.ravel(lam) < 1.0 - 1e-9)
    if low is not None:
        raise DomainError(f"stretch ratio must be >= 1, got {np.ravel(lam)[low]}")
    return lam * lam + 1.0 / (lam * lam) + 1.0 - 3.0


def strain_energy(material: YeohMaterial, lambda_: float | np.ndarray) -> float | np.ndarray:
    """Strain energy density W (MPa) at a uniaxial stretch ratio lambda_ >= 1.

    W = c1*u + c2*u^2 + c3*u^3 with u = I1 - 3 = lambda^2 + 1/lambda^2 - 2;
    W(1) = 0. Takes a float or an ndarray of stretches.
    """
    u = _i1_minus_3(lambda_)
    return material.c1 * u + material.c2 * u * u + material.c3 * u * u * u


def cauchy_stress(material: YeohMaterial, lambda_: float | np.ndarray) -> float | np.ndarray:
    """Uniaxial Cauchy stress sigma (MPa) at a stretch ratio lambda_ >= 1.

    sigma = dW/dlambda = (lambda - 1/lambda^3) * (2*c1 + 4*c2*u + 6*c3*u^2)
    with u = (lambda - 1/lambda)^2; sigma(1) = 0 and sigma is strictly
    increasing for any constructible material. Takes a float or an ndarray
    of stretches.
    """
    u = _i1_minus_3(lambda_)
    geo = lambda_ - 1.0 / (lambda_ * lambda_ * lambda_)
    return geo * (2.0 * material.c1 + 4.0 * material.c2 * u + 6.0 * material.c3 * u * u)


def _cauchy_stress_slope(material: YeohMaterial, lam: np.ndarray) -> np.ndarray:
    # d(sigma)/d(lambda), the Newton slope of the inverse. At lambda = 1 this is 8*c1.
    lam2 = lam * lam
    u = lam2 + 1.0 / lam2 - 2.0
    geo = lam - 1.0 / (lam2 * lam)
    poly = 2.0 * material.c1 + 4.0 * material.c2 * u + 6.0 * material.c3 * u * u
    dpoly = 4.0 * material.c2 + 12.0 * material.c3 * u
    return (1.0 + 3.0 / (lam2 * lam2)) * poly + 2.0 * geo * geo * dpoly


def inverse_cauchy_stress(
    material: YeohMaterial,
    sigma: float | np.ndarray,
    lambda_max: float = DEFAULT_LAMBDA_MAX,
) -> float | np.ndarray:
    """Stretch ratio lambda in [1, lambda_max] with cauchy_stress(lambda) = sigma.

    sigma is a float or an ndarray; the result has its shape. All elements
    are solved together by Newton steps on the closed-form stress slope,
    started from the tangent at lambda = 1 (slope 8*c1) and kept inside the
    bracket [1, lambda_max] by bisection. Each element stops once its stress
    residual is at most 1e-12 * max(1, sigma), inside the
    1e-9 * max(1, sigma) contract, and keeps the Newton step from there; its
    result does not depend on the other elements. sigma = 0 gives exactly 1.

    Raises DomainError for a negative or NaN stress or when the solve misses
    its tolerance within the iteration cap, and UnbracketedRootError when
    sigma exceeds the stress at lambda_max.
    """
    shape, (target, sigma_cap) = flatten(sigma, cauchy_stress(material, lambda_max))
    bad = first_index(~(target >= 0.0))
    if bad is not None:
        raise DomainError(f"stress must be non-negative, got {target[bad]}")
    over = first_index(target > sigma_cap)
    if over is not None:
        raise UnbracketedRootError(
            f"{material.name}: stress {target[over]:.6g} MPa exceeds "
            f"{sigma_cap[over]:.6g} MPa reachable at lambda_max={lambda_max}",
            index=over,
        )
    lam = bracketed_newton(
        lambda x: (cauchy_stress(material, x) - target, _cauchy_stress_slope(material, x)),
        1.0,
        lambda_max,
        np.minimum(1.0 + target / (8.0 * material.c1), lambda_max),
        1e-12 * np.maximum(1.0, target),
    )
    return unflatten(lam, shape)


def wall_stress_factor(t_w: float | np.ndarray, h_ch: float | np.ndarray) -> float | np.ndarray:
    """Dimensionless factor K mapping fluid pressure to wall stress, sigma_w = P*K.

    Thin-walled chambers (strictly t_w < h_ch/4) use K = h_ch / (2*t_w);
    thicker walls use K = 1 + h_ch^2 / (2*t_w*(t_w + h_ch)). The jump at the
    branch boundary is intentional and is not smoothed. Floats or ndarrays
    that broadcast together; a non-positive or NaN dimension raises
    DomainError.
    """
    shape, (t, h) = flatten(t_w, h_ch)
    bad = first_index(~((t > 0.0) & (h > 0.0)))
    if bad is not None:
        raise DomainError(f"wall dimensions must be positive, got t_w={t[bad]}, h_ch={h[bad]}")
    return unflatten(np.where(t < h / 4.0, h / (2.0 * t), 1.0 + h * h / (2.0 * t * (t + h))), shape)


# Built-in elastomer table. Coefficients in MPa, densities in kg/m^3
# (the dragonskin-30 density is the vendor datasheet figure).
MATERIALS: dict[str, YeohMaterial] = {
    m.name: m
    for m in (
        YeohMaterial("ecoflex-00-30", c1=0.017, c2=-0.0002, c3=0.000023, density=1070.0),
        YeohMaterial("elastosil-m4601", c1=0.11, c2=0.02, density=1130.0),
        YeohMaterial("smooth-sil-950", c1=0.34, density=1240.0),
        YeohMaterial("dragonskin-30", c1=0.096, c2=0.0095, density=1080.0),
    )
}
