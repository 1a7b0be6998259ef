import math
import re

import numpy as np
import pytest

from apmsim.errors import DomainError, UnbracketedRootError
from apmsim.material import (
    DEFAULT_LAMBDA_MAX,
    MATERIALS,
    YeohMaterial,
    cauchy_stress,
    inverse_cauchy_stress,
    strain_energy,
    wall_stress_factor,
)

DRAGONSKIN = MATERIALS["dragonskin-30"]
ECOFLEX = MATERIALS["ecoflex-00-30"]


def bisect_stress(material, sigma, lo=1.0, hi=5.0, iters=80):
    """Independent plain-bisection inverse of the stress curve."""
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if cauchy_stress(material, mid) < sigma:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_material_table_coefficients():
    assert ECOFLEX.c1 == 0.017 and ECOFLEX.c2 == -0.0002 and ECOFLEX.c3 == 0.000023
    assert ECOFLEX.density == 1070.0
    ela = MATERIALS["elastosil-m4601"]
    assert ela.c1 == 0.11 and ela.c2 == 0.02 and ela.c3 == 0.0
    assert ela.density == 1130.0
    sil = MATERIALS["smooth-sil-950"]
    assert sil.c1 == 0.34 and sil.c2 == 0.0 and sil.c3 == 0.0
    assert sil.density == 1240.0
    assert DRAGONSKIN.c1 == 0.096 and DRAGONSKIN.c2 == 0.0095


def test_material_rejects_nonpositive_c1():
    with pytest.raises(DomainError):
        YeohMaterial("bad", c1=0.0)
    with pytest.raises(DomainError):
        YeohMaterial("bad", c1=-0.1)


def test_material_rejects_nonmonotone_stress():
    # A strongly negative quadratic term makes the stress curve fold over
    # inside the inversion bracket.
    with pytest.raises(DomainError, match="strictly increasing"):
        YeohMaterial("fold", c1=0.02, c2=-0.01)


@pytest.mark.parametrize("material", MATERIALS.values(), ids=lambda m: m.name)
def test_strain_energy_zero_at_rest(material):
    assert strain_energy(material, 1.0) == 0.0


def test_strain_energy_dragonskin_hand_value():
    # u = 2^2 + 2^-2 - 2 = 2.25; W = 0.096*2.25 + 0.0095*2.25^2
    assert strain_energy(DRAGONSKIN, 2.0) == pytest.approx(0.26409375, abs=1e-12)


def test_strain_energy_ecoflex_third_order():
    u = 1.5**2 + 1.5**-2 - 2.0
    expected = 0.017 * u - 0.0002 * u**2 + 0.000023 * u**3
    assert strain_energy(ECOFLEX, 1.5) == pytest.approx(expected, rel=1e-12)


def test_strain_energy_rejects_compression():
    with pytest.raises(DomainError):
        strain_energy(DRAGONSKIN, 0.99)


@pytest.mark.parametrize("material", MATERIALS.values(), ids=lambda m: m.name)
def test_cauchy_stress_zero_at_rest(material):
    assert cauchy_stress(material, 1.0) == 0.0


def test_cauchy_stress_dragonskin_hand_value():
    # (2 - 1/8) * (2*0.096 + 4*0.0095*(2 - 1/2)^2)
    assert cauchy_stress(DRAGONSKIN, 2.0) == pytest.approx(0.5203125, abs=1e-12)


def test_cauchy_stress_rejects_compression():
    with pytest.raises(DomainError):
        cauchy_stress(DRAGONSKIN, 0.5)


@pytest.mark.parametrize("material", MATERIALS.values(), ids=lambda m: m.name)
def test_stress_is_energy_derivative(material):
    # Central finite difference of the energy over the working range.
    for lam in np.linspace(1.01, 3.0, 40):
        h = 1e-6
        fd = (strain_energy(material, lam + h) - strain_energy(material, lam - h)) / (2 * h)
        sigma = cauchy_stress(material, lam)
        assert abs(sigma - fd) / max(1.0, sigma) < 1e-6


@pytest.mark.parametrize("material", MATERIALS.values(), ids=lambda m: m.name)
def test_stress_strictly_increasing(material):
    lams = np.linspace(1.0, DEFAULT_LAMBDA_MAX, 200)
    sigmas = [cauchy_stress(material, lam) for lam in lams]
    assert all(b > a for a, b in zip(sigmas, sigmas[1:]))


def test_inverse_identity_at_zero_stress():
    for material in MATERIALS.values():
        assert inverse_cauchy_stress(material, 0.0) == 1.0


def test_inverse_matches_plain_bisection():
    sigma = 0.4818
    oracle = bisect_stress(DRAGONSKIN, sigma)
    lam = inverse_cauchy_stress(DRAGONSKIN, sigma)
    assert lam == pytest.approx(oracle, abs=1e-9)
    assert lam == pytest.approx(1.93, abs=0.005)
    assert abs(cauchy_stress(DRAGONSKIN, lam) - sigma) <= 1e-9 * max(1.0, sigma)


@pytest.mark.parametrize("lam0", [1.1, 1.5, 2.5])
def test_inverse_roundtrip(lam0):
    for material in MATERIALS.values():
        sigma = cauchy_stress(material, lam0)
        assert inverse_cauchy_stress(material, sigma) == pytest.approx(lam0, abs=1e-8)


def test_inverse_rejects_negative_stress():
    with pytest.raises(DomainError):
        inverse_cauchy_stress(DRAGONSKIN, -0.1)


def test_inverse_unbracketed():
    too_big = cauchy_stress(DRAGONSKIN, DEFAULT_LAMBDA_MAX) * 1.5
    with pytest.raises(UnbracketedRootError):
        inverse_cauchy_stress(DRAGONSKIN, too_big)


def test_wall_stress_factor_thin():
    # t_w/h_ch = 1/5 < 1/4: K = h_ch / (2 t_w)
    assert wall_stress_factor(1.0, 5.0) == pytest.approx(2.5, abs=1e-12)


def test_wall_stress_factor_thick():
    # 1.5/5 = 0.3 >= 1/4: K = 1 + 25 / (2*1.5*6.5)
    assert wall_stress_factor(1.5, 5.0) == pytest.approx(1.0 + 25.0 / 19.5, abs=1e-12)


def test_wall_stress_factor_boundary_is_thick():
    # Strict inequality: the exact quarter ratio uses the thick branch.
    assert wall_stress_factor(1.25, 5.0) == pytest.approx(2.6, abs=1e-12)


def test_wall_stress_factor_rejects_nonpositive():
    with pytest.raises(DomainError):
        wall_stress_factor(0.0, 5.0)
    with pytest.raises(DomainError):
        wall_stress_factor(1.0, -5.0)


def test_wall_stress_factor_branch_monotonicity():
    h_ch = 5.0
    thin = [wall_stress_factor(t, h_ch) for t in np.linspace(0.2, 1.2499, 50)]
    thick = [wall_stress_factor(t, h_ch) for t in np.linspace(1.25, 6.0, 50)]
    assert all(b < a for a, b in zip(thin, thin[1:]))
    assert all(b < a for a, b in zip(thick, thick[1:]))
    assert all(k > 2.0 for k in thin)
    assert all(k > 1.0 for k in thick)


@pytest.mark.parametrize(
    "coefficients, name",
    [
        ({"c1": math.nan}, "c1"),
        ({"c1": math.inf}, "c1"),
        ({"c1": 0.1, "c2": math.nan}, "c2"),
        ({"c1": 0.1, "c3": math.inf}, "c3"),
        ({"c1": 0.1, "density": math.nan}, "density"),
    ],
)
def test_material_rejects_non_finite_coefficients(coefficients, name):
    # A NaN c2 or c3 makes every stress sample NaN, which no ordering
    # comparison flags, so finiteness is checked on its own.
    with pytest.raises(DomainError, match=f"{name} must be"):
        YeohMaterial("bad", **coefficients)


@pytest.mark.parametrize("t_w, h_ch", [(math.nan, 5.0), (1.0, math.nan)])
def test_wall_stress_factor_rejects_nan(t_w, h_ch):
    with pytest.raises(DomainError, match="wall dimensions must be positive"):
        wall_stress_factor(t_w, h_ch)


def test_wall_stress_factor_array_names_first_bad_element():
    with pytest.raises(DomainError, match=r"got t_w=nan, h_ch=5.0"):
        wall_stress_factor(np.array([1.0, math.nan, -1.0]), 5.0)


@pytest.mark.parametrize("t_w, h_ch", [(1e-320, 10.0), (1e-300, 1e-300), (1e300, 1e300)])
def test_wall_stress_factor_rejects_non_finite_factor(t_w, h_ch):
    # A subnormal wall overflows h_ch/(2*t_w); tiny or huge dimensions make
    # the thick-wall quotient 0/0 or inf/inf. No numpy warning escapes.
    message = f"wall stress factor is not finite for t_w={t_w}, h_ch={h_ch}"
    with pytest.raises(DomainError, match=re.escape(message)):
        wall_stress_factor(t_w, h_ch)


def test_wall_stress_factor_array_names_first_non_finite_element():
    with pytest.raises(DomainError, match=r"not finite for t_w=1e-319, h_ch=10.0"):
        wall_stress_factor(np.array([1.0, 1e-319, 1e-320]), 10.0)


def test_wall_stress_factor_array_equals_elementwise():
    # Both branches and the boundary t_w = h_ch/4 in one array.
    t_w = np.concatenate((np.linspace(0.2, 6.0, 40), [1.25]))
    assert wall_stress_factor(t_w, 5.0).tolist() == [wall_stress_factor(t, 5.0) for t in t_w.tolist()]
