"""Closed-form profiles checked against high-precision oracles.

Every pinned constant below was computed first with mpmath at 40 digits
(or by the independent in-test root finder) and frozen afterwards; the
package code never feeds its own values back in as expectations.
"""

from __future__ import annotations

import math
import sys

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fractions import Fraction

from lanestab import (
    ValidationError,
    classify,
    gamma2_profile,
    gaussian_profile,
    halo_boundary,
    lane_emden_radius,
    make_params,
    powerlaw_profile,
    shc,
    waterbag_profile,
)
from lanestab import closedform
from lanestab.closedform import SHC_SERIES_CUTOFF, powerlaw_boundary
from lanestab.model import _one_minus_product, _product_below_one

# root of sinh(x)/x = 2, frozen from mpmath.findroot
SINHC_EQUALS_TWO = 2.1773189849653068
# 3 * (4*pi*omega)**(-1/3) at omega = 1 and omega = 0.5
WATERBAG_RADIUS_OMEGA_1 = 1.2903810207421494
WATERBAG_RADIUS_OMEGA_HALF = 1.6257782104178670


def _shc_oracle(x: float) -> float:
    if x == 0.0:
        return 1.0
    with mp.workdps(40):
        xm = mp.mpf(x)
        return float(mp.sinh(xm) / xm)


def test_shc_matches_highprec_oracle():
    xs = list(np.logspace(-8, np.log10(30.0), 60)) + [0.0, SHC_SERIES_CUTOFF]
    for x in xs:
        expect = _shc_oracle(float(x))
        assert math.isclose(shc(float(x)), expect, rel_tol=1e-15)


def test_shc_pinned_values():
    assert shc(0.0) == 1.0
    assert math.isclose(shc(1.0), 1.1752011936438014, rel_tol=1e-15)
    assert math.isclose(shc(0.5), 1.0421906109874948, rel_tol=1e-15)


def test_shc_parity_is_exact():
    rng = np.random.default_rng(5)
    for x in rng.uniform(1e-9, 25.0, size=200):
        assert shc(-float(x)) == shc(float(x))


def test_shc_at_least_one():
    rng = np.random.default_rng(9)
    for x in rng.uniform(-30.0, 30.0, size=500):
        assert shc(float(x)) >= 1.0
    # strict inequality only once x*x/6 is resolvable in float64
    for x in (1e-7, 1e-3, 0.1, 4.0):
        assert shc(x) > 1.0


def test_shc_series_seam():
    # both branches around the cutoff must sit on the oracle
    for x in (SHC_SERIES_CUTOFF * 0.98, SHC_SERIES_CUTOFF * 1.02):
        assert math.isclose(shc(x), _shc_oracle(x), rel_tol=1e-15)


@pytest.mark.parametrize(
    "theta0, omega, field",
    [
        (1.0, 0.0, "omega"),
        (1.0, 1.0, "omega"),
        (2.0, 0.5, "omega"),
        (1.0, -0.3, "omega"),
        (0.0, 0.5, "theta0"),
        (-1.0, 0.5, "theta0"),
    ],
)
def test_halo_profile_window(theta0, omega, field):
    """The halo has a boundary only for theta0 > 0, omega > 0 and
    theta0*omega < 1, and halo_boundary refuses the rest naming the field.
    The profile itself is exact for every theta0 > 0 and omega >= 0."""
    with pytest.raises(ValidationError) as exc:
        halo_boundary(theta0, omega)
    assert exc.value.field == field
    if theta0 > 0.0 and omega >= 0.0:
        assert math.isfinite(gamma2_profile(1.0, theta0, omega))
        return
    with pytest.raises(ValidationError) as exc:
        gamma2_profile(1.0, theta0, omega)
    assert exc.value.field == field


# theta0*omega one float either side of 1: at theta0 = 3 the omega that
# rounds 1/3 down has an exact product 5.55e-17 below 1, which the
# rounded test omega < 1/theta0 refused
@pytest.mark.parametrize("theta0", [3.0, 7.0, 10.0, 0.3, 1e-300, 1e300])
def test_classify_and_halo_boundary_agree_on_the_window(theta0):
    """Both decide theta0*omega < 1 on the exact product, checked here
    with fractions: for even n the stability summary places the start
    outside the basin estimate exactly where halo_boundary refuses it."""
    centre = 1.0 / theta0
    sides = set()
    for omega in (math.nextafter(centre, 0.0), centre,
                  math.nextafter(centre, math.inf)):
        inside = Fraction(theta0) * Fraction(omega) < 1
        sides.add(inside)
        summary = classify(make_params(2, omega, theta0)).summary
        assert ("not inside the basin estimate" not in summary) == inside
        try:
            halo_boundary(theta0, omega)
        except ValidationError as exc:
            assert exc.field == "omega" and not inside
        else:
            assert inside
    assert sides == {True, False}


_THIRD = 1 / 3
PRODUCT_CASES = [
    (3.0, math.nextafter(_THIRD, 0.0)), (3.0, _THIRD),
    (3.0, math.nextafter(_THIRD, 1.0)), (1e300, 1e300),
    (5e-324, sys.float_info.max), (2.0 ** 1023, 2.0 ** -1023),
    (2.0 ** 1023, math.nextafter(2.0 ** -1023, 0.0)), (1e308, 1e-309),
    (1e308, 2.2250738585072014e-308), (0.0, 1e300), (1.0, 1.0),
    (1 + 2 ** -52, 1 - 2 ** -52), (1 + 2 ** -52, 1 - 2 ** -53)]


@pytest.mark.parametrize("x, y", PRODUCT_CASES)
def test_product_below_one_is_exact(x, y):
    """x*y < 1 on the exact product, whatever the rounded one says, also
    where that product overflows, underflows or meets a subnormal; and
    the gap 1 - x*y that halo_boundary's target divides by is exact."""
    want = Fraction(x) * Fraction(y) < 1
    assert _product_below_one(x, y) == want
    assert _product_below_one(y, x) == want
    gap = 1 - Fraction(x) * Fraction(y)
    assert Fraction(*_one_minus_product(x, y)) == gap
    assert Fraction(*_one_minus_product(y, x)) == gap


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(x=st.floats(1e-300, 1e300), steps=st.integers(-3, 3))
def test_product_below_one_on_reciprocal_neighbours(x, steps):
    """1/x rounded, moved up to three floats either way, puts x*y within
    a few ulps of 1 on either side."""
    y = 1.0 / x
    for _ in range(abs(steps)):
        y = math.nextafter(y, math.inf if steps > 0 else 0.0)
    assert _product_below_one(x, y) == (Fraction(x) * Fraction(y) < 1)


# the floats' evaluation of shc(x) - 1 leaves zeta_M up to 2.5 ulp from
# the root (at theta0 = 3, omega = 1/3), whatever the target's last bit
HALO_ULPS = 3
TARGET_CASES = [(3.0, _THIRD), (0.3, 1e-6), (0.5, 0.05), (0.5, 1e-3),
                (1e308, 1e-309), (1e-300, 5e299), (3.0, 5e-324),
                (1 + 2 ** -52, 1 - 2 ** -52), (7.0, (1 - 1e-15) / 7.0)]


@pytest.mark.parametrize("theta0, omega", TARGET_CASES)
def test_halo_boundary_on_the_exact_gap(theta0, omega):
    """The target 2/(1 - theta0*omega), taken on the exact gap and rounded
    once, puts zeta_M within HALO_ULPS of a 60-digit root, also where the
    product rounds near 1 or past the float range."""
    gap, den = _one_minus_product(theta0, omega)
    assert 2 * den / gap == float(2 / (1 - Fraction(theta0) * Fraction(omega)))
    zeta_m = halo_boundary(theta0, omega)
    assert abs(zeta_m - _halo_boundary_oracle(theta0, omega)) \
        <= HALO_ULPS * math.ulp(zeta_m)



def test_gamma2_profile_values():
    assert gamma2_profile(0.0, 1.0, 0.5) == 1.0
    assert math.isclose(gamma2_profile(1.0, 1.0, 0.5), 0.9578093890125053,
                        rel_tol=1e-14)

    def oracle(zeta: float) -> float:
        with mp.workdps(40):
            arg = mp.sqrt(mp.mpf("0.25")) * zeta
            return float((1 + (mp.mpf("0.5") - 1) * mp.sinh(arg) / arg)
                         / mp.mpf("0.5"))

    for zeta in np.linspace(0.05, 12.0, 120):
        assert math.isclose(gamma2_profile(float(zeta), 1.0, 0.5),
                            oracle(float(zeta)), rel_tol=1e-13, abs_tol=1e-13)


@pytest.mark.parametrize("omega", [1e-12, 1e-8, 1e-4, 0.1, 0.5, 0.9])
def test_gamma2_profile_small_omega_relative_accuracy(omega):
    """(1/omega)[1 + (theta0*omega - 1) shc(x)] cancels to O(1) from terms
    of size 1/omega; the profile must keep full relative accuracy anyway,
    checked against the same formula at 50 digits."""
    for zeta in (0.5, 1.0, 2.0, 3.0, 5.0, 8.0, 10.0):
        with mp.workdps(50):
            om = mp.mpf(omega)
            x = mp.sqrt(om / 2) * zeta
            exact = (1 + (om - 1) * mp.sinh(x) / x) / om
            rel = abs((mp.mpf(gamma2_profile(zeta, 1.0, omega)) - exact)
                      / exact)
        assert rel <= 1e-13, (zeta, float(rel))


def test_gamma2_profile_at_omega_zero_is_the_parabola():
    """At omega = 0 the gamma = 2 profile is the n = 1 Lane-Emden
    parabola theta0 - zeta**2/12, which has no halo boundary to need."""
    for theta0 in (1e-8, 0.5, 1.0, 3.0, 1e8):
        for zeta in (0.0, 1e-3, 0.5, 1.0, 3.0, 10.0, 1e3):
            want = theta0 - zeta * zeta / 12.0
            assert math.isclose(gamma2_profile(zeta, theta0, 0.0), want,
                                rel_tol=1e-15,
                                abs_tol=1e-15 * (theta0 + zeta * zeta / 12.0))


@pytest.mark.parametrize("omega", [1e-8, 0.01, 0.5, 4.0])
def test_gamma2_profile_past_the_window(omega):
    """At theta0*omega = 3 the start lies above the repelling equilibrium
    and the profile grows without a boundary; it matches the closed form
    taken at 50 digits on the exact product."""
    theta0 = 3.0 / omega
    for zeta in (0.5, 1.0, 2.0, 5.0, 10.0, 50.0):
        with mp.workdps(50):
            om, a = mp.mpf(omega), mp.mpf(theta0) * mp.mpf(omega)
            x = mp.sqrt(om / 2) * zeta
            exact = (1 + (a - 1) * mp.sinh(x) / x) / om
            rel = abs((mp.mpf(gamma2_profile(zeta, theta0, omega)) - exact)
                      / exact)
        assert rel <= 1e-13, (zeta, float(rel))


def test_halo_boundary_against_independent_bisection():
    """halo_boundary must agree with a from-scratch bisection on
    sinh(x)/x = 1/(1 - theta0*omega), run here with no shared code."""
    lo, hi = 1.0, 4.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if math.sinh(mid) / mid < 2.0:
            lo = mid
        else:
            hi = mid
    x_star = 0.5 * (lo + hi)
    assert math.isclose(x_star, SINHC_EQUALS_TWO, rel_tol=1e-12)
    expect = x_star * math.sqrt(2.0 / 0.5)
    assert abs(halo_boundary(1.0, 0.5) - expect) <= 1e-9
    assert math.isclose(halo_boundary(1.0, 0.5), 4.354637969930614,
                        rel_tol=1e-12)


def test_halo_boundary_zero_consistency():
    # the profile must vanish at its own reported boundary
    rng = np.random.default_rng(17)
    for _ in range(40):
        theta0 = float(rng.uniform(0.2, 3.0))
        omega = float(rng.uniform(0.05, 0.95) / theta0)
        zeta_m = halo_boundary(theta0, omega)
        assert zeta_m > 0.0
        assert abs(gamma2_profile(zeta_m, theta0, omega)) <= 1e-8


def _halo_boundary_oracle(theta0: float, omega: float) -> float:
    """zeta_M from a 60-digit root of shc(x) = 1/(1 - theta0*omega)."""
    with mp.workdps(60):
        om, a = mp.mpf(omega), mp.mpf(theta0) * mp.mpf(omega)
        target = 1 / (1 - a)
        # shc(x) - 1 >= x**2/6, so the root x0 of x**2/6 = target - 1 lies
        # above the root; (x0/(1 + x0), x0) brackets it in every case here
        x0 = mp.sqrt(6 * a / (1 - a))
        x = mp.findroot(lambda x: mp.log(mp.sinh(x) / x / target),
                        (x0 / (1 + x0), x0), solver="anderson")
        return float(x * mp.sqrt(2 / om))


# theta0 = 1e308 with omega = 1e-309 made 2*theta0/(1 - theta0*omega)
# overflow, and zeta_M read inf.  theta0*omega = 1 - 2**-40, exact in
# floats, puts zeta_M far out.  At theta0 = 7 the product rounds near 1,
# and 1 - theta0*omega taken from the rounded product left zeta_M 7.2e-4
# off.  3 times 1/3 rounds to 1 but lies 5.55e-17 below it, which the
# rounded window omega < 1/theta0 refused; (1 + 2**-52)(1 - 2**-52) lies
# 2**-104 below 1, about the closest an exact product gets.
HALO_CASES = [(1.0, 1e-8), (1.0, 1e-6), (1.0, 1e-4), (1.0, 0.5), (1.0, 0.9),
              (1e308, 1e-309), (1e308, 9e-309), (3.0, 0.3), (0.2, 4.0),
              (1e-300, 5e299), (1e200, 1e-210), (8.0, (1 - 2 ** -40) / 8),
              (7.0, (1 - 1e-15) / 7.0), (3.0, 1 / 3),
              (1 + 2 ** -52, 1 - 2 ** -52)]


@pytest.mark.parametrize("theta0, omega", HALO_CASES, ids=[
    f"{om}" if t0 == 1.0 else f"theta0={t0}-omega={om}"
    for t0, om in HALO_CASES])
def test_halo_boundary_against_highprec_root(theta0, omega):
    assert math.isclose(halo_boundary(theta0, omega),
                        _halo_boundary_oracle(theta0, omega), rel_tol=1e-12)


@pytest.mark.parametrize("omega", [1e-300, 1e-20, 1e-12])
def test_halo_boundary_small_omega_limit(omega):
    # zeta_M -> sqrt(12 theta0) (1 + 0.35 theta0 omega) as omega -> 0
    limit = math.sqrt(12.0) * (1.0 + 0.35 * omega)
    assert math.isclose(halo_boundary(1.0, omega), limit, rel_tol=1e-13)


def test_gamma2_profile_strictly_decreasing_inside():
    for theta0, omega in ((1.0, 0.5), (0.8, 0.9), (2.0, 0.3)):
        grid = np.linspace(0.0, halo_boundary(theta0, omega), 200)
        vals = [gamma2_profile(float(t), theta0, omega) for t in grid]
        assert all(b < a for a, b in zip(vals, vals[1:]))


def test_powerlaw_values():
    assert math.isclose(powerlaw_profile(2.0, 2.0, 1.0), 2.0 / 3.0, rel_tol=1e-15)
    assert powerlaw_profile(0.0, 1.5, 1.0) == 1.0
    # gamma = 3/2, theta0 = 1 gives theta = (1 - zeta**2/18)**2
    assert math.isclose(powerlaw_profile(3.0, 1.5, 1.0), 0.25, rel_tol=1e-14)
    # gamma < 1 has no boundary and decays like a power
    assert powerlaw_profile(100.0, 0.5, 1.0) > 0.0


def test_powerlaw_domain_boundary():
    zeta_star = math.sqrt(18.0)
    assert powerlaw_profile(zeta_star * (1.0 - 1e-12), 1.5, 1.0) >= 0.0
    with pytest.raises(ValidationError) as exc:
        powerlaw_profile(zeta_star + 1e-9, 1.5, 1.0)
    assert exc.value.field == "zeta"
    assert "zeta_star" in exc.value.message
    with pytest.raises(ValidationError):
        powerlaw_profile(4.0, 2.0, 1.0)


@pytest.mark.parametrize("gamma, theta0", [(31.0, 1.6e10), (-5.0, 5e-52)])
def test_powerlaw_boundary_where_six_gamma_head_overflows(gamma, theta0):
    """theta0**(gamma - 1) is finite but 6*gamma times it is not, while
    zeta_star is about 3e153 and 2e154; it read inf."""
    with mp.workdps(40):
        g, t = mp.mpf(gamma), mp.mpf(theta0)
        reference = float(mp.sqrt(6 * g * t ** (g - 1) / (g - 1)))
    assert math.isclose(powerlaw_boundary(gamma, theta0), reference,
                        rel_tol=1e-15)


@pytest.mark.parametrize("gamma, theta0", [(31.0, 1.6e10), (-5.0, 5e-52)])
def test_powerlaw_profile_where_its_zeta_squared_term_overflows(gamma, theta0):
    """(gamma - 1)*zeta**2 passes the float range past zeta = 2.45e153 and
    5.5e153, short of zeta_star = 2.87e153 and 1.79e154; beyond that the
    profile raised a domain error."""
    zeta_star = powerlaw_boundary(gamma, theta0)
    for frac in (0.5, 0.9, 0.99):
        zeta = frac * zeta_star
        with mp.workdps(40):
            g, t, x = mp.mpf(gamma), mp.mpf(theta0), mp.mpf(zeta)
            reference = float((t ** (g - 1) - (g - 1) * x ** 2 / (6 * g))
                              ** (1 / (g - 1)))
        assert math.isclose(powerlaw_profile(zeta, gamma, theta0), reference,
                            rel_tol=1e-13), frac


@pytest.mark.parametrize("gamma", [3e307, 1e308, -1e308])
def test_powerlaw_where_six_gamma_overflows(gamma):
    """6*gamma passes the float range above |gamma| of about 3e307, where
    zeta_star read inf and the profile read 1 at every zeta."""
    with mp.workdps(40):
        g = mp.mpf(gamma)
        reference = float(mp.sqrt(6 * g / (g - 1)))
    zeta_star = powerlaw_boundary(gamma, 1.0)
    assert math.isclose(zeta_star, reference, rel_tol=1e-15)
    for zeta in (zeta_star * (1.0 + 1e-15), 3.0, 10.0, 1e200):
        with pytest.raises(ValidationError) as exc:
            powerlaw_profile(zeta, gamma, 1.0)
        assert exc.value.field == "zeta"
        assert repr(zeta_star) in exc.value.message


def test_powerlaw_rejects_reserved_gammas():
    with pytest.raises(ValidationError) as exc:
        powerlaw_profile(1.0, 1.0, 1.0)
    assert "gaussian" in exc.value.message
    with pytest.raises(ValidationError) as exc:
        powerlaw_profile(1.0, 0.0, 1.0)
    assert "waterbag" in exc.value.message
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValidationError) as exc:
            powerlaw_profile(1.0, bad, 1.0)
        assert exc.value.field == "gamma"


def test_gaussian_values():
    assert gaussian_profile(0.0, 2.5) == 2.5
    assert math.isclose(gaussian_profile(math.sqrt(6.0), 1.0),
                        math.exp(-1.0), rel_tol=1e-14)
    with pytest.raises(ValidationError):
        gaussian_profile(1.0, 0.0)


def test_gamma_to_one_continuity():
    for gamma in (1.0 + 1e-6, 1.0 - 1e-6):
        for zeta in np.linspace(0.0, 4.0, 81):
            diff = abs(powerlaw_profile(float(zeta), gamma, 1.0)
                       - gaussian_profile(float(zeta), 1.0))
            assert diff <= 1e-4


def test_gamma2_small_omega_approaches_powerlaw():
    # the two independent closed forms must meet in the omega -> 0 corner
    for zeta in np.linspace(0.0, 3.0, 40):
        diff = abs(gamma2_profile(float(zeta), 1.0, 1e-8)
                   - powerlaw_profile(float(zeta), 2.0, 1.0))
        assert diff <= 1e-6


def test_lane_emden_radius_values():
    assert math.isclose(lane_emden_radius(1.0), WATERBAG_RADIUS_OMEGA_1,
                        rel_tol=1e-14)
    assert math.isclose(lane_emden_radius(0.5), WATERBAG_RADIUS_OMEGA_HALF,
                        rel_tol=1e-14)
    with mp.workdps(40):
        oracle = float(3 * (4 * mp.pi * mp.mpf("0.5")) ** (mp.mpf(-1) / 3))
    assert math.isclose(lane_emden_radius(0.5), oracle, rel_tol=1e-15)
    with pytest.raises(ValidationError):
        lane_emden_radius(0.0)


def test_waterbag_step_orientation_and_continuity():
    """The step is right-continuous and places the plateau outside the
    radius, exactly as the formula is written; see the README note."""
    omega = 0.5
    xi0 = lane_emden_radius(omega)
    assert waterbag_profile(0.0, omega) == 0.0
    assert waterbag_profile(xi0 * (1.0 - 1e-12), omega) == 0.0
    assert waterbag_profile(xi0, omega) == 2.0
    assert waterbag_profile(xi0 + 5.0, omega) == 2.0
