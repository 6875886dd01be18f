"""Certificates: LMI residual, descent function, basin, instability rate.

The LMI residual, its matrix P, the Jacobian, basin membership and the
instability function with its rate come from the test oracle module
certificate_oracle; classify() reports the LMI from the closed form that
the oracle checks.

The two rate formulas are rederived symbolically in-test (chain rule along
the system's vector field) before any numeric value is trusted.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
import sympy as sp

from lanestab import (
    IntegratorOptions,
    ValidationError,
    basin_alpha,
    classify,
    equilibria,
    instability_zeta0,
    integrate,
    lyapunov_V,
    make_params,
    rhs,
)

from certificate_oracle import (LMI_GRID, SymMat2, basin_contains,
                                certificate_P, escape_zeta, instability_V,
                                instability_Vdot, jacobian, lmi_residual,
                                lyapunov_Vdot)

# frozen from 40-digit arithmetic: 4n/(omega**(1/n) (n+1)**2) at n=2, omega=0.5
ALPHA_MAX_N2_OMEGA_HALF = 1.2570787221094178
# V(1 + sqrt(2), 0) for the same parameters (the unit-density start, shifted)
V_AT_UNIT_START = 1.1840949166102645


def _rate_expressions(n: int, sign: int):
    """Total derivative of a certificate along the shifted system, built
    from scratch with sympy; sign = -1 shifts about the left equilibrium,
    +1 about the right/odd one."""
    x1, x2, zeta, om = sp.symbols("x1 x2 zeta omega", positive=True)
    u = om ** sp.Rational(-1, n)
    base = x1 + sign * u
    f2 = (om * base ** n - 1) / (n + 1) - 2 * x2 / zeta
    return x1, x2, zeta, om, u, base, f2


def test_lyapunov_rate_identity_symbolic():
    for n in (2, 4):
        x1, x2, zeta, om, u, base, f2 = _rate_expressions(n, -1)
        V = -2 * om / (n + 1) ** 2 * (base ** (n + 1) + u ** (n + 1)) \
            + 2 * x1 / (n + 1) + x2 ** 2
        total = sp.diff(V, x1) * x2 + sp.diff(V, x2) * f2
        assert sp.simplify(total + 4 * x2 ** 2 / zeta) == 0


def test_instability_rate_identity_symbolic():
    for n in (1, 3):
        x1, x2, zeta, om, u, base, f2 = _rate_expressions(n, +1)
        V = (om * base ** n - 1) * x2 + (n + 1) * x2 ** 2 / zeta
        total = sp.diff(V, zeta) + sp.diff(V, x1) * x2 + sp.diff(V, x2) * f2
        claimed = (om * base ** n - 1) ** 2 / (n + 1) \
            + x2 ** 2 * (n * om * base ** (n - 1) - 5 * (n + 1) / zeta ** 2)
        assert sp.simplify(total - claimed) == 0


def test_symmat_eigenvalues_match_linalg():
    rng = np.random.default_rng(31)
    for _ in range(200):
        a11, a12, a22 = rng.uniform(-5.0, 5.0, size=3)
        m = SymMat2(float(a11), float(a12), float(a22))
        lo, hi = m.eigenvalues()
        ref = np.linalg.eigvalsh([[m.a11, m.a12], [m.a12, m.a22]])
        assert math.isclose(lo, float(ref[0]), rel_tol=1e-12, abs_tol=1e-12)
        assert math.isclose(hi, float(ref[1]), rel_tol=1e-12, abs_tol=1e-12)


def test_jacobian_at_origin():
    p = make_params(2, 0.25)
    j = np.asarray(jacobian(2.0, 0.0, p, branch="left"))
    assert j[0, 0] == 0.0 and j[0, 1] == 1.0
    assert math.isclose(j[1, 0], -1.0 / 3.0, rel_tol=1e-15)
    assert j[1, 1] == -1.0
    j = np.asarray(jacobian(2.0, 0.0, p, branch="right"))
    assert math.isclose(j[1, 0], 1.0 / 3.0, rel_tol=1e-15)


def test_jacobian_rejects_bad_inputs():
    p = make_params(2, 0.5)
    with pytest.raises(ValidationError) as exc:
        jacobian(0.0, 0.0, p)
    assert exc.value.field == "zeta"
    with pytest.raises(ValidationError) as exc:
        jacobian(1.0, 0.0, p, branch="middle")
    assert exc.value.field == "branch"
    with pytest.raises(ValidationError):
        jacobian(1.0, 0.0, make_params(2, 0.0))


def test_jacobian_matches_finite_differences():
    rng = np.random.default_rng(13)
    cases = [(2, 0.5, "left"), (2, 0.5, "right"), (3, 0.125, "right"),
             (4, 0.9, "left")]
    for n, omega, branch in cases:
        p = make_params(n, omega)
        u = omega ** (-1.0 / n)
        z_br = -u if branch == "left" else u
        for _ in range(25):
            zeta = float(rng.uniform(0.5, 20.0))
            x1 = float(rng.uniform(-1.5, 1.5))
            x2 = float(rng.uniform(-1.0, 1.0))
            h = 1e-6
            up = rhs(zeta, x1 + h + z_br, x2, p)[1]
            dn = rhs(zeta, x1 - h + z_br, x2, p)[1]
            fd = (up - dn) / (2.0 * h)
            j = np.asarray(jacobian(zeta, x1, p, branch=branch))
            assert abs(fd - j[1, 0]) <= 1e-6 * max(abs(j[1, 0]), 1e-3)
            assert j[1, 1] == -2.0 / zeta


def test_certificate_p_values_and_definiteness():
    p = make_params(2, 0.5)
    m = certificate_P(2.0, p)
    assert m.a11 == 0.5
    assert m.a12 == 0.0
    assert math.isclose(m.a22, 1.5 / (0.5 ** 0.5 * 2.0), rel_tol=1e-15)
    rng = np.random.default_rng(37)
    for zeta in LMI_GRID:
        q = certificate_P(float(zeta), p)
        for _ in range(4):
            x = rng.uniform(-3.0, 3.0, size=2)
            if x @ x == 0.0:
                continue
            quad = q.a11 * x[0] * x[0] + 2.0 * q.a12 * x[0] * x[1] \
                + q.a22 * x[1] * x[1]
            assert quad > 0.0


def test_lmi_residual_structure():
    m = lmi_residual(2.0, make_params(2, 1.0))
    assert m.a11 == 0.0
    assert m.a12 == 0.0
    assert m.a22 == -1.5
    rng = np.random.default_rng(41)
    for n in (2, 4, 6):
        for omega in (0.1, 0.5, 0.9):
            p = make_params(n, omega)
            for zeta in rng.uniform(0.1, 100.0, size=30):
                zeta = float(zeta)
                m = lmi_residual(zeta, p)
                closed = -4.0 * (1.0 + 1.0 / n) / (omega ** (1.0 / n) * zeta * zeta)
                assert m.a11 == 0.0
                assert abs(m.a12) <= 1e-14
                assert math.isclose(m.a22, closed, rel_tol=1e-12)
                assert m.eigenvalues()[1] <= 1e-12


def test_lmi_identity_behind_classify():
    """classify() reports the LMI from the closed-form residual
    diag(0, negative); on criterion 05's grid, at the figure parameters and
    at omega far above them, the oracle's entry-by-entry residual has that
    form to one rounding of the off-diagonal cancellation a - w*(a/w).  The
    50-point sampling this replaced reported that rounding as worst_eig
    (5.3e-18 at n = 2, omega = 1e30)."""
    for n in (2, 4, 6):
        for omega in (0.1, 0.5, 0.9, 1e30, 1e100):
            p = make_params(n, omega)
            for zeta in LMI_GRID:
                m = lmi_residual(zeta, p)
                assert m.a11 == 0.0 and m.a22 < 0.0
                assert abs(m.a12) <= 2.0 * math.ulp(1.0 / zeta)
            lmi = classify(p).to_json_dict()["lmi"]
            assert lmi["verified"] is True
            assert lmi["worst_eig"] == 0.0


def test_lmi_rejects_odd_n():
    with pytest.raises(ValidationError) as exc:
        lmi_residual(1.0, make_params(3, 0.5))
    assert exc.value.field == "n"


def test_lyapunov_v_anchor_values():
    p = make_params(2, 0.5)
    u = 0.5 ** -0.5
    assert lyapunov_V(0.0, 0.0, p) == 0.0
    assert lyapunov_V(0.0, 0.5, p) == 0.25
    assert math.isclose(lyapunov_V(2.0 * u, 0.0, p), basin_alpha(p), rel_tol=1e-12)
    assert math.isclose(basin_alpha(p), ALPHA_MAX_N2_OMEGA_HALF, rel_tol=1e-14)
    assert math.isclose(lyapunov_V(1.0 + math.sqrt(2.0), 0.0, p),
                        V_AT_UNIT_START, rel_tol=1e-13)
    with pytest.raises(ValidationError):
        lyapunov_V(0.0, 0.0, make_params(3, 0.5))


def test_lyapunov_vdot_values():
    assert lyapunov_Vdot(0.5, 2.0) == -0.5
    assert lyapunov_Vdot(0.0, 7.0) == 0.0
    rng = np.random.default_rng(43)
    for _ in range(100):
        assert lyapunov_Vdot(float(rng.normal()), float(rng.uniform(0.1, 50))) <= 0.0
    with pytest.raises(ValidationError):
        lyapunov_Vdot(1.0, 0.0)


@pytest.mark.parametrize("zeta", [math.nan, math.inf, 0.0, -1.0])
@pytest.mark.parametrize("call", [
    lambda t: lyapunov_Vdot(1.0, t),
    lambda t: instability_Vdot(0.0, 1.0, t, make_params(1, 0.5)),
    lambda t: jacobian(t, 0.0, make_params(2, 0.5)),
], ids=["lyapunov_Vdot", "instability_Vdot", "oracle.jacobian"])
def test_zeta_rule(call, zeta):
    """A nan zeta is refused like any other non-positive one, never
    carried into a nan rate."""
    with pytest.raises(ValidationError) as exc:
        call(zeta)
    assert exc.value.field == "zeta"
    assert exc.value.message == f"must be finite and > 0, got {zeta!r}"


def test_lyapunov_local_positivity_on_ball():
    rng = np.random.default_rng(47)
    for n, omega in ((2, 0.5), (4, 0.2)):
        p = make_params(n, omega)
        u = omega ** (-1.0 / n)
        for _ in range(10_000):
            r = 2.0 * u * math.sqrt(rng.uniform(0.0, 1.0))
            ang = rng.uniform(0.0, 2.0 * math.pi)
            x1, x2 = r * math.cos(ang), r * math.sin(ang)
            v = lyapunov_V(x1, x2, p)
            assert v >= -1e-12
            if r >= 1e-3:
                assert v > 0.0


def test_descent_along_flow():
    p = make_params(4, 0.9)
    traj = integrate(p, IntegratorOptions(zeta_end=60.0))
    left = equilibria(p)[0]
    v = np.array([lyapunov_V(float(z) - left.z_eq, float(dz), p)
                  for z, dz in zip(traj.zs, traj.dzs)])
    assert float(np.max(np.diff(v))) <= 1e-8


def test_sublevel_invariance_from_unit_start():
    p = make_params(2, 0.5)
    left = equilibria(p)[0]
    x0 = (1.0 - left.z_eq, 0.0)
    assert basin_contains(x0[0], x0[1], 1e-2, p)
    v0 = lyapunov_V(x0[0], x0[1], p)
    traj = integrate(p, IntegratorOptions(zeta_end=60.0))
    for z, dz in zip(traj.zs, traj.dzs):
        assert lyapunov_V(float(z) - left.z_eq, float(dz), p) <= v0 + 1e-8


def test_basin_membership_cases():
    p = make_params(2, 0.5)
    u = 0.5 ** -0.5
    assert basin_contains(0.0, 0.0, 0.1, p)
    assert basin_contains(0.5, 0.3, 0.1, p)
    # the ball cut removes points regardless of their V level
    assert not basin_contains(0.0, 2.1 * u, 0.1, p)
    # V at the ball's rightmost point sits exactly at the critical level
    assert not basin_contains(2.0 * u, 0.0, 1e-6, p)
    for bad in (0.0, -1.0, basin_alpha(p), basin_alpha(p) + 1.0):
        with pytest.raises(ValidationError) as exc:
            basin_contains(0.0, 0.0, bad, p)
        assert exc.value.field == "delta"


def test_basin_alpha_even_only():
    with pytest.raises(ValidationError):
        basin_alpha(make_params(5, 0.5))


def test_basin_alpha_needs_positive_omega():
    with pytest.raises(ValidationError) as exc:
        basin_alpha(make_params(2, 0.0))
    assert exc.value.field == "omega"
    assert exc.value.message == "no equilibrium exists for omega = 0"


def test_instability_v_anchor_values():
    p = make_params(1, 0.5)
    assert instability_V(0.0, 1.0, 2.0, p) == 1.0
    assert instability_V(0.0, 0.0, 3.7, p) == 0.0
    # positive on the x2 axis, both signs of x2
    assert instability_V(0.0, -0.3, 5.0, p) > 0.0


def test_instability_zeta0_values():
    p = make_params(1, 0.5)
    assert math.isclose(instability_zeta0(p), math.sqrt(21.0), rel_tol=1e-15)
    p3 = make_params(3, 0.125)
    expect = math.sqrt(1.0 + 5.0 * (1.0 + 1.0 / 3.0) * 4.0 * 2.0)
    assert math.isclose(instability_zeta0(p3), expect, rel_tol=1e-15)


def test_instability_zeta0_for_every_n():
    """Bit for bit the direct formula wherever that one is finite (n up to
    1023), finite to n = 2046 and None past the float range, where the
    direct formula raised OverflowError (n >= 1025) or gave inf."""
    for n in list(range(1, 80)) + [255, 256, 511, 1000, 1022, 1023]:
        for omega in (1e-6, 0.125, 0.5, 0.9, 3.0):
            p = make_params(n, omega)
            u = omega ** (-1.0 / n)
            direct = math.sqrt(1.0 + 5.0 * (1.0 + 1.0 / n) * 2.0 ** (n - 1) * u)
            assert instability_zeta0(p) == direct or (
                direct == math.inf and math.isfinite(instability_zeta0(p)))
    for n in (1024, 1025, 2046):
        z0 = instability_zeta0(make_params(n, 0.5))
        assert math.isfinite(z0)
        # z0**2 = 1 + 5(1 + 1/n) 2**(n-1) u, checked on the logarithm
        assert math.isclose(2.0 * math.log2(z0), (n - 1) + math.log2(
            5.0 * (1.0 + 1.0 / n) * 0.5 ** (-1.0 / n)), rel_tol=1e-14)
    for n in (2047, 5000, 10 ** 9):
        report = classify(make_params(n, 0.5))
        assert report.instability_zeta0 is None
        assert "onset zeta0 beyond the float range" in report.summary
        assert report.to_json_dict()["instability_zeta0"] is None


def test_instability_rate_nonnegative_on_certified_region():
    """The rate is certified nonnegative on the ball intersected with
    x1 >= -u/2; that is the region on which the onset radius calibration
    holds (the (x1+u)**(n-1) lower bound needs x1+u >= u/2)."""
    rng = np.random.default_rng(53)
    for n in (1, 3, 5):
        for omega in (0.125, 0.5, 0.9):
            p = make_params(n, omega)
            u = omega ** (-1.0 / n)
            z0 = instability_zeta0(p)
            kept = 0
            while kept < 1500:
                r = 2.0 * u * math.sqrt(rng.uniform(0.0, 1.0))
                ang = rng.uniform(0.0, 2.0 * math.pi)
                x1, x2 = r * math.cos(ang), r * math.sin(ang)
                if x1 < -0.5 * u:
                    continue
                kept += 1
                for zf in (1.0, 2.0, 10.0):
                    assert instability_Vdot(x1, x2, z0 * zf, p) >= -1e-12


def test_instability_rate_full_ball_for_n1():
    # (x1+u)**(n-1) is identically 1 at n = 1, so no x1 restriction is needed
    p = make_params(1, 0.5)
    z0 = instability_zeta0(p)
    rng = np.random.default_rng(59)
    for _ in range(8000):
        r = 4.0 * math.sqrt(rng.uniform(0.0, 1.0))
        ang = rng.uniform(0.0, 2.0 * math.pi)
        assert instability_Vdot(r * math.cos(ang), r * math.sin(ang),
                                z0, p) >= -1e-12


def test_instability_rate_violation_outside_certified_region():
    """Inside the ball but with x1 < -u/2 the rate does go negative for
    odd n >= 3; this documents why the certified region is the half ball."""
    p = make_params(3, 0.125)
    z0 = instability_zeta0(p)
    assert math.hypot(-2.0, 3.0) < 4.0
    assert instability_Vdot(-2.0, 3.0, z0, p) < -1.0


def test_escape_from_repelling_equilibrium():
    esc = escape_zeta(make_params(1, 0.5))
    assert esc is not None
    assert abs(esc - 24.846081) <= 0.2
    # the right equilibrium of an even-n system repels the same way
    esc2 = escape_zeta(make_params(2, 0.5))
    assert esc2 is not None and esc2 < 50.0


def test_tiny_omega_is_a_validation_error():
    """omega**(-1/n) passes the float range for n = 1 below omega = 1/max
    float, and the displaced start's theta0 ~ 1/omega for every n there;
    the descent function's u**(n+1) does so already at larger omega.  Each
    was an OverflowError; now a ValidationError naming omega."""
    calls = [lambda: equilibria(make_params(1, 1e-310)),
             lambda: escape_zeta(make_params(1, 1e-310)),
             lambda: escape_zeta(make_params(2, 1e-310)),
             lambda: instability_Vdot(0.0, 0.0, 1.0, make_params(1, 1e-310)),
             lambda: lyapunov_V(0.0, 0.0, make_params(4, 1e-250)),
             lambda: lyapunov_V(0.0, 0.0, make_params(2, 1e-250))]
    for call in calls:
        with pytest.raises(ValidationError) as exc:
            call()
        assert exc.value.field == "omega"
        assert "float range" in exc.value.message
    # n = 1 just above the bound: the onset radius is past the float range
    # (it was inf, printed as Infinity), the equilibrium is not
    p = make_params(1, 1e-308)
    assert instability_zeta0(p) is None
    assert equilibria(p)[0].z_eq == 1e-308 ** -1.0


def test_escape_none_when_window_too_short():
    assert escape_zeta(make_params(1, 0.5), zeta_end=5.0) is None


def test_escape_at_the_start_outside_the_tube():
    """A perturbation past the threshold has left the tube at the start."""
    p = make_params(1, 0.5)
    start = IntegratorOptions(zeta_end=1.0).zeta_start
    assert escape_zeta(p, perturbation=20.0) == start


@pytest.mark.parametrize("n, perturbation", [
    (2, -5.0),  # ran from +3.59, the mirror of the start, and returned 3.324
    (3, -5.0),  # a negative base to the power 1/n: a TypeError on complex
    (2, -(0.5 ** -0.5)),  # ran from z = 0 and returned None
    (2, math.nan), (1, math.inf)])
def test_escape_zeta_refuses_a_start_off_the_equilibrium_side(n,
                                                              perturbation):
    with pytest.raises(ValidationError) as exc:
        escape_zeta(make_params(n, 0.5), perturbation=perturbation)
    assert exc.value.field == "perturbation"
    assert f"> -omega**(-1/n) = {-(0.5 ** (-1.0 / n))!r}" in exc.value.message


@pytest.mark.parametrize("n, perturbation", [
    (30, math.nextafter(-(0.5 ** (-1.0 / 30)), 0.0)),  # u + p = 2.2e-16
    (400, -0.9 * 0.5 ** (-1.0 / 400))])  # u + p = 0.1
def test_escape_zeta_refuses_a_start_that_underflows(n, perturbation):
    """(u + perturbation)**n underflowed to 0, and the run started from
    z = 0 and returned None."""
    with pytest.raises(ValidationError) as exc:
        escape_zeta(make_params(n, 0.5), perturbation=perturbation)
    assert exc.value.field == "perturbation"
    assert exc.value.message == (
        f"the displaced start (omega**(-1/n) + perturbation)**n underflows "
        f"to 0 at n = {n}, got {perturbation!r}")


@pytest.mark.parametrize("threshold", [math.nan, math.inf, 0.0, -1.0, "x"])
def test_escape_zeta_threshold_rule(threshold):
    """A nan threshold returned None, and "x" raised a bare TypeError."""
    with pytest.raises(ValidationError) as exc:
        escape_zeta(make_params(1, 0.5), threshold=threshold)
    assert exc.value.field == "threshold"
    assert exc.value.message == \
        f"must be finite and > 0, got {threshold!r}"


def test_convergence_toward_left_equilibrium():
    p = make_params(2, 0.5)
    traj = integrate(p, IntegratorOptions(zeta_end=200.0))
    assert abs(traj.evaluate_many([200.0])[0][0] + 0.5 ** -0.5) <= 0.1


def test_classify_even_report():
    report = classify(make_params(2, 0.5))
    d = report.to_json_dict()
    assert d["stable_regime"] is True
    assert d["lmi"]["verified"] is True
    assert d["lmi"]["worst_eig"] is not None and d["lmi"]["worst_eig"] <= 1e-12
    assert math.isclose(report.alpha_max, ALPHA_MAX_N2_OMEGA_HALF, rel_tol=1e-14)
    kinds = [eq.kind for eq in report.equilibria]
    assert kinds == ["stable_left", "unstable_right"]
    assert "stable" in report.summary
    assert list(d.keys()) == ["params", "equilibria", "alpha_max", "lmi",
                              "instability_zeta0", "stable_regime",
                              "start_in_basin"]
    assert d["start_in_basin"] is True
    assert list(d["lmi"].keys()) == ["verified", "worst_eig"]
    assert d["equilibria"][0]["kind"] == "stable_left"
    assert d["params"] == {"n": 2, "omega": 0.5, "theta0": 1.0}


def test_classify_odd_report():
    report = classify(make_params(3, 0.125))
    assert report.alpha_max is None
    assert [eq.kind for eq in report.equilibria] == ["unstable_odd"]
    assert report.equilibria[0].z_eq == 2.0
    d = report.to_json_dict()
    assert "lmi" not in d
    assert list(d.keys()) == ["params", "equilibria", "instability_zeta0",
                              "stable_regime"]


def test_classify_flags_untrapped_omega():
    report = classify(make_params(2, 1.5))
    assert report.to_json_dict()["stable_regime"] is False
    assert "outside the trapped" in report.summary


# (n, omega, theta0, whether the basin sentence appears); 3 * (1/3 rounded
# down) rounds to 1.0 but lies below 1, and the next omega up lies above it
@pytest.mark.parametrize("n, omega, theta0, outside", [
    (2, 1.5, 0.5, False), (2, 0.5, 3.0, True), (2, 1.5, 1.0, True),
    (2, 1 / 3, 3.0, False), (2, math.nextafter(1 / 3, 1.0), 3.0, True),
    (2, 1e300, 1e300, True), (3, 1.5, 3.0, False), (3, 0.5, 3.0, False)])
def test_summary_places_the_start_by_theta0_omega(n, omega, theta0, outside):
    """For even n the start (theta0**(1/n), 0) leaves the basin estimate
    exactly when theta0*omega >= 1, whatever omega alone says; odd n has
    no basin estimate, and the trapped-regime remark follows omega."""
    report = classify(make_params(n, omega, theta0))
    sentence = (f" The start theta0 = {theta0:g} has theta0*omega = "
                f"{theta0 * omega:g} >= 1, so it is not inside the basin "
                f"estimate.")
    assert (sentence in report.summary) == outside
    assert ("basin" in report.summary) == outside
    assert ("outside the trapped regime 0 < omega < 1." in report.summary) \
        == (omega >= 1.0)
    # the JSON report carries no summary: theta0 moves only its params and,
    # for even n, start_in_basin, which the sentence's absence states
    want = classify(make_params(n, omega)).to_json_dict()
    want["params"] = make_params(n, omega, theta0)._asdict()
    if n % 2 == 0:
        want["start_in_basin"] = not outside
    assert report.to_json_dict() == want
