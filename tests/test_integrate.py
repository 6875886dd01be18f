"""Adaptive integration: start modes, dense output, events, divergence."""

from __future__ import annotations

import math

import numpy as np
import pytest

from lanestab import (
    HaloProfile,
    IntegrationError,
    IntegratorOptions,
    ValidationError,
    first_zero,
    gamma2_profile,
    halo_boundary,
    integrate,
    make_params,
    powerlaw_profile,
    rhs,
    series_start,
    theta_from_z,
)
from lanestab.integrate import COMPLETED, DIVERGED, EVENT_DIVERGED, EVENT_ZERO


@pytest.fixture(scope="module")
def run_n2_omega_half():
    return integrate(make_params(2, 0.5), IntegratorOptions(zeta_end=30.0))


def test_series_coefficient_rederived_symbolically():
    """The quadratic-start coefficient must follow from the equation itself,
    not from trusting the implementation: substitute z = z0 + c*zeta**2 into
    the self-adjoint form and match the leading order at zeta -> 0."""
    import sympy as sp

    zeta, c, z0, om = sp.symbols("zeta c z0 omega", positive=True)
    n = sp.Symbol("n", positive=True, integer=True)
    z = z0 + c * zeta ** 2
    residual = (n + 1) * (sp.diff(z, zeta, 2) + 2 * sp.diff(z, zeta) / zeta) \
        - (om * z ** n - 1)
    leading = sp.limit(residual, zeta, 0)
    solutions = sp.solve(sp.Eq(leading, 0), c)
    assert len(solutions) == 1
    assert sp.simplify(solutions[0] - (om * z0 ** n - 1) / (6 * (n + 1))) == 0


def test_series_start_state():
    p = make_params(2, 0.5)
    s = series_start(p, 1e-3)
    c = (0.5 * 1.0 - 1.0) / (6.0 * 3.0)
    assert c == -1.0 / 36.0
    # same float operations as the implementation, so equality is exact
    assert s.zeta == 1e-3
    assert s.z == 1.0 + c * 1e-3 * 1e-3
    assert s.dz == 2.0 * c * 1e-3


def test_series_start_domain():
    p = make_params(2, 0.5)
    series_start(p, 0.01)
    for bad in (0.0, -1e-3, 0.02):
        with pytest.raises(ValidationError) as exc:
            series_start(p, bad)
        assert exc.value.field == "zeta_small"


@pytest.mark.parametrize(
    "kwargs, field",
    [
        (dict(zeta_end=0.0), "zeta_end"),
        (dict(zeta_end=float("inf")), "zeta_end"),
        (dict(zeta_end=10.0, rel_tol=2e-3), "rel_tol"),
        (dict(zeta_end=10.0, rel_tol=0.0), "rel_tol"),
        (dict(zeta_end=10.0, abs_tol=0.0), "abs_tol"),
        (dict(zeta_end=10.0, rel_tol=1e-9, abs_tol=1e-6), "abs_tol"),
        (dict(zeta_end=10.0, max_steps=0), "max_steps"),
        (dict(zeta_end=10.0, max_steps=1.5), "max_steps"),
        (dict(zeta_end=10.0, start_mode="euler"), "start_mode"),
    ],
)
def test_options_validation(kwargs, field):
    with pytest.raises(ValidationError) as exc:
        IntegratorOptions(**kwargs)
    assert exc.value.field == field


def test_zeta_end_must_exceed_zeta_start():
    p = make_params(2, 0.5, zeta_start=1e-3)
    with pytest.raises(ValidationError) as exc:
        integrate(p, IntegratorOptions(zeta_end=1e-3))
    assert exc.value.field == "zeta_end"


def test_series_mode_needs_small_zeta_start():
    p = make_params(2, 0.5, zeta_start=0.05)
    with pytest.raises(ValidationError) as exc:
        integrate(p, IntegratorOptions(zeta_end=10.0, start_mode="series"))
    assert exc.value.field == "zeta_start"


def test_trajectory_shape(run_n2_omega_half):
    traj = run_n2_omega_half
    assert traj.status == COMPLETED
    assert traj.diverged_at is None
    assert traj.zetas[0] == 1e-3
    assert traj.zetas[-1] == 30.0
    assert np.all(np.diff(traj.zetas) > 0.0)
    assert traj.q.shape == (len(traj.zetas) - 1, 2, 4)
    assert len(traj.zs) == len(traj.zetas) == len(traj.dzs)
    # even n keeps theta = z**n nonnegative by construction
    assert all(theta_from_z(float(z), 2) >= 0.0 for z in traj.zs)


def test_dense_output_reproduces_nodes(run_n2_omega_half):
    traj = run_n2_omega_half
    for k in range(0, len(traj.zetas), 37):
        z, dz = traj.evaluate(float(traj.zetas[k]))
        assert abs(z - traj.zs[k]) <= 1e-12
        assert abs(dz - traj.dzs[k]) <= 1e-12
    # each interpolant must hand over to the next node it was fitted against
    for k in range(0, len(traj.q), 53):
        h = traj.zetas[k + 1] - traj.zetas[k]
        y_right = np.array([traj.zs[k], traj.dzs[k]]) + h * traj.q[k].sum(-1)
        assert abs(y_right[0] - traj.zs[k + 1]) <= 1e-10
        assert abs(y_right[1] - traj.dzs[k + 1]) <= 1e-10


def test_evaluate_many_and_range_checks(run_n2_omega_half):
    traj = run_n2_omega_half
    grid = np.linspace(0.01, 29.9, 57)
    out = traj.evaluate_many(grid)
    assert out.shape == (57, 2)
    for t, row in zip(grid, out):
        z, dz = traj.evaluate(float(t))
        assert row[0] == z and row[1] == dz
    for bad in (5e-4, 30.5):
        with pytest.raises(ValidationError) as exc:
            traj.evaluate(bad)
        assert exc.value.field == "zeta"
    # one point out of range fails the whole array
    with pytest.raises(ValidationError) as exc:
        traj.evaluate_many(np.append(grid, 30.5))
    assert exc.value.field == "zeta"
    assert traj.evaluate_many([]).shape == (0, 2)


@pytest.mark.parametrize("n, status", [(2, COMPLETED), (3, DIVERGED)])
def test_interpolant_starts_on_the_vector_field(n, status):
    """The integrator steps model.rhs itself: every step's first dense
    coefficient column is rhs at the left node, bit for bit, which is what
    makes the piecewise curve C1."""
    p = make_params(n, 0.5)
    traj = integrate(p, IntegratorOptions(zeta_end=60.0))
    assert traj.status == status
    for k in range(len(traj.q)):
        want = rhs(float(traj.zetas[k]), traj.zs[k], traj.dzs[k], p)
        assert tuple(traj.q[k, :, 0]) == want


def test_ode_residual_on_dense_output():
    """Differentiating the interpolant must reproduce the right-hand side;
    h = 1e-6*zeta central differences, 1e-5 relative with small floors."""
    rng = np.random.default_rng(42)
    for n, omega in ((2, 0.5), (1, 0.5)):
        p = make_params(n, omega)
        traj = integrate(p, IntegratorOptions(zeta_end=40.0))
        lo, hi = float(traj.zetas[0]), float(traj.zetas[-1])
        for zeta in rng.uniform(lo * 1.05, hi * 0.95, size=100):
            zeta = float(zeta)
            h = 1e-6 * zeta
            zp = traj.evaluate(zeta + h)
            zm = traj.evaluate(zeta - h)
            zc = traj.evaluate(zeta)
            want = rhs(zeta, zc[0], zc[1], p)
            fd_z = (zp[0] - zm[0]) / (2.0 * h)
            fd_dz = (zp[1] - zm[1]) / (2.0 * h)
            assert abs(fd_z - zc[1]) <= 1e-5 * max(abs(zc[1]), 1e-2)
            assert abs(fd_dz - want[1]) <= 1e-5 * max(abs(want[1]), 3e-3)


def test_start_mode_agreement_downstream():
    p = make_params(2, 0.5)
    t_off = integrate(p, IntegratorOptions(zeta_end=2.0))
    t_ser = integrate(p, IntegratorOptions(zeta_end=2.0, start_mode="series"))
    assert abs(t_off.evaluate(1.0)[0] - t_ser.evaluate(1.0)[0]) <= 1e-7


def test_tolerance_self_consistency():
    p = make_params(2, 0.5)

    def z_end(rtol: float) -> float:
        opts = IntegratorOptions(zeta_end=30.0, rel_tol=rtol, abs_tol=1e-13)
        return integrate(p, opts).evaluate(30.0)[0]

    for rtol in (1e-6, 1e-8):
        assert abs(z_end(rtol) - z_end(rtol / 2.0)) < rtol


def test_tolerance_ladder_converges():
    p = make_params(2, 0.5)
    ref = integrate(p, IntegratorOptions(zeta_end=30.0, rel_tol=1e-12,
                                         abs_tol=1e-14)).evaluate(30.0)[0]
    errs = []
    for rtol, atol in ((1e-5, 1e-8), (1e-7, 1e-10), (1e-9, 1e-12)):
        opts = IntegratorOptions(zeta_end=30.0, rel_tol=rtol, abs_tol=atol)
        errs.append(abs(integrate(p, opts).evaluate(30.0)[0] - ref))
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] <= 1e-8


def test_oracle_gamma2_closed_form():
    p = make_params(1, 0.5)
    traj = integrate(p, IntegratorOptions(zeta_end=10.0, start_mode="series"))
    profile = HaloProfile(theta0=1.0, omega=0.5)
    grid = np.linspace(1e-3, 10.0, 301)
    zs = traj.evaluate_many(grid)[:, 0]
    err = max(abs(float(z) - gamma2_profile(float(t), profile))
              for t, z in zip(grid, zs))
    assert err <= 1e-6


def test_oracle_powerlaw_closed_form():
    # omega = 0 with n = 2: theta is exactly (1 - zeta**2/18)**2
    p = make_params(2, 0.0)
    traj = integrate(p, IntegratorOptions(zeta_end=4.2))
    grid = np.linspace(1e-3, 4.2, 301)
    zs = traj.evaluate_many(grid)[:, 0]
    err = max(abs(theta_from_z(float(z), 2) - powerlaw_profile(float(t), 1.5, 1.0))
              for t, z in zip(grid, zs))
    assert err <= 1e-6


def test_first_zero_matches_halo_boundary():
    p = make_params(1, 0.5)
    traj = integrate(p, IntegratorOptions(zeta_end=6.0, start_mode="series"))
    zc = first_zero(traj)
    assert zc is not None
    assert abs(zc - halo_boundary(HaloProfile(theta0=1.0, omega=0.5))) <= 1e-6
    z_at, _ = traj.evaluate(zc)
    assert abs(z_at) <= 1e-9
    kinds = [ev.kind for ev in traj.events]
    assert EVENT_ZERO in kinds


def test_first_zero_none_on_constant_solution():
    """theta0 = 4 with omega = 0.25 starts exactly on the constant solution
    z = 2, which the stepper must preserve bit for bit."""
    p = make_params(2, 0.25, theta0=4.0)
    traj = integrate(p, IntegratorOptions(zeta_end=20.0))
    assert first_zero(traj) is None
    assert traj.events == ()
    assert np.all(traj.zs == 2.0)
    assert traj.evaluate(7.3) == (2.0, 0.0)


def test_divergence_guard_structured_outcome():
    # a start just outside the repelling branch must blow up in finite radius
    u = 0.5 ** -0.5
    p = make_params(2, 0.5, theta0=(u + 0.01) ** 2)
    traj = integrate(p, IntegratorOptions(zeta_end=100.0))
    assert traj.status == DIVERGED
    assert traj.diverged_at is not None
    assert 10.0 < traj.diverged_at < 20.0
    assert traj.events[-1].kind == EVENT_DIVERGED
    assert traj.events[-1].zeta == traj.diverged_at
    z_at, _ = traj.evaluate(traj.diverged_at)
    assert abs(abs(z_at) - 1e12) <= 1e-3 * 1e12
    assert traj.zetas[-1] >= traj.diverged_at


def test_events_are_ordered(run_n2_omega_half):
    evs = run_n2_omega_half.events
    assert all(a.zeta < b.zeta for a, b in zip(evs, evs[1:]))


def test_max_steps_exhaustion_raises():
    p = make_params(2, 0.5)
    with pytest.raises(IntegrationError) as exc:
        integrate(p, IntegratorOptions(zeta_end=60.0, max_steps=10))
    assert exc.value.last_zeta >= 1e-3
    assert exc.value.last_zeta < 60.0
