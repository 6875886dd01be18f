"""Adaptive integration: start modes, dense output, events, divergence."""

from __future__ import annotations

import copy
import math
import pickle
from bisect import bisect_right

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
from lanestab.integrate import COMPLETED, DIVERGED, Trajectory, _dense
from lanestab.stability import escape_zeta


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
    p = make_params(2, 0.5, zeta_start=1e-3)
    z, dz = series_start(p)
    c = (0.5 * 1.0 - 1.0) / (6.0 * 3.0)
    assert c == -1.0 / 36.0
    # same float operations as the implementation, so equality is exact
    assert z == 1.0 + c * 1e-3 * 1e-3
    assert dz == 2.0 * c * 1e-3


def test_series_start_domain():
    """series_start owns the 0.01 cap; make_params owns zeta_start > 0."""
    series_start(make_params(2, 0.5, zeta_start=0.01))
    for bad in (0.0, -1e-3, 0.02):
        with pytest.raises(ValidationError) as exc:
            series_start(make_params(2, 0.5, zeta_start=bad))
        assert exc.value.field == "zeta_start"


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


def test_options_by_position_keyword_and_default():
    full = IntegratorOptions(5.0, 1e-8, 1e-10, 100, "series")
    assert full == IntegratorOptions(zeta_end=5.0, rel_tol=1e-8, abs_tol=1e-10,
                                     max_steps=100, start_mode="series")
    assert full == IntegratorOptions(5.0, 1e-8, start_mode="series",
                                     max_steps=100, abs_tol=1e-10)
    opts = IntegratorOptions(5.0)
    assert (opts.zeta_end, opts.rel_tol, opts.abs_tol, opts.max_steps,
            opts.start_mode) == (5.0, 1e-9, 1e-12, 1_000_000, "offset")
    assert opts == IntegratorOptions(zeta_end=5.0) != full
    for args, kwargs in [((), {}), ((), {"rel_tol": 1e-8}),  # missing
                         ((5.0,), {"tol": 1e-8}),  # unknown
                         ((5.0,), {"zeta_end": 6.0}),  # duplicated
                         ((5.0, 1e-8, 1e-10, 100, "series", 1), {})]:
        with pytest.raises(TypeError):
            IntegratorOptions(*args, **kwargs)


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
    assert len(traj.slopes) == 14 * (len(traj.zetas) - 1)
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
    for k in range(0, len(traj.zetas) - 1, 53):
        h = traj.zetas[k + 1] - traj.zetas[k]
        y_right = np.array([traj.zs[k], traj.dzs[k]]) \
            + h * np.sum(traj.quartic(k), axis=-1)
        assert abs(y_right[0] - traj.zs[k + 1]) <= 1e-10
        assert abs(y_right[1] - traj.dzs[k + 1]) <= 1e-10


def test_evaluate_many_and_range_checks(run_n2_omega_half):
    traj = run_n2_omega_half
    grid = np.linspace(0.01, 29.9, 57)
    out = traj.evaluate_many(grid)
    assert np.asarray(out).shape == (57, 2)
    assert all(type(v) is float for row in out for v in row)
    for t, row in zip(grid, out):
        z, dz = traj.evaluate(float(t))
        assert row[0] == z and row[1] == dz
    # points that share a step reuse its quartic, in either order, and the
    # last node belongs to the last step
    fine = [*np.linspace(traj.zetas[0], traj.zetas[3], 40), traj.zetas[-1]]
    for pts in (fine, fine[::-1]):
        assert traj.evaluate_many(pts) == [traj.evaluate(t) for t in pts]
    assert abs(traj.evaluate(traj.zetas[-1])[0] - traj.zs[-1]) <= 1e-10
    for bad in (5e-4, 30.5):
        with pytest.raises(ValidationError) as exc:
            traj.evaluate(bad)
        assert exc.value.field == "zeta"
    # one point out of range fails the whole array
    with pytest.raises(ValidationError) as exc:
        traj.evaluate_many(np.append(grid, 30.5))
    assert exc.value.field == "zeta"
    assert traj.evaluate_many([]) == []


@pytest.mark.parametrize("n, status", [(2, COMPLETED), (3, DIVERGED)])
def test_interpolant_starts_on_the_vector_field(n, status):
    """The integrator steps model.rhs itself: every step's first dense
    coefficient column is rhs at the left node, bit for bit, which is what
    makes the piecewise curve C1."""
    p = make_params(n, 0.5)
    traj = integrate(p, IntegratorOptions(zeta_end=60.0))
    assert traj.status == status
    for k in range(len(traj.zetas) - 1):
        want = rhs(float(traj.zetas[k]), traj.zs[k], traj.dzs[k], p)
        assert tuple(q[0] for q in traj.quartic(k)) == want


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
    zs = np.asarray(traj.evaluate_many(grid))[:, 0]
    err = max(abs(float(z) - gamma2_profile(float(t), profile))
              for t, z in zip(grid, zs))
    assert err <= 1e-6


def test_oracle_powerlaw_closed_form():
    # omega = 0 with n = 2: theta is exactly (1 - zeta**2/18)**2
    p = make_params(2, 0.0)
    traj = integrate(p, IntegratorOptions(zeta_end=4.2))
    grid = np.linspace(1e-3, 4.2, 301)
    zs = np.asarray(traj.evaluate_many(grid))[:, 0]
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
    assert zc == traj.events[0]
    assert all(type(ev) is float for ev in traj.events)


def test_first_zero_none_on_constant_solution():
    """theta0 = 4 with omega = 0.25 starts exactly on the constant solution
    z = 2, which the stepper must preserve bit for bit."""
    p = make_params(2, 0.25, theta0=4.0)
    traj = integrate(p, IntegratorOptions(zeta_end=20.0))
    assert first_zero(traj) is None
    assert traj.events == ()
    assert np.all(np.asarray(traj.zs) == 2.0)
    assert traj.evaluate(7.3) == (2.0, 0.0)


def test_divergence_guard_structured_outcome():
    # a start just outside the repelling branch must blow up in finite radius
    u = 0.5 ** -0.5
    p = make_params(2, 0.5, theta0=(u + 0.01) ** 2)
    traj = integrate(p, IntegratorOptions(zeta_end=100.0))
    assert traj.status == DIVERGED
    assert traj.diverged_at is not None
    assert 10.0 < traj.diverged_at < 20.0
    assert traj.events == ()  # z runs away upward; the guard is no event
    z_at, _ = traj.evaluate(traj.diverged_at)
    assert abs(abs(z_at) - 1e12) <= 1e-3 * 1e12
    assert traj.zetas[-1] >= traj.diverged_at


def test_events_are_ordered(run_n2_omega_half):
    evs = run_n2_omega_half.events
    assert evs and all(a < b for a, b in zip(evs, evs[1:]))


def test_diverged_run_keeps_its_zero_crossings():
    """Odd n runs down through z = 0 before it blows up: the zero is an
    event, the guard crossing is diverged_at, and the status follows."""
    traj = integrate(make_params(3, 0.5), IntegratorOptions(zeta_end=60.0))
    assert traj.status == DIVERGED
    assert len(traj.events) == 1 and type(traj.events[0]) is float
    assert first_zero(traj) == traj.events[0] < traj.diverged_at
    assert abs(traj.evaluate(traj.events[0])[0]) <= 1e-9
    # the guard step is far steeper here than in the n = 2 runaway: one
    # float of zeta moves z by 4.4e-4 of the guard, and diverged_at, the
    # last float before the crossing, leaves 1.0e-4 in z
    z_at, _ = traj.evaluate(traj.diverged_at)
    assert abs(z_at + 1e12) <= 5e-4 * 1e12


def _changes_side_after(traj, zeta, g) -> bool:
    """Whether g(z), z on the quartic of the step holding zeta, lies on
    opposite sides of zero at zeta and at the next float, or is zero."""
    k = min(bisect_right(traj.zetas, zeta), len(traj.zetas) - 1) - 1
    t0, t1 = traj.zetas[k], traj.zetas[k + 1]
    a, b = (g(_dense(t, t0, t1 - t0, traj.zs[k], traj.quartic(k)[0]))
            for t in (zeta, math.nextafter(zeta, math.inf)))
    return a == 0.0 or b == 0.0 or (a > 0.0) != (b > 0.0)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 6])
def test_every_crossing_is_located_to_one_float(n):
    """Each zero of z, over omega in {0, 0.1, 0.5, 0.9} and both start
    modes (40 events), and each n = 3 guard crossing, is the last float
    of its step's quartic before the crossing; a fixed bisection width
    left them short by up to 8.2e-13 relative."""
    for omega in (0.0, 0.1, 0.5, 0.9):
        for mode in ("offset", "series"):
            traj = integrate(make_params(n, omega),
                             IntegratorOptions(60.0, start_mode=mode))
            assert len(traj.events) == 1
            assert _changes_side_after(traj, traj.events[0], lambda z: z)
            if n == 3 and omega > 0.0:
                assert _changes_side_after(traj, traj.diverged_at,
                                           lambda z: abs(z) - 1e12)


@pytest.mark.parametrize("n, omega", [(1, 0.5), (1, 0.9), (2, 0.1), (2, 0.5),
                                      (2, 0.9), (3, 0.1), (3, 0.5), (3, 0.9)])
def test_escape_zeta_is_located_to_one_float(n, omega, monkeypatch):
    runs = []
    monkeypatch.setattr("lanestab.stability.integrate",
                        lambda *a: runs.append(integrate(*a)) or runs[-1])
    zeta, u = escape_zeta(make_params(n, omega)), omega ** (-1.0 / n)
    assert zeta is not None
    assert _changes_side_after(runs[0], zeta, lambda z: abs(z - u) - 10.0)


@pytest.mark.parametrize("n, status", [(2, COMPLETED), (3, DIVERGED)])
def test_trajectory_survives_copy_and_pickle(n, status):
    """status is derived from diverged_at, so a rebuilt Trajectory keeps it;
    it is read-only like every field."""
    traj = integrate(make_params(n, 0.5), IntegratorOptions(zeta_end=30.0))
    assert traj.status == status
    for twin in (copy.copy(traj), copy.deepcopy(traj),
                 pickle.loads(pickle.dumps(traj))):
        assert twin == traj
        assert twin.status == status
        assert twin.events == traj.events
        assert twin.diverged_at == traj.diverged_at
    with pytest.raises(AttributeError):
        traj.status = COMPLETED if status == DIVERGED else DIVERGED
    assert "status" not in Trajectory.__slots__


def test_max_steps_exhaustion_raises():
    p = make_params(2, 0.5)
    with pytest.raises(IntegrationError) as exc:
        integrate(p, IntegratorOptions(zeta_end=60.0, max_steps=10))
    assert exc.value.last_zeta >= 1e-3
    assert exc.value.last_zeta < 60.0


def test_tableau_is_rk45s():
    """C, A, B, E and the interpolant P are the Dormand-Prince 5(4) pair
    with Shampine's free quartic, bit for bit as scipy's RK45 holds them."""
    from scipy.integrate import RK45

    from lanestab.integrate import A, B, C, E, P

    a = np.zeros((6, 5))
    for i, row in enumerate(A, start=1):
        a[i, :len(row)] = row
    assert np.array_equal(C, RK45.C) and np.array_equal(a, RK45.A)
    assert np.array_equal(B, RK45.B) and np.array_equal(E, RK45.E)
    assert np.array_equal(P, RK45.P)


@pytest.mark.parametrize("zeta_end, steps", [(60.0, 705), (500.0, 5443)])
def test_matches_scipy_rk45_step_for_step(zeta_end, steps):
    """The stepper is Dormand-Prince 5(4) with RK45's controller, so
    scipy's RK45 under the same tolerances and first step is an
    independent oracle: the same accepted nodes up to rounding in the
    error estimate, and the same end state."""
    from scipy.integrate import RK45

    p = make_params(2, 0.5)
    traj = integrate(p, IntegratorOptions(zeta_end=zeta_end))
    ref = RK45(lambda t, y: np.array(rhs(t, y[0], y[1], p)), p.zeta_start,
               np.array([1.0, 0.0]), t_bound=zeta_end, rtol=1e-9, atol=1e-12,
               first_step=min(1e-4, (zeta_end - p.zeta_start) / 100.0))
    nodes = [ref.t]
    while ref.status == "running":
        ref.step()
        nodes.append(ref.t)
    assert ref.status == "finished"
    assert len(traj.zetas) == len(nodes) == steps + 1
    assert np.allclose(traj.zetas, nodes, rtol=1e-6, atol=0.0)
    assert abs(traj.zs[-1] - ref.y[0]) <= 1e-7
    assert abs(traj.dzs[-1] - ref.y[1]) <= 1e-7


def test_overflowing_trial_stage_is_a_rejected_step():
    """n = 200 overshoots z**200 past the float range on a trial stage;
    that step is rejected and shrunk, as RK45 does with an inf norm, and
    the run completes without a RuntimeWarning (which the test
    configuration turns into an error)."""
    traj = integrate(make_params(200, 0.5), IntegratorOptions(zeta_end=60.0))
    assert traj.status == COMPLETED
    assert traj.zetas[-1] == 60.0
    assert len(traj.zetas) - 1 == 211
    assert np.all(np.isfinite([traj.quartic(k) for k in range(211)]))
    assert 1.0 < np.max(np.abs(traj.zs)) < 1.1


@pytest.mark.parametrize("n, omega, theta0, message", [
    # z**5 at the start overflows: there is no first slope to step with
    (5, 1.0, 1.7976931348623157e308, "right-hand side overflows at the start"),
    # every trial stage overflows, so the step shrinks below min_step
    (2, 0.5, 1e200, "step size underflow"),
])
def test_overflow_is_an_integration_error(n, omega, theta0, message):
    p = make_params(n, omega, theta0=theta0)
    with pytest.raises(IntegrationError, match=message) as exc:
        integrate(p, IntegratorOptions(zeta_end=60.0))
    assert exc.value.last_zeta == p.zeta_start
