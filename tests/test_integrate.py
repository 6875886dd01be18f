"""Adaptive integration: start modes, dense output, events, divergence."""

from __future__ import annotations

import copy
import importlib
import math
import pickle
from array import array
from bisect import bisect_right
from itertools import accumulate

import numpy as np
import pytest

from lanestab import (
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
from lanestab.integrate import (A, B, C, COMPLETED, DIVERGED, P, Trajectory,
                                _dense, _step)
from lanestab.model import _bisect

from certificate_oracle import escape_zeta

# lanestab.integrate names the function; the sink tests patch the module
INTEGRATE_MODULE = importlib.import_module("lanestab.integrate")


@pytest.fixture(scope="module")
def run_n2_omega_half():
    return integrate(make_params(2, 0.5), IntegratorOptions(zeta_end=30.0))


def _point(traj, zeta):
    """Dense-output (z, dz) at one zeta."""
    return traj.evaluate_many([zeta])[0]


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
    z, dz = series_start(make_params(2, 0.5), 1e-3)
    c = (0.5 * 1.0 - 1.0) / (6.0 * 3.0)
    assert c == -1.0 / 36.0
    # same float operations as the implementation, so equality is exact
    assert z == 1.0 + c * 1e-3 * 1e-3
    assert dz == 2.0 * c * 1e-3


def test_series_start_domain():
    """IntegratorOptions owns the series start's 0.01 cap and
    zeta_start > 0; series_start checks neither."""
    IntegratorOptions(10.0, start_mode="series", zeta_start=0.01)
    IntegratorOptions(10.0, zeta_start=0.02)  # the cap is the series start's
    for bad in (0.0, -1e-3, 0.02):
        with pytest.raises(ValidationError) as exc:
            IntegratorOptions(10.0, start_mode="series", zeta_start=bad)
        assert exc.value.field == "zeta_start"
    c = -1.0 / 36.0
    assert series_start(make_params(2, 0.5), 0.02) == (1.0 + c * 0.02 * 0.02,
                                                       2.0 * c * 0.02)


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
    full = IntegratorOptions(5.0, 1e-8, 1e-10, 100, "series", 2e-3)
    assert full == IntegratorOptions(zeta_end=5.0, rel_tol=1e-8, abs_tol=1e-10,
                                     max_steps=100, start_mode="series",
                                     zeta_start=2e-3)
    assert full == IntegratorOptions(5.0, 1e-8, start_mode="series",
                                     zeta_start=2e-3, max_steps=100,
                                     abs_tol=1e-10)
    opts = IntegratorOptions(5.0)
    assert (opts.zeta_end, opts.rel_tol, opts.abs_tol, opts.max_steps,
            opts.start_mode, opts.zeta_start) == (5.0, 1e-9, 1e-12, 1_000_000,
                                                  "offset", 1e-3)
    assert opts == IntegratorOptions(zeta_end=5.0) != full
    # the start is the last field, so a call without it keeps its meaning
    assert IntegratorOptions(5.0, 1e-8, 1e-10, 100, "series") \
        == IntegratorOptions(5.0, 1e-8, 1e-10, 100, "series", 1e-3)
    for args, kwargs in [((), {}), ((), {"rel_tol": 1e-8}),  # missing
                         ((5.0,), {"tol": 1e-8}),  # unknown
                         ((5.0,), {"zeta_end": 6.0}),  # duplicated
                         ((5.0, 1e-8, 1e-10, 100, "series", 1e-3, 1), {})]:
        with pytest.raises(TypeError):
            IntegratorOptions(*args, **kwargs)


def test_zeta_end_must_exceed_zeta_start():
    with pytest.raises(ValidationError) as exc:
        IntegratorOptions(zeta_end=1e-3)
    assert exc.value.field == "zeta_end"
    assert exc.value.message == "must exceed zeta_start = 0.001, got 0.001"
    with pytest.raises(ValidationError) as exc:
        IntegratorOptions(zeta_end=5.0, zeta_start=10.0)
    assert exc.value.field == "zeta_end"


def test_series_mode_needs_small_zeta_start():
    with pytest.raises(ValidationError) as exc:
        IntegratorOptions(zeta_end=10.0, start_mode="series", zeta_start=0.05)
    assert exc.value.field == "zeta_start"


def test_trajectory_shape(run_n2_omega_half):
    traj = run_n2_omega_half
    assert traj.status == COMPLETED
    assert traj.diverged_at is None
    assert traj.zetas[0] == 1e-3
    assert traj.zetas[-1] == 30.0
    assert np.all(np.diff(traj.zetas) > 0.0)
    assert Trajectory._fields == ("params", "zetas", "zs", "dzs", "events",
                                  "diverged_at")
    assert len(traj.zs) == len(traj.zetas) == len(traj.dzs)
    # even n keeps theta = z**n nonnegative by construction
    assert all(theta_from_z(float(z), 2) >= 0.0 for z in traj.zs)


def test_dense_output_reproduces_nodes(run_n2_omega_half):
    traj = run_n2_omega_half
    for k in range(0, len(traj.zetas), 37):
        z, dz = _point(traj, float(traj.zetas[k]))
        assert abs(z - traj.zs[k]) <= 1e-12
        assert abs(dz - traj.dzs[k]) <= 1e-12
    # each interpolant must hand over to the next node it was fitted against
    for k in range(0, len(traj.zetas) - 1, 53):
        h = traj.zetas[k + 1] - traj.zetas[k]
        y_right = np.array([traj.zs[k], traj.dzs[k]]) \
            + h * np.sum(traj.quartic(k), axis=-1)
        assert abs(y_right[0] - traj.zs[k + 1]) <= 1e-10
        assert abs(y_right[1] - traj.dzs[k + 1]) <= 1e-10


@pytest.mark.parametrize("bad", [lambda n: -1, lambda n: n - 1,
                                 lambda n: n, lambda n: 1.5, lambda n: True],
                         ids=["-1", "N-1", "N", "1.5", "True"])
def test_quartic_rejects_a_bad_step_index(run_n2_omega_half, bad):
    """Steps run from 0 to N - 2 for N nodes; -1 must not wrap round to a
    step from the last node back to the first, and a bool is no index."""
    traj = run_n2_omega_half
    with pytest.raises(ValidationError) as exc:
        traj.quartic(bad(len(traj.zetas)))
    assert exc.value.field == "k"


def test_evaluate_many_and_range_checks(run_n2_omega_half):
    traj = run_n2_omega_half
    grid = np.linspace(0.01, 29.9, 57)
    out = traj.evaluate_many(grid)
    assert np.asarray(out).shape == (57, 2)
    assert all(type(v) is float for row in out for v in row)
    for t, row in zip(grid, out):
        z, dz = _point(traj, float(t))
        assert row[0] == z and row[1] == dz
    # points that share a step reuse its quartic, in either order, and the
    # last node belongs to the last step
    fine = [*np.linspace(traj.zetas[0], traj.zetas[3], 40), traj.zetas[-1]]
    for pts in (fine, fine[::-1]):
        assert traj.evaluate_many(pts) == [_point(traj, t) for t in pts]
    assert abs(_point(traj, traj.zetas[-1])[0] - traj.zs[-1]) <= 1e-10
    for bad in (5e-4, 30.5):
        with pytest.raises(ValidationError) as exc:
            _point(traj, bad)
        assert exc.value.field == "zeta"
    # one point out of range fails the whole array
    with pytest.raises(ValidationError) as exc:
        traj.evaluate_many(np.append(grid, 30.5))
    assert exc.value.field == "zeta"
    assert traj.evaluate_many([]) == []


def _dot(weights, values):
    """sum(w*v), added left to right as the stepper's expressions add."""
    acc = weights[0] * values[0]
    for w, v in zip(weights[1:], values[1:]):
        acc = acc + w * v
    return acc


def _assert_stage_slopes_are_rhs(traj):
    """Each step's seven stage slopes, rebuilt here from its start node
    with model.rhs at the stage states that A and C give, are what _step
    returns, bit for bit: the integrator's inline vector field is rhs's
    exact expression.  Their B-weighted sum gives the right node back bit
    for bit, stage 7 is rhs at that stored node, and quartic(k) is their
    product with P."""
    p = traj.params
    for k in range(len(traj.zetas) - 1):
        t, t_new, z, dz = traj.zetas[k], traj.zetas[k + 1], traj.zs[k], \
            traj.dzs[k]
        h = t_new - t
        ks = [rhs(t, z, dz, p)]
        for i, row in enumerate(A, start=1):
            zeta = t_new if i == 5 else t + C[i] * h
            ks.append(rhs(zeta, z + _dot(row, [kz for kz, _ in ks]) * h,
                          dz + _dot(row, [kd for _, kd in ks]) * h, p))
        z_new = z + h * _dot(B, [kz for kz, _ in ks])
        dz_new = dz + h * _dot(B, [kd for _, kd in ks])
        assert (z_new, dz_new) == (traj.zs[k + 1], traj.dzs[k + 1])
        ks.append(rhs(t_new, z_new, dz_new, p))
        got = _step(t, z, dz, *ks[0], t_new, p.omega, p.n, 1.0 / (p.n + 1.0))
        assert got == (z_new, dz_new, *(v for stage in ks[2:] for v in stage))
        assert traj.quartic(k) == tuple(
            tuple(_dot([row[col] for row in P], [stage[j] for stage in ks])
                  for col in range(4))
            for j in (0, 1))


# at omega = 0.5, n = 3 ends at the |z| guard and n = 5 by the runaway rule
@pytest.mark.parametrize("n, status", [(2, COMPLETED), (3, DIVERGED),
                                       (5, DIVERGED)])
def test_interpolant_starts_on_the_vector_field(n, status):
    """The integrator's stages evaluate model.rhs's expression: every step's
    first dense coefficient column is rhs at the left node, bit for bit,
    which is what makes the piecewise curve C1, and so is every other
    stage slope at its own stage state."""
    p = make_params(n, 0.5)
    traj = integrate(p, IntegratorOptions(zeta_end=60.0))
    assert traj.status == status
    for k in range(len(traj.zetas) - 1):
        want = rhs(float(traj.zetas[k]), traj.zs[k], traj.dzs[k], p)
        assert tuple(q[0] for q in traj.quartic(k)) == want
    _assert_stage_slopes_are_rhs(traj)


@pytest.mark.parametrize("mode", ["offset", "series"])
@pytest.mark.parametrize("omega", [0.0, 0.5, 2.0])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 6, 51])
def test_every_stage_slope_is_rhs_bit_for_bit(n, omega, mode):
    traj = integrate(make_params(n, omega),
                     IntegratorOptions(zeta_end=60.0, start_mode=mode))
    assert len(traj.zetas) > 2
    _assert_stage_slopes_are_rhs(traj)


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
            zp = _point(traj, zeta + h)
            zm = _point(traj, zeta - h)
            zc = _point(traj, zeta)
            want = rhs(zeta, zc[0], zc[1], p)
            fd_z = (zp[0] - zm[0]) / (2.0 * h)
            fd_dz = (zp[1] - zm[1]) / (2.0 * h)
            assert abs(fd_z - zc[1]) <= 1e-5 * max(abs(zc[1]), 1e-2)
            assert abs(fd_dz - want[1]) <= 1e-5 * max(abs(want[1]), 3e-3)


def test_start_mode_agreement_downstream():
    p = make_params(2, 0.5)
    t_off = integrate(p, IntegratorOptions(zeta_end=2.0))
    t_ser = integrate(p, IntegratorOptions(zeta_end=2.0, start_mode="series"))
    assert abs(_point(t_off, 1.0)[0] - _point(t_ser, 1.0)[0]) <= 1e-7


def test_tolerance_self_consistency():
    p = make_params(2, 0.5)

    def z_end(rtol: float) -> float:
        opts = IntegratorOptions(zeta_end=30.0, rel_tol=rtol, abs_tol=1e-13)
        return _point(integrate(p, opts), 30.0)[0]

    for rtol in (1e-6, 1e-8):
        assert abs(z_end(rtol) - z_end(rtol / 2.0)) < rtol


def test_tolerance_ladder_converges():
    p = make_params(2, 0.5)
    ref = _point(integrate(p, IntegratorOptions(zeta_end=30.0, rel_tol=1e-12,
                                                abs_tol=1e-14)), 30.0)[0]
    errs = []
    for rtol, atol in ((1e-5, 1e-8), (1e-7, 1e-10), (1e-9, 1e-12)):
        opts = IntegratorOptions(zeta_end=30.0, rel_tol=rtol, abs_tol=atol)
        errs.append(abs(_point(integrate(p, opts), 30.0)[0] - ref))
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] <= 1e-8


def test_oracle_gamma2_closed_form():
    p = make_params(1, 0.5)
    traj = integrate(p, IntegratorOptions(zeta_end=10.0, start_mode="series"))
    grid = np.linspace(1e-3, 10.0, 301)
    zs = np.asarray(traj.evaluate_many(grid))[:, 0]
    err = max(abs(float(z) - gamma2_profile(float(t), 1.0, 0.5))
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
    assert abs(zc - halo_boundary(1.0, 0.5)) <= 1e-6
    z_at, _ = _point(traj, zc)
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
    assert _point(traj, 7.3) == (2.0, 0.0)


def test_divergence_guard_structured_outcome():
    # a start just outside the repelling branch must blow up in finite radius
    u = 0.5 ** -0.5
    p = make_params(2, 0.5, theta0=(u + 0.01) ** 2)
    traj = integrate(p, IntegratorOptions(zeta_end=100.0))
    assert traj.status == DIVERGED
    assert traj.diverged_at is not None
    assert 10.0 < traj.diverged_at < 20.0
    assert traj.events == ()  # z runs away upward; the guard is no event
    z_at, _ = _point(traj, traj.diverged_at)
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
    assert abs(_point(traj, traj.events[0])[0]) <= 1e-9
    # the guard step is far steeper here than in the n = 2 runaway: one
    # float of zeta moves z by 4.4e-4 of the guard, and diverged_at, the
    # last float before the crossing, leaves 1.0e-4 in z
    z_at, _ = _point(traj, traj.diverged_at)
    assert abs(z_at + 1e12) <= 5e-4 * 1e12


def _time_left(traj) -> float:
    """tau = 2|z|/((n-1)|dz|) at the last node, the time left to blow-up."""
    return 2.0 * abs(traj.zs[-1]) / ((traj.params.n - 1) * abs(traj.dzs[-1]))


# odd n from theta0 = 1 runs down through z = 0 first; theta0 = 1.1/omega
# starts above the repelling equilibrium for every n
RUNAWAYS = [(n, omega, 1.0) for n in (5, 7) for omega in (0.5, 0.9)] + [
    (n, omega, 1.1 / omega) for n in (4, 5, 6, 7) for omega in (0.5, 0.9)] \
    + [(51, 2.0, 1.0)]


@pytest.mark.parametrize("n, omega, theta0", RUNAWAYS)
def test_runaway_past_float_resolution_ends_as_diverged(n, omega, theta0):
    """For n >= 4 the |z| = 1e12 guard lies below float resolution in
    zeta, and these runs ended in step-size underflow.  The runaway rule
    ends each at the first node past |z| = u moving outward with tau below
    1e3 ulp(zeta); diverged_at is that node."""
    traj = integrate(make_params(n, omega, theta0),
                     IntegratorOptions(zeta_end=60.0))
    assert traj.status == DIVERGED
    assert traj.diverged_at == traj.zetas[-1] < 60.0
    z, dz = traj.zs[-1], traj.dzs[-1]
    assert omega ** (-1.0 / n) < abs(z) < 1e12 and z * dz > 0.0
    assert _time_left(traj) < 1e3 * math.ulp(traj.diverged_at)
    assert (z > 0.0) == (theta0 * omega > 1.0)
    assert len(traj.events) == (z < 0.0)


@pytest.mark.parametrize("omega, diverged_at", [(0.5, 10.707737149727633),
                                                (0.9, 11.775872914372105),
                                                (1.5, 5.274162382931308)])
def test_n3_runaway_still_ends_at_the_guard(omega, diverged_at):
    """At n = 3 the guard fires first, so diverged_at keeps its value bit
    for bit: the last float before |z| crosses 1e12."""
    traj = integrate(make_params(3, omega), IntegratorOptions(zeta_end=60.0))
    assert traj.diverged_at == diverged_at < traj.zetas[-1]
    assert abs(traj.zs[-1]) > 1e12


def test_a_node_just_past_a_zero_does_not_end_the_run():
    """zeta_end is put one float past the first zero of z, so the last
    node moves outward (z*dz > 0) with tau far below 1e3 ulp(zeta): only
    the |z| > u test keeps the runaway rule from firing there."""
    p = make_params(2, 0.5)
    full = integrate(p, IntegratorOptions(zeta_end=10.0))
    k = next(k for k, (a, b) in enumerate(zip(full.zs, full.zs[1:]))
             if (a > 0.0) != (b > 0.0))
    # the steps before zeta_end do not depend on it, so the last node's z
    # changes sign inside step k as zeta_end moves across it
    last = _bisect(lambda t: integrate(p, IntegratorOptions(t)).zs[-1] > 0.0,
                   full.zetas[k], full.zetas[k + 1])
    traj = integrate(p, IntegratorOptions(math.nextafter(last, math.inf)))
    assert traj.zs[-1] * traj.dzs[-1] > 0.0
    assert _time_left(traj) < 1e3 * math.ulp(traj.zetas[-1])
    assert traj.status == COMPLETED and len(traj.events) == 1


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
                                      (2, 0.9), (3, 0.1), (3, 0.5), (3, 0.9),
                                      (4, 0.5), (5, 0.5), (6, 0.5), (7, 0.5),
                                      (4, 0.9), (5, 0.9), (6, 0.9), (7, 0.9)])
def test_escape_zeta_is_located_to_one_float(n, omega, monkeypatch):
    """n >= 4 needs the runaway rule: the displaced start blows up below
    float resolution in zeta before |z| reaches the guard."""
    runs = []
    monkeypatch.setattr("certificate_oracle.integrate",
                        lambda *a: runs.append(integrate(*a)) or runs[-1])
    zeta, u = escape_zeta(make_params(n, omega)), omega ** (-1.0 / n)
    assert zeta is not None
    assert _changes_side_after(runs[0], zeta, lambda z: abs(z - u) - 10.0)
    if (n, omega) == (4, 0.5):
        assert math.isclose(zeta, 12.494030108633428, rel_tol=1e-12)


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
    assert "status" not in Trajectory._fields


def test_max_steps_exhaustion_raises():
    p = make_params(2, 0.5)
    with pytest.raises(IntegrationError) as exc:
        integrate(p, IntegratorOptions(zeta_end=60.0, max_steps=10))
    assert exc.value.last_zeta >= 1e-3
    assert exc.value.last_zeta < 60.0


@pytest.mark.parametrize("n, steps", [(2, 705), (4, 798), (5, 794)])
def test_sink_sees_the_nodes_and_changes_nothing(n, steps, monkeypatch):
    """With sink batches of 256 steps, the private sink gets the start node
    and the nodes of the first 256 steps, then those of each later 256
    and, at the end, the rest, for a completed and a diverged run alike:
    the batches concatenate to the nodes, and the trajectory is the one
    integrate returns without a sink."""
    monkeypatch.setattr(INTEGRATE_MODULE, "_SINK_STEPS", 256)
    p, opts = make_params(n, 0.5), IntegratorOptions(zeta_end=60.0)
    seen = []
    traj = integrate(p, opts, _sink=seen.append)
    assert traj == integrate(p, opts)
    assert len(traj.zetas) == steps + 1
    assert list(accumulate(len(a) // 3 for a in seen)) \
        == [*range(257, steps + 1, 256), steps + 1]
    nodes = sum(seen, array("d"))
    assert (nodes[0::3], nodes[1::3], nodes[2::3]) \
        == (traj.zetas, traj.zs, traj.dzs)


def test_sink_starts_after_a_full_batch():
    """At the batch of 1024 steps, a 1024-step run never calls the sink,
    which is why no `point` solve (at most 830 steps) forks a formatter;
    a 1025-step run passes it 1025 nodes at step 1024 and its last node
    at the end."""
    p = make_params(4, 0.65)
    ends = integrate(p, IntegratorOptions(zeta_end=200.0)).zetas[1024:1026]
    for end, steps, batches in zip(ends, (1024, 1025), ([], [1025, 1])):
        seen = []
        traj = integrate(p, IntegratorOptions(zeta_end=end), _sink=seen.append)
        assert len(traj.zetas) == steps + 1
        assert [len(a) // 3 for a in seen] == batches


@pytest.mark.parametrize("max_steps, seen_nodes", [(256, []), (300, [257])])
def test_sink_keeps_max_steps(max_steps, seen_nodes, monkeypatch):
    """A run that exhausts max_steps fails with the same error with a sink
    as without; with sink batches of 256 steps, the sink saw the batch of
    each 256 steps before it, and no batch at the failure."""
    monkeypatch.setattr(INTEGRATE_MODULE, "_SINK_STEPS", 256)
    p = make_params(2, 0.5)
    opts = IntegratorOptions(zeta_end=60.0, max_steps=max_steps)
    seen = []
    with pytest.raises(IntegrationError) as plain:
        integrate(p, opts)
    with pytest.raises(IntegrationError) as sunk:
        integrate(p, opts, _sink=lambda nodes: seen.append(len(nodes) // 3))
    assert (str(sunk.value), sunk.value.last_zeta) \
        == (str(plain.value), plain.value.last_zeta)
    assert seen == seen_nodes


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


@pytest.mark.parametrize("zeta_start, zeta_end, steps", [
    (1e-3, 60.0, 705), (1e-3, 500.0, 5443),
    # at zeta 1e12 the first step min(1e-4, span/100) lies below 10 ulp(zeta)
    # = 1.22e-3, so the step-size floor sets it, in both steppers
    (1e12, 1e12 + 1.0, 15),
], ids=["60.0-705", "500.0-5443", "floor-1e12-15"])
def test_matches_scipy_rk45_step_for_step(zeta_start, zeta_end, steps):
    """The stepper is Dormand-Prince 5(4) with RK45's controller, so
    scipy's RK45 under the same tolerances and first step is an
    independent oracle: the same accepted nodes up to rounding in the
    error estimate, and the same end state."""
    from scipy.integrate import RK45

    p = make_params(2, 0.5)
    traj = integrate(p, IntegratorOptions(zeta_end=zeta_end,
                                          zeta_start=zeta_start))
    ref = RK45(lambda t, y: np.array(rhs(t, y[0], y[1], p)), zeta_start,
               np.array([1.0, 0.0]), t_bound=zeta_end, rtol=1e-9, atol=1e-12,
               first_step=min(1e-4, (zeta_end - zeta_start) / 100.0))
    nodes = [ref.t]
    while ref.status == "running":
        ref.step()
        nodes.append(ref.t)
    assert ref.status == "finished"
    assert len(traj.zetas) == len(nodes) == steps + 1
    # step by step from the start, which at 1e12 is finer than rtol * zeta
    assert np.allclose(np.subtract(traj.zetas, zeta_start),
                       np.subtract(nodes, zeta_start), rtol=1e-6, atol=0.0)
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
    assert exc.value.last_zeta == 1e-3
