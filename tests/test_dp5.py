"""The Dormand-Prince 5(4) pair itself: its tableau, its step-for-step
agreement with scipy's RK45, its stage slopes and quartic interpolant, and
its rejection of an overflowing trial stage.

These tests pin how DP5 computes, not what a run must satisfy, so a
stepper that replaces DP5 replaces this module.  Every other module states
its step and node counts through the run it makes.  A few DP5 values
remain pinned outside this module, and such a change must re-point them:

- the bit-exact diverged_at values of test_n3_runaway_still_ends_at_the_guard
  (test_integrate.py);
- escape_zeta's 12.494030108633428 at n = 4, omega = 0.5, in
  test_escape_zeta_is_located_to_one_float (test_integrate.py);
- criterion 06's _segment_eval_mp, which sums Trajectory.quartic in mpf
  (test_acceptance.py);
- the property suite's check that every step's quartic is finite
  (test_properties.py).

Only this module imports the tables A, B, C, E and P, _step or _dense from
lanestab.integrate; CI checks that.
"""

from __future__ import annotations

import numpy as np
import pytest

from lanestab import IntegratorOptions, ValidationError, integrate, \
    make_params, rhs
from lanestab.integrate import A, B, C, COMPLETED, E, P, _step


def test_tableau_is_rk45s():
    """C, A, B, E and the interpolant P are the Dormand-Prince 5(4) pair
    with Shampine's free quartic, bit for bit as scipy's RK45 holds them."""
    from scipy.integrate import RK45

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


@pytest.mark.parametrize("mode", ["offset", "series"])
@pytest.mark.parametrize("omega", [0.0, 0.5, 2.0])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 51])
def test_every_stage_slope_is_rhs_bit_for_bit(n, omega, mode):
    traj = integrate(make_params(n, omega),
                     IntegratorOptions(zeta_end=60.0, start_mode=mode))
    assert len(traj.zetas) > 2
    _assert_stage_slopes_are_rhs(traj)


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


def test_each_quartic_ends_on_the_next_node(run_n2_omega_half):
    """Each interpolant must hand over to the next node it was fitted
    against: the quartic's coefficient sum is the step's increment."""
    traj = run_n2_omega_half
    for k in range(0, len(traj.zetas) - 1, 53):
        h = traj.zetas[k + 1] - traj.zetas[k]
        y_right = np.array([traj.zs[k], traj.dzs[k]]) \
            + h * np.sum(traj.quartic(k), axis=-1)
        assert abs(y_right[0] - traj.zs[k + 1]) <= 1e-10
        assert abs(y_right[1] - traj.dzs[k + 1]) <= 1e-10


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
