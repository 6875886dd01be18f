"""End-to-end acceptance gate.

Each test records one `criterion NN PASS/FAIL detail` line (printed in the
terminal summary by conftest) and then asserts the same condition, so the
pytest outcome and the printed line can never disagree.  Tolerances are
pinned here and are not adjustable from the implementation side.
"""

from __future__ import annotations

import json
import math
import time

import mpmath as mp
import numpy as np
import pytest

from lanestab import (
    IntegrationError,
    IntegratorOptions,
    basin_alpha,
    equilibria,
    first_zero,
    gamma2_profile,
    gaussian_profile,
    halo_boundary,
    integrate,
    lyapunov_V,
    make_params,
    powerlaw_profile,
    rhs,
    shc,
    theta_from_z,
)
from lanestab.cli import main
from lanestab.integrate import COMPLETED, DIVERGED, DIVERGENCE_GUARD
from lanestab.model import _product_below_one

from certificate_oracle import (certificate_P, escape_zeta, jacobian,
                                lmi_residual, lyapunov_Vdot)

GRID_NS = (2, 4, 6)
GRID_OMEGAS = (0.1, 0.5, 0.9)
FAMILY_COMBOS = ((2, 0.5), (4, 0.5), (6, 0.5), (2, 0.1), (2, 0.5), (2, 0.9))


@pytest.fixture(scope="module")
def family_runs():
    runs = {}
    for n in GRID_NS:
        for omega in GRID_OMEGAS:
            p = make_params(n, omega)
            runs[(n, omega)] = integrate(p, IntegratorOptions(zeta_end=60.0))
    return runs


@pytest.fixture(scope="module")
def convergence_run():
    p = make_params(2, 0.5)
    t0 = time.perf_counter()
    traj = integrate(p, IntegratorOptions(zeta_end=500.0))
    return traj, time.perf_counter() - t0


@pytest.fixture(scope="module")
def gamma2_run():
    p = make_params(1, 0.5)
    t0 = time.perf_counter()
    traj = integrate(p, IntegratorOptions(zeta_end=10.0, rel_tol=1e-9,
                                          start_mode="series"))
    return traj, time.perf_counter() - t0


def _segment_eval_mp(traj, k, zeta):
    """Step k's dense-output evaluation with exact mpf arithmetic on the
    stored float nodes and coefficients, so finite differences are
    truncation-limited."""
    zeta0 = mp.mpf(float(traj.zetas[k]))
    h = mp.mpf(float(traj.zetas[k + 1] - traj.zetas[k]))
    s = (zeta - zeta0) / h
    powers = [s, s ** 2, s ** 3, s ** 4]
    out = []
    for y0, q in zip((traj.zs[k], traj.dzs[k]), traj.quartic(k)):
        acc = mp.mpf(float(y0))
        acc += h * sum(mp.mpf(float(q[j])) * powers[j] for j in range(4))
        out.append(acc)
    return out


def _lyapunov_V_mp(x1, x2, u, omega, n):
    """lyapunov_V in mpf arithmetic, with u = omega**(-1/n) passed in."""
    bracket = (x1 - u) ** (n + 1) + u ** (n + 1)
    return -2 * omega / (n + 1) ** 2 * bracket + 2 * x1 / (n + 1) + x2 ** 2


def _mp_zeros_and_certificate(params):
    """Zeros of z from an independent 20-digit Taylor integration, and the
    point past which z can have no further zero.

    The run uses the same ODE and the same offset start as integrate().
    At any zero of z, x1 = z - z_eq = u and V = L + dz**2 with
    L = 2*u*n/(n+1)**2, so V >= L there; V never increases along the flow
    (Vdot = -4*x2**2/zeta).  Once V < L, z cannot reach zero again at any
    zeta.  Sign changes of z are scanned on a 0.05 grid, refined by
    findroot, until the first grid point where V < L, or up to zeta = 10.
    Returns (zeros, zeta_cert, V(zeta_cert), L); zeta_cert and its V are
    None when V stays at or above L up to zeta = 10.
    """
    n = params.n
    with mp.workdps(20):
        om = mp.mpf(params.omega)
        u = om ** (-mp.mpf(1) / n)
        level = 2 * u * n / (n + 1) ** 2
        z0 = mp.mpf(params.theta0) ** (mp.mpf(1) / n)
        start = mp.mpf(1e-3)  # integrate()'s default zeta_start
        sol = mp.odefun(
            lambda t, y: [y[1], (om * y[0] ** n - 1) / (n + 1) - 2 * y[1] / t],
            start, [z0, mp.mpf(0)])
        step = mp.mpf("0.05")
        zeros = []
        lo, z_lo = start, z0
        for k in range(1, 201):  # grid points 0.05, 0.10, ..., 10
            hi = k * step
            z_hi, dz_hi = sol(hi)
            if (z_lo > 0) != (z_hi > 0):
                zeros.append(float(mp.findroot(lambda t: sol(t)[0], (lo, hi),
                                               solver="anderson")))
            v = _lyapunov_V_mp(z_hi + u, dz_hi, u, om, n)
            if v < level:
                return zeros, float(hi), float(v), float(level)
            lo, z_lo = hi, z_hi
    return zeros, None, None, float(level)


def test_criterion_01_gamma2_oracle(gamma2_run, record_criterion):
    traj, runtime = gamma2_run
    grid = np.linspace(1e-3, 10.0, 2001)
    zs = np.asarray(traj.evaluate_many(grid))[:, 0]
    err = max(abs(float(z) - gamma2_profile(float(t), 1.0, 0.5))
              for t, z in zip(grid, zs))
    ok = err <= 1e-6 and runtime < 1.0
    record_criterion(1, ok,
                     f"gamma2 closed form on [0.001, 10]: max|z - profile| = "
                     f"{err:.3e} (gate 1e-06), runtime {runtime:.3f} s (gate 1 s)")
    assert err <= 1e-6
    assert runtime < 1.0


def test_criterion_02_halo_boundary(gamma2_run, record_criterion):
    traj, _ = gamma2_run
    zc = first_zero(traj)
    zm = halo_boundary(1.0, 0.5)
    assert zc is not None
    diff = abs(zc - zm)

    # independent bisection oracle on sinh(x)/x = 2, no shared code
    lo, hi = 2.0, 3.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if math.sinh(mid) / mid < 2.0:
            lo = mid
        else:
            hi = mid
    oracle = 0.5 * (lo + hi) * 2.0
    d_run = abs(zc - oracle)
    d_closed = abs(zm - oracle)
    ok = diff <= 1e-6 and d_run <= 1e-3 and d_closed <= 1e-3
    record_criterion(2, ok,
                     f"halo boundary: |first_zero - halo_boundary| = {diff:.3e} "
                     f"(gate 1e-06); vs bisection oracle {oracle:.4f}: "
                     f"{d_run:.2e} and {d_closed:.2e} (gate 1e-03)")
    assert diff <= 1e-6
    assert d_run <= 1e-3 and d_closed <= 1e-3


def test_criterion_03_omega_zero_powerlaw(record_criterion):
    p = make_params(2, 0.0)
    traj = integrate(p, IntegratorOptions(zeta_end=5.0))
    grid = np.linspace(1e-3, 4.2, 1501)
    zs = np.asarray(traj.evaluate_many(grid))[:, 0]
    err = max(abs(theta_from_z(float(z), 2)
                  - powerlaw_profile(float(t), 1.5, 1.0))
              for t, z in zip(grid, zs))
    zc = first_zero(traj)
    assert zc is not None
    zero_diff = abs(zc - math.sqrt(18.0))
    ok = err <= 1e-6 and zero_diff <= 1e-4
    record_criterion(3, ok,
                     f"omega = 0 power law: max|theta - closed form| = {err:.3e} "
                     f"(gate 1e-06); |first zero - sqrt(18)| = {zero_diff:.3e} "
                     f"(gate 1e-04)")
    assert err <= 1e-6
    assert zero_diff <= 1e-4


def test_criterion_04_gamma_to_one_limit(record_criterion):
    worst = 0.0
    for gamma in (1.0 + 1e-6, 1.0 - 1e-6):
        for zeta in np.linspace(0.0, 4.0, 161):
            worst = max(worst, abs(powerlaw_profile(float(zeta), gamma, 1.0)
                                   - gaussian_profile(float(zeta), 1.0)))
    ok = worst <= 1e-4
    record_criterion(4, ok,
                     f"gamma -> 1 limit: max|powerlaw(1 +/- 1e-6) - gaussian| "
                     f"= {worst:.3e} on [0, 4] (gate 1e-04)")
    assert worst <= 1e-4


def test_criterion_05_lmi_certificate(record_criterion):
    grid = np.logspace(np.log10(0.1), np.log10(100.0), 50)
    worst_eig = -math.inf
    worst_off = 0.0
    for n in GRID_NS:
        for omega in GRID_OMEGAS:
            p = make_params(n, omega)
            for zeta in grid:
                m = lmi_residual(float(zeta), p)
                worst_eig = max(worst_eig, m.eigenvalues()[1])
                worst_off = max(worst_off, abs(m.a12))
    ok = worst_eig <= 1e-12 and worst_off <= 1e-14
    record_criterion(5, ok,
                     f"LMI residual on 50-point grid x 9 parameter sets: "
                     f"worst eigenvalue = {worst_eig:.3e} (gate 1e-12), "
                     f"worst |off-diagonal| = {worst_off:.3e} (gate 1e-14)")
    assert worst_eig <= 1e-12
    assert worst_off <= 1e-14


def test_criterion_06_lyapunov_descent(family_runs, record_criterion):
    rng = np.random.default_rng(61)
    worst_uphill = -math.inf
    worst_rel = 0.0
    for (n, omega), traj in family_runs.items():
        p = traj.params
        left = equilibria(p)[0]
        v = np.array([lyapunov_V(float(z) - left.z_eq, float(dz), p)
                      for z, dz in zip(traj.zs, traj.dzs)])
        worst_uphill = max(worst_uphill, float(np.max(np.diff(v))))

        # forward difference of V along the interpolant at segment left
        # nodes, in 50-digit arithmetic; the interpolant's left-node slope
        # equals the vector field there, making the comparison honest
        with mp.workdps(50):
            u_mp = mp.mpf(-left.z_eq)
            om_mp = mp.mpf(p.omega)

            def v_mp(x1, x2):
                return _lyapunov_V_mp(x1, x2, u_mp, om_mp, n)

            for k in rng.choice(len(traj.zetas) - 1, size=10,
                                replace=False):
                k = int(k)
                zeta0 = float(traj.zetas[k])
                an = lyapunov_Vdot(float(traj.dzs[k]), zeta0)
                if abs(an) <= 1e-8:
                    continue
                h = mp.mpf(zeta0) * mp.mpf("1e-10")
                vals = [v_mp(*(lambda y: (y[0] - mp.mpf(left.z_eq), y[1]))(
                    _segment_eval_mp(traj, k, mp.mpf(zeta0) + m_ * h)))
                    for m_ in (0, 1, 2)]
                fd = float((-3 * vals[0] + 4 * vals[1] - vals[2]) / (2 * h))
                worst_rel = max(worst_rel, abs(fd - an) / abs(an))
    ok = worst_uphill <= 1e-8 and worst_rel <= 1e-5
    record_criterion(6, ok,
                     f"descent over 9 runs: worst uphill step = "
                     f"{worst_uphill:.3e} (gate 1e-08); finite-difference "
                     f"dV/dzeta vs -4*x2**2/zeta: worst rel = {worst_rel:.3e} "
                     f"(gate 1e-05)")
    assert worst_uphill <= 1e-8
    assert worst_rel <= 1e-5


def test_criterion_07_even_n_convergence(convergence_run, record_criterion):
    traj, runtime = convergence_run
    z_eq = -(0.5 ** -0.5)
    tail = abs(traj.evaluate_many([500.0])[0][0] - z_eq)

    # oscillation peaks: dz sign changes refined on the dense interpolant
    amps = []
    for k in range(len(traj.zetas) - 1):
        a, b = float(traj.dzs[k]), float(traj.dzs[k + 1])
        if a != 0.0 and (a > 0.0) != (b > 0.0):
            lo, hi = float(traj.zetas[k]), float(traj.zetas[k + 1])
            for _ in range(60):
                mid = 0.5 * (lo + hi)
                if (traj.evaluate_many([mid])[0][1] > 0.0) == (a > 0.0):
                    lo = mid
                else:
                    hi = mid
            (z_peak, _), = traj.evaluate_many([0.5 * (lo + hi)])
            amps.append(abs(z_peak - z_eq))
    diffs = np.diff(amps)
    strictly_decreasing = bool(np.all(diffs < 0.0))
    ok = tail <= 0.05 and strictly_decreasing and runtime < 5.0
    record_criterion(7, ok,
                     f"even-n convergence: |z(500) - z_eq| = {tail:.4f} "
                     f"(gate 0.05); {len(amps)} peak amplitudes strictly "
                     f"decreasing = {strictly_decreasing}; runtime "
                     f"{runtime:.2f} s (gate 5 s)")
    assert tail <= 0.05
    assert len(amps) > 10
    assert strictly_decreasing
    assert runtime < 5.0


def test_criterion_08_odd_n_escape(record_criterion):
    # start z(zeta0) = 2 + 1e-3, a 1e-3 displacement off the repelling point
    esc = escape_zeta(make_params(1, 0.5), perturbation=1e-3,
                      threshold=10.0, zeta_end=50.0)
    # the same start displaced off u = 0.5**(-1/n) for n = 3, 5 and 7, which
    # blow up in finite zeta; n >= 5 used to end in step-size underflow
    higher = {n: escape_zeta(make_params(n, 0.5), perturbation=1e-3,
                             threshold=10.0, zeta_end=50.0) for n in (3, 5, 7)}
    ok = esc is not None and esc < 50.0 and all(
        e is not None and e < 50.0 for e in higher.values())
    record_criterion(8, ok,
                     f"odd-n instability: |z - 2| > 10 reached at zeta = "
                     f"{esc if esc is None else round(esc, 3)} (gate: before 50; "
                     f"growth-rate estimate predicts about 25); |z - u| > 10 "
                     f"at n = 3, 5, 7: " + ", ".join(
                         f"{e if e is None else round(e, 3)}"
                         for e in higher.values()) + " (gate: before 50)")
    assert esc is not None
    assert esc < 50.0
    assert all(e is not None and e < 50.0 for e in higher.values())


def test_criterion_09_basin_invariance(convergence_run, record_criterion):
    traj, _ = convergence_run
    p = traj.params
    left = equilibria(p)[0]
    x0 = (1.0 - left.z_eq, 0.0)  # the unit-density start, shifted
    v0 = lyapunov_V(x0[0], x0[1], p)
    alpha = basin_alpha(p)
    v_max = max(lyapunov_V(float(z) - left.z_eq, float(dz), p)
                for z, dz in zip(traj.zs, traj.dzs))
    ok = v0 < alpha and v_max <= v0 + 1e-8
    record_criterion(9, ok,
                     f"basin invariance: V(x0) = {v0:.6f} < alpha_max = "
                     f"{alpha:.6f}; max V along flow = {v_max:.6f} "
                     f"(gate V(x0) + 1e-08)")
    assert v0 < alpha
    assert v_max <= v0 + 1e-8


def test_criterion_10_figure_family(family_runs, record_criterion):
    # Each family run crosses z = 0 once, on its way to the attracting
    # equilibrium, and then rings about it; the Lyapunov bound in
    # _mp_zeros_and_certificate proves there is no second zero.  See the
    # criterion 10 paragraph under "Tests" in README.md.
    bounded = {}
    zero_counts = {}
    zeta_gaps = {}
    certificates = {}
    rings = {}
    for combo in dict.fromkeys(FAMILY_COMBOS):
        traj = family_runs[combo]
        p = traj.params
        max_abs_z = float(np.max(np.abs(traj.zs)))
        bounded[combo] = traj.status == "completed" and max_abs_z <= 1e3
        zeros = list(traj.events)
        mp_zeros, zeta_cert, v_cert, level = _mp_zeros_and_certificate(p)
        zero_counts[combo] = (len(zeros), len(mp_zeros))
        zeta_gaps[combo] = (max(abs(a - b) for a, b in zip(zeros, mp_zeros))
                            if len(zeros) == len(mp_zeros) and zeros
                            else math.inf)
        certificates[combo] = (zeta_cert, v_cert, level)
        x1 = np.asarray(traj.zs) - equilibria(p)[0].z_eq
        rings[combo] = int(np.count_nonzero((x1[1:] > 0) != (x1[:-1] > 0)))

    # boundary ordering across gamma at omega = 0.5, recorded but not gated
    by_gamma = []
    for n in GRID_NS:
        zc = first_zero(family_runs[(n, 0.5)])
        # a run without a zero fails the zero gate below, not this record
        by_gamma.append((1.0 + 1.0 / n, math.nan if zc is None else zc))
    by_gamma.sort()
    increasing = all(a[1] < b[1] for a, b in zip(by_gamma, by_gamma[1:]))
    ordering = ", ".join(f"gamma={g:.4g}: zeta*={z:.4f}" for g, z in by_gamma)

    bounded_ok = all(bounded.values())
    zeros_ok = all(c == (1, 1) for c in zero_counts.values())
    gaps_ok = all(g <= 1e-6 for g in zeta_gaps.values())
    certified = all(c[0] is not None for c in certificates.values())
    rings_ok = all(r >= 2 for r in rings.values())

    def cert_text(zeta_cert, v_cert, level):
        if zeta_cert is None:
            return f"V >= L = {level:.5f} up to zeta = 10"
        return f"V({zeta_cert:.2f}) = {v_cert:.5f} < L = {level:.5f}"

    per_run = "; ".join(
        f"({n},{om}): zeros {zero_counts[(n, om)][0]}/"
        f"{zero_counts[(n, om)][1]}, |zeta* - mpmath| = "
        f"{zeta_gaps[(n, om)]:.1e}, {cert_text(*certificates[(n, om)])}, "
        f"{rings[(n, om)]} sign changes of z - z_eq"
        for n, om in dict.fromkeys(FAMILY_COMBOS))
    record_criterion(
        10, bounded_ok and zeros_ok and gaps_ok and certified and rings_ok,
        f"figure families: all bounded = {bounded_ok}; per run [{per_run}] "
        f"(gates: zeros integrate/mpmath = 1/1, |zeta* - mpmath| <= 1e-06, "
        f"V < L after the zero, >= 2 sign changes); {ordering}; "
        f"increasing-with-gamma ordering observed = {increasing} "
        f"(recorded, not gated)")
    assert bounded_ok
    assert zeros_ok, f"zero counts (integrate, mpmath): {zero_counts}"
    assert gaps_ok, f"|zeta* - mpmath zeta*|: {zeta_gaps}"
    assert certified, f"no V < L certificate by zeta = 10: {certificates}"
    assert rings_ok, f"sign changes of z - z_eq: {rings}"


def test_criterion_11_property_suites(tmp_path, capsys, record_criterion):
    rng = np.random.default_rng(67)
    checks = {}

    xs = rng.uniform(-20.0, 20.0, size=200)
    checks["shc parity/positivity"] = all(
        shc(float(x)) == shc(-float(x)) and shc(float(x)) >= 1.0 for x in xs)

    thetas = rng.uniform(0.0, 30.0, size=100)
    checks["theta round trip"] = all(
        math.isclose(theta_from_z(float(t) ** (1.0 / n), n), float(t),
                     rel_tol=1e-12, abs_tol=1e-300)
        for t in thetas for n in (1, 2, 5))

    p = make_params(2, 0.5)
    u = 0.5 ** -0.5
    j = np.asarray(jacobian(3.0, 0.2, p, branch="left"))
    fd = (rhs(3.0, 0.2 + 1e-6 - u, 0.0, p)[1]
          - rhs(3.0, 0.2 - 1e-6 - u, 0.0, p)[1]) / 2e-6
    checks["jacobian vs finite differences"] = \
        abs(fd - j[1, 0]) <= 1e-6 * max(abs(j[1, 0]), 1e-3)

    pd_ok = True
    for zeta in (0.1, 1.0, 10.0, 100.0):
        q = certificate_P(zeta, p)
        for _ in range(25):
            x = rng.uniform(-2.0, 2.0, size=2)
            if x @ x == 0.0:
                continue
            if q.a11 * x[0] ** 2 + 2 * q.a12 * x[0] * x[1] + q.a22 * x[1] ** 2 <= 0:
                pd_ok = False
    checks["P positive definiteness"] = pd_ok

    pos_ok = True
    for _ in range(1000):
        r = 2.0 * u * math.sqrt(rng.uniform(0.0, 1.0))
        ang = rng.uniform(0.0, 2.0 * math.pi)
        if lyapunov_V(r * math.cos(ang), r * math.sin(ang), p) < -1e-12:
            pos_ok = False
    checks["Lyapunov local positivity"] = pos_ok

    blobs = []
    for sub in ("r1", "r2"):
        out = tmp_path / sub / "run.csv"
        code = main(["solve", "--n", "2", "--omega", "0.5", "--zeta-end",
                     "10", "--out", str(out)])
        capsys.readouterr()
        blobs.append((code, out.read_bytes(),
                      out.with_suffix(".summary.json").read_bytes()))
    checks["CLI determinism"] = blobs[0] == blobs[1] and blobs[0][0] == 0

    ok = all(checks.values())
    failed = [name for name, good in checks.items() if not good]
    record_criterion(11, ok,
                     "module property suites: " + ("all six spot checks pass "
                     "(full suites run in the sibling test files)" if ok
                     else f"failing: {failed}"))
    assert ok, failed


ORBIT_RUNS = ((2, 0.6), (2, 0.7), (4, 0.6), (4, 0.7), (6, 0.6), (6, 0.7))


def test_criterion_12_orbital_mode(record_criterion):
    """Linearized at z_eq, x = z - z_eq obeys x'' + 2x'/zeta + k**2 x = 0
    with k**2 = n*omega**(1/n)/(n + 1), solved by A*sin(k*zeta + phi)/zeta.
    On the long-solve runs (default start, zeta to 2000) the mean full
    period between alternate zeros of x on [1000, 2000] is 2*pi/k to 5e-5
    relative, and the maxima of zeta*|x| in the half periods on
    [900, 2000] spread by at most 1.5% of their mean.  Zeros are linear
    interpolants between nodes; maxima are taken on the nodes, which
    understates each by well under 0.1%."""
    rows, worst_period, worst_spread, fewest = [], 0.0, 0.0, math.inf
    for n, omega in ORBIT_RUNS:
        p = make_params(n, omega)
        traj = integrate(p, IntegratorOptions(zeta_end=2000.0))
        t = np.asarray(traj.zetas)
        x = np.asarray(traj.zs) - equilibria(p)[0].z_eq
        i = np.nonzero((x[:-1] > 0.0) != (x[1:] > 0.0))[0]
        zeros = t[i] - x[i] * (t[i + 1] - t[i]) / (x[i + 1] - x[i])
        late = zeros[zeros >= 1000.0]
        k = math.sqrt(n * omega ** (1.0 / n) / (n + 1.0))
        period = float(np.mean(late[2:] - late[:-2]))
        period_dev = abs(period * k / (2.0 * math.pi) - 1.0)
        env = t * np.abs(x)
        halves = zeros[zeros >= 900.0]
        peaks = np.array([env[(t > a) & (t < b)].max()
                          for a, b in zip(halves[:-1], halves[1:])])
        spread = float((peaks.max() - peaks.min()) / peaks.mean())
        fewest = min(fewest, len(late) - 2, len(peaks))
        worst_period = max(worst_period, period_dev)
        worst_spread = max(worst_spread, spread)
        rows.append(f"({n},{omega}): {period_dev:.1e}, {100 * spread:.2f}%")
    ok = worst_period <= 5e-5 and worst_spread <= 0.015 and fewest >= 200
    record_criterion(12, ok,
                     f"orbital mode A*sin(k*zeta + phi)/zeta to zeta 2000, "
                     f"at least {fewest} periods or half periods per run: "
                     f"worst |mean period * k/(2 pi) - 1| = "
                     f"{worst_period:.2e} (gate 5e-05), worst spread of the "
                     f"half-period maxima of zeta*|z - z_eq| = "
                     f"{100 * worst_spread:.2f}% (gate 1.5%); per run "
                     f"[{'; '.join(rows)}]")
    assert worst_period <= 5e-5
    assert worst_spread <= 0.015
    assert fewest >= 200


LAW_NS = (*range(1, 13), 20, 21, 49, 50)
LAW_OMEGAS = (0.1, 0.5, 0.9, 1.5)
LAW_FACTORS = (0.3, 0.9, 0.99, 1 - 1e-6, 1 + 1e-6, 1.01, 1.1, 3.0)


@pytest.fixture(scope="module")
def law_runs():
    """Criterion 13's runs: ((n, omega, f, trajectory or IntegrationError)
    for each offset start to zeta 200 with theta0 = f/omega, runtime)."""
    t0 = time.perf_counter()
    runs = []
    for n in LAW_NS:
        for omega in LAW_OMEGAS:
            for f in LAW_FACTORS:
                try:
                    run = integrate(make_params(n, omega, f / omega),
                                    IntegratorOptions(200.0))
                except IntegrationError as exc:
                    run = exc
                runs.append((n, omega, f, run))
    return runs, time.perf_counter() - t0


def test_criterion_13_dichotomy_law(law_runs, record_criterion):
    """The paper's dichotomy for the offset start (theta0**(1/n), 0): the
    run stays bounded exactly when n is even and theta0*omega < 1, on the
    exact product, where the start lies in the basin estimate, and blows
    up otherwise.  Each run to zeta 200, with theta0 = f/omega, must end
    "completed" or "diverged" as the law says, never in an
    IntegrationError."""
    runs, runtime = law_runs
    misses = []
    for n, omega, f, run in runs:
        law = COMPLETED if n % 2 == 0 and \
            _product_below_one(f / omega, omega) else DIVERGED
        outcome = f"error at zeta {run.last_zeta:.6g}" \
            if isinstance(run, IntegrationError) else run.status
        if outcome != law:
            misses.append((n, omega, f, outcome))
    runs = len(runs)
    record_criterion(13, not misses,
                     f"dichotomy law: {runs - len(misses)}/{runs} offset "
                     f"starts to zeta 200 end as the law says (completed "
                     f"exactly when n is even and theta0*omega < 1, else "
                     f"diverged) over n = 1-12, 20, 21, 49, 50, omega in "
                     f"{LAW_OMEGAS}, theta0 = f/omega with f in "
                     f"{LAW_FACTORS}; "
                     f"misses {misses[:5]}; runtime {runtime:.1f} s")
    assert runs == 512
    assert not misses, misses


def test_criterion_13_bounded_runs_stay_in_the_basin_ball(law_runs):
    """The basin estimate behind the law: for even n and theta0*omega < 1
    the offset start lies within 2u of z_eq = -u, u = omega**(-1/n), and
    V < alpha_max keeps the solution there.  So every node of each
    completed even-n run of criterion 13 must have |z - z_eq| < 2u; the
    start node, at u*(1 + (theta0*omega)**(1/n)), comes nearest."""
    checked, worst = 0, (0.0, None)
    for n, omega, f, run in law_runs[0]:
        if n % 2 or isinstance(run, IntegrationError) \
                or run.status != COMPLETED:
            continue
        checked += 1
        z_eq = equilibria(make_params(n, omega, f / omega))[0].z_eq
        reach = max(abs(z - z_eq) for z in run.zs) / -z_eq
        worst = max(worst, (reach, (n, omega, f)))
    assert checked == 128
    assert worst[0] < 2.0, worst


SCALE_NS = (1, 2, 3, 4, 6, 7)
SCALE_OMEGAS = (1e-8, 1e-5, 1e-3, 0.05, 0.3, 0.9, 1.5, 4.0, 10.0)
SCALE_PRODUCTS = (0.3, 0.9, 1.1, 3.0)
SCALE_RTOL = 1e-10
SCALE_S_END = 30.0
# |zeta_star/sqrt(u) - s_star| <= SCALE_BOUND * rtol * s_star
SCALE_BOUND = 1.0
# common scaled points s inside both runs' ranges, where |w| <= SCALE_W_MAX:
# |z(sqrt(u) s)/u - w(s)| <= SCALE_POINT_BOUND * rtol * max(1, |w(s)|), and
# the same for dz(sqrt(u) s)/sqrt(u) against w'(s)
SCALE_POINTS = (0.5, 1.0, 3.0, 10.0, 30.0)
SCALE_W_MAX = 1e6
SCALE_POINT_BOUND = 10.0


def test_criterion_14_omega_scales_out(record_criterion):
    """With u = omega**(-1/n), z(zeta) = u*w(zeta/sqrt(u)) where w solves
    the same equation at omega = 1 from w0**n = theta0*omega, and the
    series start maps onto the twin's exactly.  Each series start, run to
    zeta = sqrt(u)*30 at rtol 1e-10, is compared with its omega = 1 twin
    started at zeta0/sqrt(u) and run to s = 30: zeta_star/sqrt(u) must
    match the twin's within SCALE_BOUND * rtol relative, and the statuses
    must match.  At each common scaled point s of SCALE_POINTS, z/u and
    dz/sqrt(u) must match w and w' within SCALE_POINT_BOUND * rtol, over
    max(1, |twin value|).  The one part of a run that does not scale is the
    absolute guard |z| > 1e12: a run whose twin completes diverges
    exactly where u times the twin's largest |w| passes the guard (n = 1,
    whose solutions grow exponentially but never blow up, at omega below
    about 1e-4)."""
    t0 = time.perf_counter()
    pairs, worst, misses, by_guard = 0, 0.0, [], 0
    points, worst_z, worst_dz = 0, (0.0, None), (0.0, None)
    for n in SCALE_NS:
        for omega in SCALE_OMEGAS:
            for product in SCALE_PRODUCTS:
                theta0 = product / omega
                u = omega ** (-1.0 / n)
                root = math.sqrt(u)
                zeta0 = 1e-3 * min(1.0, root)
                assert zeta0 <= 0.01 and zeta0 / root <= 0.01
                run = integrate(make_params(n, omega, theta0),
                                IntegratorOptions(
                                    root * SCALE_S_END, rel_tol=SCALE_RTOL,
                                    start_mode="series", zeta_start=zeta0))
                twin = integrate(make_params(n, 1.0, theta0 * omega),
                                 IntegratorOptions(
                                     SCALE_S_END, rel_tol=SCALE_RTOL,
                                     start_mode="series",
                                     zeta_start=zeta0 / root))
                pairs += 1
                law = twin.status
                if law == COMPLETED and \
                        u * max(map(abs, twin.zs)) > DIVERGENCE_GUARD:
                    law, by_guard = DIVERGED, by_guard + 1
                star, twin_star = first_zero(run), first_zero(twin)
                if run.status != law or (star is None) != (twin_star is None):
                    misses.append((n, omega, product, run.status, law))
                elif star is not None:
                    dev = abs(star / root - twin_star) / twin_star
                    worst = max(worst, dev / SCALE_RTOL)
                for s in SCALE_POINTS:
                    if s > twin.zetas[-1] or root * s > run.zetas[-1]:
                        continue
                    (z, dz), = run.evaluate_many([root * s])
                    (w, dw), = twin.evaluate_many([s])
                    if abs(w) > SCALE_W_MAX:
                        continue
                    points += 1
                    where = (n, omega, product, s)
                    worst_z = max(worst_z, (abs(z / u - w) / max(1.0, abs(w))
                                            / SCALE_RTOL, where))
                    worst_dz = max(worst_dz, (abs(dz / root - dw)
                                              / max(1.0, abs(dw))
                                              / SCALE_RTOL, where))
    runtime = time.perf_counter() - t0
    ok = not misses and worst <= SCALE_BOUND and \
        max(worst_z[0], worst_dz[0]) <= SCALE_POINT_BOUND
    record_criterion(14, ok,
                     f"omega scales out: {pairs} series starts over n = "
                     f"{SCALE_NS}, omega = {SCALE_OMEGAS}, theta0*omega = "
                     f"{SCALE_PRODUCTS}, to s = 30 at rtol 1e-10, against "
                     f"their omega = 1 twins: worst |zeta_star/sqrt(u) - "
                     f"s_star|/s_star = {worst * SCALE_RTOL:.2e} (gate "
                     f"{SCALE_BOUND:g} * rtol), status misses {misses[:5]} "
                     f"({by_guard} runs past the absolute guard only); at "
                     f"{points} common points s in {SCALE_POINTS} with "
                     f"|w| <= {SCALE_W_MAX:g}, worst z {worst_z[0] * SCALE_RTOL:.2e} "
                     f"at (n, omega, theta0*omega, s) = {worst_z[1]} and worst "
                     f"dz {worst_dz[0] * SCALE_RTOL:.2e} at {worst_dz[1]} "
                     f"(gate {SCALE_POINT_BOUND:g} * rtol); runtime {runtime:.1f} s")
    assert pairs == 216
    assert not misses, misses
    assert worst <= SCALE_BOUND
    assert points > 0
    assert worst_z[0] <= SCALE_POINT_BOUND, worst_z
    assert worst_dz[0] <= SCALE_POINT_BOUND, worst_dz


BLOWUP_RTOL = 1e-9  # IntegratorOptions' default, which criterion 13 runs at
BLOWUP_MUTANT = 1.0 + 1e-6


def _blowup_deviation(n, omega, traj, c_scale=1.0):
    """(Q, |Q - 4*tau/((n+3)*zeta)|, its gate) at traj's last node, for
    Q = |z|*tau**p/C - 1 with C scaled by c_scale; see criterion 15."""
    p = 2.0 / (n - 1)
    c = c_scale * (2.0 * (n + 1) ** 2 / ((n - 1) ** 2 * omega)) ** (1.0 / (n - 1))
    t, z, dz = traj.zetas[-1], abs(traj.zs[-1]), abs(traj.dzs[-1])
    tau = p * z / dz
    q = z * tau ** p / c - 1.0
    weight = math.fsum(d * d + omega * abs(y) ** (n + 1) / (n + 1)
                       for y, d in zip(traj.zs, traj.dzs))
    gate = (tau / t) ** 2 \
        + p * math.sqrt(2.0) * BLOWUP_RTOL * weight / (dz * dz)
    return q, abs(q - 4.0 * tau / ((n + 3) * t)), gate


def test_criterion_15_blowup_law(law_runs, record_criterion):
    """Near a blow-up at zeta_b, z'' balances omega*z**n/(n+1), so
    |z| ~ C*s**(-p) with s = zeta_b - zeta, p = 2/(n-1) and
    C**(n-1) = 2(n+1)**2/((n-1)**2 omega), and tau = 2|z|/((n-1)|dz|)
    estimates s.  Checked at the last node of criterion 13's diverged runs
    with n >= 2 (n = 1 grows exponentially and has no blow-up), through
    Q = |z|*tau**p/C - 1.

    The gate is derived, not fitted.  The damping 2z'/zeta enters at
    relative order s: |z| = C*s**(-p)*(1 + a*s + ...) with
    a = 2/((n+3) zeta_b), so Q = 4*tau/((n+3)*zeta) + c2*(tau/zeta)**2 + ...
    with c2 = (12 - (n+1)**2)/(n+3)**2 in (-1, 1); the -1 of the forcing
    enters at relative order 1/(omega*|z|**n), below 1e-20 on these nodes.
    Q depends on the state alone: Q ~ -p*E/dz**2, where
    E = dz**2/2 - omega*z**(n+1)/(n+1)**2 is the first integral of
    z'' = omega*z**n/(n+1), zero on the law.  A step whose RMS error norm
    is below 1 errs by at most sqrt(2)*rtol*|z| in z and sqrt(2)*rtol*|dz|
    in dz, which moves E by at most sqrt(2)*rtol*(dz**2 + omega*|z|**(n+1)
    /(n+1)) at its end node.  So |Q - 4*tau/((n+3)*zeta)| must stay below
    (tau/zeta)**2 plus p*sqrt(2)*rtol times those weights summed over the
    nodes, over dz**2 at the last one.  At n = 2 the guard |z| > 1e12, not
    the step floor, ends the run, so tau/zeta is near 1e-6 and the
    expansion term carries Q; for n >= 3 Q reads up to 0.4*rtol.  C scaled
    by 1 + 1e-6 moves Q by -1e-6 and must miss the gate on every run."""
    worst, caught, checked, largest_q = (0.0, None), 0, 0, [0.0, 0.0]
    for n, omega, f, run in law_runs[0]:
        if n < 2 or isinstance(run, IntegrationError) \
                or run.status != DIVERGED:
            continue
        checked += 1
        q, dev, gate = _blowup_deviation(n, omega, run)
        worst = max(worst, (dev / gate, (n, omega, f)))
        largest_q[n > 2] = max(largest_q[n > 2], abs(q))
        _, dev, gate = _blowup_deviation(n, omega, run, BLOWUP_MUTANT)
        caught += dev > gate
    ok = checked == 352 and worst[0] <= 1.0 and caught == checked
    record_criterion(15, ok,
                     f"blow-up law |z|*tau**(2/(n-1))/C - 1 = "
                     f"4*tau/((n+3)*zeta) at the last node of {checked} "
                     f"diverged runs of criterion 13 with n >= 2, |Q| up "
                     f"to {largest_q[1]:.1e} at n >= 3 and {largest_q[0]:.1e} "
                     f"at n = 2: worst "
                     f"deviation {worst[0]:.3f} of its gate at (n, omega, f) "
                     f"= {worst[1]}; C*(1 + 1e-6) misses the gate on "
                     f"{caught}/{checked}")
    assert checked == 352
    assert worst[0] <= 1.0, worst
    assert caught == checked
