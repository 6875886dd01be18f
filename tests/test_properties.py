"""Property suite over the inputs make_params and IntegratorOptions accept.

Every run ends "completed" or "diverged" with finite stored nodes and
step quartics, or raises an IntegrationError at a finite last zeta.  A run
that ends cleanly ends as the paper's dichotomy says (completed exactly
when n is even and theta0*omega < 1), wherever omega > 0,
|1 - theta0*omega| > LAW_MARGIN and, for even n, u <= DIVERGENCE_GUARD
(see _law): by the scaling z(zeta) = u*w(zeta/sqrt(u)) it runs to a
horizon in units of sqrt(u), u = omega**(-1/n), long enough for every
runaway to end (see _horizon; on a fixed zeta 30, 19 of these
draws end "completed" where the law says "diverged").  Tolerances reach
rtol 1e-14, with atol <= rtol.  A run the law says diverges raises only
in two known cases: at its start node (a start with theta0 >= 4.9e49
blows up within its first step), or where omega*max_float < 1, so z**n
can overflow while |z| < u, before omega multiplies it.  The examples are
derandomized, so every run of the suite draws the same ones.
"""

from __future__ import annotations

import math
import sys

from hypothesis import example, given, settings, strategies as st

from lanestab import IntegrationError, IntegratorOptions, integrate, make_params
from lanestab.integrate import (COMPLETED, DIVERGED, DIVERGENCE_GUARD, OFFSET,
                                SERIES)
from lanestab.model import _product_below_one


def _decades(lo: int, hi: int):
    """10**e for e uniform in [lo, hi]: every decade is drawn alike."""
    return st.floats(lo, hi).map(lambda e: 10.0 ** e)


# scaled horizon s_end = 2*sqrt(6(n+1)) + LAW_C*ln+(1/|1 - theta0*omega|),
# in units of sqrt(u); n = 1 adds LAW_C*ln+(DIVERGENCE_GUARD/u)
LAW_C = 1.5
# the law is asserted only where |1 - theta0*omega| exceeds LAW_MARGIN
LAW_MARGIN = 1e-9


def _scale(n: int, omega: float) -> float | None:
    """u = omega**(-1/n), or None at omega = 0 or past the float range."""
    try:
        return omega ** (-1.0 / n) if omega > 0.0 else None
    except OverflowError:
        return None


def _horizon(n: int, omega: float, theta0: float) -> float:
    """zeta_end = sqrt(u)*s_end, but never short of zeta 30, with the gap
    |1 - theta0*omega| taken at LAW_MARGIN or more.  The first term of
    s_end covers a start near 0, which leaves along z ~ z0 - zeta**2/(6(n+1));
    the second the escape from the repelling equilibrium near
    theta0*omega = 1, at rate sqrt(n/(n+1)) in s.  n = 1 never blows up: its
    runs diverge where |z| passes the absolute guard, growing at rate
    1/sqrt(2) in s."""
    u = _scale(n, omega)
    if u is None:
        return 30.0
    gap = max(abs(1.0 - theta0 * omega), LAW_MARGIN)
    logs = max(0.0, -math.log(gap))
    if n == 1:
        logs += max(0.0, math.log(DIVERGENCE_GUARD / u))
    return max(30.0, math.sqrt(u) * (2.0 * math.sqrt(6.0 * (n + 1))
                                     + LAW_C * logs))


def _law(n: int, omega: float, theta0: float) -> str | None:
    """The dichotomy's status: completed exactly when n is even and
    theta0*omega < 1, decided exactly; None where it is not asserted.
    Even n past u = DIVERGENCE_GUARD is left out: a bounded run there
    swings towards -u, passes the absolute guard and ends "diverged"
    (a known defect of the guard, e.g. n = 2 at omega = 1.6e-29)."""
    u = _scale(n, omega)
    if u is None or abs(1.0 - theta0 * omega) <= LAW_MARGIN \
            or (n % 2 == 0 and u > DIVERGENCE_GUARD):
        return None
    return COMPLETED if n % 2 == 0 and _product_below_one(theta0, omega) \
        else DIVERGED


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(n=st.integers(1, 200), omega=st.floats(0.0, 10.0),
       theta0=_decades(-200, 200), zeta_start=_decades(-6, -2),
       rel_tol=_decades(-14, -3), atol_share=_decades(-2, 0),
       start_mode=st.sampled_from((OFFSET, SERIES)))
# a runaway that ended in step-size underflow at rtol 1e-12
@example(n=4, omega=1.0, theta0=10.0, zeta_start=1e-3, rel_tol=1e-12,
         atol_share=1.0, start_mode=OFFSET)
def test_every_accepted_input_ends_cleanly(n, omega, theta0, zeta_start,
                                           rel_tol, atol_share, start_mode):
    params = make_params(n, omega, theta0)
    opts = IntegratorOptions(_horizon(n, omega, theta0), rel_tol=rel_tol,
                             abs_tol=rel_tol * atol_share,
                             start_mode=start_mode, zeta_start=zeta_start)
    try:
        traj = integrate(params, opts)
    except IntegrationError as exc:
        assert math.isfinite(exc.last_zeta)
        assert exc.last_zeta == zeta_start \
            or _law(n, omega, theta0) != DIVERGED \
            or omega * sys.float_info.max < 1.0
        return
    assert traj.status in (COMPLETED, DIVERGED)
    assert _law(n, omega, theta0) in (None, traj.status)
    for values in (traj.zetas, traj.zs, traj.dzs):
        assert all(map(math.isfinite, values))
    for k in range(len(traj.zetas) - 1):
        assert all(math.isfinite(c) for q in traj.quartic(k) for c in q)
