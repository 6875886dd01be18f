"""Property suite over the inputs make_params and IntegratorOptions accept.

Every run to zeta 30 ends "completed" or "diverged" with finite stored
nodes and step quartics, or raises an IntegrationError at a finite last
zeta.
Whether it ends as the paper's dichotomy says is criterion 13's question:
over a finite zeta_end the law does not hold everywhere (a tiny omega with
odd n has not blown up by zeta 30).  The examples are derandomized, so
every run of the suite draws the same ones.
"""

from __future__ import annotations

import math

from hypothesis import given, settings, strategies as st

from lanestab import IntegrationError, IntegratorOptions, integrate, make_params
from lanestab.integrate import COMPLETED, DIVERGED, OFFSET, SERIES


def _decades(lo: int, hi: int):
    """10**e for e uniform in [lo, hi]: every decade is drawn alike."""
    return st.floats(lo, hi).map(lambda e: 10.0 ** e)


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(n=st.integers(1, 200), omega=st.floats(0.0, 10.0),
       theta0=_decades(-200, 200), zeta_start=_decades(-6, -2),
       rel_tol=_decades(-11, -3), start_mode=st.sampled_from((OFFSET, SERIES)))
def test_every_accepted_input_ends_cleanly(n, omega, theta0, zeta_start,
                                           rel_tol, start_mode):
    params = make_params(n, omega, theta0)
    opts = IntegratorOptions(30.0, rel_tol=rel_tol, start_mode=start_mode,
                             zeta_start=zeta_start)
    try:
        traj = integrate(params, opts)
    except IntegrationError as exc:
        assert math.isfinite(exc.last_zeta)
        return
    assert traj.status in (COMPLETED, DIVERGED)
    for values in (traj.zetas, traj.zs, traj.dzs):
        assert all(map(math.isfinite, values))
    for k in range(len(traj.zetas) - 1):
        assert all(math.isfinite(c) for q in traj.quartic(k) for c in q)
