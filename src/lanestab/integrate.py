"""Adaptive integration of the cloud profile from near the singular point.

model.rhs is smooth and nonstiff for zeta >= zeta_start > 0.  An in-house
Dormand-Prince 5(4) pair steps it on plain floats, each stage evaluating
rhs's expression inline (Hairer, Norsett & Wanner, Solving ODEs I,
II.4-II.6), with the controller of scipy's RK45:
RMS error norm over (z, dz) scaled by atol + max(|y|, |y_new|)*rtol, no
growth right after a rejection, first step min(1e-4, span/100), underflow
once h < 10 ulp(zeta).  An overflowing trial stage is a rejected step.
Only the accepted nodes are kept: where a step is evaluated, its seven
stage slopes are rebuilt from its start node by the same stage function,
and their product with P is its quartic interpolant.  Zero crossings of z
and the divergence guard are found on the nodes and located to one float
on the quartic.  The step loop records the rule that ends a run as its
stop.  A runaway solution (odd n, or even n started above the repelling
equilibrium) ends as a "diverged" outcome, not a failure: GUARD where |z|
crosses DIVERGENCE_GUARD, or, for n > 1, BLOWUP where a rejection pushes
h below the floor at a node past |z| = u = omega**(-1/n) moving outward
(z*dz > 0), a floor elsewhere being underflow; else ZETA_END.  For n >= 4
the guard lies below float resolution in zeta, so only the floor can end
such a run, at any tolerance.

Two start modes exist.  Offset starts exactly at (z, dz) =
(theta0**(1/n), 0) at zeta_start.  Series replaces that with a quadratic
expansion about zeta = 0, which quantifies the error the plain offset
start commits by ignoring the curvature between 0 and zeta_start.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_right
from collections import namedtuple

from .model import (ModelParams, ValidationError, _bisect, _radius, _Record,
                    _require_float, _require_positive, _require_positive_int,
                    rhs)

OFFSET = "offset"
SERIES = "series"
COMPLETED = "completed"
DIVERGED = "diverged"
# Trajectory.stop: the rule that ended the run
ZETA_END, GUARD, BLOWUP = "zeta_end", "guard", "blowup"

DIVERGENCE_GUARD = 1e12

# Dormand-Prince 5(4): nodes C, lower rows of A, fifth-order weights B,
# error weights E (fifth minus fourth order, over the 7 stages with the
# FSAL slope last) and the free quartic interpolant P (Shampine 1986)
C = (0.0, 1/5, 3/10, 4/5, 8/9, 1.0)
A = ((1/5,),
     (3/40, 9/40),
     (44/45, -56/15, 32/9),
     (19372/6561, -25360/2187, 64448/6561, -212/729),
     (9017/3168, -355/33, 46732/5247, 49/176, -5103/18656))
B = (35/384, 0.0, 500/1113, 125/192, -2187/6784, 11/84)
E = (-71/57600, 0.0, 71/16695, -71/1920, 17253/339200, -22/525, 1/40)
P = ((1.0, -2.8535800653862835, 3.0717434641059005, -1.1270175653862835),
     (0.0, 0.0, 0.0, 0.0),
     (0.0, 4.023133379230305, -6.249321565289, 2.675424484351598),
     (0.0, -3.7324019615885042, 10.068970589843675, -5.685526961588504),
     (0.0, 2.5548038301849423, -6.399112377351017, 3.5219323679207912),
     (0.0, -1.3744241142186024, 3.272657752246729, -1.7672812570757455),
     (0.0, 1.3824689317781436, -3.764937863556287, 2.382468931778144))
# step-size controller: h *= SAFETY * err**ERROR_EXPONENT, clamped
SAFETY = 0.9
MIN_FACTOR = 0.2
MAX_FACTOR = 10.0
ERROR_EXPONENT = -1 / 5
# integrate's private _sink gets the new nodes after every this many steps:
# above the longest `point` solve (830 steps), so that none reaches it, and
# 24 KiB of nodes a batch, which a 64 KiB pipe holds
_SINK_STEPS = 1024


class IntegrationError(RuntimeError):
    """Integration could not continue; last_zeta is the final good point."""

    def __init__(self, message: str, last_zeta: float):
        self.last_zeta = last_zeta
        super().__init__(message)


class IntegratorOptions(_Record, namedtuple("IntegratorOptions", "zeta_end "
                        "rel_tol abs_tol max_steps start_mode zeta_start")):
    """Run controls, with where the run starts and ends."""

    __slots__ = ()

    def __new__(cls, zeta_end: float, rel_tol: float = 1e-9,
                abs_tol: float = 1e-12, max_steps: int = 1_000_000,
                start_mode: str = OFFSET, zeta_start: float = 1e-3):
        zeta_start = _require_positive("zeta_start", zeta_start)
        zeta_end = _require_positive("zeta_end", zeta_end)
        if not zeta_end > zeta_start:
            raise ValidationError("zeta_end", f"must exceed zeta_start = "
                                  f"{zeta_start!r}, got {zeta_end!r}")
        rel_tol = _require_float("rel_tol", rel_tol, "must lie in (0, 1e-3]",
                                 lambda v: 0.0 < v <= 1e-3)
        abs_tol = _require_float("abs_tol", abs_tol, "must lie in (0, rel_tol]",
                                 lambda v: 0.0 < v <= rel_tol)
        max_steps = _require_positive_int("max_steps", max_steps)
        if start_mode not in (OFFSET, SERIES):
            raise ValidationError("start_mode",
                                  f"must be '{OFFSET}' or '{SERIES}', got {start_mode!r}")
        if start_mode == SERIES and zeta_start > 0.01:
            raise ValidationError("zeta_start", f"series start needs "
                                  f"zeta_start <= 0.01, got {zeta_start!r}")
        return super().__new__(cls, zeta_end, rel_tol, abs_tol, max_steps,
                               start_mode, zeta_start)


def _step(t, z, dz, k1z, k1d, t_new, omega, n, inv) -> tuple[float, ...]:
    """The step from (z, dz, slope k1) at t to t_new: (z_new, dz_new) and
    stage slopes 3-7, (z', dz') each; stage 2 has zero weight in B, E and P.
    Each stage inlines model.rhs's expression exactly, and may overflow."""
    c2, c3, c4, c5, _ = C[1:]
    (a21,), (a31, a32), (a41, a42, a43), (a51, a52, a53, a54), \
        (a61, a62, a63, a64, a65) = A
    b1, _, b3, b4, b5, b6 = B
    h = t_new - t
    k2z = dz + a21 * k1d * h
    k2d = (omega * (z + a21 * k1z * h) ** n - 1.0) * inv \
        - 2.0 * k2z / (t + c2 * h)
    k3z = dz + (a31 * k1d + a32 * k2d) * h
    k3d = (omega * (z + (a31 * k1z + a32 * k2z) * h) ** n - 1.0) \
        * inv - 2.0 * k3z / (t + c3 * h)
    k4z = dz + (a41 * k1d + a42 * k2d + a43 * k3d) * h
    k4d = (omega * (z + (a41 * k1z + a42 * k2z + a43 * k3z) * h)
           ** n - 1.0) * inv - 2.0 * k4z / (t + c4 * h)
    k5z = dz + (a51 * k1d + a52 * k2d + a53 * k3d + a54 * k4d) * h
    k5d = (omega * (z + (a51 * k1z + a52 * k2z + a53 * k3z
                         + a54 * k4z) * h) ** n - 1.0) * inv \
        - 2.0 * k5z / (t + c5 * h)
    k6z = dz + (a61 * k1d + a62 * k2d + a63 * k3d + a64 * k4d
                + a65 * k5d) * h
    k6d = (omega * (z + (a61 * k1z + a62 * k2z + a63 * k3z
                         + a64 * k4z + a65 * k5z) * h) ** n
           - 1.0) * inv - 2.0 * k6z / t_new
    z_new = z + h * (b1 * k1z + b3 * k3z + b4 * k4z + b5 * k5z + b6 * k6z)
    dz_new = dz + h * (b1 * k1d + b3 * k3d + b4 * k4d + b5 * k5d + b6 * k6d)
    k7d = (omega * z_new ** n - 1.0) * inv - 2.0 * dz_new / t_new
    return z_new, dz_new, k3z, k3d, k4z, k4d, k5z, k5d, k6z, k6d, dz_new, k7d


def _dense(zeta, zeta0, h, y0, q) -> float:
    """One component y0 + h * q . (s, s^2, s^3, s^4) of a step's quartic
    interpolant, s = (zeta - zeta0)/h, summed by Horner's rule."""
    s = (zeta - zeta0) / h
    return y0 + h * (s * (q[0] + s * (q[1] + s * (q[2] + s * q[3]))))


class Trajectory(_Record, namedtuple("Trajectory", "params zetas zs dzs "
                                     "events diverged_at stop")):
    """Completed integration: sample nodes, the ascending zetas (events)
    where z crosses zero, and the rule that ended the run (stop).

    Step k runs from zetas[k] to zetas[k+1], h = zetas[k+1] - zetas[k].
    Its interpolant (zs[k], dzs[k]) + h * quartic(k) . (s, s^2, s^3, s^4),
    s = (zeta - zetas[k])/h, has slope rhs at zetas[k], so the curve is C1;
    the stage slopes behind it are rebuilt from node k when it is needed.
    diverged_at is the zeta where |z| crossed the divergence guard (stop
    GUARD), or the node where the step fell to its floor (BLOWUP), else None.
    """

    __slots__ = ()

    # unpickling builds through here, so checking stop keeps a pickle of the
    # earlier seven-field layout (slopes after dzs, no stop) from loading
    def __new__(cls, params, zetas, zs, dzs, events, diverged_at, stop):
        if stop not in (ZETA_END, GUARD, BLOWUP):
            raise ValidationError("stop", f"must be {ZETA_END!r}, {GUARD!r} "
                                  f"or {BLOWUP!r}, got {stop!r}")
        return super().__new__(cls, params, zetas, zs, dzs, events,
                               diverged_at, stop)

    @property
    def status(self) -> str:
        """The outcome: "completed" where the run reached zeta_end, else
        "diverged"."""
        return COMPLETED if self.stop == ZETA_END else DIVERGED

    def quartic(self, k: int) -> tuple[tuple[float, ...], tuple[float, ...]]:
        """Step k's interpolant coefficients of (s, s^2, s^3, s^4), for z
        and for dz: its seven stage slopes, rebuilt from node k, times P.
        Row 1 of P is zero and column 0 is (1, 0, ..., 0), so the first
        coefficient is rhs at node k."""
        if isinstance(k, bool) or not isinstance(k, int) \
                or not 0 <= k <= len(self.zetas) - 2:
            raise ValidationError("k", f"must be an int step index in [0, "
                                  f"{len(self.zetas) - 2}], got {k!r}")
        p, t, z, dz = self.params, self.zetas[k], self.zs[k], self.dzs[k]
        k1, m1 = rhs(t, z, dz, p)
        _, _, k3, m3, k4, m4, k5, m5, k6, m6, k7, m7 = _step(
            t, z, dz, k1, m1, self.zetas[k + 1], p.omega, p.n,
            1.0 / (p.n + 1.0))
        (_, p11, p12, p13), _, (_, p31, p32, p33), (_, p41, p42, p43), \
            (_, p51, p52, p53), (_, p61, p62, p63), (_, p71, p72, p73) = P
        return (
            (k1,
             k1 * p11 + k3 * p31 + k4 * p41 + k5 * p51 + k6 * p61 + k7 * p71,
             k1 * p12 + k3 * p32 + k4 * p42 + k5 * p52 + k6 * p62 + k7 * p72,
             k1 * p13 + k3 * p33 + k4 * p43 + k5 * p53 + k6 * p63 + k7 * p73),
            (m1,
             m1 * p11 + m3 * p31 + m4 * p41 + m5 * p51 + m6 * p61 + m7 * p71,
             m1 * p12 + m3 * p32 + m4 * p42 + m5 * p52 + m6 * p62 + m7 * p72,
             m1 * p13 + m3 * p33 + m4 * p43 + m5 * p53 + m6 * p63 + m7 * p73))

    def _crossing(self, k, g) -> float:
        """The last float of step k where g(z) on its quartic keeps its
        starting side of zero, given g changes side over the step."""
        t0, t1, z0 = self.zetas[k], self.zetas[k + 1], self.zs[k]
        qz, start = self.quartic(k)[0], g(z0) > 0.0
        return _bisect(
            lambda t: (g(_dense(t, t0, t1 - t0, z0, qz)) > 0.0) == start,
            t0, t1)

    def evaluate_many(self, zetas) -> list[tuple[float, float]]:
        """Dense-output (z, dz) at each point of an iterable."""
        nodes, zs, dzs = self.zetas, self.zs, self.dzs
        out, t0, t1 = [], math.nan, math.nan
        for t in map(float, zetas):
            if not t0 <= t < t1:  # sorted input builds each quartic once
                if not nodes[0] <= t <= nodes[-1]:
                    raise ValidationError("zeta", f"outside the integrated "
                                          f"range [{nodes[0]!r}, "
                                          f"{nodes[-1]!r}], got {t!r}")
                k = min(bisect_right(nodes, t), len(nodes) - 1) - 1
                t0, t1, (qz, qd) = nodes[k], nodes[k + 1], self.quartic(k)
            out.append((_dense(t, t0, t1 - t0, zs[k], qz),
                        _dense(t, t0, t1 - t0, dzs[k], qd)))
        return out


def series_start(params: ModelParams, zeta: float) -> tuple[float, float]:
    """Start state (z, dz) at zeta from the expansion z = z0 + c*zeta^2.

    Substituting the ansatz into (zeta^2 z')' = zeta^2 (omega z^n - 1)/(n+1)
    and matching leading terms gives 6c = (omega z0^n - 1)/(n+1), hence
    c = (omega z0^n - 1)/(6(n+1)) with z0 = theta0^(1/n); dz = 2c*zeta and
    the truncation error is O(zeta^4).  Valid only very close to the
    singular point, so IntegratorOptions caps a series zeta_start at 0.01.
    """
    z0 = params.theta0 ** (1.0 / params.n)
    # omega*z0**n equals omega*theta0 exactly; using theta0 skips a pow round trip
    c = (params.omega * params.theta0 - 1.0) / (6.0 * (params.n + 1.0))
    return (z0 + c * zeta * zeta, 2.0 * c * zeta)


def integrate(params: ModelParams, opts: IntegratorOptions, *,
              _sink=None) -> Trajectory:
    """Integrate from zeta_start to zeta_end, or until the run diverges.

    Raises IntegrationError on step-size underflow, on an overflowing
    right-hand side at the start, or when max_steps runs out.  A runaway
    is not an error: stop is GUARD, with diverged_at the last float before
    the crossing |z| > 1e12, or BLOWUP, with diverged_at the node where the
    step fell below its floor, past u and moving outward: status "diverged".

    _sink, where given, gets an array of the nodes it has not had, as
    (zeta, z, dz) triples from the start node on: after every _SINK_STEPS
    accepted steps while the run goes on, then, if it got any, the rest
    when the step loop ends.  No run of at most _SINK_STEPS steps calls it.
    """
    t = opts.zeta_start
    z, dz = series_start(params, t) if opts.start_mode == SERIES else (
        params.theta0 ** (1.0 / params.n), 0.0)

    e1, _, e3, e4, e5, e6, e7 = E
    rtol, atol, t_end = opts.rel_tol, opts.abs_tol, opts.zeta_end
    omega, n, max_steps = params.omega, params.n, opts.max_steps
    inv = 1.0 / (n + 1.0)  # model.rhs's factor, so each stage matches it
    ulp, guard, diverged_at = math.ulp, DIVERGENCE_GUARD, None
    # the equilibrium radius, or inf where none is passed (n = 1, omega = 0)
    u = _radius(params) if n > 1 and omega else math.inf
    try:
        k1z, k1d = rhs(t, z, dz, params)
    except OverflowError:
        raise IntegrationError(f"right-hand side overflows at the start "
                               f"zeta = {t!r}", t) from None
    h_abs = min(1e-4, (t_end - t) / 100.0)
    az, adz = abs(z), abs(dz)
    nodes = array("d", (t, z, dz))  # (zeta, z, dz) per node
    steps = sent = 0  # sent: the node doubles _sink has had
    # one test a step serves both: the loop pauses at `pause` steps to fail
    # at max_steps, or else to hand _sink the nodes
    pause = max_steps if _sink is None else min(max_steps, _SINK_STEPS)

    while t < t_end:
        if steps >= pause:
            if steps >= max_steps:
                raise IntegrationError(
                    f"max_steps = {max_steps} exhausted at zeta = {t!r}", t)
            _sink(nodes[sent:])
            sent = len(nodes)
            pause = min(max_steps, steps + _SINK_STEPS)
        steps += 1
        min_step = 10.0 * ulp(t)  # ten float spacings above t
        # plain comparisons clamp the step and take the error scale: each
        # picks the operand max() or min() would, without the call's cost
        if h_abs < min_step:
            h_abs = min_step
        rejected = False
        while True:
            if h_abs < min_step:  # the step floor
                if az > u and z * dz > 0.0:  # past u, moving outward
                    stop, diverged_at = BLOWUP, t
                    break
                raise IntegrationError(
                    f"step size underflow; last good zeta = {t!r}", t)
            t_new = t + h_abs
            if t_new > t_end:
                t_new = t_end
            h = h_abs = t_new - t
            try:
                z_new, dz_new, k3z, k3d, k4z, k4d, k5z, k5d, k6z, k6d, k7z, \
                    k7d = _step(t, z, dz, k1z, k1d, t_new, omega, n, inv)
                az_new, adz_new = abs(z_new), abs(dz_new)
                ez = (e1 * k1z + e3 * k3z + e4 * k4z + e5 * k5z + e6 * k6z
                      + e7 * k7z) * h / (atol + (
                          az_new if az_new > az else az) * rtol)
                ed = (e1 * k1d + e3 * k3d + e4 * k4d + e5 * k5d + e6 * k6d
                      + e7 * k7d) * h / (atol + (
                          adz_new if adz_new > adz else adz) * rtol)
                err = math.sqrt(ez * ez + ed * ed) / 2 ** 0.5
            except OverflowError:
                err = math.inf
            if err < 1.0:
                factor = MAX_FACTOR if err == 0.0 else \
                    min(MAX_FACTOR, SAFETY * err ** ERROR_EXPONENT)
                h_abs *= min(1.0, factor) if rejected else factor
                break
            # an inf or nan norm gives MIN_FACTOR (max() keeps it over nan)
            h_abs *= max(MIN_FACTOR, SAFETY * err ** ERROR_EXPONENT)
            rejected = True
        if diverged_at is not None:
            break
        nodes.extend((t_new, z_new, dz_new))
        t, z, dz, k1z, k1d = t_new, z_new, dz_new, k7z, k7d
        az, adz = az_new, adz_new
        if az > guard:
            stop = GUARD
            break
    else:
        stop = ZETA_END
    if sent:
        _sink(nodes[sent:])

    traj = Trajectory(params, nodes[0::3], nodes[1::3], nodes[2::3], (),
                      None, stop)
    # the zero crossings, on the steps whose end nodes bracket a zero of z
    events = tuple(traj._crossing(k, lambda z: z)
                   for k, (za, zb) in enumerate(zip(traj.zs, traj.zs[1:]))
                   if za != 0.0 and (zb == 0.0 or (za > 0.0) != (zb > 0.0)))
    if stop == GUARD:
        diverged_at = traj._crossing(steps - 1, lambda z: abs(z) - guard)
    return traj._replace(events=events, diverged_at=diverged_at)


def first_zero(traj: Trajectory) -> float | None:
    """Smallest zeta with z(zeta) = 0, or None if z never changes sign."""
    return traj.events[0] if traj.events else None
