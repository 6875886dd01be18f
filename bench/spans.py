"""Outside-in tracing of lanestab for the per-layer metrics.

The tracer never edits the package: it replaces, for the duration of one
traced call, the names that lanestab.cli looks up at call time (integrate,
first_zero, classify, make_params, the CSV and file helpers), the
closedform profile functions, svgplot.line_chart and
Trajectory.evaluate_many with wrappers that record a span (name, parent,
start, end) or, for per-row functions, only a count.  Spans are kept in
memory and reduced to metrics when the run ends.

Work inside a wrapped call is invisible from here: single accepted steps,
the dense-output build, event bisection, rejected steps and right-hand-side
evaluations all land in the one `integrate` span.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from collections import defaultdict

CLOSEDFORM_FUNCTIONS = ("gamma2_profile", "halo_boundary", "powerlaw_profile",
                        "gaussian_profile", "lane_emden_radius",
                        "waterbag_profile")


class Tracer:
    """Spans as (id, parent id, name, start, end) tuples plus counters.

    Parents come from a per-thread stack; a span opened on a thread with an
    empty stack (a sweep pool worker) gets the current root as parent.
    """

    def __init__(self):
        self.spans: list[tuple[int, int | None, str, float, float]] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.root: int | None = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def add(self, name: str, amount: float = 1.0) -> None:
        with self._lock:
            self.counts[name] += amount

    def wrap(self, name: str, fn, after=None, on_error=None):
        """fn recording a span; after(args, result) and on_error(exc) run
        outside the span."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = next(tracer._ids)
            stack = tracer._stack()
            parent = stack[-1] if stack else tracer.root
            stack.append(sid)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if on_error is not None:
                    on_error(exc)
                raise
            finally:
                t1 = time.perf_counter()
                stack.pop()
                tracer.spans.append((sid, parent, name, t0, t1))
            if after is not None:
                after(args, result)
            return result
        return wrapper

    def count(self, name: str, fn):
        """fn counting its calls, without a span."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.add(name)
            return fn(*args, **kwargs)
        return wrapper

    def call_root(self, fn, *args):
        """Run fn(*args) as a root span named cli.main."""
        sid = next(self._ids)
        self.root = sid
        stack = self._stack()
        stack.append(sid)
        t0 = time.perf_counter()
        try:
            return fn(*args)
        finally:
            t1 = time.perf_counter()
            stack.pop()
            self.root = None
            self.spans.append((sid, None, "cli.main", t0, t1))

    def install(self, cli, integrate_mod, closedform, svgplot) -> None:
        """Patch the traced names; uninstall() restores them."""
        add = self.add

        def integrated(args, traj):
            add("integrate.steps", len(traj.zetas) - 1)
            add("integrate.events", len(traj.events))
            add("integrate.diverged", traj.status == "diverged")

        def integrate_failed(exc):
            if isinstance(exc, integrate_mod.IntegrationError):
                add("integrate.errors")

        patches = [
            (cli, "integrate", self.wrap("integrate", cli.integrate,
                                         integrated, integrate_failed)),
            (cli, "first_zero", self.wrap("integrate.first_zero",
                                          cli.first_zero)),
            (cli, "classify", self.wrap("stability.classify", cli.classify)),
            (cli, "make_params", self.wrap("model.make_params",
                                           cli.make_params)),
            (cli, "lyapunov_V", self.count("stability.lyapunov_V.calls",
                                           cli.lyapunov_V)),
            (cli, "theta_from_z", self.count("model.theta_from_z.calls",
                                             cli.theta_from_z)),
            (cli, "_trajectory_csv", self.wrap(
                "cli.trajectory_csv", cli._trajectory_csv,
                lambda a, text: add("cli.rows_out", text.count("\n") - 1))),
            (cli, "_write_text", self.wrap(
                "cli.write_text", cli._write_text,
                lambda a, _: add("cli.bytes_out", len(a[1].encode())))),
            (cli, "_read_csv_columns", self.wrap(
                "cli.read_csv", cli._read_csv_columns,
                lambda a, cols: add("cli.rows_in",
                                    len(next(iter(cols.values()), ()))))),
            (integrate_mod.Trajectory, "evaluate_many", self.wrap(
                "trajectory.evaluate_many",
                integrate_mod.Trajectory.evaluate_many,
                lambda a, out: add("trajectory.evaluate_many.points",
                                   len(out)))),
            (svgplot, "line_chart", self.wrap(
                "svgplot.line_chart", svgplot.line_chart,
                lambda a, _: add("svgplot.points",
                                 sum(len(xs) for _, xs, _ in a[0])))),
        ]
        patches += [(closedform, name,
                     self.wrap(f"closedform.{name}", getattr(closedform, name)))
                    for name in CLOSEDFORM_FUNCTIONS]
        for owner, attr, wrapper in patches:
            self._patches.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def _union(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total = 0.0
    end = -float("inf")
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def reduce(tracer: Tracer, ops: int) -> dict[str, float]:
    """Per-layer figures per traced operation, plus per-item ratios."""
    by_id = {s[0]: s for s in tracer.spans}
    busy: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    integrate_by_root: dict[int, list[tuple[float, float]]] = defaultdict(list)
    roots = []
    for span in tracer.spans:
        sid, parent, name, t0, t1 = span
        if parent is None:
            roots.append(span)
            continue
        layer = layer_of(name)
        outer = by_id.get(parent)
        outer_layer = None if outer is None else layer_of(outer[2])
        # busy time counts only outermost spans, of a name (keyed "name")
        # and of a layer (keyed "layer:")
        if outer is None or outer[2] != name:
            busy[name] += t1 - t0
            calls[name] += 1
        if layer != outer_layer:
            busy[layer + ":"] += t1 - t0
            calls[layer + ":"] += 1
        if name == "integrate":
            integrate_by_root[_root_of(span, by_id)].append((t0, t1))
        if layer != "cli" and outer_layer == "cli":
            children[_root_of(span, by_id)].append((t0, t1))
    cli_self = sum(t1 - t0 - _union(children[sid])
                   for sid, _, _, t0, t1 in roots)
    covered = sum(_union(v) for v in integrate_by_root.values())
    c = tracer.counts
    per_op = max(ops, 1)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    return {
        "integrate.busy_s": busy["integrate"] / per_op,
        "integrate.calls": calls["integrate"] / per_op,
        "integrate.steps": c["integrate.steps"] / per_op,
        "integrate.us_per_step": ratio(busy["integrate"] * 1e6,
                                       c["integrate.steps"]),
        "integrate.events": c["integrate.events"] / per_op,
        "integrate.diverged": c["integrate.diverged"] / per_op,
        "integrate.errors": c["integrate.errors"] / per_op,
        "integrate.overlap": ratio(busy["integrate"], covered),
        "trajectory.evaluate_many.busy_s":
            busy["trajectory.evaluate_many"] / per_op,
        "trajectory.evaluate_many.points":
            c["trajectory.evaluate_many.points"] / per_op,
        "trajectory.evaluate_many.ns_per_point": ratio(
            busy["trajectory.evaluate_many"] * 1e9,
            c["trajectory.evaluate_many.points"]),
        "closedform.busy_s": busy["closedform:"] / per_op,
        "closedform.calls": calls["closedform:"] / per_op,
        "stability.classify.busy_s": busy["stability.classify"] / per_op,
        "stability.classify.calls": calls["stability.classify"] / per_op,
        "svgplot.line_chart.busy_s": busy["svgplot.line_chart"] / per_op,
        "svgplot.points": c["svgplot.points"] / per_op,
        "cli.rows_in": c["cli.rows_in"] / per_op,
        "cli.self_s": cli_self / per_op,
        "cli.rows_out": c["cli.rows_out"] / per_op,
        "cli.bytes_out": c["cli.bytes_out"] / per_op,
        "cli.us_per_row_out": ratio(busy["cli.trajectory_csv"] * 1e6,
                                    c["cli.rows_out"]),
        "stability.lyapunov_V.calls": c["stability.lyapunov_V.calls"] / per_op,
        "model.theta_from_z.calls": c["model.theta_from_z.calls"] / per_op,
        "model.make_params.calls": calls["model.make_params"] / per_op,
    }


def _root_of(span, by_id) -> int:
    while span[1] is not None:
        span = by_id[span[1]]
    return span[0]
