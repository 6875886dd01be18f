"""Seeded operation streams for the benchmark workloads.

Every operation the generators can emit is drawn from a finite pool, and
the outputs of the whole pool were recorded once, at the commit that
introduced the benchmark, in reference.json (see make_reference.py).  The
seed chooses which pool entries run and in which order; the program under
test only ever sees the generated argv.

A stream is a sequence of rounds.  Each round has the same composition on
every seed (one point of each kind, one long run per n, one sweep grid),
so that run-to-run spread reflects the program rather than the draw.  The
runner measures whole rounds only.

Workloads
---------
point       short CLI calls over parameter points: stability --json, solve,
            oracle, plot --kind phase.  Start-up and import dominate each
            call.  Every round also runs the contract-edge points, whose
            documented outcome is a clean completion or "diverged"; at the
            reference commit they exit 2 or leak RuntimeWarnings and count
            as failed operations.
long-solve  solve --zeta-end 2000 for even n: about 20k accepted steps and
            20k CSV rows with V/Vdot per call.
sweep-plot  one 4 n x 5 omega sweep at zeta_end 100 through the default
            thread pool, then plot --kind profile-family over its index.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

WORKLOADS = ("point", "long-solve", "sweep-plot")

# point: regular kinds, one of each per round.  The pools keep the steps
# of a round within a few percent of each other, so that steps_per_s
# varies with the program rather than with the draw.
GAMMA2_OMEGAS = ("0.5", "0.6", "0.7", "0.8", "0.9")
POWERLAW_NS = ("2", "3", "4", "6")
# gamma -> 1: the Gaussian limit is within criterion 04's 1e-4 only for huge n
GAUSSIAN_NS = ("300000", "1000000")
OMEGA0_NS = POWERLAW_NS + GAUSSIAN_NS
GENERIC_NS = ("4", "6")
GENERIC_OMEGAS = ("0.45", "0.5", "0.55")
# (slug, model flags): documented to complete or diverge cleanly
EDGE_POINTS = (
    ("edge-n51-om2", ("--n", "51", "--omega", "2")),
    ("edge-theta1e200", ("--n", "2", "--omega", "0.5", "--theta0", "1e200")),
    ("edge-n200", ("--n", "200", "--omega", "0.5")),
    # every odd n >= 5 ends in step-size underflow instead of "diverged"
    ("edge-n5-om0.5", ("--n", "5", "--omega", "0.5")),
)
POINT_ZETA_END = "60"
# criterion 01 checks the gamma2 closed form on [0, 10]; beyond that its
# exponential growth makes the absolute error meaningless
GAMMA2_ZETA_END = "10"

LONG_NS = ("2", "4", "6")
# narrow, so the median call is the n = 4 one on every seed
LONG_OMEGAS = ("0.6", "0.625", "0.65", "0.675", "0.7")
LONG_ZETA_END = "2000"

SWEEP_NS = "2,3,4,6"
# one omega per stratum; the seed picks a member of each
SWEEP_OMEGA_STRATA = (("0.1", "0.15"), ("0.3", "0.35"), ("0.5", "0.55"),
                      ("0.7", "0.75"), ("0.9", "0.95"))
SWEEP_ZETA_END = "100"


@dataclass(frozen=True)
class Op:
    """One measured operation: CLI calls run in order inside directory
    `dir`, which is emptied first when `fresh`.  Each call is the argv
    after the program name."""

    dir: str
    calls: tuple[tuple[str, ...], ...]
    fresh: bool = True


def call_key(op: Op, args: tuple[str, ...]) -> str:
    """Reference key of one call; outputs are relative to the op directory."""
    return op.dir + ": " + " ".join(args)


def _point(slug: str, model: tuple[str, ...], zeta_end: str,
           solve_extra: tuple[str, ...], oracle: tuple[str, ...],
           with_stability: bool = True) -> list[Op]:
    """A point is one operation per call; the plot reads the solve's CSV."""
    calls = []
    if with_stability:
        calls.append(("stability", *model, "--json"))
    calls.append(("solve", *model, "--zeta-end", zeta_end, *solve_extra,
                  "--out", "run.csv"))
    calls.append(("oracle", *oracle, "--out", "oracle.csv"))
    calls.append(("plot", "--input", "run.csv", "--kind", "phase",
                  "--out", "run.svg"))
    return [Op(slug, (args,), fresh=i == 0) for i, args in enumerate(calls)]


def gamma2_point(omega: str) -> list[Op]:
    return _point(f"gamma2-om{omega}", ("--n", "1", "--omega", omega),
                  GAMMA2_ZETA_END,
                  ("--start-mode", "series", "--check-oracle", "gamma2"),
                  ("--kind", "gamma2", "--omega", omega,
                   "--zeta-end", GAMMA2_ZETA_END))


def omega0_point(n: str) -> list[Op]:
    # equilibria, hence the stability report, need omega > 0
    model = ("--n", n, "--omega", "0")
    if n in GAUSSIAN_NS:
        return _point(f"gaussian-n{n}", model, POINT_ZETA_END,
                      ("--check-oracle", "gaussian"), ("--kind", "gaussian"),
                      with_stability=False)
    return _point(f"powerlaw-n{n}", model, POINT_ZETA_END,
                  ("--check-oracle", "powerlaw"),
                  ("--kind", "powerlaw", "--gamma", repr(1.0 + 1.0 / int(n))),
                  with_stability=False)


def plain_point(slug: str, model: tuple[str, ...]) -> list[Op]:
    """A point without a closed form; its oracle call tabulates the
    water-bag profile at the point's omega."""
    omega = model[model.index("--omega") + 1]
    return _point(slug, model, POINT_ZETA_END, (),
                  ("--kind", "waterbag", "--omega", omega))


def generic_point(n: str, omega: str) -> list[Op]:
    return plain_point(f"generic-n{n}-om{omega}", ("--n", n, "--omega", omega))


def long_op(n: str, omega: str) -> Op:
    return Op(f"long-n{n}-om{omega}",
              (("solve", "--n", n, "--omega", omega,
                "--zeta-end", LONG_ZETA_END, "--out", "run.csv"),))


def sweep_op(omegas: tuple[str, ...]) -> Op:
    omega_arg = ",".join(omegas)
    return Op(f"sweep-om{omega_arg}",
              (("sweep", "--n", SWEEP_NS, "--omega", omega_arg,
                "--zeta-end", SWEEP_ZETA_END, "--out-dir", "grid"),
               ("plot", "--input", "grid/index.json", "--kind",
                "profile-family", "--out", "family.svg")))


def _points() -> list[list[Op]]:
    return ([gamma2_point(om) for om in GAMMA2_OMEGAS]
            + [omega0_point(n) for n in OMEGA0_NS]
            + [generic_point(n, om) for n in GENERIC_NS
               for om in GENERIC_OMEGAS]
            + [plain_point(slug, model) for slug, model in EDGE_POINTS])


def pool(workload: str) -> list[Op]:
    """Every operation the workload's generator can emit."""
    if workload == "point":
        return [op for point in _points() for op in point]
    if workload == "long-solve":
        return [long_op(n, om) for n in LONG_NS for om in LONG_OMEGAS]
    if workload == "sweep-plot":
        grids = [()]
        for stratum in SWEEP_OMEGA_STRATA:
            grids = [g + (om,) for g in grids for om in stratum]
        return [sweep_op(g) for g in grids]
    raise ValueError(f"unknown workload {workload!r}")


def rounds(workload: str, seed: int):
    """Endless stream of rounds (lists of Op) for the workload and seed."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}/{seed}")
    while True:
        if workload == "point":
            points = [gamma2_point(rng.choice(GAMMA2_OMEGAS)),
                      omega0_point(rng.choice(OMEGA0_NS)),
                      generic_point(rng.choice(GENERIC_NS),
                                    rng.choice(GENERIC_OMEGAS))]
            points += [plain_point(slug, model) for slug, model in EDGE_POINTS]
            rng.shuffle(points)
            yield [op for point in points for op in point]
        elif workload == "long-solve":
            ops = [long_op(n, rng.choice(LONG_OMEGAS)) for n in LONG_NS]
            rng.shuffle(ops)
            yield ops
        else:
            yield [sweep_op(tuple(rng.choice(s) for s in SWEEP_OMEGA_STRATA))]
