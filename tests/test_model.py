"""Parameter container, theta/z transform, right-hand side, equilibria."""

from __future__ import annotations

import copy
import math
import pickle

import numpy as np
import pytest

from lanestab import (
    Equilibrium,
    HaloProfile,
    IntegratorOptions,
    ModelParams,
    ValidationError,
    basin_contains,
    classify,
    integrate,
    equilibria,
    gaussian_profile,
    lane_emden_radius,
    make_params,
    rhs,
    theta_from_z,
)
from lanestab.cli import build_parser
from lanestab.closedform import powerlaw_boundary
from lanestab.model import STABLE_LEFT, UNSTABLE_ODD, UNSTABLE_RIGHT


def _oracle_zeta_end(value):
    args = build_parser().parse_args(["oracle", "--kind", "gaussian",
                                      f"--zeta-end={value!r}"])
    return args.func(args)


def _records():
    """One instance of each of the six records, with one of its fields."""
    p = make_params(2, 0.5)
    return [(p, "omega"), (equilibria(p)[0], "z_eq"),
            (IntegratorOptions(10.0), "rel_tol"),
            (integrate(p, IntegratorOptions(1.0)), "events"),
            (HaloProfile(1.0, 0.5), "omega"),
            (classify(p), "instability_zeta0")]


def test_make_params_basic():
    p = make_params(2, 0.5)
    assert p.n == 2
    assert p.omega == 0.5
    assert p.theta0 == 1.0
    assert p.zeta_start == 1e-3
    assert p.gamma == 1.5
    assert p.stable_regime


def test_gamma_is_derived_from_n():
    assert make_params(3, 0.5).gamma == 1.0 + 1.0 / 3.0
    assert make_params(6, 0.5).gamma == 1.0 + 1.0 / 6.0


def test_stable_regime_window():
    # the trapped window is open at both ends
    assert not make_params(2, 0.0).stable_regime
    assert make_params(2, 1e-9).stable_regime
    assert make_params(2, 0.999).stable_regime
    assert not make_params(2, 1.0).stable_regime
    assert not make_params(2, 1.5).stable_regime


@pytest.mark.parametrize(
    "kwargs, field",
    [
        (dict(n=0, omega=0.5), "n"),
        (dict(n=-2, omega=0.5), "n"),
        (dict(n=2.5, omega=0.5), "n"),
        (dict(n=True, omega=0.5), "n"),
        (dict(n=2, omega=-0.1), "omega"),
        (dict(n=2, omega=float("nan")), "omega"),
        (dict(n=2, omega=float("inf")), "omega"),
        (dict(n=2, omega=0.5, theta0=0.0), "theta0"),
        (dict(n=2, omega=0.5, theta0=-1.0), "theta0"),
        (dict(n=2, omega=0.5, zeta_start=0.0), "zeta_start"),
        (dict(n=2, omega=0.5, zeta_start=-1e-3), "zeta_start"),
    ],
)
def test_make_params_rejections(kwargs, field):
    with pytest.raises(ValidationError) as exc:
        make_params(**kwargs)
    assert exc.value.field == field
    assert str(exc.value).startswith(field + ":")


@pytest.mark.parametrize("value", [math.nan, math.inf, 0.0, -1.0])
@pytest.mark.parametrize("call, field", [
    (lambda v: make_params(2, 0.5, theta0=v), "theta0"),
    (lambda v: make_params(2, 0.5, zeta_start=v), "zeta_start"),
    (lambda v: IntegratorOptions(zeta_end=v), "zeta_end"),
    (lambda v: HaloProfile(theta0=v, omega=0.5), "theta0"),
    (lambda v: powerlaw_boundary(2.0, v), "theta0"),
    (lambda v: gaussian_profile(1.0, v), "theta0"),
    (lambda v: lane_emden_radius(v), "omega"),
    (_oracle_zeta_end, "zeta_end"),
], ids=["make_params.theta0", "make_params.zeta_start",
        "IntegratorOptions.zeta_end", "HaloProfile.theta0",
        "powerlaw.theta0", "gaussian_profile.theta0",
        "lane_emden_radius.omega", "oracle.zeta_end"])
def test_positive_value_rule(call, field, value):
    """Every site of the finite-and-positive rule names its own field and
    states the rule in the same words."""
    with pytest.raises(ValidationError) as exc:
        call(value)
    assert exc.value.field == field
    assert exc.value.message == f"must be finite and > 0, got {value!r}"


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 0, -2, 2.5,
                                   True, "2", None])
@pytest.mark.parametrize("call, field", [
    (lambda v: make_params(v, 0.5), "n"),
    (lambda v: IntegratorOptions(10.0, max_steps=v), "max_steps"),
], ids=["make_params.n", "IntegratorOptions.max_steps"])
def test_positive_integer_rule(call, field, value):
    """Both integer fields name themselves in the same words for every
    non-integer, nan and inf included, never with a bare ValueError,
    OverflowError or TypeError."""
    with pytest.raises(ValidationError) as exc:
        call(value)
    assert exc.value.field == field
    assert exc.value.message == f"must be a positive integer, got {value!r}"


@pytest.mark.parametrize("value", ["x", None, 10 ** 400],
                         ids=["str", "None", "int-past-float"])
@pytest.mark.parametrize("call, field", [
    (lambda v: make_params(2, v), "omega"),
    (lambda v: make_params(2, 0.5, theta0=v), "theta0"),
    (lambda v: make_params(2, 0.5, zeta_start=v), "zeta_start"),
    (lambda v: IntegratorOptions(v), "zeta_end"),
    (lambda v: IntegratorOptions(10.0, rel_tol=v), "rel_tol"),
    (lambda v: IntegratorOptions(10.0, abs_tol=v), "abs_tol"),
    (lambda v: powerlaw_boundary(v, 1.0), "gamma"),
    (lambda v: basin_contains(0.0, 0.0, v, make_params(2, 0.5)), "delta"),
], ids=["make_params.omega", "make_params.theta0", "make_params.zeta_start",
        "IntegratorOptions.zeta_end", "IntegratorOptions.rel_tol",
        "IntegratorOptions.abs_tol", "powerlaw.gamma", "basin_contains.delta"])
def test_non_numeric_value_names_its_field(call, field, value):
    """A value float() refuses is a ValidationError naming its field, with
    the field's rule, never a bare ValueError, TypeError or OverflowError."""
    with pytest.raises(ValidationError) as exc:
        call(value)
    assert exc.value.field == field
    assert exc.value.message.endswith(f", got {value!r}")


def test_positive_integer_rule_keeps_an_int():
    assert type(make_params(2.0, 0.5).n) is int
    assert type(make_params(np.int64(4), 0.5).n) is int
    opts = IntegratorOptions(10.0, max_steps=5.0)
    assert type(opts.max_steps) is int and opts.max_steps == 5


def test_omega_zero_is_a_valid_parameter():
    """omega = 0 is the temperature-dominated limit; the params accept it
    even though no equilibrium exists there."""
    p = make_params(2, 0.0)
    assert p.omega == 0.0


def test_immutability():
    records = _records()
    assert len({type(rec) for rec, _ in records}) == 6
    for rec, field in records:
        before = getattr(rec, field)
        with pytest.raises(AttributeError):
            setattr(rec, field, 0.9)
        with pytest.raises(AttributeError):
            delattr(rec, field)
        with pytest.raises(AttributeError):
            rec.unknown_field = 0.9
        assert getattr(rec, field) is before


def test_records_compare_hash_and_print_by_value():
    p = make_params(2, 0.5)
    assert repr(p) == ("ModelParams(n=2, omega=0.5, theta0=1.0, "
                       "zeta_start=0.001)")
    assert repr(equilibria(p)[1]) == ("Equilibrium(z_eq=1.4142135623730951, "
                                      "kind='unstable_right')")
    assert repr(HaloProfile(1.0, 0.5)) == "HaloProfile(theta0=1.0, omega=0.5)"
    assert repr(classify(p)).startswith(
        "StabilityReport(params=ModelParams(n=2, omega=0.5, theta0=1.0, "
        "zeta_start=0.001), equilibria=(Equilibrium(z_eq=-1.4142135623730951, "
        "kind='stable_left'), Equilibrium(")
    same = ModelParams(n=2, omega=0.5, theta0=1.0, zeta_start=1e-3)
    assert p == same and not p != same and hash(p) == hash(same)
    assert hash(p) == hash((2, 0.5, 1.0, 1e-3))  # a frozen dataclass's hash
    assert p != make_params(2, 0.25) and p != make_params(4, 0.5)
    assert p != (2, 0.5, 1.0, 1e-3)
    # equal field values in another record type are not equal
    assert Equilibrium(1.0, 0.5) != HaloProfile(1.0, 0.5)
    assert len({Equilibrium(1.0, "zero"), Equilibrium(1.0, "zero"),
                Equilibrium(1.0, "x")}) == 2
    assert classify(p) == classify(same) != classify(make_params(4, 0.5))
    for rec, _ in _records():
        assert copy.copy(rec) == rec == pickle.loads(pickle.dumps(rec))


def test_records_take_fields_by_position_or_keyword():
    assert ModelParams(2, 0.5, theta0=1.0, zeta_start=1e-3) \
        == make_params(2, 0.5)
    assert Equilibrium(kind="stable_left", z_eq=-1.0) \
        == Equilibrium(-1.0, "stable_left")
    for args, kwargs in [((2, 0.5, 1.0), {}),  # missing
                         ((2, 0.5, 1.0, 1e-3), {"gamma": 1.5}),  # unknown
                         ((2, 0.5, 1.0, 1e-3), {"n": 2}),  # duplicated
                         ((2, 0.5, 1.0, 1e-3, 0.0), {})]:  # too many
        with pytest.raises(TypeError):
            ModelParams(*args, **kwargs)


def test_theta_from_z_examples():
    assert theta_from_z(2.0, 3) == 8.0
    assert theta_from_z(-1.5, 2) == 2.25
    assert theta_from_z(0.0, 4) == 0.0


def test_theta_round_trip():
    rng = np.random.default_rng(11)
    for n in range(1, 7):
        for theta in rng.uniform(0.0, 50.0, size=40):
            back = theta_from_z(float(theta) ** (1.0 / n), n)
            assert math.isclose(back, float(theta), rel_tol=1e-12, abs_tol=1e-300)
    assert theta_from_z(0.0 ** (1.0 / 3), 3) == 0.0


def test_rhs_values():
    p = make_params(2, 0.5)
    d = rhs(1.0, 1.0, 0.0, p)
    assert d[0] == 0.0
    assert d[1] == (0.5 - 1.0) / 3.0
    d = rhs(2.0, 1.0, 0.3, p)
    assert d[0] == 0.3
    assert d[1] == (0.5 - 1.0) / 3.0 - 0.3


def test_rhs_rejects_nonpositive_zeta():
    p = make_params(2, 0.5)
    for zeta in (0.0, -1.0, math.nan):
        with pytest.raises(ValidationError) as exc:
            rhs(zeta, 1.0, 0.0, p)
        assert exc.value.field == "zeta"


def test_rhs_vanishes_at_equilibria():
    # omega = 0.25, n = 2 makes the equilibrium magnitude exactly 2.0
    p = make_params(2, 0.25)
    for z_eq in (-2.0, 2.0):
        for zeta in (0.01, 1.0, 50.0):
            assert rhs(zeta, z_eq, 0.0, p) == (0.0, 0.0)


def test_equilibria_even_pair():
    eqs = equilibria(make_params(2, 0.25))
    assert len(eqs) == 2
    assert eqs[0].z_eq == -2.0 and eqs[0].kind == STABLE_LEFT
    assert eqs[1].z_eq == 2.0 and eqs[1].kind == UNSTABLE_RIGHT


def test_equilibria_odd_single():
    eqs = equilibria(make_params(3, 0.125))
    assert len(eqs) == 1
    assert eqs[0].z_eq == 2.0 and eqs[0].kind == UNSTABLE_ODD


def test_equilibria_rejects_omega_zero():
    with pytest.raises(ValidationError) as exc:
        equilibria(make_params(2, 0.0))
    assert exc.value.field == "omega"


def test_equilibria_parity_symmetry_annihilation():
    """Count follows parity, the even pair is an exact negation, and every
    returned constant annihilates the forcing bracket to near round-off."""
    rng = np.random.default_rng(23)
    for n in range(1, 8):
        for omega in 10.0 ** rng.uniform(-2.0, 1.0, size=25):
            p = make_params(n, float(omega))
            eqs = equilibria(p)
            if n % 2 == 0:
                assert len(eqs) == 2
                assert eqs[0].z_eq == -eqs[1].z_eq
                assert eqs[0].z_eq < eqs[1].z_eq
            else:
                assert len(eqs) == 1
                assert eqs[0].z_eq > 0.0
            for eq in eqs:
                assert abs(p.omega * eq.z_eq ** n - 1.0) <= 1e-14

