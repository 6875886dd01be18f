"""Parameter container, theta/z transform, right-hand side, equilibria."""

from __future__ import annotations

import copy
import math
import pickle
from collections import namedtuple

import numpy as np
import pytest

from lanestab import (
    Equilibrium,
    IntegratorOptions,
    ModelParams,
    ValidationError,
    classify,
    integrate,
    equilibria,
    gamma2_profile,
    gaussian_profile,
    halo_boundary,
    lane_emden_radius,
    make_params,
    rhs,
    theta_from_z,
)
from lanestab.cli import build_parser
from lanestab.closedform import powerlaw_boundary
from lanestab.model import STABLE_LEFT, UNSTABLE_ODD, UNSTABLE_RIGHT, _Record

from certificate_oracle import basin_contains, escape_zeta


def _oracle_zeta_end(value):
    args = build_parser().parse_args(["oracle", "--kind", "gaussian",
                                      f"--zeta-end={value!r}"])
    return args.func(args)


def _records():
    """One instance of each of the five records, with one of its fields."""
    p = make_params(2, 0.5)
    return [(p, "omega"), (equilibria(p)[0], "z_eq"),
            (IntegratorOptions(10.0), "rel_tol"),
            (integrate(p, IntegratorOptions(1.0)), "events"),
            (classify(p), "instability_zeta0")]


class _Pair(_Record, namedtuple("_Pair", "first second")):
    """A two-field record of the tests' own, to compare Equilibrium with."""

    __slots__ = ()


def test_make_params_basic():
    p = make_params(2, 0.5)
    assert p.n == 2
    assert p.omega == 0.5
    assert p.theta0 == 1.0
    assert ModelParams._fields == ("n", "omega", "theta0")
    with pytest.raises(TypeError):  # the start is an IntegratorOptions field
        make_params(2, 0.5, zeta_start=1e-3)
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
    (lambda v: IntegratorOptions(10.0, zeta_start=v), "zeta_start"),
    (lambda v: IntegratorOptions(zeta_end=v), "zeta_end"),
    (lambda v: halo_boundary(v, 0.5), "theta0"),
    (lambda v: gamma2_profile(1.0, v, 0.5), "theta0"),
    (lambda v: powerlaw_boundary(2.0, v), "theta0"),
    (lambda v: gaussian_profile(1.0, v), "theta0"),
    (lambda v: lane_emden_radius(v), "omega"),
    (_oracle_zeta_end, "zeta_end"),
], ids=["make_params.theta0", "IntegratorOptions.zeta_start",
        "IntegratorOptions.zeta_end", "halo_boundary.theta0",
        "gamma2_profile.theta0", "powerlaw.theta0", "gaussian_profile.theta0",
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
    (lambda v: gamma2_profile(1.0, 1.0, v), "omega"),
    (lambda v: halo_boundary(1.0, v), "omega"),
    (lambda v: IntegratorOptions(10.0, zeta_start=v), "zeta_start"),
    (lambda v: IntegratorOptions(v), "zeta_end"),
    (lambda v: IntegratorOptions(10.0, rel_tol=v), "rel_tol"),
    (lambda v: IntegratorOptions(10.0, abs_tol=v), "abs_tol"),
    (lambda v: powerlaw_boundary(v, 1.0), "gamma"),
    (lambda v: basin_contains(0.0, 0.0, v, make_params(2, 0.5)), "delta"),
    (lambda v: escape_zeta(make_params(1, 0.5), perturbation=v),
     "perturbation"),
    (lambda v: escape_zeta(make_params(1, 0.5), threshold=v), "threshold"),
], ids=["make_params.omega", "make_params.theta0", "gamma2_profile.omega",
        "halo_boundary.omega", "IntegratorOptions.zeta_start",
        "IntegratorOptions.zeta_end", "IntegratorOptions.rel_tol",
        "IntegratorOptions.abs_tol", "powerlaw.gamma", "basin_contains.delta",
        "escape_zeta.perturbation", "escape_zeta.threshold"])
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
    assert len({type(rec) for rec, _ in records}) == 5
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
    assert repr(p) == "ModelParams(n=2, omega=0.5, theta0=1.0)"
    assert repr(equilibria(p)[1]) == ("Equilibrium(z_eq=1.4142135623730951, "
                                      "kind='unstable_right')")
    assert repr(classify(p)).startswith(
        "StabilityReport(params=ModelParams(n=2, omega=0.5, theta0=1.0), "
        "equilibria=(Equilibrium(z_eq=-1.4142135623730951, "
        "kind='stable_left'), Equilibrium(")
    same = ModelParams(n=2, omega=0.5, theta0=1.0)
    assert p == same and not p != same and hash(p) == hash(same)
    assert hash(p) == hash((2, 0.5, 1.0))  # a frozen dataclass's hash
    assert p != make_params(2, 0.25) and p != make_params(4, 0.5)
    assert p != (2, 0.5, 1.0)
    # equal field values in another record type are not equal
    assert Equilibrium(1.0, 0.5) != _Pair(1.0, 0.5)
    assert _Pair(1.0, 0.5) != Equilibrium(1.0, 0.5)
    assert _Pair(1.0, 0.5) == _Pair(1.0, 0.5)
    assert len({Equilibrium(1.0, "zero"), Equilibrium(1.0, "zero"),
                Equilibrium(1.0, "x")}) == 2
    assert classify(p) == classify(same) != classify(make_params(4, 0.5))
    for rec, _ in _records():
        assert copy.copy(rec) == rec == pickle.loads(pickle.dumps(rec))


def test_records_take_fields_by_position_or_keyword():
    assert ModelParams(2, 0.5, theta0=1.0) == make_params(2, 0.5)
    assert Equilibrium(kind="stable_left", z_eq=-1.0) \
        == Equilibrium(-1.0, "stable_left")
    for args, kwargs in [((2, 0.5), {}),  # missing
                         ((2, 0.5, 1.0), {"gamma": 1.5}),  # unknown
                         ((2, 0.5, 1.0), {"n": 2}),  # duplicated
                         ((2, 0.5, 1.0, 1e-3), {})]:  # too many
        with pytest.raises(TypeError):
            ModelParams(*args, **kwargs)


@pytest.mark.parametrize("record, field, value", [
    (IntegratorOptions(10.0), "zeta_start", -1),
    (make_params(2, 0.5), "n", 0),
], ids=["IntegratorOptions", "ModelParams"])
def test_replace_and_make_go_through_the_checks(record, field, value):
    """_replace and _make build through the checking constructor, so they
    raise its ValidationError, naming the field, as the class call does."""
    values = record._asdict() | {field: value}
    for build in (lambda: record._replace(**{field: value}),
                  lambda: type(record)._make(values.values()),
                  lambda: type(record)(**values)):
        with pytest.raises(ValidationError) as exc:
            build()
        assert exc.value.field == field
    assert record._replace() == record == type(record)._make(record)


@pytest.mark.parametrize("fields, field", [
    ((0, 0.5, 1.0), "n"), ((-1, 0.5, 1.0), "n"), ((2, -0.5, 1.0), "omega"),
    ((2, math.nan, 1.0), "omega"), ((2, 0.5, 0.0), "theta0")])
def test_model_params_checks_every_way_of_building(fields, field):
    """A ModelParams built by call, _replace or _make, or rebuilt by copy
    or pickle, raises the ValidationError that make_params raises, naming
    the same field; a bad record cannot reach integrate or classify."""
    with pytest.raises(ValidationError) as want:
        make_params(*fields)
    assert want.value.field == field
    # a record forged past the constructor still rebuilds through it
    forged = tuple.__new__(ModelParams, fields)
    for build in (lambda: ModelParams(*fields),
                  lambda: ModelParams._make(fields),
                  lambda: make_params(2, 0.5)._replace(
                      **dict(zip(ModelParams._fields, fields))),
                  lambda: copy.copy(forged), lambda: copy.deepcopy(forged),
                  lambda: pickle.loads(pickle.dumps(forged))):
        with pytest.raises(ValidationError) as exc:
            build()
        assert (exc.value.field, exc.value.message) \
            == (want.value.field, want.value.message)


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

