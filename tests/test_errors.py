"""The three idioms of `ellgrid.errors`: immutable values (`Frozen`), first-use caches (`_kept`)
and the one error constructor (`EllgridError`) with its round trip through pickle and copy, and
the raise sites that pass their index or point as data."""
import cmath
import copy
import math
import pickle

import numpy as np
import pytest

from ellgrid import ByIndex, cli, convergence, errors, solve
from ellgrid.curve import BiquadraticCurve, RootPair
from ellgrid.diffops import BasisFunction, BasisPair, diff_constant, divided_difference
from ellgrid.errors import (
    BranchPointEvaluationError,
    EllgridError,
    Frozen,
    HitSingularLatticeError,
    InternalInconsistencyError,
    LatticeSingularityError,
    LatticeStagnationError,
    LeadingCoefficientVanishesError,
    MethodDegenerateError,
    MissingFieldError,
    NonFiniteCoefficientError,
    NoSpecialPointError,
    PathThroughBranchPointError,
    PoleEvaluationError,
    SmallDivisorError,
    VerticalTangentError,
    _kept,
)
from ellgrid.lattice import GeometricLattice, LatticePair, LatticeSpec
from ellgrid.poly import Polynomial, RationalFunction
from ellgrid.solver import DifferenceEquation, Explicit, locate_special_points

from fixtures import aw_fixture, genus1_equation, linear_fixture, solve_log_qlattice


def value_types():
    """{type: (an instance, one of its fields)} for the eight immutable value types."""
    eq, select = linear_fixture()
    pair = solve(eq, select, 5).pair
    p = Polynomial([1.0, 2.0])
    return {
        Polynomial: (p, "coeffs"),
        RationalFunction: (RationalFunction(p, Polynomial([3.0, 1.0])), "numer"),
        BiquadraticCurve: (eq.curve, "c"),
        LatticeSpec: (pair.unprimed.spec, "x0"),
        DifferenceEquation: (eq, "a"),
        RootPair: (RootPair(1.0, 2.0), "lo"),
        BasisPair: (pair, "primed"),
        BasisFunction: (BasisFunction(pair, 2, "y"), "zeros"),
    }


@pytest.mark.parametrize("cls", list(value_types()), ids=lambda cls: cls.__name__)
def test_a_value_refuses_every_assignment(cls):
    """Each value type is a Frozen: assigning to a field, a first-use cache slot or a new name
    raises AttributeError("<Type> is immutable") and leaves the value as it was."""
    obj, name = value_types()[cls]
    assert isinstance(obj, Frozen)
    before = getattr(obj, name)
    for attr in (name, "_flips", "_cands", "anything"):
        with pytest.raises(AttributeError) as err:
            setattr(obj, attr, 0)
        assert str(err.value) == f"{cls.__name__} is immutable"
    assert getattr(obj, name) is before


def test_the_lattice_and_the_solution_stay_mutable():
    """A LatticePair grows its walk cache, and a solution's coeffs may be replaced."""
    eq, select = linear_fixture()
    sol = solve(eq, select, 5)
    lat = sol.pair.unprimed
    lat.ensure(-10, 10)
    assert lat.known_range == (-10, 10) and not isinstance(lat, Frozen)
    sol.coeffs = sol.coeffs[:3]
    assert len(sol.coeffs) == 3


class _Holder(Frozen):
    __slots__ = ("_slot",)


def test_kept_builds_once_keeps_none_and_keeps_nothing_on_a_raise():
    calls = []

    def build(obj):
        calls.append(obj)
        return None

    holder = _Holder()
    assert _kept(holder, "_slot", build) is None
    assert _kept(holder, "_slot", build) is None and calls == [holder]     # None is kept

    def refuse(obj):
        raise NoSpecialPointError("no root passes back-substitution")

    fresh = _Holder()
    for _ in range(2):
        with pytest.raises(NoSpecialPointError):
            _kept(fresh, "_slot", refuse)
        assert not hasattr(fresh, "_slot")     # nothing kept: the next call builds again
    assert _kept(fresh, "_slot", lambda obj: 7) == 7


def error_types():
    return [v for v in vars(errors).values() if isinstance(v, type) and issubclass(v, EllgridError)]


@pytest.mark.parametrize("cls", error_types(), ids=lambda cls: cls.__name__)
def test_every_error_exposes_index_and_at(cls):
    """index and at are None unless the error names them, positionally or by keyword."""
    data = {f: [3] if f == "values" else 3 for f in cls.fields if f != "message"}
    err = cls(**data)
    assert (err.index, err.at) == (data.get("index"), data.get("at"))
    err = cls(**{**data, "index": 5, "at": 0.5j})
    assert (err.index, err.at) == (5, 0.5j)
    with pytest.raises(TypeError):
        cls(*range(len(cls.fields) + 1))
    with pytest.raises(TypeError):
        cls(stage="solve")


INF = complex("inf")
OLD_FORMS = [      # (error in its old positional form, its message, its attributes)
    (MissingFieldError("c0_free"), "MissingField: c0_free", {"field": "c0_free"}),
    (PoleEvaluationError(1 + 2j), "non-removable pole at z=(1+2j)", {"at": 1 + 2j}),
    (PoleEvaluationError(0.5, "custom text"), "custom text", {"at": 0.5}),
    (LeadingCoefficientVanishesError(2.0), "leading coefficient vanishes at 2.0", {"at": 2.0}),
    (LeadingCoefficientVanishesError(2.0, "root pair at 2.0 is not finite"),
     "root pair at 2.0 is not finite", {"at": 2.0}),
    (LatticeSingularityError(7), "lattice singularity at step n=7", {"index": 7}),
    (LatticeSingularityError(7, "step 6->7: x"), "step 6->7: x", {"index": 7}),
    (LatticeStagnationError(-4), "lattice stagnated near n=-4", {"index": -4}),
    (SmallDivisorError(3, 1.5e-20), "small divisor at n=3 (|eta|=1.500e-20)",
     {"index": 3, "magnitude": 1.5e-20}),
    (NonFiniteCoefficientError(344, INF), "coefficient c_344 is not finite ((inf+0j))",
     {"index": 344, "value": INF}),
    (HitSingularLatticeError(2, [1, 2, 3]), "stepwise recurrence singular at k=2",
     {"index": 2, "values": (1, 2, 3)}),
    (HitSingularLatticeError(2), "stepwise recurrence singular at k=2", {"index": 2, "values": ()}),
]


def _state(err):
    """type, str, args and every field of err, with NaN read as its repr, so two states compare."""
    fields = {k: repr(v) if isinstance(v, float) and math.isnan(v) else v
              for k, v in vars(err).items()}
    return type(err), str(err), err.args, err.index, err.at, fields


@pytest.mark.parametrize("cls", error_types(), ids=lambda cls: cls.__name__)
def test_every_error_survives_pickle_and_copy(cls):
    """pickle, copy.copy and copy.deepcopy give back an error of the same type, str, args, index,
    at and fields: for the error built from its fields alone, and with index and at given."""
    data = {f: [3, 4] if f == "values" else "text" if f == "message" else 3 for f in cls.fields}
    for err in (cls(**data), cls(**{**data, "index": 5, "at": 0.5j})):
        for back in (pickle.loads(pickle.dumps(err)), copy.copy(err), copy.deepcopy(err)):
            assert _state(back) == _state(err)


@pytest.mark.parametrize("err", [PoleEvaluationError(1j), SmallDivisorError(3, 1e-20),
                                 NonFiniteCoefficientError(3, math.nan),
                                 *(err for err, _, _ in OLD_FORMS)],
                         ids=lambda err: type(err).__name__)
def test_a_fielded_error_survives_pickle_and_copy(err):
    """The errors whose message is formed from their fields: the message is not formed twice
    (PoleEvaluationError(1j) read "non-removable pole at z=non-removable pole at z=1j"), and
    none raises on the way back (SmallDivisorError and NonFiniteCoefficientError did)."""
    for back in (pickle.loads(pickle.dumps(err)), copy.copy(err), copy.deepcopy(err)):
        assert _state(back) == _state(err)
    assert str(pickle.loads(pickle.dumps(PoleEvaluationError(1j)))) == "non-removable pole at z=1j"


@pytest.mark.parametrize("err, message, attrs", OLD_FORMS, ids=lambda v: type(v).__name__)
def test_old_positional_forms_keep_message_args_and_attributes(err, message, attrs):
    assert str(err) == message and err.args == (message,)
    for name, value in attrs.items():
        assert getattr(err, name) == value and type(getattr(err, name)) is type(value), name
    for name in {"index", "at"} - set(attrs):
        assert getattr(err, name) is None, name


def test_c_n_route_errors_carry_their_order(monkeypatch):
    """The C_n routes' errors that write n into their message carry it as index too."""
    curve = GeometricLattice(a=0.0, b=1.0, q=cmath.exp(2j * cmath.pi / 5)).curve()
    pair = BasisPair(*(LatticePair(LatticeSpec(curve, v, v)) for v in (2.0, 3.0)))
    for n in range(6, 9):
        with pytest.raises(MethodDegenerateError, match=rf"^C_{n}\(resp0\): poles collide") as err:
            diff_constant(pair, n, "resp0")
        assert err.value.index == n
    monkeypatch.setattr(BiquadraticCurve, "implicit_dy_dx", lambda self, x, y: complex("nan"))
    with pytest.raises(MethodDegenerateError, match="^C_5 by route respn is not finite") as err:
        diff_constant(pair, 5, "respn")
    assert err.value.index == 5


def test_a_coefficient_gap_carries_its_order(monkeypatch):
    import ellgrid.solver as solver_mod
    eq, select = linear_fixture()
    monkeypatch.setattr(solver_mod, "_closed_products",
                        lambda eq, reads, c1: np.full(len(reads[0]) - 1, complex("nan")))
    with pytest.raises(InternalInconsistencyError, match="disagree at n=1 ") as err:
        solve(eq, select, 10)
    assert err.value.index == 1 and err.value.at is None


def test_a_branch_point_error_carries_its_x():
    eq, _ = aw_fixture()
    x = eq.curve.discriminant_P().roots()[0]
    with pytest.raises(BranchPointEvaluationError, match=r"^branches coincide at x=") as err:
        divided_difference(eq.curve, lambda t: t, x)
    assert err.value.at == x and err.value.index is None


def test_a_c_n_guard_names_its_order():
    """The C_n routes' "~ 0" guards carry the order they evaluate as index, their text as it was:
    g1-4 solves at N = 825 and not at 826, and the rate-map fixture stops at 1105."""
    eq = genus1_equation(4)
    assert len(solve(eq, ByIndex(0, 1), 825).coeffs) == 826
    for call, n in ((lambda: solve(eq, ByIndex(0, 1), 1000), 826),
                    (lambda: solve_log_qlattice(1105, c0_free=0.3), 1105)):
        with pytest.raises(MethodDegenerateError, match=r"^C_n\(xm1\) denominator ~ 0 \(") as err:
            call()
        assert err.value.index == n and err.value.at is None


def test_a_vertical_tangent_carries_its_point():
    eq, _ = aw_fixture()
    x = eq.curve.discriminant_P().roots()[0]
    y = eq.curve.y_roots(x).lo
    with pytest.raises(VerticalTangentError) as err:
        eq.curve.implicit_dy_dx(x, y)
    assert str(err.value) == f"dF/dy vanishes at ({x}, {y})"
    assert err.value.at == (x, y) and err.value.index is None


def test_an_explicit_target_that_is_no_candidate_carries_it():
    eq, _ = linear_fixture()
    with pytest.raises(NoSpecialPointError) as err:
        locate_special_points(eq, Explicit(5.0, -1.0))
    assert str(err.value) == "(5+0j) is not a special-point candidate"
    assert err.value.at == 5.0 and err.value.index is None


def test_a_zeta_at_a_double_root_carries_it(monkeypatch):
    """log A is -inf only at a double root of P; there zeta is refused, naming it as data."""
    sol, zeta, _ = solve_log_qlattice()
    monkeypatch.setattr(convergence.RatePredictor, "_log_a",
                        lambda self, z: np.array([-math.inf, 0.0], dtype=complex))
    with pytest.raises(PathThroughBranchPointError) as err:
        convergence.RatePredictor(sol)
    assert str(err.value) == f"zeta = {complex(sol.zeta)} is a double root of P"
    assert err.value.at == sol.zeta and err.value.index is None


def test_the_lattice_command_names_the_row_off_the_curve(tmp_path, monkeypatch):
    """`ellgrid lattice` refuses a written point off the curve with its n as index."""
    curve = GeometricLattice(a=0.0, b=1.0, q=0.5).curve()
    cfg = {"curve": curve.to_json(), "lattice_seed": {"x0": [2.0, 0.0], "y1_index": 0},
           "params": {"n_min": -3, "n_max": 3}}
    spec = cli._seed_from(cfg, cli._curve_from(cfg))
    xs, ys = cli.lattice_mod.generate(spec, -3, 3).values(2, 3)
    bad, residual = (xs[0], ys[0]), BiquadraticCurve.residual
    monkeypatch.setattr(BiquadraticCurve, "residual",
                        lambda self, x, y: 1.0 if (x, y) == bad else residual(self, x, y))
    with pytest.raises(EllgridError) as err:
        cli.run_lattice(cfg, str(tmp_path / "lat.csv"), True)
    assert str(err.value) == "on-curve invariant violated at n=2" and err.value.index == 2
