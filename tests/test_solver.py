import dataclasses
import json
import tracemalloc

import numpy as np
import pytest

from ellgrid import (
    BasisFunction,
    BasisPair,
    ByIndex,
    DifferenceEquation,
    Explicit,
    LatticePair,
    LatticeSpec,
    LinearLattice,
    Nearest,
    evaluate_partial_sum,
    expansion_coefficients,
    expansion_coefficients_log,
    locate_special_points,
    residual,
    solution_to_json,
    solve,
    stepwise_oracle,
    verify_interpolation,
)
from ellgrid.diffops import C_METHODS, diff_constant, diff_constants
from ellgrid.errors import (
    DegreeMismatchError,
    EllgridError,
    HitSingularLatticeError,
    InternalInconsistencyError,
    LatticeSingularityError,
    NonFiniteCoefficientError,
    NoSpecialPointError,
    PoleEvaluationError,
    SmallDivisorError,
    ValidationError,
)
from ellgrid.lattice import HEAD
from ellgrid.poly import Polynomial
import ellgrid.solver as solver_module
from ellgrid.solver import (
    VERIFY_BLOCK,
    _condition_residual,
    _node_sums,
    _step_kernel,
    build_lattices,
    closed_product_coefficient,
    special_point_candidates,
)

from fixtures import (aw_fixture, general_fixtures, genus1_equation, linear_fixture,
                      log_linear_fixture, log_qlattice_fixture, qgeom_fixture)
from oracles import (assert_same_bits, condition_residual_bound, gate_ratios, gated_report,
                     ref_closed_product, ref_condition_residual, ref_log_product,
                     ref_oracle_replay, ref_ratio_recurrence, ref_ratio_replay, ref_row_sweep,
                     row_sweep_start, selector_sweep, sweep_inputs)

X = Polynomial.x()


# -- equation construction ---------------------------------------------------------------


def test_solve_refuses_a_negative_order_before_any_work(monkeypatch):
    """N below 0 is refused before the special points are looked for."""
    calls = []
    monkeypatch.setattr(solver_module, "locate_special_points", lambda *a, **kw: calls.append(a))
    eq, select = linear_fixture()
    with pytest.raises(ValidationError, match="^N must be >= 0, got -1$"):
        solve(eq, select, -1)
    assert calls == []


def test_from_polynomials_extracts_linear_parts():
    eq0, _ = qgeom_fixture()
    eq = DifferenceEquation.from_polynomials(eq0.curve, eq0.a, eq0.c, eq0.d)
    assert eq.beta == pytest.approx(eq0.beta)
    assert eq.gamma == pytest.approx(eq0.gamma)
    assert eq.delta == pytest.approx(eq0.delta)
    assert eq.eps == pytest.approx(eq0.eps)


def test_from_polynomials_rejects_missing_x2_factor():
    eq0, _ = aw_fixture()          # X2 = 1 there, so use a curve with X2 != 1
    curve = eq0.curve
    bad = X + 1.0
    # this curve has X2 = 1; build one with genuine X2 to see the rejection
    rng = np.random.default_rng(4)
    curve2 = None
    from ellgrid import BiquadraticCurve
    while curve2 is None:
        try:
            curve2 = BiquadraticCurve(rng.uniform(-2, 2, (3, 3)))
        except ValidationError:
            pass
    with pytest.raises(ValidationError):
        DifferenceEquation.from_polynomials(curve2, X, bad, Polynomial((0j,)))


def test_degree_cap_on_a():
    eq0, _ = linear_fixture()
    with pytest.raises(DegreeMismatchError):
        DifferenceEquation(eq0.curve, Polynomial((0, 0, 0, 0, 1.0)), 0, 1, 0, 0)


# -- special points -----------------------------------------------------------------------


def test_linear_fixture_candidates():
    eq, _ = linear_fixture()
    cands = special_point_candidates(eq)
    want = sorted([1.0 + 0j, -1.0 + 0j, 1j, -1j], key=lambda z: (z.real, z.imag))
    assert cands == pytest.approx(want)


def test_qgeom_candidates_reject_branch_point():
    eq, _ = qgeom_fixture()
    cands = special_point_candidates(eq)
    # x = 0 is a double root of the rationalized equation but sits on P = 0
    assert all(abs(r) > 1e-6 for r in cands)
    assert sorted(abs(r) for r in cands) == pytest.approx([2.4, 4.0])


def test_aw_fixture_rediscovers_constructed_points():
    eq, select = aw_fixture()
    cands = special_point_candidates(eq)
    for target in (select.x_m1, select.x_p0):
        assert min(abs(r - target) for r in cands) < 1e-8


def test_special_point_certificates():
    for name, eq, select in general_fixtures():
        sp = locate_special_points(eq, select)
        assert sp.res_m1 <= 1e-9
        assert sp.res_p0 <= 1e-9


def test_special_points_independent_of_d():
    eq, select = qgeom_fixture()
    perturbed = DifferenceEquation(eq.curve, eq.a, eq.beta, eq.gamma,
                                   eq.delta + 0.7, eq.eps - 1.2)
    assert special_point_candidates(eq) == pytest.approx(
        special_point_candidates(perturbed))


def test_selectors():
    eq, _ = linear_fixture()
    sp = locate_special_points(eq, Nearest(0.9 + 0.1j))
    assert sp.x_m1 == pytest.approx(1.0)            # nearest candidate
    sp2 = locate_special_points(eq, ByIndex(0, 2))
    cands = special_point_candidates(eq)
    assert sp2.x_m1 == pytest.approx(cands[0])
    assert sp2.x_p0 == pytest.approx(cands[2])
    with pytest.raises(NoSpecialPointError):
        locate_special_points(eq, Explicit(x_m1=5.0, x_p0=1.0))


def test_unknown_selector_is_refused_before_the_candidates():
    """a = 1 + x^3 with d = X2 (x - 5) is logarithmic, and the root 5 of d is not a root of a:
    every known selector fails on the candidates, while an unknown one is refused first."""
    eq = DifferenceEquation(LinearLattice(h=1.0).curve(), Polynomial((1, 0, 0, 1)), 0, 0, 1, -5)
    with pytest.raises(NoSpecialPointError):
        locate_special_points(eq, ByIndex(0))
    with pytest.raises(ValidationError, match=r"^unknown selector 'bogus'$"):
        locate_special_points(eq, "bogus")


def _selector_inputs():
    """The fixtures, one genus-1 seed, and logarithmic equations on the linear curve:
    a = (x - 1)^3 (its float roots split about 5e-6 apart, so none is the root 1 of
    d = X2 (x - 1)) and a = x - 1 (one candidate), each with d = X2 (x - 1) and d = X2."""
    curve = LinearLattice(h=1.0).curve()
    cube, line = Polynomial.from_roots([1.0, 1.0, 1.0]), X - 1.0
    return {"linear": linear_fixture()[0], "qgeom": qgeom_fixture()[0],
            "log-linear": log_linear_fixture()[0], "genus1-0": genus1_equation(0),
            "cube-d": DifferenceEquation(curve, cube, 0, 0, 1.0, -1.0),
            "cube-x2": DifferenceEquation(curve, cube, 0, 0, 0.0, 1.0),
            "line-d": DifferenceEquation(curve, line, 0, 0, 1.0, -1.0),
            "line-x2": DifferenceEquation(curve, line, 0, 0, 0.0, 1.0)}


NEED_TWO = "need two distinct special points"
SAME = "x_{-1} and x'_0 must be distinct"
NO_PIN = "logarithmic mode needs the root of d among the roots of a"

# (input, selector, (i, j) with x_{-1} = cands[i] and x'_0 = cands[j], or the message of
# the NoSpecialPointError).  Explicit selectors given as index pairs name cands[i], cands[j].
SELECTOR_TABLE = [
    # linear: cands -1, -i, i, 1
    ("linear", Nearest(0.2 + 0.9j), (2, 3)),
    ("linear", ByIndex(1), (1, 2)),                      # j = i + 1
    ("linear", ByIndex(-1), (3, 0)),                     # indices wrap
    ("linear", ByIndex(3, -2), (3, 2)),
    ("linear", ByIndex(2, 2), SAME),
    ("linear", (0, 3), (0, 3)),
    ("linear", Explicit(5.0, -1.0), "(5+0j) is not a special-point candidate"),
    # qgeom: cands 2.4, 4
    ("qgeom", Nearest(0), (0, 1)),
    ("qgeom", ByIndex(1), (1, 0)),                       # j = 2 wraps to 0
    ("qgeom", ByIndex(0, 2), SAME),
    # log-linear: x_{-1} is pinned to the root of d, cands[0]; x'_0 is picked from the rest
    ("log-linear", Nearest(0), (0, 2)),
    ("log-linear", Nearest(-2), (0, 1)),
    ("log-linear", ByIndex(0), (0, 1)),                  # entry i of the rest
    ("log-linear", ByIndex(1), (0, 2)),
    ("log-linear", ByIndex(1, 0), (0, 2)),               # j is unused
    ("log-linear", ByIndex(2, 2), (0, 1)),
    ("log-linear", (0, 2), (0, 2)),
    # genus1-0: six candidates
    ("genus1-0", Nearest(0), (1, 2)),
    ("genus1-0", ByIndex(0), (0, 1)),
    ("genus1-0", ByIndex(5), (5, 0)),
    ("genus1-0", ByIndex(0, 7), (0, 1)),
    # the root of d is missing among the candidates: every selector fails, Explicit too
    ("cube-d", Nearest(0), NO_PIN),
    ("cube-d", ByIndex(0), NO_PIN),
    ("cube-d", (0, 2), NO_PIN),
    ("cube-x2", ByIndex(2), (2, 0)),
    # one candidate, pinned: no rest to pick x'_0 from
    ("line-d", Nearest(0), NEED_TWO),
    ("line-d", ByIndex(0), NEED_TWO),
    # one candidate, unpinned: Nearest has no second entry, ByIndex wraps onto the first
    ("line-x2", Nearest(0), NEED_TWO),
    ("line-x2", ByIndex(0), SAME),
    ("line-x2", (0, 0), SAME),
]


@pytest.mark.parametrize("name, select, want", SELECTOR_TABLE)
def test_selector_table(name, select, want):
    eq = _selector_inputs()[name]
    cands = special_point_candidates(eq)
    if isinstance(select, tuple):
        select = Explicit(cands[select[0]], cands[select[1]])
    if isinstance(want, str):
        with pytest.raises(NoSpecialPointError) as err:
            locate_special_points(eq, select)
        assert str(err.value) == want
    else:
        sp = locate_special_points(eq, select)
        assert (cands.index(sp.x_m1), cands.index(sp.x_p0)) == want


def test_sextic_has_six_certified_roots():
    """Cubic a and beta != 0 on a quartic-P curve: all 6 roots are genuine."""
    from fixtures import random_real_curves
    curve = random_real_curves(1, seed=2024)[0]
    assert curve.discriminant_P().degree() == 4
    a = Polynomial((0.3, -1.1, 0.4, 1.0))
    eq = DifferenceEquation(curve, a, beta=0.7, gamma=0.2, delta=1.0, eps=0.0)
    lin2 = Polynomial((eq.gamma, eq.beta)) ** 2
    sextic = 4.0 * (eq.a * eq.a) - lin2 * curve.discriminant_P()
    assert sextic.degree() == 6
    cands = special_point_candidates(eq)
    assert len(cands) == 6
    scale = sextic.max_coeff
    for r in cands:
        assert abs(sextic(r)) <= 1e-9 * scale * max(1.0, abs(r)) ** 6
        assert min(_condition_residual(eq, r, *curve.y_roots(r).as_tuple(), +1),
                   _condition_residual(eq, r, *curve.y_roots(r).as_tuple()[::-1], +1)) \
            <= 1e-9


def condition_residual_cases():
    """(eq, r, first, second, sign): every special-point candidate of the three general fixtures,
    the two log fixtures and genus1_equation seeds 0-59, plus 0.5+0.25j, 1e120 (the size
    overflows) and -3e103+1j, each under both signs with the root pair at r in both orders and
    collided (first = second)."""
    eqs = [eq for _, eq, _ in general_fixtures()]
    eqs += [log_linear_fixture()[0], log_qlattice_fixture()[0]]
    eqs += [genus1_equation(seed) for seed in range(60)]
    for eq in eqs:
        for r in special_point_candidates(eq) + [0.5 + 0.25j, 1e120 + 0j, -3e103 + 1j]:
            u, v = eq.curve.y_roots(r).as_tuple()
            for first, second in ((u, v), (v, u), (u, u)):
                for sign in (+1, -1):
                    yield eq, r, first, second, sign


def test_condition_residual_equals_its_reference():
    """The array kernel's residuals and the reference's give the same <= 1e-6 verdicts, the same
    ordering and tie of each root pair's two orders, inf at the same cases, and differ by at
    most twice condition_residual_bound (each lies within it of the exact residual)."""
    cases = list(condition_residual_cases())
    assert len(cases) > 3000
    got = [float(_condition_residual(*case)) for case in cases]
    want = [ref_condition_residual(*case) for case in cases]
    assert [g <= 1e-6 for g in got] == [w <= 1e-6 for w in want]
    assert [g == np.inf for g in got] == [w == np.inf for w in want]

    def picks(res):     # cases come as (u, v), (v, u), (u, u), each under +1 then -1
        return [(res[i] < res[i + 2], abs(res[i] - res[i + 2]) <= 1e-9)
                for block in range(0, len(res), 6) for i in (block, block + 1)]
    assert picks(got) == picks(want)
    far = [(case[1:], g, w) for case, g, w in zip(cases, got, want) if g < np.inf and
           not abs(g - w) <= 2 * condition_residual_bound(*case[:4])]
    assert not far, far[:5]


def test_degenerate_condition_has_no_special_points():
    """a proportional to (beta x + gamma) sqrt(P): the condition is identically 0."""
    from ellgrid import GeometricLattice
    curve = GeometricLattice(a=0.0, b=1.0, q=0.5).curve()   # P = (x/2)^2
    beta, gamma = 1.0, 2.0
    a = Polynomial((0, gamma, beta)) / 4.0                  # = (beta x + gamma) x / 4
    eq = DifferenceEquation(curve, a, beta=beta, gamma=gamma, delta=1.0, eps=0.0)
    for _ in range(2):                      # a failure is not kept on the equation
        with pytest.raises(NoSpecialPointError):
            special_point_candidates(eq)
    assert not hasattr(eq, "_cands")


def test_equation_keeps_its_kernel_and_candidates_from_first_use():
    eq = genus1_equation(0)
    assert not hasattr(eq, "_step") and not hasattr(eq, "_cands")   # nothing built with eq
    step = _step_kernel(eq)
    assert _step_kernel(eq) is step and eq._step is step
    assert not hasattr(eq, "_cands")
    cands = special_point_candidates(eq)
    assert list(eq._cands) == cands
    for r, (u, v, r_uv, r_vu) in eq._cands.items():    # each with its pair and both residuals
        assert (u, v) == eq.curve.y_roots(r).as_tuple()
        assert [r_uv, r_vu] == _condition_residual(eq, [r, r], [u, v], [v, u], +1).tolist()
    with pytest.raises(AttributeError, match="immutable"):
        eq._cands = ()


def test_candidates_come_back_as_a_new_list_each_call():
    eq = genus1_equation(0)
    first = special_point_candidates(eq)
    want = list(first)
    first.reverse()
    first.append(0j)
    second = special_point_candidates(eq)
    assert second == want and second is not first


def test_locate_finds_the_roots_once_per_equation(monkeypatch):
    """Counts, not timings: four selectors on one equation find the sextic's roots once, and
    each locate takes its candidates through the module attribute (where a tracer binds)."""
    import ellgrid.solver as solver_mod
    calls = {"roots": 0, "cands": 0}

    def counted_roots(self, _original=Polynomial.roots):
        calls["roots"] += 1
        return _original(self)

    def counted_cands(eq, _original=solver_mod.special_point_candidates):
        calls["cands"] += 1
        return _original(eq)
    monkeypatch.setattr(Polynomial, "roots", counted_roots)
    monkeypatch.setattr(solver_mod, "special_point_candidates", counted_cands)
    eq = genus1_equation(1)
    for select in (ByIndex(0, 1), ByIndex(1, 2), ByIndex(2, 0), Nearest(0)):
        locate_special_points(eq, select)
    assert calls == {"roots": 1, "cands": 4}


def test_shared_equation_solves_as_fresh_ones():
    """genus1_equation seeds 0-4 under all 30 ordered ByIndex pairs at N = 40: solving on one
    shared equation gives what a freshly built equal equation gives, errors included."""
    cases, differ, _ = selector_sweep(range(5), 40)
    assert cases == 150 and not differ, differ


NONFINITE = [
    ("linear", Explicit(x_m1=float("nan"), x_p0=1.0), {}, "select.x_m1", "nan"),
    ("linear", Explicit(x_m1=1j, x_p0=complex(0, float("inf"))), {}, "select.x_p0", "infj"),
    ("linear", Nearest(float("nan")), {}, "select.z", "nan"),
    ("linear", Nearest(float("inf")), {}, "select.z", "inf"),
    ("linear", Nearest(None), {}, "select.z", "None"),
    ("log", None, {"y0_hint": float("nan")}, "y0_hint", "nan"),
    ("log", None, {"yp1_hint": complex(float("inf"), 0)}, "yp1_hint", "(inf+0j)"),
    ("log", None, {"y0_hint": None, "yp1_hint": float("-inf")}, "yp1_hint", "-inf"),
]


@pytest.mark.parametrize("kind, select, hints, field, shown", NONFINITE,
                         ids=[f"{case[3]}={case[4]}" for case in NONFINITE])
def test_nonfinite_selector_or_hint_is_a_validation_error(kind, select, hints, field, shown):
    """Unchecked, a NaN point would match or pick candidate 0 (no comparison with it holds) and
    a NaN hint would take the other branch."""
    if kind == "log":
        eq, select, *_, fixture_hints = log_linear_fixture()
        hints = {**fixture_hints, **hints}
    else:
        eq = linear_fixture()[0]
    with pytest.raises(ValidationError) as err:
        locate_special_points(eq, select, **hints)
    assert str(err.value) == f"{field}: expected a finite complex number, got {shown}"


def _linear(a=(0, 0, 1.0), beta=0.0, gamma=2.0, delta=1.0, eps=0.0):
    """linear_fixture's equation with one argument replaced."""
    return DifferenceEquation(LinearLattice(h=1.0).curve(), a, beta, gamma, delta, eps)


def _from_polynomials(c=None, d=None):
    """linear_fixture's equation through from_polynomials, with c or d replaced."""
    eq = _linear()
    return DifferenceEquation.from_polynomials(eq.curve, eq.a, c or eq.c, d or eq.d)


def _oracle(f0):
    eq, select = linear_fixture()
    return stepwise_oracle(eq, solve(eq, select, 5).pair, 5, f0=f0)


def _solve(c0_free, monkeypatch, log=True):
    """solve on log_linear_fixture (or linear_fixture) with c0_free replaced, failing if it
    locates special points."""
    if log:
        eq, select, _, _, _, hints = log_linear_fixture()
    else:
        (eq, select), hints = linear_fixture(), {}

    def no_work(*args, **kwargs):
        raise AssertionError("solve located special points before checking c0_free")
    monkeypatch.setattr(solver_module, "locate_special_points", no_work)
    return solve(eq, select, 5, c0_free=c0_free, **hints)


def _log_coefficients(c0_free):
    eq, select, c0, _, _, hints = log_linear_fixture()
    return expansion_coefficients_log(eq, solve(eq, select, 5, c0_free=c0, **hints).pair, 5,
                                      c0_free)


NAN, INF = float("nan"), float("inf")
NONFINITE_INPUTS = [
    ("a", lambda mp: _linear(a=[0, 0, INF]), "a[2]", "inf"),
    ("a, a Polynomial", lambda mp: _linear(a=Polynomial((0, NAN, 1.0))), "a[1]", "(nan+0j)"),
    ("beta", lambda mp: _linear(beta=NAN), "beta", "nan"),
    ("gamma", lambda mp: _linear(gamma="x"), "gamma", "'x'"),
    ("delta", lambda mp: _linear(delta=INF), "delta", "inf"),
    ("eps", lambda mp: _linear(eps=-INF), "eps", "-inf"),
    ("c", lambda mp: _from_polynomials(c=[NAN]), "c[0]", "nan"),
    ("d", lambda mp: _from_polynomials(d=[0, INF]), "d[1]", "inf"),
    ("f0", lambda mp: _oracle(NAN), "f0", "nan"),
    ("f0, text", lambda mp: _oracle("x"), "f0", "'x'"),
    ("c0_free", lambda mp: _solve(NAN, mp), "c0_free", "nan"),
    ("c0_free, text", lambda mp: _solve("x", mp), "c0_free", "'x'"),
    ("c0_free, general mode", lambda mp: _solve(INF, mp, log=False), "c0_free", "inf"),
    ("c0_free, log coefficients", lambda mp: _log_coefficients(INF), "c0_free", "inf"),
]


@pytest.mark.parametrize("call, field, shown", [case[1:] for case in NONFINITE_INPUTS],
                         ids=[case[0] for case in NONFINITE_INPUTS])
def test_nonfinite_equation_input_is_a_validation_error(call, field, shown, monkeypatch):
    """Unchecked, Polynomial's trim drops an inf top coefficient, a NaN beta reaches c, an inf
    delta leaves d = 0, a NaN f0 blames the lattice, a NaN c0_free fails as c_0 after the
    special points are found (and in general mode reaches solution_to_json), and text is an
    untyped ValueError."""
    with pytest.raises(ValidationError) as err:
        call(monkeypatch)
    assert str(err.value) == f"{field}: expected a finite complex number, got {shown}"


BAD_INDEX = [
    (ByIndex(1.5), "select.i", 1.5),
    (ByIndex(None), "select.i", None),
    (ByIndex("1"), "select.i", "1"),
    (ByIndex(True, False), "select.i", True),
    (ByIndex(0, 2.0), "select.j", 2.0),
    (ByIndex(0, False), "select.j", False),
]


@pytest.mark.parametrize("select, field, bad", BAD_INDEX,
                         ids=[f"{case[1]}={case[2]!r}" for case in BAD_INDEX])
def test_non_integer_by_index_entry_is_a_validation_error(select, field, bad):
    """Unchecked, 1.5, None and "1" fail as an untyped TypeError from the list index, and
    True and False pick entries 1 and 0; a numpy integer is an entry."""
    eq = linear_fixture()[0]
    for call in (lambda: locate_special_points(eq, select), lambda: solve(eq, select, 5)):
        with pytest.raises(ValidationError) as err:
            call()
        assert str(err.value) == f"{field} must be an integer, got {bad!r}"
    assert locate_special_points(eq, ByIndex(np.int64(0), np.int64(1))) == \
        locate_special_points(eq, ByIndex(0, 1))


def test_stepwise_oracle_hits_singular_lattice():
    """zeta placed on the unprimed lattice: the recurrence divides by a(x_2) = 0."""
    from ellgrid.errors import HitSingularLatticeError
    curve = LinearLattice(h=1.0).curve()
    x_m1 = -2.0 + 0.1j
    x_p0 = 0.25 + 0.5j
    zeta = x_m1 + 3.0                       # = x_2 of the lattice seeded at x_m1
    a = Polynomial.from_roots([x_m1, x_p0, zeta])
    eq = DifferenceEquation(curve, a, 0.0, 0.0, 1.0, -x_m1)
    sp = locate_special_points(eq, Explicit(x_m1, x_p0),
                               y0_hint=x_m1 + 1.0, yp1_hint=x_p0 + 1.0)
    pair = build_lattices(eq, sp)
    with pytest.raises(HitSingularLatticeError) as err:
        stepwise_oracle(eq, pair, 5, f0=0.0)
    assert err.value.index == 2
    assert err.value.values == tuple(stepwise_oracle(eq, pair, 2, f0=0.0))     # f(y_0) .. f(y_2)


def test_stepwise_oracle_past_the_float_range_is_typed():
    """Askey-Wilson x_k ~ 2^k: |x_k|^2 passes the float range near k = 512.  The oracle
    stops there with a typed error naming k, never with untyped overflow or NaN values."""
    eq, select = aw_fixture()
    pair = build_lattices(eq, locate_special_points(eq, select))
    assert all(np.isfinite(stepwise_oracle(eq, pair, 500)))
    with pytest.raises(LatticeSingularityError, match="stepwise oracle") as info:
        stepwise_oracle(eq, pair, 700)
    assert 500 < info.value.index < 520


def _singular_step_cases():
    """(name, eq, select, solve keywords): genus1_equation seeds 0-29 x three ByIndex
    selectors, the three general fixtures, the two logarithmic ones and one logarithmic
    equation whose oracle is singular."""
    for seed in range(30):
        eq = genus1_equation(seed)
        for select in (ByIndex(0, 1), ByIndex(1, 2), ByIndex(2, 0)):
            yield f"genus1-{seed} {select}", eq, select, {}
    for name, eq, select in general_fixtures():
        yield name, eq, select, {}
    eq, select, c0_free, _, _, hints = log_linear_fixture()
    yield "log-linear", eq, select, {"c0_free": c0_free, **hints}
    eq, select, _, _, hints = log_qlattice_fixture()
    yield "log-qlattice", eq, select, {"c0_free": 0.3, **hints}
    # the third root of a at x_2: the oracle's step 2 divides by a(x_2) = 0
    eq, select, c0_free, _, _, hints = log_linear_fixture()
    a = Polynomial.from_roots([select.x_m1, select.x_p0, select.x_m1 + 3.0])
    singular = DifferenceEquation(eq.curve, a, 0.0, 0.0, 1.0, -select.x_m1)
    yield "zeta-on-lattice", singular, select, {"c0_free": c0_free, **hints}


def test_small_divisor_is_the_oracles_singular_step():
    """One singular-step rule: solve raises SmallDivisorError(n) exactly when the stepwise
    oracle's step n - 1 is singular (or C_n = 0); a solve that succeeds has an oracle that
    runs to N with no singular step."""
    N = 150
    raised = 0
    for name, eq, select, kw in _singular_step_cases():
        f0 = kw.get("c0_free")
        try:
            sol = solve(eq, select, N, **kw)
        except SmallDivisorError as exc:
            raised += 1
            n = exc.index
            pair = build_lattices(eq, locate_special_points(
                eq, select, y0_hint=kw.get("y0_hint"), yp1_hint=kw.get("yp1_hint")))
            try:
                stepwise_oracle(eq, pair, N, f0=f0)
                singular = None
            except HitSingularLatticeError as hit:
                singular = hit.index
            assert singular == n - 1 or diff_constants(pair, n)[n] == 0, (name, n, singular)
            continue
        except EllgridError:
            continue
        assert len(stepwise_oracle(eq, sol.pair, N, f0=sol.coeffs[0])) == N + 1, name
    assert raised > 0            # the rule is exercised, not only the success branch


@pytest.mark.parametrize("seed", [4, 11, 19])
def test_small_divisor_verdict_does_not_depend_on_N(seed):
    """Whether order n is accepted reads step n - 1 only: the N = 150 solve extends the
    N = 40 one bit for bit and verifies."""
    eq = genus1_equation(seed)
    short, long = (solve(eq, ByIndex(2, 0), N) for N in (40, 150))
    assert long.coeffs[:41] == short.coeffs
    assert verify_interpolation(eq, long, 150).max_error <= 1e-7


def test_equation_scale_past_the_float_range_is_typed():
    """scale(z) = max|coeff| max(1, |z|)^3 leaves the float range near |z| = 5.6e102: a typed
    error naming z, so the logarithmic d(x_{-1}) = 0 check cannot pass on an inf scale."""
    eq, _ = linear_fixture()
    assert eq.scale(1e100) == pytest.approx(2e300)
    with pytest.raises(ValidationError, match=r"z=1e\+103"):
        eq.scale(1e103)


def test_undefined_c0_is_validation_error_on_every_route():
    """beta x_{-1} + gamma = 0: solve and the stepwise oracle raise the same typed error."""
    curve = LinearLattice(h=1.0).curve()
    eq = DifferenceEquation(curve, Polynomial((0, 0, 1.0)), 1.0, 0.0, 1.0, 1.0)
    select = Explicit(0, -0.5)
    pair = build_lattices(eq, locate_special_points(eq, select))
    assert pair.unprimed.x(-1) == 0
    for run in (lambda: solve(eq, select, 5), lambda: stepwise_oracle(eq, pair, 5)):
        with pytest.raises(ValidationError, match="c_0 undefined"):
            run()


def test_stepwise_oracle_on_an_overflowing_c0():
    """delta x_{-1} / (beta x_{-1} + gamma) past the float range from finite inputs: K = 0
    gives f_0 = c_0 as it is, and a longer run stops with a typed error at step 0."""
    eq = _linear(gamma=1e-10, delta=1e308)
    pair = build_lattices(eq, locate_special_points(eq, ByIndex(0, 1)))
    (f0,) = stepwise_oracle(eq, pair, 0)
    assert np.isinf(f0)
    with pytest.raises(LatticeSingularityError, match="stepwise oracle") as info:
        stepwise_oracle(eq, pair, 3)
    assert info.value.index == 0


def test_partial_sum_pole_guard():
    eq, select = linear_fixture()
    sol = solve(eq, select, 6)
    from ellgrid.errors import PoleEvaluationError
    with pytest.raises(PoleEvaluationError):
        evaluate_partial_sum(sol, 6, sol.pair.primed.y(3))


def test_log_linear_fixture_with_exact_decimal_a_verifies():
    # a with its coefficients as written (-0.9 - 0.45625j, ...), not the float-noisy product
    # of its roots: the stepwise walk's Newton polish once jumped by 3.6e-12 at step 129 -> 130
    # on this lattice, and verify read 7.9e-7; past the head the walk is x_0 + n h in closed
    # form, y_n = y_0 + n h to a few ulp
    eq, select, c0_free, _, _, hints = log_linear_fixture()
    a = Polynomial((-0.9 - 0.45625j, 0.4625 - 2.3j, 2.5 - 1.1j, 1))
    exact = DifferenceEquation(eq.curve, a, beta=eq.beta, gamma=eq.gamma, delta=eq.delta,
                               eps=eq.eps)
    assert max(abs(a - b) for a, b in zip(exact.a.coeffs, eq.a.coeffs)) < 1e-15
    sol = solve(exact, select, 300, c0_free=c0_free, **hints)
    assert verify_interpolation(exact, sol, 300).max_error <= 1e-7
    lat = sol.pair.unprimed
    y0 = lat.y(0)
    for n in range(HEAD + 1, 302):
        assert abs(lat.y(n) - (y0 + n * 1.0)) <= 4 * 2.0 ** -52 * abs(lat.y(n)), n


def test_log_mode_pins_xm1_to_root_of_d():
    eq, select, c0, A, zeta, hints = log_linear_fixture()
    sp = locate_special_points(eq, Nearest(0.0), **{k: v for k, v in hints.items()})
    assert sp.x_m1 == pytest.approx(-2.0 + 0.1j)    # the root of d, not the nearest


def test_build_lattices_memberships():
    for name, eq, select in general_fixtures():
        sp = locate_special_points(eq, select)
        pair = build_lattices(eq, sp)
        curve = eq.curve
        for xx, yy in ((sp.x_m1, sp.y_m1), (sp.x_m1, sp.y_0),
                       (sp.x_p0, sp.y_p0), (sp.x_p0, sp.y_p1)):
            assert curve.residual(xx, yy) <= 1e-9
        assert pair.unprimed.x(-1) == pytest.approx(sp.x_m1)
        assert pair.unprimed.y(-1) == pytest.approx(sp.y_m1)
        assert pair.primed.y(1) == pytest.approx(sp.y_p1)


def test_swapping_pole_branch_flips_certificate_sign():
    eq, select = aw_fixture()
    sp = locate_special_points(eq, select)
    dy = sp.y_p1 - sp.y_p0
    value = eq.a(sp.x_p0) / dy - eq.c(sp.x_p0) / 2.0
    swapped = eq.a(sp.x_p0) / (-dy) - eq.c(sp.x_p0) / 2.0
    # defining condition holds as chosen; the swap lands on -c instead of 0
    assert abs(value) <= 1e-9 * abs(eq.c(sp.x_p0))
    assert swapped == pytest.approx(-eq.c(sp.x_p0))
    # equivalently the swapped ordering satisfies the x_{-1}-type condition
    assert _condition_residual(eq, sp.x_p0, sp.y_p1, sp.y_p0, +1) <= 1e-9


# -- coefficients ------------------------------------------------------------------------


def test_c0_formula():
    for name, eq, select in general_fixtures():
        sol = solve(eq, select, 6)
        xm1 = sol.pair.unprimed.x(-1)
        want = -(eq.delta * xm1 + eq.eps) / (eq.beta * xm1 + eq.gamma)
        assert sol.coeffs[0] == pytest.approx(want)


def test_trivial_equation_all_zero():
    eq0, select = linear_fixture()
    eq = DifferenceEquation(eq0.curve, eq0.a, eq0.beta, eq0.gamma, 0.0, 0.0)
    sol = solve(eq, select, 8)
    assert all(c == 0 for c in sol.coeffs)
    rep = verify_interpolation(eq, sol, 8)
    assert rep.max_error == 0.0
    z = 0.37 + 2.2j
    assert residual(eq, sol, 8, z) == 0


def test_two_route_coefficients_agree():
    for name, eq, select in general_fixtures():
        sol = solve(eq, select, 10)
        c1 = sol.coeffs[1]
        for n in range(2, 11):
            prod = closed_product_coefficient(eq, sol.pair, n, c1)
            assert abs(prod - sol.coeffs[n]) <= 1e-8 * max(1.0, abs(sol.coeffs[n]))


def test_running_products_match_per_index_loops():
    """The numpy running products vs factor-by-factor loops; their rounding differs, so
    the tolerance is set beforehand at about 4500 ulps."""
    import ellgrid.solver as solver_mod
    for name, eq, select in general_fixtures():
        sol = solve(eq, select, 20)
        for n in range(1, 21):
            want = ref_closed_product(eq, sol.pair, n, sol.coeffs[1])
            got = closed_product_coefficient(eq, sol.pair, n, sol.coeffs[1])
            assert abs(got - want) <= 1e-12 * abs(want)
    leq, lselect, lc0, _, _, lhints = log_linear_fixture()
    qeq, qselect, _, _, qhints = log_qlattice_fixture()
    for eq, sol in ((leq, solve(leq, lselect, 40, c0_free=lc0, **lhints)),
                    (qeq, solve(qeq, qselect, 40, c0_free=0.0, **qhints))):
        reads = solver_mod._reads(eq, sol.pair, 40)
        got = solver_mod._log_products(eq, reads, sol.coeffs[1], sol.zeta)
        for n in range(1, 41):
            want = ref_log_product(eq, sol.pair, n, sol.coeffs[1], sol.zeta)
            assert abs(got[n - 1] - want) <= 1e-12 * abs(want)


def gate_cases():
    """(name, eq, sol, N): the three general fixtures and both logarithmic ones at N = 40 and
    300 (qgeom's walk stagnates at n = 47, so it stops at 40), and genus1_equation seeds 0-19
    under ByIndex (0, 1) and (1, 2) at N = 150 wherever the seed solves."""
    eq, select, c0_free, _, _, hints = log_linear_fixture()
    log_linear = ("log-linear", eq, select, dict(c0_free=c0_free, **hints))
    eq, select, _, _, hints = log_qlattice_fixture()
    fixtures = [(name, eq, select, {}) for name, eq, select in general_fixtures()]
    fixtures += [log_linear, ("log-q", eq, select, dict(c0_free=0.3, **hints))]
    for N in (40, 300):
        for name, eq, select, kw in fixtures:
            if name != "qgeom" or N == 40:
                yield f"{name} {N}", eq, solve(eq, select, N, **kw), N
    for seed in range(20):
        eq = genus1_equation(seed)
        for select in (ByIndex(0, 1), ByIndex(1, 2)):
            try:
                yield f"genus1-{seed} {select}", eq, solve(eq, select, 150), 150
            except EllgridError:
                continue


def test_coefficients_equal_per_index_ratio_recurrence():
    """solve's c_n and ref_ratio_recurrence's each lie within their forward-error bound of the
    50-digit replay of the recurrence (ref_ratio_replay) at every n."""
    cases = list(gate_cases())
    assert len(cases) >= 40
    for name, eq, sol, N in cases:
        replay = ref_ratio_replay(eq, sol.pair, sol.coeffs[0], N)
        for cs in (sol.coeffs, ref_ratio_recurrence(eq, sol.pair, sol.coeffs[0], N)):
            ratios = gate_ratios(cs, replay)
            assert len(ratios) == N + 1 and all(r <= 1.0 for r in ratios), (name, max(ratios))


def test_forward_error_gates_have_teeth():
    """One c_n or f_k moved by twice its bound, away from the replay, fails its gate there and
    nowhere else."""
    eq = genus1_equation(3)
    sol = solve(eq, ByIndex(0, 1), 150)
    oracle = stepwise_oracle(eq, sol.pair, 150, f0=sol.coeffs[0])
    for values, replay in ((sol.coeffs, ref_ratio_replay(eq, sol.pair, sol.coeffs[0], 150)),
                           (oracle, ref_oracle_replay(eq, sol.pair, 150, sol.coeffs[0]))):
        assert max(gate_ratios(values, replay)) <= 1.0
        for n in (1, 75, 150):
            exact = complex(float(replay[n][0].re), float(replay[n][0].im))
            off = values[n] - exact
            nudged = list(values)
            nudged[n] += 2.0 * replay[n][1] * (off / abs(off) if off else 1.0)
            ratios = gate_ratios(nudged, replay)
            assert ratios[n] > 1.0 and max(ratios[:n] + ratios[n + 1:]) <= 1.0


def test_stepwise_oracle_interpolation():
    for name, eq, select in general_fixtures():
        sol = solve(eq, select, 8)
        oracle = stepwise_oracle(eq, sol.pair, 8)
        assert oracle[0] == pytest.approx(sol.coeffs[0])
        s1 = evaluate_partial_sum(sol, 1, sol.pair.unprimed.y(1))
        assert abs(s1 - oracle[1]) <= 1e-9 * (1.0 + abs(oracle[1]))
        rep = verify_interpolation(eq, sol, 8)
        assert rep.max_error <= 1e-7


def test_partial_sum_basics():
    eq, select = linear_fixture()
    sol = solve(eq, select, 6)
    z = -3.1 + 0.7j
    assert evaluate_partial_sum(sol, 0, z) == sol.coeffs[0]
    for N in (1, 3, 6):
        assert evaluate_partial_sum(sol, N, sol.pair.unprimed.y(0)) == pytest.approx(sol.coeffs[0])


def test_residual_vanishes_on_lattice():
    for name, eq, select in general_fixtures():
        sol = solve(eq, select, 10)
        for j in range(0, 9):
            z = sol.pair.unprimed.x(j)
            assert abs(residual(eq, sol, 10, z)) <= 1e-7 * eq.scale(z)


def test_corrupted_coefficient_localizes():
    eq, select = linear_fixture()
    sol = solve(eq, select, 8)
    cs = list(sol.coeffs)
    cs[5] *= 1.01
    sol.coeffs = tuple(cs)
    rep = verify_interpolation(eq, sol, 8)
    assert max(rep.errors[:5]) <= 1e-9
    assert min(rep.errors[5:]) > 1e-6


def test_verify_sweep_meets_forward_error_bound():
    cases = [(eq, solve(eq, select, 30)) for _, eq, select in general_fixtures()]
    for seed in range(5):
        g1 = genus1_equation(seed)
        cases.append((g1, solve(g1, ByIndex(0, 1), 40)))
    for eq, sol in cases:
        N = len(sol.coeffs) - 1
        for n in (N, N // 2):
            rep, _ = gated_report(eq, sol, n)
            assert rep.skipped == ()
            assert rep.max_error <= 1e-7


def test_verify_sweep_meets_forward_error_bound_across_blocks():
    eq, select = linear_fixture()
    g1 = genus1_equation(4)
    cases = [(eq, solve(eq, select, 300)), (g1, solve(g1, ByIndex(0, 1), 150))]
    eq, select = aw_fixture()
    cases.append((eq, solve(eq, select, 200)))
    for eq, sol in cases:
        N = len(sol.coeffs) - 1
        assert N * N > 2 * VERIFY_BLOCK     # more than one block of factors
        assert gated_report(eq, sol, N)[0].skipped == ()


def test_verify_sweep_meets_forward_error_bound_in_wide_blocks():
    """At N = 1000 each block of the sweep holds a few rows over about 1000 columns; every 37th
    node and the last meet the bound."""
    eq, select = linear_fixture()
    g1 = genus1_equation(1)
    for eq, sol in ((eq, solve(eq, select, 1000)), (g1, solve(g1, ByIndex(0, 1), 1000))):
        N = len(sol.coeffs) - 1
        rep, _ = gated_report(eq, sol, N, every=37)
        assert rep.skipped == () and rep.max_error <= 1e-7


def _assert_overflow_as_the_scalar_route(N):
    """With |c_6| = 1e307 the term c_6 Yb_6(y_j) overflows at some nodes j >= 6 and not at
    others; the nodes whose error is not finite are exactly those where evaluate_partial_sum's
    is not.  The nested sum reads NaN at some nodes where the scalar route's running product
    reads inf, so inf and NaN are not told apart."""
    eq = genus1_equation(0)
    sol = solve(eq, ByIndex(0, 1), N)
    cs = list(sol.coeffs)
    cs[6] = cs[6] / abs(cs[6]) * 1e307
    big = dataclasses.replace(sol, coeffs=tuple(cs))
    got = np.array(verify_interpolation(eq, big, N).errors)
    oracle = np.array(stepwise_oracle(eq, sol.pair, N, f0=cs[0]))
    sums = np.array([evaluate_partial_sum(big, N, sol.pair.unprimed.y(j)) for j in range(N + 1)])
    with np.errstate(all="ignore"):
        want = np.abs(sums - oracle) / (1.0 + np.abs(oracle))
    assert np.isfinite(got[:6]).all() and not np.isfinite(got[6:]).all()
    assert np.isfinite(got[6:]).any()
    assert (np.isfinite(got) == np.isfinite(want)).all()


def test_verify_node_sums_only_its_first_terms():
    _assert_overflow_as_the_scalar_route(40)


def test_verify_node_sums_only_its_first_terms_in_wide_blocks():
    assert 300 * 300 > 2 * VERIFY_BLOCK     # the sweep runs over more than one block
    _assert_overflow_as_the_scalar_route(300)


def test_verify_node_sums_take_only_their_own_terms():
    """A NaN coefficient c_k reaches no node j < k: there the sweep is finite and equal, bit for
    bit, to the sweep without it, in one block (N = 40) and across blocks (N = 300)."""
    eq = genus1_equation(0)
    for N, k in ((40, 20), (300, 150)):
        sol = solve(eq, ByIndex(0, 1), N)
        ys, poles = sol.pair.unprimed.span(0, N + 1)[1], sol.pair.primed.span(1, N + 1)[1]
        cs = np.array(sol.coeffs)
        clean = _node_sums(ys, poles, cs)
        cs[k] = np.nan
        got = _node_sums(ys, poles, cs)
        assert np.isfinite(got[:k]).all() and np.isnan(got[k:]).all()
        assert np.array_equal(got[:k], clean[:k])


def test_node_sums_mask_terms_past_a_node_whose_product_overflowed():
    """Poles within 2^-52 of node y_3 = 1 and nodes near -1e100 overflow Yb_3(y_3), so the exact
    S(y_3) (about 1e347 in modulus) is not finite and the sweep's is not either; the running
    product would overflow ahead of the zero factor (y_3 - y_3) of Yb_4(y_3), but the nested
    sum never forms it, so every other node matches the sum of its own terms k <= j."""
    ys = np.array([-1e100, -2e100, -3e100, 1.0, 2.0], dtype=complex)
    poles = np.array([1 + 2.0 ** -52] * 3 + [7.0], dtype=complex)
    cs = np.array([0.5, 1.0, -2.0, 0.25, 3.0], dtype=complex)
    with np.errstate(all="ignore"):
        want = np.array([cs[0] + np.sum(cs[1:j + 1] * np.cumprod((y - ys[:j]) / (y - poles[:j])))
                         for j, y in enumerate(ys)])
    assert np.isinf(want[3].real) and np.isfinite(want[[0, 1, 2, 4]]).all()
    got = _node_sums(ys, poles, cs)
    assert not np.isfinite(got[3])
    np.testing.assert_allclose(got[[0, 1, 2, 4]], want[[0, 1, 2, 4]], rtol=1e-15)


@pytest.mark.parametrize("N", [40, 100, 1000])
def test_node_sums_on_an_exact_progression_equal_the_row_sweep_bit_for_bit(N):
    """The linear fixture's stored lattice is 1j + k and its poles k + 1, exactly: every row
    takes its factors from row 0's divisions (r0 = 0), and the sums equal one division per row
    to the bit."""
    eq, select = linear_fixture()
    ys, poles, cs = sweep_inputs(solve(eq, select, N))
    assert row_sweep_start(ys, poles, cs) == 0


def test_node_sums_meet_the_row_sweep_where_the_progression_starts_late():
    """log_linear_fixture's y_1 is -3.9e-34 + 0.1j, off the progression its later nodes are on:
    rows below r0 come in blocks and the rest from one row, in one sweep, bit for bit."""
    eq, select, c0_free, _A, _zeta, hints = log_linear_fixture()
    ys, poles, cs = sweep_inputs(solve(eq, select, 40, c0_free=c0_free, **hints))
    assert 0 < row_sweep_start(ys, poles, cs) < 10


@pytest.mark.parametrize("k, r0", [(1, 2), (17, 18), (37, 38), (38, 40), (40, 40)])
def test_node_sums_divide_up_to_a_node_moved_by_one_ulp(k, r0):
    """y_k one ulp up breaks the steps into and out of it: rows up to k divide, bit for bit.
    Where it is one of the last three nodes the pretest finds no row (r0 = N)."""
    eq, select = linear_fixture()
    ys, poles, cs = sweep_inputs(solve(eq, select, 40))
    ys = ys.copy()
    ys[k] = complex(np.nextafter(ys[k].real, np.inf), ys[k].imag)
    assert row_sweep_start(ys, poles, cs) == r0


def test_node_sums_divide_throughout_on_a_step_that_is_not_dyadic():
    """With h = 0.1 the stored lattice is no exact progression: every row divides."""
    eq = DifferenceEquation(LinearLattice(h=0.1).curve(), Polynomial((0, 0, 1.0)),
                            beta=0.0, gamma=2.0, delta=1.0, eps=0.0)
    ys, poles, cs = sweep_inputs(solve(eq, ByIndex(0, 1), 40))
    assert row_sweep_start(ys, poles, cs) == 40


def test_node_sums_keep_the_sign_of_a_zero_on_nodes_with_negative_zero_parts():
    """Nodes k - 0.0j (y_3 = 3 + 0.0j) and poles k + 1.5 (y'_1 = 1.5 + 0.0j, the rest -0.0j)
    step by 1 exactly in value, but a difference of two zero parts is -0.0 only where the node's
    is -0.0 and the other's +0.0: factors taken from row 0 would give S(y_5) the imaginary part
    -0.0 where one division per row gives +0.0.  A node with a -0.0 part ends the progression."""
    ys = np.array([complex(k, 0.0 if k == 3 else -0.0) for k in range(6)])
    poles = np.array([complex(k + 1.5, 0.0 if k == 0 else -0.0) for k in range(6)])
    cs = np.array([complex(c, -0.0) for c in (1, 0, 1, -1, -1)] + [0j])
    assert row_sweep_start(ys, poles, cs) == 5


@pytest.mark.parametrize("N, k", [(40, 20), (300, 150)])
def test_node_sums_on_a_progression_take_only_their_own_terms(N, k):
    """test_verify_node_sums_take_only_their_own_terms on the linear fixture, where every row
    takes its factors from one row: a NaN c_k reaches no node j < k, bit for bit with the row
    sweep."""
    eq, select = linear_fixture()
    ys, poles, cs = sweep_inputs(solve(eq, select, N))
    cs = np.array(cs)
    clean = _node_sums(ys, poles, cs)
    cs[k] = np.nan
    got = _node_sums(ys, poles, cs)
    assert np.isfinite(got[:k]).all() and np.isnan(got[k:]).all()
    assert_same_bits(got[:k], clean[:k])
    assert_same_bits(got, ref_row_sweep(ys, poles, cs))


def test_verify_memory_stays_small():
    eq, select = linear_fixture()
    sol = solve(eq, select, 1000)
    tracemalloc.start()
    try:
        rep = verify_interpolation(eq, sol, 1000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.max_error <= 1e-7
    assert peak < 2 * 2**20


def test_verify_skipped_nodes_meet_forward_error_bound():
    eq, select, c0_free, A, zeta, hints = log_linear_fixture()
    sol = solve(eq, select, 8, c0_free=c0_free, **hints)
    # Same lattices; a third root of a at x_2 makes the stepwise recurrence
    # singular at k = 2, so nodes 3..8 have no oracle value.
    a = Polynomial.from_roots([select.x_m1, select.x_p0, select.x_m1 + 3.0])
    singular = DifferenceEquation(eq.curve, a, 0.0, 0.0, 1.0, -select.x_m1)
    rep, _ = gated_report(singular, sol, 8)
    assert rep.skipped == (3, 4, 5, 6, 7, 8)
    assert len(rep.errors) == 3


def test_verify_pole_guard_covers_later_poles():
    eq, select = linear_fixture()
    sol = solve(eq, select, 8)
    y0 = sol.pair.unprimed.y(0)
    # Poles y'_k = y_{k-3}: node y_0 meets the later pole y'_3 (k > j).
    primed = LatticePair(LatticeSpec(eq.curve, y0 - 3.0, y0 - 3.0))
    moved = dataclasses.replace(sol, pair=BasisPair(sol.pair.unprimed, primed))
    with pytest.raises(PoleEvaluationError):
        evaluate_partial_sum(moved, 8, y0)
    with pytest.raises(PoleEvaluationError) as err:
        verify_interpolation(eq, moved, 8)
    assert err.value.at == y0


def _bare(sol):
    """sol without solve's _Reads: an equal solution whose verify reads the lattices afresh."""
    bare = dataclasses.replace(sol)
    assert bare == sol and sol._reads is not None and not hasattr(bare, "_reads")
    return bare


def _record_cases():
    """(name, eq, sol, N) at N = 40: the three general fixtures, genus1_equation(0..4) under three
    selectors (those that solve), both logarithmic fixtures, and verify below the solve's order."""
    cases = [(name, eq, solve(eq, select, 40), 40) for name, eq, select in general_fixtures()]
    for seed in range(5):
        eq = genus1_equation(seed)
        for select in (ByIndex(0, 1), ByIndex(1, 0), ByIndex(0, 2)):
            try:
                cases.append((f"g1-{seed} {select}", eq, solve(eq, select, 40), 40))
            except EllgridError:
                continue
    leq, lselect, c0_free, _, _, hints = log_linear_fixture()
    qeq, qselect, _, _, qhints = log_qlattice_fixture()
    for name, eq, sol in (("log-linear", leq, solve(leq, lselect, 40, c0_free=c0_free, **hints)),
                          ("log-qlattice", qeq, solve(qeq, qselect, 40, c0_free=0.3, **qhints))):
        cases += [(name, eq, sol, 40), (f"{name} below", eq, sol, 23)]
    cases.append(("linear below", cases[0][1], cases[0][2], 17))
    return cases


def test_verify_on_solves_reads_equals_verify_on_fresh_reads():
    """verify_interpolation takes its oracle terms, nodes and poles from the _Reads solve kept,
    and gives the report, error for error, that a fresh read gives."""
    cases = _record_cases()
    assert len(cases) >= 15 and sum(name.startswith("g1-") for name, *_ in cases) >= 10
    for name, eq, sol, N in cases:
        assert sol._reads.eq is eq and sol._reads.pair is sol.pair, name
        assert verify_interpolation(eq, sol, N) == verify_interpolation(eq, _bare(sol), N), name


def test_verify_reads_afresh_for_an_equal_but_distinct_equation():
    for name, eq, sol, N in _record_cases()[:3]:
        twin = DifferenceEquation(eq.curve, eq.a, eq.beta, eq.gamma, eq.delta, eq.eps)
        assert verify_interpolation(twin, sol, N) == verify_interpolation(eq, sol, N), name


def test_verify_past_a_singular_step_is_the_same_on_either_reads():
    """An equation whose oracle is singular at k = 2, on a log solution's lattices, is not the one
    solve read for: both verifies read afresh and skip nodes 3..8 alike."""
    eq, select, c0_free, A, zeta, hints = log_linear_fixture()
    sol = solve(eq, select, 8, c0_free=c0_free, **hints)
    a = Polynomial.from_roots([select.x_m1, select.x_p0, select.x_m1 + 3.0])
    singular = DifferenceEquation(eq.curve, a, 0.0, 0.0, 1.0, -select.x_m1)
    rep = verify_interpolation(singular, sol, 8)
    assert rep.skipped == (3, 4, 5, 6, 7, 8)
    assert rep == verify_interpolation(singular, _bare(sol), 8)


def test_verify_after_solve_runs_no_step_kernel(monkeypatch):
    """solve's kernel pass serves its verify: _step_kernel is not called again, but is where
    the reads are not solve's."""
    calls, kernel = [0], solver_module._step_kernel

    def counted(eq):
        calls[0] += 1
        return kernel(eq)
    monkeypatch.setattr(solver_module, "_step_kernel", counted)
    eq, select = linear_fixture()
    sol = solve(eq, select, 40)
    solved = calls[0]
    assert solved >= 1
    verify_interpolation(eq, sol, 40)
    verify_interpolation(eq, sol, 12)
    assert calls[0] == solved
    verify_interpolation(eq, _bare(sol), 40)
    assert calls[0] == solved + 1


def test_solves_reads_stay_out_of_the_solution_record():
    """The _Reads is no field: fields, repr, == and the JSON are those of the record."""
    eq, select = linear_fixture()
    sol = solve(eq, select, 10)
    assert [f.name for f in dataclasses.fields(sol)] == [
        "eq", "pair", "special", "mode", "coeffs", "c0_free", "zeta", "diagnostics"]
    bare = _bare(sol)
    assert repr(sol) == repr(bare)
    assert solution_to_json(sol) == solution_to_json(bare)
    assert all(isinstance(k, str) for k in sol.diagnostics)


def test_solve_and_verify_calls_grow_linearly(monkeypatch):
    """Counts, not timings: doubling N at most 2.5x the lattice and basis calls."""
    calls = [0]
    for cls, attr in ((LatticePair, "ensure"), (BasisFunction, "__call__")):
        def counted(*args, _original=getattr(cls, attr), **kwargs):
            calls[0] += 1
            return _original(*args, **kwargs)
        monkeypatch.setattr(cls, attr, counted)
    eq, select = linear_fixture()

    def count(N):
        calls[0] = 0
        verify_interpolation(eq, solve(eq, select, N), N)
        return calls[0]

    small, large = count(200), count(400)
    assert large <= 2.5 * small


def test_nonfinite_coefficients_are_typed_errors():
    eq, select = aw_fixture()
    with pytest.raises(NonFiniteCoefficientError) as err:
        solve(eq, select, 400)          # a(x'_n), c(x'_n) overflow near |x'_n| ~ 1e103
    assert err.value.index == 344
    with pytest.raises(EllgridError):
        solve(eq, select, 1000)         # the walk itself passes |x_n| ~ 1e154 near n = 514


def test_log_linear_solves_at_order_1000():
    """The ratio route stays finite where separate 2n-factor products overflowed (c_97)."""
    eq, select, c0_free, A, zeta, hints = log_linear_fixture()
    sol = solve(eq, select, 1000, c0_free=c0_free, **hints)
    assert all(np.isfinite(sol.coeffs))
    assert verify_interpolation(eq, sol, 1000).max_error <= 1e-7


def _solve_both_modes(N):
    """{mode: (equation, solution)} on the linear and log-linear fixtures at order N."""
    eq, select = linear_fixture()
    leq, lselect, c0_free, _, _, hints = log_linear_fixture()
    return {"general": (eq, solve(eq, select, N)),
            "log": (leq, solve(leq, lselect, N, c0_free=c0_free, **hints))}


def test_closed_product_gap_is_nan_aware(monkeypatch):
    """A NaN running product fails the gap check, in either mode."""
    import ellgrid.solver as solver_mod
    for route in ("_closed_products", "_log_products"):
        with monkeypatch.context() as patch:
            patch.setattr(solver_mod, route,
                          lambda eq, reads, c1, **kw: np.full(len(reads[0]) - 1, complex("nan")))
            with pytest.raises(InternalInconsistencyError, match="n=1 "):
                _solve_both_modes(10)


@pytest.mark.parametrize("N", [0, 1, 12, 300])
def test_every_solve_checks_the_running_product_at_every_n(monkeypatch, N):
    """One gap per n under one key in both modes; solve never calls the per-index oracle."""
    import ellgrid.solver as solver_mod

    def per_index_oracle(*args):
        raise AssertionError("solve calls closed_product_coefficient")

    monkeypatch.setattr(solver_mod, "closed_product_coefficient", per_index_oracle)
    sols = _solve_both_modes(N)
    monkeypatch.undo()
    for mode, key, bound in (("general", "closed_product_rel", 1e-7),
                             ("log", "log_vs_ratio_rel", 1e-8)):
        gaps = sols[mode][1].diagnostics["product_gaps"]
        assert len(gaps) == N + 1 and gaps[0] == 0.0
        assert sols[mode][1].diagnostics[key] == max(gaps) <= bound
    eq, sol = sols["general"]
    for n in range(1, min(N, 12) + 1):
        prod = closed_product_coefficient(eq, sol.pair, n, sol.coeffs[1])
        want = abs(prod - sol.coeffs[n]) / max(1.0, abs(sol.coeffs[n]), abs(prod))
        assert sol.diagnostics["product_gaps"][n] == pytest.approx(want)


@pytest.mark.parametrize("mode", ["general", "log"])
@pytest.mark.parametrize("n", [3, 11])
def test_lattice_value_at_y_m1_is_a_typed_error(mode, n):
    """y_{n-1} written equal to y_{-1}: Yb_n(y_{-1}) = 0, so C_n = eta_n = 0 exactly."""
    eq, sol = _solve_both_modes(12)[mode]
    sol.pair.unprimed._y[n - 1] = sol.pair.unprimed.y(-1)
    with pytest.raises(EllgridError, match=f"n={n} "):
        if mode == "general":
            expansion_coefficients(eq, sol.pair, 12)
        else:
            expansion_coefficients_log(eq, sol.pair, 12, sol.c0_free)


def test_nan_interpolation_error_is_the_max_error():
    """A NaN at any node makes max_error NaN, so `<= tol` fails."""
    eq, select = linear_fixture()
    sol = solve(eq, select, 8)
    cs = list(sol.coeffs)
    cs[5] = complex("nan")
    sol.coeffs = tuple(cs)
    rep = verify_interpolation(eq, sol, 8)
    assert max(rep.errors[:5]) <= 1e-9
    assert all(np.isnan(rep.errors[5:]))
    assert np.isnan(rep.max_error)


def test_interpolation_at_order_zero():
    eq, select = qgeom_fixture()
    sol = solve(eq, select, 0)
    rep = verify_interpolation(eq, sol, 0)
    assert rep.max_error == 0.0


@pytest.mark.parametrize("mode", ["general", "log"])
@pytest.mark.parametrize("call", ["solve", "diff_constant", "diff_constants",
                                  "partial_sum", "verify", "oracle"])
def test_negative_order_is_validation_error(mode, call):
    """A negative order is refused, never read from the end of a list."""
    if mode == "general":
        (eq, select), kw = linear_fixture(), {}
    else:
        eq, select, c0_free, _, _, hints = log_linear_fixture()
        kw = dict(c0_free=c0_free, **hints)
    sol = solve(eq, select, 5, **kw)
    calls = {
        "solve": [lambda: solve(eq, select, -3, **kw)],
        "diff_constant": [lambda m=m: diff_constant(sol.pair, -1, m)
                          for m in C_METHODS + ("all",)],
        "diff_constants": [lambda: diff_constants(sol.pair, -1)],
        "partial_sum": [lambda: evaluate_partial_sum(sol, -2, 0.3 + 0.2j)],
        "verify": [lambda: verify_interpolation(eq, sol, -1)],
        "oracle": [lambda: stepwise_oracle(eq, sol.pair, -1, f0=kw.get("c0_free"))],
    }
    for fn in calls[call]:
        with pytest.raises(ValidationError, match="^K must be >= 0, got -1$" if call == "oracle"
                           else None):
            fn()


def order_entry_points():
    """{name: (argument, call(order))} for every public entry that takes an order."""
    eq, select = linear_fixture()
    sol = solve(eq, select, 5)
    leq, lselect, c0_free, _, _, hints = log_linear_fixture()
    lpair = solve(leq, lselect, 5, c0_free=c0_free, **hints).pair
    return {
        "solve": ("N", lambda n: solve(eq, select, n)),
        "expansion_coefficients": ("N", lambda n: expansion_coefficients(eq, sol.pair, n)),
        "expansion_coefficients_log":
            ("N", lambda n: expansion_coefficients_log(leq, lpair, n, c0_free)),
        "stepwise_oracle": ("K", lambda n: stepwise_oracle(eq, sol.pair, n)),
        "evaluate_partial_sum": ("N", lambda n: evaluate_partial_sum(sol, n, 0.3 + 0.2j)),
        "verify_interpolation": ("N", lambda n: verify_interpolation(eq, sol, n)),
        "diff_constants": ("N", lambda n: diff_constants(sol.pair, n)),
    }


@pytest.mark.parametrize("entry", list(order_entry_points()))
def test_non_integer_order_is_validation_error(entry):
    """An order is what operator.index takes, bools aside: 3.5, 3.0, True and "3" are refused
    with the argument's name, and a numpy integer is an order."""
    arg, call = order_entry_points()[entry]
    for bad in (3.5, 3.0, True, "3"):
        with pytest.raises(ValidationError, match=f"^{arg} must be an integer, got {bad!r}$"):
            call(bad)
    call(np.int64(3))


@pytest.mark.parametrize("entry", ["expansion_coefficients", "expansion_coefficients_log",
                                   "evaluate_partial_sum", "verify_interpolation"])
def test_negative_order_names_its_bound(entry):
    arg, call = order_entry_points()[entry]
    with pytest.raises(ValidationError, match=f"^{arg} must be >= 0, got -1$"):
        call(-1)


@pytest.mark.parametrize("entry", ["evaluate_partial_sum", "verify_interpolation"])
def test_order_past_the_solution_names_its_coefficients(entry):
    """A solution's one order rule: past its order, the convergence entry points' message."""
    _, call = order_entry_points()[entry]
    with pytest.raises(ValidationError, match=r"^solution has only 5 coefficients$"):
        call(6)


# -- logarithmic mode ------------------------------------------------------------------------


def test_log_telescoping_oracle():
    eq, select, c0_free, A, zeta, hints = log_linear_fixture()
    sol = solve(eq, select, 10, c0_free=c0_free, **hints)
    assert sol.mode == "log"
    assert sol.zeta == pytest.approx(A - 1.0)
    # exact solution: f(y) = 1/(y - A) + const.
    offset = c0_free - 1.0 / (sol.pair.unprimed.y(0) - A)
    for j in range(11):
        got = evaluate_partial_sum(sol, 10, sol.pair.unprimed.y(j))
        want = 1.0 / (sol.pair.unprimed.y(j) - A) + offset
        assert abs(got - want) <= 1e-8 * (1.0 + abs(want))


def test_log_product_matches_ratio_route():
    """Log coefficients vs the per-index ratio recurrence run with c = 0."""
    eq, select, c0_free, A, zeta, hints = log_linear_fixture()
    sol = solve(eq, select, 8, c0_free=c0_free, **hints)
    ratio = ref_ratio_recurrence(eq, sol.pair, 0j, 8)
    for n in range(1, 9):
        assert abs(sol.coeffs[n] - ratio[n]) <= 1e-8 * max(1.0, abs(ratio[n]))


def test_log_free_constant_shifts_only_c0():
    eq, select, _, A, zeta, hints = log_linear_fixture()
    s1 = solve(eq, select, 5, c0_free=0.0, **hints)
    s2 = solve(eq, select, 5, c0_free=3.5 - 1j, **hints)
    assert s2.coeffs[0] == pytest.approx(3.5 - 1j)
    for a, b in zip(s1.coeffs[1:], s2.coeffs[1:]):
        assert a == pytest.approx(b)


def test_log_trivial_when_d_zero():
    eq0, select, c0_free, A, zeta, hints = log_linear_fixture()
    eq = DifferenceEquation(eq0.curve, eq0.a, 0.0, 0.0, 0.0, 0.0)
    sol = solve(eq, Explicit(select.x_m1, select.x_p0), 6, c0_free=2.0, **hints)
    assert sol.coeffs[0] == pytest.approx(2.0)
    assert all(c == 0 for c in sol.coeffs[1:])


def test_log_mode_validations():
    eq, select, c0_free, A, zeta, hints = log_linear_fixture()
    sol = solve(eq, select, 3, c0_free=c0_free, **hints)
    with pytest.raises(ValidationError):
        expansion_coefficients(eq, sol.pair, 3)          # log equations take the log route
    bad = DifferenceEquation(eq.curve, eq.a, 0.0, 0.0, eq.delta, eq.eps + 1.0)
    with pytest.raises((ValidationError, NoSpecialPointError)):
        solve(bad, select, 3, c0_free=0.0, **hints)      # d(x_{-1}) != 0
    quad = DifferenceEquation(eq.curve, Polynomial((0.0, -1.0, 1.0)), 0.0, 0.0, 1.0, 0.0)
    with pytest.raises((DegreeMismatchError, ValidationError, NoSpecialPointError)):
        solve(quad, Explicit(0.0, 1.0), 3, c0_free=0.0)
    with pytest.raises(ValidationError):
        solve(eq, select, 3, **hints)                     # missing c0_free


def test_general_mode_rejects_log_route():
    eq, select = linear_fixture()
    sol = solve(eq, select, 3)
    with pytest.raises(ValidationError):
        expansion_coefficients_log(eq, sol.pair, 3, 0.0)


# -- serialization ------------------------------------------------------------------------------


def test_solution_json_shape():
    eq, select = qgeom_fixture()
    sol = solve(eq, select, 5)
    payload = solution_to_json(sol)
    text = json.dumps(payload)
    back = json.loads(text)
    assert back["mode"] == "general"
    assert len(back["coefficients"]) == 6
    assert all(len(c) == 2 for c in back["coefficients"])
    assert back["special_points"]["residual_m1"] <= 1e-9
    assert back["lattice_ranges"]["unprimed"][0] <= -1


def test_log_solution_json_has_zeta():
    eq, select, c0_free, A, zeta, hints = log_linear_fixture()
    sol = solve(eq, select, 4, c0_free=c0_free, **hints)
    payload = solution_to_json(sol)
    assert payload["mode"] == "log"
    assert payload["zeta"] == pytest.approx([(A - 1.0).real, (A - 1.0).imag])
