"""The checks of `ellgrid verify` against the per-order references in oracles.py.

The four-way C_n check, the basis identity and the equation's residual each read
both lattices once for all their orders; the references in oracles.py call one
order at a time, each with its own reads.
Every value must have the same repr, and every error the same type and message, at
the same order; only a walk stop inside a check's range raises before any order.
"""
import cmath

import pytest

from ellgrid import (
    BasisPair,
    BiquadraticCurve,
    ByIndex,
    GeometricLattice,
    LatticePair,
    LatticeSpec,
    LinearLattice,
    diff_constant,
    divided_difference,
    identity_samples,
    solve,
)
from ellgrid import diffops
from ellgrid.diffops import C_METHODS, _agreements, _identities, diff_constants
from ellgrid.errors import (
    BranchPointEvaluationError,
    MethodDegenerateError,
    NoValidSamplesError,
    PoleEvaluationError,
    ValidationError,
    VerticalTangentError,
)

from fixtures import aw_fixture, general_fixtures, genus1_runs, linear_fixture, log_linear_fixture
from oracles import outcome, outcomes, ref_diff_constant, ref_identity, verify_suite_sweep

SELECTS = (ByIndex(0, 1), ByIndex(1, 2), ByIndex(2, 0))


def capture_runs():
    """The equation scenarios of scripts/capture_outputs.py's verify cases, at N = 40, and
    genus1_equation seeds 0-9 under two more selectors."""
    yield from ((name, eq, select, 40, {}) for name, eq, select in general_fixtures())
    eq, select, c0_free, _, _, hints = log_linear_fixture()
    yield "log-linear", eq, select, 40, dict(c0_free=c0_free, **hints)
    yield from genus1_runs(range(10), SELECTS, 40)


def test_verify_suite_matches_the_reference():
    cases, differ = verify_suite_sweep(capture_runs())
    assert cases == 34 * 9 and not differ, differ


def test_verify_suite_matches_the_reference_on_sixty_genus1_equations():
    """genus1_equation seeds 0-59 under ByIndex (0, 1), (1, 2) and (2, 0), solved at N = 40: the
    four-way C_n check, the basis identity and the residual of `ellgrid verify`, and each C_n
    route alone, give the same repr, or the same error type and message at the same order, as
    the per-order references."""
    cases, differ = verify_suite_sweep(genus1_runs(range(60), SELECTS, 40))
    assert cases == 1620 and not differ, differ


def pole_pair(fixture):
    """The fixture's unprimed lattice at N = 10 and a primed one seeded at (x_{-1}, y_0), so
    that y'_1 = y_{-1}: the x_{-1} route of C_1 meets its pole."""
    eq, select = fixture()
    unprimed = solve(eq, select, 10).pair.unprimed
    return BasisPair(unprimed, LatticePair(LatticeSpec(eq.curve, unprimed.x(-1), unprimed.y(0))))


@pytest.mark.parametrize("fixture, value", [(aw_fixture, -1.88561808316413),
                                            (linear_fixture, 1.0)])
def test_a_route_at_a_pole_is_degenerate_in_all(fixture, value):
    pair = pole_pair(fixture)
    with pytest.raises(PoleEvaluationError):
        diff_constant(pair, 1, "xm1")
    vals, spread = diff_constant(pair, 1, "all")
    assert sorted(vals) == ["resp0", "respn", "xn1"] and spread <= 1e-14
    assert all(abs(v - value) <= 1e-13 for v in vals.values()), vals


def test_a_route_at_a_vertical_tangent_is_degenerate_in_all():
    """The primed lattice seeded at a branch point of the Askey-Wilson curve: y'_0 = y'_1, and
    the x'_0 residue route needs dy/dx where dF/dy vanishes."""
    eq, select = aw_fixture()
    unprimed = solve(eq, select, 10).pair.unprimed
    r = min(eq.curve.discriminant_P().roots(), key=lambda v: (v.real, v.imag))
    pair = BasisPair(unprimed, LatticePair(LatticeSpec(eq.curve, r, eq.curve.y_roots(r).lo)))
    assert pair.primed.y(0) == pair.primed.y(1)
    with pytest.raises(VerticalTangentError):
        diff_constant(pair, 1, "resp0")
    vals, spread = diff_constant(pair, 1, "all")
    assert sorted(vals) == ["respn", "xm1", "xn1"] and spread <= 1e-14
    assert all(abs(v - 4.71404520791032) <= 1e-13 for v in vals.values()), vals


def linear_pair(primed_seed):
    """Linear-curve basis pair with y_n = n and y'_n = n + primed_seed."""
    curve = LinearLattice(h=1.0).curve()
    return BasisPair(LatticePair(LatticeSpec(curve, 0.0, 0.0)),
                     LatticePair(LatticeSpec(curve, primed_seed, primed_seed)))


def test_a_point_off_the_curve_still_raises_in_all(monkeypatch):
    pair = linear_pair(0.5)
    pair.unprimed.ensure(-1, 10)
    pair.primed.ensure(0, 10)
    monkeypatch.setattr(BiquadraticCurve, "contains", lambda self, x, y, tol=None: False)
    for method in ("resp0", "respn", "all"):
        with pytest.raises(ValidationError, match="is not on the curve"):
            diff_constant(pair, 3, method)


def test_a_pole_at_factor_k_fails_a_route_from_order_k_on():
    """y'_4 = y_{-1} = -1: the x_{-1} route meets its pole from n = 4 on, and C_n by it, which
    the identity takes, raises there; orders 1-3 keep all four routes and their errors."""
    pair = linear_pair(-5.0)
    got = list(_agreements(pair, range(1, 8)))
    assert ["xm1" in vals for vals, _ in got] == [True] * 3 + [False] * 4
    assert sorted(got[2][0]) == sorted(C_METHODS)
    assert outcomes(got) == outcomes(ref_diff_constant(pair, n, "all") for n in range(1, 8))
    samples = identity_samples(pair, 3, count=12, seed=11)
    got = outcomes(_identities(pair, range(1, 6), samples))
    assert len(got) == 4 and got[3].startswith("raise PoleEvaluationError"), got
    assert got == outcomes(ref_identity(pair, n, samples) for n in range(1, 6))


def test_a_residue_route_whose_poles_collide_is_degenerate_from_that_order_on():
    """On the geometric lattice with q = e^{2 pi i / 5}, seeded at 2 and at 3, y'_6 = y'_1: from
    n = 6 on, the residue at x'_0 or x'_n meets one of its own poles ("poles collide"), and
    orders 1-5 keep all four routes."""
    curve = GeometricLattice(a=0.0, b=1.0, q=cmath.exp(2j * cmath.pi / 5)).curve()
    pair = BasisPair(*(LatticePair(LatticeSpec(curve, v, v)) for v in (2.0, 3.0)))
    got = list(_agreements(pair, range(1, 9)))
    assert [sorted(vals) for vals, _ in got] == [sorted(C_METHODS)] * 5 + [["xm1", "xn1"]] * 3
    for n in range(6, 9):
        for method in ("resp0", "respn"):
            with pytest.raises(MethodDegenerateError, match=rf"^C_{n}\({method}\): poles collide"):
                diff_constant(pair, n, method)
    assert outcomes(got) == outcomes(ref_diff_constant(pair, n, "all") for n in range(1, 9))


def test_a_guard_that_trips_at_one_order_leaves_the_others_alone(monkeypatch):
    """The x_{-1} route's denominator guard trips at n = 6 alone: diff_constants(pair, 6) stops,
    and the checks keep orders 1-5."""
    eq, select = linear_fixture()
    pair = solve(eq, select, 10).pair
    guard, label, seen = diffops._guard, "C_n(xm1) denominator", []
    monkeypatch.setattr(diffops, "_guard",
                        lambda name, v, n: seen.append((name, v)) or guard(name, v, n))
    diff_constants(pair, 6)
    trip = [v for name, v in seen if name == label][-1]
    monkeypatch.setattr(diffops, "_guard",
                        lambda name, v, n: guard(name, 0.0 if (name, v) == (label, trip) else v, n))
    with pytest.raises(MethodDegenerateError, match=r"^C_n\(xm1\) denominator ~ 0"):
        diff_constants(pair, 6)
    got = list(_agreements(pair, range(1, 7)))
    assert ["xm1" in vals for vals, _ in got] == [True] * 5 + [False]
    assert outcomes(got) == outcomes(ref_diff_constant(pair, n, "all") for n in range(1, 7))
    samples = identity_samples(pair, 3, count=12, seed=11)
    got = outcomes(_identities(pair, range(1, 7), samples))
    assert len(got) == 6 and got[5].startswith("raise MethodDegenerateError: C_n(xm1)"), got
    assert got == outcomes(ref_identity(pair, n, samples) for n in range(1, 7))


def test_the_first_order_that_fails_the_xm1_route_names_its_error(monkeypatch):
    """y'_4 = y_{-1} puts a pole in the x_{-1} route from n = 4 on; with its denominator guard
    tripped at n = 2 too, diff_constants and the checks raise the guard from n = 2 on."""
    pair = linear_pair(-5.0)
    guard, label, seen = diffops._guard, "C_n(xm1) denominator", []
    monkeypatch.setattr(diffops, "_guard",
                        lambda name, v, n: seen.append((name, v)) or guard(name, v, n))
    diff_constants(pair, 3)
    trips = [v for name, v in seen if name == label]
    assert len(trips) == len(set(trips)) == 3
    monkeypatch.setattr(diffops, "_guard", lambda name, v, n: guard(
        name, 0.0 if (name, v) == (label, trips[1]) else v, n))
    for n in range(2, 8):
        with pytest.raises(MethodDegenerateError, match=r"^C_n\(xm1\) denominator ~ 0"):
            diff_constants(pair, n)
    got = list(_agreements(pair, range(1, 8)))
    assert ["xm1" in vals for vals, _ in got] == [True] + [False] * 6
    assert outcomes(got) == outcomes(ref_diff_constant(pair, n, "all") for n in range(1, 8))


def test_a_sample_at_a_branch_point_is_skipped_at_every_order():
    eq, select = aw_fixture()
    pair = solve(eq, select, 10).pair
    samples = identity_samples(pair, 3, count=12, seed=11)
    branch = [complex(r) for r in eq.curve.discriminant_P().roots()]
    for z in branch:
        with pytest.raises(BranchPointEvaluationError):
            divided_difference(eq.curve, lambda t: t, z)
    got = list(_identities(pair, (1, 2, 3), branch[:1] + samples + branch[1:]))
    assert got == list(_identities(pair, (1, 2, 3), samples))
    assert outcomes(got) == outcomes(ref_identity(pair, n, branch[:1] + samples + branch[1:])
                                     for n in (1, 2, 3))
    with pytest.raises(NoValidSamplesError):
        next(_identities(pair, (1, 2, 3), branch))


@pytest.mark.parametrize("seeds", [(1.0, 3.0), (3.0, 1.0), (1.0, 1.0)])
def test_a_walk_stop_is_raised_by_the_first_order_that_needs_it(seeds):
    """Geometric lattices (q = 1/2) stagnate near n = 46 or 47: each order alone raises what the
    reference raises, and a check over orders 40-51, which reads their whole range at once,
    raises the stop before it yields any order."""
    curve = GeometricLattice(a=0.0, b=1.0, q=0.5).curve()

    def fresh():
        return BasisPair(*(LatticePair(LatticeSpec(curve, v, v)) for v in seeds))

    ref = outcomes(ref_diff_constant(pair, n, "all") for pair in [fresh()] for n in range(40, 52))
    assert ref[-1].startswith("raise LatticeStagnationError") and len(ref) > 4
    samples = identity_samples(fresh(), 3, count=12, seed=11)
    for got in (outcomes(_agreements(fresh(), range(40, 52))),
                outcomes(_identities(fresh(), range(40, 52), samples))):
        assert len(got) == 1 and got[0].startswith("raise LatticeStagnationError"), got
    for n in range(44, 49):
        for method in C_METHODS + ("all",):
            assert outcome(lambda: diff_constant(fresh(), n, method)) == \
                outcome(lambda: ref_diff_constant(fresh(), n, method)), (n, method)
