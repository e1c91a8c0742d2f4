"""The lattice walk against `ref_walk`, the walk written from its formulas.

Wherever the walk goes by flips, every x_n and y_n must match the reference bit for bit
(compared by `repr`, so signed zeros count), in both directions, and a walk that stops must
stop with the reference's error type, index and message.  A genus-0 walk (deg P 0 or 2) goes
on in closed form past its first HEAD steps: there each x_n and y_n must lie within WALK_GATE
times the stepwise walk's forward error of `ref_walk_replay`, the exact walk from the same
float seed, and a stop must have the reference's type and index.
"""
import numpy as np
import pytest

import oracles

from ellgrid import (
    AskeyWilsonLattice,
    BiquadraticCurve,
    GeometricLattice,
    LatticePair,
    LatticeSpec,
    LinearLattice,
    solve,
)
from ellgrid.curve import walk_flips
from ellgrid.errors import (
    LatticeSingularityError,
    LatticeStagnationError,
    LeadingCoefficientVanishesError,
    ValidationError,
)
from ellgrid.lattice import HEAD, _tail_form

from fixtures import (GOLDEN, general_fixtures, genus1_equation, log_linear_fixture,
                      log_qlattice_fixture, qgeom_fixture, random_real_curves, trimmed_curve)
from oracles import (assert_chunked_walk, assert_walk_matches, gate_walk, outcome, ref_F,
                     ref_flip, ref_walk)


def fixture_seeds():
    """(name, curve, x0, y0) of both lattices of each of the five fixtures' solutions."""
    sols = [(name, solve(eq, select, 10)) for name, eq, select in general_fixtures()]
    eq, select, c0_free, _, _, hints = log_linear_fixture()
    sols.append(("log-linear", solve(eq, select, 10, c0_free=c0_free, **hints)))
    eq, select, _, _, hints = log_qlattice_fixture()
    sols.append(("log-q", solve(eq, select, 10, c0_free=0.0, **hints)))
    return [(f"{name}-{side}", sol.eq.curve, lat.spec.x0, lat.spec.y0)
            for name, sol in sols
            for side, lat in (("unprimed", sol.pair.unprimed), ("primed", sol.pair.primed))]


FIXTURE_SEEDS = fixture_seeds()


@pytest.mark.parametrize("curve, x0, y0", [seed[1:] for seed in FIXTURE_SEEDS],
                         ids=[seed[0] for seed in FIXTURE_SEEDS])
def test_fixture_walks_match_the_reference(curve, x0, y0):
    assert_walk_matches(curve, x0, y0, -300, 300)


def test_golden_ellipse_walk_matches_the_reference():
    # |q| = 1 Askey-Wilson lattice (b = 1, c = 0.7, golden angle): nodes on x = s + 0.7/s
    spec = AskeyWilsonLattice(a=0.0, b=1.0, c=0.7, q=np.exp(2j * np.pi * GOLDEN)).spec()
    stop, worst = assert_walk_matches(spec.curve, spec.x0, spec.y0, -1000, 1000)
    assert stop is None and worst > 0.0


def test_walk_check_walks_the_stepwise_walk_once(monkeypatch):
    """The gate past the head reads the stepwise walk the check already holds."""
    spec = AskeyWilsonLattice(a=0.0, b=1.0, c=0.7, q=np.exp(2j * np.pi * GOLDEN)).spec()
    ranges, walk = [], oracles.ref_walk
    monkeypatch.setattr(oracles, "ref_walk", lambda *a: ranges.append(a[3:]) or walk(*a))
    assert assert_walk_matches(spec.curve, spec.x0, spec.y0, -300, 300)[1] > 0.0
    assert ranges == [(-300, 300)]


@pytest.mark.parametrize("seed", range(20))
def test_genus1_walks_match_the_reference(seed):
    # one start off the real axis, one on it (real walks carry signed zeros)
    curve = genus1_equation(seed).curve
    for x0 in (0.25 + 0.5j, 0.5):
        spec = LatticeSpec(curve, x0, y1_index=0)
        assert_walk_matches(curve, spec.x0, spec.y0, -200, 200)


def test_qgeom_stagnation_matches_the_reference():
    eq, select = qgeom_fixture()
    spec = solve(eq, select, 10).pair.unprimed.spec
    stop, _ = assert_walk_matches(spec.curve, spec.x0, spec.y0, 0, 100)
    assert isinstance(stop, LatticeStagnationError) and stop.index == 47


def test_non_finite_step_matches_the_reference():
    # x_n = 2^-n + 0.3 2^n leaves the float range at n = 1026
    spec = AskeyWilsonLattice(a=0.0, b=1.0, c=0.3, q=0.5).spec()
    stop, worst = assert_walk_matches(spec.curve, spec.x0, spec.y0, 0, 1100)
    assert isinstance(stop, LatticeSingularityError) and stop.index == 1026
    assert "is not finite" in str(stop) and 0.0 < worst


def test_non_finite_step_backward_matches_the_reference():
    # backward, X1(x_n) = -2.12 x_n overflows at x_-1023 = 2^1023, and with it y_-1023
    spec = AskeyWilsonLattice(a=0.0, b=1.0, c=0.3, q=0.5).spec()
    stop, worst = assert_walk_matches(spec.curve, spec.x0, spec.y0, -1100, 0)
    assert isinstance(stop, LatticeSingularityError) and stop.index == -1023
    assert "is not finite" in str(stop) and 0.0 < worst


def test_stagnation_past_the_head_matches_the_reference():
    # x_n = 0.75^n: the steps fall below 1e-13 from n = 101, and the third such step stops
    spec = GeometricLattice(a=0.0, b=1.0, q=0.75).spec()
    stop, worst = assert_walk_matches(spec.curve, spec.x0, spec.y0, 0, 300)
    assert isinstance(stop, LatticeStagnationError) and stop.index == 103 and 0.0 < worst


def test_vanishing_lead_past_the_head_matches_the_reference():
    # the golden ellipse's curve with y -> 1/y and x_100 on a zero of X0, which the inverted
    # curve's leads take over: the walk stops at step 100 in closed form as by flips
    q = np.exp(2j * np.pi * GOLDEN)
    beta = np.roots([1.0, q + 1.0 / q, 1.0])[0]          # (beta + 1)^2 = -beta (q + 1/q - 2)
    aw = AskeyWilsonLattice(a=0.0, b=beta * q ** -100, c=q ** 100, q=q)
    curve = BiquadraticCurve([row[::-1] for row in aw.curve().c])
    x0, y0 = aw.point(0)
    stop, worst = assert_walk_matches(curve, x0, 1.0 / y0, -200, 200)
    assert isinstance(stop, LatticeSingularityError) and stop.index == 100
    assert isinstance(stop.__cause__, LeadingCoefficientVanishesError) and 0.0 < worst


def test_geometric_walk_that_turns_back_matches_the_reference():
    # in floats the two lines of (y - x)(y - 0.9 x - 0.025) do not quite meet, so the walk
    # that closes in on x = 0.25 turns back near n = 300 along the other branch, exactly
    # and in closed form alike (D = p1^2 - 4 p2 p0 is tiny but not 0)
    spec = GeometricLattice(a=0.25, b=1.0, q=0.9).spec()
    stop, worst = assert_walk_matches(spec.curve, spec.x0, spec.y0, -400, 400)
    assert stop is None and abs(LatticePair(spec).x(400)) > 100


def test_curve_without_a_rate_walks_by_flips():
    # a deg P = 2 curve whose rate walk stopped keeps to the flips past the head, bit for bit
    spec = AskeyWilsonLattice(a=0.1, b=1.0, c=0.5, q=0.5).spec()
    curve = BiquadraticCurve(spec.curve.c)
    object.__setattr__(curve, "_rate", None)
    lat = LatticePair(LatticeSpec(curve, spec.x0, spec.y0))
    lat.ensure(-200, 200)
    assert lat._tails == {1: None, -1: None}
    ref_xs, ref_ys = ref_walk(curve, spec.x0, spec.y0, -200, 200)
    assert [repr(v) for v in zip(*lat.values(-200, 201))] == \
        [repr((ref_xs[n], ref_ys[n])) for n in range(-200, 201)]


TAIL_SPECS = {
    "linear": LinearLattice(h=0.1 + 0.05j, x0=0.3 - 0.2j, y0=0.5).spec(),
    "askey-wilson": AskeyWilsonLattice(a=0.1, b=1.0, c=0.5, q=0.5).spec(),
    "ellipse": AskeyWilsonLattice(a=0.0, b=1.0, c=0.7, q=np.exp(2j * np.pi * GOLDEN)).spec(),
    "geometric": GeometricLattice(a=0.25 + 0.1j, b=1.0, q=0.85j).spec(),
}


@pytest.mark.parametrize("spec", TAIL_SPECS.values(), ids=TAIL_SPECS.keys())
def test_chunked_walk_across_the_seam_equals_one_walk(spec):
    # the closed form is a function of n alone: chunks that end on, before and after the last
    # step by flips, one index at a time and far past it give the one-shot walk, bit for bit
    for sizes in ((HEAD - 1, 1, 1, 1, 3, 40, 200), (HEAD + 1, 1, 997), (5, 200)):
        assert_chunked_walk(spec, -200, 200, sizes * 2)


TEETH_SPECS = {
    "ellipse": TAIL_SPECS["ellipse"],
    "circle": GeometricLattice(a=0.0, b=1.0, q=np.exp(2j * np.pi * GOLDEN)).spec(),
    "linear": LinearLattice(h=1.0).spec(),
}


@pytest.mark.parametrize("spec", TEETH_SPECS.values(), ids=TEETH_SPECS.keys())
def test_walk_gate_has_teeth(spec):
    # where the stepwise walk keeps its digits, the tail with the rate of log A (deg P = 2)
    # moved by 3 ulp, or the step h (deg P = 0) by one, fails the gate in each direction
    lat = LatticePair(spec)
    lat.ensure(-HEAD, HEAD)
    assert max(gate_walk(_walked(lat, None), -300, 300).values()) <= 1.0
    for direction in (1, -1):
        form = _tail_form(spec.curve, *lat._head(direction))
        if spec.curve.discriminant_P().degree() == 0:
            dh = np.spacing(1.0)
            moved = lambda k, f=form: (f(k)[0] + k * dh, f(k)[1])          # noqa: E731
        else:
            curve = BiquadraticCurve(spec.curve.c)
            hi, lo = spec.curve._rate
            step = 3.0 * complex(np.spacing(abs(hi.real)), np.spacing(abs(hi.imag)))
            object.__setattr__(curve, "_rate", (hi, lo + step))
            moved = _tail_form(curve, *lat._head(direction))
        assert max(gate_walk(_walked(lat, {direction: moved}), -300, 300).values()) > 1.0


def _walked(lat, tails):
    """A copy of lat's head walked over [-300, 300], with the tails given (or its own)."""
    copy = LatticePair(lat.spec)
    copy.ensure(-HEAD, HEAD)
    if tails:
        copy._tails.update(tails)
    copy.ensure(-300, 300)
    return copy


@pytest.mark.parametrize("grid, x0, y0, message", [
    ([[0, 1, 0], [0, 0, 1], [1, 0, 0]], 0.0, 0.0, "leading coefficient vanishes at 0j"),
    ([[1, 0, 1], [0, 1, 0], [1, 0, 1]], 1e155, 1j, "is not finite"),
], ids=["vanishing", "non-finite"])
def test_vanishing_lead_matches_the_reference(grid, x0, y0, message):
    curve = BiquadraticCurve(grid)
    stop, _ = assert_walk_matches(curve, x0, y0, 0, 3)
    assert isinstance(stop, LatticeSingularityError) and stop.index == 1
    assert isinstance(stop.__cause__, LeadingCoefficientVanishesError)
    assert message in str(stop)


def flip_points(curve, over_x, rng):
    """(t, s) for the flip of one view: each root over random complex and real t, a point
    off the curve over each t, each branch point t of the view with its double root s
    (where the Newton derivative vanishes), and each zero t of V2."""
    v0, v1, v2 = curve.x_view() if over_x else curve.y_view()
    roots = curve.y_roots if over_x else curve.x_roots
    ts = [complex(*rng.normal(size=2)) for _ in range(15)] + list(rng.normal(size=5))
    points = [(t, s) for t in ts for s in roots(t).as_tuple() + (complex(*rng.normal(size=2)),)]
    disc = v1 * v1 - 4.0 * v0 * v2
    if disc.degree() >= 1:
        points += [(t, -v1(t) / (2.0 * v2(t))) for t in disc.roots() if v2(t) != 0]
    if v2.degree() >= 1:
        points += [(t, 0.5 - 0.25j) for t in v2.roots()]
    return points


# x^2 + y^2 = 5: over t = 3 the complement of -2 is 2, whose Newton step lands exactly on
# s = 0, where V1 + 2 V2 s = 0, so the second trial exits on d == 0 (in either view)
CIRCLE = BiquadraticCurve([[-5, 0, 1], [0, 0, 0], [1, 0, 0]])
# grids whose zeros give a view a (deg V1, deg V2) that no curve above has, as (x-view; y-view):
# (1,1; 2,0), (2,0; 1,1), (0,2; 0,2), (1,2; 2,2), (0,1; 2,0), (2,0; 0,1); with them the flips
# of each view meet all nine
DEGREE_CURVES = [BiquadraticCurve([[1.0, -0.5, 0.75], row1, row2]) for row1, row2 in [
    ([-1.25, 0.5, 1.5], [0.25, 0.0, 0.0]), ([-1.25, 0.5, 0.0], [0.25, -1.0, 0.0]),
    ([-1.25, 0.0, 0.0], [0.25, 0.0, 2.0]), ([-1.25, 0.5, 1.5], [0.25, 0.0, 2.0]),
    ([-1.25, 0.0, 1.5], [0.25, 0.0, 0.0]), ([-1.25, 0.0, 0.0], [0.25, -1.0, 0.0])]]
FLIP_CURVES = list({repr(curve): curve for _, curve, _, _ in FIXTURE_SEEDS}.values()) \
    + random_real_curves() + [genus1_equation(s).curve for s in range(10)] \
    + [trimmed_curve(1), trimmed_curve(2), CIRCLE] + DEGREE_CURVES
FLIP_EXITS = {"lead", "d == 0 at trial 1", "rejected at trial 1", "d == 0 at trial 2",
              "rejected at trial 2", "both trials kept"}


@pytest.mark.parametrize("over_x", [True, False], ids=["y-over-x", "x-over-y"])
def test_flip_is_the_reference_flip(over_x):
    # each flip must round as ref_flip does, and every exit of the body is reached
    rng = np.random.default_rng(11)
    exits, degrees = set(), set()
    for curve in FLIP_CURVES:
        flip = walk_flips(curve)[0 if over_x else 1]
        _, v1, v2 = curve.x_view() if over_x else curve.y_view()
        degrees.add((v1.degree(), v2.degree()))
        points = flip_points(curve, over_x, rng) + [(3.0, -2.0)] * (curve is CIRCLE)
        for t, s in points:
            want = outcome(lambda: ref_flip(curve, t, s, over_x, exits))
            assert outcome(lambda: flip(t, s)) == want, (curve, t, s)
    assert exits == FLIP_EXITS
    assert degrees == {(d1, d2) for d1 in range(3) for d2 in range(3)}   # every unrolled branch


@pytest.mark.parametrize("curve", DEGREE_CURVES, ids=[f"degrees{k}" for k in range(6)])
def test_walks_over_every_degree_of_the_views_match_the_reference(curve):
    spec = LatticeSpec(curve, 0.5 + 0.25j, y1_index=0)
    assert_walk_matches(curve, spec.x0, spec.y0, -200, 200)


@pytest.mark.parametrize("i", [1, 2], ids=["c12", "c22"])
def test_trimmed_coefficient_walk_matches_the_reference(i):
    # F's residual reads the grid's rows, not the trimmed views: they differ in the last bits
    spec = LatticeSpec(trimmed_curve(i), 0.5, y1_index=0)
    assert assert_walk_matches(spec.curve, spec.x0, spec.y0, -2000, 2000) == (None, 0.0)


def test_lattices_on_one_curve_share_one_pair_of_flips():
    curve = genus1_equation(1).curve
    assert not hasattr(curve, "_flips")            # nothing is built with the curve
    a = LatticePair(LatticeSpec(curve, 0.5, y1_index=0))
    b = LatticePair(LatticeSpec(curve, 0.25 + 0.5j, y1_index=1))
    flip_y, flip_x = walk_flips(curve)
    assert a._flip_y is b._flip_y is flip_y and a._flip_x is b._flip_x is flip_x


def test_curve_value_is_the_nested_loop_bit_for_bit():
    rng = np.random.default_rng(7)
    curves = [curve for _, curve, _, _ in FIXTURE_SEEDS[::2]]
    curves += random_real_curves() + [genus1_equation(s).curve for s in range(5)]
    # signed-zero and unit grids: where starting each level at its top coefficient sets a sign
    units = [complex(a, b) for a in (0.0, -0.0) for b in (0.0, -0.0)] + [1.0, -1.0]
    for _ in range(40):
        try:
            curves.append(BiquadraticCurve(rng.choice(units, (3, 3))))
        except ValidationError:
            pass
    reals = [0.0, -0.0, 1.0, -1.5, 2, 1e200, float("inf"), float("nan")]
    points = [(complex(*rng.normal(size=2)), complex(*rng.normal(size=2))) for _ in range(50)]
    points += [(a, b) for a in reals for b in reals]
    points += [(complex(a, 0.0), complex(b, -0.0)) for a in reals for b in reals]
    zs = [complex(a, b) for a in (0.0, -0.0, 1.0, -1.0) for b in (0.0, -0.0, 1.0, -1.0)]
    points += [(x, y) for x in zs for y in zs]
    for curve in curves:
        got = [repr(curve(x, y)) for x, y in points]
        assert got == [repr(ref_F(curve, x, y)) for x, y in points]
