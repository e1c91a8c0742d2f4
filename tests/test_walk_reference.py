"""The lattice walk against `ref_walk`, the walk written from its formulas.

Every x_n and y_n must match the reference bit for bit (compared by `repr`, so
signed zeros count), in both directions, and a walk that stops must stop with
the reference's error type, index and message.
"""
import numpy as np
import pytest

from ellgrid import AskeyWilsonLattice, BiquadraticCurve, LatticePair, LatticeSpec, solve
from ellgrid.curve import walk_flips
from ellgrid.errors import (
    EllgridError,
    LatticeSingularityError,
    LatticeStagnationError,
    LeadingCoefficientVanishesError,
    ValidationError,
)

from conftest import (
    GOLDEN,
    general_fixtures,
    genus1_equation,
    log_linear_fixture,
    log_qlattice_fixture,
    qgeom_fixture,
    random_real_curves,
    ref_F,
    ref_flip,
    ref_walk,
)

STOPS = (LatticeSingularityError, LatticeStagnationError)


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


def assert_walk_matches(curve, x0, y0, lo, hi):
    """Walk [lo, hi] with LatticePair and ref_walk: the same values over what the lattice
    materialized, and the same error if the reference stops.  Returns that error or None."""
    lat = LatticePair(LatticeSpec(curve, x0, y0))
    try:
        ref_walk(curve, x0, y0, lo, hi)
    except STOPS as exc:
        stop = exc
        with pytest.raises(type(exc)) as info:
            lat.ensure(lo, hi)
        assert (info.value.index, str(info.value)) == (exc.index, str(exc))
    else:
        stop = None
        lat.ensure(lo, hi)
    lo, hi = lat.known_range
    ref_xs, ref_ys = ref_walk(curve, x0, y0, lo, hi)
    xs, ys = lat.values(lo, hi + 1)
    ns = range(lo, hi + 1)
    assert list(map(repr, xs)) == [repr(ref_xs[n]) for n in ns]
    assert list(map(repr, ys)) == [repr(ref_ys[n]) for n in ns]
    return stop


FIXTURE_SEEDS = fixture_seeds()


@pytest.mark.parametrize("curve, x0, y0", [seed[1:] for seed in FIXTURE_SEEDS],
                         ids=[seed[0] for seed in FIXTURE_SEEDS])
def test_fixture_walks_match_the_reference(curve, x0, y0):
    assert_walk_matches(curve, x0, y0, -300, 300)


def test_golden_ellipse_walk_matches_the_reference():
    # |q| = 1 Askey-Wilson lattice (b = 1, c = 0.7, golden angle): nodes on x = s + 0.7/s
    spec = AskeyWilsonLattice(a=0.0, b=1.0, c=0.7, q=np.exp(2j * np.pi * GOLDEN)).spec()
    assert assert_walk_matches(spec.curve, spec.x0, spec.y0, -1000, 1000) is None


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
    stop = assert_walk_matches(spec.curve, spec.x0, spec.y0, 0, 100)
    assert isinstance(stop, LatticeStagnationError) and stop.index == 47


def test_non_finite_step_matches_the_reference():
    # x_n = 2^-n + 0.3 2^n leaves the float range at n = 1026
    spec = AskeyWilsonLattice(a=0.0, b=1.0, c=0.3, q=0.5).spec()
    stop = assert_walk_matches(spec.curve, spec.x0, spec.y0, 0, 1100)
    assert isinstance(stop, LatticeSingularityError) and stop.index == 1026
    assert "is not finite" in str(stop)


@pytest.mark.parametrize("grid, x0, y0, message", [
    ([[0, 1, 0], [0, 0, 1], [1, 0, 0]], 0.0, 0.0, "leading coefficient vanishes at 0j"),
    ([[1, 0, 1], [0, 1, 0], [1, 0, 1]], 1e155, 1j, "is not finite"),
], ids=["vanishing", "non-finite"])
def test_vanishing_lead_matches_the_reference(grid, x0, y0, message):
    curve = BiquadraticCurve(grid)
    stop = assert_walk_matches(curve, x0, y0, 0, 3)
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


def flip_outcome(fn):
    """repr(fn()), or the type and message of its error."""
    try:
        return repr(fn())
    except EllgridError as exc:
        return type(exc).__name__, str(exc)


def trimmed_curve(i):
    """genus1_equation(1)'s curve with c[i][2] set to 3e-15 max|c|, below the 1e-13 trim: its
    y-view's V_i has degree 1 while F's row i still reads c[i][2] (and for i = 2 the x-view's
    V2 drops its x^2 term too)."""
    grid = [list(row) for row in genus1_equation(1).curve.c]
    grid[i][2] = 3e-15 * max(abs(v) for row in grid for v in row)
    curve = BiquadraticCurve(grid)
    assert curve.y_view()[i].degree() == 1
    return curve


# x^2 + y^2 = 5: over t = 3 the complement of -2 is 2, whose Newton step lands exactly on
# s = 0, where V1 + 2 V2 s = 0, so the second trial exits on d == 0 (in either view)
CIRCLE = BiquadraticCurve([[-5, 0, 1], [0, 0, 0], [1, 0, 0]])
FLIP_CURVES = list({repr(curve): curve for _, curve, _, _ in FIXTURE_SEEDS}.values()) \
    + random_real_curves() + [genus1_equation(s).curve for s in range(10)] \
    + [trimmed_curve(1), trimmed_curve(2), CIRCLE]
FLIP_EXITS = {"lead", "d == 0 at trial 1", "rejected at trial 1", "d == 0 at trial 2",
              "rejected at trial 2", "both trials kept"}


@pytest.mark.parametrize("over_x", [True, False], ids=["y-over-x", "x-over-y"])
def test_flip_is_the_reference_flip(over_x):
    # each flip must round as ref_flip does, and every exit of the body is reached
    rng = np.random.default_rng(11)
    exits = set()
    for curve in FLIP_CURVES:
        flip = walk_flips(curve)[0 if over_x else 1]
        points = flip_points(curve, over_x, rng) + [(3.0, -2.0)] * (curve is CIRCLE)
        for t, s in points:
            want = flip_outcome(lambda: ref_flip(curve, t, s, over_x, exits))
            assert flip_outcome(lambda: flip(t, s)) == want, (curve, t, s)
    assert exits == FLIP_EXITS


@pytest.mark.parametrize("i", [1, 2], ids=["c12", "c22"])
def test_trimmed_coefficient_walk_matches_the_reference(i):
    # F's residual reads the grid's rows, not the trimmed views: they differ in the last bits
    spec = LatticeSpec(trimmed_curve(i), 0.5, y1_index=0)
    assert assert_walk_matches(spec.curve, spec.x0, spec.y0, -2000, 2000) is None


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
