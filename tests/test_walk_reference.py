"""The lattice walk against `ref_walk`, the walk written from its formulas.

Every x_n and y_n must match the reference bit for bit (compared by `repr`, so
signed zeros count), in both directions, and a walk that stops must stop with
the reference's error type, index and message.
"""
import numpy as np
import pytest

from ellgrid import AskeyWilsonLattice, BiquadraticCurve, LatticePair, LatticeSpec, solve
from ellgrid.errors import (
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
    if stop is not None:        # a stagnating step is stored before its check raises
        lo, hi = lo + (lo == stop.index), hi - (hi == stop.index)
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


def test_curve_value_is_the_nested_loop_bit_for_bit():
    rng = np.random.default_rng(7)
    curves = [curve for _, curve, _, _ in FIXTURE_SEEDS[::2]]
    curves += random_real_curves() + [genus1_equation(s).curve for s in range(5)]
    # grids of signed zeros and units: where the loop's leading 0j products set a sign
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
