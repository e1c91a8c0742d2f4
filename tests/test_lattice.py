import io

import numpy as np
import pytest

from ellgrid import (
    AskeyWilsonLattice,
    BiquadraticCurve,
    GeometricLattice,
    LatticePair,
    LatticeSpec,
    LinearLattice,
    generate,
    solve,
)
from ellgrid.errors import (
    LatticeSingularityError,
    LatticeStagnationError,
    ValidationError,
)
from ellgrid.lattice import write_lattice_csv

from fixtures import GOLDEN, genus1_equation, qgeom_fixture, random_real_curves
from oracles import on_curve_residual, ref_walk


def test_linear_walk_is_arithmetic():
    lat = generate(LinearLattice(h=1.0).spec(), -3, 3)
    for n in range(-3, 4):
        assert lat.x(n) == pytest.approx(n)
        assert lat.y(n) == pytest.approx(n)


def test_geometric_walk():
    geo = GeometricLattice(a=0.0, b=1.0, q=0.5)
    lat = generate(geo.spec(), -2, 8)
    assert lat.y(1) == pytest.approx(0.5)
    assert lat.x(1) == pytest.approx(0.5)
    for n in range(-2, 9):
        assert abs(lat.x(n) - 0.5 ** n) <= 1e-12 * max(1.0, 2.0 ** (-n))
        assert abs(lat.y(n) - 0.5 ** n) <= 1e-12 * max(1.0, 2.0 ** (-n))


def test_askey_wilson_walk_matches_closed_form():
    aw = AskeyWilsonLattice(a=0.0, b=1.0, c=1.0, q=0.5)
    lat = generate(aw.spec(), 0, 6)
    for n in range(1, 7):
        want = 0.5 ** n + 2.0 ** n
        assert abs(lat.x(n) - want) <= 1e-9 * max(1.0, abs(want))
        wx, wy = aw.point(n)
        assert abs(lat.y(n) - wy) <= 1e-9 * max(1.0, abs(wy))
    # |x_n| grows to 1e301 at n = -1000 and 3e300 at n = 1000
    aw = AskeyWilsonLattice(a=0.0, b=1.0, c=0.3, q=0.5)
    lat = generate(aw.spec(), -1000, 1000)
    for n in range(-1000, 1001):
        for got, want in zip(lat.point(n), aw.point(n)):
            assert abs(got - want) <= 1e-9 * abs(want)


def test_oracle_points():
    assert LinearLattice(h=1.0, x0=0.0).point(5)[0] == pytest.approx(5.0)
    assert GeometricLattice(a=0.0, b=1.0, q=0.5).point(3)[0] == pytest.approx(0.125)
    assert AskeyWilsonLattice(a=0.0, b=1.0, c=1.0, q=0.5).point(2)[0] == pytest.approx(4.25)


def test_step_backward_examples():
    lat = LatticePair(LinearLattice(h=1.0).spec())
    assert lat.point(-1) == pytest.approx((-1.0, -1.0))
    assert lat.known_range == (-1, 0)
    latq = LatticePair(GeometricLattice(a=0.0, b=1.0, q=0.5).spec())
    latq.ensure(-1, 0)
    assert latq.known_range == (-1, 0)
    assert latq.point(-1) == pytest.approx((2.0, 2.0))


def test_backward_then_forward_roundtrip():
    lat = LatticePair(GeometricLattice(a=0.0, b=1.0, q=0.5).spec())
    xb, yb = lat.point(-1)
    fresh = LatticePair(LatticeSpec(lat.curve, xb, yb))
    xf, yf = fresh.point(1)
    assert abs(xf - lat.x(0)) <= 1e-12
    assert abs(yf - lat.y(0)) <= 1e-12


def test_span_equals_accessors_bit_for_bit():
    curve = random_real_curves(1, seed=77)[0]
    y0 = curve.y_roots(0.3 + 0j).lo
    lat = LatticePair(LatticeSpec(curve, 0.3, y0))
    ref = LatticePair(LatticeSpec(curve, 0.3, y0))
    for lo, hi in ((-6, 9), (2, 5), (-6, -1)):   # the first grows the walk both ways
        xs, ys = lat.span(lo, hi)
        assert xs.dtype == ys.dtype == complex
        assert xs.tolist() == [ref.x(n) for n in range(lo, hi)]
        assert ys.tolist() == [ref.y(n) for n in range(lo, hi)]
        assert lat.values(lo, hi) == (xs.tolist(), ys.tolist())
    assert lat.known_range == (-6, 8)
    for n in (-20, 0, 20):
        xs, ys = lat.span(n, n)
        assert xs.shape == ys.shape == (0,)
        assert lat.values(n, n) == ([], [])
    assert lat.known_range == (-6, 8)


def test_reversibility_20_steps():
    curve = random_real_curves(1, seed=77)[0]
    y0 = curve.y_roots(0.3 + 0j).lo
    lat = LatticePair(LatticeSpec(curve, 0.3, y0))
    k = 20
    lat.ensure(0, k)
    back = LatticePair(LatticeSpec(curve, lat.x(k), lat.y(k)))
    back.ensure(-k, 0)
    scale = max(1.0, abs(lat.x(0)))
    assert abs(back.x(-k) - lat.x(0)) <= 1e-8 * scale
    assert abs(back.y(-k) - lat.y(0)) <= 1e-8 * scale


def test_on_curve_invariant_random_curves():
    for curve in random_real_curves(3, seed=13):
        y0 = curve.y_roots(0.25 + 0j).lo
        lat = generate(LatticeSpec(curve, 0.25, y0), 0, 40)
        for n in range(0, 40):
            r1, r2 = on_curve_residual(lat, n)
            assert max(r1, r2) <= 1e-9


def test_complement_root_consistency():
    curve = random_real_curves(1, seed=41)[0]
    y0 = curve.y_roots(0.1 + 0j).hi
    lat = generate(LatticeSpec(curve, 0.1, y0), 0, 10)
    for n in range(0, 10):
        pair = curve.y_roots(lat.x(n))
        got = sorted(pair.as_tuple(), key=lambda z: (z.real, z.imag))
        want = sorted((lat.y(n), lat.y(n + 1)), key=lambda z: (z.real, z.imag))
        for g, w in zip(got, want):
            assert abs(g - w) <= 1e-9 * max(1.0, abs(w))


def test_seed_point_only():
    lat = generate(LinearLattice(h=1.0).spec(), 0, 0)
    assert lat.known_range == (0, 0)


def test_generate_validates_range():
    with pytest.raises(ValidationError):
        generate(LinearLattice(h=1.0).spec(), 1, 3)


def test_off_curve_seed_rejected():
    curve = LinearLattice(h=1.0).curve()
    with pytest.raises(ValidationError):
        LatticeSpec(curve, 0.0, 5.0)


def test_seed_by_selector():
    curve = LinearLattice(h=1.0).curve()
    # roots over x0 = 0 are {0, 1}; selecting y1 leaves y0 = the complement
    spec = LatticeSpec(curve, 0.0, y1_hint=1.0)
    assert spec.y0 == pytest.approx(0.0)
    spec0 = LatticeSpec(curve, 0.0, y1_index=0)
    other = curve.y_roots(0.0).as_tuple()[0]
    assert spec0.y0 == pytest.approx(curve.other_y(0.0, other))
    with pytest.raises(ValidationError):
        LatticeSpec(curve, 0.0, y0=0.0, y1_hint=0.0)   # complement is 1, not 0
    with pytest.raises(ValidationError):
        LatticeSpec(curve, 0.0)                        # nothing picks y0
    for y0 in (None, 0.0):                             # two selectors, with or without y0
        with pytest.raises(ValidationError, match="not both"):
            LatticeSpec(curve, 0.0, y0=y0, y1_index=1, y1_hint=1.0)


def test_seed_selector_takes_what_operator_index_takes():
    curve = LinearLattice(h=1.0).curve()
    for k in (0, 1):
        assert LatticeSpec(curve, 0.0, y1_index=np.int64(k)).y0 == LatticeSpec(curve, 0.0, y1_index=k).y0


def test_lattice_index_takes_what_operator_index_takes():
    spec = LinearLattice(h=1.0).spec()
    lat = generate(spec, np.int64(-2), np.int64(3))
    assert lat.known_range == (-2, 3)
    assert lat.values(np.int64(-2), np.int64(4)) == lat.values(-2, 4)
    assert lat.point(np.int64(-1)) == lat.point(-1)


def test_stagnation_detected():
    # geometric fixed point: the walk from (0, 0) never moves
    curve = GeometricLattice(a=0.0, b=1.0, q=0.5).curve()
    lat = LatticePair(LatticeSpec(curve, 0.0, 0.0))
    with pytest.raises(LatticeStagnationError):
        lat.ensure(0, 10)


def test_stagnation_retries_stop_at_the_same_index():
    """A stagnating step is checked before it is stored: every retry names the same index
    and leaves the known range as it was."""
    eq, select = qgeom_fixture()
    lat = LatticePair(solve(eq, select, 10).pair.unprimed.spec)
    for _ in range(3):
        with pytest.raises(LatticeStagnationError) as info:
            lat.ensure(0, 100)
        assert info.value.index == 47
        assert lat.known_range == (0, 46)


def _storage_specs():
    """A genus-1 real oval, the |q| = 1 golden Askey-Wilson ellipse and an off-axis genus-1 seed."""
    return [LatticeSpec(genus1_equation(1).curve, 0.5, y1_index=0),
            AskeyWilsonLattice(a=0.0, b=1.0, c=0.7, q=np.exp(2j * np.pi * GOLDEN)).spec(),
            LatticeSpec(genus1_equation(3).curve, 0.25 + 0.5j, y1_index=0)]


@pytest.mark.parametrize("spec", _storage_specs(), ids=["oval", "ellipse", "genus1-3"])
def test_chunked_ensure_equals_one_walk(spec):
    whole = LatticePair(spec)
    whole.ensure(-300, 300)
    want = [list(map(repr, v)) for v in whole.values(-300, 301)]
    rng = np.random.default_rng(2024)
    lat = LatticePair(spec)
    lo = hi = 0
    while (lo, hi) != (-300, 300):
        down, up = (int(k) for k in rng.integers(0, 45, 2))
        if rng.random() < 0.5:                  # one side only, or a range across 0
            down, up = (down, 0) if rng.random() < 0.5 else (0, up)
        lo, hi = max(-300, lo - down), min(300, hi + up)
        lat.ensure(lo, hi)
        assert lat.known_range == (lo, hi)
    assert [list(map(repr, v)) for v in lat.values(-300, 301)] == want


def test_accessors_at_negative_indices():
    spec = _storage_specs()[0]
    ref_xs, ref_ys = ref_walk(spec.curve, spec.x0, spec.y0, -30, 0)
    lat = LatticePair(spec)
    for n in range(-30, 1):
        assert repr(lat.x(n)) == repr(ref_xs[n])
        assert repr(lat.y(n)) == repr(ref_ys[n])
        assert lat.point(n) == (ref_xs[n], ref_ys[n])
    assert lat.known_range == (-30, 0)


@pytest.mark.parametrize("lo, hi", [(-1, 0), (-1, 1), (-1, 2), (0, 1), (0, 2), (-1, -1), (1, 0),
                                    (-9, -3), (-9, 0), (3, 9), (0, 9), (-9, 9)])
def test_values_read_both_halves_in_index_order(lo, hi):
    lat = LatticePair(_storage_specs()[0])
    got = lat.values(lo, hi)
    assert lat.known_range == ((min(lo, 0), max(hi - 1, 0)) if lo < hi else (0, 0))
    want = ([lat.x(n) for n in range(lo, hi)], [lat.y(n) for n in range(lo, hi)])
    assert [list(map(repr, v)) for v in got] == [list(map(repr, v)) for v in want]


def test_a_stored_value_written_in_place_is_read_back():
    lat = LatticePair(_storage_specs()[0])
    lat.ensure(-5, 20)
    lat._y[12] = 5.0 + 5.0j
    assert lat.values(0, 20)[1][12] == lat.y(12) == lat.span(-5, 20)[1][17] == 5.0 + 5.0j


def test_singularity_detected():
    # X2(x) = x vanishes at the seed: the first y-step cannot be taken
    curve = BiquadraticCurve([[0, 1, 0], [0, 0, 1], [1, 0, 0]])
    lat = LatticePair(LatticeSpec(curve, 0.0, 0.0))
    with pytest.raises(LatticeSingularityError):
        lat.ensure(0, 2)


def test_walk_past_the_float_range_is_a_singularity():
    # x_n = 2^-n + 0.3 2^n first overflows at n = 1026; nothing non-finite is stored
    lat = LatticePair(AskeyWilsonLattice(a=0.0, b=1.0, c=0.3, q=0.5).spec())
    with pytest.raises(LatticeSingularityError) as info:
        lat.ensure(0, 1100)
    assert info.value.index == 1026
    assert lat.known_range == (0, 1025)
    assert np.isfinite(np.concatenate(lat.span(0, 1026))).all()


def test_step_with_a_non_finite_leading_coefficient_is_a_singularity():
    # X2(x) = 1 + x^2 is inf at the seed x_0 = 1e155: step 0 -> 1 names index 1
    curve = BiquadraticCurve([[1, 0, 1], [0, 1, 0], [1, 0, 1]])
    lat = LatticePair(LatticeSpec(curve, 1e155, 1j))
    with pytest.raises(LatticeSingularityError, match="not finite") as info:
        lat.ensure(0, 1)
    assert info.value.index == 1


def test_branch_point_seed_walks_through():
    # x_0 = 2 is a branch point of the AW curve (y_0 = y_1); the Vieta step
    # continues regardless and must not trip the stagnation detector
    aw = AskeyWilsonLattice(a=0.0, b=1.0, c=1.0, q=0.5)
    lat = generate(aw.spec(), 0, 5)
    assert abs(lat.y(1) - lat.y(0)) < 1e-12
    assert lat.x(1) == pytest.approx(2.5)


@pytest.mark.parametrize("family", [AskeyWilsonLattice(a=0.1, b=1.0, c=0.5, q=0.5),
                                    GeometricLattice(a=0.25, b=1.0, q=0.5)],
                         ids=["askey-wilson", "geometric"])
def test_offset_family_curve_carries_its_closed_form(family):
    # the walk on curve() of an offset family reproduces its point(n), both coordinates
    lat = generate(family.spec(), -10, 10)
    for n in range(-10, 11):
        for got, want in zip(lat.point(n), family.point(n)):
            assert abs(got - want) <= 1e-9 * abs(want)


def test_csv_dump():
    lat = generate(LinearLattice(h=1.0).spec(), -2, 2)
    buf = io.StringIO()
    write_lattice_csv(lat, -2, 2, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "n,re_x,im_x,re_y,im_y"
    assert len(lines) == 6
    row = lines[1].split(",")
    assert row[0] == "-2"
    assert float(row[1]) == pytest.approx(-2.0)
