import numpy as np
import pytest

from ellgrid import (
    BasisFunction,
    BasisPair,
    ByIndex,
    BiquadraticCurve,
    LatticePair,
    LatticeSpec,
    LinearLattice,
    diff_constant,
    divided_difference,
    divided_difference_rational,
    identity_samples,
    mean_poly_direct,
    mean_poly_value,
    mean_rational,
    mean_value,
    solve,
    verify_diff_basis_identity,
)
from ellgrid.diffops import C_METHODS, _all_pairs, diff_constants, pole_hit, pole_hits
from ellgrid.errors import (
    BranchPointEvaluationError,
    EllgridError,
    LeadingCoefficientVanishesError,
    MethodDegenerateError,
    PoleEvaluationError,
    ValidationError,
)
from ellgrid.poly import Polynomial, RationalFunction

from fixtures import aw_fixture, genus1_equation, linear_fixture, log_linear_fixture, qgeom_fixture
from oracles import gate_ratios, ref_cn_replay, ref_cn_xn1, ref_dn

X = Polynomial.x()


def half_offset_pair():
    """Linear-curve basis pair with y_n = n and y'_n = n + 1/2."""
    curve = LinearLattice(h=1.0).curve()
    unprimed = LatticePair(LatticeSpec(curve, 0.0, 0.0))
    primed = LatticePair(LatticeSpec(curve, 0.5, 0.5))
    return BasisPair(unprimed, primed)


def test_divided_difference_of_square_is_forward_difference():
    curve = LinearLattice(h=1.0).curve()
    # (f(x+1) - f(x)) / 1 = 2x + 1 for f = t^2
    assert divided_difference(curve, lambda t: t * t, 0.0) == pytest.approx(1.0)
    assert divided_difference(curve, lambda t: t * t, 2.0) == pytest.approx(5.0)


def test_divided_difference_of_constant_vanishes():
    for curve in (LinearLattice(h=1.0).curve(), aw_fixture()[0].curve):
        for x in (0.3, 1.2 + 0.4j):
            assert divided_difference(curve, lambda t: 3.7 - 2j, x) == pytest.approx(0.0)


def test_mean_of_constant_and_of_identity():
    curve = LinearLattice(h=1.0).curve()
    assert mean_value(curve, lambda t: 4.2, 0.7) == pytest.approx(4.2)
    # mean of the two roots {0, 1} at x = 0
    assert mean_value(curve, lambda t: t, 0.0) == pytest.approx(0.5)


def test_mean_of_odd_function_on_symmetric_pair():
    # y^2 + x^2 - 1 = 0: roots are +/- sqrt(1 - x^2)
    curve = BiquadraticCurve([[-1, 0, 1], [0, 0, 0], [1, 0, 0]])
    assert mean_value(curve, lambda t: t ** 3, 0.3) == pytest.approx(0.0)


def test_operators_symmetric_under_swap():
    curve = aw_fixture()[0].curve
    f = lambda t: 1.0 / (t - 0.37j) + t * t
    for x in (0.5, 1.0 + 0.8j):
        pair = curve.y_roots(x)
        d_fwd = (f(pair.hi) - f(pair.lo)) / (pair.hi - pair.lo)
        d_rev = (f(pair.lo) - f(pair.hi)) / (pair.lo - pair.hi)
        assert d_fwd == pytest.approx(d_rev)
        assert divided_difference(curve, f, x) == pytest.approx(d_fwd)


def test_branch_point_evaluation_raises():
    eq, _ = aw_fixture()
    xb = eq.curve.discriminant_P().roots()[0]
    with pytest.raises(BranchPointEvaluationError):
        divided_difference(eq.curve, lambda t: t, xb)


@pytest.mark.parametrize("x", [1e155, 1e300])
def test_root_pair_past_the_float_range_is_typed(x):
    """On the linear curve V0(x) overflows at these x: the divided difference, the mean value
    and D_n by its definition raise the root pair's typed error, not NaN."""
    from ellgrid import solve
    eq, select = linear_fixture()
    pair = solve(eq, select, 10).pair
    calls = (lambda: divided_difference(eq.curve, lambda t: t, x),
             lambda: mean_value(eq.curve, lambda t: t, x),
             lambda: mean_poly_direct(pair, 3, x))
    for call in calls:
        with pytest.raises(LeadingCoefficientVanishesError, match="root pair at .* not finite"):
            call()


def test_linearity_pointwise():
    curve = qgeom_fixture()[0].curve
    f = lambda t: 1.0 / (t - 2j)
    g = lambda t: t * t - 0.5
    al, be = 0.7 - 0.2j, 1.3 + 1j
    rng = np.random.default_rng(2)
    for _ in range(10):
        x = complex(*rng.uniform(-2, 2, 2))
        lhs = divided_difference(curve, lambda t: al * f(t) + be * g(t), x)
        rhs = al * divided_difference(curve, f, x) + be * divided_difference(curve, g, x)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


def test_simple_fraction_closed_form():
    """D(1/(t - A)) = -X2 / (Y2(A) (x - x'_0)(x - x'_{-1}))."""
    rng = np.random.default_rng(8)
    curves = [LinearLattice(h=1.0).curve(),
              aw_fixture()[0].curve,
              BiquadraticCurve(rng.uniform(-2, 2, (3, 3)))]
    for curve in curves:
        y2 = curve.y_view()[2]
        x2 = curve.x_view()[2]
        for A in (0.37 + 0.21j, -1.1 + 0.6j, 2.2 - 0.4j):
            g = divided_difference_rational(
                curve, RationalFunction(Polynomial((1.0,)), X - A))
            xr = curve.x_roots(A)
            for _ in range(7):
                z = complex(*rng.uniform(-2.5, 2.5, 2))
                want = -x2(z) / (y2(A) * (z - xr.lo) * (z - xr.hi))
                assert abs(g(z) - want) <= 1e-9 * max(1.0, abs(want))
                direct = divided_difference(curve, lambda t: 1.0 / (t - A), z)
                assert abs(g(z) - direct) <= 1e-9 * max(1.0, abs(direct))


def test_rational_image_of_constant_is_zero():
    curve = qgeom_fixture()[0].curve
    g = divided_difference_rational(curve, Polynomial((5.0 - 2j,)))
    assert g.numer.is_zero()
    # M of a constant and D of the identity come back without spurious X2 factors
    for curve in (curve, BiquadraticCurve(np.random.default_rng(21).uniform(-2, 2, (3, 3)))):
        m = mean_rational(curve, Polynomial((5.0 - 2j,)))
        d = divided_difference_rational(curve, X)
        assert (m.numer.degree(), m.denom.degree()) == (0, 0)
        assert (d.numer.degree(), d.denom.degree()) == (0, 0)
        assert m(0.3 + 0.1j) == pytest.approx(5.0 - 2j)
        assert d(0.3 + 0.1j) == pytest.approx(1.0)


_IMAGE_CURVES = {
    "real": np.random.default_rng(21).uniform(-2, 2, (3, 3)),
    "complex": np.random.default_rng(22).uniform(-2, 2, (3, 3))
    + 1j * np.random.default_rng(23).uniform(-2, 2, (3, 3)),
}


@pytest.mark.parametrize("curve_name", sorted(_IMAGE_CURVES))
@pytest.mark.parametrize("deg_p, deg_q", [(dp, dq) for dp in range(5) for dq in range(5)])
def test_rational_images_match_pointwise(curve_name, deg_p, deg_q):
    rng = np.random.default_rng(100 * deg_p + 10 * deg_q + len(curve_name))
    curve = BiquadraticCurve(_IMAGE_CURVES[curve_name])
    cplx = lambda k: rng.uniform(-1, 1, k) + 1j * rng.uniform(-1, 1, k)
    f = RationalFunction(Polynomial(cplx(deg_p + 1)), Polynomial(cplx(deg_q + 1)))
    gd = divided_difference_rational(curve, f)
    gm = mean_rational(curve, f)
    fn = lambda t: f(t)
    checked = 0
    for _ in range(12):
        z = complex(*rng.uniform(-2, 2, 2))
        try:
            want_d = divided_difference(curve, fn, z)
            want_m = mean_value(curve, fn, z)
        except (BranchPointEvaluationError, PoleEvaluationError):
            continue
        assert abs(gd(z) - want_d) <= 1e-9 * max(1.0, abs(want_d))
        assert abs(gm(z) - want_m) <= 1e-9 * max(1.0, abs(want_m))
        checked += 1
    assert checked >= 8


def test_rational_image_carries_x2_factor():
    """For pole-bearing f, the numerator of D f is divisible by X2."""
    rng = np.random.default_rng(31)
    curve = BiquadraticCurve(rng.uniform(-2, 2, (3, 3)))    # nonconstant X2
    x2 = curve.x_view()[2]
    assert x2.degree() >= 1
    fs = [
        RationalFunction(Polynomial((1.0,)), X - (0.4 + 0.9j)),
        RationalFunction(X + 0.5, (X - 1.2) * (X + 0.3j)),
        RationalFunction(Polynomial((0.1, 1.0, 0.7)), Polynomial((2.0, 0.5, -1.0, 1.0))),
    ]
    for f in fs:
        g = divided_difference_rational(curve, f)
        _, rem = divmod(g.numer, x2)
        assert rem.max_coeff <= 1e-9 * max(1.0, g.numer.max_coeff)


def test_basis_values():
    pair = half_offset_pair()
    assert BasisFunction(pair, 0, "y")(123.4) == pytest.approx(1.0)
    for n in (1, 2, 3):
        for j in range(n):
            assert BasisFunction(pair, n, "y")(pair.unprimed.y(j)) == pytest.approx(0.0)
    # (5-0)(5-1) / ((5-1.5)(5-2.5)) = 20 / 8.75
    assert BasisFunction(pair, 2, "y")(5.0) == pytest.approx(20.0 / 8.75)
    with pytest.raises(PoleEvaluationError):
        BasisFunction(pair, 2, "y")(pair.primed.y(1))


def test_basis_as_rational_agrees():
    pair = half_offset_pair()
    yb = BasisFunction(pair, 3, "y")
    rat = yb.as_rational()
    for z in (4.4, -2.3 + 1j):
        assert rat(z) == pytest.approx(yb(z))


def test_basis_function_reads_no_lattice_once_built(monkeypatch):
    pair = half_offset_pair()
    yb, xb = BasisFunction(pair, 3, "y"), BasisFunction(pair, 2, "x")
    want = (yb(4.4), xb(-2.3 + 1j), yb.as_rational()(4.4))

    def no_read(*args):
        raise AssertionError("lattice read after the basis function was made")

    for attr in ("values", "ensure"):
        monkeypatch.setattr(LatticePair, attr, no_read)
    assert (yb(4.4), xb(-2.3 + 1j), yb.as_rational()(4.4)) == want
    assert (yb.n, len(yb.zeros), len(yb.poles)) == (3, 3, 3)


def test_diff_constant_zero_at_zero():
    pair = half_offset_pair()
    assert diff_constant(pair, 0) == 0
    vals, spread = diff_constant(pair, 0, method="all")
    assert spread == 0.0


def test_diff_constant_linear_value():
    # hand value on the half-offset pair: C_1 = -3/2
    pair = half_offset_pair()
    assert diff_constant(pair, 1, method="xm1") == pytest.approx(-1.5)


def test_pole_hits_matches_scalar_guard():
    rng = np.random.default_rng(3)
    # the radius is POLE_TOL * |pole|: pole 0 hits only z == 0
    zero_zs = np.array([0j, 5e-324, 1e-300j, 1e-14])
    assert [pole_hit(complex(z), 0j) for z in zero_zs] == [True, False, False, False]
    assert pole_hits(zero_zs, 0j).tolist() == [True, False, False, False]
    # at a small pole the radius shrinks with it (an absolute 1e-13 would hit here)
    small = 3e-12
    assert not pole_hit(small + 1e-14, small) and pole_hit(small * (1 + 1e-14), small)
    assert pole_hits(np.array([small + 1e-14, small * (1 + 1e-14)]), small).tolist() == \
        [False, True]
    poles = (small, 0.7 - 0.2j, 3e4 + 5e4j)
    near = []
    for pole in poles:
        # distances within a few ulps of the guard radius, in random directions
        ulps = 1.0 + 2.2e-16 * rng.integers(-3, 4, 20000)
        zs = pole + 1e-13 * abs(pole) * ulps * np.exp(2j * np.pi * rng.random(20000))
        want = [pole_hit(complex(z), pole) for z in zs]
        assert 0 < sum(want) < len(want)
        assert pole_hits(zs, pole).tolist() == want
        near.append(zs)
    # an array of poles: a hit on any of them, one pole or several per batch
    poles += (0j,)
    for zs in (np.concatenate(near + [zero_zs]), np.concatenate(near)[::100]):
        want = [any(pole_hit(complex(z), p) for p in poles) for z in zs]
        assert pole_hits(zs, np.array(poles)).tolist() == want

    def scalar(zs, poles):
        return [any(pole_hit(complex(z), complex(p)) for p in poles) for z in zs]

    # signed zeros at a pole at 0
    zeros = np.array([complex(re, im) for re in (0.0, -0.0) for im in (0.0, -0.0)])
    assert pole_hits(zeros, zeros[::-1]).tolist() == scalar(zeros, zeros) == [True] * 4
    # relative distances 1e-14 (in), 1e-13 and 1.0000001e-13 (on the edge: z rounds by
    # about 1e-3 of the gap) and 1.1e-13 (out), in random directions, at poles of
    # modulus 1e-200 .. 1e200
    poles = 10.0 ** np.arange(-200, 201, 25) * np.exp(2j * np.pi * rng.random(17))
    for ratio, expect in ((1e-14, True), (1e-13, None), (1.0000001e-13, None), (1.1e-13, False)):
        zs = poles * (1 + ratio * np.exp(2j * np.pi * rng.random((50, 17))))
        got = pole_hits(zs, poles)
        assert got.ravel().tolist() == scalar(zs.ravel(), poles)
        assert expect is None or got.all() == expect and got.any() == expect
    # many poles with one real part: each z meets all of them in its window
    column = 2.5 + 1j * np.linspace(-3.0, 3.0, 300)
    zs = np.concatenate([column * (1 + 5e-14), column + 1e-12, column[::7] + 0.5e-13j])
    want = scalar(zs, column)
    assert 0 < sum(want) < len(want)
    assert pole_hits(zs, column).tolist() == want
    # NaN and infinite parts on either side, and subnormal moduli
    odd = np.array([complex(np.nan, 0.0), complex(1.0, np.nan), complex(np.inf, 0.0),
                    complex(np.nan, np.inf), 1e308 + 1e308j, 5e-324, 1e-310 + 1e-310j])
    zs = np.concatenate([odd, [0j, 1.0, 1e-310 * (1 + 1e-14), 1e308 * (1 + 1e-14j)]])
    # a modulus that overflows (abs raises there): the rule on every pair
    huge = np.array([1.5e308 + 1.5e308j])
    with np.errstate(all="ignore"):
        for poles in (odd, np.concatenate([odd, column]), column):
            assert pole_hits(zs, poles).tolist() == scalar(zs, poles)
        for z_set, poles in ((zs, huge), (huge, odd), (np.concatenate([zs, huge]), column)):
            assert pole_hits(z_set, poles).tolist() == _all_pairs(z_set, poles).tolist()
        # a z whose modulus overflows, at a pole whose modulus does not
        edge = np.array([(1 - 1e-15) * np.finfo(float).max / np.sqrt(2) * (1 + 1j)])
        assert np.isinf(np.hypot(edge.real, edge.imag) * (1 + 5e-14))
        assert pole_hits(edge * (1 + 5e-14), edge).tolist() == scalar(edge * (1 + 5e-14), edge) \
            == [True]


def _cn_xm1_from_scratch(pair, n):
    """The x_{-1} route of C_n with Yb_n and Xb_{n-1} rebuilt by BasisFunction."""
    xm1, ym1 = pair.unprimed.x(-1), pair.unprimed.y(-1)
    x2 = pair.curve.x_view()[2]
    yb, xb = BasisFunction(pair, n, "y"), BasisFunction(pair, n - 1, "x")
    num = -yb(ym1) * (xm1 - pair.primed.x(0)) * (xm1 - pair.primed.x(n))
    den = (pair.unprimed.y(0) - ym1) * x2(xm1) * xb(xm1)
    return num / den


def test_incremental_cn_is_bit_identical_to_basis_functions():
    from ellgrid import solve
    pairs = [(half_offset_pair(), 60)]
    for fixture, n_max in ((linear_fixture, 60), (aw_fixture, 60), (qgeom_fixture, 40)):
        eq, select = fixture()
        pairs.append((solve(eq, select, n_max).pair, n_max))
    for pair, n_max in pairs:
        want = [0j] + [_cn_xm1_from_scratch(pair, n) for n in range(1, n_max + 1)]
        for n in range(1, n_max + 1):
            assert diff_constant(pair, n, "xm1") == want[n]
        assert diff_constants(pair, n_max) == want


def test_incremental_cn_raises_where_basis_function_does():
    """y'_4 = y_{-1} = -1: the x_{-1} route meets the pole from n = 4 on."""
    curve = LinearLattice(h=1.0).curve()

    def fresh_pair():
        return BasisPair(LatticePair(LatticeSpec(curve, 0.0, 0.0)),
                         LatticePair(LatticeSpec(curve, -5.0, -5.0)))

    shared = fresh_pair()
    for n in range(1, 8):
        if n < 4:
            want = _cn_xm1_from_scratch(fresh_pair(), n)
            assert diff_constant(shared, n, "xm1") == want
            assert diff_constants(shared, n)[n] == want
            continue
        with pytest.raises(PoleEvaluationError):
            _cn_xm1_from_scratch(fresh_pair(), n)
        for pair in (shared, fresh_pair()):
            with pytest.raises(PoleEvaluationError):
                diff_constant(pair, n, "xm1")
            with pytest.raises(PoleEvaluationError):
                diff_constants(pair, n)


def test_basis_pair_holds_only_its_lattices():
    pair = half_offset_pair()
    diff_constant(pair, 5, method="all")
    assert set(vars(pair)) == {"curve", "unprimed", "primed"}


def test_cn_routes_agree_at_high_order():
    from ellgrid import solve
    eq, select = linear_fixture()
    pair = solve(eq, select, 200).pair
    vals, spread = diff_constant(pair, 200, method="all")
    assert len(vals) == 4
    assert all(np.isfinite(v) for v in vals.values())
    assert spread <= 1e-8
    assert vals["xm1"] == diff_constant(pair, 200)


def cn_gate_runs():
    """(name, pair, N): linear and Askey-Wilson at N = 300, qgeom at 40 (its walk stagnates at
    n = 47), the log-linear fixture at 300, and genus1_equation seeds 0-9 under ByIndex(0, 1)
    at 150 wherever the seed solves."""
    for name, fixture, N in (("linear", linear_fixture, 300), ("askey-wilson", aw_fixture, 300),
                             ("qgeom", qgeom_fixture, 40)):
        eq, select = fixture()
        yield name, solve(eq, select, N).pair, N
    eq, select, c0_free, _, _, hints = log_linear_fixture()
    yield "log-linear", solve(eq, select, 300, c0_free=c0_free, **hints).pair, 300
    for seed in range(10):
        try:
            yield f"genus1-{seed}", solve(genus1_equation(seed), ByIndex(0, 1), 150).pair, 150
        except EllgridError:
            continue


def test_diff_constants_within_their_bound_of_the_50_digit_replay():
    """Every C_n of diff_constants lies within its forward-error bound of ref_cn_replay."""
    runs = list(cn_gate_runs())
    assert len(runs) >= 10
    for name, pair, N in runs:
        ratios = gate_ratios(diff_constants(pair, N), ref_cn_replay(pair, N))
        assert len(ratios) == N + 1 and max(ratios) <= 1.0, (name, max(ratios))


def test_cn_gate_has_teeth():
    """One C_n scaled by 1 + 1e-12 fails the gate there and nowhere else."""
    eq, select = linear_fixture()
    pair = solve(eq, select, 300).pair
    cns, replay = diff_constants(pair, 300), ref_cn_replay(pair, 300)
    for n in (1, 150, 300):
        scaled = list(cns)
        scaled[n] *= 1 + 1e-12
        ratios = gate_ratios(scaled, replay)
        assert ratios[n] > 1.0 and max(ratios[:n] + ratios[n + 1:]) <= 1.0, n


def test_orders_below_their_bound_name_it():
    """The basis index, C_n's order and the sample count are integers at or above their
    bound: the error names the argument and the bound."""
    pair = half_offset_pair()
    for call, name, lo in ((lambda v: BasisFunction(pair, v, "y"), "n", 0),
                           (lambda v: diff_constant(pair, v), "n", 0),
                           (lambda v: diff_constants(pair, v), "N", 0),
                           (lambda v: identity_samples(pair, 2, count=v), "count", 1)):
        for bad in (2.5, True):
            with pytest.raises(ValidationError, match=f"^{name} must be an integer, got {bad}$"):
                call(bad)
        with pytest.raises(ValidationError, match=f"^{name} must be >= {lo}, got {lo - 1}$"):
            call(lo - 1)


@pytest.mark.parametrize("call, message", [
    (lambda pair: mean_poly_value(pair, 0.0), "^n must be an integer, got 0.0$"),
    (lambda pair: verify_diff_basis_identity(pair, 0.0, [0.3 + 0.2j]),
     "^n must be an integer, got 0.0$"),
    (lambda pair: mean_poly_direct(pair, 0.0, 0.3 + 0.2j), "^n must be an integer, got 0.0$"),
    (lambda pair: diff_constant(pair, 0, "bogus"), "^unknown C_n method 'bogus'$"),
    (lambda pair: mean_poly_value(pair, 0, at="bogus"), "^unknown D_n point 'bogus'$"),
], ids=["mean_poly_value-n", "identity-n", "mean_poly_direct-n", "diff_constant-method",
        "mean_poly_value-at"])
def test_order_zero_is_validated_like_any_other(call, message):
    """At n = 0 each entry point refuses what it refuses at n >= 1, before its n = 0 value."""
    with pytest.raises(ValidationError, match=message):
        call(half_offset_pair())


@pytest.mark.parametrize("fixture, n", [(aw_fixture, 19), (aw_fixture, 30), (aw_fixture, 33),
                                        (aw_fixture, 34), (aw_fixture, 47), (aw_fixture, 59),
                                        (qgeom_fixture, 33), (qgeom_fixture, 41),
                                        (qgeom_fixture, 42), (qgeom_fixture, 43),
                                        (qgeom_fixture, 44), (qgeom_fixture, 45)])
def test_cn_routes_agree_where_the_lattice_is_large_or_small(fixture, n):
    """All four routes, also where x'_n is large (Askey-Wilson) or tiny (qgeom).

    From n = 42 the qgeom lattice is below 1e-12, so a pole guard with an absolute
    radius would call the node route's y_n a hit on the pole y'_n.

    The respn route needs the branch derivative at x'_n; its vertical-tangent
    guard must not trip on the size of x'_n alone.  The residue routes must
    not overflow where the lattice is large.
    """
    from ellgrid import solve
    eq, select = fixture()
    vals, spread = diff_constant(solve(eq, select, 40).pair, n, method="all")
    assert sorted(vals) == sorted(C_METHODS)
    assert all(np.isfinite(v) for v in vals.values())
    assert spread <= 1e-8


def test_node_route_and_mean_values_equal_per_index_reference():
    from ellgrid import solve
    for fixture in (linear_fixture, aw_fixture, qgeom_fixture):
        eq, select = fixture()
        pair = solve(eq, select, 40).pair
        for n in range(1, 41):
            assert diff_constant(pair, n, "xn1") == ref_cn_xn1(pair, n)
            for at in ("xm1", "xn1", "xp0", "xpn"):
                assert mean_poly_value(pair, n, at) == ref_dn(pair, n, at)


def test_nonfinite_residue_route_is_degenerate(monkeypatch):
    pair = half_offset_pair()
    monkeypatch.setattr(BiquadraticCurve, "implicit_dy_dx",
                        lambda self, x, y: complex("nan"))
    for method in ("resp0", "respn"):
        with pytest.raises(MethodDegenerateError, match=f"C_5 by route {method}"):
            diff_constant(pair, 5, method)
    vals, spread = diff_constant(pair, 5, method="all")
    assert sorted(vals) == ["xm1", "xn1"]
    assert spread <= 1e-8


def test_diff_constant_four_way_agreement():
    fixtures = [half_offset_pair()]
    for _, eq, select in (( "linear", *linear_fixture()), ("q", *qgeom_fixture()),
                          ("aw", *aw_fixture())):
        from ellgrid import solve
        fixtures.append(solve(eq, select, 1).pair)
    for pair in fixtures:
        for n in range(1, 11):
            vals, spread = diff_constant(pair, n, method="all")
            assert len(vals) == 4
            assert spread <= 1e-8


def test_diff_basis_identity():
    pair = half_offset_pair()
    samples = identity_samples(pair, 4, count=20, seed=7)
    assert verify_diff_basis_identity(pair, 0, samples) == 0.0
    for n in range(1, 5):
        assert verify_diff_basis_identity(pair, n, samples) <= 1e-8

    rng = np.random.default_rng(17)
    curve = BiquadraticCurve(rng.uniform(-2, 2, (3, 3)))
    u0 = curve.y_roots(0.4 + 0j).lo
    p0 = curve.y_roots(-0.8 + 0.3j).hi
    rpair = BasisPair(LatticePair(LatticeSpec(curve, 0.4, u0)),
                      LatticePair(LatticeSpec(curve, -0.8 + 0.3j, p0)))
    samples = identity_samples(rpair, 3, count=20, seed=5)
    assert verify_diff_basis_identity(rpair, 3, samples) <= 1e-7


def test_mean_poly_closed_forms():
    pair = half_offset_pair()
    assert mean_poly_value(pair, 0) == pytest.approx(1.0)
    x2 = pair.curve.x_view()[2]
    for n in (1, 2, 3):
        cn = diff_constant(pair, n)
        want = 0.5 * cn * x2(pair.primed.x(0)) * (pair.primed.y(1) - pair.primed.y(0))
        assert mean_poly_value(pair, n, at="xp0") == pytest.approx(want)
        # sign relation between the x_{-1} and x'_0 values
        lhs = mean_poly_value(pair, n, at="xm1") / mean_poly_value(pair, n, at="xp0")
        rhs = -x2(pair.unprimed.x(-1)) * (pair.unprimed.y(0) - pair.unprimed.y(-1)) / \
            (x2(pair.primed.x(0)) * (pair.primed.y(1) - pair.primed.y(0)))
        assert lhs == pytest.approx(rhs)


def test_mean_poly_is_quadratic():
    """Fit D_n through 3 points, verify at 10 more: degree <= 2 exactly."""
    from ellgrid import solve
    for name, eq, select in (("linear", *linear_fixture()), ("aw", *aw_fixture())):
        pair = solve(eq, select, 1).pair
        for n in (1, 2, 3, 4):
            zs = [1.7 + 0.9j, -2.1 + 0.3j, 0.6 - 1.8j]
            vals = [mean_poly_direct(pair, n, z) for z in zs]
            vand = np.array([[1.0, z, z * z] for z in zs], dtype=complex)
            coef = np.linalg.solve(vand, np.array(vals))
            rng = np.random.default_rng(n)
            for _ in range(10):
                z = complex(*rng.uniform(-3, 3, 2))
                want = coef[0] + coef[1] * z + coef[2] * z * z
                got = mean_poly_direct(pair, n, z)
                assert abs(got - want) <= 1e-8 * max(1.0, abs(want))
