import numpy as np
import pytest

from ellgrid import (
    AskeyWilsonLattice,
    BiquadraticCurve,
    GeometricLattice,
    LinearLattice,
)
from ellgrid.errors import (
    EllgridError,
    LeadingCoefficientVanishesError,
    ValidationError,
    VerticalTangentError,
)
import ellgrid.curve as curve_module
from ellgrid.curve import lead_test, walk_flips
from ellgrid.poly import Polynomial


def coeffs_close(p, coeffs, tol=1e-12):
    want = Polynomial(coeffs)
    return p.degree() == want.degree() and \
        max(abs(a - b) for a, b in zip(p.coeffs, want.coeffs)) <= tol


def test_x_view_linear_curve():
    x0, x1, x2 = LinearLattice(h=1.0).curve().x_view()
    assert coeffs_close(x2, [1.0])
    assert coeffs_close(x1, [-1.0, -2.0])
    assert coeffs_close(x0, [0.0, 1.0, 1.0])


def test_x_view_q_curve():
    x0, x1, x2 = GeometricLattice(a=0.0, b=1.0, q=0.5).curve().x_view()
    assert coeffs_close(x2, [1.0])
    assert coeffs_close(x1, [0.0, -1.5])
    assert coeffs_close(x0, [0.0, 0.0, 0.5])


def test_views_all_ones_grid():
    cv = BiquadraticCurve([[1, 1, 1]] * 3)
    for p in (*cv.x_view(), *cv.y_view()):
        assert coeffs_close(p, [1.0, 1.0, 1.0])


def test_y_view_linear_curve():
    y0, y1, y2 = LinearLattice(h=1.0).curve().y_view()
    assert coeffs_close(y2, [1.0])
    assert coeffs_close(y1, [1.0, -2.0])
    assert coeffs_close(y0, [0.0, -1.0, 1.0])


def test_y_view_symmetric_grid_mirrors_x_view():
    grid = [[1.0, 0.5, -0.25], [0.5, 2.0, 1.0], [-0.25, 1.0, 0.75]]
    cv = BiquadraticCurve(grid)
    for px, py in zip(cv.x_view(), cv.y_view()):
        assert px == py


def test_y_view_q_curve():
    y0, y1, y2 = GeometricLattice(a=0.0, b=1.0, q=0.5).curve().y_view()
    assert coeffs_close(y2, [0.5])
    assert coeffs_close(y1, [0.0, -1.5])
    assert coeffs_close(y0, [0.0, 0.0, 1.0])


def test_discriminant_degrees():
    assert coeffs_close(LinearLattice(h=1.0).curve().discriminant_P(), [1.0])
    # geometric: perfect square ((1-q) x)^2
    Pq = GeometricLattice(a=0.0, b=1.0, q=0.5).curve().discriminant_P()
    assert coeffs_close(Pq, [0.0, 0.0, 0.25])
    # Askey-Wilson: genuinely degree 2 with distinct roots
    Paw = AskeyWilsonLattice(a=0.0, b=1.0, c=1.0, q=0.5).curve().discriminant_P()
    assert Paw.degree() == 2
    r1, r2 = Paw.roots()
    assert abs(r1 - r2) > 0.1


def test_y_roots_examples():
    cv = LinearLattice(h=1.0).curve()
    pair = cv.y_roots(0.0)
    assert sorted((pair.lo, pair.hi), key=lambda z: z.real) == pytest.approx([0.0, 1.0])
    cvq = GeometricLattice(a=0.0, b=1.0, q=0.5).curve()
    pair = cvq.y_roots(2.0)
    assert sorted((pair.lo, pair.hi), key=lambda z: z.real) == pytest.approx([1.0, 2.0])


def test_double_root_at_branch_point():
    cv = AskeyWilsonLattice(a=0.0, b=1.0, c=1.0, q=0.5).curve()
    xb = cv.discriminant_P().roots()[0]
    pair = cv.y_roots(xb)
    assert abs(pair.lo - pair.hi) < 1e-7 * max(1.0, abs(pair.lo))


def test_x_roots_mirror():
    cv = LinearLattice(h=1.0).curve()
    pair = cv.x_roots(0.0)      # F(x, 0) = x^2 + x
    assert sorted((pair.lo, pair.hi), key=lambda z: z.real) == pytest.approx([-1.0, 0.0])
    cvq = GeometricLattice(a=0.0, b=1.0, q=0.5).curve()
    pair = cvq.x_roots(1.0)     # roots {1, 2}
    assert sorted((pair.lo, pair.hi), key=lambda z: z.real) == pytest.approx([1.0, 2.0])


def test_leading_coefficient_vanishes():
    # X2(x) = x: one y-root escapes to infinity at x = 0
    cv = BiquadraticCurve([[0, 1, 0], [0, 0, 1], [1, 0, 0]])
    with pytest.raises(LeadingCoefficientVanishesError):
        cv.y_roots(0.0)


def test_leading_coefficient_past_the_float_range_is_typed():
    # X2(x) = 1 + x^2 is inf at x = 1e155, where max(1, |x|)^2 would leave the float range
    cv = BiquadraticCurve([[1, 0, 1], [0, 1, 0], [1, 0, 1]])
    for call in (lambda: cv.y_roots(1e155), lambda: cv.other_y(1e155, 1.0)):
        with pytest.raises(EllgridError, match="not finite"):
            call()
    # X2(x) = 1e-200 x^2: the guard compares |X2(x)| / max(1, |x|)^2 with 1e-12 max|coeff|
    tiny = BiquadraticCurve([[1, 0, 0], [0, 1, 0], [1, 0, 1e-200]])
    assert tiny.other_y(1e155, 1.0) == pytest.approx(-1e45)


def test_root_pair_that_leaves_the_float_range_is_typed():
    """A constant V2 passes the lead test everywhere, but V0(t) overflows on the linear curve
    (y - x)(y - x - 1): both views raise rather than return a NaN pair."""
    cv = LinearLattice(h=1.0).curve()
    for roots, t in ((cv.y_roots, 1e155), (cv.x_roots, 1e300)):
        with pytest.raises(LeadingCoefficientVanishesError, match="root pair at .* not finite"):
            roots(t)
    assert sorted(cv.y_roots(1e150).as_tuple(), key=abs) == pytest.approx([1e150, 1e150 + 1])


def test_lead_test_on_arrays_gives_the_scalar_verdicts():
    """curve.lead_test holds one rule for _lead and the closed-form tail: elementwise over an
    array t it passes exactly where the scalar lead test passes, with the same size."""
    v2 = Polynomial((1e-3, 0.0, 1.0))
    ts = np.array([0.0, 1j * 1e-3 ** 0.5, 1e155, 1e-20, 3.0 - 4j, np.inf])
    with np.errstate(all="ignore"):
        _, sizes, passes = lead_test(v2, ts)
    for t, size, ok in zip(ts.tolist(), sizes.tolist(), passes.tolist()):
        assert repr(lead_test(v2, t)[1:]) == repr((size, ok))
    assert passes.tolist() == [True, False, False, True, True, False]


# Curves whose V2 = X2 has its zero far from the origin, at x = 1000: (x - 1000)(x + 1) of
# degree 2, x - 1000 of degree 1.  The lead test divides |V2(t)| by max(1, |t|)^deg V2, so near
# t = 1000 one division too few or too many turns its verdict.
FAR_ZERO_GRIDS = {2: [[1, .5, -1000], [.3, 1, -999], [.2, 0, 1]],
                  1: [[1, .5, -1000], [.3, 1, 1], [.2, 0, 0]]}
NEAR_THE_ZERO = [1000 + 1e-7, 1000 - 1e-7, 1000 + 1e-7j, 1000 + 1e-5, 1000 + 1e-4, 1000 + 1e-2,
                 2000.0, 0.5, -1.0, 1e6]


@pytest.mark.parametrize("view", ["x", "y"])
@pytest.mark.parametrize("degree", [1, 2])
def test_walk_flips_test_the_lead_as_lead_test_does(degree, view, monkeypatch):
    """Each walk flip's inline lead test is `lead_test`: the flip raises
    LeadingCoefficientVanishes exactly where lead_test fails, and where lead_test passes it
    never calls `_lead`.  At t = 1000 + 1e-7 the reduced size of a degree-2 V2 is 1e-10, under
    the floor 1e-9, where |V2| / |t| would read 1e-7 and pass; at t = 1000 + 1e-5 that of a
    degree-1 V2 is 1e-8, where |V2| / |t|^2 would read 1e-11 and fall back to `_lead`."""
    grid = np.array(FAR_ZERO_GRIDS[degree], dtype=float)
    curve = BiquadraticCurve(grid if view == "x" else grid.T)   # the y-view's V2 is Y2(y)
    flip = walk_flips(curve)[view == "y"]
    v2 = (curve.x_view() if view == "x" else curve.y_view())[2]
    assert v2.degree() == degree
    calls, real_lead = [], curve_module._lead
    monkeypatch.setattr(curve_module, "_lead", lambda *args: calls.append(args) or real_lead(*args))
    verdicts = [bool(lead_test(v2, t)[2]) for t in NEAR_THE_ZERO]
    for t, passes in zip(NEAR_THE_ZERO, verdicts):
        if passes:
            flip(t, 0.5 + 0.25j)
        else:
            with pytest.raises(LeadingCoefficientVanishesError):
                flip(t, 0.5 + 0.25j)
    assert len(calls) == verdicts.count(False)
    assert verdicts == [False] * 3 + [True] * 5 + [degree == 1, True]


def test_root_pair_vieta_invariants():
    rng = np.random.default_rng(5)
    for curve in (LinearLattice(h=1.0).curve(),
                  AskeyWilsonLattice(a=0.0, b=1.0, c=1.0, q=0.5).curve(),
                  BiquadraticCurve(rng.uniform(-2, 2, (3, 3)))):
        x0, x1, x2 = curve.x_view()
        for _ in range(100):
            x = complex(*rng.uniform(-3, 3, 2))
            pair = curve.y_roots(x)
            s, p = -x1(x) / x2(x), x0(x) / x2(x)
            sc = max(1.0, abs(s), abs(p))
            assert abs(pair.lo + pair.hi - s) <= 1e-10 * sc
            assert abs(pair.lo * pair.hi - p) <= 1e-10 * sc
            for y in pair.as_tuple():
                assert curve.residual(x, y) <= 1e-10


def test_implicit_derivative_examples():
    cv = LinearLattice(h=1.0).curve()
    assert cv.implicit_dy_dx(0.0, 1.0) == pytest.approx(1.0)
    cvq = GeometricLattice(a=0.0, b=1.0, q=0.5).curve()
    assert cvq.implicit_dy_dx(2.0, 1.0) == pytest.approx(0.5)


def test_implicit_derivative_vs_finite_difference():
    rng = np.random.default_rng(11)
    curve = BiquadraticCurve(rng.uniform(-2, 2, (3, 3)))
    for _ in range(10):
        x = complex(*rng.uniform(-1.5, 1.5, 2))
        pair = curve.y_roots(x)
        for y in pair.as_tuple():
            if abs(pair.lo - pair.hi) < 1e-3:
                continue
            h = 1e-6
            yp = curve.y_roots(x + h).nearest(y)
            ym = curve.y_roots(x - h).nearest(y)
            fd = (yp - ym) / (2 * h)
            assert abs(curve.implicit_dy_dx(x, y) - fd) <= 1e-6 * max(1.0, abs(fd))


def test_vertical_tangent():
    cv = AskeyWilsonLattice(a=0.0, b=1.0, c=1.0, q=0.5).curve()
    xb = cv.discriminant_P().roots()[0]
    yb = cv.y_roots(xb).lo     # double root: dF/dy = 0 there
    with pytest.raises(VerticalTangentError):
        cv.implicit_dy_dx(xb, yb)


def test_implicit_derivative_requires_on_curve_point():
    cv = LinearLattice(h=1.0).curve()
    with pytest.raises(ValidationError):
        cv.implicit_dy_dx(0.0, 5.0)


def test_invalid_grids_rejected():
    with pytest.raises(ValidationError):
        BiquadraticCurve([[1, 0, 0], [0, 0, 0], [0, 0, 0]])     # X2 = 0
    with pytest.raises(ValidationError):
        BiquadraticCurve([[0, 0, 1], [0, 0, 0], [0, 0, 0]])     # Y2 = 0
    with pytest.raises(ValidationError):
        # y^2 + 2xy + x^2 = (x + y)^2: P identically zero
        BiquadraticCurve([[0, 0, 1], [0, 2, 0], [1, 0, 0]])


def test_json_roundtrip():
    cv = AskeyWilsonLattice(a=0.5, b=1.0, c=-0.25, q=0.5).curve()
    back = BiquadraticCurve.from_json(cv.to_json())
    assert back.c == cv.c
