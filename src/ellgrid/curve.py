"""Biquadratic curves F(x,y) = sum c[i][j] x^i y^j and their quadratic views.

A valid curve is quadratic in y for fixed x and quadratic in x for fixed y,
so both root extractions exist; the degree-<=4 polynomial P = X1^2 - 4*X0*X2
(discriminant of the y-view) governs the branch structure.
"""
from __future__ import annotations

import cmath

from .errors import (
    Frozen,
    LeadingCoefficientVanishesError,
    ValidationError,
    VerticalTangentError,
    _finite,
    _kept,
    _real,
)
from .poly import Polynomial, reduced_abs, solve_quadratic

ONCURVE_TOL = 1e-10
DYDX_ONCURVE_TOL = 1e-8     # on-curve bound for the points implicit_dy_dx accepts
LEAD_TOL = 1e-12


class RootPair(Frozen):
    """The two y-roots (or x-roots) of the curve over a fixed point.

    Unordered by intent: `lo`/`hi` only record which root carries the minus
    and plus sign of the principal square root of the discriminant.  Pick a
    root against a continuation hint with `nearest`.
    """

    __slots__ = ("lo", "hi")

    def __init__(self, lo, hi):
        self._set(lo=lo, hi=hi)

    def as_tuple(self):
        return self.lo, self.hi

    def nearest(self, hint):
        try:
            return self.lo if abs(self.lo - hint) <= abs(self.hi - hint) else self.hi
        except (TypeError, OverflowError):      # a ValidationError where hint is no number
            _finite(hint, "hint")
            raise

    def other(self, root):
        """The partner of a known member of the pair."""
        return self.hi if abs(self.lo - root) <= abs(self.hi - root) else self.lo

    def __repr__(self):
        return f"RootPair(lo={self.lo!r}, hi={self.hi!r})"


# -- one quadratic view --------------------------------------------------------------
#
# A view (V0, V1, V2) writes F as V0(t) + V1(t) s + V2(t) s^2 over a fixed t:
# the x-view solves for y over x, the y-view for x over y.  Each routine below
# serves both views.


def lead_test(v2, t):
    """(V2(t), size, passes), elementwise over an array t: size = reduced_abs(V2(t), t, deg V2),
    and V2(t) passes when LEAD_TOL max|coeff| < size < inf; a lead that fails is ~ 0 (a lattice
    singularity) or not finite."""
    lead = v2(t)
    size = reduced_abs(lead, t, v2.degree())
    return lead, size, (LEAD_TOL * v2.max_coeff < size) & (size < cmath.inf)


def _lead(view, t):
    """V2(t), or LeadingCoefficientVanishes where it fails `lead_test`."""
    lead, size, passes = lead_test(view[2], t)
    if not passes:
        raise lead_error(t, size)
    return lead


def lead_error(t, size):
    """The error of a leading coefficient at t whose reduced size fails _lead's test."""
    return LeadingCoefficientVanishesError(
        t, None if size < cmath.inf else f"leading coefficient at {t} is not finite")


def _roots(view, t, name):
    """Both roots s of the view over t as a RootPair; LeadingCoefficientVanishes where either
    is not finite (V0(t) or V1(t) overflows, so a root escapes to infinity)."""
    try:
        lead = _lead(view, t)
        lo, hi, _ = solve_quadratic(view[0](t), view[1](t), lead)
    except (TypeError, OverflowError, ValidationError):     # a ValidationError naming t (name)
        _finite(t, name)
        raise
    if not (cmath.isfinite(lo) and cmath.isfinite(hi)):
        raise LeadingCoefficientVanishesError(t, f"root pair at {t} is not finite")
    return RootPair(lo, hi)


def complement(view, t, root, names):
    """The other root over t: the Vieta sum -V1/V2 - root (no square root)."""
    try:
        return -view[1](t) / _lead(view, t) - root
    except (TypeError, OverflowError, ValidationError):     # a ValidationError naming t or root
        _finite(t, names[0]), _finite(root, names[1])
        raise


def abel_lifts(p, u, v, m):
    """(A(x, w), A(x, -w)) / m elementwise, from u = x / m and v = w / m, where w^2 = P(x) and
    P = p0 + p1 x + p2 x^2 has degree 2 (coefficients p).  A = 2 p2 x + p1 + 2 sqrt(p2) w is
    exp(sqrt(p2) v) for a primitive v of dx/w, so a translation of v multiplies it by one
    constant; the two lifts multiply to D = p1^2 - 4 p2 p0, and x = ((A + D/A)/2 - p1)/(2 p2)."""
    b = 2.0 * p[2] * u + p[1] / m
    c = 2.0 * cmath.sqrt(p[2]) * v
    return b + c, b - c


def walk_flips(curve):
    """(flip_y, flip_x), the lattice walk's two flips on `curve`, built on first use and kept
    on the curve, so every lattice on it shares them: flip_y(x, y) is the other y-root over x,
    flip_x(y, x) the other x-root over y.

    Each is the Vieta complement of the known root, polished.  V1 and V2 of the view run as
    inline Horner on their trimmed coefficients, under _lead's test, so the complement rounds
    as `complement` does.  Up to two guarded Newton steps on the curve's own F then only
    remove accumulated rounding, accepting a correction only while |F| decreases (so branch
    points, where dF = V1 + 2 V2 s ~ 0, are left alone).  F rounds as the curve's __call__."""
    return _kept(curve, "_flips", lambda c: (_flip(c, True), _flip(c, False)))


def _flip(curve, over_x):
    """One of the two flips: y over a fixed x = t when over_x, else x over a fixed y = t.  One
    body serves both views, and only F differs: over x it is written out as the curve's
    __call__ rounds it, over y it is read off F's rows at y, formed once per call."""
    view = curve.x_view() if over_x else curve.y_view()
    deg1, deg2 = view[1].degree(), view[2].degree()
    g0, g1, g2 = view[1].coeffs + (0j,) * (2 - deg1)     # V1, V2 by ascending power, padded
    e0, e1, e2 = view[2].coeffs + (0j,) * (2 - deg2)
    floor, inf = LEAD_TOL * view[2].max_coeff, cmath.inf
    full1, full2 = deg1 == 2, deg2 == 2     # untrimmed: V_i(y) = A_i
    (c00, c01, c02), (c10, c11, c12), (c20, c21, c22) = curve.c

    def flip(t, s):
        # V2 and V1 by Horner from the top coefficient, and reduced_abs's divisions, written
        # out for the degree
        lead = (e2 * t + e1) * t + e0 if full2 else e1 * t + e0 if deg2 else e0
        if deg2:                        # a constant V2 passes the lead test everywhere
            m = abs(t)
            size = (abs(lead) / m / m if full2 else abs(lead) / m) if m > 1.0 else abs(lead)
            if not floor < size < inf:
                _lead(view, t)          # fails the same test, so raises its error
        v1 = (g2 * t + g1) * t + g0 if full1 else g1 * t + g0 if deg1 else g0
        lead2, s = 2.0 * lead, -v1 / lead - s
        if not over_x:                  # F(s, y) = (A2 s + A1) s + A0 from F's rows at y
            a2 = lead if full2 else (c22 * t + c21) * t + c20
            a1 = v1 if full1 else (c12 * t + c11) * t + c10
            a0 = (c02 * t + c01) * t + c00
        fv = (((c22 * s + c21) * s + c20) * t + ((c12 * s + c11) * s + c10)) * t \
            + ((c02 * s + c01) * s + c00) if over_x else (a2 * s + a1) * s + a0
        d = v1 + lead2 * s
        if d == 0:
            return s
        s2 = s - fv / d
        f2 = (((c22 * s2 + c21) * s2 + c20) * t + ((c12 * s2 + c11) * s2 + c10)) * t \
            + ((c02 * s2 + c01) * s2 + c00) if over_x else (a2 * s2 + a1) * s2 + a0
        af2 = abs(f2)
        if not af2 < abs(fv):
            return s
        d = v1 + lead2 * s2
        if d == 0:
            return s2
        s = s2 - f2 / d
        fv = (((c22 * s + c21) * s + c20) * t + ((c12 * s + c11) * s + c10)) * t \
            + ((c02 * s + c01) * s + c00) if over_x else (a2 * s + a1) * s + a0
        return s if abs(fv) < af2 else s2
    return flip


def _scaled_powers(t):
    """(1, t, t^2) / max(1, |t|)^2 as (1/m)^2, (t/m)(1/m), (t/m)^2: no power of t unscaled."""
    m = max(1.0, abs(t))
    a, b = t / m, 1.0 / m
    return b * b, a * b, a * a


class BiquadraticCurve(Frozen):
    """Immutable 3x3 coefficient grid c[i][j] multiplying x^i y^j."""

    __slots__ = ("c", "scale", "_xv", "_yv", "_P", "_flips", "_rate")

    def __init__(self, grid):
        try:
            c = tuple(tuple(_finite(v, f"grid[{i}][{j}]") for j, v in enumerate(row))
                      for i, row in enumerate(grid))
        except TypeError:                   # the grid or a row is not iterable
            c = ()
        if len(c) != 3 or any(len(row) != 3 for row in c):
            raise ValidationError("curve grid must be 3x3")
        xv = tuple(Polynomial(col) for col in zip(*c))
        yv = tuple(Polynomial(row) for row in c)
        if xv[2].is_zero():
            raise ValidationError("X2 vanishes identically: curve is not quadratic in y")
        if yv[2].is_zero():
            raise ValidationError("Y2 vanishes identically: curve is not quadratic in x")
        x0, x1, x2 = xv
        P = x1 * x1 - 4.0 * x0 * x2
        if P.is_zero():
            raise ValidationError("P = X1^2 - 4 X0 X2 vanishes identically (double line)")
        self._set(c=c, scale=max(abs(v) for row in c for v in row), _xv=xv, _yv=yv, _P=P)

    def __repr__(self):
        return f"BiquadraticCurve({[list(r) for r in self.c]!r})"

    # -- views ------------------------------------------------------------------

    def x_view(self):
        """(X0, X1, X2) with F(x,y) = X0(x) + X1(x) y + X2(x) y^2."""
        return self._xv

    def y_view(self):
        """(Y0, Y1, Y2) with F(x,y) = Y0(y) + Y1(y) x + Y2(y) x^2."""
        return self._yv

    def discriminant_P(self):
        """P = X1^2 - 4 X0 X2, degree <= 4."""
        return self._P

    # -- evaluation ---------------------------------------------------------------

    def __call__(self, x, y):
        """F(x, y): Horner in y inside Horner in x, unrolled, each level started from its top
        coefficient."""
        (c00, c01, c02), (c10, c11, c12), (c20, c21, c22) = self.c
        acc = (c22 * y + c21) * y + c20
        acc = acc * x + ((c12 * y + c11) * y + c10)
        return acc * x + ((c02 * y + c01) * y + c00)

    def residual(self, x, y):
        """|F(x, y)| / (scale max(1, |x|)^2 max(1, |y|)^2), finite wherever x and y are."""
        (c00, c01, c02), (c10, c11, c12), (c20, c21, c22) = self.c
        try:
            (v0, v1, v2), (u0, u1, u2) = _scaled_powers(x), _scaled_powers(y)
        except (TypeError, OverflowError):      # a ValidationError naming what is no number
            _finite(x, "x"), _finite(y, "y")
            raise
        return abs(v0 * (c00 * u0 + c01 * u1 + c02 * u2) + v1 * (c10 * u0 + c11 * u1 + c12 * u2)
                   + v2 * (c20 * u0 + c21 * u1 + c22 * u2)) / self.scale

    def contains(self, x, y, tol=ONCURVE_TOL):
        return self.residual(x, y) <= tol

    # -- root extraction -------------------------------------------------------------

    def y_roots(self, x):
        """Both roots of F(x, .) = 0 as a RootPair.

        Raises LeadingCoefficientVanishes when X2(x) ~ 0 (a lattice singularity).
        """
        return _roots(self._xv, x, "x")

    def x_roots(self, y):
        """Both roots of F(., y) = 0 as a RootPair."""
        return _roots(self._yv, y, "y")

    def other_y(self, x, y):
        """The second y-root over x, via the Vieta sum (no square root)."""
        return complement(self._xv, x, y, "xy")

    def other_x(self, y, x):
        """The second x-root over y, via the Vieta sum."""
        return complement(self._yv, y, x, "yx")

    def implicit_dy_dx(self, x, y):
        """dy/dx of the branch through (x, y): -(dF/dx)/(dF/dy).

        The point must lie on the curve; a vanishing dF/dy means a vertical
        tangent (branch point) where the derivative does not exist: dF/dy =
        X1(x) + 2 X2(x) y counts as 0 below 1e-10 (|X1(x)| + 2 |X2(x) y|), a bound
        set by its own two terms, not by the scale of the curve, x or y.
        """
        if not self.contains(x, y, tol=DYDX_ONCURVE_TOL):
            raise ValidationError(f"({x}, {y}) is not on the curve")
        (_, x1, x2), (_, y1, y2) = self._xv, self._yv
        x1, x2 = x1(x), x2(x)
        fy = x1 + 2.0 * x2 * y
        if abs(fy) <= 1e-10 * (abs(x1) + 2.0 * abs(x2 * y)):
            raise VerticalTangentError(f"dF/dy vanishes at ({x}, {y})", at=(x, y))
        return -(y1(y) + 2.0 * y2(y) * x) / fy

    # -- serialization ----------------------------------------------------------------

    def to_json(self):
        return [[[v.real, v.imag] for v in row] for row in self.c]

    @classmethod
    def from_json(cls, data):
        """The curve of a 3x3 grid of [re, im] pairs of finite reals; a ValidationError names
        any other entry, curve[i][j]."""
        def entry(v, name):
            if not isinstance(v, (list, tuple)) or len(v) != 2:
                raise ValidationError(f"{name}: expected an [re, im] pair, got {v!r}")
            return complex(_real(v[0], name), _real(v[1], name))

        try:
            grid = [[entry(v, f"curve[{i}][{j}]") for j, v in enumerate(row)]
                    for i, row in enumerate(data)]
        except TypeError as exc:
            raise ValidationError(f"curve grid must be 3x3 of [re, im] pairs: {exc}")
        return cls(grid)
