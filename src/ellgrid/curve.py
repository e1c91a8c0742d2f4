"""Biquadratic curves F(x,y) = sum c[i][j] x^i y^j and their quadratic views.

A valid curve is quadratic in y for fixed x and quadratic in x for fixed y,
so both root extractions exist; the degree-<=4 polynomial P = X1^2 - 4*X0*X2
(discriminant of the y-view) governs the branch structure.
"""
from __future__ import annotations

import cmath

import numpy as np

from .errors import (
    LeadingCoefficientVanishesError,
    ValidationError,
    VerticalTangentError,
)
from .poly import Polynomial, reduced_abs, solve_quadratic

ONCURVE_TOL = 1e-10
DYDX_ONCURVE_TOL = 1e-8     # on-curve bound for the points implicit_dy_dx accepts
LEAD_TOL = 1e-12


class RootPair:
    """The two y-roots (or x-roots) of the curve over a fixed point.

    Unordered by intent: `lo`/`hi` only record which root carries the minus
    and plus sign of the principal square root of the discriminant.  Pick a
    root against a continuation hint with `nearest`.
    """

    __slots__ = ("lo", "hi", "at")

    def __init__(self, lo, hi, at):
        self.lo = lo
        self.hi = hi
        self.at = at

    def as_tuple(self):
        return self.lo, self.hi

    def nearest(self, hint):
        return self.lo if abs(self.lo - hint) <= abs(self.hi - hint) else self.hi

    def other(self, root):
        """The partner of a known member of the pair."""
        return self.hi if abs(self.lo - root) <= abs(self.hi - root) else self.lo

    def __repr__(self):
        return f"RootPair(lo={self.lo!r}, hi={self.hi!r}, at={self.at!r})"


# -- one quadratic view --------------------------------------------------------------
#
# A view (V0, V1, V2) writes F as V0(t) + V1(t) s + V2(t) s^2 over a fixed t:
# the x-view solves for y over x, the y-view for x over y.  Each routine below
# serves both views.


def _lead(view, t):
    """V2(t), or LeadingCoefficientVanishes when it is not finite or ~ 0 (a lattice
    singularity): reduced_abs(V2(t), t, deg V2) at most LEAD_TOL max|coeff|."""
    v2 = view[2]
    lead = v2(t)
    size = reduced_abs(lead, t, v2.degree())
    if not LEAD_TOL * v2.max_coeff < size < cmath.inf:
        raise LeadingCoefficientVanishesError(
            t, None if size < cmath.inf else f"leading coefficient at {t} is not finite")
    return lead


def _roots(view, t):
    """Both roots s of the view over t as a RootPair."""
    lead = _lead(view, t)
    lo, hi, _ = solve_quadratic(view[0](t), view[1](t), lead)
    return RootPair(lo, hi, t)


def complement(view, t, root):
    """The other root over t: the Vieta sum -V1/V2 - root (no square root)."""
    lead = _lead(view, t)
    return -view[1](t) / lead - root


def walk_flip(curve, over_x):
    """The lattice walk's flip on one view of `curve`: flip(t, s) is the Vieta complement
    of the root s over t (s = y over t = x when over_x, else x over y), polished.

    V1 and V2 run as inline Horner on their trimmed coefficients, under _lead's test, so
    the complement rounds as `complement` does.  One or two guarded Newton steps then only
    remove accumulated rounding, accepting a correction only while |F| decreases (so
    branch points, where dF = V1 + 2 V2 s ~ 0, are left alone).
    """
    view = curve.x_view() if over_x else curve.y_view()
    top1, *low1 = reversed(view[1].coeffs)
    top2, *low2 = reversed(view[2].coeffs)
    deg, floor, F = view[2].degree(), LEAD_TOL * view[2].max_coeff, curve._f

    def flip(t, s):
        lead = top2
        for c in low2:
            lead = lead * t + c
        if not floor < reduced_abs(lead, t, deg) < cmath.inf:
            _lead(view, t)              # fails the same test, so raises its error
        v1 = top1
        for c in low1:
            v1 = v1 * t + c
        s = -v1 / lead - s
        fv = F(t, s) if over_x else F(s, t)
        for _ in range(2):
            d = v1 + 2.0 * lead * s
            if d == 0:
                return s
            s2 = s - fv / d
            f2 = F(t, s2) if over_x else F(s2, t)
            if not abs(f2) < abs(fv):
                return s
            s, fv = s2, f2
        return s
    return flip


def _grid_function(c):
    """F(x, y) on the 3x3 grid c as a plain function: Horner in y inside Horner in x,
    unrolled, each started from 0j (signed zeros and non-finite points round alike)."""
    (c00, c01, c02), (c10, c11, c12), (c20, c21, c22) = c

    def F(x, y):
        acc = 0j * x + (((0j * y + c22) * y + c21) * y + c20)
        acc = acc * x + (((0j * y + c12) * y + c11) * y + c10)
        return acc * x + (((0j * y + c02) * y + c01) * y + c00)
    return F


def _scaled_powers(t):
    """(1, t, t^2) / max(1, |t|)^2 as (1/m)^2, (t/m)(1/m), (t/m)^2: no power of t unscaled."""
    m = max(1.0, abs(t))
    a, b = t / m, 1.0 / m
    return b * b, a * b, a * a


class BiquadraticCurve:
    """Immutable 3x3 coefficient grid c[i][j] multiplying x^i y^j."""

    __slots__ = ("c", "_xv", "_yv", "_P", "_f")

    def __init__(self, grid):
        c = tuple(tuple(complex(v) for v in row) for row in grid)
        if len(c) != 3 or any(len(row) != 3 for row in c):
            raise ValidationError("curve grid must be 3x3")
        if not all(cmath.isfinite(v) for row in c for v in row):
            raise ValidationError("curve coefficients must be finite")
        xv = tuple(Polynomial(col) for col in zip(*c))
        yv = tuple(Polynomial(row) for row in c)
        if xv[2].is_zero():
            raise ValidationError("X2 vanishes identically: curve is not quadratic in y")
        if yv[2].is_zero():
            raise ValidationError("Y2 vanishes identically: curve is not quadratic in x")
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "_xv", xv)
        object.__setattr__(self, "_yv", yv)
        x0, x1, x2 = xv
        P = x1 * x1 - 4.0 * x0 * x2
        if P.is_zero():
            raise ValidationError("P = X1^2 - 4 X0 X2 vanishes identically (double line)")
        object.__setattr__(self, "_P", P)
        object.__setattr__(self, "_f", _grid_function(c))

    def __setattr__(self, name, value):
        raise AttributeError("BiquadraticCurve is immutable")

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

    @property
    def scale(self):
        return max(abs(v) for row in self.c for v in row)

    # -- evaluation ---------------------------------------------------------------

    def __call__(self, x, y):
        return self._f(x, y)

    def residual(self, x, y):
        """|F(x, y)| / (scale max(1, |x|)^2 max(1, |y|)^2), finite wherever x and y are."""
        ux, (u0, u1, u2) = _scaled_powers(x), _scaled_powers(y)
        return abs(sum(u * (r[0] * u0 + r[1] * u1 + r[2] * u2)
                       for r, u in zip(self.c, ux))) / self.scale

    def contains(self, x, y, tol=ONCURVE_TOL):
        return self.residual(x, y) <= tol

    # -- root extraction -------------------------------------------------------------

    def y_roots(self, x):
        """Both roots of F(x, .) = 0 as a RootPair.

        Raises LeadingCoefficientVanishes when X2(x) ~ 0 (a lattice singularity).
        """
        return _roots(self._xv, x)

    def x_roots(self, y):
        """Both roots of F(., y) = 0 as a RootPair."""
        return _roots(self._yv, y)

    def other_y(self, x, y):
        """The second y-root over x, via the Vieta sum (no square root)."""
        return complement(self._xv, x, y)

    def other_x(self, y, x):
        """The second x-root over y, via the Vieta sum."""
        return complement(self._yv, y, x)

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
            raise VerticalTangentError(f"dF/dy vanishes at ({x}, {y})")
        return -(y1(y) + 2.0 * y2(y) * x) / fy

    # -- serialization ----------------------------------------------------------------

    def to_json(self):
        return [[[v.real, v.imag] for v in row] for row in self.c]

    @classmethod
    def from_json(cls, data):
        try:
            grid = [[complex(v[0], v[1]) for v in row] for row in data]
        except (TypeError, IndexError) as exc:
            raise ValidationError(f"curve grid must be 3x3 of [re, im] pairs: {exc}")
        return cls(grid)


def fit_biquadratic(points):
    """Least-squares biquadratic through on-curve samples (SVD null vector).

    `points` is an iterable of (x, y) pairs, at least 9 of them in general
    position; the returned curve has |F| residual below 1e-10 * scale at every
    sample, otherwise ValidationError is raised.
    """
    pts = [(complex(x), complex(y)) for x, y in points]
    if len(pts) < 9:
        raise ValidationError("need at least 9 points to fit a biquadratic")
    rows = []
    for x, y in pts:
        rows.append([x ** i * y ** j for i in range(3) for j in range(3)])
    m = np.array(rows, dtype=complex)
    m = m / max(1.0, np.abs(m).max())
    _, _, vh = np.linalg.svd(m)
    coeffs = vh[-1].conj()
    grid = [[coeffs[3 * i + j] for j in range(3)] for i in range(3)]
    curve = BiquadraticCurve(grid)
    for x, y in pts:
        if not curve.contains(x, y):
            raise ValidationError("fit residual exceeds 1e-10: points are not biquadratic")
    return curve
