"""Complex-coefficient polynomials and rational functions.

Coefficients are stored densely in ascending degree order and trimmed so the
leading coefficient is nonzero (relative to the largest modulus).  Everything
is immutable and pure; values can be shared freely between threads.
"""
from __future__ import annotations

import cmath
import math

import numpy as np

from .errors import (
    ConstantPolynomialError,
    Frozen,
    PoleEvaluationError,
    ValidationError,
    ZeroDivisorError,
    _finite,
    _list,
)

ZERO_TOL = 1e-13        # trailing coefficients below this (relative) are trimmed
EVAL_TOL = 1e-12        # "effectively zero" threshold for pole/deflation logic
NOT_NUMBERS = (str, bool, np.bool_)     # entries complex() takes that are no coefficient


def _not_a_number(c):
    raise TypeError(f"{c!r} is not a number")


class Polynomial(Frozen):
    """Dense univariate polynomial over the complex doubles."""

    __slots__ = ("coeffs", "max_coeff")

    def __init__(self, coeffs=(0j,)):
        try:
            cs = [_not_a_number(c) if isinstance(c, NOT_NUMBERS) else complex(c) for c in coeffs]
        # not iterable, a str, bool or non-number, or an int past the float range
        except (TypeError, ValueError, OverflowError) as exc:
            raise ValidationError(f"coeffs: expected complex numbers, got {coeffs!r} ({exc})") \
                from None
        if not cs:
            cs = [0j]
        top = max(map(abs, cs))
        if top == 0.0:
            cs = [0j]
        else:
            while len(cs) > 1 and abs(cs[-1]) <= ZERO_TOL * top:
                cs.pop()
        self._set(coeffs=tuple(cs), max_coeff=max(map(abs, cs)))

    # -- constructors -----------------------------------------------------

    @classmethod
    def x(cls):
        return cls((0j, 1.0))

    @classmethod
    def from_roots(cls, roots, leading=1.0):
        """leading times the product of (x - r) over roots, each a number by Polynomial's rule."""
        p = cls((_coefficient(leading, "leading"),))
        for k, r in enumerate(_list(roots, "roots", "a list of complex numbers")):
            p = p * cls((-_coefficient(r, f"roots[{k}]"), 1.0))
        return p

    # -- basic queries -----------------------------------------------------

    def degree(self):
        return len(self.coeffs) - 1

    def is_zero(self):
        return len(self.coeffs) == 1 and self.coeffs[0] == 0

    def __eq__(self, other):
        if isinstance(other, (int, float, complex)):
            other = Polynomial((other,))
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"Polynomial({list(self.coeffs)!r})"

    # -- evaluation ----------------------------------------------------------

    def __call__(self, z):
        """Horner evaluation; `z` may be a scalar or a numpy array (a constant fills its shape)."""
        cs = reversed(self.coeffs)
        acc = next(cs)
        try:
            for c in cs:
                acc = acc * z + c
        except (TypeError, OverflowError):      # a ValidationError where z is no number
            _finite(z, "z")
            raise
        if len(self.coeffs) == 1 and isinstance(z, np.ndarray):
            return np.full_like(z, acc, dtype=complex)
        return acc

    def derivative(self):
        if self.degree() == 0:
            return Polynomial((0j,))
        return Polynomial(tuple(k * c for k, c in enumerate(self.coeffs) if k > 0))

    # -- arithmetic ----------------------------------------------------------

    @staticmethod
    def _coerce(other):
        if isinstance(other, Polynomial):
            return other
        if isinstance(other, (int, float, complex)):
            return Polynomial((other,))
        return None

    def __add__(self, other):
        q = self._coerce(other)
        if q is None:
            return NotImplemented
        n = max(len(self.coeffs), len(q.coeffs))
        a = list(self.coeffs) + [0j] * (n - len(self.coeffs))
        for k, c in enumerate(q.coeffs):
            a[k] += c
        return Polynomial(a)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial(tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        q = self._coerce(other)
        if q is None:
            return NotImplemented
        return self + (-q)

    def __rsub__(self, other):
        q = self._coerce(other)
        if q is None:
            return NotImplemented
        return q + (-self)

    def __mul__(self, other):
        q = self._coerce(other)
        if q is None:
            return NotImplemented
        out = [0j] * (len(self.coeffs) + len(q.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(q.coeffs):
                out[i + j] += a * b
        return Polynomial(out)

    __rmul__ = __mul__

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            return NotImplemented
        out = Polynomial((1.0,))
        for _ in range(n):
            out = out * self
        return out

    def __truediv__(self, other):
        if isinstance(other, (int, float, complex)):
            if other == 0:
                raise ZeroDivisorError("division by zero scalar")
            return Polynomial(tuple(c / other for c in self.coeffs))
        if isinstance(other, Polynomial):
            return RationalFunction(self, other)
        return NotImplemented

    def __divmod__(self, other):
        """Long division; returns (quotient, remainder)."""
        q = self._coerce(other)
        if q is None:
            return NotImplemented
        if q.is_zero():
            raise ZeroDivisorError("polynomial division by zero")
        rem = list(self.coeffs)
        dq = q.degree()
        lead = q.coeffs[-1]
        quot = [0j] * max(1, len(rem) - dq)
        for k in range(len(rem) - 1, dq - 1, -1):
            f = rem[k] / lead
            quot[k - dq] = f
            if f != 0:
                for j, b in enumerate(q.coeffs):
                    rem[k - dq + j] -= f * b
        return Polynomial(quot), Polynomial(rem[:dq] or [0j])

    # -- roots ----------------------------------------------------------------

    def roots(self):
        """All complex roots with multiplicity, Newton-polished, sorted by (Re, Im).

        Raises ConstantPolynomialError for degree 0.  Degree 1 and 2 are solved
        directly (the quadratic with the stable classic/product pairing); higher
        degrees go through companion-matrix eigenvalues.
        """
        d = self.degree()
        if d < 1:
            raise ConstantPolynomialError("cannot take roots of a constant")
        if d == 1:
            rs = [-self.coeffs[0] / self.coeffs[1]]
        elif d == 2:
            lo, hi, _ = solve_quadratic(*self.coeffs)
            rs = [lo, hi]
        else:
            monic = [c / self.coeffs[-1] for c in self.coeffs]
            comp = np.zeros((d, d), dtype=complex)
            comp[1:, :-1] = np.eye(d - 1)
            comp[:, -1] = [-c for c in monic[:-1]]
            rs = list(np.linalg.eigvals(comp))
        dp = self.derivative()
        rs = [_newton_polish(self, dp, complex(r)) for r in rs]
        return sorted(rs, key=lambda r: (r.real, r.imag))


def _newton_polish(p, dp, z):
    """Refine a root estimate by up to 12 Newton steps, kept only while |p| decreases."""
    pz = p(z)
    fz = abs(pz)
    for _ in range(12):
        if fz == 0.0:
            break
        dz = dp(z)
        if dz == 0:
            break
        z2 = z - pz / dz
        p2 = p(z2)
        f2 = abs(p2)
        if f2 < fz:
            z, pz, fz = z2, p2, f2
        else:
            break
    return z


def solve_quadratic(c0, c1, c2):
    """Roots of c2*t**2 + c1*t + c0 with the stable classic/product pairing.

    Returns (lo, hi, sqrt_disc) where hi = (-c1 + s)/(2*c2), lo = (-c1 - s)/(2*c2)
    for s the principal square root of the discriminant; the larger-magnitude
    root is computed by the classic formula and the other from the product.
    """
    if not type(c0) is type(c1) is type(c2) is complex:     # Polynomial's rule, off the fast path
        c0, c1, c2 = (_coefficient(c, f"c{k}") for k, c in enumerate((c0, c1, c2)))
    if c2 == 0:
        raise ZeroDivisorError("quadratic with zero leading coefficient")
    disc = c1 * c1 - 4.0 * c2 * c0
    e = 0
    if not cmath.isfinite(disc):    # divide all three by 2^e ~ the largest part: exact, same roots
        e = math.frexp(max(abs(v) for c in (c0, c1, c2) for v in (c.real, c.imag)))[1]
        c0, c1, c2 = (_ldexp(c, -e) for c in (c0, c1, c2))
        disc = c1 * c1 - 4.0 * c2 * c0
    s = cmath.sqrt(disc)
    # sign choice avoiding cancellation in c1 + sgn*s
    sgn = 1.0 if (c1.real * s.real + c1.imag * s.imag) >= 0.0 else -1.0
    t = -0.5 * (c1 + sgn * s)
    big = t / c2
    small = (c0 / t) if t != 0 else big
    if sgn > 0:         # big carries the -s branch
        lo, hi = big, small
    else:
        lo, hi = small, big
    return lo, hi, _ldexp(s, e) if e else s


def _coefficient(c, name):
    """c as a complex number by Polynomial's rule, or a ValidationError naming it."""
    try:
        return _not_a_number(c) if isinstance(c, NOT_NUMBERS) else complex(c)
    except (TypeError, ValueError, OverflowError):
        raise ValidationError(f"{name}: expected a complex number, got {c!r}") from None


def _ldexp(c, e):
    return complex(math.ldexp(c.real, e), math.ldexp(c.imag, e))      # c 2^e, exactly


class RationalFunction(Frozen):
    """Lazy ratio of two polynomials.

    Common roots of numerator and denominator may persist; evaluation at a
    shared root deflates locally (L'Hopital) so the value agrees with the
    reduced form wherever that is defined.
    """

    __slots__ = ("numer", "denom")

    def __init__(self, numer, denom):
        p, q = Polynomial._coerce(numer), Polynomial._coerce(denom)
        if p is None or q is None:
            name, v = ("numer", numer) if p is None else ("denom", denom)
            raise ValidationError(f"{name}: expected a Polynomial or a number, got {v!r}")
        if q.is_zero():
            raise ZeroDivisorError("rational function with zero denominator")
        self._set(numer=p, denom=q)

    def __repr__(self):
        return f"RationalFunction({self.numer!r}, {self.denom!r})"

    def __call__(self, z):
        """num(z)/den(z), deflating a 0/0 by derivatives: p(z) is nonzero when reduced_abs(p(z),
        z, deg p) > EVAL_TOL max|coeff|.  A value that is not finite is a ValidationError."""
        num, den = self.numer, self.denom
        for _ in range(den.degree() + 1):
            nz, dz = num(z), den(z)
            if not (cmath.isfinite(nz) and cmath.isfinite(dz)):
                raise ValidationError(f"rational function value at z={z} is not finite")
            if reduced_abs(dz, z, den.degree()) > EVAL_TOL * den.max_coeff:
                return nz / dz
            if reduced_abs(nz, z, num.degree()) > EVAL_TOL * max(num.max_coeff, 1e-300):
                raise PoleEvaluationError(z)
            num, den = num.derivative(), den.derivative()
        raise PoleEvaluationError(z)


def reduced_abs(value, z, degree):
    """|value| / max(1, |z|)^degree, dividing once per degree: the power itself can overflow.
    Elementwise over a numpy array value (and z), by np.abs there and abs on scalars."""
    if isinstance(value, np.ndarray):
        size, m = np.abs(value), np.maximum(1.0, np.abs(z))
    else:
        size, m = abs(value), max(1.0, abs(z))
    for _ in range(degree):
        size = size / m
    return size
