"""Elliptic lattices: walk a biquadratic curve by alternating second roots.

Successive points are (x_n, y_n), (x_n, y_{n+1}), (x_{n+1}, y_{n+1}); second
roots always come from the Vieta sum identity (subtract the known root from
-X1/X2 or -Y1/Y2), never from a fresh square root, so there is no branch
ambiguity and half the cancellation error.
"""
from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from .curve import BiquadraticCurve, walk_flips
from .errors import (
    LatticeSingularityError,
    LatticeStagnationError,
    LeadingCoefficientVanishesError,
    ValidationError,
    _finite,
    _order,
)

STAGNATION_TOL = 1e-13
STAGNATION_RUN = 3


class LatticeSpec:
    """Seed of a lattice: the curve and the starting point (x0, y0).

    y0 may be given directly, or picked from the root pair at x0 through one
    y1 selector (`y1_index` 0 or 1, not a bool, or a finite complex `y1_hint`
    choosing which root plays y1; y0 is then the Vieta complement).  Given y0
    and a selector, consistency is checked: the forward/backward walk is fully
    determined by (x0, y0).
    """

    __slots__ = ("curve", "x0", "y0")

    def __init__(self, curve, x0, y0=None, y1_index=None, y1_hint=None):
        if y1_index is not None and y1_hint is not None:
            raise ValidationError("a seed names y1 by y1_index or by y1_hint, not both")
        x0 = _finite(x0, "x0")
        if y0 is not None:
            y0 = _finite(y0, "y0")
        if y1_index is None and y1_hint is None:
            if y0 is None:
                raise ValidationError("need y0 or a y1 selector to seed a lattice")
        else:
            if y1_index is None:
                hint = _finite(y1_hint, "y1_hint")
            elif _order(y1_index, "y1_index") not in (0, 1):
                raise ValidationError(f"y1_index: expected 0 or 1, got {y1_index!r}")
            pair = curve.y_roots(x0)
            y1 = pair.nearest(hint) if y1_index is None else pair.as_tuple()[y1_index]
            if y0 is None:
                y0 = pair.other(y1)
            else:
                got = curve.other_y(x0, y0)
                if abs(y1 - got) > 1e-8 * max(1.0, abs(got)):
                    raise ValidationError("y1 selector contradicts the Vieta complement of y0")
        if not curve.contains(x0, y0):
            raise ValidationError(f"seed ({x0}, {y0}) does not lie on the curve")
        object.__setattr__(self, "curve", curve)
        object.__setattr__(self, "x0", x0)
        object.__setattr__(self, "y0", y0)

    def __setattr__(self, name, value):
        raise AttributeError("LatticeSpec is immutable")

    def __repr__(self):
        return f"LatticeSpec(x0={self.x0!r}, y0={self.y0!r})"


class LatticePair:
    """Indexed sequences {x_n}, {y_n}, materialized lazily in both directions.

    x_n, y_n for n >= 0 sit at position n of the lists _x, _y, and for n < 0 at
    position -n-1 of _x_back, _y_back.  Caches only grow; share across threads after
    generating the range you need (generate-then-share).
    """

    def __init__(self, spec):
        self.spec = spec
        self._x, self._y = [spec.x0], [spec.y0]
        self._x_back, self._y_back = [], []
        self._flip_y, self._flip_x = walk_flips(spec.curve)

    @property
    def curve(self):
        return self.spec.curve

    @property
    def known_range(self):
        return -len(self._x_back), len(self._x) - 1

    def x(self, n):
        self.ensure(n, n)
        return self._x[n] if n >= 0 else self._x_back[-n - 1]

    def y(self, n):
        self.ensure(n, n)
        return self._y[n] if n >= 0 else self._y_back[-n - 1]

    def point(self, n):
        self.ensure(n, n)
        return self._at(n)

    def _at(self, n):
        return (self._x[n], self._y[n]) if n >= 0 else (self._x_back[-n - 1], self._y_back[-n - 1])

    def values(self, n_lo, n_hi):
        """(xs, ys): x_n and y_n for n_lo <= n < n_hi as lists of Python complex, after one ensure."""
        if type(n_lo) is not int or type(n_hi) is not int:
            n_lo, n_hi = _order(n_lo, "n_lo"), _order(n_hi, "n_hi")
        if n_lo >= n_hi:
            return [], []
        self.ensure(n_lo, n_hi - 1)
        back, fwd = slice(-min(n_hi, 0), max(-n_lo, 0)), slice(max(n_lo, 0), max(n_hi, 0))
        return (self._x_back[back][::-1] + self._x[fwd],
                self._y_back[back][::-1] + self._y[fwd])

    def span(self, n_lo, n_hi):
        """The same range as `values`, as two complex arrays."""
        return tuple(np.array(v, dtype=complex) for v in self.values(n_lo, n_hi))

    def ensure(self, n_min, n_max):
        """Materialize indices n_min..n_max: integers where operator.index takes them, not bools."""
        if type(n_min) is not int or type(n_max) is not int:
            n_min, n_max = _order(n_min, "lattice index"), _order(n_max, "lattice index")
        if n_max >= len(self._x):
            self._step_forward(n_max - len(self._x) + 1)
        if -n_min > len(self._x_back):
            self._step_backward(-n_min - len(self._x_back))

    def _step_forward(self, count):
        """Materialize the next `count` indices past the known range, forward (y then x)."""
        self._walk(count, +1, self._x, self._y)

    def _step_backward(self, count):
        """The same backward, undoing a forward step: x then y."""
        self._walk(count, -1, self._x_back, self._y_back)

    def _walk(self, count, direction, xs, ys):
        """Append `count` steps in `direction` to xs, ys, checking each new point before it is
        stored (the stagnation check in full only once a step is below its guard): a stop
        leaves the known range as it was, so a retry stops at the same index."""
        flip_y, flip_x = self._flip_y, self._flip_x
        forward = direction > 0
        n = self.known_range[forward]
        x, y = self._at(n)
        for m in range(n + direction, n + direction * (count + 1), direction):
            x0, y0 = x, y
            try:
                if forward:
                    y = flip_y(x, y)
                    x = flip_x(y, x)
                else:
                    x = flip_x(y, x)
                    y = flip_y(x, y)
            except LeadingCoefficientVanishesError as exc:
                raise LatticeSingularityError(m, f"step {m - direction}->{m}: {exc}") from exc
            if not (cmath.isfinite(x) and cmath.isfinite(y)):
                raise LatticeSingularityError(
                    m, f"step {m - direction}->{m}: ({x}, {y}) is not finite")
            guard = STAGNATION_TOL * max(1.0, abs(x), abs(y))
            if abs(x - x0) < guard and abs(y - y0) < guard and self._stagnates(m, x, y, direction):
                raise LatticeStagnationError(m)
            xs.append(x)
            ys.append(y)

    def _stagnates(self, m, x, y, direction):
        """Whether the STAGNATION_RUN steps into m, the last to (x, y), all stayed under the guard."""
        lo, hi = self.known_range
        for k in range(1, STAGNATION_RUN + 1):
            b = m - direction * k
            if not lo <= b <= hi:
                return False
            xb, yb = self._at(b)
            guard = STAGNATION_TOL * max(1.0, abs(x), abs(y))
            if abs(x - xb) >= guard or abs(y - yb) >= guard:
                return False
            x, y = xb, yb
        return True

    # -- invariants ---------------------------------------------------------------

    def on_curve_residual(self, n):
        """The curve's scale-free residual at (x_n, y_n) and (x_n, y_{n+1})."""
        self.ensure(n, n + 1)
        (x, y), (_, y1) = self._at(n), self._at(n + 1)
        return self.curve.residual(x, y), self.curve.residual(x, y1)


def generate(spec, n_min, n_max):
    """Materialize a lattice over [n_min, n_max] (the seed sits at index 0)."""
    n_min, n_max = _order(n_min, "n_min"), _order(n_max, "n_max")
    if not (n_min <= 0 <= n_max):
        raise ValidationError("generate needs n_min <= 0 <= n_max")
    lat = LatticePair(spec)
    lat.ensure(n_min, n_max)
    return lat


# -- closed-form oracle lattices ----------------------------------------------------
#
# The three degenerate families have elementary closed forms; they are used as
# test oracles and as convenient fixture builders.

class _ClosedForm:
    """Shared by the closed-form families: `point(n)` and `curve()` define the walk."""

    def spec(self):
        x0, y0 = self.point(0)
        return LatticeSpec(self.curve(), x0, y0)


@dataclass(frozen=True)
class LinearLattice(_ClosedForm):
    """x_n = x0 + n h, y_n = y0 + n h on (y - x - k)(y - x - k - h) = 0, k = y0 - x0."""

    h: complex = 1.0
    x0: complex = 0.0
    y0: complex | None = None

    def point(self, n):
        y0 = self.x0 if self.y0 is None else self.y0
        return complex(self.x0 + n * self.h), complex(y0 + n * self.h)

    def curve(self):
        y0 = self.x0 if self.y0 is None else self.y0
        k = complex(y0 - self.x0)
        h = complex(self.h)
        # (y - x - k)(y - x - k - h)
        return BiquadraticCurve([
            [k * (k + h), -(2.0 * k + h), 1.0],
            [2.0 * k + h, -2.0, 0.0],
            [1.0, 0.0, 0.0],
        ])


@dataclass(frozen=True)
class GeometricLattice(_ClosedForm):
    """x_n = y_n = a + b q^n on (y - x)(y - q x - a(1-q)) = 0."""

    a: complex
    b: complex
    q: complex

    def point(self, n):
        v = complex(self.a + self.b * self.q ** n)
        return v, v

    def curve(self):
        a, q = complex(self.a), complex(self.q)
        # (y - x)(y - q*x - a*(1-q))
        return BiquadraticCurve([
            [0.0, -a * (1.0 - q), 1.0],
            [a * (1.0 - q), -(1.0 + q), 0.0],
            [q, 0.0, 0.0],
        ])


@dataclass(frozen=True)
class AskeyWilsonLattice(_ClosedForm):
    """x_n = a + b q^n + c q^-n with the y-sequence at half-integer shifts.

    y_n = a + b q^(n-1/2) + c q^(1/2-n), so (x_n, y_n) and (x_n, y_{n+1}) lie
    on one biquadratic whose discriminant P has genuine degree 2.
    """

    a: complex
    b: complex
    c: complex
    q: complex

    def point(self, n):
        a, b, c, q = (complex(v) for v in (self.a, self.b, self.c, self.q))
        rq = cmath.sqrt(q)
        return (a + b * q ** n + c * q ** (-n),
                a + (b / rq) * q ** n + (c * rq) * q ** (-n))

    def curve(self):
        a, b, c, q = (complex(v) for v in (self.a, self.b, self.c, self.q))
        rq = cmath.sqrt(q)
        s = rq + 1.0 / rq
        t2 = q + 1.0 / q - 2.0
        # y^2 - [2a + s(x-a)] y + a^2 + a s (x-a) + (x-a)^2 + b c t2
        return BiquadraticCurve([
            [a * a * (2.0 - s) + b * c * t2, -a * (2.0 - s), 1.0],
            [a * (s - 2.0), -s, 0.0],
            [1.0, 0.0, 0.0],
        ])


def write_lattice_csv(lat, n_min, n_max, stream):
    """Dump columns n, re/im of x_n and y_n; header row, LF line endings."""
    xs, ys = lat.values(n_min, n_max + 1)
    stream.write("n,re_x,im_x,re_y,im_y\n")
    for n, xn, yn in zip(range(n_min, n_max + 1), xs, ys):
        stream.write(f"{n},{xn.real!r},{xn.imag!r},{yn.real!r},{yn.imag!r}\n")
