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

from .curve import BiquadraticCurve, fit_biquadratic, walk_flip
from .errors import (
    LatticeSingularityError,
    LatticeStagnationError,
    LeadingCoefficientVanishesError,
    ValidationError,
)

STAGNATION_TOL = 1e-13
STAGNATION_RUN = 3


class LatticeSpec:
    """Seed of a lattice: the curve and the starting point (x0, y0).

    y0 may be given directly, or picked from the root pair at x0 through one
    y1 selector (`y1_index` in {0, 1} or a complex `y1_hint` choosing which
    root plays y1; y0 is then the Vieta complement).  Given y0 and a selector,
    consistency is checked: the forward/backward walk is fully determined by
    (x0, y0).
    """

    __slots__ = ("curve", "x0", "y0")

    def __init__(self, curve, x0, y0=None, y1_index=None, y1_hint=None):
        if y1_index is not None and y1_hint is not None:
            raise ValidationError("a seed names y1 by y1_index or by y1_hint, not both")
        x0 = complex(x0)
        if y1_index is None and y1_hint is None:
            if y0 is None:
                raise ValidationError("need y0 or a y1 selector to seed a lattice")
            y0 = complex(y0)
        else:
            pair = curve.y_roots(x0)
            y1 = (pair.nearest(complex(y1_hint)) if y1_index is None
                  else pair.as_tuple()[int(y1_index)])
            if y0 is None:
                y0 = pair.other(y1)
            else:
                y0 = complex(y0)
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

    Caches only grow; share across threads after generating the range you need
    (generate-then-share).
    """

    def __init__(self, spec):
        self.spec = spec
        self._x = {0: spec.x0}
        self._y = {0: spec.y0}
        self._lo = 0     # materialized index range [lo, hi]
        self._hi = 0
        self._flip_y = walk_flip(spec.curve, True)     # y over a fixed x
        self._flip_x = walk_flip(spec.curve, False)    # x over a fixed y

    @property
    def curve(self):
        return self.spec.curve

    @property
    def known_range(self):
        return self._lo, self._hi

    def x(self, n):
        self.ensure(n, n)
        return self._x[n]

    def y(self, n):
        self.ensure(n, n)
        return self._y[n]

    def point(self, n):
        self.ensure(n, n)
        return self._x[n], self._y[n]

    def values(self, n_lo, n_hi):
        """(xs, ys): x_n and y_n for n_lo <= n < n_hi as lists of Python complex, after one ensure."""
        ns = range(n_lo, n_hi)
        if ns:
            self.ensure(n_lo, n_hi - 1)
        return list(map(self._x.__getitem__, ns)), list(map(self._y.__getitem__, ns))

    def span(self, n_lo, n_hi):
        """The same range as `values`, as two complex arrays."""
        return tuple(np.array(v, dtype=complex) for v in self.values(n_lo, n_hi))

    def ensure(self, n_min, n_max):
        while self._hi < n_max:
            self._step_forward()
        while self._lo > n_min:
            self._step_backward()

    def _step_forward(self):
        self._step(+1)

    def _step_backward(self):
        self._step(-1)

    def _step(self, direction):
        """Materialize the next index past the known range in `direction`.

        Forward flips y then x, backward undoes that: x then y.  The stagnation
        check runs in full only once the newest step is below its guard.
        """
        n = self._hi if direction > 0 else self._lo
        m = n + direction
        x0, y0 = x, y = self._x[n], self._y[n]
        try:
            if direction > 0:
                y = self._flip_y(x, y)
                x = self._flip_x(y, x)
            else:
                x = self._flip_x(y, x)
                y = self._flip_y(x, y)
        except LeadingCoefficientVanishesError as exc:
            raise LatticeSingularityError(m, f"step {n}->{m}: {exc}") from exc
        if not (cmath.isfinite(x) and cmath.isfinite(y)):
            raise LatticeSingularityError(m, f"step {n}->{m}: ({x}, {y}) is not finite")
        self._x[m], self._y[m] = x, y
        if direction > 0:
            self._hi = m
        else:
            self._lo = m
        guard = STAGNATION_TOL * max(1.0, abs(x), abs(y))
        if abs(x - x0) < guard and abs(y - y0) < guard:
            self._check_stagnation(direction)

    def _check_stagnation(self, direction):
        end = self._hi if direction > 0 else self._lo
        for k in range(STAGNATION_RUN):
            a = end - direction * k
            b = a - direction
            if b < self._lo or b > self._hi or a < self._lo or a > self._hi:
                return
            guard = STAGNATION_TOL * max(1.0, abs(self._x[a]), abs(self._y[a]))
            if abs(self._x[a] - self._x[b]) >= guard or abs(self._y[a] - self._y[b]) >= guard:
                return
        raise LatticeStagnationError(end)

    # -- invariants ---------------------------------------------------------------

    def on_curve_residual(self, n):
        """The curve's scale-free residual at (x_n, y_n) and (x_n, y_{n+1})."""
        self.ensure(n, n + 1)
        c = self.curve
        return c.residual(self._x[n], self._y[n]), c.residual(self._x[n], self._y[n + 1])


def generate(spec, n_min, n_max):
    """Materialize a lattice over [n_min, n_max] (the seed sits at index 0)."""
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


def fit_curve_to_lattice(points_fn):
    """Recover the biquadratic carrying a closed-form lattice.

    `points_fn(n) -> (x_n, y_n)`; both (x_n, y_n) and (x_n, y_{n+1}) rows are
    fitted so the grid is pinned up to scale.  Two distinct biquadratics can
    share up to 16 points, so n = -4..6 supplies more than that (22).
    """
    samples = []
    for n in range(-4, 7):
        xn, yn = points_fn(n)
        _, yn1 = points_fn(n + 1)
        samples.append((xn, yn))
        samples.append((xn, yn1))
    return fit_biquadratic(samples)


def write_lattice_csv(lat, n_min, n_max, stream):
    """Dump columns n, re/im of x_n and y_n; header row, LF line endings."""
    xs, ys = lat.values(n_min, n_max + 1)
    stream.write("n,re_x,im_x,re_y,im_y\n")
    for n, xn, yn in zip(range(n_min, n_max + 1), xs, ys):
        stream.write(f"{n},{xn.real!r},{xn.imag!r},{yn.real!r},{yn.imag!r}\n")
