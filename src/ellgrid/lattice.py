"""Elliptic lattices: walk a biquadratic curve by alternating second roots.

Successive points are (x_n, y_n), (x_n, y_{n+1}), (x_{n+1}, y_{n+1}).  Each step
by flips takes the second root from the Vieta sum identity (subtract the known
root from -X1/X2 or -Y1/Y2), never from a fresh square root, so there is no
branch ambiguity and half the cancellation error.

On a genus-0 curve (P of degree 0 or 2) the walk is a translation with an
elementary closed form, and past its first HEAD steps each way it goes on in
that form: x_n = x_0 + n h, or A_n = A_a e^{(n - a) L} in the exponential
coordinate A of `curve.abel_lifts`, with y_n the root over its x given by w_n,
sqrt(P) on the walk's sheet.  No branch is chosen there either: h and w, or A_a
and the lift, come from the walk's own head, and L from the curve
(`curve_rate`).  The head stays a walk by flips, bit for bit, and the flips stay
the only route for every other curve.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, fields

import numpy as np

from .curve import BiquadraticCurve, abel_lifts, lead_error, lead_test, walk_flips
from .errors import (
    EllgridError,
    Frozen,
    LatticeSingularityError,
    LatticeStagnationError,
    LeadingCoefficientVanishesError,
    ValidationError,
    _finite,
    _instance,
    _kept,
    _order,
)

STAGNATION_TOL = 1e-13
STAGNATION_RUN = 3
HEAD = 64               # steps a walk takes by flips in each direction before a genus-0 tail
TAIL_DEGREES = (0, 2)   # the degrees of P whose walks go on in closed form past the head


class LatticeSpec(Frozen):
    """Seed of a lattice: the curve and the starting point (x0, y0).

    y0 may be given directly, or picked from the root pair at x0 through one
    y1 selector (`y1_index` 0 or 1, not a bool, or a finite complex `y1_hint`
    choosing which root plays y1; y0 is then the Vieta complement).  Given y0
    and a selector, consistency is checked: the forward/backward walk is fully
    determined by (x0, y0).
    """

    __slots__ = ("curve", "x0", "y0")

    def __init__(self, curve, x0, y0=None, y1_index=None, y1_hint=None):
        _instance(curve, BiquadraticCurve, "curve")
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
        self._set(curve=curve, x0=x0, y0=y0)

    def __repr__(self):
        return f"LatticeSpec(x0={self.x0!r}, y0={self.y0!r})"


class LatticePair:
    """Indexed sequences {x_n}, {y_n}, materialized lazily in both directions.

    x_n, y_n for n >= 0 sit at position n of the lists _x, _y, and for n < 0 at
    position -n-1 of _x_back, _y_back.  Caches only grow; share across threads after
    generating the range you need (generate-then-share).  Each direction walks by flips;
    on a curve whose P has a degree in TAIL_DEGREES it goes on past |n| = HEAD in closed
    form (`_tail`), fitted once per direction on its head and kept in _tails, so every
    x_n and y_n is a function of n and the seed alone, however the range was walked.
    """

    def __init__(self, spec):
        self.spec = _instance(spec, LatticeSpec, "spec")
        self._x, self._y = [spec.x0], [spec.y0]
        self._x_back, self._y_back = [], []
        self._flip_y, self._flip_x = walk_flips(spec.curve)
        self._tails = {} if spec.curve.discriminant_P().degree() in TAIL_DEGREES else None

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
        """Materialize indices n_min..n_max: integers by `_order`'s rule, bounds included."""
        if type(n_min) is not int or type(n_max) is not int:
            n_min, n_max = _order(n_min, "lattice index"), _order(n_max, "lattice index")
        if n_max >= len(self._x) or -n_min > len(self._x_back):
            _order(max(n_max, -n_min), "lattice index")     # MAX_ORDER, before any step
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
        """Append `count` points in `direction` to xs, ys: by flips up to |n| = HEAD, and past
        it on a genus-0 curve in closed form (by flips where the curve has no rate).  A stop
        leaves the known range as it was, so a retry stops at the same index."""
        flips = count
        if self._tails is not None:
            flips = min(count, max(0, HEAD - abs(self.known_range[direction > 0])))
        self._flip_walk(flips, direction, xs, ys)
        if count > flips:
            self._tail(count - flips, direction, xs, ys)

    def _flip_walk(self, count, direction, xs, ys):
        """Append `count` steps by flips, checking each new point before it is stored (the
        stagnation check in full only once a step is below its guard)."""
        flip_y, flip_x = self._flip_y, self._flip_x
        append_x, append_y, isfinite, tol = xs.append, ys.append, cmath.isfinite, STAGNATION_TOL
        forward = direction > 0
        n = self.known_range[forward]
        x, y = self._at(n)
        try:
            for m in range(n + direction, n + direction * (count + 1), direction):
                x0, y0 = x, y
                if forward:
                    y = flip_y(x, y)
                    x = flip_x(y, x)
                else:
                    x = flip_x(y, x)
                    y = flip_y(x, y)
                if not (isfinite(x) and isfinite(y)):
                    raise _stop(m, direction, f"({x}, {y}) is not finite")
                ax, ay = abs(x), abs(y)         # max(1.0, ax, ay), without the call
                guard = tol * (ax if ax > ay and ax > 1.0 else ay if ay > 1.0 else 1.0)
                if abs(x - x0) < guard and abs(y - y0) < guard \
                        and self._stagnates(m, x, y, direction):
                    raise LatticeStagnationError(m)
                append_x(x)
                append_y(y)
        except LeadingCoefficientVanishesError as exc:     # only the flips raise it
            raise _stop(m, direction, exc) from exc

    def _tail(self, count, direction, xs, ys):
        """Append `count` points past the head in closed form, with the flips' tests as arrays.

        x_k and w_k = X2(x_k) (y_{k+1} - y_k) are functions of k alone (`_tail_form`, fitted
        once per direction on the head), and y_m is the root (w - X1) / (2 X2) over the x its
        flip stands on: x_{m-1} forward, x_m backward (with -w).  Each point must pass the
        flips' lead tests (V2 at that x, and Y2 at the y its x flip stands on), be finite and
        not end a stagnating run; the points before the first that fails are stored, and that
        one raises the flips' error for its index."""
        forward = direction > 0
        if direction not in self._tails:
            self._tails[direction] = _tail_form(self.curve, *self._head(direction))
        form = self._tails[direction]
        if form is None:                # the curve has no rate: the flips go on
            return self._flip_walk(count, direction, xs, ys)
        n = self.known_range[forward]
        _, x1, x2 = self.curve.x_view()
        run = STAGNATION_RUN
        with np.errstate(all="ignore"):
            xk, wk = form(np.arange(n, n + direction * (count + 1), direction, dtype=float))
            x = xk[1:]
            over, w = (xk[:-1], wk[:-1]) if forward else (x, -wk[1:])
            y = (w - x1(over)) / (2.0 * (x2(over) if x2.degree() else x2.coeffs[0]))
            # rows x and y: the last `run` stored points (the lists run in walk order), then
            # the new ones
            pts = np.array([np.concatenate((xs[-run:], x)), np.concatenate((ys[-run:], y))])
            guard = STAGNATION_TOL * np.maximum(1.0, np.abs(pts).max(axis=0))
            small = (np.abs(np.diff(pts)) < guard[1:]).all(axis=0)
            # the lead tests in the order of the flips, x then y forward, y then x backward; a
            # constant V2 passes everywhere
            y_on = pts[1, run:] if forward else pts[1, run - 1:-1]     # what the x flips stand on
            leads = [(x2, over), (self.curve.y_view()[2], y_on)]
            leads = [(t, *lead_test(v2, t)[1:]) for v2, t in leads[::direction] if v2.degree()]
        fails = [~passes for _, _, passes in leads]
        fails.append(~np.isfinite(pts[:, run:]).all(axis=0))
        fails.append(np.logical_and.reduce([small[k:k + count] for k in range(run)]))
        bad = np.logical_or.reduce(fails)
        stop = int(bad.argmax()) if bad.any() else count
        xs.extend(x[:stop].tolist())
        ys.extend(y[:stop].tolist())
        if stop == count:
            return
        m = n + direction * (stop + 1)
        for (t, size, _), fail in zip(leads, fails):
            if fail[stop]:
                exc = lead_error(complex(t[stop]), float(size[stop]))
                raise _stop(m, direction, exc) from exc
        if fails[-2][stop]:
            raise _stop(m, direction, f"({complex(x[stop])}, {complex(y[stop])}) is not finite")
        raise LatticeStagnationError(m)

    def _head(self, direction):
        """(ks, x_k, w_k, x_0): the head's steps k in walk order, x and w = X2(x) (y_{k+1} - y_k)
        there, and the seed."""
        if direction > 0:
            ks = np.arange(0.0, HEAD)
            x, w = self._head_span(0, HEAD)
        else:
            ks = np.arange(-1.0, -HEAD - 1, -1)
            x, w = (v[::-1] for v in self._head_span(-HEAD, 0))
        return ks, x, w, self._x[0]

    def _head_span(self, lo, hi):
        """(x_k, w_k) for lo <= k < hi as arrays, w = X2(x) (y_{k+1} - y_k), from list slices."""
        xs, ys = (np.array(v, dtype=complex) for v in self.values(lo, hi + 1))
        return xs[:-1], self.curve.x_view()[2](xs[:-1]) * (ys[1:] - ys[:-1])

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


def _stop(m, direction, cause):
    """The LatticeSingularityError of a walk that stops on its step into m, for `cause` (a
    message, or the error it wraps)."""
    return LatticeSingularityError(m, f"step {m - direction}->{m}: {cause}")


def _tail_form(curve, ks, x, w, x0):
    """k -> (x_k, w_k) over an array of indices k on one side of a genus-0 walk, fitted on its
    head: x_k and w_k = X2(x_k) (y_{k+1} - y_k) at the head's steps ks (in walk order, the
    last, a, farthest out) and the seed x_0.  None where the curve has no rate (`curve_rate`)
    or A vanishes at a.

    deg P = 0: x_k = x_0 + k h with h = (x_a - x_0) / a, and w is constant, w = sqrt(P) on the
    walk's sheet, taken as the head's mean.  deg P = 2: A_k = A_a exp((k - a) L) on the lift s
    that is larger at a (`_lift`), with the curve's rate L = s curve_rate(curve).  Then
    x = (A + D/A)/(4 p2) - p1/(2 p2) and w = s sqrt(p2) (A - D/A)/(4 p2), with A/(4 p2) and
    D/(4 p2 A) the exponentials of c +- (k - a) L, c = log A_a - log(4 p2) or
    log(D/(4 p2)) - log A_a, each carried in two floats: the exponent is summed exactly before
    exp sees it, so x_k keeps the phase of a walk of 10^4 steps, and no term overflows before
    x does."""
    p = curve.discriminant_P().coeffs
    if len(p) == 1:
        h, w_mean = complex(x[-1] - x0) / ks[-1], complex(w.sum()) / len(w)
        return lambda k: (x0 + k * h, np.full(k.shape, w_mean))
    rate = curve_rate(curve)
    if rate is None:
        return None
    p0, p1, p2 = p
    d = p1 * p1 - 4.0 * p2 * p0
    s, a, m = _lift(p, x, w)
    rate_hi, rate_lo = s * rate[0], s * rate[1]
    k_a, a_a, m_a = ks[-1], complex(a[-1]), float(m[-1])
    if not (a_a and cmath.isfinite(a_a)):
        return None
    terms = [_log_pair(a_a / (4.0 * p2), m_a)]
    if d:
        terms.append(_log_pair(d / (4.0 * p2) / a_a, 1.0 / m_a))
    alpha, root = -p1 / (2.0 * p2), s * cmath.sqrt(p2)

    def form(k):
        j = k - k_a
        big, small = j * rate_hi, j * rate_lo         # j * rate_hi is exact below 2^27
        e1, e2 = [_exp_sum(c_hi, c_lo, sign * big, sign * small)
                  for (c_hi, c_lo), sign in zip(terms, (1.0, -1.0))] + [0.0] * (not d)
        return alpha + e1 + e2, root * (e1 - e2)
    return form


def _lift(p, x, w):
    """(s, A / m, m) at points x with w = sqrt(P(x)) on their sheet, m = max(1, |x|): A on the
    lift s = +-1 of `abel_lifts` that is larger at the last point, and, where that lift cancels,
    taken as D / A' from the other one."""
    m = np.maximum(1.0, np.abs(x))
    with np.errstate(all="ignore"):
        lifts = abel_lifts(p, x / m, w / m, m)
        s = 1.0 if abs(lifts[0][-1]) >= abs(lifts[1][-1]) else -1.0
        a, other = lifts if s > 0 else lifts[::-1]
        d = p[1] * p[1] - 4.0 * p[2] * p[0]
        return s, np.where(np.abs(a) >= np.abs(other), a, d / m / m / other), m


def curve_rate(curve):
    """(hi, lo): the step L of log A on the + lift of `abel_lifts`, for a curve with deg P = 2,
    as the sum of two floats, or None.  Every walk on the curve multiplies A by e^L a step (by
    e^-L on the - lift), so every lattice on it takes L from one place: it is fitted once, on
    first use, and kept on the curve.  The fit walks HEAD steps by flips from
    x = -p1/(2 p2) + 3 r e^i (r the larger of |p1/(2 p2)| and half the distance between the
    roots of P, or 1 if both are 0), in the direction in which |A| does not shrink: on a curve
    that is nearly two lines, A shrinks towards their crossing, where the flips keep fewer
    digits.  None where that walk stops.

    The fit is the mean step between the walk's two ends: log A there in two floats
    (`_log_pair`), the whole turns between them from the principal steps, and the division's
    remainder formed exactly."""
    return _kept(curve, "_rate", _fit_rate)


def _fit_rate(curve):
    p0, p1, p2 = p = curve.discriminant_P().coeffs
    centre = -p1 / (2.0 * p2)
    r = max(abs(centre), abs(cmath.sqrt(p1 * p1 - 4.0 * p2 * p0) / (2.0 * p2))) or 1.0
    try:
        lat = LatticePair(LatticeSpec(curve, centre + 3.0 * r * cmath.exp(1j), y1_index=0))
        lat.ensure(0, 2)
        _, a, m = _lift(p, *lat._head_span(0, 2))
        ks = (0, HEAD) if abs(a[1] * m[1]) >= abs(a[0] * m[0]) else (-HEAD, 1)
        lat.ensure(ks[0], ks[1])
        s, a, m = _lift(p, *lat._head_span(*ks))
    except EllgridError:
        return None
    if np.isfinite(a).all() and np.all(a != 0):
        return tuple(s * v for v in _mean_step(a, m))
    return None


def _mean_step(a, m):
    """(hi, lo): (log(a[-1] m[-1]) - log(a[0] m[0])) / (len(a) - 1) with the whole turns between
    the ends, as the sum of two floats."""
    (first, first_lo), (last, last_lo) = _log_pair(a[0], m[0]), _log_pair(a[-1], m[-1])
    # each step of log A turns by less than half a turn
    phase = np.diff(np.angle(a))
    turns = round(float(np.sum(phase - _TWO_PI_HI * np.round(phase / _TWO_PI_HI))
                        - (last - first).imag) / _TWO_PI_HI)
    total, lo = _two_sum(last, -first)
    total, lo2 = _two_sum(total, 1j * (turns * _TWO_PI_HI))
    lo += lo2 + last_lo - first_lo + 1j * (turns * _TWO_PI_LO)
    span = len(a) - 1
    hi, rest = _split(total / span)
    return hi, rest + ((total - hi * span) - rest * span + lo) / span


# ln 2 and 2 pi as the sum of two floats, to about 1e-26: each high part has its low bits clear,
# so an exponent (below 2^21) or a whole number of turns (below 2^20) times it is exact
_LN2_HI, _LN2_LO = 6.93147180369123816490e-01, 1.90821492927058770002e-10
_TWO_PI_HI = float.fromhex("0x1.921fb544p+2")
_TWO_PI_LO = (2.0 * math.pi - _TWO_PI_HI) + 2.4492935982947064e-16


def _log_pair(z, scale):
    """log(z scale) as hi + lo, for complex z != 0 and a float scale > 0, neither product formed:
    the real part's binary exponent times ln 2 is carried exactly, so it is right to about u
    absolute however large, and the imaginary part is arg z."""
    (mz, ez), (ms, es) = math.frexp(abs(z)), math.frexp(scale)
    hi, lo = _two_sum((ez + es) * _LN2_HI, math.log(mz * ms) + (ez + es) * _LN2_LO)
    return complex(hi, cmath.phase(z)), complex(lo, 0.0)


def _split(z):
    """(hi, lo): z = hi + lo componentwise, hi with at most 26 significant bits (Veltkamp), so hi
    times an integer below 2^27 is exact."""
    parts = []
    for a in (z.real, z.imag):
        c = 134217729.0 * a
        hi = c - (c - a)
        parts.append((hi, a - hi))
    (rh, rl), (ih, il) = parts
    return complex(rh, ih), complex(rl, il)


def _two_sum(a, b):
    """(s, e): s = a + b rounded and a + b = s + e exactly, componentwise (Knuth)."""
    s = a + b
    v = s - a
    return s, (a - (s - v)) + (b - v)


def _exp_sum(c_hi, c_lo, big, small):
    """exp(c_hi + c_lo + big + small), with big exact and c_lo, small below the rounding of the
    rest: the large part is summed exactly (Knuth's two-sum) before exp sees it."""
    hi, lo = _two_sum(big, c_hi)
    return np.exp(hi) * np.exp(lo + (c_lo + small))


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

    def __post_init__(self):
        for f in fields(self):      # a finite complex number, or None where that is the default
            if not getattr(self, f.name) is f.default is None:
                _finite(getattr(self, f.name), f.name)      # checked, and kept as given

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
