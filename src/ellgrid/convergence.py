"""Geometric decay of expansion terms vs the potential-theoretic prediction.

The empirical rate is the least-squares slope of log |c_n Yb_n(z)| against n.
The prediction takes the period omega = 2 pi i / sqrt(p2) of dv/sqrt(P) and
the uniformizing coordinate xi(z) in closed form (P of degree 2), on the lift
on zeta's side of the roots of P, giving

    rate(z) = exp(-Im 2 pi (xi_z - xi_zeta) / omega)

for the logarithmic case (zeta the third root of a), provided the x-lattice
fills a closed locus.  Divisions by
y_{-1} - y_{n-2} can get sporadically tiny when (n-1)h nearly returns to a
period multiple; those indices are detected and excluded from rate fits.
The branch-tracked quadrature (route_path, path_integral) and the locus trace
(trace_lattice_locus, period_quadrature) are independent oracles for the
tests; the rate path calls none of them.
"""
from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .curve import abel_lifts
from .diffops import pole_hits
from .errors import (
    ConstantPolynomialError,
    PathThroughBranchPointError,
    PoleEvaluationError,
    RefinePathError,
    ValidationError,
    WindowTooSmallError,
    _finite,
    _order,
    _real,
)
from .lattice import _lift

COARSE_STEP = 0.5       # relative sqrt(P) jump that marks an under-sampled path
LEVEL_SAMPLES = 1 << 16  # complex samples per chunk of one Simpson level
REL_TOL = 1e-9          # Simpson doubling stops when a segment moves less than this
MAX_SAMPLES = 1 << 15   # ... or gives up past this many samples per segment
CLOSURE_TOL = 100 * REL_TOL  # |Im tau|, in periods per step, up to which the node locus closes
LOCUS_STEP = 0.004      # locus RK4 step, relative to 1 + |x_start|
LOCUS_MAX_STEPS = 200000
UNDERFLOW_FLOOR = 2.0 ** -969   # the smallest normal float over the unit roundoff


# -- small divisors --------------------------------------------------------------------


def detect_small_divisors(pair, N, threshold):
    """Indices n <= N where |y_{-1} - y_{n-2}| dips below threshold * median (a finite real)."""
    N, threshold = _order(N, "N"), _real(threshold, "threshold")
    if N < 3 or threshold <= 0:
        return []
    ys = pair.unprimed.values(-1, N - 1)[1]     # index -1 .. N-2, so y_{n-2} = ys[n - 1]
    mags = {n: abs(ys[0] - ys[n - 1]) for n in range(3, N + 1)}
    med = _median(list(mags.values()))
    return [(n, m) for n, m in sorted(mags.items()) if m < threshold * med]


def _median(values):
    """np.median of a non-empty list of floats, bit for bit.

    The sorted middle, or the mean (a + b) / 2 of the two middle values;
    NaN when any value is NaN.  np.median itself imports numpy.ma on its
    first call, about 13 ms.
    """
    s = np.sort(np.asarray(values, dtype=float)).tolist()
    if math.isnan(s[-1]):           # np.sort puts NaN last
        return math.nan
    k = len(s) // 2
    return s[k] if len(s) % 2 else (s[k - 1] + s[k]) / 2


# -- empirical rate ---------------------------------------------------------------------

MIN_FIT_TERMS = 5       # usable terms a slope fit needs


@dataclass(frozen=True)
class RateReport:
    empirical_rate: float
    window: tuple
    smalldiv_flags: tuple
    z: complex
    flags: tuple = ()


def _flag(exc_type):
    return exc_type.__name__.removesuffix("Error")


def _term_magnitude_grid(sol, zs, n_max):
    """|c_n Yb_n(z)| for n = 1..n_max at every z of zs (one row per z), and the z that hit a pole.

    y_0..y_{n_max-1} and y'_1..y'_{n_max} are read once per call, so a caller
    that edits the lattice or the coefficients between calls sees the edit.
    """
    if n_max >= len(sol.coeffs):
        raise ValidationError(f"solution has only {len(sol.coeffs) - 1} coefficients")
    coeffs = np.array(sol.coeffs[1:n_max + 1], dtype=complex)
    _, nodes = sol.pair.unprimed.span(0, n_max)
    _, poles = sol.pair.primed.span(1, n_max + 1)
    zs = np.asarray(zs, dtype=complex)
    hit = pole_hits(zs, poles)
    col = zs[:, None]
    with np.errstate(all="ignore"):
        prods = np.cumprod((col - nodes) / (col - poles), axis=1)
        mags = np.abs(coeffs * prods)
    return mags, hit


def term_magnitudes(sol, z, n_max):
    """|c_n Yb_n(z)| for n = 1..n_max (index 0 of the result is n = 1); a non-finite z is a
    ValidationError naming it, as is an n_max that is not an integer."""
    z, n_max = _finite(z, "z"), _order(n_max, "n_max")
    mags, hit = _term_magnitude_grid(sol, [z], n_max)
    if hit[0]:
        raise PoleEvaluationError(z)
    return mags[0].tolist()


def _fit_rates(sol, zs, n_min, n_max, smalldiv_threshold):
    """Geometric ratio of the terms over [n_min, n_max] at every z of zs.

    Returns (ratio, pole hit, usable-term count, flagged small divisors) per z;
    the ratio is the exp of the least-squares slope of log |term| against n
    over the usable terms (small-divisor indices and exact zeros excluded).
    Raises for the failures every z shares: a short window, too few
    coefficients.
    """
    if n_max - n_min < MIN_FIT_TERMS:
        raise WindowTooSmallError(
            f"window [{n_min}, {n_max}] is shorter than {MIN_FIT_TERMS}")
    mags, hit = _term_magnitude_grid(sol, zs, n_max)
    flagged = detect_small_divisors(sol.pair, n_max, smalldiv_threshold)
    ns = np.arange(1, n_max + 1, dtype=float)
    keep = ns >= n_min
    keep[[n - 1 for n, _ in flagged]] = False
    usable = keep & (mags != 0.0)
    count = usable.sum(axis=1)
    with np.errstate(all="ignore"):
        logs = np.where(usable, np.log(mags), 0.0)
        dn = np.where(usable, ns - (usable * ns).sum(axis=1, keepdims=True) / count[:, None], 0.0)
        dlog = np.where(usable, logs - logs.sum(axis=1, keepdims=True) / count[:, None], 0.0)
        rho = np.exp((dn * dlog).sum(axis=1) / (dn * dn).sum(axis=1))
    return rho, hit, count, flagged


def _fit_args(n_min, n_max, smalldiv_threshold):
    """The fit's window as integers and its threshold as a finite real, or a ValidationError."""
    return (_order(n_min, "n_min"), _order(n_max, "n_max"),
            _real(smalldiv_threshold, "smalldiv_threshold"))


def _rate_flags(rho):
    return ("NotConverging",) if rho >= 1.0 else ()


def empirical_rate(sol, z, n_min, n_max, smalldiv_threshold=0.05):
    """Least-squares geometric ratio of the terms over [n_min, n_max].

    Small-divisor indices (and exact zeros) are excluded from the fit; at
    least five usable terms are required.  A bad z or `_fit_args` is a ValidationError naming it.
    """
    z = _finite(z, "z")
    n_min, n_max, smalldiv_threshold = _fit_args(n_min, n_max, smalldiv_threshold)
    rho, hit, count, flagged = _fit_rates(sol, [z], n_min, n_max, smalldiv_threshold)
    if hit[0]:
        raise PoleEvaluationError(z)
    if count[0] < MIN_FIT_TERMS:
        raise WindowTooSmallError(f"only {count[0]} usable terms in [{n_min}, {n_max}]")
    rho = float(rho[0])
    return RateReport(empirical_rate=rho, window=(n_min, n_max), smalldiv_flags=tuple(flagged),
                      z=complex(z), flags=_rate_flags(rho))


# Flags of an empirical cell, by code: rated, rated but not converging, too few
# usable terms, on a pole of the basis.
_EMPIRICAL_FLAGS = ((), ("NotConverging",), (_flag(WindowTooSmallError),),
                    (_flag(PoleEvaluationError),))


def _empirical_columns(sol, zs, n_min, n_max, smalldiv_threshold):
    """Rates (None where there is none), flag codes and the flags they index,
    per z, as empirical_rate would report each one."""
    try:
        rho, hit, count, _ = _fit_rates(sol, zs, n_min, n_max, smalldiv_threshold)
    except (WindowTooSmallError, ValidationError) as exc:
        return [None] * len(zs), np.zeros(len(zs), dtype=int), ((_flag(type(exc)),),)
    code = np.select([hit, count < MIN_FIT_TERMS, rho >= 1.0], [3, 2, 1], 0)
    return _rates_or_none(rho, code >= 2), code, _EMPIRICAL_FLAGS


def _rates_or_none(rates, missing):
    """rates as a list of floats, None where missing."""
    return np.where(missing, None, rates.astype(object)).tolist()


# -- branch-tracked quadrature of dv / sqrt(P): the test oracle for xi ------------------------


def _tracked_sqrt(values):
    """Continuous branch of sqrt along the last axis of sampled P values.

    Each row starts on the principal branch.  Flip events are decided between
    raw principal neighbors and accumulated, so one crossing of the principal
    cut flips everything after it exactly once.  Returns (tracked values,
    under-sampled flag per row).
    """
    w = np.sqrt(np.asarray(values, dtype=complex))
    flip_event = np.abs(w[..., 1:] - w[..., :-1]) > np.abs(w[..., 1:] + w[..., :-1])
    w[..., 1:] *= np.cumprod(np.where(flip_event, -1.0, 1.0), axis=-1)
    jumps = np.abs(np.diff(w, axis=-1)) > \
        COARSE_STEP * (np.abs(w[..., 1:]) + np.abs(w[..., :-1]) + 1e-300)
    return w, jumps.any(axis=-1)


def _branch_signs(w_first, w_last, w_start=None):
    """Signs that continue each segment on the branch the previous one ended on.

    Segment k starts on the principal branch w_first[k] and ends on w_last[k];
    the first segment continues w_start when it is given.
    """
    prev = np.concatenate(([w_first[0] if w_start is None else w_start], w_last[:-1]))
    flip = np.abs(w_first + prev) < np.abs(w_first - prev)
    return np.cumprod(np.where(flip, -1.0, 1.0))


def period_quadrature(curve, locus_samples):
    """omega = closed-loop integral of dv/sqrt(P) over ordered samples.

    The loop closes from the last sample back to the first.  Treating the
    sample index as the parameter, the tangent dv/dt comes from a 6th-order
    periodic stencil and the integral is the periodic sum of (dv/dt)/sqrt(P),
    so smooth densely-sampled loops converge fast.  The square root is
    continued along the path; a near-antipodal jump between consecutive
    samples (under-resolved path, or an odd number of enclosed branch points)
    raises RefinePath.
    """
    v = np.asarray([complex(s) for s in locus_samples], dtype=complex)
    if len(v) < 8:
        raise RefinePathError("need at least 8 samples around the locus")
    P = curve.discriminant_P()
    w_ext, coarse = _tracked_sqrt(P(np.append(v, v[0])))
    if coarse:
        raise RefinePathError("sqrt(P) jumps between samples; refine the path")
    if abs(w_ext[-1] - w_ext[0]) > abs(w_ext[-1] + w_ext[0]):
        raise RefinePathError("sqrt(P) does not return after the loop; refine the path")
    w = w_ext[:-1]
    dv = (np.roll(v, -3) - 9.0 * np.roll(v, -2) + 45.0 * np.roll(v, -1)
          - 45.0 * np.roll(v, 1) + 9.0 * np.roll(v, 2) - np.roll(v, 3)) / 60.0
    return complex(np.sum(dv / w))


def _segment_gap(p, q, r):
    """Distance from r to the segment [p, q], elementwise over arrays."""
    d = np.asarray(q - p, dtype=complex)
    L2 = d.real ** 2 + d.imag ** 2
    with np.errstate(all="ignore"):
        t = np.clip(((r - p).real * d.real + (r - p).imag * d.imag) / L2, 0.0, 1.0)
    return np.abs(p + np.where(L2 > 0, t, 0.0) * d - r)


def _roots_of_p(curve):
    """Roots of P, the points route_path skirts; none when P is constant."""
    try:
        return curve.discriminant_P().roots()
    except ConstantPolynomialError:
        return []


def _clearance(length):
    """How far route_path keeps a path of this length from the roots of P."""
    return max(1e-3 * length, 1e-9)


def route_path(curve, z0, z1, clearance=None, depth=0, roots=None):
    """Waypoints from z0 to z1 skirting the roots of P by lateral detours.

    `roots` (the roots of P, found here when omitted) lets a caller find them once.
    """
    z0, z1 = complex(z0), complex(z1)
    if roots is None:
        roots = _roots_of_p(curve)
    seg = abs(z1 - z0)
    if clearance is None:
        clearance = _clearance(seg)
    near = [r for r in roots if _segment_gap(z0, z1, r) < clearance]
    if not near or seg < 4.0 * clearance:
        if near:
            raise PathThroughBranchPointError(
                f"cannot route {z0} -> {z1} around branch point {near[0]}")
        return [z0, z1]
    if depth > 8:
        raise PathThroughBranchPointError(f"routing depth exceeded between {z0} and {z1}")
    r = min(near, key=lambda p: _segment_gap(z0, z1, p))
    mid = 0.5 * (z0 + z1)
    away = mid - r
    if abs(away) < 1e-12:
        away = 1j * (z1 - z0) / seg
    mid = r + away / abs(away) * max(4.0 * clearance, abs(away))
    left = route_path(curve, z0, mid, clearance, depth + 1, roots)
    right = route_path(curve, mid, z1, clearance, depth + 1, roots)
    return left[:-1] + right


def _segment_integrals(P, starts, ends):
    """Integrals of dv/sqrt(P) over the straight segments [starts[k], ends[k]].

    Each segment starts on the principal branch and is integrated by
    composite Simpson, doubling its own sample count from 16 until its value
    stabilizes to REL_TOL.  One level's samples are taken in chunks of about
    LEVEL_SAMPLES values.  Returns (integrals, sqrt(P) at the starts, tracked
    sqrt(P) at the ends); a segment still moving at MAX_SAMPLES has a NaN
    integral.
    """
    a = np.asarray(starts, dtype=complex).ravel()
    b = np.asarray(ends, dtype=complex).ravel()
    val = np.full(len(a), complex("nan"))
    prev = val.copy()
    w_first = np.zeros(len(a), dtype=complex)
    w_last = np.zeros(len(a), dtype=complex)
    todo = np.arange(len(a))
    n = 16
    with np.errstate(all="ignore"):
        while len(todo) and n <= MAX_SAMPLES:
            weights = np.full(n + 1, 2.0)
            weights[1::2] = 4.0
            weights[0] = weights[-1] = 1.0
            steps = np.arange(n + 1, dtype=float)
            done = np.zeros(len(todo), dtype=bool)
            chunk = max(1, LEVEL_SAMPLES // (n + 1))
            for lo in range(0, len(todo), chunk):
                idx = todo[lo:lo + chunk]
                d = b[idx] - a[idx]
                pts = a[idx, None] + steps * (d / n)[:, None]
                pts[:, -1] = b[idx]
                w, coarse = _tracked_sqrt(P(pts))
                est = d / (3.0 * n) * np.sum(weights / w, axis=1)
                ok = ~coarse & (np.abs(est - prev[idx]) <= REL_TOL * np.maximum(1.0, np.abs(est)))
                prev[idx[~coarse]] = est[~coarse]
                val[idx[ok]] = est[ok]
                w_first[idx[ok]] = w[ok, 0]
                w_last[idx[ok]] = w[ok, -1]
                done[lo:lo + chunk] = ok
            todo = todo[~done]
            n *= 2
    return val, w_first, w_last


def path_integral(curve, waypoints, w_start=None):
    """Integral of dv/sqrt(P) along a polyline, branch-tracked end to end.

    Each straight segment is integrated by composite Simpson; the density
    doubles until the value stabilizes to REL_TOL.  Returns (integral, w_end)
    so chained paths can continue the same branch.
    """
    pts = np.asarray([complex(w) for w in waypoints], dtype=complex)
    vals, w_first, w_last = _segment_integrals(curve.discriminant_P(), pts[:-1], pts[1:])
    if np.isnan(vals).any():
        raise RefinePathError("path integral did not stabilize; waypoints too coarse")
    signs = _branch_signs(w_first, w_last, w_start)
    return complex(np.sum(signs * vals)), complex(signs[-1] * w_last[-1])


# -- locus tracing: with period_quadrature, the test oracle for omega ------------------------


def _sqrt_near(P, x, w_prev):
    w = cmath.sqrt(P(x))
    return -w if abs(w + w_prev) < abs(w - w_prev) else w


def trace_lattice_locus(curve, x_start, direction):
    """Follow dx/ds = u * sqrt(P(x)) from x_start until the curve closes.

    `direction` is any complex number parallel to the lattice step in the
    uniformizing plane (the locus is a straight line there); its magnitude is
    ignored.  Returns the ordered samples of one full loop.  A constant P
    (a linear lattice, whose locus is a line) raises RefinePath at once.
    """
    u = complex(direction)
    if u == 0:
        raise ValidationError("locus direction must be nonzero")
    u /= abs(u)
    P = curve.discriminant_P()
    if P.degree() == 0:
        raise RefinePathError("P is constant: the lattice locus is a line and never closes")
    x = complex(x_start)
    w = cmath.sqrt(P(x))
    if abs(w) < 1e-14:
        raise PathThroughBranchPointError("locus start is a branch point")
    step = LOCUS_STEP * (1.0 + abs(x_start))
    samples = [x]
    for it in range(LOCUS_MAX_STEPS):
        ds = step / max(abs(w), 1e-12)
        # RK4 on dx/ds = u * sqrt(P(x)), branch-continued within the stages
        k1 = u * w
        w2 = _sqrt_near(P, x + 0.5 * ds * k1, w)
        k2 = u * w2
        w3 = _sqrt_near(P, x + 0.5 * ds * k2, w)
        k3 = u * w3
        w4 = _sqrt_near(P, x + ds * k3, w)
        k4 = u * w4
        x_new = x + ds / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        w = _sqrt_near(P, x_new, w)
        x = x_new
        samples.append(x)
        if it > 20 and abs(x - complex(x_start)) < 1.5 * step:
            return samples
    raise RefinePathError("lattice locus did not close while tracing")


# -- the predicted rate ---------------------------------------------------------------------


def _period_and_rotation(p, s, a, m):
    """(omega, tau = h / omega) for P of degree 2 (coefficients p), from (s, A / m, m) at nodes
    0 and 1 of the walk (`lattice._lift` of its head).  omega = 2 pi i / sqrt(p2) is the period
    of dv/w around both roots, w = X2(x_n) (y_n - y_{n+1}) sqrt(P) on the walk's sheet, and
    u = -log A / (s sqrt(p2)) a primitive of it (the head's w has the other sign), so the walk's
    step h = u_1 - u_0 needs no path."""
    with np.errstate(all="ignore"):
        return (2j * np.pi / cmath.sqrt(p[2]),
                complex(-s * np.log(a[1] * m[1] / (a[0] * m[0])) / (2j * np.pi)))


def _sqrt_p_at(p, x):
    """sqrt(P(x)) with each term of P = p0 + p1 x + p2 x^2 divided by k^2 before it is formed,
    k^2 the largest of their sizes, so no term underflows or overflows; 0 where P has no term."""
    p0, p1, p2 = p
    ax = np.abs(x)
    k = np.maximum(np.maximum(abs(p2) ** 0.5 * ax, abs(p1) ** 0.5 * np.sqrt(ax)), abs(p0) ** 0.5)

    def over_k(z):          # by parts: numpy's complex division fails where k is subnormal
        z = np.asarray(z, dtype=complex)
        return z.real / k + 1j * (z.imag / k)
    with np.errstate(all="ignore"):
        t = over_k(x)
        v = k * np.sqrt(p2 * t * t + over_k(p1 * t) + over_k(over_k(p0)))
    return np.where(k > 0, v, 0.0)


class RatePredictor:
    """omega, tau and xi in closed form for one logarithmic solution.

    The single-period formula needs P of degree 2 (a P of degree 0 or 1 has no
    period; one of degree 3 or 4 is genus 1, not certified here) and a closed
    node locus, that is a real rotation number tau; otherwise RefinePath is
    raised at once.  With P = p2 x^2 + p1 x + p0 and r = sqrt(p2),
    A(x) = 2 p2 x + p1 + 2 s r sqrt(P(x)) for either sign s gives a primitive
    xi = log(A) / r of dv/sqrt(P).  The two signs' values multiply to
    p1^2 - 4 p2 p0, so the larger of them in modulus takes no branch of sqrt(P):
    it is the outer lift, on zeta's side of the level of the roots of P.  As
    2 pi xi / omega = -i log A,

        log rate(z) = sign (log |A(z)| - log |A(zeta)|),

    with the sign that makes rate <= 1 at node x_0.  No path, branch tracking
    or quadrature is involved.
    """

    def __init__(self, sol):
        if sol.mode != "log" or sol.zeta is None:
            raise ValidationError("predicted rates exist for logarithmic solutions only")
        self.curve = sol.eq.curve
        P = self.curve.discriminant_P()
        if P.degree() != 2:
            raise RefinePathError(f"P has degree {P.degree()}; "
                                  "the single-period rate formula needs degree 2")
        x, w = sol.pair.unprimed._head_span(0, 2)
        self.omega, self.tau = _period_and_rotation(P.coeffs, *_lift(P.coeffs, x, w))
        if not abs(self.tau.imag) <= CLOSURE_TOL:
            raise RefinePathError(
                f"the node locus does not close: Im tau = {self.tau.imag:.2e} per step")
        self.zeta = complex(sol.zeta)
        self._p = P.coeffs
        self._r = cmath.sqrt(self._p[2])
        g_zeta, g_node = self._log_a([self.zeta, x[0]]).real.tolist()
        if g_zeta == -math.inf:
            raise PathThroughBranchPointError(f"zeta = {self.zeta} is a double root of P")
        self._g_zeta = g_zeta
        self.sign = -1.0 if g_node > g_zeta else 1.0

    def _log_a(self, z):
        """log A on the outer lift, elementwise over z; its real part is -inf
        only at a double root of P.

        A is formed at x / m, m = max(1, |x|), by `abel_lifts`, and log m added
        back, so P(x) cannot overflow.  Where P(x) / m^2 falls below
        UNDERFLOW_FLOOR, near a double root of P, its terms may have lost bits
        to underflow: sqrt(P) is formed there at x / k instead, k^2 the size of
        P's largest term.  A single point is evaluated as a 1-d array, since
        numpy rounds 0-d complex products differently: rate(z) then equals its
        grid cell.
        """
        z = np.asarray(z, dtype=complex)
        x = z.reshape(-1)
        m = np.maximum(1.0, np.abs(x))
        u = x / m
        p0, p1, p2 = self._p
        pm = (p2 * u + p1 / m) * u + p0 / m / m
        v = np.sqrt(pm)
        low = np.abs(pm) < UNDERFLOW_FLOOR
        if low.any():
            v[low] = _sqrt_p_at(self._p, x[low]) / m[low]
        plus, minus = abel_lifts(self._p, u, v, m)
        with np.errstate(divide="ignore"):
            outer = np.log(np.where(np.abs(plus) >= np.abs(minus), plus, minus))
        return (np.log(m) + outer).reshape(z.shape)

    def xi(self, z):
        """xi(z) = log(A(z)) / r on the outer lift, elementwise over z."""
        return self._log_a(z) / self._r

    def log_rate(self, z):
        """sign (log |A(z)| - log |A(zeta)|), elementwise over z; NaN where A
        vanishes on both lifts."""
        g = self._log_a(z).real
        return np.where(g == -np.inf, np.nan, self.sign * (g - self._g_zeta))

    def rate(self, z):
        if not cmath.isfinite(z):
            raise ValidationError(f"z = {z} is not finite")
        value = float(np.exp(self.log_rate(z)))
        if math.isnan(value):
            raise PathThroughBranchPointError(
                f"A vanishes on both lifts at {complex(z)}: a double root of P")
        return value


# -- grid sweep for the CLI -------------------------------------------------------------------


def rate_map(sol, re_axis, im_axis, n_min, n_max, smalldiv_threshold=0.05):
    """Rows (re, im, empirical, predicted, flags) over a rectangular z grid.

    Points where a rate cannot be computed (pole hit, too few terms, a double
    root of P) get empty fields and a flag naming the failure; in log mode, a
    predictor that cannot be built flags every cell with its failure.  Each row
    holds what empirical_rate and RatePredictor.rate give at its point, up to
    rounding, but the grid is swept at once, by columns: one term sweep and
    small-divisor scan, one closed-form evaluation of the predicted rates,
    and the flags of each cell looked up by one code.  A bad window, threshold or axis entry
    (one that is not a finite real) is a ValidationError naming it, raised before any work.
    """
    n_min, n_max, smalldiv_threshold = _fit_args(n_min, n_max, smalldiv_threshold)
    res, ims = list(re_axis), list(im_axis)
    for name, axis in (("re_axis", res), ("im_axis", ims)):
        for i, v in enumerate(axis):
            _real(v, f"{name}[{i}]")
    predictor, no_prediction = None, ()
    if sol.mode == "log":
        try:
            predictor = RatePredictor(sol)
        except (ValidationError, RefinePathError, PathThroughBranchPointError) as exc:
            no_prediction = (_flag(type(exc)),)
    zs = np.empty((len(ims), len(res)), dtype=complex)
    zs.real = np.asarray(res, dtype=float)
    zs.imag = np.asarray(ims, dtype=float)[:, None]
    emp, emp_code, emp_flags = _empirical_columns(sol, zs.ravel(), n_min, n_max,
                                                  smalldiv_threshold)
    if predictor is not None:
        rates = np.exp(predictor.log_rate(zs)).ravel()
        singular = np.isnan(rates)
        pred, pred_code = _rates_or_none(rates, singular), singular.astype(int)
        pred_flags = ((), (_flag(PathThroughBranchPointError),))
    else:
        pred, pred_code, pred_flags = [None] * zs.size, 0, (no_prediction,)
    re_col = res * len(ims)
    im_col = itertools.chain.from_iterable(itertools.repeat(im, len(res)) for im in ims)
    flags = [e + p for e in emp_flags for p in pred_flags]
    code = emp_code * len(pred_flags) + pred_code
    return list(zip(re_col, im_col, emp, pred, map(flags.__getitem__, code.tolist())))


def _csv_rate(v):
    return "" if v is None or not math.isfinite(v) else repr(float(v))


def _rate_texts(values):
    """The CSV fields of one rate column and the rows whose rate is not finite.

    The finite rates are formatted in one map and a column of None alone is
    blank; None and non-finite values go one by one through _csv_rate.
    """
    if values.count(None) == len(values):
        return [""] * len(values), []
    rates = np.array(values, dtype=float)       # None reads as NaN
    texts = list(map(repr, rates.tolist()))
    nonfinite = []
    for i in np.flatnonzero(~np.isfinite(rates)).tolist():
        texts[i] = _csv_rate(values[i])
        if values[i] is not None:
            nonfinite.append(i)
    return texts, nonfinite


def _float_texts(values):
    """repr(float(v)) for each v of values, each distinct value formatted once.

    0.0 and -0.0 are one dict key, so rows whose value is zero are formatted
    on their own.
    """
    text = {v: repr(float(v)) for v in set(values)}
    texts = list(map(text.__getitem__, values))
    if 0.0 in text:
        for i in np.flatnonzero(np.asarray(values, dtype=float) == 0.0).tolist():
            texts[i] = repr(float(values[i]))
    return texts


def write_rate_map_csv(rows, stream):
    """Header plus one line per rate_map row; LF line endings.

    A missing rate is an empty field.  A rate that is not finite is an empty
    field too, and its row gains the flag NonFinite.  The fields are formatted
    by columns, and the text is written at once.
    """
    header = "re_z,im_z,empirical_rate,predicted_rate,flags\n"
    columns = list(zip(*rows))
    if not columns:
        stream.write(header)
        return
    re, im, emp, pred, flags = columns
    (emp_s, emp_bad), (pred_s, pred_bad) = _rate_texts(emp), _rate_texts(pred)
    flag_s = list(map(";".join, flags))
    for i in set(emp_bad + pred_bad):
        flag_s[i] = ";".join((*flags[i], "NonFinite"))
    stream.write(header + "".join(map("{},{},{},{},{}\n".format, _float_texts(re),
                                      _float_texts(im), emp_s, pred_s, flag_s)))
