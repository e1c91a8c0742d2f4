"""Divided-difference and mean operators on a biquadratic curve.

For the two y-roots phi(x), psi(x) of F(x, .) = 0:

    (D f)(x) = (f(psi) - f(phi)) / (psi - phi)
    (M f)(x) = (f(phi) + f(psi)) / 2

Both are symmetric in the root pair.  Applied to a rational function they give
rational functions again, built here exactly by reducing modulo the curve's
quadratic in y and the identities phi + psi = -X1/X2, phi * psi = X0/X2 (no
sampling involved).

The interpolation bases over a pair of lattices on the same curve are

    Xb_n(z) = (z - x_0)...(z - x_{n-1}) / ((z - x'_1)...(z - x'_n))
    Yb_n(z) = (z - y_0)...(z - y_{n-1}) / ((z - y'_1)...(z - y'_n))

and D Yb_n = C_n X2 Xb_{n-1} / ((x - x'_0)(x - x'_n)) for a constant C_n with
four equivalent closed forms, while M Yb_n has the same shape with a quadratic
polynomial D_n in place of C_n X2.
"""
from __future__ import annotations

import cmath
import random

import numpy as np

from .errors import (
    BranchPointEvaluationError,
    MethodDegenerateError,
    NoValidSamplesError,
    PoleEvaluationError,
    ValidationError,
    _order,
)
from .poly import Polynomial, RationalFunction

C_METHODS = ("xm1", "xn1", "resp0", "respn")
POLE_TOL = 1e-13
PAIR_BATCH = 1 << 12     # z-pole gaps per batch of pole_hits


def pole_hit(z, pole):
    """True when z is within POLE_TOL * |pole| of a non-removable pole (only z == 0 hits 0)."""
    return abs(z - pole) <= POLE_TOL * abs(pole)


def _all_pairs(zs, poles):
    """pole_hits for 1-D zs by every gap to every pole, in batches of about PAIR_BATCH gaps."""
    radius = POLE_TOL * np.hypot(poles.real, poles.imag)
    hit = np.zeros(zs.shape, dtype=bool)
    step = max(1, PAIR_BATCH // max(zs.size, 1))
    for lo in range(0, len(poles), step):
        gap = zs[:, None] - poles[lo:lo + step]
        hit |= (np.hypot(gap.real, gap.imag) <= radius[lo:lo + step]).any(axis=-1)
    return hit


def pole_hits(zs, poles):
    """For every entry of the complex array zs, whether pole_hit holds for any of poles.

    The results are identical to pole_hit's: np.hypot rounds like
    abs(complex) (np.abs does not) and a comparison rounds nothing.  A hit
    has |Re z - Re p| <= |z - p| <= POLE_TOL |p| < 2 POLE_TOL |z|, so with the
    poles sorted by real part each z meets only the poles in the window
    |Re p - Re z| <= 2 POLE_TOL |z|, which searchsorted finds, and the rule
    is applied to those pairs, in batches of about PAIR_BATCH or fewer.  A z
    or a pole with a NaN, an infinity or an overflowing modulus is checked
    against every pole or every z.
    """
    zs = np.asarray(zs, dtype=complex)
    flat = zs.ravel()
    poles = np.ravel(np.asarray(poles, dtype=complex))
    z_abs = np.hypot(flat.real, flat.imag)
    p_abs = np.hypot(poles.real, poles.imag)
    odd_z, odd_p = ~np.isfinite(z_abs), ~np.isfinite(p_abs)
    hit = _all_pairs(flat, poles[odd_p])
    poles, p_abs = poles[~odd_p], p_abs[~odd_p]
    hit[odd_z] |= _all_pairs(flat[odd_z], poles)
    order = np.argsort(poles.real)
    poles, radius = poles[order], POLE_TOL * p_abs[order]
    reach = 2.0 * POLE_TOL * z_abs
    lo = np.searchsorted(poles.real, flat.real - reach, "left")
    counts = np.searchsorted(poles.real, flat.real + reach, "right") - lo
    counts[odd_z] = 0                   # they met every pole above
    near = np.flatnonzero(counts)
    step = max(1, PAIR_BATCH // max(counts.max(initial=0), 1))
    for i in range(0, len(near), step):
        zi = near[i:i + step]
        cnt = counts[zi]
        pj = np.arange(cnt.sum()) + np.repeat(lo[zi] - np.cumsum(cnt) + cnt, cnt)
        zi = np.repeat(zi, cnt)
        gap = flat[zi] - poles[pj]
        hit[zi[np.hypot(gap.real, gap.imag) <= radius[pj]]] = True
    return hit.reshape(zs.shape)


def _root_pair(curve, x):
    pair = curve.y_roots(x)
    scale = max(1.0, abs(pair.lo), abs(pair.hi))
    if abs(pair.hi - pair.lo) <= 1e-12 * scale:
        raise BranchPointEvaluationError(f"branches coincide at x={x} (P(x)=0)")
    return pair


def divided_difference(curve, f, x):
    """(D f)(x) = (f(psi) - f(phi))/(psi - phi); independent of root labeling."""
    pair = _root_pair(curve, x)
    return (f(pair.hi) - f(pair.lo)) / (pair.hi - pair.lo)


def mean_value(curve, f, x):
    """(M f)(x) = (f(phi) + f(psi))/2."""
    pair = curve.y_roots(x)
    return 0.5 * (f(pair.lo) + f(pair.hi))


# -- exact rational images -----------------------------------------------------------
#
# On the root pair over x every polynomial u reduces modulo the curve's quadratic
# X2 t^2 + X1 t + X0: one Horner pass in t that rewrites X2 t^2 = -(X1 t + X0) gives
# u(t) = (A_u(x) + B_u(x) t) / X2^e_u for t = phi or psi, taking one more X2 only at the
# steps where B_u is nonzero (so e_u <= max(deg u - 1, 0)).  For f = p/q, with
# phi + psi = -X1/X2 and phi psi = X0/X2:
#   (D f)(x) = [p(psi)q(phi) - p(phi)q(psi)] / ((psi - phi) N) = (B_p A_q - A_p B_q) / N,
#   (M f)(x) = S(p, q) / N,   N = q(phi) q(psi) = S(q, q),
#   S(u, v) = [u(phi)v(psi) + u(psi)v(phi)]/2
#           = A_u A_v + (A_u B_v + B_u A_v)(phi + psi)/2 + B_u B_v phi psi,
# each over X2^(e_u + e_v), and S takes one more X2 only when a B is nonzero.  Balancing
# the X2 powers of numerator and denominator gives the exact image (no sampling).


def _reduce(curve, u):
    """(A, B, e) with u(t) = (A(x) + B(x) t) / X2(x)^e for t either y-root over x."""
    x0, x1, x2 = curve.x_view()
    a, b, x2e, e = Polynomial(u.coeffs[-1:]), Polynomial(), Polynomial((1.0,)), 0
    for c in reversed(u.coeffs[:-1]):
        if b.is_zero():
            a, b = x2e * c, a
        else:
            x2e, e = x2e * x2, e + 1
            a, b = x2e * c - x0 * b, x2 * a - x1 * b
    return a, b, e


def _half_sum(curve, ru, rv):
    """(S, e) with [u(phi)v(psi) + u(psi)v(phi)]/2 = S(x) / X2(x)^e, u, v as reduced."""
    x0, x1, x2 = curve.x_view()
    (au, bu, eu), (av, bv, ev) = ru, rv
    if bu.is_zero() and bv.is_zero():
        return au * av, eu + ev
    return x2 * (au * av) - x1 * ((au * bv + bu * av) * 0.5) + x0 * (bu * bv), eu + ev + 1


def _image(curve, f, mean):
    """The exact rational image of f = p/q under M (mean) or D."""
    if isinstance(f, Polynomial):
        f = RationalFunction(f, 1.0)
    if not isinstance(f, RationalFunction):
        raise ValidationError("expected Polynomial or RationalFunction")
    rp, rq = _reduce(curve, f.numer), _reduce(curve, f.denom)
    den, e_den = _half_sum(curve, rq, rq)
    if mean:
        num, e_num = _half_sum(curve, rp, rq)
    else:
        (ap, bp, ep), (aq, bq, eq) = rp, rq
        num, e_num = bp * aq - ap * bq, ep + eq
    x2 = curve.x_view()[2]
    if e_den >= e_num:
        return RationalFunction(num * x2 ** (e_den - e_num), den)
    return RationalFunction(num, den * x2 ** (e_num - e_den))


def divided_difference_rational(curve, f):
    """Exact rational image of f under D (carries the X2 factor)."""
    return _image(curve, f, mean=False)


def mean_rational(curve, f):
    """Exact rational image of f under M."""
    return _image(curve, f, mean=True)


# -- lattice pair and interpolation bases -------------------------------------------------


def basis_products(z, zeros, poles):
    """[1, B_1(z), ..., B_n(z)] for B_k(z) = prod_{j<k} (z - zeros[j]) / (z - poles[j]).

    The one running product behind Xb_n, Yb_n, every C_n route and the
    partial sums: Python complex arithmetic, factors in index order, and
    PoleEvaluationError before any factor whose pole z hits (pole_hit's test, inline).
    """
    v = 1.0 + 0j
    out = [v]
    for zero, pole in zip(zeros, poles):
        if abs(z - pole) <= POLE_TOL * abs(pole):
            raise PoleEvaluationError(z)
        v *= (z - zero) / (z - pole)
        out.append(v)
    return out


class BasisPair:
    """Two elliptic lattices on one curve: the nodes (x_n, y_n) and poles (x'_n, y'_n).

    It holds no state of its own besides the two lattices: a point is read from
    `unprimed` or `primed`, a range through their `values` or `span`, and a
    basis function reads its zeros and poles once, when it is made.
    """

    def __init__(self, unprimed, primed):
        if unprimed.curve is not primed.curve:
            a = np.array(unprimed.curve.c)
            b = np.array(primed.curve.c)
            na, nb = np.abs(a).max(), np.abs(b).max()
            if not np.allclose(a / na, b / nb, atol=1e-12) and \
               not np.allclose(a / na, -(b / nb), atol=1e-12):
                raise ValidationError("lattices live on different curves")
        self.curve = unprimed.curve
        self.unprimed = unprimed
        self.primed = primed

    def x_basis(self, n):
        return BasisFunction(self, n, "x")

    def y_basis(self, n):
        return BasisFunction(self, n, "y")


class BasisFunction:
    """Xb_n or Yb_n: zeros at the first n nodes, poles at primed indices 1..n.

    The zeros and poles are read from the lattices once, when it is made.
    """

    __slots__ = ("n", "zeros", "poles")

    def __init__(self, pair, n, kind):
        n = _order(n, "n", lo=0)
        if kind not in ("x", "y"):
            raise ValidationError("basis kind must be 'x' or 'y'")
        axis = 0 if kind == "x" else 1
        self.n = n
        self.zeros = pair.unprimed.values(0, n)[axis]
        self.poles = pair.primed.values(1, n + 1)[axis]

    def __call__(self, z):
        return basis_products(z, self.zeros, self.poles)[-1]

    def as_rational(self):
        return RationalFunction(Polynomial.from_roots(self.zeros),
                                Polynomial.from_roots(self.poles))


# -- the constants C_n and the quadratic values D_n ---------------------------------------


def _guard(label, value):
    if abs(value) <= 1e-280:
        raise MethodDegenerateError(f"{label} ~ 0 ({abs(value):.3e})")
    return value


def diff_constants(pair, N):
    """[C_0, ..., C_N] by the x_{-1} route, in one pass over both lattices.

    C_n = -Yb_n(y_{-1}) (x_{-1} - x'_0)(x_{-1} - x'_n)
          / ((y_0 - y_{-1}) X2(x_{-1}) Xb_{n-1}(x_{-1})),
    with Yb_n(y_{-1}) and Xb_{n-1}(x_{-1}) from one basis_products call each.
    """
    N = _order(N, "N", lo=0)
    cns = [0j]
    if N == 0:
        return cns
    xs, ys = pair.unprimed.values(-1, N)        # index -1 .. N-1
    xps, yps = pair.primed.values(0, N + 1)     # index 0 .. N
    xm1, ym1 = xs[0], ys[0]
    yb = basis_products(ym1, ys[1:], yps[1:])
    xb = basis_products(xm1, xs[1:N], xps[1:N])
    head = _guard("y0 - y_{-1}", ys[1] - ym1) * pair.curve.x_view()[2](xm1)
    for n in range(1, N + 1):
        num = -yb[n] * (xm1 - xps[0]) * (xm1 - xps[n])
        cns.append(num / _guard("C_n(xm1) denominator", head * xb[n - 1]))
    return cns


def _points(pair, n):
    """({point: (z, s, t)}, (xs, ys), (xps, yps)) from one range read of each lattice.

    s, t are the y-roots over z.  At the nodes x_{-1}, x_{n-1}, t is a zero of
    Yb_n; at x'_0, x'_n, s is a pole.  xs, ys run over index -1..n, xps, yps 0..n+1.
    """
    xs, ys = pair.unprimed.values(-1, n + 1)
    xps, yps = pair.primed.values(0, n + 2)
    table = {"xm1": (xs[0], ys[0], ys[1]), "xn1": (xs[n], ys[n + 1], ys[n]),
             "xp0": (xps[0], yps[1], yps[0]), "xpn": (xps[n], yps[n], yps[n + 1])}
    return table, (xs, ys), (xps, yps)


def _cn_at(pair, n, method):
    """C_n by the x_{n-1} or a residue route: a numerator over (s - t) X2(z) Xb_{n-1}(z).

    At x_{n-1} it is Yb_n(s) (z - x'_0)(z - x'_n); at x'_0 or x'_n it is R (z - x'_far)
    over dy/dx at (z, s), R the residue of Yb_n at s and x'_far the other end.  R
    pairs each zero but y_{n-1} with a pole, so it does not overflow where C_n is finite.
    """
    table, (xs, ys), (xps, yps) = _points(pair, n)
    if method == "xn1":
        z, s, t = table["xn1"]
        num = basis_products(s, ys[1:n + 1], yps[1:n + 1])[-1] * (z - xps[0]) * (z - xps[n])
    else:
        (z, s, t), far, poles = ((table["xp0"], xps[n], yps[2:n + 1]) if method == "resp0"
                                 else (table["xpn"], xps[0], yps[1:n]))
        dydx = _guard("dy/dx", pair.curve.implicit_dy_dx(z, s))
        try:
            res = basis_products(s, ys[1:n], poles)[-1] * (s - ys[n])
        except PoleEvaluationError as exc:
            raise MethodDegenerateError(f"C_{n}({method}): poles collide at {exc.at}") from None
        num = res / dydx * (z - far)
    den = _guard("s - t", s - t) * pair.curve.x_view()[2](z) * \
        basis_products(z, xs[1:n], xps[1:n])[-1]
    return num / _guard(f"C_n({method}) denominator", den)


def diff_constant(pair, n, method="xm1"):
    """C_n in  D Yb_n = C_n X2 Xb_{n-1} / ((x - x'_0)(x - x'_n)).

    method: 'xm1' evaluates at x_{-1}, 'xn1' at x_{n-1} (both derivative-free),
    'resp0'/'respn' use the residues at x'_0 / x'_n (they need the implicit
    branch derivative), 'all' returns {method: value} for the non-degenerate
    ones plus their relative spread, requiring at least two to succeed (a route
    whose value is not finite is degenerate).
    """
    n = _order(n, "n", lo=0)
    if n == 0:
        return 0j if method != "all" else ({m: 0j for m in C_METHODS}, 0.0)
    if method == "all":
        values = {}
        for m in C_METHODS:
            try:
                values[m] = diff_constant(pair, n, m)
            except MethodDegenerateError:
                continue
        if len(values) < 2:
            raise MethodDegenerateError(f"fewer than two usable C_{n} routes")
        vs = list(values.values())
        mid = max(abs(v) for v in vs)
        spread = max(abs(a - b) for a in vs for b in vs) / mid if mid else 0.0
        return values, spread
    if method not in C_METHODS:
        raise ValidationError(f"unknown C_n method {method!r}")
    cn = diff_constants(pair, n)[n] if method == "xm1" else _cn_at(pair, n, method)
    if not cmath.isfinite(cn):
        raise MethodDegenerateError(f"C_{n} by route {method} is not finite ({cn})")
    return cn


def mean_poly_direct(pair, n, z):
    """D_n(z) from the definition: (M Yb_n)(z) (z - x'_0)(z - x'_n) / Xb_{n-1}(z)."""
    if n == 0:
        return 1.0 + 0j
    mv = mean_value(pair.curve, pair.y_basis(n), z)
    xb = pair.x_basis(n - 1)(z)
    if abs(xb) <= 1e-280:
        raise MethodDegenerateError("Xb_{n-1}(z) ~ 0 in the direct D_n evaluation")
    return mv * (z - pair.primed.x(0)) * (z - pair.primed.x(n)) / xb


def mean_poly_value(pair, n, at="xp0"):
    """Closed-form D_n value at one of the four distinguished points: C_n X2(z) (s - t) / 2.

    at: 'xm1' -> x_{-1}, 'xn1' -> x_{n-1}, 'xp0' -> x'_0, 'xpn' -> x'_n.  The
    value is cross-checked against mean_poly_direct at z unless that degenerates.
    """
    if n == 0:
        return 1.0 + 0j
    cn = diff_constant(pair, n)
    table = _points(pair, n)[0]
    if at not in table:
        raise ValidationError(f"unknown D_n point {at!r}")
    z, s, t = table[at]
    val = 0.5 * cn * pair.curve.x_view()[2](z) * (s - t)
    try:
        direct = mean_poly_direct(pair, n, z)
    except (MethodDegenerateError, BranchPointEvaluationError, PoleEvaluationError):
        return val
    if abs(direct - val) > 1e-6 * max(1.0, abs(val)):
        raise MethodDegenerateError(
            f"D_{n}({at}) closed form {val} vs direct {direct}")
    return val


def identity_samples(pair, n, count=20, seed=7):
    """Deterministic sample points on an annulus avoiding lattice loci and poles.

    Used by the identity checks; a fixed seed keeps property tests reproducible.  n and
    count >= 1 are integers, or a ValidationError names them."""
    n, count = _order(n, "n"), _order(count, "count", lo=1)
    pts = pair.unprimed.values(-1, n + 1)[0] + pair.primed.values(0, n + 1)[0]
    center = sum(pts) / len(pts)
    rad = max(abs(p - center) for p in pts) + 1.0
    disc = pair.curve.discriminant_P()
    branch_pts = disc.roots() if disc.degree() >= 1 else []
    avoid = pts + [complex(r) for r in branch_pts]
    rng = random.Random(seed)
    out = []
    attempts = 0
    while len(out) < count and attempts < 200 * count:
        attempts += 1
        rho = rad * (0.3 + 1.5 * rng.random())
        ang = 2.0 * np.pi * rng.random()
        z = center + rho * complex(np.cos(ang), np.sin(ang))
        if min(abs(z - a) for a in avoid) > 0.05 * rad:
            out.append(z)
    if len(out) < count:
        raise NoValidSamplesError("could not place identity samples away from loci")
    return out


def verify_diff_basis_identity(pair, n, samples):
    """Max relative error of  D Yb_n = C_n X2 Xb_{n-1} / ((x-x'_0)(x-x'_n))  on samples."""
    if n == 0:
        return 0.0
    cn = diff_constant(pair, n)
    x2 = pair.curve.x_view()[2]
    yb = pair.y_basis(n)
    xb = pair.x_basis(n - 1)
    xp0, xpn = pair.primed.x(0), pair.primed.x(n)
    errs = []
    for z in samples:
        try:
            lhs = divided_difference(pair.curve, yb, z)
            rhs = cn * x2(z) * xb(z) / ((z - xp0) * (z - xpn))
        except (BranchPointEvaluationError, PoleEvaluationError, ZeroDivisionError):
            continue
        errs.append(abs(lhs - rhs) / max(1.0, abs(lhs), abs(rhs)))
    if not errs:
        raise NoValidSamplesError("all samples degenerate for the basis identity")
    return float(np.max(errs))
