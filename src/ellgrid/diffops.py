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
from collections.abc import Callable

import numpy as np

from .errors import (
    BranchPointEvaluationError,
    EllgridError,
    Frozen,
    MethodDegenerateError,
    NoValidSamplesError,
    PoleEvaluationError,
    ValidationError,
    VerticalTangentError,
    _finite,
    _instance,
    _list,
    _order,
)
from .curve import BiquadraticCurve
from .lattice import LatticePair
from .poly import Polynomial, RationalFunction

C_METHODS = ("xm1", "xn1", "resp0", "respn")
DEGENERATE = (MethodDegenerateError, PoleEvaluationError, VerticalTangentError)   # in 'all'
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
    hit = _all_pairs(flat, poles[odd_p]) if odd_p.any() else np.zeros(flat.shape, dtype=bool)
    poles, p_abs = poles[~odd_p], p_abs[~odd_p]
    if odd_z.any():
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
        raise BranchPointEvaluationError(f"branches coincide at x={x} (P(x)=0)", at=x)
    return pair


def divided_difference(curve, f, x):
    """(D f)(x) = (f(psi) - f(phi))/(psi - phi); independent of root labeling."""
    _instance(curve, BiquadraticCurve, "curve"), _instance(f, Callable, "f")
    pair = _root_pair(curve, _finite(x, "x"))
    return (f(pair.hi) - f(pair.lo)) / (pair.hi - pair.lo)


def mean_value(curve, f, x):
    """(M f)(x) = (f(phi) + f(psi))/2."""
    _instance(curve, BiquadraticCurve, "curve"), _instance(f, Callable, "f")
    pair = curve.y_roots(_finite(x, "x"))
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
    _instance(curve, BiquadraticCurve, "curve")
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


def _prefix(z, zeros, poles):
    """[1, B_1(z), ..., B_k(z)] for B_j(z) = prod_{i<j} (z - zeros[i]) / (z - poles[i]), k the
    factors before the first pole z hits (pole_hit's test, inline), so that an order that takes
    factor k + 1 meets that pole.

    The one running product behind Xb_n, Yb_n, every C_n route and the partial sums: Python
    complex arithmetic, factors in index order.
    """
    v, tol = 1.0 + 0j, POLE_TOL
    out = [v]
    append = out.append
    for zero, pole in zip(zeros, poles):
        gap = z - pole
        if abs(gap) <= tol * abs(pole):
            break
        v *= (z - zero) / gap
        append(v)
    return out


def basis_products(z, zeros, poles):
    """[1, B_1(z), ..., B_n(z)] by _prefix, or PoleEvaluationError where it stopped short."""
    out = _prefix(z, zeros, poles)
    if len(out) <= min(len(zeros), len(poles)):
        raise PoleEvaluationError(z)
    return out


class BasisPair(Frozen):
    """Two elliptic lattices on one curve: the nodes (x_n, y_n) and poles (x'_n, y'_n).

    It holds no state of its own besides the two lattices: a point is read from
    `unprimed` or `primed`, a range through their `values` or `span`, and a
    basis function reads its zeros and poles once, when it is made.
    """

    def __init__(self, unprimed, primed):
        for name, lat in (("unprimed", unprimed), ("primed", primed)):
            _instance(lat, LatticePair, name)
        if unprimed.curve is not primed.curve:
            a = np.array(unprimed.curve.c)
            b = np.array(primed.curve.c)
            na, nb = np.abs(a).max(), np.abs(b).max()
            if not np.allclose(a / na, b / nb, atol=1e-12) and \
               not np.allclose(a / na, -(b / nb), atol=1e-12):
                raise ValidationError("lattices live on different curves")
        self._set(curve=unprimed.curve, unprimed=unprimed, primed=primed)


class BasisFunction(Frozen):
    """Xb_n or Yb_n: zeros at the first n nodes, poles at primed indices 1..n.

    The zeros and poles are read from the lattices once, when it is made.
    """

    __slots__ = ("n", "zeros", "poles")

    def __init__(self, pair, n, kind):
        _instance(pair, BasisPair, "pair")
        n = _order(n, "n", lo=0)
        if kind not in ("x", "y"):
            raise ValidationError("basis kind must be 'x' or 'y'")
        axis = 0 if kind == "x" else 1
        self._set(n=n, zeros=pair.unprimed.values(0, n)[axis],
                  poles=pair.primed.values(1, n + 1)[axis])

    def __call__(self, z):
        return basis_products(_finite(z, "z"), self.zeros, self.poles)[-1]

    def as_rational(self):
        return RationalFunction(Polynomial.from_roots(self.zeros),
                                Polynomial.from_roots(self.poles))


# -- the constants C_n and the quadratic values D_n ---------------------------------------


def _guard(label, value, n):
    if abs(value) <= 1e-280:
        raise MethodDegenerateError(f"{label} ~ 0 ({abs(value):.3e})", index=n)
    return value


def _xm1_route(curve, reads, N):
    """(cns, stop): [C_0, ..., C_k] by the x_{-1} route, from reads = (xs, ys, xps, yps) over the
    indices from -1 and 0 on, k < N only where order k + 1 meets a pole (Yb_n's first, then
    Xb_{n-1}'s) or a guard, whose error is stop (None where k = N).  C_n = -Yb_n(y_{-1})
    (x_{-1} - x'_0)(x_{-1} - x'_n) / ((y_0 - y_{-1}) X2(x_{-1}) Xb_{n-1}(x_{-1})), each basis
    a prefix of one running product (_prefix)."""
    xs, ys, xps, yps = reads
    xm1, ym1, xp0 = xs[0], ys[0], xps[0]
    yb, xb = _prefix(ym1, ys[1:N + 1], yps[1:N + 1]), _prefix(xm1, xs[1:N], xps[1:N])
    k, cns = min(len(yb) - 1, len(xb)), [0j]
    try:
        head = _guard("y0 - y_{-1}", ys[1] - ym1, 1) * curve.x_view()[2](xm1) if k else None
        gap = xm1 - xp0
        for n in range(1, k + 1):
            num = -yb[n] * gap * (xm1 - xps[n])
            cns.append(num / _guard("C_n(xm1) denominator", head * xb[n - 1], n))
    except EllgridError as exc:
        return cns, exc
    return cns, None if k == N else PoleEvaluationError(ym1 if len(yb) <= k + 1 else xm1)


def diff_constants(pair, N):
    """[C_0, ..., C_N] by the x_{-1} route (_xm1_route), in one pass over one read per lattice;
    the first order that meets a pole or a guard raises its error."""
    N = _order(N, "N", lo=0)
    if N == 0:
        return [0j]
    reads = pair.unprimed.values(-1, N) + pair.primed.values(0, N + 1)
    cns, stop = _xm1_route(pair.curve, reads, N)
    if stop is not None:
        raise stop
    return cns


def _raised(outcome):
    """An outcome of _cn_routes, raised where it is an error."""
    if isinstance(outcome, EllgridError):
        raise outcome
    return outcome


def _points(reads, n):
    """The one table of the four points of C_n and D_n at order n: {point: (z, s, t)}, z = x_{-1},
    x_{n-1}, x'_0 or x'_n and s, t the y-roots over z, t a zero of Yb_n at the nodes and s a pole
    of Yb_n at x'_0 and x'_n; reads = (xs, ys, xps, yps) over the indices from -1 and 0 on."""
    xs, ys, xps, yps = reads
    return {"xm1": (xs[0], ys[0], ys[1]), "xn1": (xs[n], ys[n + 1], ys[n]),
            "xp0": (xps[0], yps[1], yps[0]), "xpn": (xps[n], yps[n], yps[n + 1])}


def _cn_routes(curve, reads, orders, methods):
    """{method: C_n by that route, or the error it raises at n} for each n of orders in turn.

    C_n = num / ((s - t) X2(z) Xb_{n-1}(z)) at a point (z, s, t) of _points.  At the nodes x_{-1}
    (with s, t swapped) and x_{n-1}, num = Yb_n(s) (z - x'_0)(z - x'_n); at x'_0 or x'_n, num =
    R (z - far) / dy/dx(z, s), far the other of x'_0 and x'_n and R the residue of Yb_n at s,
    which pairs each zero but y_{n-1} with a pole, so it does not overflow where C_n is finite.
    One body serves both residues: at x'_0 the poles are y'_2 .. y'_n, at x'_n y'_1 .. y'_{n-1}.
    The x_{-1} route is _xm1_route's, whose stop every order past its last raises; the others
    form their products at each order (basis_products) and carry nothing across orders, so a
    pole or a guard fails only the orders that meet it.  reads: _cn_orders'.
    """
    xs, ys, xps, yps = reads
    x2 = curve.x_view()[2]
    if "xm1" in methods:
        cns_m1, stop_m1 = _xm1_route(curve, reads, orders[-1])

    def route(m, n):
        if m == "xm1":
            if n < len(cns_m1):
                return cns_m1[n]
            raise stop_m1
        table = _points(reads, n)
        if m == "xn1":
            z, s, t = table["xn1"]
            num = basis_products(s, ys[1:n + 1], yps[1:n + 1])[-1] * (z - xps[0]) * (z - xps[n])
        else:
            (z, s, t), far, poles = ((table["xp0"], xps[n], yps[2:n + 1]) if m == "resp0"
                                     else (table["xpn"], xps[0], yps[1:n]))
            dydx = _guard("dy/dx", curve.implicit_dy_dx(z, s), n)
            try:
                prod = basis_products(s, ys[1:n], poles)[-1]
            except PoleEvaluationError:
                raise MethodDegenerateError(
                    f"C_{n}({m}): poles collide at {s}", index=n) from None
            num = prod * (s - ys[n]) / dydx * (z - far)
        den = _guard("s - t", s - t, n) * x2(z) * basis_products(z, xs[1:n], xps[1:n])[-1]
        return num / _guard(f"C_n({m}) denominator", den, n)

    for n in orders:
        out = {}
        for m in methods:
            try:
                out[m] = route(m, n)
                if not cmath.isfinite(out[m]):
                    raise MethodDegenerateError(
                        f"C_{n} by route {m} is not finite ({out[m]})", index=n)
            except EllgridError as exc:
                out[m] = exc
        yield out


def _cn_orders(pair, orders, methods=C_METHODS):
    """_cn_routes over one values read per lattice: x_n, y_n for n = -1 .. N - 1 + ahead and x'_n,
    y'_n for n = 0 .. N + ahead, N the last of orders, ahead 0 for the x_{-1} route alone and 1
    otherwise.  A walk stop in that range raises here, before any order.  Where other routes
    join the x_{-1} route, its range is read first, so that a stop raises what it meets."""
    N, ahead = orders[-1], int(methods != ("xm1",))
    if ahead and "xm1" in methods:
        pair.unprimed.values(-1, N), pair.primed.values(0, N + 1)
    reads = pair.unprimed.values(-1, N + ahead) + pair.primed.values(0, N + 1 + ahead)
    return _cn_routes(pair.curve, reads, orders, methods)


def _agreements(pair, orders):
    """diff_constant(pair, n, "all") for each n of orders in turn, from one read per lattice."""
    for n, routes in zip(orders, _cn_orders(pair, orders)):
        values = {m: _raised(cn) for m, cn in routes.items() if not isinstance(cn, DEGENERATE)}
        if len(values) < 2:
            raise MethodDegenerateError(f"fewer than two usable C_{n} routes", index=n)
        vs = list(values.values())
        mid = max(abs(v) for v in vs)
        yield values, (max(abs(a - b) for a in vs for b in vs) / mid if mid else 0.0)


def diff_constant(pair, n, method="xm1"):
    """C_n in  D Yb_n = C_n X2 Xb_{n-1} / ((x - x'_0)(x - x'_n)).

    method: 'xm1' evaluates at x_{-1}, 'xn1' at x_{n-1} (both derivative-free),
    'resp0'/'respn' use the residues at x'_0 / x'_n (they need the implicit
    branch derivative), 'all' returns {method: value} for the non-degenerate
    ones plus their relative spread, requiring at least two.  In 'all' a route
    is degenerate where its value is not finite, or where it raises
    MethodDegenerateError, PoleEvaluationError or VerticalTangentError; a single
    route raises them, and a point off the curve raises in both.
    """
    _instance(pair, BasisPair, "pair")
    n = _order(n, "n", lo=0)
    if method not in C_METHODS and method != "all":
        raise ValidationError(f"unknown C_n method {method!r}")
    if n == 0:
        return 0j if method != "all" else ({m: 0j for m in C_METHODS}, 0.0)
    if method == "all":
        return next(_agreements(pair, [n]))
    return _raised(next(_cn_orders(pair, [n], (method,)))[method])


def mean_poly_direct(pair, n, z):
    """D_n(z) from the definition: (M Yb_n)(z) (z - x'_0)(z - x'_n) / Xb_{n-1}(z)."""
    _instance(pair, BasisPair, "pair")
    n, z = _order(n, "n", lo=0), _finite(z, "z")
    if n == 0:
        return 1.0 + 0j
    mv = mean_value(pair.curve, BasisFunction(pair, n, "y"), z)
    xb = BasisFunction(pair, n - 1, "x")(z)
    if abs(xb) <= 1e-280:
        raise MethodDegenerateError("Xb_{n-1}(z) ~ 0 in the direct D_n evaluation")
    return mv * (z - pair.primed.x(0)) * (z - pair.primed.x(n)) / xb


def mean_poly_value(pair, n, at="xp0"):
    """Closed-form D_n value at one of the four distinguished points: C_n X2(z) (s - t) / 2.

    at: 'xm1' -> x_{-1}, 'xn1' -> x_{n-1}, 'xp0' -> x'_0, 'xpn' -> x'_n, read from _points.  The
    value is cross-checked against mean_poly_direct at z unless that degenerates.
    """
    n = _order(n, "n", lo=0)
    if at not in ("xm1", "xn1", "xp0", "xpn"):
        raise ValidationError(f"unknown D_n point {at!r}")
    if n == 0:
        return 1.0 + 0j
    cn = diff_constant(pair, n)
    z, s, t = _points(pair.unprimed.values(-1, n + 1) + pair.primed.values(0, n + 2), n)[at]
    val = 0.5 * cn * pair.curve.x_view()[2](z) * (s - t)
    try:
        direct = mean_poly_direct(pair, n, z)
    except (MethodDegenerateError, BranchPointEvaluationError, PoleEvaluationError):
        return val
    if abs(direct - val) > 1e-6 * max(1.0, abs(val)):
        raise MethodDegenerateError(f"D_{n}({at}) closed form {val} vs direct {direct}", index=n)
    return val


def identity_samples(pair, n, count=20, seed=7):
    """Deterministic sample points on an annulus avoiding lattice loci and poles.

    Used by the identity checks; a fixed seed keeps property tests reproducible.  pair is a
    BasisPair, n >= 0, count >= 1 and seed are integers, or a ValidationError names them."""
    _instance(pair, BasisPair, "pair")
    n, count, seed = _order(n, "n", lo=0), _order(count, "count", lo=1), _order(seed, "seed")
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


def _identities(pair, orders, samples):
    """verify_diff_basis_identity(pair, n, samples) for each n of orders in turn, from one read per
    lattice: C_n by _cn_routes, and per sample its root pair once and Yb_n at both roots and
    Xb_{n-1}(z) as prefixes of one running product each, formed after the first order's C_n."""
    curve, N = pair.curve, orders[-1]
    x2, reads = curve.x_view()[2], pair.unprimed.values(-1, N) + pair.primed.values(0, N + 1)
    xs, ys, xps, yps = reads

    def products(z):
        try:
            roots = _root_pair(curve, z)
        except BranchPointEvaluationError:
            return None
        return (z, roots.hi - roots.lo, x2(z), _prefix(z, xs[1:N], xps[1:N]),
                *(_prefix(t, ys[1:], yps[1:]) for t in (roots.hi, roots.lo)))

    points = None
    for n, routes in zip(orders, _cn_routes(curve, reads, orders, ("xm1",))):
        cn, errs = _raised(routes["xm1"]), []
        if points is None:
            points = [p for p in map(products, samples) if p is not None]
        for z, gap, x2z, xb, hi, lo in points:
            if len(hi) <= n or len(lo) <= n or len(xb) < n:
                continue
            lhs = (hi[n] - lo[n]) / gap
            try:
                rhs = cn * x2z * xb[n - 1] / ((z - xps[0]) * (z - xps[n]))
            except ZeroDivisionError:
                continue
            errs.append(abs(lhs - rhs) / max(1.0, abs(lhs), abs(rhs)))
        if not errs:
            raise NoValidSamplesError("all samples degenerate for the basis identity")
        yield float(np.max(errs))


def verify_diff_basis_identity(pair, n, samples):
    """Max relative error of  D Yb_n = C_n X2 Xb_{n-1} / ((x-x'_0)(x-x'_n))  on samples, skipping
    a sample at a branch point, at a pole of Yb_n or Xb_{n-1}, or at x'_0 or x'_n."""
    _instance(pair, BasisPair, "pair")
    n, samples = _order(n, "n", lo=0), _list(samples, "samples", "a list of complex numbers")
    samples = [_finite(z, f"samples[{i}]") for i, z in enumerate(samples)]
    if n == 0:
        return 0.0
    return next(_identities(pair, [n], samples))
