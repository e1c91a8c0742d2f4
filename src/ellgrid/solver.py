"""Linear first-order difference equations  a(x) (D f)(x) = c(x) (M f)(x) + d(x).

Here a, c, d are polynomials with deg a <= 3 and c = (beta x + gamma) X2,
d = (delta x + eps) X2.  The solution has an interpolatory expansion

    f = sum_k c_k Yb_k

over a pair of lattices: the unprimed one seeded so that its index -1 point
x_{-1} solves  a/(psi - phi) + c/2 = 0  (which pins f(y_0)), and the primed
one seeded at a root x'_0 of  a/(psi - phi) - c/2 = 0  (whose y'_1, y'_2, ...
are the solution's poles).  Coefficients come from the two-term recurrence

    c_{n+1}/c_n = -xi_n / eta_{n+1}

in both modes, the logarithmic case c = 0 (f generalizes a logarithm, c_0 is a
free constant) included, checked at every n against one running product from
the same reads: the closed product, or in the logarithmic case an elementary
product formula.  The stepwise recurrence is the oracle for c_1 and verification.
"""
from __future__ import annotations

import cmath
import math
from collections import namedtuple
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .curve import BiquadraticCurve
from .diffops import BasisPair, _root_pair, _xm1_route, basis_products, pole_hits
from .errors import (
    BranchAssignmentFailedError,
    DegreeMismatchError,
    EllgridError,
    Frozen,
    HitSingularLatticeError,
    InternalInconsistencyError,
    LatticeSingularityError,
    NonFiniteCoefficientError,
    NoSpecialPointError,
    PoleEvaluationError,
    SmallDivisorError,
    ValidationError,
    _attrs,
    _finite,
    _instance,
    _kept,
    _list,
    _order,
)
from .lattice import LatticePair, LatticeSpec, _two_sum
from .poly import Polynomial

X2_FACTOR_TOL = 1e-12
SINGULAR_STEP_TOL = 1e-12   # a stepwise divisor at or below this times its terms is singular
VERIFY_BLOCK = 1 << 13    # factors per block of the verification sweep (bounds its memory)
_READS = object()          # the key under which solve's diag takes the solve's _Reads
_Reads = namedtuple("_Reads", "cns xs ys xps yps dy steps d eta_fac xi_fac eq pair")  # see _reads


# -- the difference equation -----------------------------------------------------------


def _polynomial(p, name):
    """p (a Polynomial or its coefficients) as a Polynomial, or a ValidationError naming the first
    coefficient that is not a finite complex number, checked before Polynomial trims any."""
    given = isinstance(p, Polynomial)
    cs = [_finite(v, f"{name}[{i}]")
          for i, v in enumerate(p.coeffs if given else _list(p, name, "complex numbers"))]
    return p if given else Polynomial(cs)


class DifferenceEquation(Frozen):
    """a (D f) = c (M f) + d with c = (beta x + gamma) X2, d = (delta x + eps) X2.

    Immutable.  What the equation alone determines is built on first use and kept in its
    slots, so every solve on it shares one: the step kernel (_step_kernel, in _step) and the
    special-point candidates with their root pairs and certificates (in _cands)."""

    __slots__ = ("curve", "a", "c", "d", "beta", "gamma", "delta", "eps", "_step", "_cands")

    def __init__(self, curve, a, beta, gamma, delta, eps):
        _instance(curve, BiquadraticCurve, "curve")
        a = _polynomial(a, "a")
        if a.degree() > 3:
            raise DegreeMismatchError(f"deg a = {a.degree()} > 3")
        beta, gamma, delta, eps = (_finite(v, name) for v, name in (
            (beta, "beta"), (gamma, "gamma"), (delta, "delta"), (eps, "eps")))
        x2 = curve.x_view()[2]
        self._set(curve=curve, a=a, beta=beta, gamma=gamma, delta=delta, eps=eps,
                  c=Polynomial((gamma, beta)) * x2, d=Polynomial((eps, delta)) * x2)

    @classmethod
    def from_polynomials(cls, curve, a, c, d):
        """Extract (beta, gamma, delta, eps), validating the X2 factor of c and d."""
        x2 = _instance(curve, BiquadraticCurve, "curve").x_view()[2]
        parts = []
        for name, p in (("c", c), ("d", d)):
            p = _polynomial(p, name)
            if p.is_zero():
                parts.append((0j, 0j))
                continue
            q, r = divmod(p, x2)
            if r.max_coeff > X2_FACTOR_TOL * max(p.max_coeff, 1.0):
                raise ValidationError(f"{name} does not carry the factor X2")
            if q.degree() > 1:
                raise ValidationError(f"{name}/X2 has degree {q.degree()} > 1")
            cs = list(q.coeffs) + [0j]
            parts.append((cs[1], cs[0]))
        (beta, gamma), (delta, eps) = parts
        return cls(curve, a, beta, gamma, delta, eps)

    @property
    def is_logarithmic(self):
        return self.beta == 0 and self.gamma == 0

    def scale(self, z):
        """max|coeff| of a, c, d times max(1, |z|)^3, formed factor by factor; a ValidationError
        naming z where it leaves the float range."""
        m = max(1.0, abs(z))
        size = max(self.a.max_coeff, self.c.max_coeff, self.d.max_coeff, 1e-300) * m * m * m
        if not size < cmath.inf:
            raise ValidationError(f"equation scale at z={z} is not finite")
        return size


# -- special points -------------------------------------------------------------------


@dataclass(frozen=True)
class Nearest:
    z: complex


@dataclass(frozen=True)
class ByIndex:
    i: int
    j: int | None = None


@dataclass(frozen=True)
class Explicit:
    x_m1: complex
    x_p0: complex


@dataclass(frozen=True)
class SpecialPoints:
    """x_{-1} and x'_0 with their branch assignments and residual certificates."""

    x_m1: complex
    x_p0: complex
    y_m1: complex
    y_0: complex
    y_p0: complex
    y_p1: complex
    res_m1: float
    res_p0: float


def _step_kernel(eq):
    """step(x, dy) -> (a(x), c(x), a/dy, den = a/dy - c/2, size, singular), complex128 arrays over
    every step x, dy from one numpy pass, with no warning.  size is the coefficient-level magnitude
    of a/dy and c/2 (>= 1e-300, inf on overflow); singular, the one singular-step test of both
    recurrences, is |den| <= SINGULAR_STEP_TOL * size where size is finite (the callers stop on
    the others).  dy = 0, a step through a branch point of the y-view, is singular (its terms are
    not finite).
    Built on first use and kept on eq: the certificates, eta_n and the oracle share one kernel."""
    return _kept(eq, "_step", _build_step_kernel)


def _build_step_kernel(eq):
    am, ad, cm, cd = eq.a.max_coeff, eq.a.degree(), eq.c.max_coeff, eq.c.degree()

    def step(x, dy):
        x, dy = np.asarray(x, dtype=complex), np.asarray(dy, dtype=complex)
        with np.errstate(all="ignore"):
            ax, cx = eq.a(x), eq.c(x)
            ratio = ax / dy
            den = ratio - cx / 2.0
            growth = np.maximum(np.abs(x), 1.0)
            size = np.maximum(am * growth ** ad / np.abs(dy), cm * growth ** cd / 2.0)
            size = np.maximum(size, 1e-300)
            singular = (dy == 0) | ((np.abs(den) <= SINGULAR_STEP_TOL * size) & (size < np.inf))
        return ax, cx, ratio, den, size, singular
    return step


def _condition_residual(eq, r, first, second, sign):
    """|a/(second-first) + sign*c/2| at r over the step's size from _step_kernel (the magnitude of
    its terms, so it measures how much cancellation the condition achieves), elementwise over
    arrays; inf where the branches collide or the size overflows."""
    r, first, second = (np.asarray(v, dtype=complex) for v in (r, first, second))
    dy = second - first
    _, cx, ratio, _, size, _ = _step_kernel(eq)(r, dy)
    with np.errstate(all="ignore"):
        res = np.abs(ratio + sign * cx / 2.0) / size
    collide = np.abs(dy) <= 1e-13 * np.maximum(np.maximum(1.0, np.abs(first)), np.abs(second))
    return np.where(collide | ~(size < np.inf), np.inf, res)


def special_point_candidates(eq):
    """Polished roots of the rationalized condition 4 a^2 = (beta x + gamma)^2 P.

    In the logarithmic case the condition collapses to a(x) = 0.  One _condition_residual pass
    certifies each root's y-roots (u, v) in both orders, r_uv = r(+1; u, v), r_vu = r(+1; v, u),
    also the x'_0 role's residuals as r(-1; u, v) = r(+1; v, u).  A root is kept, with
    (u, v, r_uv, r_vu), when it can play x_{-1} (min(r_uv, r_vu) <= 1e-6; NaN fails).  Survivors
    come back sorted by (Re, Im), as a new list on every call, found on the first call and kept
    on eq, since they depend on the equation alone; a NoSpecialPointError is not kept.
    """
    return list(_kept(eq, "_cands", _find_candidates))


def _find_candidates(eq):
    if eq.is_logarithmic:
        rts = eq.a.roots()
    else:
        lin, P = Polynomial((eq.gamma, eq.beta)), eq.curve.discriminant_P()
        sextic = 4.0 * (eq.a * eq.a) - lin ** 2 * P
        if sextic.is_zero():
            raise NoSpecialPointError("special-point equation is identically zero")
        if sextic.degree() < 1:
            raise NoSpecialPointError("special-point equation has no roots")
        polish = partial(_polish_condition_root, eq.beta, P, P.derivative(), lin, eq.a,
                         eq.a.derivative())
        rts = [polish(r) for r in sextic.roots()]
    pairs = []
    for r in rts:
        try:
            pairs.append(eq.curve.y_roots(r).as_tuple())
        except EllgridError:
            pairs.append(None)
    u, v = ([(p or (0j, 0j))[i] for p in pairs] for i in (0, 1))
    res = _condition_residual(eq, rts + rts, u + v, v + u, +1).tolist()
    out = {}
    for r, p, r_uv, r_vu in zip(rts, pairs, res, res[len(rts):]):
        if any(abs(r - s) <= 1e-8 * (1.0 + abs(r)) for s in out):
            continue
        if not eq.is_logarithmic and (p is None or not min(r_uv, r_vu) <= 1e-6):
            continue
        out[r] = p and (*p, r_uv, r_vu)
    if not out:
        raise NoSpecialPointError("no root passes back-substitution")
    return {r: out[r] for r in sorted(out, key=lambda z: (z.real, z.imag))}


def _polish_condition_root(beta, P, dP, lin, a, da, r):
    """Up to eight Newton steps polishing r against 2a(x) - sigma (beta x + gamma) sqrt(P(x)) = 0,
    with P, P', lin = beta x + gamma, a and a' built once per equation."""
    w = cmath.sqrt(P(r))
    a2, lr = 2.0 * a(r), lin(r)
    sigma = 1.0 if abs(a2 - lr * w) <= abs(a2 + lr * w) else -1.0
    g = a2 - sigma * lr * w
    g_best = abs(g)
    for _ in range(8):
        if abs(w) <= 1e-300:
            break
        dg = 2.0 * da(r) - sigma * (beta * w + lr * dP(r) / (2.0 * w))
        if dg == 0:
            break
        r2 = r - g / dg
        w2 = cmath.sqrt(P(r2))
        if abs(w2 + w) < abs(w2 - w):
            w2 = -w2
        l2 = lin(r2)
        g2 = 2.0 * a(r2) - sigma * l2 * w2
        if not abs(g2) < g_best:
            break
        r, w, lr, g, g_best = r2, w2, l2, g2, abs(g2)
    return r


def _branch_for_role(eq, r, sign, hint=None):
    """(first, second, residual): the order of candidate r's kept root pair for one role.

    sign +1 is the x_{-1} role (first = y_{-1}, second = y_0); sign -1 is the
    x'_0 role (first = y'_0, second = y'_1).  The smaller residual wins and must
    be <= 1e-6 (NaN fails); ties (logarithmic mode) break toward `hint` for the
    second member, else toward +sqrt.
    """
    if eq._cands[r] is None:                    # no root pair at r: raise y_roots' error
        eq.curve.y_roots(r)
    u, v, r_uv, r_vu = eq._cands[r]
    if sign < 0:
        r_uv, r_vu = r_vu, r_uv
    if not min(r_uv, r_vu) <= 1e-6:
        raise BranchAssignmentFailedError(
            f"no root ordering at {r} satisfies the condition (residuals "
            f"{r_uv:.2e}, {r_vu:.2e})")
    tie = abs(r_uv - r_vu) <= 1e-9
    swap = (hint is not None and not abs(v - hint) <= abs(u - hint)) if tie else not r_uv < r_vu
    return (v, u, r_vu) if swap else (u, v, r_uv)


def locate_special_points(eq, select, y0_hint=None, yp1_hint=None):
    """Pick x_{-1} and x'_0 among the candidates and fix their branch pairings.

    select: Explicit(x_m1, x_p0) matches two given candidates.  Nearest(z)
    takes the candidate nearest z as x_{-1} and the next nearest as x'_0.
    ByIndex(i, j) takes entries i and j (j = i + 1 when None), each modulo the
    count, of the (Re, Im)-sorted candidates.  In logarithmic mode with d != 0
    the expansion needs d(x_{-1}) = 0: x_{-1} is pinned to the root of d, which
    must be a candidate whatever the selector, and Nearest/ByIndex pick x'_0
    among the other candidates, nearest z or entry i modulo their count.
    A selector that is none of these, a selector point or hint that is not a finite complex
    number, or a ByIndex entry that is not an integer (a bool is not), is a ValidationError naming
    it, raised before the candidates are found; an eq that is not a DifferenceEquation is one too,
    raised first.
    """
    _instance(eq, DifferenceEquation, "eq")
    if isinstance(select, Explicit):
        targets = _finite(select.x_m1, "select.x_m1"), _finite(select.x_p0, "select.x_p0")
    elif isinstance(select, Nearest):
        z, i = _finite(select.z, "select.z"), 0
    elif isinstance(select, ByIndex):
        i = _order(select.i, "select.i")
        j = i + 1 if select.j is None else _order(select.j, "select.j")
    else:
        raise ValidationError(f"unknown selector {select!r}")
    y0_hint, yp1_hint = (None if h is None else _finite(h, name)
                         for h, name in ((y0_hint, "y0_hint"), (yp1_hint, "yp1_hint")))
    cands = special_point_candidates(eq)
    pin = None
    if eq.is_logarithmic and eq.delta != 0:
        want = -eq.eps / eq.delta
        pin = next((r for r in cands if abs(r - want) <= 1e-6 * (1.0 + abs(want))), None)
        if pin is None:
            raise NoSpecialPointError(
                "logarithmic mode needs the root of d among the roots of a")

    if isinstance(select, Explicit):
        x_m1, x_p0 = (_match_candidate(cands, t) for t in targets)
    else:
        near = isinstance(select, Nearest)
        order = sorted(cands, key=lambda r: abs(r - z)) if near else cands
        x_m1 = order[i % len(order)] if pin is None else pin
        if pin is None and not near:           # entries i and j
            x_p0 = order[j % len(order)]
        else:                                   # x'_0 is entry i of the other candidates
            rest = [r for r in order if r != x_m1]
            if not rest:
                raise NoSpecialPointError("need two distinct special points")
            x_p0 = rest[i % len(rest)]
    if abs(x_m1 - x_p0) <= 1e-9 * (1.0 + abs(x_m1)):
        raise NoSpecialPointError("x_{-1} and x'_0 must be distinct")

    y_m1, y_0, res_m1 = _branch_for_role(eq, x_m1, +1, hint=y0_hint)
    y_p0, y_p1, res_p0 = _branch_for_role(eq, x_p0, -1, hint=yp1_hint)
    return SpecialPoints(x_m1, x_p0, y_m1, y_0, y_p0, y_p1, res_m1, res_p0)


def _match_candidate(cands, target):
    best = min(cands, key=lambda r: abs(r - target))
    if not abs(best - target) <= 1e-6 * (1.0 + abs(target)):
        raise NoSpecialPointError(f"{target} is not a special-point candidate", at=target)
    return best


def build_lattices(eq, special):
    """BasisPair with x_{-1} at index -1 of the unprimed lattice and x'_0 at 0.

    The unprimed lattice is seeded one step forward of (x_{-1}, y_{-1}) so the
    seed index stays 0; walking back reproduces the special point exactly (the
    steps are Vieta complements).
    """
    curve = _instance(eq, DifferenceEquation, "eq").curve
    _instance(special, SpecialPoints, "special")
    x_0 = curve.other_x(special.y_0, special.x_m1)
    unprimed = LatticePair(LatticeSpec(curve, x_0, special.y_0))
    primed = LatticePair(LatticeSpec(curve, special.x_p0, special.y_p0))
    checks = (
        abs(unprimed.x(-1) - special.x_m1),
        abs(unprimed.y(-1) - special.y_m1),
        abs(primed.y(1) - special.y_p1),
    )
    if max(checks) > 1e-8 * (1.0 + abs(special.x_m1)):
        raise BranchAssignmentFailedError(
            f"lattice walk does not reproduce the special points: {checks}")
    for xx, yy in ((special.x_m1, special.y_m1), (special.x_m1, special.y_0),
                   (special.x_p0, special.y_p1)):       # (x'_0, y'_0) passed LatticeSpec's check
        if not curve.contains(xx, yy, tol=1e-9):
            raise BranchAssignmentFailedError(f"({xx}, {yy}) left the curve")
    return BasisPair(unprimed, primed)


# -- expansion coefficients ---------------------------------------------------------------


def _reads(eq, pair, N, constants=True):
    """Each term to order N once, for the ratio recurrence, its running products, the c_1 check and
    verify: C_0 .. C_N by the x_{-1} route (or None), x_n, y_n (n = -1 .. N) and x'_n, y'_n (0 .. N)
    from one values read per lattice, dy_k = y_{k+1} - y_k, _step_kernel's terms at (x_k, dy_k),
    d(x_k), (a - c dy/2)(x_k) (k < N), (a + c (y'_{k+1} - y'_k)/2)(x'_k) (0 < k < N), eq, pair."""
    lists = pair.unprimed.values(-1, N + 1) + pair.primed.values(0, N + 1)
    cns, stop = _xm1_route(pair.curve, lists, N) if constants else (None, None)
    if stop is not None:
        raise stop
    xs, ys, xps, yps = (np.array(v, dtype=complex) for v in lists)
    x, xp, dy = xs[1:-1], xps[1:-1], ys[2:] - ys[1:-1]
    steps = _step_kernel(eq)(x, dy)
    with np.errstate(all="ignore"):
        return _Reads(cns and np.array(cns, dtype=complex), xs, ys, xps, yps, dy, steps, eq.d(x),
                      steps[0] - steps[1] * dy / 2.0,
                      eq.a(xp) + eq.c(xp) * (yps[2:] - yps[1:-1]) / 2.0, eq, pair)


def _ratio_coefficients(eq, reads, c0):
    """(c_0 .. c_N, the stepwise oracle's c_1) of c_{n+1} = -c_n xi_n / eta_{n+1}, N >= 1.

    xi_n = C_n (a + c (y'_{n+1} - y'_n)/2)(z) / ((z - x_{-1}) (z - x'_0) (z - x_{n-1})) at
    z = x'_n, and eta_n = C_n (a - c (y_n - y_{n-1})/2)(z) / ((z - x_{-1}) (z - x'_0) (z - x'_n))
    at z = x_{n-1}, one complex128 array each, from the factors of reads = _reads(eq, pair, N).
    eta_n's numerator is dy = y_n - y_{n-1} times the divisor of the oracle's step n - 1, so the
    one _step_kernel pass gives the oracle's test: SmallDivisorError(n) at the first singular step
    or zero eta_n, whatever N.  c_1 = (beta c_0 + delta)/eta_1 seeds one np.cumprod over
    -xi_n/eta_{n+1}.  Step 0 gives the oracle's f_1 from f(y_0) = c_0; c_1 = (f_1 - c_0)/Yb_1(y_1).
    """
    cns, xs, xps = reads.cns, reads.xs, reads.xps
    xm1, xp0, z, zp = xs[0], xps[0], xs[1:-1], xps[1:-1]    # z = x_{n-1}, zp = x'_n for n < N
    _, cz, ratio, den, _, singular = reads.steps
    with np.errstate(all="ignore"):
        etas = cns[1:] * reads.eta_fac / ((z - xm1) * (z - xp0) * (z - xps[1:]))
        stop = singular | (etas == 0)
        if stop.any():
            n = int(stop.argmax()) + 1
            raise SmallDivisorError(n, float(abs(etas[n - 1])))
        xis = cns[1:-1] * reads.xi_fac / ((zp - xm1) * (zp - xp0) * (zp - xs[1:-2]))
        cs = np.empty(len(etas), dtype=complex)      # c_1, then the step ratios
        cs[0] = (eq.beta * c0 + eq.delta) / etas[0]
        np.divide(-xis, etas[1:], out=cs[1:])
        np.cumprod(cs, out=cs)
        f1 = ((ratio[0] + cz[0] / 2.0) * c0 + reads.d[0]) / den[0]
        c1_step = (f1 - c0) * (reads.ys[2] - reads.yps[1]) / reads.dy[0]
    return [c0] + cs.tolist(), complex(c1_step)


def _closed_products(eq, reads, c1):
    """[c_1 .. c_N] by the closed product, one numpy running product over k < n:

        c_n = c_1 C_1/(x'_1 - x_0) (x'_n - x_{n-1})/C_n
              prod_k (a + c (y'_{k+1} - y'_k)/2)(x'_k) / (a - c (y_{k+1} - y_k)/2)(x_k)
                     (x_k - x_{-1})(x_k - x'_0) / ((x'_k - x_{-1})(x'_k - x'_0)).

    Each step divides xi_k's factor by eta_{k+1}'s (_reads), so nothing overflows where c_n
    is finite; a zero divisor gives inf or NaN, which the gap check refuses."""
    cns, xs, xps = reads.cns, reads.xs, reads.xps
    xm1, xp0 = xs[0], xps[0]
    x, xp = xs[2:-1], xps[1:-1]                     # x_k, x'_k for k = 1 .. N-1
    with np.errstate(all="ignore"):
        steps = (reads.xi_fac / reads.eta_fac[1:]
                 * (x - xm1) * (x - xp0) / ((xp - xm1) * (xp - xp0)))
        run = np.concatenate(([1.0], np.cumprod(steps)))
        return c1 * (cns[1] / (xps[1] - xs[1])) * ((xps[1:] - xs[1:-1]) / cns[1:]) * run


def _log_products(eq, reads, c1, zeta):
    """[c_1 .. c_N] by the logarithmic case's elementary product formula, one numpy
    running product over j <= n, paired as in _closed_products:

        c_n = c_1 C_1/(x'_1 - x_0) X2(x_{-1})/(x_{-1} - x'_0) (x'_n - x_{n-1}) prod_j f_j,
        f_j = (y_{-1} - y'_j)/(x_{-1} - x'_j), times
              (x_{-1} - x_{j-2})/(y_{-1} - y_{j-1}) (x'_{j-1} - zeta)/(x_{j-1} - zeta) for j >= 2.
    """
    cns, xs, ys, xps, yps = reads[:5]
    xm1, ym1, xp0 = xs[0], ys[0], xps[0]
    with np.errstate(all="ignore"):
        steps = (ym1 - yps[1:]) / (xm1 - xps[1:])
        steps[1:] *= (xm1 - xs[1:-2]) / (ym1 - ys[2:-1]) * (xps[1:-1] - zeta) / (xs[2:-1] - zeta)
        pref = c1 * (cns[1] / (xps[1] - xs[1])) * eq.curve.x_view()[2](xm1) / (xm1 - xp0)
        return pref * (xps[1:] - xs[1:-1]) * np.cumprod(steps)


def _checked_coefficients(eq, pair, N, c0, products, bound, key, diag):
    """c_0 .. c_N from _ratio_coefficients, for both modes alike, with
    NonFiniteCoefficientError at the first inf/NaN c_n and InternalInconsistencyError at the first
    n whose gap |c_n - p_n| / max(1, |c_n|, |p_n|) to p_n = products(eq, reads, c_1)[n-1] is not
    <= bound (NaN fails), then where c_1 and the stepwise oracle's c_1 differ by more than 1e-6
    relative.  diag gets the gaps for n = 0 .. N (0 at n = 0, where both routes take c_0) under
    "product_gaps", their maximum under key, and the c_1 routes' gap under "c1_routes_rel".
    """
    cs, c1_step, ps = [c0], None, np.empty(0)
    if N >= 1:
        reads = _reads(eq, pair, N)
        if _READS in diag:          # solve's diag takes the _Reads
            diag[_READS] = reads
        cs, c1_step = _ratio_coefficients(eq, reads, c0)
        ps = products(eq, reads, cs[1])
    cv = np.array(cs, dtype=complex)
    bad = ~np.isfinite(cv)
    if bad.any():
        n = int(bad.argmax())
        raise NonFiniteCoefficientError(n, cs[n])
    cv = cv[1:]
    with np.errstate(all="ignore"):
        gaps = np.abs(cv - ps) / np.maximum(1.0, np.maximum(np.abs(cv), np.abs(ps)))
    bad = ~(gaps <= bound)
    if bad.any():
        n = int(bad.argmax()) + 1
        raise InternalInconsistencyError(
            f"ratio recurrence vs running product disagree at n={n} ({gaps[n - 1]:.2e})", index=n)
    diag["product_gaps"] = [0.0] + gaps.tolist()
    diag[key] = max(diag["product_gaps"])
    if N >= 1:
        c1_rel = abs(cs[1] - c1_step) / max(1.0, abs(cs[1]), abs(c1_step))
        if not c1_rel <= 1e-6:
            raise InternalInconsistencyError(
                f"c_1 routes disagree: recurrence {cs[1]} vs oracle {c1_step}")
        diag["c1_routes_rel"] = c1_rel
    return cs


def closed_product_coefficient(eq, pair, n, c1):
    """c_n from the closed product: entry n of the running product that solve checks against."""
    if n == 0:
        raise ValidationError("closed product starts at n = 1")
    return complex(_closed_products(eq, _reads(eq, pair, n), c1)[-1])


def _c0(eq, xm1):
    """c_0 = -(delta x_{-1} + eps)/(beta x_{-1} + gamma); ValidationError where it is undefined."""
    den0 = eq.beta * xm1 + eq.gamma
    if abs(den0) <= 1e-13 * max(1.0, abs(eq.beta * xm1), abs(eq.gamma)):
        raise ValidationError("beta x_{-1} + gamma = 0: c_0 undefined")
    return -(eq.delta * xm1 + eq.eps) / den0


def expansion_coefficients(eq, pair, N, diag=None):
    """c_0 .. c_N for the general mode (beta, gamma not both zero).

    c_0 = -(delta x_{-1} + eps)/(beta x_{-1} + gamma), then the ratio recurrence, checked
    against the closed product at every n (1e-7); its seed c_1 = (beta c_0 + delta)/eta_1
    must agree with the stepwise oracle to 1e-6 (InternalInconsistency otherwise).
    """
    _instance(eq, DifferenceEquation, "eq"), _instance(pair, BasisPair, "pair")
    N, diag = _order(N, "N", lo=0), {} if diag is None else _instance(diag, dict, "diag")
    if eq.is_logarithmic:
        raise ValidationError("c = 0: use expansion_coefficients_log")
    return _checked_coefficients(eq, pair, N, _c0(eq, pair.unprimed.x(-1)), _closed_products,
                                 1e-7, "closed_product_rel", diag)


def third_root_of_a(eq, pair):
    """zeta: the root of a besides x_{-1} and x'_0 (logarithmic mode, deg a = 3)."""
    if eq.a.degree() != 3:
        raise DegreeMismatchError("logarithmic mode needs deg a = 3")
    q1, r1 = divmod(eq.a, Polynomial.from_roots([pair.unprimed.x(-1)]))
    q2, r2 = divmod(q1, Polynomial.from_roots([pair.primed.x(0)]))
    scale = max(eq.a.max_coeff, 1.0)
    if max(r1.max_coeff, r2.max_coeff) > 1e-7 * scale:
        raise ValidationError("x_{-1} and x'_0 are not roots of a")
    return -q2.coeffs[0] / q2.coeffs[1]


def expansion_coefficients_log(eq, pair, N, c0_free, diag=None):
    """c_0 .. c_N for the logarithmic case c = 0, with c_0 the free constant.

    Requires deg a = 3 with x_{-1} and x'_0 among its roots and d(x_{-1}) = 0
    (otherwise no expansion of this form exists).  The ratio recurrence with c = 0 gives
    c_1 .. c_N, checked against the elementary product formula at every n (1e-8); its seed
    c_1 = delta/eta_1 must agree with the stepwise oracle to 1e-6, as in the general mode.  A
    c0_free that is not a finite complex number is a ValidationError naming it.
    """
    _instance(eq, DifferenceEquation, "eq"), _instance(pair, BasisPair, "pair")
    N, c0_free = _order(N, "N", lo=0), _finite(c0_free, "c0_free")
    diag = {} if diag is None else _instance(diag, dict, "diag")
    if not eq.is_logarithmic:
        raise ValidationError("equation is not logarithmic (c != 0)")
    zeta = third_root_of_a(eq, pair)
    xm1 = pair.unprimed.x(-1)
    if not abs(eq.d(xm1)) <= 1e-8 * eq.scale(xm1):             # NaN fails
        raise ValidationError(
            "logarithmic expansions need d(x_{-1}) = 0; seed x_{-1} at the root of d")
    diag["zeta"] = zeta
    return _checked_coefficients(eq, pair, N, c0_free, partial(_log_products, zeta=zeta),
                                 1e-8, "log_vs_ratio_rel", diag)


def stepwise_oracle(eq, pair, K, f0=None):
    """f(y_0) .. f(y_K) straight from the difference equation, no expansion.

    f(y_0) defaults to the self-determined c_0 in general mode; logarithmic mode has
    no distinguished start, so f0 must be supplied (the free constant).  One _step_kernel pass
    gives every step's terms; only f_{k+1} = (g_k f_k + d(x_k))/den_k, g_k = a/dy + c/2, is a loop.
    A singular step k raises HitSingularLatticeError(k, f_0 .. f_k), a step k whose terms or value
    leave the float range LatticeSingularityError(k), and a negative K or an f0 that is not a
    finite complex number a ValidationError naming it.
    """
    _instance(eq, DifferenceEquation, "eq"), _instance(pair, BasisPair, "pair")
    K = _order(K, "K", lo=0)
    if f0 is not None:
        f0 = _finite(f0, "f0")
    elif eq.is_logarithmic:
        raise ValidationError("logarithmic oracle needs the free constant f0")
    else:
        f0 = _c0(eq, pair.unprimed.x(-1))
    xs, ys = pair.unprimed.span(0, K + 1)
    steps = _step_kernel(eq)(xs[:-1], ys[1:] - ys[:-1])
    with np.errstate(all="ignore"):
        return _stepwise(f0, xs[:-1], steps, eq.d(xs[:-1]))


def _stepwise(f0, x, steps, d):
    """stepwise_oracle's loop and errors over the steps at x_k = x[k], K = len(x), with
    _step_kernel's terms there (steps) and d_k = d[k]: verify_interpolation's, on its _Reads."""
    _, cx, ratio, den, size, singular = steps
    stop = singular | ~(size < np.inf)
    end = int(stop.argmax()) if stop.any() else len(x)
    with np.errstate(all="ignore"):
        terms = zip((ratio + cx / 2.0)[:end].tolist(), d[:end].tolist(), den[:end].tolist())
    vals, f = [f0], f0
    for g, dk, n in terms:
        f = (g * f + dk) / n
        vals.append(f)
    k = end if all(map(cmath.isfinite, vals)) else \
        next((k for k, v in enumerate(vals[1:]) if not cmath.isfinite(v)), end)
    if k == len(x):
        return vals
    if k == end and singular[end]:
        raise HitSingularLatticeError(end, vals)
    raise LatticeSingularityError(
        k, f"stepwise oracle: step {k} at x_{k} = {complex(x[k])} leaves the float range")


# -- the assembled solution --------------------------------------------------------------


@dataclass
class ExpansionSolution:
    eq: DifferenceEquation
    pair: BasisPair
    special: SpecialPoints
    mode: str                       # "general" | "log"
    coeffs: tuple
    c0_free: complex | None = None
    zeta: complex | None = None
    diagnostics: dict = field(default_factory=dict)


def solve(eq, select, N, c0_free=None, y0_hint=None, yp1_hint=None):
    """Locate special points, build the two lattices, and expand to order N.  A c0_free that is
    not a finite complex number, or missing in logarithmic mode, is a ValidationError raised before
    any work, after the one naming an eq that is not a DifferenceEquation or an N below 0."""
    _instance(eq, DifferenceEquation, "eq")
    N = _order(N, "N", lo=0)
    if c0_free is not None:
        _finite(c0_free, "c0_free")
    elif eq.is_logarithmic:
        raise ValidationError("logarithmic mode needs c0_free")
    special = locate_special_points(eq, select, y0_hint=y0_hint, yp1_hint=yp1_hint)
    pair = build_lattices(eq, special)
    diag = {"certificate_m1": special.res_m1, "certificate_p0": special.res_p0, _READS: None}
    if eq.is_logarithmic:
        coeffs = expansion_coefficients_log(eq, pair, N, c0_free, diag=diag)
    else:
        coeffs = expansion_coefficients(eq, pair, N, diag=diag)
    diag["coeff_magnitudes"] = [abs(c) for c in coeffs]
    sol = ExpansionSolution(eq=eq, pair=pair, special=special,
                            mode="log" if eq.is_logarithmic else "general",
                            coeffs=tuple(coeffs), c0_free=c0_free, zeta=diag.pop("zeta", None),
                            diagnostics=diag)
    sol._reads = diag.pop(_READS)
    return sol


def _sum_order(sol, N, name="N"):
    """N as an order sol answers, 0 .. K = len(sol.coeffs) - 1: the one order rule of a solution.
    Below 0 it is `_order`'s ValidationError naming N, past K "solution has only K coefficients";
    a sol with no coeffs, pair or mode is a ValidationError naming sol."""
    _attrs(sol, "sol", "coeffs", "pair", "mode")
    N = _order(N, name, lo=0)
    if N >= len(sol.coeffs):
        raise ValidationError(f"solution has only {len(sol.coeffs) - 1} coefficients")
    return N


def _partial_sums(sol, N, zs):
    """S_N(z) = sum_{k<=N} c_k Yb_k(z) for each z of zs in turn, with Yb_0(z) .. Yb_N(z) from one
    basis_products call, over one read per lattice.  N follows the order rule `_sum_order`
    ("solution has only K coefficients" past the end), and a non-finite z is a ValidationError
    naming it."""
    N, reads = _sum_order(sol, N), None
    for z in zs:
        z = _finite(z, "z")
        reads = reads or (sol.pair.unprimed.values(0, N)[1], sol.pair.primed.values(1, N + 1)[1])
        acc = sol.coeffs[0]
        for c, yb in zip(sol.coeffs[1:N + 1], basis_products(z, *reads)[1:]):
            acc += c * yb
        yield acc


def evaluate_partial_sum(sol, N, z):
    """S_N(z) by `_partial_sums`."""
    return next(_partial_sums(sol, N, (z,)))


def _defect(eq, sol, N, z, lo, hi):
    """a (D S_N) - c (M S_N) - d at z over the given root pair (lo, hi) of z, with S_N once at
    each root."""
    s_hi, s_lo = _partial_sums(sol, N, (hi, lo))
    df = (s_hi - s_lo) / (hi - lo)
    return eq.a(z) * df - eq.c(z) * (0.5 * (s_lo + s_hi)) - eq.d(z)


def residual(eq, sol, N, z):
    """Defect a (D S_N) - c (M S_N) - d at z (vanishes on early lattice points), by `_defect` over
    the root pair solved at z; an eq or a z of the wrong kind is a ValidationError naming it."""
    z = _finite(z, "z")
    roots = _root_pair(_instance(eq, DifferenceEquation, "eq").curve, z)
    return _defect(eq, sol, N, z, roots.lo, roots.hi)


@dataclass(frozen=True)
class InterpolationReport:
    max_error: float
    errors: tuple
    skipped: tuple


def _progression_start(ys, poles):
    """The first row r0 from which ys[r0:] and the poles of rows r0 .. n-2 step by one d, exactly:
    _two_sum(v_k, d) gives v_{k+1} (to the bit for a node, in value for a pole) and an error of 0.
    Then y_j - y_r and y_j - y'_{r+1}, r >= r0, equal y_{j-r+r0} - y_{r0} and y_{j-r+r0} - y'_{r0+1}
    as reals with no minuend -0.0, so each pair rounds alike; n - 1 where the last steps differ."""
    n = len(ys)
    y, p = ys[n - 3:].tolist(), poles[n - 3:n - 1].tolist()
    if n < 3 or not y[2] - y[1] == y[1] - y[0] == p[1] - p[0]:
        return n - 1
    v = np.concatenate((ys, poles[:n - 1] + 0))     # + 0 reads a pole's -0.0 as 0.0
    s, e = _two_sum(v[:-1], y[2] - y[1])
    bad = (s.view(np.int64) != v[1:].view(np.int64)) | (e.view(float) != 0)
    rows = bad[:2 * n - 2]      # step k's two parts at 2k, 2k + 1; the poles' from 2n on
    rows[:2 * n - 4] |= bad[2 * n:]
    last = int(rows[::-1].argmax())     # the last bad part, counted from the end
    return (2 * n - 1 - last) // 2 if rows[-1 - last] else 0


def _node_sums(ys, poles, cs):
    """S(y_j) = c_0 + F_0(y_j) (c_1 + F_1(y_j) (... + F_{j-1}(y_j) c_j)) at every node j, with
    F_r(y) = (y - y_r) / (y - y'_{r+1}), in numpy complex.

    Every column runs at once from the last row up: acc[j] = c_j, then for r = n-2 .. 0,
    acc[r+1:] = c_r + F_r(y_{r+1:}) acc[r+1:].  Node j meets only c_0 .. c_j and F_r(y_j) for
    r < j, so no term k > j, nor its zero factor (y_j - y_j), enters its sum.  Rows r >= r0 =
    _progression_start(ys, poles) read F_r(y_j) = F_{r0}(y_{j-r+r0}), bit for bit, as the first
    n - 1 - r entries of one row phi of divisions; below r0 a block of b rows r0 .. r1-1 takes its
    b (n-1-r0) factors F_r(y_j), j > r0, from one division into two work buffers made once per
    sweep, with b the largest that keeps them within VERIFY_BLOCK (at least 1).
    """
    n = len(ys)
    acc = np.array(cs[:n], dtype=complex)
    num, den = (np.empty(max(VERIFY_BLOCK, n), dtype=complex) for _ in range(2))
    with np.errstate(all="ignore"):
        r1, top = n - 1, _progression_start(ys, poles)
        while r1 > 0:
            if r1 > top:    # F_r(y_{r+1:}) = phi[:n - 1 - r] for r >= r0
                r0, f, b, phi = top, None, n - 1 - top, num[:n - 1 - top]
                np.subtract(ys[r0 + 1:], ys[r0], phi)
                np.divide(phi, np.subtract(ys[r0 + 1:], poles[r0], den[:b]), phi)
            else:
                w = n - 1 - r1
                b = min(r1, max(1, (math.isqrt(w * w + 4 * VERIFY_BLOCK) - w) // 2))
                r0, cols = r1 - b, w + b
                f, g = (buf[:b * cols].reshape(b, cols) for buf in (num, den))
                np.subtract(ys[r0 + 1:], ys[r0:r1, None], f)
                np.subtract(ys[r0 + 1:], poles[r0:r1, None], g)
                np.divide(f, g, f)
            for r in range(r1 - 1, r0 - 1, -1):
                tail = acc[r + 1:]
                # F_r times acc, in this order: numpy's vector complex multiply can round a * b
                # and b * a an ulp apart, which moves errors that sit near the verify bound
                np.multiply(phi[:n - 1 - r] if f is None else f[r - r0, r - r0:], tail, tail)
                np.add(tail, cs[r], tail)
            r1 = r0
    return acc


def verify_interpolation(eq, sol, N):
    """Max relative gap between S_N(y_j) and the stepwise oracle for j <= N.

    Yb_k(y_j) has the factor (y_j - y_j) = 0 for every k > j, so node j needs only the
    nested sum c_0 + F_0(y_j) (c_1 + ... + F_{j-1}(y_j) c_j): one numpy-complex sweep over
    blocks of rows (_node_sums) forms it at every node, from the last row up, and never
    forms a Yb_k(y_j), so no product overflows ahead of its zero factor.  The tests hold its
    S(y_j) within 4 (j+1) 2^-53 sum_k |c_k Yb_k(y_j)| of a 50-digit sum of the same inputs;
    it rounds differently from evaluate_partial_sum, which stays the scalar route.  The sweep
    is O(N^2) float work plus two ufunc calls per row; its N^2/2 divisions are one row on an
    exact arithmetic progression (README, Cost).  The pole guard covers every k <= N at every
    node.  N follows the order rule `_sum_order` ("solution has only K coefficients" past the end).
    The oracle's terms, nodes and poles are read from solve's _Reads where it was read for this
    eq and sol.pair, these objects, to order N or past it, else afresh (`_reads`, no constants).
    """
    N, pair, cs = _sum_order(sol, N), sol.pair, sol.coeffs
    _instance(eq, DifferenceEquation, "eq"), _instance(pair, BasisPair, "pair")
    f0 = _finite(cs[0], "f0")
    reads = getattr(sol, "_reads", None)
    if reads is None or reads.eq is not eq or reads.pair is not pair or len(reads.xps) <= N:
        reads = _reads(eq, pair, N, constants=False)
    try:
        oracle = _stepwise(f0, reads.xs[1:N + 1], [t[:N] for t in reads.steps], reads.d[:N])
        skipped = ()
    except HitSingularLatticeError as exc:
        oracle, skipped = exc.values, tuple(range(exc.index + 1, N + 1))
    ys, poles = reads.ys[1:len(oracle) + 1], reads.yps[1:N + 1]
    hit = pole_hits(ys, poles)
    if hit.any():
        raise PoleEvaluationError(complex(ys[hit.argmax()]))

    want = np.array(oracle, dtype=complex)
    errs = np.abs(_node_sums(ys, poles, cs) - want) / (1.0 + np.abs(want))
    return InterpolationReport(max_error=float(errs.max()), errors=tuple(errs.tolist()),
                                skipped=skipped)


def solution_to_json(sol):
    """JSON-ready dict: curve, certified special points, ranges, coefficients."""
    _instance(sol, ExpansionSolution, "sol")

    def c2(v):
        return [v.real, v.imag]

    sp = sol.special
    out = {
        "mode": sol.mode,
        "curve": sol.eq.curve.to_json(),
        "special_points": {
            "x_m1": c2(sp.x_m1), "x_p0": c2(sp.x_p0),
            "y_m1": c2(sp.y_m1), "y_0": c2(sp.y_0),
            "y_p0": c2(sp.y_p0), "y_p1": c2(sp.y_p1),
            "residual_m1": sp.res_m1, "residual_p0": sp.res_p0,
        },
        "lattice_ranges": {
            "unprimed": list(sol.pair.unprimed.known_range),
            "primed": list(sol.pair.primed.known_range),
        },
        "coefficients": [c2(c) for c in sol.coeffs],
        "diagnostics": [
            {"name": k, "value": v if not isinstance(v, complex) else c2(v)}
            for k, v in sorted(sol.diagnostics.items())
        ],
    }
    if sol.zeta is not None:
        out["zeta"] = c2(sol.zeta)
    if sol.c0_free is not None:
        out["c0_free"] = c2(complex(sol.c0_free))
    return out
