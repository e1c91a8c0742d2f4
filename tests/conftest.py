"""Shared fixture equations: one per lattice family, built from closed forms.

Each general-mode fixture pins its special points by construction (the cubic
or quadratic `a` interpolates the defining conditions at chosen lattice
points), so tests can assert that the locator rediscovers them.
"""
import cmath

import numpy as np
import pytest
from hypothesis import settings

from ellgrid import (
    AskeyWilsonLattice,
    BiquadraticCurve,
    DifferenceEquation,
    Explicit,
    GeometricLattice,
    LinearLattice,
    solve,
)
from ellgrid.curve import LEAD_TOL
from ellgrid.diffops import diff_constant
from ellgrid.errors import (
    LatticeSingularityError,
    LatticeStagnationError,
    LeadingCoefficientVanishesError,
)
from ellgrid.lattice import STAGNATION_RUN, STAGNATION_TOL
from ellgrid.poly import Polynomial, reduced_abs

settings.register_profile("ellgrid", deadline=None, derandomize=True)
settings.load_profile("ellgrid")

GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0


def linear_fixture():
    """Curve (y-x)(y-x-1); a = x^2, c = 2 X2, d = x X2; specials i and 1."""
    curve = LinearLattice(h=1.0).curve()
    eq = DifferenceEquation(curve, Polynomial((0, 0, 1.0)),
                            beta=0.0, gamma=2.0, delta=1.0, eps=0.0)
    return eq, Explicit(x_m1=1j, x_p0=1.0)


def qgeom_fixture():
    """Curve (y-x)(y-x/2); a = x(x-3), c = x X2, d = (x+1) X2; specials 4 and 12/5."""
    curve = GeometricLattice(a=0.0, b=1.0, q=0.5).curve()
    eq = DifferenceEquation(curve, Polynomial((0, -3.0, 1.0)),
                            beta=1.0, gamma=0.0, delta=1.0, eps=1.0)
    return eq, Explicit(x_m1=4.0, x_p0=2.4)


def _aw_xy(z, q):
    rq = cmath.sqrt(q)
    return z + 1.0 / z, z / rq + rq / z


def aw_fixture():
    """Askey-Wilson curve (q = 1/2, P of degree 2) with a built backwards.

    x_{-1} sits at z = 3 on the z + 1/z parametrization and x'_0 at z = 5;
    the quadratic `a` interpolates the two defining conditions plus a(0) = 1.
    """
    q = 0.5
    curve = AskeyWilsonLattice(a=0.0, b=1.0, c=1.0, q=q).curve()
    beta, gamma = 0.0, 2.0
    x2 = curve.x_view()[2]

    x_m1, y_m1 = _aw_xy(3.0, q)
    y_0 = _aw_xy(3.0 * q, q)[1]           # half-step inward: y at z = z0 q^{1/2} ...
    x_p0, y_p0 = _aw_xy(5.0, q)
    y_p1 = _aw_xy(5.0 * q, q)[1]

    cpoly = Polynomial((gamma, beta)) * x2
    targets = [
        (x_m1, -cpoly(x_m1) * (y_0 - y_m1) / 2.0),
        (x_p0, cpoly(x_p0) * (y_p1 - y_p0) / 2.0),
        (0.0, 1.0),
    ]
    vand = np.array([[1.0, z, z * z] for z, _ in targets], dtype=complex)
    coeffs = np.linalg.solve(vand, np.array([v for _, v in targets], dtype=complex))
    eq = DifferenceEquation(curve, Polynomial(coeffs),
                            beta=beta, gamma=gamma, delta=1.0, eps=0.5)
    return eq, Explicit(x_m1=x_m1, x_p0=x_p0)


def general_fixtures():
    return [("linear", *linear_fixture()),
            ("qgeom", *qgeom_fixture()),
            ("askey-wilson", *aw_fixture())]


def log_linear_fixture(x_m1=-2.0 + 0.1j, pole_seed=0.25 + 0.5j, c0_free=0.3 - 0.7j):
    """Logarithmic telescoping fixture on the linear curve.

    The exact solution is f(y) = 1/(y - A) + const with A = pole_seed: the
    right side d/a is exactly the image of 1/(y - A) under the divided
    difference, so partial sums can be checked against a closed form.
    """
    curve = LinearLattice(h=1.0).curve()
    A = complex(pole_seed)
    xr = curve.x_roots(A)
    x_p0 = xr.nearest(A)                   # the x-root equal to A itself
    zeta = xr.other(x_p0)                  # the other x-root, A - 1
    delta = -1.0 / curve.y_view()[2](A)
    a = Polynomial.from_roots([x_m1, x_p0, zeta])
    eq = DifferenceEquation(curve, a, beta=0.0, gamma=0.0,
                            delta=delta, eps=-delta * x_m1)
    select = Explicit(x_m1=x_m1, x_p0=x_p0)
    hints = {"y0_hint": x_m1 + 1.0, "yp1_hint": A + 1.0}
    return eq, select, c0_free, A, zeta, hints


def log_qlattice_fixture(q=np.exp(2j * np.pi * GOLDEN), shift=0.0):
    """Unit-modulus q (golden-ratio angle): the convergence-rate fixture.

    Node locus |x| = 1, pole locus |x| = 1.8, zeta at radius 1.4; for z in
    the annulus between nodes and the zeta equipotential the term ratio is
    |z| / 1.4.  With |q| != 1 the nodes spiral; a nonzero `shift` added to the
    curve's x^0 y^0 and x^2 y^2 coefficients gives P degree 4 (genus 1).
    """
    curve = GeometricLattice(a=0.0, b=1.0, q=q).curve()
    if shift:
        grid = np.array(curve.c, dtype=complex)
        grid[0, 0] += shift
        grid[2, 2] += shift
        curve = BiquadraticCurve(grid)
    x_m1, x_p0 = 1.0 + 0j, 1.8 + 0j
    zeta = 1.4 * np.exp(1j * np.pi / 3.0)
    a = Polynomial.from_roots([x_m1, x_p0, zeta])
    eq = DifferenceEquation(curve, a, beta=0.0, gamma=0.0, delta=1.0, eps=-x_m1)
    select = Explicit(x_m1=x_m1, x_p0=x_p0)
    hints = {"y0_hint": q * x_m1, "yp1_hint": q * x_p0}
    return eq, select, zeta, q, hints


def solve_log_qlattice(N=30, c0_free=0.0, **curve_args):
    eq, select, zeta, q, hints = log_qlattice_fixture(**curve_args)
    return solve(eq, select, N, c0_free=c0_free, **hints), zeta, q


def random_real_curves(count=5, seed=20240817):
    """Random real-coefficient curves in [-2, 2] that pass the validity checks."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        grid = rng.uniform(-2.0, 2.0, (3, 3))
        try:
            out.append(BiquadraticCurve(grid))
        except Exception:
            continue
    return out


def genus1_equation(seed):
    """Seeded real curve with a true quartic P (genus 1), monic cubic a, random beta..eps."""
    from ellgrid.errors import ValidationError

    rng = np.random.default_rng(seed)
    while True:
        try:
            curve = BiquadraticCurve(rng.uniform(-2.0, 2.0, (3, 3)))
        except ValidationError:
            continue
        if curve.discriminant_P().degree() == 4:
            break
    a = Polynomial(tuple(rng.uniform(-1.5, 1.5, 3)) + (1.0,))
    beta, gamma, delta, eps = rng.uniform(-1.0, 1.0, 4)
    return DifferenceEquation(curve, a, beta=beta, gamma=gamma, delta=delta, eps=eps)


def ref_F(curve, x, y):
    """F(x, y) by the nested Horner loop over the grid, each level started from 0j."""
    acc = 0j
    for row in reversed(curve.c):
        inner = 0j
        for v in reversed(row):
            inner = inner * y + v
        acc = acc * x + inner
    return acc


def ref_flip(curve, t, s, over_x):
    """The other root over t of the view through s (y over x when over_x, else x over y):
    the lead test on V2(t), the Vieta sum -V1/V2 - s, then up to two Newton steps on the
    nested-loop F, each kept only while |F| drops."""
    _, v1, v2 = curve.x_view() if over_x else curve.y_view()
    lead = v2(t)
    size = reduced_abs(lead, t, v2.degree())
    if not LEAD_TOL * v2.max_coeff < size < cmath.inf:
        raise LeadingCoefficientVanishesError(
            t, None if size < cmath.inf else f"leading coefficient at {t} is not finite")
    v1 = v1(t)
    s = -v1 / lead - s

    def F(s):
        return ref_F(curve, t, s) if over_x else ref_F(curve, s, t)
    fv = F(s)
    for _ in range(2):
        d = v1 + 2.0 * lead * s
        if d == 0:
            break
        s2 = s - fv / d
        f2 = F(s2)
        if not abs(f2) < abs(fv):
            break
        s, fv = s2, f2
    return s


def ref_walk(curve, x0, y0, lo, hi):
    """({n: x_n}, {n: y_n}) for lo <= n <= 0 <= hi, walked as `LatticePair.ensure(lo, hi)`
    does (forward to hi, then back to lo) by `ref_flip`, one step at a time.

    A forward step flips y then x, a backward step x then y.  The errors are the
    lattice's: LatticeSingularityError(m) for a vanishing lead or a non-finite point
    at index m, LatticeStagnationError(m) once the last STAGNATION_RUN steps up to m
    all moved x and y by less than STAGNATION_TOL max(1, |x|, |y|).
    """
    xs, ys = {0: complex(x0)}, {0: complex(y0)}
    for direction, end in ((1, hi), (-1, lo)):
        for n in range(0, end, direction):
            m = n + direction
            x, y = xs[n], ys[n]
            try:
                if direction > 0:
                    y = ref_flip(curve, x, y, True)
                    x = ref_flip(curve, y, x, False)
                else:
                    x = ref_flip(curve, y, x, False)
                    y = ref_flip(curve, x, y, True)
            except LeadingCoefficientVanishesError as exc:
                raise LatticeSingularityError(m, f"step {n}->{m}: {exc}") from exc
            if not (cmath.isfinite(x) and cmath.isfinite(y)):
                raise LatticeSingularityError(m, f"step {n}->{m}: ({x}, {y}) is not finite")
            xs[m], ys[m] = x, y
            steps = [(m - direction * k, m - direction * (k + 1)) for k in range(STAGNATION_RUN)]
            if all(b in xs and max(abs(xs[a] - xs[b]), abs(ys[a] - ys[b]))
                   < STAGNATION_TOL * max(1.0, abs(xs[a]), abs(ys[a])) for a, b in steps):
                raise LatticeStagnationError(m)
    return xs, ys


def ref_xi(eq, pair, n):
    """xi_n = C_n (a + c (y'_{n+1} - y'_n)/2)(z) / ((z - x_{-1})(z - x'_0)(z - x_{n-1})), z = x'_n.

    A reference read index by index, with C_n = diff_constant(pair, n).
    """
    z = pair.xp(n)
    num = eq.a(z) + eq.c(z) * (pair.yp(n + 1) - pair.yp(n)) / 2.0
    den = (z - pair.x(-1)) * (z - pair.xp(0)) * (z - pair.x(n - 1))
    return diff_constant(pair, n) * num / den


def ref_eta(eq, pair, n):
    """eta_n = C_n (a - c (y_n - y_{n-1})/2)(z) / ((z - x_{-1})(z - x'_0)(z - x'_n)), z = x_{n-1}.

    A reference read index by index, with C_n = diff_constant(pair, n).
    """
    z = pair.x(n - 1)
    num = eq.a(z) - eq.c(z) * (pair.y(n) - pair.y(n - 1)) / 2.0
    den = (z - pair.x(-1)) * (z - pair.xp(0)) * (z - pair.xp(n))
    return diff_constant(pair, n) * num / den


def ref_cn_xn1(pair, n):
    """C_n = Yb_n(y_n) (z - x'_0)(z - x'_n) / ((y_n - y_{n-1}) X2(z) Xb_{n-1}(z)), z = x_{n-1}.

    The x_{n-1} route of C_n, read index by index.
    """
    z = pair.x(n - 1)
    num = pair.y_basis(n)(pair.y(n)) * (z - pair.xp(0)) * (z - pair.xp(n))
    den = (pair.y(n) - pair.y(n - 1)) * pair.curve.x_view()[2](z) * pair.x_basis(n - 1)(z)
    return num / den


def ref_dn(pair, n, at):
    """D_n at x_{-1}, x_{n-1}, x'_0 or x'_n, one branch per point, read index by index."""
    cn = diff_constant(pair, n)
    x2 = pair.curve.x_view()[2]
    if at == "xm1":
        return -0.5 * cn * x2(pair.x(-1)) * (pair.y(0) - pair.y(-1))
    if at == "xn1":
        return 0.5 * cn * x2(pair.x(n - 1)) * (pair.y(n) - pair.y(n - 1))
    if at == "xp0":
        return 0.5 * cn * x2(pair.xp(0)) * (pair.yp(1) - pair.yp(0))
    assert at == "xpn"
    return -0.5 * cn * x2(pair.xp(n)) * (pair.yp(n + 1) - pair.yp(n))


def ref_ratio_recurrence(eq, pair, c0, N):
    """c_0 .. c_N (N >= 1): c_1 = (beta c_0 + delta)/eta_1, then c_{n+1} = -c_n xi_n / eta_{n+1}."""
    cs = [c0, (eq.beta * c0 + eq.delta) / ref_eta(eq, pair, 1)]
    for n in range(1, N):
        cs.append(-cs[-1] * ref_xi(eq, pair, n) / ref_eta(eq, pair, n + 1))
    return cs


def ref_closed_product(eq, pair, n, c1):
    """c_n by the closed product, one Python factor at a time from per-index reads."""
    xm1, xp0 = pair.x(-1), pair.xp(0)
    v = c1 * diff_constant(pair, 1) / (pair.xp(1) - pair.x(0))
    v *= (pair.xp(n) - pair.x(n - 1)) / diff_constant(pair, n)
    for k in range(1, n):
        xk, xpk = pair.x(k), pair.xp(k)
        v *= (eq.a(xpk) + eq.c(xpk) * (pair.yp(k + 1) - pair.yp(k)) / 2.0) \
            / (eq.a(xk) - eq.c(xk) * (pair.y(k + 1) - pair.y(k)) / 2.0)
        v *= (xk - xm1) * (xk - xp0) / ((xpk - xm1) * (xpk - xp0))
    return v


def ref_log_product(eq, pair, n, c1, zeta):
    """c_n by the elementary product formula of the logarithmic case, one Python factor
    at a time from per-index reads."""
    xm1, ym1, xp0 = pair.x(-1), pair.y(-1), pair.xp(0)
    v = c1 * diff_constant(pair, 1) / (pair.xp(1) - pair.x(0)) * eq.curve.x_view()[2](xm1)
    v *= (pair.xp(n) - pair.x(n - 1)) / (xm1 - xp0)
    for j in range(1, n + 1):
        v *= (ym1 - pair.yp(j)) / (xm1 - pair.xp(j))
        if j >= 2:
            v *= (xm1 - pair.x(j - 2)) / (ym1 - pair.y(j - 1))
            v *= (pair.xp(j - 1) - zeta) / (pair.x(j - 1) - zeta)
    return v


@pytest.fixture(scope="session")
def linear_solution():
    eq, select = linear_fixture()
    return eq, solve(eq, select, 10)


@pytest.fixture(scope="session")
def qgeom_solution():
    eq, select = qgeom_fixture()
    return eq, solve(eq, select, 10)


@pytest.fixture(scope="session")
def aw_solution():
    eq, select = aw_fixture()
    return eq, solve(eq, select, 10)


@pytest.fixture(scope="session")
def all_general_solutions(linear_solution, qgeom_solution, aw_solution):
    return {"linear": linear_solution, "qgeom": qgeom_solution,
            "askey-wilson": aw_solution}
