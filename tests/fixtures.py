"""Fixture equations, seeded inputs and `ellgrid` configs for the tests, the scripts and CI:
plain functions, no pytest.

One equation per lattice family, built from closed forms.  Each general-mode fixture pins
its special points by construction (the cubic or quadratic `a` interpolates the defining
conditions at chosen lattice points), so tests can assert that the locator rediscovers them.
"""
import cmath
import pathlib

import numpy as np

from ellgrid import (AskeyWilsonLattice, BiquadraticCurve, DifferenceEquation, Explicit,
                     GeometricLattice, LinearLattice, solve)
from ellgrid.errors import ValidationError
from ellgrid.poly import Polynomial

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



def trimmed_curve(i):
    """genus1_equation(1)'s curve with c[i][2] set to 3e-15 max|c|, below the 1e-13 trim: its
    y-view's V_i has degree 1 while F's row i still reads c[i][2] (and for i = 2 the x-view's
    V2 drops its x^2 term too)."""
    grid = [list(row) for row in genus1_equation(1).curve.c]
    grid[i][2] = 3e-15 * max(abs(v) for row in grid for v in row)
    curve = BiquadraticCurve(grid)
    assert curve.y_view()[i].degree() == 1
    return curve


def genus1_runs(seeds, selects, N):
    """oracles.verify_suite_sweep's runs for genus1_equation(seed) under each of selects at order N."""
    for seed in seeds:
        eq = genus1_equation(seed)
        yield from ((f"genus1-{seed} {select!r}", eq, select, N, {}) for select in selects)


# -- configs for the `ellgrid` console script ---------------------------------------------------


def readme_config():
    """The text of the README's json block, the `ellgrid solve` scenario."""
    readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
    text = readme.read_text(encoding="utf-8")
    return text.split("```json", 1)[1].split("```", 1)[0].lstrip("\n")


def cjson(z):
    """z as a config's [re, im] pair."""
    z = complex(z)
    return [z.real, z.imag]


def explicit(select):
    """The select clause of an Explicit selector."""
    return {"explicit": [cjson(select.x_m1), cjson(select.x_p0)]}


def scenario_config(eq, select, params, log_hints=None, c0_free=0j):
    """A config for eq with the select clause select and params: general mode (a, c and d), or
    log mode (a, d and c0_free) with the solve hints log_hints ahead of params."""
    a, c, d = ([cjson(v) for v in p.coeffs] for p in (eq.a, eq.c, eq.d))
    if log_hints is None:
        equation, hints = {"a": a, "c": c, "d": d}, {}
    else:
        equation = {"mode": "log", "a": a, "d": d, "c0_free": cjson(c0_free)}
        hints = {k: cjson(v) for k, v in log_hints.items()}
    return {"curve": eq.curve.to_json(), "equation": equation,
            "params": {"select": select, **hints, **params}}


def aw_lattice_config(n_max):
    """The Askey-Wilson lattice x_n = 2^-n + 0.3 2^n to n_max: |x_n| passes 1e154 near
    |n| = 512 and the float range at n = 1026."""
    aw = AskeyWilsonLattice(a=0.0, b=1.0, c=0.3, q=0.5)
    x0, y0 = aw.point(0)
    return {"curve": aw.curve().to_json(), "lattice_seed": {"x0": cjson(x0), "y0": cjson(y0)},
            "params": {"n_max": n_max}}
