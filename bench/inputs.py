"""Inputs for the benchmark, built without pytest or hypothesis.

The closed-form fixtures mirror `tests/conftest.py` coefficient for
coefficient (the smoke test checks this), the solve scenario is the one in
the README, and the genus-1 equations come from a seeded generator: a random
real curve whose discriminant P is a true quartic, a cubic `a` and random
beta..eps.  Only the generated objects reach the program.
"""
from __future__ import annotations

import cmath
import json

import numpy as np

from ellgrid import (
    AskeyWilsonLattice,
    BiquadraticCurve,
    DifferenceEquation,
    Explicit,
    GeometricLattice,
    LinearLattice,
)
from ellgrid.errors import ValidationError
from ellgrid.poly import Polynomial

GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0


# -- closed-form fixtures (same constructions as tests/conftest.py) -------------------


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
    """Askey-Wilson curve (q = 1/2): x_{-1} at z = 3, x'_0 at z = 5, a(0) = 1."""
    q = 0.5
    curve = AskeyWilsonLattice(a=0.0, b=1.0, c=1.0, q=q).curve()
    beta, gamma = 0.0, 2.0
    x2 = curve.x_view()[2]
    x_m1, y_m1 = _aw_xy(3.0, q)
    y_0 = _aw_xy(3.0 * q, q)[1]
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


def log_linear_fixture(x_m1=-2.0 + 0.1j, pole_seed=0.25 + 0.5j, c0_free=0.3 - 0.7j):
    """Logarithmic telescoping fixture on the linear curve (exact f = 1/(y - A) + const)."""
    curve = LinearLattice(h=1.0).curve()
    A = complex(pole_seed)
    xr = curve.x_roots(A)
    x_p0 = xr.nearest(A)
    zeta = xr.other(x_p0)
    delta = -1.0 / curve.y_view()[2](A)
    a = Polynomial.from_roots([x_m1, x_p0, zeta])
    eq = DifferenceEquation(curve, a, beta=0.0, gamma=0.0,
                            delta=delta, eps=-delta * x_m1)
    select = Explicit(x_m1=x_m1, x_p0=x_p0)
    hints = {"y0_hint": x_m1 + 1.0, "yp1_hint": A + 1.0}
    return eq, select, c0_free, A, zeta, hints


def log_qlattice_fixture():
    """Rotation lattice (q on the unit circle at the golden angle), zeta at radius 1.4."""
    q = np.exp(2j * np.pi * GOLDEN)
    curve = GeometricLattice(a=0.0, b=1.0, q=q).curve()
    x_m1, x_p0 = 1.0 + 0j, 1.8 + 0j
    zeta = 1.4 * np.exp(1j * np.pi / 3.0)
    a = Polynomial.from_roots([x_m1, x_p0, zeta])
    eq = DifferenceEquation(curve, a, beta=0.0, gamma=0.0, delta=1.0, eps=-x_m1)
    select = Explicit(x_m1=x_m1, x_p0=x_p0)
    hints = {"y0_hint": q * x_m1, "yp1_hint": q * x_p0}
    return eq, select, zeta, q, hints


# -- seeded genus-1 equations -------------------------------------------------------


def random_genus1_equation(rng):
    """A random real curve with a true quartic P, a monic cubic a, random beta..eps."""
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


# -- CLI scenarios --------------------------------------------------------------------

# The solve scenario printed in the README: curve (y - x)(y - x/2), a = x^2 - 3x,
# c = x, d = 1 + x, special points 4 and 12/5.
README_SOLVE_SCENARIO = {
    "run": "solve",
    "curve": [[[0.0, 0.0], [0.0, 0.0], [1.0, 0.0]],
              [[0.0, 0.0], [-1.5, 0.0], [0.0, 0.0]],
              [[0.5, 0.0], [0.0, 0.0], [0.0, 0.0]]],
    "equation": {
        "a": [[0.0, 0.0], [-3.0, 0.0], [1.0, 0.0]],
        "c": [[0.0, 0.0], [1.0, 0.0]],
        "d": [[1.0, 0.0], [1.0, 0.0]],
    },
    "params": {"n": 10, "select": {"explicit": [[4.0, 0.0], [2.4, 0.0]]}},
}


def cjson(z):
    z = complex(z)
    return [z.real, z.imag]


def _grid_json(curve):
    return [[cjson(v) for v in row] for row in curve.c]


def readme_scenario(run):
    cfg = json.loads(json.dumps(README_SOLVE_SCENARIO))
    cfg["run"] = run
    return cfg


def log_qlattice_ratemap_scenario(side):
    """Criterion-9 rate map: side x side over [0.75, 1.35]^2, window [5, 25], predicted."""
    eq, select, _zeta, _q, hints = log_qlattice_fixture()
    return {
        "run": "ratemap",
        "curve": _grid_json(eq.curve),
        "equation": {"mode": "log",
                     "a": [cjson(c) for c in eq.a.coeffs],
                     "d": [cjson(c) for c in eq.d.coeffs],
                     "c0_free": [0.0, 0.0]},
        "params": {"select": {"explicit": [cjson(select.x_m1), cjson(select.x_p0)]},
                   "y0_hint": cjson(hints["y0_hint"]),
                   "yp1_hint": cjson(hints["yp1_hint"]),
                   "window": [5, 25],
                   "grid": {"re": [0.75, 1.35, side], "im": [0.75, 1.35, side]}},
    }


def linear_ratemap_scenario(side):
    """General-mode linear fixture: side x side over [-3, 3]^2, window [5, 25], empirical."""
    eq, select = linear_fixture()
    return {
        "run": "ratemap",
        "curve": _grid_json(eq.curve),
        "equation": {"a": [cjson(c) for c in eq.a.coeffs],
                     "c": [cjson(c) for c in eq.c.coeffs],
                     "d": [cjson(c) for c in eq.d.coeffs]},
        "params": {"select": {"explicit": [cjson(select.x_m1), cjson(select.x_p0)]},
                   "window": [5, 25],
                   "grid": {"re": [-3.0, 3.0, side], "im": [-3.0, 3.0, side]}},
    }


def write_scenario(path, cfg):
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return str(path)
