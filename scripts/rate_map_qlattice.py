#!/usr/bin/env python3
"""Predicted vs measured convergence rates on a rotation lattice.

The curve is (y - x)(y - q x) with q on the unit circle at the golden-ratio
angle, so the node lattice fills |x| = 1 and the pole lattice |x| = 1.8.  The
logarithmic equation  a (D f) = d  with a = (x - 1)(x - 1.8)(x - zeta),
|zeta| = 1.4, converges geometrically for 1 < |z| < 1.4 at the rate |z|/1.4.

Writes a rate-map CSV (default 21x21 over [0.75, 1.35]^2) and prints a radial
comparison of the empirical fit against the closed-form prediction.
"""
import argparse
import pathlib
import sys

import numpy as np

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from ellgrid import (                                   # noqa: E402
    DifferenceEquation,
    Explicit,
    GeometricLattice,
    RatePredictor,
    empirical_rate,
    rate_map,
    solve,
    write_rate_map_csv,
)
from ellgrid.poly import Polynomial                     # noqa: E402


def build_solution(n_terms=30):
    q = np.exp(2j * np.pi * (np.sqrt(5.0) - 1.0) / 2.0)
    curve = GeometricLattice(a=0.0, b=1.0, q=q).curve()
    x_m1, x_p0 = 1.0 + 0j, 1.8 + 0j
    zeta = 1.4 * np.exp(1j * np.pi / 3.0)
    a = Polynomial.from_roots([x_m1, x_p0, zeta])
    eq = DifferenceEquation(curve, a, beta=0.0, gamma=0.0, delta=1.0, eps=-x_m1)
    sol = solve(eq, Explicit(x_m1=x_m1, x_p0=x_p0), n_terms, c0_free=0.0,
                y0_hint=q * x_m1, yp1_hint=q * x_p0)
    return sol, zeta


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="qlattice_rates.csv")
    parser.add_argument("--grid", type=int, default=21, help="points per axis")
    parser.add_argument("--window", type=int, nargs=2, default=(5, 25))
    args = parser.parse_args(argv)

    sol, zeta = build_solution(n_terms=args.window[1] + 5)
    predictor = RatePredictor(sol)
    print(f"period omega = {predictor.omega}, rotation number tau = {predictor.tau}")
    print(f"zeta = {zeta}  (reference equipotential at |z| = {abs(zeta):.3f})")
    print()
    print("   |z|    empirical  predicted  theory |z|/|zeta|")
    for r in (1.02, 1.08, 1.14, 1.20, 1.26, 1.32):
        z = r * np.exp(0.7j)
        emp = empirical_rate(sol, z, *args.window).empirical_rate
        pred = predictor.rate(z)
        print(f"  {r:5.2f}   {emp:9.4f}  {pred:9.4f}  {r / abs(zeta):9.4f}")

    axis = np.linspace(0.75, 1.35, args.grid)
    rows = rate_map(sol, axis, axis, *args.window)
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        write_rate_map_csv(rows, fh)
    print(f"\nrate map ({args.grid}x{args.grid}) written to {args.out}")


if __name__ == "__main__":
    main()
