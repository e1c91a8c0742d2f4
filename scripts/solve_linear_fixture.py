#!/usr/bin/env python3
"""Solve a first-order difference equation on the unit-step lattice.

The curve is (y - x)(y - x - 1) = 0, giving the classic forward difference;
the equation is  x^2 (D f) = 2 (M f) + x  with special points at i and 1.
Prints the expansion coefficients, the two-route cross-checks, and the
interpolation/residual diagnostics.
"""
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from ellgrid import (                                   # noqa: E402
    DifferenceEquation,
    Explicit,
    LinearLattice,
    residual,
    solve,
    verify_interpolation,
)
from ellgrid.poly import Polynomial                     # noqa: E402


def main():
    curve = LinearLattice(h=1.0).curve()
    eq = DifferenceEquation(curve, Polynomial((0, 0, 1.0)),
                            beta=0.0, gamma=2.0, delta=1.0, eps=0.0)
    N = 12
    sol = solve(eq, Explicit(x_m1=1j, x_p0=1.0), N)

    print(f"special points: x_-1 = {sol.special.x_m1}, x'_0 = {sol.special.x_p0}")
    print(f"certificates:   {sol.special.res_m1:.2e}, {sol.special.res_p0:.2e}")
    print()
    print("  n            c_n                     |c_n|    closed-product gap")
    gaps = sol.diagnostics["product_gaps"]     # n = 0 is c_0 on both routes
    for n, c in enumerate(sol.coeffs):
        gap = f"{gaps[n]:.2e}" if n >= 1 else ""
        print(f"  {n:3d}  {c!s:>30}  {abs(c):.6e}  {gap}")

    rep = verify_interpolation(eq, sol, N)
    print()
    print(f"interpolation vs stepwise oracle (j <= {N}): max rel err {rep.max_error:.2e}")
    for j in (0, 3, 7):
        z = sol.pair.unprimed.x(j)
        print(f"equation residual at x_{j}: {abs(residual(eq, sol, N, z)):.2e}")


if __name__ == "__main__":
    main()
