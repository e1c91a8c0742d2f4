"""The step kernel's array readers against their per-index twins and a 50-digit replay.

`stepwise_oracle` forms every step's terms in one numpy pass of the per-equation kernel;
`ref_stepwise_oracle` reads the lattice index by index and evaluates through
`Polynomial.__call__` in Python complex.  A stop must have the same type, index, message
and values on both, and every value of either must lie within its forward-error bound of
`ref_oracle_replay`, the same recurrence to 50 digits on the same float lattice.
"""
import warnings

import numpy as np
import pytest

from ellgrid import (
    AskeyWilsonLattice,
    BasisPair,
    ByIndex,
    DifferenceEquation,
    Explicit,
    LatticePair,
    LinearLattice,
    solve,
    stepwise_oracle,
)
from ellgrid.errors import EllgridError, NonFiniteCoefficientError, SmallDivisorError
from ellgrid.poly import Polynomial
from ellgrid.solver import _c0, _ratio_coefficients, build_lattices, locate_special_points

from conftest import (
    aw_fixture,
    gate_ratios,
    general_fixtures,
    genus1_equation,
    log_linear_fixture,
    log_qlattice_fixture,
    ref_oracle_replay,
    ref_stepwise_oracle,
)


def outcome(fn):
    """fn()'s values, or the type, index, message and values of its error."""
    try:
        return fn()
    except EllgridError as exc:
        values = getattr(exc, "values", None)
        return (type(exc).__name__, getattr(exc, "index", None), str(exc),
                None if values is None else [repr(v) for v in values])


def oracle_cases():
    """(name, eq, pair, K, f0): the five fixtures at K = 300 and qgeom, whose walk stagnates at
    n = 47, at K = 40, genus1_equation seeds 0-19 under ByIndex (0, 1) and (1, 2) at K = 150, a
    lattice point on a root of a, Askey-Wilson past the float range, and a step through a
    branch point (dy = 0)."""
    for name, eq, select in general_fixtures():
        pair = build_lattices(eq, locate_special_points(eq, select))
        yield name, eq, pair, 300, _c0(eq, pair.unprimed.x(-1))
        if name == "qgeom":
            yield "qgeom K=40", eq, pair, 40, _c0(eq, pair.unprimed.x(-1))
    eq, select, c0_free, _, _, hints = log_linear_fixture()
    yield "log-linear", eq, solve(eq, select, 10, c0_free=c0_free, **hints).pair, 300, c0_free
    eq, select, _, _, hints = log_qlattice_fixture()
    yield "log-q", eq, solve(eq, select, 10, c0_free=0.0, **hints).pair, 300, 0.0
    for seed in range(20):
        eq = genus1_equation(seed)
        for select in (ByIndex(0, 1), ByIndex(1, 2)):
            try:
                pair = build_lattices(eq, locate_special_points(eq, select))
                f0 = _c0(eq, pair.unprimed.x(-1))
            except EllgridError:
                continue
            yield f"genus1-{seed} {select}", eq, pair, 150, f0
    # zeta = x_2 of the lattice seeded at x_{-1}: step 2 divides by a(x_2) = 0
    x_m1, x_p0 = -2.0 + 0.1j, 0.25 + 0.5j
    eq = DifferenceEquation(LinearLattice(h=1.0).curve(),
                            Polynomial.from_roots([x_m1, x_p0, x_m1 + 3.0]), 0.0, 0.0, 1.0, -x_m1)
    sp = locate_special_points(eq, Explicit(x_m1, x_p0), y0_hint=x_m1 + 1.0, yp1_hint=x_p0 + 1.0)
    yield "singular", eq, build_lattices(eq, sp), 5, 0.0
    eq, select = aw_fixture()
    pair = build_lattices(eq, locate_special_points(eq, select))
    yield "aw-overflow", eq, pair, 700, _c0(eq, pair.unprimed.x(-1))
    eq, pair = branch_step_pair()
    yield "branch-step", eq, pair, 3, 1.0


def branch_step_pair():
    """(eq, pair) whose unprimed lattice is seeded at its branch point x_0 = 2, so
    y_1 - y_0 = -0j: step 0 divides by a zero step difference."""
    unprimed = AskeyWilsonLattice(a=0.0, b=1.0, c=1.0, q=0.5).spec()
    primed = AskeyWilsonLattice(a=0.0, b=3.0, c=1.0 / 3.0, q=0.5).spec()
    eq = DifferenceEquation(unprimed.curve, Polynomial((1.0, 0.0, 1.0)), 1.0, 0.0, 1.0, 0.0)
    return eq, BasisPair(LatticePair(unprimed), LatticePair(primed))


CASES = list(oracle_cases())


@pytest.mark.parametrize("eq, pair, K, f0", [case[1:] for case in CASES],
                         ids=[case[0] for case in CASES])
def test_stepwise_oracle_equals_the_reference(eq, pair, K, f0):
    """Equal stops, bit for bit; values each within its forward-error bound."""
    got = outcome(lambda: stepwise_oracle(eq, pair, K, f0=f0))
    want = outcome(lambda: ref_stepwise_oracle(eq, pair, K, f0))
    if isinstance(want, tuple):
        assert got == want
        return
    assert isinstance(got, list) and len(got) == len(want) == K + 1
    replay = ref_oracle_replay(eq, pair, K, f0)
    for vals in (got, want):
        ratios = gate_ratios(vals, replay)
        assert all(r <= 1.0 for r in ratios), max(ratios)


def test_the_cases_reach_every_outcome():
    kinds = {type(o).__name__ if isinstance(o, list) else o[0]
             for o in (outcome(lambda c=c: stepwise_oracle(c[1], c[2], c[3], f0=c[4])) for c in CASES)}
    assert {"list", "HitSingularLatticeError", "LatticeSingularityError"} <= kinds
    assert len(CASES) >= 30


def test_zero_step_difference_is_a_small_divisor():
    # the eta loop stops typed at the branch step (the oracle's stop is the "branch-step"
    # case above); C_n is degenerate on this pair, so the loop gets unit constants
    eq, pair = branch_step_pair()
    assert repr(pair.unprimed.y(1) - pair.unprimed.y(0)) == "-0j"
    reads = (np.ones(4, dtype=complex), pair.unprimed.span(-1, 4), pair.primed.span(0, 4))
    with pytest.raises(SmallDivisorError) as info:
        _ratio_coefficients(eq, reads, 1.0)
    assert info.value.index == 1


def test_no_numpy_warning_escapes_the_kernel():
    """The array passes past the float range, through dy = 0, at a singular step and at the
    Askey-Wilson c_344 probe (a(z) and c(z) overflow at |x'_n| ~ 7e102) raise their typed
    errors with warnings turned into errors."""
    cases = {name: case for name, *case in CASES}
    eq, pair = branch_step_pair()
    reads = (np.ones(4, dtype=complex), pair.unprimed.span(-1, 4), pair.primed.span(0, 4))
    aw, select = aw_fixture()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for name, index in (("aw-overflow", 513), ("branch-step", 0), ("singular", 2)):
            eq_, pair_, K, f0 = cases[name]
            with pytest.raises(EllgridError) as info:
                stepwise_oracle(eq_, pair_, K, f0=f0)
            assert info.value.index == index
        with pytest.raises(SmallDivisorError):
            _ratio_coefficients(eq, reads, 1.0)
        with pytest.raises(NonFiniteCoefficientError) as info:
            solve(aw, select, 400)
        assert info.value.index == 344
        assert all(np.isfinite(stepwise_oracle(*cases["aw-overflow"][:2], 500)))
