import io
import math
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ellgrid.convergence as convergence
from ellgrid import (
    AskeyWilsonLattice,
    RatePredictor,
    detect_small_divisors,
    diff_constant,
    empirical_rate,
    evaluate_partial_sum,
    identity_samples,
    rate_map,
    residual,
    solve,
    term_magnitudes,
    write_rate_map_csv,
)
from ellgrid.convergence import path_integral, period_quadrature, route_path, trace_lattice_locus
from ellgrid.diffops import BasisPair, pole_hit
from ellgrid.errors import (
    PathThroughBranchPointError,
    PoleEvaluationError,
    RefinePathError,
    ValidationError,
    WindowTooSmallError,
)
from ellgrid.lattice import generate

from fixtures import GOLDEN, aw_fixture, linear_fixture, log_linear_fixture, solve_log_qlattice


@pytest.fixture(scope="module")
def qsol():
    sol, zeta, q = solve_log_qlattice(N=30)
    return sol, zeta, q


def aw_rotation_solution(zeta=0.5 + 0.5j, turn=0.0):
    """A stand-in logarithmic solution on the |q| = 1 Askey-Wilson lattice (b = 1,
    c = 0.7, golden angle): its nodes fill the ellipse x = s + 0.7/s, |s| = 1,
    around both roots +/-2 sqrt(0.7) of P, from s = exp(i turn).  It holds what
    RatePredictor reads."""
    lat = AskeyWilsonLattice(a=0.0, b=np.exp(1j * turn), c=0.7 * np.exp(-1j * turn),
                             q=np.exp(2j * np.pi * GOLDEN))
    return SimpleNamespace(mode="log", zeta=zeta, eq=SimpleNamespace(curve=lat.curve()),
                           pair=SimpleNamespace(unprimed=generate(lat.spec(), 0, 2)))


# -- small divisors --------------------------------------------------------------------


class _StubLattice:
    """Reads y_n from a dict (x_n unused)."""

    def __init__(self, ys):
        self.ys = ys

    def values(self, n_lo, n_hi):
        ys = [self.ys[n] for n in range(n_lo, n_hi)]
        return ys, ys


class _StubPair:
    def __init__(self, ys):
        self.unprimed = _StubLattice(ys)


def test_small_divisors_never_flag_linear():
    ys = {n: complex(n) for n in range(-1, 21)}
    assert detect_small_divisors(_StubPair(ys), 20, 0.05) == []


def test_small_divisors_flag_engineered_return():
    ys = {n: complex(2.0 + 0.7 * n) for n in range(-1, 21)}
    ys[5] = ys[-1] + 1e-9          # near-return at n - 2 = 5 -> flags n = 7
    flagged = detect_small_divisors(_StubPair(ys), 20, 0.05)
    assert [n for n, _ in flagged] == [7]


def test_small_divisors_zero_threshold():
    ys = {n: complex(n) for n in range(-1, 21)}
    assert detect_small_divisors(_StubPair(ys), 20, 0.0) == []


AXIS = [1.0, 1.2]


@pytest.mark.parametrize("call, name", [
    pytest.param(lambda sol: empirical_rate(sol, 1.1, 5.0, 25), "n_min", id="empirical-n_min"),
    pytest.param(lambda sol: empirical_rate(sol, 1.1, 5, 25.0), "n_max", id="empirical-n_max"),
    pytest.param(lambda sol: empirical_rate(sol, 1.1, 5, 25, smalldiv_threshold=1j),
                 "smalldiv_threshold", id="empirical-threshold"),
    pytest.param(lambda sol: empirical_rate(sol, 1.1, -10, -3), "n_max", id="empirical-n_max<0"),
    pytest.param(lambda sol: term_magnitudes(sol, 1.1, 5.0), "n_max", id="terms-n_max"),
    pytest.param(lambda sol: term_magnitudes(sol, 1.1, -3), "n_max", id="terms-n_max<0"),
    pytest.param(lambda sol: rate_map(sol, AXIS, AXIS, 5.0, 25), "n_min", id="map-n_min"),
    pytest.param(lambda sol: rate_map(sol, AXIS, AXIS, 5, None), "n_max", id="map-n_max"),
    pytest.param(lambda sol: rate_map(sol, AXIS, AXIS, -10, -3), "n_max", id="map-n_max<0"),
    pytest.param(lambda sol: rate_map(sol, AXIS, AXIS, 5, 25, math.nan), "smalldiv_threshold",
                 id="map-threshold"),
    pytest.param(lambda sol: detect_small_divisors(sol.pair, 20, 1j), "threshold",
                 id="divisors-complex-threshold"),
    pytest.param(lambda sol: detect_small_divisors(sol.pair, 20, True), "threshold",
                 id="divisors-bool-threshold"),
    pytest.param(lambda sol: detect_small_divisors(sol.pair, 20.0, 0.05), "N", id="divisors-N"),
    pytest.param(lambda sol: diff_constant(sol.pair, None), "n", id="cn-none"),
    pytest.param(lambda sol: diff_constant(sol.pair, 2.0), "n", id="cn-float"),
    pytest.param(lambda sol: identity_samples(sol.pair, 3, count=2.5), "count", id="samples-2.5"),
    pytest.param(lambda sol: identity_samples(sol.pair, 3, count=1e300), "count",
                 id="samples-1e300"),
    pytest.param(lambda sol: identity_samples(sol.pair, 3, count=0), "count", id="samples-0"),
    pytest.param(lambda sol: identity_samples(sol.pair, 3.0), "n", id="samples-n"),
    pytest.param(lambda sol: identity_samples(sol.pair, -1), "n", id="samples-n=-1"),
    pytest.param(lambda sol: identity_samples(sol.pair, -2), "n", id="samples-n=-2"),
    pytest.param(lambda sol: identity_samples(sol.pair, -5), "n", id="samples-n=-5"),
    pytest.param(lambda sol: identity_samples(sol.pair, 3, seed=None), "seed", id="seed-none"),
    pytest.param(lambda sol: identity_samples(sol.pair, 3, seed=[1]), "seed", id="seed-list"),
    pytest.param(lambda sol: identity_samples(sol.pair, 3, seed=7.0), "seed", id="seed-float"),
    pytest.param(lambda sol: identity_samples(sol.pair, 3, seed=True), "seed", id="seed-bool"),
])
def test_orders_counts_and_thresholds_are_checked_and_named(qsol, call, name):
    """An order or count that is not an integer (count >= 1), an n_max below 0 (numpy's
    untyped broadcast error unchecked), an identity-sample n below 0 (a ZeroDivisionError, or
    samples around x'_0 alone, unchecked), an identity-sample seed that is not an integer
    (unseeded samples for None, an untyped TypeError for a list, unchecked), or a threshold
    that is not a finite real, is a ValidationError whose message starts with the argument's
    name."""
    with pytest.raises(ValidationError, match=rf"^{name}\b"):
        call(qsol[0])


@pytest.mark.parametrize("values", [
    [3.0], [2.0, 1.0], [5.0, 1.0, 3.0], [0.1, 0.2], [0.1, 0.2, 0.7, 0.3],
    [1.0, 2.0, 2.0, 3.0], [2.0, 2.0, 2.0, 2.0], [2.0, 2.0, 2.0], [0.0, 5e-324],
    [1.0, math.inf], [math.inf, 1.0, math.inf], [math.inf] * 4, [1e308, 1.7e308],
    [1.0, math.nan, 2.0], [math.nan, 0.5],
    np.random.default_rng(0).random(41).tolist(), np.random.default_rng(1).random(40).tolist(),
    np.round(np.random.default_rng(2).random(60), 1).tolist(),
])
def test_median_is_np_median_bit_for_bit(values):
    """Odd and even lengths, ties, inf and NaN: the sorted middle detect_small_divisors
    uses is np.median's value, repr for repr."""
    with np.errstate(over="ignore"):
        want = float(np.median(values))
    assert repr(convergence._median(values)) == repr(want)


# -- empirical rate ---------------------------------------------------------------------


def test_empirical_rate_recovers_injected_geometric(qsol):
    sol, zeta, q = qsol
    z = 0.5 + 0.2j
    # overwrite coefficients so the n-th term at z is exactly 0.5^n
    mags = term_magnitudes(sol, z, 28)
    cs = list(sol.coeffs)
    prod = 1.0 + 0j
    for n in range(1, 29):
        prod *= (z - sol.pair.unprimed.y(n - 1)) / (z - sol.pair.primed.y(n))
        cs[n] = 0.5 ** n / prod
    old = sol.coeffs
    try:
        sol.coeffs = tuple(cs)
        rep = empirical_rate(sol, z, 5, 25, smalldiv_threshold=0.0)
    finally:
        sol.coeffs = old
    assert abs(rep.empirical_rate - 0.5) <= 1e-6
    assert rep.flags == ()
    assert rep.window == (5, 25)


@pytest.mark.parametrize("scale", ["1e-305", "1e300/max"])
def test_rate_does_not_depend_on_the_scale_of_the_coefficients(scale):
    """Every c_n (n >= 1) times one constant, so that the terms fall into subnormals (1e-305)
    or reach 1e300: empirical_rate and the rate_map cell at the same z keep the unscaled rate,
    since the fit sums logs and forms no term.  The map has more cells than terms."""
    sol = solve_log_qlattice(N=150)[0]
    z = 0.5 + 0.2j
    want = empirical_rate(sol, z, 5, 150).empirical_rate
    k = 1e-305 if scale == "1e-305" else 1e300 / max(abs(c) for c in sol.coeffs[1:])
    sol.coeffs = (sol.coeffs[0], *(k * c for c in sol.coeffs[1:]))
    got = empirical_rate(sol, z, 5, 150).empirical_rate
    axis = np.linspace(0.3, 0.7, 12).tolist()
    rows = rate_map(sol, [z.real, *axis], [z.imag, *axis], 5, 150)
    assert len(rows) > 150 and rows[0][:2] == (z.real, z.imag)
    assert abs(got - want) <= 1e-12 and abs(rows[0][2] - want) <= 1e-12, (got, rows[0][2], want)


def test_empirical_rate_inside_region(qsol):
    sol, zeta, q = qsol
    rep = empirical_rate(sol, 1.05 * np.exp(0.7j), 5, 25)
    assert 0.0 < rep.empirical_rate < 1.0


def test_not_converging_outside(qsol):
    sol, zeta, q = qsol
    # far outside the zeta equipotential the terms cannot decay
    rep = empirical_rate(sol, 1.75 * np.exp(0.3j), 5, 25)
    assert rep.empirical_rate >= 1.0
    assert "NotConverging" in rep.flags


def test_window_too_small(qsol):
    sol, _, _ = qsol
    with pytest.raises(WindowTooSmallError):
        empirical_rate(sol, 1.1, 5, 8)


# -- quadrature -------------------------------------------------------------------------------


def test_period_quadrature_q_closed_form(qsol):
    """For the geometric curve, dv/sqrt(P) = dv/((1-q) v) up to sign."""
    sol, zeta, q = qsol
    curve = sol.eq.curve
    ts = np.linspace(0.0, 2.0 * np.pi, 600, endpoint=False)
    loop = np.exp(1j * ts)
    omega = period_quadrature(curve, loop)
    want = 2j * np.pi / (1.0 - q)
    assert min(abs(omega - want), abs(omega + want)) <= 1e-8 * abs(want)
    # orientation: reversing the path flips the sign
    omega_rev = period_quadrature(curve, loop[::-1])
    assert omega_rev == pytest.approx(-omega)
    # sample-density doubling is stable
    loop2 = np.exp(1j * np.linspace(0.0, 2.0 * np.pi, 1200, endpoint=False))
    omega2 = period_quadrature(curve, loop2)
    assert abs(omega2 - omega) <= 1e-8 * abs(omega)


def test_period_quadrature_rejects_coarse_and_open_branch():
    from fixtures import aw_fixture
    curve = aw_fixture()[0].curve            # P has two simple roots near +/-2
    r1, r2 = curve.discriminant_P().roots()
    with pytest.raises(RefinePathError):
        period_quadrature(curve, [complex(r) for r in np.exp(1j * np.linspace(0, 2 * np.pi, 6, endpoint=False))])
    # a loop around exactly one branch point: sqrt cannot return
    ts = np.linspace(0.0, 2.0 * np.pi, 800, endpoint=False)
    loop = r1 + 0.3 * np.exp(1j * ts)
    with pytest.raises(RefinePathError):
        period_quadrature(curve, loop)


def test_path_integral_q_logarithm(qsol):
    sol, zeta, q = qsol
    curve = sol.eq.curve
    a, b = 1.2, 1.2 * np.exp(0.9j)
    val, _ = path_integral(curve, route_path(curve, a, b))
    want = (np.log(b) - np.log(a)) / (1.0 - q)
    assert min(abs(val - want), abs(val + want)) <= 1e-8 * abs(want)


def test_route_path_detours_around_branch_point(qsol):
    sol, zeta, q = qsol
    curve = sol.eq.curve                      # P has a double root at 0
    pts = route_path(curve, -1.0, 1.0)
    assert len(pts) > 2                       # straight chord passes through 0
    val, _ = path_integral(curve, pts)
    assert np.isfinite(val.real) and np.isfinite(val.imag)
    assert min(abs(val - 1j * np.pi / (1 - q)), abs(val + 1j * np.pi / (1 - q))) \
        <= 1e-6 * abs(np.pi / (1 - q))


def test_locus_trace_closes_on_circle(qsol):
    sol, zeta, q = qsol
    curve = sol.eq.curve
    # direction in the uniformizing plane: xi(x) = log(x)/(1-q) up to sign,
    # so the lattice line (|x| = 1) runs along i/(1-q)
    samples = trace_lattice_locus(curve, sol.pair.unprimed.x(0), 1j / (1.0 - q))
    radii = np.abs(np.asarray(samples))
    assert radii.max() - radii.min() <= 1e-6
    assert abs(samples[-1] - samples[0]) < 0.02


def test_locus_trace_stops_at_once_for_constant_p(monkeypatch):
    """A linear lattice's locus is a line that never closes: RefinePath before
    any RK4 step, counted in evaluations of P rather than timed."""
    eq, select, c0_free, _A, _zeta, hints = log_linear_fixture()
    sol = solve(eq, select, 30, c0_free=c0_free, **hints)
    P = eq.curve.discriminant_P()
    assert P.degree() == 0
    from ellgrid.poly import Polynomial
    evals = [0]

    def counted(self, z, _original=Polynomial.__call__):
        evals[0] += self is P
        return _original(self, z)
    monkeypatch.setattr(Polynomial, "__call__", counted)
    with pytest.raises(RefinePathError):
        trace_lattice_locus(eq.curve, sol.pair.unprimed.x(0), 1.0)
    assert evals[0] == 0
    with pytest.raises(RefinePathError):
        RatePredictor(sol)
    assert evals[0] < 10
    monkeypatch.undo()
    axis = np.linspace(-1.0, 1.0, 5)
    rows = rate_map(sol, axis, axis, 5, 25)
    assert any(emp is not None for _, _, emp, _, _ in rows)
    assert all(pred is None for _, _, _, pred, _ in rows)
    assert all(flags[-1:] == ("RefinePath",) for *_, flags in rows)


# -- predicted rate ---------------------------------------------------------------------------


def test_omega_is_closed_form_and_tau_the_rotation_number(qsol):
    sol, zeta, q = qsol
    predictor = RatePredictor(sol)
    p2 = sol.eq.curve.discriminant_P().coeffs[2]
    assert predictor.omega == 2j * np.pi / np.sqrt(p2)
    golden_step = 2.0 - (1.0 + np.sqrt(5.0)) / 2.0
    assert min(abs((predictor.tau.real - s * golden_step + 0.5) % 1.0 - 0.5)
               for s in (1, -1)) <= 1e-12
    assert abs(predictor.tau.imag) <= 1e-15


@pytest.mark.parametrize("which", ["qlattice", "askey-wilson"])
def test_closed_form_omega_matches_traced_locus_quadrature(qsol, which):
    """The oracle: trace the node locus (a line along omega in the uniformizing
    plane) and integrate dv/sqrt(P) around it.  The trace closes to within 1.5
    of its steps, and that gap costs least where |P| is large: on the ellipse it
    starts at the co-vertex 0.3i (from x_0 = 1.7, 0.03 from a root, the oracle
    is off by 1.7e-5)."""
    sol = qsol[0] if which == "qlattice" else aw_rotation_solution()
    predictor = RatePredictor(sol)
    assert abs(predictor.tau.imag) <= 1e-15
    curve = sol.eq.curve
    start = sol.pair.unprimed.values(0, 1)[0][0] if which == "qlattice" else 0.3j
    traced = period_quadrature(curve, trace_lattice_locus(curve, start, predictor.omega))
    omega = predictor.omega
    assert min(abs(traced - omega), abs(traced + omega)) <= 1e-8 * abs(omega)


@pytest.mark.parametrize("turn", [0.0, 0.5, np.pi / 2])
def test_tau_is_real_wherever_the_ellipse_walk_starts(turn):
    """For the last two starts a chord from x_0 to x_1 separates the roots of P,
    and a step integrated along it lands on the other sheet (|Im tau| = 0.057);
    the walk's own sqrt(P) fixes the sheet."""
    assert abs(RatePredictor(aw_rotation_solution(turn=turn)).tau.imag) <= 1e-15


S_ZETA = 1.4 * np.exp(1.2j)
ELLIPSE_S = [s for rho in (1.05, 1.15, 1.3)
             for s in rho * np.exp(1j * np.linspace(0.0, 2.0 * np.pi, 7)[:-1])]


@pytest.mark.parametrize("turn", [0.0, 0.5, np.pi / 2])
def test_predicted_rate_on_the_askey_wilson_ellipse(turn):
    """Distinct roots of P inside the node ellipse: the rate at x = s + 0.7/s is
    |s| / |s_zeta|, wherever the walk starts (a chord from x_0 to some of these
    points crosses the cut between the roots, onto the mirror lift 0.7/s)."""
    predictor = RatePredictor(aw_rotation_solution(S_ZETA + 0.7 / S_ZETA, turn))
    for s in ELLIPSE_S:
        assert predictor.rate(s + 0.7 / s) == pytest.approx(abs(s) / 1.4, rel=1e-8)


def test_orientation_flips_when_zeta_is_inside_the_node_ellipse():
    """|s_zeta| = 0.9 < 1: the rate is at most 1 at the nodes only as
    |s_zeta| / |s| on the outer lift."""
    s_zeta = 0.9 * np.exp(1.2j)
    predictor = RatePredictor(aw_rotation_solution(s_zeta + 0.7 / s_zeta))
    for s in ELLIPSE_S:
        assert predictor.rate(s + 0.7 / s) == pytest.approx(0.9 / abs(s), rel=1e-12)


@pytest.mark.parametrize("z", [1e-300, 1e-200, 1e-100, 1e-300j, -1e-200 + 1e-200j])
def test_rate_near_the_double_root_of_p(qsol, z):
    # P = p2 x^2 on the q-lattice: p2 z^2 underflows below |z| = 1e-154, and with it the
    # factor 2 sqrt(P) of the outer lift A = 4 p2 z, unless sqrt(P) is formed scaled
    sol, zeta, _ = qsol
    assert convergence.RatePredictor(sol).rate(z) == pytest.approx(abs(z) / abs(zeta), rel=1e-12)


def test_xi_is_the_outer_primitive_and_gives_the_rate():
    """xi' = 1/sqrt(P) up to sign, xi takes arrays, and the paper's
    -Im 2 pi (xi_z - xi_zeta) / omega, oriented, is log_rate."""
    predictor = RatePredictor(aw_rotation_solution(S_ZETA + 0.7 / S_ZETA, 0.5))
    P = predictor.curve.discriminant_P()
    zs = np.array([s + 0.7 / s for s in ELLIPSE_S])
    xis = predictor.xi(zs)
    assert xis.shape == zs.shape
    h = 1e-5
    for z, xi in zip(zs, xis):
        assert xi == predictor.xi(z)
        slope = (predictor.xi(z + h) - predictor.xi(z - h)) / (2.0 * h)
        assert min(abs(slope - sgn / np.sqrt(P(z))) for sgn in (1, -1)) <= 1e-8 * abs(slope)
    paper = -predictor.sign * (2.0 * np.pi * (xis - predictor.xi(predictor.zeta))
                               / predictor.omega).imag
    assert np.max(np.abs(paper - predictor.log_rate(zs))) <= 1e-13


def _quadrature_rates(sol, zs):
    """The oracle: xi by Simpson quadrature of dv/sqrt(P) along route_path from
    node x_0, and the orientation that puts rate <= 1 at x_0."""
    curve = sol.eq.curve
    x0 = complex(sol.pair.unprimed.values(0, 1)[0][0])
    w0 = np.sqrt(complex(curve.discriminant_P()(x0)))
    omega = 2j * np.pi / np.sqrt(complex(curve.discriminant_P().coeffs[2]))

    def arg(z):
        return (2.0 * np.pi * path_integral(curve, route_path(curve, x0, z), w0)[0] / omega).imag
    arg_zeta = arg(sol.zeta)
    sign = -1.0 if arg_zeta > 0 else 1.0
    return [np.exp(-sign * (arg(z) - arg_zeta)) for z in zs]


@pytest.mark.parametrize("which", ["criterion-9 grid", "ellipse"])
def test_closed_form_rate_matches_quadrature_oracle(qsol, which):
    if which == "ellipse":
        sol = aw_rotation_solution(S_ZETA + 0.7 / S_ZETA)
        zs = [s + 0.7 / s for s in ELLIPSE_S]
    else:
        sol = qsol[0]
        axis = np.linspace(0.75, 1.35, 41)
        zs = [complex(re, im) for im in axis for re in axis]
    predictor = RatePredictor(sol)
    for z, want in zip(zs, _quadrature_rates(sol, zs)):
        assert abs(predictor.rate(z) - want) <= 1e-9 * want, z


def test_rate_and_map_need_no_quadrature(qsol, monkeypatch):
    def oracle_only(*args, **kwargs):
        raise AssertionError("the quadrature oracle is not on the rate path")
    for name in ("path_integral", "route_path", "_segment_integrals"):
        monkeypatch.setattr(convergence, name, oracle_only)
    sol, zeta, q = qsol
    assert 0.0 < RatePredictor(sol).rate(1.05 * np.exp(0.7j)) < 1.0
    axis = np.linspace(0.75, 1.35, 41)
    rows = rate_map(sol, axis, axis, 5, 25)
    assert len(rows) == 41 * 41 and all(pred is not None for *_, pred, _ in rows)


@pytest.mark.parametrize("shift", [1e-3, 1e-2, 3e-2])
def test_genus1_prediction_is_refused(shift):
    """P of degree 4: no silent single-period number, a flag on every cell."""
    sol, zeta, q = solve_log_qlattice(N=30, shift=shift)
    assert sol.eq.curve.discriminant_P().degree() == 4
    with pytest.raises(RefinePathError):
        RatePredictor(sol)
    axis = np.linspace(0.75, 1.35, 5)
    rows = rate_map(sol, axis, axis, 5, 25)
    assert all(pred is None and flags[-1:] == ("RefinePath",) for _, _, _, pred, flags in rows)


def test_spiral_lattice_is_refused_at_once(monkeypatch):
    """|q| = 1.02: the nodes spiral out, Im tau = log|q| / 2 pi, and the refusal
    comes before any quadrature, counted in evaluations of P."""
    sol, zeta, q = solve_log_qlattice(N=30, q=1.02 * np.exp(2j * np.pi * GOLDEN))
    P = sol.eq.curve.discriminant_P()
    from ellgrid.poly import Polynomial
    evals = [0]

    def counted(self, z, _original=Polynomial.__call__):
        evals[0] += self is P
        return _original(self, z)
    monkeypatch.setattr(Polynomial, "__call__", counted)
    with pytest.raises(RefinePathError, match="does not close"):
        RatePredictor(sol)
    assert evals[0] < 10


def test_predictor_build_neither_traces_nor_integrates_a_loop(qsol, monkeypatch):
    def oracle_only(*args, **kwargs):
        raise AssertionError("the locus oracle is not on the rate path")
    monkeypatch.setattr(convergence, "trace_lattice_locus", oracle_only)
    monkeypatch.setattr(convergence, "period_quadrature", oracle_only)
    sol, zeta, q = qsol
    assert 0.0 < RatePredictor(sol).rate(1.05 * np.exp(0.7j)) < 1.0
    axis = np.linspace(1.0, 1.3, 3)
    assert all(pred is not None for *_, pred, _ in rate_map(sol, axis, axis, 5, 25))



def test_predicted_rate_matches_annulus_theory(qsol):
    sol, zeta, q = qsol
    predictor = RatePredictor(sol)
    want_omega = 2j * np.pi / (1.0 - q)
    assert min(abs(predictor.omega - want_omega),
               abs(predictor.omega + want_omega)) <= 1e-4 * abs(want_omega)
    for z in (1.05 * np.exp(0.7j), 1.2 * np.exp(-1.1j), 1.35 * np.exp(2.0j)):
        assert predictor.rate(z) == pytest.approx(abs(z) / abs(zeta), rel=1e-3)


def test_rate_far_out_is_finite_and_nonfinite_z_is_refused(qsol):
    """P(z) would overflow at |z| = 1e200; the rate is still |z| / |zeta|."""
    sol, zeta, q = qsol
    predictor = RatePredictor(sol)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for z in (1e200 * np.exp(0.7j), 1e300j):
            assert predictor.rate(z) == pytest.approx(abs(z) / abs(zeta), rel=1e-12)
    for z in (complex("nan"), complex("inf")):
        with pytest.raises(ValidationError):
            predictor.rate(z)


@pytest.mark.parametrize("z", [complex("nan"), complex("inf"), complex(0.5, float("-inf"))])
def test_nonfinite_z_is_refused_on_every_evaluation(z):
    """Unchecked, empirical_rate gives a NaN rate with no flag, and the others return NaN."""
    eq, select = linear_fixture()
    sol = solve(eq, select, 12)
    for call in (lambda: empirical_rate(sol, z, 2, 10), lambda: term_magnitudes(sol, z, 10),
                 lambda: evaluate_partial_sum(sol, 10, z), lambda: residual(eq, sol, 10, z)):
        with pytest.raises(ValidationError) as err:
            call()
        assert str(err.value) == f"z: expected a finite complex number, got {z!r}"


@pytest.mark.parametrize("z", ["a", None, "1.1", True, float("nan")])
def test_rate_takes_one_finite_number(qsol, z):
    """A string, None or a bool is refused as a NaN is, with a ValidationError naming z (not an
    untyped TypeError, and True is not read as 1)."""
    with pytest.raises(ValidationError) as err:
        RatePredictor(qsol[0]).rate(z)
    assert str(err.value) == f"z: expected a finite complex number, got {z!r}"


def test_rate_one_on_reference_equipotential(qsol):
    sol, zeta, q = qsol
    predictor = RatePredictor(sol)
    z = abs(zeta) * np.exp(1.3j)
    assert predictor.rate(z) == pytest.approx(1.0, abs=1e-4)


def test_rate_monotone_along_ray(qsol):
    sol, zeta, q = qsol
    predictor = RatePredictor(sol)
    rates = [predictor.rate(r * np.exp(0.4j)) for r in (1.32, 1.22, 1.12, 1.02)]
    assert all(a > b for a, b in zip(rates, rates[1:]))


def test_empirical_vs_predicted_within_15_percent(qsol):
    sol, zeta, q = qsol
    z = 1.05 * np.exp(0.7j)
    rep = empirical_rate(sol, z, 5, 25)
    pred = RatePredictor(sol).rate(z)
    assert abs(np.log(rep.empirical_rate) - np.log(pred)) <= 0.15 * abs(np.log(pred))


def test_predicted_rate_requires_log_mode():
    eq, select = linear_fixture()
    sol = solve(eq, select, 6)
    with pytest.raises(ValidationError):
        RatePredictor(sol).rate(0.5)


def test_small_divisor_exclusion_recovers_clean_slope(qsol):
    """An engineered divisor spike is flagged and, once excluded, the fit
    recovers the exact geometric decay; without the exclusion it misses."""
    sol, zeta, q = qsol
    z = 0.5 + 0.2j
    rho = 0.6
    old_coeffs, old_y12 = sol.coeffs, sol.pair.unprimed._y[12]
    try:
        # the engineered near-return divisor: y_{-1} - y_12, i.e. index n = 14
        ym1 = sol.pair.unprimed.y(-1)
        sol.pair.unprimed._y[12] = ym1 + 1e-6 * (old_y12 - ym1)
        # synthetic terms on the edited lattice: exactly rho^n, except a 1e6
        # spike at n = 14
        cs = list(sol.coeffs)
        prod = 1.0 + 0j
        for n in range(1, 29):
            prod *= (z - sol.pair.unprimed.y(n - 1)) / (z - sol.pair.primed.y(n))
            cs[n] = rho ** n / prod
        cs[14] *= 1e6
        sol.coeffs = tuple(cs)
        flagged = detect_small_divisors(sol.pair, 25, 0.05)
        assert 14 in [n for n, _ in flagged]
        excl = empirical_rate(sol, z, 5, 25, smalldiv_threshold=0.05)
        kept = empirical_rate(sol, z, 5, 25, smalldiv_threshold=0.0)
    finally:
        sol.coeffs = old_coeffs
        sol.pair.unprimed._y[12] = old_y12
    assert 14 in {n for n, _ in excl.smalldiv_flags}
    assert kept.smalldiv_flags == ()
    log_rho = np.log(rho)
    assert abs(np.log(excl.empirical_rate) - log_rho) <= 1e-12 * abs(log_rho)
    assert abs(np.log(kept.empirical_rate) - log_rho) > 0.01 * abs(log_rho)


# -- rate map ----------------------------------------------------------------------------------


def test_rate_map_rows(qsol):
    sol, zeta, q = qsol
    rows = rate_map(sol, np.linspace(1.0, 1.3, 3), np.linspace(0.1, 0.3, 2), 5, 25)
    assert len(rows) == 6
    for re, im, emp, pred, flags in rows:
        z = complex(re, im)
        if 1.0 < abs(z) < abs(zeta):
            assert emp is not None and emp < 1.0
            assert pred is not None


def test_rate_map_general_mode_has_no_prediction():
    eq, select = linear_fixture()
    sol = solve(eq, select, 12)
    rows = rate_map(sol, [2.5], [0.5], 1, 10)
    (re, im, emp, pred, flags), = rows
    assert pred is None


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, True, "1.0"], ids=repr)
@pytest.mark.parametrize("axis", ["re_axis", "im_axis"])
@pytest.mark.parametrize("mode", ["general", "log"])
def test_rate_map_refuses_an_axis_entry_that_is_not_a_finite_real(qsol, mode, axis, bad):
    """Each axis entry is a finite real, or a ValidationError names it before any work: a NaN
    would otherwise give a NaN empirical rate with no flag, or a flagged predicted cell."""
    if mode == "general":
        eq, select = linear_fixture()
        sol = solve(eq, select, 30)
    else:
        sol = qsol[0]
    axes = {"re_axis": [1.0, 0.5], "im_axis": [0.5, 0.25]}
    axes[axis][1] = bad
    with pytest.raises(ValidationError, match=rf"^{axis}\[1\]: expected a finite real"):
        rate_map(sol, axes["re_axis"], axes["im_axis"], 5, 25)


# -- rate map over the whole grid vs cell by cell ----------------------------------------------


def _loop_empirical(sol, z, n_min, n_max, threshold=0.05):
    """Reference cell: Python complex term products and np.polyfit, as (rate, flags)."""
    prod, mags = 1.0 + 0j, []
    for k in range(1, n_max + 1):
        pole = sol.pair.primed.y(k)
        if pole_hit(z, pole):
            return None, ("PoleEvaluation",)
        prod *= (z - sol.pair.unprimed.y(k - 1)) / (z - pole)
        mags.append(abs(sol.coeffs[k] * prod))
    excluded = {n for n, _ in detect_small_divisors(sol.pair, n_max, threshold)}
    ns = [n for n in range(max(n_min, 1), n_max + 1)
          if n not in excluded and mags[n - 1] != 0.0]
    if len(ns) < 5:
        return None, ("WindowTooSmall",)
    rho = float(np.exp(np.polyfit(ns, np.log([mags[n - 1] for n in ns]), 1)[0]))
    return rho, ("NotConverging",) if rho >= 1.0 else ()


def _cell_empirical(sol, z, n_min, n_max):
    try:
        rep = empirical_rate(sol, z, n_min, n_max)
    except (PoleEvaluationError, WindowTooSmallError) as exc:
        return None, (type(exc).__name__.removesuffix("Error"),)
    return rep.empirical_rate, rep.flags


def _cell_predicted(predictor, z):
    try:
        return predictor.rate(z), ()
    except (RefinePathError, PathThroughBranchPointError) as exc:
        return None, (type(exc).__name__.removesuffix("Error"),)


def _assert_rows_match_cells(sol, rows, re_axis, im_axis, predictor=None, pred_rel=1e-14):
    """rate_map rows against per-cell empirical_rate, the loop reference and rate(z)."""
    points = [(re, im) for im in im_axis for re in re_axis]
    assert [(re, im) for re, im, *_ in rows] == points
    for re, im, emp, pred, flags in rows:
        z = complex(re, im)
        cell_emp, emp_flags = _cell_empirical(sol, z, 5, 25)
        loop_emp, loop_flags = _loop_empirical(sol, z, 5, 25)
        assert emp_flags == loop_flags
        cell_pred, pred_flags = (None, ()) if predictor is None else _cell_predicted(predictor, z)
        assert flags == emp_flags + pred_flags
        for got, want, rel in ((emp, cell_emp, 1e-12), (emp, loop_emp, 1e-12),
                               (pred, cell_pred, pred_rel)):
            assert (got is None) == (want is None)
            if want is not None:
                assert abs(got - want) <= rel * abs(want), (z, got, want)


def _per_cell_rate_map(sol, re_axis, im_axis, n_min, n_max):
    """Reference rate map: _fit_rates and the predicted grid read cell by cell,
    each cell's flags formed on their own."""
    def flag(exc):
        return (type(exc).__name__.removesuffix("Error"),)
    predictor, no_prediction = None, ()
    if sol.mode == "log":
        try:
            predictor = RatePredictor(sol)
        except (ValidationError, RefinePathError, PathThroughBranchPointError) as exc:
            no_prediction = flag(exc)
    points = [(re, im) for im in im_axis for re in re_axis]
    try:
        rho, hit, count, _ = convergence._fit_rates(
            sol, [complex(re, im) for re, im in points], n_min, n_max, 0.05)
        emp = [(None, ("PoleEvaluation",)) if h else (None, ("WindowTooSmall",)) if c < 5
               else (r, ("NotConverging",) if r >= 1.0 else ())
               for r, h, c in zip(rho.tolist(), hit.tolist(), count.tolist())]
    except WindowTooSmallError as exc:
        emp = [(None, flag(exc))] * len(points)
    if predictor is None:
        pred = [(None, no_prediction)] * len(points)
    else:
        re, im = np.asarray(re_axis, dtype=float), np.asarray(im_axis, dtype=float)
        rates = np.exp(predictor.log_rate(re[None, :] + 1j * im[:, None])).ravel().tolist()
        pred = [(None, ("PathThroughBranchPoint",)) if math.isnan(r) else (r, ()) for r in rates]
    return [(re, im, e, p, e_flags + p_flags)
            for (re, im), (e, e_flags), (p, p_flags) in zip(points, emp, pred)]


@pytest.mark.parametrize("case, window", [
    ("criterion-9", (5, 25)), ("branch point, -0.0", (5, 25)), ("linear", (5, 25)),
    ("python floats", (5, 25)), ("empty axis", (5, 25)), ("genus 1", (5, 25)),
    ("short window", (5, 9)), ("past the coefficients", (5, 40)), ("on a node", (5, 25)),
])
def test_rate_map_rows_are_per_cell_reference_bit_for_bit(qsol, case, window):
    """Every row of the column sweep equals the cell-by-cell reference: the same
    repr, so the same values, types and signed zeros."""
    sol = qsol[0]
    re_axis = im_axis = np.linspace(0.75, 1.35, 9)
    if case == "branch point, -0.0":
        re_axis, im_axis = np.linspace(-0.0, -0.6, 5), np.linspace(-0.6, 0.6, 5)
    elif case == "linear":
        eq, select = linear_fixture()
        sol, re_axis = solve(eq, select, 30), np.linspace(-3.0, 3.0, 9)
        im_axis = re_axis
    elif case == "python floats":
        re_axis, im_axis = [0.8, 1.0, -0.0, 0.0, 1.0], [0.9, 0.0, 1.2]
    elif case == "empty axis":
        re_axis = []
    elif case == "genus 1":
        sol = solve_log_qlattice(N=30, shift=1e-2)[0]
    elif case == "on a node":                       # the terms past y_0 vanish there
        y0 = sol.pair.unprimed.y(0)
        re_axis, im_axis = [y0.real, 1.0], [y0.imag, 0.2]
    if case == "past the coefficients":             # both refuse the window, with one message
        for sweep in (rate_map, _per_cell_rate_map):
            with pytest.raises(ValidationError, match=r"^solution has only 30 coefficients$"):
                sweep(sol, re_axis, im_axis, *window)
        return
    rows = rate_map(sol, re_axis, im_axis, *window)
    assert repr(rows) == repr(_per_cell_rate_map(sol, re_axis, im_axis, *window))


@pytest.mark.parametrize("mode", ["general", "log"])
def test_rate_map_refuses_a_window_past_the_order_before_any_work(qsol, mode, monkeypatch):
    """An n_max past the solution's order is empirical_rate's ValidationError, raised before
    the predictor is built or a term is formed, and not a Validation flag on every cell."""
    if mode == "general":
        eq, select = linear_fixture()
        sol = solve(eq, select, 12)
    else:
        sol = qsol[0]
    K = len(sol.coeffs) - 1
    with pytest.raises(ValidationError) as want:
        empirical_rate(sol, 2.5 + 0.5j, 5, K + 13)
    assert str(want.value) == f"solution has only {K} coefficients"

    def no_work(*args, **kwargs):
        raise AssertionError("rate_map worked past a bad window")
    for name in ("RatePredictor", "_term_reads", "_log_increments", "detect_small_divisors"):
        monkeypatch.setattr(convergence, name, no_work)
    with pytest.raises(ValidationError) as got:
        rate_map(sol, [2.5], [0.5], 5, K + 13)
    assert str(got.value) == str(want.value)


def test_rate_map_matches_cells_on_criterion_9_grid(qsol):
    sol, zeta, q = qsol
    axis = np.linspace(0.75, 1.35, 41)
    rows = rate_map(sol, axis, axis, 5, 25)
    _assert_rows_match_cells(sol, rows, axis, axis, RatePredictor(sol))
    assert any("NotConverging" in flags for *_, flags in rows)


def test_rate_map_matches_cells_on_linear_grid_without_warnings():
    """The linear [-3, 3]^2 map has a cell on a pole of the basis; numpy
    must not warn about it."""
    eq, select = linear_fixture()
    sol = solve(eq, select, 25)
    axis = np.linspace(-3.0, 3.0, 41)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rows = rate_map(sol, axis, axis, 5, 25)
    _assert_rows_match_cells(sol, rows, axis, axis)
    assert [flags for *_, flags in rows].count(("PoleEvaluation",)) == 1


def test_cells_on_a_node_or_a_pole_fit_their_own_window(qsol):
    """A z on node y_m uses only the n <= m of the window, whether y_m is in the increment rows
    the fit reads (m = 12, 24) or below them (m = 0, 3: no usable term), and a z on a pole is a
    pole hit; every other z of the same sweep keeps the window's fit.  Each rate and count is
    empirical_rate's at that z, and the rate is the polyfit loop reference's."""
    sol = qsol[0]
    on_nodes = [sol.pair.unprimed.y(m) for m in (0, 3, 12, 24)]
    zs = [*on_nodes, sol.pair.primed.y(7), 1.0 + 0.2j, 1.1 + 0.1j]
    rho, hit, count, flagged = convergence._fit_rates(sol, zs, 5, 25, 0.05)
    excluded = {n for n, _ in flagged}
    usable = [len([n for n in range(5, last + 1) if n not in excluded])
              for last in (0, 3, 12, 24, 25, 25, 25)]
    assert hit.tolist() == [False] * 4 + [True, False, False]
    assert count.tolist() == usable
    want = [("WindowTooSmall",)] * 2 + [()] * 2 + [("PoleEvaluation",)] + [()] * 2
    for z, r, flags in zip(zs, rho.tolist(), want):
        (cell, cell_flags), (loop, loop_flags) = (f(sol, z, 5, 25) for f in
                                                  (_cell_empirical, _loop_empirical))
        assert cell_flags == loop_flags == flags
        if not flags:
            assert abs(r - cell) <= 1e-15 * cell and abs(r - loop) <= 1e-12 * loop


def test_rate_map_excludes_small_divisors_like_cells(qsol):
    """The engineered divisor spike of the exclusion test, over a small grid."""
    sol, zeta, q = qsol
    z = 0.5 + 0.2j
    cs = list(sol.coeffs)
    prod = 1.0 + 0j
    for n in range(1, 29):
        prod *= (z - sol.pair.unprimed.y(n - 1)) / (z - sol.pair.primed.y(n))
        cs[n] = 0.6 ** n / prod
    cs[14] *= 1e6
    old_coeffs, old_y12 = sol.coeffs, sol.pair.unprimed._y[12]
    re_axis, im_axis = np.linspace(0.45, 0.55, 3), np.linspace(0.15, 0.25, 3)
    try:
        sol.coeffs = tuple(cs)
        ym1 = sol.pair.unprimed.y(-1)
        sol.pair.unprimed._y[12] = ym1 + 1e-6 * (old_y12 - ym1)
        assert 14 in [n for n, _ in detect_small_divisors(sol.pair, 25, 0.05)]
        rows = rate_map(sol, re_axis, im_axis, 5, 25)
        _assert_rows_match_cells(sol, rows, re_axis, im_axis, RatePredictor(sol))
    finally:
        sol.coeffs = old_coeffs
        sol.pair.unprimed._y[12] = old_y12


def test_rate_map_grid_around_branch_point_is_per_cell(qsol):
    """P's double root 0 is a cell of the grid: A vanishes there on both
    lifts, so that cell alone is flagged, with no numpy warning, and every
    other cell equals rate(z) bit for bit."""
    sol, zeta, q = qsol
    axis = np.linspace(-0.6, 0.6, 9)
    predictor = RatePredictor(sol)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rows = rate_map(sol, axis, axis, 5, 25)
        with pytest.raises(PathThroughBranchPointError):
            predictor.rate(0.0)
    _assert_rows_match_cells(sol, rows, axis, axis, predictor, pred_rel=0.0)
    assert [(re, im) for re, im, *_, flags in rows
            if "PathThroughBranchPoint" in flags] == [(0.0, 0.0)]


def _outer_s(x):
    """The outer lift s of x = s + 0.7/s, the larger of the two in modulus."""
    root = np.sqrt(x * x - 2.8)
    return max((x + root) / 2.0, (x - root) / 2.0, key=abs)


def test_grid_matches_joukowski_truth_around_branch_points():
    """The grid's rows pass under the roots +/-1.67 of P, on both sides of
    them: every cell and rate(z) is |s_z| / |s_zeta| on the outer lift of the
    ellipse walk's x = s + 0.7/s.  The stand-in's terms c_1 .. c_25 are zero (its
    poles are its nodes), so every empirical cell is flagged and only the
    predicted column is read."""
    sol = aw_rotation_solution()
    sol.coeffs, sol.pair = (0j,) * 26, BasisPair(sol.pair.unprimed, sol.pair.unprimed)
    predictor = RatePredictor(sol)
    re, im = np.linspace(-3.0, 3.0, 25), np.linspace(-1.2, -0.4, 5)
    zs = [complex(x, y) for y in im for x in re]
    rows = rate_map(sol, re, im, 5, 25)
    assert {(emp, flags) for _, _, emp, _, flags in rows} == {(None, ("WindowTooSmall",))}
    for (*_, rate, _), z in zip(rows, zs):
        want = abs(_outer_s(z)) / abs(_outer_s(sol.zeta))
        assert abs(rate - want) <= 1e-12 * want, z
        assert abs(predictor.rate(z) - want) <= 1e-12 * want, z


def test_rate_map_call_counts(qsol, monkeypatch):
    """Counts, not timings: no path integral, one small-divisor scan and no
    root finding of P per map."""
    sol, zeta, q = qsol
    calls = {}
    for name in ("path_integral", "detect_small_divisors"):
        def counted(*args, _original=getattr(convergence, name), _name=name, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)
        monkeypatch.setattr(convergence, name, counted)
    from ellgrid.poly import Polynomial

    def counted_roots(self, _original=Polynomial.roots):
        calls["roots"] += 1
        return _original(self)
    monkeypatch.setattr(Polynomial, "roots", counted_roots)
    for side in (11, 21):
        calls.update(path_integral=0, detect_small_divisors=0, roots=0)
        axis = np.linspace(0.75, 1.35, side)
        rate_map(sol, axis, axis, 5, 25)
        assert calls["path_integral"] == 0
        assert calls["detect_small_divisors"] == 1
        assert calls["roots"] == 0


def test_route_path_surfaces_root_finding_failures(qsol, monkeypatch):
    from ellgrid.poly import Polynomial

    def broken(self):
        raise np.linalg.LinAlgError("eigenvalues did not converge")
    monkeypatch.setattr(Polynomial, "roots", broken)
    with pytest.raises(np.linalg.LinAlgError):
        route_path(qsol[0].eq.curve, -1.0, 1.0)


def test_route_path_straight_for_constant_p():
    eq, _ = linear_fixture()                        # P is the constant h^2
    assert route_path(eq.curve, -1.0, 1.0) == [-1.0 + 0j, 1.0 + 0j]


# -- rate-map CSV -------------------------------------------------------------------------------


def test_write_rate_map_csv_formats_rows():
    rows = [(np.float64(0.75), np.float64(1.0), 0.5, 0.25, ()),
            (1.0, 0.1, None, 0.3, ("PoleEvaluation",)),
            (1.5, 0.1, 1.25, None, ("NotConverging", "RefinePath"))]
    buf = io.StringIO()
    write_rate_map_csv(rows, buf)
    assert buf.getvalue() == ("re_z,im_z,empirical_rate,predicted_rate,flags\n"
                              "0.75,1.0,0.5,0.25,\n"
                              "1.0,0.1,,0.3,PoleEvaluation\n"
                              "1.5,0.1,1.25,,NotConverging;RefinePath\n")


def test_write_rate_map_csv_blanks_nonfinite_rates():
    rows = [(1.0, 0.0, math.nan, 0.5, ()),
            (1.0, 0.5, math.inf, -math.inf, ("NotConverging",)),
            (1.0, 1.0, 0.5, math.nan, ())]
    buf = io.StringIO()
    write_rate_map_csv(rows, buf)
    text = buf.getvalue()
    assert "nan" not in text.lower() and "inf" not in text.lower()
    assert text.splitlines()[1:] == ["1.0,0.0,,0.5,NonFinite",
                                     "1.0,0.5,,,NotConverging;NonFinite",
                                     "1.0,1.0,0.5,,NonFinite"]


def _per_row_csv(rows, stream):
    """Reference writer: one write per row."""
    stream.write("re_z,im_z,empirical_rate,predicted_rate,flags\n")
    for re, im, emp, pred, flags in rows:
        rates = (emp, pred)
        if any(v is not None and not math.isfinite(v) for v in rates):
            flags = (*flags, "NonFinite")
        emp_s, pred_s = ("" if v is None or not math.isfinite(v) else repr(float(v))
                         for v in rates)
        stream.write(f"{float(re)!r},{float(im)!r},{emp_s},{pred_s},{';'.join(flags)}\n")


# Axis values: signed zeros and values that repeat, each as a float or an np.float64.
_axis_value = st.builds(lambda v, wrap: np.float64(v) if wrap else v,
                        st.sampled_from([0.0, -0.0, 0.75, -3.0, 0.1, 1e-300]) | st.floats(),
                        st.booleans())
_rate_value = (st.none() | st.sampled_from([math.nan, math.inf, -math.inf])
               | st.floats(allow_nan=False) | st.floats().map(np.float64))
_flags = st.lists(st.sampled_from(["PoleEvaluation", "NotConverging", "WindowTooSmall",
                                   "RefinePath"]), max_size=3).map(tuple)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(_axis_value, _axis_value, _rate_value, _rate_value, _flags),
                max_size=40),
       st.booleans())
@example([], False)
@example([(0.0, np.float64(0.75), 0.5, None, ()), (-0.0, 0.75, None, math.nan, ("RefinePath",)),
          (np.float64(-0.0), -0.0, -math.inf, math.inf, ("NotConverging", "RefinePath")),
          (np.float64(0.75), np.float64(0.0), np.float64(0.25), 1.0, ())], False)
def test_write_rate_map_csv_is_per_row_writer_bit_for_bit(rows, no_prediction):
    """Signed zeros and repeated values on both axes, None, NaN and +-inf in both
    rate columns, an all-None predicted column, empty and multi-flag tuples, and
    no rows at all: the column writer's text equals the per-row writer's."""
    if no_prediction:
        rows = [(re, im, emp, None, flags) for re, im, emp, _, flags in rows]
    new, ref = io.StringIO(), io.StringIO()
    write_rate_map_csv(rows, new)
    _per_row_csv(rows, ref)
    assert new.getvalue() == ref.getvalue()


def test_write_rate_map_csv_bytes_equal_per_row_writer(qsol, tmp_path):
    """A map with a flagged cell (None) and NaN/inf rates edited in."""
    sol, zeta, q = qsol
    axis = np.linspace(-0.6, 0.6, 9)
    rows = list(rate_map(sol, axis, axis, 5, 25))
    assert any(pred is None for *_, pred, _ in rows)
    rows[3] = (*rows[3][:2], math.nan, rows[3][3], rows[3][4])
    rows[7] = (*rows[7][:2], math.inf, math.nan, rows[7][4])
    rows[8] = (*rows[8][:3], -math.inf, rows[8][4])
    for name, writer in (("new.csv", write_rate_map_csv), ("ref.csv", _per_row_csv)):
        with open(tmp_path / name, "w", encoding="utf-8", newline="") as fh:
            writer(rows, fh)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
    assert (tmp_path / "new.csv").read_bytes().count(b"NonFinite") == 3


@pytest.mark.parametrize("case", ["linear", "criterion-9", "through -0.0", "empty axis",
                                  "short window", "general mode", "genus 1", "non-finite"])
def test_rate_map_columns_and_rows_give_the_same_csv(qsol, case):
    """write_rate_map_csv from a RateMap's columns, which builds no row, equals its text from
    the list of the map's rows, byte for byte."""
    sol, window = qsol[0], (5, 25)
    re_axis = im_axis = np.linspace(0.75, 1.35, 41)
    if case == "linear":                            # one cell on a pole of the basis
        eq, select = linear_fixture()
        sol, re_axis = solve(eq, select, 25), np.linspace(-3.0, 3.0, 41)
        im_axis = re_axis
    elif case in ("through -0.0", "non-finite"):
        re_axis, im_axis = np.linspace(-0.0, -0.6, 5), np.linspace(-0.6, 0.6, 5)
    elif case == "empty axis":
        im_axis = []
    elif case == "short window":
        window = (5, 9)
    elif case == "general mode":
        eq, select = linear_fixture()
        sol, re_axis, im_axis, window = solve(eq, select, 12), [2.5, 3.0], [0.5], (1, 10)
    elif case == "genus 1":
        sol, re_axis = solve_log_qlattice(N=30, shift=1e-2)[0], np.linspace(0.75, 1.35, 5)
        im_axis = re_axis
    rows = rate_map(sol, re_axis, im_axis, *window)
    if case == "non-finite":                        # edited into both rate arrays
        (emp, emp_missing), (pred, pred_missing) = rows._rates
        cells = np.flatnonzero(~emp_missing & ~pred_missing)[:3].tolist()
        emp[cells[:2]] = math.nan, math.inf
        pred[cells[1:]] = math.nan, -math.inf
    columns, by_rows = io.StringIO(), io.StringIO()
    write_rate_map_csv(rows, columns)
    assert rows._rows is None
    write_rate_map_csv(list(rows), by_rows)
    text, want = columns.getvalue(), by_rows.getvalue()
    same = text == want                 # pytest would spend minutes diffing two 100 kB strings
    assert same, next(((a, b) for a, b in zip(text.splitlines(), want.splitlines()) if a != b),
                      None)
    lines = [line.split(",") for line in text.splitlines()[1:]]
    assert len(lines) == len(re_axis) * len(im_axis)
    flags = [line[4].split(";") for line in lines]
    if case == "linear":
        assert sum("PoleEvaluation" in f for f in flags) == 1
    elif case == "criterion-9":
        assert any("NotConverging" in f for f in flags)
    elif case == "through -0.0":
        assert lines[0][0] == "-0.0"
    elif case == "short window":
        assert all(f == ["WindowTooSmall"] for f in flags)
    elif case == "general mode":
        assert all(line[3] == "" for line in lines) and all(line[2] for line in lines)
    elif case == "genus 1":
        assert all(f[-1] == "RefinePath" and line[3] == "" for f, line in zip(flags, lines))
    elif case == "non-finite":
        assert [i for i, f in enumerate(flags) if "NonFinite" in f] == cells


@pytest.mark.parametrize("read", ["len", "repr", "index", "slice", "unpack", "iterate", "assign"])
def test_rate_map_reads_as_its_list_of_rows(qsol, read):
    """len, indexing, unpacking, iteration and repr of a fresh RateMap are its list's, and it
    takes no assignment."""
    sol = qsol[0]
    axis = np.linspace(-0.6, 0.6, 5)
    rows, want = rate_map(sol, axis, axis, 5, 25), list(rate_map(sol, axis, axis, 5, 25))
    if read == "len":
        assert len(rows) == len(want) == 25 and rows._rows is None
    elif read == "repr":
        assert repr(rows) == repr(want)
    elif read == "index":
        assert [repr(rows[i]) for i in range(-25, 25)] == [repr(want[i]) for i in range(-25, 25)]
        with pytest.raises(IndexError):
            rows[25]
    elif read == "slice":
        assert repr(rows[3:20:4]) == repr(want[3:20:4])
    elif read == "unpack":
        (re, im, emp, pred, flags), *rest = rows
        assert repr(((re, im, emp, pred, flags), *rest)) == repr(tuple(want))
    elif read == "assign":
        with pytest.raises(TypeError):
            rows[0] = want[1]
        assert repr(rows) == repr(want)
    else:
        assert repr([row for row in rows]) == repr(want)
