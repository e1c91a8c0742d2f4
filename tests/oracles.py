"""What the checks compare against: per-index twins of the library's routes, 50-digit replays
with their forward-error bounds, and the check helpers that tier-1 and CI (scripts/ci_checks.py)
both run, each at its own sizes.  Plain functions, no pytest.
"""
import cmath
import decimal
import time

import numpy as np

from ellgrid import ByIndex, LatticePair, LatticeSpec, solve, stepwise_oracle, verify_interpolation
from ellgrid import diffops
from ellgrid.curve import LEAD_TOL
from ellgrid.diffops import (C_METHODS, BasisFunction, basis_products, diff_constant,
                             diff_constants, divided_difference, identity_samples, mean_value,
                             verify_diff_basis_identity)
from ellgrid.errors import (BranchPointEvaluationError, EllgridError, HitSingularLatticeError,
                            LatticeSingularityError, LatticeStagnationError,
                            LeadingCoefficientVanishesError, MethodDegenerateError,
                            NoValidSamplesError, PoleEvaluationError, VerticalTangentError,
                            _finite)
from ellgrid.lattice import HEAD, STAGNATION_RUN, STAGNATION_TOL, TAIL_DEGREES
from ellgrid.poly import reduced_abs
from ellgrid.solver import _defect, _node_sums, _progression_start, _sum_order, residual

from fixtures import genus1_equation


def ref_F(curve, x, y):
    """F(x, y) by the nested Horner loop over the grid rows, each level started from its top
    coefficient (the x^2 row, and each row's y^2 entry)."""
    acc = None
    for row in reversed(curve.c):
        top, *low = reversed(row)
        inner = top
        for v in low:
            inner = inner * y + v
        acc = inner if acc is None else acc * x + inner
    return acc


def ref_flip(curve, t, s, over_x, exits=None):
    """The other root over t of the view through s (y over x when over_x, else x over y):
    the lead test on V2(t), the Vieta sum -V1/V2 - s, then up to two Newton steps on the
    nested-loop F, each kept only while |F| drops.  The exit taken is added to the set
    `exits` when one is given: "lead", "d == 0 at trial k", "rejected at trial k" or
    "both trials kept"."""
    _, v1, v2 = curve.x_view() if over_x else curve.y_view()
    lead = v2(t)
    size = reduced_abs(lead, t, v2.degree())
    exit = "lead"
    if LEAD_TOL * v2.max_coeff < size < cmath.inf:
        v1 = v1(t)
        s = -v1 / lead - s

        def F(s):
            return ref_F(curve, t, s) if over_x else ref_F(curve, s, t)
        fv = F(s)
        exit = "both trials kept"
        for k in (1, 2):
            d = v1 + 2.0 * lead * s
            if d == 0:
                exit = f"d == 0 at trial {k}"
                break
            s2 = s - fv / d
            f2 = F(s2)
            if not abs(f2) < abs(fv):
                exit = f"rejected at trial {k}"
                break
            s, fv = s2, f2
    if exits is not None:
        exits.add(exit)
    if exit == "lead":
        raise LeadingCoefficientVanishesError(
            t, None if size < cmath.inf else f"leading coefficient at {t} is not finite")
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


def ref_walk_replay(curve, x0, y0, lo, hi):
    """({n: X_n}, {n: Y_n}) as Dc for lo <= n <= 0 <= hi: the walk of ref_walk replayed to 50
    digits from the float seed (x0, y0) by Vieta's sum alone, Y' = -X1(X)/X2(X) - Y over X and
    X' = -Y1(Y)/Y2(Y) - X over Y, with X_j and Y_i read from the float grid's columns and rows:
    no square root, so no branch is chosen, and no polish.  It is the walk on the curve the
    float grid defines exactly, from the float seed, so it measures a float walk's forward
    error; it has no stops, so replay only the range the walk kept."""
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        c = [[Dc(v) for v in row] for row in curve.c]
        x1, x2 = [row[1] for row in c], [row[2] for row in c]       # X_j(x) = sum_i c_ij x^i
        y1, y2 = c[1], c[2]                                         # Y_i(y) = sum_j c_ij y^j

        def other(v, t, s):
            (a0, a1, a2), (b0, b1, b2) = v
            return Dc() - ((a2 * t + a1) * t + a0) / ((b2 * t + b1) * t + b0) - s

        xs, ys = {0: Dc(x0)}, {0: Dc(y0)}
        for direction, end in ((1, hi), (-1, lo)):
            x, y = xs[0], ys[0]
            for n in range(direction, end + direction, direction):
                if direction > 0:
                    y = other((x1, x2), x, y)
                    x = other((y1, y2), y, x)
                else:
                    x = other((y1, y2), y, x)
                    y = other((x1, x2), x, y)
                xs[n], ys[n] = x, y
        return xs, ys


WALK_GATE = 4.0     # a walk's forward error may be this many times the stepwise walk's


def walk_errors(xs, ys, replay, ns):
    """{n: e_n}: the forward error max(|x_n - X_n|, |y_n - Y_n|) / max(|X_n|, |Y_n|) of a walk's
    values (read by n) against a replay (X_n, Y_n) of ref_walk_replay, at each n of ns."""
    rx, ry = replay
    out = {}
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        for n in ns:
            err = max(abs(Dc(xs[n]) - rx[n]), abs(Dc(ys[n]) - ry[n]))
            out[n] = _rel(err, max(abs(rx[n]), abs(ry[n])))
    return out


def walk_gate_ratios(errors, stepwise):
    """{n: e_n / (WALK_GATE s_n)}, s_n the largest forward error of the stepwise walk (ref_walk)
    at the indices of `stepwise` from 0 to n on n's side, both from walk_errors: a ratio <= 1
    meets the gate, the walk being at most WALK_GATE times as far from the exact walk as the
    stepwise walk has been by then (0 where e_n = 0, inf where only s_n is)."""
    ratios = {}
    for side in (1, -1):
        worst = 0.0
        for n in sorted((n for n in stepwise if n * side >= 0), key=abs):
            worst = max(worst, stepwise[n])
            if n in errors:
                ratios[n] = _rel(errors[n], WALK_GATE * worst)
    return ratios


def ref_stepwise_oracle(eq, pair, K, f0):
    """f(y_0) .. f(y_K) from a (f_{k+1} - f_k)/dy = c (f_{k+1} + f_k)/2 + d at x_k, dy = y_{k+1} - y_k,
    with x_0 .. x_K and y_0 .. y_K read index by index first (so a walk that stops raises before
    any step), and a, c, d evaluated by Polynomial.__call__:

        f_{k+1} = ((a/dy + c/2) f_k + d) / den,  den = a/dy - c/2.

    Step k is singular when dy = 0 (nothing is divided) or |den| <= SINGULAR_STEP_TOL scale,
    with the terms' scale max(max|a| g^deg a / |dy|, max|c| g^deg c / 2, 1e-300),
    g = max(1, |x_k|), in Python float powers: HitSingularLatticeError(k, f_0 .. f_k).  A scale
    that overflows, or a value that is not finite, is a LatticeSingularityError(k) naming the
    step.  The per-index twin of stepwise_oracle: the two stop alike, bit for bit, and each
    value of either lies within its forward-error bound of ref_oracle_replay.
    """
    from ellgrid.solver import SINGULAR_STEP_TOL

    xs, ys = [pair.unprimed.x(k) for k in range(K + 1)], [pair.unprimed.y(k) for k in range(K + 1)]
    vals = [complex(f0)]
    for k in range(K):
        x, dy = xs[k], ys[k + 1] - ys[k]
        if dy == 0:
            raise HitSingularLatticeError(k, vals)
        ratio = eq.a(x) / dy
        den = ratio - eq.c(x) / 2.0
        try:
            g = max(1.0, abs(x))
            scale = max(eq.a.max_coeff * g ** eq.a.degree() / abs(dy),
                        eq.c.max_coeff * g ** eq.c.degree() / 2.0, 1e-300)
        except OverflowError:
            scale = cmath.inf
        if scale < cmath.inf:
            if abs(den) <= SINGULAR_STEP_TOL * scale:
                raise HitSingularLatticeError(k, vals)
            vals.append(((ratio + eq.c(x) / 2.0) * vals[-1] + eq.d(x)) / den)
        if not (scale < cmath.inf and cmath.isfinite(vals[-1])):
            raise LatticeSingularityError(
                k, f"stepwise oracle: step {k} at x_{k} = {x} leaves the float range")
    return vals


def ref_condition_residual(eq, r, first, second, sign):
    """|a(r)/dy + sign c(r)/2| / scale with dy = second - first, a and c by Polynomial.__call__, and
    the scale of ref_stepwise_oracle at x = r in Python float powers.  inf where the branches
    collide (|dy| <= 1e-13 max(1, |first|, |second|)) or the scale is not finite."""
    dy = second - first
    if abs(dy) <= 1e-13 * max(1.0, abs(first), abs(second)):
        return cmath.inf
    try:
        g = max(1.0, abs(r))
        scale = max(eq.a.max_coeff * g ** eq.a.degree() / abs(dy),
                    eq.c.max_coeff * g ** eq.c.degree() / 2.0, 1e-300)
    except OverflowError:
        scale = cmath.inf
    if not scale < cmath.inf:
        return cmath.inf
    return abs(eq.a(r) / dy + sign * eq.c(r) / 2.0) / scale


def ref_xi(eq, pair, n):
    """xi_n = C_n (a + c (y'_{n+1} - y'_n)/2)(z) / ((z - x_{-1})(z - x'_0)(z - x_{n-1})), z = x'_n.

    A reference read index by index, with C_n = diff_constant(pair, n).
    """
    x, xp, yp = pair.unprimed.x, pair.primed.x, pair.primed.y
    z = xp(n)
    num = eq.a(z) + eq.c(z) * (yp(n + 1) - yp(n)) / 2.0
    den = (z - x(-1)) * (z - xp(0)) * (z - x(n - 1))
    return diff_constant(pair, n) * num / den


def ref_eta(eq, pair, n):
    """eta_n = C_n (a - c (y_n - y_{n-1})/2)(z) / ((z - x_{-1})(z - x'_0)(z - x'_n)), z = x_{n-1}.

    A reference read index by index, with C_n = diff_constant(pair, n).
    """
    x, y, xp = pair.unprimed.x, pair.unprimed.y, pair.primed.x
    z = x(n - 1)
    num = eq.a(z) - eq.c(z) * (y(n) - y(n - 1)) / 2.0
    den = (z - x(-1)) * (z - xp(0)) * (z - xp(n))
    return diff_constant(pair, n) * num / den


def ref_cn_xn1(pair, n):
    """C_n = Yb_n(y_n) (z - x'_0)(z - x'_n) / ((y_n - y_{n-1}) X2(z) Xb_{n-1}(z)), z = x_{n-1}.

    The x_{n-1} route of C_n, read index by index.
    """
    x, y, xp = pair.unprimed.x, pair.unprimed.y, pair.primed.x
    z = x(n - 1)
    num = BasisFunction(pair, n, "y")(y(n)) * (z - xp(0)) * (z - xp(n))
    den = (y(n) - y(n - 1)) * pair.curve.x_view()[2](z) * BasisFunction(pair, n - 1, "x")(z)
    return num / den


def ref_dn(pair, n, at):
    """D_n at x_{-1}, x_{n-1}, x'_0 or x'_n, one branch per point, read index by index."""
    x, y, xp, yp = pair.unprimed.x, pair.unprimed.y, pair.primed.x, pair.primed.y
    cn = diff_constant(pair, n)
    x2 = pair.curve.x_view()[2]
    if at == "xm1":
        return -0.5 * cn * x2(x(-1)) * (y(0) - y(-1))
    if at == "xn1":
        return 0.5 * cn * x2(x(n - 1)) * (y(n) - y(n - 1))
    if at == "xp0":
        return 0.5 * cn * x2(xp(0)) * (yp(1) - yp(0))
    assert at == "xpn"
    return -0.5 * cn * x2(xp(n)) * (yp(n + 1) - yp(n))


def on_curve_residual(lat, n):
    """The curve's scale-free residual at (x_n, y_n) and (x_n, y_{n+1}) of the lattice lat."""
    return lat.curve.residual(lat.x(n), lat.y(n)), lat.curve.residual(lat.x(n), lat.y(n + 1))


# -- the verify suite's three checks, one call per order, each reading both lattices ----------


def _ref_points(pair, n):
    """({point: (z, s, t)}, (xs, ys), (xps, yps)) from one range read of each lattice: xs, ys over
    index -1 .. n, xps, yps over 0 .. n + 1."""
    xs, ys = pair.unprimed.values(-1, n + 1)
    xps, yps = pair.primed.values(0, n + 2)
    table = {"xm1": (xs[0], ys[0], ys[1]), "xn1": (xs[n], ys[n + 1], ys[n]),
             "xp0": (xps[0], yps[1], yps[0]), "xpn": (xps[n], yps[n], yps[n + 1])}
    return table, (xs, ys), (xps, yps)


def _ref_cn_at(pair, n, method):
    """C_n by the x_{n-1} route or a residue route at one order, every product from scratch (the
    guards are diffops._guard, so that a test may replace them)."""
    table, (xs, ys), (xps, yps) = _ref_points(pair, n)
    if method == "xn1":
        z, s, t = table["xn1"]
        num = basis_products(s, ys[1:n + 1], yps[1:n + 1])[-1] * (z - xps[0]) * (z - xps[n])
    else:
        (z, s, t), far, poles = ((table["xp0"], xps[n], yps[2:n + 1]) if method == "resp0"
                                 else (table["xpn"], xps[0], yps[1:n]))
        dydx = diffops._guard("dy/dx", pair.curve.implicit_dy_dx(z, s), n)
        try:
            res = basis_products(s, ys[1:n], poles)[-1] * (s - ys[n])
        except PoleEvaluationError as exc:
            raise MethodDegenerateError(f"C_{n}({method}): poles collide at {exc.at}") from None
        num = res / dydx * (z - far)
    den = diffops._guard("s - t", s - t, n) * pair.curve.x_view()[2](z) * \
        basis_products(z, xs[1:n], xps[1:n])[-1]
    return num / diffops._guard(f"C_n({method}) denominator", den, n)


def ref_diff_constant(pair, n, method):
    """diff_constant(pair, n, method) for n >= 1, one route at a time: the x_{-1} route as
    diff_constants(pair, n)[n], the others by _ref_cn_at; 'all' calls each route and skips those
    that raise MethodDegenerateError, PoleEvaluationError or VerticalTangentError."""
    if method == "all":
        values = {}
        for m in C_METHODS:
            try:
                values[m] = ref_diff_constant(pair, n, m)
            except (MethodDegenerateError, PoleEvaluationError, VerticalTangentError):
                continue
        if len(values) < 2:
            raise MethodDegenerateError(f"fewer than two usable C_{n} routes")
        vs = list(values.values())
        mid = max(abs(v) for v in vs)
        return values, (max(abs(a - b) for a in vs for b in vs) / mid if mid else 0.0)
    cn = diff_constants(pair, n)[n] if method == "xm1" else _ref_cn_at(pair, n, method)
    if not cmath.isfinite(cn):
        raise MethodDegenerateError(f"C_{n} by route {method} is not finite ({cn})")
    return cn


def ref_identity(pair, n, samples):
    """verify_diff_basis_identity(pair, n, samples) for n >= 1 at one order: C_n by
    ref_diff_constant, Yb_n and Xb_{n-1} as basis functions, D Yb_n by divided_difference."""
    cn = ref_diff_constant(pair, n, "xm1")
    x2 = pair.curve.x_view()[2]
    yb, xb = BasisFunction(pair, n, "y"), BasisFunction(pair, n - 1, "x")
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


def ref_partial_sum(sol, N, z):
    """S_N(z) from its own two range reads and one basis_products call."""
    N, z = _sum_order(sol, N), _finite(z, "z")
    ys = sol.pair.unprimed.values(0, N)[1]
    poles = sol.pair.primed.values(1, N + 1)[1]
    acc = sol.coeffs[0]
    for c, yb in zip(sol.coeffs[1:N + 1], basis_products(z, ys, poles)[1:]):
        acc += c * yb
    return acc


def ref_residual(eq, sol, N, z):
    """residual(eq, sol, N, z) by divided_difference and mean_value over ref_partial_sum: two
    root pairs over z and four partial sums."""
    z = _finite(z, "z")
    f = lambda t: ref_partial_sum(sol, N, t)      # noqa: E731
    df = divided_difference(eq.curve, f, z)
    mf = mean_value(eq.curve, f, z)
    return eq.a(z) * df - eq.c(z) * mf - eq.d(z)


def ref_lattice_residual(eq, sol, N, x, lo, hi):
    """The defect at x over the given root pair (lo, hi) of x, from ref_partial_sum at each root:
    at x = x_j over the stored pair (y_j, y_{j+1}), the value `ellgrid verify` checks."""
    f_lo, f_hi = ref_partial_sum(sol, N, lo), ref_partial_sum(sol, N, hi)
    return eq.a(x) * ((f_hi - f_lo) / (hi - lo)) - eq.c(x) * (0.5 * (f_lo + f_hi)) - eq.d(x)


def outcome(fn, errors=EllgridError):
    """repr of fn()'s result, or the type and message of the error of `errors` it raises."""
    try:
        return repr(fn())
    except errors as exc:
        return f"raise {type(exc).__name__}: {exc}"


def outcomes(results):
    """repr of each of the iterable's results in turn, up to the type and message of the
    EllgridError that ends it, if one does."""
    out = []
    try:
        for value in results:
            out.append(repr(value))
    except EllgridError as exc:
        out.append(f"raise {type(exc).__name__}: {exc}")
    return out


def verify_suite_cases(sol):
    """(name, outcomes, reference outcomes) for the three checks `ellgrid verify` makes on sol's
    equation, by the library and by the references above, order by order: the four-way check
    over n = 1 .. min(6, K) and each route alone, the identity for n = 1, 2, 3 on the CLI's 12
    samples (together and one order a call), and the residual at x_0 .. x_{min(6, K) - 1}, over
    the root pair solved at each x_j and over the stored pair (y_j, y_{j+1})."""
    pair, eq, K = sol.pair, sol.eq, len(sol.coeffs) - 1
    orders = range(1, min(6, K) + 1)
    yield ("four-way", outcomes(diffops._agreements(pair, orders)),
           outcomes(ref_diff_constant(pair, n, "all") for n in orders))
    for m in C_METHODS:
        yield (f"route {m}", [outcome(lambda: diff_constant(pair, n, m)) for n in orders],
               [outcome(lambda: ref_diff_constant(pair, n, m)) for n in orders])
    samples = identity_samples(pair, 3, count=12, seed=11)
    ref = outcomes(ref_identity(pair, n, samples) for n in (1, 2, 3))
    yield "identity", outcomes(diffops._identities(pair, (1, 2, 3), samples)), ref
    yield ("identity per order", [outcome(lambda: verify_diff_basis_identity(pair, n, samples))
                                  for n in (1, 2, 3)],
           [outcome(lambda: ref_identity(pair, n, samples)) for n in (1, 2, 3)])
    xs, ys = pair.unprimed.values(0, min(6, K) + 1)
    yield ("residual", [outcome(lambda: residual(eq, sol, K, z)) for z in xs[:-1]],
           [outcome(lambda: ref_residual(eq, sol, K, z)) for z in xs[:-1]])
    nodes = list(zip(xs, ys, ys[1:]))
    yield ("residual on the lattice", [outcome(lambda: _defect(eq, sol, K, *p)) for p in nodes],
           [outcome(lambda: ref_lattice_residual(eq, sol, K, *p)) for p in nodes])


def verify_suite_sweep(runs):
    """(cases, differ) of verify_suite_cases over runs, (name, eq, select, N, solve keywords)
    tuples: differ lists the (run name, case name) whose outcomes differ.  A run whose solve
    raises has no cases."""
    cases, differ = 0, []
    for name, eq, select, N, kwargs in runs:
        try:
            sol = solve(eq, select, N, **kwargs)
        except EllgridError:
            continue
        for case, got, want in verify_suite_cases(sol):
            cases += 1
            if got != want:
                differ.append((name, case))
    return cases, differ


def ref_ratio_recurrence(eq, pair, c0, N):
    """c_0 .. c_N (N >= 1): c_1 = (beta c_0 + delta)/eta_1, then c_{n+1} = -c_n xi_n / eta_{n+1}.

    The per-index twin of solve's ratio recurrence, in Python complex: each c_n of either lies
    within its forward-error bound of ref_ratio_replay."""
    cs = [c0, (eq.beta * c0 + eq.delta) / ref_eta(eq, pair, 1)]
    for n in range(1, N):
        cs.append(-cs[-1] * ref_xi(eq, pair, n) / ref_eta(eq, pair, n + 1))
    return cs


def ref_closed_product(eq, pair, n, c1):
    """c_n by the closed product, one Python factor at a time from per-index reads."""
    x, y, xp, yp = pair.unprimed.x, pair.unprimed.y, pair.primed.x, pair.primed.y
    xm1, xp0 = x(-1), xp(0)
    v = c1 * diff_constant(pair, 1) / (xp(1) - x(0))
    v *= (xp(n) - x(n - 1)) / diff_constant(pair, n)
    for k in range(1, n):
        xk, xpk = x(k), xp(k)
        v *= (eq.a(xpk) + eq.c(xpk) * (yp(k + 1) - yp(k)) / 2.0) \
            / (eq.a(xk) - eq.c(xk) * (y(k + 1) - y(k)) / 2.0)
        v *= (xk - xm1) * (xk - xp0) / ((xpk - xm1) * (xpk - xp0))
    return v


def ref_log_product(eq, pair, n, c1, zeta):
    """c_n by the elementary product formula of the logarithmic case, one Python factor
    at a time from per-index reads."""
    x, y, xp, yp = pair.unprimed.x, pair.unprimed.y, pair.primed.x, pair.primed.y
    xm1, ym1, xp0 = x(-1), y(-1), xp(0)
    v = c1 * diff_constant(pair, 1) / (xp(1) - x(0)) * eq.curve.x_view()[2](xm1)
    v *= (xp(n) - x(n - 1)) / (xm1 - xp0)
    for j in range(1, n + 1):
        v *= (ym1 - yp(j)) / (xm1 - xp(j))
        if j >= 2:
            v *= (xm1 - x(j - 2)) / (ym1 - y(j - 1))
            v *= (xp(j - 1) - zeta) / (x(j - 1) - zeta)
    return v


def ref_node_sums(sol, nodes):
    """[(S, size)] for each node j: S(y_j) = sum_{k<=j} c_k Yb_k(y_j) as a (re, im) pair of
    Decimals and size = sum_k |c_k Yb_k(y_j)|, both to 50 digits over the float nodes, poles
    and coefficients of sol, with Yb_k(y_j) = prod_{i<k} (y_j - y_i) / (y_j - y'_{i+1}).  Each
    float is read into decimal exactly, and every complex operation is written out in reals."""
    top = max(nodes)
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        ys, poles, cs = ([(decimal.Decimal(z.real), decimal.Decimal(z.imag)) for z in v]
                         for v in (sol.pair.unprimed.values(0, top + 1)[1],
                                   sol.pair.primed.values(0, top + 1)[1], sol.coeffs[:top + 1]))
        out = []
        for j in nodes:
            (yr, yi), (sr, si) = ys[j], cs[0]
            size, pr, pi = (sr * sr + si * si).sqrt(), decimal.Decimal(1), decimal.Decimal(0)
            for k in range(1, j + 1):
                ar, ai = yr - ys[k - 1][0], yi - ys[k - 1][1]
                br, bi = yr - poles[k][0], yi - poles[k][1]
                m = br * br + bi * bi
                fr, fi = (ar * br + ai * bi) / m, (ai * br - ar * bi) / m
                pr, pi = pr * fr - pi * fi, pr * fi + pi * fr
                (cr, ci) = cs[k]
                tr, ti = cr * pr - ci * pi, cr * pi + ci * pr
                sr, si, size = sr + tr, si + ti, size + (tr * tr + ti * ti).sqrt()
            out.append(((sr, si), size))
    return out


def ref_row_sweep(ys, poles, cs):
    """solver._node_sums' nested sum with each row's factors from a numpy division of its own,
    F_r(y_{r+1:}) = (y_{r+1:} - y_r) / (y_{r+1:} - y'_{r+1}), and every operation in the sweep's
    operand order: acc[r+1:] = F_r acc[r+1:] + c_r for r = n-2 .. 0, from acc = c."""
    acc = np.array(cs[:len(ys)], dtype=complex)
    with np.errstate(all="ignore"):
        for r in range(len(ys) - 2, -1, -1):
            acc[r + 1:] = (ys[r + 1:] - ys[r]) / (ys[r + 1:] - poles[r]) * acc[r + 1:] + cs[r]
    return acc


def node_sum_error_ratios(sol, sums, nodes):
    """|sums[j] - S(y_j)| over the forward-error bound 4 (j+1) 2^-53 sum_k |c_k Yb_k(y_j)| of a
    float sum of float terms (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed.,
    3.1 and 4.2), against ref_node_sums, at each node: a ratio <= 1 meets the bound."""
    ratios = []
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        for j, ((sr, si), size) in zip(nodes, ref_node_sums(sol, nodes)):
            er, ei = decimal.Decimal(sums[j].real) - sr, decimal.Decimal(sums[j].imag) - si
            err, bound = (er * er + ei * ei).sqrt(), 4 * (j + 1) * size / 2 ** 53
            ratios.append(float(err / bound) if bound else 0.0 if err == 0 else cmath.inf)
    return ratios


# -- the forward-error gate of the step kernel's readers ---------------------------------
#
# A float route that forms the terms of the ratio recurrence or of the stepwise oracle as
# written below has a forward error, against the same terms in exact arithmetic on the same
# float inputs, that a running error analysis bounds (Higham, Accuracy and Stability of
# Numerical Algorithms, 2nd ed., 3.1 and 3.3).  Each complex operation is charged its
# normwise relative error (3.6, Lemma 3.5): u for + and -, sqrt(2) gamma_2 for *, and
# sqrt(2) gamma_4 for /, which CPython and numpy form by Smith's scaled formula; halving is
# exact.  Horner's rule for p of degree d at z is charged d (MUL + ADD) sum_i |p_i| |z|^i
# (5.1, with those constants).  The bounds are first order in u, which the gates need: on
# every case they check, the bound is far below the value it bounds.

U = 2.0 ** -53
ADD = U
MUL = 2.0 ** 0.5 * 2 * U / (1 - 2 * U)
DIV = 2.0 ** 0.5 * 4 * U / (1 - 4 * U)


class Dc:
    """A complex number as a pair of Decimals for the 50-digit replays: a float is read exactly,
    and every operation is written out in reals (under the caller's 50-digit context)."""

    __slots__ = ("re", "im")

    def __init__(self, z=0j, im=None):
        if im is None:
            z = complex(z)
            z, im = decimal.Decimal(z.real), decimal.Decimal(z.imag)
        self.re, self.im = z, im

    def __add__(self, o):
        return Dc(self.re + o.re, self.im + o.im)

    def __sub__(self, o):
        return Dc(self.re - o.re, self.im - o.im)

    def __mul__(self, o):
        return Dc(self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re)

    def __truediv__(self, o):
        m = o.re * o.re + o.im * o.im
        return Dc((self.re * o.re + self.im * o.im) / m, (self.im * o.re - self.re * o.im) / m)

    def half(self):
        return Dc(self.re / 2, self.im / 2)

    def __abs__(self):
        return float((self.re * self.re + self.im * self.im).sqrt())


def _rel(err, value):
    """err / |value| as a relative bound: 0 for no error, inf where the value is 0."""
    return err / value if value else 0.0 if err == 0 else cmath.inf


def _horner_replay(p, z):
    """(p(z) by Horner to 50 digits, the bound d (MUL + ADD) sum_i |p_i| |z|^i on a float
    Horner's error)."""
    top, *low = reversed(p.coeffs)
    v, az, size = Dc(top), abs(z), 0.0
    for c in low:
        v = v * z + Dc(c)
    for c in reversed(p.coeffs):
        size = size * az + abs(c)
    return v, p.degree() * (MUL + ADD) * size


def ref_ratio_replay(eq, pair, c0, N):
    """[(c_n, bound_n)] for n = 0 .. N: the ratio recurrence of ref_ratio_recurrence replayed to
    50 digits on the float lattice, C_n = diff_constants(pair, N) and c_0 (c_n a Dc), and a
    bound on the forward error of a float route that forms the same terms.

    eta_n and xi_n are C_n (a + s c dy/2)(z) / ((z - x_{-1})(z - x'_0)(z - w)), with
    (s, z, dy, w) = (-1, x_{n-1}, y_n - y_{n-1}, x'_n) and (+1, x'_n, y'_{n+1} - y'_n, x_{n-1}):
    the numerator's error is e_a + e_T/2 + ADD (|a| + |T|/2), T = c dy with
    e_T = e_c |dy| + |c dy| (ADD + MUL) (dy is one rounded difference), and the rest adds
    3 ADD + 3 MUL + DIV relative.  c_1 = (beta c_0 + delta)/eta_1 and each
    c_{n+1} = -c_n xi_n / eta_{n+1} add their terms' relative bounds and MUL + DIV, and
    bound_n = |c_n| expm1(rho_n) for the sum rho_n of relative bounds (Higham 3.1, |theta_k| <=
    gamma_k).
    """
    cns = diff_constants(pair, N)
    (xs, ys), (xps, yps) = pair.unprimed.values(-1, N + 1), pair.primed.values(0, N + 1)
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        xs, ys, xps, yps, cns = ([Dc(v) for v in w] for w in (xs, ys, xps, yps, cns))
        xm1, xp0 = xs[0], xps[0]

        def term(n, sign, z, dy, w):
            (a, ea), (c, ec) = _horner_replay(eq.a, z), _horner_replay(eq.c, z)
            t = c * dy
            num = a + t.half() if sign > 0 else a - t.half()
            err = ea + ec * abs(dy) / 2 + abs(t) * (ADD + MUL) / 2 + ADD * (abs(a) + abs(t) / 2)
            value = cns[n] * num / ((z - xm1) * (z - xp0) * (z - w))
            return value, _rel(err, abs(num)) + 3 * ADD + 3 * MUL + DIV

        def eta(n):
            return term(n, -1, xs[n], ys[n + 1] - ys[n], xps[n])

        beta, delta, c = Dc(eq.beta), Dc(eq.delta), Dc(c0)
        bc = beta * c
        (e1, r1), num = eta(1), bc + delta
        rho = _rel(MUL * abs(bc) + ADD * (abs(bc) + abs(delta)), abs(num)) + r1 + DIV
        out = [(c, 0.0), (num / e1, rho)]
        for n in range(1, N):
            (xi, rx), (e, re) = term(n, +1, xps[n], yps[n + 1] - yps[n], xs[n]), eta(n + 1)
            rho += rx + re + MUL + DIV
            out.append((Dc() - out[-1][0] * xi / e, rho))
        return [(v, abs(v) * np.expm1(r)) for v, r in out]


def ref_cn_replay(pair, N):
    """[(C_n, bound_n)] for n = 0 .. N: diff_constants' x_{-1} route

        C_n = -Yb_n(y_{-1}) (x_{-1} - x'_0)(x_{-1} - x'_n)
              / ((y_0 - y_{-1}) X2(x_{-1}) Xb_{n-1}(x_{-1}))

    replayed to 50 digits on the float lattice (C_n a Dc, C_0 = 0), and a bound on the forward
    error of a float route that forms the same terms.  Each factor (w - z)/(w - p) of the running
    products Yb_n(y_{-1}) and Xb_{n-1}(x_{-1}) adds 2 ADD + DIV, and taking it into its product
    MUL; the head (y_0 - y_{-1}) X2(x_{-1}) adds X2's Horner bound and ADD + MUL; the numerator's
    two differences and two products 2 ADD + 2 MUL; and the head times Xb_{n-1} and the quotient
    MUL + DIV.  bound_n = |C_n| expm1(rho_n) for the sum rho_n of relative bounds, n factors of
    Yb_n and n - 1 of Xb_{n-1} (Higham 3.1, |theta_k| <= gamma_k).
    """
    (xs, ys), (xps, yps) = pair.unprimed.values(-1, N), pair.primed.values(0, N + 1)
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        xs, ys, xps, yps = ([Dc(v) for v in w] for w in (xs, ys, xps, yps))
        xm1, ym1, xp0 = xs[0], ys[0], xps[0]
        x2, ex2 = _horner_replay(pair.curve.x_view()[2], xm1)
        head = (ys[1] - ym1) * x2
        fixed = _rel(ex2, abs(x2)) + 3 * ADD + 4 * MUL + DIV
        factor = 2 * ADD + DIV + MUL
        yb, xb, out = Dc(1), Dc(1), [(Dc(), 0.0)]
        for n in range(1, N + 1):
            yb = yb * ((ym1 - ys[n]) / (ym1 - yps[n]))
            if n >= 2:
                xb = xb * ((xm1 - xs[n - 1]) / (xm1 - xps[n - 1]))
            cn = Dc() - yb * (xm1 - xp0) * (xm1 - xps[n]) / (head * xb)
            out.append((cn, fixed + (2 * n - 1) * factor))
        return [(v, abs(v) * np.expm1(r)) for v, r in out]


def ref_oracle_replay(eq, pair, K, f0):
    """[(f_k, bound_k)] for k = 0 .. K: the stepwise oracle of ref_stepwise_oracle,
    f_{k+1} = (g f_k + d)/den with g, den = a/dy +- c/2 at x_k, dy = y_{k+1} - y_k, replayed to
    50 digits on the float lattice and f_0 (f_k a Dc), and a running bound on the forward error
    of a float route that forms the same terms: a/dy carries e_a/|dy| + |a/dy| (ADD + DIV),
    g and den add e_c/2 + ADD (|a/dy| + |c|/2), g f + d carries
    e_g |f| + |g| e_f + MUL |g f| + e_d + ADD (|g f| + |d|), and
    e_f' = e_num/|den| + |f'| (e_den/|den| + DIV).  The steps must not be singular.
    """
    xs, ys = pair.unprimed.values(0, K + 1)
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        f, ef = Dc(f0), 0.0
        out = [(f, ef)]
        for k in range(K):
            x, dy = Dc(xs[k]), Dc(ys[k + 1]) - Dc(ys[k])
            (a, ea), (c, ec), (d, ed) = (_horner_replay(p, x) for p in (eq.a, eq.c, eq.d))
            ratio = a / dy
            g, den = ratio + c.half(), ratio - c.half()
            eg = ea / abs(dy) + abs(ratio) * (2 * ADD + DIV) + ec / 2 + ADD * abs(c) / 2
            eden, gf = eg, abs(g) * abs(f)
            enum = eg * abs(f) + abs(g) * ef + MUL * gf + ed + ADD * (gf + abs(d))
            f = (g * f + d) / den
            ef = enum / abs(den) + abs(f) * (eden / abs(den) + DIV)
            out.append((f, ef))
        return out


def gate_ratios(values, replay):
    """|values[n] - v_n| / bound_n for each (v_n, bound_n) of a replay (0 where both are 0, inf
    where only the bound is): a ratio <= 1 meets the forward-error bound."""
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        return [_rel(abs(Dc(v) - exact), bound) for v, (exact, bound) in zip(values, replay)]


def condition_residual_bound(eq, r, first, second):
    """A bound on the forward error of a float |a/dy + sign c/2| / size at r, dy = second - first,
    for either sign, from float magnitudes: the sum's error e_a/|dy| + |a/dy| (2 ADD + DIV) +
    e_c/2 + ADD (|a/dy| + |c|/2) over size, plus 8u of the residual for |.|, the division by
    size and size's own rounding (a power and up to three products)."""
    dy = second - first
    a, c, g = complex(eq.a(r)), complex(eq.c(r)), max(1.0, abs(r))
    ea, ec = (p.degree() * (MUL + ADD) * sum(abs(v) * g ** i for i, v in enumerate(p.coeffs))
              for p in (eq.a, eq.c))
    size = max(eq.a.max_coeff * g ** eq.a.degree() / abs(dy),
               eq.c.max_coeff * g ** eq.c.degree() / 2.0, 1e-300)
    ratio = abs(a / dy)
    err = ea / abs(dy) + ratio * (2 * ADD + DIV) + ec / 2 + ADD * (ratio + abs(c) / 2)
    return err / size + 8 * U * (ratio + abs(c) / 2) / size


# -- checks that tier-1 and CI both run, each at its own sizes ------------------------------


STOPS = (LatticeSingularityError, LatticeStagnationError)


def solved(eq, select, N, **kw):
    """solve(eq, select, N, **kw)'s special points, coefficients and diagnostics, and
    verify_interpolation's errors, their largest and the skipped nodes."""
    sol = solve(eq, select, N, **kw)
    rep = verify_interpolation(eq, sol, N)
    return (sol.special, sol.coeffs, sorted(sol.diagnostics.items()),
            rep.errors, rep.max_error, rep.skipped)


def selector_sweep(seeds, N):
    """(cases, differ, seconds): genus1_equation(seed) for each seed under the 30 ordered
    ByIndex pairs of distinct entries 0 .. 5, solved and verified at order N on one equation
    shared by all 30 and on a freshly built equal equation each time.  differ lists the
    (seed, select) whose outcome of solved differs between the two; seconds is the time taken
    on the shared and on the fresh equations (building them included)."""
    pairs = [ByIndex(i, j) for i in range(6) for j in range(6) if i != j]
    differ, shared_s, fresh_s = [], 0.0, 0.0
    for seed in seeds:
        t0 = time.perf_counter()
        shared = genus1_equation(seed)
        got = [outcome(lambda: solved(shared, select, N)) for select in pairs]
        t1 = time.perf_counter()
        want = [outcome(lambda: solved(genus1_equation(seed), select, N)) for select in pairs]
        shared_s, fresh_s = shared_s + t1 - t0, fresh_s + time.perf_counter() - t1
        differ += [(seed, select) for select, g, w in zip(pairs, got, want) if g != w]
    return len(pairs) * len(seeds), differ, (shared_s, fresh_s)


def gate_walk(lat, lo, hi, every=1, ref=None):
    """The gate ratios of lat's values past its head at every `every`-th n of [lo, hi]
    (walk_gate_ratios against ref_walk_replay, with ref_walk's errors at every `every`-th n as
    the stepwise walk's).  ref is ref_walk's ({n: x_n}, {n: y_n}) over [lo, hi] where the caller
    holds it; without it the stepwise walk is walked here."""
    spec = lat.spec
    ns = range(lo, hi + 1)
    sample = [n for n in ns if n % every == 0]
    replay = ref_walk_replay(spec.curve, spec.x0, spec.y0, lo, hi)
    ref = ref_walk(spec.curve, spec.x0, spec.y0, lo, hi) if ref is None else ref
    stepwise = walk_errors(*ref, replay, sample)
    xs, ys = (dict(zip(ns, v)) for v in lat.values(lo, hi + 1))
    return walk_gate_ratios(walk_errors(xs, ys, replay, [n for n in sample if abs(n) > HEAD]),
                            stepwise)


def assert_walk_matches(curve, x0, y0, lo, hi, every=1):
    """Walk [lo, hi] with LatticePair and ref_walk: the same stop (type and index; the message
    too within the head), the same values over what the lattice materialized by flips, and past
    the head of a genus-0 walk values within the gate of ref_walk_replay at every `every`-th n.
    Returns the stop, or None, and the worst gate ratio (0 without a tail)."""
    lat = LatticePair(LatticeSpec(curve, x0, y0))
    try:
        ref, stop = ref_walk(curve, x0, y0, lo, hi), None
    except STOPS as exc:
        ref, stop = None, exc
        try:
            lat.ensure(lo, hi)
        except type(exc) as got:
            assert got.index == exc.index, (got.index, exc.index)
            if abs(exc.index) <= HEAD:
                assert str(got) == str(exc), (str(got), str(exc))
        else:
            raise AssertionError(f"the walk did not stop: ref_walk raised {exc!r}")
    else:
        lat.ensure(lo, hi)
    if ref is None or lat.known_range != (lo, hi):
        lo, hi = lat.known_range
        ref = ref_walk(curve, x0, y0, lo, hi)
    ref_xs, ref_ys = ref
    xs, ys = lat.values(lo, hi + 1)
    tail = curve.discriminant_P().degree() in TAIL_DEGREES
    flips = [(n, x, y) for n, x, y in zip(range(lo, hi + 1), xs, ys) if abs(n) <= HEAD or not tail]
    assert [repr(x) for _, x, _ in flips] == [repr(ref_xs[n]) for n, _, _ in flips]
    assert [repr(y) for _, _, y in flips] == [repr(ref_ys[n]) for n, _, _ in flips]
    ratios = gate_walk(lat, lo, hi, every, ref) if tail and max(-lo, hi) > HEAD else {}
    worst = max(ratios.values(), default=0.0)
    assert worst <= 1.0, (worst, max(ratios, key=ratios.get))
    return stop, worst


def assert_chunked_walk(spec, lo, hi, sizes):
    """Walk spec in chunks and assert that its values over [lo, hi] equal the one-shot walk's,
    by repr: the k-th size moves the high end up (k even) or the low end down (k odd), each
    end held within [lo, hi], until the sizes run out or both ends are reached, and one last
    call walks the rest.  Returns the number of chunks before that call."""
    whole = LatticePair(spec)
    whole.ensure(lo, hi)
    lat, a, b, k = LatticePair(spec), 0, 0, 0
    for size in sizes:
        if (a, b) == (lo, hi):
            break
        if k % 2:
            a = max(lo, a - size)
        else:
            b = min(hi, b + size)
        lat.ensure(a, b)
        k += 1
    lat.ensure(lo, hi)
    assert [list(map(repr, v)) for v in lat.values(lo, hi + 1)] == \
        [list(map(repr, v)) for v in whole.values(lo, hi + 1)]
    return k


def sweep_inputs(sol, N=None):
    """(y_0 .. y_N, y'_1 .. y'_N, c_0 ..) of sol, the node sweep's inputs; N is sol's order by
    default."""
    N = len(sol.coeffs) - 1 if N is None else N
    return sol.pair.unprimed.span(0, N + 1)[1], sol.pair.primed.span(1, N + 1)[1], sol.coeffs


def assert_same_bits(got, want):
    """got and want have the same shape and the same bits (signed zeros and NaNs too)."""
    assert got.shape == want.shape and np.array_equal(got.view(np.int64), want.view(np.int64))


def row_sweep_start(ys, poles, cs):
    """_progression_start(ys, poles), the row from which the sweep takes every row's factors
    from one row, after asserting that _node_sums(ys, poles, cs) equals ref_row_sweep, one
    division per row, bit for bit."""
    assert_same_bits(_node_sums(ys, poles, cs), ref_row_sweep(ys, poles, cs))
    return _progression_start(ys, poles)


def gated_report(eq, sol, N, every=1, last=True):
    """(verify_interpolation(eq, sol, N), the worst node-sum ratio), checked against the sweep
    it reports on: its errors are |S(y_j) - oracle_j| / (1 + |oracle_j|) for _node_sums' S(y_j)
    at every node with an oracle value, and S(y_j) at every `every`-th of those nodes, and at
    the last when `last`, lies within 4 (j+1) 2^-53 sum_k |c_k Yb_k(y_j)| of the 50-digit sum."""
    rep = verify_interpolation(eq, sol, N)
    K = N - len(rep.skipped)
    oracle = stepwise_oracle(eq, sol.pair, K, f0=sol.coeffs[0])
    sums = _node_sums(sol.pair.unprimed.span(0, K + 1)[1], sol.pair.primed.span(1, N + 1)[1],
                      sol.coeffs)
    want = np.array(oracle)
    assert rep.errors == tuple((np.abs(sums - want) / (1.0 + np.abs(want))).tolist())
    nodes = list(range(0, K + 1, every))
    if last and nodes[-1] != K:
        nodes.append(K)
    worst = max(node_sum_error_ratios(sol, sums, nodes))
    assert worst <= 1.0, worst
    return rep, worst
