"""Batch front end: scenario configs in, CSV/JSON and summaries out.

Subcommands: lattice, solve, verify, ratemap.  One JSON config describes the
scenario; complex numbers are always two-element [re, im] arrays.  Exit codes:
0 success, 2 validation, 3 numerical failure, 4 I/O.
"""
from __future__ import annotations

import argparse
import contextlib
import functools
import json
import sys

import numpy as np

from . import convergence, diffops, lattice as lattice_mod, solver
from .curve import BiquadraticCurve
from .errors import EllgridError, MissingFieldError, ValidationError, _real
from .lattice import LatticeSpec, write_lattice_csv
from .poly import Polynomial

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4


# -- config decoding ------------------------------------------------------------------
#
# Every field goes through a helper that raises ValidationError naming it, so a
# malformed config exits with EXIT_VALIDATION before any output file is opened.


def _cnum(v, field):
    if isinstance(v, (list, tuple)) and len(v) == 2:
        return complex(_real(v[0], f"{field}[0]"), _real(v[1], f"{field}[1]"))
    if not isinstance(v, (int, float)) or isinstance(v, bool):      # not a JSON number
        raise ValidationError(f"{field}: expected a number or [re, im] pair, got {v!r}")
    return complex(_real(v, field))


def _cpoly(v, field):
    if not isinstance(v, list) or not v:
        raise ValidationError(f"{field}: expected a non-empty coefficient list")
    return Polynomial([_cnum(x, f"{field}[{i}]") for i, x in enumerate(v)])


def _int(v, field):
    """v when it is an int (not a bool), or a float with an integral value, as an int."""
    if isinstance(v, float) and v.is_integer():
        return int(v)
    if isinstance(v, int) and not isinstance(v, bool):
        return v
    raise ValidationError(f"{field}: expected an integer, got {v!r}")


def _items(v, field, count):
    """v when it is a list of exactly count entries."""
    if not isinstance(v, list) or len(v) != count:
        raise ValidationError(f"{field}: expected a list of {count} entries, got {v!r}")
    return v


def _object(v, field):
    if not isinstance(v, dict):
        raise ValidationError(f"{field}: expected an object, got {v!r}")
    return v


def _require(obj, field):
    """obj[key] for the last part of the dotted name field, which errors name."""
    parent, _, key = field.rpartition(".")
    if key not in _object(obj, parent or "config"):
        raise MissingFieldError(field)
    return obj[key]


def _params(cfg):
    return _object(cfg.get("params", {}), "params")


def _axis(v, field):
    """The grid axis np.linspace(lo, hi, count) of a [lo, hi, count] triple."""
    lo, hi, count = _items(v, field, 3)
    count = _int(count, f"{field}[2]")
    if count < 0:
        raise ValidationError(f"{field}[2]: expected a count >= 0, got {count}")
    axis = np.linspace(_real(lo, f"{field}[0]"), _real(hi, f"{field}[1]"), count)
    if not np.isfinite(axis).all():
        raise ValidationError(f"{field} bounds must be finite")
    return axis


def load_config(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"config is not valid JSON: {exc}")
    except UnicodeDecodeError as exc:
        raise ValidationError(f"config is not UTF-8: {exc}") from None
    return _object(cfg, "config")


def _curve_from(cfg):
    return BiquadraticCurve.from_json(_require(cfg, "curve"))


def _seed_from(cfg, curve):
    seed = _require(cfg, "lattice_seed")
    x0 = _cnum(_require(seed, "lattice_seed.x0"), "lattice_seed.x0")
    y0 = _cnum(seed["y0"], "lattice_seed.y0") if "y0" in seed else None
    y1_index = seed.get("y1_index")
    if y1_index is not None:
        y1_index = _int(y1_index, "lattice_seed.y1_index")
    if y1_index not in (None, 0, 1):
        raise ValidationError(f"lattice_seed.y1_index: expected 0 or 1, got {y1_index!r}")
    y1_hint = _cnum(seed["y1_hint"], "lattice_seed.y1_hint") if "y1_hint" in seed else None
    return LatticeSpec(curve, x0, y0=y0, y1_index=y1_index, y1_hint=y1_hint)


def _select_from(params):
    sel = params.get("select")
    if sel is None:
        return solver.ByIndex(0, 1)
    sel = _object(sel, "params.select")
    if "nearest" in sel:
        return solver.Nearest(_cnum(sel["nearest"], "params.select.nearest"))
    if "index" in sel:
        idx = sel["index"]
        if isinstance(idx, list) and len(idx) in (1, 2):
            return solver.ByIndex(*(_int(v, f"params.select.index[{k}]")
                                    for k, v in enumerate(idx)))
        return solver.ByIndex(_int(idx, "params.select.index"))
    if "explicit" in sel:
        pts = _items(sel["explicit"], "params.select.explicit", 2)
        return solver.Explicit(_cnum(pts[0], "params.select.explicit[0]"),
                               _cnum(pts[1], "params.select.explicit[1]"))
    raise ValidationError(f"unknown select clause {sel!r}")


def _equation_from(cfg, curve):
    eqc = _require(cfg, "equation")
    a = _cpoly(_require(eqc, "equation.a"), "equation.a")
    if eqc.get("mode") == "log":
        if "c0_free" not in eqc:
            raise MissingFieldError("c0_free")
        d = _cpoly(_require(eqc, "equation.d"), "equation.d")
        eq = solver.DifferenceEquation.from_polynomials(
            curve, a, Polynomial((0j,)), d)
        return eq, _cnum(eqc["c0_free"], "equation.c0_free")
    c = _cpoly(_require(eqc, "equation.c"), "equation.c")
    d = _cpoly(_require(eqc, "equation.d"), "equation.d")
    return solver.DifferenceEquation.from_polynomials(curve, a, c, d), None


def _solve_scenario(cfg, n_override=None):
    curve = _curve_from(cfg)
    params = _params(cfg)
    eq, c0_free = _equation_from(cfg, curve)
    n = n_override if n_override is not None else _int(params.get("n", 10), "params.n")
    select = _select_from(params)
    y0_hint = _cnum(params["y0_hint"], "params.y0_hint") if "y0_hint" in params else None
    yp1_hint = _cnum(params["yp1_hint"], "params.yp1_hint") if "yp1_hint" in params else None
    return solver.solve(eq, select, n, c0_free=c0_free,
                        y0_hint=y0_hint, yp1_hint=yp1_hint)


def _out_path(out_path, params):
    """--out, else params.out, else None (stdout)."""
    path = out_path or params.get("out")
    if path is not None and not isinstance(path, str):
        raise ValidationError(f"params.out: expected a path, got {path!r}")
    return path


@contextlib.contextmanager
def _output(path):
    """The stream a subcommand writes its result to: the file at path, else stdout."""
    if path is None:
        yield sys.stdout
        return
    with open(path, "w", encoding="utf-8", newline="") as stream:
        yield stream


# -- subcommands -----------------------------------------------------------------------


def run_lattice(cfg, out_path, n_override, quiet):
    """Generate a lattice and dump it as CSV."""
    curve = _curve_from(cfg)
    spec = _seed_from(cfg, curve)
    params = _params(cfg)
    n_max = (n_override if n_override is not None
             else _int(params.get("n_max", params.get("n", 10)), "params.n_max"))
    n_min = _int(params.get("n_min", -n_max), "params.n_min")
    path = _out_path(out_path, params)
    lat = lattice_mod.generate(spec, n_min, n_max)
    for n in range(n_min, n_max):
        r1, r2 = lat.on_curve_residual(n)
        if not (r1 <= 1e-9 and r2 <= 1e-9):
            raise EllgridError(f"on-curve invariant violated at n={n}")
    with _output(path) as stream:
        write_lattice_csv(lat, n_min, n_max, stream)
    if not quiet and path is not None:
        print(f"lattice written for n in [{n_min}, {n_max}]")
    return EXIT_OK


def run_solve(cfg, out_path, n_override, quiet):
    """Expand the scenario's difference equation, dump JSON."""
    path = _out_path(out_path, _params(cfg))
    sol = _solve_scenario(cfg, n_override)
    report = solver.verify_interpolation(sol.eq, sol, len(sol.coeffs) - 1)
    payload = solver.solution_to_json(sol)
    payload["interpolation_max_error"] = report.max_error
    try:
        text = json.dumps(payload, indent=2, allow_nan=False) + "\n"
    except ValueError as exc:
        raise EllgridError(f"solution JSON would hold a non-finite value: {exc}") from exc
    with _output(path) as stream:
        stream.write(text)
    if not quiet:
        lines = ["  n  |c_n|", "  --- ------"]
        for k, c in enumerate(sol.coeffs):
            lines.append(f"  {k:3d} {abs(c):.6e}")
        lines.append(f"  certificates: x_-1 {sol.special.res_m1:.2e}, "
                     f"x'_0 {sol.special.res_p0:.2e}")
        lines.append(f"  interpolation max error: {report.max_error:.2e}")
        if all(abs(c) == 0.0 for c in sol.coeffs):
            lines.append("  note: trivial solution (all coefficients vanish)")
        print("\n".join(lines), file=sys.stderr if path is None else sys.stdout)
    return EXIT_OK


def _worst(values):
    """The largest of values (0 when there are none), NaN when any of them is NaN."""
    return float(np.max(np.asarray(list(values), dtype=float), initial=0.0))


def _verify_checks(cfg):
    """Yield (name, passed, detail) for the scenario's invariant suite."""
    curve = _curve_from(cfg)
    params = _params(cfg)
    n_max = _int(params.get("n_max", 8), "params.n_max")

    if "lattice_seed" in cfg:
        spec = _seed_from(cfg, curve)
        lat = lattice_mod.generate(spec, min(-3, -n_max), n_max)
        worst = _worst(r for n in range(min(-3, -n_max), n_max) for r in lat.on_curve_residual(n))
        yield "lattice-on-curve", worst <= 1e-9, f"max residual {worst:.2e}"

        x0, x1p, x2p = curve.x_view()
        m = max(0, min(5, n_max))
        xs, ys = lat.values(0, m + 1)                # index 0 .. m
        pairs = [curve.y_roots(x) for x in xs[:m]]
        devs = []
        for x, pair in zip(xs, pairs):
            s = -x1p(x) / x2p(x)
            p = x0(x) / x2p(x)
            sc = max(1.0, abs(s), abs(p))
            devs += [abs(pair.lo + pair.hi - s) / sc, abs(pair.lo * pair.hi - p) / sc]
        worst = _worst(devs)
        yield "root-pair-sum-product", worst <= 1e-10, f"max deviation {worst:.2e}"

        devs = []
        for pair, y, y_next in zip(pairs, ys, ys[1:]):
            got = sorted((pair.lo, pair.hi), key=lambda v: (v.real, v.imag))
            want = sorted((y, y_next), key=lambda v: (v.real, v.imag))
            sc = max(1.0, abs(want[0]), abs(want[1]))
            devs += [abs(got[0] - want[0]) / sc, abs(got[1] - want[1]) / sc]
        worst = _worst(devs)
        yield "complement-root-consistency", worst <= 1e-9, f"max deviation {worst:.2e}"

    if "equation" in cfg:
        sol = _solve_scenario(cfg)
        yield ("special-point-certificates",
               _worst((sol.special.res_m1, sol.special.res_p0)) <= 1e-9,
               f"residuals {sol.special.res_m1:.2e}, {sol.special.res_p0:.2e}")

        worst = _worst(diffops.diff_constant(sol.pair, n, method="all")[1]
                       for n in range(1, min(6, len(sol.coeffs) - 1) + 1))
        yield "cn-four-way-agreement", worst <= 1e-8, f"max spread {worst:.2e}"

        samples = diffops.identity_samples(sol.pair, 3, count=12, seed=11)
        worst = _worst(diffops.verify_diff_basis_identity(sol.pair, n, samples)
                       for n in (1, 2, 3))
        yield "diff-basis-identity", worst <= 1e-7, f"max error {worst:.2e}"

        n_exp = len(sol.coeffs) - 1
        report = solver.verify_interpolation(sol.eq, sol, n_exp)
        yield ("interpolation-vs-oracle", report.max_error <= 1e-7,
               f"max error {report.max_error:.2e}")

        worst = _worst(abs(solver.residual(sol.eq, sol, n_exp, z)) / sol.eq.scale(z)
                       for z in sol.pair.unprimed.values(0, min(6, n_exp))[0])
        yield "residual-on-lattice", worst <= 1e-7, f"max relative defect {worst:.2e}"


def run_verify(cfg, out_path, n_override, quiet):
    """Run the invariant suite on the scenario."""
    if "lattice_seed" not in cfg and "equation" not in cfg:
        raise ValidationError("verify needs a lattice_seed or an equation in the scenario")
    path = _out_path(out_path, _params(cfg))
    lines = []
    all_ok = True
    for name, ok, detail in _verify_checks(cfg):
        all_ok &= ok
        lines.append(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    text = "\n".join(lines) + "\n"
    with _output(path) as stream:
        stream.write(text)
    if not quiet and path is not None:
        sys.stdout.write(text)
    return EXIT_OK if all_ok else EXIT_NUMERICAL


def run_ratemap(cfg, out_path, n_override, quiet):
    """Empirical/predicted convergence rates over a z grid."""
    params = _params(cfg)
    grid = _require(params, "params.grid")
    window = _items(params.get("window", [5, 25]), "params.window", 2)
    n_min, n_max = _int(window[0], "params.window[0]"), _int(window[1], "params.window[1]")
    re_axis = _axis(_require(grid, "params.grid.re"), "params.grid.re")
    im_axis = _axis(_require(grid, "params.grid.im"), "params.grid.im")
    threshold = _real(params.get("threshold", 0.05), "params.threshold")
    path = _out_path(out_path, params)
    sol = _solve_scenario(cfg, n_override if n_override is not None else n_max)
    rows = convergence.rate_map(sol, re_axis, im_axis, n_min, n_max,
                                smalldiv_threshold=threshold)
    with _output(path) as stream:
        convergence.write_rate_map_csv(rows, stream)
    if not quiet and path is not None:
        print(f"rate map: {len(rows)} points")
    return EXIT_OK


RUNNERS = {
    "lattice": run_lattice,
    "solve": run_solve,
    "verify": run_verify,
    "ratemap": run_ratemap,
}


@functools.cache
def build_parser():
    """The command-line parser, built once per process and shared by every main call."""
    parser = argparse.ArgumentParser(
        prog="ellgrid",
        description="Elliptic lattices, difference operators, and interpolatory expansions",
        epilog="commands:\n" + "".join(f"  {name:<9}{run.__doc__}\n"
                                       for name, run in RUNNERS.items()),
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("command", choices=RUNNERS, metavar="command",
                        help="one of the commands below")
    parser.add_argument("--config", required=True, help="scenario JSON path")
    parser.add_argument("--out", default=None, help="output path (default: stdout)")
    parser.add_argument("--n", type=int, default=None, help="override the order/step count")
    parser.add_argument("--quiet", action="store_true", help="suppress the summary")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        run = cfg.get("run")
        if run is not None and (not isinstance(run, str) or run.lower() != args.command):
            raise ValidationError(
                f"config run={run!r} does not match subcommand {args.command!r}")
        return RUNNERS[args.command](cfg, args.out, args.n, args.quiet)
    except ValidationError as exc:
        print(f"ValidationError: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except EllgridError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        print(f"IOError: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
