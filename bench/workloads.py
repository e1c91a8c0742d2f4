"""The benchmark's workloads: named sets of checked operations.

Every op splits into `call`, the program calls that are timed (and traced),
and `check`, which validates the outputs afterwards and returns a dict with
the op's relative error under "error" (None when the op has none) and any
cell or byte counts.  A failed check raises CheckFailed; any exception out of
`call` is a failure too.

Op kinds:
  fixed   closed-form input that must pass; a failure makes the run incorrect
  random  seeded genus-1 input; failures are counted, not fatal
  probe   known-defect input, run once per run and kept out of every timing
  warmup  fixed smoke pass through the CLI and every layer before timing
"""
from __future__ import annotations

import csv
import io
import itertools
import json
import math
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ellgrid import ByIndex, cli, solver

import inputs

CERT_TOL = 1e-9          # special-point certificates
INTERP_TOL = 1e-7        # interpolation error: the acceptance tolerance
RATE_TOL = 1e-7          # predicted rate vs |z|/|zeta| (about 1.3e-9 at the seed)
MAP_SIDE = 41
WARMUP_MAP_SIDE = 3
DEEP_POOL = 16           # seeded genus-1 equations at N=300 in deep's pool ...
DEEP_PER_CYCLE = 4       # ... of which each cycle runs this many that pass
SHORT_RANDOM = 400       # seeded genus-1 equations in short's pool ...
SHORT_PAIRS = 4          # ... each with this many of its ordered selector pairs
SHORT_PER_CYCLE = 100    # passing pool ops per cycle; 30 s of cycles cover the pool
SHORT_N = 40
DEEP_CYCLE_S = 4.8       # nominal cycle wall times at the seed (see Workload)
SHORT_CYCLE_S = 2.0
RATEMAP_CYCLE_S = 2.6
SELECTOR_PAIRS = list(itertools.permutations(range(6), 2))   # 30 ordered pairs


class CheckFailed(Exception):
    def __init__(self, reason, detail):
        super().__init__(f"{reason}: {detail}")
        self.reason = reason
        self.detail = detail


@dataclass
class Op:
    name: str                      # unique input id
    cls: str                       # timing class
    kind: str                      # fixed | random | probe | warmup
    call: Callable                 # (mark) -> output; mark(stage) opens each stage
    check: Callable                # output -> {"error": float | None, ...}


@dataclass
class Workload:
    """Ops of one workload.

    Every cycle runs `cycle` (cheap inputs recur in it, so that every class
    gets enough samples), then takes ops from `pool` in turn until
    `per_cycle` of them have passed.  Failing inputs fail the same way every
    time, so each runs once; the pool keeps the number of passing random ops
    per cycle the same whichever seed makes some of them fail.

    `cycle_s` is the nominal wall time of one cycle at the seed (2-CPU
    x86-64 host, Python 3.11, numpy 2.4); a run of S seconds runs S/cycle_s
    whole cycles, so the amount of work depends on S alone.
    """
    name: str
    warmup: list
    probes: list
    cycle: list
    class_prefix: str              # detail-metric name for per-class medians
    tail_percentile: float         # inside the slowest class, not on a class boundary
    cycle_s: float
    pool: list = field(default_factory=list)
    per_cycle: int = 0

    def cycles(self, seconds):
        return max(1, round(seconds / self.cycle_s))


# -- op builders ------------------------------------------------------------------------


def solve_verify_op(name, cls, kind, eq, select, n, **kwargs):
    def call(mark):
        mark("solve")
        sol = solver.solve(eq, select, n, **kwargs)
        mark("verify")
        return sol, solver.verify_interpolation(eq, sol, n)

    def check(out):
        sol, rep = out
        coeffs = np.asarray(sol.coeffs, dtype=complex)
        if len(coeffs) != n + 1:
            raise CheckFailed("length", f"{len(coeffs)} coefficients for N={n}")
        bad = np.flatnonzero(~np.isfinite(coeffs))
        if bad.size:
            raise CheckFailed("nonfinite", f"c_n not finite from n={bad[0]}")
        cert = max(sol.special.res_m1, sol.special.res_p0)
        if not cert <= CERT_TOL:
            raise CheckFailed("certificate", f"{cert:.3e} > {CERT_TOL:g}")
        if not rep.max_error <= INTERP_TOL:
            raise CheckFailed("interpolation", f"{rep.max_error:.3e} > {INTERP_TOL:g}")
        return {"error": rep.max_error}

    return Op(name, cls, kind, call, check)


def _cli_call(argv):
    def call(mark):
        mark("cli")
        buf = io.StringIO()
        with redirect_stdout(buf), redirect_stderr(buf):
            rc = cli.main(argv)
        return rc, buf.getvalue()
    return call


def _check_exit(out):
    rc, text = out
    if rc != 0:
        raise CheckFailed("exit", f"code {rc}: {text.strip()[:200]}")


def _reject_constant(token):
    raise CheckFailed("json", f"non-standard token {token}")


def cli_solve_op(name, kind, cfg_path, out_path, n):
    def check(out):
        _check_exit(out)
        with open(out_path, encoding="utf-8") as fh:
            text = fh.read()
        payload = json.loads(text, parse_constant=_reject_constant)
        if len(payload["coefficients"]) != n + 1:
            raise CheckFailed("length", f"{len(payload['coefficients'])} coefficients")
        sp = payload["special_points"]
        cert = max(sp["residual_m1"], sp["residual_p0"])
        if not cert <= CERT_TOL:
            raise CheckFailed("certificate", f"{cert:.3e}")
        err = payload["interpolation_max_error"]
        if not err <= INTERP_TOL:
            raise CheckFailed("interpolation", f"{err:.3e}")
        return {"error": err, "bytes": len(text) + len(out[1])}

    return Op(name, "cli-solve", kind,
              _cli_call(["solve", "--config", cfg_path, "--out", out_path, "--quiet"]), check)


def cli_verify_op(name, kind, cfg_path, out_path):
    def check(out):
        _check_exit(out)
        with open(out_path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        if len(lines) < 5 or not all(ln.startswith("PASS ") for ln in lines):
            raise CheckFailed("verify", "; ".join(ln for ln in lines if not ln.startswith("PASS")))
        interp = [ln for ln in lines if ln.startswith("PASS interpolation-vs-oracle")]
        err = float(interp[0].rsplit(" ", 1)[1]) if interp else None
        return {"error": err, "bytes": sum(len(ln) + 1 for ln in lines) + len(out[1])}

    return Op(name, "cli-verify", kind,
              _cli_call(["verify", "--config", cfg_path, "--out", out_path, "--quiet"]), check)


def cli_ratemap_op(name, kind, cfg_path, out_path, side, zeta_abs=None):
    """A rate map; with zeta_abs, predicted rates are checked against |z|/|zeta|."""
    def check(out):
        _check_exit(out)
        with open(out_path, encoding="utf-8", newline="") as fh:
            text = fh.read()
        rows = list(csv.DictReader(io.StringIO(text)))
        if len(rows) != side * side:
            raise CheckFailed("rows", f"{len(rows)} rows, expected {side * side}")
        rated, gaps = 0, []
        for row in rows:
            if row["empirical_rate"]:
                if not math.isfinite(float(row["empirical_rate"])):
                    raise CheckFailed("nonfinite", f"empirical rate at {row['re_z']},{row['im_z']}")
                rated += 1
            if zeta_abs is None:
                continue
            if not row["predicted_rate"]:
                raise CheckFailed("prediction", f"no predicted rate at {row['re_z']},{row['im_z']}")
            z = abs(complex(float(row["re_z"]), float(row["im_z"])))
            if 1.02 <= z <= 1.38:
                want = z / zeta_abs
                gaps.append(abs(float(row["predicted_rate"]) - want) / want)
        error = max(gaps) if gaps else None
        if error is not None and not error <= RATE_TOL:
            raise CheckFailed("prediction", f"gap to |z|/|zeta| {error:.3e} > {RATE_TOL:g}")
        return {"error": error, "cells": len(rows), "rated": rated,
                "bytes": len(text) + len(out[1])}

    return Op(name, name, kind,
              _cli_call(["ratemap", "--config", cfg_path, "--out", out_path, "--quiet"]), check)


# -- workloads ------------------------------------------------------------------------------


def warmup_ops(run_dir):
    """README scenario through CLI solve and verify, and a 3x3 predicted rate map.

    Together they reach every layer, so the traced segment measures each layer
    on every workload, and lazy set-up is done before timing starts.
    """
    solve_cfg = inputs.write_scenario(run_dir / "warm-solve.json", inputs.readme_scenario("solve"))
    verify_cfg = inputs.write_scenario(run_dir / "warm-verify.json",
                                       inputs.readme_scenario("verify"))
    map_cfg = inputs.write_scenario(run_dir / "warm-map.json",
                                    inputs.log_qlattice_ratemap_scenario(WARMUP_MAP_SIDE))
    zeta_abs = abs(inputs.log_qlattice_fixture()[2])
    return [
        cli_solve_op("warm-cli-solve", "warmup", solve_cfg, str(run_dir / "warm-solve.out"),
                     inputs.README_SOLVE_SCENARIO["params"]["n"]),
        cli_verify_op("warm-cli-verify", "warmup", verify_cfg, str(run_dir / "warm-verify.out")),
        cli_ratemap_op("warm-map", "warmup", map_cfg, str(run_dir / "warm-map.csv"),
                       WARMUP_MAP_SIDE, zeta_abs),
    ]


def build_deep(rng, run_dir, n_scale=1):
    lin, aw, qg = inputs.linear_fixture(), inputs.aw_fixture(), inputs.qgeom_fixture()

    def n(value):
        return max(5, value // n_scale)

    lin100 = solve_verify_op("lin100", "lin100", "fixed", *lin, n(100))
    aw300 = solve_verify_op("aw300", "aw300", "fixed", *aw, n(300))
    cycle = [solve_verify_op("lin1000", "lin1000", "fixed", *lin, n(1000))] + \
        [aw300] * 2 + [lin100] * 3
    pool = []
    for k in range(DEEP_POOL):
        select = ByIndex(0, 1) if k % 2 == 0 else ByIndex(1, 2)
        pool.append(solve_verify_op(f"g1-300#{k}", "g1-300", "random",
                                    inputs.random_genus1_equation(rng), select, n(300)))
    probes = [
        solve_verify_op("probe-qgeom100", "probe", "probe", *qg, 100),
        solve_verify_op("probe-aw400", "probe", "probe", *aw, 400),
    ]
    return Workload("deep", warmup_ops(run_dir), probes, cycle, "solve_verify_ms", 75.0,
                    DEEP_CYCLE_S, pool, DEEP_PER_CYCLE)


def build_short(rng, run_dir, n_scale=1):
    n = max(5, SHORT_N // n_scale)
    random_ops = []
    for k in range(SHORT_RANDOM):
        eq = inputs.random_genus1_equation(rng)
        for p in rng.choice(len(SELECTOR_PAIRS), SHORT_PAIRS, replace=False):
            i, j = SELECTOR_PAIRS[p]
            random_ops.append(solve_verify_op(f"g1-{SHORT_N}#{k}({i},{j})", f"g1-{SHORT_N}",
                                              "random", eq, ByIndex(i, j), n))
    eq, select, c0_free, _a, _zeta, hints = inputs.log_linear_fixture()
    leq, lselect, _zeta, _q, lhints = inputs.log_qlattice_fixture()
    solve_cfg = inputs.write_scenario(run_dir / "readme-solve.json",
                                      inputs.readme_scenario("solve"))
    verify_cfg = inputs.write_scenario(run_dir / "readme-verify.json",
                                       inputs.readme_scenario("verify"))
    fixed = [
        solve_verify_op("lin40", "lin40", "fixed", *inputs.linear_fixture(), n),
        solve_verify_op("qgeom40", "qgeom40", "fixed", *inputs.qgeom_fixture(), n),
        solve_verify_op("aw40", "aw40", "fixed", *inputs.aw_fixture(), n),
        solve_verify_op("loglin40", "loglin40", "fixed", eq, select, n,
                        c0_free=c0_free, **hints),
        solve_verify_op("logq40", "logq40", "fixed", leq, lselect, n, c0_free=0.0, **lhints),
        cli_solve_op("cli-solve", "fixed", solve_cfg, str(run_dir / "readme-solve.out"),
                     inputs.README_SOLVE_SCENARIO["params"]["n"]),
        cli_verify_op("cli-verify", "fixed", verify_cfg, str(run_dir / "readme-verify.out")),
    ]
    rng.shuffle(random_ops)
    return Workload("short", warmup_ops(run_dir), [], fixed, "op_ms", 99.0,
                    SHORT_CYCLE_S, random_ops, SHORT_PER_CYCLE)


def build_ratemap(rng, run_dir, n_scale=1):
    side = max(3, MAP_SIDE // n_scale)
    pred_cfg = inputs.write_scenario(run_dir / "pred41.json",
                                     inputs.log_qlattice_ratemap_scenario(side))
    emp_cfg = inputs.write_scenario(run_dir / "emp41.json", inputs.linear_ratemap_scenario(side))
    zeta_abs = abs(inputs.log_qlattice_fixture()[2])
    # emp41 is about 7x cheaper than pred41.  Two of it per cycle keep the
    # median inside emp41 and give both classes ten or more samples per run;
    # the tail, p90, falls in the upper half of pred41, away from the
    # boundary between the two classes.
    cycle = [cli_ratemap_op("pred41", "fixed", pred_cfg, str(run_dir / "pred41.csv"),
                            side, zeta_abs)] + \
        [cli_ratemap_op("emp41", "fixed", emp_cfg, str(run_dir / "emp41.csv"), side)] * 2
    return Workload("ratemap", warmup_ops(run_dir), [], cycle, "map_ms", 90.0, RATEMAP_CYCLE_S)


BUILDERS = {"deep": build_deep, "short": build_short, "ratemap": build_ratemap}
