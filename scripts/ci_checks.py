#!/usr/bin/env python3
"""CI's long checks, each a call to the helper its tier-1 twin calls, at CI's sizes.

    python scripts/ci_checks.py NAME [DIR]

NAME is a check in CHECKS, `configs` (write the configs CI's console-script step runs into
DIR) or `all` (write those configs, the rate-map script's r.csv and the console-script
ratemap.csv into DIR, a temporary directory by default, as the workflow's earlier steps do,
then run each check in a process of its own).  The helpers are in tests/oracles.py and the
inputs in tests/fixtures.py.  Timings are informational.
"""
import argparse
import csv
import dataclasses
import filecmp
import itertools
import json
import os
import pathlib
import subprocess
import sys
import tempfile
import time
import timeit

import numpy as np

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from ellgrid import (AskeyWilsonLattice, ByIndex, LatticePair, LatticeSpec,  # noqa: E402
                     solve, stepwise_oracle, verify_interpolation)
from ellgrid.diffops import diff_constants               # noqa: E402
from ellgrid.solver import _node_sums, _progression_start  # noqa: E402

from fixtures import (GOLDEN, aw_lattice_config, explicit, genus1_equation,  # noqa: E402
                      linear_fixture, log_qlattice_fixture, readme_config, scenario_config,
                      trimmed_curve)
from oracles import (WALK_GATE, assert_chunked_walk, assert_walk_matches,  # noqa: E402
                     gate_ratios, gated_report, ref_cn_replay, ref_oracle_replay,
                     ref_ratio_recurrence, ref_ratio_replay, ref_stepwise_oracle, ref_walk,
                     row_sweep_start, selector_sweep, sweep_inputs)

LOGLIN = """\
{
  "curve": [[[0.0,0.0],[-1.0,0.0],[1.0,0.0]],
            [[1.0,0.0],[-2.0,0.0],[0.0,0.0]],
            [[1.0,0.0],[0.0,0.0],[0.0,0.0]]],
  "equation": {
    "mode": "log",
    "a": [[-0.9000000000000001,-0.4562499999999999],[0.4624999999999998,-2.3],[2.5,-1.1],[1.0,0.0]],
    "d": [[-2.0,0.1],[-1.0,0.0]],
    "c0_free": [0.3,-0.7]
  },
  "params": {"n": 300, "select": {"explicit": [[-2.0,0.1],[0.25000000000000006,0.5]]},
             "y0_hint": [-1.0,0.1], "yp1_hint": [1.25,0.5]}
}
"""


def ratemap_script(work):
    """Every predicted cell of DIR/r.csv with 1.02 <= |z| <= 1.38 is |z| / 1.4 to 1e-12."""
    with open(work / "r.csv", encoding="utf-8", newline="") as fh:
        cells = [(abs(complex(float(r["re_z"]), float(r["im_z"]))), float(r["predicted_rate"]))
                 for r in csv.DictReader(fh) if r["predicted_rate"]]
    cells = [(z, rate) for z, rate in cells if 1.02 <= z <= 1.38]
    assert cells, "no predicted cell with 1.02 <= |z| <= 1.38"
    worst = max(abs(rate - z / 1.4) for z, rate in cells)
    assert worst <= 1e-12, f"predicted rate {worst:.2e} from |z|/1.4"
    print(f"{len(cells)} cells, largest gap to |z|/1.4 {worst:.2e}")


def inprocess_ratemap(work):
    """The rate map of DIR/ratemap.json through ellgrid.cli.main in this process imports no
    numpy.ma (about 13 ms of every process), and it and the same map written from its list of
    rows, not from the RateMap's columns, equal the console script's DIR/ratemap.csv."""
    from ellgrid import convergence
    from ellgrid.cli import main

    def run(out):
        argv = ["ratemap", "--config", str(work / "ratemap.json"), "--out", str(work / out)]
        assert main([*argv, "--quiet"]) == 0
        assert filecmp.cmp(work / "ratemap.csv", work / out, shallow=False), out
    run("ratemap.inproc.csv")
    assert "numpy.ma" not in sys.modules, "the rate map imported numpy.ma"
    columns = convergence.rate_map
    convergence.rate_map = lambda *args, **kwargs: list(columns(*args, **kwargs))
    run("ratemap.rows.csv")


def sweep_ms(sol, N):
    """The node sweep over sol's first N + 1 nodes, best of 5, in ms."""
    return 1e3 * min(timeit.repeat(lambda: _node_sums(*sweep_inputs(sol, N)), number=1, repeat=5))


def large_n(work):
    """The linear fixture at N = 3000: verify on solve's reads equals verify on fresh ones; the
    node-sum gate, and the c_n, oracle and C_n gates against their 50-digit replays for both
    routes, at every 97th n; the sweep equals ref_row_sweep to the bit from row 0.  genus1_equation(1), ByIndex(0, 1), at N = 1000: the
    node-sum gate at every 37th node."""
    N = 3000
    eq, select = linear_fixture()
    sol = solve(eq, select, N)
    t = time.perf_counter()
    report = verify_interpolation(eq, sol, N)
    took = time.perf_counter() - t
    fresh = dataclasses.replace(sol)        # the same solution without solve's reads
    assert sol._reads is not None and not hasattr(fresh, "_reads")
    assert verify_interpolation(eq, fresh, N) == report, "verify differs without solve's reads"
    rep, worst = gated_report(eq, sol, N, every=97, last=False)
    assert rep.max_error <= 1e-7 and rep.skipped == (), (rep.max_error, rep.skipped[:5])
    r0 = row_sweep_start(*sweep_inputs(sol))
    assert r0 == 0, r0
    nodes = range(0, N + 1, 97)
    oracle = stepwise_oracle(eq, sol.pair, N, f0=sol.coeffs[0])
    t = time.perf_counter()
    ref_cs = ref_ratio_recurrence(eq, sol.pair, sol.coeffs[0], N)
    ref_took = time.perf_counter() - t
    ref = ref_stepwise_oracle(eq, sol.pair, N, sol.coeffs[0])
    gates = {}
    for name, replay, routes in (
            ("c_n", ref_ratio_replay(eq, sol.pair, sol.coeffs[0], N), (sol.coeffs, ref_cs)),
            ("oracle", ref_oracle_replay(eq, sol.pair, N, sol.coeffs[0]), (oracle, ref)),
            ("C_n", ref_cn_replay(sol.pair, N), (diff_constants(sol.pair, N),))):
        for route, values in zip(("array", "per-index"), routes):
            assert len(values) == N + 1, (name, route)
            gates[name, route] = max(gate_ratios([values[n] for n in nodes],
                                                 [replay[n] for n in nodes]))
    assert max(gates.values()) <= 1.0, gates
    print(f"N = {N}: max error {rep.max_error:.2e}, verify {took:.2f} s, the same report on "
          f"fresh reads; worst node sum "
          f"at {worst:.2f} of its forward-error bound; at every 97th n, worst c_n at "
          f"{gates['c_n', 'array']:.3f} (ref_ratio_recurrence {gates['c_n', 'per-index']:.3f},"
          f" {ref_took:.2f} s) and worst oracle value at {gates['oracle', 'array']:.3f} "
          f"(ref_stepwise_oracle {gates['oracle', 'per-index']:.3f}) and worst C_n at "
          f"{gates['C_n', 'array']:.1e} of their bounds")
    g1 = genus1_equation(1)
    g1_sol = solve(g1, ByIndex(0, 1), 1000)
    g1_rep, g1_worst = gated_report(g1, g1_sol, 1000, every=37, last=False)
    assert g1_rep.skipped == () and g1_rep.max_error <= 1e-7
    g1_r0 = _progression_start(*sweep_inputs(g1_sol)[:2])
    print(f"sweep {sweep_ms(sol, 1000):.1f} ms at N = 1000 and {sweep_ms(sol, N):.0f} ms at "
          f"N = {N} (linear, r0 = {r0}, best of 5), equal to ref_row_sweep at every node; "
          f"genus1_equation(1) at N = 1000: r0 = {g1_r0}, sweep {sweep_ms(g1_sol, 1000):.1f} "
          f"ms, worst node sum at {g1_worst:.3f} of its bound at every 37th node")


def long_walks(work):
    """Four walks over -10^4 .. 10^4 by assert_walk_matches, none of which may stop: the real
    oval of genus1_equation(1), trimmed_curve(2) and a non-real start on genus1_equation(3) bit
    for bit, and the golden Askey-Wilson ellipse within the walk gate at every 97th n past the
    head.  Each walked in chunks of 997, alternating directions, equals the one-shot walk."""
    L = 10_000
    ellipse = AskeyWilsonLattice(a=0.0, b=1.0, c=0.7, q=np.exp(2j * np.pi * GOLDEN)).spec()
    for name, spec in (
            ("golden ellipse", ellipse),
            ("genus1_equation(1)", LatticeSpec(genus1_equation(1).curve, 0.5, y1_index=0)),
            ("genus1_equation(1), c[2][2] trimmed",
             LatticeSpec(trimmed_curve(2), 0.5, y1_index=0)),
            ("genus1_equation(3), non-real",
             LatticeSpec(genus1_equation(3).curve, 0.25 + 0.5j, y1_index=0))):
        t = time.perf_counter()
        LatticePair(spec).ensure(-L, L)
        walk = time.perf_counter() - t
        t = time.perf_counter()
        ref_walk(spec.curve, spec.x0, spec.y0, -L, L)
        ref = time.perf_counter() - t
        stop, worst = assert_walk_matches(spec.curve, spec.x0, spec.y0, -L, L, every=97)
        assert stop is None, (name, stop)
        gate = (f"; worst forward error {worst * WALK_GATE:.2f} times the stepwise walk's"
                if spec is ellipse else ", bit for bit")
        k = assert_chunked_walk(spec, -L, L, itertools.repeat(997))
        print(f"{name}: {2 * L} steps against ref_walk{gate}; one-shot equals {k} chunks; "
              f"{1e6 * walk / (2 * L):.2f} us/step, ref_walk {1e6 * ref / (2 * L):.1f} us/step")


def selector_sweep_check(work):
    """genus1_equation seeds 0-9 under the 30 ordered ByIndex pairs of entries 0 .. 5 at
    N = 150: the same outcome on one equation per seed as on a fresh equal one per pair."""
    cases, differ, (shared, fresh) = selector_sweep(range(10), 150)
    assert cases == 300 and not differ, differ
    print(f"{cases} solves equal on shared and fresh equations; "
          f"shared {shared:.2f} s, fresh {fresh:.2f} s")


def bench_pairs(work):
    """One HEAD-vs-HEAD ratemap pair of scripts/bench_pairs.py at 1 s, written into DIR (or a
    temporary directory): the file's keys, one summary per end-to-end metric of BENCHMARK.json,
    and the same outcome on both sides."""
    with tempfile.TemporaryDirectory() as tmp:
        out = pathlib.Path(work or tmp) / "bench_pairs.json"
        subprocess.run([sys.executable, str(ROOT / "scripts" / "bench_pairs.py"), "--parent",
                        "HEAD", "--change", "HEAD", "--workload", "ratemap", "--seeds", "1",
                        "--seconds", "1", "--out", str(out)], check=True)
        record = json.loads(out.read_text(encoding="utf-8"))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert record.keys() == {"workload", "seconds", "seeds", "env", "notes", "pairs", "parent",
                             "change", "summary"}, record.keys()
    assert record["parent"]["commit"] == record["change"]["commit"]
    assert record["summary"].keys() == {m["name"] for m in spec["end_to_end"]}
    (pair,) = record["pairs"]
    assert pair["first"] == "parent" and pair["parent"]["failed"] == pair["change"]["failed"]


CHECKS = {"ratemap-script": ratemap_script, "inprocess-ratemap": inprocess_ratemap,
          "large-n": large_n, "long-walks": long_walks, "selector-sweep": selector_sweep_check,
          "bench-pairs": bench_pairs}


def configs(work):
    """The README's scenario as solve.json and its edits (verify, lattice, ratemap, and bad,
    frac and curve, which the console script refuses), loglin.json, genus1.json (the rate-map
    script's equation on a genus-1 curve), the Askey-Wilson lattices aw600 and aw1100, and
    huge.json, aw600 with params.n_max = 1e300, past MAX_ORDER, which the console script refuses."""
    text = readme_config()
    work.mkdir(parents=True, exist_ok=True)
    (work / "solve.json").write_text(text, encoding="utf-8")
    (work / "loglin.json").write_text(LOGLIN, encoding="utf-8")
    verify, lattice, bad, frac, curve = (json.loads(text) for _ in range(5))
    del verify["run"], lattice["run"], lattice["equation"]
    lattice["lattice_seed"] = {"x0": [1, 0], "y0": [1, 0]}
    lattice["params"] = {"n_max": 8}
    bad["equation"]["a"][0] = ["x", 0.0]
    frac["params"]["n"] = 3.7
    curve["curve"][1][1] = {"re": 0}
    ratemap = json.loads(json.dumps(verify))
    ratemap["params"].update(window=[5, 25], grid={"re": [2.0, 6.0, 5], "im": [-2.0, 2.0, 5]})
    eq, select, _, _, hints = log_qlattice_fixture(shift=1e-2)
    grid = {"re": [0.75, 1.35, 5], "im": [0.75, 1.35, 5]}
    genus1 = scenario_config(eq, explicit(select), {"window": [5, 25], "grid": grid}, hints)
    huge = aw_lattice_config(600)
    huge["params"]["n_max"] = 1e300
    for name, cfg in (("verify", verify), ("lattice", lattice), ("ratemap", ratemap),
                      ("bad", bad), ("frac", frac), ("curve", curve), ("genus1", genus1),
                      ("aw600", aw_lattice_config(600)), ("aw1100", aw_lattice_config(1100)),
                      ("huge", huge)):
        with open(work / f"{name}.json", "w", encoding="utf-8") as fh:
            json.dump(cfg, fh)


def run_all(work):
    """Every check in a process of its own, on the files the workflow's earlier steps write."""
    configs(work)
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}
    for argv in ([ROOT / "scripts" / "rate_map_qlattice.py", "--grid", 5, "--out", work / "r.csv"],
                 ["-m", "ellgrid.cli", "ratemap", "--config", work / "ratemap.json",
                  "--out", work / "ratemap.csv"]):
        subprocess.run([sys.executable, *map(str, argv)], check=True, env=env,
                       stdout=subprocess.DEVNULL)
    failed = [name for name in CHECKS
              if subprocess.run([sys.executable, __file__, name, str(work)]).returncode]
    if failed:
        sys.exit(f"failed: {', '.join(failed)}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("name", choices=[*CHECKS, "configs", "all"])
    parser.add_argument("dir", nargs="?", type=pathlib.Path, help="the checks' files")
    args = parser.parse_args(argv)
    if args.name == "all" and args.dir is None:
        with tempfile.TemporaryDirectory() as work:
            return run_all(pathlib.Path(work))
    if args.dir is None and args.name in ("ratemap-script", "inprocess-ratemap", "configs"):
        parser.error(f"{args.name} needs DIR")
    {**CHECKS, "configs": configs, "all": run_all}[args.name](args.dir)


if __name__ == "__main__":
    main()
