import json
import math
import os
import subprocess
import sys
import warnings

import pytest

from ellgrid.cli import _axis, main
from ellgrid.lattice import AskeyWilsonLattice, LinearLattice

from fixtures import (aw_fixture, aw_lattice_config, cjson, explicit, log_linear_fixture,
                      log_qlattice_fixture, qgeom_fixture, scenario_config)


def write_cfg(tmp_path, name, cfg):
    path = tmp_path / name
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return str(path)


def linear_lattice_cfg():
    return {
        "run": "lattice",
        "curve": LinearLattice(h=1.0).curve().to_json(),
        "lattice_seed": {"x0": [0.0, 0.0], "y0": [0.0, 0.0]},
        "params": {"n_min": -3, "n_max": 3},
    }


def solve_cfg(fixture, n):
    eq, select = fixture()
    return {"run": "solve", **scenario_config(eq, explicit(select), {"n": n})}


def qgeom_solve_cfg(n=10):
    cfg = solve_cfg(qgeom_fixture, n)
    cfg["lattice_seed"] = {"x0": [4.0, 0.0], "y0": [4.0, 0.0]}
    return cfg


def qlog_ratemap_cfg(out):
    eq, select, zeta, q, hints = log_qlattice_fixture()
    params = {"window": [5, 25], "grid": {"re": [0.7, 1.3, 3], "im": [0.1, 0.4, 2]}, "out": out}
    return {"run": "ratemap", **scenario_config(eq, explicit(select), params, hints)}


def test_lattice_csv(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "lat.json", linear_lattice_cfg())
    out = tmp_path / "lat.csv"
    assert main(["lattice", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "n,re_x,im_x,re_y,im_y"
    assert len(lines) == 8
    for ln, n in zip(lines[1:], range(-3, 4)):
        cells = ln.split(",")
        assert int(cells[0]) == n
        assert float(cells[1]) == pytest.approx(n)


def aw_lattice_cfg(n_max):
    return {"run": "lattice", **aw_lattice_config(n_max)}


def test_lattice_at_large_points(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "lat.json", aw_lattice_cfg(1100))    # x_1026 overflows
    out = tmp_path / "lat.csv"
    assert main(["lattice", "--config", cfg, "--out", str(out)]) == 3
    assert capsys.readouterr().err.startswith("LatticeSingularityError: ")
    assert not out.exists()
    cfg = write_cfg(tmp_path, "lat.json", aw_lattice_cfg(600))
    assert main(["lattice", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    rows = out.read_text().splitlines()[1:]
    assert len(rows) == 1201
    pts = [(complex(float(r[1]), float(r[2])), complex(float(r[3]), float(r[4])))
           for r in (ln.split(",") for ln in rows)]
    curve = AskeyWilsonLattice(a=0.0, b=1.0, c=0.3, q=0.5).curve()
    assert max(abs(pts[0][0]), abs(pts[-1][0])) > 1e180
    worst = max(max(curve.residual(x, y), curve.residual(x, y_next))
                for (x, y), (_, y_next) in zip(pts, pts[1:]))
    assert worst <= 1e-9


def test_a_lattice_order_past_max_order_is_a_validation_error(tmp_path, capsys):
    """params.n_max = 1e300 is an integer the config may hold, and past MAX_ORDER: exit 2 with a
    ValidationError line, before any step or output (it was a ValueError traceback, exit 1)."""
    cfg_data = aw_lattice_cfg(600)
    cfg_data["params"]["n_max"] = 1e300
    cfg = write_cfg(tmp_path, "huge.json", cfg_data)
    out = tmp_path / "huge.csv"
    assert main(["lattice", "--config", cfg, "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("ValidationError: n_min must be at most 1000000 ")
    assert not out.exists()


def test_lattice_seeded_where_the_root_pair_overflows(tmp_path, capsys):
    """A y1 selector at an x0 where the root pair is not finite is a numerical failure (exit 3)
    naming the point, not an off-curve seed."""
    data = linear_lattice_cfg()
    data["lattice_seed"] = {"x0": [1e155, 0.0], "y1_index": 0}
    out = tmp_path / "lat.csv"
    assert main(["lattice", "--config", write_cfg(tmp_path, "lat.json", data),
                 "--out", str(out)]) == 3
    assert capsys.readouterr().err.startswith(
        "LeadingCoefficientVanishesError: root pair at (1e+155+0j) is not finite")
    assert not out.exists()


def test_lattice_to_stdout(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "lat.json", linear_lattice_cfg())
    assert main(["lattice", "--config", cfg]) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("n,re_x,im_x,re_y,im_y")


def test_lattice_determinism(tmp_path):
    cfg = write_cfg(tmp_path, "lat.json", linear_lattice_cfg())
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    main(["lattice", "--config", cfg, "--out", str(out1), "--quiet"])
    main(["lattice", "--config", cfg, "--out", str(out2), "--quiet"])
    assert out1.read_bytes() == out2.read_bytes()


def test_lattice_checks_its_last_row_on_the_curve(tmp_path, capsys, monkeypatch):
    """Every point `lattice` writes is checked on the curve, the last row's own point
    (x_{n_max}, y_{n_max}) too: where only that one fails, lattice exits 3 naming n_max and
    writes nothing, and verify on the same seed reports FAIL lattice-on-curve."""
    from ellgrid import cli
    from ellgrid.curve import BiquadraticCurve

    data = linear_lattice_cfg()                                 # n in -3 .. 3
    spec = cli._seed_from(data, cli._curve_from(data))
    xs, ys = cli.lattice_mod.generate(spec, -3, 3).values(3, 4)
    last, residual = (xs[0], ys[0]), BiquadraticCurve.residual
    monkeypatch.setattr(BiquadraticCurve, "residual",
                        lambda self, x, y: 1.0 if (x, y) == last else residual(self, x, y))
    out = tmp_path / "lat.csv"
    assert main(["lattice", "--config", write_cfg(tmp_path, "lat.json", data),
                 "--out", str(out)]) == 3
    assert capsys.readouterr().err == "EllgridError: on-curve invariant violated at n=3\n"
    assert not out.exists()
    del data["run"]
    assert main(["verify", "--config", write_cfg(tmp_path, "verify.json", data)]) == 3
    assert "FAIL lattice-on-curve: max residual 1.00e+00" in capsys.readouterr().out.splitlines()


def test_invalid_seed_is_validation_error(tmp_path, capsys):
    cfg_data = linear_lattice_cfg()
    cfg_data["lattice_seed"]["y0"] = [5.0, 0.0]
    cfg = write_cfg(tmp_path, "bad.json", cfg_data)
    assert main(["lattice", "--config", cfg]) == 2
    assert "ValidationError" in capsys.readouterr().err


def test_solve_json(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "solve.json", qgeom_solve_cfg())
    out = tmp_path / "sol.json"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert len(payload["coefficients"]) == 11
    assert payload["interpolation_max_error"] <= 1e-7
    assert payload["special_points"]["residual_m1"] <= 1e-9
    summary = capsys.readouterr().out
    assert "|c_n|" in summary and "interpolation max error" in summary
    # round-trip is lossless at double precision
    from ellgrid import solve
    eq, select = qgeom_fixture()
    sol = solve(eq, select, 10)
    got = [complex(re, im) for re, im in payload["coefficients"]]
    assert got == list(sol.coeffs)


def test_solve_determinism(tmp_path):
    cfg = write_cfg(tmp_path, "solve.json", qgeom_solve_cfg())
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    main(["solve", "--config", cfg, "--out", str(out1), "--quiet"])
    main(["solve", "--config", cfg, "--out", str(out2), "--quiet"])
    assert out1.read_bytes() == out2.read_bytes()


def test_solve_trivial_notes(tmp_path, capsys):
    cfg_data = qgeom_solve_cfg(n=5)
    cfg_data["equation"]["d"] = [[0.0, 0.0]]
    cfg = write_cfg(tmp_path, "solve0.json", cfg_data)
    out = tmp_path / "sol.json"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
    assert "trivial solution" in capsys.readouterr().out
    payload = json.loads(out.read_text())
    assert all(c == [0.0, 0.0] for c in payload["coefficients"])


def test_log_mode_without_c0_free_is_missing_field(tmp_path, capsys):
    eq, select, zeta, q, hints = log_qlattice_fixture()
    cfg_data = {
        "run": "solve",
        "curve": eq.curve.to_json(),
        "equation": {
            "mode": "log",
            "a": [cjson(c) for c in eq.a.coeffs],
            "d": [cjson(c) for c in eq.d.coeffs],
        },
        "params": {"n": 4},
    }
    cfg = write_cfg(tmp_path, "log.json", cfg_data)
    assert main(["solve", "--config", cfg]) == 2
    assert "MissingField: c0_free" in capsys.readouterr().err


def test_verify_healthy_scenario(tmp_path, capsys):
    cfg_data = qgeom_solve_cfg()
    cfg_data["run"] = "verify"
    cfg = write_cfg(tmp_path, "verify.json", cfg_data)
    assert main(["verify", "--config", cfg]) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out
    assert out.count("PASS") >= 6


@pytest.mark.parametrize("fixture, n", [(qgeom_fixture, 10), (aw_fixture, 100)])
def test_verify_on_both_halves_of_a_scenario_prints_each_halfs_lines(tmp_path, capsys,
                                                                        fixture, n):
    """A scenario with a lattice seed and an equation builds its curve once for both suites:
    it prints the lines of the lattice-only scenario, then those of the equation-only one.  On
    the Askey-Wilson curve both walks pass HEAD (n_max = 80, N = 100), so the closed-form tail
    rate the lattice suite fits on the curve is the one the solve's lattices step by."""
    cfg_data = solve_cfg(fixture, n)
    del cfg_data["run"]
    x0, y0 = (4.0, 4.0) if fixture is qgeom_fixture else \
        AskeyWilsonLattice(a=0.0, b=1.0, c=1.0, q=0.5).point(1)
    lattice_part = {"curve": cfg_data["curve"], "lattice_seed": {"x0": cjson(x0), "y0": cjson(y0)},
                    "params": {"n_max": 80 if fixture is aw_fixture else 8}}
    both = dict(cfg_data, lattice_seed=lattice_part["lattice_seed"],
                params=dict(cfg_data["params"], **lattice_part["params"]))
    runs = {}
    for name, data in (("lattice", lattice_part), ("equation", cfg_data), ("both", both)):
        code = main(["verify", "--config", write_cfg(tmp_path, f"{name}.json", data)])
        runs[name] = code, capsys.readouterr().out
    assert runs["both"][1] == runs["lattice"][1] + runs["equation"][1]
    assert runs["both"][0] == max(runs["lattice"][0], runs["equation"][0])
    assert runs["lattice"][1].count("PASS") == 3


def test_verify_askey_wilson_at_order_40_passes(tmp_path, capsys):
    """The residual check evaluates the defect at each x_j over the lattice's own pair (y_j,
    y_{j+1}), where the tail terms of S_40 vanish; over roots solved again at x_j, a few ulp
    off the stored ones, they reached 6.7e-05 of the scale and failed the check."""
    cfg_data = solve_cfg(aw_fixture, 40)
    cfg_data["run"] = "verify"
    assert main(["verify", "--config", write_cfg(tmp_path, "aw.json", cfg_data)]) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out and "PASS residual-on-lattice" in out


def test_verify_corruption_is_reported(tmp_path, capsys, monkeypatch):
    """c_5 scaled by 1.01: the check against the stepwise oracle fails, exit 3."""
    from ellgrid import cli

    solve = cli.solver.solve

    def corrupt_5(*args, **kwargs):
        sol = solve(*args, **kwargs)
        sol.coeffs = sol.coeffs[:5] + (sol.coeffs[5] * 1.01,) + sol.coeffs[6:]
        return sol

    monkeypatch.setattr(cli.solver, "solve", corrupt_5)
    cfg_data = qgeom_solve_cfg()
    cfg_data["run"] = "verify"
    cfg = write_cfg(tmp_path, "verify.json", cfg_data)
    assert main(["verify", "--config", cfg]) == 3
    out = capsys.readouterr().out
    assert "FAIL interpolation-vs-oracle" in out


def test_verify_fails_on_a_nan_interpolation_error(tmp_path, capsys, monkeypatch):
    """c_5 = NaN: the errors from node 5 on are NaN, and so is each reported maximum."""
    from ellgrid import cli

    solve = cli.solver.solve

    def nan_at_5(*args, **kwargs):
        sol = solve(*args, **kwargs)
        sol.coeffs = sol.coeffs[:5] + (complex("nan"),) + sol.coeffs[6:]
        return sol

    monkeypatch.setattr(cli.solver, "solve", nan_at_5)
    cfg_data = qgeom_solve_cfg()
    cfg_data["run"] = "verify"
    cfg = write_cfg(tmp_path, "verify.json", cfg_data)
    assert main(["verify", "--config", cfg]) == 3
    out = capsys.readouterr().out
    assert "FAIL interpolation-vs-oracle: max error nan" in out
    assert "FAIL residual-on-lattice: max relative defect nan" in out


def test_log_linear_solves_and_verifies_at_order_300(tmp_path, capsys):
    eq, select, c0_free, _, _, hints = log_linear_fixture()
    cfg_data = scenario_config(eq, explicit(select), {"n": 300}, hints, c0_free)
    cfg = write_cfg(tmp_path, "loglin.json", cfg_data)
    out = tmp_path / "loglin.out.json"
    assert main(["solve", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    payload = json.loads(out.read_text(encoding="utf-8"))
    assert len(payload["coefficients"]) == 301
    assert main(["verify", "--config", cfg]) == 0
    assert "FAIL" not in capsys.readouterr().out


def test_verify_empty_scenario_is_usage_error(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "empty.json", {"run": "verify",
                                             "curve": LinearLattice(h=1.0).curve().to_json()})
    assert main(["verify", "--config", cfg]) == 2


def test_ratemap_csv(tmp_path):
    out = tmp_path / "rates.csv"
    cfg = write_cfg(tmp_path, "rate.json", qlog_ratemap_cfg(str(out)))
    assert main(["ratemap", "--config", cfg, "--quiet"]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "re_z,im_z,empirical_rate,predicted_rate,flags"
    assert len(lines) == 7
    for ln in lines[1:]:
        cells = ln.split(",")
        float(cells[0]), float(cells[1])       # plain parseable numbers
    inside = [ln for ln in lines[1:] if ln.split(",")[2] and ln.split(",")[3]]
    assert inside            # at least one grid point carries both rates


def test_ratemap_determinism(tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    cfg_data = qlog_ratemap_cfg(str(out1))
    cfg_data["params"]["grid"] = {"re": [1.0, 1.2, 2], "im": [0.2, 0.3, 2]}
    cfg = write_cfg(tmp_path, "rate.json", cfg_data)
    main(["ratemap", "--config", cfg, "--quiet"])
    cfg_data["params"]["out"] = str(out2)
    cfg = write_cfg(tmp_path, "rate2.json", cfg_data)
    main(["ratemap", "--config", cfg, "--quiet"])
    assert out1.read_bytes() == out2.read_bytes()


def test_successive_calls_share_the_parser_but_not_options(tmp_path, capsys):
    """build_parser runs once per process; --quiet and --out of one main call
    do not reach the next."""
    from ellgrid.cli import build_parser

    out, other = tmp_path / "rates.csv", tmp_path / "other.csv"
    cfg = write_cfg(tmp_path, "rate.json", qlog_ratemap_cfg(str(out)))
    assert build_parser() is build_parser()
    assert main(["ratemap", "--config", cfg, "--out", str(other), "--quiet"]) == 0
    assert capsys.readouterr().out == ""
    assert main(["ratemap", "--config", cfg]) == 0
    assert capsys.readouterr().out == "rate map: 6 points\n"
    assert out.read_bytes() == other.read_bytes()


def test_ratemap_rejects_nonfinite_grid(tmp_path, capsys):
    out = tmp_path / "rates.csv"
    cfg_data = qlog_ratemap_cfg(str(out))
    cfg_data["params"]["grid"] = {"re": [0.7, float("nan"), 3], "im": [0.1, 0.4, 2]}
    cfg = write_cfg(tmp_path, "rate.json", cfg_data)
    assert main(["ratemap", "--config", cfg, "--quiet"]) == 2
    assert "finite" in capsys.readouterr().err
    assert not out.exists()


def test_ratemap_rejects_an_overflowing_span_without_warnings(tmp_path, capsys):
    """Finite bounds 1e308 and -1e308: the span overflows, and the axis is refused as not
    finite with no numpy warning; a one-point axis at the edge of the float range is kept."""
    out = tmp_path / "rates.csv"
    cfg_data = qlog_ratemap_cfg(str(out))
    cfg_data["params"]["grid"]["re"] = [1e308, -1e308, 5]
    cfg = write_cfg(tmp_path, "rate.json", cfg_data)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["ratemap", "--config", cfg, "--quiet"]) == 2
        assert _axis([1e308, 1e308, 1], "params.grid.re").tolist() == [1e308]
    assert [str(w.message) for w in caught] == []
    assert capsys.readouterr().err == "ValidationError: params.grid.re bounds must be finite\n"
    assert not out.exists()


MALFORMED = [
    # subcommand, keys down to the field, bad value or None to drop it, field name
    pytest.param("solve", ("params", "n"), "ten", "params.n", id="n-not-int"),
    pytest.param("solve", ("params", "n"), 3.7, "params.n", id="n-fraction"),
    pytest.param("solve", ("params", "n"), True, "params.n", id="n-bool"),
    pytest.param("solve", ("params", "n"), "12", "params.n", id="n-string"),
    pytest.param("solve", ("params", "select", "explicit"), [[4.0, 0.0]],
                 "params.select.explicit", id="explicit-one-point"),
    pytest.param("ratemap", ("params", "window"), 7, "params.window", id="window-not-list"),
    pytest.param("ratemap", ("params", "grid", "im"), None, "params.grid.im",
                 id="grid-without-im"),
    pytest.param("ratemap", ("params", "grid", "re"), [0.7, 1.3, "x"], "params.grid.re[2]",
                 id="grid-count-not-int"),
    pytest.param("ratemap", ("params", "grid", "re"), [0.7, 1.3, -1], "params.grid.re[2]",
                 id="grid-count-negative"),
    pytest.param("lattice", ("lattice_seed", "y1_index"), 2, "lattice_seed.y1_index",
                 id="y1-index-out-of-range"),
    pytest.param("lattice", ("lattice_seed", "y1_index"), True, "lattice_seed.y1_index",
                 id="y1-index-true"),
    pytest.param("lattice", ("lattice_seed", "y1_index"), False, "lattice_seed.y1_index",
                 id="y1-index-false"),
    pytest.param("lattice", ("lattice_seed",), {"x0": [0.0, 0.0], "y1_index": 1,
                                                "y1_hint": [1.0, 0.0]}, "y1_hint",
                 id="seed-names-both-selectors"),
    pytest.param("solve", ("params", "out"), 5, "params.out", id="out-not-path"),
    pytest.param("solve", ("equation", "a", 0), ["x", 0.0], "equation.a[0]",
                 id="coefficient-part-string"),
    pytest.param("solve", ("equation", "a", 0), [None, 0.0], "equation.a[0]",
                 id="coefficient-part-null"),
    pytest.param("solve", ("equation", "a", 0), [math.nan, 0.0], "equation.a[0]",
                 id="coefficient-nan"),
    pytest.param("solve", ("curve", 1, 1), [math.nan, 0.0], "curve", id="curve-nan"),
    pytest.param("solve", ("curve", 1, 1), {"re": 0}, "curve[1][1]", id="curve-entry-object"),
    pytest.param("lattice", ("curve", 0, 2), [True, False], "curve[0][2]",
                 id="curve-entry-bools"),
    pytest.param("ratemap", ("curve", 2, 0), [0, 0, 7], "curve[2][0]",
                 id="curve-entry-three-numbers"),
    pytest.param("ratemap", ("params", "threshold"), "0.05", "params.threshold",
                 id="threshold-string"),
]


@pytest.mark.parametrize("command, keys, value, field", MALFORMED)
def test_malformed_field_is_validation_error(tmp_path, capsys, command, keys, value, field):
    out = tmp_path / "out.txt"
    cfg_data = {"solve": qgeom_solve_cfg, "verify": qgeom_solve_cfg,
                "lattice": linear_lattice_cfg,
                "ratemap": lambda: qlog_ratemap_cfg(None)}[command]()
    cfg_data["run"] = command
    cfg_data["params"]["out"] = str(out)
    node = cfg_data
    for key in keys[:-1]:
        node = node[key]
    if value is None:
        del node[keys[-1]]
    else:
        node[keys[-1]] = value
    cfg = write_cfg(tmp_path, "bad.json", cfg_data)
    assert main([command, "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("ValidationError: ") and field in err
    assert not out.exists()


def test_ratemap_single_point_general_mode(tmp_path):
    cfg_data = qgeom_solve_cfg(n=12)
    cfg_data["run"] = "ratemap"
    cfg_data["params"]["window"] = [1, 10]
    cfg_data["params"]["grid"] = {"re": [6.0, 6.0, 1], "im": [0.5, 0.5, 1]}
    out = tmp_path / "one.csv"
    cfg_data["params"]["out"] = str(out)
    cfg = write_cfg(tmp_path, "rate1.json", cfg_data)
    assert main(["ratemap", "--config", cfg, "--quiet"]) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 2
    cells = lines[1].split(",")
    assert cells[2] != ""        # empirical rate present
    assert cells[3] == ""        # no prediction in general mode


def test_run_mismatch_rejected(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "lat.json", linear_lattice_cfg())
    assert main(["solve", "--config", cfg]) == 2


def test_bad_json_rejected(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    assert main(["lattice", "--config", str(path)]) == 2


def test_config_not_utf8_is_validation_error(tmp_path, capsys):
    path = tmp_path / "latin1.json"
    path.write_bytes('{"run": "solve", "curve": "\u00e9"}'.encode("latin-1"))
    out = tmp_path / "out.json"
    assert main(["solve", "--config", str(path), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("ValidationError: config is not UTF-8")
    assert not out.exists()


def test_missing_config_is_io_error(tmp_path):
    assert main(["lattice", "--config", str(tmp_path / "nope.json")]) == 4


def test_module_entrypoint(tmp_path):
    cfg = write_cfg(tmp_path, "lat.json", linear_lattice_cfg())
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-m", "ellgrid.cli", "lattice", "--config", cfg],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert proc.stdout.startswith("n,re_x")


def test_a_rate_map_leaves_numpy_ma_unimported(tmp_path):
    """`ellgrid ratemap` in a fresh interpreter imports no numpy.ma (about 13-20 ms of every
    process, through np.median or np.unique): within one test session another test may have
    imported it already, so only a new process can see it."""
    cfg = write_cfg(tmp_path, "rate.json", qlog_ratemap_cfg(str(tmp_path / "rates.csv")))
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    code = ("import sys\nfrom ellgrid.cli import main\n"
            f"print(main(['ratemap', '--config', {cfg!r}, '--quiet']), 'numpy.ma' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.stdout.split() == ["0", "False"], proc.stderr


def test_solve_nonfinite_coefficients_exit_numerical(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "aw.json", solve_cfg(aw_fixture, 400))
    out = tmp_path / "aw.out.json"
    assert main(["solve", "--config", cfg, "--out", str(out), "--quiet"]) == 3
    assert not out.exists()
    assert "NonFiniteCoefficientError" in capsys.readouterr().err


def test_solve_json_rejects_nan(tmp_path, capsys, monkeypatch):
    from ellgrid import cli, solver

    nan = float("nan")
    monkeypatch.setattr(cli.solver, "verify_interpolation",
                        lambda eq, sol, n: solver.InterpolationReport(nan, (nan,), ()))
    cfg = write_cfg(tmp_path, "q.json", qgeom_solve_cfg())
    out = tmp_path / "q.out.json"
    assert main(["solve", "--config", cfg, "--out", str(out), "--quiet"]) == 3
    assert not out.exists()
    assert "non-finite" in capsys.readouterr().err


def test_help_lists_every_command(capsys):
    from ellgrid.cli import RUNNERS

    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    for name, run in RUNNERS.items():
        assert f"  {name} " in out
        assert run.__doc__ in out


@pytest.mark.parametrize("argv", [["solve"], ["solve", "--out", "x.json"],
                                  ["bogus", "--config", "x.json"], ["--config", "x.json"],
                                  ["solve", "--config", "x.json", "--n", "5"]])
def test_bad_command_line_exits_2(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "usage: ellgrid" in capsys.readouterr().err
