import json
import math
import os
import subprocess
import sys

import pytest

from ellgrid.cli import main
from ellgrid.lattice import AskeyWilsonLattice, LinearLattice

from conftest import aw_fixture, log_linear_fixture, log_qlattice_fixture, qgeom_fixture


def cjson(z):
    z = complex(z)
    return [z.real, z.imag]


def grid_json(curve):
    return [[cjson(v) for v in row] for row in curve.c]


def write_cfg(tmp_path, name, cfg):
    path = tmp_path / name
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return str(path)


def linear_lattice_cfg():
    return {
        "run": "lattice",
        "curve": grid_json(LinearLattice(h=1.0).curve()),
        "lattice_seed": {"x0": [0.0, 0.0], "y0": [0.0, 0.0]},
        "params": {"n_min": -3, "n_max": 3},
    }


def solve_cfg(fixture, n):
    eq, select = fixture()
    return {
        "run": "solve",
        "curve": grid_json(eq.curve),
        "equation": {
            "a": [cjson(c) for c in eq.a.coeffs],
            "c": [cjson(c) for c in eq.c.coeffs],
            "d": [cjson(c) for c in eq.d.coeffs],
        },
        "params": {"n": n, "select": {"explicit": [cjson(select.x_m1), cjson(select.x_p0)]}},
    }


def qgeom_solve_cfg(n=10):
    cfg = solve_cfg(qgeom_fixture, n)
    cfg["lattice_seed"] = {"x0": [4.0, 0.0], "y0": [4.0, 0.0]}
    return cfg


def qlog_ratemap_cfg(out):
    eq, select, zeta, q, hints = log_qlattice_fixture()
    return {
        "run": "ratemap",
        "curve": grid_json(eq.curve),
        "equation": {
            "mode": "log",
            "a": [cjson(c) for c in eq.a.coeffs],
            "d": [cjson(c) for c in eq.d.coeffs],
            "c0_free": [0.0, 0.0],
        },
        "params": {
            "select": {"explicit": [cjson(select.x_m1), cjson(select.x_p0)]},
            "y0_hint": cjson(hints["y0_hint"]),
            "yp1_hint": cjson(hints["yp1_hint"]),
            "window": [5, 25],
            "grid": {"re": [0.7, 1.3, 3], "im": [0.1, 0.4, 2]},
            "out": out,
        },
    }


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
    """Askey-Wilson lattice x_n = 2^-n + 0.3 2^n: |x_n| passes 1e154 near |n| = 512."""
    aw = AskeyWilsonLattice(a=0.0, b=1.0, c=0.3, q=0.5)
    x0, y0 = aw.point(0)
    return {"run": "lattice", "curve": grid_json(aw.curve()),
            "lattice_seed": {"x0": cjson(x0), "y0": cjson(y0)}, "params": {"n_max": n_max}}


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
        "curve": grid_json(eq.curve),
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
    cfg_data = {
        "curve": grid_json(eq.curve),
        "equation": {"mode": "log", "a": [cjson(c) for c in eq.a.coeffs],
                     "d": [cjson(c) for c in eq.d.coeffs], "c0_free": cjson(c0_free)},
        "params": {"n": 300, "select": {"explicit": [cjson(select.x_m1), cjson(select.x_p0)]},
                   **{k: cjson(v) for k, v in hints.items()}},
    }
    cfg = write_cfg(tmp_path, "loglin.json", cfg_data)
    out = tmp_path / "loglin.out.json"
    assert main(["solve", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    payload = json.loads(out.read_text(encoding="utf-8"))
    assert len(payload["coefficients"]) == 301
    assert main(["verify", "--config", cfg]) == 0
    assert "FAIL" not in capsys.readouterr().out


def test_verify_empty_scenario_is_usage_error(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "empty.json", {"run": "verify",
                                             "curve": grid_json(LinearLattice(h=1.0).curve())})
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
                                  ["bogus", "--config", "x.json"], ["--config", "x.json"]])
def test_bad_command_line_exits_2(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "usage: ellgrid" in capsys.readouterr().err
