"""Smoke test for the benchmark (no timing gates).

    PYTHONPATH=src python -m pytest -q bench/test_bench.py

Checks that the benchmark's input builders equal the test-suite fixtures and
the README scenario, and that every workload runs end to end at a tiny size
with tracing off and on, printing exactly the metrics BENCHMARK.json names.
"""
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(BENCH_DIR), str(ROOT / "src"), str(ROOT / "tests")]

import conftest as reference  # noqa: E402  (tests/conftest.py)
import inputs  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = 10          # divides every input size


def same_equation(got, want):
    assert got.curve.c == want.curve.c
    assert got.a.coeffs == want.a.coeffs
    assert (got.beta, got.gamma, got.delta, got.eps) == \
        (want.beta, want.gamma, want.delta, want.eps)


@pytest.mark.parametrize("name", ["linear_fixture", "qgeom_fixture", "aw_fixture"])
def test_general_fixtures_match_conftest(name):
    (got_eq, got_sel), (want_eq, want_sel) = getattr(inputs, name)(), getattr(reference, name)()
    same_equation(got_eq, want_eq)
    assert got_sel == want_sel


def test_log_fixtures_match_conftest():
    got, want = inputs.log_linear_fixture(), reference.log_linear_fixture()
    same_equation(got[0], want[0])
    assert got[1:] == want[1:]
    got, want = inputs.log_qlattice_fixture(), reference.log_qlattice_fixture()
    same_equation(got[0], want[0])
    assert got[1:] == want[1:]


def test_readme_scenario_matches_readme():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = text.split("```json", 1)[1].split("```", 1)[0]
    assert json.loads(block) == inputs.README_SOLVE_SCENARIO


def test_genus1_generator_is_seeded_and_quartic():
    a = inputs.random_genus1_equation(np.random.default_rng(5))
    b = inputs.random_genus1_equation(np.random.default_rng(5))
    same_equation(a, b)
    assert a.curve.discriminant_P().degree() == 4
    assert a.a.degree() == 3


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_runs_end_to_end(workload, trace, tmp_path):
    result, lines = run.execute(workload, 3, 0.0, trace, tmp_path, n_scale=TINY)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert math.isfinite(got["value"])
    if workload == "deep":
        assert result["failed"] >= 2           # the two known-defect probes
    assert (tmp_path / "record.json").is_file()
    assert (tmp_path / "spans.jsonl").is_file() == bool(trace)
    printed = {tuple(line.split()[::2]) for line in lines if not line.startswith("#")}
    for m in wanted:
        assert (m["name"], m["unit"]) in printed


def test_failures_are_recorded_with_type_and_stage():
    eq, select = inputs.aw_fixture()
    runner = run.Runner()
    rec = runner.run(workloads.solve_verify_op("aw1000", "aw1000", "probe", eq, select, 1000),
                     "probe")
    assert (rec["ok"], rec["stage"], rec["failure"]) == (False, "solve", "untyped:OverflowError")
    rec = runner.run(workloads.solve_verify_op("aw400", "aw400", "probe", eq, select, 400),
                     "probe")
    assert (rec["ok"], rec["stage"], rec["failure"]) == (False, "check", "nonfinite")
    assert runner.retired == {"aw1000", "aw400"}


def test_traced_counts_repeat(tmp_path):
    counts = []
    for k in range(2):
        result, _ = run.execute("deep", 4, 0.0, 1, tmp_path / str(k), n_scale=TINY)
        counts.append({name: m["value"] for name, m in result["metrics"].items()
                       if m["unit"] == "count"})
        counts[-1].update(attempted=result["attempted"], failed=result["failed"])
    assert counts[0] == counts[1]


def test_cycle_count_depends_on_seconds_alone(tmp_path):
    spec = workloads.build_ratemap(np.random.default_rng(0), tmp_path, TINY)
    assert spec.cycles(0.0) == 1
    assert spec.cycles(10 * workloads.RATEMAP_CYCLE_S) == 10
