"""scripts/bench_pairs.py's pure parts on fake records: the seed list, the alternation, the
statistics and the direction of each metric.  CI runs one real pair (`ci_checks.py
bench-pairs`)."""
import importlib.util
import json
import pathlib

import numpy as np
import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
SPEC = importlib.util.spec_from_file_location("bench_pairs", ROOT / "scripts" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(bench_pairs)
METRICS = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["end_to_end"]


def fake_run(metrics, failed=0):
    return {"correct": True, "attempted": 100, "failed": failed, "metrics": metrics}


def fake_pairs(parent, change):
    """Pairs over seeds 1.. of op_cost.p50 ('lower') and ops_per_kref ('higher') values."""
    return [{"seed": k + 1, "parent": fake_run({"op_cost.p50": p, "ops_per_kref": 1 / p}),
             "change": fake_run({"op_cost.p50": c, "ops_per_kref": 1 / c})}
            for k, (p, c) in enumerate(zip(parent, change))]


@pytest.mark.parametrize("text, seeds", [("1-10", list(range(1, 11))), ("3", [3]),
                                         ("1,4-6,9", [1, 4, 5, 6, 9])])
def test_seeds_parse_as_ranges_and_single_seeds(text, seeds):
    assert bench_pairs.parse_seeds(text) == seeds


def test_the_side_that_runs_first_alternates_seed_by_seed():
    order = bench_pairs.run_order([3, 4, 8, 9])
    assert [seed for seed, _ in order] == [3, 4, 8, 9]
    assert [sides for _, sides in order] == [("parent", "change"), ("change", "parent")] * 2


@pytest.mark.parametrize("values", [[5.0], [1.0, 4.0], list(np.random.default_rng(3).random(10))])
def test_quartiles_are_numpys_linear_percentiles(values):
    assert bench_pairs.quartiles(values) == pytest.approx(np.percentile(values, [25, 50, 75]))


def test_wins_follow_each_metrics_direction():
    # the change is lower, so cheaper, in 9 of 10 pairs and higher in throughput in the same 9
    parent = [1.0, 1.1, 0.9, 1.05, 1.0, 0.95, 1.2, 1.0, 1.1, 1.0]
    change = [p * 0.95 for p in parent[:9]] + [1.01]
    spec = [m for m in METRICS if m["name"] in ("op_cost.p50", "ops_per_kref")]
    assert {m["better"] for m in spec} == {"lower", "higher"}
    summary = bench_pairs.summarize(fake_pairs(parent, change), spec)
    assert [(s["wins"], s["pairs"]) for s in summary.values()] == [(9, 10), (9, 10)]
    assert summary["op_cost.p50"]["parent"]["median"] == pytest.approx(np.median(parent))
    assert summary["op_cost.p50"]["rel_change"] < 0 < summary["ops_per_kref"]["rel_change"]


def test_a_difference_inside_the_parents_spread_is_not_resolved():
    parent = [1.0, 2.0, 3.0, 4.0, 5.0]
    spec = [m for m in METRICS if m["name"] == "op_cost.p50"]
    near = bench_pairs.summarize(fake_pairs(parent, [v - 0.5 for v in parent]), spec)
    far = bench_pairs.summarize(fake_pairs(parent, [v - 2.5 for v in parent]), spec)
    assert not near["op_cost.p50"]["resolved"] and far["op_cost.p50"]["resolved"]


def test_ties_count_for_neither_side():
    spec = [m for m in METRICS if m["name"] == "op_cost.p50"]
    assert bench_pairs.summarize(fake_pairs([1.0] * 4, [1.0] * 4), spec)["op_cost.p50"]["wins"] == 0


def test_the_table_names_every_metric_and_any_pair_whose_outcome_differs():
    pairs = fake_pairs([1.0, 1.0], [0.9, 0.9])
    spec = [m for m in METRICS if m["name"] in ("op_cost.p50", "ops_per_kref")]
    text = bench_pairs.table(bench_pairs.summarize(pairs, spec), pairs)
    assert "op_cost.p50" in text and "ops_per_kref" in text and "are the same" in text
    pairs[1]["change"]["failed"] = 1
    assert bench_pairs.differing_outcomes(pairs) == [(2, "failed")]
    assert "seed 2 failed" in bench_pairs.table(bench_pairs.summarize(pairs, spec), pairs)
