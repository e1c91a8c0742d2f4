#!/usr/bin/env python3
"""Alternated benchmark pairs of two revisions, written to one BENCH_*.json.

    python scripts/bench_pairs.py --parent REV --change REV --workload W --seeds 1-10 \\
        --seconds 30 --out BENCH_prN.json

Each revision is exported by `git archive` into a temporary directory, with no bench/out and
no __pycache__.  Each seed runs `bench/run.py` once in each export, as a black box in a fresh
interpreter with PYTHONDONTWRITEBYTECODE=1, and the side that runs first alternates seed by
seed.  The file holds every pair, each side's median and quartiles of every end-to-end metric
of BENCHMARK.json, the pairs the change wins by that metric's `better`, and the Python and
numpy versions and CPU count; the same is printed as a table.  To bench work that is not
committed, stage it and pass `--change $(git stash create)`.
"""
import argparse
import io
import json
import os
import pathlib
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from importlib import metadata

ROOT = pathlib.Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")
OUTCOME = ("attempted", "failed", "pass_frac", "accuracy_digits")   # the same on both sides
NOTES = {   # metrics that move with more than the code under test
    "setup_s": "follows the machine's phase more than the import it times",
    "peak_rss_mb": "mostly the memory of compiling the package, which every fresh export pays",
}


def parse_seeds(text):
    """Seeds from '1-10', '3' or '1,4,7' (ranges and single seeds, comma-separated)."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    if not seeds:
        raise ValueError(f"no seeds in {text!r}")
    return seeds


def run_order(seeds):
    """[(seed, (first side, second side))]: the parent first on the 1st, 3rd, ... seed."""
    return [(seed, SIDES if k % 2 == 0 else SIDES[::-1]) for k, seed in enumerate(seeds)]


def quartiles(values):
    """(q1, median, q3) by linear interpolation between order statistics (numpy's default)."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def wins(parent, change, better):
    """Pairs in which the change is strictly better, by `better` ('lower' or 'higher')."""
    sign = {"lower": 1.0, "higher": -1.0}[better]
    return sum(sign * (p - c) > 0 for p, c in zip(parent, change))


def summarize(pairs, metrics):
    """{name: stats} for every metric of `metrics` (BENCHMARK.json's end_to_end entries) over
    `pairs` (each {'parent': run, 'change': run}, a run's 'metrics' mapping name to value).
    A difference of medians counts as resolved where it exceeds the parent's IQR."""
    out = {}
    for spec in metrics:
        name = spec["name"]
        values = {side: [pair[side]["metrics"][name] for pair in pairs] for side in SIDES}
        stats = {side: dict(zip(("q1", "median", "q3"), quartiles(values[side])))
                 for side in SIDES}
        p, c = stats["parent"], stats["change"]
        out[name] = {
            "unit": spec["unit"], "better": spec["better"], "bound": spec["bound"],
            **stats,
            "rel_change": (c["median"] - p["median"]) / p["median"] if p["median"] else None,
            "wins": wins(values["parent"], values["change"], spec["better"]),
            "pairs": len(pairs),
            "resolved": abs(c["median"] - p["median"]) > p["q3"] - p["q1"],
        }
    return out


def differing_outcomes(pairs):
    """[(seed, field)] where the two sides of a pair differ in attempted, failed, pass_frac or
    accuracy_digits."""
    return [(pair["seed"], key) for pair in pairs for key in OUTCOME
            if _outcome(pair["parent"], key) != _outcome(pair["change"], key)]


def _outcome(run, key):
    return run[key] if key in run else run["metrics"].get(key)


def table(summary, pairs):
    """The summary as text for CHANGES.md: one row per metric, then the outcome check."""
    rows = [f"{'metric':20} {'parent median [q1, q3]':>30} {'change median [q1, q3]':>30} "
            f"{'change':>8} {'wins':>6}"]
    for name, s in summary.items():
        cells = [f"{s[side]['median']:.4g} [{s[side]['q1']:.4g}, {s[side]['q3']:.4g}]"
                 for side in SIDES]
        rel = "n/a" if s["rel_change"] is None else f"{100 * s['rel_change']:+.1f}%"
        rows.append(f"{name:20} {cells[0]:>30} {cells[1]:>30} {rel:>8} "
                    f"{s['wins']:>3}/{s['pairs']:<2}" + ("" if s["resolved"] else "  (in IQR)"))
    differ = differing_outcomes(pairs)
    rows.append("outcomes differ: " + ", ".join(f"seed {s} {k}" for s, k in differ) if differ
                else "attempted, failed, pass_frac and accuracy_digits are the same in every pair")
    return "\n".join(rows)


def git(*args):
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True).stdout


def export(rev, dest):
    """The commit `rev` names, unpacked into dest without bench/out or __pycache__; its hash."""
    commit = git("rev-parse", "--verify", f"{rev}^{{commit}}").decode().strip()
    with tarfile.open(fileobj=io.BytesIO(git("archive", "--format=tar", commit))) as tar:
        keep = [m for m in tar.getmembers()
                if "__pycache__" not in m.name.split("/") and not m.name.startswith("bench/out")]
        safe = {"filter": "data"} if hasattr(tarfile, "data_filter") else {}
        tar.extractall(dest, members=keep, **safe)
    return commit


def run_bench(tree, workload, seed, seconds):
    """One `bench/run.py` run in the export `tree`, from an empty bench/out: its last line."""
    shutil.rmtree(tree / "bench" / "out", ignore_errors=True)
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds)]
    done = subprocess.run(argv, cwd=tree, capture_output=True, text=True, check=True,
                          env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"})
    result = json.loads(done.stdout.strip().splitlines()[-1])
    result["metrics"] = {k: v["value"] for k, v in result["metrics"].items()}
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="the revision to compare against")
    parser.add_argument("--change", required=True, help="the revision under test")
    parser.add_argument("--workload", required=True, choices=("deep", "short", "ratemap"))
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 1,3,5")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--out", type=pathlib.Path, required=True)
    args = parser.parse_args(argv)
    seeds = parse_seeds(args.seeds)
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["end_to_end"]
    record = {"workload": args.workload, "seconds": args.seconds, "seeds": seeds,
              "env": {"python": platform.python_version(), "numpy": metadata.version("numpy"),
                      "cpu_count": os.cpu_count()},
              "notes": NOTES, "pairs": []}
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        trees = {side: pathlib.Path(tmp) / side for side in SIDES}
        for side, rev in zip(SIDES, (args.parent, args.change)):
            record[side] = {"rev": rev, "commit": export(rev, trees[side])}
        for seed, order in run_order(seeds):
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                print(f"seed {seed}: {side}", file=sys.stderr, flush=True)
                pair[side] = run_bench(trees[side], args.workload, seed, args.seconds)
            record["pairs"].append(pair)
    record["summary"] = summarize(record["pairs"], metrics)
    args.out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(f"{args.workload}: {record['parent']['commit'][:10]} -> "
          f"{record['change']['commit'][:10]}, {len(seeds)} pairs at {args.seconds:g} s")
    print(table(record["summary"], record["pairs"]))


if __name__ == "__main__":
    main()
