#!/usr/bin/env python3
"""ellgrid benchmark: one workload, one seed, one process, closed loop, one client.

    python3 bench/run.py --workload deep|short|ratemap --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from its `src/`.
The last line of stdout is one JSON object {correct, attempted, failed,
metrics}: end-to-end metrics with --trace 0, per-layer metrics with --trace 1.
The lines before it list every metric by name and unit, the per-class
details and the environment; a record of the run (and, traced, its spans) is
written under bench/out/.  See bench/DESIGN.md for what each number means.
"""
import os

# Pin numerical libraries to one thread before numpy is imported: the
# companion-matrix eigenvalue problems are tiny and the loop is single-client.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse                                  # noqa: E402
import hashlib                                   # noqa: E402
import json                                      # noqa: E402
import platform                                  # noqa: E402
import resource                                  # noqa: E402
import signal                                    # noqa: E402
import statistics                                # noqa: E402
import subprocess                                # noqa: E402
import sys                                       # noqa: E402
import time                                      # noqa: E402
from collections import deque                    # noqa: E402
from pathlib import Path                         # noqa: E402

import numpy as np                               # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

PROCESS_T0 = time.perf_counter()
SETUP_REPS = 11
REF_SAMPLE_S = 0.05            # untraced ops time the reference kernel this often
RUN_CAP_S = 140.0              # a run must end within 180 s; the loop stops at this age
TRACE_UNTRACED_SHARE = 0.5     # share of --seconds the traced run spends untraced first
ACCURACY_FLOOR = 1e-16
LAYERS = ("poly", "curve", "lattice", "diffops", "solver", "convergence", "cli")

IMPORT_PROBE = ("import time; t = time.perf_counter(); import ellgrid; "
                "print(time.perf_counter() - t); print(ellgrid.__file__)")

E2E_UNITS = {
    "setup_s": "s", "peak_rss_mb": "MB", "pass_frac": "frac", "accuracy_digits": "digits",
    "op_cost.p50": "ref", "op_cost.tail": "ref", "ops_per_kref": "1/kref",
    "class_cost.slowest": "ref", "class_cost.fastest": "ref",
}
DETAIL_UNITS = {"ref_ms": "ms", "ops_per_s": "1/s", "class_cost": "ref"}


def die(message):
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def import_program():
    """Import ellgrid from this checkout's src/, never from anywhere else."""
    if not (SRC / "ellgrid" / "__init__.py").is_file():
        die(f"no program sources under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import ellgrid
    elapsed = time.perf_counter() - t0
    if Path(ellgrid.__file__).resolve().parent != (SRC / "ellgrid").resolve():
        die(f"imported ellgrid from {ellgrid.__file__}, not from {SRC}")
    return elapsed


def child_import_seconds():
    """Time `import ellgrid` in a fresh interpreter, as every CLI run pays it."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120, check=False)
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2:
        die(f"import probe failed: {proc.stderr.strip()[-300:]}")
    if Path(lines[1]).resolve().parent != (SRC / "ellgrid").resolve():
        die(f"import probe loaded ellgrid from {lines[1]}")
    return float(lines[0])


def commit_id():
    """HEAD of the checkout when it is a git work tree, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            ref = head[5:]
            path = git / ref
            if path.is_file():
                return path.read_text().strip()
            for line in (git / "packed-refs").read_text().splitlines():
                if line.endswith(" " + ref):
                    return line.split()[0]
        return head
    except OSError:
        return "unknown (not a git checkout)"


REF_COEFFS = (2.0 + 0j, 0.3 - 1j, -0.5 + 0.25j, 1 + 2j)


def reference_seconds():
    """Time one run of a fixed kernel in the style of the program's hot loops.

    The kernel (complex Horner evaluation feeding a dict) belongs to the
    benchmark, not the program, so program changes cannot move it.  The
    machine's speed drifts by a third within seconds; timing this kernel next
    to every op and reporting op time in its units cancels that drift.
    """
    t0 = time.perf_counter()
    table, z = {}, 0.1 + 0.2j
    for k in range(4000):
        acc = REF_COEFFS[0]
        for c in REF_COEFFS[1:]:
            acc = acc * z + c
        table[k] = acc
        z = z * 0.999 + table[k // 2] * 1e-6
    return time.perf_counter() - t0


def source_digest():
    h = hashlib.sha256()
    for path in sorted((SRC / "ellgrid").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


class Runner:
    """Runs ops, times the program calls, checks outputs, keeps the tallies."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.records = []
        self.retired = set()           # failing inputs are deterministic: run once
        self.pool_queue = {}           # workload name -> pool ops still passing, in turn
        self.ref_s = None              # latest reference-kernel time

    def run(self, op, phase):
        from ellgrid.errors import EllgridError
        from workloads import CheckFailed

        stage = ["call"]
        rec = {"name": op.name, "cls": op.cls, "kind": op.kind, "phase": phase, "ok": False}
        tracer = self.tracer
        if tracer is not None:
            before = tracer.counts["diffops.basis_eval.factors"], tracer.access[0]
        # Time the op in segments, timing the reference kernel at each
        # boundary (outside the op's time), so that a long op is normalised by
        # the machine's speed during it, not only at its ends.  Boundaries fall
        # between the op's stages and, untraced, every REF_SAMPLE_S of wall
        # time, from a timer signal handled between the program's bytecodes.
        clock = {"ref": self.ref_s if self.ref_s is not None else reference_seconds(),
                 "seconds": 0.0, "cost": 0.0, "busy": False}

        def boundary():
            clock["busy"] = True
            seg = time.perf_counter() - clock["t"]
            ref = reference_seconds()
            clock["seconds"] += seg
            clock["cost"] += seg / (0.5 * (clock["ref"] + ref))
            clock["ref"] = ref
            clock["t"] = time.perf_counter()
            clock["busy"] = False

        def sample(_signum, _frame):
            if not clock["busy"]:
                boundary()

        def mark(name):
            if stage[0] != "call" and tracer is None:
                boundary()
            stage[0] = name

        if tracer is None:
            previous = signal.signal(signal.SIGALRM, sample)
            signal.setitimer(signal.ITIMER_REAL, REF_SAMPLE_S, REF_SAMPLE_S)
        clock["t"] = time.perf_counter()
        try:
            if tracer is not None:
                out = tracer.run_op(op.name, lambda: op.call(mark))
            else:
                out = op.call(mark)
            error = None
        except Exception as exc:           # any exception is a failed op; record its type
            error = exc
        finally:
            if tracer is None:
                signal.setitimer(signal.ITIMER_REAL, 0)
                signal.signal(signal.SIGALRM, previous)
        boundary()
        self.ref_s = clock["ref"]
        rec["seconds"], rec["cost"] = clock["seconds"], clock["cost"]
        if tracer is not None:
            rec["factors"] = tracer.counts["diffops.basis_eval.factors"] - before[0]
            rec["access"] = tracer.access[0] - before[1]
        if error is None:
            try:
                stage[0] = "check"
                rec.update(op.check(out))
                rec["ok"] = True
            except CheckFailed as exc:
                rec.update(stage=stage[0], failure=exc.reason, message=exc.detail)
            except Exception as exc:       # a check that cannot read the output fails the op
                error = exc
        if error is not None:
            typed = isinstance(error, EllgridError)
            rec.update(stage=stage[0],
                       failure=type(error).__name__ if typed else f"untyped:{type(error).__name__}",
                       message=str(error)[:200])
        if not rec["ok"]:
            self.retired.add(op.name)
        self.records.append(rec)
        return rec

    def run_ops(self, ops, phase):
        for op in ops:
            if op.name not in self.retired:
                self.run(op, phase)

    def run_cycle(self, workload, phase):
        self.run_ops(workload.cycle, phase)
        queue = self.pool_queue.setdefault(workload.name, deque(workload.pool))
        passed, tries = 0, len(queue)
        while passed < workload.per_cycle and tries:
            op = queue.popleft()
            tries -= 1
            if self.run(op, phase)["ok"]:
                queue.append(op)
                passed += 1


def setup(workload_name, seed, run_dir, n_scale):
    """Median of SETUP_REPS set-ups: fresh-interpreter import plus input generation."""
    from workloads import BUILDERS

    times, workload = [], None
    for _ in range(SETUP_REPS):
        import_s = child_import_seconds()
        t0 = time.perf_counter()
        workload = BUILDERS[workload_name](np.random.default_rng(seed), run_dir, n_scale)
        times.append(import_s + time.perf_counter() - t0)
    return workload, statistics.median(times), times


def timed_loop(runner, workload, seconds, phase):
    """A fixed number of whole cycles, set by `seconds`; returns the loop's wall time.

    The number of cycles is `seconds` over the workload's nominal cycle time,
    not a deadline, so a seed gives the same ops, and the same failures, on
    every run however fast the machine is at the moment.  Only a loop that
    would pass RUN_CAP_S stops early, to end the run within its time limit.
    """
    t0 = time.perf_counter()
    for _ in range(workload.cycles(seconds)):
        attempted = len(runner.records)
        runner.run_cycle(workload, phase)
        if len(runner.records) == attempted:
            break
        if time.perf_counter() - PROCESS_T0 > RUN_CAP_S:
            print(f"bench: stopped the loop at the {RUN_CAP_S:g} s cap", file=sys.stderr)
            break
    return time.perf_counter() - t0


def end_to_end(runner, workload, loop_s, setup_s):
    """Gated metrics, with op times in reference-kernel units; ms versions as details."""
    loop = [r for r in runner.records if r["phase"] == "loop"]
    timed = [r for r in loop if r["ok"]]
    if not timed:
        die("no timed op passed its checks; nothing to report")
    fixed = [r for r in runner.records if r["kind"] in ("fixed", "probe")]
    fixed_inputs = {r["name"]: True for r in fixed}
    for r in fixed:
        fixed_inputs[r["name"]] &= r["ok"]
    errors = [r["error"] for r in fixed if r["ok"] and r.get("error") is not None]
    cost_cls, ms_cls = {}, {}
    for r in timed:
        cost_cls.setdefault(r["cls"], []).append(r["cost"])
        ms_cls.setdefault(r["cls"], []).append(1e3 * r["seconds"])
    costs = [r["cost"] for r in timed]
    times_ms = [1e3 * r["seconds"] for r in timed]
    p_tail = workload.tail_percentile
    cost_med = {c: statistics.median(v) for c, v in cost_cls.items()}
    metrics = {
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "pass_frac": sum(fixed_inputs.values()) / len(fixed_inputs),
        "accuracy_digits": float(-np.log10(max([ACCURACY_FLOOR] + errors))),
        "op_cost.p50": statistics.median(costs),
        "op_cost.tail": float(np.percentile(costs, p_tail)),
        "ops_per_kref": 1e3 * len(timed) / sum(r["cost"] for r in loop),
        "class_cost.slowest": max(cost_med.values()),
        "class_cost.fastest": min(cost_med.values()),
    }
    details = {
        "ref_ms": 1e3 * statistics.median(r["seconds"] / r["cost"] for r in timed),
        "op_ms.p50": statistics.median(times_ms),
        "op_ms.tail": float(np.percentile(times_ms, p_tail)),
        "ops_per_s": len(timed) / loop_s,
    }
    details.update({f"{workload.class_prefix}.{c}": statistics.median(v)
                    for c, v in sorted(ms_cls.items())})
    details.update({f"class_cost.{c}": v for c, v in sorted(cost_med.items())})
    failed = sum(not r["ok"] for r in runner.records)
    extra = {"tail_percentile": p_tail, "tail_beyond": round(len(costs) * (100 - p_tail) / 100),
             "timed_ops": len(costs), "loop_s": loop_s,
             "class_samples": {c: len(v) for c, v in sorted(ms_cls.items())},
             "class_ms": {c: [round(t, 3) for t in v] for c, v in sorted(ms_cls.items())},
             "fail_frac": failed / len(runner.records)}
    return metrics, details, extra


def per_layer(tracer, runner, overhead):
    """Per-layer numbers over the traced segment (warm-up, probes, one cycle)."""
    t = tracer
    traced = [r for r in runner.records if r["phase"] == "traced"]
    cells = sum(r.get("cells", 0) for r in traced)
    rated = sum(r.get("rated", 0) for r in traced)
    steps = t.calls("lattice.step")
    layers = t.layer_self_ms()
    m = {
        "poly.roots.calls": t.calls("poly.roots"),
        "poly.roots.ms": t.ms("poly.roots"),
        "poly.eval.calls": t.counts["poly.eval"],
        "curve.y_roots.calls": t.calls("curve.y_roots"),
        "curve.y_roots.ms": t.ms("curve.y_roots"),
        "curve.eval.calls": t.counts["curve.eval"],
        "lattice.steps": steps,
        "lattice.access.calls": t.access[0],
        "lattice.ensure.ms": t.ms("lattice.step"),
        "lattice.us_per_step": 1e3 * t.ms("lattice.step") / max(steps, 1),
        "diffops.diff_constant.calls": t.calls("diffops.diff_constant"),
        "diffops.diff_constant.ms": t.ms("diffops.diff_constant"),
        "diffops.basis_eval.calls": t.calls("diffops.basis_eval"),
        "diffops.basis_eval.factors": t.counts["diffops.basis_eval.factors"],
        "diffops.basis_eval.ms": t.ms("diffops.basis_eval"),
        "diffops.cn_all.ms": t.ms("diffops.cn_all"),
        "solver.locate_special_points.ms": t.ms("solver.locate_special_points"),
        "solver.build_lattices.ms": t.ms("solver.build_lattices"),
        "solver.expansion_coefficients.self_ms": t.self_ms("solver.expansion_coefficients"),
        "solver.expansion_coefficients_log.ms": t.ms("solver.expansion_coefficients_log"),
        "solver.closed_product.ms": t.ms("solver.closed_product"),
        "solver.stepwise_oracle.ms": t.ms("solver.stepwise_oracle"),
        "solver.partial_sum.calls": t.calls("solver.partial_sum"),
        "solver.partial_sum.ms": t.ms("solver.partial_sum"),
        "solver.verify_interpolation.self_ms": t.self_ms("solver.verify_interpolation"),
        "convergence.predictor_build.ms": t.ms("convergence.predictor_build"),
        "convergence.path_integral.calls": t.calls("convergence.path_integral"),
        "convergence.path_integral.ms": t.ms("convergence.path_integral"),
        "convergence.route_path.ms": t.ms("convergence.route_path"),
        "convergence.term_magnitudes.calls": t.calls("convergence.term_magnitudes"),
        "convergence.term_magnitudes.ms": t.ms("convergence.term_magnitudes"),
        "convergence.detect_small_divisors.calls": t.calls("convergence.detect_small_divisors"),
        "convergence.detect_small_divisors.ms": t.ms("convergence.detect_small_divisors"),
        "convergence.empirical_rate.self_ms": t.self_ms("convergence.empirical_rate"),
        "convergence.useful_cell_frac": rated / max(cells, 1),
        "cli.main.self_ms": t.self_ms("cli.main"),
        "cli.bytes_out": sum(r.get("bytes", 0) for r in traced),
    }
    for layer in LAYERS:
        m[f"{layer}.self_ms"] = layers.get(layer, 0.0)
    m["bench.op.self_ms"] = t.self_ms("op")
    m["trace.op_ms"] = t.ms("op")
    m["trace.overhead_frac"] = overhead
    return m


def tracing_overhead(runner):
    """Traced op cost over the untraced median cost of the same inputs, minus one."""
    untraced = {}
    for r in runner.records:
        if r["phase"] == "loop" and r["ok"]:
            untraced.setdefault(r["name"], []).append(r["cost"])
    pairs = [(r["cost"], statistics.median(untraced[r["name"]]))
             for r in runner.records
             if r["phase"] == "traced" and r["ok"] and r["name"] in untraced]
    if not pairs:
        return 0.0, 0
    return sum(a for a, _ in pairs) / sum(b for _, b in pairs) - 1.0, len(pairs)


LAYER_UNITS = {"calls": "count", "factors": "count", "steps": "count", "bytes_out": "bytes",
               "us_per_step": "us", "useful_cell_frac": "frac", "overhead_frac": "frac"}


def layer_unit(name):
    last = name.rsplit(".", 1)[1]
    return LAYER_UNITS.get(last, "ms")


def execute(workload_name, seed, seconds, trace, run_dir, n_scale=1):
    """One benchmark run; returns (result dict, report lines).

    n_scale divides every input size (the smoke test runs at tiny sizes).
    """
    main_import_s = import_program()
    run_dir.mkdir(parents=True, exist_ok=True)
    workload, setup_s, setup_reps = setup(workload_name, seed, run_dir, n_scale)

    runner = Runner()
    runner.run_ops(workload.warmup, "warmup")
    overhead, overhead_pairs = None, 0
    if trace:
        from tracer import Tracer
        loop_s = timed_loop(runner, workload, TRACE_UNTRACED_SHARE * seconds, "loop")
        tracer = Tracer()
        uninstall = tracer.install()
        runner.tracer = tracer
        try:
            # The traced segment is the same work whatever phase A ran:
            # warm-up, probes, the cycle and the first pool ops, failing or not.
            runner.retired.clear()
            runner.run_ops(workload.warmup + workload.probes + workload.cycle
                           + workload.pool[:workload.per_cycle], "traced")
        finally:
            uninstall()
            runner.tracer = None
        overhead, overhead_pairs = tracing_overhead(runner)
        tracer.write_spans(run_dir / "spans.jsonl")
    else:
        runner.run_ops(workload.probes, "probe")
        loop_s = timed_loop(runner, workload, seconds, "loop")

    e2e, details, extra = end_to_end(runner, workload, loop_s, setup_s)
    metrics = per_layer(tracer, runner, overhead) if trace else e2e
    units = {k: layer_unit(k) for k in metrics} if trace else E2E_UNITS
    failures = [{k: r.get(k) for k in ("name", "phase", "stage", "failure", "message")}
                for r in runner.records if not r["ok"]]
    traced_ops = [{k: r.get(k) for k in ("name", "seconds", "factors", "access")}
                  for r in runner.records if r["phase"] == "traced"]
    env = {
        "workload": workload_name, "seed": seed, "seconds": seconds, "trace": trace,
        "commit": commit_id(), "source_sha256": source_digest(),
        "python": platform.python_version(), "numpy": np.__version__,
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "main_import_s": main_import_s, "setup_reps_s": setup_reps,
        "tracing_overhead_frac": overhead, "overhead_pairs": overhead_pairs,
    }
    record = {"env": env, "end_to_end": e2e, "details": details, **extra,
              "per_layer": metrics if trace else None, "traced_ops": traced_ops,
              "failures": failures}
    (run_dir / "record.json").write_text(json.dumps(record, indent=1), encoding="utf-8")

    failed = len(failures)
    lines = [f"# ellgrid bench  workload={workload_name} seed={seed} trace={trace}"]
    lines += [f"#   {key}: {env[key]}" for key in
              ("commit", "source_sha256", "python", "numpy", "nproc", "affinity", "threads")]
    lines.append(f"#   samples: {extra['timed_ops']} timed ops {extra['class_samples']}; "
                 f"tail = p{extra['tail_percentile']:g} with {extra['tail_beyond']} beyond")
    lines.append(f"#   fail_frac {extra['fail_frac']:.6g} ({failed} of {len(runner.records)} ops)")
    lines += [f"#   failed {f['name']} [{f['stage']}] {f['failure']}: {f['message']}"
              for f in failures]
    if trace:
        lines.append(f"#   tracing overhead {overhead:+.4f} over {overhead_pairs} ops")
        layer_sum = sum(metrics[f"{layer}.self_ms"] for layer in LAYERS)
        lines.append(f"#   layer self times + bench.op.self_ms = "
                     f"{layer_sum + metrics['bench.op.self_ms']:.3f} ms "
                     f"of trace.op_ms {metrics['trace.op_ms']:.3f} ms")
        lines += [f"#   traced {o['name']}: {1e3 * o['seconds']:.1f} ms, "
                  f"basis factors {o['factors']}, lattice accesses {o['access']}"
                  for o in traced_ops]
    lines += [f"{name} {value:.6g} {E2E_UNITS[name]}" for name, value in e2e.items()]
    lines += [f"{name} {value:.6g} {DETAIL_UNITS.get(name, DETAIL_UNITS.get(name.split('.')[0], 'ms'))}"
              for name, value in details.items()]
    if trace:
        lines += [f"{name} {value:.6g} {units[name]}" for name, value in metrics.items()]

    result = {
        "correct": not any(not r["ok"] and r["kind"] in ("fixed", "warmup")
                           for r in runner.records),
        "attempted": len(runner.records),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    return result, lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("deep", "short", "ratemap"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    run_dir = BENCH_DIR / "out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    result, lines = execute(args.workload, args.seed, args.seconds, args.trace, run_dir)
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
