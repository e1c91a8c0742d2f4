"""Outside-in tracing of the ellgrid layers, installed from the benchmark's files.

`Tracer.install()` replaces the public functions and methods of each layer
module (poly, curve, lattice, diffops, solver, convergence, cli) with wrappers
and returns a function that puts the originals back.  Coarse calls become
spans (id, name, start, end, parent id, op id); calls made millions of times per op
(lattice accessors, polynomial and curve evaluation) only bump a counter, so
their cost lands in the self time of the span that made them.  Spans stay in
memory until `write_spans`.

Self time is a span's duration minus the time of its child spans, so the self
times of one op's span tree add up to the op's wall time.
"""
from __future__ import annotations

import json
from collections import Counter
from time import perf_counter

import ellgrid
from ellgrid import cli, convergence, curve, diffops, lattice, poly, solver

MODULES = (poly, curve, lattice, diffops, solver, convergence, cli)

# Module-level functions traced as spans: (module, attribute, span name).
FUNCTION_SPANS = [
    (lattice, "generate", "lattice.generate"),
    (diffops, "divided_difference", "diffops.divided_difference"),
    (diffops, "mean_value", "diffops.mean_value"),
    (diffops, "identity_samples", "diffops.identity_samples"),
    (diffops, "verify_diff_basis_identity", "diffops.verify_identity"),
    (solver, "solve", "solver.solve"),
    (solver, "special_point_candidates", "solver.special_point_candidates"),
    (solver, "locate_special_points", "solver.locate_special_points"),
    (solver, "build_lattices", "solver.build_lattices"),
    (solver, "expansion_coefficients", "solver.expansion_coefficients"),
    (solver, "expansion_coefficients_log", "solver.expansion_coefficients_log"),
    (solver, "closed_product_coefficient", "solver.closed_product"),
    (solver, "stepwise_oracle", "solver.stepwise_oracle"),
    (solver, "evaluate_partial_sum", "solver.partial_sum"),
    (solver, "verify_interpolation", "solver.verify_interpolation"),
    (solver, "residual", "solver.residual"),
    (solver, "solution_to_json", "solver.solution_to_json"),
    (convergence, "rate_map", "convergence.rate_map"),
    (convergence, "empirical_rate", "convergence.empirical_rate"),
    (convergence, "term_magnitudes", "convergence.term_magnitudes"),
    (convergence, "detect_small_divisors", "convergence.detect_small_divisors"),
    (convergence, "path_integral", "convergence.path_integral"),
    (convergence, "route_path", "convergence.route_path"),
    (convergence, "period_quadrature", "convergence.period_quadrature"),
    (convergence, "trace_lattice_locus", "convergence.trace_lattice_locus"),
    (cli, "main", "cli.main"),
]

# Methods traced as spans: (class, attribute, span name).
METHOD_SPANS = [
    (poly.Polynomial, "roots", "poly.roots"),
    (curve.BiquadraticCurve, "y_roots", "curve.y_roots"),
    (curve.BiquadraticCurve, "x_roots", "curve.x_roots"),
    (curve.BiquadraticCurve, "implicit_dy_dx", "curve.implicit_dy_dx"),
    (convergence.RatePredictor, "__init__", "convergence.predictor_build"),
    (convergence.RatePredictor, "xi", "convergence.xi"),
    # One span per materialised index: the work `LatticePair.ensure` does.
    (lattice.LatticePair, "_step_forward", "lattice.step"),
    (lattice.LatticePair, "_step_backward", "lattice.step"),
]

# Hot methods that are only counted: (class, attribute, counter name).
METHOD_COUNTS = [
    (poly.Polynomial, "__call__", "poly.eval"),
    (curve.BiquadraticCurve, "__call__", "curve.eval"),
]

# Lattice accessors, counted together as lattice.access.
LATTICE_ACCESSORS = ("x", "y", "point")


class Tracer:
    def __init__(self):
        self.stack = []             # open spans: [span id, child seconds]
        self.active = Counter()     # open spans per name (recursion guard)
        self.stats = {}             # name -> [calls, outermost seconds, self seconds]
        self.counts = Counter()
        self.access = [0]           # lattice accessor calls
        self.spans = []             # (id, name, start, end, parent id, op id)
        self.op_id = None
        self._next_id = 0

    # -- recording ------------------------------------------------------------------

    def call(self, name, fn, args, kwargs):
        parent = self.stack[-1] if self.stack else None
        self._next_id += 1
        frame = [self._next_id, 0.0]
        self.stack.append(frame)
        depth = self.active[name]
        self.active[name] = depth + 1
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = perf_counter()
            self.stack.pop()
            self.active[name] = depth
            dur = t1 - t0
            st = self.stats.get(name)
            if st is None:
                st = self.stats[name] = [0, 0.0, 0.0]
            st[0] += 1
            st[2] += dur - frame[1]
            if depth == 0:
                st[1] += dur
            if parent is not None:
                parent[1] += dur
            self.spans.append((frame[0], name, t0, t1, parent[0] if parent else None,
                               self.op_id))

    def run_op(self, op_id, fn):
        """Run fn() as the root span of one op; returns fn's result."""
        self.op_id = op_id
        try:
            return self.call("op", fn, (), {})
        finally:
            self.op_id = None

    # -- installation ---------------------------------------------------------------

    def _span_wrapper(self, name, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            return tracer.call(name, fn, args, kwargs)
        return wrapper

    def _count_wrapper(self, key, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _special_wrappers(self):
        """Wrappers that need more than a plain span or counter."""
        tracer, counts = self, self.counts
        diff_constant = diffops.diff_constant
        basis_call = diffops.BasisFunction.__call__

        def traced_diff_constant(pair, n, method="xm1"):
            name = "diffops.cn_all" if method == "all" else "diffops.diff_constant"
            return tracer.call(name, diff_constant, (pair, n, method), {})

        def traced_basis_call(self, z):
            counts["diffops.basis_eval.factors"] += self.n
            return tracer.call("diffops.basis_eval", basis_call, (self, z), {})

        return {
            (diffops, "diff_constant"): traced_diff_constant,
            (diffops.BasisFunction, "__call__"): traced_basis_call,
        }

    def _access_counter(self, fn):
        """Lean counting wrapper for the lattice accessors (millions of calls per op)."""
        cell = self.access

        def wrapper(lat, n):
            cell[0] += 1
            return fn(lat, n)
        return wrapper

    def install(self):
        """Wrap every traced entry point; returns the function that undoes it."""
        undo = []

        def set_attr(owner, attr, value):
            undo.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, value)

        def rebind_function(module, attr, wrapper):
            # `from .x import f` copies the name, so rebind every alias of f.
            original = getattr(module, attr)
            for mod in MODULES + (ellgrid,):
                for key, value in list(vars(mod).items()):
                    if value is original:
                        set_attr(mod, key, wrapper)

        for (owner, attr), wrapper in self._special_wrappers().items():
            if isinstance(owner, type):
                set_attr(owner, attr, wrapper)
            else:
                rebind_function(owner, attr, wrapper)
        for module, attr, name in FUNCTION_SPANS:
            rebind_function(module, attr, self._span_wrapper(name, getattr(module, attr)))
        for cls, attr, name in METHOD_SPANS:
            set_attr(cls, attr, self._span_wrapper(name, cls.__dict__[attr]))
        for cls, attr, key in METHOD_COUNTS:
            set_attr(cls, attr, self._count_wrapper(key, cls.__dict__[attr]))
        for attr in LATTICE_ACCESSORS:
            cls = lattice.LatticePair
            set_attr(cls, attr, self._access_counter(cls.__dict__[attr]))

        def uninstall():
            for owner, attr, value in reversed(undo):
                setattr(owner, attr, value)
        return uninstall

    # -- reading ----------------------------------------------------------------------

    def ms(self, name):
        """Summed time of the outermost spans of `name`, in ms."""
        return 1e3 * self.stats.get(name, (0, 0.0, 0.0))[1]

    def self_ms(self, name):
        return 1e3 * self.stats.get(name, (0, 0.0, 0.0))[2]

    def calls(self, name):
        return self.stats.get(name, (0, 0.0, 0.0))[0]

    def layer_self_ms(self):
        """Self time summed per layer (the part of a span name before the dot)."""
        out = Counter()
        for name, (_, _, self_s) in self.stats.items():
            out[name.split(".")[0]] += 1e3 * self_s
        return dict(out)

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, name, t0, t1, parent, op in self.spans:
                fh.write(json.dumps({"id": span_id, "name": name, "start": t0, "end": t1,
                                     "parent": parent, "op": op}) + "\n")

