#!/usr/bin/env python3
"""Record what the solver chooses and computes, and digest it into one line.

The cases are built from the fixtures in tests/fixtures.py:

- special points: `special_point_candidates` and, under 56 selectors and
  three hint sets, `locate_special_points` on the three general fixtures,
  the log-linear fixture, `genus1_equation` seeds 0-59 and four logarithmic
  equations on the linear curve (a = (x - 1)^3 or x - 1, d = X2 (x - 1) or X2);
- `solve` and `verify_interpolation` on the general fixtures at N = 40 and
  300 and on the log-linear fixture at N = 300: coefficients, special points,
  diagnostics and interpolation errors;
- `solve` and `verify_interpolation` on `genus1_equation` seeds 0-59 under
  `ByIndex` (0, 1), (1, 2) and (2, 0) at N = 40 and 150: coefficients and the
  largest interpolation error, or the exception (a small divisor, say);
- the README's `ellgrid solve` and `ellgrid verify` runs: exit code, stdout,
  stderr and the solution JSON;
- more `ellgrid verify` runs (exit code, stdout, stderr): the general
  fixtures and the log-linear fixture at N = 40, `genus1_equation` seeds 0-9
  under `{"index": [0, 1]}` at N = 40, and a `lattice_seed` scenario on the
  README's curve (x0 = y0 = 1, n_max = 8);
- `ellgrid ratemap` runs: exit code, stdout, stderr and the CSV, on the
  criterion-9 41x41 predicted map, a 41x41 empirical map on the linear
  fixture, the genus-1 curve of `log_qlattice_fixture(shift=1e-2)` (every
  cell flagged RefinePath) and a grid through 0.0 whose axis starts at -0.0.

Each case records the `repr` of its outputs, or the exception's type and
message.  The script prints the number of cases and one SHA-256 over all of
them, so two checkouts that print the same line made the same choices and
computed the same certificates, coefficients, errors and messages, bit for
bit.  `--cases PATH` also writes one line per case, to find the cases that
differ between two checkouts.

`--compare OLD NEW` reads two such files and tells rounding from structure.
Each float token of a case (a number with a point or an exponent, inf, nan,
either part of a complex) is masked; the rest of the case's text must be
equal, or the case changed structurally: a flag, a blank field, an exit code,
an integer, a message or a case that is there on one side only.  A float that
becomes or stops being inf or nan is structural too, and so is a `solve` case
whose interpolation error (its last float) crosses verify's bound of 1e-7, since
verify's PASS or FAIL moves with it.  For the cases whose floats moved it prints
the number of tokens moved and the largest relative and ulp move, by case and by
class, and per case its worst token, old -> new; it exits 1 on any structural
change.

    python scripts/capture_outputs.py [--cases PATH]
    python scripts/capture_outputs.py --compare OLD NEW
"""
import argparse
import contextlib
import functools
import hashlib
import io
import json
import math
import pathlib
import re
import struct
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from fixtures import (                                   # noqa: E402
    explicit,
    general_fixtures,
    genus1_equation,
    linear_fixture,
    log_linear_fixture,
    log_qlattice_fixture,
    readme_config,
    scenario_config,
)
import oracles                                           # noqa: E402
from ellgrid import (                                    # noqa: E402
    ByIndex,
    DifferenceEquation,
    Explicit,
    LinearLattice,
    Nearest,
    solve,
    verify_interpolation,
)
from ellgrid.cli import main as cli_main                 # noqa: E402
from ellgrid.poly import Polynomial                      # noqa: E402
from ellgrid.solver import locate_special_points, special_point_candidates  # noqa: E402

NEAREST = (0, 1, -1, 1j, -1j, 2 + 2j, -3 + 1j, 0.5 - 0.5j)
HINTS = ({}, {"y0_hint": -1 + 0.1j, "yp1_hint": 1.25 + 0.5j},
         {"y0_hint": 1.25 + 0.5j, "yp1_hint": -1 + 0.1j})

README_SOLVE = json.loads(readme_config())

outcome = functools.partial(oracles.outcome, errors=Exception)  # each failure is recorded


def special_point_inputs():
    curve = LinearLattice(h=1.0).curve()
    cube, line = Polynomial.from_roots([1.0, 1.0, 1.0]), Polynomial((-1.0, 1.0))
    yield from ((name, eq) for name, eq, _ in general_fixtures())
    yield "log-linear", log_linear_fixture()[0]
    for seed in range(60):
        yield f"genus1-{seed}", genus1_equation(seed)
    for name, a in (("cube", cube), ("line", line)):
        yield f"{name}-d", DifferenceEquation(curve, a, 0, 0, 1.0, -1.0)
        yield f"{name}-x2", DifferenceEquation(curve, a, 0, 0, 0.0, 1.0)


def selectors(cands):
    yield from (Nearest(z) for z in NEAREST)
    yield from (ByIndex(i) for i in range(-2, 7))
    yield from (ByIndex(i, j) for i in range(6) for j in range(6))
    first, last = cands[0], cands[-1]
    yield from (Explicit(first, last), Explicit(last, first), Explicit(5.0, first))


def special_point_cases():
    for name, eq in special_point_inputs():
        yield f"candidates {name}", outcome(lambda: special_point_candidates(eq))
        try:
            cands = special_point_candidates(eq)
        except Exception:               # Explicit selectors then name two plain points
            cands = [0j, 1 + 0j]
        for select in selectors(cands):
            for k, hints in enumerate(HINTS):
                yield (f"locate {name} {select!r} hints{k}",
                       outcome(lambda: locate_special_points(eq, select, **hints)))


def genus1_solved(eq, select, N):
    sol = solve(eq, select, N)
    return sol.coeffs, verify_interpolation(eq, sol, N).max_error


def solve_cases():
    for name, eq, select in general_fixtures():
        for N in (40, 300):
            yield f"solve {name} N={N}", outcome(lambda: oracles.solved(eq, select, N))
    eq, select, c0_free, _, _, hints = log_linear_fixture()
    yield "solve log-linear N=300", outcome(lambda: oracles.solved(eq, select, 300,
                                                                  c0_free=c0_free, **hints))
    for seed in range(60):
        eq = genus1_equation(seed)
        for select in (ByIndex(0, 1), ByIndex(1, 2), ByIndex(2, 0)):
            for N in (40, 150):
                yield (f"solve genus1-{seed} {select!r} N={N}",
                       outcome(lambda: genus1_solved(eq, select, N)))


def cli_cases():
    with tempfile.TemporaryDirectory() as tmp:
        cfg = pathlib.Path(tmp, "solve.json")
        cfg.write_text(json.dumps(README_SOLVE))
        out = pathlib.Path(tmp, "solve.out.json")
        verify = pathlib.Path(tmp, "verify.json")
        verify.write_text(json.dumps({k: v for k, v in README_SOLVE.items() if k != "run"}))
        for name, argv, written in (
                ("solve", ["solve", "--config", str(cfg), "--out", str(out)], out),
                ("verify", ["verify", "--config", str(verify)], None)):
            code, stdout, stderr = run_cli(argv)
            text = written.read_text() if written is not None else None
            yield f"cli {name}", repr((code, stdout, stderr, text))


def ratemap_config(eq, select, re_axis, im_axis, log_hints=None):
    """A ratemap scenario over the [lo, hi, count] axes; log mode (c0_free = 0)
    with the solve hints log_hints."""
    return scenario_config(eq, explicit(select),
                           {"window": [5, 25], "grid": {"re": re_axis, "im": im_axis}}, log_hints)


def ratemap_configs():
    eq, select, _, _, hints = log_qlattice_fixture()
    yield "criterion-9 41x41", ratemap_config(eq, select, [0.75, 1.35, 41], [0.75, 1.35, 41],
                                              hints)
    yield "linear 41x41", ratemap_config(*linear_fixture(), [-3.0, 3.0, 41], [-3.0, 3.0, 41])
    eq, select, _, _, hints = log_qlattice_fixture(shift=1e-2)
    yield "genus-1 5x5", ratemap_config(eq, select, [0.75, 1.35, 5], [0.75, 1.35, 5], hints)
    eq, select, _, _, hints = log_qlattice_fixture()
    yield "criterion-9 through -0.0", ratemap_config(eq, select, [-0.0, -0.6, 5],
                                                     [-0.6, 0.6, 5], hints)


def run_cli(argv):
    """(exit code, stdout, stderr) of one ellgrid.cli.main call."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli_main(argv)
    return code, stdout.getvalue(), stderr.getvalue()


def ratemap_cases():
    with tempfile.TemporaryDirectory() as tmp:
        for name, cfg in ratemap_configs():
            path, out = pathlib.Path(tmp, "ratemap.json"), pathlib.Path(tmp, "ratemap.csv")
            path.write_text(json.dumps(cfg))
            code, stdout, stderr = run_cli(["ratemap", "--config", str(path), "--out", str(out)])
            text = out.read_bytes() if out.exists() else None
            out.unlink(missing_ok=True)
            yield f"cli ratemap {name}", repr((code, stdout, stderr, text))


def verify_configs():
    for name, eq, select in general_fixtures():
        yield f"{name} N=40", scenario_config(eq, explicit(select), {"n": 40})
    eq, select, c0_free, _, _, hints = log_linear_fixture()
    yield "log-linear N=40", scenario_config(eq, explicit(select), {"n": 40}, hints, c0_free)
    for seed in range(10):
        yield (f"genus1-{seed} index [0, 1] N=40",
               scenario_config(genus1_equation(seed), {"index": [0, 1]}, {"n": 40}))
    yield "lattice seed", {"curve": README_SOLVE["curve"],
                           "lattice_seed": {"x0": [1.0, 0.0], "y0": [1.0, 0.0]},
                           "params": {"n_max": 8}}


def verify_cases():
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp, "verify.json")
        for name, cfg in verify_configs():
            path.write_text(json.dumps(cfg))
            yield f"cli verify {name}", repr(run_cli(["verify", "--config", str(path)]))


# -- comparing two --cases files ----------------------------------------------------------

VERIFY_BOUND = 1e-7     # the interpolation error up to which `ellgrid verify` says PASS
_NUM = r"(?:(?:\d+\.\d*|\.\d+|\d+)(?:[eE][-+]?\d+)?|inf|nan)"
_FLOAT = r"(?:(?:\d+\.\d*|\.\d+)(?:[eE][-+]?\d+)?|\d+[eE][-+]?\d+|inf|nan)"
FLOAT_TOKEN = re.compile(           # a complex (a+bj), an imaginary bj, or a float of its own
    rf"(?:(?<![\w.])|(?<=\\[nt]))"   # not inside a name or a number; a repr's \n may precede
    rf"(?:\((?P<re>[-+]?{_NUM})(?P<im>[-+]{_NUM})j\)"
    rf"|(?P<imag>[-+]?{_NUM})j|(?P<real>[-+]?{_FLOAT}))"
    r"(?![\w.])")


def float_tokens(text):
    """(text with each float token masked as '#', the tokens' texts in order); a complex
    (a+bj) is two tokens, masked as (##j)."""
    tokens = []

    def mask(m):
        parts = [g for g in (m["re"], m["im"], m["imag"], m["real"]) if g is not None]
        tokens.extend(parts)
        return "(##j)" if m["re"] is not None else "#j" if m["imag"] is not None else "#"
    return FLOAT_TOKEN.sub(mask, text), tokens


def ulps(a, b):
    """The number of doubles from a to b (finite a and b; -0.0 and 0.0 are one double)."""
    def ordinal(x):
        i = struct.unpack("<q", struct.pack("<d", x))[0]
        return i if i >= 0 else -(i & 0x7FFFFFFFFFFFFFFF)
    return abs(ordinal(a) - ordinal(b))


def token_move(old, new):
    """(relative move, ulps) between two float token texts, or None where one of them is inf
    or nan and they differ: a structural change."""
    a, b = float(old), float(new)
    if not (math.isfinite(a) and math.isfinite(b)):
        return (0.0, 0) if old == new else None
    return abs(a - b) / max(abs(a), abs(b)) if a != b else 0.0, ulps(a, b)


def crosses_verify_bound(name, old, new, old_tokens, new_tokens):
    """Whether a `solve` case's interpolation error, the last float token of a result that is
    not an error, is within verify's bound on one side only."""
    if not name.startswith("solve ") or old.startswith("raise ") or not old_tokens:
        return False
    return (float(old_tokens[-1]) <= VERIFY_BOUND) != (float(new_tokens[-1]) <= VERIFY_BOUND)


def case_class(name):
    """The class of a case: its first word, or its first two after 'cli'."""
    words = name.split()
    return " ".join(words[:2] if words[0] == "cli" else words[:1])


def read_cases(path):
    """{(name, k): outcome} of a --cases file, k counting the earlier cases of the same name."""
    cases, seen = {}, {}
    for line in pathlib.Path(path).read_text(encoding="utf-8").splitlines():
        name, _, outcome = line.partition("\t")
        k = seen[name] = seen.get(name, -1) + 1
        cases[name, k] = outcome
    return cases


def compare(old_path, new_path, out=None):
    """Compare two --cases files; print (to out, else stdout) the structural changes and the
    float moves by case and by class, and return 1 if any case changed structurally, else 0."""
    old, new = read_cases(old_path), read_cases(new_path)
    structural = [(name, "only in OLD" if (name, k) in old else "only in NEW")
                  for name, k in sorted(old.keys() ^ new.keys())]
    moved, classes = [], {}
    for key in (key for key in old if key in new):
        name = key[0]
        (old_mask, old_tokens), (new_mask, new_tokens) = map(float_tokens, (old[key], new[key]))
        stats = classes.setdefault(case_class(name), [0, 0, 0, 0.0, 0])
        stats[0] += 1
        if old_mask != new_mask:
            at = next((i for i, (a, b) in enumerate(zip(old_mask, new_mask)) if a != b),
                      min(len(old_mask), len(new_mask)))
            structural.append((name, f"text differs at {at}: {old_mask[at:at + 40]!r} -> "
                                     f"{new_mask[at:at + 40]!r}"))
            continue
        moves = [(token_move(a, b), a, b) for a, b in zip(old_tokens, new_tokens) if a != b]
        if any(m is None for m, _, _ in moves):
            structural.append((name, "a float became or stopped being inf or nan"))
        elif crosses_verify_bound(name, old[key], new[key], old_tokens, new_tokens):
            structural.append((name, f"interpolation error {old_tokens[-1]} -> {new_tokens[-1]} "
                                     f"crosses the verify bound {VERIFY_BOUND:g}"))
        elif moves:
            rel, ulp = max(m[0] for m, _, _ in moves), max(m[1] for m, _, _ in moves)
            _, worst_old, worst_new = max(moves, key=lambda move: move[0])
            moved.append((name, len(moves), rel, ulp, worst_old, worst_new))
            stats[1:] = stats[1] + 1, stats[2] + len(moves), max(stats[3], rel), max(stats[4], ulp)
    print(f"{len(old.keys() & new.keys())} cases in both, {len(structural)} structural, "
          f"{len(moved)} moved by rounding", file=out)
    print("| class | cases | moved | tokens moved | max rel | max ulp |", file=out)
    print("| --- | ---: | ---: | ---: | ---: | ---: |", file=out)
    for cls, (count, n_moved, tokens, rel, ulp) in sorted(classes.items()):
        print(f"| {cls} | {count} | {n_moved} | {tokens} | {rel:.2g} | {ulp} |", file=out)
    for name, tokens, rel, ulp, worst_old, worst_new in moved:
        print(f"moved: {name}: {tokens} tokens, max rel {rel:.2g}, max {ulp} ulp, "
              f"worst {worst_old} -> {worst_new}", file=out)
    for name, why in structural:
        print(f"STRUCTURAL: {name}: {why}", file=out)
    return 1 if structural else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--cases", help="also write one 'name<TAB>outcome' line per case here")
    parser.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"),
                        help="compare two --cases files instead of capturing")
    args = parser.parse_args()
    if args.compare:
        sys.exit(compare(*args.compare))
    lines = [f"{name}\t{value}"
             for gen in (special_point_cases, solve_cases, cli_cases, ratemap_cases,
                        verify_cases)
             for name, value in gen()]
    if args.cases:
        pathlib.Path(args.cases).write_text("\n".join(lines) + "\n")
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    print(f"{len(lines)} cases, sha256 {digest}")


if __name__ == "__main__":
    main()
