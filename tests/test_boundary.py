"""One boundary test over the public surface: every parameter of every callable in
`ellgrid.__all__` has a kind in one table, and a call with one bad argument, the others valid,
raises that kind's ValidationError, or the table lists the value as accepted with its reason.

The bad values are BAD's, plus a kind's `extra` ones: an int where an object is wanted, an
object of a neighbouring class, another string or list where a number is.  A RuntimeWarning is
an error for the whole suite (pyproject.toml), so a refusal that warns on its way fails here
too.  A public name or parameter with no kind fails `test_every_public_parameter_has_a_kind`,
so new API is covered when it lands.  A few entries past `__all__` cover a public classmethod,
the basis functions' call, and two calls at order 0 whose point is checked before their order-0
value.
"""
import functools
import inspect
import io
import math

import numpy as np
import pytest

import ellgrid
from ellgrid import (
    BasisFunction,
    DifferenceEquation,
    LatticePair,
    LatticeSpec,
    Polynomial,
    locate_special_points,
    mean_poly_direct,
    solve,
    verify_diff_basis_identity,
)
from ellgrid.errors import MAX_ORDER, EllgridError, ValidationError

from fixtures import genus1_equation, linear_fixture, log_linear_fixture

BAD = {"None": None, "str": "a", "bool": True, "np.bool": np.True_, "nan": math.nan,
       "inf": math.inf, "object": object(), "2**1100": 2**1100, "list": []}
BOUND = f"{{name}} must be at most {MAX_ORDER} in absolute value, got a 1101-bit integer"


class Accepted(str):
    """The reason a kind takes a value of BAD."""


DEFAULT = Accepted("None is the default")
NOT_FINITE = Accepted("NaN and inf coefficients are taken, as Polynomial takes them")
RECORD = Accepted("a plain record: its fields are checked where they are read")
HOT = Accepted("a hot-path method checks its arguments only where its arithmetic fails, and it "
               "computes with a bool, NaN or inf")


class Kind:
    """A kind of parameter: one valid value; the message of a refused value, a template over the
    parameter's label and the value (`prefix`: the message starts with it); per id of BAD or of
    `extra` a message or an Accepted of its own."""

    def __init__(self, valid, message, own=None, extra=None, prefix=False):
        self.valid, self.message, self.prefix = valid, message, prefix
        self.own, self.extra = own or {}, extra or {}

    def but(self, valid, own=None):
        """The same kind with another valid value and more values of its own."""
        return Kind(valid, self.message, {**self.own, **(own or {})}, self.extra, self.prefix)

    def outcomes(self):
        """(id, bad value, message or Accepted) for each bad value of the kind."""
        for key, bad in {**BAD, **self.extra}.items():
            yield key, bad, self.own.get(key, self.message)


def _instance(valid, cls, **extra):
    article = "an" if cls[0] in "AEIOU" else "a"
    return Kind(valid, f"{{name}}: expected {article} {cls}, got {{bad!r}}",
                extra={"1": 1, **extra})


def _reader(valid, attrs):
    return Kind(valid, f"{{name}}: expected an object with {attrs}, got {{bad!r}}", extra={"1": 1})


def _record(fields):
    return dict.fromkeys(fields, "record field")


PARAMS = {   # entry: {parameter: kind, or (kind, label) where the message names a label}
    "BiquadraticCurve": {"grid": "grid"},
    "RootPair": _record(("lo", "hi")),
    "BasisFunction": {"pair": "basis pair", "n": "order", "kind": "basis kind"},
    "BasisPair": {"unprimed": "lattice", "primed": "lattice"},
    "diff_constant": {"pair": "basis pair", "n": "order", "method": "C_n method"},
    "divided_difference": {"curve": "curve", "f": "function", "x": "number"},
    "divided_difference_rational": {"curve": "curve", "f": "rational"},
    "identity_samples": {"pair": "basis pair", "n": "order", "count": "order",
                         "seed": "order"},
    "mean_poly_direct": {"pair": "basis pair", "n": "order", "z": "number"},
    "mean_poly_value": {"pair": "basis pair", "n": "order", "at": "D_n point"},
    "mean_rational": {"curve": "curve", "f": "rational"},
    "mean_value": {"curve": "curve", "f": "function", "x": "number"},
    "verify_diff_basis_identity": {"pair": "basis pair", "n": "order", "samples": "samples"},
    "AskeyWilsonLattice": dict.fromkeys("abcq", "number"),
    "GeometricLattice": dict.fromkeys("abq", "number"),
    "LatticePair": {"spec": "spec"},
    "LatticeSpec": {"curve": "curve", "x0": "number", "y0": "seed y0",
                    "y1_index": "y1 selector", "y1_hint": "optional number"},
    "LinearLattice": {"h": "number", "x0": "number", "y0": "optional number"},
    "generate": {"spec": "spec", "n_min": "lower index", "n_max": "order"},
    "Polynomial": {"coeffs": "coefficients"},
    "RationalFunction": {"numer": "rational part", "denom": "rational part"},
    "solve_quadratic": dict.fromkeys(("c0", "c1", "c2"), "quadratic coefficient"),
    "ByIndex": {"i": ("candidate index", "select.i"),
                "j": ("second candidate index", "select.j")},
    "DifferenceEquation": {"curve": "curve", "a": "polynomial",
                           **dict.fromkeys(("beta", "gamma", "delta", "eps"), "number")},
    "ExpansionSolution": _record(("eq", "pair", "special", "mode", "coeffs", "c0_free",
                                 "zeta", "diagnostics")),
    "Explicit": {"x_m1": ("number", "select.x_m1"), "x_p0": ("number", "select.x_p0")},
    "Nearest": {"z": ("number", "select.z")},
    "SpecialPoints": _record(("x_m1", "x_p0", "y_m1", "y_0", "y_p0", "y_p1", "res_m1",
                             "res_p0")),
    "build_lattices": {"eq": "equation", "special": "special points"},
    "evaluate_partial_sum": {"sol": "solution", "N": "order", "z": "number"},
    "expansion_coefficients": {"eq": "equation", "pair": "basis pair", "N": "order",
                               "diag": "diagnostics"},
    "expansion_coefficients_log": {"eq": "log equation", "pair": "log basis pair",
                                   "N": "order", "c0_free": "number",
                                   "diag": "diagnostics"},
    "locate_special_points": {"eq": "equation", "select": "selector",
                              "y0_hint": "optional number", "yp1_hint": "optional number"},
    "residual": {"eq": "equation", "sol": "solution", "N": "order", "z": "number"},
    "solution_to_json": {"sol": "expansion solution"},
    "solve": {"eq": "equation", "select": "selector", "N": "order",
              **dict.fromkeys(("c0_free", "y0_hint", "yp1_hint"), "optional number")},
    "stepwise_oracle": {"eq": "equation", "pair": "basis pair", "K": "order",
                        "f0": "optional number"},
    "verify_interpolation": {"eq": "equation", "sol": "solution", "N": "order"},
    "RatePredictor": {"sol": "log solution"},
    "RateReport": _record(("empirical_rate", "window", "smalldiv_flags", "z", "flags")),
    "detect_small_divisors": {"pair": "lattice reader", "N": "order", "threshold": "real"},
    "empirical_rate": {"sol": "solution", "z": "number", "n_min": "window start",
                       "n_max": "order", "smalldiv_threshold": "real"},
    "rate_map": {"sol": "solution", "re_axis": "axis", "im_axis": "axis",
                 "n_min": "window start", "n_max": "order", "smalldiv_threshold": "real"},
    "term_magnitudes": {"sol": "solution", "z": "number", "n_max": "order"},
    "write_rate_map_csv": {"rows": "rows", "stream": "stream"},
}
PARAMS.update({
    "DifferenceEquation.from_polynomials": {"curve": "curve", "a": "polynomial", "c": "polynomial",
                                            "d": "polynomial"},
    "BasisFunction(pair, 2, 'x')(z)": {"z": "number"},
    "BasisFunction(pair, 2, 'y')(z)": {"z": "number"},
    "mean_poly_direct(pair, 0, z)": {"pair": "basis pair", "z": "number"},
    "verify_diff_basis_identity(pair, 0, [z, sample])": {"pair": "basis pair",
                                                         "sample": ("number", "samples[1]")},
    "curve.y_roots": {"x": "point"},
    "curve.x_roots": {"y": "point"},
    "curve.other_y": {"x": "point", "y": "point"},
    "curve.other_x": {"y": "point", "x": "point"},
    "curve.residual": {"x": "point", "y": "point"},
    "curve.contains(x, y)": {"x": "point", "y": "point"},
    "curve.implicit_dy_dx": {"x": "x on the curve", "y": "y on the curve"},
    "Polynomial([1, 2])(z)": {"z": "point"},
    "roots.nearest": {"hint": "point"},
})




@functools.cache
def table():
    """({kind: Kind}, {entry: (call, use)}), built once on the linear and log-linear fixtures at
    N = 10.  An entry is called with its PARAMS by keyword, and `use`, where given, then takes
    the result: a selector is read by locate_special_points."""
    eq, select = linear_fixture()
    sol = solve(eq, select, 10)
    leq, lselect, c0_free, *_, hints = log_linear_fixture()
    lsol = solve(leq, lselect, 10, c0_free=c0_free, **hints)
    curve, pair, z = eq.curve, sol.pair, 0.3 + 0.2j
    order = Kind(10, "{name} must be an integer, got {bad!r}", {"2**1100": BOUND})
    number = Kind(z, "{name}: expected a finite complex number, got {bad!r}",
                  extra={"abc": "abc", "[1]": [1], "infj": complex(0.0, math.inf)})
    computes = ("bool", "np.bool", "nan", "inf", "infj")
    px, py = pair.unprimed.point(1)
    off_curve = "({x}, {y}) is not on the curve"    # implicit_dy_dx's refusal of one that computes
    kinds = {
        "order": order,
        "lower index": order.but(-3),
        "window start": order.but(2),
        "candidate index": order.but(0),
        "second candidate index": order.but(1, {"None": Accepted("None is the default, i + 1")}),
        "y1 selector": order.but(None, {"None": DEFAULT}),
        "number": number,
        "point": number.but(z, dict.fromkeys(computes, HOT)),
        "x on the curve": number.but(px, dict.fromkeys(computes, off_curve.format(x="{bad}",
                                                                                  y=py))),
        "y on the curve": number.but(py, dict.fromkeys(computes, off_curve.format(x=px,
                                                                                  y="{bad}"))),
        "optional number": number.but(None, {"None": DEFAULT}),
        "seed y0": number.but(z, {"None": "need y0 or a y1 selector to seed a lattice"}),
        "quadratic coefficient": Kind(1.0, "{name}: expected a complex number, got {bad!r}",
                                      {"nan": NOT_FINITE, "inf": NOT_FINITE}),
        "real": Kind(0.05, "{name}: expected a finite real number, got {bad!r}"),
        "grid": Kind(curve.c, "curve grid must be 3x3",
                     {"str": "grid[0][0]: expected a finite complex number, got {bad!r}"}),
        "coefficients": Kind([1, 2], "{name}: expected complex numbers, got {bad!r} (",
                             {"list": Accepted("the zero polynomial")}, {"1": 1}, prefix=True),
        "polynomial": Kind([0, 1], "{name}: expected complex numbers, got {bad!r}",
                           {"list": Accepted("the zero polynomial")}, {"1": 1}),
        "rational part": Kind(Polynomial([1, 1]),
                              "{name}: expected a Polynomial or a number, got {bad!r}",
                              {"bool": "coeffs: expected complex numbers, got ({bad!r},) "
                                       "({bad!r} is not a number)",
                               "2**1100": "coeffs: expected complex numbers, got ({bad!r},) "
                                          "(int too large to convert to float)",
                               "nan": NOT_FINITE, "inf": NOT_FINITE}),
        "curve": _instance(curve, "BiquadraticCurve", LatticeSpec=pair.unprimed.spec),
        "spec": _instance(pair.unprimed.spec, "LatticeSpec"),
        "lattice": _instance(pair.unprimed, "LatticePair", LatticeSpec=pair.unprimed.spec,
                             **{"2": 2}),
        "basis pair": _instance(pair, "BasisPair"),
        "log basis pair": _instance(lsol.pair, "BasisPair"),
        "equation": _instance(eq, "DifferenceEquation"),
        "log equation": _instance(leq, "DifferenceEquation"),
        "special points": _instance(sol.special, "SpecialPoints"),
        "expansion solution": _instance(sol, "ExpansionSolution"),
        "function": _instance(Polynomial.x(), "Callable"),
        "solution": _reader(sol, "coeffs, pair, mode"),
        "log solution": _reader(lsol, "mode, zeta, eq, pair"),
        "lattice reader": _reader(pair, "unprimed"),
        "stream": Kind(io.StringIO(), "{name}: expected an object with write, got {bad!r}"),
        "rational": Kind(Polynomial.x(), "expected Polynomial or RationalFunction"),
        "selector": Kind(select, "unknown selector {bad!r}"),
        "basis kind": Kind("y", "basis kind must be 'x' or 'y'"),
        "C_n method": Kind("xm1", "unknown C_n method {bad!r}"),
        "D_n point": Kind("xp0", "unknown D_n point {bad!r}"),
        "diagnostics": Kind(None, "{name}: expected a dict, got {bad!r}", {"None": DEFAULT}),
        "samples": Kind([z], "{name}: expected a list of complex numbers, got {bad!r}",
                        {"list": Accepted("a list: no usable sample is NoValidSamplesError")},
                        {"1": 1}),
        "axis": Kind([1.0], "{name}: expected a list of real numbers, got {bad!r}",
                     {"list": Accepted("an empty axis: an empty map")}, {"1": 1}),
        "rows": Kind([], "{name}: expected rate_map rows, got {bad!r}",
                     {"list": Accepted("no rows: the header alone")}, {"1": 1}),
        "record field": Kind(1.0, RECORD),
    }
    use = functools.partial(locate_special_points, eq)
    calls = {name: (getattr(ellgrid, name), use if name in ("ByIndex", "Explicit", "Nearest")
                    else None) for name in ellgrid.__all__}
    calls.update({
        "DifferenceEquation.from_polynomials": (DifferenceEquation.from_polynomials, None),
        "BasisFunction(pair, 2, 'x')(z)": (lambda z: BasisFunction(pair, 2, "x")(z), None),
        "BasisFunction(pair, 2, 'y')(z)": (lambda z: BasisFunction(pair, 2, "y")(z), None),
        "mean_poly_direct(pair, 0, z)": (lambda pair, z: mean_poly_direct(pair, 0, z), None),
        "verify_diff_basis_identity(pair, 0, [z, sample])": (
            lambda pair, sample: verify_diff_basis_identity(pair, 0, [z, sample]), None),
        "Polynomial([1, 2])(z)": (lambda z: Polynomial([1, 2])(z), None),
        "curve.contains(x, y)": (lambda x, y: curve.contains(x, y), None),
    })
    roots = curve.y_roots(z)
    calls.update({f"{name}.{method}": (getattr(owner, method), None)
                  for name, owner, methods in (
                      ("curve", curve, ("y_roots", "x_roots", "other_y", "other_x", "residual",
                                        "implicit_dy_dx")),
                      ("roots", roots, ("nearest",)))
                  for method in methods})
    return kinds, calls


def _kind(spec):
    """(kind name, label) of a table cell: a kind name alone is labelled by its parameter."""
    return (spec, None) if isinstance(spec, str) else spec


def _call(entry, **changed):
    """entry's call with every parameter at its kind's valid value but the changed ones."""
    kinds, calls = table()
    call, use = calls[entry]
    args = {p: kinds[_kind(spec)[0]].valid for p, spec in PARAMS[entry].items()}
    out = call(**{**args, **changed})
    return out if use is None else use(out)


def test_every_public_parameter_has_a_kind():
    """The table holds every name of `ellgrid.__all__` and, for each entry, exactly the parameters
    of its signature, each with a kind the table defines."""
    kinds, calls = table()
    assert set(ellgrid.__all__) <= set(PARAMS) == set(calls)
    for name, params in PARAMS.items():
        assert list(inspect.signature(calls[name][0]).parameters) == list(params), name
        assert all(_kind(spec)[0] in kinds for spec in params.values()), name
    assert len(ellgrid.__all__) == 45
    assert sum(len(PARAMS[name]) for name in ellgrid.__all__) == 147


@pytest.mark.parametrize("entry", list(PARAMS))
def test_every_entry_takes_its_valid_values(entry):
    """With every parameter at its kind's valid value, no entry raises a ValidationError: each
    returns, or raises the typed numerical error its valid inputs meet (a selector that matches
    no candidate, a rate predictor on a curve with no period)."""
    try:
        _call(entry)
    except ValidationError as exc:
        pytest.fail(f"{entry} refused its valid values: {exc}")
    except EllgridError:
        pass


@pytest.mark.parametrize("entry, param", [(e, p) for e in PARAMS for p in PARAMS[e]],
                         ids=[f"{e}.{p}" for e in PARAMS for p in PARAMS[e]])
def test_a_bad_argument_is_refused_by_its_kind(entry, param):
    """Each bad value of the parameter's kind, the other parameters valid, raises the kind's
    ValidationError for the parameter, or is taken where the kind accepts it: then the call
    returns or raises a typed error that is not a ValidationError."""
    kinds = table()[0]
    kind_name, label = _kind(PARAMS[entry][param])
    problems = []
    for key, bad, outcome in kinds[kind_name].outcomes():
        try:
            _call(entry, **{param: bad})
        except ValidationError as exc:
            if isinstance(outcome, Accepted):
                problems.append(f"{key}: accepted ({outcome}), but refused: {exc}")
                continue
            want = outcome.format(name=label or param, bad=bad)
            got = str(exc)
            if not (got.startswith(want) if kinds[kind_name].prefix else got == want):
                problems.append(f"{key}: {got!r} is not {want!r}")
        except EllgridError as exc:
            if not isinstance(outcome, Accepted):
                problems.append(f"{key}: {type(exc).__name__}({exc}), not a ValidationError")
        except Exception as exc:        # an untyped error, or a RuntimeWarning made one
            problems.append(f"{key}: untyped {type(exc).__name__}: {exc}")
        else:
            if not isinstance(outcome, Accepted):
                problems.append(f"{key}: taken, but the table refuses it")
    assert problems == []


def test_no_index_past_max_order_starts_a_walk(monkeypatch):
    """On a genus-1 curve, where the walk is by flips alone and has no end, an index past
    MAX_ORDER is a ValidationError before any step, and the known range stays as it was.  A
    step would fail the test at once, not walk."""
    curve = genus1_equation(1).curve
    lat = LatticePair(LatticeSpec(curve, 0.3 + 0.1j, y1_index=0))
    lat.ensure(-2, 3)

    def no_step(self, count):
        raise AssertionError(f"a walk of {count} steps started")
    for name in ("_step_forward", "_step_backward"):
        monkeypatch.setattr(LatticePair, name, no_step)
    for call in (lambda: lat.x(2**1100), lambda: lat.ensure(-2**1100, 0),
                 lambda: lat.ensure(0, MAX_ORDER + 1), lambda: lat.y(-MAX_ORDER - 1),
                 lambda: lat.values(0, 2**1100)):
        with pytest.raises(ValidationError, match="^lattice index must be at most "):
            call()
        assert lat.known_range == (-2, 3)
    with pytest.raises(ValidationError) as err:
        lat.x(2**1100)
    assert str(err.value) == BOUND.format(name="lattice index")
