import types

import ellgrid
from ellgrid import convergence, curve, diffops, lattice, poly, solver

DELETED = {
    "SymmetricForm", "convert_equation_form", "step_forward", "step_backward", "Scalar",
    "_as_scalar", "fit_biquadratic", "fit_curve_to_lattice", "_term_scale", "_horner",
    "_reduced_abs", "_grid_function", "predicted_rate",
}
DELETED_ATTRS = {
    poly.RationalFunction: (
        "_coerce", "__add__", "__radd__", "__neg__", "__sub__", "__rsub__",
        "__mul__", "__rmul__", "__truediv__", "__rtruediv__", "degree_pair"),
    poly.Polynomial: ("constant",),
    solver.DifferenceEquation: ("from_linear_parts", "defect"),
    solver.ExpansionSolution: ("partial_sum",),
    solver.InterpolationReport: ("__float__",),
    curve.RootPair: ("ordered",),
    curve.BiquadraticCurve: ("_f",),
    diffops.BasisPair: ("basis_at_m1", "x", "y", "xp", "yp"),
    convergence.RatePredictor: ("_grid_rates",),
}


def test_all_names_resolve_and_none_is_a_module():
    assert len(ellgrid.__all__) == len(set(ellgrid.__all__))
    for name in ellgrid.__all__:
        assert not isinstance(getattr(ellgrid, name), types.ModuleType), name


def test_star_import_binds_exactly_all():
    ns = {}
    exec("from ellgrid import *", ns)
    assert set(ns) - {"__builtins__"} == set(ellgrid.__all__)


def test_deleted_api_is_gone():
    assert not DELETED & set(ellgrid.__all__)
    for name in DELETED:
        assert not hasattr(ellgrid, name)
        for mod in (convergence, curve, lattice, poly, solver):
            assert not hasattr(mod, name)
    for cls, names in DELETED_ATTRS.items():
        for name in names:
            assert not hasattr(cls, name), (cls.__name__, name)
    assert "sqrt_disc" not in curve.RootPair.__slots__
