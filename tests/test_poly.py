import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ellgrid.errors import (
    ConstantPolynomialError,
    PoleEvaluationError,
    ValidationError,
    ZeroDivisorError,
)
from ellgrid.poly import Polynomial, RationalFunction, solve_quadratic

X = Polynomial.x()


def test_difference_of_squares():
    assert (X + 1) * (X - 1) == X * X - 1


def test_additive_identity():
    p = Polynomial((3.0, 0.0, 2.0 + 1j))
    assert p + Polynomial((0j,)) == p
    assert p + 0 == p


def test_removable_factor_eval():
    f = (X * X - 1) / (X - 1)
    assert f(3.0) == pytest.approx(4.0)


def test_removable_pole_deflation():
    f = (X * X - 1) / (X - 1)
    assert f(1.0) == pytest.approx(2.0)


def test_nonremovable_pole_raises():
    f = RationalFunction(Polynomial((1.0,)), X - 2)
    with pytest.raises(PoleEvaluationError) as err:
        f(2.0)
    assert err.value.at == 2.0


def test_rational_value_past_the_float_range_is_typed():
    # x^3 + 1 is inf at 1e103, where max(1, |z|)^3 would also leave the float range
    f = RationalFunction(Polynomial((1.0,)), X ** 3 + 1)
    with pytest.raises(ValidationError, match=r"z=1e\+103"):
        f(1e103)
    assert f(1e100) == pytest.approx(1e-300)
    # |z|^3 = 1e309 is past the float range, but the pole test divides by |z| per degree
    assert RationalFunction(Polynomial((1.0,)), X + 1)(1e103) == pytest.approx(1e-103)


def test_eval_simple():
    p = X * X + 1
    assert p(1j) == pytest.approx(0.0)


def test_eval_on_arrays_is_one_horner_loop():
    """Arrays take the scalar loop: each entry rounds as Horner from a filled array did, and a
    constant fills the array's shape as complex."""
    rng = np.random.default_rng(3)
    z = (rng.normal(size=40) + 1j * rng.normal(size=40)) * 10.0 ** rng.uniform(-3, 3, size=40)
    for deg in range(5):
        p = Polynomial(rng.normal(size=deg + 1) + 1j * rng.normal(size=deg + 1))
        for t in (z, z.real):
            want = np.full_like(t, p.coeffs[-1], dtype=complex)
            for c in reversed(p.coeffs[:-1]):
                want = want * t + c
            got = p(t)
            assert got.dtype == complex and got.shape == t.shape
            assert repr(got.tolist()) == repr(want.tolist())


def test_division_by_zero_polynomial():
    with pytest.raises(ZeroDivisorError):
        RationalFunction(X, Polynomial((0j,)))
    with pytest.raises(ZeroDivisorError):
        divmod(X, Polynomial((0j,)))


def test_roots_simple():
    got = (X * X - 3 * X + 2).roots()
    assert got == pytest.approx([1.0, 2.0])
    got = sorted((X * X + 1).roots(), key=lambda z: z.imag)
    assert got == pytest.approx([-1j, 1j])


def test_roots_constant_raises():
    with pytest.raises(ConstantPolynomialError):
        Polynomial((5.0,)).roots()


def test_divmod_roundtrip():
    p = Polynomial((1.0, -2.0, 0.5, 3.0, 1j))
    q = Polynomial((2.0, 1j, 1.0))
    quo, rem = divmod(p, q)
    back = quo * q + rem
    assert max(abs(a - b) for a, b in zip(back.coeffs, p.coeffs)) < 1e-13
    assert rem.degree() < q.degree()


@pytest.mark.parametrize("coeffs, reason", [
    ("12", "'1' is not a number"), ([True, 2], "True is not a number"),
    (["1e400", 1], "'1e400' is not a number"), ([np.True_, 2], "np.True_ is not a number"),
    ((1.0, np.False_), "np.False_ is not a number"),
    ([1, np.str_("2")], "np.str_('2') is not a number"),
    ([1, 2**1100], "int too large to convert to float"),
], ids=["str", "bool", "str entry", "np.bool_", "np.bool_ last", "np.str_", "int past floats"])
def test_strings_and_bools_are_not_coefficients(coeffs, reason):
    """A string or a bool is refused, though complex() takes it: '12' would read 1 + 2x,
    [True, 2] 1 + 2x and ['1e400', 1] the constant inf.  An int past the float range is
    refused too, not an untyped OverflowError."""
    with pytest.raises(ValidationError) as err:
        Polynomial(coeffs)
    assert str(err.value) == f"coeffs: expected complex numbers, got {coeffs!r} ({reason})"


@pytest.mark.parametrize("bad", [None, "a", [1.0], X.coeffs], ids=["None", "str", "list", "tuple"])
def test_a_rational_function_takes_polynomials_and_numbers(bad):
    """A numerator or denominator that is neither a Polynomial nor a number is a ValidationError
    naming it, not a bare TypeError."""
    for args, name in (((bad, X), "numer"), ((X, bad), "denom")):
        with pytest.raises(ValidationError) as err:
            RationalFunction(*args)
        assert str(err.value) == f"{name}: expected a Polynomial or a number, got {bad!r}"


def test_nan_and_inf_coefficients_stay_allowed():
    """Internal arithmetic can overflow, so a Polynomial holds NaN and inf entries (a
    DifferenceEquation refuses them on its own)."""
    p = Polynomial([float("nan"), 1, float("inf"), 1.0])
    assert repr(p) == "Polynomial([(nan+0j), (1+0j), (inf+0j), (1+0j)])"


def test_normalization_trims_leading_noise():
    p = Polynomial((1.0, 2.0, 1e-16))
    assert p.degree() == 1
    # max_coeff is taken over the kept coefficients
    for cs in ((3.0, -4j, 1e-20), (0j, 0j), (), (1.0, float("inf"))):
        q = Polynomial(cs)
        assert q.max_coeff == max(abs(c) for c in q.coeffs)
    with pytest.raises(AttributeError):
        q.max_coeff = 0.0


def test_quadratic_roots_where_the_discriminant_overflows():
    # V1^2 - 4 V2 V0 is about 4e300^2 at t = 1e150 on this curve; V2(t) = 1 + t^2 is finite
    from ellgrid import BiquadraticCurve
    cv = BiquadraticCurve([[1, 0, 1], [0, 1, 0], [1, 0, 1]])
    t = 1e150
    v0, v1, v2 = (p(t) for p in cv.x_view())
    lo, hi = cv.y_roots(t).as_tuple()
    assert np.isfinite([lo, hi]).all()
    assert abs((lo + hi) - (-v1 / v2)) <= 1e-12 * abs(v1 / v2)
    assert abs(lo * hi - v0 / v2) <= 1e-12 * abs(v0 / v2)
    # the rescaled solve returns the unscaled square root of the discriminant
    _, _, s = solve_quadratic(1e300, 4e300, 1.0)
    assert np.isfinite(s) and s == pytest.approx(4e300)


def test_quadratic_pairing_is_stable():
    # classic cancellation case: the small root must come from the product
    lo, hi, _ = solve_quadratic(1.0, -1e8, 1.0)
    small, big = sorted((lo, hi), key=abs)
    assert abs(small - 1e-8) < 1e-16
    assert abs(big - 1e8) < 1e-4


def test_derivative():
    p = Polynomial((1.0, 2.0, 3.0))
    assert p.derivative() == Polynomial((2.0, 6.0))


complex_coeff = st.complex_numbers(max_magnitude=1.0, allow_nan=False,
                                   allow_infinity=False)


@settings(max_examples=40, deadline=None)
@given(st.lists(complex_coeff, min_size=2, max_size=9),
       st.complex_numbers(min_magnitude=0.2, max_magnitude=1.0,
                          allow_nan=False, allow_infinity=False))
def test_root_product_reconstruction(body, lead):
    p = Polynomial(list(body) + [lead])
    if p.degree() < 1:
        return
    roots = p.roots()
    recon = Polynomial.from_roots(roots, leading=p.coeffs[-1])
    scale = p.max_coeff
    assert len(recon.coeffs) == len(p.coeffs)
    for a, b in zip(recon.coeffs, p.coeffs):
        assert abs(a - b) <= 1e-8 * scale


@settings(max_examples=40, deadline=None)
@given(st.lists(complex_coeff, min_size=1, max_size=6),
       st.lists(complex_coeff, min_size=1, max_size=6),
       st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False))
def test_eval_is_multiplicative(ac, bc, z):
    p, q = Polynomial(ac), Polynomial(bc)
    lhs = (p * q)(z)
    rhs = p(z) * q(z)
    assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs), abs(rhs))


@settings(max_examples=40, deadline=None)
@given(st.complex_numbers(max_magnitude=3.0, allow_nan=False, allow_infinity=False),
       st.complex_numbers(max_magnitude=3.0, allow_nan=False, allow_infinity=False),
       st.complex_numbers(min_magnitude=0.1, max_magnitude=3.0,
                          allow_nan=False, allow_infinity=False))
def test_quadratic_roots_satisfy_equation(c0, c1, c2):
    lo, hi, _ = solve_quadratic(c0, c1, c2)
    scale = max(abs(c0), abs(c1), abs(c2))
    for r in (lo, hi):
        val = (c2 * r + c1) * r + c0
        assert abs(val) <= 1e-10 * scale * max(1.0, abs(r)) ** 2


@settings(max_examples=30, deadline=None)
@given(st.lists(complex_coeff, min_size=3, max_size=9),
       st.complex_numbers(min_magnitude=0.2, max_magnitude=1.0,
                          allow_nan=False, allow_infinity=False))
def test_polished_root_residual(body, lead):
    p = Polynomial(list(body) + [lead])
    if p.degree() < 1:
        return
    for r in p.roots():
        bound = 1e-10 * p.max_coeff * max(1.0, abs(r)) ** p.degree()
        assert abs(p(r)) <= bound
