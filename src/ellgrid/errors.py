"""Exception types shared across the library.

Numerical failures carry the offending point or index so callers can report
exactly where a lattice walk or an expansion broke down.
"""
import cmath
import numbers
import operator
import sys


class EllgridError(Exception):
    """Base class for every error raised by this library."""


class ValidationError(EllgridError):
    """Input data violates a documented invariant (bad config, off-curve seed, ...)."""


class MissingFieldError(ValidationError):
    """A required configuration field is absent."""

    def __init__(self, field):
        super().__init__(f"MissingField: {field}")
        self.field = field


class ZeroDivisorError(EllgridError):
    """Division by an identically-zero polynomial."""


class ConstantPolynomialError(EllgridError):
    """Root finding requested for a degree-0 polynomial."""


class PoleEvaluationError(EllgridError):
    """Evaluation at a non-removable pole."""

    def __init__(self, at, message=None):
        super().__init__(message or f"non-removable pole at z={at}")
        self.at = at


class LeadingCoefficientVanishesError(EllgridError):
    """The quadratic view degenerates: one root escapes to infinity, or V2(t) is not finite."""

    def __init__(self, at, message=None):
        super().__init__(message or f"leading coefficient vanishes at {at}")
        self.at = at


class VerticalTangentError(EllgridError):
    """dF/dy vanishes: the implicit derivative does not exist (branch point)."""


class BranchPointEvaluationError(EllgridError):
    """The two branches coincide (P(x)=0); the divided difference is undefined."""


class LatticeSingularityError(EllgridError):
    """A lattice step hit a point where the leading quadratic coefficient vanishes."""

    def __init__(self, index, message=None):
        super().__init__(message or f"lattice singularity at step n={index}")
        self.index = index


class LatticeStagnationError(EllgridError):
    """Three consecutive steps moved by less than the stagnation threshold."""

    def __init__(self, index):
        super().__init__(f"lattice stagnated near n={index}")
        self.index = index


class MethodDegenerateError(EllgridError):
    """A closed-form evaluation route has a vanishing denominator at this index."""


class NoValidSamplesError(EllgridError):
    """Every sample point for an identity check was degenerate."""


class NoSpecialPointError(EllgridError):
    """No root of the special-point equation survives back-substitution."""


class BranchAssignmentFailedError(EllgridError):
    """Neither ordering of a root pair satisfies the defining condition."""


class SmallDivisorError(EllgridError):
    """eta_n is 0, or the stepwise oracle's step n - 1 is singular by the oracle's own test."""

    def __init__(self, index, magnitude):
        super().__init__(f"small divisor at n={index} (|eta|={magnitude:.3e})")
        self.index = index
        self.magnitude = magnitude


class InternalInconsistencyError(EllgridError):
    """Two supposedly equivalent computation routes disagree beyond tolerance."""


class NonFiniteCoefficientError(EllgridError):
    """An expansion coefficient overflowed to inf or became NaN."""

    def __init__(self, index, value):
        super().__init__(f"coefficient c_{index} is not finite ({value})")
        self.index = index


class DegreeMismatchError(EllgridError):
    """A polynomial does not have the degree the construction requires."""


class HitSingularLatticeError(EllgridError):
    """The stepwise recurrence's step k is singular; values holds f(y_0) .. f(y_k)."""

    def __init__(self, index, values=()):
        super().__init__(f"stepwise recurrence singular at k={index}")
        self.index = index
        self.values = tuple(values)


class WindowTooSmallError(EllgridError):
    """Fewer than five usable terms in a rate-fit window."""


class RefinePathError(EllgridError):
    """Branch tracking detected a jump; the path needs more samples."""


class PathThroughBranchPointError(EllgridError):
    """An integration path passes too close to a branch point of sqrt(P)."""


def _instance(value, cls, name):
    """value, where it is an instance of cls, or a ValidationError naming the argument."""
    if not isinstance(value, cls):
        article = "an" if cls.__name__[0] in "AEIOU" else "a"
        raise ValidationError(f"{name}: expected {article} {cls.__name__}, got {value!r}")
    return value


def _attrs(value, name, *attrs):
    """value, where it has each of attrs (a stand-in will do), or a ValidationError naming it."""
    if not all(hasattr(value, a) for a in attrs):
        raise ValidationError(f"{name}: expected an object with {', '.join(attrs)}, got {value!r}")
    return value


def _order(value, name, lo=None):
    """value as an int, where operator.index takes it and it is not a bool, and not below lo
    where lo is given: an order N or K, or a lattice index."""
    if not isinstance(value, bool):
        try:
            n = operator.index(value)
        except TypeError:
            pass
        else:
            if lo is not None and n < lo:
                raise ValidationError(f"{name} must be >= {lo}, got {n}")
            return n
    raise ValidationError(f"{name} must be an integer, got {value!r}")


def _finite(value, name):
    """value as a finite complex number, where it is a number and not a bool (numpy's bools are
    not numbers), or a ValidationError naming the argument."""
    try:
        z = complex(value) if isinstance(value, (complex, float, int, numbers.Number)) \
            and not isinstance(value, bool) else cmath.nan      # builtins first: the ABC is slow
    except (OverflowError, ValueError):     # an int past the float range, a signalling NaN
        z = cmath.nan
    if not cmath.isfinite(z):
        raise ValidationError(f"{name}: expected a finite complex number, got {value!r}")
    return z


def _real(value, name):
    """value as a finite float, where it is a real number and not a bool, or a ValidationError
    naming the argument."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool) \
            and abs(value) <= sys.float_info.max:
        return float(value)
    raise ValidationError(f"{name}: expected a finite real number, got {value!r}")
