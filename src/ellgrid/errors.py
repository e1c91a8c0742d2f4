"""Exception types, the immutable values' base and their first-use cache, shared by every layer.

Numerical failures carry the offending point or index so callers can report
exactly where a lattice walk or an expansion broke down.
"""
import cmath
import numbers
import operator
import sys

MAX_ORDER = 10**6   # bound on |order| and |lattice index|: 100x the most (10^4) any input uses


class Frozen:
    """Base of the library's immutable values: each sets its fields once, by `_set` in its
    __init__, and any later assignment is an AttributeError("<Type> is immutable")."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def _set(self, **fields):
        for name, value in fields.items():
            object.__setattr__(self, name, value)

    def __setstate__(self, state):
        """copy and pickle restore a value through `_set`: state is its dict, or (dict, slots)."""
        fields, slots = state if isinstance(state, tuple) else (state, None)
        self._set(**(fields or {}), **(slots or {}))


def _kept(obj, slot, build):
    """obj's slot, built by build(obj) on first use and kept there, also on a Frozen value: a None
    it builds is kept too, and nothing is kept where build raises."""
    try:
        return getattr(obj, slot)
    except AttributeError:
        value = build(obj)
        object.__setattr__(obj, slot, value)
        return value


class EllgridError(Exception):
    """Base class for every error raised by this library, and the one constructor of each: it
    takes the positional `fields` ("message" unless a subclass names others) and, by keyword,
    those and `index` and `at` (None where an error names none), keeps each as an attribute (a
    tuple where the class default is one), and its str and args are the message alone, the one
    given, else the `template` formatted from the fields."""

    fields, template = ("message",), None
    index = at = None

    def __init__(self, *args, **data):
        if len(args) > len(self.fields) or not data.keys() <= {*self.fields, "index", "at"}:
            raise TypeError(f"{type(self).__name__} takes {', '.join(self.fields)}, index, at")
        data.update(zip(self.fields, args))
        message = data.pop("message", None)
        for name, value in data.items():
            setattr(self, name,
                    tuple(value) if isinstance(getattr(type(self), name, None), tuple) else value)
        if not message and self.template:
            message = self.template.format(**data)
        super().__init__(*(() if message is None else (message,)))

    def __reduce__(self):
        """pickle and copy rebuild the error from its class, args and fields, not its __init__."""
        return Exception.__new__, (type(self), *self.args), self.__dict__


class ValidationError(EllgridError):
    """Input data violates a documented invariant (bad config, off-curve seed, ...)."""


class MissingFieldError(ValidationError):
    """A required configuration field is absent."""

    fields, template = ("field",), "MissingField: {field}"


class ZeroDivisorError(EllgridError):
    """Division by an identically-zero polynomial."""


class ConstantPolynomialError(EllgridError):
    """Root finding requested for a degree-0 polynomial."""


class PoleEvaluationError(EllgridError):
    """Evaluation at a non-removable pole."""

    fields, template = ("at", "message"), "non-removable pole at z={at}"


class LeadingCoefficientVanishesError(EllgridError):
    """The quadratic view degenerates: one root escapes to infinity, or V2(t) is not finite."""

    fields, template = ("at", "message"), "leading coefficient vanishes at {at}"


class VerticalTangentError(EllgridError):
    """dF/dy vanishes: the implicit derivative does not exist (branch point)."""


class BranchPointEvaluationError(EllgridError):
    """The two branches coincide (P(x)=0); the divided difference is undefined."""


class LatticeSingularityError(EllgridError):
    """A lattice step hit a point where the leading quadratic coefficient vanishes."""

    fields, template = ("index", "message"), "lattice singularity at step n={index}"


class LatticeStagnationError(EllgridError):
    """Three consecutive steps moved by less than the stagnation threshold."""

    fields, template = ("index",), "lattice stagnated near n={index}"


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

    fields, template = ("index", "magnitude"), "small divisor at n={index} (|eta|={magnitude:.3e})"


class InternalInconsistencyError(EllgridError):
    """Two supposedly equivalent computation routes disagree beyond tolerance."""


class NonFiniteCoefficientError(EllgridError):
    """An expansion coefficient overflowed to inf or became NaN."""

    fields, template = ("index", "value"), "coefficient c_{index} is not finite ({value})"


class DegreeMismatchError(EllgridError):
    """A polynomial does not have the degree the construction requires."""


class HitSingularLatticeError(EllgridError):
    """The stepwise recurrence's step k is singular; values holds f(y_0) .. f(y_k)."""

    fields, template, values = ("index", "values"), "stepwise recurrence singular at k={index}", ()


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
    """value as an int, where operator.index takes it and it is not a bool, at most MAX_ORDER in
    absolute value, and not below lo where lo is given: an order N or K, or a lattice index."""
    if not isinstance(value, bool):
        try:
            n = operator.index(value)
        except TypeError:
            pass
        else:
            if abs(n) > MAX_ORDER:      # its size in bits: str() of a huge int can itself fail
                raise ValidationError(f"{name} must be at most {MAX_ORDER} in absolute value, "
                                      f"got a {n.bit_length()}-bit integer")
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


def _list(value, name, what):
    """list(value), where value is iterable and not a string, or a ValidationError naming it."""
    if not isinstance(value, str):
        try:
            return list(value)
        except TypeError:
            pass
    raise ValidationError(f"{name}: expected {what}, got {value!r}")
