"""Exception hierarchy shared across the package."""


class HsmultError(Exception):
    """Base class for all errors raised by this package."""


class RingMismatch(HsmultError):
    """Operands live in different rings (variable count or coefficient field)."""


class ZeroElement(HsmultError):
    """Leading term of the zero element was requested."""


class NonUnitDenominator(HsmultError):
    """Rational series generator whose denominator has no invertible constant term."""


class DenominatorVanishes(HsmultError):
    """A coefficient's denominator vanishes at the requested parameter point:
    over QQ, the prime of a mod-p point divides its integer denominator.
    """

    def __init__(self, coefficient, point):
        self.coefficient = coefficient
        self.point = point
        super().__init__(f"denominator vanishes at {point}: {coefficient}")


class UnexpectedNullity(HsmultError):
    """Kernel dimension exceeded 1 where the composition-series context forbids it."""

    def __init__(self, nullity):
        self.nullity = nullity
        super().__init__(f"kernel has dimension {nullity} > 1")


class NotZeroDimensional(HsmultError):
    """Some variable has no pure-power bound in the support ideal."""

    def __init__(self, variable):
        self.variable = variable
        super().__init__(f"no pure power of variable #{variable} in the support ideal")


class CapExceeded(HsmultError):
    """A resource cap was hit; the input is likely not m-primary or too large."""

    def __init__(self, what, limit):
        self.what = what
        self.limit = limit
        super().__init__(f"resource cap exceeded: {what} > {limit}")


class SearchExhausted(HsmultError):
    """The reduction search ran out of candidate coefficient matrices."""

    def __init__(self, bound):
        self.bound = bound
        super().__init__(f"no certified reduction within max-norm bound {bound}")


class InternalInconsistency(HsmultError):
    """An invariant guaranteed by the underlying theory was violated."""


class NotStabilized(HsmultError):
    """A brute-force oracle did not reach two consecutive equal values."""

    def __init__(self, limit):
        self.limit = limit
        super().__init__(f"value did not stabilize below limit {limit}")


class ParseError(HsmultError):
    """Syntax or validation error in an expression or instance file."""

    def __init__(self, message, line=None, column=None):
        self.line = line
        self.column = column
        where = ""
        if line is not None:
            where = f" at line {line}" + (f", column {column}" if column is not None else "")
        super().__init__(message + where)
