"""Exception types shared across the package."""


class SubalgError(Exception):
    """Base class for every error raised by this package."""


class DimensionMismatch(SubalgError):
    """Operands have different matrix sizes or coordinate lengths."""


class FieldMismatch(SubalgError):
    """Operands live over different scalar fields."""


class IndexOutOfRange(SubalgError):
    """A 1-based matrix index falls outside 1..n."""


class InvalidParams(SubalgError):
    """Construction parameters violate one of the defining inequalities."""


class UnknownCoefficientKey(SubalgError):
    """A coefficient map contains a key outside the valid template."""


class EmptySystem(SubalgError):
    """A generating system has no members."""


class NotGenerating(SubalgError):
    """The span chain of a system stabilizes below the requested target."""


class NotASubalgebra(SubalgError):
    """A subspace expected to be multiplicatively closed is not."""


class BudgetExceeded(SubalgError):
    """Word enumeration would exceed the configured budget."""


class SamplingExhausted(SubalgError):
    """Random system sampling hit the rejection cap without success."""


class NotLocalForm(SubalgError):
    """An algebra is not of the shape scalars-plus-nilpotent-complement."""


class NotNilpotent(SubalgError):
    """Power spans of a subspace stop shrinking before reaching zero."""


class InvalidGeneratorFile(SubalgError):
    """A generator-set file fails schema or consistency validation."""
