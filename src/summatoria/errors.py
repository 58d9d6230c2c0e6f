"""Exception types shared across the package."""


class BoundError(ValueError):
    """An index or evaluation point lies outside a declared bound."""


class CapacityError(RuntimeError):
    """A request exceeds a configured memory or block-size budget."""


class DegenerateSampleError(ValueError):
    """A sample has zero variance where a spread is required."""


class NumericError(ArithmeticError):
    """A sum or residual is not finite, or an integer-valued sequence is not."""
