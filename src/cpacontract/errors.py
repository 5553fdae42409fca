"""Exception hierarchy shared across the package."""


class CpaError(Exception):
    """Base class for all package errors."""


class ExpressionSyntaxError(CpaError):
    """Malformed system text; carries the character position of the fault."""

    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class UnknownSymbolError(CpaError):
    """Expression references a symbol outside t, x1..xn and the whitelist."""


class DimensionMismatchError(CpaError):
    """Declared dimension inconsistent with the supplied data."""


class DomainError(CpaError):
    """Non-finite intermediate during evaluation, or interval through a pole."""


class UnsupportedExpressionError(CpaError):
    """No interval rule applies and no user-supplied bound is available."""


class DisconnectedRegionError(CpaError):
    """Region boxes do not form a connected-interior union."""


class EmptySelectionError(CpaError):
    """No simplex of the scaled lattice meets the region interior."""


class SingularSimplexError(CpaError):
    """Vertices affinely dependent or shape matrix numerically singular."""


class MissingBoundsError(CpaError):
    """Simplex derivative-bound caches are required but absent."""


class EmptyComplexError(CpaError):
    """Operation requires a non-empty simplicial complex."""


class NotFeasibleInputError(CpaError):
    """Operation requires a Feasible or Optimal solver result."""


class NonFiniteStateError(CpaError):
    """Integration produced a non-finite state."""


class NoConvergenceError(CpaError):
    """Iteration failed to converge within the allotted budget."""


class LeftDomainError(CpaError):
    """A probed trajectory left the triangulated domain."""


class InputError(CpaError):
    """Invalid configuration or certificate input."""
