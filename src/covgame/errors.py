"""Exception types shared across the library."""


class CoverageError(Exception):
    """Base class for every error raised by this package."""


class FormatError(CoverageError):
    """Malformed interchange, DIMACS, or edge-list input."""


class InvalidModelError(CoverageError):
    """A solver was handed a model that fails validation."""

    def __init__(self, report):
        self.report = report
        super().__init__(f"invalid model: {report.summary()}")


class NotDeterministicError(CoverageError):
    """Game-to-graph erasure needs every player-2 vertex to be forced."""

    def __init__(self, vertex):
        self.vertex = vertex
        super().__init__(
            f"player-2 vertex {vertex!r} does not have exactly one successor"
        )


class MOutOfRangeError(CoverageError):
    """Requested coverage target outside 0..|AP| (or a negative step bound)."""


class NotRecurrentError(CoverageError):
    """Operation defined only for controllably recurrent models. `vertex`
    names the reachable vertex found unable to return, if any."""

    def __init__(self, message, vertex=None):
        self.vertex = vertex
        super().__init__(message)


class BudgetExceededError(CoverageError):
    """An exhaustive search hit its expansion budget; no answer produced."""


class ApCapExceededError(BudgetExceededError):
    """Proposition universe larger than the configured product cap."""


class EmptyEdgeSetError(CoverageError):
    """Vertex-cover gadget input has no edges."""
