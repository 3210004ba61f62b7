"""Exception types shared across the library."""


class DemonError(Exception):
    """Base class for all library errors."""


class ConflictingObservation(DemonError):
    """The same proposition was reported with incompatible values or owners."""


class UndefinedRound(DemonError):
    """An EHE was queried at a round it does not encode."""


class AutomatonMismatch(DemonError):
    """Two EHEs built from different automata were merged."""


class RoundBudgetExceeded(DemonError):
    """The decentralized-semantics recursion did not terminate (cyclic references)."""


class NoAtomicPropositions(DemonError):
    """A choreography placement was requested for a formula without propositions."""


class IncompleteEvent(DemonError):
    """Progression was applied with a memory that misses some propositions."""


class StateCapExceeded(DemonError):
    """Automaton synthesis exceeded the configured state cap."""


class IncompatiblePlacement(DemonError):
    """A generated monitor network cannot be deployed on the system graph."""


class InvalidParameters(DemonError):
    """A configuration value is outside its valid range."""


class ParseError(DemonError):
    """A text input (expression, formula, or file) could not be parsed."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class SpecificationError(DemonError):
    """A specification file or object violates a structural invariant."""
