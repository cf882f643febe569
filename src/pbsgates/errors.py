"""Exception types shared across the package."""


class PbsGatesError(Exception):
    """Base class for all errors raised by this package."""


class ModeCollision(PbsGatesError):
    """An element output would land on a mode already carrying unrelated photons."""


class NonPhysicalInput(PbsGatesError):
    """Circuit input state is not normalized."""


class NonNormalized(PbsGatesError):
    """Fidelity requested between states that are not normalized."""


class TruncationTooSmall(PbsGatesError):
    """Dense basis cannot hold the photon number required."""


class CircuitError(PbsGatesError):
    """Base class for circuit-description problems, with optional location.

    ``entry`` is the spec entry at fault, as :func:`pbsgates.circuit.validate`
    names it when a :class:`pbsgates.circuit.CircuitSpec` is built.
    """

    def __init__(self, message, line=None, column=None, entry=None):
        self.line = line
        self.column = column
        self.entry = entry
        if line is not None:
            message = f"line {line}, column {column or 1}: {message}"
        super().__init__(message)


class CircuitSyntaxError(CircuitError):
    """Malformed circuit-description text."""


class OverlappingModes(CircuitError):
    """Two inputs, or the two sides of a tensor product, share a spatial mode."""


class UndeclaredMode(CircuitError):
    """A port, detector, or output names an undeclared mode; a rule an unknown label."""


class DetectedModeReuse(CircuitError):
    """A detected (consumed) mode is detected again, corrected or listed as an output."""


class MissingOutput(CircuitError):
    """Circuit declares no output modes, or leaves photons off its outputs."""
