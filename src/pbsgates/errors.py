"""Exception types shared across the package."""


class PbsGatesError(Exception):
    """Base class for all errors raised by this package."""


class OverlappingModes(PbsGatesError):
    """Tensor product of two states that share a spatial mode label."""


class ModeCollision(PbsGatesError):
    """An element output would land on a mode already carrying unrelated photons."""


class NonPhysicalInput(PbsGatesError):
    """Circuit input state is not normalized."""


class NonNormalized(PbsGatesError):
    """Fidelity requested between states that are not normalized."""


class TruncationTooSmall(PbsGatesError):
    """Dense basis cannot hold the photon number required."""


class CircuitError(PbsGatesError):
    """Base class for circuit-description problems, with optional location."""

    def __init__(self, message, line=None, column=None):
        self.line = line
        self.column = column
        if line is not None:
            message = f"line {line}, column {column or 1}: {message}"
        super().__init__(message)


class CircuitSyntaxError(CircuitError):
    """Malformed circuit-description text."""


class UndeclaredMode(CircuitError):
    """A port, detector, or output references a mode that was never declared."""


class DetectedModeReuse(CircuitError):
    """A detected (consumed) mode is referenced by a later element or output."""


class MissingOutput(CircuitError):
    """Circuit declares no output modes, or leaves photons off its outputs."""
