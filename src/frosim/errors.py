"""Exception types shared across the package."""


class FrosimError(Exception):
    """Base class for all frosim errors."""


class InvalidParameter(FrosimError, ValueError):
    """A configuration field violates its documented bound."""

    def __init__(self, field: str, message: str, value=None):
        self.field = field
        self.value = value
        detail = f"{field}: {message}"
        if value is not None:
            detail += f" (got {value!r})"
        super().__init__(detail)


class StabilityViolation(FrosimError, ValueError):
    """Grid parameters put the explicit frequency update outside its stable band."""

    def __init__(self, message: str, coefficient=None):
        self.coefficient = coefficient
        super().__init__(message)


class HorizonTooShort(FrosimError, ValueError):
    """Simulation horizon is shorter than one full ROCOF window."""


class CapabilityExceeded(FrosimError, ValueError):
    """Requested injection magnitude is outside the attacker's capability bound."""


class NonMonotoneFeasibility(FrosimError, RuntimeError):
    """A search declined because feasibility is not an up-set in magnitude.

    Synthesis answers every goal exactly, and nothing in the package raises
    it; it stays public for callers that name it.
    """

