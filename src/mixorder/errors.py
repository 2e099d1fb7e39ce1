"""Exception types shared across the package."""


class MixorderError(Exception):
    """Base class for all package errors."""


class ParameterError(MixorderError):
    """A model was constructed with invalid parameters."""


class WeightError(MixorderError):
    """Mixture weights violate the active weight policy."""


class DomainError(MixorderError):
    """An operation was evaluated outside its domain."""


class InvalidSampleError(MixorderError):
    """A NaN or infinite sample reached the monotonicity classifier."""

    def __init__(self, message, index=None):
        super().__init__(message)
        self.index = index


class InsufficientDomainError(MixorderError):
    """Fewer than three usable points remain after domain restriction."""


class QuadratureError(MixorderError):
    """Adaptive quadrature failed to converge; ``estimate`` is best effort."""

    def __init__(self, message, estimate=None):
        super().__init__(message)
        self.estimate = estimate


class AuditError(MixorderError):
    """Implication audit received verdicts from different pairs or grids."""


class TheoremShapeError(MixorderError):
    """A theorem evaluator was applied to mixtures of the wrong shape."""


class ScenarioFormatError(MixorderError):
    """A scenario file failed to parse or validate."""

    def __init__(self, message, location=None):
        if location:
            message = f"{location}: {message}"
        super().__init__(message)
        self.location = location
