"""Exception types shared across the package."""


class DiracBandError(Exception):
    """Base class for all errors raised by this package."""


class DegenerateEnergy(DiracBandError):
    """Energy too close to a point where the closed forms are singular."""


class SingularTransform(DiracBandError):
    """A transformation-function component vanishes at the requested point."""


class NotAllowedBand(DiracBandError):
    """Dispersion requested on an interval that is not an allowed band."""


class StepCountTooSmall(DiracBandError):
    """Monodromy determinant drifted from 1; increase the step count."""


class EvaluationDomainError(DiracBandError):
    """Requested evaluation point leaves a field's domain."""
