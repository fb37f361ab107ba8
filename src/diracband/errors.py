"""Exception types shared across the package."""


class DiracBandError(Exception):
    """Base class for all errors raised by this package."""


class DegenerateEnergy(DiracBandError):
    """Energy within DEGENERATE_EPS of |E| = lambda, the removable pole of
    the closed-form solutions U(x; E); the discriminant is regular there."""


class NotAllowedBand(DiracBandError):
    """Dispersion requested on an interval that is not an allowed band."""


class StepCountTooSmall(DiracBandError):
    """Monodromy determinant drifted from 1; increase the step count."""
