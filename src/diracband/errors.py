"""Exception types shared across the package."""


class DiracBandError(Exception):
    """Base class for all errors raised by this package."""


class NotAllowedBand(DiracBandError):
    """Dispersion requested on an interval that is not an allowed band."""


class StepCountTooSmall(DiracBandError):
    """Monodromy determinant drifted from 1; increase the step count."""


class ScanWindowTooWide(ValueError):
    """band_edges' window needs more edge-scan points than it may sample."""
