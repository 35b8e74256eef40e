"""Exception hierarchy shared by all mdd modules."""


class MddError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(MddError, ValueError):
    """Invalid user input: thresholds out of range, bad flags, malformed requests."""


class SchemaMismatchError(ValidationError):
    """An attribute is unknown to the schema or attribute sets do not line up."""


class InsufficientDataError(ValidationError):
    """The relation is too small to form any tuple pair."""


class CandidateBudgetError(MddError):
    """The candidate pattern space exceeds the configured budget."""


class DistributionIOError(MddError):
    """A distribution cache file is missing, corrupt, or from an unknown version."""
