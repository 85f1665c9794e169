"""Exception taxonomy shared by all pointseg modules."""


class PointsegError(Exception):
    """Base class for all errors raised by this package."""


class InvalidInputError(PointsegError):
    """An operation received data violating its preconditions (shape, finiteness, bounds)."""


class InvalidConfigError(PointsegError):
    """A configuration value is out of its legal range or inconsistent."""


class IngestError(PointsegError):
    """A dataset file is missing or malformed; the message names the offending file."""


class TrainingDivergenceError(PointsegError):
    """A non-finite loss or gradient appeared; the message names the parameter or batch."""
