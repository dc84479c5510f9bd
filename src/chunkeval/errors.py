"""Exception types shared across the package.

Everything derives from DataError so the CLI can map bad input data to a
single exit code (3) while genuine bugs still surface as tracebacks.
"""


class DataError(Exception):
    """Base class for problems with input data."""


class ParseError(DataError):
    """A malformed record in an annotation or score file."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class OverlapError(DataError):
    """Two edits of the same annotator overlap, or insert at the same point."""


class BoundsError(DataError):
    """An edit interval lies outside the source sentence."""


class LengthMismatchError(DataError):
    """Parallel inputs disagree on the number of sentences."""


class EmptySourceError(DataError):
    """A source sentence tokenized to nothing."""


class NoChunksError(DataError):
    """No changed chunks exist, so the average chunk length is undefined."""


class TooFewAnnotatorsError(DataError):
    """Boundary statistics need at least two annotators per sentence."""


class DegenerateError(DataError):
    """Correlation is undefined: fewer than 3 systems, or constant scores."""


class SystemMismatchError(DataError):
    """Metric and human score tables disagree on the set of systems."""

    def __init__(self, only_in_metric, only_in_human):
        self.only_in_metric = sorted(only_in_metric)
        self.only_in_human = sorted(only_in_human)
        super().__init__(
            "system sets differ: only in metric table: "
            f"{self.only_in_metric}; only in human table: {self.only_in_human}"
        )
