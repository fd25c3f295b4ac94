"""Exception types shared across the toolkit."""


class ProofOptError(Exception):
    """Base class for all library errors."""


class NoProofDelimiter(ProofOptError):
    """The text contains neither ':= by' nor ':=', so no proof body can be found."""


class InvalidK(ProofOptError):
    """k is outside 1..n for the given sample set."""


class ZeroOriginal(ProofOptError):
    """The original proof has length 0; relative metrics are undefined."""


class EmptyDataset(ProofOptError):
    """An aggregate was requested over zero records."""


class BackendUnavailable(ProofOptError):
    """A remote backend could not be reached after the configured retries."""


class NotValidInput(ProofOptError):
    """An operation that requires a valid proof was given an invalid one."""


class TemplateMissing(ProofOptError):
    """No prompt template is registered under the requested id."""


class ConfigError(ProofOptError):
    """A run or backend configuration is malformed."""


class MalformedInput(ProofOptError, ValueError):
    """An input file holds a line that is not JSON or a record whose field is
    missing or of the wrong type."""
