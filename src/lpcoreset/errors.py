"""Exception types shared across the package."""


class InvalidConfigError(ValueError):
    """Raised for sampler/CLI configurations outside their valid range."""


class InvalidExponentError(InvalidConfigError):
    """Raised when a norm exponent p is below 1, or is not finite where a
    finite p is needed."""


class ZeroRankError(ValueError):
    """Raised when a factorization finds numeric rank zero."""


class StageFailureError(RuntimeError):
    """A sampling stage failed after all retries.

    Carries a ``diagnostics`` dict (stage, seed, attempted ranks, sample
    sizes) so reports can record what went wrong.
    """

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = dict(diagnostics or {})


class MatrixParseError(ValueError):
    """Malformed input file; carries the offending 1-based line number."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line
