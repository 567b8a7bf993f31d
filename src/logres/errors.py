"""Exception types shared across the package."""


class LogresError(Exception):
    """Base class for all package errors."""


class ParseError(LogresError):
    """Malformed polynomial text. Carries the 0-based offset of the failure."""

    def __init__(self, message, pos):
        super().__init__(f"{message} (at offset {pos})")
        self.pos = pos


class InputError(LogresError):
    """Invalid mathematical input (h not reduced at the origin, bad
    factorization, ...)."""


class EngineError(LogresError):
    """Internal contract violation: a certificate failed or a search budget
    was exhausted where theory guarantees success."""


class ConsistencyError(LogresError):
    """A proven equivalence was violated by computed verdicts.  This always
    indicates an implementation bug, never new mathematics."""
