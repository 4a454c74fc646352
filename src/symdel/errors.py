"""Exception types shared across the checker."""


class SymdelError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(SymdelError):
    """Malformed formula or scenario text."""

    def __init__(self, message, line=None, col=None):
        self.line = line
        self.col = col
        where = ""
        if line is not None:
            where = f"line {line}"
            if col is not None:
                where += f", col {col}"
            where += ": "
        super().__init__(where + message)


class CompileError(SymdelError):
    """Formula cannot be turned into a boolean function in this context."""


class VocabularyError(SymdelError):
    """Vocabulary constraint violated (disjointness, membership, agents)."""


class EvalError(SymdelError):
    """Unknown atom or agent encountered during evaluation."""


class NotExecutable(SymdelError):
    """The event's precondition fails at the actual state."""


class NotDetermined(SymdelError):
    """A variable scheduled for removal is not fixed by the state law."""
