"""Shared exception types."""


class DomainError(ValueError):
    """An argument lies outside the range an operation is certified for."""


class PoleError(ArithmeticError):
    """Division by an interval that contains zero (possible pole)."""


class InconsistencyError(ArithmeticError):
    """Two certified enclosures of one value do not meet: a soundness fault."""


class ParseError(ValueError):
    """Lexical or syntactic error; carries a byte offset when known."""

    def __init__(self, message, position=None):
        super().__init__(message if position is None
                         else f"{message} (at offset {position})")
        self.position = position


class EvalError(ArithmeticError):
    """Interval evaluation failed; carries the offending AST position."""

    def __init__(self, message, position=None):
        super().__init__(message if position is None
                         else f"{message} (expression offset {position})")
        self.position = position
