"""The package's three exception types, one per thing a caller can act on.

``GroupAlignError`` is any bad input or setting, and a ``ValueError``, so
callers (and the CLI) catch one class. ``ParseError`` also names the file
(``path``) and, where one is at fault, the 1-based ``line``.
``NonFiniteError`` is raised when a coordinate, drift, loss or gradient
is not finite; mid-optimization its ``trace`` holds the per-step loss
rows gathered before the failure.
"""


class GroupAlignError(ValueError):
    """A bad input or setting."""


class NonFiniteError(GroupAlignError):
    """A value that must be finite is not; ``trace`` holds the losses so far."""

    def __init__(self, message: str, trace=None):
        super().__init__(message)
        self.trace = trace


class ParseError(GroupAlignError):
    """An input file could not be read; ``path`` and ``line`` locate it."""

    def __init__(self, message: str, path=None, line=None):
        where = ""
        if path is not None:
            where = f"{path}: "
        if line is not None:
            where = f"{where}line {line}: "
        super().__init__(f"{where}{message}")
        self.path = path
        self.line = line
