"""The two errors the package raises deliberately, one per exit code.

A ``DataError`` (exit 1) is a problem of the inputs or of what the run
computes from them: a line that does not parse, a record that breaks an
invariant or points at nothing, a number past the float range, a snapshot
that cannot be compared. A ``UsageError`` (exit 2) is a request the interface
does not offer: a bad setting, a missing input path, an unknown sector or
region. The two are siblings, so catching one never catches the other;
``cli.main`` alone turns either into its ``error:`` line and exit code.
"""

from __future__ import annotations


class DataError(Exception):
    """An input or computed value the run cannot accept (exit 1).

    Given a ``path``, the message starts with ``path:line_no:``, or with
    ``path:`` when there is no line number.
    """

    def __init__(self, message: str, path: object = None, line_no: int | None = None) -> None:
        if path is not None:
            where = path if line_no is None else f"{path}:{line_no}"
            message = f"{where}: {message}"
        super().__init__(message)
        self.line_no = line_no


class UsageError(Exception):
    """The caller asked for something the interface does not offer (exit 2)."""
