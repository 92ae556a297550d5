"""Exception hierarchy shared across the package, and the one JSON reader.

Each subclass corresponds to one CLI exit code, so commands can map a
caught exception straight to a process status.
"""

from __future__ import annotations

import json
from contextlib import nullcontext
from typing import IO, Any, ContextManager


class AttackQuantError(Exception):
    """Base class for all errors raised by this package."""

    exit_code = 1


class ParseError(AttackQuantError):
    """A file or input string could not be parsed at all."""

    exit_code = 2


class InvariantError(AttackQuantError):
    """Structurally parseable input violating a documented invariant."""

    exit_code = 3


class UnknownEntityError(AttackQuantError):
    """A referenced campaign, tactic, technique, or node does not exist."""

    exit_code = 4


class MissingAttributionError(AttackQuantError):
    """A metric evaluation needs a leaf value that was never supplied."""

    exit_code = 5


class FormulaError(AttackQuantError):
    """A query formula failed to parse, bind, or satisfy a precondition."""

    exit_code = 6

    def __init__(self, message: str, pos: int | None = None):
        super().__init__(message if pos is None else f"{message} (at position {pos})")


class UndefinedIndexError(AttackQuantError):
    """A campaign has no recorded usage, so its index is undefined."""

    exit_code = 3


def _opened(target: str | IO[str], mode: str = "r",
            newline: str | None = None) -> ContextManager[IO[str]]:
    """An open text file as it is, or a path opened as UTF-8 and closed afterwards."""
    if isinstance(target, str):
        return open(target, mode, encoding="utf-8", newline=newline)
    return nullcontext(target)


def read_json(source: str | IO[str], what: str) -> Any:
    """JSON from a path or open text file; undecodable or too deeply nested is a ParseError."""
    with _opened(source) as fh:
        try:
            return json.load(fh)
        except ValueError as exc:
            raise ParseError(f"{what} is not valid JSON: {exc}") from exc
        except RecursionError:
            raise ParseError(f"{what} is nested too deeply to read") from None
