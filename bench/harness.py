"""Run one CLI subcommand in-process, as a fresh process would, and time it.

``main`` is called with ``standalone_mode=False``: click returns instead
of exiting, ``sys.exit`` from the command surfaces as ``SystemExit`` (its
code is the exit code), and anything else escaping is what a separate
process would print as a traceback with exit code 1.
"""

from __future__ import annotations

import contextlib
import io
import logging
import os
import time
from dataclasses import dataclass

# The CLI's own record format (``logging.basicConfig`` in ``main``).
CLI_LOG_FORMAT = "%(levelname)s: %(message)s"


class CountingHandler(logging.StreamHandler):
    """Formats, writes and counts every record like the CLI would, to os.devnull.

    Installed on the root logger before the first operation, so the
    ``basicConfig`` call in ``main`` finds a handler and does nothing.
    Formatting stays in the timed work; only the terminal is left out.
    """

    def __init__(self, sink):
        super().__init__(sink)
        self.setFormatter(logging.Formatter(CLI_LOG_FORMAT))
        self.warnings = 0  # the root level is WARNING, so this is every record

    def emit(self, record: logging.LogRecord) -> None:
        self.warnings += 1
        super().emit(record)


@dataclass
class Outcome:
    exit_code: int
    stdout: str
    stderr: str
    seconds: float
    exception: str | None = None  # type name of an uncaught exception


class CliRunner:
    def __init__(self, main):
        self.main = main
        self._sink = open(os.devnull, "w", encoding="utf-8")
        self.log = CountingHandler(self._sink)
        root = logging.getLogger()
        root.addHandler(self.log)
        root.setLevel(logging.WARNING)

    def close(self) -> None:
        logging.getLogger().removeHandler(self.log)
        self._sink.close()

    def run(self, args: list[str]) -> Outcome:
        out, err = io.StringIO(), io.StringIO()
        exception = None
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                self.main.main(args=args, prog_name="attackquant", standalone_mode=False)
                code = 0
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
            except Exception as exc:  # a traceback and exit 1 in a real process
                code, exception = 1, type(exc).__name__
            seconds = time.perf_counter() - start
        return Outcome(code, out.getvalue(), err.getvalue(), seconds, exception)
