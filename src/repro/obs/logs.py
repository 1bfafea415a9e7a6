"""Structured logging for the ``repro`` package.

Library modules obtain their logger with :func:`get_logger` (always
namespaced under ``repro.``); the package root logger carries a
``NullHandler`` so importing the library never configures global logging
or prints anything — the standard library-citizen contract.

Applications (the CLI's ``--log-level`` flag, the benchmark harness,
tests) opt into output with :func:`configure_logging`, which installs a
single stream handler on the ``repro`` root.  Reconfiguration replaces
that handler rather than stacking duplicates, so repeated CLI runs in
one process (the test suite) stay clean.
"""

from __future__ import annotations

import logging
import sys
from typing import Optional, TextIO

ROOT_LOGGER_NAME = "repro"

#: Accepted ``--log-level`` spellings.
LEVELS = ("debug", "info", "warning", "error", "critical")

_FORMAT = "%(asctime)s %(levelname)-7s %(name)s: %(message)s"

# Importing the library must never emit "No handlers could be found"
# noise nor propagate records into an application's root logger config
# uninvited: the NullHandler absorbs records until someone configures us.
logging.getLogger(ROOT_LOGGER_NAME).addHandler(logging.NullHandler())

#: The handler installed by :func:`configure_logging`, tracked so
#: reconfiguration swaps it instead of stacking duplicates.
_configured_handler: Optional[logging.Handler] = None


def get_logger(name: str) -> logging.Logger:
    """A logger under the ``repro.`` namespace.

    Pass a module's ``__name__`` (already ``repro.*``) or a bare
    suffix such as ``"mining.dovetail"``.
    """
    if name != ROOT_LOGGER_NAME and not name.startswith(ROOT_LOGGER_NAME + "."):
        name = f"{ROOT_LOGGER_NAME}.{name}"
    return logging.getLogger(name)


def parse_level(level: str) -> int:
    """Map a ``--log-level`` spelling to a :mod:`logging` level number."""
    try:
        return getattr(logging, level.upper())
    except AttributeError:
        raise ValueError(
            f"unknown log level {level!r}; choose from {', '.join(LEVELS)}"
        ) from None


def configure_logging(
    level: str = "warning", stream: Optional[TextIO] = None
) -> logging.Logger:
    """Attach one stream handler to the ``repro`` root at ``level``.

    Returns the configured root logger.  Calling again replaces the
    previously installed handler (idempotent across CLI invocations in
    one process).
    """
    global _configured_handler
    root = logging.getLogger(ROOT_LOGGER_NAME)
    if _configured_handler is not None:
        root.removeHandler(_configured_handler)
    handler = logging.StreamHandler(stream if stream is not None else sys.stderr)
    handler.setFormatter(logging.Formatter(_FORMAT))
    root.addHandler(handler)
    root.setLevel(parse_level(level))
    _configured_handler = handler
    return root
