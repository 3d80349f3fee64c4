"""Lightweight diagnostics collection.

Numerical guard rails (spectral floors, tie-breaks, triangle tolerance
breaches, truncation energy) do not abort a run; they record an event here.
The command line front-end collects events into the run manifest, library
users can do the same with :func:`collect`.
"""

from __future__ import annotations

import logging
from contextlib import contextmanager
from dataclasses import dataclass

logger = logging.getLogger("polyscope")

_sinks: list[list["Event"]] = []


@dataclass(frozen=True)
class Event:
    category: str
    message: str


def record(category: str, message: str) -> None:
    """Record a diagnostic event on every active collector."""
    event = Event(category, message)
    logger.debug("%s: %s", category, message)
    for sink in _sinks:
        sink.append(event)


@contextmanager
def collect():
    """Collect diagnostic events emitted inside the block.

    Yields a list that fills up as events are recorded. Collectors nest; an
    event lands in every collector active at the time of recording.
    """
    sink: list[Event] = []
    _sinks.append(sink)
    try:
        yield sink
    finally:
        # by identity: two empty collectors compare equal
        del _sinks[next(i for i, s in enumerate(_sinks) if s is sink)]
