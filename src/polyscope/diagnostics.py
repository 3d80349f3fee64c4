"""Lightweight diagnostics collection.

Numerical guard rails (spectral floors, tie-breaks, triangle tolerance
breaches, truncation energy) do not abort a run; they record an event here.
The command line front-end collects events into the run manifest, library
users can do the same with :func:`collect`.
"""

from __future__ import annotations

import logging
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass

logger = logging.getLogger("polyscope")

_sinks: ContextVar[tuple[list["Event"], ...]] = ContextVar("sinks", default=())


@dataclass(frozen=True)
class Event:
    category: str
    message: str


def record(category: str, message: str) -> None:
    """Record a diagnostic event on every active collector."""
    event = Event(category, message)
    logger.debug("%s: %s", category, message)
    for sink in _sinks.get():
        sink.append(event)


@contextmanager
def collect():
    """Collect diagnostic events emitted inside the block.

    Yields a list that fills up as events are recorded. Collectors nest; an
    event lands in every collector active at the time of recording.
    Collectors are context-local: other threads see them in a copied context.
    """
    sink: list[Event] = []
    token = _sinks.set(_sinks.get() + (sink,))
    try:
        yield sink
    finally:
        _sinks.reset(token)
