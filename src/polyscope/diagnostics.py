"""Lightweight diagnostics collection.

Numerical guard rails (spectral floors, tie-breaks, triangle tolerance
breaches, truncation energy) do not abort a run; they record an event here.
The command line front-end collects events into the run manifest, library
users can do the same with :func:`collect`.  A result computed once and
kept, such as a spectral matrix's floored auto-spectra, keeps its events
with it through :func:`memo`: each collector that reads it records them
once, whichever call or thread computed it.
"""

from __future__ import annotations

import logging
import threading
from contextlib import contextmanager
from contextvars import ContextVar, copy_context
from dataclasses import dataclass

logger = logging.getLogger("polyscope")

#: The active collectors, each a pair: its event list and the ids of the
#: kept events :func:`memo` has given it.
_sinks: ContextVar[tuple[tuple, ...]] = ContextVar("sinks", default=())

#: Held while :func:`memo` computes or hands out, so concurrent first reads
#: share one computation; re-entered when one kept result reads another.
_memo_lock = threading.RLock()


@dataclass(frozen=True)
class Event:
    category: str
    message: str


def record(category: str, message: str) -> None:
    """Record a diagnostic event on every active collector."""
    event = Event(category, message)
    logger.debug("%s: %s", category, message)
    for sink, _ in _sinks.get():
        sink.append(event)


@contextmanager
def collect():
    """Collect diagnostic events emitted inside the block.

    Yields a list that fills up as events are recorded. Collectors nest; an
    event lands in every collector active at the time of recording.  A
    result kept by :func:`memo` gives its events to each collector once,
    on the collector's first read of it.  Collectors are context-local:
    other threads see them in a copied context.
    """
    sink: list[Event] = []
    token = _sinks.set(_sinks.get() + ((sink, set()),))
    try:
        yield sink
    finally:
        _sinks.reset(token)


def memo(store: dict, key, compute):
    """``compute()``, run once per ``store[key]`` and kept there with the
    events it recorded; every read gives each active collector the kept
    events it has not had yet, so a collector sees them once, from its
    first read, whichever call or thread computed the value.

    ``compute`` runs in a copy of the context whose one collector is
    private, so its events go nowhere else; a kept result it reads gives
    that collector its events.  Kept events stay alive in ``store``, so
    their ids stay unique.
    """
    entry = store.get(key)
    if entry is not None and not entry[1]:      # nothing to compute or give
        return entry[0]
    with _memo_lock:
        if key not in store:
            private, context = [], copy_context()
            context.run(_sinks.set, ((private, set()),))
            store[key] = context.run(compute), private
        value, events = store[key]
        for sink, given in _sinks.get():   # events holds each event once
            sink.extend(event for event in events if id(event) not in given)
            given.update(map(id, events))
    return value
