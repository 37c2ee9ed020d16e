"""A typed, synchronous event bus — the spine of the staged runtime.

The paper's defining mechanism is *real-time* coupling: every address
the NTP servers source is handed to the scanner immediately (Section 6:
batching sourced addresses "is not useful" because end-user addresses
churn too fast).  The seed implementation wired that coupling as an
ad-hoc callback list on :class:`~repro.core.collector.CollectedDataset`.
This module replaces it with an explicit publish/subscribe bus so the
sourcing→scan path is a chain of observable, testable stages:

* producers (`CaptureServer` → `CollectedDataset`) publish typed events;
* consumers (`RealTimeScanQueue`, auditing taps, future stages) subscribe
  by event *type* and never know who produced the event;
* delivery is synchronous and in subscription order, which keeps the
  whole pipeline deterministic under a fixed seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Type

from repro.obs.metrics import Counter, current_registry


@dataclass(frozen=True)
class Event:
    """Base class for bus events (subclasses are frozen dataclasses)."""


@dataclass(frozen=True)
class AddressSighted(Event):
    """A client address was observed for the first time.

    Published by :class:`~repro.core.collector.CollectedDataset` at the
    moment of first sighting — the trigger of the paper's real-time
    scans.
    """

    address: int
    time: float
    server_location: str


@dataclass(frozen=True)
class TargetScanned(Event):
    """A target finished its probe sweep (for auditing/monitoring taps)."""

    address: int
    time: float
    responsive: bool


#: An event handler; subscribes to exactly one event type.
Handler = Callable[[Event], None]


@dataclass
class BusStats:
    """Counters for reporting and tests."""

    published: int = 0
    delivered: int = 0
    #: Events published with no subscriber for their type.
    unheard: int = 0


class EventBus:
    """Synchronous publish/subscribe dispatch keyed by event type.

    Handlers for one type run in subscription order; publishing is
    re-entrant (a handler may publish follow-up events).
    """

    def __init__(self) -> None:
        self._subscribers: Dict[Type[Event], List[Handler]] = {}
        self.stats = BusStats()
        self._metrics = current_registry()
        #: Per-event-type publish counters, cached so the hot publish
        #: path pays one dict lookup, not a registry get-or-create.
        self._type_counters: Dict[Type[Event], Counter] = {}

    def subscribe(self, event_type: Type[Event],
                  handler: Handler) -> Callable[[], None]:
        """Register ``handler`` for ``event_type``; returns an unsubscriber."""
        if not (isinstance(event_type, type) and issubclass(event_type, Event)):
            raise TypeError(f"not an Event type: {event_type!r}")
        handlers = self._subscribers.setdefault(event_type, [])
        handlers.append(handler)

        def unsubscribe() -> None:
            if handler in handlers:
                handlers.remove(handler)

        return unsubscribe

    def publish(self, event: Event) -> int:
        """Deliver ``event`` to its type's subscribers; returns the count."""
        self.stats.published += 1
        event_type = type(event)
        counter = self._type_counters.get(event_type)
        if counter is None:
            counter = self._metrics.counter("bus_events_total",
                                            event=event_type.__name__)
            self._type_counters[event_type] = counter
        counter.inc()
        handlers = self._subscribers.get(type(event))
        if not handlers:
            self.stats.unheard += 1
            return 0
        # Copy so handlers may (un)subscribe during delivery.
        for handler in list(handlers):
            handler(event)
        delivered = len(handlers)
        self.stats.delivered += delivered
        return delivered
