"""The staged runtime: event bus, stages, probe registry, sharding.

``repro.runtime`` is the layer the sourcing→scan data path runs on:
:mod:`~repro.runtime.bus` carries typed events between pipeline stages,
:mod:`~repro.runtime.stage` gives stages bounded queues with drop
accounting, :mod:`~repro.runtime.registry` makes the probe set a
campaign parameter, and :mod:`~repro.runtime.sharding` fans scan state
out across independent engines.  See DESIGN.md §3 for the module map.
"""

from repro.runtime.bus import (
    AddressSighted,
    BusStats,
    Event,
    EventBus,
    TargetScanned,
)
from repro.runtime.registry import (
    DEFAULT_PACKET_COST,
    ProbeRegistry,
    ProbeSpec,
    default_registry,
)
from repro.runtime.stage import BoundedQueue, Stage, StageStats

#: Lazy (PEP 562) exports: sharding builds on repro.scan.engine, which
#: itself imports repro.runtime.registry — importing it eagerly here
#: would close an import cycle through this package's __init__.
_LAZY = {"ShardedScanEngine": "repro.runtime.sharding",
         "shard_of": "repro.runtime.sharding"}


def __getattr__(name):
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module_name), name)

__all__ = [
    "AddressSighted",
    "BoundedQueue",
    "BusStats",
    "DEFAULT_PACKET_COST",
    "Event",
    "EventBus",
    "ProbeRegistry",
    "ProbeSpec",
    "ShardedScanEngine",
    "Stage",
    "StageStats",
    "TargetScanned",
    "default_registry",
    "shard_of",
]
