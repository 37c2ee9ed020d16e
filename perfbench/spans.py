"""Outside-in span tracing for the benchmark's traced runs.

The tracer times each layer's public entry point from outside the
program: it replaces a class attribute (or the module binding a caller
looks the function up by) with a wrapper that records one span per
call, and puts the original back afterwards.  Nothing in ``src/`` is
edited, so an untraced run executes exactly the shipped code.

A span is ``(id, name, start, end, parent, weight)``: ``parent`` is the
id of the span open on the same thread when the call began (0 at top
level) and ``weight`` an optional count taken from the call (days
advanced, targets scanned).  Calls that return a generator are timed
from the call until the generator is exhausted or closed, which is the
time the caller waits for it.  Spans stay in memory until
:meth:`Tracer.dump`.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import itertools
import json
import threading
import types
from collections import defaultdict
from time import perf_counter
from typing import Callable, Dict, Iterable, List, Optional, Tuple

Span = Tuple[int, str, float, float, int, float]


def _days_arg(args, kwargs, result) -> float:
    return kwargs.get("days", args[1] if len(args) > 1 else 0)


def _targets_seen(args, kwargs, result) -> float:
    return result.targets_seen


def _replaying(writer, *args, **kwargs) -> bool:
    return writer.mode == "verify"


#: (module, class or None for a module binding, attribute, span name,
#: weight function, predicate).  A module binding is patched where the
#: caller looks it up, which is why ``build_world`` appears twice.
PATCHES = (
    ("repro.core.pipeline", None, "build_world", "world.build",
     None, None),
    ("repro.service.daemon", None, "build_world", "world.build",
     None, None),
    ("repro.world.churn", "ChurnModel", "step_day", "world.churn",
     None, None),
    ("repro.core.pipeline", None, "build_hitlist", "world.hitlist_build",
     None, None),
    ("repro.service.daemon", None, "build_hitlist", "world.hitlist_build",
     None, None),
    ("repro.core.campaign", "CollectionCampaign", "advance_days",
     "campaign.advance_days", _days_arg, None),
    ("repro.scan.engine", "ScanEngine", "feed", "engine.feed", None, None),
    ("repro.runtime.sharding", "ShardedScanEngine", "feed", "engine.feed",
     None, None),
    ("repro.scan.engine", "ScanEngine", "run", "engine.run",
     _targets_seen, None),
    ("repro.runtime.sharding", "ShardedScanEngine", "run", "engine.run",
     _targets_seen, None),
    ("repro.api", None, "run_analysis", "analysis.run", None, None),
    ("repro.store.wal", "WalWriter", "append", "store.append", None, None),
    ("repro.store.wal", "WalWriter", "sync", "store.sync", None, None),
    ("repro.store.writer", "StoreWriter", "checkpoint", "store.checkpoint",
     None, None),
    ("repro.store.writer", "StoreWriter", "emit", "store.replay",
     None, _replaying),
    ("repro.store.runstore", "RunStore", "recover", "store.recover",
     None, None),
    ("repro.service.daemon", "CampaignDaemon", "tick", "daemon.tick",
     None, None),
    ("repro.service.frontend", "QueryService", "query", "query.query",
     None, None),
    ("repro.service.query", "WindowedStudyReader", "horizon",
     "query.horizon", None, None),
    ("repro.service.query", "WindowedStudyReader", "window",
     "query.window", None, None),
    ("repro.ntp.service", None, "control_service_for", "ntp.seed",
     None, None),
    ("repro.net.simnet", "Network", "udp_request_multi",
     "simnet.udp_multi", None, None),
)

SCAN_RUNS = ("engine.run",)


class Tracer:
    """Records spans for every entry point in :data:`PATCHES`."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._restore: List[Tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, fn: Callable, name: str,
              weight: Optional[Callable], when: Optional[Callable]):
        spans = self.spans
        ids = self._ids
        current = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if when is not None and not when(*args, **kwargs):
                return fn(*args, **kwargs)
            stack = current()
            parent = stack[-1] if stack else 0
            span_id = next(ids)
            start = perf_counter()
            stack.append(span_id)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                stack.pop()
                spans.append((span_id, name, start, perf_counter(),
                              parent, 0))
                raise
            stack.pop()
            if isinstance(result, types.GeneratorType):
                return _timed_iteration(result, spans, span_id, name,
                                        start, parent)
            value = weight(args, kwargs, result) if weight else 0
            spans.append((span_id, name, start, perf_counter(), parent,
                          value))
            return result

        return traced

    # -- installation ------------------------------------------------------

    def install(self) -> "Tracer":
        """Patch every entry point; a missing one raises at once."""
        for module_name, owner_name, attribute, name, weight, when in PATCHES:
            module = importlib.import_module(module_name)
            owner = module if owner_name is None else getattr(module,
                                                              owner_name)
            original = (owner.__dict__[attribute] if owner_name is not None
                        else getattr(owner, attribute))
            if isinstance(original, classmethod):
                patched = classmethod(self._wrap(original.__func__, name,
                                                 weight, when))
            else:
                patched = self._wrap(original, name, weight, when)
            setattr(owner, attribute, patched)
            self._restore.append((owner, attribute, original))
        return self

    def restore(self) -> None:
        """Put every original attribute back (idempotent)."""
        while self._restore:
            owner, attribute, original = self._restore.pop()
            setattr(owner, attribute, original)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc_info) -> None:
        self.restore()

    def dump(self, path: str) -> None:
        """Write every span as one gzipped JSON line."""
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            for span_id, name, start, end, parent, weight in self.spans:
                handle.write(json.dumps(
                    {"id": span_id, "name": name, "start": start,
                     "end": end, "parent": parent, "weight": weight}) + "\n")


def _timed_iteration(generator, spans, span_id, name, start, parent):
    try:
        yield from generator
    finally:
        spans.append((span_id, name, start, perf_counter(), parent, 0))


def load(path: str) -> List[Span]:
    """Spans written by :meth:`Tracer.dump`."""
    with gzip.open(path, "rt", encoding="utf-8") as handle:
        return [(row["id"], row["name"], row["start"], row["end"],
                 row["parent"], row["weight"])
                for row in map(json.loads, handle)]


def fired(spans: Iterable[Span]) -> Dict[str, int]:
    """Span name -> number of spans recorded."""
    counts: Dict[str, int] = defaultdict(int)
    for span in spans:
        counts[span[1]] += 1
    return dict(counts)


def layer_metrics(spans: List[Span]) -> Dict[str, float]:
    """The span-derived per-layer metrics of one process's spans.

    Same-named spans nested in each other (a sharded engine's ``feed``
    calling its shard's ``feed``) count once, at the outermost level.
    Self time is a span's duration minus its direct children's.
    """
    by_id = {span[0]: span for span in spans}
    children = defaultdict(float)
    for span in spans:
        children[span[4]] += span[3] - span[2]

    def ancestors(span):
        parent = by_id.get(span[4])
        while parent is not None:
            yield parent[1]
            parent = by_id.get(parent[4])

    def outermost(names):
        return [span for span in spans if span[1] in names
                and not any(name in names for name in ancestors(span))]

    def total(names):
        return sum(span[3] - span[2] for span in outermost(names))

    def self_time(names):
        return sum(span[3] - span[2] - children[span[0]]
                   for span in outermost(names))

    days = outermost(("campaign.advance_days",))
    realtime = []
    for span in outermost(("engine.feed",)):
        above = set(ancestors(span))
        if "campaign.advance_days" in above and not above & set(SCAN_RUNS):
            realtime.append(span)
    runs = outermost(SCAN_RUNS)
    counts = fired(spans)
    return {
        "world.build_s": total(("world.build",)),
        "world.churn_s": total(("world.churn",)),
        "world.hitlist_build_s": total(("world.hitlist_build",)),
        "campaign.day_self_s": self_time(("campaign.advance_days",)),
        "campaign.days": sum(span[5] for span in days),
        "realtime.feed_s": sum(span[3] - span[2] for span in realtime),
        "realtime.feeds": len(realtime),
        "scan.run_s": sum(span[3] - span[2] for span in runs),
        "scan.targets": sum(span[5] for span in runs),
        "analysis.run_s": total(("analysis.run",)),
        "store.append_s": total(("store.append",)),
        "store.appends": counts.get("store.append", 0),
        "store.sync_s": total(("store.sync",)),
        "store.syncs": counts.get("store.sync", 0),
        "store.checkpoint_s": total(("store.checkpoint",)),
        "store.recover_s": total(("store.recover",)),
        "store.replayed": counts.get("store.replay", 0),
        "daemon.tick_s": total(("daemon.tick",)),
        "query.query_s": total(("query.query",)),
        "query.horizon_s": total(("query.horizon",)),
        "query.window_s": total(("query.window",)),
        "query.frames_built": counts.get("query.window", 0),
        "ntp.seed_s": total(("ntp.seed",)),
        "simnet.udp_multi_s": total(("simnet.udp_multi",)),
        "simnet.udp_multi_calls": counts.get("simnet.udp_multi", 0),
    }
