"""Sharded scan engines: address-hash fan-out over N engines.

One global engine serializes every piece of scan state (cool-down map,
stats, result buckets) behind a single object — the shape the ROADMAP
says to refactor away from.  :class:`ShardedScanEngine` keeps the
engine's exact external contract while partitioning that state across
``shards`` independent :class:`~repro.scan.engine.ScanEngine` instances
keyed by a deterministic address hash:

* each shard owns a *small* cool-down map and result set (cheaper
  lookups, independently prunable);
* targets are scanned at feed time in arrival order, so under a fixed
  seed the merged results are byte-identical in totals to a
  single-engine run (the golden determinism tests pin this);
* :meth:`run` merges per-shard results deterministically in shard
  order via :meth:`ScanResults.merged`.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Iterable, List, Optional

from repro.net.simnet import Network
from repro.runtime.registry import ProbeRegistry
from repro.scan.engine import EngineConfig, EngineStats, ScanEngine
from repro.scan.ethics import EthicsPolicy
from repro.scan.result import ScanResults

#: SplitMix64 finalizer constants: spread structured IPv6 addresses
#: (shared /64s, strided IIDs) evenly across shards.  The full
#: finalizer matters — a single multiply-xorshift left the low output
#: bits a function of only the low input bits, so 2^32-strided
#: addresses (not exotic in /96-granular allocations) all landed on one
#: shard.  The property tests pin the stronger behaviour.
_HASH_MULTIPLIER = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_MASK64 = (1 << 64) - 1


def shard_of(address: int, shards: int) -> int:
    """Deterministic shard index of a 128-bit address."""
    mixed = ((address ^ (address >> 64)) * _HASH_MULTIPLIER) & _MASK64
    mixed = ((mixed ^ (mixed >> 30)) * _MIX1) & _MASK64
    mixed = ((mixed ^ (mixed >> 27)) * _MIX2) & _MASK64
    mixed ^= mixed >> 31
    return mixed % shards


class ShardedScanEngine:
    """Fans targets out to per-shard engines, merging results.

    Drop-in for :class:`ScanEngine` wherever one is fed targets
    (``feed``/``run``/``scan_address``); campaigns opt in via
    ``ExperimentConfig.scan_shards`` or construct one directly.
    """

    def __init__(self, network: Network, source: int,
                 config: Optional[EngineConfig] = None,
                 ethics: Optional[EthicsPolicy] = None,
                 registry: Optional[ProbeRegistry] = None,
                 *, shards: int = 4, name: str = "engine") -> None:
        if shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        self.network = network
        self.source = source
        self.config = config or EngineConfig()
        self.ethics = ethics
        self.shards = shards
        self.name = name
        #: Shard engines share config, ethics and registry; their seeds
        #: only feed politeness jitter (driving mode), so embedded-mode
        #: results are identical to a single engine's regardless.  Each
        #: shard carries its own metric label, so the registry exposes
        #: the per-shard load balance directly.
        self.engines: List[ScanEngine] = [
            ScanEngine(network, source,
                       replace(self.config, seed=self.config.seed ^ index),
                       ethics, registry, name=f"{name}/shard{index}")
            for index in range(shards)
        ]
        self.registry = self.engines[0].registry

    def engine_for(self, target: int) -> ScanEngine:
        return self.engines[shard_of(target, self.shards)]

    def attach_store(self, writer, *, label: str) -> None:
        """Fan the store taps out: every shard logs under its own
        engine name (``<name>/shardN``), so recovery rebuilds each
        shard's cool-down map independently."""
        for engine in self.engines:
            engine.attach_store(writer, label=label)

    def cooldown_snapshots(self):
        """Per-shard cool-down maps, merged into one checkpoint dict."""
        snapshots = {}
        for engine in self.engines:
            snapshots.update(engine.cooldown_snapshots())
        return snapshots

    # -- ScanEngine contract ----------------------------------------------

    def scan_address(self, target: int):
        return self.engine_for(target).scan_address(target)

    def feed(self, target: int, results: ScanResults) -> bool:
        """Route one target to its shard; scans immediately (in arrival
        order, keeping rng/network interleavings identical to a single
        engine under embedded mode)."""
        return self.engine_for(target).feed(target, results)

    def run(self, targets: Iterable[int], label: str = "") -> ScanResults:
        """Scan a target list, merging per-shard results in shard order."""
        shard_results = [ScanResults(label=f"{label}/shard{index}")
                         for index in range(self.shards)]
        for target in targets:
            index = shard_of(target, self.shards)
            self.engines[index].feed(target, shard_results[index])
        return ScanResults.merged(shard_results, label=label)

    @property
    def stats(self) -> EngineStats:
        """Aggregated counters across every shard."""
        total = EngineStats()
        for engine in self.engines:
            stats = engine.stats
            total.targets_offered += stats.targets_offered
            total.targets_scanned += stats.targets_scanned
            total.targets_cooled_down += stats.targets_cooled_down
            total.probes_sent += stats.probes_sent
            total.seconds_waited += stats.seconds_waited
            total.cooldown_pruned += stats.cooldown_pruned
        return total

    @property
    def tracked_targets(self) -> int:
        """Total cool-down entries across shards (memory accounting)."""
        return sum(engine.scheduler.tracked_targets
                   for engine in self.engines)
