"""Cross-cutting property tests over the substrates.

Each property pins an invariant several modules rely on, checked
against a brute-force reference implementation where one exists.
"""


from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ipv6 import address as addrmod
from repro.ipv6.aggregation import PrefixAggregator
from repro.net.clock import VirtualClock
from repro.scan.ethics import OptOutList
from repro.scan.ratelimit import TokenBucket
from repro.world.tga import train

ADDRESSES = st.integers(min_value=0, max_value=2**128 - 1)


class TestOptOutProperties:
    @given(st.lists(st.tuples(ADDRESSES,
                              st.integers(min_value=0, max_value=128)),
                    max_size=15),
           ADDRESSES)
    def test_blocked_matches_bruteforce(self, entries, probe):
        """Fast prefix-set membership == linear prefix comparison."""
        opt_out = OptOutList()
        for base, length in entries:
            opt_out.add(base, length)
        brute = any(
            addrmod.prefix(probe, length) == addrmod.prefix(base, length)
            for base, length in entries)
        assert opt_out.blocked(probe) == brute

    @given(st.lists(ADDRESSES, min_size=1, max_size=10))
    def test_every_entry_blocks_itself(self, bases):
        opt_out = OptOutList()
        for base in bases:
            opt_out.add(base)
        for base in bases:
            assert opt_out.blocked(base)


class TestAggregatorProperties:
    @given(st.lists(ADDRESSES, max_size=60),
           st.sampled_from([32, 48, 56, 64]))
    def test_network_counts_match_bruteforce(self, values, level):
        aggregator = PrefixAggregator()
        aggregator.update(values)
        brute = {addrmod.prefix(value, level) for value in set(values)}
        assert aggregator.network_count(level) == len(brute)
        counts = aggregator.network_counts(level)
        assert sum(counts.values()) == len(set(values))

    @given(st.lists(ADDRESSES, min_size=1, max_size=60))
    def test_median_density_bounds(self, values):
        aggregator = PrefixAggregator()
        aggregator.update(values)
        median = aggregator.median_density(48)
        counts = aggregator.network_counts(48).values()
        assert min(counts) <= median <= max(counts)


class TestTokenBucketProperties:
    @given(st.lists(st.floats(min_value=0.1, max_value=5.0),
                    min_size=1, max_size=30))
    @settings(max_examples=50)
    def test_throughput_never_exceeds_rate_plus_burst(self, amounts):
        """Total tokens granted <= burst + rate * elapsed."""
        clock = VirtualClock()
        rate, burst = 7.0, 10.0
        bucket = TokenBucket(clock, rate=rate, burst=burst)
        granted = 0.0
        for amount in amounts:
            bucket.acquire(amount)
            granted += amount
        assert granted <= burst + rate * clock.now() + 1e-6

    @given(st.floats(min_value=0.1, max_value=10.0))
    def test_try_acquire_never_goes_negative(self, amount):
        bucket = TokenBucket(VirtualClock(), rate=1.0, burst=5.0)
        while bucket.try_acquire(amount):
            pass
        assert bucket.available >= 0.0


class TestTgaProperties:
    @given(st.lists(ADDRESSES, min_size=2, max_size=40, unique=True),
           st.integers(min_value=1, max_value=30))
    @settings(max_examples=30)
    def test_candidates_distinct_and_disjoint_from_seeds(self, seeds, count):
        tga = train(seeds)
        candidates = tga.generate(count)
        assert len(candidates) == len(set(candidates))
        assert not set(candidates) & set(seeds)

    @given(st.lists(ADDRESSES, min_size=2, max_size=30, unique=True))
    @settings(max_examples=30)
    def test_prefix_lock_respected(self, seeds):
        tga = train(seeds)
        locked = {addrmod.prefix(seed, 56) for seed in seeds}
        for candidate in tga.generate(20, prefix_lock=56):
            assert addrmod.prefix(candidate, 56) in locked

    @given(st.lists(ADDRESSES, min_size=1, max_size=30, unique=True))
    @settings(max_examples=30)
    def test_entropy_nonnegative_and_bounded(self, seeds):
        tga = train(seeds)
        for model in tga.models:
            assert 0.0 <= model.entropy <= 4.0 + 1e-9


class TestShardingProperties:
    """The partition/merge contract the sharded engine stands on."""

    @given(ADDRESSES, st.integers(min_value=1, max_value=64))
    def test_shard_of_stable_and_in_range(self, address, shards):
        from repro.runtime.sharding import shard_of

        index = shard_of(address, shards)
        assert 0 <= index < shards
        assert index == shard_of(address, shards)

    @given(st.integers(min_value=0, max_value=2**64 - 1),
           st.one_of(st.sampled_from([1, 2, 4, 0x10, 0x100, 0x10000,
                                      1 << 20, 1 << 32, 1 << 48]),
                     st.integers(min_value=1, max_value=2**16)),
           st.integers(min_value=0, max_value=2**32))
    @settings(max_examples=80)
    def test_no_empty_shard_for_structured_addresses(self, prefix, stride,
                                                     start):
        """64 same-/64 addresses with strided IIDs hit every one of 4
        shards.  This pins the full SplitMix64 finalizer: the weaker
        single-multiply hash parked all 2^32-strided addresses on one
        shard."""
        from repro.runtime.sharding import shard_of

        base = prefix << 64
        mask = (1 << 64) - 1
        occupied = {shard_of(base | ((start + index * stride) & mask), 4)
                    for index in range(64)}
        assert occupied == {0, 1, 2, 3}

    @given(st.lists(ADDRESSES, max_size=200),
           st.integers(min_value=1, max_value=8))
    def test_partition_preserves_multiset_and_routing(self, targets, shards):
        """``ShardedScanEngine.run`` offers every target to exactly the
        shard :func:`shard_of` names, in arrival order."""
        from repro.net.simnet import Network
        from repro.obs.metrics import use_registry
        from repro.runtime.registry import ProbeRegistry
        from repro.runtime.sharding import ShardedScanEngine, shard_of

        with use_registry():
            engine = ShardedScanEngine(Network(), 1, registry=ProbeRegistry(),
                                       shards=shards)
        partition = [[] for _ in range(shards)]
        for index, shard in enumerate(engine.engines):
            def record(target, results, batch=partition[index],
                       feed=shard.feed):
                batch.append(target)
                return feed(target, results)
            shard.feed = record
        with use_registry():
            results = engine.run(targets)
        assert results.targets_seen == len(targets)
        assert len(partition) == shards
        rejoined = [target for batch in partition for target in batch]
        assert sorted(rejoined) == sorted(targets)
        for index, batch in enumerate(partition):
            assert all(shard_of(target, shards) == index
                       for target in batch)
            # Arrival order is preserved within each shard.
            expected = [t for t in targets if shard_of(t, shards) == index]
            assert batch == expected


class TestMergedResultsProperties:
    """ScanResults.merged over disjoint shards: associative, and
    aggregate-insensitive to merge order."""

    @staticmethod
    def _sharded_results(entries, shards):
        from repro.runtime.sharding import shard_of
        from repro.scan.result import CoapGrab, ScanResults

        parts = [ScanResults(label=f"shard{i}") for i in range(shards)]
        for address, ok in entries:
            part = parts[shard_of(address, shards)]
            part.coap.append(CoapGrab(address=address, time=0.0, ok=ok))
            part.targets_seen += 1
        return parts

    ENTRIES = st.lists(st.tuples(ADDRESSES, st.booleans()), max_size=60)

    @given(ENTRIES, st.integers(min_value=2, max_value=6))
    @settings(max_examples=60)
    def test_merged_is_associative(self, entries, shards):
        from repro.scan.result import ScanResults

        parts = self._sharded_results(entries, shards)
        flat = ScanResults.merged(parts, label="m")
        nested = ScanResults.merged(
            [ScanResults.merged(parts[:2]), *parts[2:]], label="m")
        assert nested.coap == flat.coap
        assert nested.targets_seen == flat.targets_seen
        assert nested.label == flat.label

    @given(ENTRIES, st.integers(min_value=2, max_value=6),
           st.randoms(use_true_random=False))
    @settings(max_examples=60)
    def test_merge_order_cannot_change_aggregates(self, entries, shards,
                                                  rng):
        """Disjoint shards: any merge order yields the same responsive
        sets, counts and hit rate (bucket order may differ)."""
        from repro.scan.result import ScanResults

        parts = self._sharded_results(entries, shards)
        shuffled = list(parts)
        rng.shuffle(shuffled)
        ordered = ScanResults.merged(parts, label="m")
        permuted = ScanResults.merged(shuffled, label="m")
        assert permuted.targets_seen == ordered.targets_seen
        assert (permuted.responsive_addresses("coap")
                == ordered.responsive_addresses("coap"))
        assert len(permuted.coap) == len(ordered.coap)
        assert sorted(g.address for g in permuted.coap) == \
            sorted(g.address for g in ordered.coap)
        assert permuted.hit_rate() == ordered.hit_rate()


class TestDeterminismProperties:
    @given(st.integers(min_value=0, max_value=2**16))
    @settings(max_examples=10, deadline=None)
    def test_world_pure_function_of_seed(self, seed):
        from repro.world.population import WorldConfig, build_world

        first = build_world(WorldConfig(seed=seed, scale=0.02))
        second = build_world(WorldConfig(seed=seed, scale=0.02))
        assert [d.address for d in first.devices] == \
            [d.address for d in second.devices]
        assert first.dns.names() == second.dns.names()
