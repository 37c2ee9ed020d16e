"""Reusable shard-count parity harness for the scan engines.

The runtime promises that a single :class:`ScanEngine` and a
:class:`ShardedScanEngine` at any shard count are observationally
equivalent under a fixed seed in everything the study reports as a
headline.  This module is the one place that equivalence is *defined*,
so every test that claims shard parity asserts the same thing:

* the study tables in :data:`SHARD_INVARIANT_TABLES` are identical at
  every shard count, including the unsharded one;
* the ``security`` table is deliberately *not* among them: the SSH
  key-reuse dedup keeps the first grab per key, and the shard-order
  merge decides which grab comes first, so that table is only stable
  between runs at equal shard layout (compare whole report documents
  there);
* metric series are not compared across shard counts either: the
  unsharded engine labels its series ``"ntp"`` where shards label
  theirs ``"ntp/shardN"``.
"""

from __future__ import annotations

#: Shard counts every shard-parity sweep compares against one engine.
SHARD_COUNTS = (2, 4)

#: Study tables whose content does not depend on the shard count.
SHARD_INVARIANT_TABLES = ("table1", "table2", "hit_rates", "device_gap",
                          "keyreuse")


def assert_study_shard_parity(config_factory, *, shard_counts=SHARD_COUNTS):
    """Full-pipeline parity: ``study(scan_shards=1)`` vs each count.

    ``config_factory(shards)`` must return an identically seeded
    :class:`ExperimentConfig` whose only varying field is
    ``scan_shards``.  Compares every shard-invariant table and the
    per-protocol responsive address sets of both scan paths.  Returns
    the shard count → StudyResult map so callers can pile on their own
    assertions.
    """
    from repro import api

    runs = {1: api.study(config_factory(1))}
    reference = runs[1]
    for shards in shard_counts:
        runs[shards] = candidate = api.study(config_factory(shards))
        context = f"shards={shards}"
        for table in SHARD_INVARIANT_TABLES:
            assert (candidate.report.tables[table]
                    == reference.report.tables[table]), (context, table)
        for side in ("ntp_scan", "hitlist_scan"):
            expected = getattr(reference.experiment, side)
            actual = getattr(candidate.experiment, side)
            for protocol in expected.protocols():
                assert (actual.responsive_addresses(protocol)
                        == expected.responsive_addresses(protocol)), \
                    (context, side, protocol)
    return runs
