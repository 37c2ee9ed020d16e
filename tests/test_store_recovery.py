"""Crash-injection tests: kill the pipeline mid-run, recover, verify.

The store's two hard invariants (ISSUE acceptance criteria):

* **no lost acked records** — every record the WAL acked (fsynced)
  before the crash survives recovery;
* **no cooldown violations** — after recovery + resume, no address was
  ever probed twice by one engine inside its cool-down TTL (checked
  offline from the admission log by ``RunStore.verify``).

Kill points are randomized per seed.  The tier-1 run uses one seed;
CI's ``store-recovery`` job widens the sweep via ``REPRO_CRASH_SEEDS``
(comma-separated), so flaky recovery paths surface there without
slowing every local run.
"""

import os
import random

import pytest

from repro import api
from repro.core.campaign import CampaignConfig
from repro.core.pipeline import ExperimentConfig
from repro.store import RunStore, fault_injection
from repro.world.population import WorldConfig

CRASH_SEEDS = [int(seed) for seed in
               os.environ.get("REPRO_CRASH_SEEDS", "1").split(",")]


class SimulatedCrash(BaseException):
    """Raised from the fault hook; BaseException so no pipeline code
    can accidentally swallow it the way a broad ``except Exception``
    would — mirroring a real SIGKILL."""


def small_config(store_dir):
    return ExperimentConfig(
        world=WorldConfig(seed=20240720, scale=0.05),
        campaign=CampaignConfig(days=5, wire_fraction=0.0),
        include_rl=False, gap_days=1, lead_days=3, final_days=1,
        checkpoint_days=2, store_dir=str(store_dir),
    )


@pytest.fixture(scope="module")
def clean_study(tmp_path_factory):
    """One uninterrupted store-backed study all crash runs compare to."""
    run_dir = tmp_path_factory.mktemp("store") / "clean"
    study = api.study(small_config(run_dir))
    verify = RunStore.open(run_dir).verify()
    assert verify["ok"] and verify["cooldown_violations"] == 0
    return {"study": study, "records": verify["records"]}


def crash_run(run_dir, hook):
    """Run the study under a fault hook expected to kill it."""
    with fault_injection(hook):
        with pytest.raises(SimulatedCrash):
            api.study(small_config(run_dir))


def assert_recovered(run_dir, clean_study, acked_at_crash):
    """The three post-recovery invariants, shared by every kill point."""
    store = RunStore.open(run_dir)
    recovery = store.recover(repair=True)
    # Invariant 1: nothing the WAL acked is gone.  (Unflushed records
    # MAY survive too — durability is one-directional.)
    assert recovery.last_seq >= acked_at_crash

    resumed = api.resume(str(run_dir))
    clean = clean_study["study"]
    # The resumed study finishes with the clean study's results.
    assert resumed.report.tables == clean.report.tables

    verify = RunStore.open(run_dir).verify()
    assert verify["ok"], verify["problems"]
    # Invariant 2: zero double-probes inside the cooldown TTL, over the
    # *whole* history including the pre-crash prefix.
    assert verify["cooldown_violations"] == 0
    # The resumed log is byte-for-byte the clean run's history.
    assert verify["records"] == clean_study["records"]


@pytest.mark.parametrize("seed", CRASH_SEEDS)
def test_random_append_kill_point(tmp_path, clean_study, seed):
    """Crash at a random record append; recover; invariants hold."""
    rng = random.Random(seed)
    kill_at = rng.randrange(1, clean_study["records"])
    run_dir = tmp_path / "crashed"
    state = {"count": 0, "acked": 0}

    def hook(point, seq, acked):
        state["acked"] = acked
        if point == "post-append":
            state["count"] += 1
            if state["count"] >= kill_at:
                raise SimulatedCrash()

    crash_run(run_dir, hook)
    assert_recovered(run_dir, clean_study, state["acked"])


@pytest.mark.parametrize("seed", CRASH_SEEDS)
def test_random_fsync_kill_point(tmp_path, clean_study, seed):
    """Crash during an fsync batch: the unflushed tail may tear."""
    rng = random.Random(seed ^ 0xF5)
    kill_at = rng.randrange(1, 20)
    run_dir = tmp_path / "crashed"
    state = {"count": 0, "acked": 0}

    def hook(point, seq, acked):
        state["acked"] = acked
        if point == "pre-fsync":
            state["count"] += 1
            if state["count"] >= kill_at:
                raise SimulatedCrash()

    crash_run(run_dir, hook)
    assert_recovered(run_dir, clean_study, state["acked"])


def test_kill_at_checkpoint(tmp_path, clean_study):
    """Crash at the checkpoint write: the WAL is synced, nothing lost."""
    run_dir = tmp_path / "crashed"
    state = {"acked": 0}

    def hook(point, seq, acked):
        state["acked"] = acked
        if point == "checkpoint":
            raise SimulatedCrash()

    crash_run(run_dir, hook)
    # The checkpoint fault point fires *after* the pre-checkpoint sync,
    # so everything appended so far is acked and must survive.
    assert state["acked"] > 0
    assert_recovered(run_dir, clean_study, state["acked"])


def test_torn_tail_after_crash_is_repaired(tmp_path, clean_study):
    """A half-written final line (torn write) is truncated on resume."""
    run_dir = tmp_path / "crashed"
    state = {"count": 0, "acked": 0}

    def hook(point, seq, acked):
        state["acked"] = acked
        if point == "post-append":
            state["count"] += 1
            if state["count"] >= 1000:
                raise SimulatedCrash()

    crash_run(run_dir, hook)
    # Simulate the torn write the crash left behind.
    store = RunStore.open(run_dir)
    from repro.store import list_segments

    with open(list_segments(store.wal_dir)[-1], "a",
              encoding="utf-8") as handle:
        handle.write('{"t": "grab", "addr": "2001:db8')
    assert_recovered(run_dir, clean_study, state["acked"])


def test_resume_of_a_completed_run_is_idempotent(tmp_path, clean_study):
    """Resuming a finished store replays it fully and changes nothing."""
    run_dir = tmp_path / "complete"
    study = api.study(small_config(run_dir))
    before = RunStore.open(run_dir).verify()
    resumed = api.resume(str(run_dir))
    assert resumed.report.tables == study.report.tables
    after = RunStore.open(run_dir).verify()
    assert after["records"] == before["records"]
    assert after["ok"]


def test_resume_after_compaction_verifies_the_chain(tmp_path, clean_study):
    """Compaction deletes the prefix; resume still validates via chain."""
    run_dir = tmp_path / "crashed"
    state = {"count": 0}

    def hook(point, seq, acked):
        if point == "post-append":
            state["count"] += 1
            # Past the first checkpoint (day 2), so compaction has a
            # horizon to work with.
            if state["count"] >= int(clean_study["records"] * 0.8):
                raise SimulatedCrash()

    crash_run(run_dir, hook)
    store = RunStore.open(run_dir)
    store.recover(repair=True)
    report = store.compact()
    assert report["segments_deleted"] > 0
    resumed = api.resume(str(run_dir))
    assert resumed.report.tables == clean_study["study"].report.tables
    assert RunStore.open(run_dir).verify()["ok"]


def test_divergent_config_is_rejected(tmp_path, clean_study):
    """Resuming under a different config fails loudly, never forks."""
    import json

    run_dir = tmp_path / "crashed"
    state = {"count": 0}

    def hook(point, seq, acked):
        if point == "post-append":
            state["count"] += 1
            if state["count"] >= 500:
                raise SimulatedCrash()

    crash_run(run_dir, hook)
    meta_path = run_dir / "meta.json"
    meta = json.loads(meta_path.read_text())
    meta["config"]["world"]["seed"] = 999  # not the seed that ran
    meta_path.write_text(json.dumps(meta))
    with pytest.raises(ValueError, match="diverged"):
        api.resume(str(run_dir))
