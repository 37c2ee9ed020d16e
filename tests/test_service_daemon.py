"""Campaign-daemon tests: drift, resume-after-crash, store hygiene.

The crash/resume golden reuses the store suite's fault-injection
harness: kill the daemon mid-campaign with a :class:`BaseException`
(so no ``except Exception`` swallows it), resume from nothing but the
run directory, and demand the *windowed series* — the subsystem's
user-facing output — comes out byte-identical to the uninterrupted
campaign's.
"""

import json
from dataclasses import asdict

import pytest

from repro import api
from repro.io.jsonl import to_canonical_json
from repro.net.clock import DAY
from repro.service import CampaignDaemon, WindowedStudyReader
from repro.store import RunStore, fault_injection

from tests.conftest import service_config, small_world_config


class SimulatedCrash(BaseException):
    pass


def series_bytes(run_dir, *, window_days=4, step_days=2):
    reader = WindowedStudyReader(RunStore.open(run_dir))
    frames = reader.series(since=0.0, window=window_days * DAY,
                           step=step_days * DAY)
    return [to_canonical_json(frame.document) for frame in frames]


def test_campaign_store_verifies_clean(service_run):
    result, run_dir = service_run
    verify = RunStore.open(run_dir).verify()
    assert verify["ok"], verify["problems"]
    assert verify["cooldown_violations"] == 0
    assert set(verify["records_by_kind"]) == {"sighting", "admit",
                                              "grab", "mark"}
    days = result.daemon.config.campaign_days
    # One checkpoint per checkpoint_days plus the final close() cut.
    assert (RunStore.open(run_dir).inspect()["checkpoints"]
            >= days // 3)


def test_world_evolves_under_the_campaign(service_run):
    result, _ = service_run
    drift = result.report.tables["drift"]
    assert drift["devices_spawned"] > 0
    assert drift["devices_retired"] > 0
    assert drift["hitlist_sweeps"] == (
        result.daemon.config.campaign_days // 4)
    targets = result.report.tables["campaign"]["targets"]
    assert targets["hitlist"] > 0 and targets["ntp"] > 0


def test_tick_past_horizon_raises(service_run):
    result, _ = service_run
    with pytest.raises(RuntimeError, match="campaign complete"):
        result.daemon.tick()


def test_horizon_cursor_tracks_a_live_daemon(tmp_path):
    """After every tick (and the closing checkpoint), a long-lived
    reader's incremental horizon equals a from-scratch reader's; its
    incremental fold ends equal to a one-pass fold."""
    from repro.obs import use_registry
    from repro.store import read_study

    run_dir = tmp_path / "live"
    with use_registry():
        daemon = CampaignDaemon.create(service_config(
            run_dir, world=small_world_config(scale=0.02),
            segment_max_records=256))
        live = WindowedStudyReader(RunStore.open(run_dir))

        def check_horizon():
            fresh = WindowedStudyReader(RunStore.open(run_dir))
            assert live.horizon() == fresh.horizon()

        while daemon.day < daemon.config.campaign_days:
            daemon.tick()
            check_horizon()
            assert live.horizon() == pytest.approx(daemon.day * DAY)
            live.refresh()
        daemon.close()
        check_horizon()
        live.refresh()
        folded = read_study(run_dir)

    def summary(reader):
        return (reader.last_seq, reader.sightings, reader.marks,
                {label: (scan.targets_seen,
                         {protocol: len(scan.grabs(protocol))
                          for protocol in scan.protocols()})
                 for label, scan in reader.results.items()})

    assert summary(live) == summary(folded)


def test_crashed_campaign_resumes_to_identical_series(tmp_path,
                                                      service_run):
    golden_result, golden_dir = service_run
    run_dir = tmp_path / "crashed"
    state = {"count": 0}

    def hook(point, seq, acked):
        if point == "post-append":
            state["count"] += 1
            if state["count"] >= 30_000:  # mid-campaign, past a checkpoint
                raise SimulatedCrash()

    with fault_injection(hook):
        with pytest.raises(SimulatedCrash):
            api.run_campaign(service_config(run_dir))

    resumed = api.resume_campaign(str(run_dir))

    # Same campaign tables (the store path is the only allowed delta).
    golden_tables = json.loads(json.dumps(golden_result.report.tables))
    resumed_tables = json.loads(json.dumps(resumed.report.tables))
    assert (golden_tables["store"].pop("run_dir")
            != resumed_tables["store"].pop("run_dir"))
    assert resumed_tables == golden_tables

    # Same WAL, bit for bit at the record level.
    verify = RunStore.open(run_dir).verify()
    assert verify["ok"], verify["problems"]
    assert verify["cooldown_violations"] == 0
    assert verify["last_seq"] == RunStore.open(golden_dir).verify()[
        "last_seq"]

    # And the windowed series — the service's actual product — is
    # byte-identical to the uninterrupted campaign's.
    assert series_bytes(run_dir) == series_bytes(golden_dir)


def test_resume_guards_point_at_the_right_entry(tmp_path, service_run):
    _, service_dir = service_run
    with pytest.raises(ValueError, match="resume_campaign"):
        api.resume(str(service_dir))

    from repro.core.pipeline import ExperimentConfig

    batch_dir = tmp_path / "batch"
    store = RunStore.create(
        batch_dir, config=json.loads(json.dumps(asdict(ExperimentConfig()))),
        cooldown_ttl=0.0)
    store.new_writer().close()
    with pytest.raises(ValueError, match="api.resume"):
        CampaignDaemon.resume(str(batch_dir))
