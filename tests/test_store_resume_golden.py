"""Golden equivalence tests for the run store.

Two equalities pin the store's semantics at full report depth (tables
AND every metric series, not just headline tables):

* **transparency** — a store-backed study equals a plain study.  The
  store observes the pipeline; it must never perturb it.
* **exact resume** — a study crashed mid-run and resumed equals the
  same study run uninterrupted.  Deterministic replay means recovery
  reconstructs the run, not an approximation of it.

The comparisons strip only what the store itself necessarily adds: its
own ``store_*`` metric series, the store-writer stage counters, and the
``store_dir`` config field.  Everything else must match exactly.
"""

import copy
import json

import pytest

from repro import api, cli
from repro.core.campaign import CampaignConfig
from repro.core.pipeline import ExperimentConfig
from repro.store import RunStore, fault_injection
from repro.world.population import WorldConfig


class SimulatedCrash(BaseException):
    pass


def golden_config(store_dir=None, **overrides):
    base = dict(
        world=WorldConfig(seed=20240720, scale=0.05),
        campaign=CampaignConfig(days=5, wire_fraction=0.0),
        include_rl=False, gap_days=1, lead_days=3, final_days=1,
        checkpoint_days=2,
        store_dir=None if store_dir is None else str(store_dir),
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def strip_store(report, *, stage_series=True):
    """A report document minus the series/fields only a store run has."""
    document = copy.deepcopy(report.as_document())
    document["config"].pop("store_dir", None)

    def keep(entry):
        if entry["name"].startswith("store_"):
            return False
        if stage_series and entry["labels"].get("stage") == "store-writer":
            return False
        return True

    for kind, entries in document["metrics"].items():
        document["metrics"][kind] = [e for e in entries if keep(e)]
    return document


@pytest.fixture(scope="module")
def plain_study():
    return api.study(golden_config())


@pytest.fixture(scope="module")
def stored_study(tmp_path_factory):
    run_dir = tmp_path_factory.mktemp("golden") / "stored"
    return api.study(golden_config(run_dir)), run_dir


def test_store_backed_study_is_transparent(plain_study, stored_study):
    stored, _ = stored_study
    assert (strip_store(stored.report)
            == strip_store(plain_study.report))


def test_stored_run_verifies_clean(stored_study):
    _, run_dir = stored_study
    verify = RunStore.open(run_dir).verify()
    assert verify["ok"], verify["problems"]
    assert verify["cooldown_violations"] == 0
    # Every record kind the pipeline emits shows up in the log.
    assert set(verify["records_by_kind"]) == {"sighting", "admit",
                                              "grab", "mark"}
    # checkpoint_days=2 over 3 lead days + 1 final day → two periodic
    # checkpoints, plus the final one at completion.
    inspect = RunStore.open(run_dir).inspect()
    assert inspect["checkpoints"] >= 2


def test_crashed_then_resumed_equals_uninterrupted(tmp_path, stored_study):
    stored, _ = stored_study
    run_dir = tmp_path / "crashed"
    state = {"count": 0}

    def hook(point, seq, acked):
        if point == "post-append":
            state["count"] += 1
            if state["count"] >= 20_000:  # mid final-scan territory
                raise SimulatedCrash()

    with fault_injection(hook):
        with pytest.raises(SimulatedCrash):
            api.study(golden_config(run_dir))

    resumed = api.resume(str(run_dir))
    # Replay re-marks every replayed record through the store-writer
    # stage, so stage counters legitimately differ; all other series —
    # campaign, engines, bus, analysis — must match exactly.
    assert (strip_store(resumed.report)
            == strip_store(stored.report))
    # And at table level nothing is stripped at all.
    assert resumed.report.tables == stored.report.tables


def test_store_with_a_recorded_worker_count_resumes(tmp_path, stored_study,
                                                    capsys):
    """Stores written while the study config still had a worker count
    carry ``"parallel_workers": 2`` in meta.json.  They resume to the
    uninterrupted run's report, and ``analyze --run-dir`` prints the
    same tables as for a store without the field."""
    stored, stored_dir = stored_study
    run_dir = tmp_path / "crashed"
    state = {"count": 0}

    def hook(point, seq, acked):
        if point == "post-append":
            state["count"] += 1
            if state["count"] >= 20_000:
                raise SimulatedCrash()

    with fault_injection(hook):
        with pytest.raises(SimulatedCrash):
            api.study(golden_config(run_dir))
    meta_path = run_dir / "meta.json"
    meta = json.loads(meta_path.read_text())
    meta["config"]["parallel_workers"] = 2
    meta_path.write_text(json.dumps(meta))

    resumed = api.resume(str(run_dir))
    assert strip_store(resumed.report) == strip_store(stored.report)
    assert resumed.report.tables == stored.report.tables

    outputs = []
    for directory in (run_dir, stored_dir):
        assert cli.main(["analyze", "--run-dir", str(directory)]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


def test_analyze_from_store_matches_saved_results(tmp_path, stored_study):
    """The WAL's grab records reconstruct the exact same ScanResults as
    the in-memory objects serialized through the save/load path."""
    from repro.io import save_results

    stored, run_dir = stored_study
    ntp_path = tmp_path / "ntp.jsonl"
    hitlist_path = tmp_path / "hitlist.jsonl"
    save_results(stored.experiment.ntp_scan, str(ntp_path))
    save_results(stored.experiment.hitlist_scan, str(hitlist_path))

    from_store = api.analyze(api.AnalyzeConfig(run_dir=str(run_dir)))
    from_files = api.analyze(api.AnalyzeConfig(ntp_path=str(ntp_path),
                                               hitlist_path=str(hitlist_path)))
    assert from_store.report.tables == from_files.report.tables


def test_cli_resume_lands_on_the_stored_tables(stored_study, capsys):
    """``study --resume`` on a completed store replays it exactly."""
    stored, run_dir = stored_study
    assert cli.main(["study", "--resume", str(run_dir),
                     "--format", "json"]) == 0
    document = json.loads(capsys.readouterr().out)
    assert document["tables"] == stored.report.as_document()["tables"]

    assert cli.main(["store", "verify", str(run_dir)]) == 0
    assert "OK" in capsys.readouterr().out


def test_cli_store_flags_reach_the_config(monkeypatch, capsys):
    """--store/--checkpoint-days flow into ExperimentConfig untouched."""
    captured = {}

    def fake_study(config):
        captured["config"] = config
        from repro.obs.metrics import MetricsRegistry
        from repro.obs.runreport import RunReport

        report = RunReport.build("study", {}, MetricsRegistry(), {})
        return api.StudyResult(experiment=None, report=report)

    monkeypatch.setattr(api, "study", fake_study)
    assert cli.main(["study", "--store", "/tmp/x", "--checkpoint-days",
                     "3", "--format", "json"]) == 0
    capsys.readouterr()
    assert captured["config"].store_dir == "/tmp/x"
    assert captured["config"].checkpoint_days == 3


def test_resume_of_a_dir_that_is_not_a_store_errors(tmp_path):
    with pytest.raises(ValueError):
        api.resume(str(tmp_path / "nowhere"))
