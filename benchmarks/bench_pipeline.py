"""End-to-end pipeline cost: one full (small) study per round."""

import random
import time

from benchmarks.conftest import write_report
from repro import api
from repro.core.campaign import CampaignConfig
from repro.core.pipeline import ExperimentConfig, run_experiment
from repro.ipv6 import parse
from repro.net.simnet import Network
from repro.obs import Histogram, use_registry
from repro.report import fmt_int, fmt_pct, render_table, shape_check
from repro.runtime.sharding import ShardedScanEngine
from repro.scan.engine import EngineConfig
from repro.world import devices as dev
from repro.world.population import WorldConfig


def _small_study(shards=1):
    return run_experiment(ExperimentConfig(
        world=WorldConfig(scale=0.1),
        campaign=CampaignConfig(days=14, wire_fraction=0.02),
        rl_days=3, gap_days=3, lead_days=10, final_days=4,
        scan_shards=shards,
    ))


def _metrics_lines(registry, label):
    """Drop counts and probe-latency quantiles for one shard config.

    Quantiles come from the fixed-bucket ``probe_seconds`` histograms,
    so each is an upper bound (the bucket boundary the quantile falls
    in), merged across every engine/shard/protocol series.
    """
    dropped = sum(c.value for _, c in registry.find("stage_dropped_total"))
    cooled = sum(c.value
                 for _, c in registry.find("scheduler_cooldown_hits_total"))
    latency = Histogram.merged(
        [h for _, h in registry.find("probe_seconds")])
    return (
        f"  {label}\n"
        f"    queue drops:          {fmt_int(int(dropped))}\n"
        f"    cool-down rejections: {fmt_int(int(cooled))}\n"
        f"    probes observed:      {fmt_int(int(latency.count))}\n"
        f"    probe latency:        p50 <= {latency.quantile(0.5):g} s, "
        f"p99 <= {latency.quantile(0.99):g} s\n"
    )


def test_pipeline_end_to_end(benchmark):
    result = benchmark.pedantic(_small_study, rounds=3, iterations=1)

    text = (
        "End-to-end pipeline (scale 0.1, 14 collection days per round)\n"
        f"  devices simulated:   {fmt_int(len(result.world.devices))}\n"
        f"  addresses collected: {fmt_int(len(result.ntp_dataset))}\n"
        f"  targets scanned:     "
        f"{fmt_int(result.ntp_scan.targets_seen + result.hitlist_scan.targets_seen)}\n"
    )
    text += "\n" + shape_check(
        "full study completes with populated artefacts",
        len(result.ntp_dataset) > 0 and result.hitlist.full_size > 0)
    write_report("pipeline_end_to_end", text)

    benchmark.extra_info.update({
        "devices": len(result.world.devices),
        "collected": len(result.ntp_dataset),
    })
    assert len(result.ntp_dataset) > 0


def test_pipeline_sharded_vs_single(benchmark):
    """shards=4 must merge to identical results at no extra cost."""
    single_times, sharded_times = [], []
    results = {}

    def _paired_round():
        """One single + one sharded study, back to back.

        Interleaving the two configurations inside each round cancels
        machine-load drift, and alternating which goes first cancels
        the position effect (the second study runs on a dirtier heap).
        """
        single_first = len(single_times) % 2 == 0
        order = (1, 4) if single_first else (4, 1)
        # CPU time, not wall clock: the comparison must not hinge on
        # scheduler preemption by whatever else shares this machine.
        start = time.process_time()
        first = _small_study(shards=order[0])
        mid = time.process_time()
        second = _small_study(shards=order[1])
        end = time.process_time()
        if single_first:
            results["single"], results["sharded"] = first, second
            single_times.append(mid - start)
            sharded_times.append(end - mid)
        else:
            results["sharded"], results["single"] = first, second
            sharded_times.append(mid - start)
            single_times.append(end - mid)

    benchmark.pedantic(_paired_round, rounds=4, iterations=1,
                       warmup_rounds=1)
    # The warmup pair lands in the lists too; drop it — its first leg
    # pays cold-start costs (imports, allocator growth) unfairly.
    single_times, sharded_times = single_times[1:], sharded_times[1:]
    rounds = len(single_times)
    single, sharded = results["single"], results["sharded"]

    def _median(times):
        ordered = sorted(times)
        return ordered[len(ordered) // 2]

    single_median = _median(single_times)
    sharded_median = _median(sharded_times)

    identical = all(
        single.hitlist_scan.responsive_addresses(protocol)
        == sharded.hitlist_scan.responsive_addresses(protocol)
        for protocol in single.hitlist_scan.protocols())
    text = (
        "Sharded scan engine vs single engine (scale 0.1 study)\n"
        f"  single engine (median of {rounds}):  {single_median:8.3f} cpu-s\n"
        f"  4 shards      (median of {rounds}):  {sharded_median:8.3f} cpu-s\n"
        f"  ratio (sharded/single):      "
        f"{sharded_median / single_median:8.3f}\n"
        "\n"
        "Runtime metrics per shard configuration (embedded mode: probes\n"
        "run synchronously, so latency collapses to the first bucket)\n"
    )
    text += _metrics_lines(single.metrics, "single engine")
    text += _metrics_lines(sharded.metrics, "4 shards")
    text += "\n" + shape_check(
        "sharded responsive sets identical to single engine", identical)
    text += "\n" + shape_check(
        "sharding adds no end-to-end slowdown (<=5% tolerance)",
        sharded_median <= single_median * 1.05)
    write_report("pipeline_sharded_vs_single", text)

    single_latency = Histogram.merged(
        [h for _, h in single.metrics.find("probe_seconds")])
    benchmark.extra_info.update({
        "single_median_cpu_s": round(single_median, 4),
        "sharded_median_cpu_s": round(sharded_median, 4),
        "single_drops": int(sum(
            c.value for _, c in single.metrics.find("stage_dropped_total"))),
        "sharded_drops": int(sum(
            c.value for _, c in sharded.metrics.find("stage_dropped_total"))),
        "single_probe_p99_s": single_latency.quantile(0.99),
    })
    assert identical
    assert sharded.hitlist_scan.targets_seen == single.hitlist_scan.targets_seen


def _driving_scan(shards):
    """One driving-mode scan campaign under a fresh metrics registry.

    Driving mode advances the virtual clock through token-bucket waits
    and politeness delays, so ``probe_seconds`` records real (simulated)
    per-probe latency instead of the zeros of embedded mode.  Targets
    repeat, so the cool-down path is exercised too.
    """
    rng = random.Random(1905)
    network = Network()
    prefix = parse("2001:db8:600::")
    for index in range(40):
        device = dev.make_fritzbox(rng, index, 0x3C3786000000 + index)
        device.assign_address(prefix, rng)
        device.materialize(network)
    targets = [prefix | rng.getrandbits(64) for _ in range(300)]
    targets += rng.sample(targets, 60)          # duplicates hit cool-down
    with use_registry() as registry:
        engine = ShardedScanEngine(
            network, parse("2001:db8:5c::1"),
            EngineConfig(packets_per_second=100.0),
            shards=shards, name="bench")
        results = engine.run(targets, label=f"driving/{shards}")
    return registry, results


def test_probe_latency_driving_mode(benchmark):
    """p50/p99 probe latency per shard configuration (driving mode)."""
    registries = {shards: _driving_scan(shards)[0] for shards in (1, 4)}
    benchmark.pedantic(_driving_scan, args=(4,), rounds=3, iterations=1)

    text = "Driving-mode probe latency by shard configuration\n"
    latencies = {}
    for shards, registry in sorted(registries.items()):
        latencies[shards] = Histogram.merged(
            [h for _, h in registry.find("probe_seconds")])
        text += _metrics_lines(registry, f"{shards} shard(s)")
    text += "\n" + shape_check(
        "driving mode records nonzero probe latency",
        all(latency.sum > 0 for latency in latencies.values()))
    text += "\n" + shape_check(
        "cool-down rejections recorded for duplicate targets",
        all(sum(c.value
                for _, c in registry.find("scheduler_cooldown_hits_total")) > 0
            for registry in registries.values()))
    write_report("pipeline_probe_latency", text)

    benchmark.extra_info.update({
        f"p99_s_{shards}shards": latencies[shards].quantile(0.99)
        for shards in latencies
    })
    assert all(latency.count > 0 for latency in latencies.values())


def _ecosystem_run():
    """One mixed-actor telescope campaign with strategy attribution."""
    return api.ecosystem(api.EcosystemConfig(
        world=WorldConfig(seed=20240720, scale=0.1),
        sweep_days=4, settle_days=2))


def test_ecosystem_attribution_population(benchmark):
    """Mixed-actor sweep: attribution quality at benchmark scale.

    Runs the full ecosystem pipeline (two NTP-sourcing actors plus the
    five-strategy leak population) and renders the confusion matrix and
    per-strategy precision/recall the attribution layer produced.  The
    quality gate is unconditional — the diagonal must stay >= 0.9 at
    this scale regardless of machine.
    """
    result = benchmark.pedantic(_ecosystem_run, rounds=3, iterations=1)

    attribution = result.attribution
    confusion = attribution.confusion()
    metrics = attribution.strategy_metrics()
    diagonal = attribution.diagonal_accuracy()
    accuracy = attribution.tables()["accuracy"]

    predicted_labels = sorted(
        {label for row in confusion.values() for label in row})
    confusion_rows = [
        [truth] + [row.get(label, 0) for label in predicted_labels]
        for truth, row in confusion.items()]
    metric_rows = [
        [strategy, fmt_pct(scores["precision"]), fmt_pct(scores["recall"]),
         fmt_int(int(scores["support"]))]
        for strategy, scores in metrics.items()]

    gate_passed = diagonal >= 0.9
    text = (
        "Mixed-actor population sweep (scale 0.1, 4 sweep days)\n"
        f"  telescope events:    {fmt_int(len(result.telescope.events))}\n"
        f"  source clusters:     {fmt_int(accuracy['clusters'])}\n"
        f"  labeled clusters:    {fmt_int(accuracy['labeled'])}\n"
        f"  confusion diagonal:  {fmt_pct(diagonal)}\n"
        "\nConfusion matrix (truth rows, predicted columns)\n"
        + render_table(["truth \\ predicted"] + predicted_labels,
                       confusion_rows)
        + "\nPer-strategy attribution quality\n"
        + render_table(["strategy", "precision", "recall", "support"],
                       metric_rows)
    )
    text += "\n" + shape_check(
        "every labeled strategy attributed (confusion diagonal >= 90%)",
        gate_passed)
    write_report("pipeline_ecosystem", text)

    benchmark.extra_info.update({
        "clusters": accuracy["clusters"],
        "labeled": accuracy["labeled"],
        "diagonal": round(diagonal, 4),
        "gate_armed": True,
        "gate_status": "armed-passed" if gate_passed else "armed-failed",
    })
    assert gate_passed, f"confusion diagonal {diagonal:.2%} < 90%"
