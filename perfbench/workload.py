"""Run one benchmark workload once, in this fresh process.

    PYTHONPATH=src python perfbench/workload.py --workload study \\
        --seed 3 --out .perfbench/result.json [--trace] [--setup-only]

``run.py`` launches this script once per repetition, so every
repetition starts from a fresh interpreter, as a user's run does, and
shares no heap or cache with another.  The script writes one
JSON document to ``--out``: the workload's timings, the outcome of
every output check, its peak RSS, provenance and, with ``--trace``,
the per-layer metrics of an outside-in span trace (:mod:`spans`).

``--setup-only`` stops at the first timed call, so ``run.py`` can
sample set-up time several times per run.  ``--reference`` computes
the workload's reference digest instead (see ``references.py``).

The seed selects one of :data:`VARIANTS` input variants: the scan
seed of the study and the campaign (their worlds stay the configured
ones, so every variant does the same amount of work) and the server
profile seed of the amplification study.  Each variant has a committed
reference digest in ``references.json``, so the output check compares
against an independently produced result without re-running it.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import resource
import shutil
import signal
import socket
import subprocess
import sys
import threading
import time
from importlib import metadata
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK_DIR = os.path.join(ROOT, ".perfbench")
REFERENCES = os.path.join(HERE, "references.json")

#: Distinct inputs a seed maps onto (``variant = seed % VARIANTS``).
VARIANTS = 4
#: The configs' default scan seed and amplification profile seed;
#: variant 0 is the default input.
SCAN_SEED = 0x51AB
PROFILE_SEED = 20240720

#: One line per workload on why it is in the benchmark.
WHY = {
    "study": "the paper's pipeline: collection day loop and real-time "
             "feeds dominate, hitlist scan and analysis are small",
    "service": "store writes (WAL appends), crash resume and windowed "
               "serve queries, cold and warm over 2 connections",
    "amplification": "the only hit-heavy scan (every target answers) and "
                     "the only user of ntp.control and multi-packet simnet",
}

#: Span names each workload must fire in a traced run; a renamed or
#: bypassed entry point fails the output check instead of reading 0.
EXPECTED_SPANS = {
    "study": ("world.build", "world.churn", "world.hitlist_build",
              "campaign.advance_days", "engine.feed", "engine.run",
              "analysis.run"),
    "service": ("world.build", "world.churn", "world.hitlist_build",
                "campaign.advance_days", "engine.feed", "engine.run",
                "store.append", "store.sync", "store.checkpoint",
                "store.recover", "store.replay", "daemon.tick"),
    "amplification": ("ntp.seed", "engine.run", "engine.feed",
                      "simnet.udp_multi"),
}
SERVER_SPANS = ("query.query", "query.horizon", "query.window")

#: Service shape: the ``bench_service`` campaign, served with 4-day
#: windows every 2 days (3 frames over 8 days).
SERVICE_WINDOW = {"cmd": "query", "since": 0, "window": 4, "step": 2}
WARM_QUERIES = 1000
CONNECTIONS = 2
#: Extra ``repro serve`` start-ups sampled for set-up time.
SERVE_START_PROBES = 1
#: The crash drill stops the second campaign at its first WAL append
#: after this many checkpoints (days 3 and 6).
CRASH_AFTER_CHECKPOINTS = 2


class SetupDone(Exception):
    """Raised at the first timed call of a ``--setup-only`` launch."""


class SimulatedCrash(BaseException):
    """The injected crash (a BaseException, so no handler swallows it)."""


def digest(document) -> str:
    """SHA-256 of a JSON document in canonical form."""
    text = json.dumps(document, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def tables_digest(tables: dict) -> str:
    """Digest of a report's tables minus the wall-clock ``parallel*``."""
    return digest({name: table for name, table in tables.items()
                   if not name.startswith("parallel")})


# -- workload inputs --------------------------------------------------------

def study_config(variant: int):
    """``benchmarks/conftest.py::experiment`` (bench scale), sequential."""
    from repro.core.campaign import CampaignConfig
    from repro.core.pipeline import ExperimentConfig
    from repro.world.population import WorldConfig

    return ExperimentConfig(
        world=WorldConfig(scale=0.5),
        campaign=CampaignConfig(days=28, wire_fraction=0.02),
        rl_days=8, gap_days=10, lead_days=21, final_days=7,
        scan_shards=1, scan_seed=SCAN_SEED + variant)


def service_config(variant: int, store_dir: str):
    """The ``bench_service`` campaign: 8 days at scale 0.05."""
    from repro.core.campaign import CampaignConfig
    from repro.service import ServiceConfig
    from repro.world.population import WorldConfig

    return ServiceConfig(
        world=WorldConfig(seed=20240720, scale=0.05),
        campaign=CampaignConfig(days=10 ** 9, wire_fraction=0.0),
        store_dir=store_dir, campaign_days=8, checkpoint_days=3,
        hitlist_days=4, segment_max_records=2048,
        scan_seed=SCAN_SEED + variant)


def amplification_config(variant: int):
    from repro.api import AmplificationConfig

    return AmplificationConfig(servers=20000, seed=PROFILE_SEED + variant)


# -- one launch ---------------------------------------------------------------

class Run:
    """What one launch measured and checked."""

    def __init__(self, workload: str, seed: int, *, trace: bool,
                 setup_only: bool) -> None:
        self.workload = workload
        self.seed = seed
        self.variant = seed % VARIANTS
        self.trace = trace
        self.setup_only = setup_only
        self.ready_at = None
        self.timings = {}
        self.checks = []
        self.counters = {}
        self.layer = {}
        self.serve_starts = []
        self.server_spans = []
        self.tracer = None
        self.scratch = os.path.join(WORK_DIR, "tmp", str(os.getpid()))

    def ready(self) -> None:
        """Mark the first timed call; ends a ``--setup-only`` launch."""
        self.ready_at = time.monotonic()
        if self.setup_only:
            raise SetupDone()
        if self.trace:
            from spans import Tracer

            self.tracer = Tracer().install()

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append({"name": name, "ok": bool(ok), "detail": detail})

    def reference(self) -> str:
        with open(REFERENCES, encoding="utf-8") as handle:
            references = json.load(handle).get(self.workload, {})
        return references.get(str(self.variant))

    def spans_path(self, tag: str) -> str:
        os.makedirs(os.path.join(WORK_DIR, "spans"), exist_ok=True)
        return os.path.join(
            WORK_DIR, "spans",
            f"{self.workload}-seed{self.seed}-{os.getpid()}-{tag}.jsonl.gz")


def _sum_counter(report, name: str) -> float:
    return sum(entry["value"]
               for entry in report.metrics.get("counters", ())
               if entry["name"] == name)


def _scan_counters(report) -> dict:
    probes = _sum_counter(report, "probe_attempts_total")
    success = _sum_counter(report, "probe_success_total")
    return {
        "realtime.dropped": _sum_counter(report, "stage_dropped_total"),
        "scan.probes": probes,
        "scan.success_ratio": success / probes if probes else 0.0,
    }


def _timed_call(run: Run, call, outputs: str) -> None:
    """Time one public call and check its tables against the reference."""
    run.ready()
    start = perf_counter()
    result = call()
    run.timings["run_s"] = perf_counter() - start
    _finish_tracing(run)
    found = tables_digest(result.report.tables)
    run.check(f"{outputs} match the reference digest",
              found == run.reference(), found)
    run.counters = _scan_counters(result.report)


def run_study(run: Run) -> None:
    from repro import api

    config = study_config(run.variant)
    _timed_call(run, lambda: api.study(config), "study tables")


def run_amplification(run: Run) -> None:
    from repro import api

    config = amplification_config(run.variant)
    _timed_call(run, lambda: api.amplification(config),
                "amplification tables")


def _crash_after_checkpoints(count: int):
    state = {"checkpoints": 0}

    def hook(point, seq, acked):
        if point == "checkpoint":
            state["checkpoints"] += 1
        elif point == "post-append" and state["checkpoints"] >= count:
            raise SimulatedCrash()

    return hook


def run_service(run: Run) -> None:
    from repro import api
    from repro.store import RunStore, fault_injection

    golden_dir = os.path.join(run.scratch, "golden")
    crashed_dir = os.path.join(run.scratch, "crashed")
    golden_config = service_config(run.variant, golden_dir)
    crashed_config = service_config(run.variant, crashed_dir)
    run.ready()

    start = perf_counter()
    golden = api.run_campaign(golden_config)
    run.timings["campaign_s"] = perf_counter() - start

    crashed = False
    with fault_injection(_crash_after_checkpoints(CRASH_AFTER_CHECKPOINTS)):
        try:
            api.run_campaign(crashed_config)
        except SimulatedCrash:
            crashed = True
    run.check("crash injected after the day-6 checkpoint", crashed)

    start = perf_counter()
    resumed = api.resume_campaign(crashed_dir)
    run.timings["resume_s"] = perf_counter() - start

    golden_tables = json.loads(json.dumps(golden.report.tables))
    resumed_tables = json.loads(json.dumps(resumed.report.tables))
    golden_tables["store"].pop("run_dir")
    resumed_tables["store"].pop("run_dir")
    run.check("resumed campaign tables equal the uninterrupted run's",
              resumed_tables == golden_tables)
    verify = RunStore.open(crashed_dir).verify()
    run.check("resumed store verifies", verify["ok"],
              "; ".join(verify["problems"][:3]))

    if not run.trace:
        for _ in range(SERVE_START_PROBES):
            with Server(run, golden_dir, traced=False):
                pass
    with Server(run, golden_dir, traced=run.trace) as server:
        _serve_queries(run, server)
    run.check("repro serve exits 0 on SIGINT", server.returncode == 0,
              f"exit status {server.returncode}")
    run.timings["run_s"] = (run.timings["campaign_s"]
                            + run.timings["resume_s"]
                            + run.timings["query_cold_s"]
                            + run.timings["warm_s"])
    if run.trace:
        from spans import load

        run.server_spans = load(server.spans)
    _finish_tracing(run)
    run.counters.update(_scan_counters(golden.report))


class Server:
    """``repro serve`` in its own process, stopped with SIGINT."""

    def __init__(self, run: Run, run_dir: str, *, traced: bool) -> None:
        self.run = run
        self.spans = run.spans_path("server") if traced else None
        if traced:
            command = [sys.executable, os.path.join(HERE, "serve.py"),
                       "--spans", self.spans]
        else:
            command = [sys.executable, "-m", "repro"]
        self.command = command + [
            "serve", run_dir, "--port", "0",
            "--window", str(SERVICE_WINDOW["window"]),
            "--step", str(SERVICE_WINDOW["step"])]
        self.process = None
        self.address = None
        self.returncode = None

    def __enter__(self) -> "Server":
        launched = time.monotonic()
        self.process = subprocess.Popen(self.command, cwd=ROOT,
                                        stderr=subprocess.PIPE)
        try:
            line = self.process.stderr.readline().decode("utf-8")
            if not line.startswith("serving "):
                raise RuntimeError(f"repro serve did not start: {line!r}")
            self.run.serve_starts.append(time.monotonic() - launched)
            host, _, port = line.rsplit(" on ", 1)[1].split()[0].rpartition(":")
            self.address = (host, int(port))
        except BaseException:
            self.stop()
            raise
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    def stop(self) -> None:
        if self.process is None:
            return
        process, self.process = self.process, None
        if process.poll() is None:
            process.send_signal(signal.SIGINT)
        try:
            process.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            process.kill()
            process.communicate()
        self.returncode = process.returncode


class Connection:
    """One persistent JSON-lines connection to ``repro serve``."""

    def __init__(self, address) -> None:
        self.sock = socket.create_connection(address, timeout=120)
        self.reader = self.sock.makefile("rb")

    def request(self, line: bytes) -> bytes:
        self.sock.sendall(line)
        return self.reader.readline()

    def close(self) -> None:
        self.reader.close()
        self.sock.close()


def _serve_queries(run: Run, server: Server) -> None:
    query = json.dumps(SERVICE_WINDOW).encode("utf-8") + b"\n"
    connections = [Connection(server.address) for _ in range(CONNECTIONS)]
    try:
        start = perf_counter()
        cold = connections[0].request(query)
        run.timings["query_cold_s"] = perf_counter() - start
        reply = json.loads(cold)
        ok = reply.pop("ok", False)
        found = digest(reply)
        run.check("cold reply is ok and equals the reference window "
                  "document", ok and found == run.reference(), found)

        latencies = [[] for _ in connections]
        wrong = [0] * len(connections)
        tickets = itertools.count()

        def client(index: int) -> None:
            connection = connections[index]
            samples = latencies[index]
            while next(tickets) < WARM_QUERIES:
                began = perf_counter()
                answer = connection.request(query)
                samples.append(perf_counter() - began)
                if answer != cold:
                    wrong[index] += 1

        threads = [threading.Thread(target=client, args=(index,))
                   for index in range(len(connections))]
        start = perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        warm = perf_counter() - start
        samples = sorted(sample for series in latencies for sample in series)
        run.timings["warm_s"] = warm
        run.timings["query_p50_ms"] = _nearest_rank(samples, 0.50) * 1e3
        run.timings["query_p99_ms"] = _nearest_rank(samples, 0.99) * 1e3
        run.timings["queries_per_s"] = len(samples) / warm
        run.check(f"{len(samples)} warm replies equal the cold reply",
                  len(samples) == WARM_QUERIES and not sum(wrong),
                  f"{sum(wrong)} differ")

        stats = json.loads(connections[0].request(b'{"cmd": "stats"}\n'))
        cache = stats["cache"]
        lookups = cache["hits"] + cache["misses"]
        run.counters["query.cache_hit_ratio"] = (
            cache["hits"] / lookups if lookups else 0.0)
    finally:
        for connection in connections:
            connection.close()


def _nearest_rank(ordered, fraction: float) -> float:
    return ordered[min(len(ordered) - 1, int(fraction * len(ordered)))]


def _finish_tracing(run: Run) -> None:
    """Stop tracing, write the spans out and reduce them to metrics."""
    if run.tracer is None:
        return
    from spans import fired, layer_metrics

    tracer, run.tracer = run.tracer, None
    tracer.restore()
    tracer.dump(run.spans_path("main"))
    counts = fired(tracer.spans)
    server_counts = fired(run.server_spans)
    missing = [name for name in EXPECTED_SPANS[run.workload]
               if not counts.get(name)]
    if run.workload == "service":
        missing += [name for name in SERVER_SPANS
                    if not server_counts.get(name)]
    run.check("every expected span fired", not missing,
              ", ".join(missing))
    # Spans of the two processes have separate ids and add up.
    run.layer = layer_metrics(tracer.spans)
    for name, value in layer_metrics(run.server_spans).items():
        run.layer[name] += value


WORKLOADS = {
    "study": run_study,
    "service": run_service,
    "amplification": run_amplification,
}


# -- reference digests --------------------------------------------------------

def reference_digest(workload: str, variant: int) -> str:
    """The digest a correct run of ``workload`` on ``variant`` yields.

    ``service``'s is the window document an in-process query of the
    finished campaign returns.
    """
    from repro import api

    if workload == "study":
        return tables_digest(api.study(study_config(variant)).report.tables)
    if workload == "amplification":
        return tables_digest(
            api.amplification(amplification_config(variant)).report.tables)
    scratch = os.path.join(WORK_DIR, "tmp", str(os.getpid()))
    try:
        run_dir = os.path.join(scratch, "reference")
        api.run_campaign(service_config(variant, run_dir))
        document = api.query_window(
            run_dir, since=SERVICE_WINDOW["since"],
            window=SERVICE_WINDOW["window"],
            step=SERVICE_WINDOW["step"]).document
        return digest(json.loads(json.dumps(document)))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


# -- entry point --------------------------------------------------------------

def _peak_rss_mb() -> float:
    """Largest ``ru_maxrss`` of this process and every reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def _provenance(run: Run) -> dict:
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    backends = [name for name in ("numpy", "python")
                if f"repro.ipv6._columnar_{name}" in sys.modules]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "columnar_backend": ",".join(backends) or "not loaded",
        "seed": run.seed,
        "variant": run.variant,
        "why": WHY[run.workload],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--reference", action="store_true")
    args = parser.parse_args(argv)

    if args.reference:
        document = {"digest": reference_digest(args.workload,
                                               args.seed % VARIANTS)}
    else:
        run = Run(args.workload, args.seed, trace=args.trace,
                  setup_only=args.setup_only)
        try:
            WORKLOADS[args.workload](run)
        except SetupDone:
            pass
        finally:
            if run.tracer is not None:
                run.tracer.restore()
            shutil.rmtree(run.scratch, ignore_errors=True)
        document = {
            "workload": run.workload,
            "ready_at": run.ready_at,
            "timings": run.timings,
            "serve_starts": run.serve_starts,
            "checks": run.checks,
            "counters": run.counters,
            "layer": run.layer,
            "peak_rss_mb": _peak_rss_mb(),
            "provenance": _provenance(run),
        }
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(document, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
