"""The end-to-end benchmark: one workload per invocation, or all three.

    python3 perfbench/run.py --workload study --seed 1 --seconds 30 \\
        --trace 0

Run from the root of a source checkout (``src/repro`` must exist).
Workloads: ``study``, ``service``, ``amplification``
(see ``perfbench/README.md``), or ``all`` to run each in turn.

Every repetition of a workload runs in a fresh process
(``workload.py``).  An untraced run (``--trace 0``) first samples
set-up time in :data:`SETUP_PROBES` launches that stop at the first
timed call, then repeats the workload while another repetition still
fits in ``--seconds`` (at least once) and reports medians.  Every
launch runs on one core, :data:`CORE`; beside every repetition the
fixed :mod:`yardstick` runs on the same core, and a repetition's
``run_rel`` is its run time as a multiple of the mean yardstick pass
timed meanwhile, so that the core's speed drifting within and between
runs cancels out.  For the same reason ``setup_s`` is the median
set-up time scaled to a reference core by the run's median yardstick
pass (the measured one is printed as ``setup_wall_s``).  A traced
run (``--trace 1``) makes one untraced and one traced repetition and
reports the per-layer metrics, with the difference of the two, scaled
to one core speed by the yardstick, as ``trace.overhead_s``.

The human-readable report goes to standard output, followed by one
JSON line: ``{"correct", "attempted", "failed", "metrics"}``.  Each
launch's raw result stays in ``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK_DIR = os.path.join(ROOT, ".perfbench")
WORKLOAD_PY = os.path.join(HERE, "workload.py")
YARDSTICK_PY = os.path.join(HERE, "yardstick.py")
#: The host's speed drifts per core, so a launch and the yardstick
#: that gauges it share one core.
CORE = max(os.sched_getaffinity(0))
#: ``setup_s`` is in seconds of a reference core, on which a yardstick
#: pass takes this long.
REFERENCE_PASS_S = 0.005
WORKLOADS = ("study", "service", "amplification")

#: Set-up-only launches per untraced run (plus one per repetition).
SETUP_PROBES = 2
#: Launches still running this long after the run began are killed
#: and counted failed, so a run ends within 180 s even if one hangs.
DEADLINE_S = 170.0
#: Repetitions stop before a run could exceed this wall time.
RUN_BUDGET_S = 150.0

END_TO_END = (("setup_s", "s"), ("run_rel", "x"), ("peak_rss_mb", "MB"))
#: Printed by every run; per-layer metrics of traced runs.
RAW_TIMES = (("run_s", "s"), ("yardstick_s", "s"))
SERVICE_PHASES = (("campaign_s", "s"), ("resume_s", "s"),
                  ("query_cold_s", "s"), ("query_p50_ms", "ms"),
                  ("query_p99_ms", "ms"), ("queries_per_s", "1/s"))
LAYER_UNITS = {
    "world.build_s": "s", "world.churn_s": "s",
    "world.hitlist_build_s": "s", "campaign.day_self_s": "s",
    "campaign.days": "count", "realtime.feed_s": "s",
    "realtime.feeds": "count", "realtime.dropped": "count",
    "scan.run_s": "s", "scan.targets": "count", "scan.probes": "count",
    "scan.success_ratio": "ratio", "analysis.run_s": "s",
    "store.append_s": "s", "store.appends": "count", "store.sync_s": "s",
    "store.syncs": "count", "store.checkpoint_s": "s",
    "store.recover_s": "s", "store.replayed": "count",
    "daemon.tick_s": "s", "query.query_s": "s", "query.horizon_s": "s",
    "query.window_s": "s",
    "query.frames_built": "count", "query.cache_hit_ratio": "ratio",
    "ntp.seed_s": "s", "simnet.udp_multi_s": "s",
    "simnet.udp_multi_calls": "count",
}


class Launches:
    """Fresh ``workload.py`` processes for one workload and seed."""

    def __init__(self, workload: str, seed: int) -> None:
        self.workload = workload
        self.seed = seed
        self.count = 0
        self.failures = []
        self.deadline = time.monotonic() + DEADLINE_S
        os.makedirs(os.path.join(WORK_DIR, "results"), exist_ok=True)

    def launch(self, *flags: str, beside: bool = False):
        """Run one launch; returns (result document or None, wall s).

        With ``beside``, the yardstick runs on the launch's core for as
        long as the launch does, and the result's ``yardstick_s`` is
        the mean of the passes it timed.
        """
        self.count += 1
        out = os.path.join(
            WORK_DIR, "results",
            f"{self.workload}-seed{self.seed}-{os.getpid()}-{self.count}.json")
        command = [sys.executable, WORKLOAD_PY, "--workload", self.workload,
                   "--seed", str(self.seed), "--out", out, *flags]
        src = os.path.join(ROOT, "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            part for part in (src, env.get("PYTHONPATH")) if part)
        yardstick = None
        if beside:
            yardstick = subprocess.Popen([sys.executable, YARDSTICK_PY],
                                         stdout=subprocess.PIPE, text=True,
                                         preexec_fn=_pin)
        launched = time.monotonic()
        # Own session, so a timeout can stop the server the launch
        # started along with it.
        process = subprocess.Popen(command, cwd=ROOT, env=env,
                                   stdout=sys.stderr, preexec_fn=_pin,
                                   start_new_session=True)
        try:
            status = process.wait(
                timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            status = "timeout"
        finally:
            # Also on SIGTERM/SIGINT to this process: stop the whole
            # session, server included, and the yardstick.
            if process.poll() is None:
                os.killpg(process.pid, signal.SIGKILL)
                process.wait()
            yardstick_s = _stop_yardstick(yardstick)
        wall = time.monotonic() - launched
        if beside and yardstick_s is None:
            status = "no yardstick pass"
        if status != 0 or not os.path.exists(out):
            self.failures.append(f"launch {' '.join(flags) or 'run'} "
                                 f"ended with {status}")
            return None, wall
        with open(out, encoding="utf-8") as handle:
            result = json.load(handle)
        result["setup_s"] = result["ready_at"] - launched
        result["yardstick_s"] = yardstick_s
        return result, wall


def _pin() -> None:
    os.sched_setaffinity(0, {CORE})


def _stop_yardstick(process):
    """Stop a yardstick started beside a launch; its mean or None."""
    if process is None:
        return None
    process.send_signal(signal.SIGTERM)
    try:
        out, _ = process.communicate(timeout=30)
    except subprocess.TimeoutExpired:
        process.kill()
        process.communicate()
        return None
    try:
        return float(out)
    except ValueError:
        return None


def _tally(results, launches: Launches):
    """(attempted, failed, failed check descriptions)."""
    attempted = len(launches.failures)
    failed = list(launches.failures)
    for result in results:
        for check in result["checks"]:
            attempted += 1
            if not check["ok"]:
                failed.append(f"{check['name']}: {check['detail']}")
    return max(attempted, 1), failed


def untraced(workload: str, seed: int, seconds: float):
    launches = Launches(workload, seed)
    setups = []
    for _ in range(SETUP_PROBES):
        probe, _ = launches.launch("--setup-only")
        if probe is not None:
            setups.append(probe["setup_s"])
    reps = []
    began = time.monotonic()
    while True:
        result, wall = launches.launch(beside=True)
        if result is not None:
            reps.append(result)
        elapsed = time.monotonic() - began
        if (result is None or elapsed + wall > seconds
                or elapsed + 2 * wall > RUN_BUDGET_S):
            break
    attempted, failed = _tally(reps, launches)
    if not reps:
        return None, reps, attempted, failed
    setups += [rep["setup_s"] for rep in reps]
    setup = statistics.median(setups)
    if workload == "service":
        # Add the time ``repro serve`` takes to accept connections.
        setup += statistics.median(
            start for rep in reps for start in rep["serve_starts"])
    yardstick_s = statistics.median(rep["yardstick_s"] for rep in reps)
    metrics = {
        "setup_s": setup * REFERENCE_PASS_S / yardstick_s,
        "run_rel": statistics.median(rep["timings"]["run_s"]
                                     / rep["yardstick_s"] for rep in reps),
        "peak_rss_mb": statistics.median(rep["peak_rss_mb"] for rep in reps),
        "setup_wall_s": setup,
        "run_s": statistics.median(rep["timings"]["run_s"] for rep in reps),
        "yardstick_s": yardstick_s,
    }
    for name, _ in SERVICE_PHASES:
        if workload == "service":
            metrics[name] = statistics.median(rep["timings"][name]
                                              for rep in reps)
    metrics["failed_share"] = len(failed) / attempted
    return metrics, reps, attempted, failed


def traced(workload: str, seed: int):
    launches = Launches(workload, seed)
    plain, _ = launches.launch(beside=True)
    tracing, _ = launches.launch("--trace", beside=True)
    reps = [result for result in (plain, tracing) if result is not None]
    attempted, failed = _tally(reps, launches)
    if plain is None or tracing is None:
        return None, reps, attempted, failed
    metrics = dict(tracing["layer"])
    for name in ("realtime.dropped", "scan.probes", "scan.success_ratio",
                 "query.cache_hit_ratio"):
        metrics[name] = tracing["counters"].get(name, 0.0)
    for name, _ in SERVICE_PHASES:
        metrics[name] = plain["timings"].get(name, 0.0)
    metrics["run_s"] = plain["timings"]["run_s"]
    metrics["yardstick_s"] = plain["yardstick_s"]
    # The traced run time at the untraced repetition's core speed.
    metrics["trace.overhead_s"] = (
        tracing["timings"]["run_s"] * plain["yardstick_s"]
        / tracing["yardstick_s"] - plain["timings"]["run_s"])
    metrics["failed_share"] = len(failed) / attempted
    return metrics, reps, attempted, failed


def unit_of(name: str) -> str:
    units = dict(END_TO_END + RAW_TIMES + SERVICE_PHASES)
    units.update(LAYER_UNITS)
    units.update({"trace.overhead_s": "s", "failed_share": "ratio",
                  "setup_wall_s": "s"})
    return units[name]


def git_revision() -> str:
    """HEAD of the checkout, or ``unknown`` outside a git work tree."""
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    try:
        return subprocess.run(
            ["git", "--git-dir", os.path.join(ROOT, ".git"), "rev-parse",
             "HEAD"], capture_output=True, text=True, timeout=30,
            check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def report(workload: str, seed: int, trace: bool, metrics, reps,
           attempted: int, failed) -> dict:
    """Print the human-readable block; return the result object."""
    provenance = dict(reps[0]["provenance"]) if reps else {}
    provenance["git"] = git_revision()
    provenance["repetitions"] = len(reps)
    print(f"== {workload} (seed {seed}, {'traced' if trace else 'untraced'})")
    for key, value in provenance.items():
        print(f"  {key:<18} {value}")
    for name, value in (metrics or {}).items():
        print(f"  {name:<24} {value:14.6f} {unit_of(name)}")
    for problem in failed:
        print(f"  FAILED {problem}")
    if metrics is None:
        return {"correct": False, "attempted": attempted,
                "failed": len(failed), "metrics": {}}
    if trace:
        names = list(LAYER_UNITS) + [
            name for name, _ in SERVICE_PHASES + RAW_TIMES] + [
            "trace.overhead_s", "failed_share"]
    else:
        names = [name for name, _ in END_TO_END]
    return {
        "correct": not failed,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {name: {"value": metrics[name], "unit": unit_of(name)}
                    for name in names},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "api.py")):
        print(f"error: {ROOT} is not a source checkout (no src/repro); "
              "run from the repository root", file=sys.stderr)
        return 2
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    for workload in workloads:
        if args.trace:
            outcome = traced(workload, args.seed)
        else:
            outcome = untraced(workload, args.seed, args.seconds)
        print(json.dumps(report(workload, args.seed, bool(args.trace),
                                *outcome)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
