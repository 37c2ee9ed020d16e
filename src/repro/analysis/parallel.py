"""The Section-4 tables as a fixed, in-order job list.

The Table/Figure computations over a finished pair of scan campaigns
are mutually independent — each side of Table 3 (HTTP title clustering,
SSH OS buckets, CoAP resource groups), the Figure-2 SSH outdatedness
assessment, the Figure-3 broker access-control classification, and the
Section-6 key-reuse sweep each read only their own slice of the
immutable :class:`~repro.scan.result.ScanResults`.  This module runs
them as a fixed, deterministic job list, in order, in this process.

Each job records into its own fresh
:class:`~repro.obs.metrics.MetricsRegistry`, and the jobs' registries
fold into the caller's registry **in job-list order**, so the
assembled :class:`AnalysisBundle` and every ``analysis_*`` metric
series depend only on the inputs.  DESIGN.md §8 records why there is
no process pool behind this loop.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.analysis import devicetypes, keyreuse, security
from repro.analysis.devicetypes import DeviceTypeTable
from repro.analysis.keyreuse import ReuseReport
from repro.analysis.security import (
    AccessControlReport,
    OutdatednessReport,
    SecureShareReport,
)
from repro.obs.metrics import MetricsRegistry, current_registry, use_registry
from repro.scan.result import ScanResults
from repro.world.asdb import AsDatabase

#: The two dataset sides every analysis job list covers, in order.
SIDES = ("ntp", "hitlist")

#: Broker protocol families of Figure 3, in order.
BROKER_PROTOCOLS = ("mqtt", "amqp")


@dataclass
class AnalysisTask:
    """One independent table/figure computation.

    The task names its inputs: the scan results, the dataset label,
    and for key reuse the AS database.  ``job`` is unique within one
    :func:`run_analysis` call and keys the job's value.
    """

    job: str
    kind: str
    dataset: str
    results: ScanResults
    protocol: Optional[str] = None
    asdb: Optional[AsDatabase] = None


@dataclass
class AnalysisBundle:
    """Every Section-4/6 artefact of one analysis run, merged."""

    table3: DeviceTypeTable
    ssh: Dict[str, OutdatednessReport]
    brokers: Dict[Tuple[str, str], AccessControlReport]
    secure: Dict[str, SecureShareReport]
    keyreuse: Dict[str, ReuseReport] = field(default_factory=dict)

    def security_gap(self) -> Tuple[SecureShareReport, SecureShareReport]:
        """The paper's headline pair: (NTP report, hitlist report)."""
        return self.secure["ntp"], self.secure["hitlist"]


def _job_http_groups(task: AnalysisTask):
    return tuple(devicetypes.http_title_groups(task.results,
                                               dataset=task.dataset))


def _job_ssh_os(task: AnalysisTask):
    return devicetypes.ssh_os_counts(task.results)


def _job_coap_groups(task: AnalysisTask):
    return devicetypes.coap_group_counts(task.results)


def _job_ssh_outdatedness(task: AnalysisTask):
    return security.ssh_outdatedness(task.dataset, task.results)


def _job_broker(task: AnalysisTask):
    return security.broker_access_control(task.dataset, task.results,
                                          task.protocol)


def _job_keyreuse(task: AnalysisTask):
    return keyreuse.analyze(task.dataset, task.results, task.asdb)


_JOB_KINDS = {
    "http_groups": _job_http_groups,
    "ssh_os": _job_ssh_os,
    "coap_groups": _job_coap_groups,
    "ssh_outdatedness": _job_ssh_outdatedness,
    "broker": _job_broker,
    "keyreuse": _job_keyreuse,
}


def analysis_tasks(ntp: ScanResults, hitlist: ScanResults,
                   asdb: Optional[AsDatabase] = None) -> List[AnalysisTask]:
    """The canonical job list, in deterministic merge order."""
    tasks: List[AnalysisTask] = []
    for dataset, results in zip(SIDES, (ntp, hitlist)):
        tasks.append(AnalysisTask(f"table3_http:{dataset}", "http_groups",
                                  dataset, results))
        tasks.append(AnalysisTask(f"table3_ssh:{dataset}", "ssh_os",
                                  dataset, results))
        tasks.append(AnalysisTask(f"table3_coap:{dataset}", "coap_groups",
                                  dataset, results))
        tasks.append(AnalysisTask(f"fig2_ssh:{dataset}", "ssh_outdatedness",
                                  dataset, results))
        for protocol in BROKER_PROTOCOLS:
            tasks.append(AnalysisTask(f"fig3_{protocol}:{dataset}", "broker",
                                      dataset, results, protocol=protocol))
        if asdb is not None:
            tasks.append(AnalysisTask(f"keyreuse:{dataset}", "keyreuse",
                                      dataset, results, asdb=asdb))
    return tasks


def run_analysis(ntp: ScanResults, hitlist: ScanResults, *,
                 asdb: Optional[AsDatabase] = None) -> AnalysisBundle:
    """Run every analysis job and merge the outcomes deterministically.

    Jobs run in job-list order, each under a private registry that
    folds into the current metrics registry as soon as the job ends.
    Key reuse requires ``asdb`` and is skipped without one (offline
    re-analysis of saved scan files has no AS database).
    """
    registry = current_registry()
    values: Dict[str, object] = {}
    for task in analysis_tasks(ntp, hitlist, asdb):
        job_registry = MetricsRegistry()
        with use_registry(job_registry):
            values[task.job] = _JOB_KINDS[task.kind](task)
            job_registry.counter("analysis_jobs_total").inc()
        registry.merge(job_registry)
    return _assemble(values, asdb is not None)


def _assemble(values: Dict[str, object],
              with_keyreuse: bool) -> AnalysisBundle:
    """Fold job values into one bundle, in fixed field order."""
    ssh = {side: values[f"fig2_ssh:{side}"] for side in SIDES}
    brokers = {(side, protocol): values[f"fig3_{protocol}:{side}"]
               for side in SIDES for protocol in BROKER_PROTOCOLS}
    secure = {}
    for side in SIDES:
        mqtt = brokers[(side, "mqtt")]
        amqp = brokers[(side, "amqp")]
        secure[side] = SecureShareReport(
            label=side,
            ssh_assessed=ssh[side].assessed,
            ssh_secure=ssh[side].up_to_date,
            brokers_total=mqtt.total + amqp.total,
            brokers_secure=mqtt.controlled + amqp.controlled,
        )
    reuse = {side: values[f"keyreuse:{side}"] for side in SIDES} \
        if with_keyreuse else {}
    return AnalysisBundle(
        table3=DeviceTypeTable(
            http_ntp=values["table3_http:ntp"],
            http_hitlist=values["table3_http:hitlist"],
            ssh_ntp=values["table3_ssh:ntp"],
            ssh_hitlist=values["table3_ssh:hitlist"],
            coap_ntp=values["table3_coap:ntp"],
            coap_hitlist=values["table3_coap:hitlist"],
        ),
        ssh=ssh,
        brokers=brokers,
        secure=secure,
        keyreuse=reuse,
    )
