"""A fixed pure-Python job that gauges how fast the host runs Python.

    python3 perfbench/yardstick.py

repeats a short fixed pass every :data:`INTERVAL` seconds until SIGTERM
(or until its parent exits), then prints the mean CPU seconds of the
passes it finished after a warm-up pass, or an empty line if it
finished none.

The benchmark's hosts are shared, and their speed drifts: the same
code's ``study`` has taken 7 s and 14 s on the same 2-core VM within
ten minutes, and a pass of this script, pinned to one core, took
40 ms of CPU time in one second and 75 ms a few seconds later, on each
core at different moments.  ``run.py`` therefore pins every
repetition of a workload and this script to the same core, and reports
the repetition's run time as a multiple of the mean pass
(``run_rel``), beside the raw wall time (``run_s``).  Sleeping
:data:`INTERVAL` between passes, it takes under 7% of the core.

The job is what the program spends its time on, interpreted Python:
it allocates slotted objects, builds and probes a tuple-keyed dict,
and joins strings.  Its working set (well under 1 MB) stays in a
core's private cache, so the yardstick follows the speed of the core
and not the memory traffic of other tenants, which moves it far more
than it moves the program.  It never imports the program, so a change
to the program cannot move it.

A pass is timed in CPU seconds of this process, not wall seconds.  The
host slowing the core (a busier neighbour, a lower clock, preemption
the guest cannot see) lengthens both, but the program sharing the core
lengthens only the wall time, so the program cannot slow the yardstick
and flatter ``run_rel`` by keeping the core busier.
"""

from __future__ import annotations

import os
import random
import signal
import statistics
import time
from typing import Optional

#: Objects per round and rounds per pass: about 7 ms of CPU time a pass
#: on a 2-core VM while its host was busy.
SIZE = 1_000
ROUNDS = 4
#: Seconds of sleep between passes.
INTERVAL = 0.1


class _Node:
    __slots__ = ("key", "weight", "tags")

    def __init__(self, key: int, weight: float) -> None:
        self.key = key
        self.weight = weight
        self.tags = (key & 7, key % 13)


def _one_pass() -> float:
    rng = random.Random(0x5EED)
    total = 0.0
    for _ in range(ROUNDS):
        nodes = [_Node(rng.getrandbits(32), rng.random())
                 for _ in range(SIZE)]
        index = {(node.key >> 16, node.key & 0xFFFF): node
                 for node in nodes}
        for node in nodes:
            hit = index[(node.key >> 16, node.key & 0xFFFF)]
            total += hit.weight * hit.tags[0]
        total += len(",".join(str(node.key) for node in nodes))
    return total


def beside() -> Optional[float]:
    """Mean of the passes finished before SIGTERM or the parent exits.

    The first pass of a process runs slower and is not timed, nor is
    the pass the signal interrupts; None if no pass was timed.
    """
    parent = os.getppid()
    stop = []
    signal.signal(signal.SIGTERM, lambda *_: stop.append(True))
    _one_pass()
    times = []
    while not stop and os.getppid() == parent:
        time.sleep(INTERVAL)
        start = time.process_time()
        _one_pass()
        if not stop:
            times.append(time.process_time() - start)
    return statistics.fmean(times) if times else None


if __name__ == "__main__":
    median = beside()
    print("" if median is None else repr(median))
