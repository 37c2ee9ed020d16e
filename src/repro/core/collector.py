"""NTP-based address collection (the paper's Section 3 pipeline).

A :class:`CaptureServer` is a pool-member NTP server whose capture hook
feeds a :class:`CollectedDataset` — the growing set of client IPv6
addresses with observation metadata.  The dataset is the object every
downstream analysis consumes: Table 1's counts, Figure 1's structure
profile, Appendix B's MAC analysis, and the real-time scan queue.

First sightings are published as typed
:class:`~repro.runtime.bus.AddressSighted` events on the dataset's
:class:`~repro.runtime.bus.EventBus` — the trigger of the paper's
real-time scans.  The seed-era callback API
(:meth:`CollectedDataset.add_new_address_hook`) remains as a thin
adapter over the bus.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, Optional, Set

from repro.net.simnet import Network
from repro.ntp.packet import NtpPacket
from repro.ntp.server import NtpServer
from repro.runtime.bus import AddressSighted, EventBus

#: Observer invoked when an address is seen for the very first time:
#: (address, first_seen_time, server_location).
NewAddressHook = Callable[[int, float, str], None]


@dataclass
class AddressObservation:
    """Aggregate record for one distinct collected address."""

    first_seen: float
    last_seen: float
    requests: int = 1


@dataclass
class CollectedDataset:
    """All addresses captured by one collection campaign."""

    label: str = "ntp"
    observations: Dict[int, AddressObservation] = field(default_factory=dict)
    per_server: Dict[str, Set[int]] = field(default_factory=dict)
    total_requests: int = 0
    #: First-sightings publish :class:`AddressSighted` events here.
    bus: EventBus = field(default_factory=EventBus)

    def add_new_address_hook(self, hook: NewAddressHook) -> None:
        """Subscribe to first-sightings (the real-time scan trigger).

        Seed-era adapter: wraps ``hook`` as an :class:`AddressSighted`
        subscriber on :attr:`bus`.
        """
        self.bus.subscribe(
            AddressSighted,
            lambda event: hook(event.address, event.time,
                               event.server_location))

    def record(self, address: int, time: float, server_location: str,
               requests: int = 1) -> bool:
        """Record ``requests`` observations of ``address`` at ``time``.

        Returns True when the address is new to the dataset.
        """
        self.total_requests += requests
        self.per_server.setdefault(server_location, set()).add(address)
        observation = self.observations.get(address)
        if observation is not None:
            observation.last_seen = max(observation.last_seen, time)
            observation.requests += requests
            return False
        self.observations[address] = AddressObservation(
            first_seen=time, last_seen=time, requests=requests,
        )
        self.bus.publish(AddressSighted(
            address=address, time=time, server_location=server_location))
        return True

    # -- views ------------------------------------------------------------

    @property
    def addresses(self) -> Set[int]:
        """The distinct collected addresses."""
        return set(self.observations)

    def __len__(self) -> int:
        return len(self.observations)

    def __contains__(self, address: int) -> bool:
        return address in self.observations

    def iter_addresses(self) -> Iterator[int]:
        return iter(self.observations)

    def per_server_counts(self) -> Dict[str, int]:
        """Distinct addresses per capture server (Appendix D, Table 7)."""
        return {loc: len(addrs) for loc, addrs in self.per_server.items()}

    def first_seen(self, address: int) -> Optional[float]:
        observation = self.observations.get(address)
        return observation.first_seen if observation else None

    def new_addresses_per_day(self, day_length: float = 86_400.0) -> Dict[int, int]:
        """Histogram of first-sightings per day (collection-rate check)."""
        histogram: Dict[int, int] = {}
        for observation in self.observations.values():
            day = int(observation.first_seen // day_length)
            histogram[day] = histogram.get(day, 0) + 1
        return histogram


class CaptureServer:
    """A pool NTP server modified to log client source addresses."""

    def __init__(self, network: Network, address: int, location: str,
                 dataset: CollectedDataset) -> None:
        self.location = location
        self.dataset = dataset
        self.server = NtpServer(network, address, location=location)
        self.server.add_capture_hook(self._capture)

    @property
    def address(self) -> int:
        return self.server.address

    @property
    def stats(self):
        return self.server.stats

    def _capture(self, client: int, client_port: int,
                 request: NtpPacket, time: float) -> None:
        self.dataset.record(client, time, self.location)

    def record_direct(self, client: int, time: float,
                      requests: int = 1) -> None:
        """Fast-path capture used by the campaign's aggregate mode.

        Statistically equivalent to ``requests`` wire round-trips
        hitting :meth:`_capture`; the server's request counters are kept
        consistent so operational stats match either mode.
        """
        self.server.stats.requests += requests
        self.server.stats.responses += requests
        self.dataset.record(client, time, self.location, requests=requests)
