"""CDN fault injection as a seed-deterministic event timeline.

The paper's §2 robustness story is about what happens *underneath* the
players: servers browning out under demand surges, replicas crashing,
access paths degrading mid-session.  This module turns those into a
declarative, replayable timeline riding the machinery that already
exists:

* :class:`ServerBrownout` tightens one video server's overload
  threshold for a window (the :class:`~repro.http.server.SimHTTPServer`
  queueing penalty kicks in earlier — degraded, not dead);
* :class:`ServerCrash` calls :meth:`~repro.net.topology.Host.fail`
  (connection resets → MSPlayer source failover) and recovers later;
* :class:`PathDegradation` takes a fraction of the population's
  interfaces of one kind down for a window (the §2 walk-out, applied
  population-wide).

:class:`ChurnSpec` samples a timeline from dedicated
:class:`~repro.rng.RngFactory` streams, and :func:`schedule_churn`
registers the timer processes on the shared environment.  The timeline
is data — the same ``(seed, spec)`` pair yields the same events on
every backend.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from collections.abc import Sequence

from ..cdn.deployment import CDNDeployment
from ..errors import ConfigError
from ..net.env import Environment
from ..net.iface import NetworkInterface
from ..rng import RngFactory

__all__ = [
    "ChurnEvent",
    "ChurnSpec",
    "PathDegradation",
    "ServerBrownout",
    "ServerCrash",
    "schedule_churn",
]


def _check_window(start_s: float, end_s: float) -> None:
    if not 0 <= start_s < end_s:
        raise ConfigError(f"invalid churn window [{start_s}, {end_s}]")


@dataclass(frozen=True)
class ServerBrownout:
    """One video server degraded (not dead) for a window."""

    network_id: str
    host_index: int
    start_s: float
    end_s: float
    #: Overload threshold during the window; 0 = every concurrent
    #: request pays the queueing penalty.
    threshold: int = 0

    def __post_init__(self) -> None:
        _check_window(self.start_s, self.end_s)
        if self.threshold < 0:
            raise ConfigError("threshold must be non-negative")


@dataclass(frozen=True)
class ServerCrash:
    """One video server down hard, then recovered."""

    network_id: str
    host_index: int
    start_s: float
    end_s: float

    def __post_init__(self) -> None:
        _check_window(self.start_s, self.end_s)


@dataclass(frozen=True)
class PathDegradation:
    """A fraction of the population loses one interface kind."""

    iface: str  # "wifi" | "lte"
    start_s: float
    end_s: float
    fraction: float = 0.25

    def __post_init__(self) -> None:
        _check_window(self.start_s, self.end_s)
        if self.iface not in ("wifi", "lte"):
            raise ConfigError(f"iface must be 'wifi' or 'lte', got {self.iface!r}")
        if not 0 < self.fraction <= 1:
            raise ConfigError("fraction must be in (0, 1]")


ChurnEvent = ServerBrownout | ServerCrash | PathDegradation


@dataclass(frozen=True)
class ChurnSpec:
    """Declarative fault load, sampled into a concrete timeline.

    Counts say how many of each event kind to inject; windows are drawn
    uniformly inside ``[window_start_s, window_end_s]`` with durations
    in ``[min_duration_s, max_duration_s]``.  ``timeline`` is the pure
    expansion — events sorted by start time, deterministic in
    ``(seed, spec, topology shape)``.
    """

    brownouts: int = 0
    crashes: int = 0
    degradations: int = 0
    window_start_s: float = 5.0
    window_end_s: float = 40.0
    min_duration_s: float = 5.0
    max_duration_s: float = 15.0
    brownout_threshold: int = 0
    degraded_fraction: float = 0.25

    def __post_init__(self) -> None:
        if min(self.brownouts, self.crashes, self.degradations) < 0:
            raise ConfigError("event counts must be non-negative")
        if not 0 <= self.window_start_s < self.window_end_s:
            raise ConfigError("need 0 <= window_start_s < window_end_s")
        if not 0 < self.min_duration_s <= self.max_duration_s:
            raise ConfigError("need 0 < min_duration_s <= max_duration_s")

    @property
    def total_events(self) -> int:
        return self.brownouts + self.crashes + self.degradations

    def timeline(
        self,
        seed: int,
        networks: Sequence[str],
        hosts_per_network: int,
    ) -> tuple[ChurnEvent, ...]:
        """Expand the spec against a topology shape."""
        if self.total_events and (not networks or hosts_per_network < 1):
            raise ConfigError("churn needs at least one network and host")
        factory = RngFactory(seed)
        events: list[ChurnEvent] = []

        def window(rng) -> tuple[float, float]:
            start = float(rng.uniform(self.window_start_s, self.window_end_s))
            duration = float(rng.uniform(self.min_duration_s, self.max_duration_s))
            return start, start + duration

        rng = factory.generator("churn.brownouts")
        for _ in range(self.brownouts):
            start, end = window(rng)
            events.append(
                ServerBrownout(
                    network_id=networks[int(rng.integers(len(networks)))],
                    host_index=int(rng.integers(hosts_per_network)),
                    start_s=start,
                    end_s=end,
                    threshold=self.brownout_threshold,
                )
            )
        rng = factory.generator("churn.crashes")
        for _ in range(self.crashes):
            start, end = window(rng)
            events.append(
                ServerCrash(
                    network_id=networks[int(rng.integers(len(networks)))],
                    host_index=int(rng.integers(hosts_per_network)),
                    start_s=start,
                    end_s=end,
                )
            )
        rng = factory.generator("churn.degradations")
        for index in range(self.degradations):
            start, end = window(rng)
            events.append(
                PathDegradation(
                    iface=("wifi", "lte")[index % 2],
                    start_s=start,
                    end_s=end,
                    fraction=self.degraded_fraction,
                )
            )
        events.sort(key=attrgetter("start_s", "end_s"))
        return tuple(events)


def schedule_churn(
    env: Environment,
    deployment: CDNDeployment,
    events: Sequence[ChurnEvent],
    client_ifaces: Sequence[tuple[NetworkInterface, NetworkInterface]] = (),
    seed: int = 0,
) -> None:
    """Register one timer process per event on the shared environment.

    ``client_ifaces`` is the population's ``(wifi, lte)`` interface
    pairs; :class:`PathDegradation` picks its victims from it with a
    dedicated seeded stream so the affected subset is as replayable as
    the windows themselves.
    """
    victim_rng = RngFactory(seed).generator("churn.victims")
    for event in events:
        if isinstance(event, ServerBrownout):
            host = deployment.pools[event.network_id].video_hosts[event.host_index]

            def brownout(host=host, event=event):
                server = host.app
                yield env.pooled_timeout(event.start_s)
                restore = server.overload_threshold
                server.overload_threshold = event.threshold
                yield env.pooled_timeout(event.end_s - event.start_s)
                server.overload_threshold = restore

            env.process(brownout())
        elif isinstance(event, ServerCrash):
            host = deployment.pools[event.network_id].video_hosts[event.host_index]

            def crash(host=host, event=event):
                yield env.pooled_timeout(event.start_s)
                host.fail()
                yield env.pooled_timeout(event.end_s - event.start_s)
                host.recover()

            env.process(crash())
        else:
            if not client_ifaces:
                continue
            count = max(1, round(event.fraction * len(client_ifaces)))
            victims = victim_rng.choice(
                len(client_ifaces), size=min(count, len(client_ifaces)), replace=False
            )
            side = 0 if event.iface == "wifi" else 1
            ifaces = [client_ifaces[int(v)][side] for v in sorted(victims)]

            def degrade(ifaces=ifaces, event=event):
                yield env.pooled_timeout(event.start_s)
                for iface in ifaces:
                    iface.set_up(False)
                yield env.pooled_timeout(event.end_s - event.start_s)
                for iface in ifaces:
                    iface.set_up(True)

            env.process(degrade())
