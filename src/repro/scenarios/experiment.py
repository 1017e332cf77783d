"""Shared-world scenario populations as campaign work units.

:class:`ScenarioExperiment` is the city-scale sibling of
:class:`~repro.ext.multi_client.MultiClientExperiment`: one environment,
one CDN deployment, ``client_count`` clients — but arrivals come from an
:class:`~repro.scenarios.arrivals.ArrivalSpec`, each client's driver /
access profile / video from a :class:`~repro.scenarios.mix.MixSpec`,
and a :class:`~repro.scenarios.churn.ChurnSpec` timeline degrades the
CDN underneath them.  The result is a plain
:class:`~repro.ext.multi_client.MultiClientResult`, so the whole
population rides the existing :class:`~repro.ext.population`
machinery — dense arena rows, side records, byte-identical batches on
every backend — without a new collection path.

Adaptive-bitrate clients run :class:`~repro.ext.adaptive.
AdaptiveSimDriver` inside the shared world; their outcomes are folded
into :class:`~repro.sim.driver.SessionOutcome` *inside* ``run`` so
serial and worker paths encode exactly the same objects.

Random-stream layout (all from the population seed): ``mix.*`` for the
catalog/classes/videos, ``arrivals.*`` for launch times, ``churn.*``
for the fault timeline and its victims, ``cdn`` for the deployment, and
``client-<i>`` children for each client's private links — disjoint
labels, so scenario ingredients never perturb each other.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from ..cdn.catalog import Catalog
from ..cdn.deployment import CDNConfig, CDNDeployment
from ..core.config import PlayerConfig
from ..errors import ConfigError
from ..ext.adaptive import AdaptiveOutcome, AdaptiveSimDriver, ThroughputController
from ..ext.multi_client import MultiClientResult, _SharedWorldScenario
from ..ext.population import PopulationSpec
from ..net.dns import StubResolver
from ..net.env import Environment
from ..net.topology import Network
from ..rng import RngFactory
from ..sim.driver import MSPlayerDriver, SessionOutcome
from ..sim.profiles import PROFILES, NetworkProfile
from ..sim.scenario import LTE_NET, WIFI_NET, ScenarioConfig
from .arrivals import ArrivalSpec
from .churn import ChurnSpec, schedule_churn
from .mix import ClientAssignment, MixSpec

__all__ = ["ScenarioExperiment", "ScenarioSpec", "session_outcome_from_adaptive"]


def session_outcome_from_adaptive(outcome: AdaptiveOutcome) -> SessionOutcome:
    """Fold an adaptive outcome into the population's common shape.

    The population side channel and dense rows speak
    :class:`~repro.sim.driver.SessionOutcome`; the adaptive driver's
    extras (itag history, switch counts) are per-session diagnostics the
    population SLOs do not consume.  Metrics ride through untouched, so
    start-up/stall/failover aggregation is exact.
    """
    return SessionOutcome(
        metrics=outcome.metrics,
        finished_at=outcome.finished_at,
        stop_reason=outcome.stop_reason,
        peak_out_of_order=outcome.metrics.peak_out_of_order,
    )


def _client_config(base: PlayerConfig, prebuffer_s: float | None) -> PlayerConfig:
    """A class's player config: optional shallow live-edge buffer."""
    if prebuffer_s is None:
        return base
    return replace(
        base,
        prebuffer_s=prebuffer_s,
        low_watermark_s=min(base.low_watermark_s, prebuffer_s / 2.0),
        rebuffer_fetch_s=min(base.rebuffer_fetch_s, prebuffer_s),
    )


class ScenarioExperiment:
    """Run one declarative scenario population under a selection policy."""

    def __init__(
        self,
        arrivals: ArrivalSpec | None = None,
        mix: MixSpec | None = None,
        churn: ChurnSpec | None = None,
        client_count: int = 50,
        seed: int = 2026,
        world_profile: str = "youtube",
        overload_threshold: int | None = 2,
        player_config: PlayerConfig | None = None,
        max_sim_time: float = 900.0,
    ) -> None:
        if client_count < 1:
            raise ConfigError("need at least one client")
        if world_profile not in PROFILES:
            raise ConfigError(
                f"unknown world profile {world_profile!r}; "
                f"known: {', '.join(sorted(PROFILES))}"
            )
        self.arrivals = arrivals or ArrivalSpec()
        self.mix = mix or MixSpec()
        self.churn = churn or ChurnSpec()
        self.client_count = client_count
        self.seed = seed
        self.world_profile = world_profile
        self.overload_threshold = overload_threshold
        self.player_config = player_config or PlayerConfig()
        self.max_sim_time = max_sim_time

    # -- world construction ---------------------------------------------------

    def _profile_for(self, assignment: ClientAssignment) -> NetworkProfile:
        try:
            factory = PROFILES[assignment.profile]
        except KeyError:
            raise ConfigError(
                f"client class {assignment.client_class!r} names unknown "
                f"profile {assignment.profile!r}"
            ) from None
        return factory()

    def _driver(
        self,
        scenario: _SharedWorldScenario,
        assignment: ClientAssignment,
    ) -> MSPlayerDriver | AdaptiveSimDriver:
        config = _client_config(self.player_config, assignment.prebuffer_s)
        if assignment.driver == "adaptive":
            return AdaptiveSimDriver(
                scenario,
                ThroughputController(),
                config,
                stop="full",
                max_sim_time=self.max_sim_time,
            )
        return MSPlayerDriver(
            scenario, config, stop="full", max_sim_time=self.max_sim_time
        )

    def run(self, policy: str) -> MultiClientResult:
        world = PROFILES[self.world_profile]()
        factory = RngFactory(self.seed)
        catalog: Catalog = self.mix.build_catalog(factory)
        assignments = self.mix.assign(factory, self.client_count, catalog)
        delays = self.arrivals.times(self.seed, self.client_count)

        env = Environment()
        network = Network(env)
        resolver = StubResolver(env, lookup_delay=world.dns_delay_s)
        deployment = CDNDeployment(
            env,
            network,
            catalog,
            CDNConfig(
                networks=(WIFI_NET, LTE_NET),
                video_servers_per_network=world.video_servers_per_network,
                selection_policy=policy,
                tls=world.tls,
                proxy_distance=world.proxy_distance_s,
                video_distance=world.video_distance_s,
                overload_threshold=self.overload_threshold,
            ),
            rng=factory.generator("cdn"),
            resolver=resolver,
        )

        scenarios: list[_SharedWorldScenario] = []
        drivers: list[MSPlayerDriver | AdaptiveSimDriver] = []
        for assignment, delay in zip(assignments, delays, strict=True):
            profile = self._profile_for(assignment)
            video = catalog.get(assignment.video_id)
            config = ScenarioConfig(
                video_duration_s=video.duration_s,
                video_id=video.video_id,
                copyrighted=video.copyrighted,
                itags=video.itags,
                selection_policy=policy,
                overload_threshold=self.overload_threshold,
            )
            scenario = _SharedWorldScenario(
                profile,
                seed=self.seed,
                client_index=assignment.index,
                shared_env=env,
                shared_network=network,
                shared_resolver=resolver,
                shared_catalog=catalog,
                shared_deployment=deployment,
                config=config,
            )
            scenarios.append(scenario)
            drivers.append(self._driver(scenario, assignment))

            def launch(driver=drivers[-1], delay=delay):
                yield env.pooled_timeout(delay)
                driver.launch()

            env.process(launch())

            # Profile outages are session-relative (a commuter walks out
            # of WiFi range minutes into *their* session, not at world
            # time t): shift each window by the client's arrival.
            for outage in profile.outages:
                iface = scenario.wifi if outage.iface == "wifi" else scenario.lte

                def walk_out(iface=iface, outage=outage, delay=delay):
                    yield env.pooled_timeout(delay + outage.down_at)
                    iface.set_up(False)
                    yield env.pooled_timeout(outage.up_at - outage.down_at)
                    iface.set_up(True)

                env.process(walk_out())

        timeline = self.churn.timeline(
            self.seed,
            networks=(WIFI_NET, LTE_NET),
            hosts_per_network=world.video_servers_per_network,
        )
        schedule_churn(
            env,
            deployment,
            timeline,
            client_ifaces=[(s.wifi, s.lte) for s in scenarios],
            seed=self.seed,
        )

        env.run(until=env.all_of([driver.finished for driver in drivers]))

        result = MultiClientResult(policy=policy)
        for driver in drivers:
            outcome = driver.collect()
            if isinstance(outcome, AdaptiveOutcome):
                outcome = session_outcome_from_adaptive(outcome)
            result.outcomes.append(outcome)
        result.server_bytes = deployment.total_bytes_served()
        return result

    # -- population campaigns -------------------------------------------------

    def replicate_seed(self, replicate: int) -> int:
        """Policy-independent derived seed (same contract as x6)."""
        return RngFactory(self.seed).child(f"replicate-{replicate}").integer(
            "population"
        )

    def specs_for(self, policy: str, replicates: int = 1) -> list["ScenarioSpec"]:
        """Picklable specs that rebuild this scenario on any backend."""
        return [
            ScenarioSpec(
                label=policy,
                trial=replicate,
                seed=self.replicate_seed(replicate),
                policy=policy,
                client_count=self.client_count,
                profile_factory=PROFILES[self.world_profile],
                overload_threshold=self.overload_threshold,
                player_config=self.player_config,
                arrivals=self.arrivals,
                mix=self.mix,
                churn=self.churn,
                world_profile=self.world_profile,
                max_sim_time=self.max_sim_time,
            )
            for replicate in range(replicates)
        ]

    def compare(
        self,
        policies: tuple[str, ...] = ("static", "rotate", "least_loaded"),
        replicates: int = 1,
        jobs=None,
    ):
        """Every policy over identically seeded replicate scenarios."""
        from ..ext.population import PopulationCampaign

        campaign = PopulationCampaign(jobs=jobs)
        for policy in policies:
            campaign.add(self.specs_for(policy, replicates))
        return campaign.run()


@dataclass(frozen=True)
class ScenarioSpec(PopulationSpec):
    """One (policy, replicate) scenario population, self-contained.

    Extends :class:`~repro.ext.population.PopulationSpec` — same dense
    arena layout, side records, and rebuild path — but ``run`` builds a
    :class:`ScenarioExperiment` world instead of the uniform
    multi-client one.  The inherited ``profile_factory`` carries the
    *world* profile (deployment shape); per-client access profiles come
    from the mix.
    """

    arrivals: ArrivalSpec = ArrivalSpec()
    mix: MixSpec = MixSpec()
    churn: ChurnSpec = ChurnSpec()
    world_profile: str = "youtube"
    max_sim_time: float = 900.0

    def run(self) -> MultiClientResult:
        experiment = ScenarioExperiment(
            arrivals=self.arrivals,
            mix=self.mix,
            churn=self.churn,
            client_count=self.client_count,
            seed=self.seed,
            world_profile=self.world_profile,
            overload_threshold=self.overload_threshold,
            player_config=self.player_config,
            max_sim_time=self.max_sim_time,
        )
        return experiment.run(self.policy)
