"""Uniform deployment construction: one factory for every paradigm.

Before this module each paradigm had its own ad-hoc constructor
signature (``BlockchainLedger(params=..., fee=...)``,
``DagLedger(representative_count=...)``), which left no clean slot for
selecting a consensus engine or an adversary mix when the BFT paradigm
joined the matrix.  :func:`build_deployment` is the single entry point:
pick a paradigm, optionally an engine and a
:class:`~repro.faults.ByzantineSpec`, and get back a uniform
:class:`Deployment` handle exposing the ledger, the simulator/network
machinery and the aggregated per-layer counters.

The old constructors remain importable (every released bench and test
keeps passing) but are deprecated for direct use — see
docs/architecture.md for the migration note and timeline.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Union

from repro.blockchain.mempool import MempoolLimits
from repro.blockchain.params import BITCOIN, ChainParams
from repro.core.adapters import BftLedger, BlockchainLedger, DagLedger
from repro.core.ledger import Ledger
from repro.dag.params import NanoParams
from repro.faults import ByzantineSpec, FaultInjector
from repro.net.aggregate import TopologyScale, attach_clusters
from repro.net.link import LinkParams
from repro.protocol import aggregate_layer_counters
from repro.storage.pruning import DEFAULT_KEEP_DEPTH

#: Paradigms the factory can stand up (the cross-paradigm matrix).
PARADIGMS = ("blockchain", "dag", "bft")

#: Consensus engines per paradigm; the first entry is the default.
PARADIGM_ENGINES: Dict[str, tuple] = {
    "blockchain": ("pow",),
    "dag": ("orv",),       # open representative voting (Nano elections)
    "bft": ("hotstuff",),  # quorum-certificate two-phase commit
}

#: Default node counts mirror the legacy adapter defaults.
_DEFAULT_NODE_COUNT = {"blockchain": 5, "dag": 8, "bft": 4}

#: Byzantine behaviours each paradigm knows how to wire.
_PARADIGM_BEHAVIORS = {
    "blockchain": ("selfish",),
    "dag": ("tip-spam",),
    "bft": ("equivocate", "withhold"),
}


@dataclass(frozen=True)
class WorkloadSpec:
    """An open-loop traffic description for :meth:`Deployment.start_workload`."""

    rate_tps: float
    duration_s: float
    zipf_alpha: float = 0.8


@dataclass
class Deployment:
    """A constructed deployment: the ledger plus uniform accessors.

    The handle is valid before ``setup`` (the ledger is constructed
    lazily-networked); simulator/network/node accessors return live
    objects only once :meth:`setup` has run.
    """

    ledger: Ledger
    paradigm: str
    engine: str
    byzantine: Optional[ByzantineSpec] = None
    workload: Optional[WorkloadSpec] = None
    topology_scale: Optional[TopologyScale] = None
    #: Mean-field clusters attached at setup when ``topology_scale`` asks
    #: for more nodes than the fully-simulated boundary provides.
    clusters: List = field(default_factory=list)

    def setup(self, accounts: int, initial_balance: int) -> "Deployment":
        self.ledger.setup(accounts, initial_balance)
        if (self.topology_scale is not None
                and self.topology_scale.plane == "aggregate"):
            # The sharded plane carries the whole population itself;
            # clusters only serve the aggregate plane (and zero-surplus
            # scales attach none — see attach_clusters).
            self.clusters = attach_clusters(self.network,
                                            self.topology_scale)
        return self

    # ------------------------------------------------------------ accessors

    @property
    def simulator(self):
        view = self.ledger.deployment()
        return None if view is None else view.simulator

    @property
    def network(self):
        view = self.ledger.deployment()
        return None if view is None else view.network

    @property
    def nodes(self) -> List:
        view = self.ledger.deployment()
        return [] if view is None else list(view.nodes)

    def fault_injector(self) -> FaultInjector:
        network = self.network
        if network is None:
            raise RuntimeError("setup() the deployment before injecting faults")
        return FaultInjector(network)

    def layer_counters(self) -> Dict[str, float]:
        """Deployment-wide ``transport.* / intake.* / consensus.*`` totals."""
        return aggregate_layer_counters(self.nodes)

    def scale_stats(self) -> Dict[str, float]:
        """Scaled-tier totals: modeled population and propagation.

        Always returns the full key set.  ``scaled`` is 1.0 when a
        scaled plane actually carries population (aggregate clusters or
        a sharded crowd) and 0.0 for unscaled deployments *and* for a
        ``topology_scale`` whose ``total_nodes`` equals the boundary —
        the explicit empty report for the zero-surplus case.
        """
        stats = {
            "scaled": 0.0,
            "boundary_nodes": float(len(self.nodes)),
            "modeled_nodes": 0.0,
            "modeled_deliveries": 0.0,
            "messages_modeled": 0.0,
            "propagation_max_s": 0.0,
        }
        network = self.network
        if network is not None and hasattr(network, "plane_stats"):
            stats.update(network.plane_stats())
            stats["scaled"] = 1.0 if stats["modeled_nodes"] else 0.0
            return stats
        if self.clusters:
            stats["scaled"] = 1.0
            stats["modeled_nodes"] = float(
                sum(c.size for c in self.clusters))
            stats["modeled_deliveries"] = float(
                sum(c.modeled_deliveries for c in self.clusters))
            stats["messages_modeled"] = float(
                sum(c.messages_modeled for c in self.clusters))
            times = [t for c in self.clusters for t in c.propagation_times]
            stats["propagation_max_s"] = max(times) if times else 0.0
        return stats

    def close(self) -> None:
        """End the deployment's lifetime.  Every plane runs in-process
        and holds no outside resource, so there is nothing to release;
        callers may still pair each deployment with one call."""

    def start_workload(self, accounts: int,
                       spec: Optional[WorkloadSpec] = None):
        """Arm the open-loop injector described by ``spec`` (or the
        spec captured at build time) on the running deployment."""
        from repro.workloads.open_loop import OpenLoopInjector

        spec = spec or self.workload
        if spec is None:
            raise ValueError("no WorkloadSpec given or captured at build time")
        injector = OpenLoopInjector.from_sim_stream(
            self.ledger, accounts=accounts, rate_tps=spec.rate_tps,
            duration_s=spec.duration_s, zipf_alpha=spec.zipf_alpha,
        )
        injector.start()
        return injector


def build_deployment(
    paradigm: str,
    *,
    engine: Optional[str] = None,
    faults: Optional[ByzantineSpec] = None,
    mempool_limits: Optional[MempoolLimits] = None,
    workload: Optional[WorkloadSpec] = None,
    node_count: Optional[int] = None,
    seed: int = 0,
    link_params: Optional[LinkParams] = None,
    topology_scale: Optional[Union[int, TopologyScale]] = None,
    # paradigm-specific knobs (validated against the paradigm)
    chain_params: Optional[ChainParams] = None,
    block_interval_s: Optional[float] = None,
    confirmation_depth: Optional[int] = None,
    fee: Optional[int] = None,
    dag_params: Optional[NanoParams] = None,
    representative_count: Optional[int] = None,
    processing_tps: Optional[float] = None,
    prune_interval_s: Optional[float] = None,
    prune_keep_depth: Optional[int] = None,
    view_timeout_s: Optional[float] = None,
    propose_delay_s: Optional[float] = None,
    max_batch: Optional[int] = None,
) -> Deployment:
    """Construct a deployment of ``paradigm`` behind a uniform signature.

    ``engine`` selects the consensus engine (each paradigm's native
    engine by default — see :data:`PARADIGM_ENGINES`).  ``faults`` wires
    a Byzantine adversary mix: the spec's ``count`` marks the roster
    prefix, ``behavior`` must belong to the paradigm's family set, and
    ``f_override`` (BFT only) adjusts the quorum threshold ``n - f``.
    ``topology_scale`` (an int total-node count or a
    :class:`~repro.net.aggregate.TopologyScale`) grows the deployment to
    that population: on the default ``plane="aggregate"`` the
    ``node_count`` fully-simulated nodes become the boundary and the
    surplus is modeled by mean-field
    :class:`~repro.net.aggregate.AggregateCluster` leaves (nested
    cluster-of-clusters at 10^5+); ``plane="sharded"`` instead runs the
    deployment's full protocol traffic over a
    :class:`~repro.net.sharded_plane.ShardedMessagePlane` crowd
    (blockchain/dag only).
    Unused paradigm-specific knobs raise rather than silently ignore,
    so call sites stay honest about what they configure.
    """
    if paradigm not in PARADIGMS:
        raise ValueError(f"unknown paradigm {paradigm!r} "
                         f"(choose from {', '.join(PARADIGMS)})")
    engines = PARADIGM_ENGINES[paradigm]
    engine = engine or engines[0]
    if engine not in engines:
        raise ValueError(
            f"paradigm {paradigm!r} has no engine {engine!r} "
            f"(choose from {', '.join(engines)})")
    behavior = None
    if faults is not None and faults.count > 0:
        behavior = faults.behavior
        if behavior not in _PARADIGM_BEHAVIORS[paradigm]:
            raise ValueError(
                f"Byzantine behavior {behavior!r} is not wired for "
                f"paradigm {paradigm!r} (choose from "
                f"{', '.join(_PARADIGM_BEHAVIORS[paradigm])})")
    count = node_count or _DEFAULT_NODE_COUNT[paradigm]
    if isinstance(topology_scale, int):
        topology_scale = TopologyScale(total_nodes=topology_scale)
    if topology_scale is not None and topology_scale.total_nodes < count:
        raise ValueError(
            f"topology_scale.total_nodes ({topology_scale.total_nodes}) "
            f"is below the fully-simulated node count ({count})")
    plane_factory = None
    if topology_scale is not None and topology_scale.plane == "sharded":
        if paradigm == "bft":
            raise ValueError(
                "the sharded plane carries gossip paradigms only "
                "(blockchain/dag); BFT quorum traffic is point-to-point")
        from repro.net.sharded_plane import ShardedMessagePlane

        scale = topology_scale

        def plane_factory(simulator):
            return ShardedMessagePlane(
                simulator,
                total_nodes=scale.total_nodes,
                shards=scale.shards,
                chords=scale.chords,
                link=scale.cluster_link,
            )

    def reject_unused(**knobs) -> None:
        stray = [name for name, value in knobs.items() if value is not None]
        if stray:
            raise ValueError(
                f"knobs {', '.join(stray)} do not apply to "
                f"paradigm {paradigm!r}")

    if paradigm == "blockchain":
        reject_unused(dag_params=dag_params,
                      representative_count=representative_count,
                      processing_tps=processing_tps,
                      view_timeout_s=view_timeout_s,
                      propose_delay_s=propose_delay_s, max_batch=max_batch,
                      f_override=faults.f_override if faults else None)
        params = chain_params or BITCOIN
        overrides = {}
        if block_interval_s is not None:
            overrides["target_block_interval_s"] = block_interval_s
        if confirmation_depth is not None:
            overrides["confirmation_depth"] = confirmation_depth
        if overrides:
            params = replace(params, **overrides)
        ledger: Ledger = BlockchainLedger(
            params=params,
            node_count=count,
            link_params=link_params,
            seed=seed,
            fee=fee if fee is not None else 1,
            mempool_limits=mempool_limits,
            prune_interval_s=prune_interval_s,
            prune_keep_depth=(prune_keep_depth if prune_keep_depth is not None
                              else DEFAULT_KEEP_DEPTH),
            byzantine_nodes=faults.count if behavior else 0,
            byzantine_behavior=behavior or "selfish",
            plane_factory=plane_factory,
        )
    elif paradigm == "dag":
        reject_unused(chain_params=chain_params,
                      block_interval_s=block_interval_s,
                      confirmation_depth=confirmation_depth, fee=fee,
                      mempool_limits=mempool_limits,
                      prune_keep_depth=prune_keep_depth,
                      view_timeout_s=view_timeout_s,
                      propose_delay_s=propose_delay_s, max_batch=max_batch,
                      f_override=faults.f_override if faults else None)
        ledger = DagLedger(
            params=dag_params or NanoParams(work_difficulty=1),
            node_count=count,
            representative_count=(representative_count
                                  if representative_count is not None
                                  else max(2, count // 2)),
            link_params=link_params,
            seed=seed,
            processing_tps=processing_tps,
            prune_interval_s=prune_interval_s,
            byzantine_nodes=faults.count if behavior else 0,
            byzantine_behavior=behavior or "tip-spam",
            plane_factory=plane_factory,
        )
    else:  # bft
        reject_unused(chain_params=chain_params,
                      block_interval_s=block_interval_s,
                      confirmation_depth=confirmation_depth, fee=fee,
                      mempool_limits=mempool_limits, dag_params=dag_params,
                      representative_count=representative_count,
                      processing_tps=processing_tps,
                      prune_interval_s=prune_interval_s,
                      prune_keep_depth=prune_keep_depth)
        ledger = BftLedger(
            node_count=count,
            link_params=link_params,
            seed=seed,
            view_timeout_s=view_timeout_s if view_timeout_s is not None else 4.0,
            propose_delay_s=(propose_delay_s if propose_delay_s is not None
                             else 0.25),
            max_batch=max_batch if max_batch is not None else 16,
            byzantine_nodes=faults.count if behavior else 0,
            byzantine_behavior=behavior or "equivocate",
            quorum_f_override=faults.f_override if faults else None,
        )

    return Deployment(ledger=ledger, paradigm=paradigm, engine=engine,
                      byzantine=faults, workload=workload,
                      topology_scale=topology_scale)
