"""The benchmark's workloads, its load generator and one measured trial.

A trial builds a fresh deployment through the public surface
(``build_deployment`` -> ``Deployment.setup``), offers an open-loop
payment stream drawn from the benchmark's seed, drives the run phase as
equal ``Ledger.advance`` steps, and then checks the outcome.  Every
trial of one workload and seed is the same simulation, so its exact
(simulated-time) results must repeat bit for bit.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import math
import random
import time
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional

from repro.blockchain.params import BITCOIN
from repro.core.deploy import Deployment, build_deployment
from repro.crypto.keys import address_of, clear_sigcache
from repro.net.aggregate import TopologyScale
from repro.net.link import FAST_LINK
from repro.workloads.generators import PaymentEvent, PaymentWorkload

from perfbench.speed import SpeedProbe

#: The deployments' own seed.  It is part of each workload's fixed
#: configuration (mining draws, link jitter, crowd graph); ``--seed``
#: only draws the offered payment stream.
DEPLOYMENT_SEED = 11


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: a deployment plus an open-loop load."""

    name: str
    build: Callable[[], Deployment]
    accounts: int
    initial_balance: int
    rate_tps: float
    #: arrivals are offered over ``[0, load_s)`` after setup ...
    load_s: float
    #: ... then the run continues ``settle_s`` with no new arrivals.
    settle_s: float
    #: simulated length of one measured ``advance`` step
    step_s: float
    zipf_alpha: float = 0.8
    #: one arrival at the start of each step, senders in turn, instead
    #: of Poisson arrivals over Zipf-drawn senders
    paced: bool = False
    #: scheduled faults, given the deployment and the run-phase start
    faults: Optional[Callable[[Deployment, float], None]] = None

    @property
    def steps(self) -> int:
        return round((self.load_s + self.settle_s) / self.step_s)


def _chain_backlog() -> Deployment:
    # A miniature Bitcoin: 15 s blocks, 32 KB bodies (~100 payments).
    params = replace(BITCOIN, name="mini-bitcoin",
                     target_block_interval_s=15.0,
                     max_block_size_bytes=32_000)
    return build_deployment("blockchain", chain_params=params, node_count=5,
                            link_params=FAST_LINK, seed=DEPLOYMENT_SEED,
                            prune_interval_s=60.0)


def _lattice_gossip() -> Deployment:
    return build_deployment("dag", node_count=8, representative_count=4,
                            seed=DEPLOYMENT_SEED)


def _crowd_sharded() -> Deployment:
    return build_deployment(
        "dag", node_count=4, representative_count=4, seed=DEPLOYMENT_SEED,
        topology_scale=TopologyScale(total_nodes=10_000, plane="sharded",
                                     jobs=1))


def _bft_crash() -> Deployment:
    return build_deployment("bft", node_count=7, seed=DEPLOYMENT_SEED)


def _crash_two_replicas(deployment: Deployment, start: float) -> None:
    # One replica down at a time: six of seven stay up, one more than
    # the quorum of five, so commits continue through each outage except
    # in the views the crashed replica would lead (they time out).
    injector = deployment.fault_injector()
    injector.crash_at(start + 60.0, "n1", duration_s=60.0)
    injector.crash_at(start + 150.0, "n2", duration_s=60.0)


#: Nano's genesis supply in :class:`repro.core.adapters.DagLedger`.
_NANO_SUPPLY = 10**15

WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload(
        name="chain-backlog",
        # Short steps: a trial has 1,560 of them, so its 1 % slowest are
        # not just the handful holding a prune tick (same on bft-crash,
        # with a replica's restart).
        build=_chain_backlog, accounts=200, initial_balance=10**9,
        rate_tps=9.0, load_s=300.0, settle_s=90.0, step_s=0.25),
    Workload(
        name="lattice-gossip",
        # 40 s of load: a trial's 420 steps put its 1 % slowest past the
        # two or three that hold a full garbage collection or the
        # elections' end-of-load burst.
        build=_lattice_gossip, accounts=100, initial_balance=10**9,
        rate_tps=25.0, load_s=40.0, settle_s=2.0, step_s=0.1),
    Workload(
        name="crowd-sharded",
        # The four accounts split the whole supply, one per wallet node,
        # so every representative holds a quarter of the voting weight and
        # confirmation at the observer needs votes from two other replicas.
        # A payment costs ~10 crowd relaxations (~0.7 s), so a run holds
        # only two dozen, too few to average out a random mix: arrivals
        # are paced one per step (a Poisson count per step would make the
        # step-time median a coin flip between seeds) and the three
        # wallets away from the observer send in turn (latency depends
        # mostly on the sender's place in the crowd, so a drawn sender mix
        # would move the median between per-sender levels).
        build=_crowd_sharded, accounts=4,
        initial_balance=_NANO_SUPPLY // 4,
        rate_tps=1 / 3, load_s=72.0, settle_s=3.0, step_s=3.0,
        zipf_alpha=0.0, paced=True),
    Workload(
        name="bft-crash",
        build=_bft_crash, accounts=200, initial_balance=10**9,
        rate_tps=10.0, load_s=300.0, settle_s=60.0, step_s=0.25,
        faults=_crash_two_replicas),
)}


class PaymentStream:
    """Open-loop arrivals: each payment is submitted at its exact due
    simulated time, whether or not earlier payments confirmed."""

    def __init__(self, deployment: Deployment,
                 events: List[PaymentEvent]) -> None:
        self.ledger = deployment.ledger
        self.simulator = deployment.simulator
        self.events = events
        self.start = self.simulator.now
        self.next = 0
        #: entry id -> due time of every accepted payment
        self.due: Dict[object, float] = {}
        self.refused = 0
        self.lateness_max_s = 0.0

    def arm(self) -> None:
        if self.events:
            self._schedule(self.events[0])

    def _schedule(self, event: PaymentEvent) -> None:
        self.simulator.schedule_at(self.start + event.time_s, self.fire,
                                   label="bench:payment")

    def fire(self) -> None:
        event = self.events[self.next]
        self.next += 1
        due = self.start + event.time_s
        self.lateness_max_s = max(self.lateness_max_s,
                                  self.simulator.now - due)
        entry = self.ledger.submit(event)
        if entry is None:
            self.refused += 1
        else:
            self.due[entry] = due
        if self.next < len(self.events):
            self._schedule(self.events[self.next])


def payment_events(workload: Workload, seed: int) -> List[PaymentEvent]:
    """The offered stream: Poisson (or paced) arrivals over
    Zipf-popular accounts, drawn from ``seed`` alone."""
    generator = PaymentWorkload.from_rng(
        random.Random(seed), accounts=workload.accounts,
        rate_tps=workload.rate_tps, zipf_alpha=workload.zipf_alpha)
    if not workload.paced:
        return generator.generate(workload.load_s)
    # Paced: one arrival per step, and the wallets of every replica but
    # the observer (account 0's) send in turn, so each sends the same
    # share; recipients and amounts are drawn.
    events = []
    count = round(workload.load_s * workload.rate_tps)
    for index, drawn in enumerate(generator.generate_count(count)):
        sender = 1 + index % (workload.accounts - 1)
        recipient = (drawn.recipient_index if drawn.recipient_index != sender
                     else drawn.sender_index)
        events.append(PaymentEvent(time_s=index / workload.rate_tps,
                                   sender_index=sender,
                                   recipient_index=recipient,
                                   amount=drawn.amount))
    return events


@dataclass
class Trial:
    """What one trial measured and what it left behind."""

    deployment: Optional[Deployment]
    stream: Optional[PaymentStream]
    setup_s: float
    run_s: float
    step_s: List[float]
    #: set-up plus run phase, including the hand-over between them
    #: (set-up, run and wall times leave out the speed probe's samples)
    wall_s: float
    #: ``setup_s``, ``run_s`` and ``step_s`` in reference seconds
    #: (:mod:`perfbench.speed`); the raw values where no probe ran
    setup_ref_s: float = 0.0
    run_ref_s: float = 0.0
    step_ref_s: List[float] = field(default_factory=list)
    #: span-log length when setup ended (traced trials only)
    setup_mark: int = 0
    exact: Dict[str, object] = field(default_factory=dict)
    violations: List[str] = field(default_factory=list)

    def release(self) -> None:
        """Drop the deployment, so one run holds one deployment at a time
        and its peak memory does not grow with the number of trials."""
        self.deployment = None
        self.stream = None


def _clear_process_caches() -> None:
    """Forget what earlier trials left in process-wide caches (signature
    cache, address memo, garbage), which would otherwise make later
    trials cheaper than the first."""
    clear_sigcache()
    address_of.cache_clear()
    gc.collect()


def _set_up(workload: Workload) -> Deployment:
    deployment = workload.build()
    deployment.setup(workload.accounts, workload.initial_balance)
    return deployment


def time_setup(workload: Workload) -> float:
    """Reference seconds of one more set-up, its deployment discarded."""
    _clear_process_caches()
    with SpeedProbe() as probe:
        began = time.perf_counter()
        deployment = _set_up(workload)
        ended = time.perf_counter()
    deployment.close()
    return probe.reference_s(began, ended)


def run_trial(workload: Workload, seed: int,
              on_setup: Optional[Callable[[], int]] = None,
              probe: Optional[SpeedProbe] = None) -> Trial:
    """Set up, offer the seeded load, and advance in equal steps.

    ``on_setup`` runs right after setup (outside the timed region) and
    returns a mark recorded in the trial.  With a ``probe``, the probe
    samples machine speed throughout set-up and run phase, and the trial
    also holds its times in reference seconds.
    """
    events = payment_events(workload, seed)
    _clear_process_caches()
    clock = time.perf_counter
    with probe if probe is not None else contextlib.nullcontext():
        first = clock()
        deployment = _set_up(workload)
        setup_end = clock()
        mark = on_setup() if on_setup is not None else 0
        stream = PaymentStream(deployment, events)
        stream.arm()
        if workload.faults is not None:
            workload.faults(deployment, stream.start)
        ledger = deployment.ledger
        bounds: List[float] = []
        for _ in range(workload.steps):
            bounds.append(clock())
            ledger.advance(workload.step_s)
            bounds.append(clock())
        last = clock()
    setup_s = setup_end - first
    steps = [b - a for a, b in zip(bounds[::2], bounds[1::2])]
    if probe is None:
        wall_s = last - first
        setup_ref_s, step_ref_s = setup_s, steps
    else:
        # The samples' own time is not the program's.
        setup_s -= probe.sampled_s(first, setup_end)
        steps = [b - a - probe.sampled_s(a, b)
                 for a, b in zip(bounds[::2], bounds[1::2])]
        wall_s = last - first - probe.sampled_s(first, last)
        setup_ref_s = probe.reference_s(first, setup_end)
        step_ref_s = [probe.reference_s(a, b)
                      for a, b in zip(bounds[::2], bounds[1::2])]
    return Trial(deployment=deployment, stream=stream, setup_s=setup_s,
                 run_s=sum(steps), step_s=steps, wall_s=wall_s,
                 setup_mark=mark, setup_ref_s=setup_ref_s,
                 run_ref_s=sum(step_ref_s), step_ref_s=step_ref_s)


def percentile(sorted_values: List[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list (``q`` in [0, 1])."""
    if not sorted_values:
        return 0.0
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[min(rank, len(sorted_values)) - 1]


def tail_quantile(count: int, q: float = 0.99, beyond: int = 10) -> float:
    """``q``, or the highest quantile that still has ``beyond`` samples
    above it when ``count`` is too small for ``q``."""
    if count == 0 or count * (1.0 - q) >= beyond:
        return q
    return max(0.5, 1.0 - beyond / count)


def finish_trial(trial: Trial) -> None:
    """Fill ``trial.exact`` and run the correctness gate on one trial."""
    deployment, stream = trial.deployment, trial.stream
    ledger = deployment.ledger
    stats = ledger.stats()
    latencies = sorted(stats.confirmation_latencies_s)
    offered = len(stream.events)
    trial.exact = {
        "offered": offered,
        "refused": stream.refused,
        "confirmed": stats.entries_confirmed,
        "confirm_p50_s": percentile(latencies, 0.5),
        "confirm_p99_s": percentile(latencies, tail_quantile(len(latencies))),
        "confirmed_fraction": stats.entries_confirmed / offered,
        "sim.events": deployment.simulator.events_processed,
        "state_digest": ledger.state_digest(),
    }
    network = deployment.network
    if hasattr(network, "plane_fingerprint"):
        trial.exact["plane_fingerprint"] = network.plane_fingerprint()
    if not latencies:
        trial.violations.append("no payment confirmed")
    if stream.next != offered:
        trial.violations.append(
            f"load generator submitted {stream.next} of {offered} payments")
    report = ledger.audit()
    if report is None or not report.ok:
        trial.violations.append(
            "audit: " + ("no audit" if report is None else report.render()))
    digests = replica_digests(deployment)
    if len(set(digests.values())) > 1:
        trial.violations.append(
            "replicas disagree: " + ", ".join(
                f"{node}={digest[:12]}" for node, digest in digests.items()))
    deployment.close()


def replica_digests(deployment: Deployment) -> Dict[str, str]:
    """Each replica's digest of the state every replica must share.

    Blockchain: the block at confirmation depth below the shortest
    chain (tips may differ).  Block-lattice: every account's balance and
    head.  BFT: the committed sequence up to the lowest committed
    height, and the balances where heights agree.
    """
    nodes = deployment.nodes
    paradigm = deployment.paradigm
    digests: Dict[str, str] = {}
    if paradigm == "blockchain":
        depth = deployment.ledger.params.confirmation_depth
        height = max(0, min(n.chain.height for n in nodes) - depth)
        for node in nodes:
            digests[node.node_id] = node.chain.block_at_height(height).block_id.hex
    elif paradigm == "dag":
        for node in nodes:
            lattice = node.lattice
            lines = sorted(f"{c.account.hex}:{c.balance}:{c.head.block_hash.hex}"
                           for c in lattice.chains())
            digests[node.node_id] = _digest(lines)
    else:
        height = min(len(n.committed) for n in nodes)
        top = max(len(n.committed) for n in nodes)
        for node in nodes:
            lines = [h.hex for h in node.committed[:height]]
            if height == top:
                lines += [f"{a}:{b}" for a, b in sorted(node.balances.items())]
            digests[node.node_id] = _digest(lines)
    return digests


def _digest(lines: List[str]) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def latency_split(trial: Trial,
                  timeline: Dict[object, List[float]]) -> Dict[str, List[float]]:
    """Split each confirmed payment's latency into three consecutive
    simulated-time stages that sum to it exactly.

    ``queue``: due -> first included (mined into a block, created as a
    lattice block, or carried by a proposal).  ``propagation``: -> the
    last replica integrated that artifact.  ``consensus``: -> confirmed
    (confirmation depth, vote quorum, or commit certificate).  Stage
    boundaries are clamped into ``[due, confirmed]``, so a replica that
    integrates after the observer already confirmed adds nothing.
    """
    deployment, stream = trial.deployment, trial.stream
    observer = deployment.nodes[0]
    stages: Dict[str, List[float]] = {"queue": [], "propagation": [],
                                      "consensus": []}
    paradigm = deployment.paradigm
    carriers: Dict[object, object] = {}
    if paradigm == "bft":
        for block_id in observer.committed:
            for payment in observer.blocks[block_id].payments:
                carriers.setdefault(payment.payment_id, block_id)
    depth = (deployment.ledger.params.confirmation_depth
             if paradigm == "blockchain" else 0)
    for entry, due in stream.due.items():
        if paradigm == "blockchain":
            confirmations = observer.confirmations(entry)
            if confirmations < depth:
                continue
            chain = observer.chain
            block = chain.block_at_height(chain.height - confirmations + 1)
            artifact = block.block_id
            included = block.header.timestamp
            confirmed = chain.block_at_height(
                block.height + depth - 1).header.timestamp
        elif paradigm == "dag":
            confirmed = observer.confirmation_times.get(entry)
            if confirmed is None:
                continue
            artifact, included = entry, due
        else:
            confirmed = observer.committed_payments.get(entry)
            if confirmed is None:
                continue
            artifact = carriers[entry]
            included = min(timeline.get(artifact, [due]))
        propagated = max(timeline.get(artifact, [included]))
        confirmed = max(confirmed, due)
        first = min(max(included, due), confirmed)
        last = min(max(propagated, first), confirmed)
        stages["queue"].append(first - due)
        stages["propagation"].append(last - first)
        stages["consensus"].append(confirmed - last)
    return stages


def longest_commit_gap(trial: Trial) -> float:
    """Longest simulated gap between consecutive commits at the observer
    (BFT only; 0 for paradigms without commits)."""
    if trial.deployment.paradigm != "bft":
        return 0.0
    times = sorted(set(trial.deployment.nodes[0].committed_payments.values()))
    return max((b - a for a, b in zip(times, times[1:])), default=0.0)
