"""Crowd-scale first-arrival propagation over a sharded delay law.

The second scale track: one 10^4-10^6-node flood graph (ring + seeded
chord matchings) whose per-edge delays are drawn shard by shard, and
whose first-arrival times are computed by a single in-process kernel.

* :meth:`ShardedPropagation.open` builds the graph once as CSR: edges
  sorted by ``(head, tail)``, duplicate ``(head, tail)`` pairs merged
  (a chord that hits a ring neighbour, or any graph of <= 3 nodes).
* :meth:`ShardedPropagation.run_with` draws each shard's edge delays in
  one vectorized batch from a ``fork_rng``-derived stream (label
  ``[<message label>:]shard:<index>``), so a draw depends only on
  (seed, label, shard index).  Shards are contiguous head ranges, so
  the sorted edge order is the concatenation of the shard orders; a
  duplicate pair keeps the minimum of its draws.
* It then relaxes from the origin over a dirty-node frontier (a
  label-correcting Bellman-Ford: gather the frontier's CSR rows,
  scatter-min ``dist[head] + w`` into ``dist``, re-queue improved
  targets) until no node improves.  The fixed point is unique — the
  minimum over paths of the left-to-right float path sum — so the
  arrival vector does not depend on the order relaxations happen in.

The delay law is :meth:`repro.net.link.LinkParams.delivery_delay`'s
(duck-typed so ``repro.sim`` stays below ``repro.net`` in the
layering).  The scale bench and the sharded message plane use it to
time floods over the whole population.
"""

from __future__ import annotations

import dataclasses
import hashlib
from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np

from repro.common.rng import fork_rng, make_rng

__all__ = [
    "CrowdGraph",
    "ShardedConfig",
    "ShardedResult",
    "ShardedPropagation",
    "build_edges",
]

#: Mirrors Message.wire_size framing (repro.net.message).
_WIRE_OVERHEAD_BYTES = 24


def _np_seed(seed: int, label: str) -> int:
    """64-bit numpy seed derived via the repo's fork_rng discipline."""
    return fork_rng(make_rng(seed), label).getrandbits(64)


@dataclass(frozen=True)
class ShardedConfig:
    """One sharded propagation run, fully determined by its fields.

    The topology is a ring (guaranteed connectivity) plus ``chords``
    random matchings per node — degree ``2 + 2 * chords`` in
    expectation, the usual unstructured-overlay shape.  ``shards``
    splits the node range into contiguous blocks, each with its own
    delay stream.  Link fields follow
    :class:`repro.net.link.LinkParams` semantics.
    """

    total_nodes: int
    shards: int = 4
    chords: int = 2
    seed: int = 0
    latency_s: float = 0.1
    jitter_s: float = 0.05
    bandwidth_bps: float = 50_000_000.0
    loss_probability: float = 0.0
    payload_bytes: int = 256

    def __post_init__(self) -> None:
        if self.total_nodes < 2:
            raise ValueError("total_nodes must be >= 2")
        if not 1 <= self.shards <= self.total_nodes:
            raise ValueError("shards must be in [1, total_nodes]")
        if self.chords < 0:
            raise ValueError("chords must be non-negative")
        if self.bandwidth_bps <= 0:
            raise ValueError("bandwidth must be positive")
        if not 0.0 <= self.loss_probability < 1.0:
            raise ValueError("loss probability must be in [0, 1)")

    @classmethod
    def with_link(cls, link, **kwargs) -> "ShardedConfig":
        """Build from anything exposing LinkParams' four link fields."""
        return cls(
            latency_s=link.latency_s,
            jitter_s=link.jitter_s,
            bandwidth_bps=link.bandwidth_bps,
            loss_probability=link.loss_probability,
            **kwargs,
        )

    def shard_bounds(self) -> np.ndarray:
        """``shards + 1`` node boundaries: shard i owns ``[b[i], b[i+1])``."""
        return np.arange(self.shards + 1) * self.total_nodes // self.shards


def build_edges(config: ShardedConfig) -> Tuple[np.ndarray, np.ndarray]:
    """Directed edge arrays (heads, tails) of the overlay graph.

    Derived from the root seed alone.  May contain duplicate pairs: a
    chord can land on a ring neighbour, and for ``total_nodes <= 3``
    the two ring directions coincide.
    """
    n = config.total_nodes
    index = np.arange(n)
    heads = [index, index]
    tails = [(index + 1) % n, (index - 1) % n]
    rng = np.random.default_rng(_np_seed(config.seed, "sharded-graph"))
    for _ in range(config.chords):
        partner = rng.permutation(n)
        keep = partner != index  # no self-loops
        heads.extend([index[keep], partner[keep]])
        tails.extend([partner[keep], index[keep]])
    return np.concatenate(heads), np.concatenate(tails)


def _edge_delays(config: ShardedConfig, count: int,
                 rng: np.random.Generator) -> np.ndarray:
    """Per-edge delivery delays following the LinkParams law.

    Loss is folded in as retransmit extension (geometric failures, the
    default :class:`repro.net.network.RetransmitPolicy` backoff
    schedule) rather than rerouting — matching how the exact network's
    ownership model behaves on a lossy link.
    """
    wire = config.payload_bytes + _WIRE_OVERHEAD_BYTES
    delays = np.full(count,
                     config.latency_s + (wire * 8.0) / config.bandwidth_bps)
    if config.jitter_s:
        delays += rng.uniform(0.0, config.jitter_s, size=count)
    loss = config.loss_probability
    if loss > 0.0:
        failures = np.minimum(rng.geometric(1.0 - loss, size=count) - 1, 5)
        steps = np.minimum(0.5 * 2.0 ** np.arange(5), 30.0)
        cumulative = np.concatenate(([0.0], np.cumsum(steps)))
        delays += cumulative[failures] * rng.uniform(0.75, 1.25, size=count)
    return delays


@dataclass(frozen=True)
class CrowdGraph:
    """The flood graph in CSR form, built once per configuration.

    Node ``v``'s out-edges are ``tails[indptr[v]:indptr[v + 1]]``, one
    per distinct ``(v, tail)`` pair.  ``shard_edges[i]`` counts shard
    i's edges *before* merging duplicates (the length of its delay
    draw).  In the concatenated draws, ``firsts`` indexes the first
    draw of each distinct pair and ``repeats`` every later draw of a
    duplicate, which belongs to distinct pair ``repeat_pairs``.
    """

    indptr: np.ndarray
    tails: np.ndarray
    shard_edges: Tuple[int, ...]
    firsts: np.ndarray
    repeats: np.ndarray
    repeat_pairs: np.ndarray


@dataclass
class ShardedResult:
    """Outcome of one sharded propagation run."""

    arrivals: np.ndarray
    config: ShardedConfig
    _fingerprint: Optional[str] = field(default=None, repr=False)

    @property
    def reached(self) -> int:
        return int(np.count_nonzero(np.isfinite(self.arrivals)))

    def percentile(self, q: float) -> float:
        finite = self.arrivals[np.isfinite(self.arrivals)]
        if not len(finite):
            return float("nan")
        return float(np.percentile(finite, q))

    def fingerprint(self) -> str:
        """Seed-stable digest of the arrival-time vector (9 decimal
        places — well above float64 noise, well below link delays)."""
        if self._fingerprint is None:
            rounded = np.round(self.arrivals, 9)
            self._fingerprint = hashlib.sha256(
                rounded.tobytes()).hexdigest()[:16]
        return self._fingerprint


class ShardedPropagation:
    """First-arrival floods over one configuration's crowd graph."""

    def __init__(self, config: ShardedConfig) -> None:
        self.config = config

    def open(self) -> CrowdGraph:
        """Build the CSR crowd graph :meth:`run_with` relaxes over."""
        config = self.config
        heads, tails = build_edges(config)
        order = np.lexsort((tails, heads))
        heads, tails = heads[order], tails[order]
        shard_edges = np.diff(np.searchsorted(heads, config.shard_bounds()))
        distinct = np.ones(len(heads), dtype=bool)
        distinct[1:] = (heads[1:] != heads[:-1]) | (tails[1:] != tails[:-1])
        firsts = np.flatnonzero(distinct)
        indptr = np.searchsorted(heads[firsts],
                                 np.arange(config.total_nodes + 1))
        return CrowdGraph(indptr=indptr, tails=tails[firsts],
                          shard_edges=tuple(int(c) for c in shard_edges),
                          firsts=firsts,
                          repeats=np.flatnonzero(~distinct),
                          repeat_pairs=np.cumsum(distinct)[~distinct] - 1)

    def _weights(self, graph: CrowdGraph, label: Optional[str],
                 payload_bytes: Optional[int]) -> np.ndarray:
        """Per-distinct-edge delays: shard i draws from stream
        ``[<label>:]shard:<i>``; a duplicate pair keeps its minimum."""
        config = self.config
        if payload_bytes is not None and payload_bytes != config.payload_bytes:
            config = dataclasses.replace(config, payload_bytes=payload_bytes)
        prefix = "" if label is None else f"{label}:"
        draws = np.concatenate([
            _edge_delays(config, count, np.random.default_rng(
                _np_seed(config.seed, f"{prefix}shard:{index}")))
            for index, count in enumerate(graph.shard_edges)
        ])
        # Same result as np.minimum.reduceat over the runs of each pair,
        # ~6x cheaper when nearly every run has length one.
        weights = draws[graph.firsts]
        np.minimum.at(weights, graph.repeat_pairs, draws[graph.repeats])
        return weights

    def run_with(self, graph: CrowdGraph, origin: int = 0, *,
                 label: Optional[str] = None,
                 payload_bytes: Optional[int] = None) -> ShardedResult:
        """One propagation from ``origin`` over an opened crowd graph.

        With ``label`` set, the edge delays come from the
        ``(seed, label)``-derived streams, so one graph serves a whole
        message sequence deterministically; ``payload_bytes`` retimes
        the serialization term for the actual message size.
        """
        config = self.config
        if not 0 <= origin < config.total_nodes:
            raise ValueError("origin out of range")
        weights = self._weights(graph, label, payload_bytes)
        indptr, tails = graph.indptr, graph.tails
        dist = np.full(config.total_nodes, np.inf)
        dist[origin] = 0.0
        dirty = np.zeros(config.total_nodes, dtype=bool)
        frontier = np.asarray([origin])
        while len(frontier):
            starts = indptr[frontier]
            counts = indptr[frontier + 1] - starts
            # Edge ids of every frontier row: each row's start, repeated
            # over the row, plus the position within the row.
            offsets = np.cumsum(counts) - counts
            edges = (np.repeat(starts - offsets, counts)
                     + np.arange(offsets[-1] + counts[-1]))
            candidate = np.repeat(dist[frontier], counts) + weights[edges]
            targets = tails[edges]
            before = dist[targets]
            np.minimum.at(dist, targets, candidate)
            dirty[targets[candidate < before]] = True
            frontier = np.flatnonzero(dirty)
            dirty[frontier] = False
        return ShardedResult(arrivals=dist, config=config)

    def run(self, origin: int = 0) -> ShardedResult:
        """Propagate from ``origin`` with the configuration's own delay
        draws (no message label)."""
        return self.run_with(self.open(), origin)
