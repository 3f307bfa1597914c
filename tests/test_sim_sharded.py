"""Tests for the crowd propagation kernel (repro.sim.sharded).

The load-bearing property is exactness: the CSR frontier kernel must
return, bit for bit, the arrival vector of a textbook Dijkstra over the
same graph and the same per-shard delay draws.  Pinned fingerprints
(recorded from the earlier epoch-barrier implementation) hold the
arrivals of the A10 configurations fixed across rewrites.
"""

import dataclasses
import heapq
import math
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.sharded import (
    ShardedConfig,
    ShardedPropagation,
    _edge_delays,
    _np_seed,
    build_edges,
)

#: ShardedResult.fingerprint() of the A10b flood (10^4 nodes, 8 shards,
#: seed 5) and of a lossy 2 000-node config, as the epoch-barrier
#: implementation computed them; the kernel must reproduce them exactly.
A10B_FINGERPRINT = "170121925818ef3e"
LOSSY_RUN_FINGERPRINT = "a3b2f4cb0ec87563"
LOSSY_LABEL_FINGERPRINT = "9f739922824d02e1"
#: ShardedMessagePlane.plane_fingerprint() after the A10c point
#: sharded_traffic_point("dag", 2_000, seed=2), recorded the same way.
A10C_DAG_PLANE_FINGERPRINT = "b20de4543fb3d578"


def small_config(**overrides):
    defaults = dict(total_nodes=300, shards=3, seed=11)
    defaults.update(overrides)
    return ShardedConfig(**defaults)


def lossy_config():
    return ShardedConfig(total_nodes=2_000, shards=4, seed=7,
                         loss_probability=0.2)


def reference_arrivals(config, origin, label=None, payload_bytes=None):
    """Textbook Dijkstra over ``build_edges``; shard i's edges, in
    (head, tail) order, take its draw from stream ``[label:]shard:i``."""
    if payload_bytes is not None:
        config = dataclasses.replace(config, payload_bytes=payload_bytes)
    n, shards = config.total_nodes, config.shards
    heads, tails = build_edges(config)
    prefix = "" if label is None else f"{label}:"
    adjacency = [[] for _ in range(n)]
    for i in range(shards):
        owned = (heads >= i * n // shards) & (heads < (i + 1) * n // shards)
        order = np.lexsort((tails[owned], heads[owned]))
        rng = np.random.default_rng(_np_seed(config.seed, f"{prefix}shard:{i}"))
        delays = _edge_delays(config, int(owned.sum()), rng)
        for h, t, w in zip(heads[owned][order], tails[owned][order], delays):
            adjacency[h].append((int(t), float(w)))
    dist = [math.inf] * n
    dist[origin] = 0.0
    heap = [(0.0, origin)]
    while heap:
        d, u = heapq.heappop(heap)
        if d > dist[u]:
            continue
        for v, w in adjacency[u]:
            if d + w < dist[v]:
                dist[v] = d + w
                heapq.heappush(heap, (dist[v], v))
    return np.asarray(dist)


class TestConfigAndGraph:
    def test_config_validates(self):
        with pytest.raises(ValueError):
            ShardedConfig(total_nodes=1)
        with pytest.raises(ValueError):
            ShardedConfig(total_nodes=10, shards=11)
        with pytest.raises(ValueError):
            ShardedConfig(total_nodes=10, chords=-1)
        with pytest.raises(ValueError):
            ShardedConfig(total_nodes=10, loss_probability=1.0)

    def test_with_link_copies_the_four_link_fields(self):
        from repro.net.link import SLOW_LINK

        config = ShardedConfig.with_link(SLOW_LINK, total_nodes=50)
        assert config.latency_s == SLOW_LINK.latency_s
        assert config.jitter_s == SLOW_LINK.jitter_s
        assert config.bandwidth_bps == SLOW_LINK.bandwidth_bps
        assert config.loss_probability == SLOW_LINK.loss_probability

    def test_graph_is_seed_deterministic(self):
        a = build_edges(small_config())
        b = build_edges(small_config())
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
        c = build_edges(small_config(seed=12))
        assert not np.array_equal(a[0], c[0])

    def test_graph_has_ring_plus_chords_and_no_self_loops(self):
        config = small_config(chords=2)
        heads, tails = build_edges(config)
        assert (heads != tails).all()
        # The ring alone contributes 2 directed edges per node.
        assert len(heads) >= 2 * config.total_nodes

    def test_shards_partition_the_node_range(self):
        config = small_config(shards=7)
        bounds = config.shard_bounds()
        assert bounds[0] == 0 and bounds[-1] == config.total_nodes
        assert (np.diff(bounds) > 0).all()
        graph = ShardedPropagation(config).open()
        heads, _ = build_edges(config)
        owners = np.searchsorted(bounds, heads, side="right") - 1
        assert graph.shard_edges == tuple(np.bincount(owners, minlength=7))

    def test_csr_merges_duplicate_pairs(self):
        config = small_config(total_nodes=2, shards=1, chords=3)
        graph = ShardedPropagation(config).open()
        # Two nodes: every edge is 0->1 or 1->0, so one CSR entry each.
        assert list(graph.indptr) == [0, 1, 2]
        assert list(graph.tails) == [1, 0]
        assert sum(graph.shard_edges) == len(build_edges(config)[0]) > 2


class TestPropagation:
    def test_reaches_every_node(self):
        result = ShardedPropagation(small_config()).run()
        assert result.reached == 300
        finite = result.arrivals[np.isfinite(result.arrivals)]
        assert (finite >= 0).all()

    def test_origin_arrival_is_zero(self):
        result = ShardedPropagation(small_config()).run(origin=42)
        assert result.arrivals[42] == 0.0
        assert (np.delete(result.arrivals, 42) > 0).all()

    def test_seed_determinism_same_fingerprint(self):
        a = ShardedPropagation(small_config()).run()
        b = ShardedPropagation(small_config()).run()
        assert a.fingerprint() == b.fingerprint()
        assert np.array_equal(a.arrivals, b.arrivals)
        c = ShardedPropagation(small_config(seed=99)).run()
        assert c.fingerprint() != a.fingerprint()

    def test_single_shard_matches_multi_shard(self):
        """The shard count only picks the delay streams: a different
        count changes the draws, but every partitioning must still
        deliver a full, valid propagation."""
        one = ShardedPropagation(small_config(shards=1)).run()
        many = ShardedPropagation(small_config(shards=6)).run()
        assert one.reached == many.reached == 300
        # Same topology, same delay law: medians agree loosely.
        assert abs(one.percentile(50) - many.percentile(50)) \
            < one.percentile(50)

    def test_lossy_links_slow_propagation(self):
        clean = ShardedPropagation(small_config()).run()
        lossy = ShardedPropagation(
            small_config(loss_probability=0.3)).run()
        assert lossy.reached == 300
        assert lossy.percentile(95) > clean.percentile(95)

    def test_origin_validation(self):
        with pytest.raises(ValueError):
            ShardedPropagation(small_config()).run(origin=300)

    def test_labels_redraw_delays_on_one_graph(self):
        prop = ShardedPropagation(small_config())
        graph = prop.open()
        a = prop.run_with(graph, 5, label="msg:0")
        b = prop.run_with(graph, 5, label="msg:1")
        again = prop.run_with(graph, 5, label="msg:0")
        assert a.fingerprint() != b.fingerprint()
        assert np.array_equal(a.arrivals, again.arrivals)


class TestPinnedArrivals:
    """Arrivals recorded from the epoch-barrier implementation."""

    def test_a10b_flood_fingerprint(self):
        config = ShardedConfig(total_nodes=10_000, shards=8, seed=5)
        assert ShardedPropagation(config).run().fingerprint() \
            == A10B_FINGERPRINT

    def test_lossy_flood_fingerprints(self):
        prop = ShardedPropagation(lossy_config())
        assert prop.run(origin=13).fingerprint() == LOSSY_RUN_FINGERPRINT
        labelled = prop.run_with(prop.open(), origin=1_999, label="msg:3",
                                 payload_bytes=1_000)
        assert labelled.fingerprint() == LOSSY_LABEL_FINGERPRINT

    def test_a10c_dag_plane_fingerprint(self, monkeypatch):
        benchmarks = pathlib.Path(__file__).resolve().parent.parent \
            / "benchmarks"
        monkeypatch.syspath_prepend(str(benchmarks))
        from bench_a10_scale import sharded_traffic_point

        point = sharded_traffic_point("dag", 2_000, seed=2)
        assert point["confirmed"] > 0
        assert point["plane_fingerprint"] == A10C_DAG_PLANE_FINGERPRINT


class TestReferenceModel:
    """The kernel against :func:`reference_arrivals`, bit for bit."""

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(),
           total_nodes=st.integers(2, 64),
           chords=st.integers(0, 3),
           loss=st.sampled_from([0.0, 0.3]),
           seed=st.integers(0, 2**16),
           payload_bytes=st.integers(0, 100_000),
           label=st.one_of(st.none(), st.integers(0, 999).map("msg:{}".format)))
    def test_kernel_matches_reference_dijkstra(self, data, total_nodes, chords,
                                               loss, seed, payload_bytes, label):
        shards = data.draw(st.integers(1, total_nodes), label="shards")
        origin = data.draw(st.integers(0, total_nodes - 1), label="origin")
        config = ShardedConfig(total_nodes=total_nodes, shards=shards,
                               chords=chords, seed=seed,
                               loss_probability=loss)
        prop = ShardedPropagation(config)
        result = prop.run_with(prop.open(), origin, label=label,
                               payload_bytes=payload_bytes)
        expected = reference_arrivals(config, origin, label, payload_bytes)
        assert np.array_equal(result.arrivals, expected)

    def test_lossy_config_matches_reference(self):
        config = lossy_config()
        prop = ShardedPropagation(config)
        expected = reference_arrivals(config, 1_999, "msg:3", 1_000)
        result = prop.run_with(prop.open(), 1_999, label="msg:3",
                               payload_bytes=1_000)
        assert np.array_equal(result.arrivals, expected)


class TestDuplicateEdges:
    """Graphs of two or three nodes: the ring directions coincide (n=2)
    and every chord lands on a ring neighbour, so the crowd has parallel
    edges and a delivery must ride the fastest of them."""

    def deliveries(self, total_nodes, shards, seed, origin):
        from repro.net.link import FAST_LINK
        from repro.net.message import Message
        from repro.net.node import NetworkNode
        from repro.net.sharded_plane import ShardedMessagePlane
        from repro.net.topology import complete_topology
        from repro.sim.simulator import Simulator

        class Clock(NetworkNode):
            def handle_message(self, sender_id, message):
                self.arrival = sim.now

        sim = Simulator(seed=1)
        net = ShardedMessagePlane(sim, total_nodes=total_nodes,
                                  shards=shards, chords=3, seed=seed,
                                  link=FAST_LINK)
        nodes = complete_topology(net, total_nodes, Clock, FAST_LINK)
        nodes[origin].broadcast(Message(kind="test", payload="x",
                                        size_bytes=100))
        sim.run()
        config = ShardedConfig.with_link(
            FAST_LINK, total_nodes=total_nodes, shards=shards, chords=3,
            seed=seed)
        heads, tails = build_edges(config)
        pairs = set(zip(heads.tolist(), tails.tolist()))
        assert len(pairs) < len(heads), "expected parallel edges"
        expected = reference_arrivals(config, origin, "msg:0", 100)
        got = [getattr(node, "arrival", 0.0) for node in nodes]
        return config, got, expected

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_two_nodes_deliver_at_the_minimum_parallel_delay(self, seed):
        config, got, expected = self.deliveries(2, 2, seed, origin=0)
        assert np.array_equal(got, expected)
        # Every 0->1 edge is owned by shard 0: the delivery is the
        # minimum of that shard's draws, strictly below the maximum.
        heads, _ = build_edges(config)
        draws = _edge_delays(
            dataclasses.replace(config, payload_bytes=100),
            int(np.count_nonzero(heads == 0)),
            np.random.default_rng(_np_seed(seed, "msg:0:shard:0")))
        assert got[1] == draws.min() < draws.max()

    @pytest.mark.parametrize("shards", [1, 2, 3])
    def test_three_nodes_match_the_reference(self, shards):
        _, got, expected = self.deliveries(3, shards, seed=4, origin=2)
        assert np.array_equal(got, expected)
