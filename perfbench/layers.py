"""The layers the traced run attributes wall time to.

Each layer is a package of ``src/repro``; its entry points are the
functions and methods through which other layers call into it.  A span
name is ``layer:Owner.attr`` or, for a part of a layer broken out on
its own, ``layer/part:Owner.attr`` (``blockchain/mempool`` spans count
towards ``blockchain.self_s`` and also make up ``mempool.self_s``).

Work a layer does inside an entry point of another layer is attributed
to the caller: typed-id ``Hash.__hash__`` inside a dict lookup lands in
the self time of the layer doing the lookup, not in ``common``.
"""

from __future__ import annotations

import importlib
from typing import Dict, Iterable, List, Optional, Tuple

from perfbench.spans import Patcher, SpanLog

#: (span layer, module, class or None for module functions, attributes)
ENTRY_POINTS: Tuple[Tuple[str, str, Optional[str], Tuple[str, ...]], ...] = (
    ("sim", "repro.sim.simulator", "Simulator",
     ("run", "schedule", "schedule_at", "schedule_batchable")),
    ("sharded", "repro.sim.sharded", "ShardedPropagation", ("open", "run_with")),
    ("sharded", "repro.net.sharded_plane", "ShardedMessagePlane",
     ("gossip", "_ensure_crowd")),
    ("net", "repro.net.network", "Network",
     ("gossip", "transmit", "transmit_reliable", "kick_retries",
      "_deliver_gossip_batch", "_deliver_transmit_batch")),
    ("net", "repro.net.node", "NetworkNode",
     ("broadcast", "deliver", "deliver_batch")),
    ("protocol", "repro.protocol.node", "ProtocolNode",
     ("ingest", "ingest_batch", "retry_dependents", "revive_intake",
      "prewarm_messages")),
    ("protocol/intake", "repro.protocol.intake", "IntakeLayer",
     ("park", "satisfy", "drain")),
    ("protocol/transport", "repro.protocol.transport", "TransportLayer",
     ("publish", "on_reconnect")),
    ("blockchain", "repro.blockchain.node", "BlockchainNode",
     ("receive_block", "create_block_template", "handle_message",
      "submit_transaction")),
    ("blockchain", "repro.blockchain.node", "ChainConsensus", ("integrate",)),
    ("blockchain", "repro.blockchain.wallet", "UtxoWallet", ("pay",)),
    ("blockchain/mempool", "repro.blockchain.mempool", "Mempool",
     ("add", "select_by_size", "remove_included", "readmit")),
    ("storage", "repro.storage.pruning", None, ("prune_chain",)),
    ("dag", "repro.dag.lattice", "Lattice", ("process", "cement", "rollback")),
    ("dag", "repro.dag.voting", "ElectionManager",
     ("open_election", "record_conflict_vote", "record_observation_vote")),
    ("dag", "repro.dag.node", "NanoNode", ("handle_message", "send_payment")),
    ("dag", "repro.dag.node", "NanoConsensus", ("integrate", "on_applied")),
    ("consensus", "repro.consensus.hotstuff", "BftNode",
     ("handle_message", "submit_payment", "_propose", "_receive_vote",
      "_process_qc", "_on_timeout")),
    ("consensus", "repro.consensus.hotstuff", "HotStuffEngine",
     ("integrate", "on_applied")),
    ("crypto", "repro.crypto.keys", "KeyPair", ("sign", "generate")),
    ("crypto", "repro.crypto.keys", None,
     ("verify_signature", "verify_signatures_batch")),
    ("crypto", "repro.crypto.hashing", None, ("sha256", "sha256d")),
    ("common", "repro.common.encoding", None,
     ("encode_uint", "encode_uint32", "encode_uint64", "encode_uint128",
      "encode_bytes", "encode_str", "encode_bool", "encode_list")),
    ("common", "repro.common.encoding", "Encoder",
     ("raw", "uint", "bytes", "str", "bool", "list", "getvalue")),
    ("trace", "repro.trace", "Tracer",
     ("emit", "record_schedule", "record_deliver", "record_drop",
      "record_retransmit", "record_give_up", "record_fork",
      "record_intake_park", "record_intake_revive", "record_republish")),
    ("workloads", "perfbench.scenarios", "PaymentStream", ("fire",)),
)

#: Top-level layers, in the order the report lists them.
LAYERS = ("sim", "sharded", "net", "protocol", "blockchain", "storage",
          "dag", "consensus", "crypto", "common", "trace", "workloads")


def install_spans(patcher: Patcher, log: SpanLog) -> None:
    """Wrap every entry point so each call records a span in ``log``."""
    for layer, module_name, owner, attrs in ENTRY_POINTS:
        module = importlib.import_module(module_name)
        for attr in attrs:
            if owner is None:
                name = f"{layer}:{attr}"
                patcher.function(module, attr,
                                 lambda fn, name=name: log.wrap(fn, name))
            else:
                cls = getattr(module, owner)
                name = f"{layer}:{owner}.{attr}"
                patcher.method(cls, attr,
                               lambda fn, name=name: log.wrap(fn, name))


def install_timeline(patcher: Patcher, timeline: Dict[object, List[float]]) -> None:
    """Record, per artifact key, the simulated time each replica
    integrated it (``timeline[key]`` lists the times in order).

    Every paradigm runs integration through
    ``ProtocolNode._ingest_no_retry``, which returns the artifact's key
    when the replica's consensus engine accepted it.
    """
    from repro.protocol.node import ProtocolNode

    def wrap(fn):
        def ingest(node, artifact):
            key = fn(node, artifact)
            if key is not None:
                timeline.setdefault(key, []).append(
                    node.network.simulator.now)
            return key
        return ingest

    patcher.method(ProtocolNode, "_ingest_no_retry", wrap)


def layer_of(span_name: str) -> Tuple[str, str]:
    """``("blockchain", "mempool")`` for ``blockchain/mempool:Mempool.add``;
    the part is ``""`` for a span of the layer proper."""
    layer = span_name.split(":", 1)[0]
    top, _, part = layer.partition("/")
    return top, part


def self_time_by_layer(by_name: Dict[str, float]) -> Dict[str, float]:
    """Self time summed per top-level layer and per broken-out part."""
    totals = {layer: 0.0 for layer in LAYERS}
    for span_name, seconds in by_name.items():
        top, part = layer_of(span_name)
        totals[top] = totals.get(top, 0.0) + seconds
        if part:
            totals[part] = totals.get(part, 0.0) + seconds
    return totals


def span_count(counts: Dict[str, int], names: Iterable[str]) -> int:
    return sum(counts.get(name, 0) for name in names)
