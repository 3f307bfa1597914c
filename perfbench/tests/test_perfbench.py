"""The benchmark's own checks: span arithmetic, wrapper restoration,
smoke-sized runs of every workload, and the refusal to run without the
program source.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import importlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from dataclasses import replace

import numpy as np
import pytest

from conftest import ROOT
from perfbench import run as bench
from perfbench import scenarios
from perfbench.layers import ENTRY_POINTS, LAYERS, self_time_by_layer
from perfbench.speed import NEAR_S, REFERENCE_S, SpeedProbe
from perfbench.spans import (
    Patcher,
    SpanLog,
    count_by_name,
    min_self_time,
    root_duration,
    self_time_by_name,
    self_times,
)

with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
    SPEC = json.load(handle)

#: Each workload cut to a few simulated seconds of load.
SMOKE = {
    "chain-backlog": dict(load_s=60.0, settle_s=90.0),
    "lattice-gossip": dict(load_s=2.0, settle_s=1.0),
    "crowd-sharded": dict(load_s=3.0, settle_s=3.0),
    "bft-crash": dict(load_s=240.0, settle_s=30.0, rate_tps=1.0),
}


def _log(spans):
    """A span log holding ``(name, start, end, parent)`` tuples as given."""
    log = SpanLog()
    for name, start, end, parent in spans:
        log.name.append(log.name_id(name))
        log.start.append(start)
        log.end.append(end)
        log.parent.append(parent)
    return log


# A root with two children, one of which has a child of its own, then a
# second root; times in seconds.
TREE = [
    ("net:a", 0.0, 10.0, -1),
    ("dag:b", 1.0, 4.0, 0),
    ("dag:c", 5.0, 9.0, 0),
    ("crypto:d", 6.0, 7.0, 2),
    ("net:a", 12.0, 13.5, -1),
]


def test_self_time_is_duration_minus_direct_children():
    start, end, parent = (np.asarray(c) for c in zip(*[s[1:] for s in TREE]))
    assert self_times(start, end, parent).tolist() == [3.0, 3.0, 3.0, 1.0, 1.5]


def test_self_times_by_name_and_layer_sum_to_root_coverage():
    log = _log(TREE)
    by_name = self_time_by_name(log)
    assert by_name == {"net:a": 4.5, "dag:b": 3.0, "dag:c": 3.0, "crypto:d": 1.0}
    by_layer = self_time_by_layer(by_name)
    assert by_layer["dag"] == 6.0 and by_layer["crypto"] == 1.0
    assert sum(by_layer[layer] for layer in LAYERS) == root_duration(log) == 11.5
    assert min_self_time(log) == 1.0
    assert count_by_name(log) == {"net:a": 2, "dag:b": 1, "dag:c": 1, "crypto:d": 1}


def test_self_times_of_a_range_cover_only_its_spans():
    log = _log(TREE)
    assert self_time_by_name(log, 0, 4)["net:a"] == 3.0
    assert self_time_by_name(log, 4)["net:a"] == 1.5
    assert self_time_by_name(log, 4)["dag:b"] == 0.0


def test_part_spans_count_towards_their_layer():
    by_layer = self_time_by_layer({"blockchain:x": 2.0,
                                   "blockchain/mempool:y": 1.0})
    assert by_layer["blockchain"] == 3.0 and by_layer["mempool"] == 1.0


def test_nesting_violation_shows_as_negative_self_time():
    log = _log([("net:a", 0.0, 1.0, -1), ("dag:b", 0.5, 2.0, 0)])
    assert min_self_time(log) < 0


def test_reference_time_leaves_out_samples_and_scales_by_speed():
    probe = SpeedProbe()
    probe.starts = [0.0, 1.0, 2.0, 3.0, 4.0]
    probe.durations = [0.002, 0.002, 0.004, 0.002, 0.008]
    # Samples at 1.0 and 2.0 fall inside; the speed comes from them and
    # the samples just before (0.0) and after (3.0) the interval.
    assert probe.sampled_s(0.5, 2.5) == pytest.approx(0.006)
    assert NEAR_S < 0.5
    assert probe.reference_s(0.5, 2.5) == pytest.approx(
        (2.0 - 0.006) * REFERENCE_S / 0.002)
    # The loop ran at half the reference speed, so reference time is
    # half the wall time.
    assert probe.reference_s(3.5, 3.6) == pytest.approx(0.1 * REFERENCE_S
                                                        / 0.005)


def test_speed_probe_samples_on_a_timer_and_then_stops():
    before = signal.getsignal(signal.SIGALRM)
    with SpeedProbe() as probe:
        began = time.perf_counter()
        while time.perf_counter() < began + 0.3:
            pass
        ended = time.perf_counter()
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is before
    assert len(probe.durations) >= 5
    assert probe.starts == sorted(probe.starts)
    assert 0 < probe.sampled_s(began, ended) < ended - began
    assert probe.reference_s(began, ended) > 0


def _entry_point_bindings():
    """Every place an entry point is bound, with the object bound there."""
    bindings = {}
    for _, module_name, owner, attrs in ENTRY_POINTS:
        module = importlib.import_module(module_name)
        for attr in attrs:
            if owner is None:
                original = vars(module)[attr]
                for name, other in list(sys.modules.items()):
                    if other is not None and name.startswith("repro"):
                        for bound, value in vars(other).items():
                            if value is original:
                                bindings[(name, bound)] = value
            else:
                cls = getattr(module, owner)
                bindings[(module_name, owner, attr)] = cls.__dict__[attr]
    return bindings


def _smoke(name):
    return replace(scenarios.WORKLOADS[name], **SMOKE[name])


def test_traced_trial_restores_every_original():
    before = _entry_point_bindings()
    trial, log, _ = bench.traced_trial(_smoke("lattice-gossip"), seed=3)
    assert len(log) > 1000
    after = _entry_point_bindings()
    assert after.keys() == before.keys()
    changed = [key for key in before if after[key] is not before[key]]
    assert changed == []


def test_patcher_restores_module_bindings():
    from repro.crypto import hashing

    original = hashing.sha256d
    patcher = Patcher()
    patcher.function(hashing, "sha256d", lambda fn: (lambda data: fn(data)))
    from repro.blockchain import block

    assert block.sha256d is not original and hashing.sha256d is not original
    patcher.restore()
    assert block.sha256d is original and hashing.sha256d is original


@pytest.mark.parametrize("name", sorted(SMOKE))
@pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
def test_smoke_run_reports_every_metric_with_its_unit(name, traced, monkeypatch,
                                                      tmp_path):
    monkeypatch.setitem(scenarios.WORKLOADS, name, _smoke(name))
    monkeypatch.setattr(bench, "OUT_DIR", str(tmp_path))
    result = bench.run(name, seed=5, seconds=0.0, traced=traced)
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if traced else "end_to_end"]
    expected = {m["name"]: m["unit"] for m in spec}
    reported = {n: m["unit"] for n, m in result["metrics"].items()}
    assert reported == expected
    assert all(isinstance(m["value"], (int, float))
               for m in result["metrics"].values())
    if traced:
        assert os.path.exists(tmp_path / f"spans-{name}-seed5.npz")


def test_a_second_run_of_a_seed_must_repeat_the_exact_metrics(monkeypatch,
                                                              tmp_path):
    name = "bft-crash"
    monkeypatch.setitem(scenarios.WORKLOADS, name, _smoke(name))
    monkeypatch.setattr(bench, "OUT_DIR", str(tmp_path))
    assert bench.run(name, seed=2, seconds=0.0, traced=False)["correct"]
    record = tmp_path / f"exact-{name}-seed2.json"
    exact = json.loads(record.read_text())
    exact["confirmed"] += 1
    record.write_text(json.dumps(exact))
    result = bench.run(name, seed=2, seconds=0.0, traced=False)
    assert result["correct"] is False and result["failed"] > 0


def test_refuses_to_run_without_the_program_source(tmp_path):
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "bft-crash",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    assert done.returncode != 0
    assert done.stdout == ""
