"""Parallel trial execution across worker processes.

Each trial runs in its *own* child process (bounded to ``jobs`` live
children) rather than a long-lived executor pool: that is what makes
per-trial timeouts enforceable (a hung trial is terminated without
poisoning a shared worker) and crash recovery trivial (a dead child is
just retried; there is no broken pool to rebuild).

The parent resolves each trial's bench module through the experiment
registry, so workers only ever ``importlib.import_module`` a name they
were handed — no string munging of file paths in the hot path.  Results
come back over a per-child pipe as the uniform envelope and are
validated at the boundary.

Determinism: a trial's randomness is fully determined by
``Trial.derived_seed`` (root seed forked with the experiment/param
label), so the number of jobs, scheduling order, retries and cache hits
cannot change any metric — only wall-clock.
"""

from __future__ import annotations

import importlib
import multiprocessing
import multiprocessing.connection
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.runner.cache import ResultCache, code_fingerprint
from repro.runner.spec import TRACE_KEY, Trial, validate_result

#: Outcome statuses.
OK = "ok"
ERROR = "error"      # the bench raised — deterministic, not retried
CRASH = "crash"      # the worker died without reporting — retried
TIMEOUT = "timeout"  # the per-trial deadline passed — terminated

_POLL_INTERVAL_S = 0.05


@dataclass
class TrialOutcome:
    """What happened to one trial, successful or not."""

    trial: Trial
    status: str
    result: Optional[Dict[str, Any]] = None
    attempts: int = 1
    cached: bool = False
    elapsed_s: float = 0.0
    error: Optional[str] = None
    trace_path: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.status == OK


def _trial_worker(conn, bench_path: str, module_name: str,
                  params: Dict[str, Any], seed: int) -> None:
    """Child-process entry point: import the bench, run one trial."""
    status: str = ERROR
    payload: Any = None
    try:
        if bench_path and bench_path not in sys.path:
            sys.path.insert(0, bench_path)
        module = importlib.import_module(module_name)
        run = getattr(module, "run", None)
        if not callable(run):
            raise TypeError(f"{module_name} does not expose run(params, seed)")
        result = run(dict(params), seed)
        validate_result(result)
        status, payload = OK, result
    except BaseException as error:  # report *everything*; the parent decides
        payload = f"{type(error).__name__}: {error}"
    try:
        conn.send((status, payload))
    except (BrokenPipeError, OSError):
        pass
    finally:
        conn.close()


def _mp_context():
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else "spawn")


@dataclass
class _Active:
    process: Any
    conn: Any
    trial: Trial
    index: int
    attempt: int
    started: float
    deadline: Optional[float] = None
    extra: Dict[str, Any] = field(default_factory=dict)


def run_trials(
    trials: Sequence[Trial],
    jobs: int = 1,
    timeout_s: Optional[float] = None,
    retries: int = 1,
    cache: Optional[ResultCache] = None,
    trace_dir: Optional[str] = None,
    progress: Optional[Callable[[TrialOutcome, int, int], None]] = None,
) -> List[TrialOutcome]:
    """Execute ``trials`` across up to ``jobs`` worker processes.

    * ``timeout_s`` — per-trial wall-clock budget; exceeding it kills the
      worker and records a ``timeout`` outcome (not retried: a hung
      trial would hang again).
    * ``retries`` — how many times a *crashed* worker (died without
      reporting) is re-launched before recording a ``crash`` outcome.
    * ``cache`` — read-through/write-through :class:`ResultCache`;
      hits skip execution entirely.
    * ``progress`` — called as ``progress(outcome, done, total)`` after
      every finished trial (cached ones included).

    Outcomes are returned in the order of ``trials`` regardless of
    completion order.
    """
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    if timeout_s is not None and timeout_s <= 0:
        raise ValueError("timeout_s must be positive")
    if retries < 0:
        raise ValueError("retries must be >= 0")

    from repro.core.experiment import EXPERIMENTS, bench_dir

    bench_path = str(bench_dir())
    outcomes: List[Optional[TrialOutcome]] = [None] * len(trials)
    done = 0
    total = len(trials)
    fingerprints: Dict[str, str] = {}

    def fingerprint_for(experiment_id: str) -> str:
        if experiment_id not in fingerprints:
            fingerprints[experiment_id] = code_fingerprint(experiment_id)
        return fingerprints[experiment_id]

    def finish(index: int, outcome: TrialOutcome) -> None:
        nonlocal done
        outcomes[index] = outcome
        done += 1
        if progress is not None:
            progress(outcome, done, total)

    # Serve cache hits up front; queue the rest as (index, trial, attempt).
    pending: List[tuple] = []
    for index, trial in enumerate(trials):
        if trial.experiment_id not in EXPERIMENTS:
            raise KeyError(f"unknown experiment {trial.experiment_id!r}")
        if cache is not None:
            hit = cache.get(trial, fingerprint_for(trial.experiment_id))
            if hit is not None:
                finish(index, TrialOutcome(trial, OK, result=hit, cached=True))
                continue
        pending.append((index, trial, 1))
    pending.reverse()  # pop() keeps submission order

    ctx = _mp_context()
    active: List[_Active] = []

    def launch(index: int, trial: Trial, attempt: int) -> None:
        experiment = EXPERIMENTS[trial.experiment_id]
        recv_conn, send_conn = ctx.Pipe(duplex=False)
        process = ctx.Process(
            target=_trial_worker,
            args=(send_conn, bench_path, experiment.bench_module,
                  dict(trial.params), trial.derived_seed),
        )
        now = time.monotonic()
        process.start()
        send_conn.close()  # the child holds the write end now
        active.append(_Active(
            process, recv_conn, trial, index, attempt, now,
            deadline=(now + timeout_s) if timeout_s is not None else None,
        ))

    def settle(entry: _Active) -> None:
        """The child finished or died: read its report and record it."""
        elapsed = time.monotonic() - entry.started
        status: str = CRASH
        payload: Any = None
        if entry.conn.poll():
            try:
                status, payload = entry.conn.recv()
            except (EOFError, OSError):
                status, payload = CRASH, None
        entry.process.join()
        entry.conn.close()
        if status == OK:
            outcome = TrialOutcome(entry.trial, OK, result=payload,
                                   attempts=entry.attempt, elapsed_s=elapsed)
            _handle_trace(outcome, trace_dir)
            if cache is not None:
                cache.put(entry.trial,
                          fingerprint_for(entry.trial.experiment_id),
                          outcome.result)
            finish(entry.index, outcome)
        elif status == ERROR:
            finish(entry.index, TrialOutcome(
                entry.trial, ERROR, attempts=entry.attempt,
                elapsed_s=elapsed, error=str(payload)))
        else:  # the worker died without reporting
            exitcode = entry.process.exitcode
            if entry.attempt <= retries:
                pending.append((entry.index, entry.trial, entry.attempt + 1))
            else:
                finish(entry.index, TrialOutcome(
                    entry.trial, CRASH, attempts=entry.attempt,
                    elapsed_s=elapsed,
                    error=f"worker died (exit code {exitcode})"))

    def reap(entry: _Active) -> None:
        """Deadline exceeded: kill the worker, record a timeout."""
        entry.process.terminate()
        entry.process.join(1.0)
        if entry.process.is_alive():  # pragma: no cover - stubborn child
            entry.process.kill()
            entry.process.join()
        entry.conn.close()
        finish(entry.index, TrialOutcome(
            entry.trial, TIMEOUT, attempts=entry.attempt,
            elapsed_s=time.monotonic() - entry.started,
            error=f"exceeded {timeout_s:.1f}s timeout"))

    try:
        while pending or active:
            while pending and len(active) < jobs:
                launch(*pending.pop())
            if not active:
                continue
            multiprocessing.connection.wait(
                [entry.conn for entry in active], timeout=_POLL_INTERVAL_S
            )
            now = time.monotonic()
            still_running: List[_Active] = []
            for entry in active:
                if entry.conn.poll() or not entry.process.is_alive():
                    settle(entry)
                elif entry.deadline is not None and now > entry.deadline:
                    reap(entry)
                else:
                    still_running.append(entry)
            active = still_running
    finally:
        for entry in active:  # interrupted: leave no orphan workers
            entry.process.terminate()
            entry.process.join(1.0)
            entry.conn.close()

    return [outcome for outcome in outcomes if outcome is not None]


def _handle_trace(outcome: TrialOutcome, trace_dir: Optional[str]) -> None:
    """Write the optional per-trial trace JSONL and strip it from the
    envelope (traces are large and never belong in the cache)."""
    import json
    from pathlib import Path

    result = outcome.result
    if not result or TRACE_KEY not in result:
        return
    records = result.pop(TRACE_KEY)
    if trace_dir is None:
        return
    path = Path(trace_dir) / outcome.trial.experiment_id
    path.mkdir(parents=True, exist_ok=True)
    target = path / f"{outcome.trial.key}.jsonl"
    with open(target, "w") as handle:
        for record in records:
            handle.write(json.dumps(record, sort_keys=True, default=str) + "\n")
    outcome.trace_path = str(target)
