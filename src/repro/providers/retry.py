"""Per-experiment retry: policy, deterministic backoff, fault ledger.

A :class:`RetryPolicy` is applied *inside* ``run_assembled_experiment``
(the common worker path of the serial, thread, and process dispatchers),
so a transient fault re-runs only the affected experiment — with its
original derived seed, which keeps a retried batch bit-identical to a
fault-free run.  The policy is a plain-attribute object and therefore
picklable: it rides the per-experiment config into process-pool workers.

Classification: only exception types listed in ``retryable_exceptions``
are retried.  By default that is the transient family
(:class:`~repro.exceptions.TransientFaultError`,
:class:`~repro.exceptions.WorkerCrashError`,
:class:`~repro.exceptions.CorruptedResultError`, plus
``ConnectionError``); genuine programming/validation errors (a circuit
the simulator rejects, say) fail immediately, exactly as before.

Backoff is exponential with *deterministic* jitter: the jitter fraction
is derived from the experiment's seed and the attempt number, never from
global randomness, so the ledger of backoff waits is reproducible.
"""

from __future__ import annotations

import hashlib

from repro.exceptions import (
    BackendError,
    CorruptedResultError,
    TransientFaultError,
    WorkerCrashError,
)
from repro.providers.result import unit_faults

#: Exception types retried by default: the transient/flaky family.
DEFAULT_RETRYABLE = (
    TransientFaultError,
    WorkerCrashError,
    CorruptedResultError,
    ConnectionError,
)


class RetryPolicy:
    """How many times, and how patiently, to re-run a failed experiment.

    * ``max_attempts`` — total tries per experiment (1 = no retries).
    * ``base_delay`` / ``backoff_factor`` / ``max_delay`` — the wait
      before retry *k* is ``base_delay * backoff_factor**k``, capped at
      ``max_delay``.
    * ``jitter`` — symmetric fractional jitter (0.1 = +/-10%) applied to
      each wait, derived deterministically from (seed, attempt).
    * ``retryable_exceptions`` — exception types classified as transient.
    """

    def __init__(self, max_attempts: int = 3, base_delay: float = 0.05,
                 backoff_factor: float = 2.0, max_delay: float = 1.0,
                 jitter: float = 0.1, retryable_exceptions=None):
        if max_attempts < 1:
            raise BackendError("max_attempts must be at least 1")
        if base_delay < 0 or max_delay < 0:
            raise BackendError("retry delays must be non-negative")
        if not 0.0 <= jitter <= 1.0:
            raise BackendError("jitter must be in [0, 1]")
        self.max_attempts = int(max_attempts)
        self.base_delay = float(base_delay)
        self.backoff_factor = float(backoff_factor)
        self.max_delay = float(max_delay)
        self.jitter = float(jitter)
        self.retryable_exceptions = tuple(
            DEFAULT_RETRYABLE if retryable_exceptions is None
            else retryable_exceptions
        )

    def retryable(self, exc: BaseException) -> bool:
        """Whether the exception is classified as transient."""
        return isinstance(exc, self.retryable_exceptions)

    def backoff(self, attempt: int, seed=None) -> float:
        """Wait (seconds) before re-running after failed attempt number
        ``attempt`` (0-based).  Deterministic for a given (seed, attempt).
        """
        if self.base_delay <= 0:
            return 0.0
        delay = min(
            self.base_delay * self.backoff_factor ** attempt, self.max_delay
        )
        if self.jitter > 0:
            digest = hashlib.sha256(
                f"backoff:{seed}:{attempt}".encode()
            ).digest()
            fraction = int.from_bytes(digest[:8], "big") / float(1 << 64)
            delay *= 1.0 + self.jitter * (2.0 * fraction - 1.0)
        return delay

    def __repr__(self):
        return (
            f"RetryPolicy(max_attempts={self.max_attempts}, "
            f"base_delay={self.base_delay}, "
            f"backoff_factor={self.backoff_factor}, jitter={self.jitter})"
        )


#: The pipeline default: up to 3 attempts, 50 ms first backoff.  Inert for
#: healthy batches — non-transient errors are never retried.
DEFAULT_RETRY_POLICY = RetryPolicy()

#: Error type names the runtime service classifies as *infrastructure*
#: failures: the transient family plus the executor-degradation
#: surfaces.  Experiment errors are persisted as ``"TypeName: message"``
#: strings, so classification is by leading type name.
INFRASTRUCTURE_ERROR_NAMES = frozenset(
    exc.__name__ for exc in DEFAULT_RETRYABLE
) | {"BrokenExecutor", "BrokenProcessPool", "TimeoutError"}


def is_infrastructure_error(error) -> bool:
    """Whether an exception (or persisted error string) is an
    infrastructure failure.

    Drives the runtime service's circuit breakers and dead-letter
    policy: only failures of the transient/flaky family count against a
    backend's health or a job's service-attempt budget — a circuit the
    simulator genuinely rejects is the *user's* failure and must neither
    open a breaker nor be retried at the service level.
    """
    if error is None:
        return False
    if isinstance(error, BaseException):
        return isinstance(error, DEFAULT_RETRYABLE + (TimeoutError,))
    text = str(error)
    if text.split(":", 1)[0].strip() in INFRASTRUCTURE_ERROR_NAMES:
        return True
    # Merged chunk errors wrap the original ("chunk 1/3 failed:
    # TransientFaultError: ..."): classify by the embedded type name.
    return any(f"{name}:" in text for name in INFRASTRUCTURE_ERROR_NAMES)


def infrastructure_failure(result) -> bool:
    """Whether a collected :class:`Result`'s failures are all
    infrastructure-class.

    True only when the result failed *and* every failed experiment's
    recorded error classifies as infrastructure — a batch with any
    genuine user error is not eligible for service-level retry or
    quarantine (re-running it would fail identically by design).
    """
    failed = [
        experiment for experiment in result.results
        if not experiment.success
    ]
    if not failed:
        return False
    return all(
        is_infrastructure_error(experiment.error) for experiment in failed
    )


def resolve_retry_policy(value) -> RetryPolicy:
    """Normalize the ``retry_policy`` run option.

    Accepts None (pipeline default), a ready :class:`RetryPolicy`, a
    kwargs dictionary, or False (disable retries entirely).
    """
    if value is None:
        return DEFAULT_RETRY_POLICY
    if value is False:
        return RetryPolicy(max_attempts=1, base_delay=0.0)
    if isinstance(value, RetryPolicy):
        return value
    if isinstance(value, dict):
        return RetryPolicy(**value)
    raise BackendError(
        "retry_policy must be a RetryPolicy, a kwargs dict, False, or None"
    )


#: Per-experiment status precedence when its units disagree: the
#: merged result's own (a failed chunk wins over a cancelled one, which
#: wins over one not finished).
_STATUS_RANK = {"DONE": 0, "INCOMPLETE": 1, "CANCELLED": 2, "ERROR": 3}


def aggregate_fault_stats(outcomes, fallbacks=()) -> dict:
    """Build the job-level fault/retry ledger from unit outcomes.

    ``outcomes`` are dispatch units — one per unchunked experiment or
    per shot-chunk, in plan order.  Accounts for every attempt (each
    unit's first attempt is a run, the rest retries), backoff wait,
    injected fault and executor fallback; exposed as ``job.fault_stats``.
    An experiment's units fold into one ``per_experiment`` entry with
    their faults prefixed ``c<chunk>:`` and the merged result's status
    precedence (ERROR > CANCELLED > INCOMPLETE > DONE).
    """
    per_experiment: dict = {}
    attempts = retries = faults = completed = resumed = 0
    failed = []
    for outcome in outcomes:
        name = outcome.circuit_name
        unit = unit_faults(outcome)
        attempts += outcome.attempts
        retries += max(0, outcome.attempts - 1)
        faults += len(unit)
        completed += outcome.status == "DONE"
        resumed += outcome.resumed
        if not outcome.success:
            failed.append(name)
        entry = per_experiment.get(name)
        if entry is None:
            # backoff_s sums unrounded until every unit is in.
            per_experiment[name] = {
                "status": outcome.status, "attempts": outcome.attempts,
                "backoff_s": outcome.backoff_total, "faults": unit,
            }
            continue
        entry["attempts"] += outcome.attempts
        entry["backoff_s"] += outcome.backoff_total
        entry["faults"].extend(unit)
        if _STATUS_RANK[outcome.status] > _STATUS_RANK[entry["status"]]:
            entry["status"] = outcome.status
    backoff_total = 0.0
    for entry in per_experiment.values():
        backoff_total += entry["backoff_s"]
        entry["backoff_s"] = round(entry["backoff_s"], 6)
    return {
        "experiments": len(per_experiment),
        "attempts": attempts,
        "retries": retries,
        "backoff_total_s": round(backoff_total, 6),
        "faults_injected": faults,
        "fallbacks": list(fallbacks),
        "failed_experiments": sorted(set(failed), key=failed.index),
        "per_experiment": per_experiment,
        "total_chunks": len(outcomes),
        "completed_chunks": completed,
        "resumed_chunks": resumed,
    }
