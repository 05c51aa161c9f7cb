"""Providers: Aer simulators, simulated IBM QX devices, jobs and results.

Jobs run on the serial executor unless ``executor="threads"`` or
``"processes"`` asks for a pool (``"auto"`` means serial).  Fault
tolerance lives here too: :mod:`repro.providers.retry` (per-experiment
retry with deterministic backoff), :mod:`repro.providers.faults` (seeded
fault injection for chaos testing), and the one fallback rung inside
:mod:`repro.providers.executor` — a broken process pool re-runs its
unfinished experiments on threads.
"""

from repro.providers.aer import Aer
from repro.providers.backend import BackendConfiguration, BaseBackend, Job
from repro.providers.execute import execute, transpile
from repro.providers.executor import JobStatus
from repro.providers.fake import (
    IBMQ,
    BackendProperties,
    FakeQXBackend,
    build_device_noise_model,
)
from repro.providers.faults import FaultInjector, FaultKind, FaultSpec
from repro.providers.result import Counts, ExperimentResult, Result
from repro.providers.retry import RetryPolicy

__all__ = [
    "Aer",
    "BackendConfiguration",
    "BackendProperties",
    "BaseBackend",
    "Counts",
    "ExperimentResult",
    "FakeQXBackend",
    "FaultInjector",
    "FaultKind",
    "FaultSpec",
    "IBMQ",
    "Job",
    "JobStatus",
    "Result",
    "RetryPolicy",
    "build_device_noise_model",
    "execute",
    "transpile",
]
