"""Per-layer accounting for the traced run.

Numbers come from the benchmark timing its own calls into each layer's
public functions, and, where a layer runs inside one public call, from
what the program already exposes: ``job.trace()`` spans, the compiled
circuit's ``pass_times``, the transpile-cache counters and result
metadata.  Nothing here adds spans to the program.
"""

from __future__ import annotations

import gc
import threading
import time
from collections import Counter, defaultdict
from contextlib import nullcontext

#: Passes the preset pipelines at levels 0, 1 and 3 can run.
PASSES = (
    "Unroller", "TrivialLayout", "DenseLayout", "ApplyLayout", "BasicSwap",
    "SabreSwap", "LookaheadSwap", "Decompose", "CXDirection", "CheckMap",
    "GateCancellation", "Optimize1qGates", "CommutativeCancellation",
    "Size", "FixedPoint",
)

#: ``(name, unit, better)`` of every per-layer metric.  ``_s`` metrics are
#: seconds summed over the measured section; a layer a workload never
#: enters reads 0 there.
METRICS = (
    ("qasm.parse_s", "s", "lower"),
    ("transpiler.transpile_s", "s", "lower"),
    *((f"transpiler.pass_s.{name}", "s", "lower") for name in PASSES),
    ("transpiler.failed", "count", "lower"),
    ("transpiler.failed_s", "s", "lower"),
    ("transpiler.cx_added", "count", "lower"),
    ("transpiler.depth_out", "layers", "lower"),
    ("transpiler.cache_hit_ratio", "ratio", "higher"),
    ("qobj.assemble_s", "s", "lower"),
    ("providers.submit_s", "s", "lower"),
    ("providers.result_s", "s", "lower"),
    ("providers.dispatch_s", "s", "lower"),
    ("providers.collect_s", "s", "lower"),
    ("providers.processes_share", "ratio", "lower"),
    ("providers.workers_spawned", "count", "lower"),
    ("providers.retries", "count", "lower"),
    ("providers.fallbacks", "count", "lower"),
    ("simulators.experiment_s.ideal", "s", "lower"),
    ("simulators.experiment_s.device", "s", "lower"),
    ("simulators.shots_per_s", "1/s", "higher"),
    ("primitives.estimator_s", "s", "lower"),
    ("primitives.calls", "count", "lower"),
    ("primitives.broadcast_share", "ratio", "higher"),
    ("algorithms.optimizer_self_s", "s", "lower"),
    ("runtime.submit_s", "s", "lower"),
    ("runtime.queue_wait_s", "s", "lower"),
    ("runtime.worker_s", "s", "lower"),
    ("runtime.result_s", "s", "lower"),
    ("runtime.ledger_bytes_per_job", "bytes", "lower"),
    ("runtime.ledger_files_per_job", "count", "lower"),
    ("runtime.rss_kb_per_job", "kB", "lower"),
    ("python.gc_share", "ratio", "lower"),
    ("python.gc_collections", "count", "lower"),
    ("telemetry.overhead", "ratio", "lower"),
)


class Layers:
    """Thread-safe per-layer sums; a disabled instance records nothing."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.values = defaultdict(float)
        self.pids = set()
        self.executors = Counter()
        self.shots = 0
        self._lock = threading.Lock()

    def add(self, name: str, amount: float = 1.0) -> None:
        if self.enabled:
            with self._lock:
                self.values[name] += amount

    def timed(self, name: str):
        """Context manager adding the block's wall time to ``name``."""
        return _Timer(self, name) if self.enabled else nullcontext()

    def absorb_job(self, trace, fault_stats, simulator: str) -> None:
        """Fold one provider job's trace spans and fault ledger in.

        ``simulator`` names the experiment bucket: ``ideal`` for the
        noise-free simulators, ``device`` for a simulated QX device.
        """
        if not self.enabled:
            return
        with self._lock:
            self.values["providers.retries"] += fault_stats.get("retries", 0)
            self.values["providers.fallbacks"] += len(
                fault_stats.get("fallbacks", ())
            )
            for span in trace.spans:
                seconds = span.duration or 0.0
                name = span.name
                if name == "assemble":
                    self.values["qobj.assemble_s"] += seconds
                elif name == "dispatch":
                    self.values["providers.dispatch_s"] += seconds
                    self.executors[span.attributes.get("executor")] += 1
                elif name == "collect":
                    self.values["providers.collect_s"] += seconds
                elif name in ("experiment", "chunk"):
                    self.values[f"simulators.experiment_s.{simulator}"] += (
                        seconds
                    )
                    self.shots += int(span.attributes.get("shots", 0))
                    self.pids.add(span.attributes.get("pid"))
                elif name == "transpile":
                    self.values["transpiler.transpile_s"] += seconds
                elif name.startswith("pass:"):
                    self.values[f"transpiler.pass_s.{name[5:]}"] += seconds
                elif name == "queued":
                    self.values["runtime.queue_wait_s"] += seconds

    def finish(self, main_pid: int) -> dict:
        """Derived ratios, then every metric of :data:`METRICS` (0 when the
        workload never entered the layer)."""
        values = dict(self.values)
        experiment_s = values.get("simulators.experiment_s.ideal", 0.0) + (
            values.get("simulators.experiment_s.device", 0.0)
        )
        if experiment_s:
            values["simulators.shots_per_s"] = self.shots / experiment_s
        dispatches = sum(self.executors.values())
        if dispatches:
            values["providers.processes_share"] = (
                self.executors["processes"] / dispatches
            )
        values["providers.workers_spawned"] = len(
            self.pids - {main_pid, None}
        )
        return {name: float(values.get(name, 0.0)) for name, _, _ in METRICS}


class _Timer:
    __slots__ = ("layers", "name", "start")

    def __init__(self, layers: Layers, name: str):
        self.layers = layers
        self.name = name

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc_info):
        self.layers.add(self.name, time.perf_counter() - self.start)
        return False


class GcMonitor:
    """Counts collector runs and their wall time while installed."""

    def __init__(self):
        self.seconds = 0.0
        self.collections = 0
        self._start = 0.0

    def _callback(self, phase, _info):
        if phase == "start":
            self._start = time.perf_counter()
        else:
            self.seconds += time.perf_counter() - self._start
            self.collections += 1

    def __enter__(self):
        gc.callbacks.append(self._callback)
        return self

    def __exit__(self, *exc_info):
        gc.callbacks.remove(self._callback)
        return False
