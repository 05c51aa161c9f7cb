"""Benchmark the runtime service layer: disk-tier compiles and queue
latency.

Run as a script to emit ``BENCH_runtime.json`` at the repo root::

    PYTHONPATH=src python benchmarks/bench_runtime.py [--fast]

(``--fast`` writes ``BENCH_runtime.fast.json`` instead, so a smoke run
leaves the checked-in numbers alone.)

Two sections:

* **disk-tier compile speedup** — the same transpile workload is timed
  in *fresh subprocesses* (cold interpreter, empty memory cache) three
  ways: no disk tier (every process recompiles), disk tier cold (first
  process: compile + write-through), and disk tier warm (second process:
  every lookup served from disk).  The warm/no-tier ratio is the
  speedup repeated CLI/batch invocations get from the on-disk cache;
  the run also asserts the warm process recorded only disk hits.

* **queue latency under multi-tenant load** — a 4-tenant burst (one
  rate-limited) is pushed through a :class:`RuntimeService`; per-tenant
  wait times come from the service's own
  ``repro_runtime_wait_seconds`` histogram, plus scheduling overhead
  per job (wall time minus pure execution time).  Every job's counts
  are asserted bit-identical to a quiet direct ``backend.run`` with the
  same seed.

* **admission-control overhead** — the same submit burst is timed with
  admission limits disarmed and armed (generous enough never to
  reject): the delta is the pure cost of the limit checks on the
  accept path.  The reject fast path is timed separately against a
  full queue; the run asserts every rejection carried a positive
  ``retry_after`` hint and left no ledger record behind.

* **compaction throughput** — a ledger populated with many
  multi-transition job histories is compacted once; records/s and
  bytes/s through :meth:`JobStore.compact`, with replay equivalence
  asserted after the rewrite.
"""

from __future__ import annotations

import json
import os
import pathlib
import platform
import subprocess
import sys
import tempfile
import time

import numpy as np

_ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(_ROOT / "src"))
sys.path.insert(0, str(_ROOT))

from repro.circuit import QuantumCircuit  # noqa: E402
from repro.exceptions import QueueFullError  # noqa: E402
from repro.providers.aer import Aer  # noqa: E402
from repro.runtime import JobRecord, JobStore, RuntimeService  # noqa: E402
from repro.telemetry.metrics import get_metrics_registry  # noqa: E402

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
OUTPUT_PATH = REPO_ROOT / "BENCH_runtime.json"

SEED = 2025
QFT_WIDTHS = (4, 5, 6)
COMPILE_REPEATS = 4  # distinct circuits compiled per subprocess
TENANTS = 4
JOBS_PER_TENANT = 6
JOB_SHOTS = 400
DISK_SPEEDUP_TARGET = 2.0
ADMISSION_SUBMITS = 300
REJECT_ATTEMPTS = 500
COMPACTION_JOBS = 400
COMPACTION_TRANSITIONS = 4  # QUEUED/RUNNING/DONE + the job record

#: Child process: compile the workload, print timing + cache stats JSON.
_COMPILE_CHILD = """
import json, sys, time
from repro.algorithms.qft import qft_circuit
from repro.transpiler import get_transpile_cache, transpile

widths = json.loads(sys.argv[1])
start = time.perf_counter()
for width in widths:
    transpile(qft_circuit(width), coupling_map="ibmqx5", seed=2025)
wall = time.perf_counter() - start
print(json.dumps({"wall": wall, "stats": get_transpile_cache().stats()}))
"""


def _compile_in_subprocess(widths, cache_dir=None) -> dict:
    """Run the compile workload in a fresh interpreter; returns timing
    and the child's cache stats."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (env.get("PYTHONPATH"), str(_ROOT / "src")) if p
    )
    env.pop("REPRO_TRANSPILE_CACHE_DIR", None)
    if cache_dir is not None:
        env["REPRO_TRANSPILE_CACHE_DIR"] = str(cache_dir)
    completed = subprocess.run(
        [sys.executable, "-c", _COMPILE_CHILD, json.dumps(list(widths))],
        env=env, capture_output=True, text=True, timeout=600,
    )
    if completed.returncode != 0:
        raise RuntimeError(f"compile child failed: {completed.stderr}")
    return json.loads(completed.stdout.strip())


def bench_disk_tier(fast: bool) -> dict:
    widths = list(QFT_WIDTHS[:2] if fast else QFT_WIDTHS)
    repeats = 2 if fast else COMPILE_REPEATS
    # Several distinct widths, each compiled once per process — the
    # cross-process win is per unique circuit, so more circuits = more
    # saved compiles.
    workload = widths * repeats

    no_tier = _compile_in_subprocess(workload, cache_dir=None)
    with tempfile.TemporaryDirectory() as cache_dir:
        cold = _compile_in_subprocess(workload, cache_dir=cache_dir)
        warm = _compile_in_subprocess(workload, cache_dir=cache_dir)
    warm_stats = warm["stats"]
    if warm_stats["disk_hits"] < len(set(workload)):
        raise AssertionError(
            f"warm process expected >= {len(set(workload))} disk hits, "
            f"got {warm_stats}"
        )
    if warm_stats["misses"] != 0:
        raise AssertionError(
            f"warm process should compile nothing, stats: {warm_stats}"
        )
    return {
        "workload": {
            "qft_widths": widths,
            "repeats": repeats,
            "unique_circuits": len(set(workload)),
        },
        "wall_seconds": {
            "no_disk_tier": round(no_tier["wall"], 4),
            "disk_cold": round(cold["wall"], 4),
            "disk_warm": round(warm["wall"], 4),
        },
        "warm_process_stats": warm_stats,
        "speedup_warm_vs_no_tier": round(
            no_tier["wall"] / warm["wall"], 2
        ),
        "write_through_overhead": round(
            cold["wall"] / no_tier["wall"], 2
        ),
    }


def _bell(name):
    circuit = QuantumCircuit(2, 2, name=name)
    circuit.h(0)
    circuit.cx(0, 1)
    circuit.measure(0, 0)
    circuit.measure(1, 1)
    return circuit


def bench_queue_latency(fast: bool) -> dict:
    jobs_per_tenant = 3 if fast else JOBS_PER_TENANT
    shots = 200 if fast else JOB_SHOTS

    # Quiet single-job baseline: pure execution wall time.
    backend = Aer.get_backend("qasm_simulator")
    start = time.perf_counter()
    reference = {}
    for index in range(jobs_per_tenant):
        reference[index] = backend.run(
            _bell(f"bell-{index}"), shots=shots, seed=SEED + index,
        ).result().get_counts()
    direct_wall = time.perf_counter() - start

    registry = get_metrics_registry()
    wait_metric = registry.get("repro_runtime_wait_seconds")
    if wait_metric is not None:
        wait_metric.reset()

    tenants = [f"tenant-{index}" for index in range(TENANTS)]
    with tempfile.TemporaryDirectory() as store_dir:
        service = RuntimeService(store_dir, max_workers=2)
        # Mixed shares plus one rate-limited tenant whose burst must
        # queue (never error).
        service.set_tenant(tenants[0], weight=4.0)
        service.set_tenant(tenants[1], weight=2.0)
        service.set_tenant(tenants[2], weight=1.0)
        service.set_tenant(tenants[3], weight=1.0, rate=20.0, burst=2)
        start = time.perf_counter()
        jobs = []
        for index in range(jobs_per_tenant):
            for tenant in tenants:
                jobs.append((index, service.submit(
                    _bell(f"bell-{index}"), shots=shots,
                    seed=SEED + index, tenant=tenant,
                )))
        for index, job in jobs:
            counts = job.result(timeout=300).get_counts()
            if counts != reference[index]:
                raise AssertionError(
                    f"service counts diverged from direct run for "
                    f"seed offset {index}"
                )
        burst_wall = time.perf_counter() - start
        service.shutdown()

    waits = {
        tenant: registry.get("repro_runtime_wait_seconds").snapshot(
            labels={"tenant": tenant}
        )
        for tenant in tenants
    }
    total_jobs = jobs_per_tenant * TENANTS
    return {
        "workload": {
            "tenants": TENANTS,
            "jobs_per_tenant": jobs_per_tenant,
            "shots": shots,
            "weights": [4.0, 2.0, 1.0, 1.0],
            "rate_limited_tenant": tenants[3],
        },
        "bit_identical": True,  # asserted above for every job
        "wall_seconds": {
            "direct_serial_one_tenant": round(direct_wall, 4),
            "service_burst_all_tenants": round(burst_wall, 4),
        },
        "scheduling_overhead_ms_per_job": round(
            max(0.0, burst_wall - direct_wall * TENANTS)
            / total_jobs * 1000, 3
        ),
        "queue_wait_seconds": {
            tenant: {
                "count": snapshot["count"],
                "mean": round(snapshot["sum"] / snapshot["count"], 4)
                if snapshot["count"] else None,
                "max": round(snapshot["max"], 4)
                if snapshot["count"] else None,
            }
            for tenant, snapshot in waits.items()
        },
    }


def _submit_burst(service, count, shots) -> float:
    start = time.perf_counter()
    for index in range(count):
        service.submit(_bell(f"bell-{index}"), shots=shots, seed=index)
    return time.perf_counter() - start


def bench_admission(fast: bool) -> dict:
    submits = 100 if fast else ADMISSION_SUBMITS
    attempts = 200 if fast else REJECT_ATTEMPTS
    shots = 64

    # Accept path: the same burst with limits disarmed vs armed (but
    # generous — no submit is ever rejected), workers parked so the
    # queue depth is deterministic.
    with tempfile.TemporaryDirectory() as store_dir:
        with RuntimeService(store_dir, autostart=False) as service:
            unlimited_wall = _submit_burst(service, submits, shots)
    with tempfile.TemporaryDirectory() as store_dir:
        with RuntimeService(
            store_dir, autostart=False,
            max_queued_jobs=submits + 1,
            max_queued_per_tenant=submits + 1,
            max_queued_shots=shots * (submits + 1),
        ) as service:
            limited_wall = _submit_burst(service, submits, shots)

    # Reject fast path: a full single-slot queue bounces every submit
    # before any payload encode or ledger append.
    with tempfile.TemporaryDirectory() as store_dir:
        with RuntimeService(
            store_dir, autostart=False, max_queued_jobs=1,
        ) as service:
            service.submit(_bell("occupant"), shots=shots, seed=0)
            probe = _bell("rejected")
            start = time.perf_counter()
            for _ in range(attempts):
                try:
                    service.submit(probe, shots=shots, seed=1)
                except QueueFullError as error:
                    if error.retry_after <= 0:
                        raise AssertionError(
                            "rejection carried no retry_after hint"
                        )
                else:
                    raise AssertionError(
                        "full queue accepted a submit"
                    )
            reject_wall = time.perf_counter() - start
            if len(service.jobs()) != 1:
                raise AssertionError(
                    "rejected submits left ledger records behind"
                )

    return {
        "workload": {"submits": submits, "reject_attempts": attempts},
        "wall_seconds": {
            "unlimited": round(unlimited_wall, 4),
            "limits_armed": round(limited_wall, 4),
            "rejections": round(reject_wall, 4),
        },
        "admission_overhead_us_per_submit": round(
            max(0.0, limited_wall - unlimited_wall) / submits * 1e6, 2
        ),
        "accepts_per_s": round(submits / limited_wall, 1),
        "rejects_per_s": round(attempts / reject_wall, 1),
        "rejections_leave_no_record": True,  # asserted above
    }


def bench_compaction(fast: bool) -> dict:
    jobs = 100 if fast else COMPACTION_JOBS

    with tempfile.TemporaryDirectory() as store_dir:
        store = JobStore(store_dir)
        now = time.time()
        for index in range(jobs):
            record = JobRecord(
                f"rt-{index}", "default", ("aer", "qasm_simulator"),
                0, None, "circuits", "payload", {"shots": 100},
                submitted_at=now,
            )
            store.append_job(record)
            store.append_state(record.job_id, "QUEUED")
            store.append_state(record.job_id, "RUNNING")
            store.append_state(record.job_id, "DONE")
        start = time.perf_counter()
        stats = store.compact()
        wall = time.perf_counter() - start
        replayed = JobStore(store_dir).load()
        if len(replayed) != jobs:
            raise AssertionError(
                f"replay after compaction lost jobs: {len(replayed)}"
            )
        if any(r.state != "DONE" for r in replayed.values()):
            raise AssertionError("replay after compaction lost states")

    return {
        "workload": {
            "jobs": jobs,
            "records_per_job": COMPACTION_TRANSITIONS,
        },
        "ledger": {
            "records_in": stats["records_in"],
            "records_out": stats["records_out"],
            "bytes_in": stats["bytes_in"],
            "bytes_out": stats["bytes_out"],
        },
        "wall_seconds": round(wall, 4),
        "compact_records_per_s": round(stats["records_in"] / wall, 1),
        "compact_bytes_per_s": round(stats["bytes_in"] / wall, 1),
        "replay_preserved": True,  # asserted above
    }


def main(argv=None) -> int:
    fast = "--fast" in (argv if argv is not None else sys.argv[1:])
    cpu_count = os.cpu_count() or 1

    print("disk-tier compile speedup (fresh subprocesses):")
    disk = bench_disk_tier(fast)
    print(
        f"  no tier {disk['wall_seconds']['no_disk_tier']}s, cold "
        f"{disk['wall_seconds']['disk_cold']}s, warm "
        f"{disk['wall_seconds']['disk_warm']}s -> "
        f"{disk['speedup_warm_vs_no_tier']}x warm speedup"
    )

    print(f"queue latency under {TENANTS}-tenant load:")
    queue = bench_queue_latency(fast)
    for tenant, wait in queue["queue_wait_seconds"].items():
        print(
            f"  {tenant}: {wait['count']} jobs, mean wait "
            f"{wait['mean']}s, max {wait['max']}s"
        )
    print(
        f"  scheduling overhead "
        f"{queue['scheduling_overhead_ms_per_job']}ms/job"
    )

    print("admission-control overhead:")
    admission = bench_admission(fast)
    print(
        f"  +{admission['admission_overhead_us_per_submit']}us/submit "
        f"with limits armed, {admission['accepts_per_s']} accepts/s, "
        f"{admission['rejects_per_s']} rejects/s on the full-queue path"
    )

    print("ledger compaction throughput:")
    compaction = bench_compaction(fast)
    print(
        f"  {compaction['ledger']['records_in']} records in "
        f"{compaction['wall_seconds']}s -> "
        f"{compaction['compact_records_per_s']} records/s, "
        f"{compaction['compact_bytes_per_s']} bytes/s"
    )

    speedup = disk["speedup_warm_vs_no_tier"]
    payload = {
        "suite": "runtime",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "cpu_count": cpu_count,
        "fast_mode": fast,
        "disk_tier": disk,
        "queue": queue,
        "admission": admission,
        "compaction": compaction,
        "acceptance": {
            "disk_warm_speedup": speedup,
            "disk_warm_speedup_target": DISK_SPEEDUP_TARGET,
            "warm_process_compiled_nothing": True,  # asserted above
            "rejections_leave_no_record": True,  # asserted above
            "compaction_replay_preserved": True,  # asserted above
        },
    }
    # A --fast smoke run never overwrites the checked-in full-run numbers.
    output = OUTPUT_PATH.with_suffix(".fast.json") if fast else OUTPUT_PATH
    output.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"written to {output}")
    status = (
        "ok" if speedup >= DISK_SPEEDUP_TARGET
        else f"BELOW TARGET (>={DISK_SPEEDUP_TARGET}x)"
    )
    print(f"  disk warm speedup: {speedup:.2f}x  [{status}]")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
