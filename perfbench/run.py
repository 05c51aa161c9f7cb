#!/usr/bin/env python3
"""End-to-end benchmark of the repro tool chain, one workload per run.

Run from the root of a checkout::

    python3 perfbench/run.py --workload compile --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace
1`` is the separate traced run that reports the per-layer metrics and the
tracing overhead.  The report and a ``record`` line (seed, op counts, tail
percentile, host) come first; the last line of standard output is the
result object ``{"correct", "attempted", "failed", "metrics"}``.
``--write-spec`` regenerates ``BENCHMARK.json`` from the definitions here.
NOTES.md says why each workload exists and which layer metric should move
which end-to-end metric.
"""

from __future__ import annotations

import argparse
import compileall
import importlib
import json
import multiprocessing
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

from harness import HostSpeed, drive, latency_summary, peak_rss_mb
from layers import METRICS as PER_LAYER
from layers import GcMonitor, Layers

#: name -> why the workload is in the benchmark.
WORKLOADS = {
    "compile": "unique QASM inputs on ibmqx5/ibmqx4 so the transpiler does "
               "nearly all the work and its cache never hits; shows the "
               "SabreSwap stall",
    "execute": "rounds of default execute() calls: a wide qasm_simulator "
               "batch (process pool) then a noisy ibmqx4 batch (trajectories,"
               " per-seed recompiles)",
    "vqe": "8-qubit transverse-field VQE in shots mode: primitives and the "
           "broadcast simulator do the work, no compile, no runtime",
    "service": "small jobs from 4 weighted tenants through sessions on a "
               "RuntimeService: per-job runtime costs (store, ledger, "
               "scheduler, worker handoff) dominate",
}

#: (name, unit, better, bound) of every end-to-end metric.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("ops_per_s", "1/s", "higher", 0.2),
    ("latency_p50_s", "s", "lower", 0.25),
    ("latency_tail_s", "s", "lower", 0.25),
    ("ok_share", "ratio", "higher", 0.02),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("expected_fidelity", "ratio", "higher", 0.1),
    ("device_fidelity", "ratio", "higher", 0.05),
    ("energy_ratio", "ratio", "higher", 0.2),
)

RUN_SECONDS = 10
SETUP_REPEATS = 3
IMPORT_REPEATS = 3


def spec() -> dict:
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why}
                      for name, why in WORKLOADS.items()],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, unit, better, bound in END_TO_END
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": better}
            for name, unit, better in PER_LAYER
        ],
    }


def fresh_import_seconds(workload: str) -> float:
    """Seconds a fresh interpreter takes to import ``wl_<workload>`` (the
    program included), numpy imported first as it is here."""
    code = ("import sys, time; sys.path[:0] = sys.argv[1:]; import numpy; "
            f"start = time.perf_counter(); import wl_{workload}; "
            "print(time.perf_counter() - start)")
    paths = [str(Path.cwd() / "src"), str(Path(__file__).resolve().parent)]
    child = subprocess.run(
        [sys.executable, "-c", code, *paths],
        capture_output=True, text=True, check=True, timeout=120,
    )
    return float(child.stdout.split()[-1])


def measure(args, workdir: Path):
    """Set up, run the measured section, check outputs; returns
    ``(result, record)``."""
    import numpy

    # The import is timed in IMPORT_REPEATS - 1 fresh interpreters and
    # then here; back to back, one import took 0.46-0.71 s.
    host = HostSpeed()
    imports, imports_scaled = [], []
    for attempt in range(IMPORT_REPEATS):
        window = len(host.samples)
        host.probe()
        if attempt + 1 < IMPORT_REPEATS:
            imports.append(fresh_import_seconds(args.workload))
        else:
            start = time.perf_counter()
            workload = importlib.import_module(f"wl_{args.workload}")
            imports.append(time.perf_counter() - start)
        host.probe()
        imports_scaled.append(imports[-1] * host.scale(window))

    from repro.telemetry import disable_tracing, enable_tracing
    from repro.transpiler.cache import get_transpile_cache

    if workload.BENCH.one_cpu:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    ops = workload.make_ops(args.seed, args.seconds)
    setups, setups_scaled = [], []
    for attempt in range(SETUP_REPEATS):
        window = len(host.samples) - 3
        start = time.perf_counter()
        bench = workload.BENCH(workdir / f"setup{attempt}")
        bench.warm_up()
        setups.append(time.perf_counter() - start)
        host.probe()
        setups_scaled.append(setups[-1] * host.scale(window))
        if attempt + 1 < SETUP_REPEATS:
            bench.close()

    traced = bool(args.trace)
    layers = Layers(enabled=traced)
    gc_monitor = GcMonitor()
    # Set-up is import and construction, interpreter work that the
    # compute kernel follows; the measured section uses the workload's own
    # reference.
    section_host = None
    try:
        section_host = bench.host_speed(workdir)
        if traced:
            enable_tracing()
        cache_before = get_transpile_cache().stats()
        with bench.instrument(layers), (
            gc_monitor if traced else nullcontext()
        ):
            outcomes, measured_s, scaled_s = drive(bench, ops, layers,
                                                   section_host)
        peak_mb = peak_rss_mb()
        cache_after = get_transpile_cache().stats()
        disable_tracing()
        bench.measured(layers, ops, outcomes)
        ok, quality, bench_record = bench.verify(ops, outcomes)
        overhead = measure_overhead(bench, ops, outcomes) if traced else None
    finally:
        disable_tracing()
        if section_host is not None:
            section_host.close()
        bench.close()

    good = [outcome.error is None and flag
            for outcome, flag in zip(outcomes, ok)]
    verified = sum(good)
    # Failed or wrong ops count as +inf.  With more than TAIL_BEYOND of
    # them in a block the tail would be +inf; the measured section bounds
    # any op's latency, so it stands in.
    latency = latency_summary(
        outcome.scaled if flag else scaled_s
        for outcome, flag in zip(outcomes, good)
    )
    raw_latency = latency_summary(
        outcome.seconds if flag else measured_s
        for outcome, flag in zip(outcomes, good)
    )
    hits = cache_after["hits"] - cache_before["hits"]
    lookups = hits + cache_after["misses"] - cache_before["misses"]
    if traced:
        values = layers.finish(os.getpid())
        for name, unit, _ in PER_LAYER:
            if unit == "s":
                values[name] *= scaled_s / measured_s
        values["transpiler.cache_hit_ratio"] = (
            hits / lookups if lookups else 0.0
        )
        values["python.gc_share"] = gc_monitor.seconds / measured_s
        values["python.gc_collections"] = float(gc_monitor.collections)
        values["telemetry.overhead"] = overhead
        units = {name: unit for name, unit, _ in PER_LAYER}
    else:
        values = {
            "setup_s": statistics.median(imports_scaled)
                       + statistics.median(setups_scaled),
            "ops_per_s": verified / scaled_s,
            "latency_p50_s": latency["p50"],
            "latency_tail_s": latency["tail"],
            "ok_share": verified / len(ops),
            "peak_rss_mb": peak_mb,
            **quality,
        }
        units = {name: unit for name, unit, _, _ in END_TO_END}
    result = {
        "correct": all(flag for outcome, flag in zip(outcomes, ok)
                       if outcome.error is None),
        "attempted": len(ops),
        "failed": len(ops) - verified,
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units},
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "ops": {"attempted": len(ops), "verified": verified,
                "failed": len(ops) - verified},
        "latency": latency,
        "wall_clock": {
            "measured_s": measured_s,
            "ops_per_s": verified / measured_s,
            "latency_p50_s": raw_latency["p50"],
            "latency_tail_s": raw_latency["tail"],
            "import_s": imports,
            "construct_and_warm_up_s": setups,
        },
        "host_speed": measured_s / scaled_s,
        "transpile_cache": {"hits": hits, "misses": lookups - hits},
        "host": {"cpu_count": os.cpu_count(),
                 "cpus_used": sorted(os.sched_getaffinity(0)),
                 "python": platform.python_version(),
                 "numpy": numpy.__version__,
                 "platform": platform.platform()},
        "telemetry_overhead": overhead,
        "workload_record": bench_record,
    }
    if traced:
        record["executors"] = dict(layers.executors)
        record["worker_pids"] = sorted(
            pid for pid in layers.pids if pid not in (None, os.getpid())
        )
    return result, record


def measure_overhead(bench, ops, outcomes) -> float:
    """Median over ops of traced over untraced time of the same op, the
    two run alternately; one op caught by a host pause cannot swing it.

    The transpile cache is emptied before each run, so a repeated op
    compiles again, as it did in the measured section.
    """
    from repro.telemetry import disable_tracing, enable_tracing
    from repro.transpiler.cache import clear_transpile_cache

    ratios = []
    for turn, index in enumerate(bench.overhead_sample(ops, outcomes)):
        seconds = {}
        for traced in ((False, True) if turn % 2 == 0 else (True, False)):
            clear_transpile_cache()
            layers = Layers(enabled=traced)
            if traced:
                enable_tracing()
            with bench.instrument(layers):
                start = time.perf_counter()
                bench.run_op(ops[index], layers)
                seconds[traced] = time.perf_counter() - start
            disable_tracing()
        ratios.append(seconds[True] / seconds[False])
    return statistics.median(ratios) - 1.0 if ratios else 0.0


def report(result: dict, record: dict) -> None:
    latency = record["latency"]
    print(f"workload {record['workload']} seed {record['seed']} "
          f"trace {record['trace']}: {result['attempted']} ops, "
          f"{result['failed']} failed, correct={result['correct']}")
    blocks = latency["tail_blocks"]
    per_block = f" in each of {blocks} blocks" if blocks > 1 else ""
    print(f"  tail = p{latency['tail_percentile']:.1f} "
          f"({latency['tail_beyond']} samples beyond{per_block}; "
          f"{latency['samples']} samples)")
    for name, metric in result["metrics"].items():
        print(f"  {name:<40} {metric['value']:.6g} {metric['unit']}")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-spec", action="store_true",
                        help="write BENCHMARK.json and exit")
    args = parser.parse_args(argv)
    if not args.write_spec and args.workload is None:
        parser.error("--workload is required")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    here = Path(__file__).resolve().parent
    if args.write_spec:
        target = here.parent / "BENCHMARK.json"
        target.write_text(json.dumps(spec(), indent=2) + "\n")
        print(f"wrote {target}")
        return 0
    root = Path.cwd()
    source = root / "src"
    if not (source / "repro" / "__init__.py").is_file():
        print("perfbench: src/repro not found; run from the root of a "
              "repro checkout", file=sys.stderr)
        return 2
    # Each run starts clean: no on-disk transpile tier shared between runs.
    os.environ.pop("REPRO_TRANSPILE_CACHE_DIR", None)
    # The build step: byte-compile once so no run's import time includes it.
    compileall.compile_dir(str(source / "repro"), quiet=2)
    sys.path.insert(0, str(source))
    workdir = root / ".perfbench" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        result, record = measure(args, workdir)
    finally:
        for child in multiprocessing.active_children():
            child.join()
        shutil.rmtree(workdir, ignore_errors=True)
    report(result, record)
    print("record " + json.dumps(record, sort_keys=True, default=str))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
