"""The closed-loop driver shared by every workload, and the host-speed
reference that makes its timings repeat on a shared host."""

from __future__ import annotations

import fcntl
import gc
import json
import os
import resource
import signal
import statistics
import threading
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path

import numpy as np

#: ``latency_tail_s`` is the highest percentile with this many samples
#: beyond it ...
TAIL_BEYOND = 10
#: ... taken in each block of this many consecutive ops, the median over
#: blocks being reported.  Over a whole ``service`` run (3800 jobs) the
#: 11th-slowest job is set by how often the shared host pauses the
#: process: on the same six runs it spread by 0.42 of its median across
#: seeds, and the median of 200-op blocks (p95 in each) by 0.10.  Runs of
#: at most this many ops form one block, as the definition reads.
TAIL_BLOCK = 200


class HostSpeed:
    """A fixed CPU kernel timed alongside the measured section.

    The host this benchmark runs on shares its cores: the same code runs
    up to 1.8x slower for tens of seconds at a time, which no run length
    we can afford averages away.  Every timing is therefore scaled by
    ``NOMINAL_S / kernel time``, i.e. reported in seconds at the reference
    host's speed.  The kernel mixes interpreter work and small numpy
    vector ops, like the program; it is timed between segments of ops and
    every ``INTERVAL_S`` from a SIGALRM handler inside them, so a 20-s op
    sees the drift during it.  Time spent
    in the kernel is left out of every timing.  Raw wall-clock figures
    stay in the run record.
    """

    #: Mean kernel time on the reference host (2-core x86-64).
    NOMINAL_S = 0.0025
    #: Seconds between kernel timings inside a segment; None times the
    #: kernel only between segments.
    INTERVAL_S = 0.25

    def __init__(self, workdir=None):
        #: Kernel durations, in the order they were taken.
        self.samples = []
        #: Seconds spent in the kernel so far.
        self.busy = 0.0

    @staticmethod
    def _kernel():
        table = {}
        for i in range(10000):
            table[i % 997] = table.get(i % 997, 0) + i
        vector = np.ones(2048, dtype=complex)
        for _ in range(100):
            vector = vector * 1.0001 + 0.5j
        return table, vector

    def _time_kernel(self, *_signal_args) -> None:
        # With the collector off, no collection of the program's heap
        # lands in a sample.
        collecting = gc.isenabled()
        gc.disable()
        start = time.perf_counter()
        try:
            self._kernel()
        finally:
            seconds = time.perf_counter() - start
            if collecting:
                gc.enable()
        self.samples.append(seconds)
        self.busy += seconds

    def probe(self) -> None:
        """Three kernel timings while nothing else runs."""
        for _ in range(3):
            self._time_kernel()

    def scale(self, first: int = 0) -> float:
        """``NOMINAL_S`` over the mean of the samples from ``first`` on.

        The mean, not the median: while the host time-shares a core, a
        short kernel run is either not preempted or preempted whole, and
        only the mean counts the preempted share.  Against a 30-ms task,
        the median-based factor left 0.04 of the task's spread over 1-s
        windows and the mean-based one 0.02.
        """
        return self.NOMINAL_S / statistics.fmean(self.samples[first:])

    @contextmanager
    def sampling(self):
        """Also time the kernel every ``INTERVAL_S`` while inside."""
        if self.INTERVAL_S is None:
            yield
            return
        previous = signal.signal(signal.SIGALRM, self._time_kernel)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S,
                         self.INTERVAL_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def close(self) -> None:
        """Stop what ``__init__`` started."""


class HandoffHostSpeed(HostSpeed):
    """A kernel shaped like a small runtime job, for ``service``.

    A ``service`` job is a few milliseconds of thread handoffs, small
    file appends under ``flock``, JSON encoding and a small numpy sample.
    On the shared host these slow by more than interpreter work does, and
    not in step with it: over six seeds of the pinned ``service`` run,
    run alternately, the job rate scaled by the compute kernel spread by
    0.09 of its median and scaled by this kernel by 0.03; on four later
    sets of ten, with both timed in the same runs, this kernel read 0.04,
    0.09, 0.07 and 0.04 and the compute kernel 0.03, 0.09, 0.09 and 0.07,
    from raw spreads up to 0.32.  Each timing hands
    ``ROUNDS`` items, one at a time, to a helper thread, which samples
    1024 shots from a fixed distribution, encodes the counts as JSON and
    appends them to a file under a shared ``flock``.  It uses the standard
    library and numpy only, never the program.  It is timed only between
    segments: inside one, its helper thread would queue for the
    interpreter lock behind the program's workers.
    """

    NOMINAL_S = 0.0018
    INTERVAL_S = None
    ROUNDS = 8

    def __init__(self, workdir):
        super().__init__()
        self._log = Path(workdir) / "handoff.jsonl"
        self._lock_file = Path(workdir) / "handoff.lock"
        weights = np.arange(1.0, 33.0)
        self._probabilities = weights / weights.sum()
        self._inbox = []
        self._ready = threading.Condition()
        self._done = threading.Event()
        self._error = None
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self) -> None:
        while True:
            with self._ready:
                while not self._inbox:
                    self._ready.wait()
                item = self._inbox.pop()
            if item is None:
                return
            try:
                self._job(item)
            except Exception as exc:  # noqa: BLE001 - raised by _kernel
                self._error = exc
            finally:
                self._done.set()

    def _job(self, item: int) -> None:
        rng = np.random.default_rng(item)
        counts = np.bincount(
            rng.choice(32, size=1024, p=self._probabilities), minlength=32
        )
        line = json.dumps({"item": item, "counts": counts.tolist()})
        fd = os.open(self._lock_file, os.O_WRONLY | os.O_CREAT, 0o644)
        try:
            fcntl.flock(fd, fcntl.LOCK_SH)
            with open(self._log, "a", encoding="utf-8") as handle:
                handle.write(line + "\n")
        finally:
            os.close(fd)

    def _kernel(self) -> None:
        for item in range(self.ROUNDS):
            self._done.clear()
            with self._ready:
                self._inbox.append(item)
                self._ready.notify()
            self._done.wait()
            if self._error is not None:
                raise self._error

    def close(self) -> None:
        with self._ready:
            self._inbox.append(None)
            self._ready.notify()
        self._thread.join()


class Bench:
    """One workload's program state: backends or service, plus its inputs.

    Subclasses construct everything in ``__init__`` (timed as set-up,
    together with :meth:`warm_up`), run one operation per
    :meth:`run_op` call and check outputs in :meth:`verify`.
    """

    #: Ops between two host-speed probes (see :class:`HostSpeed`).
    segment = 1
    #: The host-speed reference for the measured section; it is
    #: constructed with the run's work directory.
    host_speed = HostSpeed
    #: Whether to run on one CPU from construction on (every thread the
    #: program starts then inherits it).
    one_cpu = False

    def __init__(self, workdir):
        self.workdir = workdir

    def warm_up(self) -> None:
        raise NotImplementedError

    def run_op(self, op, layers):
        """Run one operation; its return value goes to :meth:`verify`."""
        raise NotImplementedError

    def verify(self, ops, outcomes):
        """``(ok, quality, record)``: one flag per operation (False for a
        failed one), the quality metrics, and notes for the run record."""
        raise NotImplementedError

    def instrument(self, layers):
        """Context wrapping the measured section."""
        return nullcontext()

    def measured(self, layers, ops, outcomes) -> None:
        """Per-layer figures read once after the measured section."""

    def overhead_sample(self, ops, outcomes) -> list:
        """Indices of a few cheap operations to re-run traced and untraced."""
        return [i for i, outcome in enumerate(outcomes)
                if outcome.error is None][:8]

    def close(self) -> None:
        """Release what ``__init__`` started."""


class Outcome:
    __slots__ = ("seconds", "output", "error", "factor")

    def __init__(self, seconds, output=None, error=None):
        self.seconds = seconds
        self.output = output
        self.error = error
        self.factor = 1.0

    @property
    def scaled(self) -> float:
        """Latency in seconds at the reference host's speed."""
        return self.seconds * self.factor


def _run_one(bench, op, layers, host) -> Outcome:
    busy = host.busy
    start = time.perf_counter()
    try:
        output = bench.run_op(op, layers)
    except Exception as exc:  # noqa: BLE001 - a failed op is data
        error = f"{type(exc).__name__}: {exc}"
        output = None
    else:
        error = None
    seconds = time.perf_counter() - start - (host.busy - busy)
    return Outcome(seconds, output, error)


def drive(bench: Bench, ops, layers, host: HostSpeed):
    """Run every op in a closed loop from one client.

    Ops run in segments of ``bench.segment``; the host is probed between
    segments and during them.  Returns ``(outcomes, measured, scaled)``:
    the outcomes in op order, the wall seconds spent in segments, and the
    same seconds at the reference host's speed.
    """
    outcomes = []
    measured = scaled = 0.0
    host.probe()
    for first in range(0, len(ops), bench.segment):
        segment = ops[first:first + bench.segment]
        window = len(host.samples) - 3
        busy = host.busy
        start = time.perf_counter()
        with host.sampling():
            done = [_run_one(bench, op, layers, host) for op in segment]
        elapsed = time.perf_counter() - start - (host.busy - busy)
        host.probe()
        factor = host.scale(window)
        for outcome in done:
            outcome.factor = factor
        outcomes += done
        measured += elapsed
        scaled += elapsed * factor
    return outcomes, measured, scaled


def _tail(latencies) -> tuple:
    """``(value, percentile, beyond)`` of the highest percentile of
    ``latencies`` with ``TAIL_BEYOND`` samples beyond it."""
    latencies = sorted(latencies)
    count = len(latencies)
    index = count - TAIL_BEYOND - 1 if count > TAIL_BEYOND else count - 1
    return (latencies[index], 100.0 * (index + 1) / count,
            count - index - 1)


def latency_summary(latencies) -> dict:
    """Median and tail of ``latencies``, given in op order.

    The tail is taken per block of ``TAIL_BLOCK`` consecutive ops (a
    shorter last block joins the one before it) and the median over
    blocks is reported; the whole run's tail stays in the summary.
    """
    latencies = list(latencies)
    blocks = [latencies[first:first + TAIL_BLOCK]
              for first in range(0, len(latencies), TAIL_BLOCK)]
    if len(blocks) > 1 and len(blocks[-1]) < TAIL_BLOCK:
        blocks[-2] += blocks.pop()
    tails = [_tail(block) for block in blocks]
    whole_run = _tail(latencies)
    return {
        "p50": statistics.median(latencies),
        "tail": statistics.median(value for value, _, _ in tails),
        "tail_percentile": statistics.median(pct for _, pct, _ in tails),
        "tail_beyond": tails[0][2],
        "tail_blocks": len(blocks),
        "tail_whole_run": whole_run[0],
        "tail_whole_run_percentile": whole_run[1],
        "samples": len(latencies),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def current_rss_kb() -> float:
    with open("/proc/self/statm") as handle:
        resident_pages = int(handle.read().split()[1])
    return resident_pages * os.sysconf("SC_PAGE_SIZE") / 1024.0
