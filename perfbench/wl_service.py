"""``service``: one job through a tenant's ``Session.run(...).result()``.

Four tenants weighted 1:2:3:4 share a :class:`RuntimeService` with
default options and a fresh store directory.  One client keeps one job
in flight (a closed loop), each job a 4-5-qubit paper circuit on
``qasm_simulator``; the per-job runtime costs (store appends, chunk
ledger, scheduler, worker handoff) dominate.  With two client threads
the host-speed scaling (see ``harness.HostSpeed``) could not follow the
threads' contention, and the timings spread by up to 54% across seeds.
The measured section is scaled by a kernel shaped like a small job
(``harness.HandoffHostSpeed``).
"""

from __future__ import annotations

import math
import os
from contextlib import contextmanager

import numpy as np

import circuits
from harness import Bench, HandoffHostSpeed, current_rss_kb
from repro.providers import Aer
from repro.runtime import RuntimeService

TENANT_WEIGHTS = (1, 2, 3, 4)
SHOTS = 1024
#: Jobs per second of ``--seconds`` (about 380/s on a 2-core host); the
#: op count is fixed by seed and seconds, not by a timer.
JOBS_PER_SECOND = 380


def make_ops(seed: int, seconds: float) -> list:
    rng = np.random.default_rng(seed)
    pool = [
        circuits.paper_fig1(),
        circuits.ghz(4),
        circuits.ghz(5),
        circuits.draw("bv", 5, rng),
        circuits.draw("dj", 5, rng),
    ]
    weights = np.asarray(TENANT_WEIGHTS, dtype=float)
    return [
        {"tenant": int(rng.choice(len(weights), p=weights / weights.sum())),
         "circuit": pool[int(rng.integers(len(pool)))],
         "seed": int(rng.integers(2**31))}
        for _ in range(math.ceil(seconds * JOBS_PER_SECOND))
    ]


class ServiceBench(Bench):
    segment = 100
    host_speed = HandoffHostSpeed
    one_cpu = True

    def __init__(self, workdir):
        super().__init__(workdir)
        self.store = workdir / "store"
        self.service = RuntimeService(self.store)
        self.sessions = []
        for index, weight in enumerate(TENANT_WEIGHTS):
            tenant = f"tenant{index}"
            self.service.set_tenant(tenant, weight=weight)
            self.sessions.append(
                self.service.session("qasm_simulator", tenant=tenant))
        self._rss_kb = 0.0

    def warm_up(self) -> None:
        self.sessions[0].run(circuits.ghz(4), shots=SHOTS, seed=0).result()

    @contextmanager
    def instrument(self, layers):
        self._rss_kb = current_rss_kb()
        yield

    def run_op(self, op, layers):
        session = self.sessions[op["tenant"]]
        with layers.timed("runtime.submit_s"):
            job = session.run(op["circuit"], shots=SHOTS, seed=op["seed"])
        with layers.timed("runtime.result_s"):
            counts = job.result().get_counts()
        if layers.enabled:
            trace = job.trace()
            layers.absorb_job(trace, job.fault_stats, "ideal")
            queued = sum(span.duration or 0.0 for span in trace.find("queued"))
            layers.add("runtime.worker_s",
                       trace.find_one("job").duration - queued)
        return job.status(), counts

    def measured(self, layers, ops, outcomes) -> None:
        if not layers.enabled:
            return
        jobs = len(ops)
        files = [os.path.join(folder, name)
                 for folder, _, names in os.walk(self.store)
                 for name in names]
        layers.add("runtime.ledger_bytes_per_job",
                   sum(os.path.getsize(path) for path in files) / jobs)
        layers.add("runtime.ledger_files_per_job", len(files) / jobs)
        layers.add("runtime.rss_kb_per_job",
                   (current_rss_kb() - self._rss_kb) / jobs)

    def verify(self, ops, outcomes):
        direct = Aer.get_backend("qasm_simulator")
        ok = []
        for op, outcome in zip(ops, outcomes):
            if outcome.error is not None:
                ok.append(False)
                continue
            status, counts = outcome.output
            expected = direct.run(op["circuit"], shots=SHOTS,
                                  seed=op["seed"]).result().get_counts()
            ok.append(status == "DONE" and counts == expected)
        quality = {"expected_fidelity": 1.0, "device_fidelity": 1.0,
                   "energy_ratio": 1.0}
        tenants = np.bincount([op["tenant"] for op in ops],
                              minlength=len(TENANT_WEIGHTS))
        return ok, quality, {"jobs": len(ops),
                             "jobs_per_tenant": tenants.tolist()}

    def overhead_sample(self, ops, outcomes) -> list:
        return super().overhead_sample(ops, outcomes)[:100]

    def close(self) -> None:
        self.service.shutdown(wait=True)


BENCH = ServiceBench
