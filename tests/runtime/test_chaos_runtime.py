"""Chaos suite for the runtime service (CHAOS_SEED sweep in CI).

The invariant under test everywhere: seeded counts are a property of the
sampler, never of the scheduling/fault weather around it.  Whatever the
fault injector, retry chain, executor degradation, or queue order does,
a service job's histogram is bit-identical to a quiet direct run.
"""

from __future__ import annotations

import os

from repro.circuit import QuantumCircuit
from repro.providers import Aer, FaultInjector, FaultSpec, RetryPolicy
from repro.runtime import RuntimeService
from repro.simulators.noise import NoiseModel, depolarizing_error

CHAOS_SEED = int(os.environ.get("CHAOS_SEED", "7"))

FAST_RETRY = RetryPolicy(base_delay=0.0)


def _bell(name="bell"):
    circuit = QuantumCircuit(2, 2, name=name)
    circuit.h(0)
    circuit.cx(0, 1)
    circuit.measure(0, 0)
    circuit.measure(1, 1)
    return circuit


def _noise():
    """Small depolarizing gate noise: the Bell's shots split into chunk
    payloads under it."""
    model = NoiseModel()
    model.add_all_qubit_quantum_error(depolarizing_error(0.01, 1), ["h"])
    model.add_all_qubit_quantum_error(depolarizing_error(0.02, 2), ["cx"])
    return model


def _injector(probability=0.4):
    return FaultInjector(
        [FaultSpec("transient", probability=probability)], seed=CHAOS_SEED
    )


def _reference(shots=2000, seed=42, **options):
    return Aer.get_backend("qasm_simulator").run(
        _bell(), shots=shots, seed=seed, **options,
    ).result().get_counts()


class TestRuntimeChaos:
    def test_faulty_service_job_matches_quiet_direct_run(self, tmp_path):
        with RuntimeService(tmp_path) as service:
            job = service.submit(_bell(), shots=2000, seed=42,
                                 fault_injector=_injector(),
                                 retry_policy=FAST_RETRY)
            result = job.result(timeout=60)
        assert result.get_counts() == _reference()
        assert job.status() == "DONE"

    def test_chunked_faulty_job_streams_and_matches(self, tmp_path):
        reference = _reference(shots=3000, shot_chunk_size=1024,
                               noise_model=_noise(), executor="serial")
        with RuntimeService(tmp_path) as service:
            job = service.submit(_bell(), shots=3000, seed=42,
                                 shot_chunk_size=1024,
                                 noise_model=_noise(),
                                 executor="serial",
                                 fault_injector=_injector(),
                                 retry_policy=FAST_RETRY)
            chunk_events = [
                event for event in job.stream()
                if event["type"] == "chunk"
            ]
            assert len(chunk_events) == 3
            assert job.result(timeout=60).get_counts() == reference

    def test_multi_tenant_burst_under_faults_all_bit_identical(
            self, tmp_path):
        """Two tenants, rate limit, faults everywhere: every job's counts
        still match a quiet direct run with the same seed."""
        references = {
            seed: _reference(shots=500, seed=seed)
            for seed in range(6)
        }
        with RuntimeService(tmp_path, max_workers=2) as service:
            service.set_tenant("steady", weight=2.0)
            service.set_tenant("bursty", weight=1.0, rate=25.0, burst=2)
            jobs = []
            for seed in range(6):
                tenant = "steady" if seed % 2 == 0 else "bursty"
                jobs.append((seed, service.submit(
                    _bell(), shots=500, seed=seed, tenant=tenant,
                    fault_injector=_injector(0.3),
                    retry_policy=FAST_RETRY,
                )))
            for seed, job in jobs:
                assert job.result(timeout=60).get_counts() == (
                    references[seed]
                ), f"seed {seed} diverged under chaos"

    def test_service_restart_mid_queue_under_faults(self, tmp_path):
        """Shut the service down with jobs still queued; a new service
        over the same store finishes them bit-identically."""
        first = RuntimeService(tmp_path, autostart=False)
        job_ids = [
            first.submit(_bell(), shots=700, seed=seed,
                         fault_injector=_injector(),
                         retry_policy=FAST_RETRY).job_id
            for seed in range(3)
        ]
        first.shutdown()

        revived = RuntimeService(tmp_path)
        try:
            for seed, job_id in enumerate(job_ids):
                counts = revived.job(job_id).result(timeout=60).get_counts()
                assert counts == _reference(shots=700, seed=seed)
        finally:
            revived.shutdown()
