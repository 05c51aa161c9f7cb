"""SamplerV2: batched shot sampling over parameter-broadcast pubs."""

from __future__ import annotations

from repro.exceptions import AlgorithmError
from repro.primitives.containers import DataBin, PubResult, SamplerPub
from repro.primitives.job import PrimitiveJob, submit_pubs


class SamplerV2:
    """Samples measurement counts for every binding of every pub.

    Every call is one ``backend.run_pubs`` job, and each pub — ``(circuit,
    parameter_values[, parameters])`` — runs its whole batch axis inside
    its own experiment(s).  Where the template allows, that is one
    broadcast pass: the template is snapshot once, binding-independent
    gates apply to all statevectors together, and each binding is sampled
    with its own derived seed.  Templates the broadcast engine cannot
    take (conditionals, resets, mid-circuit measurement) run per binding
    in the same experiment instead; ``metadata["path"]`` says which.
    Either way counts are bit-identical to running the bound circuits
    through ``backend.run`` with the same batch seed, on any executor.
    The backend must be ``qasm_simulator`` (or a session on it), the one
    that samples pubs.
    """

    def __init__(self, backend=None, *, default_shots: int = 1024,
                 seed=None):
        if backend is None:
            from repro.providers.aer import Aer

            backend = Aer.get_backend("qasm_simulator")
        if backend.name() != "qasm_simulator":
            raise AlgorithmError(
                f"SamplerV2 needs the qasm_simulator backend, got "
                f"'{backend.name()}'"
            )
        self._backend = backend
        self._default_shots = int(default_shots)
        self._seed = seed

    @property
    def backend(self):
        """The provider backend running the pubs."""
        return self._backend

    def run(self, pubs, *, shots=None, seed=None, **options) -> PrimitiveJob:
        """Submit pubs; returns a :class:`PrimitiveJob`.

        ``options`` (``executor``, ``max_workers``, ``retry_policy``,
        ``fault_injector``, ...) forward to ``run_pubs``.
        """
        coerced = [SamplerPub.coerce(pub) for pub in pubs]
        if not coerced:
            raise AlgorithmError("no pubs to sample")
        shots = self._default_shots if shots is None else int(shots)
        if shots < 1:
            raise AlgorithmError("shots must be positive")
        seed = self._seed if seed is None else seed

        def make_result(pub, rows, metadata):
            return PubResult(
                DataBin(counts=[row["counts"] for row in rows], shots=shots),
                dict(metadata, shots=shots),
            )

        return submit_pubs(
            self._backend, coerced,
            [(pub.circuit, pub.parameter_values, pub.parameters)
             for pub in coerced],
            "broadcast_counts", make_result,
            {"backend": self._backend.name(), "seed": seed},
            shots=shots, seed=seed, **options,
        )

    def __repr__(self):
        return (
            f"SamplerV2(backend={self._backend.name()!r}, "
            f"default_shots={self._default_shots})"
        )
