"""EstimatorV2: batched expectation values over parameter-broadcast pubs."""

from __future__ import annotations

import numpy as np

from repro.exceptions import AlgorithmError
from repro.primitives.containers import DataBin, EstimatorPub, PubResult
from repro.primitives.job import PrimitiveJob, submit_pubs

_MODE_BACKENDS = {
    "exact": "statevector_simulator",
    "shots": "qasm_simulator",
}


class EstimatorV2:
    """Estimates ``<H>`` for every binding of every pub.

    Every call is one ``backend.run_pubs`` job; each pub — ``(circuit,
    observable, parameter_values[, parameters])`` — evaluates its whole
    batch axis inside its own experiment(s).  Two modes:

    * ``"exact"`` (default) — statevector backend; all bindings evolve in
      one ``(batch, 2**n)`` vectorized pass and each row takes a
      matrix-free ``<psi|H|psi>``, bitwise equal to evolving the bound
      circuit alone.
    * ``"shots"`` — qasm backend; every binding's energy is bit-identical
      to ``ExpectationEstimator(H, "shots", shots, seed=derived[b])`` on
      the bound circuit, with per-binding seeds derived from the batch
      seed exactly like ``backend.run`` derives per-experiment seeds.
      Per-term measurement circuits share the evolved prefix across the
      batch; templates the broadcast path cannot reproduce (idle qubits,
      measurements in the template) run that estimator's term loop per
      binding in the same experiment instead, and ``metadata["path"]``
      says which ran.
    """

    def __init__(self, backend=None, *, mode=None,
                 default_shots: int = 2048, seed=None):
        if mode is None:
            mode = "exact" if backend is None else {
                "statevector_simulator": "exact",
                "qasm_simulator": "shots",
            }.get(backend.name())
        if mode not in _MODE_BACKENDS:
            raise AlgorithmError(f"unknown estimator mode '{mode}'")
        if backend is None:
            from repro.providers.aer import Aer

            backend = Aer.get_backend(_MODE_BACKENDS[mode])
        elif backend.name() != _MODE_BACKENDS[mode]:
            raise AlgorithmError(
                f"mode '{mode}' needs the {_MODE_BACKENDS[mode]} backend, "
                f"got '{backend.name()}'"
            )
        self._backend = backend
        self._mode = mode
        self._default_shots = int(default_shots)
        self._seed = seed

    @property
    def mode(self) -> str:
        """``"exact"`` or ``"shots"``."""
        return self._mode

    @property
    def backend(self):
        """The provider backend running the pubs."""
        return self._backend

    def run(self, pubs, *, shots=None, seed=None, **options) -> PrimitiveJob:
        """Submit pubs; returns a :class:`PrimitiveJob`."""
        coerced = [EstimatorPub.coerce(pub) for pub in pubs]
        if not coerced:
            raise AlgorithmError("no pubs to estimate")
        shots = self._default_shots if shots is None else int(shots)
        seed = self._seed if seed is None else seed
        metadata = {
            "backend": self._backend.name(), "mode": self._mode,
            "seed": seed,
        }
        if self._mode == "shots":
            metadata["shots"] = shots

        def make_result(_pub, rows, pub_metadata):
            return PubResult(DataBin(evs=np.asarray(rows, dtype=float)),
                             pub_metadata)

        return submit_pubs(
            self._backend, coerced,
            [(pub.circuit, pub.parameter_values, pub.parameters,
              pub.observable) for pub in coerced],
            "broadcast_evs", make_result, metadata,
            shots=shots, seed=seed, **options,
        )

    def __repr__(self):
        return (
            f"EstimatorV2(mode={self._mode!r}, "
            f"backend={self._backend.name()!r})"
        )
