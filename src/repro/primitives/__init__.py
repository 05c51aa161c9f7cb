"""V2 primitives: batched Sampler/Estimator over PUBs.

The primitive unified bloc (PUB) bundles one circuit template with a
``(batch, num_parameters)`` value array.  Every primitive call is one
``backend.run_pubs`` job, and each pub is one experiment (per memory-cap
chunk) instead of ``batch`` bound-circuit runs.  Inside it the backend
vectorizes the batch axis with the broadcast engine
(:mod:`repro.simulators.batched`) where the template allows, and loops
over the bindings otherwise; counts and expectation values are
bit-identical to the per-binding loop under the same batch seed either
way.
"""

from repro.primitives.containers import (
    DataBin,
    EstimatorPub,
    PrimitiveResult,
    PubResult,
    SamplerPub,
)
from repro.primitives.estimator import EstimatorV2
from repro.primitives.job import PrimitiveJob
from repro.primitives.sampler import SamplerV2

__all__ = [
    "DataBin",
    "EstimatorPub",
    "EstimatorV2",
    "PrimitiveJob",
    "PrimitiveResult",
    "PubResult",
    "SamplerPub",
    "SamplerV2",
]
