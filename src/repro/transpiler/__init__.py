"""Transpiler: coupling maps, layouts, pass manager, and preset pipelines."""

from repro.circuit.dag import DAGCircuit, circuit_to_dag, dag_to_circuit
from repro.transpiler.cache import (
    DiskCacheTier,
    TranspileCache,
    circuit_fingerprint,
    clear_transpile_cache,
    configure_disk_cache,
    get_transpile_cache,
    resize_transpile_cache,
)
from repro.transpiler.coupling import CouplingMap
from repro.transpiler.layout import Layout
from repro.transpiler.passmanager import (
    AnalysisPass,
    BasePass,
    DoWhileController,
    PassManager,
    PropertySet,
    TransformationPass,
)
from repro.transpiler.preset import build_pass_manager, transpile
from repro.transpiler.target import (
    InstructionProperties,
    Target,
    target_from_coupling,
)

__all__ = [
    "AnalysisPass",
    "BasePass",
    "CouplingMap",
    "DAGCircuit",
    "DiskCacheTier",
    "DoWhileController",
    "InstructionProperties",
    "Layout",
    "PassManager",
    "PropertySet",
    "Target",
    "TransformationPass",
    "TranspileCache",
    "build_pass_manager",
    "circuit_fingerprint",
    "circuit_to_dag",
    "clear_transpile_cache",
    "configure_disk_cache",
    "dag_to_circuit",
    "get_transpile_cache",
    "resize_transpile_cache",
    "target_from_coupling",
    "transpile",
]
