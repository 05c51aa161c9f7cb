"""The pass-manager framework: a staged pipeline over the DAG IR.

Every pass runs against a :class:`~repro.circuit.dag.DAGCircuit` plus a
shared :class:`PropertySet`; the flat circuit exists only at the pipeline
boundary (``PassManager.run`` converts on entry and exit).  Passes come in
two flavours:

* :class:`AnalysisPass` — inspects the DAG and writes properties, never
  rewrites.
* :class:`TransformationPass` — rewrites the DAG and returns the new (or
  mutated) one.

Every scheduled pass runs each time the schedule reaches it.
:class:`DoWhileController` repeats nested passes to a fixed point,
replacing hand-unrolled repeats in the preset pipelines.

A pass that is neither an :class:`AnalysisPass` nor a
:class:`TransformationPass` is rejected with a :class:`TranspilerError`.
"""

from __future__ import annotations

import time

from repro.circuit.dag import DAGCircuit, circuit_to_dag, dag_to_circuit
from repro.circuit.quantumcircuit import QuantumCircuit
from repro.exceptions import TranspilerError
from repro.telemetry.tracer import get_tracer


class PropertySet(dict):
    """The shared blackboard passes read and write.

    A plain dict with attribute access sugar: ``ps.layout`` is
    ``ps["layout"]`` and reads of missing keys yield ``None``.  Well-known
    keys: ``layout``, ``final_permutation``, ``physical_register``,
    ``original_qubits``, ``is_swap_mapped``, ``is_direction_mapped``,
    ``depth``, ``size``, ``fixed_point``, and ``pass_times`` — a list of
    ``(pass_name, seconds)`` entries, one per pass run, in execution
    order.
    """

    def __getattr__(self, key):
        if key.startswith("_"):
            raise AttributeError(key)
        return self.get(key)

    def __setattr__(self, key, value):
        self[key] = value

    def __delattr__(self, key):
        self.pop(key, None)


class BasePass:
    """Attributes shared by transpiler passes.

    A pass subclasses :class:`AnalysisPass` or :class:`TransformationPass`
    and runs on the DAG IR; the pass manager rejects any other pass.
    """

    @property
    def name(self) -> str:
        """Pass name (class name by default)."""
        return type(self).__name__

    def run(self, dag, property_set):
        """Transform the DAG; analysis passes return None."""
        raise NotImplementedError


class AnalysisPass(BasePass):
    """A pass that only writes properties; ``run(dag, ps)`` returns None."""


class TransformationPass(BasePass):
    """A pass that rewrites the DAG; ``run(dag, ps)`` returns a DAG."""


class DoWhileController:
    """Run the nested passes repeatedly while ``do_while(property_set)``.

    The body always executes at least once; ``max_iterations`` guards
    against optimization loops that never reach a fixed point.
    """

    def __init__(self, passes, do_while, max_iterations: int = 100):
        if not isinstance(passes, (list, tuple)):
            passes = [passes]
        self.passes = list(passes)
        self.do_while = do_while
        self.max_iterations = max_iterations


class PassManager:
    """Runs a staged schedule of passes, threading the property set."""

    def __init__(self, passes=None):
        self._passes: list = list(passes or [])
        self.property_set: PropertySet = PropertySet()

    def append(self, pass_) -> "PassManager":
        """Add a pass, controller, or list of them to the schedule."""
        if isinstance(pass_, (list, tuple)):
            self._passes.extend(pass_)
        else:
            self._passes.append(pass_)
        return self

    @property
    def passes(self) -> list:
        """The scheduled passes and controllers."""
        return list(self._passes)

    def run(self, circuit: QuantumCircuit) -> QuantumCircuit:
        """Execute the schedule on ``circuit``.

        The circuit is converted to the DAG IR once on entry and back to
        a flat circuit once on exit; every scheduled pass operates on the
        DAG.
        """
        self.property_set = PropertySet()
        dag = circuit_to_dag(circuit)
        dag = self._execute(self._passes, dag)
        return dag_to_circuit(dag)

    # -- scheduling ------------------------------------------------------------

    def _execute(self, passes, dag: DAGCircuit) -> DAGCircuit:
        for item in passes:
            dag = self._dispatch(item, dag)
        return dag

    def _dispatch(self, item, dag: DAGCircuit) -> DAGCircuit:
        if isinstance(item, DoWhileController):
            for _ in range(item.max_iterations):
                dag = self._execute(item.passes, dag)
                if not item.do_while(self.property_set):
                    return dag
            raise TranspilerError(
                f"DoWhileController exceeded {item.max_iterations} "
                "iterations without reaching a fixed point"
            )
        return self._run_pass(item, dag)

    def _run_pass(self, pass_: BasePass, dag: DAGCircuit) -> DAGCircuit:
        start = time.perf_counter()
        with get_tracer().span(f"pass:{pass_.name}"):
            dag = self._apply_pass(pass_, dag)
        self.property_set.setdefault("pass_times", []).append(
            (pass_.name, time.perf_counter() - start)
        )
        return dag

    def _apply_pass(self, pass_: BasePass, dag: DAGCircuit) -> DAGCircuit:
        if isinstance(pass_, AnalysisPass):
            pass_.run(dag, self.property_set)
            return dag

        if not isinstance(pass_, TransformationPass):
            raise TranspilerError(
                f"pass {pass_.name} is neither an AnalysisPass nor a "
                "TransformationPass"
            )
        result = pass_.run(dag, self.property_set)
        if result is None:
            raise TranspilerError(
                f"pass {pass_.name} returned None instead of a DAG"
            )
        return result
