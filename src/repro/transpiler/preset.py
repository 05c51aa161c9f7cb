"""Preset transpilation pipelines — the ``compile`` step of Sec. IV.

``transpile`` assembles the standard pass sequence: unroll to 1q/2q gates,
choose a layout, route for the coupling map, decompose SWAPs, repair CNOT
directions, unroll to the device basis, and optimize.  Optimization levels:

* 0 — naive: trivial 1:1 layout, :class:`BasicSwap` routing, no cleanup
  (this is the flow that produces Fig. 4a).
* 1 — default: trivial layout, SABRE routing, 1q resynthesis + cancellation.
* 2 — adds dense layout selection and iterates the cleanup passes to a
  fixed point (:class:`DoWhileController` around resynthesis/cancellation).
* 3 — adds the A* lookahead router and a layout/router portfolio
  (the "improved mapping" flow of Fig. 4b).

The pipeline compiles against a :class:`~repro.transpiler.target.Target`
when one is available — ``transpile(circuit, backend=...)`` builds it from
the backend's configuration and calibrations, so error-aware layout and
routing weight the device's actual couplers.  Compiled results are memoised
in a content-hash LRU cache (:mod:`repro.transpiler.cache`); pass
``transpile_cache=False`` to bypass it.
"""

from __future__ import annotations

from repro.circuit.quantumcircuit import QuantumCircuit
from repro.exceptions import TranspilerError
from repro.telemetry.tracer import current_span
from repro.transpiler.cache import get_transpile_cache
from repro.transpiler.coupling import CouplingMap
from repro.transpiler.layout import Layout
from repro.transpiler.passes.commutation import CommutativeCancellation
from repro.transpiler.passes.direction import CheckMap, CXDirection
from repro.transpiler.passes.fusion import FuseDiagonalGates
from repro.transpiler.passes.layout_passes import (
    ApplyLayout,
    DenseLayout,
    SetLayout,
    TrivialLayout,
)
from repro.transpiler.passes.optimization import (
    FixedPoint,
    GateCancellation,
    Optimize1qGates,
    Size,
)
from repro.transpiler.passes.routing import BasicSwap, LookaheadSwap, SabreSwap
from repro.transpiler.passes.unroller import IBMQX_BASIS, Decompose, Unroller
from repro.transpiler.passmanager import DoWhileController, PassManager
from repro.transpiler.target import Target

_ROUTERS = {"basic": BasicSwap, "sabre": SabreSwap, "lookahead": LookaheadSwap}

#: Names that are scheduling directives, not basis gates.
_NON_GATES = ("measure", "barrier", "reset")


def build_pass_manager(coupling_map=None, basis_gates=IBMQX_BASIS,
                       initial_layout=None, optimization_level=1,
                       routing_method=None, seed=None,
                       layout_method=None, target=None,
                       fuse_diagonals=False) -> PassManager:
    """Construct the pass schedule for the given options."""
    if optimization_level not in (0, 1, 2, 3):
        raise TranspilerError("optimization_level must be 0..3")
    manager = PassManager()
    # Pre-routing: reduce everything to <=2q gates so routing sees CNOTs.
    pre_basis = set(basis_gates) | {
        "cx", "u1", "u2", "u3", "h", "t", "tdg", "s", "sdg", "x", "y", "z",
        "rx", "ry", "rz", "swap", "cz", "cu1",
    }
    manager.append(Unroller(sorted(pre_basis)))
    if coupling_map is not None:
        if layout_method is None:
            layout_method = "dense" if optimization_level >= 2 else "trivial"
        if initial_layout is not None:
            manager.append(SetLayout(initial_layout))
        elif layout_method == "dense":
            manager.append(DenseLayout(coupling_map, target=target))
        elif layout_method == "trivial":
            manager.append(TrivialLayout(coupling_map))
        else:
            raise TranspilerError(f"unknown layout method '{layout_method}'")
        manager.append(ApplyLayout(coupling_map))
        routing_method = _resolve_routing(routing_method, optimization_level)
        if routing_method not in _ROUTERS:
            raise TranspilerError(f"unknown routing method '{routing_method}'")
        if routing_method == "sabre":
            manager.append(SabreSwap(coupling_map, seed=seed, target=target))
        else:
            manager.append(_ROUTERS[routing_method](coupling_map))
        if "cx" not in basis_gates:
            raise TranspilerError(
                "coupling-mapped transpilation needs 'cx' in the basis"
            )
        manager.append(Decompose("swap"))
        # Reduce every remaining 2q gate (cz, cu1, ...) to CX before fixing
        # directions, otherwise later unrolling could reintroduce reversed
        # CNOTs.
        manager.append(Unroller(basis_gates))
        manager.append(CXDirection(coupling_map))
        manager.append(CheckMap(coupling_map, check_direction=True))
    if optimization_level >= 1:
        manager.append(GateCancellation())
    manager.append(Unroller(basis_gates))
    if optimization_level == 1:
        manager.append(Optimize1qGates(basis=basis_gates))
        manager.append(GateCancellation())
    elif optimization_level >= 2:
        # Iterate the cleanup stack until the circuit stops shrinking.
        manager.append(
            DoWhileController(
                [
                    Optimize1qGates(basis=basis_gates),
                    GateCancellation(),
                    CommutativeCancellation(),
                    Size(),
                    FixedPoint("size"),
                ],
                do_while=lambda property_set: not property_set[
                    "size_fixed_point"
                ],
            )
        )
    if fuse_diagonals:
        manager.append(FuseDiagonalGates())
    return manager


def _resolve_routing(routing_method, optimization_level):
    """The router a compile uses: the pinned one, else the level's."""
    if routing_method is not None:
        return routing_method
    return {0: "basic", 3: "lookahead"}.get(optimization_level, "sabre")


def _layout_key(initial_layout):
    """A hashable identity for ``initial_layout`` (cache keying)."""
    if initial_layout is None:
        return None
    if isinstance(initial_layout, Layout):
        return tuple(sorted(
            (virtual.register.name, virtual.index,
             initial_layout.physical(virtual))
            for virtual in initial_layout.virtual_qubits
        ))
    return tuple(int(entry) for entry in initial_layout)


def _coupling_key(coupling_map):
    if coupling_map is None:
        return None
    return tuple(sorted(tuple(edge) for edge in coupling_map.edges))


def _print_pass_report(circuit_name: str, pass_times, limit: int = 10
                       ) -> None:
    """Print the slowest-pass table for one transpile call.

    Aggregates per-pass wall time across every pass execution (portfolio
    attempts included) and lists the ``limit`` slowest, with run counts
    and the share of total compile time.
    """
    totals: dict = {}
    runs: dict = {}
    for name, seconds in pass_times:
        totals[name] = totals.get(name, 0.0) + seconds
        runs[name] = runs.get(name, 0) + 1
    grand_total = sum(totals.values()) or 1.0
    print(
        f"transpile '{circuit_name}': {len(pass_times)} pass runs, "
        f"{grand_total * 1e3:.2f}ms total"
    )
    print(f"  {'pass':<28} {'runs':>4} {'total':>10} {'share':>6}")
    ranked = sorted(totals.items(), key=lambda item: -item[1])
    for name, seconds in ranked[:limit]:
        print(
            f"  {name:<28} {runs[name]:>4} {seconds * 1e3:>8.2f}ms "
            f"{100.0 * seconds / grand_total:>5.1f}%"
        )


def transpile(circuit: QuantumCircuit, coupling_map=None,
              basis_gates=IBMQX_BASIS, initial_layout=None,
              optimization_level=1, routing_method=None,
              seed=None, backend=None, target=None,
              fuse_diagonals=None, transpile_cache=True,
              verbose=False) -> QuantumCircuit:
    """Compile ``circuit`` for a device (the paper's Sec. IV ``compile``).

    The compilation target comes from (highest priority first) ``target``,
    ``backend`` (a :class:`Target` is built from its configuration and
    calibrations), or the loose ``coupling_map``/``basis_gates`` kwargs.

    ``seed`` seeds the SABRE router's tie-breaking; without one the
    router uses a fixed seed, so compilation is deterministic either way.
    No other pass reads it, so the result cache keys on ``seed`` only for
    compiles that run SABRE.
    Routing always finishes (SABRE has a release valve against swap
    cycles), and final measurements are placed after routing, on each
    qubit's final position: every measurement of the output is terminal.

    ``fuse_diagonals`` collapses adjacent diagonal-gate runs into single
    fused diagonal instructions; ``None`` (default) enables it exactly when
    the target natively supports ``diagonal`` (simulators do, devices do
    not).  ``transpile_cache=False`` bypasses the content-hash result cache
    for this call.  ``verbose=True`` prints a slowest-pass timing table
    (per-pass wall times also land in the property set's ``pass_times``
    and, when tracing is enabled, as ``pass:*`` spans feeding the
    ``repro_stage_seconds`` histogram).

    Returns the mapped circuit.  Layout and routing metadata are attached as
    ``result.initial_layout`` (a :class:`Layout` or None) and
    ``result.final_permutation`` (``perm[home_slot] = final_slot``).
    """
    if target is None and backend is not None:
        target = Target.from_backend(backend)
    if target is not None:
        coupling_map = target.coupling_map
        basis_gates = [
            name for name in target.basis_gates if name not in _NON_GATES
        ]
    elif isinstance(coupling_map, str):
        coupling_map = CouplingMap.from_name(coupling_map)
    if fuse_diagonals is None:
        fuse_diagonals = (
            target is not None and target.instruction_supported("diagonal")
        )

    # Only SabreSwap reads the seed, so only a compile that runs it keys
    # on the seed: a routed one whose router resolves to sabre, or the
    # unpinned level-3 portfolio (which tries sabre too).
    portfolio = (
        optimization_level == 3
        and coupling_map is not None
        and initial_layout is None
    )
    runs_sabre = coupling_map is not None and (
        _resolve_routing(routing_method, optimization_level) == "sabre"
        or (portfolio and routing_method is None)
    )
    cache = get_transpile_cache()
    cache_key = None
    if transpile_cache and (cache.maxsize > 0 or cache.disk is not None):
        options_key = (
            tuple(basis_gates),
            _coupling_key(coupling_map) if target is None else None,
            _layout_key(initial_layout),
            optimization_level,
            routing_method,
            seed if runs_sabre else None,
            bool(fuse_diagonals),
        )
        cache_key = cache.make_key(circuit, target, options_key)
        cached = cache.lookup(cache_key)
        if cached is not None:
            span = current_span()
            if span is not None:
                span.set_attribute("cache_hit", True)
            if verbose:
                print(
                    f"transpile '{circuit.name}': cache hit, no passes run"
                )
            cached.pass_times = []
            return cached

    pass_times: list = []

    def run_once(layout_method, routing):
        manager = build_pass_manager(
            coupling_map=coupling_map,
            basis_gates=basis_gates,
            initial_layout=initial_layout,
            optimization_level=optimization_level,
            routing_method=routing,
            seed=seed,
            layout_method=layout_method,
            target=target,
            fuse_diagonals=fuse_diagonals,
        )
        result = manager.run(circuit)
        pass_times.extend(manager.property_set.get("pass_times") or ())
        if coupling_map is not None and not manager.property_set.get(
            "is_direction_mapped", True
        ):
            raise TranspilerError(
                "transpilation failed to satisfy the coupling map"
            )
        result.initial_layout = manager.property_set.get("layout")
        result.final_permutation = manager.property_set.get(
            "final_permutation"
        )
        return result

    if portfolio:
        # Portfolio: try layout/router combinations, keep the cheapest
        # (fewest CNOTs, then total size, then depth).  When the routing
        # method is pinned there is only one router to try per layout —
        # deduplicate the attempt set instead of re-running it.
        routings = (
            ("lookahead", "sabre")
            if routing_method is None
            else (routing_method,)
        )
        combos = [
            (layout_method, routing)
            for layout_method in ("trivial", "dense")
            for routing in routings
        ]
        attempts = [run_once(*combo) for combo in combos]

        def cost(candidate):
            ops = candidate.count_ops()
            return (ops.get("cx", 0), candidate.size(), candidate.depth())

        compiled = min(attempts, key=cost)
    else:
        compiled = run_once(None, routing_method)
    span = current_span()
    if span is not None:
        span.set_attributes(
            {"cache_hit": False, "pass_runs": len(pass_times)}
        )
    compiled.pass_times = list(pass_times)
    if verbose:
        _print_pass_report(circuit.name, pass_times)
    if cache_key is not None:
        cache.store(cache_key, compiled)
    return compiled
