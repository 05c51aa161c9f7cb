"""Symbolic circuit parameters.

:class:`Parameter` is a named free symbol; arithmetic on parameters builds
:class:`ParameterExpression` trees that can later be bound to numeric values.
This is the minimal machinery needed for variational algorithms (VQE, QAOA)
where one template circuit is evaluated at many parameter points.

Expressions are stored as explicit operation trees (nested tuples) rather
than closures: trees pickle across process-pool workers, and
:meth:`ParameterExpression.evaluate` can substitute whole numpy arrays for
the symbols, evaluating one expression at a full batch of parameter points
in a handful of vectorized ops.  ``np.sin``/``np.cos`` on float64 agree
bitwise with ``math.sin``/``math.cos`` per element, so the batched and
scalar paths produce identical angles.
"""

from __future__ import annotations

import math
import uuid

import numpy as np

from repro.exceptions import CircuitError

#: Tree node tags: ("p", Parameter), ("c", float), unary ("neg"/"sin"/"cos",
#: child), binary ("+"/"-"/"*"/"/", left, right).
_BINARY_OPS = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "/": lambda a, b: a / b,
}


def _eval_tree(tree, binding):
    """Evaluate a tree against ``{Parameter: value}``.

    Values may be scalars or numpy arrays; mixed trees broadcast naturally.
    Scalar trig goes through :mod:`math` (the historical scalar behaviour),
    arrays through numpy — the two agree bitwise on float64.
    """
    tag = tree[0]
    if tag == "p":
        return binding[tree[1]]
    if tag == "c":
        return tree[1]
    if tag == "neg":
        return -_eval_tree(tree[1], binding)
    if tag in ("sin", "cos"):
        value = _eval_tree(tree[1], binding)
        if isinstance(value, np.ndarray):
            return np.sin(value) if tag == "sin" else np.cos(value)
        return math.sin(value) if tag == "sin" else math.cos(value)
    return _BINARY_OPS[tag](
        _eval_tree(tree[1], binding), _eval_tree(tree[2], binding)
    )


def _substitute(tree, binding):
    """Fold bound parameters into constants, leaving the rest symbolic."""
    tag = tree[0]
    if tag == "p":
        if tree[1] in binding:
            return ("c", float(binding[tree[1]]))
        return tree
    if tag == "c":
        return tree
    if tag in ("neg", "sin", "cos"):
        return (tag, _substitute(tree[1], binding))
    return (tag, _substitute(tree[1], binding), _substitute(tree[2], binding))


class ParameterExpression:
    """An expression over :class:`Parameter` symbols and constants.

    Internally the expression is an operation tree plus the set of free
    parameters, supporting +, -, *, /, negation, and ``sin``/``cos``
    composition.  Trees are plain tuples, so expressions pickle (process
    executors ship them inside payload circuits) and evaluate over
    numpy arrays as well as scalars.
    """

    __slots__ = ("_parameters", "_tree", "_repr")

    def __init__(self, parameters, tree, repr_str):
        self._parameters = frozenset(parameters)
        self._tree = tree
        self._repr = repr_str

    @property
    def parameters(self) -> frozenset:
        """The free parameters appearing in this expression."""
        return self._parameters

    def bind(self, binding: dict) -> float | "ParameterExpression":
        """Substitute values for parameters.

        Args:
            binding: mapping from :class:`Parameter` to numeric value.  May
                bind a superset or subset of this expression's parameters.

        Returns:
            A float if every free parameter is bound, otherwise a new
            expression over the remaining free parameters.
        """
        missing = self._parameters - set(binding)
        if not missing:
            return float(_eval_tree(self._tree, binding))
        return ParameterExpression(
            missing, _substitute(self._tree, binding), f"bind({self._repr})"
        )

    def evaluate(self, binding: dict):
        """Evaluate with scalar *or numpy-array* values per parameter.

        Unlike :meth:`bind` this does not coerce to float, so feeding
        ``{theta: values[:, i]}`` yields the whole batch of angles in one
        vectorized pass.  Every free parameter must be bound.
        """
        missing = self._parameters - set(binding)
        if missing:
            names = sorted(p.name for p in missing)
            raise CircuitError(f"expression has unbound parameters {names}")
        return _eval_tree(self._tree, binding)

    # -- pickling (slots, no dict) ------------------------------------------

    def __getstate__(self):
        return (self._parameters, self._tree, self._repr)

    def __setstate__(self, state):
        self._parameters, self._tree, self._repr = state

    # -- arithmetic ---------------------------------------------------------

    @staticmethod
    def _coerce(value):
        if isinstance(value, ParameterExpression):
            return value
        if isinstance(value, (int, float)):
            return ParameterExpression((), ("c", float(value)), repr(value))
        return None

    def _binary(self, other, sym, reflected=False):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        left, right = (other, self) if reflected else (self, other)
        return ParameterExpression(
            left._parameters | right._parameters,
            (sym, left._tree, right._tree),
            f"({left._repr} {sym} {right._repr})",
        )

    def __add__(self, other):
        return self._binary(other, "+")

    def __radd__(self, other):
        return self._binary(other, "+", reflected=True)

    def __sub__(self, other):
        return self._binary(other, "-")

    def __rsub__(self, other):
        return self._binary(other, "-", reflected=True)

    def __mul__(self, other):
        return self._binary(other, "*")

    def __rmul__(self, other):
        return self._binary(other, "*", reflected=True)

    def __truediv__(self, other):
        return self._binary(other, "/")

    def __rtruediv__(self, other):
        return self._binary(other, "/", reflected=True)

    def __neg__(self):
        return ParameterExpression(
            self._parameters, ("neg", self._tree), f"(-{self._repr})"
        )

    def sin(self):
        """Return ``sin`` of this expression."""
        return ParameterExpression(
            self._parameters, ("sin", self._tree), f"sin({self._repr})"
        )

    def cos(self):
        """Return ``cos`` of this expression."""
        return ParameterExpression(
            self._parameters, ("cos", self._tree), f"cos({self._repr})"
        )

    def __float__(self):
        if self._parameters:
            names = sorted(p.name for p in self._parameters)
            raise CircuitError(
                f"expression has unbound parameters {names}; bind them first"
            )
        return float(_eval_tree(self._tree, {}))

    def __repr__(self):
        return self._repr

    def __str__(self):
        return self._repr


class Parameter(ParameterExpression):
    """A named free symbol usable as a gate angle."""

    __slots__ = ("_name", "_uuid")

    def __init__(self, name: str):
        if not isinstance(name, str) or not name:
            raise CircuitError("parameter name must be a non-empty string")
        self._name = name
        self._uuid = uuid.uuid4()
        super().__init__((self,), ("p", self), name)

    @property
    def name(self) -> str:
        """The symbol's name."""
        return self._name

    def __getstate__(self):
        # The tree holds a self-reference; rebuild it on load instead of
        # letting pickle chase the cycle through the tuple.
        return (self._name, self._uuid)

    def __setstate__(self, state):
        self._name, self._uuid = state
        self._parameters = frozenset((self,))
        self._tree = ("p", self)
        self._repr = self._name

    def __eq__(self, other):
        if not isinstance(other, Parameter):
            return NotImplemented
        return self._uuid == other._uuid

    def __hash__(self):
        return hash(self._uuid)

    def __repr__(self):
        return f"Parameter({self._name})"

    def __str__(self):
        return self._name


def parameter_value(value) -> float:
    """Coerce a gate parameter to float, raising on unbound symbols."""
    if isinstance(value, ParameterExpression):
        return float(value)
    return float(value)


def is_parameterized(value) -> bool:
    """Return True when ``value`` contains unbound parameters."""
    return isinstance(value, ParameterExpression) and bool(value.parameters)
