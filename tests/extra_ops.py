"""What only the tests need of the autograd: two graph ops and a gradient checker.

`mul` (elementwise product) and `sum_all` (full sum) reduce a matrix
output to the 1x1 scalar that `grad_check` and `backward` need, weighting
each entry, and follow the op conventions of `laha.numeric`.
`grad_check` pits `backward`'s gradients against central finite
differences.
"""

import math
from typing import Callable

import numpy as np

from laha.errors import NumericalError, ShapeError
from laha.numeric import Node, _node, _same_shape, as_matrix, backward


def mul(a, b) -> Node:
    """Elementwise (Hadamard) product."""
    a, b = _node(a), _node(b)
    _same_shape(a, b, "mul")

    def bwd(g):
        a.grad += g * b.value
        b.grad += g * a.value

    return Node(a.value * b.value, (a, b), bwd)


def sum_all(a) -> Node:
    """Sum of all entries as a 1x1 node."""
    a = _node(a)

    def bwd(g):
        a.grad += g[0, 0]

    return Node(np.array([[a.value.sum()]]), (a,), bwd)


# ---------------------------------------------------------------------------
# gradient checking
# ---------------------------------------------------------------------------


def grad_check(
    f: Callable[[dict[str, Node]], Node],
    params: dict[str, np.ndarray],
    epsilon: float = 1e-5,
) -> float:
    """Worst relative error of reverse-mode gradients vs central differences.

    `f` maps a dict of leaf nodes to a 1x1 output and must be deterministic.
    Every entry of every parameter is perturbed by +/- epsilon.  The error
    denominator is floored at 1e-6 so finite-difference noise on near-zero
    entries does not dominate; two exact zeros score 0.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    arrays = {k: as_matrix(v) for k, v in params.items()}
    leaves = {k: Node(v) for k, v in arrays.items()}
    out = f(leaves)
    _check_scalar(out)
    backward(out)
    analytic = {k: leaves[k].grad.copy() for k in arrays}

    worst = 0.0
    for k, arr in arrays.items():
        flat = arr.ravel()
        ana = analytic[k].ravel()
        for i in range(flat.size):
            keep = flat[i]
            flat[i] = keep + epsilon
            f_plus = _eval_scalar(f, arrays)
            flat[i] = keep - epsilon
            f_minus = _eval_scalar(f, arrays)
            flat[i] = keep
            numeric_grad = (f_plus - f_minus) / (2.0 * epsilon)
            denom = max(abs(ana[i]), abs(numeric_grad), 1e-6)
            worst = max(worst, abs(ana[i] - numeric_grad) / denom)
    return worst


def _check_scalar(out: Node) -> None:
    if out.value.shape != (1, 1):
        raise ShapeError(f"grad_check function must return 1x1, got {out.value.shape}")
    if not math.isfinite(out.value[0, 0]):
        raise NumericalError("grad_check function produced a non-finite value")


def _eval_scalar(f, arrays: dict[str, np.ndarray]) -> float:
    out = f({k: Node(v) for k, v in arrays.items()})
    _check_scalar(out)
    return float(out.value[0, 0])
