"""Graph ops that only the tests build with: an elementwise product and a full sum.

They reduce a matrix output to the 1x1 scalar that `grad_check` and
`backward` need, weighting each entry, and follow the op conventions of
`laha.numeric`.
"""

import numpy as np

from laha.numeric import Node, _node, _same_shape


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
