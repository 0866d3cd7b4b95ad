"""Tape-based reverse-mode differentiation over dense float64 matrices.

Every value in the graph is a 2-D ``numpy.float64`` array. Operations append
``Node`` objects to a ``Tape`` in creation order, which is by construction a
valid topological order; ``backward`` walks it once in reverse.

Every node refers to its tape and the tape lists every node, so a graph is a
reference cycle. Whoever builds a tape empties it (``tape.nodes.clear()``)
when done with the graph; reference counting then frees the nodes and their
arrays at once instead of leaving them to Python's cyclic collector.
``backward`` does not empty it, so a caller can still read the graph after.

Gradient contract: only ``Tape.leaf`` nodes hold a ``Node.grad`` buffer,
the caller's ``grad`` array (training passes views of one vector laid out
like ``ModelBundle.flat``) or a zeroed one of their own; ``Tape.const``
leaves and interior nodes hold ``None``. ``backward`` keeps interior
gradients in a local list, dropped once passed on, and *adds* each
contribution to a leaf straight into its buffer as it arrives, so no second
copy of a leaf's gradient is built. Training zeroes the buffers by building
a fresh tape and gradient vector each step.
Subgradients at the relu/abs kinks are 0.
``Node.needs_grad`` is set once, when the node is recorded: true for a leaf
with a buffer and for any node with a parent that has it. ``backward``
passes no contribution to a node without it, and ``dense`` does not compute
one for such an input.

``dense`` is the fused layer node, ``act(x @ W + b)``. Its forward is
:func:`adadrug.kernels.dense`, the same layer function the array-level
forward in :mod:`adadrug.model` calls. The loss terms are fused nodes too:
``sq_err_mean``, ``gram_penalty``, ``clamped_bce``, ``abs_diff`` and
``average``. Each hand-written backward gives the same bits as the unfused
chain of small ops it replaces; those ops (``matmul``, ``add_bias``,
``relu``, ``sigmoid``, ``sub``, ``scale``, ``absval``, ``log``, ``clamp``,
``row_sum``, ``sum_all``, ``mean_all``) stay as the reference the tests
compare against.
"""

import numpy as np

from . import kernels


class ShapeError(ValueError):
    """Raised when operand shapes are incompatible."""


def as_matrix(x):
    """Coerce to a 2-D float64 array, copying only if needed."""
    a = np.asarray(x, dtype=np.float64)
    if a.ndim != 2:
        raise ShapeError(f"expected a 2-D matrix, got shape {a.shape}")
    return a


class Node:
    """One tape entry: a value, its gradient accumulator (``Tape.leaf``
    nodes only, ``None`` elsewhere), provenance, and ``needs_grad``: whether
    any ``Tape.leaf`` is reachable through its parents (or it is one)."""

    __slots__ = ("value", "grad", "op", "parents", "_backward", "_idx", "tape",
                 "needs_grad")

    def __init__(self, value, op, parents, backward, idx, tape, grad=None):
        self.value = value
        self.grad = grad
        self.op = op
        self.parents = parents
        self._backward = backward
        self._idx = idx
        self.tape = tape
        self.needs_grad = grad is not None or any(p.needs_grad for p in parents)

    @property
    def shape(self):
        return self.value.shape

    def __repr__(self):
        return f"Node(op={self.op!r}, shape={self.value.shape})"


class Tape:
    """Ordered record of nodes; creation order doubles as topological order.

    Each recorded node holds the tape, so the builder empties ``nodes`` once
    it has read what it needs; ``train.train_step`` does so after reading the
    loss parts."""

    def __init__(self):
        self.nodes = []

    def leaf(self, value, op="leaf", grad=None):
        """Differentiable input; ``backward`` adds into ``grad`` or a zeroed array."""
        value = as_matrix(value)
        grad = np.zeros_like(value) if grad is None else grad
        return self._record(value, op, (), None, grad)

    def const(self, value):
        """Enter data that needs no gradient: the node holds no buffer."""
        return self._record(as_matrix(value), "const", (), None)

    def _record(self, value, op, parents, backward, grad=None):
        node = Node(value, op, parents, backward, len(self.nodes), self, grad)
        self.nodes.append(node)
        return node


def backward(tape, loss):
    """Add d(loss)/d(leaf) into every ``Tape.leaf`` node's ``grad``.

    ``loss`` must be a 1x1 node on ``tape``. Each contribution to a leaf is
    added into its buffer as it arrives, in reverse tape order; into a zeroed
    buffer that gives the bits, signed zeros too, of summing them first. An
    interior node's gradient is summed in a local list and dropped once it
    has been passed on to its parents.
    """
    if loss.value.shape != (1, 1):
        raise ValueError(
            f"backward requires a scalar (1x1) loss node, got shape {loss.value.shape}"
        )
    if loss.tape is not tape:
        raise ValueError("loss node does not belong to this tape")
    local = [None] * len(tape.nodes)
    local[loss._idx] = np.ones((1, 1))
    for node in reversed(tape.nodes):
        g = local[node._idx]
        if g is None:
            continue
        if node._backward is None:  # the loss is itself a leaf
            if node.grad is not None:
                node.grad += g
            continue
        local[node._idx] = None
        for parent, contrib in zip(node.parents, node._backward(g)):
            if contrib is None or not parent.needs_grad:
                continue
            if parent.grad is not None:
                parent.grad += contrib
                continue
            acc = local[parent._idx]
            local[parent._idx] = contrib if acc is None else acc + contrib


def _same_shape(a, b, op):
    if a.value.shape != b.value.shape:
        raise ShapeError(
            f"{op}: shapes {a.value.shape} and {b.value.shape} do not match"
        )


def matmul(a, b):
    if a.value.shape[1] != b.value.shape[0]:
        raise ShapeError(
            f"matmul: inner dimensions disagree, {a.value.shape} x {b.value.shape}"
        )
    out = a.value @ b.value

    def bwd(g):
        return g @ b.value.T, a.value.T @ g

    return a.tape._record(out, "matmul", (a, b), bwd)


def dense(x, W, b, act):
    """Fused dense layer ``act(x @ W + b)``, act one of relu, sigmoid, none.

    The backward takes the activation gradient from the output: ``out > 0``
    exactly where the pre-activation is > 0 (also for -0.0 and NaN), so
    ``relu_bwd(out, g)`` is bitwise ``relu_bwd(pre, g)``.
    """
    if x.value.shape[1] != W.value.shape[0]:
        raise ShapeError(
            f"dense: inner dimensions disagree, {x.value.shape} x {W.value.shape}"
        )
    if b.value.shape != (1, W.value.shape[1]):
        raise ShapeError(
            f"dense: bias shape {b.value.shape} does not broadcast over "
            f"{(x.value.shape[0], W.value.shape[1])}"
        )
    out = kernels.dense(x.value, W.value, b.value, act)

    def bwd(g):
        if act == "relu":
            g = kernels.relu_bwd(out, g)
        elif act == "sigmoid":
            g = kernels.sigmoid_bwd(out, g)
        gx = g @ W.value.T if x.needs_grad else None
        return gx, x.value.T @ g, np.add.reduce(g, axis=0, keepdims=True)

    return x.tape._record(out, "dense", (x, W, b), bwd)


# Fused nodes. Each forward runs the numpy ops of the unfused chain named in
# its docstring, in the same order, and each backward adds up the same
# products in the order ``backward`` would pass them along that chain, so
# values and gradients are bitwise the chain's.

def sq_err_mean(pred, target):
    """``sum((pred - target)^2) / batch`` as one 1x1 node; ``target`` is an
    array. Chain: ``scale(sum_all(ewmul(d, d)), 1 / batch)`` with
    ``d = sub(pred, const(target))``."""
    target = as_matrix(target)
    if pred.value.shape != target.shape:
        raise ShapeError(f"sq_err_mean: shapes {pred.value.shape} and {target.shape} "
                         f"do not match")
    c = 1.0 / pred.value.shape[0]
    diff = pred.value - target
    out = np.array([[(diff * diff).sum()]]) * c

    def bwd(g):
        fd = (g * c)[0, 0] * diff
        return (fd + fd,)

    return pred.tape._record(out, "sq_err_mean", (pred,), bwd)


def gram_penalty(ws):
    """``0.5 * sum over pairs a <= b`` of the batch mean of ``(G_ab - [a == b])^2``,
    weighted 2 off the diagonal, where ``G_ab`` is the row-wise dot product of
    ``ws[a]`` and ``ws[b]``; one 1x1 node over the K weight nodes. Chain: per
    pair ``row_sum(ewmul)``, then ``mean_all(ewmul(dev, dev))`` with
    ``dev = sub(gram, ones)`` on the diagonal and
    ``scale(mean_all(ewmul(gram, gram)), 2)`` off it, the terms folded by
    ``add`` and scaled by 0.5."""
    for w in ws[1:]:
        _same_shape(ws[0], w, "gram_penalty")
    vals = [w.value for w in ws]
    pairs = [(a, b) for a in range(len(ws)) for b in range(a, len(ws))]
    n = vals[0].shape[0]
    saved, total = [], None
    for a, b in pairs:
        gram = (vals[a] * vals[b]).sum(axis=1, keepdims=True)
        if a == b:
            gram = gram - 1.0  # the deviation from the identity
            term = np.array([[(gram * gram).sum() / n]])
        else:
            term = np.array([[(gram * gram).sum() / n]]) * 2.0
        saved.append(gram)
        total = term if total is None else total + term

    def bwd(g):
        g = g * 0.5
        acc = [None] * len(ws)
        for (a, b), gram in zip(reversed(pairs), reversed(saved)):
            f = (g[0, 0] if a == b else (g * 2.0)[0, 0]) / n
            d = f * gram + f * gram
            for i, other in ((a, b), (b, a)):
                contrib = d * vals[other]
                acc[i] = contrib if acc[i] is None else acc[i] + contrib
        return acc

    return ws[0].tape._record(total * 0.5, "gram_penalty", tuple(ws), bwd)


def clamped_bce(positives, negatives, eps):
    """Binary cross entropy, label 1 on every entry of ``positives`` and 0 on
    every entry of ``negatives``, probabilities clipped to [eps, 1 - eps] and
    the mean taken over all entries; one 1x1 node. Chain: per column
    ``scale(sum_all(log(clamp(q))), -1)`` with ``q = p`` for a positive and
    ``q = sub(ones, p)`` for a negative, the terms folded by ``add`` and
    scaled by ``1 / entries``."""
    probs = (*positives, *negatives)
    lo, hi = eps, 1.0 - eps
    c = 1.0 / sum(p.value.size for p in probs)
    qs = [p.value for p in positives] + [1.0 - p.value for p in negatives]
    clipped = [np.clip(q, lo, hi) for q in qs]
    total = None
    for q in clipped:
        term = np.array([[np.log(q).sum()]]) * -1.0
        total = term if total is None else total + term

    def bwd(g):
        f = ((g * c) * -1.0)[0, 0]
        out = [(f / clip) * ((q > lo) & (q < hi)) for q, clip in zip(qs, clipped)]
        return out[:len(positives)] + [-d for d in out[len(positives):]]

    return probs[0].tape._record(total * c, "clamped_bce", probs, bwd)


def abs_diff(a, b):
    """``|a - b|``; chain ``absval(sub(a, b))``."""
    _same_shape(a, b, "abs_diff")
    diff = a.value - b.value

    def bwd(g):
        g = kernels.abs_bwd(diff, g)
        return g, -g

    return a.tape._record(np.abs(diff), "abs_diff", (a, b), bwd)


def average(nodes):
    """Elementwise mean of same-shaped nodes; chain: ``add`` fold, then
    ``scale(., 1 / len(nodes))``."""
    for node in nodes[1:]:
        _same_shape(nodes[0], node, "average")
    c = 1.0 / len(nodes)
    acc = nodes[0].value
    for node in nodes[1:]:
        acc = acc + node.value

    def bwd(g):
        return (g * c,) * len(nodes)

    return nodes[0].tape._record(acc * c, "average", tuple(nodes), bwd)


def add(a, b):
    _same_shape(a, b, "add")

    def bwd(g):
        return g, g

    return a.tape._record(a.value + b.value, "add", (a, b), bwd)


def sub(a, b):
    _same_shape(a, b, "sub")

    def bwd(g):
        return g, -g

    return a.tape._record(a.value - b.value, "sub", (a, b), bwd)


def ewmul(a, b):
    _same_shape(a, b, "ewmul")

    def bwd(g):
        return g * b.value, g * a.value

    return a.tape._record(a.value * b.value, "ewmul", (a, b), bwd)


def add_bias(x, b):
    """Row-broadcast bias add: x is (B, n), b is (1, n)."""
    if b.value.shape != (1, x.value.shape[1]):
        raise ShapeError(
            f"add_bias: bias shape {b.value.shape} does not broadcast over {x.value.shape}"
        )

    def bwd(g):
        return g, g.sum(axis=0, keepdims=True)

    return x.tape._record(x.value + b.value, "add_bias", (x, b), bwd)


def scale(x, c):
    c = float(c)

    def bwd(g):
        return (g * c,)

    return x.tape._record(x.value * c, "scale", (x,), bwd)


def relu(x):
    def bwd(g):
        return (kernels.relu_bwd(x.value, g),)

    return x.tape._record(kernels.relu(x.value), "relu", (x,), bwd)


def sigmoid(x):
    out = kernels.sigmoid(x.value)

    def bwd(g):
        return (kernels.sigmoid_bwd(out, g),)

    return x.tape._record(out, "sigmoid", (x,), bwd)


def absval(x):
    def bwd(g):
        return (kernels.abs_bwd(x.value, g),)

    return x.tape._record(np.abs(x.value), "abs", (x,), bwd)


def log(x):
    def bwd(g):
        return (g / x.value,)

    return x.tape._record(np.log(x.value), "log", (x,), bwd)


def clamp(x, lo, hi):
    """Clip to [lo, hi]; gradient passes only strictly inside the interval."""

    def bwd(g):
        return (g * ((x.value > lo) & (x.value < hi)),)

    return x.tape._record(np.clip(x.value, lo, hi), "clamp", (x,), bwd)


def row_sum(x):
    """Sum along each row -> (B, 1)."""

    def bwd(g):
        return (np.broadcast_to(g, x.value.shape),)

    return x.tape._record(x.value.sum(axis=1, keepdims=True), "row_sum", (x,), bwd)


def sum_all(x):
    def bwd(g):
        return (np.full(x.value.shape, g[0, 0]),)

    return x.tape._record(
        np.array([[x.value.sum()]]), "sum_all", (x,), bwd
    )


def mean_all(x):
    n = x.value.size

    def bwd(g):
        return (np.full(x.value.shape, g[0, 0] / n),)

    return x.tape._record(
        np.array([[x.value.sum() / n]]), "mean_all", (x,), bwd
    )


def grad_reverse(x, lam=1.0):
    """Identity forward; backward multiplies the upstream gradient by -lam."""
    lam = float(lam)
    if lam < 0.0:
        raise ValueError(f"grad_reverse coefficient must be >= 0, got {lam}")

    def bwd(g):
        return (-lam * g,)

    return x.tape._record(x.value, "grad_reverse", (x,), bwd)
