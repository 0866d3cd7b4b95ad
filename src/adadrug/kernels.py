"""Elementwise numeric kernels shared by the tape ops and the array forward.

``model.mlp_forward`` and the ``autodiff`` ops call the same ``sigmoid`` and
``relu``, which keeps the two forward paths bitwise equal. Matrix products
are not here: they go straight to BLAS through ``@``. Every kernel is plain
numpy, sequential and bitwise deterministic for fixed inputs.
"""

import numpy as np


def sigmoid(x):
    # exp(-|x|) never overflows; the two branches pick the stable form
    z = np.exp(-np.abs(x))
    return np.where(x >= 0.0, 1.0 / (1.0 + z), z / (1.0 + z))


def sigmoid_bwd(out, g):
    return g * out * (1.0 - out)


def relu(x):
    return np.maximum(x, 0.0)


def relu_bwd(x, g):
    return g * (x > 0.0)


def abs_bwd(x, g):
    return g * np.sign(x)


def adam_step(p, g, m, v, lr, b1, b2, eps, t):
    """One in-place Adam update for a single parameter array."""
    m *= b1
    m += (1.0 - b1) * g
    v *= b2
    v += (1.0 - b2) * g * g
    mhat = m / (1.0 - b1 ** t)
    vhat = v / (1.0 - b2 ** t)
    p -= lr * mhat / (np.sqrt(vhat) + eps)


def pairwise_sq_dists(a, b):
    """Squared Euclidean distances, rows of a vs rows of b -> (len(a), len(b))."""
    diff = a[:, None, :] - b[None, :, :]
    return np.einsum("ijk,ijk->ij", diff, diff)
