"""Elementwise numeric kernels shared by the tape ops and the array forward.

``model.mlp_forward`` and the ``autodiff`` ops call the same ``sigmoid`` and
``relu``, which keeps the two forward paths bitwise equal. Matrix products
are not here: they go straight to BLAS through ``@``. Every kernel is plain
numpy, sequential and bitwise deterministic for fixed inputs.

``sigmoid`` and ``relu`` take an optional ``out`` array, which may be ``x``
itself; they then write their result there with in-place ufuncs instead of
allocating temporaries, and give the same bits as the out-of-place call.
"""

import numpy as np


def sigmoid(x, out=None):
    # exp(-|x|) never overflows; the two branches pick the stable form,
    # 1 / (1 + z) for x >= 0 and z / (1 + z) below. The mask is taken
    # before anything is written, because ``out`` may alias ``x``.
    pos = np.greater_equal(x, 0.0)
    if out is None:
        out = np.empty_like(x, dtype=np.result_type(x, 1.0))
    z = np.abs(x, out=out)
    np.negative(z, out=z)
    np.exp(z, out=z)
    den = z + 1.0
    np.divide(1.0, den, out=z, where=pos)
    np.divide(z, den, out=z, where=~pos)
    return z


def sigmoid_bwd(out, g):
    return g * out * (1.0 - out)


def relu(x, out=None):
    return np.maximum(x, 0.0, out=out)


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
