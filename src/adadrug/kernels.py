"""Numeric kernels shared by the tape ops and the array forward.

``dense`` is the one dense-layer implementation: ``model.mlp_forward`` calls
it directly and ``autodiff.dense`` records it on the tape, so the two forward
paths share their code instead of being kept bitwise equal by hand. Its
matrix product goes straight to BLAS through ``@``; bias and activation are
applied in place on that fresh product. Every kernel is plain numpy,
sequential and bitwise deterministic for fixed inputs.

``sigmoid`` and ``relu`` take an optional ``out`` array, which may be ``x``
itself; they then write their result there with in-place ufuncs instead of
allocating temporaries, and give the same bits as the out-of-place call.

``blas_threads`` reads how many threads the loaded OpenBLAS runs a product
on; ``model.mlp_forward`` splits a large batch into row lanes only when it
reads 1.
"""

import ctypes
import functools

import numpy as np

# bytes of the rows x len(b) x G difference tensor one pairwise_sq_dists block
# may hold (at least one row); a whole-matrix tensor grows as n^2 G, which is
# 2.9 GB for 300 samples over 4,000 genes
PAIRWISE_BLOCK_BYTES = 4 << 20

# elements of each array one adam_step block touches: 256 KB of float64, so
# the six arrays of a block (p, g, m, v and two scratch) stay in cache
ADAM_BLOCK = 1 << 15

# thread-count getters of the OpenBLAS builds numpy and scipy load (the
# scipy-openblas wheels prefix and suffix every symbol)
_BLAS_GET_THREADS = ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads")


@functools.cache
def _openblas_function(names):
    """The first of ``names`` that a loaded OpenBLAS library exports, as a
    ctypes function, or None. Looked up once per tuple: a dropped
    ``ctypes.CDLL`` is cyclic garbage."""
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({ln.split()[-1] for ln in fh
                           if "openblas" in ln.lower() and ".so" in ln})
    except OSError:
        return None
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in names:
            fn = getattr(lib, name, None)
            if fn is not None:
                return fn
    return None


def blas_threads():
    """Threads the loaded OpenBLAS runs a product on, read from the library
    itself; None when no loaded library exports a thread-count getter."""
    fn = _openblas_function(_BLAS_GET_THREADS)
    if fn is None:
        return None
    fn.argtypes, fn.restype = (), ctypes.c_int
    return fn()


def sigmoid(x, out=None):
    # exp(-|x|) never overflows; the two branches pick the stable form,
    # 1 / (1 + z) for x >= 0 and z / (1 + z) below, by setting the numerator
    # z to 1 where x >= 0 and dividing once. The mask is taken before
    # anything is written, because ``out`` may alias ``x``.
    pos = np.greater_equal(x, 0.0)
    if out is None:
        out = np.empty_like(x, dtype=np.result_type(x, 1.0))
    z = np.abs(x, out=out)
    np.negative(z, out=z)
    np.exp(z, out=z)
    den = z + 1.0
    np.copyto(z, 1.0, where=pos)
    np.divide(z, den, out=z)
    return z


def sigmoid_bwd(out, g):
    return g * out * (1.0 - out)


def relu(x, out=None):
    return np.maximum(x, 0.0, out=out)


def dense(x, W, b, act):
    """``act(x @ W + b)`` for act in relu, sigmoid, none; ``x`` is only read,
    and the result is the one array the layer allocates."""
    a = x @ W
    a += b
    if act == "relu":
        relu(a, out=a)
    elif act == "sigmoid":
        sigmoid(a, out=a)
    elif act != "none":
        raise ValueError(f"unknown activation {act!r}")
    return a


def relu_bwd(x, g):
    return g * (x > 0.0)


def abs_bwd(x, g):
    return g * np.sign(x)


def _flat(a, name):
    """``a`` as a 1-D view; an array only a copy could flatten is refused,
    because an update written to the copy would be lost."""
    if not a.flags.c_contiguous:
        raise ValueError(f"adam_step: {name} is not C-contiguous")
    return a.reshape(-1)


def adam_step(p, g, m, v, lr, b1, b2, eps, t, s1, s2):
    """One in-place Adam update for a single parameter array.

    ``p``, ``g``, ``m`` and ``v`` are C-contiguous arrays of one size, walked
    as flat vectors in blocks of ``ADAM_BLOCK`` elements, so every array a
    block touches stays in cache. ``s1`` and ``s2`` are C-contiguous scratch
    arrays of at least one block (or ``p.size``, if smaller); with them the
    update allocates nothing. Each block runs the ufuncs of the textbook order

        m = b1 m + (1 - b1) g;  v = b2 v + ((1 - b2) g) g
        p -= (lr (m / (1 - b1^t))) / (sqrt(v / (1 - b2^t)) + eps)

    one by one; the update is elementwise, so it gives the same bits as one
    pass over the whole arrays.
    """
    p, g, m, v = _flat(p, "p"), _flat(g, "g"), _flat(m, "m"), _flat(v, "v")
    s1, s2 = _flat(s1, "s1"), _flat(s2, "s2")
    n = p.size
    if not g.size == m.size == v.size == n:
        raise ValueError(f"adam_step: sizes differ: p {n}, g {g.size}, m {m.size}, "
                         f"v {v.size}")
    c1, c2 = 1.0 - b1 ** t, 1.0 - b2 ** t
    for lo in range(0, n, ADAM_BLOCK):
        hi = min(lo + ADAM_BLOCK, n)
        pb, gb, mb, vb = p[lo:hi], g[lo:hi], m[lo:hi], v[lo:hi]
        t1, t2 = s1[: hi - lo], s2[: hi - lo]
        np.multiply(gb, 1.0 - b1, out=t1)
        mb *= b1
        mb += t1
        np.multiply(gb, 1.0 - b2, out=t1)
        t1 *= gb
        vb *= b2
        vb += t1
        np.divide(mb, c1, out=t1)
        t1 *= lr
        np.divide(vb, c2, out=t2)
        np.sqrt(t2, out=t2)
        t2 += eps
        t1 /= t2
        pb -= t1


def pairwise_sq_dists(a, b):
    """Squared Euclidean distances, rows of a vs rows of b -> (len(a), len(b)).

    Rows of ``a`` go in blocks whose difference tensor stays within
    ``PAIRWISE_BLOCK_BYTES``; each block runs the same einsum, which sums each
    entry over the genes on its own, so the result does not depend on the
    block size.
    """
    out = np.empty((len(a), len(b)), dtype=np.result_type(a, b))
    rows = max(1, PAIRWISE_BLOCK_BYTES // (out.itemsize * max(1, b.size)))
    for start in range(0, len(a), rows):
        diff = a[start : start + rows, None, :] - b[None, :, :]
        out[start : start + rows] = np.einsum("ijk,ijk->ij", diff, diff)
    return out
