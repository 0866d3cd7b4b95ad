"""Numeric kernels shared by the tape ops and the array forward.

``dense`` is the one dense-layer implementation: ``model.mlp_forward`` calls
it directly and ``autodiff.dense`` records it on the tape, so the two forward
paths share their code instead of being kept bitwise equal by hand. Its
matrix product goes straight to BLAS, into ``out`` when given (each of
``mlp_forward``'s lanes writes its rows of one result so); bias and
activation are applied in place on that product. Every kernel is plain
numpy, sequential and bitwise deterministic for fixed inputs.

``sigmoid`` and ``relu`` take an optional ``out`` array, which may be ``x``
itself; they then write their result there with in-place ufuncs instead of
allocating temporaries, and give the same bits as the out-of-place call.

BLAS sums a wide product's terms in an order that depends on how many
threads it runs the product on. ``one_blas_thread`` pins the loaded OpenBLAS
to one thread for a block and gives the caller's count back after it;
``train.train`` and ``model.mlp_forward`` run inside it, so their bits depend
on the seed, the BLAS build and the CPU kernel only, not on
``OPENBLAS_NUM_THREADS``. ``blas_threads`` reads the count. The pin is also
where adadrug sets glibc's heap policy, once per process
(``_keep_freed_heap``), so training and scoring both get it, whichever runs
first.
"""

import contextlib
import ctypes
import functools
import platform
import threading

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
_BLAS_SET_THREADS = tuple(name.replace("_get_", "_set_") for name in _BLAS_GET_THREADS)


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


@functools.cache
def _blas_thread_calls():
    """(get, set): the loaded OpenBLAS's thread-count getter and setter as
    ctypes functions, or None when no loaded library exports both."""
    get = _openblas_function(_BLAS_GET_THREADS)
    put = _openblas_function(_BLAS_SET_THREADS)
    if get is None or put is None:
        return None
    get.argtypes, get.restype = (), ctypes.c_int
    put.argtypes, put.restype = (ctypes.c_int,), None
    return get, put


def blas_threads():
    """Threads the loaded OpenBLAS runs a product on, read from the library
    itself; None when no loaded library exports the thread-count calls."""
    calls = _blas_thread_calls()
    return None if calls is None else calls[0]()


# A training step frees its whole graph as it returns, and a scoring block its
# 2 MB generator result. By default glibc then hands that heap top back to the
# kernel, and the next step or block takes the same pages again, one page
# fault each: about 1,100 a paper-width step at 60 genes, a fifth of its time.
# M_TOP_PAD keeps _HEAP_TOP_PAD freed bytes at the heap top for reuse; it
# lowers no peak and keeps only pages the peak touched. Any mallopt call
# freezes glibc's mmap threshold, which otherwise rises as a run goes on, so
# it is set to the ceiling it would rise to (32 MB on 64-bit): an array above
# the threshold is mapped, and zeroed, afresh each time.
_M_TOP_PAD, _M_MMAP_THRESHOLD = -2, -3  # glibc's mallopt parameters, malloc.h
_HEAP_TOP_PAD = 64 << 20  # above a paper-width step at 500 genes (10.4 MB traced)
_MMAP_THRESHOLD = 32 << 20


@functools.cache
def _keep_freed_heap():
    """Sets glibc's heap policy above; does nothing under another C library.
    Runs once per process: a dropped ``ctypes.CDLL`` is cyclic garbage."""
    if platform.libc_ver()[0] == "glibc":
        mallopt = ctypes.CDLL(None).mallopt
        mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
        mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD)
        mallopt(_M_TOP_PAD, _HEAP_TOP_PAD)


_pin_lock = threading.Lock()
_pin_depth = 0  # one_blas_thread blocks open now, in any thread
_pin_saved = None  # the count the first of them found


@contextlib.contextmanager
def one_blas_thread():
    """Runs the block with the loaded OpenBLAS on one thread and restores the
    caller's count after it, also when the block raises. Blocks may nest and
    overlap across threads: the first to enter saves the count, and the last
    to leave restores it. Does nothing where no loaded OpenBLAS exports the
    thread-count calls. Also a decorator: each call runs inside the pin.
    Every entry first makes sure the heap policy is set (``_keep_freed_heap``),
    with or without OpenBLAS."""
    global _pin_depth, _pin_saved
    _keep_freed_heap()
    calls = _blas_thread_calls()
    if calls is None:
        yield
        return
    get, put = calls
    with _pin_lock:
        if _pin_depth == 0:
            _pin_saved = get()
            put(1)
        _pin_depth += 1
    try:
        yield
    finally:
        with _pin_lock:
            _pin_depth -= 1
            if _pin_depth == 0:
                put(_pin_saved)


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


def dense(x, W, b, act, out=None):
    """``act(x @ W + b)`` for act in relu, sigmoid, none; ``x`` is only read.
    The product goes to ``out`` if given, else to the one array the layer
    allocates, and bias and activation apply in place there."""
    a = np.matmul(x, W, out=out)
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
