import sys
import threading
import time
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adadrug import kernels

from conftest import blas_threads_set


def _rand(shape, seed):
    return np.random.default_rng(seed).normal(size=shape)


def test_adam_step_matches_textbook_formula():
    p = _rand((3, 3), seed=6)
    g = _rand((3, 3), seed=7)
    m, v = np.zeros_like(p), np.zeros_like(p)
    expect = p - 1e-2 * ((1 - 0.9) * g / (1 - 0.9)) / (
        np.sqrt((1 - 0.999) * g * g / (1 - 0.999)) + 1e-8
    )
    kernels.adam_step(p, g, m, v, 1e-2, 0.9, 0.999, 1e-8, 1,
                      np.empty_like(p), np.empty_like(p))
    np.testing.assert_allclose(p, expect, rtol=1e-12)


def test_adam_zero_gradient_zero_state_is_identity():
    p = _rand((4, 4), seed=8)
    before = p.copy()
    kernels.adam_step(p, np.zeros_like(p), np.zeros_like(p), np.zeros_like(p),
                      1e-3, 0.9, 0.999, 1e-8, 1, np.empty_like(p), np.empty_like(p))
    assert np.abs(p - before).max() < 1e-12


@pytest.mark.parametrize("shape", [(3, 5), (1, 1), (2 * kernels.ADAM_BLOCK + 5,)])
def test_adam_step_is_bitwise_the_textbook_order(shape):
    # the last shape is two whole blocks and a remainder; scratch is one block
    lr, b1, b2, eps = 3e-3, 0.9, 0.999, 1e-8
    p = _rand(shape, seed=16)
    m, v = np.zeros_like(p), np.zeros_like(p)
    s1, s2 = (np.full(min(p.size, kernels.ADAM_BLOCK), np.nan) for _ in range(2))
    p_ref, m_ref, v_ref = p.copy(), m.copy(), v.copy()
    for t in range(1, 6):
        g = _rand(shape, seed=16 + t)
        kernels.adam_step(p, g, m, v, lr, b1, b2, eps, t, s1, s2)
        m_ref = b1 * m_ref + (1.0 - b1) * g
        v_ref = b2 * v_ref + (1.0 - b2) * g * g
        mhat = m_ref / (1.0 - b1 ** t)
        vhat = v_ref / (1.0 - b2 ** t)
        p_ref = p_ref - lr * mhat / (np.sqrt(vhat) + eps)
        for got, want in ((p, p_ref), (m, m_ref), (v, v_ref)):
            assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("name", ["p", "g", "m", "v"])
def test_adam_step_refuses_an_array_it_could_only_reach_through_a_copy(name):
    arrays = {k: _rand((4, 6), seed=20 + i) for i, k in enumerate("pgmv")}
    arrays[name] = np.asfortranarray(arrays[name])
    before = {k: a.copy() for k, a in arrays.items()}
    with pytest.raises(ValueError, match=f"{name} is not C-contiguous"):
        kernels.adam_step(*arrays.values(), 1e-3, 0.9, 0.999, 1e-8, 1,
                          np.empty(24), np.empty(24))
    assert all(arrays[k].tobytes() == before[k].tobytes() for k in arrays)


def test_adam_step_refuses_arrays_of_different_sizes():
    p, m, v = np.zeros(6), np.zeros(6), np.zeros(6)
    with pytest.raises(ValueError, match="sizes differ"):
        kernels.adam_step(p, np.ones(7), m, v, 1e-3, 0.9, 0.999, 1e-8, 1,
                          np.empty(7), np.empty(7))


def test_dense_rejects_an_unknown_activation():
    x = _rand((2, 3), seed=17)
    with pytest.raises(ValueError, match="tanh"):
        kernels.dense(x, _rand((3, 2), seed=18), _rand((1, 2), seed=19), "tanh")


def test_pairwise_matches_bruteforce():
    a = _rand((5, 3), seed=11)
    b = _rand((4, 3), seed=12)
    got = kernels.pairwise_sq_dists(a, b)
    for i in range(5):
        for j in range(4):
            assert got[i, j] == pytest.approx(((a[i] - b[j]) ** 2).sum(), rel=1e-12)


def _one_shot_sq_dists(a, b):
    """The whole-matrix formula the blocked kernel replaced: one n x m x G
    difference tensor and one einsum."""
    diff = a[:, None, :] - b[None, :, :]
    return np.einsum("ijk,ijk->ij", diff, diff)


@given(m=st.integers(1, 6), genes=st.integers(1, 40), block=st.integers(1, 4),
       slack=st.integers(0, 7), extra=st.integers(-3, 9), seed=st.integers(0, 2**16))
@settings(max_examples=150, deadline=None)
def test_blocked_pairwise_is_bitwise_the_one_shot_formula(m, genes, block, slack,
                                                          extra, seed):
    # a budget of ``block`` rows plus some slack; n below, at and above a block
    n = max(1, block + extra)
    rng = np.random.default_rng(seed)
    a, b = rng.normal(size=(n, genes)), rng.normal(size=(m, genes))
    budget = 8 * m * genes * block + slack
    with mock.patch.object(kernels, "PAIRWISE_BLOCK_BYTES", budget):
        got = kernels.pairwise_sq_dists(a, b)
    assert got.tobytes() == _one_shot_sq_dists(a, b).tobytes()


def test_pairwise_peak_memory_stays_small_on_a_wide_minority_class():
    # one-shot: a 200 x 200 x 2000 float64 tensor, 640 MB
    a = _rand((200, 2000), seed=20)
    tracemalloc.start()
    try:
        got = kernels.pairwise_sq_dists(a, a)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16e6
    assert got[:40].tobytes() == _one_shot_sq_dists(a[:40], a).tobytes()


def test_sigmoid_is_stable_at_extremes():
    x = np.array([[-1e6, -50.0, 0.0, 50.0, 1e6]])
    out = kernels.sigmoid(x)
    assert np.isfinite(out).all()
    assert out[0, 2] == 0.5


# values at every branch and edge of the stable sigmoid and of relu
_EDGES = np.array([0.0, -0.0, 1e-300, -1e-300, 745.0, -745.0,
                   np.inf, -np.inf, np.nan])


@pytest.mark.parametrize("kernel", [kernels.sigmoid, kernels.relu])
def test_in_place_kernels_are_bitwise_equal_to_out_of_place(kernel):
    x = np.concatenate([_EDGES, _rand(201, seed=13), 40.0 * _rand(198, seed=14)])
    x = x.reshape(-1, 17)
    expect = kernel(x)
    into = np.full_like(x, 7.0)
    assert kernel(x, out=into) is into
    assert into.tobytes() == expect.tobytes()
    alias = x.copy()
    assert kernel(alias, out=alias) is alias
    assert alias.tobytes() == expect.tobytes()


def test_sigmoid_matches_the_two_branch_formula_bitwise():
    x = np.concatenate([_EDGES, _rand(300, seed=15)])
    z = np.exp(-np.abs(x))
    expect = np.where(x >= 0.0, 1.0 / (1.0 + z), z / (1.0 + z))
    assert kernels.sigmoid(x).tobytes() == expect.tobytes()


def test_one_blas_thread_blocks_overlapping_across_threads_restore_the_count_once():
    # the first block in saves the caller's count and the last out restores
    # it, so no block sees another's restore
    seen, start = [], threading.Barrier(4)

    def pinned_reads():
        start.wait(timeout=60)
        for _ in range(300):
            with kernels.one_blas_thread():
                time.sleep(0)  # let another thread enter or leave meanwhile
                seen.append(kernels.blas_threads())

    with blas_threads_set(2):
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=pinned_reads) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert len(seen) == 4 * 300 and set(seen) == {1}
        assert kernels.blas_threads() == 2
