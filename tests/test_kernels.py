import numpy as np
import pytest

from adadrug import kernels


def _rand(shape, seed):
    return np.random.default_rng(seed).normal(size=shape)


def test_adam_step_matches_textbook_formula():
    p = _rand((3, 3), seed=6)
    g = _rand((3, 3), seed=7)
    m, v = np.zeros_like(p), np.zeros_like(p)
    expect = p - 1e-2 * ((1 - 0.9) * g / (1 - 0.9)) / (
        np.sqrt((1 - 0.999) * g * g / (1 - 0.999)) + 1e-8
    )
    kernels.adam_step(p, g, m, v, 1e-2, 0.9, 0.999, 1e-8, 1)
    np.testing.assert_allclose(p, expect, rtol=1e-12)


def test_adam_zero_gradient_zero_state_is_identity():
    p = _rand((4, 4), seed=8)
    before = p.copy()
    kernels.adam_step(p, np.zeros_like(p), np.zeros_like(p), np.zeros_like(p),
                      1e-3, 0.9, 0.999, 1e-8, 1)
    assert np.abs(p - before).max() < 1e-12


def test_pairwise_matches_bruteforce():
    a = _rand((5, 3), seed=11)
    b = _rand((4, 3), seed=12)
    got = kernels.pairwise_sq_dists(a, b)
    for i in range(5):
        for j in range(4):
            assert got[i, j] == pytest.approx(((a[i] - b[j]) ** 2).sum(), rel=1e-12)


def test_sigmoid_is_stable_at_extremes():
    x = np.array([[-1e6, -50.0, 0.0, 50.0, 1e6]])
    out = kernels.sigmoid(x)
    assert np.isfinite(out).all()
    assert out[0, 2] == 0.5
