import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adadrug import autodiff as ad

from conftest import UNFUSED, unfused_dense
from oracles import central_diff, max_rel_error


def leaf(values):
    return ad.Tape().leaf(values)


# ---------------------------------------------------------------------------
# forward semantics
# ---------------------------------------------------------------------------

def test_matmul_identity():
    t = ad.Tape()
    a = t.leaf([[1.0, 2.0], [3.0, 4.0]])
    eye = t.leaf(np.eye(2))
    np.testing.assert_array_equal(ad.matmul(eye, a).value, a.value)


def test_matmul_hand_case():
    t = ad.Tape()
    out = ad.matmul(t.leaf([[1.0, 2.0], [3.0, 4.0]]), t.leaf([[5.0], [6.0]]))
    np.testing.assert_array_equal(out.value, [[17.0], [39.0]])


def test_matmul_zero_case():
    t = ad.Tape()
    zero = t.leaf(np.zeros((2, 2)))
    a = t.leaf([[1.0, 2.0], [3.0, 4.0]])
    np.testing.assert_array_equal(ad.matmul(zero, a).value, np.zeros((2, 2)))


def test_matmul_identity_zero_associativity_exact():
    rng = np.random.default_rng(0)
    a_val = rng.normal(size=(3, 3))
    b_val = rng.normal(size=(3, 3))
    t = ad.Tape()
    a, b = t.leaf(a_val), t.leaf(b_val)
    eye, zero = t.leaf(np.eye(3)), t.leaf(np.zeros((3, 3)))
    left = ad.matmul(ad.matmul(a, eye), b).value
    right = ad.matmul(a, ad.matmul(eye, b)).value
    np.testing.assert_array_equal(left, right)
    np.testing.assert_array_equal(
        ad.matmul(ad.matmul(a, zero), b).value, np.zeros((3, 3))
    )


def test_matmul_shape_error_names_both_shapes():
    t = ad.Tape()
    with pytest.raises(ad.ShapeError, match=r"\(2, 3\).*\(2, 3\)"):
        ad.matmul(t.leaf(np.ones((2, 3))), t.leaf(np.ones((2, 3))))


def test_elementwise_forward_cases():
    t = ad.Tape()
    np.testing.assert_array_equal(
        ad.relu(t.leaf([[-1.0, 0.0, 2.0]])).value, [[0.0, 0.0, 2.0]]
    )
    np.testing.assert_array_equal(
        ad.ewmul(t.leaf([[1.0, 2.0]]), t.leaf([[3.0, 4.0]])).value, [[3.0, 8.0]]
    )
    np.testing.assert_array_equal(ad.absval(t.leaf([[-2.5, 3.0]])).value, [[2.5, 3.0]])


def test_binary_op_shape_mismatch():
    t = ad.Tape()
    with pytest.raises(ad.ShapeError):
        ad.ewmul(t.leaf(np.ones((2, 2))), t.leaf(np.ones((2, 3))))
    with pytest.raises(ad.ShapeError):
        ad.add_bias(t.leaf(np.ones((2, 2))), t.leaf(np.ones((1, 3))))
    with pytest.raises(ad.ShapeError, match=r"dense: inner.*\(2, 3\).*\(2, 3\)"):
        ad.dense(t.leaf(np.ones((2, 3))), t.leaf(np.ones((2, 3))),
                 t.leaf(np.ones((1, 3))), "relu")
    with pytest.raises(ad.ShapeError, match=r"dense: bias shape \(1, 2\)"):
        ad.dense(t.leaf(np.ones((2, 3))), t.leaf(np.ones((3, 4))),
                 t.leaf(np.ones((1, 2))), "none")


def test_grad_reverse_forward_identity_and_backward_negation():
    t = ad.Tape()
    x = t.leaf([[1.0, 2.0]])
    out = ad.grad_reverse(x, 1.0)
    np.testing.assert_array_equal(out.value, [[1.0, 2.0]])

    t = ad.Tape()
    x = t.leaf([[3.0]])
    loss = ad.sum_all(ad.grad_reverse(x, 1.0))
    ad.backward(t, loss)
    np.testing.assert_array_equal(x.grad, [[-1.0]])

    # upstream gradient of 3 via scale
    t = ad.Tape()
    x = t.leaf([[1.0]])
    loss = ad.scale(ad.grad_reverse(x, 1.0), 3.0)
    ad.backward(t, loss)
    np.testing.assert_array_equal(x.grad, [[-3.0]])


def test_grad_reverse_lambda_zero_disables_gradient():
    t = ad.Tape()
    x = t.leaf([[5.0]])
    loss = ad.sum_all(ad.grad_reverse(x, 0.0))
    ad.backward(t, loss)
    np.testing.assert_array_equal(x.grad, [[0.0]])


def test_grad_reverse_rejects_negative_lambda():
    t = ad.Tape()
    with pytest.raises(ValueError):
        ad.grad_reverse(t.leaf([[1.0]]), -0.5)


# ---------------------------------------------------------------------------
# backward
# ---------------------------------------------------------------------------

def test_quadratic_gradient():
    t = ad.Tape()
    x = t.leaf([[3.0]])
    loss = ad.sum_all(ad.ewmul(x, x))
    ad.backward(t, loss)
    np.testing.assert_array_equal(x.grad, [[6.0]])


def test_abs_backward_at_negative_two():
    t = ad.Tape()
    x = t.leaf([[-2.0]])
    loss = ad.sum_all(ad.absval(x))
    ad.backward(t, loss)
    assert x.grad[0, 0] == -1.0


@pytest.mark.parametrize("op,expect", [(ad.relu, [0.0, 0.0, 0.0, 1.0]),
                                       (ad.absval, [-1.0, 0.0, 0.0, 1.0])])
def test_subgradient_at_the_kink_is_zero(op, expect):
    t = ad.Tape()
    x = t.leaf([[-2.0, 0.0, -0.0, 2.0]])
    ad.backward(t, ad.sum_all(op(x)))
    np.testing.assert_array_equal(x.grad, [expect])


def test_clamp_passes_no_gradient_at_either_bound():
    t = ad.Tape()
    x = t.leaf([[-1.0, -0.5, 0.0, 0.5, 1.0]])
    y = ad.clamp(x, -0.5, 0.5)
    ad.backward(t, ad.sum_all(y))
    np.testing.assert_array_equal(y.value, [[-0.5, -0.5, 0.0, 0.5, 0.5]])
    np.testing.assert_array_equal(x.grad, [[0.0, 0.0, 1.0, 0.0, 0.0]])


def test_detached_leaf_gets_zero_gradient():
    t = ad.Tape()
    x = t.leaf([[3.0]])
    unused = t.leaf([[4.0]])
    ad.backward(t, ad.sum_all(ad.ewmul(x, x)))
    np.testing.assert_array_equal(unused.grad, [[0.0]])


def test_backward_requires_scalar_loss():
    t = ad.Tape()
    x = t.leaf(np.ones((2, 2)))
    with pytest.raises(ValueError, match="1x1"):
        ad.backward(t, ad.relu(x))


def test_backward_adds_into_leaf_buffers():
    t = ad.Tape()
    x = t.leaf([[3.0]])
    loss = ad.sum_all(ad.ewmul(x, x))
    ad.backward(t, loss)
    ad.backward(t, loss)
    np.testing.assert_array_equal(x.grad, [[12.0]])
    # only leaves hold a gradient buffer; interior gradients live in backward
    assert [node.grad for node in t.nodes if node.parents] == [None, None]


def test_leaf_contributions_added_as_they_arrive_are_bitwise_the_sum_first():
    # four contributions per entry, signed zeros and a subnormal among them;
    # the reverse walk passes them in the order c4, c3, c2, c1
    rng = np.random.default_rng(3)
    pool = np.array([-0.0, 0.0, 1.0, -1.0, 0.1, -0.3, 5e-324])
    cs = [rng.choice(pool, size=(64, 64)) for _ in range(4)]
    t = ad.Tape()
    x = t.leaf(rng.normal(size=(64, 64)))
    e = [ad.ewmul(x, t.const(c)) for c in cs]
    ad.backward(t, ad.sum_all(ad.add(ad.add(e[0], e[1]), ad.add(e[2], e[3]))))
    want = np.zeros((64, 64)) + (((cs[3] + cs[2]) + cs[1]) + cs[0])
    assert x.grad.tobytes() == want.tobytes()


def test_backward_adds_leaf_contributions_without_a_second_copy():
    # summing a leaf's four contributions before adding them held two partial
    # sums beside the source gradient and the contribution: four leaf sizes
    t = ad.Tape()
    x = t.leaf(np.random.default_rng(0).normal(size=(512, 512)))
    loss = ad.sum_all(ad.average([x, x, x, x]))
    tracemalloc.start()
    try:
        ad.backward(t, loss)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (x.grad == 1.0).all()
    assert peak < 3 * x.value.nbytes, f"peak {peak / x.value.nbytes:.2f} leaf sizes"


def test_leaf_adds_into_a_given_buffer_and_const_holds_none():
    t = ad.Tape()
    flat = np.zeros(3)
    x = t.leaf([[3.0]], grad=flat[1:2].reshape(1, 1))
    c = t.const([[2.0]])
    ad.backward(t, ad.sum_all(ad.ewmul(ad.ewmul(x, x), c)))
    assert c.grad is None and c.op == "const"
    np.testing.assert_array_equal(flat, [0.0, 12.0, 0.0])  # d(c x^2)/dx = 2 c x


def test_needs_grad_marks_the_nodes_a_leaf_reaches():
    t = ad.Tape()
    x, c = t.leaf([[1.0]]), t.const([[2.0]])
    assert x.needs_grad and not c.needs_grad
    assert not ad.ewmul(ad.add(c, c), c).needs_grad
    assert ad.ewmul(c, ad.scale(x, 2.0)).needs_grad


def test_dense_passes_no_gradient_to_a_const_input():
    rng = np.random.default_rng(3)
    x_val, w_val, b_val, c_val = (rng.normal(size=s)
                                  for s in ((4, 3), (3, 5), (1, 5), (4, 5)))

    def run(enter):
        t = ad.Tape()
        x, w, b = enter(t, x_val), t.leaf(w_val), t.leaf(b_val)
        out = ad.dense(x, w, b, "relu")
        ad.backward(t, ad.sum_all(ad.ewmul(out, t.const(c_val))))
        return x, out, w.grad, b.grad

    _, out, w_grad, b_grad = run(ad.Tape.const)
    assert out._backward(np.ones(out.shape))[0] is None
    leaf_x, leaf_out, leaf_w_grad, leaf_b_grad = run(ad.Tape.leaf)
    assert leaf_out._backward(np.ones(out.shape))[0] is not None
    assert np.abs(leaf_x.grad).sum() > 0.0
    assert w_grad.tobytes() == leaf_w_grad.tobytes()
    assert b_grad.tobytes() == leaf_b_grad.tobytes()


def _composite_loss(tape, x, w, b):
    """Exercise every primitive in one graph."""
    h = ad.add_bias(ad.matmul(x, w), b)
    h = ad.relu(h)
    s = ad.sigmoid(h)
    a = ad.absval(ad.sub(s, ad.scale(h, 0.25)))
    m = ad.ewmul(a, ad.clamp(s, 1e-7, 1.0 - 1e-7))
    lg = ad.log(ad.clamp(ad.add(s, s), 1e-7, 2.0 - 1e-7))
    col = ad.row_sum(ad.add(m, lg))
    return ad.add(ad.mean_all(col), ad.scale(ad.sum_all(ad.grad_reverse(m, 0.7)), 0.01))


def test_composite_graph_matches_central_differences():
    rng = np.random.default_rng(42)
    x_val = rng.normal(size=(3, 4)) + 0.1  # nudge away from relu/abs kinks
    w_val = rng.normal(size=(4, 4))
    b_val = rng.normal(size=(1, 4))

    def run():
        t = ad.Tape()
        x, w, b = t.leaf(x_val), t.leaf(w_val), t.leaf(b_val)
        return t, x, w, b, _composite_loss(t, x, w, b)

    t, x, w, b, loss = run()
    ad.backward(t, loss)
    # grad_reverse flips the sign of one additive term for every upstream
    # parameter, so finite differences must see that term with coefficient
    # -0.7 instead of +0.7; build the FD target from a reversal-free graph.
    analytic = [x.grad.copy(), w.grad.copy(), b.grad.copy()]

    def fd_value():
        t2 = ad.Tape()
        x2, w2, b2 = t2.leaf(x_val), t2.leaf(w_val), t2.leaf(b_val)
        h = ad.add_bias(ad.matmul(x2, w2), b2)
        h = ad.relu(h)
        s = ad.sigmoid(h)
        a = ad.absval(ad.sub(s, ad.scale(h, 0.25)))
        m = ad.ewmul(a, ad.clamp(s, 1e-7, 1.0 - 1e-7))
        lg = ad.log(ad.clamp(ad.add(s, s), 1e-7, 2.0 - 1e-7))
        col = ad.row_sum(ad.add(m, lg))
        # the reversed branch contributes -0.7 * d(sum(m))/dp
        val = ad.add(ad.mean_all(col), ad.scale(ad.sum_all(m), -0.7 * 0.01))
        return float(val.value[0, 0])

    numeric = central_diff(fd_value, [x_val, w_val, b_val], h=1e-5)
    assert max_rel_error(analytic, numeric) < 1e-4


_UNARY = {
    "relu": ad.relu,
    "sigmoid": ad.sigmoid,
    "abs": ad.absval,
    "scale": lambda x: ad.scale(x, -1.7),
    "row_sum": ad.row_sum,
    "mean_all": ad.mean_all,
    "sum_all": ad.sum_all,
    "log_shifted": lambda x: ad.log(ad.clamp(ad.sigmoid(x), 1e-7, 1 - 1e-7)),
    "clamp": lambda x: ad.clamp(x, -0.4, 0.4),
}


@pytest.mark.parametrize("name", sorted(_UNARY))
def test_unary_gradients_match_finite_differences(name):
    rng = np.random.default_rng(hash(name) % 2**32)
    x_val = rng.normal(size=(3, 4))
    # keep away from relu/abs kinks and clamp edges
    x_val[np.abs(x_val) < 1e-3] = 0.1
    x_val[np.abs(np.abs(x_val) - 0.4) < 1e-3] += 0.01
    op = _UNARY[name]

    def build():
        t = ad.Tape()
        x = t.leaf(x_val)
        out = op(x)
        if out.value.shape != (1, 1):
            out = ad.sum_all(out)
        return t, x, out

    t, x, loss = build()
    ad.backward(t, loss)

    def fd_value():
        _, _, out = build()
        return float(out.value[0, 0])

    numeric = central_diff(fd_value, [x_val], h=1e-5)
    assert max_rel_error([x.grad], numeric) < 1e-4


_BINARY = {
    "add": ad.add,
    "sub": ad.sub,
    "ewmul": ad.ewmul,
    "matmul": ad.matmul,
}


@pytest.mark.parametrize("name", sorted(_BINARY))
def test_binary_gradients_match_finite_differences(name):
    rng = np.random.default_rng(1000 + len(name))
    a_val = rng.normal(size=(3, 4))
    b_val = rng.normal(size=(4, 3)) if name == "matmul" else rng.normal(size=(3, 4))
    op = _BINARY[name]

    def build():
        t = ad.Tape()
        a, b = t.leaf(a_val), t.leaf(b_val)
        return t, a, b, ad.sum_all(op(a, b))

    t, a, b, loss = build()
    ad.backward(t, loss)

    def fd_value():
        return float(build()[3].value[0, 0])

    numeric = central_diff(fd_value, [a_val, b_val], h=1e-5)
    assert max_rel_error([a.grad, b.grad], numeric) < 1e-4


def test_add_bias_gradients_match_finite_differences():
    rng = np.random.default_rng(77)
    x_val = rng.normal(size=(3, 4))
    b_val = rng.normal(size=(1, 4))

    def build():
        t = ad.Tape()
        x, b = t.leaf(x_val), t.leaf(b_val)
        return t, x, b, ad.sum_all(ad.sigmoid(ad.add_bias(x, b)))

    t, x, b, loss = build()
    ad.backward(t, loss)
    numeric = central_diff(lambda: float(build()[3].value[0, 0]), [x_val, b_val])
    assert max_rel_error([x.grad, b.grad], numeric) < 1e-4


_DENSE_EDGES = np.array([[0.0, -0.0, 1e-300, -1e-300, 745.0, -745.0]])


@pytest.mark.parametrize("shared_input", [False, True])
@pytest.mark.parametrize("act", ["relu", "sigmoid", "none"])
def test_dense_is_bitwise_the_unfused_chain(act, shared_input):
    rng = np.random.default_rng(5)
    x_val = np.vstack([_DENSE_EDGES, np.zeros((1, 6)), rng.normal(size=(3, 6))])
    w_val = rng.normal(size=(6, 6))
    w_val[:, 1] = -np.abs(w_val[:, 1])  # the zero row's product is -0.0 there
    b_val = _DENSE_EDGES.copy()
    c_val = rng.normal(size=(5, 6))

    def run(layer):
        t = ad.Tape()
        x0, w, b, c = (t.leaf(v) for v in (x_val, w_val, b_val, c_val))
        # an interior input, so its gradient is summed over its consumers
        x = ad.scale(x0, 1.0)
        out = layer(x, w, b, act)
        loss = ad.sum_all(ad.ewmul(out, c))
        if shared_input:
            loss = ad.add(loss, ad.sum_all(ad.ewmul(x, c)))
        ad.backward(t, loss)
        return [out.value, loss.value, x0.grad, w.grad, b.grad]

    fused, unfused = run(ad.dense), run(unfused_dense)
    for got, want in zip(fused, unfused, strict=True):
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("act", ["relu", "sigmoid", "none"])
def test_dense_gradients_match_finite_differences(act):
    rng = np.random.default_rng(31)
    x_val = rng.normal(size=(4, 3))
    w_val = rng.normal(size=(3, 5))
    b_val = rng.normal(size=(1, 5))
    # the relu check needs every pre-activation away from the kink
    assert np.abs(x_val @ w_val + b_val).min() > 0.1

    def build():
        t = ad.Tape()
        x, w, b = t.leaf(x_val), t.leaf(w_val), t.leaf(b_val)
        out = ad.dense(x, w, b, act)
        return t, (x, w, b), ad.sum_all(ad.ewmul(out, out))

    t, leaves, loss = build()
    ad.backward(t, loss)
    numeric = central_diff(lambda: float(build()[2].value[0, 0]),
                           [x_val, w_val, b_val], h=1e-5)
    assert max_rel_error([n.grad for n in leaves], numeric) < 1e-4


def test_reused_node_accumulates_fanout_gradient():
    # y = x*x + x -> dy/dx = 2x + 1
    t = ad.Tape()
    x = t.leaf([[2.0]])
    loss = ad.sum_all(ad.add(ad.ewmul(x, x), x))
    ad.backward(t, loss)
    np.testing.assert_array_equal(x.grad, [[5.0]])


@given(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False))
@settings(max_examples=200, deadline=None)
def test_no_nans_for_large_finite_inputs(v):
    t = ad.Tape()
    x = t.leaf([[v]])
    for node in (ad.relu(x), ad.sigmoid(x), ad.absval(x), ad.ewmul(x, x)):
        assert np.isfinite(node.value).all()
    s = ad.sigmoid(x)
    assert 0.0 <= s.value[0, 0] <= 1.0
    clamped = ad.log(ad.clamp(s, 1e-7, 1.0 - 1e-7))
    assert np.isfinite(clamped.value).all()


# ---------------------------------------------------------------------------
# fused nodes against the unfused chains they replace
# ---------------------------------------------------------------------------

_PROB_EDGES = np.array([1e-7, 1.0 - 1e-7, 0.0, 1.0])


def _assert_fused_is_the_chain(name, arrays, build, rng):
    """``build(op, leaves)`` with ``ad.<name>`` and with its unfused chain: the
    value, and the gradient of every leaf under a random upstream gradient,
    must agree bit for bit."""
    upstream = None

    def run(op):
        nonlocal upstream
        t = ad.Tape()
        leaves = [t.leaf(a) for a in arrays]
        out = build(op, leaves)
        if upstream is None:
            upstream = rng.normal(size=out.shape)
        ad.backward(t, ad.sum_all(ad.ewmul(out, t.const(upstream))))
        return [out.value] + [leaf.grad for leaf in leaves]

    fused, chain = run(getattr(ad, name)), run(UNFUSED[name])
    assert [a.tobytes() for a in fused] == [a.tobytes() for a in chain]


def _with_zero_rows(arrays, rows):
    for i, row in enumerate(rows):
        arrays[i % len(arrays)][row % len(arrays[0])] = 0.0
    return arrays


_SEEDS = st.integers(0, 2**32 - 1)


@given(_SEEDS, st.integers(1, 6), st.integers(1, 4), st.integers(0, 6))
@settings(max_examples=100, deadline=None)
def test_sq_err_mean_is_bitwise_the_chain(seed, batch, width, n_equal):
    rng = np.random.default_rng(seed)
    pred = rng.normal(size=(batch, width)) * 10.0 ** rng.integers(-3, 4)
    target = rng.normal(size=(batch, width))
    idx = rng.integers(0, pred.size, size=n_equal)
    target.flat[idx] = pred.flat[idx]  # zero differences, -0.0 included
    pred.flat[idx[: n_equal // 2]] = target.flat[idx[: n_equal // 2]] = -0.0
    _assert_fused_is_the_chain(
        "sq_err_mean", [pred], lambda op, leaves: op(leaves[0], target), rng)


@given(_SEEDS, st.integers(1, 4), st.integers(1, 6), st.integers(1, 5),
       st.lists(st.integers(0, 5), max_size=4))
@settings(max_examples=150, deadline=None)
def test_gram_penalty_is_bitwise_the_chain(seed, k, batch, width, zero_rows):
    rng = np.random.default_rng(seed)
    ws = _with_zero_rows([rng.normal(size=(batch, width)) for _ in range(k)],
                         zero_rows)
    _assert_fused_is_the_chain("gram_penalty", ws, lambda op, leaves: op(leaves), rng)


@given(_SEEDS, st.integers(0, 4), st.booleans(), st.integers(0, 6))
@settings(max_examples=150, deadline=None)
def test_clamped_bce_is_bitwise_the_chain(seed, n_pos, has_neg, batch):
    # every column holds the clamp bounds, 0 and 1 exactly, then random
    # probabilities with more of those values mixed in
    rng = np.random.default_rng(seed)
    n_pos = max(n_pos, 0 if has_neg else 1)
    cols = []
    for _ in range(n_pos + has_neg):
        p = rng.random(batch)
        picks = rng.random(batch) < 0.3
        p[picks] = rng.choice(_PROB_EDGES, size=picks.sum())
        cols.append(np.concatenate([_PROB_EDGES, p]).reshape(-1, 1))
    _assert_fused_is_the_chain(
        "clamped_bce", cols,
        lambda op, leaves: op(leaves[:n_pos], leaves[n_pos:], 1e-7), rng)


@given(_SEEDS, st.integers(1, 6), st.integers(1, 5), st.integers(0, 6))
@settings(max_examples=100, deadline=None)
def test_abs_diff_is_bitwise_the_chain(seed, batch, width, n_equal):
    rng = np.random.default_rng(seed)
    a, b = rng.normal(size=(2, batch, width))
    idx = rng.integers(0, a.size, size=n_equal)
    b.flat[idx] = a.flat[idx]  # the kink, where the subgradient is 0
    a.flat[idx[: n_equal // 2]] = -0.0
    _assert_fused_is_the_chain("abs_diff", [a, b],
                               lambda op, leaves: op(*leaves), rng)


@given(_SEEDS, st.integers(1, 4), st.integers(1, 6), st.integers(1, 5),
       st.lists(st.integers(0, 5), max_size=4))
@settings(max_examples=100, deadline=None)
def test_average_is_bitwise_the_chain(seed, k, batch, width, zero_rows):
    rng = np.random.default_rng(seed)
    ws = _with_zero_rows([rng.normal(size=(batch, width)) for _ in range(k)],
                         zero_rows)
    _assert_fused_is_the_chain("average", ws, lambda op, leaves: op(leaves), rng)


def test_fused_nodes_refuse_mismatched_shapes():
    t = ad.Tape()
    a, b = t.leaf(np.ones((2, 3))), t.leaf(np.ones((3, 2)))
    for call in (lambda: ad.sq_err_mean(a, np.ones((3, 2))),
                 lambda: ad.gram_penalty([a, b]), lambda: ad.abs_diff(a, b),
                 lambda: ad.average([a, b])):
        with pytest.raises(ad.ShapeError, match=r"\(2, 3\).*\(3, 2\)"):
            call()
