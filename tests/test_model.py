import os
import select
import signal
import threading
import time

import numpy as np
import pytest

from adadrug import autodiff as ad
from adadrug import kernels
from adadrug import model as mdl

from conftest import blas_threads_set, make_bundle, two_cpus


def one_layer_bundle():
    """d=1 everywhere so single affine layers are hand-checkable."""
    specs = {
        "encoder": mdl.MlpSpec((2, 1)),
        "decoder": mdl.MlpSpec((1, 2)),
        "generator": mdl.MlpSpec((1, 1), out_activation="relu"),
        "discriminator": mdl.MlpSpec((1, 1), out_activation="sigmoid"),
        "predictor": mdl.MlpSpec((1, 1), out_activation="sigmoid"),
    }
    return mdl.init_params(specs, 0)


def node_weights(bundle, h_target, h_source):
    """``gen_weights_nodes`` on data leaves; returns the weight array."""
    tape = ad.Tape()
    pn, _ = mdl.lift_params(tape, bundle)
    return mdl.gen_weights_nodes(bundle, pn, tape.const(h_target),
                                 tape.const(h_source)).value


def node_mean(ws):
    """``mean_weight_nodes`` over data leaves; returns the mean array."""
    tape = ad.Tape()
    return mdl.mean_weight_nodes([tape.const(w) for w in ws]).value


def test_spec_validation():
    with pytest.raises(ValueError):
        mdl.MlpSpec((5,))
    with pytest.raises(ValueError):
        mdl.MlpSpec((5, 0))
    with pytest.raises(ValueError):
        mdl.MlpSpec((5, 3), out_activation="tanh")


@pytest.mark.parametrize("widths", [(5, 2.5), (5, True), (False, 3), (5, "3"),
                                    (5, None), (np.float64(5.0), 3)])
def test_spec_refuses_widths_that_are_not_integers(widths):
    with pytest.raises(ValueError, match="layer widths must be integers"):
        mdl.MlpSpec(widths)


def test_spec_takes_numpy_integer_widths_as_ints():
    widths = mdl.MlpSpec((np.int64(5), np.int32(3), 2)).widths
    assert widths == (5, 3, 2) and {type(w) for w in widths} == {int}


def test_init_same_seed_is_bitwise_identical():
    a, b = make_bundle(seed=3), make_bundle(seed=3)
    for (na, pa), (nb, pb) in zip(a.named_arrays(), b.named_arrays()):
        assert na == nb
        np.testing.assert_array_equal(pa, pb)


def test_init_different_seeds_differ():
    a, b = make_bundle(seed=3), make_bundle(seed=4)
    assert any(
        not np.array_equal(pa, pb)
        for (_, pa), (_, pb) in zip(a.named_arrays(), b.named_arrays())
    )


def test_init_biases_are_exactly_zero_and_weights_bounded():
    bundle = make_bundle(seed=5)
    for name, arr in bundle.named_arrays():
        if name.endswith(".b"):
            assert (arr == 0.0).all()
        else:
            lim = np.sqrt(6.0 / arr.shape[0])
            assert (np.abs(arr) <= lim).all()


def test_bundle_rejects_inconsistent_widths():
    specs = {
        "encoder": mdl.MlpSpec((4, 3)),
        "decoder": mdl.MlpSpec((2, 4)),  # latent 2 != 3
        "generator": mdl.MlpSpec((3, 3)),
        "discriminator": mdl.MlpSpec((3, 1), out_activation="sigmoid"),
        "predictor": mdl.MlpSpec((3, 1), out_activation="sigmoid"),
    }
    with pytest.raises(ValueError):
        mdl.init_params(specs, 0)


def test_params_are_views_into_one_flat_vector():
    bundle = make_bundle(seed=2)
    assert bundle.flat.shape == (mdl.param_count(bundle.specs),)

    def joined():
        return b"".join(a.tobytes() for _, a in bundle.named_arrays())

    assert bundle.flat.tobytes() == joined()
    bundle.params["decoder"][1][0, 2] = 7.0  # a write through a view reaches flat
    assert bundle.flat.tobytes() == joined()
    assert (bundle.n_genes, bundle.latent_dim) == (10, 4)


def test_init_params_draws_each_weight_in_declared_order():
    bundle = make_bundle(seed=11)
    rng = np.random.default_rng(11)
    for name, arr in bundle.named_arrays():
        if name.endswith(".W"):
            lim = np.sqrt(6.0 / arr.shape[0])
            want = rng.uniform(-lim, lim, size=arr.shape)
        else:
            want = np.zeros(arr.shape)
        assert arr.tobytes() == want.tobytes(), name


@pytest.mark.parametrize("extra", [-1, 1])
def test_bundle_rejects_a_flat_vector_of_another_length(extra):
    specs = make_bundle().specs
    with pytest.raises(ValueError, match="flat must hold"):
        mdl.ModelBundle(specs=specs, flat=np.zeros(mdl.param_count(specs) + extra))


def test_bundles_are_equal_on_specs_seed_and_parameter_bits():
    a, b = make_bundle(seed=3), make_bundle(seed=3)
    assert a == b and not a != b
    flipped = a.flat.copy()
    flipped.view(np.uint64)[7] ^= 1  # one low mantissa bit of one parameter
    assert mdl.ModelBundle(a.specs, flipped, a.seed) != a
    assert mdl.ModelBundle(a.specs, a.flat.copy(), seed=4) != a
    assert make_bundle(seed=4) != a
    assert a != "bundle"


def test_encode_hand_case_and_shapes():
    bundle = one_layer_bundle()
    bundle.params["encoder"][0][:] = [[1.0], [1.0]]
    bundle.params["encoder"][1][:] = 0.0
    np.testing.assert_array_equal(mdl.encode(bundle, [[2.0, 3.0]]), [[5.0]])
    out = mdl.encode(bundle, np.random.default_rng(0).normal(size=(7, 2)))
    assert out.shape == (7, 1)
    with pytest.raises(ad.ShapeError):
        mdl.encode(bundle, np.ones((2, 3)))


def test_encode_zero_params_gives_zero_embedding(rng):
    bundle = make_bundle(seed=1)
    for arr in bundle.params["encoder"]:
        arr[:] = 0.0
    x = rng.normal(size=(4, bundle.n_genes))
    np.testing.assert_array_equal(mdl.encode(bundle, x), np.zeros((4, bundle.latent_dim)))


def test_decode_hand_case():
    bundle = one_layer_bundle()
    bundle.params["decoder"][0][:] = [[2.0, -1.0]]
    bundle.params["decoder"][1][:] = [[0.5, 0.5]]

    def decode(z):
        return mdl.mlp_forward(bundle.specs["decoder"], bundle.params["decoder"], z)

    np.testing.assert_array_equal(decode(np.array([[3.0]])), [[6.5, -2.5]])
    for arr in bundle.params["decoder"]:
        arr[:] = 0.0
    np.testing.assert_array_equal(decode(np.array([[3.0]])), [[0.0, 0.0]])


def test_gen_weights_zero_gap_depends_only_on_biases():
    bundle = make_bundle(seed=2)
    h = np.random.default_rng(1).normal(size=(3, bundle.latent_dim))
    w = node_weights(bundle, h, h)
    # zero input through zero biases -> relu stack outputs zero
    np.testing.assert_array_equal(w, np.zeros_like(h))
    bundle.params["generator"][-1][:] = 0.25
    w2 = node_weights(bundle, h, h)
    assert (w2 == 0.25).all()


def test_gen_weights_symmetric_under_argument_swap(rng):
    bundle = make_bundle(seed=6)
    h_t = rng.normal(size=(5, bundle.latent_dim))
    h_s = rng.normal(size=(5, bundle.latent_dim))
    np.testing.assert_array_equal(
        node_weights(bundle, h_t, h_s), node_weights(bundle, h_s, h_t)
    )


def test_gen_weights_hand_two_layer_case():
    specs = {
        "encoder": mdl.MlpSpec((2, 2)),
        "decoder": mdl.MlpSpec((2, 2)),
        "generator": mdl.MlpSpec((2, 2, 2), out_activation="relu"),
        "discriminator": mdl.MlpSpec((2, 1), out_activation="sigmoid"),
        "predictor": mdl.MlpSpec((2, 1), out_activation="sigmoid"),
    }
    bundle = mdl.init_params(specs, 0)
    gen = bundle.params["generator"]
    gen[0][:] = [[1.0, -1.0], [0.5, 2.0]]  # hidden W
    gen[1][:] = [[0.0, 1.0]]               # hidden b
    gen[2][:] = [[1.0, 0.0], [1.0, -1.0]]  # out W
    gen[3][:] = [[0.25, -0.5]]             # out b
    # input gap [1, 0]: hidden pre = [1, -1] + [0, 1] = [1, 0] -> relu [1, 0]
    # out pre = [1*1+0*1, 1*0+0*-1] + [0.25, -0.5] = [1.25, -0.5] -> relu
    w = node_weights(bundle, np.array([[1.0, 0.0]]), np.array([[0.0, 0.0]]))
    np.testing.assert_array_equal(w, [[1.25, 0.0]])


def test_apply_weights_cases():
    np.testing.assert_array_equal(
        mdl.apply_weights([[1.0, 2.0]], [[3.0, 4.0]]), [[3.0, 8.0]]
    )
    h = np.arange(6.0).reshape(2, 3)
    np.testing.assert_array_equal(mdl.apply_weights(h, np.ones((2, 3))), h)
    np.testing.assert_array_equal(mdl.apply_weights(h, np.zeros((2, 3))), np.zeros((2, 3)))
    with pytest.raises(ad.ShapeError):
        mdl.apply_weights(h, np.ones((3, 2)))


def test_mean_target_weight_cases(rng):
    np.testing.assert_array_equal(
        node_mean([np.array([[1.0, 3.0]]), np.array([[3.0, 1.0]])]),
        [[2.0, 2.0]],
    )
    single = rng.normal(size=(4, 3))
    np.testing.assert_array_equal(node_mean([single]), single)
    ws = [rng.normal(size=(4, 3)) for _ in range(3)]
    got = node_mean(ws)
    for i in range(4):
        for j in range(3):
            expect = (ws[0][i, j] + ws[1][i, j] + ws[2][i, j]) * (1.0 / 3.0)
            assert got[i, j] == expect


@pytest.mark.parametrize("head", ["discriminator", "predictor"])
def test_probability_heads(head, rng):
    def fwd(bundle, z):
        if head == "predictor":
            return mdl.predict(bundle, z)
        return mdl.mlp_forward(bundle.specs[head], bundle.params[head], z)

    bundle = make_bundle(seed=8)
    for arr in bundle.params[head]:
        arr[:] = 0.0
    z = rng.normal(size=(6, bundle.latent_dim))
    np.testing.assert_array_equal(fwd(bundle, z), np.full((6, 1), 0.5))

    bundle = make_bundle(seed=9)
    out = fwd(bundle, z)
    assert out.shape == (6, 1)
    assert ((out > 0.0) & (out < 1.0)).all()


def test_probability_head_hand_case():
    bundle = one_layer_bundle()
    bundle.params["predictor"][0][:] = [[2.0]]
    bundle.params["predictor"][1][:] = [[-1.0]]
    out = mdl.predict(bundle, [[1.5]])
    assert out[0, 0] == pytest.approx(1.0 / (1.0 + np.exp(-2.0)), rel=1e-15)


def test_forward_is_pure(rng):
    bundle = make_bundle(seed=10)
    x = rng.normal(size=(5, bundle.n_genes))
    np.testing.assert_array_equal(mdl.encode(bundle, x), mdl.encode(bundle, x))


def test_node_and_array_forward_are_bitwise_equal(rng):
    bundle = make_bundle(seed=11)
    x = rng.normal(size=(5, bundle.n_genes))
    h_arr = mdl.encode(bundle, x)
    tape = ad.Tape()
    pn, _ = mdl.lift_params(tape, bundle)
    h_node = mdl.mlp_forward_nodes(bundle.specs["encoder"], pn["encoder"], tape.leaf(x))
    np.testing.assert_array_equal(h_node.value, h_arr)

    h_s = rng.normal(size=(5, bundle.latent_dim))
    w_arr = mdl.mlp_forward(bundle.specs["generator"], bundle.params["generator"],
                            np.abs(h_arr - h_s))
    w_node = mdl.gen_weights_nodes(bundle, pn, tape.leaf(h_arr), tape.leaf(h_s))
    np.testing.assert_array_equal(w_node.value, w_arr)


def test_identical_embeddings_and_weights_make_target_match_source(rng):
    # when h_T = h_S for every domain, the mean weight equals each per-domain
    # weight, so the weighted target embedding equals the weighted source one
    bundle = make_bundle(seed=13)
    h = rng.normal(size=(4, bundle.latent_dim))
    w = [node_weights(bundle, h, h) for _ in range(3)]
    z_sources = [mdl.apply_weights(h, wk) for wk in w]
    z_target = mdl.apply_weights(h, node_mean(w))
    for z in z_sources:
        np.testing.assert_allclose(z_target, z, rtol=1e-12)


def test_copy_is_deep():
    bundle = make_bundle(seed=12)
    dup = mdl.ModelBundle(bundle.specs, bundle.flat.copy(), bundle.seed)
    dup.params["encoder"][0][0, 0] += 1.0
    assert bundle.params["encoder"][0][0, 0] != dup.params["encoder"][0][0, 0]


@pytest.mark.parametrize("out_activation", mdl.OUT_ACTIVATIONS)
@pytest.mark.parametrize("widths", [(5, 3), (5, 7, 4, 3)])
def test_mlp_forward_reads_its_input_only(widths, out_activation):
    spec = mdl.MlpSpec(widths, out_activation=out_activation)
    rng = np.random.default_rng(3)
    params = []
    for fan_in, fan_out in zip(widths[:-1], widths[1:]):
        params += [rng.normal(size=(fan_in, fan_out)), rng.normal(size=(1, fan_out))]
    x = rng.normal(size=(6, widths[0]))
    x_before, params_before = x.copy(), [p.copy() for p in params]
    got = mdl.mlp_forward(spec, params, x)
    assert x.tobytes() == x_before.tobytes()
    assert all(p.tobytes() == q.tobytes() for p, q in zip(params, params_before))
    # the out-of-place formula, layer by layer
    a = x
    for i in range(len(widths) - 1):
        a = a @ params[2 * i] + params[2 * i + 1]
        if i < len(widths) - 2:
            a = np.maximum(a, 0.0)
    if out_activation == "relu":
        a = np.maximum(a, 0.0)
    elif out_activation == "sigmoid":
        z = np.exp(-np.abs(a))
        a = np.where(a >= 0.0, 1.0 / (1.0 + z), z / (1.0 + z))
    assert got.tobytes() == a.tobytes()


# ---------------------------------------------------------------------------
# row halves: a large batch is cut in two, run on two threads where the
# process may use two CPUs
# ---------------------------------------------------------------------------

LANE_ROWS = 2 * mdl.LANE_MIN_ROWS  # the smallest batch mlp_forward splits


def lane_case(width, rows, out_width=128):
    """A paper-width encoder shape (width -> 256 -> out_width) ending in a
    sigmoid, so every activation runs, with He-scaled weights and random
    biases."""
    spec = mdl.MlpSpec((width, 256, out_width), out_activation="sigmoid")
    rng = np.random.default_rng(width)
    params = []
    for fan_in, fan_out in zip(spec.widths[:-1], spec.widths[1:]):
        lim = np.sqrt(6.0 / fan_in)
        params += [rng.uniform(-lim, lim, size=(fan_in, fan_out)),
                   rng.normal(scale=0.2, size=(1, fan_out))]
    return spec, params, rng.normal(size=(rows, width))


def record_dense_threads(monkeypatch):
    """The thread ident of every ``kernels.dense`` call from here on."""
    idents, dense = [], kernels.dense

    def recorded(*args):
        idents.append(threading.get_ident())
        return dense(*args)

    monkeypatch.setattr(kernels, "dense", recorded)
    return idents


@two_cpus
@pytest.mark.parametrize("rows", [LANE_ROWS, LANE_ROWS + 1])
@pytest.mark.parametrize("width", [60, 128, 500, 2000])
def test_lanes_give_the_serial_loops_bits(width, rows):
    spec, params, x = lane_case(width, rows)
    got = mdl.mlp_forward(spec, params, x)
    a = x
    with kernels.one_blas_thread():  # the serial loop on mlp_forward's BLAS thread
        for i, act in enumerate(spec.activations):
            a = kernels.dense(a, params[2 * i], params[2 * i + 1], act)
    assert got.shape == a.shape
    assert got.tobytes() == a.tobytes()


@two_cpus
def test_lanes_run_dense_on_two_threads_from_the_threshold(monkeypatch):
    spec, params, x = lane_case(60, LANE_ROWS)
    idents = record_dense_threads(monkeypatch)
    mdl.mlp_forward(spec, params, x[:-1])
    assert set(idents) == {threading.get_ident()}
    idents.clear()
    mdl.mlp_forward(spec, params, x)
    assert len(set(idents)) == 2 and threading.get_ident() in idents


def test_mlp_forward_runs_on_one_blas_thread_and_keeps_the_callers_count(monkeypatch):
    # at 500 inputs BLAS sums x @ W differently on one thread and on two
    spec, params, x = lane_case(500, LANE_ROWS)
    with blas_threads_set(1):
        want = mdl.mlp_forward(spec, params, x)
    counts, dense = [], kernels.dense

    def counted(*args):
        counts.append(kernels.blas_threads())
        return dense(*args)

    monkeypatch.setattr(kernels, "dense", counted)
    with blas_threads_set(2):
        got = mdl.mlp_forward(spec, params, x)
        assert kernels.blas_threads() == 2
    assert set(counts) == {1}
    assert got.tobytes() == want.tobytes()


def test_a_batch_is_cut_at_the_same_row_on_one_cpu_as_on_two(monkeypatch):
    # at output width 196 a row's last bits can depend on the height of the
    # product it is computed in: 1,024 rows against two halves of 512
    spec, params, x = lane_case(60, LANE_ROWS, out_width=196)
    outs = []
    for cpus in ({0, 1}, {0}):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: cpus)
        outs.append(mdl.mlp_forward(spec, params, x))
    assert outs[0].tobytes() == outs[1].tobytes()


@two_cpus
@pytest.mark.parametrize("failing", ["caller", "worker"])
def test_a_lane_error_is_raised_once_both_lanes_stopped(monkeypatch, failing):
    spec, params, x = lane_case(60, LANE_ROWS)
    caller, dense = threading.get_ident(), kernels.dense
    other_layers, other_stopped = [], threading.Event()

    def dense_or_fail(*args):
        if (threading.get_ident() == caller) == (failing == "caller"):
            raise RuntimeError(f"{failing} lane failed")
        time.sleep(0.1)
        out = dense(*args)
        other_layers.append(out)
        if len(other_layers) == len(spec.activations):
            other_stopped.set()
        return out

    monkeypatch.setattr(kernels, "dense", dense_or_fail)
    with pytest.raises(RuntimeError, match=f"{failing} lane failed"):
        mdl.mlp_forward(spec, params, x)
    assert other_stopped.is_set()


def _read_until_eof(fd, seconds):
    """Bytes from ``fd`` until its writer closes it; None after ``seconds``."""
    chunks, deadline = [], time.monotonic() + seconds
    while True:
        left = deadline - time.monotonic()
        if left <= 0 or not select.select([fd], [], [], left)[0]:
            return None
        chunk = os.read(fd, 1 << 16)
        if not chunk:
            return b"".join(chunks)
        chunks.append(chunk)


@two_cpus
def test_a_forked_child_scores_with_lanes_after_its_parent():
    spec, params, x = lane_case(128, LANE_ROWS)
    want = mdl.mlp_forward(spec, params, x)  # the parent's lane worker now runs
    read_end, write_end = os.pipe()
    pid = os.fork()
    if pid == 0:
        try:
            os.close(read_end)
            with os.fdopen(write_end, "wb") as fh:
                fh.write(mdl.mlp_forward(spec, params, x).tobytes())
        finally:
            os._exit(0)
    os.close(write_end)
    got = None
    try:
        got = _read_until_eof(read_end, seconds=20)
    finally:
        os.close(read_end)
        if got is None:
            os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
    assert got is not None, "the forked child did not finish scoring within 20 s"
    assert got == want.tobytes()
