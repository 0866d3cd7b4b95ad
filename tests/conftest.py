import contextlib
import csv
import ctypes
import json
import multiprocessing
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from itertools import repeat
from pathlib import Path

import numpy as np
import pytest
from hypothesis import strategies as st

sys.path.insert(0, str(Path(__file__).parent))

from adadrug import autodiff as ad
from adadrug import data as dat
from adadrug import kernels
from adadrug import model as mdl
from adadrug import synth as sy
from adadrug import train as tr

# any JSON value a config file or a checkpoint header may hold; the valid
# choice strings are mixed in so that str fields also parse now and then
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False) | st.text()
    | st.sampled_from(tr.SAMPLERS + tr.GRL_SCHEDULES + tr.GEN_OUT_ACTIVATIONS),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(), inner,
                                                                max_size=3),
    max_leaves=6,
)


def make_bundle(seed=0, n_genes=10, latent=4, enc_hidden=6, head_hidden=3,
                random_biases=False):
    """A small random model for gradient and forward tests.

    ``random_biases`` moves the model off the all-zero-bias init so no
    hidden pre-activation sits exactly on a relu kink; finite-difference
    checks need that generic position.
    """
    specs = tr.build_specs(n_genes, tr.TrainConfig(
        latent_dim=latent, encoder_hidden=enc_hidden, disc_hidden=head_hidden,
        pred_hidden=head_hidden))
    bundle = mdl.init_params(specs, seed)
    if random_biases:
        rng = np.random.default_rng(seed + 7919)
        for name, arr in bundle.named_arrays():
            if name.endswith(".b"):
                arr[:] = rng.normal(scale=0.2, size=arr.shape)
    return bundle


def split_grad(bundle, grad):
    """The flat gradient ``train_step`` returns, as arrays in
    ``bundle.named_arrays()`` order: ``bundle.views(grad)`` in component order."""
    views = bundle.views(grad)
    return [g for comp in mdl.COMPONENTS for g in views[comp]]


def unfused_dense(x, w, b, act):
    """The matmul -> add_bias -> activation chain ``ad.dense`` fuses; the
    reference its values and gradients are compared against bit for bit."""
    a = ad.add_bias(ad.matmul(x, w), b)
    if act == "relu":
        return ad.relu(a)
    if act == "sigmoid":
        return ad.sigmoid(a)
    return a


# The unfused chains ``ad.sq_err_mean``, ``ad.gram_penalty``, ``ad.clamped_bce``,
# ``ad.abs_diff`` and ``ad.average`` fuse, with the same signatures: the
# reference their values and gradients are compared against bit for bit.

def unfused_sq_err_mean(pred_node, target):
    """sum((pred - target)^2) / batch == batch mean of squared row norms."""
    tape = pred_node.tape
    t = tape.const(target)
    diff = ad.sub(pred_node, t)
    return ad.scale(ad.sum_all(ad.ewmul(diff, diff)), 1.0 / pred_node.shape[0])


def _unfused_sum(terms):
    total = None
    for term in terms:
        total = term if total is None else ad.add(total, term)
    return total


def unfused_gram_penalty(w_nodes):
    k = len(w_nodes)
    batch = w_nodes[0].shape[0]
    tape = w_nodes[0].tape
    ones = tape.const(np.ones((batch, 1)))

    def terms():
        for a in range(k):
            for b in range(a, k):
                gram = ad.row_sum(ad.ewmul(w_nodes[a], w_nodes[b]))
                if a == b:
                    dev = ad.sub(gram, ones)
                    yield ad.mean_all(ad.ewmul(dev, dev))
                else:
                    # off-diagonal entries appear twice in the Frobenius norm
                    yield ad.scale(ad.mean_all(ad.ewmul(gram, gram)), 2.0)

    return ad.scale(_unfused_sum(terms()), 0.5)


def unfused_clamped_bce(positives, negatives, eps):
    def neg_log(node):
        return ad.scale(ad.sum_all(ad.log(ad.clamp(node, eps, 1.0 - eps))), -1.0)

    n_items = sum(p.value.size for p in positives)
    n_items += sum(p.value.size for p in negatives)

    def terms():
        for p in positives:
            yield neg_log(p)
        for p in negatives:
            ones = p.tape.const(np.ones(p.shape))
            yield neg_log(ad.sub(ones, p))

    return ad.scale(_unfused_sum(terms()), 1.0 / n_items)


def unfused_abs_diff(a, b):
    return ad.absval(ad.sub(a, b))


def unfused_average(nodes):
    acc = nodes[0]
    for w in nodes[1:]:
        acc = ad.add(acc, w)
    return ad.scale(acc, 1.0 / len(nodes))


UNFUSED = {"dense": unfused_dense, "sq_err_mean": unfused_sq_err_mean,
           "gram_penalty": unfused_gram_penalty, "clamped_bce": unfused_clamped_bce,
           "abs_diff": unfused_abs_diff, "average": unfused_average}


def per_cell_read_table(path, delim, check_header, what):
    """``data.read_table`` with every value cell parsed by ``data._parse_cell``,
    as it was before rows were parsed in one ``float`` pass; the reference
    its values and ``ParseError`` messages (``path: line N: ...``) are
    compared against."""
    try:
        return _per_cell_read_table(path, delim, check_header, what)
    except dat.ParseError as e:
        raise dat.ParseError(f"{path}: {e}") from None


def _per_cell_read_table(path, delim, check_header, what):
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh, delimiter=delim)
        header = next(reader, None)
        columns = check_header(header)
        label_cols = [j for j, name in enumerate(columns, start=1) if name == "label"]
        n_cells = len(columns) + 1
        ids, rows, seen = [], [], set()
        for rec in reader:
            if not rec:
                continue
            line = reader.line_num
            if len(rec) != n_cells:
                raise dat.ParseError(
                    f"line {line}: expected {n_cells} cells, got {len(rec)}")
            sid = rec[0].strip()
            if sid == "" or sid in seen:
                raise dat.ParseError(
                    f"line {line}: missing or duplicate sample id {sid!r}")
            seen.add(sid)
            ids.append(sid)
            row = list(map(dat._parse_cell, rec[1:], repeat(line), columns))
            for j in label_cols:
                if row[j - 1] not in (0.0, 1.0):
                    raise dat.ParseError(
                        f"line {line}: label must be 0 or 1, got {rec[j]!r}")
            rows.append(row)
    if not ids:
        raise dat.ParseError(f"line 2: no {what} rows")
    return header, ids, np.array(rows, dtype=np.float64)


def run_grid_in_pool(synth, variants, seeds, train_cfg):
    """``synth.run_grid``'s rows, in (variant, seed) order, with the runs
    spread over two worker processes, or fewer where fewer CPUs are ours:
    on one CPU they run here, one after another. Each run is a function of
    its arguments alone, so the rows are the serial ones bit for bit. Workers
    are spawned, not forked: this process may already run BLAS threads."""
    runs = [(v, s) for v in variants for s in seeds]
    workers = min(2, len(os.sched_getaffinity(0)), len(runs))
    if workers < 2:
        return [sy.run_variant(synth, v, s, train_cfg) for v, s in runs]
    with ProcessPoolExecutor(workers, multiprocessing.get_context("spawn")) as pool:
        return list(pool.map(sy.run_variant, repeat(synth), *zip(*runs),
                             repeat(train_cfg)))


def write_v1_checkpoint(path, model, cfg, step):
    """``model`` in checkpoint format 1: the shape stated in ``specs``,
    ``dims`` and ``arrays`` beside ``config``, and no checksum."""
    header = {
        "format_version": 1,
        "specs": {name: {"widths": list(spec.widths),
                         "out_activation": spec.out_activation}
                  for name, spec in model.specs.items()},
        "dims": {"genes": model.n_genes, "latent": model.latent_dim},
        "seed": model.seed,
        "step": step,
        "config": cfg.to_dict(),
        "arrays": [{"name": name, "shape": list(a.shape)}
                   for name, a in model.named_arrays()],
    }
    path.write_bytes(json.dumps(header, sort_keys=True).encode() + b"\n"
                     + model.flat.astype("<f8").tobytes())


def swap_body_blocks(path, model, first, second):
    """Swap the bytes of two same-shaped parameter arrays in the body."""
    head, body = path.read_bytes().split(b"\n", 1)
    spans, offset = {}, 0
    for name, a in model.named_arrays():
        spans[name] = (offset, offset + a.nbytes)
        offset += a.nbytes
    (a0, a1), (b0, b1) = spans[first], spans[second]
    assert a1 - a0 == b1 - b0 and a1 <= b0
    body = body[:a0] + body[b0:b1] + body[a1:b0] + body[a0:a1] + body[b1:]
    path.write_bytes(head + b"\n" + body)


def eager_batches(bundle, batch_size, seed=0, epoch=0):
    """The reference for ``data.assemble_batches``: the same index streams,
    every batch of the epoch gathered into one list before it returns."""
    n_batches = dat.epoch_length(bundle, batch_size)
    n_draws = n_batches * batch_size
    sizes = [d.expr.n_samples for d in bundle.sources] + [bundle.target.n_samples]
    streams = []
    for s, size in enumerate(sizes):
        rng = np.random.default_rng(np.random.SeedSequence((seed, epoch, s)))
        shuffles = [rng.permutation(size) for _ in range(-(-n_draws // size))]
        streams.append(np.concatenate(shuffles)[:n_draws])
    batches = []
    for b in range(n_batches):
        sl = slice(b * batch_size, (b + 1) * batch_size)
        xs = [d.expr.values[streams[k][sl]] for k, d in enumerate(bundle.sources)]
        ys = [d.labels[streams[k][sl]] for k, d in enumerate(bundle.sources)]
        xt = bundle.target.values[streams[-1][sl]]
        batches.append(dat.TupleBatch(xs, ys, xt))
    return batches


def make_batch(rng, n_sources=3, batch=5, n_genes=10):
    return dat.TupleBatch(
        x_sources=[rng.normal(size=(batch, n_genes)) for _ in range(n_sources)],
        y_sources=[rng.integers(0, 2, size=batch).astype(np.int64)
                   for _ in range(n_sources)],
        x_target=rng.normal(size=(batch, n_genes)),
    )


def make_domain(rng, n=20, n_genes=6, pos_rate=0.5, tag="s"):
    labels = (rng.random(n) < pos_rate).astype(np.int64)
    # guarantee both classes
    labels[0], labels[1] = 0, 1
    expr = dat.ExpressionMatrix(
        [f"{tag}{i}" for i in range(n)],
        [f"g{j}" for j in range(n_genes)],
        rng.normal(size=(n, n_genes)),
    )
    return dat.LabeledDomain(expr, labels)


@contextlib.contextmanager
def blas_threads_set(n):
    """Runs the block with OpenBLAS on ``n`` threads and restores the count
    after, through the lookup ``kernels.blas_threads`` uses. Skips the test,
    naming why, where no loaded BLAS exports the thread-count calls or where
    this process may use one CPU only, so ``model.mlp_forward`` never splits."""
    before = kernels.blas_threads()
    set_threads = kernels._openblas_function(
        tuple(name.replace("_get_", "_set_") for name in kernels._BLAS_GET_THREADS))
    if before is None or set_threads is None:
        pytest.skip("no loaded BLAS exports the OpenBLAS thread-count calls")
    if len(getattr(os, "sched_getaffinity", lambda pid: ())(0)) < 2:
        pytest.skip("this process may use one CPU, so mlp_forward runs no lanes")
    set_threads.argtypes, set_threads.restype = (ctypes.c_int,), None
    set_threads(n)
    try:
        if kernels.blas_threads() != n:
            pytest.skip(f"the loaded BLAS would not run {n} threads")
        yield
    finally:
        set_threads(before)


@pytest.fixture
def one_blas_thread():
    """One BLAS thread on a process that may use two CPUs: ``model.mlp_forward``
    then splits a large batch into two row lanes."""
    with blas_threads_set(1):
        yield


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def small_bundle():
    return make_bundle(seed=7)


@pytest.fixture
def tiny_train_cfg():
    return tr.TrainConfig(
        latent_dim=4,
        encoder_hidden=8,
        disc_hidden=4,
        pred_hidden=4,
        learning_rate=1e-3,
        batch_size=8,
        epochs=2,
        sampler="none",
        seed=0,
    )
