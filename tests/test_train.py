import dataclasses
import gc
import hashlib
import json
import os
import resource
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adadrug import autodiff as ad
from adadrug import data as dat
from adadrug import kernels
from adadrug import model as mdl
from adadrug import synth as sy
from adadrug import train as tr

from conftest import (JSON_VALUES, UNFUSED, blas_threads_set, make_domain, split_grad,
                      swap_body_blocks, write_v1_checkpoint)


def tiny_bundle(rng, n_sources=2, n=24, n_genes=6, target_n=20):
    sources = [make_domain(rng, n=n, n_genes=n_genes, tag=f"d{k}_")
               for k in range(n_sources)]
    target = dat.ExpressionMatrix(
        [f"t{i}" for i in range(target_n)],
        sources[0].expr.gene_names,
        rng.normal(size=(target_n, n_genes)),
    )
    return dat.DomainBundle(sources, target)


def tiny_cfg(**kw):
    base = dict(latent_dim=4, encoder_hidden=8, disc_hidden=4, pred_hidden=4,
                learning_rate=1e-3, batch_size=8, epochs=3, sampler="none", seed=0)
    base.update(kw)
    return tr.TrainConfig(**base)


def checkpoint_bytes(model, cfg, step, tmp_path, name):
    path = tmp_path / name
    tr.save_checkpoint(model, cfg, step, path)
    return path.read_bytes()


def test_config_validation():
    with pytest.raises(ValueError):
        tr.TrainConfig(learning_rate=-1.0)
    with pytest.raises(ValueError):
        tr.TrainConfig(epochs=0)
    with pytest.raises(ValueError):
        tr.TrainConfig(sampler="bootstrap")
    with pytest.raises(ValueError):
        tr.TrainConfig(grl_schedule="cosine")
    cfg = tr.TrainConfig()
    assert cfg.learning_rate == 1e-4 and cfg.batch_size == 64 and cfg.latent_dim == 128


@pytest.mark.parametrize("field,value", [
    ("beta1", 1.0), ("beta1", -0.1), ("beta2", 1.0), ("beta2", 1.5),
    ("eps", 0.0), ("eps", -1e-8),
])
def test_adam_hyperparameters_out_of_range_are_rejected(field, value):
    with pytest.raises(ValueError, match=field):
        tr.TrainConfig(**{field: value})


# one wrongly typed value per JSON type; a field whose annotation has no
# entry here (a new type, unchecked) fails the parametrised test below
WRONG_TYPES = {
    bool: [1, 0, "true", None],
    int: [True, 2.0, "3", None],
    float: [False, "0.1", None, [0.1]],
    str: [1, True, None, ["relu"]],
}


@pytest.mark.parametrize("f", dataclasses.fields(tr.TrainConfig), ids=lambda f: f.name)
def test_every_field_rejects_wrongly_typed_values_naming_it(f):
    for value in WRONG_TYPES[f.type]:
        with pytest.raises(ValueError, match=f"^{f.name}: must be "):
            tr.TrainConfig(**{f.name: value})


@pytest.mark.parametrize("field,value", [
    ("latent_dim", 0), ("encoder_hidden", 0), ("disc_hidden", -1), ("pred_hidden", 0),
    ("ref_batch", 0), ("ref_batch", -1), ("seed", -1), ("learning_rate", -1e-9),
    ("grl_lambda", -1.0), ("batch_size", 0), ("gen_out_activation", "tanh"),
    pytest.param("learning_rate", 10**400, id="learning_rate-huge_int"),
    ("grl_lambda", float("inf")), ("eps", float("nan")),
])
def test_out_of_range_values_are_rejected_naming_the_field(field, value):
    with pytest.raises(ValueError, match=f"^{field}: must be "):
        tr.TrainConfig(**{field: value})


def test_float_fields_take_ints_and_store_floats():
    cfg = tr.TrainConfig(learning_rate=0, grl_lambda=2, eps=1)
    assert [type(v) for v in (cfg.learning_rate, cfg.grl_lambda, cfg.eps)] == [float] * 3
    assert cfg.to_dict()["learning_rate"] == 0.0


def test_effective_flags():
    assert tr.TrainConfig(mda=False, awg=True).awg_active is False
    assert tr.TrainConfig(mda=True, awg=True).awg_active is True
    assert tr.TrainConfig(ind=True, awg=False).ind_active is False


def test_grl_schedule():
    cfg = tr.TrainConfig(grl_schedule="warmup", grl_lambda=1.0)
    assert tr.grl_coefficient(cfg, 0, 1000) == 0.0
    assert tr.grl_coefficient(cfg, 50, 1000) == 0.5
    assert tr.grl_coefficient(cfg, 100, 1000) == 1.0
    assert tr.grl_coefficient(cfg, 900, 1000) == 1.0
    cfg = tr.TrainConfig(grl_schedule="constant", grl_lambda=0.3)
    assert tr.grl_coefficient(cfg, 0, 1000) == 0.3


def test_train_feeds_grl_coefficient_each_step_and_the_run_total(rng, monkeypatch):
    calls = []
    coefficient = tr.grl_coefficient

    def spy(cfg, step, total_steps):
        calls.append((step, total_steps))
        return coefficient(cfg, step, total_steps)

    monkeypatch.setattr(tr, "grl_coefficient", spy)
    # the weight sampler grows each source, so the run's length comes from
    # the resampled domains, not the ones passed in
    _, hist = tr.train(tiny_bundle(rng), tiny_cfg(sampler="weight"))
    n = hist.final_step
    assert n == len(hist.parts) > 0
    assert calls == [(step, n) for step in range(n)]


def test_zero_learning_rate_leaves_parameters_bitwise_unchanged(rng):
    bundle = tiny_bundle(rng)
    model, _ = tr.train(bundle, tiny_cfg(learning_rate=0.0, epochs=1))
    fresh = mdl.init_params(
        tr.build_specs(6, tiny_cfg()),
        int(np.random.SeedSequence(0).generate_state(2)[0]),
    )
    for (_, a), (_, b) in zip(model.named_arrays(), fresh.named_arrays()):
        np.testing.assert_array_equal(a, b)


def test_training_is_bitwise_deterministic(rng, tmp_path):
    bundle = tiny_bundle(rng)
    cfg = tiny_cfg(sampler="weight", seed=5)
    m1, h1 = tr.train(bundle, cfg)
    m2, h2 = tr.train(bundle, cfg)
    assert checkpoint_bytes(m1, cfg, h1.final_step, tmp_path, "a.bin") == \
        checkpoint_bytes(m2, cfg, h2.final_step, tmp_path, "b.bin")
    assert [p.total for p in h1.parts] == [p.total for p in h2.parts]


def test_loss_decreases_over_training():
    sb = sy.generate(sy.SynthConfig(n_sources=2, n_per_domain=64, n_target=64,
                                    n_genes=12, signal_dim=4, seed=2))
    cfg = tiny_cfg(epochs=13, batch_size=16, learning_rate=1e-3, sampler="weight")
    _, hist = tr.train(sb.bundle, cfg)
    assert hist.final_step >= 50
    assert hist.parts[-1].total < hist.parts[0].total


def test_history_csv_format(tmp_path, rng):
    bundle = tiny_bundle(rng)
    _, hist = tr.train(bundle, tiny_cfg(epochs=1))
    path = tmp_path / "history.csv"
    hist.write_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "step,reco,ind,adv,cls,total"
    assert len(lines) == hist.final_step + 1
    first = lines[1].split(",")
    assert first[0] == "0"
    parts = hist.parts[0]
    assert float(first[1]) == parts.reco and float(first[5]) == parts.total


def test_no_ind_run_records_exact_zero_ind(rng):
    bundle = tiny_bundle(rng)
    _, hist = tr.train(bundle, tiny_cfg(ind=False))
    for p in hist.parts:
        assert p.ind == 0.0
        assert p.total == p.reco + p.adv + p.cls


def test_no_mda_run_never_touches_target(rng):
    bundle = tiny_bundle(rng)
    poisoned_target = dat.ExpressionMatrix(
        bundle.target.sample_ids,
        bundle.target.gene_names,
        np.full_like(bundle.target.values, 1e300),
    )
    poisoned = dat.DomainBundle(bundle.sources, poisoned_target)
    _, hist = tr.train(poisoned, tiny_cfg(mda=False))
    assert all(np.isfinite(p.total) for p in hist.parts)
    assert all(p.adv == 0.0 and p.ind == 0.0 for p in hist.parts)


def test_adam_zero_gradient_step_is_tiny():
    param = np.random.default_rng(0).normal(size=(5, 4))
    before = param.copy()
    opt = tr.Adam(param, lr=1e-3)
    opt.step(np.zeros((5, 4)))
    assert np.abs(param - before).max() < 1e-12


def test_adam_first_step_moves_each_parameter_by_lr():
    # after one step the bias-corrected moments are g and g * g, so each
    # parameter moves by lr * g / (|g| + eps): lr against the gradient's sign
    rng = np.random.default_rng(0)
    grads = [rng.choice([-1.0, 1.0], size=s) * rng.uniform(0.5, 2.0, size=s)
             for s in ((5, 4), (1, 3))]
    params = [rng.normal(size=g.shape) for g in grads]
    before = [p.copy() for p in params]
    for p, g in zip(params, grads):
        tr.Adam(p, lr=1e-3).step(g)
    for p, b, g in zip(params, before, grads):
        np.testing.assert_allclose(b - p, 1e-3 * np.sign(g), rtol=1e-6)


def test_sampler_is_applied_per_source_domain(rng):
    # 4/20 imbalance; weight sampler balances to 2*majority draws
    labels = np.array([1] * 4 + [0] * 20)
    expr = dat.ExpressionMatrix(
        [f"s{i}" for i in range(24)], [f"g{j}" for j in range(6)],
        rng.normal(size=(24, 6)),
    )
    bundle = dat.DomainBundle([dat.LabeledDomain(expr, labels)],
                              tiny_bundle(rng, n_sources=1).target)
    cfg = tiny_cfg(sampler="weight", epochs=1, batch_size=10)
    _, hist = tr.train(bundle, cfg)
    assert hist.final_step == -(-40 // 10)  # upsampled domain has 40 samples


def test_diverging_loss_raises_naming_the_step_and_loss_parts(rng):
    bundle = tiny_bundle(rng)
    with np.errstate(all="ignore"), pytest.raises(
            tr.DivergenceError, match=r"at step \d+: loss parts LossParts\(reco="):
        tr.train(bundle, tiny_cfg(learning_rate=1e200, beta1=0.0, beta2=0.0))
    assert not issubclass(tr.DivergenceError, ValueError)


def test_non_finite_parameter_after_the_last_step_raises(rng):
    # one step with a finite loss whose Adam update overflows lr * g to inf
    bundle = tiny_bundle(rng)
    with np.errstate(all="ignore"), pytest.raises(
            tr.DivergenceError, match=r"parameter \S+ is not finite after the last "
                                      r"step \(0\).*LossParts\(reco="):
        tr.train(bundle, tiny_cfg(learning_rate=1e308, beta1=0.0, beta2=0.0,
                                  epochs=1, batch_size=64))


def test_train_runs_on_one_blas_thread_and_restores_the_callers_count(rng, monkeypatch):
    bundle, counts, step = tiny_bundle(rng), [], tr.train_step

    def counted(*args):
        counts.append(kernels.blas_threads())
        return step(*args)

    monkeypatch.setattr(tr, "train_step", counted)
    with blas_threads_set(2):
        tr.train(bundle, tiny_cfg())
        assert kernels.blas_threads() == 2
        with np.errstate(all="ignore"), pytest.raises(tr.DivergenceError):
            tr.train(bundle, tiny_cfg(learning_rate=1e200, beta1=0.0, beta2=0.0))
        assert kernels.blas_threads() == 2
    assert set(counts) == {1}


def test_single_class_source_with_sampler_errors(rng):
    dom = make_domain(rng, n=10)
    single = dat.LabeledDomain(dom.expr, np.zeros(10, dtype=np.int64))
    bundle = dat.DomainBundle([single], tiny_bundle(rng, n_sources=1).target)
    with pytest.raises(ValueError, match="both classes"):
        tr.train(bundle, tiny_cfg(sampler="weight"))


# ---------------------------------------------------------------------------
# the fused train step
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("gen_out", tr.GEN_OUT_ACTIVATIONS)
@pytest.mark.parametrize("variant", ["full", "no_mda", "baseline"])
def test_train_step_is_bitwise_the_unfused_graph(monkeypatch, variant, gen_out):
    sb = sy.generate(sy.SynthConfig(n_sources=3, n_per_domain=40, n_target=40,
                                    n_genes=12, signal_dim=4, seed=1))
    bundle, cfg = sy.variant_setup(variant, sb.bundle,
                                   tiny_cfg(gen_out_activation=gen_out))
    batch = next(iter(dat.assemble_batches(bundle, cfg.batch_size, seed=0)))
    model = mdl.init_params(tr.build_specs(12, cfg), 2)
    fused_grad, fused_parts = tr.train_step(model, batch, cfg, 0.4)

    reference_calls = set()

    def reference(name):
        def call(*args):
            reference_calls.add(name)
            return UNFUSED[name](*args)
        return call

    for name in UNFUSED:
        monkeypatch.setattr(ad, name, reference(name))
    grad, parts = tr.train_step(model, batch, cfg, 0.4)
    assert reference_calls == {"full": set(UNFUSED),
                               "no_mda": {"dense", "sq_err_mean"},
                               "baseline": {"dense", "sq_err_mean", "clamped_bce"},
                               }[variant]
    assert fused_grad.tobytes() == grad.tobytes()
    assert [v.hex() for v in dataclasses.astuple(fused_parts)] == \
        [v.hex() for v in dataclasses.astuple(parts)]


# ops of the unfused loss chains, which the fused nodes replace
UNFUSED_LOSS_OPS = {"sub", "scale", "abs", "log", "clamp", "row_sum", "sum_all",
                    "mean_all"}


@pytest.mark.parametrize("variant,n_nodes", [("full", 89), ("no_mda", 52),
                                             ("baseline", 45)])
def test_train_step_tape_budget(monkeypatch, variant, n_nodes):
    # one dense node per layer and one node per loss term; the batches are the
    # only constants, and gradient buffers sit on the parameter leaves only,
    # each a view of the one gradient vector the step returns
    sb = sy.generate(sy.SynthConfig(seed=3))
    bundle, cfg = sy.variant_setup(variant, sb.bundle, sy.bench_train_config())
    batch = next(iter(dat.assemble_batches(bundle, cfg.batch_size, seed=0)))
    model = mdl.init_params(tr.build_specs(len(bundle.gene_names), cfg), 0)
    recorded = []
    backward = ad.backward

    def recording_backward(tape, loss):
        backward(tape, loss)
        recorded.append((tape, list(tape.nodes)))

    monkeypatch.setattr(ad, "backward", recording_backward)
    grad, _ = tr.train_step(model, batch, cfg, 0.5)
    ((tape, nodes),) = recorded
    assert tape.nodes == []  # the step frees its graph as it returns
    ops = {n.op for n in nodes}
    assert len(nodes) == n_nodes
    assert not {"matmul", "add_bias", "relu", "sigmoid"} & ops
    assert not UNFUSED_LOSS_OPS & ops
    xs = [*batch.x_sources, batch.x_target] if cfg.mda else batch.x_sources
    consts = [n for n in nodes if n.grad is None and not n.parents]
    assert len(consts) == len(xs)
    assert all(n.op == "const" and n.value is x and not n.needs_grad
               for n, x in zip(consts, xs))
    assert all(n.needs_grad for n in nodes if n not in consts)
    holders = [node for node in nodes if node.grad is not None]
    assert len(holders) == len(model.named_arrays()) == 20
    assert all(node.op.endswith(".param") and not node.parents for node in holders)
    assert all(node.grad.base is grad for node in holders)
    assert sum(node.grad.nbytes for node in holders) == model.flat.nbytes == grad.nbytes
    assert [(n.grad.ctypes.data, n.grad.shape) for n in holders] == \
        [(v.ctypes.data, v.shape) for v in split_grad(model, grad)]


def test_train_leaves_no_cyclic_garbage():
    # every step's graph is freed by reference counting as the step returns,
    # so with the cyclic collector off nothing unreachable is left behind
    sb = sy.generate(sy.SynthConfig(seed=3))
    bundle, cfg = sy.variant_setup("full", sb.bundle, sy.bench_train_config(epochs=1))
    gc.collect()
    gc.disable()
    try:
        tr.train(bundle, cfg)
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.skipif(tr._glibc_mallopt() is None,
                    reason="the freed heap is kept through glibc's mallopt")
def test_a_warm_training_run_takes_no_new_pages():
    # each step frees its graph as it returns; glibc keeps the freed heap for
    # the next step instead of handing it back and faulting it in again
    # (about 1,100 pages a step at these widths without the pad)
    sb = sy.generate(sy.SynthConfig(seed=3))
    bundle, cfg = sy.variant_setup("full", sb.bundle, sy.bench_train_config(
        epochs=1, latent_dim=128, encoder_hidden=256, disc_hidden=64, pred_hidden=64))
    tr.train(bundle, cfg)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    _, history = tr.train(bundle, cfg)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    assert faults < 20 * history.final_step


def test_adam_over_flat_is_bitwise_adam_per_array():
    # Adam's update is elementwise, so one call over the flat vector gives the
    # bits of one call per parameter array fed that array's gradient slice
    sb = sy.generate(sy.SynthConfig(n_sources=3, n_per_domain=40, n_target=40,
                                    n_genes=12, signal_dim=4, seed=2))
    bundle, cfg = sy.variant_setup("full", sb.bundle, tiny_cfg(learning_rate=1e-2))
    batches = list(dat.assemble_batches(bundle, cfg.batch_size, seed=0))
    flat_model = mdl.init_params(tr.build_specs(12, cfg), 4)
    per_array = mdl.ModelBundle(flat_model.specs, flat_model.flat.copy(), flat_model.seed)
    flat_opt = tr.Adam(flat_model.flat, cfg.learning_rate)
    array_opts = [tr.Adam(a, cfg.learning_rate) for _, a in per_array.named_arrays()]
    start = flat_model.flat.copy()
    for step in range(60):
        batch = batches[step % len(batches)]
        grad, _ = tr.train_step(flat_model, batch, cfg, 0.5)
        flat_opt.step(grad)
        grad, _ = tr.train_step(per_array, batch, cfg, 0.5)
        for opt, g in zip(array_opts, split_grad(per_array, grad)):
            opt.step(g)
    assert not np.array_equal(flat_model.flat, start)
    assert flat_model.flat.tobytes() == per_array.flat.tobytes()


def test_paper_width_step_and_adam_stay_under_16_mb():
    rng = np.random.default_rng(0)
    cfg = tr.TrainConfig()  # latent 128, encoder hidden 256, batch 64
    model = mdl.init_params(tr.build_specs(500, cfg), 0)
    batch = dat.TupleBatch(
        x_sources=[rng.normal(size=(64, 500)) for _ in range(3)],
        y_sources=[rng.integers(0, 2, size=64) for _ in range(3)],
        x_target=rng.normal(size=(64, 500)),
    )
    opt = tr.Adam(model.flat, cfg.learning_rate)
    tracemalloc.start()
    try:
        grad, _ = tr.train_step(model, batch, cfg, 0.5)
        opt.step(grad)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16e6, f"peak {peak / 1e6:.1f} MB"


def test_a_training_run_holds_one_gradient_vector_at_a_time():
    # flat, Adam's m and v and one gradient are four parameter sizes; the rest
    # is the step's graph. Keeping the last step's gradient, or summing a
    # leaf's contributions before adding them, costs one more size each
    rng = np.random.default_rng(0)
    genes = [f"g{j}" for j in range(500)]

    def expr(n):
        return dat.ExpressionMatrix([f"s{i}" for i in range(n)], genes,
                                    rng.normal(size=(n, 500)))

    bundle = dat.DomainBundle(
        [dat.LabeledDomain(expr(64), np.arange(64) % 2) for _ in range(2)], expr(64))
    cfg = tr.TrainConfig(epochs=1, batch_size=32, sampler="none")
    tracemalloc.start()
    try:
        model, history = tr.train(bundle, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert history.final_step == 2
    assert peak < 6 * model.flat.nbytes, f"peak {peak / model.flat.nbytes:.2f} sizes"


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

def test_checkpoint_roundtrip_is_bit_exact(tmp_path, rng):
    bundle = tiny_bundle(rng)
    cfg = tiny_cfg(seed=9)
    model, hist = tr.train(bundle, cfg)
    path = tmp_path / "ck.bin"
    tr.save_checkpoint(model, cfg, hist.final_step, path)
    loaded, cfg2, step2 = tr.load_checkpoint(path)
    assert cfg2 == cfg and step2 == hist.final_step
    for (na, a), (nb, b) in zip(model.named_arrays(), loaded.named_arrays()):
        assert na == nb
        np.testing.assert_array_equal(a, b)
    # re-save without training: byte-identical file
    path2 = tmp_path / "ck2.bin"
    tr.save_checkpoint(loaded, cfg2, step2, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_checkpoint_io_copies_the_parameter_block_once(tmp_path):
    # save hashes and writes a view of flat; load reads the body straight into
    # a fresh float64 array and hashes that
    cfg = tr.TrainConfig()
    model = mdl.init_params(tr.build_specs(500, cfg), 0)
    path = tmp_path / "ck.bin"
    tracemalloc.start()
    try:
        tr.save_checkpoint(model, cfg, 7, path)
        saved = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        loaded, _, _ = tr.load_checkpoint(path)
        read = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert loaded.flat.tobytes() == model.flat.tobytes()
    size = model.flat.nbytes
    assert saved < 0.5 * size, f"save peak {saved / size:.2f} sizes"
    assert read < 1.5 * size, f"load peak {read / size:.2f} sizes"


def test_checkpoint_version_mismatch(tmp_path, rng):
    bundle = tiny_bundle(rng)
    cfg = tiny_cfg()
    model, _ = tr.train(bundle, cfg)
    path = tmp_path / "ck.bin"
    tr.save_checkpoint(model, cfg, 1, path)
    blob = path.read_bytes()
    corrupted = blob.replace(b'"format_version": 2', b'"format_version": 9', 1)
    path.write_bytes(corrupted)
    with pytest.raises(tr.CheckpointError, match="version"):
        tr.load_checkpoint(path)


def test_checkpoint_truncation_detected(tmp_path, rng):
    bundle = tiny_bundle(rng)
    cfg = tiny_cfg()
    model, _ = tr.train(bundle, cfg)
    path = tmp_path / "ck.bin"
    tr.save_checkpoint(model, cfg, 1, path)
    blob = path.read_bytes()
    path.write_bytes(blob[:-16])
    with pytest.raises(tr.CheckpointError, match="truncated"):
        tr.load_checkpoint(path)
    path.write_bytes(blob + b"\x00" * 8)
    with pytest.raises(tr.CheckpointError, match="trailing"):
        tr.load_checkpoint(path)


def test_checkpoint_header_is_json_line(tmp_path, rng):
    bundle = tiny_bundle(rng)
    cfg = tiny_cfg()
    model, _ = tr.train(bundle, cfg)
    path = tmp_path / "ck.bin"
    tr.save_checkpoint(model, cfg, 42, path)
    head, body = path.read_bytes().split(b"\n", 1)
    header = json.loads(head)
    assert set(header) == set(tr.HEADER_KEYS)
    assert header["format_version"] == 2
    assert header["step"] == 42
    assert header["genes"] == 6
    assert body == model.flat.astype("<f8").tobytes()
    # the checksum covers the header without it, a newline, then the body
    del header["sha256"]
    canonical = json.dumps(header, sort_keys=True).encode() + b"\n"
    assert json.loads(head)["sha256"] == hashlib.sha256(canonical + body).hexdigest()


def _rewrite_header(path, edit):
    head, body = path.read_bytes().split(b"\n", 1)
    header = json.loads(head)
    edit(header)
    path.write_bytes(json.dumps(header, sort_keys=True).encode() + b"\n" + body)


def _saved_checkpoint(tmp_path):
    cfg = tiny_cfg()
    model = mdl.init_params(tr.build_specs(6, cfg), 0)
    path = tmp_path / "ck.bin"
    tr.save_checkpoint(model, cfg, 1, path)
    return path


@pytest.mark.parametrize("key", ["genes", "seed", "step", "config", "sha256"])
def test_checkpoint_header_missing_key_is_checkpoint_error(tmp_path, key):
    path = _saved_checkpoint(tmp_path)
    _rewrite_header(path, lambda h: h.pop(key))
    with pytest.raises(tr.CheckpointError, match=key):
        tr.load_checkpoint(path)


@pytest.mark.parametrize("key", ["specs", "dims", "arrays"])
def test_checkpoint_leftover_format_1_key_is_checkpoint_error(tmp_path, key):
    path = _saved_checkpoint(tmp_path)
    _rewrite_header(path, lambda h: h.update({key: {}}))
    with pytest.raises(tr.CheckpointError, match=f"unknown keys \\['{key}'\\]"):
        tr.load_checkpoint(path)


def test_format_1_checkpoint_is_checkpoint_error_naming_the_version(tmp_path):
    cfg = tiny_cfg()
    path = tmp_path / "v1.bin"
    write_v1_checkpoint(path, mdl.init_params(tr.build_specs(6, cfg), 0), cfg, 1)
    with pytest.raises(tr.CheckpointError, match="format version 1 .*expected 2"):
        tr.load_checkpoint(path)


def test_checkpoint_swapped_array_entries_are_checkpoint_error(tmp_path):
    cfg = tiny_cfg()
    model = mdl.init_params(tr.build_specs(6, cfg), 0)
    path = tmp_path / "ck.bin"
    tr.save_checkpoint(model, cfg, 1, path)
    # the generator's two d x d weights: the body keeps its size and shape
    swap_body_blocks(path, model, "generator.0.W", "generator.1.W")
    with pytest.raises(tr.CheckpointError, match="sha256 mismatch"):
        tr.load_checkpoint(path)


def test_checkpoint_flipped_body_bit_is_checkpoint_error(tmp_path):
    path = _saved_checkpoint(tmp_path)
    blob = bytearray(path.read_bytes())
    blob[-3] ^= 0x10  # one bit of the last parameter's mantissa
    path.write_bytes(bytes(blob))
    with pytest.raises(tr.CheckpointError, match="sha256 mismatch"):
        tr.load_checkpoint(path)


def test_checkpoint_header_json_list_is_checkpoint_error(tmp_path):
    path = _saved_checkpoint(tmp_path)
    body = path.read_bytes().split(b"\n", 1)[1]
    path.write_bytes(b'[{"format_version": 2}]\n' + body)
    with pytest.raises(tr.CheckpointError, match="list"):
        tr.load_checkpoint(path)


TRUNCATED = r"truncated body: it holds \d+ bytes; the header implies \d+$"
TRAILING = r"trailing bytes after the body: it holds \d+ bytes; the header implies \d+$"


@pytest.mark.parametrize("edit,message", [
    # the body holds a latent-4 model with a relu generator: a config that
    # implies another parameter count does not fit it, and one that keeps the
    # count still changes the checksummed header
    ({"latent_dim": 64, "gen_out_activation": "sigmoid", "encoder_hidden": 999},
     TRUNCATED),
    ({"encoder_hidden": 999}, TRUNCATED),
    ({"gen_out_activation": "sigmoid"}, "sha256 mismatch"),
    ({"pred_hidden": 5}, TRUNCATED),
    ({"pred_hidden": 3}, TRAILING),
    ({"ref_batch": 7}, "sha256 mismatch"),
    ({"ref_batch": 0}, "config.*ref_batch: must be >= 1"),
    ({"mda": "no"}, "config.*mda: must be a boolean"),
    ({"seed": -1}, "config.*seed: must be >= 0"),
], ids=["shape", "encoder_hidden", "gen_out_activation", "pred_hidden",
        "pred_hidden_smaller", "ref_batch_7", "ref_batch_0", "mda_no", "seed_negative"])
def test_checkpoint_config_must_be_valid_and_imply_the_specs(tmp_path, edit, message):
    path = _saved_checkpoint(tmp_path)
    _rewrite_header(path, lambda h: h["config"].update(edit))
    with pytest.raises(tr.CheckpointError, match=message):
        tr.load_checkpoint(path)


@pytest.mark.parametrize("key", ["genes", "seed", "step"])
@pytest.mark.parametrize("value", [-1, "6", True, None, 6.0])
def test_checkpoint_header_integers_must_be_json_integers(tmp_path, key, value):
    path = _saved_checkpoint(tmp_path)
    _rewrite_header(path, lambda h: h.update({key: value}))
    with pytest.raises(tr.CheckpointError, match=f"'{key}' must be an integer"):
        tr.load_checkpoint(path)


@pytest.mark.parametrize("value", [None, 7, ["0" * 64], "0" * 64])
def test_checkpoint_sha256_of_another_value_is_checkpoint_error(tmp_path, value):
    path = _saved_checkpoint(tmp_path)
    _rewrite_header(path, lambda h: h.update(sha256=value))
    with pytest.raises(tr.CheckpointError, match="sha256 mismatch"):
        tr.load_checkpoint(path)


@pytest.mark.parametrize("damage", [
    lambda blob: blob[:-16],
    lambda blob: blob[:20],
    lambda blob: b"#" + blob[1:],
    lambda blob: blob[:-3] + bytes([blob[-3] ^ 0x10]) + blob[-2:],
    lambda blob: blob.replace(b'"format_version": 2', b'"format_version": 9', 1),
    lambda blob: b"",
], ids=["truncated_body", "no_header_line", "garbled_header", "flipped_bit",
        "other_version", "empty"])
def test_every_checkpoint_error_starts_with_the_path(tmp_path, damage):
    path = _saved_checkpoint(tmp_path)
    path.write_bytes(damage(path.read_bytes()))
    with pytest.raises(tr.CheckpointError) as err:
        tr.load_checkpoint(path)
    assert str(err.value).startswith(f"{path}: ")


def test_save_checkpoint_refuses_specs_its_config_does_not_imply(tmp_path):
    cfg = tiny_cfg()
    model = mdl.init_params(tr.build_specs(6, cfg), 0)
    path = tmp_path / "ck.bin"
    with pytest.raises(ValueError, match="specs"):
        tr.save_checkpoint(model, tiny_cfg(latent_dim=5), 1, path)
    assert not path.exists()


@given(key=st.sampled_from([f.name for f in dataclasses.fields(tr.TrainConfig)]),
       value=JSON_VALUES)
@settings(max_examples=150, deadline=None)
def test_any_json_config_value_loads_or_is_checkpoint_error(tmp_path_factory, key,
                                                            value):
    path = _saved_checkpoint(tmp_path_factory.mktemp("ck"))
    _rewrite_header(path, lambda h: h["config"].update({key: value}))
    try:
        _, cfg, _ = tr.load_checkpoint(path)
    except tr.CheckpointError:
        return
    assert getattr(cfg, key) == value


@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_any_one_bit_flip_is_refused_or_loads_what_was_saved(tmp_path_factory, data):
    path = _saved_checkpoint(tmp_path_factory.mktemp("flip"))
    model, cfg, step = tr.load_checkpoint(path)
    blob = bytearray(path.read_bytes())
    nl = blob.index(b"\n")
    # half the flips land in the header (with its newline), half in the body
    byte = data.draw(st.integers(0, nl) | st.integers(nl + 1, len(blob) - 1),
                     label="byte")
    blob[byte] ^= 1 << data.draw(st.integers(0, 7), label="bit")
    path.write_bytes(bytes(blob))
    try:
        got, got_cfg, got_step = tr.load_checkpoint(path)
    except tr.CheckpointError:
        return
    assert (got_cfg, got_step, got.seed, got.specs) == (cfg, step, model.seed,
                                                        model.specs)
    assert got.flat.tobytes() == model.flat.tobytes()


# ---------------------------------------------------------------------------
# adversarial mechanics
# ---------------------------------------------------------------------------

def test_encoder_adv_gradient_equals_minus_lambda_times_unreversed(rng):
    """Train-module variant of the reversal identity, on one real batch."""
    from adadrug import autodiff as ad
    from adadrug import losses as ls

    bundle = tiny_bundle(rng)
    batch = next(iter(dat.assemble_batches(bundle, 6, seed=0)))
    model = mdl.init_params(tr.build_specs(6, tiny_cfg()), 3)
    for name, arr in model.named_arrays():
        if name.endswith(".b"):
            arr[:] = np.random.default_rng(hash(name) % 1000).normal(
                scale=0.1, size=arr.shape
            )

    def encoder_adv_grads(lam, reverse=True):
        tape = ad.Tape()
        pn, _ = mdl.lift_params(tape, model)
        specs = model.specs
        h_s = [mdl.mlp_forward_nodes(specs["encoder"], pn["encoder"], tape.leaf(x))
               for x in batch.x_sources]
        h_t = mdl.mlp_forward_nodes(specs["encoder"], pn["encoder"],
                                    tape.leaf(batch.x_target))
        zs = [ad.grad_reverse(h, lam) if reverse else h for h in h_s]
        zt = ad.grad_reverse(h_t, lam) if reverse else h_t
        d_s = [mdl.mlp_forward_nodes(specs["discriminator"], pn["discriminator"], z)
               for z in zs]
        d_t = mdl.mlp_forward_nodes(specs["discriminator"], pn["discriminator"], zt)
        ad.backward(tape, ls.adv_loss(d_s, d_t))
        return [n.grad.copy() for n in pn["encoder"]]

    plain = encoder_adv_grads(1.0, reverse=False)
    lam = 0.6
    rev = encoder_adv_grads(lam)
    for g_rev, g_plain in zip(rev, plain):
        np.testing.assert_allclose(g_rev, -lam * g_plain, rtol=1e-10, atol=1e-18)


def _discriminator_accuracy(model, cfg, held):
    """Training-style embeddings on a class-balanced held-out mix.

    Equally many source and target rows, so a fully confused discriminator
    scores 0.5 rather than the source base rate of the training tuples.
    """
    batch = next(iter(dat.assemble_batches(held, 64, seed=123)))
    h_s = [mdl.encode(model, x) for x in batch.x_sources]
    h_t = mdl.encode(model, batch.x_target)

    def forward(comp, x):
        return mdl.mlp_forward(model.specs[comp], model.params[comp], x)

    if cfg.awg_active:
        w_s = [forward("generator", np.abs(h_t - h)) for h in h_s]
        z_s = [mdl.apply_weights(h, w) for h, w in zip(h_s, w_s)]
        tape = ad.Tape()  # the target's mean weight, as training forms it
        w_t = mdl.mean_weight_nodes([tape.const(w) for w in w_s]).value
        z_t = mdl.apply_weights(h_t, w_t)
    else:
        z_s, z_t = h_s, h_t
    per_domain = z_t.shape[0] // len(z_s)
    preds, labels = [], []
    for z in z_s:
        p = forward("discriminator", z[:per_domain]).ravel()
        preds.append(p)
        labels.append(np.ones(p.size))
    preds.append(forward("discriminator", z_t).ravel())
    labels.append(np.zeros(z_t.shape[0]))
    preds = np.concatenate(preds)
    labels = np.concatenate(labels)
    return float(((preds > 0.5) == labels).mean())


def _split_bundle(bundle, n_train):
    """First n_train rows of every domain for training, the rest held out."""
    def rows_of(expr, rows):
        return dat.ExpressionMatrix(expr.sample_ids[rows], expr.gene_names,
                                    expr.values[rows])

    def take(dom, rows):
        return dat.LabeledDomain(rows_of(dom.expr, rows), dom.labels[rows])

    head, tail = slice(n_train), slice(n_train, None)
    train_b = dat.DomainBundle(
        [take(d, head) for d in bundle.sources], rows_of(bundle.target, head)
    )
    held_b = dat.DomainBundle(
        [take(d, tail) for d in bundle.sources], rows_of(bundle.target, tail)
    )
    return train_b, held_b


def test_discriminator_converges_to_chance_on_shifted_synth():
    cfg = sy.bench_train_config(epochs=60, latent_dim=8, encoder_hidden=32,
                                disc_hidden=16, pred_hidden=16)
    accs = []
    for seed in range(5):
        synth = sy.generate(sy.SynthConfig(
            n_sources=2, n_per_domain=300, n_target=300, n_genes=20,
            signal_dim=5, shift=0.5, noise=0.3, seed=seed,
        ))
        train_b, held_b = _split_bundle(synth.bundle, 150)
        run_cfg = dataclasses.replace(cfg, seed=seed)
        model, _ = tr.train(train_b, run_cfg)
        accs.append(_discriminator_accuracy(model, run_cfg, held_b))
    assert 0.35 <= np.mean(accs) <= 0.65, accs


# trains a small 500-gene model at paper widths, saves its checkpoint to
# argv[1] and prints the BLAS thread count its environment set, which train
# gives back on return
TRAIN_500_GENES = """
import sys
from adadrug import kernels, synth, train
gen = synth.generate(synth.SynthConfig(n_sources=2, n_per_domain=64, n_target=64,
                                       n_genes=500, seed=1))
cfg = train.TrainConfig(epochs=2, batch_size=32, seed=0)
model, history = train.train(gen.bundle, cfg)
train.save_checkpoint(model, cfg, history.final_step, sys.argv[1])
print(kernels.blas_threads())
"""


def test_a_500_gene_checkpoint_does_not_depend_on_the_blas_thread_count(tmp_path):
    if kernels.blas_threads() is None:
        pytest.skip("no loaded BLAS exports an OpenBLAS thread-count getter")
    src = str(Path(__file__).resolve().parent.parent / "src")
    checkpoints = []
    for threads in (1, 2):
        path = tmp_path / f"checkpoint_{threads}.bin"
        env = {**os.environ, "OPENBLAS_NUM_THREADS": str(threads),
               "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get(
                   "PYTHONPATH"))))}
        proc = subprocess.run([sys.executable, "-c", TRAIN_500_GENES, str(path)],
                              env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        if int(proc.stdout.split()[-1]) != threads:
            pytest.skip(f"BLAS would not run {threads} threads in the child")
        checkpoints.append(path.read_bytes())
    assert checkpoints[0] == checkpoints[1]
