import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adadrug import data as dat
from adadrug import model as mdl
from adadrug import synth as sy
from adadrug import train as tr

from conftest import JSON_VALUES, make_domain


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


def test_zero_learning_rate_leaves_parameters_bitwise_unchanged(rng):
    bundle = tiny_bundle(rng)
    model, _ = tr.train(bundle, tiny_cfg(learning_rate=0.0, epochs=1))
    fresh = mdl.init_params(
        tr.build_specs(6, tiny_cfg()),
        int(np.random.SeedSequence(0).generate_state(2)[0]),
    )
    for a, b in zip(model.arrays(), fresh.arrays()):
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
    params = [np.random.default_rng(0).normal(size=(5, 4))]
    before = [p.copy() for p in params]
    opt = tr.Adam(params, lr=1e-3)
    opt.step([np.zeros((5, 4))])
    assert np.abs(params[0] - before[0]).max() < 1e-12


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


def test_single_class_source_with_sampler_errors(rng):
    dom = make_domain(rng, n=10)
    single = dat.LabeledDomain(dom.expr, np.zeros(10, dtype=np.int64))
    bundle = dat.DomainBundle([single], tiny_bundle(rng, n_sources=1).target)
    with pytest.raises(ValueError, match="both classes"):
        tr.train(bundle, tiny_cfg(sampler="weight"))


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


def test_checkpoint_version_mismatch(tmp_path, rng):
    bundle = tiny_bundle(rng)
    cfg = tiny_cfg()
    model, _ = tr.train(bundle, cfg)
    path = tmp_path / "ck.bin"
    tr.save_checkpoint(model, cfg, 1, path)
    blob = path.read_bytes()
    corrupted = blob.replace(b'"format_version": 1', b'"format_version": 9', 1)
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
    header = json.loads(path.read_bytes().split(b"\n", 1)[0])
    assert header["format_version"] == 1
    assert header["step"] == 42
    assert header["dims"] == {"genes": 6, "latent": 4}
    assert set(header["specs"]) == set(mdl.COMPONENTS)


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


@pytest.mark.parametrize("key", ["specs", "dims", "seed", "step", "config", "arrays"])
def test_checkpoint_header_missing_key_is_checkpoint_error(tmp_path, key):
    path = _saved_checkpoint(tmp_path)
    _rewrite_header(path, lambda h: h.pop(key))
    with pytest.raises(tr.CheckpointError, match=key):
        tr.load_checkpoint(path)


def test_checkpoint_unknown_array_component_is_checkpoint_error(tmp_path):
    path = _saved_checkpoint(tmp_path)
    _rewrite_header(path, lambda h: h["arrays"][0].update(name="bogus.0.W"))
    with pytest.raises(tr.CheckpointError, match="bogus.0.W"):
        tr.load_checkpoint(path)


def test_checkpoint_swapped_array_entries_are_checkpoint_error(tmp_path):
    path = _saved_checkpoint(tmp_path)

    def swap(h):
        h["arrays"][0], h["arrays"][1] = h["arrays"][1], h["arrays"][0]

    _rewrite_header(path, swap)
    with pytest.raises(tr.CheckpointError, match="entry 0 .*encoder.0.b"):
        tr.load_checkpoint(path)


def test_checkpoint_array_entry_off_spec_shape_is_checkpoint_error(tmp_path):
    path = _saved_checkpoint(tmp_path)
    _rewrite_header(path, lambda h: h["arrays"][2].update(shape=[2, 32]))
    with pytest.raises(tr.CheckpointError, match="entry 2 .*encoder.1.W"):
        tr.load_checkpoint(path)


def test_checkpoint_header_json_list_is_checkpoint_error(tmp_path):
    path = _saved_checkpoint(tmp_path)
    body = path.read_bytes().split(b"\n", 1)[1]
    path.write_bytes(b'[{"format_version": 1}]\n' + body)
    with pytest.raises(tr.CheckpointError, match="list"):
        tr.load_checkpoint(path)


def test_checkpoint_spec_without_widths_is_checkpoint_error(tmp_path):
    path = _saved_checkpoint(tmp_path)
    _rewrite_header(path, lambda h: h["specs"]["generator"].pop("widths"))
    with pytest.raises(tr.CheckpointError, match="generator.*widths"):
        tr.load_checkpoint(path)


def test_checkpoint_dims_without_latent_is_checkpoint_error(tmp_path):
    path = _saved_checkpoint(tmp_path)
    _rewrite_header(path, lambda h: h["dims"].pop("latent"))
    with pytest.raises(tr.CheckpointError, match="dims.*latent"):
        tr.load_checkpoint(path)


def test_checkpoint_string_shape_is_checkpoint_error(tmp_path):
    path = _saved_checkpoint(tmp_path)
    _rewrite_header(path, lambda h: h["arrays"][0].update(shape="6x8"))
    with pytest.raises(tr.CheckpointError, match="entry 0 .*6x8"):
        tr.load_checkpoint(path)


@pytest.mark.parametrize("edit,message", [
    # the checkpoint arrays are latent 4 with a relu generator
    ({"latent_dim": 64, "gen_out_activation": "sigmoid", "encoder_hidden": 999},
     "dims.*latent.*64"),
    ({"encoder_hidden": 999}, "spec 'encoder' .*config implies"),
    ({"gen_out_activation": "sigmoid"}, "spec 'generator' .*config implies"),
    ({"pred_hidden": 5}, "spec 'predictor' .*config implies"),
    ({"ref_batch": 0}, "config.*ref_batch: must be >= 1"),
    ({"mda": "no"}, "config.*mda: must be a boolean"),
    ({"seed": -1}, "config.*seed: must be >= 0"),
], ids=["shape", "encoder_hidden", "gen_out_activation", "pred_hidden", "ref_batch_0",
        "mda_no", "seed_negative"])
def test_checkpoint_config_must_be_valid_and_imply_the_specs(tmp_path, edit, message):
    path = _saved_checkpoint(tmp_path)
    _rewrite_header(path, lambda h: h["config"].update(edit))
    with pytest.raises(tr.CheckpointError, match=message):
        tr.load_checkpoint(path)


@pytest.mark.parametrize("key", ["dims.genes", "seed", "step"])
@pytest.mark.parametrize("value", [-1, "6", True, None, 6.0])
def test_checkpoint_header_integers_must_be_json_integers(tmp_path, key, value):
    path = _saved_checkpoint(tmp_path)

    def edit(h):
        if key == "dims.genes":
            h["dims"]["genes"] = value
        else:
            h[key] = value

    _rewrite_header(path, edit)
    with pytest.raises(tr.CheckpointError, match=f"'{key}' must be an integer"):
        tr.load_checkpoint(path)


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


# ---------------------------------------------------------------------------
# adversarial mechanics
# ---------------------------------------------------------------------------

def test_encoder_adv_gradient_equals_minus_lambda_times_unreversed(rng):
    """Train-module variant of the reversal identity, on one real batch."""
    from adadrug import autodiff as ad
    from adadrug import losses as ls

    bundle = tiny_bundle(rng)
    batch = dat.assemble_batches(bundle, 6, seed=0)[0]
    model = mdl.init_params(tr.build_specs(6, tiny_cfg()), 3)
    for name, arr in model.named_arrays():
        if name.endswith(".b"):
            arr[:] = np.random.default_rng(hash(name) % 1000).normal(
                scale=0.1, size=arr.shape
            )

    def encoder_adv_grads(lam, reverse=True):
        tape = ad.Tape()
        pn = mdl.lift_params(tape, model)
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
    batch = dat.assemble_batches(held, 64, seed=123)[0]
    h_s = [mdl.encode(model, x) for x in batch.x_sources]
    h_t = mdl.encode(model, batch.x_target)
    if cfg.awg_active:
        w_s = [mdl.gen_weights(model, h_t, h) for h in h_s]
        z_s = [mdl.apply_weights(h, w) for h, w in zip(h_s, w_s)]
        z_t = mdl.apply_weights(h_t, mdl.mean_target_weight(w_s))
    else:
        z_s, z_t = h_s, h_t
    per_domain = z_t.shape[0] // len(z_s)
    preds, labels = [], []
    for z in z_s:
        p = mdl.discriminate(model, z[:per_domain]).ravel()
        preds.append(p)
        labels.append(np.ones(p.size))
    preds.append(mdl.discriminate(model, z_t).ravel())
    labels.append(np.zeros(z_t.shape[0]))
    preds = np.concatenate(preds)
    labels = np.concatenate(labels)
    return float(((preds > 0.5) == labels).mean())


def _split_bundle(bundle, n_train):
    """First n_train rows of every domain for training, the rest held out."""
    def take(dom, rows):
        return dat.LabeledDomain(dom.expr.subset_samples(rows), dom.labels[rows])

    n_total = bundle.sources[0].expr.n_samples
    head, tail = range(n_train), range(n_train, n_total)
    train_b = dat.DomainBundle(
        [take(d, head) for d in bundle.sources], bundle.target.subset_samples(head)
    )
    held_b = dat.DomainBundle(
        [take(d, tail) for d in bundle.sources], bundle.target.subset_samples(tail)
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
