import numpy as np
import pytest

from adadrug import evaluate as ev
from adadrug import model as mdl
from adadrug import synth as sy
from adadrug import train as tr

from conftest import run_grid_in_pool
from oracles import least_squares_probe


def small_cfg(**kw):
    base = dict(n_sources=3, n_per_domain=150, n_target=150, n_genes=20,
                signal_dim=5, shift=1.0, noise=0.3, pos_rate=0.35, seed=0)
    base.update(kw)
    return sy.SynthConfig(**base)


def test_config_validation():
    with pytest.raises(ValueError):
        sy.SynthConfig(n_sources=0)
    with pytest.raises(ValueError):
        sy.SynthConfig(pos_rate=1.5)
    with pytest.raises(ValueError):
        sy.SynthConfig(shift=-0.1)


@pytest.mark.parametrize("field,value", [
    ("n_sources", True), ("n_per_domain", 40.0), ("n_target", "40"),
    ("n_genes", 2.5), ("signal_dim", None), ("shift", "1.0"), ("noise", False),
    ("pos_rate", [0.3]), ("seed", 1.0),
])
def test_config_refuses_a_wrongly_typed_field_naming_it(field, value):
    with pytest.raises(ValueError, match=f"^{field}: must be "):
        sy.SynthConfig(**{field: value})


# one violation per field: (field, value, the requirement its message states)
RULE_CASES = [
    ("n_sources", 0, ">= 1"), ("n_per_domain", 0, ">= 1"), ("n_target", 0, ">= 1"),
    ("n_genes", 0, ">= 1"), ("signal_dim", 0, ">= 1"), ("shift", -0.5, ">= 0"),
    ("noise", -1, ">= 0"), ("seed", -1, ">= 0"), ("pos_rate", 1.0, "in (0, 1)"),
]


@pytest.mark.parametrize("field,value,requirement", RULE_CASES,
                         ids=[case[0] for case in RULE_CASES])
def test_config_rule_names_its_field(field, value, requirement):
    with pytest.raises(ValueError) as err:
        sy.SynthConfig(**{field: value})
    assert str(err.value) == f"{field}: must be {requirement}"


def test_config_refuses_a_negative_seed_and_stores_floats():
    with pytest.raises(ValueError, match="^seed: must be >= 0$"):
        sy.SynthConfig(seed=-1)
    cfg = sy.SynthConfig(shift=1, noise=0)
    assert (type(cfg.shift), type(cfg.noise)) == (float, float)
    assert cfg == sy.SynthConfig(shift=1.0, noise=0.0)


def test_generate_is_deterministic():
    a = sy.generate(small_cfg())
    b = sy.generate(small_cfg())
    np.testing.assert_array_equal(a.bundle.target.values, b.bundle.target.values)
    np.testing.assert_array_equal(a.target_labels, b.target_labels)
    for da, db in zip(a.bundle.sources, b.bundle.sources):
        np.testing.assert_array_equal(da.expr.values, db.expr.values)
        np.testing.assert_array_equal(da.labels, db.labels)


def test_zero_shift_domains_share_one_map():
    sb = sy.generate(small_cfg(shift=0.0, n_per_domain=600, n_target=600))
    mats = [d.expr.values for d in sb.bundle.sources] + [sb.bundle.target.values]
    means = np.stack([m.mean(axis=0) for m in mats])
    ses = np.stack([m.std(axis=0, ddof=1) / np.sqrt(m.shape[0]) for m in mats])
    for i in range(len(mats)):
        for j in range(i + 1, len(mats)):
            gap = np.abs(means[i] - means[j])
            se = np.sqrt(ses[i] ** 2 + ses[j] ** 2)
            # per-gene means agree within 3 standard errors (allow one outlier)
            assert (gap > 3.0 * se).sum() <= 1


def test_noiseless_probe_transfers():
    sb = sy.generate(small_cfg(shift=0.0, noise=0.0, n_per_domain=300, n_target=300))
    x_train = np.vstack([d.expr.values for d in sb.bundle.sources])
    y_train = np.concatenate([d.labels for d in sb.bundle.sources])
    scores = least_squares_probe(x_train, y_train, sb.bundle.target.values)
    assert ev.auroc(scores, sb.target_labels) > 0.99


def test_positive_rate_close_to_requested():
    sb = sy.generate(small_cfg(pos_rate=0.5, n_per_domain=1000, n_target=1000))
    all_labels = np.concatenate(
        [d.labels for d in sb.bundle.sources] + [sb.target_labels]
    )
    assert 0.45 <= all_labels.mean() <= 0.55


def test_hidden_labels_live_outside_the_training_bundle():
    sb = sy.generate(small_cfg())
    assert not hasattr(sb.bundle.target, "labels")
    assert isinstance(sb.target_labels, np.ndarray)
    # both classes present so AUROC is well defined
    assert 0 < sb.target_labels.sum() < sb.target_labels.size


def test_variant_setup_shapes():
    sb = sy.generate(small_cfg())
    cfg = sy.bench_train_config(epochs=1)
    single, single_cfg = sy.variant_setup("baseline", sb.bundle, cfg)
    assert single.n_sources == 1
    assert single.sources[0].expr.n_samples == 150
    assert single_cfg.awg is False and single_cfg.mda is True
    two, _ = sy.variant_setup("full_2src", sb.bundle, cfg)
    assert two.n_sources == 2
    nomda_bundle, nomda_cfg = sy.variant_setup("no_mda", sb.bundle, cfg)
    assert nomda_bundle.n_sources == 3
    assert nomda_cfg.mda is False and nomda_cfg.awg_active is False
    with pytest.raises(ValueError):
        sy.variant_setup("nonsense", sb.bundle, cfg)


def _fast_cfg(**kw):
    return small_cfg(n_per_domain=60, n_target=60, n_genes=10, signal_dim=3, **kw)


def _fast_train():
    return sy.bench_train_config(epochs=4, latent_dim=8, encoder_hidden=16,
                                 disc_hidden=8, pred_hidden=8, batch_size=16)


def test_run_benchmark_single_row_and_determinism():
    rows = sy.run_benchmark(_fast_cfg(), ["full"], [0], train_cfg=_fast_train())
    assert len(rows) == 1
    assert rows[0].variant == "full" and rows[0].seed == 0
    assert 0.0 <= rows[0].auroc <= 1.0
    again = sy.run_benchmark(_fast_cfg(), ["full"], [0], train_cfg=_fast_train())
    assert rows[0] == again[0]


@pytest.mark.parametrize("variant,weighted", [
    ("full", True), ("baseline", False), ("no_mda", False), ("no_awg", False),
])
def test_run_variant_weights_only_a_run_whose_generator_trained(monkeypatch, variant,
                                                                weighted):
    synth = sy.generate(_fast_cfg())
    models, scored = [], []
    train, report = tr.train, ev.metrics_report

    def train_spy(bundle, cfg):
        models.append(train(bundle, cfg)[0])
        return models[-1], None

    def report_spy(scores, labels):
        scored.append(np.array(scores))
        return report(scores, labels)

    monkeypatch.setattr(tr, "train", train_spy)
    monkeypatch.setattr(ev, "metrics_report", report_spy)
    train_cfg = _fast_train()
    sy.run_variant(synth, variant, 0, train_cfg)
    (model,), (scores,) = models, scored
    target = synth.bundle.target
    raw = mdl.predict(model, mdl.encode(model, target.values)).ravel()
    assert (scores.tobytes() == raw.tobytes()) is not weighted
    if weighted:
        want = ev.predict_target(model, target, synth.bundle.sources,
                                 ref_batch=train_cfg.ref_batch, seed=0)
        assert scores.tobytes() == want.tobytes()


def test_run_benchmark_rejects_bad_variants():
    with pytest.raises(ValueError):
        sy.run_benchmark(_fast_cfg(), [], [0])
    with pytest.raises(ValueError):
        sy.run_benchmark(_fast_cfg(), ["fancy"], [0])


@pytest.mark.parametrize("n_sources,variants,seeds,message", [
    (3, ["full"], [0, -1], "seed: must be >= 0"),
    (1, ["full", "full_2src"], [0], "full_2src needs at least two"),
    (3, ["full"], [0, 1, 0], r"seeds must not repeat, got \[0, 1, 0\]"),
    (3, ["full", "no_mda", "full"], [0], "variants must not repeat"),
], ids=["negative_seed", "full_2src_with_one_source", "repeated_seed",
        "repeated_variant"])
def test_run_benchmark_checks_every_run_before_the_first_trains(
        monkeypatch, n_sources, variants, seeds, message):
    calls = []
    monkeypatch.setattr(tr, "train", lambda *args: calls.append(args))
    with pytest.raises(ValueError, match=message):
        sy.run_benchmark(_fast_cfg(n_sources=n_sources), variants, seeds,
                         train_cfg=_fast_train())
    assert calls == []


def test_run_benchmark_rejects_empty_seeds():
    with pytest.raises(ValueError, match="seeds must be non-empty"):
        sy.run_benchmark(_fast_cfg(), ["full"], [])


def test_every_variant_clears_sanity_floor_without_shift():
    cfg = small_cfg(shift=0.0, noise=0.05, n_per_domain=200, n_target=200)
    rows = sy.run_benchmark(
        cfg, ["full", "baseline", "no_mda", "no_ind", "no_awg"], [0],
        train_cfg=sy.bench_train_config(epochs=60),
    )
    for r in rows:
        assert r.auroc > 0.9, (r.variant, r.auroc)


def test_shift_degrades_no_mda_at_least_as_much_as_full():
    def mean_aurocs(shift):
        # default feature geometry, reduced sample counts for speed
        cfg = sy.SynthConfig(shift=shift, n_per_domain=200, n_target=200)
        rows = run_grid_in_pool(sy.generate(cfg), ["full", "no_mda"], [0, 1, 2, 3, 4],
                                sy.bench_train_config(epochs=60))
        return {v: float(np.mean([r.auroc for r in rows if r.variant == v]))
                for v in ("full", "no_mda")}

    near, far = mean_aurocs(0.3), mean_aurocs(1.5)
    full_drop = near["full"] - far["full"]
    no_mda_drop = near["no_mda"] - far["no_mda"]
    assert no_mda_drop >= full_drop


def test_the_test_pool_gives_the_serial_rows():
    synth = sy.generate(sy.SynthConfig())
    cfg = sy.bench_train_config(epochs=2)
    rows = run_grid_in_pool(synth, ["full", "no_mda"], [0, 1], cfg)
    assert rows == sy.run_grid(synth, ["full", "no_mda"], [0, 1], cfg)


def test_summarize_means():
    rows = [
        sy.BenchmarkRow("full", 0, 0.8, 0.7),
        sy.BenchmarkRow("full", 1, 0.9, 0.8),
        sy.BenchmarkRow("baseline", 0, 0.6, 0.5),
    ]
    s = sy.summarize(rows)
    assert s["full"]["n"] == 2
    assert s["full"]["auroc_mean"] == pytest.approx(0.85)
    assert s["baseline"]["aupr_mean"] == pytest.approx(0.5)
    assert list(s) == ["full", "baseline"]
