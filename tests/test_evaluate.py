import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adadrug import data as dat
from adadrug import evaluate as ev

from conftest import make_bundle, make_domain
from oracles import aupr_threshold_sweep, auroc_pair_count


# ---------------------------------------------------------------------------
# auroc
# ---------------------------------------------------------------------------

def test_auroc_perfect_and_reversed():
    scores = [0.9, 0.8, 0.3, 0.2]
    assert ev.auroc(scores, [1, 1, 0, 0]) == 1.0
    assert ev.auroc(scores, [0, 0, 1, 1]) == 0.0


def test_auroc_single_class_errors():
    with pytest.raises(ValueError):
        ev.auroc([0.1, 0.2], [1, 1])


def test_auroc_matches_pair_count_oracle_with_ties():
    rng = np.random.default_rng(0)
    for trial in range(30):
        n = int(rng.integers(5, 120))
        scores = rng.integers(0, 12, size=n) / 4.0  # heavy ties
        labels = rng.integers(0, 2, size=n)
        labels[0], labels[1] = 0, 1
        assert ev.auroc(scores, labels) == pytest.approx(
            auroc_pair_count(scores, labels), abs=1e-12
        )


def test_auroc_monotone_transform_invariance(rng):
    scores = rng.normal(size=60)
    labels = (rng.random(60) < 0.4).astype(int)
    labels[:2] = [0, 1]
    base = ev.auroc(scores, labels)
    assert ev.auroc(np.exp(scores), labels) == pytest.approx(base, abs=1e-12)
    assert ev.auroc(3.0 * scores + 11.0, labels) == pytest.approx(base, abs=1e-12)


@given(st.integers(3, 40), st.integers(0, 10**6))
@settings(max_examples=100, deadline=None)
def test_auroc_complement_identity(n, seed):
    rng = np.random.default_rng(seed)
    scores = rng.normal(size=n)  # ties have probability zero
    labels = rng.integers(0, 2, size=n)
    labels[0], labels[1] = 0, 1
    assert ev.auroc(scores, labels) + ev.auroc(-scores, labels) == pytest.approx(
        1.0, abs=1e-12
    )


# ---------------------------------------------------------------------------
# aupr
# ---------------------------------------------------------------------------

def test_aupr_perfect_ranking_is_one():
    assert ev.aupr([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0]) == 1.0


def test_aupr_single_positive_ranked_last():
    for n in (2, 5, 17):
        scores = np.arange(n, dtype=float)
        labels = np.zeros(n, dtype=int)
        labels[0] = 1  # lowest score
        assert ev.aupr(scores, labels) == 1.0 / n


def test_aupr_requires_a_positive():
    with pytest.raises(ValueError):
        ev.aupr([0.1, 0.2], [0, 0])


def test_aupr_matches_threshold_sweep_oracle():
    rng = np.random.default_rng(1)
    for trial in range(30):
        n = int(rng.integers(4, 100))
        scores = rng.integers(0, 9, size=n) / 3.0
        labels = rng.integers(0, 2, size=n)
        labels[0] = 1
        assert ev.aupr(scores, labels) == pytest.approx(
            aupr_threshold_sweep(scores, labels), abs=1e-12
        )


def test_aupr_prevalence_properties(rng):
    n, n_pos = 200, 60
    labels = np.array([1] * n_pos + [0] * (n - n_pos))
    prevalence = n_pos / n
    perfect = np.concatenate([np.ones(n_pos), np.zeros(n - n_pos)])
    assert ev.aupr(perfect, labels) >= prevalence
    vals = []
    scores = rng.normal(size=n)
    for _ in range(100):
        vals.append(ev.aupr(rng.permutation(scores), labels))
    assert abs(np.mean(vals) - prevalence) < 0.05


# ---------------------------------------------------------------------------
# target inference
# ---------------------------------------------------------------------------

def _target(rng, bundle, n=9):
    return dat.ExpressionMatrix(
        [f"t{i}" for i in range(n)],
        [f"g{j}" for j in range(bundle.n_genes)],
        rng.normal(size=(n, bundle.n_genes)),
    )


def test_predict_target_scores_in_unit_interval(rng):
    bundle = make_bundle(seed=1, random_biases=True)
    target = _target(rng, bundle)
    sources = [make_domain(rng, n=12, n_genes=bundle.n_genes, tag=f"s{k}_")
               for k in range(2)]
    scores = ev.predict_target(bundle, target, sources, ref_batch=4, seed=0)
    assert scores.shape == (9,)
    assert ((scores > 0) & (scores < 1)).all()


def test_predict_target_unweighted_ignores_references(rng):
    bundle = make_bundle(seed=2)
    target = _target(rng, bundle)
    sources = [make_domain(rng, n=12, n_genes=bundle.n_genes)]
    a = ev.predict_target(bundle, target, sources, ref_batch=4, seed=0, weighted=False)
    b = ev.predict_target(bundle, target, None, ref_batch=99, seed=77, weighted=False)
    c = ev.predict_target(bundle, target, sources, ref_batch=2, seed=5, weighted=False)
    np.testing.assert_array_equal(a, b)
    np.testing.assert_array_equal(a, c)


def test_predict_target_deterministic_and_full_reference_stable(rng):
    bundle = make_bundle(seed=3, random_biases=True)
    target = _target(rng, bundle)
    sources = [make_domain(rng, n=6, n_genes=bundle.n_genes, tag=f"s{k}_")
               for k in range(3)]
    a = ev.predict_target(bundle, target, sources, ref_batch=6, seed=1)
    b = ev.predict_target(bundle, target, sources, ref_batch=6, seed=1)
    np.testing.assert_array_equal(a, b)
    # ref_batch >= domain size uses the whole domain: seed must not matter
    c = ev.predict_target(bundle, target, sources, ref_batch=6, seed=2)
    np.testing.assert_array_equal(a, c)


def test_mean_reference_weights_chunking_invariant(rng):
    bundle = make_bundle(seed=4, random_biases=True)
    sources = [make_domain(rng, n=10, n_genes=bundle.n_genes)]
    from adadrug import model as mdl

    h = mdl.encode(bundle, rng.normal(size=(7, bundle.n_genes)))
    w1 = ev.mean_reference_weights(bundle, h, sources, ref_batch=5, seed=0, chunk=2)
    w2 = ev.mean_reference_weights(bundle, h, sources, ref_batch=5, seed=0, chunk=100)
    np.testing.assert_array_equal(w1, w2)


@pytest.mark.parametrize("ref_batch", [0, -1])
def test_scoring_rejects_ref_batch_below_one(tmp_path, rng, ref_batch):
    from adadrug import model as mdl

    bundle = make_bundle(seed=4)
    target = _target(rng, bundle)
    sources = [make_domain(rng, n=10, n_genes=bundle.n_genes)]
    h = mdl.encode(bundle, target.values)
    calls = [
        lambda: ev.mean_reference_weights(bundle, h, sources, ref_batch=ref_batch),
        lambda: ev.predict_target(bundle, target, sources, ref_batch=ref_batch),
        lambda: ev.export_embeddings(bundle, target, tmp_path / "e.csv", weighted=True,
                                     sources=sources, ref_batch=ref_batch),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="ref_batch must be >= 1"):
            call()
    assert not (tmp_path / "e.csv").exists()


# ---------------------------------------------------------------------------
# exports
# ---------------------------------------------------------------------------

def test_scores_csv_roundtrip(tmp_path, rng):
    ids = [f"c{i}" for i in range(5)]
    scores = rng.random(5)
    labels = np.array([0, 1, 0, 1, 1])
    path = tmp_path / "scores.csv"
    ev.write_scores_csv(path, ids, scores, labels)
    rids, rscores, rlabels = ev.read_scores_csv(path)
    assert rids == ids
    np.testing.assert_array_equal(rscores, scores)
    np.testing.assert_array_equal(rlabels, labels)


def test_export_embeddings_roundtrip_and_identity(tmp_path, rng):
    bundle = make_bundle(seed=5, random_biases=True)
    target = _target(rng, bundle, n=6)
    path = tmp_path / "emb.csv"
    h = ev.export_embeddings(bundle, target, path)
    from adadrug import model as mdl

    np.testing.assert_array_equal(h, mdl.encode(bundle, target.values))
    lines = path.read_text().strip().splitlines()
    assert len(lines) == 7
    header = lines[0].split(",")
    assert header[0] == "sample_id" and len(header) == bundle.latent_dim + 1
    parsed = np.array([[float(v) for v in ln.split(",")[1:]] for ln in lines[1:]])
    assert np.abs(parsed - h).max() < 1e-12

    sources = [make_domain(rng, n=8, n_genes=bundle.n_genes)]
    z = ev.export_embeddings(bundle, target, path, weighted=True, sources=sources,
                             ref_batch=4, seed=0)
    assert not np.array_equal(z, h)
    with pytest.raises(ValueError):
        ev.export_embeddings(bundle, target, path, weighted=True, sources=None)


def _paper_width_scoring_case(n_target):
    """64-gene model at latent 128, three 128-row source domains."""
    from adadrug import model as mdl

    rng = np.random.default_rng(11)
    bundle = mdl.init_params(mdl.default_specs(64, latent_dim=128), 5)
    sources = [make_domain(rng, n=128, n_genes=64, tag=f"d{k}_") for k in range(3)]
    h = mdl.encode(bundle, rng.normal(size=(n_target, 64)))
    return bundle, h, sources


def test_mean_reference_weights_memory_is_per_block():
    import tracemalloc

    bundle, h, sources = _paper_width_scoring_case(64)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        ev.mean_reference_weights(bundle, h, sources, ref_batch=128, seed=0)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    # one whole-target block would be 64 * 3 * 128 gap rows: 25 MB an array
    assert peak < 16 * 2**20


def test_mean_reference_weights_default_blocks_equal_one_block():
    bundle, h, sources = _paper_width_scoring_case(37)
    m = 3 * 128
    assert 37 % max(1, ev.GAP_ROW_BUDGET // m) != 0
    blocked = ev.mean_reference_weights(bundle, h, sources, ref_batch=128, seed=0)
    whole = ev.mean_reference_weights(bundle, h, sources, ref_batch=128, seed=0,
                                      chunk=37)
    assert blocked.tobytes() == whole.tobytes()
