import csv
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adadrug import data as dat
from adadrug import evaluate as ev
from adadrug import model as mdl

from conftest import glibc, make_bundle, make_domain
from oracles import aupr_threshold_sweep, auroc_pair_count, average_ranks_loop


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


@pytest.mark.parametrize("metric", [ev.auroc, ev.aupr])
@pytest.mark.parametrize("bad", [0.5, np.nan])
def test_a_label_that_is_not_exactly_0_or_1_is_refused_not_truncated(metric, bad):
    with np.errstate(invalid="raise"), pytest.raises(ValueError,
                                                     match="labels must be 0 or 1"):
        metric([0.1, 0.9, 0.5], [bad, 1.0, 0.0])


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


# few distinct values, signed zeros and subnormal-scale magnitudes: long tie
# groups, and values that compare equal without the same bits
TIE_VALUES = st.sampled_from([0.0, -0.0, 1e-300, -1e-300, 0.5, 1.0, -3.0, 7.25])


@given(st.lists(TIE_VALUES, max_size=60))
@settings(max_examples=300, deadline=None)
def test_average_ranks_are_bitwise_the_tie_group_loop(values):
    s = np.array(values, dtype=np.float64)
    assert ev._average_ranks(s).tobytes() == average_ranks_loop(s).tobytes()


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
    a = ev.predict_target(bundle, target, None, ref_batch=4, seed=0)
    b = ev.predict_target(bundle, target, None, ref_batch=99, seed=77)
    c = ev.predict_target(bundle, target, [], ref_batch=2, seed=5)
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


def test_mean_reference_weights_chunking_invariant(rng, monkeypatch):
    bundle = make_bundle(seed=4, random_biases=True)
    sources = [make_domain(rng, n=10, n_genes=bundle.n_genes)]
    from adadrug import model as mdl

    h = mdl.encode(bundle, rng.normal(size=(7, bundle.n_genes)))
    got = []
    for budget in (5, 7 * 5):  # one target row per block, then all seven in one
        monkeypatch.setattr(ev, "GAP_ROW_BUDGET", budget)
        got.append(ev.mean_reference_weights(bundle, h, sources, ref_batch=5, seed=0))
    np.testing.assert_array_equal(got[0], got[1])


def test_reference_rows_are_distinct_and_the_seeded_draw(rng):
    bundle = make_bundle(seed=5, random_biases=True)
    sources = [make_domain(rng, n=n, n_genes=bundle.n_genes, tag=f"s{k}_")
               for k, n in enumerate((10, 12))]
    h = mdl.encode(bundle, rng.normal(size=(4, bundle.n_genes)))
    replay = np.random.default_rng(11)
    drawn = []
    for dom in sources:
        rows = replay.choice(dom.expr.n_samples, 9, replace=False)
        assert len(set(rows.tolist())) == 9
        drawn.append(dat.LabeledDomain(dat.ExpressionMatrix(
            [dom.expr.sample_ids[i] for i in rows], dom.expr.gene_names,
            dom.expr.values[rows]), dom.labels[rows]))
    got = ev.mean_reference_weights(bundle, h, sources, ref_batch=9, seed=11)
    # ref_batch >= domain size takes every row in order, with no draw
    want = ev.mean_reference_weights(bundle, h, drawn, ref_batch=9, seed=0)
    assert got.tobytes() == want.tobytes()
    for seed in range(20):
        assert len(set(ev._reference_rows(10, 9, np.random.default_rng(seed)))) == 9


def test_one_reference_row_gives_the_training_weights(rng):
    """The mean over a single reference is that reference's weight vector:
    the bytes ``gen_weights_nodes`` gives on the same gap in training."""
    from adadrug import autodiff as ad
    from adadrug import model as mdl

    bundle = make_bundle(seed=6, latent=16, random_biases=True)
    ref = dat.ExpressionMatrix(["r0"], [f"g{j}" for j in range(bundle.n_genes)],
                               rng.normal(size=(1, bundle.n_genes)))
    h = mdl.encode(bundle, rng.normal(size=(7, bundle.n_genes)))
    got = ev.mean_reference_weights(bundle, h, [dat.LabeledDomain(ref, [1])],
                                    ref_batch=1, seed=0)
    tape = ad.Tape()
    pn, _ = mdl.lift_params(tape, bundle)
    h_ref = np.repeat(mdl.encode(bundle, ref.values), len(h), axis=0)
    want = mdl.gen_weights_nodes(bundle, pn, tape.const(h), tape.const(h_ref)).value
    assert (want > 0).any()
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("ref_batch", [0, -1])
def test_scoring_rejects_ref_batch_below_one(rng, ref_batch):
    from adadrug import model as mdl

    bundle = make_bundle(seed=4)
    target = _target(rng, bundle)
    sources = [make_domain(rng, n=10, n_genes=bundle.n_genes)]
    h = mdl.encode(bundle, target.values)
    calls = [
        lambda: ev.mean_reference_weights(bundle, h, sources, ref_batch=ref_batch),
        lambda: ev.predict_target(bundle, target, sources, ref_batch=ref_batch),
        lambda: ev.embed_target(bundle, target, sources, ref_batch=ref_batch),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="ref_batch must be >= 1"):
            call()


@pytest.mark.parametrize("empty_at", [0, 1])
def test_scoring_refuses_an_empty_source_before_encoding(rng, monkeypatch, empty_at):
    bundle = make_bundle(seed=4)
    target = _target(rng, bundle)
    h = mdl.encode(bundle, target.values)
    sources = [make_domain(rng, n=10, n_genes=bundle.n_genes)]
    sources.insert(empty_at, dat.ExpressionMatrix([], target.gene_names,
                                                  np.empty((0, bundle.n_genes))))
    encoded = []
    monkeypatch.setattr(mdl, "encode", lambda *args: encoded.append(args))
    calls = [
        lambda: ev.mean_reference_weights(bundle, h, sources),
        lambda: ev.predict_target(bundle, target, sources),
        lambda: ev.embed_target(bundle, target, sources),
    ]
    for call in calls:
        with pytest.raises(ValueError, match=f"source {empty_at} has no samples"):
            call()
    assert encoded == []


# ---------------------------------------------------------------------------
# exports
# ---------------------------------------------------------------------------

# ids holding the delimiter, a quote, a carriage return, a newline and
# non-ASCII text: each must be quoted to read back
TRICKY_IDS = ["a,b", 'q"t', "c\rr", "n\nl", "\u00e9t\u00e9", "plain"]


def test_scores_csv_roundtrip(tmp_path, rng):
    scores = rng.random(len(TRICKY_IDS))
    for labels in (np.array([0, 1, 0, 1, 1, 0]), None):
        path = tmp_path / "scores.csv"
        ev.write_scores_csv(path, TRICKY_IDS, scores, labels)
        rids, rscores, rlabels = ev.read_scores_csv(path)
        assert rids == TRICKY_IDS
        np.testing.assert_array_equal(rscores, scores)
        if labels is None:
            assert rlabels is None
        else:
            np.testing.assert_array_equal(rlabels, labels)


@pytest.mark.parametrize("text,message", [
    ("sample_id,score\na,0.5\nb\n", "line 3: expected 2 cells, got 1"),
    ("sample_id,score,label\na,0.5,1\nb,0.4\n", "line 3: expected 3 cells, got 2"),
    ("sample_id,score\na,0.5\nb,nan\n", "line 3: non-finite score 'nan'"),
    ("sample_id,score\na,0.5\nb,-inf\n", "line 3: non-finite score '-inf'"),
    ("sample_id,score\na,0.5\nb,0.4\na,0.3\n", "line 4: missing or duplicate"),
    ("sample_id,score\na,high\n", "line 2: non-numeric score 'high'"),
    ("sample_id,score,label\na,0.5,2\n", "line 2: label must be 0 or 1"),
    ("sample_id,prob\na,0.5\n", "line 1: header must be"),
    ("sample_id,score\n\n", "line 2: no score rows"),
    ("", "line 1: header must be"),
], ids=["short_row", "short_labelled_row", "nan", "minus_inf", "duplicate_id",
        "non_numeric", "label_2", "header", "no_rows", "empty"])
def test_read_scores_csv_errors_name_the_line(tmp_path, text, message):
    path = tmp_path / "scores.csv"
    path.write_text(text)
    with pytest.raises(dat.ParseError, match=message):
        ev.read_scores_csv(path)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("metric", [ev.auroc, ev.aupr, ev.metrics_report])
def test_metrics_refuse_non_finite_scores(metric, bad):
    with pytest.raises(ValueError, match="finite"):
        metric([0.9, bad, 0.2, 0.1], [1, 1, 0, 0])


def test_export_embeddings_roundtrip_and_identity(tmp_path, rng):
    bundle = make_bundle(seed=5, random_biases=True)
    target = _target(rng, bundle, n=6)
    path = tmp_path / "emb.csv"
    h = ev.embed_target(bundle, target)
    ev.write_embeddings_csv(path, TRICKY_IDS, h)
    from adadrug import model as mdl

    np.testing.assert_array_equal(h, mdl.encode(bundle, target.values))
    with open(path, newline="", encoding="utf-8") as fh:
        header, *rows = csv.reader(fh)
    assert header == ["sample_id"] + [f"e{i}" for i in range(bundle.latent_dim)]
    assert [r[0] for r in rows] == TRICKY_IDS
    parsed = np.array([[float(v) for v in r[1:]] for r in rows])
    assert parsed.tobytes() == h.tobytes()

    sources = [make_domain(rng, n=8, n_genes=bundle.n_genes)]
    z = ev.embed_target(bundle, target, sources, ref_batch=4, seed=0)
    assert not np.array_equal(z, h)


def _paper_width_scoring_case(n_target):
    """64-gene model at latent 128, three 128-row source domains."""
    from adadrug import model as mdl
    from adadrug import train as tr

    rng = np.random.default_rng(11)
    bundle = mdl.init_params(tr.build_specs(64, tr.TrainConfig(latent_dim=128)), 5)
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


def test_mean_reference_weights_default_blocks_equal_one_block(monkeypatch):
    bundle, h, sources = _paper_width_scoring_case(37)
    m = 3 * 128
    assert 37 % max(1, ev.GAP_ROW_BUDGET // m) != 0
    blocked = ev.mean_reference_weights(bundle, h, sources, ref_batch=128, seed=0)
    monkeypatch.setattr(ev, "GAP_ROW_BUDGET", 37 * m)
    whole = ev.mean_reference_weights(bundle, h, sources, ref_batch=128, seed=0)
    assert blocked.tobytes() == whole.tobytes()


def test_paper_width_blocks_give_the_same_bits_at_any_budget(monkeypatch):
    # m = 3 x 128 references and 40 target rows: 768-row generator calls at a
    # budget of 1,024, which mlp_forward runs whole, then 1,920 and 3,840 rows,
    # which it cuts into two lanes
    bundle, h, sources = _paper_width_scoring_case(40)
    got = []
    for budget in (1024, 2048, 4096):
        monkeypatch.setattr(ev, "GAP_ROW_BUDGET", budget)
        got.append(ev.mean_reference_weights(bundle, h, sources, ref_batch=128, seed=0))
    assert got[0].tobytes() == got[1].tobytes() == got[2].tobytes()


# scores a 640-row target twice at paper widths with an untrained model, so no
# training ever runs in the process, and prints the second call's minor faults
SCORE_WITHOUT_TRAINING = """
import resource
from adadrug import evaluate, model, synth, train
gen = synth.generate(synth.SynthConfig(n_target=640, seed=3))
cfg = train.TrainConfig(latent_dim=128, encoder_hidden=256, disc_hidden=64, pred_hidden=64)
bundle = model.init_params(train.build_specs(len(gen.bundle.gene_names), cfg), 0)
args = (bundle, gen.bundle.target, gen.bundle.sources)
evaluate.predict_target(*args, ref_batch=128)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
evaluate.predict_target(*args, ref_batch=128)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@glibc
def test_scoring_in_a_process_that_never_trains_takes_no_new_pages():
    # the heap policy comes with the BLAS pin, which scoring enters too: a warm
    # call reuses the heap its blocks freed instead of faulting it in again
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (
        str(Path(ev.__file__).parents[1]), os.environ.get("PYTHONPATH"))))}
    proc = subprocess.run([sys.executable, "-c", SCORE_WITHOUT_TRAINING], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    # fewer pages than one block's 1,920 x 128 generator result (480 pages)
    assert int(proc.stdout) < 400


def test_one_reference_blocks_give_the_one_block_bits(monkeypatch):
    # one reference row (m = 1) and 1,025 target rows: at a budget of 1,024 a
    # block of 1,024 rows used to leave a one-row tail block, which BLAS
    # computes along another path, with other bits
    bundle, h, _ = _paper_width_scoring_case(1025)
    ref = [dat.LabeledDomain(dat.ExpressionMatrix(
        ["r0"], [f"g{j}" for j in range(64)],
        np.random.default_rng(12).normal(size=(1, 64))), [1])]
    got = []
    for budget in (1024, 1025):  # two blocks, then one
        monkeypatch.setattr(ev, "GAP_ROW_BUDGET", budget)
        got.append(ev.mean_reference_weights(bundle, h, ref, ref_batch=1, seed=0))
    assert got[0].tobytes() == got[1].tobytes()
