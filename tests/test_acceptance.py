"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Criteria 4 and 5 share a single benchmark table (module fixture) built from
the default synthetic config over five fixed seeds; everything is seeded,
so the asserted orderings are exactly reproducible.
"""

import os
import time

import numpy as np
import pytest

from adadrug import autodiff as ad
from adadrug import cli
from adadrug import data as dat
from adadrug import evaluate as ev
from adadrug import losses as ls
from adadrug import model as mdl
from adadrug import synth as sy
from adadrug import train as tr

from conftest import make_bundle, run_grid_in_pool, split_grad
from oracles import (
    aupr_threshold_sweep,
    auroc_pair_count,
    max_rel_error,
    point_to_segment_distance,
)
from test_cli import write_synth_files

SEEDS = [0, 1, 2, 3, 4]


def report(criterion, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[ACCEPTANCE] criterion {criterion}: {status} {detail}")
    assert ok, f"criterion {criterion} failed: {detail}"


# ---------------------------------------------------------------------------
# 1. gradient correctness (G=10, d=4, K=3, B=5), incl. reversal sign
# ---------------------------------------------------------------------------

def test_criterion_1_gradient_correctness(rng):
    t0 = time.time()
    bundle = make_bundle(seed=21, n_genes=10, latent=4, enc_hidden=6,
                         head_hidden=3, random_biases=True)
    batch = dat.TupleBatch(
        x_sources=[rng.normal(size=(5, 10)) for _ in range(3)],
        y_sources=[rng.integers(0, 2, size=5).astype(np.int64) for _ in range(3)],
        x_target=rng.normal(size=(5, 10)),
    )
    cfg = tr.TrainConfig(latent_dim=4, encoder_hidden=6, disc_hidden=3,
                         pred_hidden=3, sampler="none")
    lam = 1.0
    grad, parts = tr.train_step(bundle, batch, cfg, lam)
    grads = split_grad(bundle, grad)
    names = [n for n, _ in bundle.named_arrays()]
    arrays = [a for _, a in bundle.named_arrays()]

    # one central-difference sweep records all four loss values at once
    h = 1e-5
    fd = {p: [np.zeros_like(a) for a in arrays] for p in ("reco", "ind", "adv", "cls")}
    for ai, a in enumerate(arrays):
        flat = a.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            _, up = tr.train_step(bundle, batch, cfg, lam)
            flat[i] = orig - h
            _, down = tr.train_step(bundle, batch, cfg, lam)
            flat[i] = orig
            for p in fd:
                fd[p][ai].reshape(-1)[i] = (
                    getattr(up, p) - getattr(down, p)
                ) / (2 * h)

    floor = 1e-6 * max(1.0, parts.total)
    errs = {}
    expected = []
    for i, name in enumerate(names):
        sign = 1.0 if name.split(".")[0] == "discriminator" else -lam
        expected.append(fd["reco"][i] + fd["ind"][i] + fd["cls"][i] + sign * fd["adv"][i])
    total_err = max_rel_error(grads, expected, floor=floor)
    errs["combined_total"] = total_err

    # per-term gradients, rebuilt in isolation against their own FD
    def term_grads(part):
        t = ad.Tape()
        pn, _ = mdl.lift_params(t, bundle)
        specs = bundle.specs
        h_s = [mdl.mlp_forward_nodes(specs["encoder"], pn["encoder"], t.leaf(x))
               for x in batch.x_sources]
        h_t = mdl.mlp_forward_nodes(specs["encoder"], pn["encoder"],
                                    t.leaf(batch.x_target))
        w_s = [mdl.gen_weights_nodes(bundle, pn, h_t, hh) for hh in h_s]
        z_s = [ad.ewmul(hh, w) for hh, w in zip(h_s, w_s)]
        z_t = ad.ewmul(h_t, mdl.mean_weight_nodes(w_s))
        if part == "reco":
            dec = [mdl.mlp_forward_nodes(specs["decoder"], pn["decoder"], z)
                   for z in z_s]
            dec_t = mdl.mlp_forward_nodes(specs["decoder"], pn["decoder"], z_t)
            node = ls.reco_loss(dec + [dec_t], batch.x_sources + [batch.x_target])
        elif part == "ind":
            node = ls.ind_loss(w_s)
        elif part == "adv":
            d_s = [mdl.mlp_forward_nodes(specs["discriminator"],
                                         pn["discriminator"],
                                         ad.grad_reverse(z, lam)) for z in z_s]
            d_t = mdl.mlp_forward_nodes(specs["discriminator"],
                                        pn["discriminator"],
                                        ad.grad_reverse(z_t, lam))
            node = ls.adv_loss(d_s, d_t)
        else:
            p_s = [mdl.mlp_forward_nodes(specs["predictor"], pn["predictor"], z)
                   for z in z_s]
            node = ls.cls_loss(p_s, batch.y_sources)
        ad.backward(t, node)
        out = []
        for comp in mdl.COMPONENTS:
            out.extend(n.grad.copy() for n in pn[comp])
        return out

    for part in ("reco", "ind", "cls"):
        errs[part] = max_rel_error(term_grads(part), fd[part], floor=floor)
    adv_expected = []
    for i, name in enumerate(names):
        sign = 1.0 if name.split(".")[0] == "discriminator" else -lam
        adv_expected.append(sign * fd["adv"][i])
    errs["adv_with_reversal"] = max_rel_error(term_grads("adv"), adv_expected,
                                              floor=floor)
    elapsed = time.time() - t0
    worst = max(errs.values())
    report(1, worst < 1e-4 and elapsed < 60.0,
           f"(max rel err {worst:.2e} across {sorted(errs)}; {elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# 2. loss identities
# ---------------------------------------------------------------------------

def test_criterion_2_loss_identities():
    def ind_of(rows):
        t = ad.Tape()
        nodes = [t.leaf(np.asarray(r, float).reshape(1, -1)) for r in rows]
        return float(ls.ind_loss(nodes).value[0, 0])

    ok_orthonormal = ind_of(np.eye(2)) == 0.0
    ok_hand = ind_of([[1.0, 0.0], [1.0, 0.0]]) == 1.0 and \
        ind_of([[2.0, 0.0], [0.0, 2.0]]) == 9.0

    t = ad.Tape()
    d_s = [t.leaf(np.full((6, 1), 0.5)) for _ in range(2)]
    d_t = t.leaf(np.full((6, 1), 0.5))
    adv_half = float(ls.adv_loss(d_s, d_t).value[0, 0])
    ok_ln2 = abs(adv_half - np.log(2.0)) <= 1e-12

    t = ad.Tape()
    r, a, c = (t.leaf([[v]]) for v in (0.37, 1.21, 0.09))
    total = float(ls.total_loss(reco=r, ind=None, adv=a, cls=c).value[0, 0])
    ok_bitwise = total == (0.37 + 1.21) + 0.09

    report(2, ok_orthonormal and ok_hand and ok_ln2 and ok_bitwise,
           f"(adv@0.5 = {adv_half!r})")


# ---------------------------------------------------------------------------
# 3. orthogonality optimization
# ---------------------------------------------------------------------------

def test_criterion_3_orthogonality_optimization():
    t0 = time.time()
    sb = sy.generate(sy.SynthConfig())
    specs = tr.build_specs(60, tr.TrainConfig(latent_dim=32, encoder_hidden=64))
    bundle = mdl.init_params(specs, seed=3)
    rng = np.random.default_rng(4)
    gen = bundle.params["generator"]
    # tame start: small output weights, relu units alive
    gen[2][:] *= 0.05
    gen[1][:] = rng.normal(0.1, 0.05, size=gen[1].shape)
    gen[3][:] = rng.normal(0.1, 0.05, size=gen[3].shape)

    batch_n = 32
    h_t = mdl.encode(bundle, sb.bundle.target.values[:batch_n])
    h_s = [mdl.encode(bundle, d.expr.values[:batch_n]) for d in sb.bundle.sources]

    def residual():
        ws = [mdl.mlp_forward(specs["generator"], gen, np.abs(h_t - h))
              for h in h_s]
        vals = []
        for i in range(batch_n):
            w = np.stack([wk[i] for wk in ws])
            vals.append(np.linalg.norm(w @ w.T - np.eye(3), "fro"))
        return float(np.mean(vals))

    initial = residual()
    opts = [tr.Adam(arr, lr=3e-3) for arr in gen]
    for _ in range(2000):
        tape = ad.Tape()
        pn = [tape.leaf(arr) for arr in gen]
        ht_node = tape.leaf(h_t)
        w_nodes = [
            mdl.mlp_forward_nodes(specs["generator"], pn,
                                  ad.absval(ad.sub(ht_node, tape.leaf(h))))
            for h in h_s
        ]
        loss = ls.ind_loss(w_nodes)
        ad.backward(tape, loss)
        for opt, n in zip(opts, pn):
            opt.step(n.grad)
    final = residual()
    elapsed = time.time() - t0
    report(3, final < 0.1 and elapsed < 30.0,
           f"(mean ||WW^T - I||_F {initial:.2f} -> {final:.4f}; {elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# 4 & 5. synthetic transfer and ablation ordering
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def benchmark_table():
    t0 = time.time()
    rows = run_grid_in_pool(
        sy.generate(sy.SynthConfig()),
        ["full", "baseline", "no_mda", "no_ind", "no_awg", "full_2src"],
        SEEDS,
        sy.bench_train_config(),
    )
    elapsed = time.time() - t0
    return sy.summarize(rows), elapsed


@pytest.mark.slow
def test_criterion_4_synthetic_transfer(benchmark_table):
    summary, elapsed = benchmark_table
    full = summary["full"]["auroc_mean"]
    base = summary["baseline"]["auroc_mean"]
    two = summary["full_2src"]["auroc_mean"]
    ok = full >= base + 0.05 and full >= two - 0.01 and elapsed < 600.0
    report(4, ok,
           f"(full {full:.3f} vs baseline {base:.3f} + 0.05, 2src {two:.3f}; "
           f"{elapsed:.0f}s shared)")


@pytest.mark.slow
def test_criterion_5_ablation_ordering(benchmark_table):
    summary, elapsed = benchmark_table
    m = {v: summary[v]["auroc_mean"] for v in ("full", "no_ind", "no_awg", "no_mda")}
    ok_max = all(m["full"] >= m[v] for v in ("no_ind", "no_awg", "no_mda"))
    ok_min = all(m["no_mda"] < m[v] for v in ("full", "no_ind", "no_awg"))
    ok = ok_max and ok_min and elapsed < 900.0
    report(5, ok, "(" + " ".join(f"{v}={m[v]:.3f}" for v in m) + f"; {elapsed:.0f}s shared)")


# ---------------------------------------------------------------------------
# 6. metric oracles
# ---------------------------------------------------------------------------

def test_criterion_6_metric_oracles():
    rng = np.random.default_rng(6)
    worst_auroc, worst_aupr = 0.0, 0.0
    for _ in range(100):
        n = int(rng.integers(5, 201))
        scores = rng.integers(0, 20, size=n) / 7.0  # ties guaranteed
        labels = rng.integers(0, 2, size=n)
        labels[:2] = [0, 1]
        worst_auroc = max(worst_auroc,
                          abs(ev.auroc(scores, labels) - auroc_pair_count(scores, labels)))
        worst_aupr = max(worst_aupr,
                         abs(ev.aupr(scores, labels) - aupr_threshold_sweep(scores, labels)))
    single_ok = True
    for n in (2, 7, 50):
        scores = np.arange(n, dtype=float)
        labels = np.zeros(n, dtype=int)
        labels[0] = 1
        single_ok &= ev.aupr(scores, labels) == 1.0 / n
    ok = worst_auroc <= 1e-12 and worst_aupr <= 1e-12 and single_ok
    report(6, ok, f"(max |auroc err| {worst_auroc:.1e}, |aupr err| {worst_aupr:.1e})")


# ---------------------------------------------------------------------------
# 7. sampler contracts
# ---------------------------------------------------------------------------

def test_criterion_7_sampler_contracts(rng):
    labels = np.array([1] * 12 + [0] * 48)
    expr = dat.ExpressionMatrix(
        [f"s{i}" for i in range(60)],
        [f"g{j}" for j in range(5)],
        rng.normal(size=(60, 5)),
    )
    dom = dat.LabeledDomain(expr, labels)

    wout = dat.weight_upsample(dom, 10_000, seed=7)
    w_counts = np.bincount(wout.labels, minlength=2)
    ok_weight_balance = w_counts[0] == w_counts[1] == 5_000
    freq = w_counts[1] / 10_000
    ok_freq = abs(freq - 0.5) <= 0.02

    sout, log = dat.smote_upsample_logged(dom, k=5, seed=7)
    s_counts = np.bincount(sout.labels, minlength=2)
    ok_smote_balance = s_counts[0] == s_counts[1]
    max_dist = 0.0
    for i, draw in enumerate(log):
        p = sout.expr.values[dom.expr.n_samples + i]
        a, b = dom.expr.values[draw.parent], dom.expr.values[draw.neighbor]
        max_dist = max(max_dist, point_to_segment_distance(p, a, b))
    ok_colinear = max_dist < 1e-9

    ok = ok_weight_balance and ok_freq and ok_smote_balance and ok_colinear
    report(7, ok, f"(weight counts {w_counts.tolist()}, smote counts "
                  f"{s_counts.tolist()}, max segment dist {max_dist:.1e})")


# ---------------------------------------------------------------------------
# 8. preprocessing oracles
# ---------------------------------------------------------------------------

def test_criterion_8_preprocessing_oracles(rng):
    ok_hand = dat.binarize_ic50([1.0, 2.0, 9.0]).tolist() == [1, 1, 0]
    ok_random = True
    for _ in range(1000):
        n = int(rng.integers(2, 40))
        vals = rng.normal(size=n) * 10.0
        mean = sum(float(v) for v in vals) / n
        expect = [1 if v < mean else 0 for v in vals]
        ok_random &= dat.binarize_ic50(vals).tolist() == expect

    values = rng.normal(loc=10.0, scale=2.0, size=(25, 6))
    values[:, 3] = 4.2
    expr = dat.ExpressionMatrix(
        [f"s{i}" for i in range(25)], [f"g{j}" for j in range(6)], values
    )
    ok_hvg = "g3" not in dat.select_hvg(expr, 6).genes

    x = rng.normal(size=(5, 4))
    ga = dat.ExpressionMatrix([f"a{i}" for i in range(5)], list("wxyz"), x)
    gb = dat.ExpressionMatrix([f"b{i}" for i in range(5)], list("wxyz"), x)
    ok_deg = dat.select_deg(ga, gb).genes == []

    ok = ok_hand and ok_random and ok_hvg and ok_deg
    report(8, ok, "")


# ---------------------------------------------------------------------------
# 9. determinism & persistence
# ---------------------------------------------------------------------------

def test_criterion_9_determinism_and_persistence(tmp_path):
    cfg_path, _, _ = write_synth_files(tmp_path)
    out = tmp_path / "run"
    rc1 = cli.main(["train", "--config", str(cfg_path), "--output-dir", str(out)])
    ckpt_a = (out / "checkpoint.bin").read_bytes()
    metrics_a = (out / "metrics.json").read_bytes()
    rc2 = cli.main(["train", "--config", str(cfg_path), "--output-dir", str(out)])
    ckpt_b = (out / "checkpoint.bin").read_bytes()
    metrics_b = (out / "metrics.json").read_bytes()
    ok_runs = rc1 == 0 and rc2 == 0
    ok_ckpt = ckpt_a == ckpt_b
    ok_metrics = metrics_a == metrics_b

    model, cfg, step = tr.load_checkpoint(out / "checkpoint.bin")
    resaved = tmp_path / "resave.bin"
    tr.save_checkpoint(model, cfg, step, resaved)
    ok_roundtrip = resaved.read_bytes() == ckpt_a

    ok = ok_runs and ok_ckpt and ok_metrics and ok_roundtrip
    report(9, ok, f"(checkpoint {len(ckpt_a)} bytes, metrics and round-trip bitwise)")


# ---------------------------------------------------------------------------
# 10. data-gated GDSC check (excluded from CI)
# ---------------------------------------------------------------------------

GDSC_CONFIG = os.environ.get("ADADRUG_GDSC_CONFIG")
GDSC_LABELS = os.environ.get("ADADRUG_GDSC_TARGET_LABELS")


@pytest.mark.skipif(
    not (GDSC_CONFIG and GDSC_LABELS),
    reason="data-gated: set ADADRUG_GDSC_CONFIG (run config JSON for the GDSC "
           "sources + GSE108383 A375 target) and ADADRUG_GDSC_TARGET_LABELS",
)
def test_criterion_10_gdsc_a375():
    _, cfg_train, bundle, labels = cli.load_run(GDSC_CONFIG, GDSC_LABELS)
    model, _ = tr.train(bundle, cfg_train)
    scores = ev.predict_target(
        model, bundle.target, bundle.sources if cfg_train.awg_active else None,
        ref_batch=cfg_train.ref_batch, seed=cfg_train.seed,
    )
    value = ev.auroc(scores, labels)
    report(10, value >= 0.90, f"(target AUROC {value:.3f})")
