"""Synthetic multi-domain benchmark: affine-nuisance domains over a shared
latent signal, plus the variant runner used by the ablation studies.

The generator keeps the labels linear in the latent code so a Bayes-like
linear oracle stays computable; domain gaps are purely affine. Hidden
target labels live outside the DomainBundle, so training code cannot see
them by construction.
"""

from dataclasses import dataclass, replace
from statistics import NormalDist

import numpy as np

from . import data as dat
from . import evaluate as ev
from . import train as tr

VARIANTS = ("full", "baseline", "no_mda", "no_ind", "no_awg", "full_2src")

# (fields, test, requirement) for train.check_fields, as TrainConfig's rules
_SYNTH_RULES = (
    (("n_sources", "n_per_domain", "n_target", "n_genes", "signal_dim"),
     lambda v: v >= 1, ">= 1"),
    (("shift", "noise", "seed"), lambda v: v >= 0, ">= 0"),
    (("pos_rate",), lambda v: 0.0 < v < 1.0, "in (0, 1)"),
)


@dataclass(frozen=True)
class SynthConfig:
    n_sources: int = 3
    n_per_domain: int = 400
    n_target: int = 400
    n_genes: int = 60
    signal_dim: int = 8
    shift: float = 1.0       # magnitude of per-domain affine nuisance
    noise: float = 0.3       # observation noise sd
    pos_rate: float = 0.35   # expected positive fraction
    seed: int = 0

    def __post_init__(self):
        tr.check_fields(self, _SYNTH_RULES)


@dataclass
class SynthBundle:
    """Training-visible bundle plus the held-back target labels."""

    bundle: dat.DomainBundle
    target_labels: np.ndarray


def generate(cfg):
    """Draw K source domains and one target from domain-shifted affine maps.

    Latent code u ~ N(0, I); label = 1 iff <beta, u> clears the Gaussian
    quantile matching ``pos_rate``; observation x = A_dom u + b_dom + eps
    where each domain's (A_dom, b_dom) deviates from a shared base map with
    magnitude ``shift``.

    Features are finally standardized against the pooled mean/sd, which is
    one global affine map: every domain remains exactly affine in u and the
    signal-to-noise ratio is untouched, but network activations start at
    unit scale the way normalized expression inputs would.
    """
    rng = np.random.default_rng(cfg.seed)
    s, g = cfg.signal_dim, cfg.n_genes
    beta = rng.normal(size=s)
    beta /= np.linalg.norm(beta)
    a_base = rng.normal(size=(g, s)) / np.sqrt(s)
    threshold = NormalDist().inv_cdf(1.0 - cfg.pos_rate)
    genes = [f"g{j}" for j in range(g)]

    def draw_domain(tag, n):
        a = a_base + cfg.shift * rng.normal(size=(g, s)) / np.sqrt(s)
        b = cfg.shift * rng.normal(size=g)
        u = rng.normal(size=(n, s))
        labels = (u @ beta > threshold).astype(np.int64)
        x = u @ a.T + b + cfg.noise * rng.normal(size=(n, g))
        ids = [f"{tag}_{i}" for i in range(n)]
        return dat.ExpressionMatrix(ids, genes, x), labels

    sources = []
    for k in range(cfg.n_sources):
        expr, labels = draw_domain(f"s{k}", cfg.n_per_domain)
        sources.append(dat.LabeledDomain(expr, labels))
    target_expr, target_labels = draw_domain("t", cfg.n_target)

    pooled = np.vstack([d.expr.values for d in sources] + [target_expr.values])
    mu = pooled.mean(axis=0)
    sd = np.maximum(pooled.std(axis=0), 1e-12)
    for dom in sources:
        dom.expr.values = (dom.expr.values - mu) / sd
    target_expr.values = (target_expr.values - mu) / sd
    return SynthBundle(dat.DomainBundle(sources, target_expr), target_labels)


def bench_train_config(**overrides):
    """Training defaults sized for the synthetic benchmark.

    Bounded sigmoid importance gates are used here: with the benchmark's
    small latent space, unbounded relu gates let the independence penalty
    start orders of magnitude above the other terms and strangle the
    classifier before alignment happens.
    """
    base = dict(
        latent_dim=32,
        encoder_hidden=96,
        disc_hidden=32,
        pred_hidden=32,
        gen_out_activation="sigmoid",
        learning_rate=1e-3,
        batch_size=64,
        epochs=120,
        sampler="weight",
        grl_schedule="warmup",
    )
    base.update(overrides)
    return tr.TrainConfig(**base)


def variant_setup(name, bundle, cfg):
    """Returns the (DomainBundle, TrainConfig) realizing one ablation variant."""
    if name not in VARIANTS:
        raise ValueError(f"unknown variant {name!r} (choose from {VARIANTS})")
    if name == "baseline":
        # single-source adaptation: first domain only, generator removed
        return (
            dat.DomainBundle(bundle.sources[:1], bundle.target),
            replace(cfg, awg=False),
        )
    if name == "full_2src":
        if bundle.n_sources < 2:
            raise ValueError("full_2src needs at least two source domains")
        return dat.DomainBundle(bundle.sources[:2], bundle.target), cfg
    flags = {
        "full": {},
        "no_mda": {"mda": False},
        "no_ind": {"ind": False},
        "no_awg": {"awg": False},
    }[name]
    return bundle, replace(cfg, **flags)


@dataclass
class BenchmarkRow:
    variant: str
    seed: int
    auroc: float
    aupr: float


def run_variant(synth, variant, seed, train_cfg):
    """Train one variant at one seed, score the hidden target labels."""
    bundle, cfg = variant_setup(variant, synth.bundle, replace(train_cfg, seed=seed))
    model, _ = tr.train(bundle, cfg)
    scores = ev.predict_target(
        model,
        synth.bundle.target,
        sources=ev.scoring_sources(cfg, bundle.sources),
        ref_batch=cfg.ref_batch,
        seed=seed,
    )
    report = ev.metrics_report(scores, synth.target_labels)
    return BenchmarkRow(variant, seed, report.auroc, report.aupr)


def run_grid(synth, variants, seeds, train_cfg):
    """Train every (variant, seed) pair on ``synth`` in turn; the per-run rows.

    Every run is checked before the first one trains, so a bad grid trains
    nothing: both lists must be non-empty and free of repeats, each variant
    must pass ``variant_setup`` and each seed ``TrainConfig``. Rows come back
    in (variant order, seed order). Runs are serial: the tape is bound by the
    interpreter lock, so threads cannot overlap them.
    """
    variants, seeds = list(variants), list(seeds)
    for name, items in (("variants", variants), ("seeds", seeds)):
        if not items:
            raise ValueError(f"{name} must be non-empty")
        if len(set(items)) != len(items):
            raise ValueError(f"{name} must not repeat, got {items}")
    for v in variants:
        variant_setup(v, synth.bundle, train_cfg)
    for s in seeds:
        replace(train_cfg, seed=s)
    return [run_variant(synth, v, s, train_cfg) for v in variants for s in seeds]


def run_benchmark(cfg, variants, seeds, train_cfg=None):
    """``run_grid`` on the data ``generate(cfg)`` draws, trained with
    ``train_cfg`` or, without it, ``bench_train_config()``."""
    return run_grid(generate(cfg), variants, seeds, train_cfg or bench_train_config())


def summarize(rows):
    """Per-variant mean/sd of AUROC and AUPR, in first-seen variant order."""
    by_variant = {}  # insertion-ordered
    for r in rows:
        by_variant.setdefault(r.variant, []).append(r)
    out = {}
    for v, runs in by_variant.items():
        aurocs = np.array([r.auroc for r in runs])
        auprs = np.array([r.aupr for r in runs])
        out[v] = {
            "n": int(aurocs.size),
            "auroc_mean": float(aurocs.mean()),
            "auroc_sd": float(aurocs.std(ddof=1)) if aurocs.size > 1 else 0.0,
            "aupr_mean": float(auprs.mean()),
            "aupr_sd": float(auprs.std(ddof=1)) if auprs.size > 1 else 0.0,
        }
    return out


def write_rows_csv(path, rows):
    dat.write_table(path, ["variant", "seed", "auroc", "aupr"], [r.variant for r in rows],
                    ([r.seed, r.auroc, r.aupr] for r in rows))
