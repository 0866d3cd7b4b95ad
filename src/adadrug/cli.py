"""Command-line surface: prep -> train -> predict -> evaluate, plus the
ablation runner and the synthetic benchmark.

Exit codes: 0 success, 1 usage error, 2 data/validation error, 3 runtime
failure. All randomness is controlled by explicit seeds; a run directory
always receives an echo of the fully-defaulted effective config so the run
can be reproduced bit for bit.
"""

import argparse
import dataclasses
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from . import data as dat
from . import evaluate as ev
from . import synth as sy
from . import train as tr
from .train import TrainConfig

CONFIG_VERSION = 1
ABLATE_VARIANTS = ("full", "no_mda", "no_ind", "no_awg")


class UsageError(Exception):
    def __init__(self, message, parser):
        super().__init__(message)
        self.parser = parser


class ConfigError(ValueError):
    """Config schema violation; message starts with a JSON-pointer path."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message, self)


# ---------------------------------------------------------------------------
# run config
# ---------------------------------------------------------------------------

_TRAIN_FIELDS = {f.name: f for f in dataclasses.fields(TrainConfig)}

_PATH_DEFAULTS = {
    "gene_list": None,
    "file_format": "csv",
}


def validate_config(doc):
    """Validate a raw JSON document into a fully-defaulted config dict.

    Unknown keys are rejected; violations carry JSON-pointer paths.
    """
    if not isinstance(doc, dict):
        raise ConfigError("/: config must be a JSON object")
    known = (
        {"format_version", "sources", "target_expression", "output_dir"}
        | set(_PATH_DEFAULTS)
        | set(_TRAIN_FIELDS)
    )
    for key in doc:
        if key not in known:
            raise ConfigError(f"/{key}: unknown key")
    if doc.get("format_version") != CONFIG_VERSION:
        raise ConfigError(
            f"/format_version: required and must be {CONFIG_VERSION}, "
            f"got {doc.get('format_version')!r}"
        )

    cfg = {"format_version": CONFIG_VERSION}
    for key in ("target_expression", "output_dir"):
        v = doc.get(key)
        if not isinstance(v, str) or not v:
            raise ConfigError(f"/{key}: required and must be a non-empty string")
        cfg[key] = v
    sources = doc.get("sources")
    if not isinstance(sources, list) or not sources:
        raise ConfigError("/sources: required and must be a non-empty list")
    cfg["sources"] = []
    for i, entry in enumerate(sources):
        if not isinstance(entry, dict) or set(entry) != {"expression", "labels"}:
            raise ConfigError(
                f"/sources/{i}: must be an object with exactly "
                "'expression' and 'labels'"
            )
        for sub in ("expression", "labels"):
            if not isinstance(entry[sub], str) or not entry[sub]:
                raise ConfigError(f"/sources/{i}/{sub}: must be a non-empty string")
        cfg["sources"].append({"expression": entry["expression"],
                               "labels": entry["labels"]})

    for key, default in _PATH_DEFAULTS.items():
        v = doc.get(key, default)
        if key == "file_format" and v not in ("csv", "tsv"):
            raise ConfigError(f"/{key}: must be 'csv' or 'tsv'")
        if key == "gene_list" and v is not None and not isinstance(v, str):
            raise ConfigError(f"/{key}: must be a string or null")
        cfg[key] = v

    try:
        train_cfg = TrainConfig(**{k: doc[k] for k in _TRAIN_FIELDS if k in doc})
    except ValueError as e:
        raise ConfigError(f"/{e}") from None
    cfg.update(train_cfg.to_dict())
    return cfg


def load_config(path):
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as e:
        raise ConfigError(f"/: not valid JSON ({e})") from None
    return validate_config(doc)


def train_config_from(cfg, **overrides):
    kwargs = {k: cfg[k] for k in _TRAIN_FIELDS}
    kwargs.update({k: v for k, v in overrides.items() if v is not None})
    return TrainConfig(**kwargs)


def config_hash(cfg):
    return hashlib.sha256(
        json.dumps(cfg, sort_keys=True).encode("utf-8")
    ).hexdigest()


def write_json(path, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# shared data plumbing
# ---------------------------------------------------------------------------

def write_expression(path, expr, fmt="csv"):
    delim = {"csv": ",", "tsv": "\t"}[fmt]
    with open(path, "w") as fh:
        fh.write("sample" + delim + delim.join(expr.gene_names) + "\n")
        for sid, row in zip(expr.sample_ids, expr.values):
            fh.write(sid + delim + delim.join(repr(float(v)) for v in row) + "\n")


def load_bundle(cfg):
    """Load, label, optionally restrict, and gene-align the configured data."""
    fmt = cfg["file_format"]
    exprs = [dat.load_expression(s["expression"], fmt) for s in cfg["sources"]]
    target = dat.load_expression(cfg["target_expression"], fmt)
    if cfg["gene_list"]:
        wanted = dat.load_gene_list(cfg["gene_list"])
        keep = [
            [g for g in wanted if g in set(e.gene_names)] for e in exprs + [target]
        ]
        exprs = [e.subset_genes(k) for e, k in zip(exprs, keep[:-1])]
        target = target.subset_genes(keep[-1])
    aligned = dat.align_genes(exprs + [target])
    sources = []
    for s, expr in zip(cfg["sources"], aligned[:-1]):
        ids, vals, kind = dat.load_labels(s["labels"])
        sources.append(dat.labels_for(expr, ids, vals, kind))
    return dat.DomainBundle(sources, aligned[-1])


def load_binary_labels(path, sample_ids):
    ids, vals, kind = dat.load_labels(path)
    dom = dat.labels_for(
        dat.ExpressionMatrix(sample_ids, ["_"], np.zeros((len(sample_ids), 1))),
        ids, vals, kind,
    )
    return dom.labels


def _score_bundle(model, cfg_train, bundle, seed):
    return ev.predict_target(
        model,
        bundle.target,
        sources=bundle.sources,
        ref_batch=cfg_train.ref_batch,
        seed=seed,
        weighted=cfg_train.awg_active,
    )


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_prep(args):
    if (args.deg_a is None) != (args.deg_b is None):
        missing = "--deg-b" if args.deg_b is None else "--deg-a"
        raise ValueError(f"DEG selection needs both --deg-a and --deg-b; "
                         f"{missing} is missing")
    fmt = args.format
    exprs = [dat.load_expression(p, fmt) for p in args.sources]
    target = dat.load_expression(args.target, fmt)

    if args.max_zero_frac is not None:
        zero_frac = (target.values == 0).mean(axis=0)
        keep = [g for g, z in zip(target.gene_names, zero_frac)
                if z <= args.max_zero_frac]
        if not keep:
            raise ValueError("--max-zero-frac removed every gene")
        target = target.subset_genes(keep)

    selection = None
    if args.gene_list:
        selection = dat.GeneSelection("file-list", dat.load_gene_list(args.gene_list))
    elif args.hvg is not None:
        selection = dat.select_hvg(target, args.hvg)
    elif args.deg_a is not None:
        ga = dat.load_expression(args.deg_a, fmt)
        gb = dat.load_expression(args.deg_b, fmt)
        selection = dat.select_deg(ga, gb, lfc_min=args.lfc_min, p_max=args.p_max)
        if not selection.genes:
            raise ValueError("DEG selection is empty at these thresholds")
    if selection is not None:
        keep = set(selection.genes)
        restricted = []
        for e in exprs + [target]:
            genes = [g for g in e.gene_names if g in keep]
            if not genes:
                raise ValueError("gene selection shares no genes with an input matrix")
            restricted.append(e.subset_genes(genes))
        exprs, target = restricted[:-1], restricted[-1]

    aligned = dat.align_genes(exprs + [target])

    if args.pathways:
        gene_sets = dat.load_gene_sets(args.pathways)
        aligned = [dat.pathway_activity(e, gene_sets) for e in aligned]

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for i, e in enumerate(aligned[:-1]):
        write_expression(out / f"source_{i}.{fmt}", e, fmt)
    write_expression(out / f"target.{fmt}", aligned[-1], fmt)
    summary = {
        "n_sources": len(exprs),
        "n_genes": aligned[-1].n_genes,
        "genes": aligned[-1].gene_names,
        "selection": None if selection is None else {
            "method": selection.method, "params": selection.params,
            "n_selected": len(selection.genes),
        },
    }
    write_json(out / "prep_summary.json", summary)
    print(f"wrote {len(aligned)} matrices with {aligned[-1].n_genes} features to {out}")
    return 0


def cmd_train(args):
    cfg = load_config(args.config)
    if args.output_dir:
        cfg["output_dir"] = args.output_dir
    cfg_train = train_config_from(
        cfg,
        seed=args.seed,
        epochs=args.epochs,
        batch_size=args.batch_size,
        learning_rate=args.learning_rate,
        sampler=args.sampler,
    )
    cfg.update(cfg_train.to_dict())
    out = Path(cfg["output_dir"])
    out.mkdir(parents=True, exist_ok=True)
    write_json(out / "effective_config.json", cfg)

    bundle = load_bundle(cfg)
    model, history = tr.train(bundle, cfg_train)
    tr.save_checkpoint(model, cfg_train, history.final_step, out / "checkpoint.bin")
    history.write_csv(out / "history.csv")

    metrics = {
        "config_hash": config_hash(cfg),
        "steps": history.final_step,
        "final_loss": dataclasses.asdict(history.parts[-1]),
    }
    if args.target_labels:
        scores = _score_bundle(model, cfg_train, bundle, cfg_train.seed)
        labels = load_binary_labels(args.target_labels, bundle.target.sample_ids)
        report = ev.metrics_report(scores, labels)
        metrics.update(
            auroc=report.auroc, aupr=report.aupr,
            n_pos=report.n_pos, n_neg=report.n_neg,
        )
        ev.write_scores_csv(out / "scores.csv", bundle.target.sample_ids,
                            scores, labels)
    write_json(out / "metrics.json", metrics)
    print(f"trained {history.final_step} steps -> {out}")
    return 0


def cmd_predict(args):
    cfg = load_config(args.config)
    model, cfg_train, _ = tr.load_checkpoint(args.checkpoint)
    bundle = load_bundle(cfg)
    if bundle.target.n_genes != model.n_genes:
        raise ValueError(
            f"configured data has {bundle.target.n_genes} genes but the "
            f"checkpoint expects {model.n_genes}"
        )
    seed = args.seed if args.seed is not None else cfg_train.seed
    scores = _score_bundle(model, cfg_train, bundle, seed)
    ev.write_scores_csv(args.out, bundle.target.sample_ids, scores)
    if args.embeddings:
        ev.export_embeddings(
            model, bundle.target, args.embeddings,
            weighted=cfg_train.awg_active, sources=bundle.sources,
            ref_batch=cfg_train.ref_batch, seed=seed,
        )
    print(f"scored {len(scores)} target samples -> {args.out}")
    return 0


def cmd_evaluate(args):
    ids, scores, inline_labels = ev.read_scores_csv(args.scores)
    if args.labels:
        labels = load_binary_labels(args.labels, ids)
    elif inline_labels is not None:
        labels = inline_labels
    else:
        raise ValueError("no labels: pass --labels or use a scores CSV with labels")
    report = ev.metrics_report(scores, labels)
    metrics = {
        "auroc": report.auroc,
        "aupr": report.aupr,
        "n_pos": report.n_pos,
        "n_neg": report.n_neg,
        "config_hash": config_hash(load_config(args.config)) if args.config else None,
    }
    write_json(args.out, metrics)
    print(json.dumps(metrics, sort_keys=True))
    return 0


def _parse_seeds(text):
    return [int(s) for s in text.split(",") if s.strip() != ""]


def cmd_ablate(args):
    cfg = load_config(args.config)
    cfg_train = train_config_from(cfg, epochs=args.epochs)
    cfg.update(cfg_train.to_dict())
    seeds = _parse_seeds(args.seeds)
    for seed in seeds:  # a bad seed fails here, before anything is written
        dataclasses.replace(cfg_train, seed=seed)
    out = Path(args.out or cfg["output_dir"])
    out.mkdir(parents=True, exist_ok=True)
    write_json(out / "effective_config.json", cfg)
    bundle = load_bundle(cfg)
    labels = load_binary_labels(args.target_labels, bundle.target.sample_ids)
    synth = sy.SynthBundle(bundle, labels)
    rows = [sy.run_variant(synth, v, s, cfg_train)
            for v in ABLATE_VARIANTS for s in seeds]
    sy.write_rows_csv(out / "ablation.csv", rows)
    write_json(out / "ablation_summary.json", sy.summarize(rows))
    print(f"ablation table -> {out / 'ablation.csv'}")
    return 0


def cmd_synth_bench(args):
    seeds = _parse_seeds(args.seeds) if args.seeds else [args.seed]
    variants = [v.strip() for v in args.variants.split(",") if v.strip()]
    synth_cfg = sy.SynthConfig(
        n_sources=args.k,
        n_per_domain=args.n_per_domain,
        n_target=args.n_target,
        n_genes=args.genes,
        signal_dim=args.signal_dim,
        shift=args.shift,
        noise=args.noise,
        pos_rate=args.pos_rate,
        seed=args.data_seed,
    )
    train_cfg = sy.bench_train_config(
        **{k: v for k, v in {
            "epochs": args.epochs,
            "batch_size": args.batch_size,
            "learning_rate": args.learning_rate,
            "latent_dim": args.latent_dim,
        }.items() if v is not None}
    )
    rows = sy.run_benchmark(synth_cfg, variants, seeds, train_cfg=train_cfg)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    echo = {
        "synth": dataclasses.asdict(synth_cfg),
        "train": train_cfg.to_dict(),
        "variants": variants,
        "seeds": seeds,
    }
    write_json(out / "effective_config.json", echo)
    sy.write_rows_csv(out / "report.csv", rows)
    write_json(out / "summary.json", sy.summarize(rows))
    for variant, stats in sy.summarize(rows).items():
        print(
            f"{variant}: auroc {stats['auroc_mean']:.3f} +- {stats['auroc_sd']:.3f}  "
            f"aupr {stats['aupr_mean']:.3f} +- {stats['aupr_sd']:.3f}  (n={stats['n']})"
        )
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser():
    parser = _Parser(prog="adadrug", description=__doc__)
    sub = parser.add_subparsers(dest="command", metavar="command")

    p = sub.add_parser("prep", help="align genes and derive model inputs")
    p.add_argument("--sources", nargs="+", required=True, metavar="EXPR")
    p.add_argument("--target", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--format", choices=("csv", "tsv"), default="csv")
    p.add_argument("--gene-list", default=None)
    p.add_argument("--hvg", type=int, default=None,
                   help="select top-N highly variable genes from the target")
    p.add_argument("--deg-a", default=None, help="expression file of group A")
    p.add_argument("--deg-b", default=None, help="expression file of group B")
    p.add_argument("--lfc-min", type=float, default=2.0)
    p.add_argument("--p-max", type=float, default=0.05)
    p.add_argument("--pathways", default=None,
                   help="gene-set file; converts matrices to pathway activities")
    p.add_argument("--max-zero-frac", type=float, default=None,
                   help="drop genes whose zero fraction in the target exceeds this")
    p.set_defaults(func=cmd_prep)

    p = sub.add_parser("train", help="train on the configured domains")
    p.add_argument("--config", required=True)
    p.add_argument("--output-dir", default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--batch-size", type=int, default=None)
    p.add_argument("--learning-rate", type=float, default=None)
    p.add_argument("--sampler", choices=tr.SAMPLERS, default=None)
    p.add_argument("--target-labels", default=None,
                   help="optional labels file; adds AUROC/AUPR to metrics.json")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="score target samples with a checkpoint")
    p.add_argument("--config", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--embeddings", default=None,
                   help="also export target embeddings to this CSV")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("evaluate", help="AUROC/AUPR from a scores CSV")
    p.add_argument("--scores", required=True)
    p.add_argument("--labels", default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--config", default=None, help="hash this config into the report")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("ablate", help="run the full/no_mda/no_ind/no_awg grid")
    p.add_argument("--config", required=True)
    p.add_argument("--target-labels", required=True)
    p.add_argument("--seeds", default="0", help="comma-separated seeds")
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("synth-bench", help="synthetic transfer benchmark")
    p.add_argument("--seed", type=int, default=0, help="single training seed")
    p.add_argument("--seeds", default=None, help="comma-separated training seeds")
    p.add_argument("--variants", default="full,baseline,no_mda,no_ind,no_awg")
    p.add_argument("--out", default="synth_bench")
    p.add_argument("--data-seed", type=int, default=0)
    p.add_argument("--k", type=int, default=3)
    p.add_argument("--n-per-domain", type=int, default=400)
    p.add_argument("--n-target", type=int, default=400)
    p.add_argument("--genes", type=int, default=60)
    p.add_argument("--signal-dim", type=int, default=8)
    p.add_argument("--shift", type=float, default=1.0)
    p.add_argument("--noise", type=float, default=0.3)
    p.add_argument("--pos-rate", type=float, default=0.35)
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--batch-size", type=int, default=None)
    p.add_argument("--learning-rate", type=float, default=None)
    p.add_argument("--latent-dim", type=int, default=None)
    p.set_defaults(func=cmd_synth_bench)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as e:
        print(e.parser.format_usage(), file=sys.stderr, end="")
        print(f"error: {e}", file=sys.stderr)
        return 1
    if getattr(args, "func", None) is None:
        print(parser.format_usage(), file=sys.stderr, end="")
        print("error: a subcommand is required", file=sys.stderr)
        return 1
    try:
        return args.func(args)
    except (ConfigError, dat.ParseError, tr.CheckpointError, ValueError,
            FileNotFoundError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except Exception as e:  # noqa: BLE001 - CLI boundary
        print(f"runtime failure: {type(e).__name__}: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
