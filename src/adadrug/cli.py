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
import os
import sys
from pathlib import Path

import numpy as np

from . import data as dat
from . import evaluate as ev
from . import model as mdl
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
    """Config schema violation. The message starts with a JSON-pointer path;
    one raised by ``load_config`` has the config file's path in front
    (``run.json: /seed: must be >= 0``)."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message, self)


# ---------------------------------------------------------------------------
# run config
# ---------------------------------------------------------------------------

_TRAIN_FIELDS = {f.name: f for f in dataclasses.fields(TrainConfig)}


def validate_config(doc):
    """Validate a raw JSON document into a fully-defaulted config dict.

    Unknown keys are rejected; violations carry JSON-pointer paths.
    """
    if not isinstance(doc, dict):
        raise ConfigError("/: config must be a JSON object")
    known = (
        {"format_version", "sources", "target_expression", "output_dir",
         "gene_list", "file_format"}
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

    gene_list = doc.get("gene_list")
    if gene_list is not None and not isinstance(gene_list, str):
        raise ConfigError("/gene_list: must be a string or null")
    file_format = doc.get("file_format", "csv")
    if not isinstance(file_format, str) or file_format not in dat.DELIMS:
        formats = " or ".join(map(repr, dat.DELIMS))
        raise ConfigError(f"/file_format: must be {formats}")
    cfg.update(gene_list=gene_list, file_format=file_format)

    try:
        train_cfg = TrainConfig(**{k: doc[k] for k in _TRAIN_FIELDS if k in doc})
    except ValueError as e:
        raise ConfigError(f"/{e}") from None
    cfg.update(train_cfg.to_dict())
    return cfg


def load_config(path):
    """``validate_config`` on the JSON file at ``path``; every error names it."""
    try:
        with dat.open_text(path) as fh:
            doc = json.load(fh)
        return validate_config(doc)
    except dat.ParseError as e:  # open_text's message already names the file
        raise ConfigError(str(e)) from None
    except json.JSONDecodeError as e:
        raise ConfigError(f"{path}: /: not valid JSON ({e})") from None
    except ConfigError as e:
        raise ConfigError(f"{path}: {e}") from None


def _set_flags(**flags):
    """The flags given on the command line: those not left at ``None``."""
    return {k: v for k, v in flags.items() if v is not None}


def config_hash(cfg):
    return hashlib.sha256(
        json.dumps(cfg, sort_keys=True).encode("utf-8")
    ).hexdigest()


def check_outputs(inputs, files, out_dir=None):
    """Refuse, naming it, the first output a command cannot write: an
    ``out_dir`` where no directory can be made (it, or the nearest of its
    parents that exists, is not one), a file that is a directory, a file
    outside ``out_dir`` in a directory that does not exist, or a file that is
    one of ``inputs`` or an earlier file. Paths are compared after
    ``os.path.realpath``, so another spelling of one, through ``..`` or a
    link, is refused too. Each command calls this once, with every file it
    writes, before it reads any data; it makes ``out_dir`` only to write."""
    if out_dir is not None:
        existing = Path(out_dir)
        while not existing.exists() and existing != existing.parent:
            existing = existing.parent
        if not existing.is_dir():
            raise ValueError(f"{out_dir}: cannot make the output directory: "
                             f"{existing} is not a directory")
        out_dir = Path(out_dir)
    seen = {os.path.realpath(p): "an input" for p in filter(None, inputs)}
    for path in filter(None, files):
        if os.path.isdir(path):
            raise ValueError(f"{path}: is a directory, not a file")
        parent = os.path.dirname(path) or "."
        if Path(parent) != out_dir and not os.path.isdir(parent):
            raise ValueError(f"{path}: its directory does not exist")
        real = os.path.realpath(path)
        if real in seen:
            raise ValueError(f"{path}: would overwrite {seen[real]} of this command")
        seen[real] = "another output"


def write_json(path, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# shared data plumbing
# ---------------------------------------------------------------------------

def write_expression(path, expr, fmt="csv"):
    """The table ``data.load_expression`` reads back, row by row."""
    dat.write_table(path, ["sample", *expr.gene_names], expr.sample_ids,
                    map(np.ndarray.tolist, expr.values), dat.DELIMS[fmt])


def load_matrices(cfg):
    """The configured expression matrices, gene-aligned (in ``gene_list``
    order if one is set): ``(sources, target)``. No labels file is read."""
    fmt = cfg["file_format"]
    exprs = [dat.load_expression(s["expression"], fmt) for s in cfg["sources"]]
    target = dat.load_expression(cfg["target_expression"], fmt)
    genes = dat.load_gene_list(cfg["gene_list"]) if cfg["gene_list"] else None
    aligned = dat.align_genes(exprs + [target], genes)
    return aligned[:-1], aligned[-1]


def load_bundle(cfg):
    """``load_matrices``, each source labelled from its labels file."""
    exprs, target = load_matrices(cfg)
    sources = [dat.LabeledDomain(expr, read_labels(s["labels"], expr.sample_ids))
               for s, expr in zip(cfg["sources"], exprs)]
    return dat.DomainBundle(sources, target)


def read_labels(path, sample_ids):
    """``data.labels_for`` on the labels file at ``path``; an error names it."""
    ids, values, kind = dat.load_labels(path)
    try:
        return dat.labels_for(sample_ids, ids, values, kind)
    except ValueError as e:
        raise ValueError(f"{path}: {e}") from None


def load_binary_labels(path, sample_ids):
    """The target labels of ``sample_ids`` from a labels file. Every caller
    scores AUROC against them, so a file without both classes is refused."""
    labels = read_labels(path, sample_ids)
    if np.unique(labels).size != 2:
        raise ValueError(f"{path}: target labels must hold both classes (0 and 1)")
    return labels


def load_run(config, target_labels=None, run_files=(), **flags):
    """The inputs of a training run, all read and checked before anything is
    written: ``(cfg, cfg_train, bundle, labels)``. The config file is
    checked on its own, then the ``flags`` that are not None (``output_dir``
    or ``TrainConfig`` fields) replace its keys and ``validate_config``
    checks the result again, so a flag obeys its key's rules. Before any
    data is read, ``check_outputs`` checks ``output_dir`` and each of
    ``run_files`` (names in it) against the config, the labels file and
    every path the config names. ``cfg`` is what ``effective_config.json``
    echoes; ``labels`` is None without a ``target_labels`` file."""
    cfg = validate_config({**load_config(config), **_set_flags(**flags)})
    out = Path(cfg["output_dir"])
    check_outputs(
        [config, target_labels, cfg["target_expression"], cfg["gene_list"],
         *(s[k] for s in cfg["sources"] for k in ("expression", "labels"))],
        [out / name for name in filter(None, run_files)], out)
    cfg_train = TrainConfig(**{k: cfg[k] for k in _TRAIN_FIELDS})
    bundle = load_bundle(cfg)
    labels = None
    if target_labels is not None:
        labels = load_binary_labels(target_labels, bundle.target.sample_ids)
    return cfg, cfg_train, bundle, labels


def _score_target(model, cfg_train, sources, target, seed):
    """Target scores and the embeddings they were scored from; the sources
    weight them only for a run whose generator trained."""
    z = ev.embed_target(model, target, ev.scoring_sources(cfg_train, sources),
                        cfg_train.ref_batch, seed)
    return mdl.predict(model, z).ravel(), z


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_prep(args):
    if (args.deg_a is None) != (args.deg_b is None):
        missing = "--deg-b" if args.deg_b is None else "--deg-a"
        raise ValueError(f"DEG selection needs both --deg-a and --deg-b; "
                         f"{missing} is missing")
    # NaN fails every comparison
    if args.max_zero_frac is not None and not 0.0 <= args.max_zero_frac <= 1.0:
        raise ValueError(f"--max-zero-frac must be in [0, 1], got {args.max_zero_frac!r}")
    if not 0.0 <= args.lfc_min < np.inf:
        raise ValueError(f"--lfc-min must be finite and >= 0, got {args.lfc_min!r}")
    if not 0.0 < args.p_max <= 1.0:
        raise ValueError(f"--p-max must be in (0, 1], got {args.p_max!r}")
    if args.hvg is not None and args.hvg < 1:
        raise ValueError(f"--hvg must be >= 1, got {args.hvg}")
    out, fmt = Path(args.out), args.format
    names = [f"source_{i}" for i in range(len(args.sources))] + ["target"]
    tables = [out / f"{name}.{fmt}" for name in names]
    check_outputs(
        [*args.sources, args.target, args.gene_list, args.deg_a, args.deg_b,
         args.pathways],
        [*tables, *(f"{t}{dat.COPY_SUFFIX}" for t in tables), out / "prep_summary.json"],
        out)
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
    genes = None
    if selection is not None:  # written in the first source's order
        keep = set(selection.genes)
        genes = [g for g in exprs[0].gene_names if g in keep]
    aligned = dat.align_genes(exprs + [target], genes)

    if args.pathways:
        gene_sets = dat.load_gene_sets(args.pathways)
        try:
            aligned = [dat.pathway_activity(e, gene_sets) for e in aligned]
        except ValueError as e:
            raise ValueError(f"{args.pathways}: {e}") from None
        kept = set(aligned[-1].gene_names)  # the matrices share one gene list
        dropped = [name for name in gene_sets if name not in kept]
        if dropped:
            print(f"{args.pathways}: dropped {len(dropped)} gene sets that share no "
                  f"gene with the matrices: {', '.join(dropped)}", file=sys.stderr)

    out.mkdir(parents=True, exist_ok=True)
    for table, e in zip(tables, aligned, strict=True):
        write_expression(table, e, fmt)
        dat.write_copy(table, e, fmt)  # train and predict read this instead
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
    cfg, cfg_train, bundle, labels = load_run(
        args.config,
        args.target_labels,
        ("effective_config.json", "checkpoint.bin", "history.csv", "metrics.json",
         "scores.csv" if args.target_labels else None),
        output_dir=args.output_dir,
        seed=args.seed,
        epochs=args.epochs,
        batch_size=args.batch_size,
        learning_rate=args.learning_rate,
        sampler=args.sampler,
    )
    out = Path(cfg["output_dir"])
    out.mkdir(parents=True, exist_ok=True)
    write_json(out / "effective_config.json", cfg)

    model, history = tr.train(bundle, cfg_train)
    tr.save_checkpoint(model, cfg_train, history.final_step, out / "checkpoint.bin")
    history.write_csv(out / "history.csv")

    metrics = {
        "config_hash": config_hash(cfg),
        "steps": history.final_step,
        "final_loss": dataclasses.asdict(history.parts[-1]),
    }
    if labels is not None:
        scores, _ = _score_target(model, cfg_train, bundle.sources, bundle.target,
                                  cfg_train.seed)
        metrics.update(dataclasses.asdict(ev.metrics_report(scores, labels)))
        ev.write_scores_csv(out / "scores.csv", bundle.target.sample_ids,
                            scores, labels)
    write_json(out / "metrics.json", metrics)
    print(f"trained {history.final_step} steps -> {out}")
    return 0


def cmd_predict(args):
    cfg = load_config(args.config)  # it names the inputs
    check_outputs((args.config, args.checkpoint, cfg["target_expression"],
                   cfg["gene_list"], *(s["expression"] for s in cfg["sources"])),
                  (args.out, args.embeddings))
    model, cfg_train, _ = tr.load_checkpoint(args.checkpoint)
    if args.seed is not None:  # TrainConfig checks the seed, as it does in ablate
        cfg_train = dataclasses.replace(cfg_train, seed=args.seed)
    sources, target = load_matrices(cfg)  # scoring reads no labels
    if target.n_genes != model.n_genes:
        raise ValueError(
            f"configured data has {target.n_genes} genes but the "
            f"checkpoint expects {model.n_genes}"
        )
    scores, z = _score_target(model, cfg_train, sources, target, cfg_train.seed)
    ev.write_scores_csv(args.out, target.sample_ids, scores)
    if args.embeddings:
        ev.write_embeddings_csv(args.embeddings, target.sample_ids, z)
    print(f"scored {len(scores)} target samples -> {args.out}")
    return 0


def cmd_evaluate(args):
    check_outputs((args.scores, args.labels, args.config), (args.out,))
    ids, scores, inline_labels = ev.read_scores_csv(args.scores)
    if args.labels:
        labels = load_binary_labels(args.labels, ids)
    elif inline_labels is not None:
        labels = inline_labels
    else:
        raise ValueError("no labels: pass --labels or use a scores CSV with labels")
    metrics = dataclasses.asdict(ev.metrics_report(scores, labels))
    metrics["config_hash"] = config_hash(load_config(args.config)) if args.config else None
    write_json(args.out, metrics)
    print(json.dumps(metrics, sort_keys=True))
    return 0


def _comma_list(flag, text, item):
    """``flag``'s comma-separated items, each read by ``item``; none, or a bad
    one, is an error naming ``flag``."""
    try:
        items = [item(s.strip()) for s in text.split(",") if s.strip()]
    except ValueError:
        items = []
    if not items:
        kind = "integers" if item is int else "names"
        raise ValueError(f"{flag} must list comma-separated {kind}, got {text!r}")
    return items


def cmd_ablate(args):
    seeds = _comma_list("--seeds", args.seeds, int)
    cfg, cfg_train, bundle, labels = load_run(
        args.config, args.target_labels,
        ("effective_config.json", "ablation.csv", "ablation_summary.json"),
        epochs=args.epochs, output_dir=args.out)
    out = Path(cfg["output_dir"])
    rows = sy.run_grid(sy.SynthBundle(bundle, labels), ABLATE_VARIANTS, seeds,
                       cfg_train)
    out.mkdir(parents=True, exist_ok=True)
    write_json(out / "effective_config.json", cfg)
    sy.write_rows_csv(out / "ablation.csv", rows)
    write_json(out / "ablation_summary.json", sy.summarize(rows))
    print(f"ablation table -> {out / 'ablation.csv'}")
    return 0


def cmd_synth_bench(args):
    out = Path(args.out)
    check_outputs((), [out / name for name in
                       ("effective_config.json", "report.csv", "summary.json")], out)
    seeds = _comma_list("--seeds", args.seeds, int)
    variants = _comma_list("--variants", args.variants, str)
    synth_cfg = sy.SynthConfig(**_set_flags(
        n_sources=args.k,
        n_per_domain=args.n_per_domain,
        n_target=args.n_target,
        n_genes=args.genes,
        signal_dim=args.signal_dim,
        shift=args.shift,
        noise=args.noise,
        pos_rate=args.pos_rate,
        seed=args.data_seed,
    ))
    train_cfg = sy.bench_train_config(**_set_flags(
        epochs=args.epochs,
        batch_size=args.batch_size,
        learning_rate=args.learning_rate,
        latent_dim=args.latent_dim,
    ))
    rows = sy.run_benchmark(synth_cfg, variants, seeds, train_cfg=train_cfg)
    out.mkdir(parents=True, exist_ok=True)
    echo = {
        "synth": dataclasses.asdict(synth_cfg),
        "train": train_cfg.to_dict(),
        "variants": variants,
        "seeds": seeds,
    }
    write_json(out / "effective_config.json", echo)
    sy.write_rows_csv(out / "report.csv", rows)
    summary = sy.summarize(rows)
    write_json(out / "summary.json", summary)
    for variant, stats in summary.items():
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
    p.add_argument("--format", choices=tuple(dat.DELIMS), default="csv")
    # one gene selection per run: a second one would be silently ignored
    selection = p.add_mutually_exclusive_group()
    selection.add_argument("--gene-list", default=None)
    selection.add_argument("--hvg", type=int, default=None,
                           help="select top-N highly variable genes from the target")
    selection.add_argument("--deg-a", default=None, help="expression file of group A")
    p.add_argument("--deg-b", default=None, help="expression file of group B")
    p.add_argument("--lfc-min", type=float, default=2.0)
    p.add_argument("--p-max", type=float, default=0.05)
    p.add_argument("--pathways", default=None,
                   help="gene-set file; converts matrices to pathway activities")
    p.add_argument("--max-zero-frac", type=float, default=None,
                   help="drop genes whose zero fraction in the target exceeds "
                        "this, in [0, 1]")
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
                   help="optional labels file, read before training; adds "
                        "AUROC/AUPR to metrics.json")
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
    p.add_argument("--seeds", default="0", help="comma-separated training seeds")
    p.add_argument("--variants", default="full,baseline,no_mda,no_ind,no_awg")
    p.add_argument("--out", default="synth_bench")
    # data flags left unset keep SynthConfig's defaults
    p.add_argument("--data-seed", type=int, default=None)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--n-per-domain", type=int, default=None)
    p.add_argument("--n-target", type=int, default=None)
    p.add_argument("--genes", type=int, default=None)
    p.add_argument("--signal-dim", type=int, default=None)
    p.add_argument("--shift", type=float, default=None)
    p.add_argument("--noise", type=float, default=None)
    p.add_argument("--pos-rate", type=float, default=None)
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
    except (ValueError, FileNotFoundError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except Exception as e:  # noqa: BLE001 - CLI boundary
        print(f"runtime failure: {type(e).__name__}: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
