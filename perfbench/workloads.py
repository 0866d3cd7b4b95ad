"""The three benchmark workloads, driven only through adadrug's public API.

Each workload has three steps:

* ``setup(seed, work)`` builds the inputs from the seed and returns a state;
* ``run(state)`` makes the program calls one pass consists of, nothing else;
* ``check(state, raw)`` verifies the pass's outputs and returns an
  ``Outcome`` with sha256 digests of what the program produced.

Only ``run`` is timed as the pass and only ``run`` is traced, so output
checks never count as program time. Input sizes do not depend on the seed,
so the seed moves the values the program sees, not the amount of work.
"""

import contextlib
import hashlib
import io
import json
import math
import shutil
from dataclasses import dataclass, field

import numpy as np

from adadrug import cli, data, evaluate, synth, train


class CheckError(Exception):
    """An output of the program failed a correctness check."""


@dataclass
class Outcome:
    digests: dict
    auroc: float


@dataclass
class State:
    seed: int
    work: object
    digests: dict  # of what set-up produced
    extra: dict = field(default_factory=dict)


def sha256_bytes(blob):
    return hashlib.sha256(blob).hexdigest()


def sha256_file(path):
    with open(path, "rb") as fh:
        return sha256_bytes(fh.read())


def check_scores(scores, n):
    scores = np.asarray(scores, dtype=np.float64)
    if scores.shape != (n,):
        raise CheckError(f"expected {n} scores, got shape {scores.shape}")
    if not np.isfinite(scores).all():
        raise CheckError("non-finite score")
    if not ((scores > 0.0) & (scores < 1.0)).all():
        raise CheckError("score outside (0, 1)")
    return sha256_bytes(np.ascontiguousarray(scores, dtype="<f8").tobytes())


def check_history_csv(path):
    """Every loss part of every step must be finite."""
    with open(path) as fh:
        header = fh.readline().strip()
        if header != "step,reco,ind,adv,cls,total":
            raise CheckError(f"history.csv header is {header!r}")
        steps = 0
        for line in fh:
            values = [float(v) for v in line.split(",")[1:]]
            if len(values) != 5 or not all(math.isfinite(v) for v in values):
                raise CheckError(f"history.csv step {steps}: bad losses {line.strip()!r}")
            steps += 1
    if steps == 0:
        raise CheckError("history.csv has no steps")


def check_checkpoint_roundtrip(path, resaved, model=None):
    """load_checkpoint must give back the saved arrays, bit for bit."""
    loaded, cfg, step = train.load_checkpoint(path)
    if model is not None:
        for (name, a), (_, b) in zip(model.named_arrays(), loaded.named_arrays()):
            if a.shape != b.shape or a.tobytes() != b.tobytes():
                raise CheckError(f"checkpoint array {name} differs after reload")
    train.save_checkpoint(loaded, cfg, step, resaved)
    digest = sha256_file(path)
    if sha256_file(resaved) != digest:
        raise CheckError("re-saving a loaded checkpoint changes its bytes")
    return loaded, cfg, digest


# ---------------------------------------------------------------------------
# synth_grid: the acceptance-table traffic
# ---------------------------------------------------------------------------

GRID_VARIANTS = ("full", "no_mda", "baseline")
GRID_EPOCHS = 12


class SynthGrid:
    name = "synth_grid"

    def setup(self, seed, work):
        # run_benchmark draws the data itself; set-up draws it once to check
        # that every source has both classes and to fingerprint it
        cfg = synth.SynthConfig(seed=seed)
        gen = synth.generate(cfg)
        for dom in gen.bundle.sources:
            if np.bincount(dom.labels, minlength=2).min() == 0:
                raise CheckError("a source domain lacks one class")
        blob = b"".join(d.expr.values.tobytes() for d in gen.bundle.sources)
        blob += gen.bundle.target.values.tobytes()
        return State(seed, work, digests={"synth_data": sha256_bytes(blob)},
                     extra={"cfg": cfg,
                            "train_cfg": synth.bench_train_config(epochs=GRID_EPOCHS)})

    def run(self, st):
        return synth.run_benchmark(
            st.extra["cfg"], GRID_VARIANTS, [st.seed], train_cfg=st.extra["train_cfg"]
        )

    def check(self, st, rows):
        if [r.variant for r in rows] != list(GRID_VARIANTS):
            raise CheckError(f"grid rows are {[r.variant for r in rows]}")
        for r in rows:
            if not (0.0 <= r.auroc <= 1.0 and 0.0 <= r.aupr <= 1.0):
                raise CheckError(f"{r.variant}: auroc {r.auroc} / aupr {r.aupr}")
        path = st.work / "rows.csv"
        synth.write_rows_csv(path, rows)
        return Outcome({"rows.csv": sha256_file(path)},
                       auroc=float(np.mean([r.auroc for r in rows])))


# ---------------------------------------------------------------------------
# score_target: scoring a large target with a trained paper-width model
# ---------------------------------------------------------------------------

SCORE_TARGET_ROWS = 640  # above every weight-sampled source size, so the
# set-up's steps per epoch, and its time, are the same for every seed
SCORE_EPOCHS = 6
SCORE_REF_BATCH = 128
PAPER_WIDTHS = dict(latent_dim=128, encoder_hidden=256, disc_hidden=64, pred_hidden=64)


class ScoreTarget:
    name = "score_target"

    def setup(self, seed, work):
        gen = synth.generate(synth.SynthConfig(n_target=SCORE_TARGET_ROWS, seed=seed))
        cfg = synth.bench_train_config(epochs=SCORE_EPOCHS, seed=seed, **PAPER_WIDTHS)
        model, history = train.train(gen.bundle, cfg)
        history.write_csv(work / "history.csv")
        check_history_csv(work / "history.csv")
        train.save_checkpoint(model, cfg, history.final_step, work / "model.bin")
        loaded, _, ckpt_digest = check_checkpoint_roundtrip(
            work / "model.bin", work / "resaved.bin", model
        )
        return State(
            seed, work,
            digests={"history.csv": sha256_file(work / "history.csv"),
                     "checkpoint.bin": ckpt_digest},
            extra={"model": loaded, "gen": gen},
        )

    def run(self, st):
        gen = st.extra["gen"]
        return evaluate.predict_target(
            st.extra["model"], gen.bundle.target, sources=gen.bundle.sources,
            ref_batch=SCORE_REF_BATCH, seed=st.seed,
        )

    def check(self, st, scores):
        gen = st.extra["gen"]
        digest = check_scores(scores, gen.bundle.target.n_samples)
        return Outcome({"scores": digest}, auroc=evaluate.auroc(scores, gen.target_labels))


# ---------------------------------------------------------------------------
# files_wide: expression files with thousands of genes through the CLI
# ---------------------------------------------------------------------------

FILES_GENES = 2000
FILES_HVG = 500
FILES_SOURCE_ROWS = 60
FILES_TARGET_ROWS = 100  # larger than any SMOTE-balanced source, so steps
# per epoch are the same for every seed
FILES_EPOCHS = 3


def _run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    if code != 0:
        raise CheckError(f"adadrug {argv[0]} exited {code}: {err.getvalue().strip()}")


class FilesWide:
    name = "files_wide"

    def setup(self, seed, work):
        gen = synth.generate(synth.SynthConfig(
            n_sources=2, n_per_domain=FILES_SOURCE_ROWS, n_target=FILES_TARGET_ROWS,
            n_genes=FILES_GENES, seed=seed,
        ))
        # expression-like values: a positive per-gene level, so every gene
        # has a positive mean for HVG selection
        level = np.random.default_rng(seed).uniform(2.0, 6.0, size=FILES_GENES)
        raw = work / "raw"
        raw.mkdir(exist_ok=True)
        sources = []
        for k, dom in enumerate(gen.bundle.sources):
            expr = data.ExpressionMatrix(dom.expr.sample_ids, dom.expr.gene_names,
                                         dom.expr.values + level)
            cli.write_expression(raw / f"source_{k}.csv", expr)
            with open(raw / f"labels_{k}.csv", "w") as fh:
                fh.write("sample_id,label\n")
                fh.writelines(f"{s},{y}\n" for s, y in zip(expr.sample_ids, dom.labels))
            sources.append({"expression": str(work / "prep" / f"source_{k}.csv"),
                            "labels": str(raw / f"labels_{k}.csv")})
        target = gen.bundle.target
        cli.write_expression(raw / "target.csv", data.ExpressionMatrix(
            target.sample_ids, target.gene_names, target.values + level))
        config = {
            "format_version": 1,
            "sources": sources,
            "target_expression": str(work / "prep" / "target.csv"),
            "output_dir": str(work / "run"),
            "epochs": FILES_EPOCHS,
            "seed": seed,
            "sampler": "smote",
            "learning_rate": 1e-3,
            "gen_out_activation": "sigmoid",
        }
        with open(work / "config.json", "w") as fh:
            json.dump(config, fh, indent=2)
        digests = {name: sha256_file(raw / name) for name in sorted(
            p.name for p in raw.iterdir())}
        return State(seed, work, digests=digests,
                     extra={"labels": gen.target_labels, "ids": target.sample_ids})

    def run(self, st):
        w = st.work
        _run_cli(["prep", "--sources", str(w / "raw" / "source_0.csv"),
                  str(w / "raw" / "source_1.csv"), "--target", str(w / "raw" / "target.csv"),
                  "--hvg", str(FILES_HVG), "--out", str(w / "prep")])
        _run_cli(["train", "--config", str(w / "config.json")])
        _run_cli(["predict", "--config", str(w / "config.json"), "--checkpoint",
                  str(w / "run" / "checkpoint.bin"), "--out", str(w / "scores.csv")])

    def check(self, st, _):
        w = st.work
        try:
            check_history_csv(w / "run" / "history.csv")
            _, _, ckpt_digest = check_checkpoint_roundtrip(
                w / "run" / "checkpoint.bin", w / "resaved.bin")
            ids, scores, _ = evaluate.read_scores_csv(w / "scores.csv")
            if ids != st.extra["ids"]:
                raise CheckError("scores.csv sample ids differ from the target's")
            check_scores(scores, len(ids))
            return Outcome(
                {"prep_target.csv": sha256_file(w / "prep" / "target.csv"),
                 "history.csv": sha256_file(w / "run" / "history.csv"),
                 "checkpoint.bin": ckpt_digest,
                 "scores.csv": sha256_file(w / "scores.csv")},
                auroc=evaluate.auroc(scores, st.extra["labels"]),
            )
        finally:
            # the next pass must write its own outputs, not find these
            for d in ("prep", "run"):
                shutil.rmtree(w / d, ignore_errors=True)
            for f in ("scores.csv", "resaved.bin"):
                (w / f).unlink(missing_ok=True)


WORKLOADS = {w.name: w for w in (SynthGrid(), ScoreTarget(), FilesWide())}
