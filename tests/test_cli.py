import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adadrug import cli
from adadrug import data as dat
from adadrug import synth as sy
from adadrug.cli import main
from adadrug.train import TrainConfig

from conftest import JSON_VALUES


def write_synth_files(tmp_path, n_sources=2, n=24, n_genes=8, seed=0,
                      with_ic50=False):
    """Materialize a small synthetic bundle as CSV files; returns a config dict."""
    sb = sy.generate(sy.SynthConfig(
        n_sources=n_sources, n_per_domain=n, n_target=n, n_genes=n_genes,
        signal_dim=3, shift=0.6, noise=0.2, pos_rate=0.4, seed=seed,
    ))
    # shift into positive expression-like units so HVG's variance/mean
    # dispersion is well defined on these files
    for dom in sb.bundle.sources:
        dom.expr.values += 10.0
    sb.bundle.target.values += 10.0
    sources = []
    for k, dom in enumerate(sb.bundle.sources):
        expr_path = tmp_path / f"s{k}.csv"
        lab_path = tmp_path / f"s{k}_labels.csv"
        cli.write_expression(expr_path, dom.expr)
        with open(lab_path, "w") as fh:
            if with_ic50:
                fh.write("sample_id,ic50\n")
                rng = np.random.default_rng(k)
                for sid, y in zip(dom.expr.sample_ids, dom.labels):
                    ic50 = (0.5 if y else 2.0) + 0.1 * rng.random()
                    fh.write(f"{sid},{ic50}\n")
            else:
                fh.write("sample_id,label\n")
                for sid, y in zip(dom.expr.sample_ids, dom.labels):
                    fh.write(f"{sid},{int(y)}\n")
        sources.append({"expression": str(expr_path), "labels": str(lab_path)})
    target_path = tmp_path / "target.csv"
    cli.write_expression(target_path, sb.bundle.target)
    target_labels = tmp_path / "target_labels.csv"
    with open(target_labels, "w") as fh:
        fh.write("sample_id,label\n")
        for sid, y in zip(sb.bundle.target.sample_ids, sb.target_labels):
            fh.write(f"{sid},{int(y)}\n")
    config = {
        "format_version": 1,
        "sources": sources,
        "target_expression": str(target_path),
        "output_dir": str(tmp_path / "run"),
        "latent_dim": 4,
        "encoder_hidden": 8,
        "disc_hidden": 4,
        "pred_hidden": 4,
        "learning_rate": 1e-3,
        "batch_size": 8,
        "epochs": 2,
        "sampler": "weight",
        "seed": 1,
        "ref_batch": 8,
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    return cfg_path, config, target_labels


# ---------------------------------------------------------------------------
# dispatch / exit codes
# ---------------------------------------------------------------------------

def test_unknown_subcommand_is_usage_error(capsys):
    assert main(["frobnicate"]) == 1
    assert "usage" in capsys.readouterr().err.lower()


def test_missing_required_flag_is_usage_error(capsys):
    assert main(["train"]) == 1
    err = capsys.readouterr().err
    assert "--config" in err and "usage" in err.lower()


def test_no_subcommand_is_usage_error(capsys):
    assert main([]) == 1


def test_unknown_config_key_names_the_key(tmp_path, capsys):
    cfg_path, config, _ = write_synth_files(tmp_path)
    config["dropout"] = 0.5
    cfg_path.write_text(json.dumps(config))
    assert main(["train", "--config", str(cfg_path)]) == 2
    assert "/dropout" in capsys.readouterr().err


def test_negative_learning_rate_reports_json_pointer(tmp_path, capsys):
    cfg_path, config, _ = write_synth_files(tmp_path)
    config["learning_rate"] = -1
    cfg_path.write_text(json.dumps(config))
    assert main(["train", "--config", str(cfg_path)]) == 2
    assert "/learning_rate" in capsys.readouterr().err


def test_adam_beta_of_one_is_config_error_and_writes_nothing(tmp_path, capsys):
    cfg_path, config, _ = write_synth_files(tmp_path)
    config["beta1"] = 1.0
    cfg_path.write_text(json.dumps(config))
    assert main(["train", "--config", str(cfg_path)]) == 2
    assert "beta1" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_negative_seed_flag_exits_2_and_writes_nothing(tmp_path, capsys):
    cfg_path, _, _ = write_synth_files(tmp_path)
    assert main(["train", "--config", str(cfg_path), "--seed", "-1"]) == 2
    assert "seed: must be >= 0" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_zero_learning_rate_in_config_and_flag_agree(tmp_path):
    cfg_path, config, _ = write_synth_files(tmp_path)
    assert main(["train", "--config", str(cfg_path), "--output-dir",
                 str(tmp_path / "flag"), "--epochs", "1", "--learning-rate", "0"]) == 0
    config["learning_rate"] = 0
    cfg_path.write_text(json.dumps(config))
    assert main(["train", "--config", str(cfg_path), "--output-dir",
                 str(tmp_path / "file"), "--epochs", "1"]) == 0
    echo = {}
    for run in ("flag", "file"):
        echo[run] = json.loads((tmp_path / run / "effective_config.json").read_text())
        echo[run].pop("output_dir")
    assert echo["flag"] == echo["file"] and echo["file"]["learning_rate"] == 0.0
    assert (tmp_path / "flag" / "checkpoint.bin").read_bytes() == \
        (tmp_path / "file" / "checkpoint.bin").read_bytes()


def test_missing_input_file_is_data_error(tmp_path, capsys):
    cfg_path, config, _ = write_synth_files(tmp_path)
    config["target_expression"] = str(tmp_path / "nope.csv")
    cfg_path.write_text(json.dumps(config))
    assert main(["train", "--config", str(cfg_path)]) == 2


def test_malformed_expression_file_is_data_error(tmp_path, capsys):
    cfg_path, config, _ = write_synth_files(tmp_path)
    (tmp_path / "target.csv").write_text("sample,g1\nrow1,not_a_number\n")
    assert main(["train", "--config", str(cfg_path)]) == 2
    assert "non-numeric" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# config handling
# ---------------------------------------------------------------------------

MINIMAL_CONFIG = {
    "format_version": 1,
    "sources": [{"expression": "a.csv", "labels": "b.csv"}],
    "target_expression": "t.csv",
    "output_dir": "out",
}


def test_minimal_config_fills_documented_defaults(tmp_path):
    p = tmp_path / "c.json"
    p.write_text(json.dumps(MINIMAL_CONFIG))
    cfg = cli.load_config(p)
    assert cfg["learning_rate"] == 1e-4
    assert cfg["batch_size"] == 64
    assert cfg["latent_dim"] == 128
    assert cfg["sampler"] == "weight"
    assert cfg["mda"] is True and cfg["ind"] is True and cfg["awg"] is True


@given(key=st.sampled_from([f.name for f in dataclasses.fields(TrainConfig)]),
       value=JSON_VALUES)
@settings(max_examples=300, deadline=None)
def test_any_json_train_value_parses_or_is_config_error(key, value):
    try:
        cfg = cli.validate_config({**MINIMAL_CONFIG, key: value})
    except cli.ConfigError as e:
        assert str(e).startswith(f"/{key}: ")
        return
    assert cfg[key] == value


def test_format_version_required(tmp_path):
    p = tmp_path / "c.json"
    p.write_text(json.dumps({"sources": []}))
    with pytest.raises(cli.ConfigError, match="/format_version"):
        cli.load_config(p)


def test_effective_config_echo_reloads_equal(tmp_path):
    cfg_path, _, _ = write_synth_files(tmp_path)
    assert main(["train", "--config", str(cfg_path)]) == 0
    echo = tmp_path / "run" / "effective_config.json"
    echo_doc = json.loads(echo.read_text())
    assert cli.load_config(echo) == echo_doc


def test_cli_flags_override_config(tmp_path):
    cfg_path, _, _ = write_synth_files(tmp_path)
    out = tmp_path / "override"
    assert main([
        "train", "--config", str(cfg_path), "--output-dir", str(out),
        "--seed", "9", "--epochs", "1",
    ]) == 0
    echo = json.loads((out / "effective_config.json").read_text())
    assert echo["seed"] == 9 and echo["epochs"] == 1


# ---------------------------------------------------------------------------
# end-to-end pipeline
# ---------------------------------------------------------------------------

def test_prep_train_predict_evaluate_pipeline(tmp_path):
    cfg_path, config, target_labels = write_synth_files(tmp_path, with_ic50=True)
    prep_out = tmp_path / "prep"
    rc = main([
        "prep",
        "--sources", config["sources"][0]["expression"],
        config["sources"][1]["expression"],
        "--target", config["target_expression"],
        "--out", str(prep_out),
    ])
    assert rc == 0
    assert (prep_out / "source_0.csv").exists()
    assert (prep_out / "prep_summary.json").exists()

    # train on the prepped files
    config["sources"][0]["expression"] = str(prep_out / "source_0.csv")
    config["sources"][1]["expression"] = str(prep_out / "source_1.csv")
    config["target_expression"] = str(prep_out / "target.csv")
    cfg_path.write_text(json.dumps(config))
    assert main(["train", "--config", str(cfg_path)]) == 0
    run = tmp_path / "run"
    for artifact in ("checkpoint.bin", "history.csv", "metrics.json",
                     "effective_config.json"):
        assert (run / artifact).exists()

    scores_path = tmp_path / "scores.csv"
    emb_path = tmp_path / "emb.csv"
    assert main([
        "predict", "--config", str(cfg_path),
        "--checkpoint", str(run / "checkpoint.bin"),
        "--out", str(scores_path), "--embeddings", str(emb_path),
    ]) == 0
    ids, scores, _ = __import__("adadrug.evaluate", fromlist=["x"]).read_scores_csv(
        scores_path
    )
    assert len(ids) == 24
    assert ((scores > 0) & (scores < 1)).all()
    assert emb_path.exists()

    metrics_path = tmp_path / "metrics.json"
    assert main([
        "evaluate", "--scores", str(scores_path),
        "--labels", str(target_labels), "--out", str(metrics_path),
        "--config", str(cfg_path),
    ]) == 0
    metrics = json.loads(metrics_path.read_text())
    assert set(metrics) == {"auroc", "aupr", "n_pos", "n_neg", "config_hash"}
    assert 0.0 <= metrics["auroc"] <= 1.0
    assert metrics["config_hash"] is not None


def test_train_twice_is_byte_identical(tmp_path):
    cfg_path, config, _ = write_synth_files(tmp_path)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["train", "--config", str(cfg_path), "--output-dir", str(out_a)]) == 0
    assert main(["train", "--config", str(cfg_path), "--output-dir", str(out_b)]) == 0
    assert (out_a / "checkpoint.bin").read_bytes() == (out_b / "checkpoint.bin").read_bytes()
    a = json.loads((out_a / "metrics.json").read_text())
    b = json.loads((out_b / "metrics.json").read_text())
    assert {k: v for k, v in a.items() if k != "config_hash"} == \
        {k: v for k, v in b.items() if k != "config_hash"}
    assert (out_a / "history.csv").read_bytes() == (out_b / "history.csv").read_bytes()


def test_train_with_target_labels_reports_metrics(tmp_path):
    cfg_path, _, target_labels = write_synth_files(tmp_path)
    assert main([
        "train", "--config", str(cfg_path), "--target-labels", str(target_labels),
    ]) == 0
    metrics = json.loads((tmp_path / "run" / "metrics.json").read_text())
    assert "auroc" in metrics and "aupr" in metrics
    assert (tmp_path / "run" / "scores.csv").exists()


def test_ablate_runs_exact_variant_set(tmp_path):
    cfg_path, _, target_labels = write_synth_files(tmp_path)
    out = tmp_path / "ablation"
    assert main([
        "ablate", "--config", str(cfg_path), "--target-labels", str(target_labels),
        "--seeds", "0,1", "--epochs", "1", "--out", str(out),
    ]) == 0
    lines = (out / "ablation.csv").read_text().strip().splitlines()
    assert lines[0] == "variant,seed,auroc,aupr"
    runs = [tuple(ln.split(",")[:2]) for ln in lines[1:]]
    assert runs == [
        (v, s) for v in ("full", "no_mda", "no_ind", "no_awg") for s in ("0", "1")
    ]
    summary = json.loads((out / "ablation_summary.json").read_text())
    assert set(summary) == {"full", "no_mda", "no_ind", "no_awg"}


def test_ablate_negative_seed_exits_2_and_writes_nothing(tmp_path, capsys):
    cfg_path, _, target_labels = write_synth_files(tmp_path)
    out = tmp_path / "ablation"
    assert main(["ablate", "--config", str(cfg_path), "--target-labels",
                 str(target_labels), "--seeds", "0,-1", "--out", str(out)]) == 2
    assert "seed: must be >= 0" in capsys.readouterr().err
    assert not out.exists()


def test_synth_bench_happy_path(tmp_path):
    out = tmp_path / "bench"
    rc = main([
        "synth-bench", "--seed", "7", "--variants", "full,baseline",
        "--out", str(out), "--n-per-domain", "40", "--n-target", "40",
        "--genes", "10", "--signal-dim", "3", "--epochs", "3",
        "--latent-dim", "6",
    ])
    assert rc == 0
    lines = (out / "report.csv").read_text().strip().splitlines()
    assert lines[0] == "variant,seed,auroc,aupr"
    assert [ln.split(",")[0] for ln in lines[1:]] == ["full", "baseline"]
    assert (out / "summary.json").exists()
    assert (out / "effective_config.json").exists()


def test_evaluate_uses_inline_labels(tmp_path, rng):
    from adadrug import evaluate as ev

    scores_path = tmp_path / "s.csv"
    ev.write_scores_csv(scores_path, ["a", "b", "c", "d"],
                        [0.9, 0.7, 0.3, 0.2], [1, 1, 0, 0])
    out = tmp_path / "m.json"
    assert main(["evaluate", "--scores", str(scores_path), "--out", str(out)]) == 0
    assert json.loads(out.read_text())["auroc"] == 1.0


def test_prep_hvg_and_pathways(tmp_path):
    cfg_path, config, _ = write_synth_files(tmp_path, n_genes=10)
    out = tmp_path / "prep_hvg"
    assert main([
        "prep",
        "--sources", config["sources"][0]["expression"],
        config["sources"][1]["expression"],
        "--target", config["target_expression"],
        "--out", str(out), "--hvg", "5",
    ]) == 0
    summary = json.loads((out / "prep_summary.json").read_text())
    assert summary["n_genes"] == 5
    assert summary["selection"]["method"] == "hvg"

    sets_path = tmp_path / "sets.tsv"
    sets_path.write_text("p1\tg0,g1,g2\np2\tg3\n")
    out2 = tmp_path / "prep_pw"
    assert main([
        "prep",
        "--sources", config["sources"][0]["expression"],
        config["sources"][1]["expression"],
        "--target", config["target_expression"],
        "--out", str(out2), "--pathways", str(sets_path),
    ]) == 0
    m = dat.load_expression(out2 / "target.csv")
    assert m.gene_names == ["p1", "p2"]


def _prep_args(config, out):
    return ["prep", "--sources", config["sources"][0]["expression"],
            config["sources"][1]["expression"],
            "--target", config["target_expression"], "--out", str(out)]


def test_prep_hvg_zero_is_data_error(tmp_path, capsys):
    _, config, _ = write_synth_files(tmp_path)
    out = tmp_path / "prep"
    assert main(_prep_args(config, out) + ["--hvg", "0"]) == 2
    assert "n must be >= 1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("given,missing", [("--deg-a", "--deg-b"),
                                           ("--deg-b", "--deg-a")])
def test_prep_lone_deg_flag_names_the_missing_one(tmp_path, capsys, given, missing):
    _, config, _ = write_synth_files(tmp_path)
    out = tmp_path / "prep"
    group = config["sources"][0]["expression"]
    assert main(_prep_args(config, out) + [given, group]) == 2
    assert f"{missing} is missing" in capsys.readouterr().err
    assert not out.exists()


def test_predict_on_checkpoint_with_swapped_arrays_exits_2(tmp_path, capsys):
    cfg_path, _, _ = write_synth_files(tmp_path)
    run = tmp_path / "run"
    assert main(["train", "--config", str(cfg_path), "--output-dir", str(run),
                 "--epochs", "1"]) == 0
    ckpt = run / "checkpoint.bin"
    head, body = ckpt.read_bytes().split(b"\n", 1)
    header = json.loads(head)
    header["arrays"][0], header["arrays"][1] = header["arrays"][1], header["arrays"][0]
    ckpt.write_bytes(json.dumps(header, sort_keys=True).encode() + b"\n" + body)
    capsys.readouterr()
    assert main(["predict", "--config", str(cfg_path), "--checkpoint", str(ckpt),
                 "--out", str(tmp_path / "scores.csv")]) == 2
    assert "encoder.0.b" in capsys.readouterr().err
    assert not (tmp_path / "scores.csv").exists()


def _edit_config(cfg):
    cfg.update(latent_dim=64, gen_out_activation="sigmoid", encoder_hidden=999)


@pytest.mark.parametrize("edit,message", [
    (lambda c: c.update(ref_batch=0), "ref_batch: must be >= 1"),
    (lambda c: c.update(mda="no"), "mda: must be a boolean"),
    (_edit_config, "config implies"),
], ids=["ref_batch_0", "mda_no", "config_contradicts_specs"])
def test_predict_on_checkpoint_with_bad_config_exits_2(tmp_path, capsys, edit, message):
    cfg_path, _, _ = write_synth_files(tmp_path)
    run = tmp_path / "run"
    assert main(["train", "--config", str(cfg_path), "--output-dir", str(run),
                 "--epochs", "1"]) == 0
    ckpt = run / "checkpoint.bin"
    head, body = ckpt.read_bytes().split(b"\n", 1)
    header = json.loads(head)
    edit(header["config"])
    ckpt.write_bytes(json.dumps(header, sort_keys=True).encode() + b"\n" + body)
    capsys.readouterr()
    assert main(["predict", "--config", str(cfg_path), "--checkpoint", str(ckpt),
                 "--out", str(tmp_path / "scores.csv")]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "scores.csv").exists()
