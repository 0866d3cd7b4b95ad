import csv
import dataclasses
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adadrug import cli
from adadrug import data as dat
from adadrug import evaluate as ev
from adadrug import model as mdl
from adadrug import synth as sy
from adadrug import train as tr
from adadrug.cli import main
from adadrug.train import TrainConfig

from conftest import JSON_VALUES, swap_body_blocks, write_v1_checkpoint


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
    # the flag is at fault, not the config file, so the message names no file
    assert capsys.readouterr().err == "error: /seed: must be >= 0\n"
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("edit,message", [
    (lambda doc: json.dumps(doc)[:-1], "/: not valid JSON ("),
    (lambda doc: json.dumps({**doc, "seed": -1}), "/seed: must be >= 0\n"),
], ids=["truncated", "schema"])
def test_config_file_errors_name_the_file(tmp_path, capsys, edit, message):
    cfg_path, config, _ = write_synth_files(tmp_path)
    cfg_path.write_text(edit(config))
    assert main(["train", "--config", str(cfg_path)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {cfg_path}: {message}")
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


# each (command, input file it reads) pair
INPUT_FILES = [
    *(("prep", f) for f in ("source_expression", "target_expression", "gene_list",
                            "deg_a", "deg_b", "pathways")),
    *(("train", f) for f in ("config", "source_expression", "source_labels",
                             "target_expression", "gene_list", "target_labels")),
    *(("predict", f) for f in ("config", "checkpoint", "source_expression",
                               "target_expression", "gene_list")),
    *(("evaluate", f) for f in ("scores", "target_labels", "config")),
    *(("ablate", f) for f in ("config", "source_expression", "source_labels",
                              "target_expression", "gene_list", "target_labels")),
]


def _tree(root):
    return {p: p.read_bytes() if p.is_file() else None for p in sorted(root.rglob("*"))}


# what is wrong with the input file: it is a directory, it is missing, it is
# not UTF-8 (a text input), or it is cut off inside its last record: a sample
# table after the last row's id, a config halfway, a checkpoint inside its
# last value. A gene list or gene-set file cut short is still a valid file.
TRUNCATED = {"checkpoint", "config", "source_expression", "target_expression",
             "deg_a", "deg_b", "source_labels", "target_labels", "scores"}
INPUT_CASES = [
    # a directory case is named by its pair alone
    pytest.param(command, which, fault,
                 id="-".join([command, which] + [fault] * (fault != "dir")))
    for command, which in INPUT_FILES
    for fault in ("dir", "missing", "not_utf8", "truncated")
    if (fault != "not_utf8" or which != "checkpoint")
    and (fault != "truncated" or which in TRUNCATED)
]


def _cut_short(path):
    blob = path.read_bytes()
    if path.suffix == ".bin":
        return blob[:-12]
    if path.suffix == ".json":
        return blob[:len(blob) // 2]
    head, _, last = blob.rstrip(b"\n").rpartition(b"\n")
    return head + b"\n" + last[:last.index(b",")]


@pytest.mark.parametrize("command,which,fault", INPUT_CASES)
def test_an_input_that_is_a_directory_exits_2_naming_it(tmp_path, capsys, command,
                                                        which, fault):
    cfg_path, config, target_labels = write_synth_files(tmp_path)
    gene_list = tmp_path / "genes.txt"
    gene_list.write_text("g0\ng1\ng2\n")
    config["gene_list"] = str(gene_list)
    cfg_path.write_text(json.dumps(config))
    pathways = tmp_path / "sets.txt"
    pathways.write_text("p\tg0,g1\n")
    deg_a, deg_b = tmp_path / "deg_a.csv", tmp_path / "deg_b.csv"
    deg_a.write_bytes(Path(config["sources"][0]["expression"]).read_bytes())
    deg_b.write_bytes(Path(config["sources"][1]["expression"]).read_bytes())
    ckpt = tmp_path / "run" / "checkpoint.bin"
    scores = tmp_path / "scores.csv"
    if command == "predict":
        assert main(["train", "--config", str(cfg_path), "--epochs", "1"]) == 0
    if command == "evaluate":
        ids, _, _ = dat.load_labels(target_labels)
        ev.write_scores_csv(scores, ids, np.linspace(0, 1, len(ids)))
    out = tmp_path / "out"
    args = {
        "prep": _prep_args(config, out) + {
            "gene_list": ["--gene-list", str(gene_list)],
            "deg_a": ["--deg-a", str(deg_a), "--deg-b", str(deg_b)],
            "deg_b": ["--deg-a", str(deg_a), "--deg-b", str(deg_b)],
        }.get(which, ["--pathways", str(pathways)]),
        "train": ["train", "--config", str(cfg_path), "--output-dir", str(out),
                  "--target-labels", str(target_labels)],
        "predict": ["predict", "--config", str(cfg_path), "--checkpoint", str(ckpt),
                    "--out", str(out)],
        "evaluate": ["evaluate", "--scores", str(scores), "--labels", str(target_labels),
                     "--config", str(cfg_path), "--out", str(out)],
        "ablate": ["ablate", "--config", str(cfg_path), "--target-labels",
                   str(target_labels), "--out", str(out)],
    }[command]
    path = Path({
        "config": cfg_path, "checkpoint": ckpt, "scores": scores,
        "source_expression": config["sources"][1]["expression"],
        "source_labels": config["sources"][1]["labels"],
        "target_expression": config["target_expression"], "gene_list": gene_list,
        "target_labels": target_labels, "deg_a": deg_a, "deg_b": deg_b,
        "pathways": pathways,
    }[which])
    if fault == "not_utf8":
        path.write_bytes("\u00e8".encode("latin-1") + path.read_bytes())
    elif fault == "truncated":
        path.write_bytes(_cut_short(path))
    else:
        path.unlink()
        if fault == "dir":
            path.mkdir()
    before = _tree(tmp_path)
    capsys.readouterr()
    assert main(args) == 2
    assert capsys.readouterr().err.startswith(f"error: {path}: ")
    assert _tree(tmp_path) == before


# each (command, output) pair and the path given for it that cannot be written:
# a directory where a file goes, a file where a directory goes, a path under a
# file, a file in a directory that does not exist, a file the command reads or
# writes besides, named or spelled through "..", or an output directory holding
# a directory under the name of a file the command writes into it
OUTPUTS = [("predict", "out", "dir"), ("predict", "embeddings", "dir"),
           ("predict", "embeddings", "missing_dir"), ("evaluate", "out", "dir"),
           ("prep", "out", "file"), ("train", "output_dir", "file"),
           ("train", "output_dir", "under_file"), ("ablate", "out", "file"),
           ("synth-bench", "out", "file"),
           ("predict", "out", "target"), ("predict", "out", "target_via_dotdot"),
           ("predict", "out", "checkpoint"), ("predict", "out", "config"),
           ("predict", "embeddings", "source"), ("predict", "embeddings", "gene_list"),
           ("predict", "embeddings", "out"), ("evaluate", "out", "scores"),
           ("evaluate", "out", "labels"), ("evaluate", "out", "config"),
           *(("prep", "out", name)
             for name in ("target.csv", "source_0.csv.f8", "prep_summary.json")),
           *(("train", "output_dir", name)
             for name in ("checkpoint.bin", "history.csv", "scores.csv")),
           ("ablate", "out", "ablation.csv"), ("synth-bench", "out", "report.csv")]


@pytest.mark.parametrize("command,which,blocker", OUTPUTS)
def test_an_output_path_that_cannot_be_written_exits_2_naming_it(
        tmp_path, capsys, monkeypatch, command, which, blocker):
    cfg_path, config, target_labels = write_synth_files(tmp_path)
    gene_list = tmp_path / "genes.txt"
    gene_list.write_text("g0\ng1\ng2\n")
    config["gene_list"] = str(gene_list)
    cfg_path.write_text(json.dumps(config))
    ckpt = tmp_path / "run" / "checkpoint.bin"
    scores = tmp_path / "scores.csv"
    if command == "predict":
        assert main(["train", "--config", str(cfg_path), "--epochs", "1"]) == 0
    if command == "evaluate":
        ids, _, _ = dat.load_labels(target_labels)
        ev.write_scores_csv(scores, ids, np.linspace(0, 1, len(ids)))
    path = {
        "target": Path(config["target_expression"]),
        "target_via_dotdot": tmp_path / "run" / ".." / "target.csv",
        "checkpoint": ckpt, "config": cfg_path, "gene_list": gene_list,
        "source": Path(config["sources"][0]["expression"]),
        "out": tmp_path / "s.csv", "scores": scores, "labels": target_labels,
    }.get(blocker, tmp_path / "blocked")
    if blocker == "dir":
        path.mkdir()
    elif "." in blocker:
        (path / blocker).mkdir(parents=True)
    elif blocker == "missing_dir":
        path = path / "embeddings.csv"
    elif blocker in ("file", "under_file"):
        path.write_text("")
        if blocker == "under_file":
            path = path / "run"
    predict = ["predict", "--config", str(cfg_path), "--checkpoint", str(ckpt)]
    args = {
        ("predict", "out"): predict + ["--out", str(path)],
        ("predict", "embeddings"): predict + ["--out", str(tmp_path / "s.csv"),
                                              "--embeddings", str(path)],
        ("evaluate", "out"): ["evaluate", "--scores", str(scores), "--labels",
                              str(target_labels), "--config", str(cfg_path),
                              "--out", str(path)],
        ("prep", "out"): _prep_args(config, path),
        ("train", "output_dir"): ["train", "--config", str(cfg_path),
                                  "--target-labels", str(target_labels),
                                  "--output-dir", str(path)],
        ("ablate", "out"): ["ablate", "--config", str(cfg_path), "--target-labels",
                            str(target_labels), "--out", str(path)],
        ("synth-bench", "out"): ["synth-bench", "--variants", "full", "--epochs", "1",
                                 "--out", str(path)],
    }[command, which]
    trained, read = [], []  # the path is refused before any table is read
    monkeypatch.setattr(tr, "train", lambda *args: trained.append(args))
    load_expression = dat.load_expression
    monkeypatch.setattr(dat, "load_expression",
                        lambda *args: read.append(args) or load_expression(*args))
    before = _tree(tmp_path)
    capsys.readouterr()
    assert main(args) == 2
    err = capsys.readouterr().err
    if "." in blocker:
        assert err == f"error: {path / blocker}: is a directory, not a file\n"
    else:
        assert err.startswith(f"error: {path}: ")
    assert _tree(tmp_path) == before and not trained and not read


# each (command, input file, name of a file the command writes into its output
# directory): the input lies in that directory under that name
OVERWRITES = [
    ("prep", "source_expression", "target.csv"),
    ("prep", "target_expression", "source_0.csv"),
    ("prep", "source_expression", "source_1.csv.f8"),
    ("prep", "gene_list", "prep_summary.json"),
    ("prep", "deg_b", "source_1.csv"),
    ("prep", "pathways", "target.csv.f8"),
    ("train", "config", "effective_config.json"),
    ("train", "source_expression", "checkpoint.bin"),
    ("train", "source_labels", "history.csv"),
    ("train", "target_expression", "metrics.json"),
    ("train", "target_labels", "scores.csv"),
    ("ablate", "config", "ablation_summary.json"),
    ("ablate", "gene_list", "effective_config.json"),
    ("ablate", "target_labels", "ablation.csv"),
]


@pytest.mark.parametrize("command,which,name", OVERWRITES)
def test_an_output_that_is_an_input_exits_2_naming_it(tmp_path, capsys, command, which,
                                                      name):
    cfg_path, config, target_labels = write_synth_files(tmp_path)
    gene_list = tmp_path / "genes.txt"
    gene_list.write_text("g0\ng1\ng2\n")
    pathways = tmp_path / "sets.txt"
    pathways.write_text("p\tg0,g1\n")
    paths = {"config": cfg_path, "gene_list": gene_list, "pathways": pathways,
             "target_labels": target_labels, "deg_b": tmp_path / "deg_b.csv",
             "source_expression": Path(config["sources"][1]["expression"]),
             "source_labels": Path(config["sources"][1]["labels"]),
             "target_expression": Path(config["target_expression"])}
    shutil.copy(paths["source_expression"], paths["deg_b"])
    out = tmp_path / "out"
    out.mkdir()
    paths[which] = paths[which].rename(out / name)
    config["sources"][1].update(expression=str(paths["source_expression"]),
                                labels=str(paths["source_labels"]))
    config.update(target_expression=str(paths["target_expression"]),
                  gene_list=str(paths["gene_list"]), output_dir=str(out))
    paths["config"].write_text(json.dumps(config))
    run = ["--config", str(paths["config"]), "--target-labels",
           str(paths["target_labels"])]
    args = {
        "prep": _prep_args(config, out) + {
            "gene_list": ["--gene-list", str(paths["gene_list"])],
            "deg_b": ["--deg-a", config["sources"][0]["expression"],
                      "--deg-b", str(paths["deg_b"])],
            "pathways": ["--pathways", str(paths["pathways"])],
        }.get(which, []),
        "train": ["train", *run],
        "ablate": ["ablate", *run, "--epochs", "1"],
    }[command]
    before = _tree(tmp_path)
    capsys.readouterr()
    assert main(args) == 2
    assert capsys.readouterr().err == \
        f"error: {out / name}: would overwrite an input of this command\n"
    assert _tree(tmp_path) == before


@pytest.mark.parametrize("command", ["prep", "train", "predict", "evaluate", "ablate",
                                     "synth-bench"])
def test_every_file_a_command_writes_is_checked_once_before_it_is_written(
        tmp_path, monkeypatch, command):
    cfg_path, config, target_labels = write_synth_files(tmp_path)
    ckpt = tmp_path / "run" / "checkpoint.bin"
    scores = tmp_path / "scores.csv"
    if command == "predict":
        assert main(["train", "--config", str(cfg_path), "--epochs", "1"]) == 0
    if command == "evaluate":
        ids, _, _ = dat.load_labels(target_labels)
        ev.write_scores_csv(scores, ids, np.linspace(0, 1, len(ids)))
    out = tmp_path / "out"
    args = {
        "prep": _prep_args(config, out),
        "train": ["train", "--config", str(cfg_path), "--target-labels",
                  str(target_labels), "--epochs", "1", "--output-dir", str(out)],
        "predict": ["predict", "--config", str(cfg_path), "--checkpoint", str(ckpt),
                    "--out", str(out), "--embeddings", str(tmp_path / "emb.csv")],
        "evaluate": ["evaluate", "--scores", str(scores), "--labels",
                     str(target_labels), "--out", str(out)],
        "ablate": ["ablate", "--config", str(cfg_path), "--target-labels",
                   str(target_labels), "--epochs", "1", "--out", str(out)],
        "synth-bench": ["synth-bench", "--variants", "full", "--n-per-domain", "20",
                        "--n-target", "20", "--genes", "6", "--signal-dim", "2",
                        "--epochs", "1", "--out", str(out)],
    }[command]
    calls = []  # the files of each check, and whether the tree was untouched then
    check_outputs = cli.check_outputs
    monkeypatch.setattr(cli, "check_outputs", lambda inputs, files, out_dir=None: (
        calls.append(({Path(f) for f in files if f}, _tree(tmp_path) == before))
        or check_outputs(inputs, files, out_dir)))
    before = _tree(tmp_path)
    assert main(args) == 0
    written = {p for p, blob in _tree(tmp_path).items()
               if blob is not None and before.get(p) != blob}
    assert calls == [(written, True)]


def test_malformed_expression_file_is_data_error(tmp_path, capsys):
    cfg_path, config, _ = write_synth_files(tmp_path)
    (tmp_path / "target.csv").write_text("sample,g1\nrow1,not_a_number\n")
    assert main(["train", "--config", str(cfg_path)]) == 2
    assert "non-numeric" in capsys.readouterr().err


def test_blank_first_line_in_expression_file_is_data_error(tmp_path, capsys):
    cfg_path, config, _ = write_synth_files(tmp_path)
    (tmp_path / "target.csv").write_text("\nsample,g1\nrow1,1\n")
    assert main(["train", "--config", str(cfg_path)]) == 2
    assert "line 1: blank header" in capsys.readouterr().err


def test_diverging_training_exits_3_and_writes_no_results(tmp_path, capsys):
    cfg_path, config, _ = write_synth_files(tmp_path)
    config.update(learning_rate=1e12, beta1=0, beta2=0)
    cfg_path.write_text(json.dumps(config))
    with np.errstate(all="ignore"):
        assert main(["train", "--config", str(cfg_path)]) == 3
    assert "training diverged at step" in capsys.readouterr().err
    for name in ("checkpoint.bin", "history.csv", "metrics.json"):
        assert not (tmp_path / "run" / name).exists()


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


@pytest.mark.parametrize("key,value,message", [
    ("file_format", "xlsx", "/file_format: must be 'csv' or 'tsv'"),
    ("file_format", ["csv"], "/file_format: must be 'csv' or 'tsv'"),
    ("file_format", {"csv": 1}, "/file_format: must be 'csv' or 'tsv'"),
    ("gene_list", 3, "/gene_list: must be a string or null"),
    ("gene_list", ["g1"], "/gene_list: must be a string or null"),
])
def test_bad_path_setting_is_config_error(key, value, message):
    with pytest.raises(cli.ConfigError) as err:
        cli.validate_config({**MINIMAL_CONFIG, key: value})
    assert str(err.value) == message


def test_config_with_a_byte_order_mark_loads_as_one_without(tmp_path):
    plain, marked = tmp_path / "plain.json", tmp_path / "marked.json"
    text = json.dumps({**MINIMAL_CONFIG, "gene_list": "g\u00e8nes.txt"},
                      ensure_ascii=False)
    plain.write_bytes(text.encode("utf-8"))
    marked.write_bytes(text.encode("utf-8-sig"))
    assert cli.load_config(marked) == cli.load_config(plain)


@pytest.mark.parametrize("which", ["config", "expression", "labels", "gene_list"])
def test_input_that_is_not_utf8_exits_2_naming_the_file(tmp_path, capsys, which):
    cfg_path, config, _ = write_synth_files(tmp_path)
    gene_list = tmp_path / "genes.txt"
    gene_list.write_text("g0\ng1\n")
    config["gene_list"] = str(gene_list)
    cfg_path.write_text(json.dumps(config) + "\n")
    bad = {"config": cfg_path, "expression": Path(config["target_expression"]),
           "labels": Path(config["sources"][1]["labels"]), "gene_list": gene_list}[which]
    bad.write_bytes(bad.read_bytes().replace(b"\n", "\u00e8\n".encode("latin-1"), 1))
    assert main(["train", "--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert f"{bad}: not UTF-8 text" in err
    assert not (tmp_path / "run").exists()


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
    # one embedding pass feeds both files: each equals its own full computation
    from adadrug import evaluate as ev

    model, cfg_train, _ = tr.load_checkpoint(run / "checkpoint.bin")
    assert cfg_train.awg_active
    bundle = cli.load_bundle(cli.load_config(cfg_path))
    kwargs = dict(sources=bundle.sources, ref_batch=cfg_train.ref_batch,
                  seed=cfg_train.seed)
    ev.write_scores_csv(tmp_path / "want_scores.csv", bundle.target.sample_ids,
                        ev.predict_target(model, bundle.target, **kwargs))
    ev.write_embeddings_csv(tmp_path / "want_emb.csv", bundle.target.sample_ids,
                            ev.embed_target(model, bundle.target, **kwargs))
    assert scores_path.read_bytes() == (tmp_path / "want_scores.csv").read_bytes()
    assert emb_path.read_bytes() == (tmp_path / "want_emb.csv").read_bytes()

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


def _prep_run(tmp_path):
    """``prep`` of the synthetic files, and a config that trains on its output:
    (config path, config, prep directory)."""
    cfg_path, config, _ = write_synth_files(tmp_path)
    prep = tmp_path / "prep"
    assert main(_prep_args(config, prep)) == 0
    config["sources"][0]["expression"] = str(prep / "source_0.csv")
    config["sources"][1]["expression"] = str(prep / "source_1.csv")
    config["target_expression"] = str(prep / "target.csv")
    cfg_path.write_text(json.dumps(config))
    return cfg_path, config, prep


def test_a_run_on_prep_copies_is_the_run_on_its_tables(tmp_path):
    cfg_path, _, prep = _prep_run(tmp_path)
    assert sorted(p.name for p in prep.glob("*.f8")) == \
        ["source_0.csv.f8", "source_1.csv.f8", "target.csv.f8"]

    def run():
        out = tmp_path / "run"
        assert main(["train", "--config", str(cfg_path)]) == 0
        assert main(["predict", "--config", str(cfg_path), "--checkpoint",
                     str(out / "checkpoint.bin"), "--out", str(out / "scores.csv"),
                     "--embeddings", str(out / "emb.csv")]) == 0
        files = _tree(out)
        shutil.rmtree(out)
        return files

    with_copies = run()
    for copy in prep.glob("*.f8"):
        copy.unlink()
    assert run() == with_copies


def test_a_malformed_table_with_a_stale_copy_exits_2_as_without_one(tmp_path, capsys):
    cfg_path, _, prep = _prep_run(tmp_path)
    (prep / "target.csv").write_text("sample,g1\nrow1,not_a_number\n")
    capsys.readouterr()
    assert main(["train", "--config", str(cfg_path)]) == 2
    with_copy = capsys.readouterr().err
    assert "non-numeric" in with_copy
    (prep / "target.csv.f8").unlink()
    assert main(["train", "--config", str(cfg_path)]) == 2
    assert capsys.readouterr().err == with_copy


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


def test_only_a_run_whose_generator_trained_is_scored_weighted(tmp_path):
    # awg off, or mda off (no target embeddings for the generator), leaves the
    # generator untrained: train and predict then score the raw embeddings
    cfg_path, config, target_labels = write_synth_files(tmp_path)
    for name, flags, weighted in (("awg_off", {"awg": False}, False),
                                  ("mda_off", {"mda": False}, False),
                                  ("full", {}, True)):
        run = tmp_path / name
        cfg_path.write_text(json.dumps(dict(config, output_dir=str(run), **flags)))
        assert main(["train", "--config", str(cfg_path),
                     "--target-labels", str(target_labels)]) == 0
        assert main(["predict", "--config", str(cfg_path), "--checkpoint",
                     str(run / "checkpoint.bin"), "--out", str(run / "pred.csv")]) == 0
        model, _, _ = tr.load_checkpoint(run / "checkpoint.bin")
        target = cli.load_bundle(cli.load_config(cfg_path)).target
        raw = mdl.predict(model, mdl.encode(model, target.values)).ravel()
        ev.write_scores_csv(run / "raw.csv", target.sample_ids, raw)
        unweighted = (run / "pred.csv").read_bytes() == (run / "raw.csv").read_bytes()
        assert unweighted is not weighted, name
        _, train_scores, _ = ev.read_scores_csv(run / "scores.csv")
        assert (train_scores.tobytes() == raw.tobytes()) is not weighted, name


def test_predict_reads_no_labels_file(tmp_path):
    # a weighted run: predict reads the sources' expression files for their
    # references, and scores the same bytes after their labels files are gone
    cfg_path, config, _ = write_synth_files(tmp_path)
    assert main(["train", "--config", str(cfg_path)]) == 0
    predict = ["predict", "--config", str(cfg_path),
               "--checkpoint", str(tmp_path / "run" / "checkpoint.bin"), "--out"]
    assert main([*predict, str(tmp_path / "with_labels.csv")]) == 0
    for source in config["sources"]:
        Path(source["labels"]).unlink()
    assert main([*predict, str(tmp_path / "without_labels.csv")]) == 0
    assert (tmp_path / "without_labels.csv").read_bytes() == \
        (tmp_path / "with_labels.csv").read_bytes()


@pytest.fixture
def train_calls(monkeypatch):
    """Records each ``train.train`` call and trains nothing."""
    calls = []
    monkeypatch.setattr(tr, "train", lambda *args: calls.append(args))
    return calls


@pytest.mark.parametrize("command", ["train", "ablate"])
@pytest.mark.parametrize("labels", ["missing_file", "other_ids", "one_class"])
def test_bad_target_labels_exit_2_before_training_or_writing(tmp_path, capsys,
                                                             train_calls, command,
                                                             labels):
    cfg_path, _, target_labels = write_synth_files(tmp_path)
    path = tmp_path / "target_labels_bad.csv"
    if labels == "other_ids":
        path.write_text("sample_id,label\nnot_a_target,1\n")
    elif labels == "one_class":  # AUROC needs both classes
        ids, _, _ = dat.load_labels(target_labels)
        path.write_text("sample_id,label\n" + "".join(f"{sid},1\n" for sid in ids))
    out = tmp_path / "out"
    args = ["--output-dir", str(out)] if command == "train" else ["--out", str(out)]
    assert main([command, "--config", str(cfg_path), "--target-labels", str(path),
                 *args]) == 2
    err = capsys.readouterr().err
    assert (f"{path}: no label for samples" if labels == "other_ids"
            else str(path)) in err
    assert train_calls == []
    assert not out.exists() and not (tmp_path / "run").exists()


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


def test_ablate_out_is_echoed_as_output_dir_and_reloads_equal(tmp_path):
    cfg_path, _, target_labels = write_synth_files(tmp_path)
    out = tmp_path / "ablation"
    assert main([
        "ablate", "--config", str(cfg_path), "--target-labels", str(target_labels),
        "--epochs", "1", "--out", str(out),
    ]) == 0
    echo = out / "effective_config.json"
    echo_doc = json.loads(echo.read_text())
    assert echo_doc["output_dir"] == str(out)
    assert cli.load_config(echo) == echo_doc


def test_ablate_negative_seed_exits_2_and_writes_nothing(tmp_path, capsys,
                                                        train_calls):
    cfg_path, _, target_labels = write_synth_files(tmp_path)
    out = tmp_path / "ablation"
    assert main(["ablate", "--config", str(cfg_path), "--target-labels",
                 str(target_labels), "--seeds", "0,-1", "--out", str(out)]) == 2
    assert "seed: must be >= 0" in capsys.readouterr().err
    assert train_calls == []
    assert not out.exists()


def test_ablate_repeated_seed_exits_2_and_trains_nothing(tmp_path, capsys,
                                                         train_calls):
    cfg_path, _, target_labels = write_synth_files(tmp_path)
    out = tmp_path / "ablation"
    assert main(["ablate", "--config", str(cfg_path), "--target-labels",
                 str(target_labels), "--seeds", "0,0", "--out", str(out)]) == 2
    assert "seeds must not repeat, got [0, 0]" in capsys.readouterr().err
    assert train_calls == []
    assert not out.exists()


def test_ablate_that_fails_mid_grid_writes_nothing(tmp_path, capsys, train_calls):
    cfg_path, _, target_labels = write_synth_files(tmp_path)
    out = tmp_path / "ablation"
    # the recording train returns None, so the first run fails after training
    assert main(["ablate", "--config", str(cfg_path), "--target-labels",
                 str(target_labels), "--out", str(out)]) == 3
    assert len(train_calls) == 1
    assert not out.exists()


@pytest.mark.parametrize("command", ["train", "ablate"])
def test_empty_output_dir_flag_exits_2_and_writes_nothing(tmp_path, capsys,
                                                          train_calls, command):
    cfg_path, _, target_labels = write_synth_files(tmp_path)
    flag = "--output-dir" if command == "train" else "--out"
    assert main([command, "--config", str(cfg_path), "--target-labels",
                 str(target_labels), flag, ""]) == 2
    assert "/output_dir: required and must be a non-empty string" in \
        capsys.readouterr().err
    assert train_calls == []
    assert not (tmp_path / "run").exists()


def test_ablate_without_seeds_exits_2_and_writes_nothing(tmp_path, capsys):
    cfg_path, _, target_labels = write_synth_files(tmp_path)
    out = tmp_path / "ablation"
    assert main(["ablate", "--config", str(cfg_path), "--target-labels",
                 str(target_labels), "--seeds", ",", "--out", str(out)]) == 2
    assert "--seeds" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("seeds", [",", " , ", "1,x", ""])
def test_synth_bench_without_seeds_exits_2_and_writes_nothing(tmp_path, capsys, seeds):
    out = tmp_path / "bench"
    assert main(["synth-bench", "--seeds", seeds, "--variants", "full",
                 "--out", str(out)]) == 2
    assert "--seeds" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("variants", [",", " , ", ""], ids=["comma", "blank", "empty"])
def test_synth_bench_without_variants_exits_2_naming_the_flag(tmp_path, capsys,
                                                              train_calls, variants):
    out = tmp_path / "bench"
    assert main(["synth-bench", "--variants", variants, "--out", str(out)]) == 2
    assert (f"error: --variants must list comma-separated names, got {variants!r}"
            in capsys.readouterr().err)
    assert train_calls == []
    assert not out.exists()


@pytest.mark.parametrize("flags,message", [
    (["--seeds", "0,-1"], "seed: must be >= 0"),
    (["--k", "1", "--variants", "full,full_2src"], "full_2src needs at least two"),
    (["--seeds", "0,1,0"], "seeds must not repeat, got [0, 1, 0]"),
    (["--variants", "baseline,full,baseline"],
     "variants must not repeat, got ['baseline', 'full', 'baseline']"),
], ids=["negative_seed", "full_2src_with_one_source", "repeated_seed",
        "repeated_variant"])
def test_synth_bench_checks_every_run_before_the_first_trains(tmp_path, capsys,
                                                             train_calls, flags,
                                                             message):
    out = tmp_path / "bench"
    assert main(["synth-bench", "--out", str(out), *flags]) == 2
    assert message in capsys.readouterr().err
    assert train_calls == []
    assert not out.exists()


def test_train_with_gene_list_uses_the_listed_genes_in_list_order(tmp_path):
    cfg_path, config, _ = write_synth_files(tmp_path)
    listed = ["g5", "g1", "g7", "g3"]
    gene_list = tmp_path / "genes.txt"
    gene_list.write_text("\n".join(listed[:2] + ["absent"] + listed[2:]) + "\n")
    with_list = dict(config, gene_list=str(gene_list), output_dir=str(tmp_path / "a"))
    assert cli.load_bundle(cli.validate_config(with_list)).gene_names == listed

    # the same data written out with just the listed columns, in list order
    def subset(path):
        out = tmp_path / ("listed_" + path.rsplit("/", 1)[-1])
        cli.write_expression(out, dat.load_expression(path).subset_genes(listed))
        return str(out)

    pre_cut = dict(config, output_dir=str(tmp_path / "b"),
                   target_expression=subset(config["target_expression"]),
                   sources=[dict(s, expression=subset(s["expression"]))
                            for s in config["sources"]])
    for name, cfg in (("a.json", with_list), ("b.json", pre_cut)):
        (tmp_path / name).write_text(json.dumps(cfg))
        assert main(["train", "--config", str(tmp_path / name)]) == 0
    for artifact in ("checkpoint.bin", "history.csv"):
        assert (tmp_path / "a" / artifact).read_bytes() == \
            (tmp_path / "b" / artifact).read_bytes()
    model, _, _ = tr.load_checkpoint(tmp_path / "a" / "checkpoint.bin")
    assert model.n_genes == len(listed)


def test_train_with_gene_list_sharing_no_gene_exits_2(tmp_path, capsys):
    cfg_path, config, _ = write_synth_files(tmp_path)
    gene_list = tmp_path / "genes.txt"
    gene_list.write_text("absent\nalso_absent\n")
    cfg_path.write_text(json.dumps(dict(config, gene_list=str(gene_list))))
    assert main(["train", "--config", str(cfg_path)]) == 2
    assert "gene intersection holds none of the selected genes" in \
        capsys.readouterr().err
    assert not (tmp_path / "run" / "checkpoint.bin").exists()


def test_a_bad_cell_in_the_second_source_names_its_file(tmp_path, capsys, train_calls):
    cfg_path, config, _ = write_synth_files(tmp_path)
    path = Path(config["sources"][1]["expression"])
    lines = path.read_text().splitlines(keepends=True)
    sid, _, values = lines[2].partition(",")
    lines[2] = f"{sid},x,{values.split(',', 1)[1]}"
    path.write_text("".join(lines))
    assert main(["train", "--config", str(cfg_path)]) == 2
    assert f"error: {path}: line 3: non-numeric value 'x'" in capsys.readouterr().err
    assert train_calls == []
    assert not (tmp_path / "run").exists()


def test_a_source_sample_without_a_label_names_the_labels_file(tmp_path, capsys,
                                                               train_calls):
    cfg_path, config, _ = write_synth_files(tmp_path)
    path = Path(config["sources"][1]["labels"])
    path.write_text("".join(path.read_text().splitlines(keepends=True)[:-1]))
    assert main(["train", "--config", str(cfg_path)]) == 2
    assert f"error: {path}: no label for samples: " in capsys.readouterr().err
    assert train_calls == []
    assert not (tmp_path / "run").exists()


def test_train_with_a_repeated_gene_in_gene_list_exits_2_and_writes_nothing(
        tmp_path, capsys):
    cfg_path, config, _ = write_synth_files(tmp_path)
    gene_list = tmp_path / "genes.txt"
    gene_list.write_text("g3\ng5\ng3\n")
    cfg_path.write_text(json.dumps(dict(config, gene_list=str(gene_list))))
    assert main(["train", "--config", str(cfg_path)]) == 2
    assert f"error: {gene_list}: line 3: duplicate gene 'g3'" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("flags,fields", [
    ([], {}),
    (["--genes", "12", "--shift", "0.5", "--data-seed", "4"],
     {"n_genes": 12, "shift": 0.5, "seed": 4}),
], ids=["no_data_flags", "three_data_flags"])
def test_synth_bench_data_flags_override_only_synth_config_defaults(tmp_path, flags,
                                                                    fields):
    out = tmp_path / "bench"
    assert main(["synth-bench", "--variants", "baseline", "--epochs", "1",
                 "--out", str(out), *flags]) == 0
    echo = json.loads((out / "effective_config.json").read_text())
    assert echo["synth"] == dataclasses.asdict(sy.SynthConfig(**fields))


@pytest.mark.parametrize("flag,value", [("--shift", "nan"), ("--shift", "inf"),
                                        ("--noise", "inf"), ("--noise", "nan")])
def test_synth_bench_with_a_non_finite_shift_or_noise_exits_2(tmp_path, capsys,
                                                              flag, value):
    out = tmp_path / "bench"
    assert main(["synth-bench", "--variants", "baseline", "--epochs", "1",
                 "--out", str(out), flag, value]) == 2
    assert f"error: {flag[2:]}: must be a finite number" in capsys.readouterr().err
    assert not out.exists()


def test_synth_bench_happy_path(tmp_path):
    out = tmp_path / "bench"
    rc = main([
        "synth-bench", "--seeds", "7", "--variants", "full,baseline",
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


def test_evaluate_with_one_class_labels_exits_2_naming_the_file(tmp_path, capsys):
    scores_path, labels_path = tmp_path / "s.csv", tmp_path / "labels.csv"
    ev.write_scores_csv(scores_path, ["a", "b", "c"], [0.9, 0.5, 0.2])
    labels_path.write_text("sample_id,label\na,0\nb,0\nc,0\n")
    out = tmp_path / "m.json"
    assert main(["evaluate", "--scores", str(scores_path), "--labels",
                 str(labels_path), "--out", str(out)]) == 2
    assert str(labels_path) in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("rows,message", [
    ("a,0.9,1\nb,0.1\n", "line 3: expected 3 cells"),
    ("a,0.9,1\nb,nan,0\n", "line 3: non-finite score"),
    ("a,0.9,1\nb,0.1,0\na,0.5,0\n", "line 4: missing or duplicate sample id"),
], ids=["short_row", "nan_score", "duplicate_id"])
def test_evaluate_on_a_bad_scores_csv_exits_2(tmp_path, capsys, rows, message):
    scores_path = tmp_path / "s.csv"
    scores_path.write_text("sample_id,score,label\n" + rows)
    out = tmp_path / "m.json"
    assert main(["evaluate", "--scores", str(scores_path), "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


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


def test_prep_pathways_report_dropped_sets_and_name_the_file(tmp_path, capsys):
    _, config, _ = write_synth_files(tmp_path)
    sets_path = tmp_path / "sets.tsv"
    sets_path.write_text("p1\tg0,g1\nghost\tzzz\nvoid\tyyy\n")
    assert main([*_prep_args(config, tmp_path / "kept"),
                 "--pathways", str(sets_path)]) == 0
    assert capsys.readouterr().err == (f"{sets_path}: dropped 2 gene sets that share "
                                       f"no gene with the matrices: ghost, void\n")
    sets_path.write_text("ghost\tzzz\n")
    assert main([*_prep_args(config, tmp_path / "none"),
                 "--pathways", str(sets_path)]) == 2
    assert capsys.readouterr().err == \
        f"error: {sets_path}: no gene set overlaps the expression matrix\n"
    assert not (tmp_path / "none").exists()


def test_prep_hvg_zero_is_data_error(tmp_path, capsys, monkeypatch):
    _, config, _ = write_synth_files(tmp_path)
    read = []
    monkeypatch.setattr(dat, "load_expression", lambda *args: read.append(args))
    out = tmp_path / "prep"
    assert main(_prep_args(config, out) + ["--hvg", "0"]) == 2
    assert "--hvg must be >= 1, got 0" in capsys.readouterr().err
    assert read == []  # refused before any input file is read
    assert not out.exists()


@pytest.mark.parametrize("value", ["nan", "-0.1", "1.5", "inf"])
def test_prep_max_zero_frac_outside_the_unit_interval_exits_2(tmp_path, capsys, value):
    _, config, _ = write_synth_files(tmp_path)
    out = tmp_path / "prep"
    assert main(_prep_args(config, out) + ["--max-zero-frac", value]) == 2
    assert "error: --max-zero-frac must be in [0, 1]" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("value", ["0", "1"])
def test_prep_max_zero_frac_takes_both_bounds(tmp_path, value):
    # the synthetic target holds no zero, so either bound keeps every gene
    _, config, _ = write_synth_files(tmp_path)
    out = tmp_path / "prep"
    assert main(_prep_args(config, out) + ["--max-zero-frac", value]) == 0
    assert json.loads((out / "prep_summary.json").read_text())["n_genes"] == 8


@pytest.mark.parametrize("flag,value,message", [
    ("--lfc-min", "nan", "--lfc-min must be finite and >= 0"),
    ("--lfc-min", "inf", "--lfc-min must be finite and >= 0"),
    ("--lfc-min", "-0.5", "--lfc-min must be finite and >= 0"),
    ("--p-max", "nan", "--p-max must be in (0, 1]"),
    ("--p-max", "inf", "--p-max must be in (0, 1]"),
    ("--p-max", "0", "--p-max must be in (0, 1]"),
    ("--p-max", "1.5", "--p-max must be in (0, 1]"),
])
def test_prep_deg_threshold_out_of_range_exits_2_before_reading(
        tmp_path, capsys, flag, value, message):
    # no input file exists: the threshold is refused before any is read
    missing = str(tmp_path / "missing.csv")
    out = tmp_path / "prep"
    assert main(["prep", "--sources", missing, "--target", missing, "--out", str(out),
                 "--deg-a", missing, "--deg-b", missing, flag, value]) == 2
    assert f"error: {message}, got {float(value)!r}" in capsys.readouterr().err
    assert not out.exists()


def test_prep_deg_thresholds_take_their_bounds(tmp_path):
    # --lfc-min 0 and --p-max 1 keep every gene whose groups differ at all
    _, config, _ = write_synth_files(tmp_path)
    out = tmp_path / "prep"
    assert main(_prep_args(config, out) + [
        "--deg-a", config["sources"][0]["expression"],
        "--deg-b", config["sources"][1]["expression"],
        "--lfc-min", "0", "--p-max", "1"]) == 0
    assert json.loads((out / "prep_summary.json").read_text())["n_genes"] == 8


def test_prep_with_a_repeated_gene_in_gene_list_exits_2_and_writes_nothing(
        tmp_path, capsys):
    _, config, _ = write_synth_files(tmp_path)
    gene_list = tmp_path / "genes.txt"
    gene_list.write_text("g3\ng5\ng3\n")
    out = tmp_path / "prep"
    assert main(_prep_args(config, out) + ["--gene-list", str(gene_list)]) == 2
    assert f"error: {gene_list}: line 3: duplicate gene 'g3'" in capsys.readouterr().err
    assert not out.exists()


def test_prep_with_a_quoted_cell_over_the_csv_field_limit_exits_2_naming_the_file(
        tmp_path, capsys):
    _, config, _ = write_synth_files(tmp_path)
    target = Path(config["target_expression"])
    line = target.read_bytes().count(b"\n") + 1
    limit = csv.field_size_limit()
    with open(target, "a") as fh:
        fh.write('"' + "x" * limit + 'x",1\n')
    out = tmp_path / "prep"
    assert main(_prep_args(config, out)) == 2
    assert capsys.readouterr().err == \
        f"error: {target}: line {line}: field larger than field limit ({limit})\n"
    assert not out.exists()


def test_prep_gene_list_writes_the_first_source_order(tmp_path):
    _, config, _ = write_synth_files(tmp_path)
    gene_list = tmp_path / "genes.txt"
    gene_list.write_text("g5\ng1\nabsent\ng7\ng3\n")
    out = tmp_path / "prep"
    assert main(_prep_args(config, out) + ["--gene-list", str(gene_list)]) == 0
    kept = ["g1", "g3", "g5", "g7"]
    inputs = {"source_0.csv": config["sources"][0]["expression"],
              "source_1.csv": config["sources"][1]["expression"],
              "target.csv": config["target_expression"]}
    for name, path in inputs.items():
        written = dat.load_expression(out / name)
        assert written.gene_names == kept
        assert written.values.tobytes() == \
            dat.load_expression(path).subset_genes(kept).values.tobytes()


@pytest.mark.parametrize("fmt,delim", [("csv", ","), ("tsv", "\t")])
def test_prep_output_reloads_names_holding_delimiters_quotes_and_newlines(
        tmp_path, fmt, delim):
    ids = ["a,1", 'b"2', "c\td", "e\nf", "x\ry", "plain"]
    genes = ["g,0", 'h"1', "x\ty", "p\nq", "g\r2", "g4"]
    values = np.random.default_rng(5).normal(size=(6, 6)) * 10.0 ** np.arange(-3, 3)
    values[0, :3] = [-0.0, 1e-300, -1.7976931348623157e308]
    paths = [tmp_path / f"{name}.{fmt}" for name in ("source", "target")]
    for path in paths:
        with open(path, "w", newline="") as fh:
            out = csv.writer(fh, delimiter=delim, lineterminator="\r\n")
            out.writerow(["sample", *genes])
            out.writerows([sid, *map(repr, row.tolist())] for sid, row in zip(ids, values))
    prep = tmp_path / "prep"
    assert main(["prep", "--sources", str(paths[0]), "--target", str(paths[1]),
                 "--out", str(prep), "--format", fmt]) == 0
    for name in (f"source_0.{fmt}", f"target.{fmt}"):
        back = dat.load_expression(prep / name, fmt)
        assert back.sample_ids == ids and back.gene_names == genes
        assert back.values.tobytes() == values.tobytes()


def test_prep_reads_and_writes_utf8_under_an_ascii_locale(tmp_path):
    ids, genes = ["\u00e9chantillon", "s2", "s3"], ["g\u00e8ne", "g2", "\u03b1"]
    text = "sample," + ",".join(genes) + "\n" + "".join(
        f"{sid},{i}.5,{i + 1},{i * 2}\n" for i, sid in enumerate(ids))
    paths = [tmp_path / f"{name}.csv" for name in ("source", "target")]
    for path in paths:
        path.write_bytes(text.encode("utf-8-sig"))
    prep = tmp_path / "prep"
    env = {**os.environ, "LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0",
           "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    run = subprocess.run(
        [sys.executable, "-m", "adadrug.cli", "prep", "--sources", str(paths[0]),
         "--target", str(paths[1]), "--out", str(prep)],
        env=env, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    back = dat.load_expression(prep / "target.csv")
    assert back.sample_ids == ids and back.gene_names == genes
    assert (prep / "target.csv").read_bytes().startswith("sample,g\u00e8ne".encode())


def test_only_deg_selection_imports_scipy():
    # scipy.special loads dozens of modules; only prep --deg-a/--deg-b needs it
    code = ("import sys\n"
            "import adadrug.cli, adadrug.evaluate, adadrug.synth, adadrug.train\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "[]"


@pytest.mark.parametrize("given,missing", [("--deg-a", "--deg-b"),
                                           ("--deg-b", "--deg-a")])
def test_prep_lone_deg_flag_names_the_missing_one(tmp_path, capsys, given, missing):
    _, config, _ = write_synth_files(tmp_path)
    out = tmp_path / "prep"
    group = config["sources"][0]["expression"]
    assert main(_prep_args(config, out) + [given, group]) == 2
    assert f"{missing} is missing" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("first,second", [("--gene-list", "--hvg"),
                                           ("--hvg", "--deg-a"),
                                           ("--deg-a", "--gene-list")])
def test_prep_gene_selections_cannot_be_combined(tmp_path, capsys, first, second):
    _, config, _ = write_synth_files(tmp_path)
    gene_list = tmp_path / "genes.txt"
    gene_list.write_text("g1\ng2\n")
    value = {"--gene-list": str(gene_list), "--hvg": "5",
             "--deg-a": config["sources"][0]["expression"]}
    out = tmp_path / "prep"
    assert main(_prep_args(config, out) + [first, value[first],
                                           second, value[second]]) == 1
    err = capsys.readouterr().err
    assert "usage" in err and "not allowed with argument" in err
    assert not out.exists()


def test_predict_on_checkpoint_with_swapped_arrays_exits_2(tmp_path, capsys):
    cfg_path, _, _ = write_synth_files(tmp_path)
    run = tmp_path / "run"
    assert main(["train", "--config", str(cfg_path), "--output-dir", str(run),
                 "--epochs", "1"]) == 0
    ckpt = run / "checkpoint.bin"
    model, _, _ = tr.load_checkpoint(ckpt)
    # the generator's two d x d weights: the body keeps its size
    swap_body_blocks(ckpt, model, "generator.0.W", "generator.1.W")
    capsys.readouterr()
    assert main(["predict", "--config", str(cfg_path), "--checkpoint", str(ckpt),
                 "--out", str(tmp_path / "scores.csv")]) == 2
    assert "sha256 mismatch" in capsys.readouterr().err
    assert not (tmp_path / "scores.csv").exists()


@pytest.mark.parametrize("awg", [True, False])
def test_predict_negative_seed_flag_exits_2_and_writes_nothing(tmp_path, capsys, awg):
    cfg_path, config, _ = write_synth_files(tmp_path)
    cfg_path.write_text(json.dumps(dict(config, awg=awg)))
    run = tmp_path / "run"
    assert main(["train", "--config", str(cfg_path), "--epochs", "1"]) == 0
    capsys.readouterr()
    assert main(["predict", "--config", str(cfg_path), "--checkpoint",
                 str(run / "checkpoint.bin"), "--out", str(tmp_path / "scores.csv"),
                 "--seed", "-1"]) == 2
    assert "error: seed: must be >= 0" in capsys.readouterr().err
    assert not (tmp_path / "scores.csv").exists()


def _as_format_1(ckpt):
    model, cfg, step = tr.load_checkpoint(ckpt)
    write_v1_checkpoint(ckpt, model, cfg, step)


def _with_leftover_specs(ckpt):
    head, body = ckpt.read_bytes().split(b"\n", 1)
    header = json.loads(head)
    header["specs"] = {}
    ckpt.write_bytes(json.dumps(header, sort_keys=True).encode() + b"\n" + body)


@pytest.mark.parametrize("edit,message", [
    (_as_format_1, "format version 1"),
    (_with_leftover_specs, "unknown keys ['specs']"),
], ids=["format_1", "leftover_specs"])
def test_predict_on_a_format_1_checkpoint_exits_2(tmp_path, capsys, edit, message):
    cfg_path, _, _ = write_synth_files(tmp_path)
    run = tmp_path / "run"
    assert main(["train", "--config", str(cfg_path), "--output-dir", str(run),
                 "--epochs", "1"]) == 0
    edit(run / "checkpoint.bin")
    capsys.readouterr()
    assert main(["predict", "--config", str(cfg_path), "--checkpoint",
                 str(run / "checkpoint.bin"), "--out", str(tmp_path / "scores.csv")]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "scores.csv").exists()


def _edit_config(cfg):
    cfg.update(latent_dim=64, gen_out_activation="sigmoid", encoder_hidden=999)


@pytest.mark.parametrize("edit,message", [
    (lambda c: c.update(ref_batch=0), "ref_batch: must be >= 1"),
    (lambda c: c.update(mda="no"), "mda: must be a boolean"),
    (_edit_config, "the header implies"),
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
