"""Checks of the benchmark itself.

    python3 -m pytest -q perfbench/test_perfbench.py

Exact counts must repeat across runs of one seed, traced and untraced runs
must produce the same outputs, a seed never used while the benchmark was
written must run cleanly, tracing must leave the program untouched, and
without the program the benchmark must refuse to run.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
from spans import Tracer  # noqa: E402

WORKLOADS = ("synth_grid", "score_target", "files_wide")
UNSEEN_SEED = 7741
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(workload, seed, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed",
         str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=900,
    )


def result(proc):
    assert proc.returncode == 0, proc.stderr
    *_, info, res = proc.stdout.splitlines()
    info, res = json.loads(info)["info"], json.loads(res)
    assert res["correct"] and res["failed"] == 0, proc.stderr
    return info, res


@pytest.mark.parametrize("workload", WORKLOADS)
def test_exact_counts_and_digests_repeat(workload):
    (i1, r1), (i2, r2) = (result(bench(workload, 3, trace=1)) for _ in range(2))
    for name in run.EXACT_COUNTS:
        assert r1["metrics"][name]["value"] == r2["metrics"][name]["value"], name
    plain, _ = result(bench(workload, 3, trace=0))
    for info in (i2, plain):
        assert info["pass_digests"] == i1["pass_digests"]
        assert info["setup_digests"] == i1["setup_digests"]
    assert set(r1["metrics"]) == {m["name"] for m in SPEC["per_layer"]}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_unseen_seed_runs_cleanly(workload):
    _, res = result(bench(workload, UNSEEN_SEED, trace=0))
    assert res["attempted"] >= 2
    assert set(res["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in res["metrics"].values())


def test_tracer_restores_every_attribute():
    tracer = Tracer(run.SPANS, hooks=run.HOOKS)
    with tracer.installed():
        assert not tracer.originals_restored()
    assert tracer.originals_restored()
    assert tracer.missing == []


def test_refuses_to_run_without_the_program():
    bare = HERE / "_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("_work", "__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = bench("synth_grid", 1, trace=0, cwd=bare)
        assert proc.returncode != 0
        assert '"correct"' not in proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            bare.parent.rmdir()
        except OSError:
            pass
