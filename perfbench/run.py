"""adadrug benchmark: end-to-end timings untraced, per-layer timings traced.

    python3 perfbench/run.py --workload synth_grid --seed 1 --seconds 35 --trace 0

Run from the repository root. With ``--trace 0`` the program runs unmodified
and the last stdout line carries the ``end_to_end`` metrics of
``BENCHMARK.json``; with ``--trace 1`` passes alternate between traced and
untraced and the line carries the ``per_layer`` metrics. The line before it
is ``{"info": ...}``: environment, output digests and the traced run's
extras. ``perfbench/README.md`` maps each workload to the layers and
metrics it exercises.
"""

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_ROUNDS = 4
SETUP_MIN_SECONDS = 0.25  # a cheap set-up repeats until this much is measured
SETUP_MAX_REPEATS = 25

# counts that must repeat exactly between two runs of one seed
EXACT_COUNTS = (
    "autodiff.nodes_per_step",
    "autodiff.grad_bytes_per_step",
    "evaluate.generator_rows",
    "train.checkpoint_bytes",
)

LAYERS = ("autodiff", "kernels", "model", "losses", "data", "train", "evaluate",
          "synth", "cli")
TAPE_OPS = ("matmul", "add", "sub", "ewmul", "add_bias", "scale", "relu", "sigmoid",
            "absval", "log", "clamp", "row_sum", "sum_all", "mean_all", "grad_reverse")
KERNELS = ("sigmoid", "sigmoid_bwd", "relu", "relu_bwd", "abs_bwd", "adam_step",
           "pairwise_sq_dists")
SPANS = (
    [f"autodiff.{op}" for op in TAPE_OPS]
    + ["autodiff.Tape.leaf", "autodiff.backward"]
    + [f"kernels.{fn}" for fn in KERNELS]
    + [f"model.{fn}" for fn in ("init_params", "lift_params", "mlp_forward_nodes",
                                "gen_weights_nodes", "mean_weight_nodes", "mlp_forward",
                                "encode", "predict", "apply_weights")]
    + [f"losses.{fn}" for fn in ("reco_loss", "ind_loss", "adv_loss", "cls_loss",
                                 "total_loss", "make_parts")]
    + [f"data.{fn}" for fn in ("load_expression", "load_labels", "labels_for",
                               "align_genes", "select_hvg", "weight_upsample",
                               "smote_upsample", "assemble_batches",
                               "ExpressionMatrix.subset_genes")]
    + [f"train.{fn}" for fn in ("train", "train_step", "Adam.step", "save_checkpoint",
                                "load_checkpoint", "TrainHistory.write_csv")]
    + [f"evaluate.{fn}" for fn in ("predict_target", "mean_reference_weights",
                                   "metrics_report", "write_scores_csv")]
    + [f"synth.{fn}" for fn in ("generate", "variant_setup", "run_variant",
                                "run_benchmark")]
    + [f"cli.{fn}" for fn in ("main", "cmd_prep", "cmd_train", "cmd_predict",
                              "load_bundle", "write_expression")]
)
SAMPLED = ("train.train_step", "synth.run_variant", "evaluate.predict_target")


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _count_tape(tracer, args, kwargs, result):
    nodes = _arg(args, kwargs, 0, "tape").nodes
    tracer.count("tape_nodes", len(nodes))
    tracer.count("grad_bytes", sum(g.nbytes for g in (getattr(n, "grad", None)
                                                      for n in nodes) if g is not None))


def _count_mlp_rows(tracer, args, kwargs, result):
    rows = len(_arg(args, kwargs, 2, "x"))
    tracer.count("mlp_forward_rows", rows)
    # the generator runs straight from mean_reference_weights; encoder and
    # predictor calls arrive through model.encode / model.predict
    if tracer.parent() == "evaluate.mean_reference_weights":
        tracer.count("generator_rows", rows)


def _count_file(counter, index, name):
    def hook(tracer, args, kwargs, result):
        tracer.count(counter, os.path.getsize(_arg(args, kwargs, index, name)))
    return hook


def _count_scored(tracer, args, kwargs, result):
    tracer.count("predict_rows", len(result))


HOOKS = {
    "autodiff.backward": _count_tape,
    "evaluate.predict_target": _count_scored,
    "model.mlp_forward": _count_mlp_rows,
    "data.load_expression": _count_file("expression_bytes", 0, "path"),
    "train.save_checkpoint": _count_file("checkpoint_bytes", 3, "path"),
}


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------

def _blas_threads():
    """Threads the loaded OpenBLAS will use, read from the library itself."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({ln.split()[-1] for ln in fh
                           if "openblas" in ln.lower() and ".so" in ln})
    except OSError:
        return None
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_sha():
    """HEAD of a git checkout, read from files; None outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment():
    import numpy as np

    try:
        from adadrug import kernels
    except ImportError:  # the numpy-only program has no kernels module
        kernels = None
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _blas_threads(),
        "blas_thread_env": {k: os.environ.get(k) for k in
                            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "kernels_backend": getattr(kernels, "BACKEND", "numpy"),
        "have_numba": getattr(kernels, "HAVE_NUMBA", False),
        "adadrug_threads": os.environ.get("ADADRUG_THREADS"),
        "git_sha": _git_sha(),
    }


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------

# numpy is imported inside functions: main() must set OPENBLAS_NUM_THREADS
# before the first import

def _pct(samples, q):
    import numpy as np

    return float(np.percentile(samples, q)) if samples else 0.0


class Runner:
    """Sets up and runs passes of one workload, counting attempts and failures.

    A failed pass is counted and reported, not fatal; a failed set-up is.
    """

    def __init__(self, workload, seed, work):
        self.wl, self.seed, self.work = workload, seed, work
        self.state = None
        self.setup_times = []
        self.setup_digests = None
        self.attempted = self.failed = 0
        self.errors = []
        self.reference = None  # digests of the first successful pass

    def setup(self):
        """Sets up once, or until SETUP_MIN_SECONDS are measured when set-up
        is cheap; every set-up must give the same files.
        """
        repeats, spent = 0, 0.0
        while repeats == 0 or (spent < SETUP_MIN_SECONDS and repeats < SETUP_MAX_REPEATS):
            repeats += 1
            t0 = time.perf_counter()
            state = self.wl.setup(self.seed, self.work)
            dt = time.perf_counter() - t0
            spent += dt
            self.setup_times.append(dt)
            if self.setup_digests is None:
                self.setup_digests = state.digests
            elif state.digests != self.setup_digests:
                raise RuntimeError("two set-ups from one seed produced different files")
            self.state = state

    def one_pass(self, tracer=None):
        """Runs and checks one pass; returns (seconds, Outcome) or None."""
        self.attempted += 1
        try:
            with tracer.installed() if tracer is not None else contextlib.nullcontext():
                t0 = time.perf_counter()
                raw = self.wl.run(self.state)
                seconds = time.perf_counter() - t0
            if tracer is not None and not tracer.originals_restored():
                raise RuntimeError("a traced attribute was not restored")
            outcome = self.wl.check(self.state, raw)
            fingerprint = dict(outcome.digests, auroc=repr(outcome.auroc))
            if self.reference is None:
                self.reference = fingerprint
            elif fingerprint != self.reference:
                raise RuntimeError(f"pass outputs differ from the first pass: "
                                   f"{fingerprint} != {self.reference}")
            return seconds, outcome
        except Exception:  # noqa: BLE001 - every failure counts against the run
            self.failed += 1
            self.errors.append(traceback.format_exc(limit=4))
            return None


def end_to_end(runner, seconds):
    """Untraced passes; set-up is repeated in SETUP_ROUNDS spread over the
    window, so set-up and passes sample the same machine conditions.

    Throughput is passes over the summed pass time. The machine this was
    tuned on changes speed by up to 1.8x for tens of seconds at a time; a
    rate over the whole window averages those phases, where a median pass
    time jumps between them (about a quarter less run-to-run spread).
    """
    passes = []
    runner.setup()
    runner.one_pass()  # warm-up: checked, not timed
    # peak memory of one set-up and one pass; later set-ups interleaved with
    # passes only add heap fragmentation that grows with the pass count
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    start = time.perf_counter()
    for r in range(SETUP_ROUNDS):
        if r:
            runner.setup()
        deadline = start + seconds * (r + 1) / SETUP_ROUNDS
        first = True
        while first or time.perf_counter() < deadline:
            first = False
            res = runner.one_pass()
            if res is not None:
                passes.append(res)
    if not passes:
        return None, {}
    times = [s for s, _ in passes]
    metrics = {
        "setup_s": statistics.median(runner.setup_times),
        "passes_per_min": 60.0 * len(times) / sum(times),
        "peak_rss_mb": peak_rss_mb,
    }
    extra = {"pass_seconds": times, "pass_s_p50": _pct(times, 50),
             "pass_s_p90": _pct(times, 90), "setup_seconds": runner.setup_times,
             "target_auroc": passes[0][1].auroc}
    return metrics, extra


def per_layer(runner, seconds):
    from spans import Tracer

    tracer = Tracer(SPANS, hooks=HOOKS, sampled=SAMPLED)
    runner.setup()
    runner.one_pass()  # warm-up, untraced: also the digests traced passes must match
    traced, plain = [], []
    deadline = time.perf_counter() + seconds
    first = True
    while first or time.perf_counter() < deadline:
        first = False
        res = runner.one_pass(tracer)
        if res is not None:
            traced.append(res)
        res = runner.one_pass()
        if res is not None:
            plain.append(res)
    if not traced or not plain:
        return None, {}
    return layer_metrics(tracer, traced, plain), {
        "traced_passes": len(traced), "untraced_passes": len(plain),
        "target_auroc": traced[0][1].auroc, "missing_spans": tracer.missing,
    }


def layer_metrics(tracer, traced, plain):
    st, ctr = tracer.stats, tracer.counters
    n = len(traced)
    steps = st["train.train_step"].calls
    wall = sum(s for s, _ in traced)

    def ms(name):
        return 1e3 * st[name].incl / n

    def per_step(x):
        return x / steps if steps else 0.0

    m = {
        "autodiff.nodes_per_step": per_step(ctr.get("tape_nodes", 0)),
        "autodiff.grad_bytes_per_step": per_step(ctr.get("grad_bytes", 0)),
        "autodiff.backward.ms_per_step": per_step(1e3 * st["autodiff.backward"].incl),
    }
    for op in TAPE_OPS + ("leaf",):
        span = st["autodiff.Tape.leaf" if op == "leaf" else f"autodiff.{op}"]
        m[f"autodiff.{op}.calls_per_step"] = per_step(span.calls)
        m[f"autodiff.{op}.ms_per_step"] = per_step(1e3 * span.incl)
    for fn in ("reco_loss", "ind_loss", "adv_loss", "cls_loss"):
        m[f"losses.{fn}.ms_per_step"] = per_step(1e3 * st[f"losses.{fn}"].incl)
    m["model.mlp_forward_nodes.ms_per_step"] = per_step(
        1e3 * st["model.mlp_forward_nodes"].incl)
    for fn in KERNELS:
        m[f"kernels.{fn}.calls"] = st[f"kernels.{fn}"].calls / n
        m[f"kernels.{fn}.ms"] = ms(f"kernels.{fn}")

    step_ms = [1e3 * s for s in st["train.train_step"].samples]
    epochs = st["data.assemble_batches"].calls
    m.update({
        "train.train_step.ms_p50": _pct(step_ms, 50),
        "train.train_step.ms_p99": _pct(step_ms, 99),
        "train.train_step.count": steps / n,
        "train.Adam.step.ms_per_step": per_step(1e3 * st["train.Adam.step"].incl),
        "train.loop_self_ms": 1e3 * st["train.train"].self_s / n,
        "data.assemble_batches.ms_per_epoch": (
            1e3 * st["data.assemble_batches"].incl / epochs if epochs else 0.0),
        "data.weight_upsample.ms": ms("data.weight_upsample"),
        "data.smote_upsample.ms": ms("data.smote_upsample"),
    })

    predict_ms = [1e3 * s for s in st["evaluate.predict_target"].samples]
    predict = st["evaluate.predict_target"]
    m.update({
        "evaluate.predict_target.ms": ms("evaluate.predict_target"),
        "evaluate.predict_target.ms_p50": _pct(predict_ms, 50),
        "evaluate.predict_target.ms_p90": _pct(predict_ms, 90),
        "evaluate.mean_reference_weights.ms": ms("evaluate.mean_reference_weights"),
        "evaluate.generator_rows": ctr.get("generator_rows", 0) / n,
        "evaluate.target_auroc": traced[0][1].auroc,
        "model.mlp_forward.calls": st["model.mlp_forward"].calls / n,
        "model.mlp_forward.rows": ctr.get("mlp_forward_rows", 0) / n,
        "model.mlp_forward.ms": ms("model.mlp_forward"),
    })
    m["evaluate.predict_rows_per_s"] = (ctr.get("predict_rows", 0) / predict.incl
                                        if predict.incl else 0.0)

    load = st["data.load_expression"]
    m.update({
        "data.load_expression.ms": ms("data.load_expression"),
        "data.load_expression.mb_per_s": (
            ctr.get("expression_bytes", 0) / 1e6 / load.incl if load.incl else 0.0),
        "data.select_hvg.ms": ms("data.select_hvg"),
        "data.align_genes.ms": ms("data.align_genes"),
        "train.save_checkpoint.ms": ms("train.save_checkpoint"),
        "train.load_checkpoint.ms": ms("train.load_checkpoint"),
        "train.checkpoint_bytes": ctr.get("checkpoint_bytes", 0) / n,
        "cli.cmd_prep.ms": ms("cli.cmd_prep"),
        "cli.cmd_train.ms": ms("cli.cmd_train"),
        "cli.cmd_predict.ms": ms("cli.cmd_predict"),
        "synth.run_variant.ms_p50": _pct(
            [1e3 * s for s in st["synth.run_variant"].samples], 50),
        "synth.run_benchmark.self_ms": 1e3 * st["synth.run_benchmark"].self_s / n,
    })

    layer_self = dict.fromkeys(LAYERS, 0.0)
    for name, span in st.items():
        layer_self[name.split(".")[0]] += span.self_s
    for layer, s in layer_self.items():
        m[f"layer.{layer}.self_ms"] = 1e3 * s / n
    m["layer.bench.self_ms"] = 1e3 * (wall - sum(layer_self.values())) / n
    untraced = statistics.median(s for s, _ in plain)
    traced_med = statistics.median(s for s, _ in traced)
    m.update({
        "trace.coverage": sum(layer_self.values()) / wall,
        "trace.pass_ms": 1e3 * traced_med,
        "trace.untraced_pass_ms": 1e3 * untraced,
        "trace.overhead_ms": 1e3 * (traced_med - untraced),
    })
    return m


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    # one BLAS thread: on a small shared machine a second BLAS thread waits on
    # whatever else runs there, which shows up as run-to-run spread
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    try:
        with open(ROOT / "BENCHMARK.json") as fh:
            spec = json.load(fh)
        import workloads
    except (OSError, ImportError, ValueError) as e:
        print(f"perfbench: cannot load the program or BENCHMARK.json: {e}",
              file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}, "
                     f"choose from {sorted(workloads.WORKLOADS)}")
    wl = workloads.WORKLOADS[args.workload]

    work = ROOT / "perfbench" / "_work" / f"{wl.name}-{os.getpid()}"
    work.mkdir(parents=True)
    runner = Runner(wl, args.seed, work)
    try:
        if args.trace:
            metrics, extra = per_layer(runner, args.seconds)
            wanted = spec["per_layer"]
        else:
            metrics, extra = end_to_end(runner, args.seconds)
            wanted = spec["end_to_end"]
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()  # only succeeds once no other run is using it
        except OSError:
            pass

    for err in runner.errors:
        print(err, file=sys.stderr)
    if metrics is None:
        print("perfbench: no pass succeeded", file=sys.stderr)
        return 1
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        print(f"perfbench: metrics not computed: {missing}", file=sys.stderr)
        return 1
    info = {"workload": wl.name, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "env": environment(),
            "setup_digests": runner.setup_digests, "pass_digests": runner.reference, **extra}
    print(json.dumps({"info": info}, sort_keys=True))
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {m["name"]: {"value": float(metrics[m["name"]]), "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
