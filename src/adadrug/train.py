"""Joint optimization of the four-term objective, with ablation switches,
adversarial scheduling via gradient reversal, and bit-exact checkpoints.
"""

import ctypes
import dataclasses
import functools
import math
import os
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from . import data as dat
from . import kernels
from . import losses as ls
from . import model as mdl

CHECKPOINT_VERSION = 2
HEADER_KEYS = ("format_version", "genes", "seed", "step", "config", "sha256")
SAMPLERS = ("weight", "smote", "none")
GRL_SCHEDULES = ("warmup", "constant")
GEN_OUT_ACTIVATIONS = ("relu", "sigmoid")


class CheckpointError(ValueError):
    """Unreadable, truncated, or version-incompatible checkpoint file."""


class DivergenceError(ArithmeticError):
    """Training produced a non-finite loss or parameter.

    Not a ValueError: the inputs were valid, the run failed, and the CLI
    exits 3 without writing a checkpoint, history or metrics.
    """


_JSON_TYPES = {bool: "a boolean", int: "an integer", float: "a number",
               str: "a string"}


def _typed(name, kind, value):
    """``value`` as the JSON type behind annotation ``kind``; a float field
    takes an int too and stores it as a float. Raises ValueError otherwise."""
    accepted = (int, float) if kind is float else kind
    if isinstance(value, bool) != (kind is bool) or not isinstance(value, accepted):
        raise ValueError(f"{name}: must be {_JSON_TYPES[kind]}, "
                         f"got {type(value).__name__}")
    if kind is float:
        if not abs(value) <= sys.float_info.max:  # NaN, inf or an int past floats
            raise ValueError(f"{name}: must be a finite number")
        value = float(value)
    return value


def check_fields(obj, rules):
    """Coerce each field of dataclass ``obj`` with ``_typed`` (set through
    ``object.__setattr__``, so a frozen one works too), then apply each
    ``(fields, test, requirement)`` rule; a violation names its field."""
    for f in dataclasses.fields(obj):
        object.__setattr__(obj, f.name, _typed(f.name, f.type, getattr(obj, f.name)))
    for names, ok, requirement in rules:
        for name in names:
            if not ok(getattr(obj, name)):
                raise ValueError(f"{name}: must be {requirement}")


# (fields, test, requirement): every range and choice a TrainConfig obeys
_FIELD_RULES = (
    (("latent_dim", "encoder_hidden", "disc_hidden", "pred_hidden", "batch_size",
      "epochs", "ref_batch"), lambda v: v >= 1, ">= 1"),
    (("learning_rate", "grl_lambda", "seed"), lambda v: v >= 0, ">= 0"),
    # beta == 1 zeroes Adam's bias correction and eps <= 0 lets a zero second
    # moment divide by zero: both turn every parameter into NaN
    (("beta1", "beta2"), lambda v: 0.0 <= v < 1.0, "in [0, 1)"),
    (("eps",), lambda v: v > 0, "> 0"),
    (("gen_out_activation",), lambda v: v in GEN_OUT_ACTIVATIONS,
     f"one of {GEN_OUT_ACTIVATIONS}"),
    (("grl_schedule",), lambda v: v in GRL_SCHEDULES, f"one of {GRL_SCHEDULES}"),
    (("sampler",), lambda v: v in SAMPLERS, f"one of {SAMPLERS}"),
)


@dataclass
class TrainConfig:
    """Everything that determines a training run besides the data itself."""

    latent_dim: int = 128
    encoder_hidden: int = 256
    disc_hidden: int = 64
    pred_hidden: int = 64
    gen_out_activation: str = "relu"  # relu | sigmoid, weight-vector range
    learning_rate: float = 1e-4
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    batch_size: int = 64
    epochs: int = 200
    grl_lambda: float = 1.0
    grl_schedule: str = "warmup"  # linear 0 -> grl_lambda over the first 10% of steps
    sampler: str = "weight"
    mda: bool = True   # adversarial alignment + target participation
    ind: bool = True   # independence constraint on generated weights
    awg: bool = True   # adaptive weight generator
    seed: int = 0
    ref_batch: int = 128  # inference-time references per source domain

    def __post_init__(self):
        # config files, CLI flags, checkpoints and library callers all come here
        check_fields(self, _FIELD_RULES)

    @property
    def awg_active(self):
        # the generator input |h_T - h_S| needs target embeddings, which a
        # source-only (mda off) run never computes
        return self.awg and self.mda

    @property
    def ind_active(self):
        return self.ind and self.awg_active

    def to_dict(self):
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, d):
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(d) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        return cls(**d)


@dataclass
class TrainHistory:
    """Per-step loss parts and per-epoch wall times of one run."""

    parts: list = field(default_factory=list)  # LossParts per step
    epoch_seconds: list = field(default_factory=list)

    @property
    def final_step(self):
        """Steps taken: one part is recorded per step."""
        return len(self.parts)

    def write_csv(self, path):
        dat.write_table(path, ["step", "reco", "ind", "adv", "cls", "total"],
                        range(self.final_step),
                        ([p.reco, p.ind, p.adv, p.cls, p.total] for p in self.parts))


class Adam:
    """Standard Adam over one C-contiguous parameter array, updated in place.

    Training passes ``ModelBundle.flat``. The update is elementwise, so one
    optimizer over the flat vector gives the bits of one per parameter array.
    Besides the moments ``m`` and ``v`` it owns two scratch vectors of one
    ``kernels.adam_step`` block, not of the parameter's size.
    """

    def __init__(self, param, lr, b1=0.9, b2=0.999, eps=1e-8):
        self.param = param
        self.lr, self.b1, self.b2, self.eps = lr, b1, b2, eps
        self.m, self.v = np.zeros_like(param), np.zeros_like(param)
        block = min(param.size, kernels.ADAM_BLOCK)
        self.s1, self.s2 = np.empty(block, param.dtype), np.empty(block, param.dtype)
        self.t = 0

    def step(self, grad):
        self.t += 1
        kernels.adam_step(self.param, grad, self.m, self.v, self.lr, self.b1, self.b2,
                          self.eps, self.t, self.s1, self.s2)


# Each step frees its whole graph as it returns. By default glibc then hands
# that heap top back to the kernel, and the next step takes the same pages
# again, one page fault each: about 1,100 a paper-width step at 60 genes, a
# fifth of its time. M_TOP_PAD keeps _HEAP_TOP_PAD freed bytes at the heap
# top for reuse; it lowers no peak and keeps only pages the peak touched.
# Any mallopt call freezes glibc's mmap threshold, which otherwise rises as a
# run goes on, so it is set to the ceiling it would rise to (32 MB on 64-bit):
# an array above the threshold is mapped, and zeroed, afresh each time.
_M_TOP_PAD, _M_MMAP_THRESHOLD = -2, -3  # glibc's mallopt parameters, malloc.h
_HEAP_TOP_PAD = 64 << 20  # above a paper-width step at 500 genes (10.4 MB traced)
_MMAP_THRESHOLD = 32 << 20


@functools.cache
def _glibc_mallopt():
    """glibc's ``mallopt`` in this process, or None under another C library.
    Looked up once: a dropped ``ctypes.CDLL`` is cyclic garbage."""
    try:
        libc = os.confstr("CS_GNU_LIBC_VERSION") or ""
    except (AttributeError, ValueError, OSError):  # no confstr, or no such name
        return None
    if not libc.startswith("glibc"):
        return None
    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    return mallopt


def grl_coefficient(cfg, step, total_steps):
    if cfg.grl_schedule == "constant":
        return cfg.grl_lambda
    warmup = max(1, int(0.1 * total_steps))
    return cfg.grl_lambda * min(1.0, step / warmup)


def _resample_sources(sources, cfg, seeds):
    if cfg.sampler == "none":
        return list(sources)
    out = []
    for dom, seed in zip(sources, seeds):
        if cfg.sampler == "weight":
            counts = np.bincount(dom.labels, minlength=2)
            out.append(dat.weight_upsample(dom, int(2 * counts.max()), seed=seed))
        else:
            out.append(dat.smote_upsample(dom, seed=seed))
    return out


def build_specs(n_genes, cfg):
    """The five component shapes for ``n_genes`` inputs and ``cfg``'s widths.

    Hidden layers are relu. The generator ends in ``cfg.gen_out_activation``
    (relu keeps the per-dimension importances non-negative, sigmoid bounds
    them); the discriminator and predictor end in a sigmoid probability.
    """
    d, hidden = cfg.latent_dim, cfg.encoder_hidden
    return {
        "encoder": mdl.MlpSpec((n_genes, hidden, d)),
        "decoder": mdl.MlpSpec((d, hidden, n_genes)),
        "generator": mdl.MlpSpec((d, d, d), out_activation=cfg.gen_out_activation),
        "discriminator": mdl.MlpSpec((d, cfg.disc_hidden, 1), out_activation="sigmoid"),
        "predictor": mdl.MlpSpec((d, cfg.pred_hidden, 1), out_activation="sigmoid"),
    }


def train_step(bundle, batch, cfg, lam):
    """Forward + backward for one tuple batch; returns (grad, LossParts).

    The step runs over one list of domains: the K source batches, then the
    target batch as the last domain when ``cfg.mda`` is on. The encoder,
    decoder and discriminator are shared over the whole list; the predictor
    sees the K sources only. ``grad`` is one vector laid out like
    ``bundle.flat``. ``lam`` is the gradient-reversal coefficient for this
    step.
    """
    tape = ad.Tape()
    pn, grad = mdl.lift_params(tape, bundle)

    def net(name, x):
        return mdl.mlp_forward_nodes(bundle.specs[name], pn[name], x)

    k = len(batch.x_sources)
    xs = [*batch.x_sources, batch.x_target] if cfg.mda else batch.x_sources
    h = [net("encoder", tape.const(x)) for x in xs]

    w = None
    if cfg.awg_active:
        w = [mdl.gen_weights_nodes(bundle, pn, h[k], hs) for hs in h[:k]]
        z = [ad.ewmul(hs, ws) for hs, ws in zip(h, w)]
        z.append(ad.ewmul(h[k], mdl.mean_weight_nodes(w)))
    else:
        z = h

    reco = ls.reco_loss([net("decoder", zi) for zi in z], xs)
    ind = ls.ind_loss(w) if cfg.ind_active else None
    adv = None
    if cfg.mda:
        d = [net("discriminator", ad.grad_reverse(zi, lam)) for zi in z]
        adv = ls.adv_loss(d[:k], d[k])
    cls = ls.cls_loss([net("predictor", zi) for zi in z[:k]], batch.y_sources)

    total = ls.total_loss(reco=reco, ind=ind, adv=adv, cls=cls)
    ad.backward(tape, total)
    parts = ls.make_parts(reco, ind, adv, cls, total)
    # each node refers to the tape: emptying it breaks that cycle, so the
    # step's graph is freed when the step returns, not by the cyclic collector
    tape.nodes.clear()
    return grad, parts


@kernels.one_blas_thread()
def train(bundle, cfg):
    """Train a fresh model on a DomainBundle; returns (ModelBundle, history).

    Upsampling (when enabled) is applied per source domain before batching
    and never to the target. Runs on one BLAS thread and restores the
    caller's count on return, also when it raises, so the result is bitwise
    deterministic given ``cfg.seed``, the BLAS build and the CPU kernel,
    whatever ``OPENBLAS_NUM_THREADS`` says. Raises ``DivergenceError``
    naming the step and its loss parts when a step's total loss is not
    finite, or when a parameter is not finite at the end.
    Under glibc it first has the heap keep freed pages (``_HEAP_TOP_PAD``).
    """
    mallopt = _glibc_mallopt()
    if mallopt is not None:
        mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD)
        mallopt(_M_TOP_PAD, _HEAP_TOP_PAD)
    n_genes = len(bundle.gene_names)
    ss = np.random.SeedSequence(cfg.seed)
    state = ss.generate_state(2 + bundle.n_sources)
    init_seed, batch_seed = int(state[0]), int(state[1])
    sampler_seeds = [int(s) for s in state[2:]]

    sources = _resample_sources(bundle.sources, cfg, sampler_seeds)
    work = dat.DomainBundle(sources, bundle.target)

    model = mdl.init_params(build_specs(n_genes, cfg), init_seed)
    opt = Adam(model.flat, cfg.learning_rate, cfg.beta1, cfg.beta2, cfg.eps)

    total_steps = dat.epoch_length(work, cfg.batch_size) * cfg.epochs

    history = TrainHistory()
    for epoch in range(cfg.epochs):
        t0 = time.perf_counter()
        for batch in dat.assemble_batches(work, cfg.batch_size, batch_seed, epoch):
            step = history.final_step
            lam = grl_coefficient(cfg, step, total_steps)
            grad, parts = train_step(model, batch, cfg, lam)
            if not math.isfinite(parts.total):
                raise DivergenceError(f"training diverged at step {step}: "
                                      f"loss parts {parts}")
            opt.step(grad)
            # the next train_step allocates a fresh vector: drop this one first
            del grad
            history.parts.append(parts)
        history.epoch_seconds.append(time.perf_counter() - t0)
    for name, a in model.named_arrays():
        if not np.isfinite(a).all():
            raise DivergenceError(
                f"training diverged: parameter {name} is not finite after the "
                f"last step ({step}), whose loss parts were {history.parts[-1]}"
            )
    return model, history


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

def save_checkpoint(bundle, cfg, step, path):
    """``data.write_framed`` of ``bundle.flat`` under the checkpoint header.

    The header states the model shape once, as ``genes`` and ``config``; a
    bundle whose specs ``cfg`` does not imply is refused, so no file is
    written that load_checkpoint would reject.
    """
    if bundle.specs != build_specs(bundle.n_genes, cfg):
        raise ValueError("bundle specs are not the ones its training config implies")
    header = {
        "format_version": CHECKPOINT_VERSION,
        "genes": bundle.n_genes,
        "seed": bundle.seed,
        "step": int(step),
        "config": cfg.to_dict(),
    }
    dat.write_framed(path, header, bundle.flat)


def load_checkpoint(path):
    """Inverse of save_checkpoint; returns (ModelBundle, TrainConfig, step).

    Every header field is checked first, so a malformed, missing or unknown
    one is refused naming it. The model shape is rebuilt from ``genes`` and
    ``config``, then ``data.read_framed`` checks that the body holds exactly
    its parameters and that the ``sha256`` matches, so an edited or
    corrupted value anywhere in the file is refused too. Every refusal is a
    ``CheckpointError`` whose message starts with ``path``.
    """
    fields = None

    def count(header):
        nonlocal fields
        version = header.get("format_version")
        if version != CHECKPOINT_VERSION:
            raise ValueError(f"unsupported checkpoint format version {version!r} "
                             f"(expected {CHECKPOINT_VERSION})")
        missing = [k for k in HEADER_KEYS if k not in header]
        if missing:
            raise ValueError(f"header is missing {missing}")
        unknown = sorted(set(header) - set(HEADER_KEYS))
        if unknown:
            raise ValueError(f"header has unknown keys {unknown}")
        try:
            cfg = TrainConfig.from_dict(header["config"])
        except (TypeError, ValueError) as e:
            raise ValueError(f"header 'config' is malformed: {e}") from None
        n_genes, seed, step = header["genes"], header["seed"], header["step"]
        for key, value, least in (("genes", n_genes, 1), ("seed", seed, 0),
                                  ("step", step, 0)):
            if isinstance(value, bool) or not isinstance(value, int) or value < least:
                raise ValueError(f"header '{key}' must be an integer >= {least}, "
                                 f"not {value!r}")
        fields = cfg, build_specs(n_genes, cfg), seed, step
        return mdl.param_count(fields[1])

    try:
        _, flat = dat.read_framed(path, count)
    except OSError as e:
        raise CheckpointError(f"{path}: cannot open: {e.strerror}") from None
    except ValueError as e:
        raise CheckpointError(f"{path}: {e}") from None
    cfg, specs, seed, step = fields
    return mdl.ModelBundle(specs=specs, flat=flat, seed=seed), cfg, step
