"""Joint optimization of the four-term objective, with ablation switches,
adversarial scheduling via gradient reversal, and bit-exact checkpoints.
"""

import dataclasses
import json
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from . import data as dat
from . import kernels
from . import losses as ls
from . import model as mdl

CHECKPOINT_VERSION = 1
HEADER_KEYS = ("specs", "dims", "seed", "step", "config", "arrays")
SAMPLERS = ("weight", "smote", "none")
GRL_SCHEDULES = ("warmup", "constant")
GEN_OUT_ACTIVATIONS = ("relu", "sigmoid")


class CheckpointError(ValueError):
    """Unreadable, truncated, or version-incompatible checkpoint file."""


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
        # the one place where a training field's type, range and allowed values
        # are checked; config files, CLI flags, checkpoints and library callers
        # all come through here
        for f in dataclasses.fields(self):
            setattr(self, f.name, _typed(f.name, f.type, getattr(self, f.name)))
        for names, ok, requirement in _FIELD_RULES:
            for name in names:
                if not ok(getattr(self, name)):
                    raise ValueError(f"{name}: must be {requirement}")

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
    parts: list = field(default_factory=list)  # LossParts per step
    epoch_seconds: list = field(default_factory=list)
    final_step: int = 0

    def write_csv(self, path):
        with open(path, "w") as fh:
            fh.write("step,reco,ind,adv,cls,total\n")
            for i, p in enumerate(self.parts):
                fh.write(
                    f"{i},{p.reco!r},{p.ind!r},{p.adv!r},{p.cls!r},{p.total!r}\n"
                )


class Adam:
    """Standard Adam over a fixed list of parameter arrays (updated in place)."""

    def __init__(self, params, lr, b1=0.9, b2=0.999, eps=1e-8):
        self.params = list(params)
        self.lr, self.b1, self.b2, self.eps = lr, b1, b2, eps
        self.m = [np.zeros_like(p) for p in self.params]
        self.v = [np.zeros_like(p) for p in self.params]
        self.t = 0

    def step(self, grads):
        self.t += 1
        for p, g, m, v in zip(self.params, grads, self.m, self.v):
            kernels.adam_step(p, g, m, v, self.lr, self.b1, self.b2, self.eps, self.t)


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
    return mdl.default_specs(
        n_genes,
        latent_dim=cfg.latent_dim,
        encoder_hidden=cfg.encoder_hidden,
        disc_hidden=cfg.disc_hidden,
        pred_hidden=cfg.pred_hidden,
        gen_out_activation=cfg.gen_out_activation,
    )


def train_step(bundle, batch, cfg, lam):
    """Forward + backward for one tuple batch; returns (grads, LossParts).

    Gradients come back in ``bundle.arrays()`` order. ``lam`` is the
    gradient-reversal coefficient for this step.
    """
    tape = ad.Tape()
    pn = mdl.lift_params(tape, bundle)
    specs = bundle.specs

    x_nodes = [tape.leaf(x, op="x_source") for x in batch.x_sources]
    h_s = [mdl.mlp_forward_nodes(specs["encoder"], pn["encoder"], x) for x in x_nodes]
    h_t = None
    if cfg.mda:
        xt_node = tape.leaf(batch.x_target, op="x_target")
        h_t = mdl.mlp_forward_nodes(specs["encoder"], pn["encoder"], xt_node)

    w_s = None
    if cfg.awg_active:
        w_s = [mdl.gen_weights_nodes(bundle, pn, h_t, h) for h in h_s]
        z_s = [ad.ewmul(h, w) for h, w in zip(h_s, w_s)]
        z_t = ad.ewmul(h_t, mdl.mean_weight_nodes(w_s))
    else:
        z_s = h_s
        z_t = h_t

    dec = [mdl.mlp_forward_nodes(specs["decoder"], pn["decoder"], z) for z in z_s]
    if cfg.mda:
        dec_t = mdl.mlp_forward_nodes(specs["decoder"], pn["decoder"], z_t)
        reco = ls.reco_loss(dec, batch.x_sources, dec_t, batch.x_target)
    else:
        reco = ls.reco_loss(dec, batch.x_sources)

    ind = ls.ind_loss(w_s) if cfg.ind_active else None

    adv = None
    if cfg.mda:
        d_s = [
            mdl.mlp_forward_nodes(
                specs["discriminator"], pn["discriminator"], ad.grad_reverse(z, lam)
            )
            for z in z_s
        ]
        d_t = mdl.mlp_forward_nodes(
            specs["discriminator"], pn["discriminator"], ad.grad_reverse(z_t, lam)
        )
        adv = ls.adv_loss(d_s, d_t)

    p_s = [mdl.mlp_forward_nodes(specs["predictor"], pn["predictor"], z) for z in z_s]
    cls = ls.cls_loss(p_s, batch.y_sources)

    total = ls.total_loss(reco=reco, ind=ind, adv=adv, cls=cls)
    ad.backward(tape, total)

    grads = []
    for comp in mdl.COMPONENTS:
        grads.extend(node.grad for node in pn[comp])
    return grads, ls.make_parts(reco, ind, adv, cls, total)


def train(bundle, cfg):
    """Train a fresh model on a DomainBundle; returns (ModelBundle, history).

    Upsampling (when enabled) is applied per source domain before batching
    and never to the target. Fully deterministic given ``cfg.seed``.
    """
    n_genes = len(bundle.gene_names)
    ss = np.random.SeedSequence(cfg.seed)
    state = ss.generate_state(2 + bundle.n_sources)
    init_seed, batch_seed = int(state[0]), int(state[1])
    sampler_seeds = [int(s) for s in state[2:]]

    sources = _resample_sources(bundle.sources, cfg, sampler_seeds)
    work = dat.DomainBundle(sources, bundle.target)

    model = mdl.init_params(build_specs(n_genes, cfg), init_seed)
    opt = Adam(model.arrays(), cfg.learning_rate, cfg.beta1, cfg.beta2, cfg.eps)

    sizes = [d.expr.n_samples for d in sources] + [bundle.target.n_samples]
    steps_per_epoch = -(-max(sizes) // cfg.batch_size)
    total_steps = steps_per_epoch * cfg.epochs

    history = TrainHistory()
    step = 0
    for epoch in range(cfg.epochs):
        t0 = time.perf_counter()
        for batch in dat.assemble_batches(work, cfg.batch_size, batch_seed, epoch):
            lam = grl_coefficient(cfg, step, total_steps)
            grads, parts = train_step(model, batch, cfg, lam)
            opt.step(grads)
            history.parts.append(parts)
            step += 1
        history.epoch_seconds.append(time.perf_counter() - t0)
    history.final_step = step
    return model, history


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

def _spec_entry(spec):
    return {"widths": list(spec.widths), "out_activation": spec.out_activation}


def save_checkpoint(bundle, cfg, step, path):
    """JSON header line + raw little-endian float64 blocks in declared order.

    The header states the model shape twice, in ``specs``/``dims`` and in
    ``config``; a bundle whose specs ``cfg`` does not imply is refused, so
    no file is written that load_checkpoint would reject.
    """
    if bundle.specs != build_specs(bundle.n_genes, cfg):
        raise ValueError("bundle specs are not the ones its training config implies")
    header = {
        "format_version": CHECKPOINT_VERSION,
        "specs": {name: _spec_entry(spec) for name, spec in bundle.specs.items()},
        "dims": {"genes": bundle.n_genes, "latent": bundle.latent_dim},
        "seed": bundle.seed,
        "step": int(step),
        "config": cfg.to_dict(),
        "arrays": [
            {"name": name, "shape": list(a.shape)} for name, a in bundle.named_arrays()
        ],
    }
    with open(path, "wb") as fh:
        fh.write(json.dumps(header, sort_keys=True).encode("utf-8"))
        fh.write(b"\n")
        for _, a in bundle.named_arrays():
            fh.write(np.ascontiguousarray(a, dtype="<f8").tobytes())


def load_checkpoint(path):
    """Inverse of save_checkpoint; returns (ModelBundle, TrainConfig, step).

    Every header field is checked before the body is read: any malformed,
    missing or inconsistent entry raises ``CheckpointError`` naming it. The
    model shape is rebuilt from ``dims.genes`` and ``config``; ``specs``,
    ``dims`` and ``arrays`` must state exactly that shape.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    nl = blob.find(b"\n")
    if nl < 0:
        raise CheckpointError("no header line found")
    try:
        header = json.loads(blob[:nl].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise CheckpointError(f"unreadable header: {e}") from None
    if not isinstance(header, dict):
        raise CheckpointError(f"header is a JSON {type(header).__name__}, not an object")
    version = header.get("format_version")
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"unsupported checkpoint format version {version!r} "
            f"(expected {CHECKPOINT_VERSION})"
        )
    missing = [k for k in HEADER_KEYS if k not in header]
    if missing:
        raise CheckpointError(f"header is missing {missing}")
    try:
        cfg = TrainConfig.from_dict(header["config"])
    except (TypeError, ValueError) as e:
        raise CheckpointError(f"header 'config' is malformed: {e}") from None
    dims = header["dims"]
    n_genes = dims.get("genes") if isinstance(dims, dict) else None
    seed, step = header["seed"], header["step"]
    for key, value, least in (("dims.genes", n_genes, 1), ("seed", seed, 0),
                              ("step", step, 0)):
        if isinstance(value, bool) or not isinstance(value, int) or value < least:
            raise CheckpointError(f"header '{key}' must be an integer >= {least}, "
                                  f"not {value!r}")
    specs = build_specs(n_genes, cfg)
    want_dims = {"genes": n_genes, "latent": cfg.latent_dim}
    if dims != want_dims:
        raise CheckpointError(f"header 'dims' is {dims!r}; config implies {want_dims!r}")
    raw_specs = header["specs"]
    if not isinstance(raw_specs, dict) or set(raw_specs) != set(mdl.COMPONENTS):
        raise CheckpointError(f"header 'specs' must name {list(mdl.COMPONENTS)}")
    for name in mdl.COMPONENTS:
        want = _spec_entry(specs[name])
        if raw_specs[name] != want:
            raise CheckpointError(
                f"header spec {name!r} is {raw_specs[name]!r}; config implies {want!r}"
            )
    layout = mdl.param_layout(specs)
    entries = header["arrays"]
    if not isinstance(entries, list) or len(entries) != len(layout):
        raise CheckpointError(
            f"header 'arrays' must list the {len(layout)} arrays its specs imply"
        )
    for i, (entry, (name, shape)) in enumerate(zip(entries, layout)):
        want = {"name": name, "shape": list(shape)}
        if entry != want:
            raise CheckpointError(f"array entry {i} is {entry!r}; specs imply {want!r}")
    body = blob[nl + 1 :]
    offset = 0
    params = {comp: [] for comp in mdl.COMPONENTS}
    for name, shape in layout:
        count = shape[0] * shape[1]
        if offset + 8 * count > len(body):
            raise CheckpointError("truncated parameter block")
        arr = np.frombuffer(body, dtype="<f8", count=count,
                            offset=offset).reshape(shape).copy()
        offset += 8 * count
        params[name.split(".")[0]].append(arr)
    if offset != len(body):
        raise CheckpointError("trailing bytes after parameter blocks")
    bundle = mdl.ModelBundle(specs=specs, params=params, n_genes=n_genes,
                             latent_dim=cfg.latent_dim, seed=seed)
    return bundle, cfg, step
