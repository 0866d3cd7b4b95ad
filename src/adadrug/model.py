"""The five network components and their forward semantics.

A model bundle holds parameters for the shared encoder/decoder pair, the
per-source-sample weight generator, the domain discriminator and the
response predictor. A network is one layer function,
:func:`adadrug.kernels.dense`, driven by two loops over ``MlpSpec.activations``:

* ``mlp_forward`` calls it on arrays, for inference (``encode``, ``predict``
  and the generator in ``evaluate.mean_reference_weights``), and
* ``mlp_forward_nodes`` records it as ``autodiff.dense`` nodes, for the
  training graph (``gen_weights_nodes``, ``mean_weight_nodes``).

Both therefore give the same bits for the same parameters, and each job has
one forward. The layer adds the bias and applies its activation in place on
the fresh matmul result, so it allocates one array, not three.

``mlp_forward`` runs on one BLAS thread (``kernels.one_blas_thread``) and
cuts a large batch into two row halves at the same row on any machine. The
halves always run as two lanes on two threads, each writing its rows of one
result; no branch depends on the CPU count.
"""

import os
from concurrent import futures
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from . import kernels

OUT_ACTIVATIONS = ("none", "relu", "sigmoid")
COMPONENTS = ("encoder", "decoder", "generator", "discriminator", "predictor")


@dataclass(frozen=True)
class MlpSpec:
    """Dense network shape: layer widths plus the output activation.

    Hidden layers are always relu-activated; ``widths`` includes the input
    width, so a single affine layer is ``(n_in, n_out)``.
    """

    widths: tuple
    out_activation: str = "none"

    def __post_init__(self):
        if len(self.widths) < 2:
            raise ValueError("MlpSpec needs at least one layer (two widths)")
        if any(isinstance(w, bool) or not isinstance(w, (int, np.integer))
               for w in self.widths):
            raise ValueError(f"layer widths must be integers, got {self.widths}")
        if any(w <= 0 for w in self.widths):
            raise ValueError(f"layer widths must be positive, got {self.widths}")
        if self.out_activation not in OUT_ACTIVATIONS:
            raise ValueError(f"unknown output activation {self.out_activation!r}")
        object.__setattr__(self, "widths", tuple(int(w) for w in self.widths))

    @property
    def activations(self):
        """Activation of each layer: relu on hidden layers, then the output's."""
        return ("relu",) * (len(self.widths) - 2) + (self.out_activation,)

    @property
    def n_in(self):
        return self.widths[0]

    @property
    def n_out(self):
        return self.widths[-1]


@dataclass
class ModelBundle:
    """Every parameter of the five components, in one float64 vector.

    ``flat`` is in ``param_layout(specs)`` order; ``params[name]`` is ``[W0,
    b0, W1, b1, ...]``, views into ``flat`` shaped (fan_in, fan_out) and (1,
    fan_out). Only the optimizer mutates them, in place. Two bundles are
    equal when their specs, seeds and the bytes of ``flat`` are.
    """

    specs: dict
    flat: np.ndarray
    seed: int = 0
    params: dict = field(init=False, repr=False)
    _cuts: list = field(init=False, repr=False)

    def __post_init__(self):
        dec, gen = self.specs["decoder"], self.specs["generator"]
        at_latent = {dec.n_in, gen.n_in, gen.n_out, self.specs["discriminator"].n_in,
                     self.specs["predictor"].n_in}
        if dec.n_out != self.n_genes or at_latent != {self.latent_dim}:
            raise ValueError("decoder output must equal the encoder input, and every "
                             "width at the latent interface the encoder output")
        self.flat = np.ascontiguousarray(self.flat, dtype=np.float64)
        if self.flat.shape != (param_count(self.specs),):
            raise ValueError(f"flat must hold the specs' {param_count(self.specs)} "
                             f"parameters, got shape {self.flat.shape}")
        self._cuts = _layout_cuts(self.specs)
        self.params = self.views(self.flat)

    def __eq__(self, other):
        return (isinstance(other, ModelBundle) and self.specs == other.specs and
                self.seed == other.seed and self.flat.tobytes() == other.flat.tobytes())

    @property
    def n_genes(self):
        return self.specs["encoder"].n_in

    @property
    def latent_dim(self):
        return self.specs["encoder"].n_out

    def named_arrays(self):
        """All parameter arrays as (name, array) in declared order."""
        arrays = [a for comp in COMPONENTS for a in self.params[comp]]
        return [(name, a) for (name, _), a in zip(param_layout(self.specs), arrays,
                                                  strict=True)]

    def views(self, vec):
        """``{component: [W0, b0, ...]}``: views of ``vec``, a vector laid out
        like ``flat``, cut at offsets computed once per bundle."""
        views = {comp: [] for comp in COMPONENTS}
        for comp, start, stop, shape in self._cuts:
            views[comp].append(vec[start:stop].reshape(shape))
        return views


def param_layout(specs):
    """(name, shape) of every parameter array the specs imply, in declared
    order: ``<component>.<layer>.W`` (fan_in, fan_out), then ``.b`` (1, fan_out).
    """
    layout = []
    for comp in COMPONENTS:
        widths = specs[comp].widths
        for i, (fan_in, fan_out) in enumerate(zip(widths[:-1], widths[1:])):
            layout.append((f"{comp}.{i}.W", (fan_in, fan_out)))
            layout.append((f"{comp}.{i}.b", (1, fan_out)))
    return layout


def _layout_cuts(specs):
    """(component, start, stop, shape) of each parameter, in layout order."""
    cuts, offset = [], 0
    for name, (rows, cols) in param_layout(specs):
        cuts.append((name.split(".")[0], offset, offset + rows * cols, (rows, cols)))
        offset += rows * cols
    return cuts


def param_count(specs):
    """Number of float64 parameters the specs imply."""
    return sum(rows * cols for _, (rows, cols) in param_layout(specs))


def init_params(specs, seed):
    """Deterministic He-scaled uniform init: W ~ U(+-sqrt(6/fan_in)), b = 0."""
    rng = np.random.default_rng(seed)
    bundle = ModelBundle(specs=dict(specs), flat=np.zeros(param_count(specs)),
                         seed=int(seed))
    for comp in COMPONENTS:
        for w in bundle.params[comp][0::2]:
            lim = np.sqrt(6.0 / w.shape[0])
            w[...] = rng.uniform(-lim, lim, size=w.shape)
    return bundle


# ---------------------------------------------------------------------------
# forward passes, array level
# ---------------------------------------------------------------------------

# rows of the smaller lane of a split mlp_forward: far above the short
# products BLAS computes along another path (under 8 rows at 500 inputs), and
# at the generator's 128 widths about 1 ms of work, which repays the
# hand-off to the worker thread
LANE_MIN_ROWS = 512


def _start_lane_worker():
    # the one worker thread of the second lane, started on its first task. A
    # forked child has only the forking thread: work handed to the parent's
    # worker would wait forever, so the child makes its own
    global _lane_pool
    _lane_pool = futures.ThreadPoolExecutor(1, thread_name_prefix="adadrug-lane")


_start_lane_worker()
if hasattr(os, "register_at_fork"):  # absent where there is no fork
    os.register_at_fork(after_in_child=_start_lane_worker)


def _forward(spec, params, x, out=None):
    """The layer loop; the last layer writes its product to ``out`` when given."""
    *hidden, last = spec.activations
    a = x
    for i, act in enumerate(hidden):
        a = kernels.dense(a, params[2 * i], params[2 * i + 1], act)
    return kernels.dense(a, params[-2], params[-1], last, out)


@kernels.one_blas_thread()
def mlp_forward(spec, params, x):
    """Array forward on one BLAS thread; ``x`` is only read, every layer
    writes its own array.

    A batch of at least ``2 * LANE_MIN_ROWS`` rows is cut at row
    ``len(x) // 2`` into two lanes through the same layer loop, on any number
    of CPUs: the caller's thread runs the first half and one pooled worker
    thread the second, and each lane's last layer writes its rows of the one
    result array. An exception in either lane is raised once both have
    stopped. At output widths that are not a multiple of 8 a row's bits can
    depend on the height of the product it is computed in; no branch depends
    on the CPU count, so every height is the same on every machine.
    """
    if len(x) < 2 * LANE_MIN_ROWS:
        return _forward(spec, params, x)
    half = len(x) // 2
    out = np.empty((len(x), spec.n_out))
    tail = _lane_pool.submit(_forward, spec, params, x[half:], out[half:])
    try:
        _forward(spec, params, x[:half], out[:half])
    finally:
        futures.wait((tail,))
    tail.result()
    return out


def _check_width(x, width, what):
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != width:
        raise ad.ShapeError(f"{what}: expected (batch, {width}), got {x.shape}")
    return x


def encode(bundle, x):
    """Map expression rows (batch, G) to latent embeddings (batch, d)."""
    x = _check_width(x, bundle.n_genes, "encode")
    return mlp_forward(bundle.specs["encoder"], bundle.params["encoder"], x)


def apply_weights(h, w):
    """Elementwise modulation z = h * w."""
    h = np.asarray(h, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    if h.shape != w.shape:
        raise ad.ShapeError(f"apply_weights: shapes {h.shape} and {w.shape} differ")
    return h * w


def predict(bundle, z):
    """Drug-sensitivity probability in (0,1) for each weighted embedding row."""
    z = _check_width(z, bundle.latent_dim, "predict")
    return mlp_forward(bundle.specs["predictor"], bundle.params["predictor"], z)


# ---------------------------------------------------------------------------
# forward passes, node level (training graph)
# ---------------------------------------------------------------------------

def lift_params(tape, bundle):
    """Enter the parameters as leaves; returns (nodes per component, flat gradient)."""
    grad = np.zeros_like(bundle.flat)
    views = bundle.views(grad)
    return {comp: [tape.leaf(a, op=f"{comp}.param", grad=g)
                   for a, g in zip(bundle.params[comp], views[comp])]
            for comp in COMPONENTS}, grad


def mlp_forward_nodes(spec, param_nodes, x):
    """Node forward: one ``autodiff.dense`` node per layer."""
    a = x
    for i, act in enumerate(spec.activations):
        a = ad.dense(a, param_nodes[2 * i], param_nodes[2 * i + 1], act)
    return a


def gen_weights_nodes(bundle, param_nodes, h_target, h_source):
    """Importance vectors from the embedding gap |h_T - h_S|; symmetric."""
    gap = ad.abs_diff(h_target, h_source)
    return mlp_forward_nodes(bundle.specs["generator"], param_nodes["generator"], gap)


def mean_weight_nodes(w_nodes):
    """The target's weight: the K source weights summed in order, times 1/K."""
    return ad.average(w_nodes)
