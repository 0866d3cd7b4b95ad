import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import strategies as st

sys.path.insert(0, str(Path(__file__).parent))

from adadrug import data as dat
from adadrug import model as mdl
from adadrug import train as tr

# any JSON value a config file or a checkpoint header may hold; the valid
# choice strings are mixed in so that str fields also parse now and then
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False) | st.text()
    | st.sampled_from(tr.SAMPLERS + tr.GRL_SCHEDULES + tr.GEN_OUT_ACTIVATIONS),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(), inner,
                                                                max_size=3),
    max_leaves=6,
)


def make_bundle(seed=0, n_genes=10, latent=4, enc_hidden=6, head_hidden=3,
                random_biases=False):
    """A small random model for gradient and forward tests.

    ``random_biases`` moves the model off the all-zero-bias init so no
    hidden pre-activation sits exactly on a relu kink; finite-difference
    checks need that generic position.
    """
    specs = {
        "encoder": mdl.MlpSpec((n_genes, enc_hidden, latent)),
        "decoder": mdl.MlpSpec((latent, enc_hidden, n_genes)),
        "generator": mdl.MlpSpec((latent, latent, latent), out_activation="relu"),
        "discriminator": mdl.MlpSpec((latent, head_hidden, 1), out_activation="sigmoid"),
        "predictor": mdl.MlpSpec((latent, head_hidden, 1), out_activation="sigmoid"),
    }
    bundle = mdl.init_params(specs, seed)
    if random_biases:
        rng = np.random.default_rng(seed + 7919)
        for name, arr in bundle.named_arrays():
            if name.endswith(".b"):
                arr[:] = rng.normal(scale=0.2, size=arr.shape)
    return bundle


def make_batch(rng, n_sources=3, batch=5, n_genes=10):
    return dat.TupleBatch(
        x_sources=[rng.normal(size=(batch, n_genes)) for _ in range(n_sources)],
        y_sources=[rng.integers(0, 2, size=batch).astype(np.int64)
                   for _ in range(n_sources)],
        x_target=rng.normal(size=(batch, n_genes)),
    )


def make_domain(rng, n=20, n_genes=6, pos_rate=0.5, tag="s"):
    labels = (rng.random(n) < pos_rate).astype(np.int64)
    # guarantee both classes
    labels[0], labels[1] = 0, 1
    expr = dat.ExpressionMatrix(
        [f"{tag}{i}" for i in range(n)],
        [f"g{j}" for j in range(n_genes)],
        rng.normal(size=(n, n_genes)),
    )
    return dat.LabeledDomain(expr, labels)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def small_bundle():
    return make_bundle(seed=7)


@pytest.fixture
def tiny_train_cfg():
    return tr.TrainConfig(
        latent_dim=4,
        encoder_hidden=8,
        disc_hidden=4,
        pred_hidden=4,
        learning_rate=1e-3,
        batch_size=8,
        epochs=2,
        sampler="none",
        seed=0,
    )
