import numpy as np
import pytest

from adadrug import autodiff as ad
from adadrug import losses as ls
from adadrug import model as mdl
from adadrug import train as tr

from conftest import make_batch, make_bundle, split_grad
from oracles import central_diff, ind_penalty_direct, max_rel_error


def scalar(node):
    return float(node.value[0, 0])


def const_nodes(tape, arrays):
    return [tape.leaf(a) for a in arrays]


# ---------------------------------------------------------------------------
# reconstruction
# ---------------------------------------------------------------------------

def test_reco_perfect_reconstruction_is_zero(rng):
    t = ad.Tape()
    xs = [rng.normal(size=(4, 3)) for _ in range(2)]
    xt = rng.normal(size=(4, 3))
    loss = ls.reco_loss(const_nodes(t, xs) + [t.leaf(xt)], xs + [xt])
    assert scalar(loss) == 0.0


def test_reco_hand_case():
    t = ad.Tape()
    dec_s = t.leaf([[2.0, 1.0]])
    x_s = np.array([[1.0, 0.0]])  # diff (1, 1) -> 2
    dec_t = t.leaf([[0.0, 3.0]])
    x_t = np.array([[0.0, 1.0]])  # diff (0, 2) -> 4
    assert scalar(ls.reco_loss([dec_s, dec_t], [x_s, x_t])) == 6.0


def test_reco_duplicate_domain_doubles_source_term(rng):
    t = ad.Tape()
    dec = rng.normal(size=(5, 4))
    x = rng.normal(size=(5, 4))
    one = scalar(ls.reco_loss(const_nodes(t, [dec]), [x]))
    two = scalar(ls.reco_loss(const_nodes(t, [dec, dec]), [x, x]))
    # scalar-loop oracle
    expect = sum(((dec[i] - x[i]) ** 2).sum() for i in range(5)) / 5.0
    assert one == pytest.approx(expect, rel=1e-12)
    assert two == pytest.approx(2.0 * one, rel=1e-12)


def test_reco_batch_mean_semantics(rng):
    t = ad.Tape()
    dec = rng.normal(size=(8, 3))
    x = rng.normal(size=(8, 3))
    got = scalar(ls.reco_loss(const_nodes(t, [dec]), [x]))
    per_row = [((dec[i] - x[i]) ** 2).sum() for i in range(8)]
    assert got == pytest.approx(np.mean(per_row), rel=1e-12)


# ---------------------------------------------------------------------------
# independence
# ---------------------------------------------------------------------------

def _ind_value(w_rows):
    """w_rows: K x d matrix for a single tuple."""
    t = ad.Tape()
    nodes = [t.leaf(row.reshape(1, -1)) for row in np.asarray(w_rows, float)]
    return scalar(ls.ind_loss(nodes))


def test_ind_orthonormal_rows_give_zero():
    assert _ind_value(np.eye(2)) == 0.0


def test_ind_hand_cases_exact():
    assert _ind_value([[1.0, 0.0], [1.0, 0.0]]) == 1.0
    assert _ind_value([[2.0, 0.0], [0.0, 2.0]]) == 9.0


def test_ind_nonnegative_and_matches_direct_oracle(rng):
    ws = [rng.normal(size=(6, 4)) for _ in range(3)]
    t = ad.Tape()
    got = scalar(ls.ind_loss(const_nodes(t, ws)))
    assert got >= 0.0
    assert got == pytest.approx(ind_penalty_direct(ws), rel=1e-12)


def test_ind_single_domain_penalizes_norm():
    # K=1: loss = mean (||w||^2 - 1)^2 / 2
    assert _ind_value([[2.0, 0.0]]) == pytest.approx(0.5 * (4.0 - 1.0) ** 2)


# ---------------------------------------------------------------------------
# adversarial
# ---------------------------------------------------------------------------

def test_adv_constant_half_equals_ln2():
    t = ad.Tape()
    d_s = [t.leaf(np.full((4, 1), 0.5)) for _ in range(2)]
    d_t = t.leaf(np.full((4, 1), 0.5))
    assert scalar(ls.adv_loss(d_s, d_t)) == pytest.approx(np.log(2.0), abs=1e-12)


def test_adv_perfect_discriminator_approaches_zero():
    t = ad.Tape()
    d_s = [t.leaf(np.full((3, 1), 1.0 - 1e-9))]
    d_t = t.leaf(np.full((3, 1), 1e-9))
    assert scalar(ls.adv_loss(d_s, d_t)) < 1e-6


def test_adv_single_source_item_hand_value():
    t = ad.Tape()
    loss = ls.adv_loss([t.leaf([[0.25]])])
    assert scalar(loss) == pytest.approx(-np.log(0.25), rel=1e-12)


def test_adv_mean_runs_over_all_items():
    t = ad.Tape()
    loss = ls.adv_loss([t.leaf([[0.25]])], t.leaf([[0.5]]))
    assert scalar(loss) == pytest.approx((-np.log(0.25) - np.log(0.5)) / 2.0, rel=1e-12)


def test_adv_clamping_prevents_log_zero():
    t = ad.Tape()
    loss = ls.adv_loss([t.leaf([[0.0]])], t.leaf([[1.0]]))
    v = scalar(loss)
    assert np.isfinite(v)
    assert v == pytest.approx(-np.log(1e-7), rel=1e-9)


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------

def test_cls_perfect_predictions_are_zero():
    t = ad.Tape()
    y = np.array([1, 0, 1])
    loss = ls.cls_loss([t.leaf(y.reshape(-1, 1).astype(float))], [y])
    assert scalar(loss) == 0.0


def test_cls_hand_case_and_domain_sum():
    t = ad.Tape()
    one = ls.cls_loss([t.leaf([[0.5]])], [np.array([1])])
    assert scalar(one) == 0.25
    two = ls.cls_loss([t.leaf([[0.5]]), t.leaf([[0.5]])], [np.array([1])] * 2)
    assert scalar(two) == 2.0 * scalar(one)


def test_cls_rejects_non_binary_labels():
    t = ad.Tape()
    with pytest.raises(ValueError):
        ls.cls_loss([t.leaf([[0.5]])], [np.array([2])])


# ---------------------------------------------------------------------------
# total
# ---------------------------------------------------------------------------

def test_total_examples():
    t = ad.Tape()
    zeros = [t.leaf([[0.0]]) for _ in range(4)]
    assert scalar(ls.total_loss(*zeros)) == 0.0
    vals = [t.leaf([[v]]) for v in (1.0, 2.0, 3.0, 4.0)]
    assert scalar(ls.total_loss(*vals)) == 10.0
    with pytest.raises(ValueError):
        ls.total_loss()


def test_total_matches_independent_recomputation(rng):
    bundle = make_bundle(seed=0)
    batch = make_batch(rng, n_sources=3, batch=5, n_genes=bundle.n_genes)
    cfg = tr.TrainConfig(latent_dim=4, encoder_hidden=6, disc_hidden=3,
                         pred_hidden=3, sampler="none")
    _, parts = tr.train_step(bundle, batch, cfg, lam=1.0)
    assert parts.total == pytest.approx(
        parts.reco + parts.ind + parts.adv + parts.cls, rel=1e-12
    )


def test_ablation_substitution_is_bitwise():
    t = ad.Tape()
    r, a, c = (t.leaf([[v]]) for v in (0.37, 1.21, 0.09))
    with_none = scalar(ls.total_loss(reco=r, ind=None, adv=a, cls=c))
    assert with_none == (0.37 + 1.21) + 0.09


# ---------------------------------------------------------------------------
# gradients through the losses
# ---------------------------------------------------------------------------

def _loss_values(bundle, batch, cfg, lam):
    _, parts = tr.train_step(bundle, batch, cfg, lam)
    return parts


def test_every_loss_gradient_matches_finite_differences(rng):
    bundle = make_bundle(seed=1, random_biases=True)
    batch = make_batch(rng, n_sources=2, batch=3, n_genes=bundle.n_genes)
    cfg = tr.TrainConfig(latent_dim=4, encoder_hidden=6, disc_hidden=3,
                         pred_hidden=3, sampler="none")
    lam = 1.0
    grad, parts = tr.train_step(bundle, batch, cfg, lam)
    grads = split_grad(bundle, grad)
    names = [n for n, _ in bundle.named_arrays()]
    arrays = [a for _, a in bundle.named_arrays()]

    fd = {
        part: central_diff(
            lambda p=part: getattr(_loss_values(bundle, batch, cfg, lam), p),
            arrays,
        )
        for part in ("reco", "ind", "adv", "cls")
    }
    expected = []
    for i, name in enumerate(names):
        adv_sign = -lam if name.split(".")[0] not in ("discriminator",) else 1.0
        expected.append(
            fd["reco"][i] + fd["ind"][i] + fd["cls"][i] + adv_sign * fd["adv"][i]
        )
    # central differences carry cancellation noise ~ulp(loss)/h; widen the
    # relative-error floor with the loss magnitude so near-zero gradients
    # are compared absolutely at that precision
    floor = 1e-6 * max(1.0, parts.total)
    assert max_rel_error(grads, expected, floor=floor) < 1e-4


def test_encoder_gradient_from_adv_is_reversed(rng):
    """Encoder gradient equals -lam times the unreversed discriminator push."""
    bundle = make_bundle(seed=2)
    x = rng.normal(size=(4, bundle.n_genes))

    def adv_encoder_grads(lam, reverse):
        t = ad.Tape()
        pn, _ = mdl.lift_params(t, bundle)
        h = mdl.mlp_forward_nodes(bundle.specs["encoder"], pn["encoder"], t.leaf(x))
        z = ad.grad_reverse(h, lam) if reverse else h
        d = mdl.mlp_forward_nodes(bundle.specs["discriminator"], pn["discriminator"], z)
        ad.backward(t, ls.adv_loss([d]))
        return [node.grad.copy() for node in pn["encoder"]]

    plain = adv_encoder_grads(1.0, reverse=False)
    for lam in (1.0, 0.7):
        reversed_grads = adv_encoder_grads(lam, reverse=True)
        for g_rev, g_plain in zip(reversed_grads, plain):
            np.testing.assert_allclose(g_rev, -lam * g_plain, rtol=1e-10, atol=1e-18)
    exact = adv_encoder_grads(1.0, reverse=True)
    for g_rev, g_plain in zip(exact, plain):
        np.testing.assert_array_equal(g_rev, -g_plain)
