"""The four training objectives and their unweighted sum.

All losses are scalar graph nodes. Each term is one fused
:mod:`adadrug.autodiff` node: ``sq_err_mean`` per domain for the
reconstruction and response losses, ``gram_penalty`` for the independence
penalty and ``clamped_bce`` for the domain loss. The per-domain terms and
the four losses are summed with ``autodiff.add``. Loss constants (inputs,
labels, ones) stay inside the fused nodes, so no loss adds a ``Tape.const``
leaf. Per-domain sums are estimated per mini-batch as batch means, so
magnitudes are batch-size invariant. Ablated terms are simply omitted from
the sum (an exact zero), never replaced by scaled-down versions.
"""

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad

PROB_CLAMP = 1e-7


@dataclass
class LossParts:
    """Scalar snapshot of one training step, total = reco + ind + adv + cls."""

    reco: float = 0.0
    ind: float = 0.0
    adv: float = 0.0
    cls: float = 0.0
    total: float = 0.0


def _scalar(node):
    return float(node.value[0, 0])


def _sum(terms, empty_message):
    """Left fold ((t0 + t1) + t2) + ... of ``ad.add``; a generator's terms are
    recorded one at a time, each just before the add that takes it."""
    total = None
    for term in terms:
        total = term if total is None else ad.add(total, term)
    if total is None:
        raise ValueError(empty_message)
    return total


def reco_loss(decoded, xs):
    """Reconstruction error summed over domains.

    ``decoded`` and ``xs`` list the domains in the same order: the sources,
    then the target as the last domain when it takes part in training. Each
    domain contributes the batch mean of its squared row-wise reconstruction
    error.
    """
    if len(decoded) != len(xs):
        raise ValueError("reco_loss: need one input matrix per decoded matrix")
    return _sum((ad.sq_err_mean(dec, x) for dec, x in zip(decoded, xs)),
                "reco_loss: no domains given")


def ind_loss(w_nodes):
    """Mutual-independence penalty on the per-tuple weight vectors.

    For each tuple the K weight vectors form a K x d matrix W; the penalty
    is 0.5 * ||W W^T - I||_F^2, averaged over the batch. Computed from the
    K (batch, d) weight matrices via row-wise Gram entries, which keeps the
    graph size independent of the batch size.
    """
    if not w_nodes:
        raise ValueError("ind_loss: need at least one weight matrix")
    return ad.gram_penalty(w_nodes)


def adv_loss(d_sources, d_target=None):
    """Domain-discrimination binary cross entropy.

    Source probabilities carry domain label 1, target label 0; the mean runs
    over all (K+1)*B items (K*B when no target column is given).
    Probabilities are clamped to [1e-7, 1-1e-7] before the logs. The encoder's
    opposing objective is realized by feeding grad-reversed embeddings into
    the discriminator, not inside this function.
    """
    negatives = [] if d_target is None else [d_target]
    if not d_sources and not negatives:
        raise ValueError("adv_loss: no probability columns given")
    return ad.clamped_bce(d_sources, negatives, PROB_CLAMP)


def cls_loss(p_sources, y_sources):
    """Squared-error classification loss, summed over source domains."""
    if len(p_sources) != len(y_sources):
        raise ValueError("cls_loss: need one label column per probability column")
    ys = [np.asarray(y, dtype=np.float64).reshape(-1, 1) for y in y_sources]
    if not all(((y == 0.0) | (y == 1.0)).all() for y in ys):
        raise ValueError("cls_loss: labels must be binary")
    return _sum((ad.sq_err_mean(p, y) for p, y in zip(p_sources, ys)),
                "cls_loss: no domains given")


def total_loss(reco=None, ind=None, adv=None, cls=None):
    """Unweighted sum of the supplied terms, in reco/ind/adv/cls order.

    Ablations pass None for removed terms, which leaves the sum bitwise
    equal to the sum of the remaining parts.
    """
    return _sum((node for node in (reco, ind, adv, cls) if node is not None),
                "total_loss: all terms are disabled")


def make_parts(reco=None, ind=None, adv=None, cls=None, total=None):
    return LossParts(
        reco=_scalar(reco) if reco is not None else 0.0,
        ind=_scalar(ind) if ind is not None else 0.0,
        adv=_scalar(adv) if adv is not None else 0.0,
        cls=_scalar(cls) if cls is not None else 0.0,
        total=_scalar(total) if total is not None else 0.0,
    )
