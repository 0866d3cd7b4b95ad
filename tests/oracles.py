"""Independent oracles used to freeze expected values in the tests.

These deliberately avoid the library's own code paths: brute-force pair
counting, exhaustive threshold sweeps, scalar loops, and central finite
differences.
"""

import numpy as np


def central_diff(f, arrays, h=1e-5):
    """Central finite-difference gradient of scalar f w.r.t. each array.

    ``f()`` must read the arrays in place (they are perturbed and restored).
    """
    grads = []
    for a in arrays:
        g = np.zeros_like(a)
        flat = a.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            up = f()
            flat[i] = orig - h
            down = f()
            flat[i] = orig
            gflat[i] = (up - down) / (2.0 * h)
        grads.append(g)
    return grads


def max_rel_error(analytic, numeric, floor=1e-8):
    """max |a - n| / max(|a|, |n|, floor) over all entries of all arrays."""
    worst = 0.0
    for a, n in zip(analytic, numeric):
        denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), floor)
        worst = max(worst, float((np.abs(a - n) / denom).max()))
    return worst


def auroc_pair_count(scores, labels):
    """O(n^2) Mann-Whitney: wins + half-ties over all pos/neg pairs."""
    s = np.asarray(scores, dtype=float).ravel()
    y = np.asarray(labels).ravel()
    pos = s[y == 1]
    neg = s[y == 0]
    total = 0.0
    for sp in pos:
        for sn in neg:
            if sp > sn:
                total += 1.0
            elif sp == sn:
                total += 0.5
    return total / (pos.size * neg.size)


def average_ranks_loop(s):
    """1-based ranks, each tie group at its mean rank, walked group by group
    along a stable sort."""
    order = np.argsort(s, kind="stable")
    ranks = np.empty(s.size)
    i = 0
    while i < s.size:
        j = i
        while j + 1 < s.size and s[order[j + 1]] == s[order[i]]:
            j += 1
        ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


def aupr_threshold_sweep(scores, labels):
    """Exhaustive threshold sweep, recounting the confusion at each step."""
    s = np.asarray(scores, dtype=float).ravel()
    y = np.asarray(labels).ravel()
    n_pos = int(y.sum())
    thresholds = sorted(set(s), reverse=True)
    area = 0.0
    prev_recall = 0.0
    for t in thresholds:
        called = s >= t
        tp = int((y[called] == 1).sum())
        precision = tp / int(called.sum())
        recall = tp / n_pos
        area += (recall - prev_recall) * precision
        prev_recall = recall
    return area


def ind_penalty_direct(w_matrices):
    """0.5 * ||W W^T - I||_F^2 averaged over tuples, by direct matrix math."""
    k = len(w_matrices)
    batch = w_matrices[0].shape[0]
    total = 0.0
    for i in range(batch):
        w = np.stack([m[i] for m in w_matrices])
        gram = w @ w.T
        total += 0.5 * np.linalg.norm(gram - np.eye(k), "fro") ** 2
    return total / batch


def point_to_segment_distance(p, a, b):
    """Euclidean distance from p to the segment [a, b]."""
    ab = b - a
    denom = float(ab @ ab)
    t = 0.0 if denom == 0 else float(np.clip((p - a) @ ab / denom, 0.0, 1.0))
    return float(np.linalg.norm(p - (a + t * ab)))


def least_squares_probe(x_train, y_train, x_test):
    """Linear probe oracle: ridge-stabilized least squares on {0,1} labels."""
    xb = np.hstack([x_train, np.ones((x_train.shape[0], 1))])
    coef = np.linalg.solve(
        xb.T @ xb + 1e-6 * np.eye(xb.shape[1]), xb.T @ y_train.astype(float)
    )
    return np.hstack([x_test, np.ones((x_test.shape[0], 1))]) @ coef
