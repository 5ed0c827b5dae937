"""Clustering metrics: accuracy (micro-F1), macro-F1 and NMI.

Metrics compare predicted hard labels against ground truth over an aligned
node set; cluster indices are meaningful (seeds bind them), so no matching
step is applied.
"""

from __future__ import annotations

import numpy as np


def _check_labels(pred, true):
    pred = np.asarray(pred, dtype=np.int64).ravel()
    true = np.asarray(true, dtype=np.int64).ravel()
    if pred.size == 0 or pred.shape != true.shape:
        raise ValueError("need two equal-length, non-empty label vectors")
    if pred.min() < 0 or true.min() < 0:
        raise ValueError("labels must be non-negative integers")
    return pred, true


def accuracy_micro_f1(pred, true):
    """Fraction of correct labels; equals micro-F1 on single-label data."""
    pred, true = _check_labels(pred, true)
    return float(np.mean(pred == true))


def macro_f1(pred, true):
    """Unweighted mean of per-class F1 over the classes present in `true`.

    A class never predicted (or never correct) contributes F1 = 0."""
    pred, true = _check_labels(pred, true)
    scores = []
    for c in np.unique(true):
        tp = float(np.sum((pred == c) & (true == c)))
        n_pred = float(np.sum(pred == c))
        n_true = float(np.sum(true == c))
        precision = tp / n_pred if n_pred else 0.0
        recall = tp / n_true
        if precision + recall == 0.0:
            scores.append(0.0)
        else:
            scores.append(2.0 * precision * recall / (precision + recall))
    return float(np.mean(scores))


def nmi(pred, true):
    """Mutual information over the arithmetic mean of the two label entropies.

    Both labelings constant is the same one-cluster partition, defined as 1.0;
    if exactly one entropy is zero the mutual information vanishes and the
    score is 0.0. Natural logarithms throughout."""
    pred, true = _check_labels(pred, true)
    n = pred.size
    _, pi = np.unique(pred, return_inverse=True)
    _, ti = np.unique(true, return_inverse=True)
    if pi.tobytes() > ti.tobytes():
        pi, ti = ti, pi  # canonical orientation makes nmi(a, b) == nmi(b, a) exactly
    table = np.zeros((pi.max() + 1, ti.max() + 1))
    np.add.at(table, (pi, ti), 1.0)
    joint = table / n
    pa = joint.sum(axis=1)
    pb = joint.sum(axis=0)
    h_pred = -float(np.sum(pa * np.log(pa, where=pa > 0, out=np.zeros_like(pa))))
    h_true = -float(np.sum(pb * np.log(pb, where=pb > 0, out=np.zeros_like(pb))))
    if h_pred == 0.0 and h_true == 0.0:
        return 1.0
    nz = joint > 0
    mi = float(np.sum(joint[nz] * np.log(joint[nz] / np.outer(pa, pb)[nz])))
    return min(max(mi / ((h_pred + h_true) / 2.0), 0.0), 1.0)
