"""Shared synthetic datasets, finite-difference and similarity helpers for tests."""

from __future__ import annotations

from collections import Counter

import numpy as np

from soaccept.features import _cosine, _norm
from soaccept.mlp import loss_and_gradients


def cosine_similarity(q, a) -> float:
    """Cosine of two sparse vectors (index -> weight), as feature
    extraction computes it; 0.0 when either has zero norm."""
    return _cosine(q, _norm(q), a)


def vector_concordance_similarity(question_tokens, answer_tokens) -> float:
    """Cosine of raw word-count vectors over the pair's union vocabulary,
    as feature extraction computes TextualSimilarity."""
    q_counts = Counter(question_tokens)
    return _cosine(q_counts, _norm(q_counts), Counter(answer_tokens))


def make_planted(n, seed, n_noise=8, flip=0.05):
    """Binary dataset where only the first two columns carry signal."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, 2 + n_noise))
    margin = 3.0 * x[:, 0] - 2.0 * x[:, 1]
    y = (margin > 0).astype(np.int64)
    flips = rng.random(n) < flip
    y[flips] ^= 1
    return x, y


def make_blobs(n, seed, spread=0.8):
    """Two well-separated 2-d Gaussian blobs, labels 0/1."""
    rng = np.random.default_rng(seed)
    half = n // 2
    a = rng.standard_normal((half, 2)) * spread + (-1.5, -1.5)
    b = rng.standard_normal((n - half, 2)) * spread + (1.5, 1.5)
    x = np.vstack([a, b])
    y = np.array([0] * half + [1] * (n - half), dtype=np.int64)
    perm = rng.permutation(n)
    return x[perm], y[perm]


def numeric_gradients(weights, biases, x, y, h=1e-5):
    """Central-difference BCE gradients for every parameter."""
    def loss_at():
        return loss_and_gradients(weights, biases, x, y)[0]

    grads_w = [np.zeros_like(w) for w in weights]
    grads_b = [np.zeros_like(b) for b in biases]
    for layer, w in enumerate(weights):
        flat = w.ravel()
        out = grads_w[layer].ravel()
        for i in range(flat.size):
            keep = flat[i]
            flat[i] = keep + h
            up = loss_at()
            flat[i] = keep - h
            down = loss_at()
            flat[i] = keep
            out[i] = (up - down) / (2.0 * h)
    for layer, b in enumerate(biases):
        out = grads_b[layer]
        for i in range(b.size):
            keep = b[i]
            b[i] = keep + h
            up = loss_at()
            b[i] = keep - h
            down = loss_at()
            b[i] = keep
            out[i] = (up - down) / (2.0 * h)
    return grads_w, grads_b


def max_relative_error(analytic_w, analytic_b, numeric_w, numeric_b):
    worst = 0.0
    for a, m in zip(analytic_w + analytic_b, numeric_w + numeric_b):
        denom = np.maximum(np.maximum(np.abs(a), np.abs(m)), 1e-8)
        worst = max(worst, float(np.max(np.abs(a - m) / denom)))
    return worst
