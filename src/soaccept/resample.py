"""Minority oversampling (SMOTE / ADASYN) for the training split.

Both samplers interpolate between a minority sample and one of its k
nearest minority neighbors: s = x + u * (nn - x), u ~ Uniform(0,1).
Neighbor geometry runs on standardized features; synthetics are mapped
back to raw units before fitting.  ADASYN allocates synthetics per
minority point in proportion to how majority-dominated its full-set
neighborhood is; SMOTE spreads them round-robin.

Neighbors are exact: squared Euclidean distances summed as SciPy's
cKDTree sums them, with exact ties going to the lower row index.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError

_METHODS = ("none", "smote", "adasyn")

# entries of the query-by-data distance block screened at once
_CHUNK_ENTRIES = 1 << 20


@dataclass(frozen=True)
class ResamplePlan:
    method: str = "none"
    k: int = 5
    target_ratio: float = 1.0  # minority/majority after sampling
    beta: float = 1.0  # ADASYN balance level
    seed: int = 0

    def __post_init__(self):
        if self.method not in _METHODS:
            raise DataError(f"method must be one of {_METHODS}, got {self.method!r}")
        if self.k < 1:
            raise DataError("k must be >= 1")
        if not (0.0 < self.target_ratio <= 1.0):
            raise DataError("target_ratio must be in (0, 1]")
        if not (0.0 <= self.beta <= 1.0):
            raise DataError("beta must be in [0, 1]")


@dataclass
class Scaler:
    mean: np.ndarray
    sd: np.ndarray  # population sd; 0 marks a constant column

    def transform(self, x: np.ndarray) -> np.ndarray:
        safe = np.where(self.sd == 0.0, 1.0, self.sd)
        z = (np.asarray(x, dtype=np.float64) - self.mean) / safe
        z[:, self.sd == 0.0] = 0.0
        return z

    def inverse(self, z: np.ndarray) -> np.ndarray:
        return np.asarray(z, dtype=np.float64) * self.sd + self.mean


def standardize(x: np.ndarray) -> tuple[np.ndarray, Scaler]:
    """Column z-scores from the given rows; constant columns become 0."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape[0] < 2:
        raise DataError("standardize needs at least 2 rows")
    scaler = Scaler(mean=x.mean(axis=0), sd=x.std(axis=0))
    return scaler.transform(x), scaler


def _interpolate(x: np.ndarray, neighbor: np.ndarray, u: float) -> np.ndarray:
    return x + u * (neighbor - x)


def _exact_sq_dist(q_cols, qi, d_cols, di) -> np.ndarray:
    """Squared distances of pairs (queries[qi], data[di]), given both arrays
    column by column, summed in cKDTree's order: four interleaved
    accumulators over the columns, added left to right, then the tail."""
    dim = len(d_cols)
    body = dim - dim % 4
    acc = [np.zeros(qi.shape[0]) for _ in range(4)]
    for j in range(body):
        diff = q_cols[j][qi] - d_cols[j][di]
        acc[j % 4] += diff * diff
    total = acc[0] + acc[1] + acc[2] + acc[3]
    for j in range(body, dim):
        diff = q_cols[j][qi] - d_cols[j][di]
        total += diff * diff
    return total


def _knn(queries: np.ndarray, data: np.ndarray, k: int) -> np.ndarray:
    """Indices of each query's k nearest data rows, nearest first.

    Query i is data row i, which is never its own neighbor.  Order is by
    the exact squared distance, then by row index, so exact ties go to
    the lower index.  A query with fewer than k other rows is padded with
    index len(data), as cKDTree marks a missing neighbor.

    A BLAS screen |q|^2 + |d|^2 - 2 q.d picks, in bounded row chunks, the
    candidates that can be among the k nearest; only those are summed
    exactly.  Screen bound: with u = 2^-53 and S = |q|^2 + max |d|^2, the
    two norms and the dot product each carry error <= dim*u*S (to first
    order, in any summation order), and the two additions <= 2u*2S, so
    the screen is within E0 = (2*dim + 4)*u*S of the real distance; the
    exact sum, dim squares of rounded differences, is within
    (dim + 2)*u*2S of it.  Let T be a row's k-th smallest screened value.
    The k screened-smallest rows then have exact sums <= T + 2*E0, so the
    k-th exact sum is too, and every row at or below it screens
    <= T + 4*E0.  The code keeps <= T + 4*E with E = (2*dim + 8)*2^-52*S,
    twice that bound.
    """
    n, dim = data.shape
    m = queries.shape[0]
    k_found = min(k, n - 1)
    out = np.full((m, k), n, dtype=np.int64)
    if k_found < 1:
        return out
    q_cols = np.ascontiguousarray(queries.T)
    d_cols = np.ascontiguousarray(data.T)
    data_sq = np.einsum("ij,ij->i", data, data)
    query_sq = np.einsum("ij,ij->i", queries, queries)
    margin = 4.0 * (2 * dim + 8) * np.finfo(np.float64).eps * (query_sq + data_sq.max())
    chunk = max(1, _CHUNK_ENTRIES // n)
    for start in range(0, m, chunk):
        stop = min(m, start + chunk)
        rows = np.arange(stop - start)
        screen = query_sq[start:stop, None] + data_sq[None, :]
        screen -= 2.0 * (queries[start:stop] @ data.T)
        screen[rows, rows + start] = np.inf  # self
        kth = np.partition(screen, k_found - 1, axis=1)[:, k_found - 1]
        limit = kth + margin[start:stop]
        row, col = np.nonzero(screen <= limit[:, None])
        exact = _exact_sq_dist(q_cols, start + row, d_cols, col)
        order = np.lexsort((col, exact, row))
        first = np.searchsorted(row[order], rows)
        out[start:stop, :k_found] = col[order][first[:, None] + np.arange(k_found)]
    return out


def _minority_neighbors(z_minority: np.ndarray, k: int) -> np.ndarray:
    m = z_minority.shape[0]
    if m <= k:
        raise DataError(
            f"minority size {m} must exceed k={k}; rerun with a smaller k"
        )
    return _knn(z_minority, z_minority, k)


def _generate(z_minority, neighbors, counts, rng) -> np.ndarray:
    out = []
    k = neighbors.shape[1]
    for i in range(z_minority.shape[0]):
        for _ in range(int(counts[i])):
            nn = z_minority[neighbors[i][rng.integers(k)]]
            out.append(_interpolate(z_minority[i], nn, rng.random()))
    if not out:
        return np.empty((0, z_minority.shape[1]))
    return np.vstack(out)


def smote(z_minority: np.ndarray, k: int, n_synthetic: int, seed: int) -> np.ndarray:
    """Round-robin SMOTE: every minority point seeds floor(n/m) synthetics,
    the remainder goes to a seeded random subset without replacement."""
    z_minority = np.asarray(z_minority, dtype=np.float64)
    neighbors = _minority_neighbors(z_minority, k)
    if n_synthetic <= 0:
        return np.empty((0, z_minority.shape[1]))
    m = z_minority.shape[0]
    rng = np.random.default_rng(seed)
    base, rem = divmod(n_synthetic, m)
    counts = np.full(m, base, dtype=np.int64)
    if rem:
        counts[rng.permutation(m)[:rem]] += 1
    return _generate(z_minority, neighbors, counts, rng)


def _round_half_up(v: float) -> int:
    return int(math.floor(v + 0.5))


def adasyn_allocation(
    z_minority: np.ndarray, z_majority: np.ndarray, k: int, beta: float
) -> np.ndarray:
    """Per-seed synthetic counts: G = (|maj|-|min|)*beta distributed as
    g_i = round(r_hat_i * G), where r_hat_i is the normalized share of
    majority points among x_i's k nearest neighbors in the full split."""
    z_minority = np.asarray(z_minority, dtype=np.float64)
    z_majority = np.asarray(z_majority, dtype=np.float64)
    if z_majority.shape[0] == 0:
        raise DataError("adasyn needs a non-empty majority class")
    m = z_minority.shape[0]
    g_total = (z_majority.shape[0] - m) * beta
    if g_total <= 0:
        return np.zeros(m, dtype=np.int64)

    full = np.vstack([z_minority, z_majority])  # minority indices 0..m-1
    delta = (_knn(z_minority, full, k) >= m).sum(axis=1)
    r = delta / k
    total = r.sum()
    r_hat = np.full(m, 1.0 / m) if total == 0.0 else r / total
    return np.array([_round_half_up(rh * g_total) for rh in r_hat], dtype=np.int64)


def adasyn(
    z_minority: np.ndarray,
    z_majority: np.ndarray,
    k: int,
    beta: float,
    seed: int,
) -> np.ndarray:
    z_minority = np.asarray(z_minority, dtype=np.float64)
    counts = adasyn_allocation(z_minority, z_majority, k, beta)
    if counts.sum() == 0:
        return np.empty((0, z_minority.shape[1]))
    neighbors = _minority_neighbors(z_minority, k)
    rng = np.random.default_rng(seed)
    return _generate(z_minority, neighbors, counts, rng)


def minority_label(y: np.ndarray) -> int:
    """The rarer of the two labels; a tie counts the accepted class (1)."""
    ones = int(np.sum(y == 1))
    zeros = int(y.shape[0]) - ones
    return 1 if ones <= zeros else 0


def apply_plan(
    x: np.ndarray, y: np.ndarray, plan: ResamplePlan
) -> tuple[np.ndarray, np.ndarray]:
    """Oversample the minority class of a TRAINING split per the plan.

    Original rows come back first and unchanged; synthetics follow with
    the minority label, in raw feature units.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y)
    if plan.method == "none":
        return x.copy(), y.copy()

    label = minority_label(y)
    min_mask = y == label
    n_min = int(min_mask.sum())
    n_maj = int((~min_mask).sum())
    if n_min == 0 or n_maj == 0:
        raise DataError("both classes must be present to resample")

    z, scaler = standardize(x)
    z_min = z[min_mask]
    z_maj = z[~min_mask]

    if plan.method == "smote":
        target = _round_half_up(plan.target_ratio * n_maj)
        synth_z = smote(z_min, plan.k, target - n_min, plan.seed)
    else:
        synth_z = adasyn(z_min, z_maj, plan.k, plan.beta, plan.seed)

    if synth_z.shape[0] == 0:
        return x.copy(), y.copy()
    synth_x = scaler.inverse(synth_z)
    x_out = np.vstack([x, synth_x])
    y_out = np.concatenate([y, np.full(synth_z.shape[0], label, dtype=y.dtype)])
    return x_out, y_out
