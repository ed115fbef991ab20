"""Pre-modeling feature filter: correlation pruning plus information gain.

Information gain of a feature against the binary label is estimated with
the Ross (2014) nearest-neighbor estimator for discrete-continuous
mutual information, reported in bits.  Features are then pruned in two
passes: highly correlated pairs lose their lower-IG member, and whatever
remains must clear an IG floor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError

# fixed internal seed for the tie-breaking jitter: estimates are
# reproducible across runs and thread counts
_JITTER_SEED = 0x5EED


@dataclass
class CorrelationMatrix:
    names: tuple[str, ...]
    r: np.ndarray  # symmetric, diag 1
    zero_variance: tuple[str, ...] = ()


@dataclass
class SelectionResult:
    retained: list[str]
    dropped: list[tuple[str, str]]  # (feature, reason)


def pearson_matrix(x: np.ndarray, names: tuple[str, ...]) -> CorrelationMatrix:
    """Pairwise sample Pearson r; a zero-variance column gets r = 0."""
    if x.shape[0] < 2:
        raise DataError("pearson_matrix needs at least 2 rows")
    x = np.asarray(x, dtype=np.float64)
    centered = x - x.mean(axis=0)
    sd = np.sqrt((centered**2).mean(axis=0))
    safe_sd = np.where(sd == 0.0, 1.0, sd)
    z = centered / safe_sd
    r = z.T @ z / x.shape[0]
    flat = sd == 0.0
    r[flat, :] = 0.0
    r[:, flat] = 0.0
    np.fill_diagonal(r, 1.0)
    r = np.clip(r, -1.0, 1.0)
    return CorrelationMatrix(
        names=tuple(names), r=r, zero_variance=tuple(np.asarray(names)[flat])
    )


# Cephes `psi` asymptotic-series coefficients, highest order first
_PSI_A = (
    8.33333333333333333333e-2,
    -2.10927960927960927961e-2,
    7.57575757575757575758e-3,
    -4.16666666666666666667e-3,
    3.96825396825396825397e-3,
    -8.33333333333333333333e-3,
    8.33333333333333333333e-2,
)
_EULER = 0.57721566490153286061


def _psi(n: int) -> float:
    """Digamma of a positive integer, as Cephes `psi` evaluates it.

    Up to 10 it is the harmonic sum minus Euler's constant; above, the
    asymptotic series log(n) - 1/(2n) - z*A(z) with z = 1/n^2.
    """
    if n <= 10:
        y = 0.0
        for i in range(1, n):
            y += 1.0 / i
        return y - _EULER
    x = float(n)
    z = 1.0 / (x * x)
    poly = _PSI_A[0]
    for coef in _PSI_A[1:]:
        poly = poly * z + coef
    return math.log(x) - 0.5 / x - z * poly


def _psi_of(counts: np.ndarray) -> np.ndarray:
    """_psi elementwise over positive integers, once per distinct value."""
    values, inverse = np.unique(counts, return_inverse=True)
    return np.array([_psi(int(v)) for v in values])[inverse]


def _kth_gap(sub: np.ndarray, k: int) -> np.ndarray:
    """Per point, the distance |x_j - x_i| to its k-th nearest other point.

    In one dimension the k nearest others of the point at sorted position
    p are among the k on either side, so the answer is the k-th smallest
    of the 2k gaps s[p+t] - s[p] and s[p] - s[p-t], t = 1..k.
    """
    order = np.argsort(sub, kind="stable")
    s = sub[order]
    m = s.shape[0]
    gaps = np.full((m, 2 * k), np.inf)
    for t in range(1, k + 1):
        gap = s[t:] - s[:-t]
        gaps[:-t, t - 1] = gap  # right neighbor t places up
        gaps[t:, k + t - 1] = gap  # left neighbor t places down
    kth = np.empty(m)
    kth[order] = np.partition(gaps, k - 1, axis=1)[:, k - 1]
    return kth


def _count_within(x: np.ndarray, radius: np.ndarray) -> np.ndarray:
    """Per point i, how many points j (i included) have |x_j - x_i| <= r_i.

    Binary search on x_i -+ r_i only approximates the bounds, because the
    sums round.  Each end then steps, one distinct value at a time, until
    the exact predicate holds just inside it and fails just outside; the
    predicate is monotone on each side of x_i, which itself always holds.
    """
    order = np.argsort(x, kind="stable")
    s = x[order]  # the points double as sorted queries
    r = radius[order]
    n = s.shape[0]
    lo = np.searchsorted(s, s - r, "left")  # <= the first copy of s[i]
    hi = np.searchsorted(s, s + r, "right")  # > the last copy of s[i]
    while True:
        grow_lo = (lo > 0) & (np.abs(s[np.maximum(lo - 1, 0)] - s) <= r)
        cut_lo = np.abs(s[lo] - s) > r
        cut_hi = np.abs(s[hi - 1] - s) > r
        grow_hi = (hi < n) & (np.abs(s[np.minimum(hi, n - 1)] - s) <= r)
        if not (grow_lo | cut_lo | cut_hi | grow_hi).any():
            break
        i = np.flatnonzero(grow_lo)
        lo[i] = np.searchsorted(s, s[lo[i] - 1], "left")
        i = np.flatnonzero(cut_lo)
        lo[i] = np.searchsorted(s, s[lo[i]], "right")
        i = np.flatnonzero(cut_hi)
        hi[i] = np.searchsorted(s, s[hi[i] - 1], "left")
        i = np.flatnonzero(grow_hi)
        hi[i] = np.searchsorted(s, s[hi[i]], "right")
    within = np.empty(n, dtype=np.int64)
    within[order] = hi - lo
    return within


def mutual_information(x: np.ndarray, y: np.ndarray, k: int) -> float:
    """Nearest-neighbor discrete-continuous MI estimate, in bits.

    Per point: the radius is just under the distance to its k-th nearest
    neighbor of the same label; psi(N) + psi(k) - <psi(label count)> -
    <psi(points within radius)> estimates MI in nats.  A tiny seeded
    jitter breaks ties so the radii are well defined on integer-valued
    columns.  Negative estimates clamp to 0.  The data is one-dimensional,
    so the neighbor searches sort instead of building a tree.
    """
    x = np.asarray(x, dtype=np.float64).ravel().copy()
    y = np.asarray(y).ravel()
    n = x.shape[0]
    classes, counts = np.unique(y, return_counts=True)
    if classes.shape[0] < 2:
        raise DataError("mutual_information needs both classes present")
    if n < 3 * k:
        raise DataError(f"mutual_information needs n >= 3k ({n} < {3 * k})")

    rng = np.random.default_rng(_JITTER_SEED)
    scale = max(1.0, float(np.mean(np.abs(x))))
    x = x + 1e-10 * scale * rng.standard_normal(n)

    radius = np.empty(n)
    k_point = np.empty(n, dtype=np.int64)
    label_count = np.empty(n, dtype=np.int64)
    usable = np.zeros(n, dtype=bool)
    for cls, count in zip(classes, counts):
        mask = y == cls
        label_count[mask] = count
        if count <= 1:
            continue  # no same-label neighbor exists; point is excluded
        k_eff = min(k, count - 1)
        radius[mask] = np.nextafter(_kth_gap(x[mask], k_eff), 0)
        k_point[mask] = k_eff
        usable[mask] = True

    if not usable.any():
        raise DataError("mutual_information: no class has 2 or more samples")
    within = _count_within(x[usable], radius[usable])
    nats = (
        _psi(int(usable.sum()))
        + float(np.mean(_psi_of(k_point[usable])))
        - float(np.mean(_psi_of(label_count[usable])))
        - float(np.mean(_psi_of(within)))
    )
    return max(0.0, nats / math.log(2))


def info_gain_table(
    x: np.ndarray, y: np.ndarray, names: tuple[str, ...], k: int
) -> dict[str, float]:
    return {name: mutual_information(x[:, i], y, k=k) for i, name in enumerate(names)}


def select_from_stats(
    names: tuple[str, ...],
    corr: np.ndarray,
    ig: dict[str, float],
    r_threshold: float,
    ig_threshold: float,
) -> SelectionResult:
    """Apply the two pruning rules to precomputed statistics.

    Pairs with |r| >= r_threshold are taken strongest first, ties by
    name, and the member with the smaller IG is dropped (equal IG drops
    the lexicographically later name); a pair that has already lost a
    member is skipped.  A drop changes no other pair's key, so one sort
    gives the order that rescanning after every drop would.  Survivors
    must then satisfy IG > ig_threshold.
    """
    names = tuple(names)
    r = np.abs(np.asarray(corr, dtype=np.float64))
    pairs = sorted(
        (-float(r[i, j]), a, b)
        for i, a in enumerate(names)
        for j, b in enumerate(names)
        if a < b and r[i, j] >= r_threshold
    )
    retained = set(names)
    dropped: list[tuple[str, str]] = []
    for _, a, b in pairs:
        if a not in retained or b not in retained:
            continue
        if ig[a] < ig[b] or (ig[a] == ig[b] and a > b):
            loser, keeper = a, b
        else:
            loser, keeper = b, a
        retained.discard(loser)
        dropped.append((loser, f"correlated-with:{keeper}"))

    for name in names:
        if name in retained and ig[name] <= ig_threshold:
            retained.discard(name)
            dropped.append((name, "low-ig"))

    return SelectionResult(
        retained=[n for n in names if n in retained], dropped=dropped
    )


def select_features(
    x: np.ndarray,
    y: np.ndarray,
    names: tuple[str, ...],
    r_threshold: float,
    ig_threshold: float,
    k: int,
) -> dict:
    """The selection.json payload: thresholds, statistics and outcome."""
    corr = pearson_matrix(x, names)
    ig = info_gain_table(x, y, names, k)
    result = select_from_stats(names, corr.r, ig, r_threshold, ig_threshold)
    return {
        "thresholds": {"correlation": r_threshold, "info_gain": ig_threshold},
        "info_gain_bits": ig,
        "correlation": {
            "names": list(corr.names),
            "matrix": [[float(v) for v in row] for row in corr.r],
            "zero_variance": list(corr.zero_variance),
        },
        "retained": result.retained,
        "dropped": [{"feature": f, "reason": r} for f, r in result.dropped],
    }
