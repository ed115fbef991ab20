"""Train/test splitting, randomized hyperparameter search, importances.

The split keeps floor(n * fraction) rows for training under a seeded
permutation.  The search draws forest configurations uniformly, one
value from each forest setting's grid, and scores each with stratified
k-fold cross-validation, rebalancing inside every training fold so no
synthetic point ever leaks into validation.  Score ties prefer fewer
trees, then shallower ones, then the earlier draw.  The search returns
the winning forest settings and the document that search.json holds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .codec import settings_of
from .errors import DataError
from .forest import ForestModel, RfParams, fit_forest, forest_predict_proba
from .mlp import MlpModel, mlp_predict_proba
from .resample import ResamplePlan, apply_plan
from .seeding import derive_seed


@dataclass(frozen=True)
class SplitSpec:
    train_fraction: float = 0.7
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.train_fraction < 1.0:
            raise DataError("train_fraction must lie strictly between 0 and 1")


def split_indices(n: int, spec: SplitSpec):
    """Disjoint (train, test) row indices; train gets floor(n * fraction)."""
    if n < 2:
        raise DataError("need at least 2 rows to split")
    n_train = math.floor(n * spec.train_fraction)
    if n_train == 0 or n_train == n:
        raise DataError("split leaves one side empty; adjust train_fraction")
    perm = np.random.default_rng(spec.seed).permutation(n)
    return np.sort(perm[:n_train]), np.sort(perm[n_train:])


# one grid per forest setting, in RfParams's field order, which is the draw order
_GRIDS = tuple(settings_of(RfParams))


@dataclass(frozen=True)
class SearchSpace:
    """Candidate grid for the randomized forest search."""

    n_estimators: tuple = (100, 200, 300, 400, 500, 600, 700, 800, 900, 1000, 1100, 1200)
    max_depth: tuple = (10, 21, 32, 43, 54, 65, 76, 87, 98, 110)
    min_samples_split: tuple = (2, 3, 5, 8, 10)
    min_samples_leaf: tuple = (1, 2, 3, 5)
    max_features: tuple = ("sqrt",)
    bootstrap: tuple = (True,)
    n_iterations: int = 100
    cv_folds: int = 4
    seed: int = 0

    def __post_init__(self):
        for name in _GRIDS:
            if len(getattr(self, name)) == 0:
                raise DataError(f"search space field {name} must not be empty")
            for value in getattr(self, name):
                RfParams(**{name: value})  # the forest's own range checks
        if self.n_iterations < 1:
            raise DataError("n_iterations must be >= 1")
        if self.cv_folds < 2:
            raise DataError("cv_folds must be >= 2")


def stratified_kfold(y, n_folds: int, seed: int):
    """Validation-fold index arrays with per-class round-robin dealing."""
    y = np.asarray(y)
    if n_folds < 2:
        raise DataError("n_folds must be >= 2")
    if n_folds > y.size:
        raise DataError("more folds than rows")
    rng = np.random.default_rng(seed)
    folds = [[] for _ in range(n_folds)]
    for label in np.unique(y):
        members = np.nonzero(y == label)[0]
        for i, row in enumerate(members[rng.permutation(members.size)]):
            folds[i % n_folds].append(int(row))
    return [np.sort(np.asarray(f, dtype=np.int64)) for f in folds]


def _cv_score(combo: dict, fold_sets, space: SearchSpace):
    key = ":".join(str(combo[k]) for k in sorted(combo))
    accuracies = []
    for fi, (x_fit, y_fit, x_val, y_val) in enumerate(fold_sets):
        params = RfParams(seed=derive_seed(space.seed, f"fit:{key}:fold:{fi}"), **combo)
        model = fit_forest(x_fit, y_fit, params)
        pred = (forest_predict_proba(model, x_val) >= 0.5).astype(np.int64)
        accuracies.append(float(np.mean(pred == y_val)))
    return accuracies


def random_search(x, y, space: SearchSpace, plan: ResamplePlan):
    """Uniformly sample configurations and rank them by mean CV accuracy:
    the winner's `RfParams`, and search.json's document, the winner's
    settings as ``best`` and one dict per draw, in draw order, as
    ``trials``.

    Each draw takes one value from each of the space's grids, one per
    forest setting, in the forest's field order.  Each fold is resampled
    once, since its training rows and plan seed are the same for every
    draw, and repeated draws reuse the cached score.  The winner is the
    highest mean accuracy; exact ties fall to fewer trees, then lower
    depth, then the first trial.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y)
    folds = stratified_kfold(y, space.cv_folds, derive_seed(space.seed, "cv-folds"))
    all_rows = np.arange(x.shape[0])
    fold_sets = []  # per fold: resampled training rows, then validation rows
    for fi, val_idx in enumerate(folds):
        train_idx = np.setdiff1d(all_rows, val_idx, assume_unique=True)
        fold_plan = replace(plan, seed=derive_seed(plan.seed, f"cv-fold:{fi}"))
        fit_rows = apply_plan(x[train_idx], y[train_idx], fold_plan)
        fold_sets.append((*fit_rows, x[val_idx], y[val_idx]))
    rng = np.random.default_rng(derive_seed(space.seed, "search"))
    grids = [(name, getattr(space, name)) for name in _GRIDS]
    cache: dict = {}
    trials = []
    for _ in range(space.n_iterations):
        combo = {name: grid[int(rng.integers(len(grid)))] for name, grid in grids}
        cache_key = tuple(sorted(combo.items()))
        if cache_key not in cache:
            cache[cache_key] = _cv_score(combo, fold_sets, space)
        accuracies = cache[cache_key]
        trials.append({"params": combo, "fold_accuracies": list(accuracies),
                       "mean_accuracy": float(np.mean(accuracies))})
    winner = min(trials, key=lambda t: (-t["mean_accuracy"], t["params"]["n_estimators"],
                                        t["params"]["max_depth"]))
    best = RfParams(seed=derive_seed(space.seed, "best"), **winner["params"])
    return best, {"best": winner["params"], "trials": trials}


def permutation_importance(predict_proba, x, y, seed: int, n_rounds: int):
    """Mean accuracy drop when one column is shuffled.

    A drop at or below two binomial standard errors of the base accuracy,
    2 * sqrt(base * (1 - base) / n), is what resampling the test rows
    would give, and counts as 0.  Each column gets its own derived
    generator, so scores do not depend on evaluation order.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y)
    n, d = x.shape
    base = float(np.mean((predict_proba(x) >= 0.5).astype(np.int64) == y))
    drops = np.zeros(d)
    for j in range(d):
        rng = np.random.default_rng(derive_seed(seed, f"perm:{j}"))
        acc = 0.0
        for _ in range(n_rounds):
            xp = x.copy()
            xp[:, j] = xp[rng.permutation(n), j]
            acc += float(np.mean((predict_proba(xp) >= 0.5).astype(np.int64) == y))
        drops[j] = base - acc / n_rounds
    floor = 2.0 * math.sqrt(base * (1.0 - base) / n)
    return np.where(drops > floor, drops, 0.0)


def _normalize(values) -> np.ndarray:
    values = np.asarray(values, dtype=np.float64)
    total = float(values.sum())
    if total <= 1e-12:
        return np.full(values.size, 1.0 / values.size)
    return values / total


def normalized_importance_report(
    names,
    forest_model: ForestModel,
    mlp_model: MlpModel,
    x_test,
    y_test,
    seed: int,
    n_rounds: int,
) -> dict:
    """Per-feature weight columns for both models, each summing to 1, as
    metrics.json's ``importance`` section holds them: ``names``, then
    ``forest``, its mean impurity decrease as `fit_forest` normalized it,
    and ``mlp``, the network's normalized seeded permutation importance
    on the test split.
    """
    names = list(names)
    if len(names) != forest_model.n_features or len(names) != mlp_model.n_features:
        raise DataError("feature-name count does not match the models")
    drops = permutation_importance(
        lambda m: mlp_predict_proba(mlp_model, m), x_test, y_test,
        seed=derive_seed(seed, "mlp-permutation"), n_rounds=n_rounds,
    )
    return {
        "names": names,
        "forest": forest_model.importances.tolist(),
        "mlp": _normalize(drops).tolist(),
    }
