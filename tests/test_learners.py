import dataclasses

import numpy as np
import pytest

from _synth import make_blobs, make_planted
from soaccept import learners
from soaccept.errors import DataError
from soaccept.forest import RfParams, fit_forest
from soaccept.learners import (
    SearchSpace,
    SplitSpec,
    normalized_importance_report,
    permutation_importance,
    random_search,
    split_indices,
    stratified_kfold,
)
from soaccept.mlp import MlpConfig, fit_mlp
from soaccept.resample import ResamplePlan


def test_split_takes_floor_of_fraction():
    train, test = split_indices(10, SplitSpec(train_fraction=0.7, seed=0))
    assert train.size == 7 and test.size == 3


def test_split_sizes_at_corpus_scale():
    train, test = split_indices(249588, SplitSpec(train_fraction=0.7, seed=1))
    assert train.size == 174711
    assert test.size == 74877


def test_split_partitions_all_rows():
    train, test = split_indices(101, SplitSpec(seed=4))
    both = np.concatenate([train, test])
    assert np.array_equal(np.sort(both), np.arange(101))
    assert np.array_equal(train, np.sort(train))


def test_split_is_seeded():
    a1, _ = split_indices(50, SplitSpec(seed=7))
    a2, _ = split_indices(50, SplitSpec(seed=7))
    b, _ = split_indices(50, SplitSpec(seed=8))
    assert np.array_equal(a1, a2)
    assert not np.array_equal(a1, b)


def test_split_train_test_shapes():
    x, y = make_blobs(40, seed=1)
    train, test = split_indices(len(y), SplitSpec(seed=2))
    x_tr, y_tr, x_te, y_te = x[train], y[train], x[test], y[test]
    assert x_tr.shape == (28, 2) and y_tr.shape == (28,)
    assert x_te.shape == (12, 2) and y_te.shape == (12,)


def test_split_spec_validation():
    with pytest.raises(DataError, match="train_fraction must lie strictly between 0 and 1"):
        SplitSpec(train_fraction=0.0)
    with pytest.raises(DataError, match="train_fraction must lie strictly between 0 and 1"):
        SplitSpec(train_fraction=1.0)
    with pytest.raises(DataError, match="need at least 2 rows to split"):
        split_indices(1, SplitSpec())


def test_stratified_folds_partition_and_balance():
    y = np.array([0] * 9 + [1] * 15)
    folds = stratified_kfold(y, 4, seed=0)
    assert np.array_equal(np.sort(np.concatenate(folds)), np.arange(24))
    for label, total in ((0, 9), (1, 15)):
        counts = [int(np.sum(y[f] == label)) for f in folds]
        assert sum(counts) == total
        assert max(counts) - min(counts) <= 1
    again = stratified_kfold(y, 4, seed=0)
    for a, b in zip(folds, again):
        assert np.array_equal(a, b)


def _folds_by_dealing(y, n_folds, seed):
    """Stratified folds dealt out row by row: each label's rows, in one
    permutation each, go round-robin to the folds."""
    rng = np.random.default_rng(seed)
    folds = [[] for _ in range(n_folds)]
    for label in np.unique(y):
        members = np.nonzero(y == label)[0]
        for i, row in enumerate(members[rng.permutation(members.size)]):
            folds[i % n_folds].append(int(row))
    return [np.sort(np.asarray(f, dtype=np.int64)) for f in folds]


def test_stratified_folds_match_round_robin_dealing():
    rng = np.random.default_rng(45)
    for case in range(500):
        n = int(rng.integers(2, 300))
        y = rng.integers(0, int(rng.integers(1, 4)), n).astype(np.int8)
        n_folds = int(rng.integers(2, min(n, 10) + 1))
        folds = stratified_kfold(y, n_folds, seed=case)
        expected = _folds_by_dealing(y, n_folds, seed=case)
        assert len(folds) == n_folds
        for got, want in zip(folds, expected):
            assert got.dtype == np.int64
            assert np.array_equal(got, want)


def test_stratified_folds_validation():
    with pytest.raises(DataError, match="n_folds must be >= 2"):
        stratified_kfold(np.array([0, 1]), 1, seed=0)
    with pytest.raises(DataError, match="more folds than rows"):
        stratified_kfold(np.array([0, 1]), 3, seed=0)


def test_search_space_validation():
    with pytest.raises(DataError, match="search space field n_estimators must not be empty"):
        SearchSpace(n_estimators=())
    with pytest.raises(DataError, match="n_iterations must be >= 1"):
        SearchSpace(n_iterations=0)
    with pytest.raises(DataError, match="cv_folds must be >= 2"):
        SearchSpace(cv_folds=1)
    with pytest.raises(DataError, match="max_features must be 'sqrt', 'all'"):
        SearchSpace(max_features=("sqrt", "auto"))
    with pytest.raises(DataError, match="min_samples_split must be >= 2"):
        SearchSpace(min_samples_split=(1, 2))


TINY_SPACE = SearchSpace(
    n_estimators=(5, 10),
    max_depth=(3,),
    min_samples_split=(2,),
    min_samples_leaf=(1,),
    max_features=("all",),
    n_iterations=5,
    cv_folds=3,
    seed=0,
)


def test_random_search_returns_member_of_space():
    x, y = make_planted(120, seed=1, n_noise=1)
    best, search = random_search(x, y, TINY_SPACE, ResamplePlan())
    assert best.n_estimators in (5, 10)
    assert best.max_depth == 3
    assert len(search["trials"]) == 5
    for trial in search["trials"]:
        assert len(trial["fold_accuracies"]) == 3
    best_mean = max(t["mean_accuracy"] for t in search["trials"])
    assert any(
        t["mean_accuracy"] == best_mean
        and t["params"]["n_estimators"] == best.n_estimators
        for t in search["trials"]
    )


def test_repeated_draws_reuse_scores():
    x, y = make_planted(90, seed=2, n_noise=1)
    _, search = random_search(x, y, TINY_SPACE, ResamplePlan())
    by_params: dict = {}
    for trial in search["trials"]:
        key = tuple(sorted(trial["params"].items()))
        if key in by_params:
            assert trial["fold_accuracies"] == by_params[key]
        else:
            by_params[key] = trial["fold_accuracies"]


def test_search_is_deterministic():
    x, y = make_planted(90, seed=3, n_noise=1)
    best_a, search_a = random_search(x, y, TINY_SPACE, ResamplePlan())
    best_b, search_b = random_search(x, y, TINY_SPACE, ResamplePlan())
    assert best_a == best_b
    assert search_a["trials"] == search_b["trials"]
    # two values in each of the six grids: the draws depend only on the
    # seed and the grids, one value per grid in the forest's field order
    space = SearchSpace(n_estimators=(3, 5), max_depth=(2, 4), min_samples_split=(2, 4),
                        min_samples_leaf=(1, 2), max_features=("sqrt", "all"),
                        bootstrap=(True, False), n_iterations=6, cv_folds=2, seed=0)
    drawn = [t["params"] for t in random_search(x, y, space, ResamplePlan())[1]["trials"]]
    settings = [f.name for f in dataclasses.fields(RfParams) if f.name != "seed"]
    assert [list(params) for params in drawn] == [settings] * 6
    assert drawn == [
        {"n_estimators": 3, "max_depth": 2, "min_samples_split": 4, "min_samples_leaf": 2,
         "max_features": "sqrt", "bootstrap": True},
        {"n_estimators": 5, "max_depth": 4, "min_samples_split": 4, "min_samples_leaf": 2,
         "max_features": "all", "bootstrap": False},
        {"n_estimators": 5, "max_depth": 2, "min_samples_split": 2, "min_samples_leaf": 1,
         "max_features": "all", "bootstrap": False},
        {"n_estimators": 3, "max_depth": 2, "min_samples_split": 2, "min_samples_leaf": 2,
         "max_features": "all", "bootstrap": False},
        {"n_estimators": 5, "max_depth": 4, "min_samples_split": 4, "min_samples_leaf": 2,
         "max_features": "sqrt", "bootstrap": True},
        {"n_estimators": 5, "max_depth": 4, "min_samples_split": 2, "min_samples_leaf": 2,
         "max_features": "all", "bootstrap": False},
    ]


def test_ties_prefer_fewer_then_shallower_trees():
    # constant features make every configuration score identically
    x = np.zeros((24, 2))
    y = np.array([0, 1] * 12)
    space = SearchSpace(
        n_estimators=(10, 5),
        max_depth=(4, 2),
        min_samples_split=(2,),
        min_samples_leaf=(1,),
        max_features=("all",),
        n_iterations=16,
        cv_folds=3,
        seed=1,
    )
    best, search = random_search(x, y, space, ResamplePlan())
    sampled = {(t["params"]["n_estimators"], t["params"]["max_depth"])
               for t in search["trials"]}
    assert sampled == {(5, 2), (5, 4), (10, 2), (10, 4)}
    scores = {t["mean_accuracy"] for t in search["trials"]}
    assert len(scores) == 1
    assert best.n_estimators == 5
    assert best.max_depth == 2


def test_search_resamples_inside_folds():
    # imbalanced data still searches cleanly with smote turned on
    x, y = make_planted(80, seed=4, n_noise=1)
    y[: int(0.75 * 80)] = 0
    plan = ResamplePlan(method="smote", k=3, target_ratio=1.0, seed=9)
    best, _ = random_search(x, y, TINY_SPACE, plan)
    assert best.n_estimators in (5, 10)


def test_search_resamples_each_fold_once(monkeypatch):
    # a fold's training rows and plan seed are the same for every draw
    seeds = []
    original = learners.apply_plan

    def counting(x, y, plan):
        seeds.append(plan.seed)
        return original(x, y, plan)

    monkeypatch.setattr(learners, "apply_plan", counting)
    x, y = make_planted(90, seed=2, n_noise=1)
    _, search = random_search(x, y, TINY_SPACE, ResamplePlan())
    assert len({tuple(sorted(t["params"].items())) for t in search["trials"]}) > 1
    assert len(seeds) == len(set(seeds)) == TINY_SPACE.cv_folds


def _step_predictor(x):
    # class-1 score driven entirely by column 0
    return (np.asarray(x)[:, 0] > 0).astype(float)


def test_permutation_importance_finds_the_live_column():
    rng = np.random.default_rng(5)
    x = rng.standard_normal((400, 3))
    y = (x[:, 0] > 0).astype(np.int64)
    drops = permutation_importance(_step_predictor, x, y, seed=0, n_rounds=5)
    assert drops[0] > 0.3
    assert drops[1] < 0.05 and drops[2] < 0.05
    again = permutation_importance(_step_predictor, x, y, seed=0, n_rounds=5)
    assert np.array_equal(drops, again)


def test_drop_within_the_noise_floor_counts_as_none():
    # column 0 is the label with 20 of 400 rows flipped; column 1 corrects
    # 2 of them, so shuffling it costs about 4 rows, a 0.01 drop, below the
    # floor 2 * sqrt(base * (1 - base) / n) = 0.021 at base accuracy 0.955
    y = np.tile([1, 0], 200)
    x = np.zeros((400, 2))
    x[:, 0] = y
    x[:20, 0] = 1 - y[:20]
    x[:2, 1] = 1
    drops = permutation_importance(lambda m: np.abs(m[:, 0] - m[:, 1]), x, y,
                                   seed=0, n_rounds=5)
    assert drops[0] > 0.3
    assert drops[1] == 0.0


def test_permutation_importance_clamps_negative_drops():
    rng = np.random.default_rng(6)
    x = rng.standard_normal((100, 2))
    y = (rng.random(100) < 0.5).astype(np.int64)
    drops = permutation_importance(_step_predictor, x, y, seed=1, n_rounds=5)
    assert (drops >= 0).all()


def _noise_models(n=300, d=8, seed=7):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, d))
    y = (rng.random(n) < 0.5).astype(np.int64)
    forest = fit_forest(x, y, RfParams(n_estimators=5, max_depth=4, seed=1))
    net = fit_mlp(x, y, MlpConfig(hidden=(8, 6, 5, 4, 3), learning_rate=0.1,
                                  batch_size=32, epochs=20, seed=2))
    return x, y, forest, net


def test_report_columns_sum_to_one():
    x, y, forest, net = _noise_models()
    # normalized weights whose float sum is not exactly 1.0: dividing them
    # by it again would change them in the last digit
    raw = np.arange(1, 9) * 2 + 0.1
    forest = dataclasses.replace(forest, importances=raw / raw.sum())
    assert forest.importances.sum() != 1.0
    report = normalized_importance_report(
        [f"f{i}" for i in range(8)], forest, net, x, y, seed=3, n_rounds=5)
    assert set(report) == {"names", "forest", "mlp"}
    assert report["forest"] == forest.importances.tolist()
    assert abs(sum(report["forest"]) - 1.0) < 1e-9
    assert abs(sum(report["mlp"]) - 1.0) < 1e-9
    assert len(report["names"]) == 8


def test_noise_features_stay_near_uniform():
    x, y, forest, net = _noise_models()
    report = normalized_importance_report(
        [f"f{i}" for i in range(8)], forest, net, x, y, seed=4, n_rounds=5)
    assert max(report["mlp"]) - min(report["mlp"]) < 0.1


def test_report_name_count_must_match():
    x, y, forest, net = _noise_models()
    with pytest.raises(DataError, match="feature-name count"):
        normalized_importance_report(["a", "b"], forest, net, x, y, seed=0, n_rounds=5)
