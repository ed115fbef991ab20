import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _synth import make_planted
from soaccept.errors import DataError, StageError
from soaccept.forest import (
    _best_split,
    DecisionTree,
    ForestModel,
    RfParams,
    fit_forest,
    fit_tree,
    forest_predict_proba,
    load_forest,
    n_sub_features,
    save_forest,
    tree_predict_proba1,
)

ALL = RfParams(max_features="all", min_samples_split=2, min_samples_leaf=1,
               max_depth=10, n_estimators=1)


@pytest.mark.parametrize(
    "left, right, impurity",
    [
        ([0, 0, 0, 0], [1, 1], 0.0),  # two pure children
        ([0, 1], [1, 1, 1, 0], (2 * 0.5 + 4 * 0.375) / 6),  # Gini 0.5 and 0.375
    ],
    ids=["pure", "mixed"],
)
def test_best_split_weighs_child_gini_impurities(left, right, impurity):
    # one feature with two values, so the only cut separates `left` from `right`
    x = np.array([[0.0]] * len(left) + [[1.0]] * len(right))
    y = np.array(left + right)
    assert _best_split(x, y, np.arange(y.size), [0], 1) == (impurity, 0, 0.5)


def _argsort_best_split(x, y, idx, feats, min_leaf):
    """The split search written with a stable argsort and a running label
    count, which the sort-based one must reproduce bit for bit."""
    y_node = y[idx]
    total, total1 = idx.size, int(y_node.sum())
    best = None
    for f in feats:
        vals = x[idx, f]
        order = np.argsort(vals, kind="stable")
        sv, sy = vals[order], y_node[order]
        n_l = np.arange(1, total)
        ok = (sv[1:] != sv[:-1]) & (n_l >= min_leaf) & (total - n_l >= min_leaf)
        if not ok.any():
            continue
        pos = np.nonzero(ok)[0]
        n_l, n_r = pos + 1, total - pos - 1
        ones_l = np.cumsum(sy)[pos]
        ones_r = total1 - ones_l
        g_l = 1.0 - (ones_l / n_l) ** 2 - ((n_l - ones_l) / n_l) ** 2
        g_r = 1.0 - (ones_r / n_r) ** 2 - ((n_r - ones_r) / n_r) ** 2
        w = (n_l * g_l + n_r * g_r) / total
        j = int(np.argmin(w))
        if best is None or w[j] < best[0]:
            best = (float(w[j]), int(f), float((sv[pos[j]] + sv[pos[j] + 1]) / 2.0))
    return best


@pytest.mark.parametrize("seed", range(40))
def test_best_split_matches_argsort_reference(seed):
    # few distinct values, so most cuts sit between runs of ties
    rng = np.random.default_rng(seed)
    n, d = int(rng.integers(2, 120)), int(rng.integers(1, 5))
    x = np.round(rng.standard_normal((n, d)) * 2, int(rng.integers(0, 2)))
    x[rng.random((n, d)) < 0.05] = np.inf
    y = (rng.random(n) < rng.random()).astype(np.int8)
    idx = rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False)
    min_leaf = int(rng.integers(1, 6))
    feats = np.arange(d)
    assert _best_split(x, y, idx, feats, min_leaf) == _argsort_best_split(x, y, idx, feats,
                                                                          min_leaf)


def test_nan_features_are_rejected():
    x = np.array([[0.0], [np.nan], [1.0], [2.0]])
    with pytest.raises(DataError, match="NaN"):
        fit_tree(x, np.array([0, 1, 0, 1]), ALL)
    with pytest.raises(DataError, match="NaN"):
        fit_forest(x, np.array([0, 1, 0, 1]), RfParams(n_estimators=2))


def test_params_validation():
    with pytest.raises(DataError, match="n_estimators must be >= 1"):
        RfParams(n_estimators=0)
    with pytest.raises(DataError, match="max_depth must be >= 1"):
        RfParams(max_depth=0)
    with pytest.raises(DataError, match="min_samples_split must be >= 2"):
        RfParams(min_samples_split=1)
    with pytest.raises(DataError, match="min_samples_leaf must be >= 1"):
        RfParams(min_samples_leaf=0)
    with pytest.raises(DataError, match="max_features must be 'sqrt', 'all'"):
        RfParams(max_features="half")
    with pytest.raises(DataError, match="integer max_features must be >= 1"):
        RfParams(max_features=0)


def test_feature_subset_sizes():
    assert n_sub_features(14, "sqrt") == 4
    with pytest.raises(DataError, match="max_features must be 'sqrt', 'all'"):
        RfParams(max_features="auto")  # once an alias of "sqrt"
    assert n_sub_features(16, "sqrt") == 4
    assert n_sub_features(14, "all") == 14
    assert n_sub_features(14, 3) == 3
    assert n_sub_features(2, 5) == 2


def test_stump_separates_shifted_groups():
    x = np.array([[1.0], [2.0], [3.0], [10.0], [11.0], [12.0]])
    y = np.array([0, 0, 0, 1, 1, 1])
    tree = fit_tree(x, y, RfParams(max_features="all", max_depth=1,
                                   min_samples_split=2, min_samples_leaf=1))
    assert tree.n_nodes == 3
    assert tree.feature[0] == 0
    assert tree.threshold[0] == 6.5
    assert np.array_equal(tree_predict_proba1(tree, x), y.astype(float))


def test_threshold_is_midpoint():
    x = np.array([[1.0], [2.0]])
    y = np.array([0, 1])
    tree = fit_tree(x, y, ALL)
    assert tree.threshold[0] == 1.5


def test_constant_features_single_leaf():
    x = np.ones((5, 3))
    y = np.array([0, 0, 1, 1, 1])
    tree = fit_tree(x, y, ALL)
    assert tree.n_nodes == 1
    assert tree.feature[0] == -1
    assert tree.proba1[0] == 0.6


def test_xor_needs_depth_two():
    x = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
    y = np.array([0, 1, 1, 0])
    deep = fit_tree(x, y, RfParams(max_features="all", max_depth=2,
                                   min_samples_split=2, min_samples_leaf=1))
    assert np.array_equal(tree_predict_proba1(deep, x), y.astype(float))
    # zero-gain root split still happens, lowest feature index wins the tie
    assert deep.feature[0] == 0
    assert deep.threshold[0] == 0.5
    shallow = fit_tree(x, y, RfParams(max_features="all", max_depth=1,
                                      min_samples_split=2, min_samples_leaf=1))
    assert np.array_equal(tree_predict_proba1(shallow, x), np.full(4, 0.5))


def test_tie_breaks_to_lowest_feature_index():
    col = np.array([1.0, 2.0, 3.0, 4.0])
    x = np.column_stack([col, col])
    y = np.array([0, 0, 1, 1])
    tree = fit_tree(x, y, ALL)
    assert tree.feature[0] == 0


def test_min_samples_leaf_blocks_all_cuts():
    x = np.array([[1.0], [2.0], [3.0]])
    y = np.array([0, 1, 1])
    tree = fit_tree(x, y, RfParams(max_features="all", max_depth=5,
                                   min_samples_split=2, min_samples_leaf=2))
    assert tree.n_nodes == 1


def test_min_samples_split_stops_growth():
    x = np.array([[1.0], [2.0], [3.0], [4.0]])
    y = np.array([0, 1, 0, 1])
    tree = fit_tree(x, y, RfParams(max_features="all", max_depth=5,
                                   min_samples_split=5, min_samples_leaf=1))
    assert tree.n_nodes == 1


@settings(deadline=None, max_examples=40)
@given(st.lists(st.integers(0, 1), min_size=2, max_size=25).filter(
    lambda ls: 0 < sum(ls) < len(ls)))
def test_tree_memorizes_distinct_rows(labels):
    y = np.array(labels)
    x = np.arange(len(labels), dtype=float)[:, None]
    tree = fit_tree(x, y, RfParams(max_features="all", max_depth=30,
                                   min_samples_split=2, min_samples_leaf=1))
    assert np.array_equal(tree_predict_proba1(tree, x), y.astype(float))


def test_forest_rejects_single_class():
    x = np.random.default_rng(0).standard_normal((10, 3))
    with pytest.raises(DataError, match="single class"):
        fit_forest(x, np.ones(10, dtype=int), RfParams(n_estimators=2))


def test_importances_sum_to_one():
    x, y = make_planted(200, seed=5)
    model = fit_forest(x, y, RfParams(n_estimators=8, max_depth=6,
                                      min_samples_split=2, min_samples_leaf=1, seed=3))
    assert abs(float(model.importances.sum()) - 1.0) < 1e-9
    assert (model.importances >= 0).all()


def test_degenerate_importances_fall_back_to_uniform():
    x = np.zeros((20, 4))
    y = np.array([0, 1] * 10)
    model = fit_forest(x, y, RfParams(n_estimators=3, max_depth=4))
    assert np.array_equal(model.importances, np.full(4, 0.25))


def test_planted_signal_tops_importance_ranks():
    x, y = make_planted(2000, seed=11)
    model = fit_forest(x, y, RfParams(n_estimators=15, max_depth=6,
                                      min_samples_split=2, min_samples_leaf=1, seed=0))
    top2 = set(np.argsort(-model.importances)[:2])
    assert top2 == {0, 1}


def _leaf_tree(p1, d=3):
    return DecisionTree(
        feature=np.array([-1], dtype=np.int32),
        threshold=np.array([0.0]),
        left=np.array([-1], dtype=np.int32),
        right=np.array([-1], dtype=np.int32),
        proba1=np.array([p1]),
        feature_decrease=np.zeros(d),
    )


def test_forest_probability_is_tree_average():
    model = ForestModel(params=RfParams(n_estimators=2), trees=[_leaf_tree(0.2), _leaf_tree(0.6)],
                        oob_error=0.0, importances=np.full(3, 1 / 3), n_features=3)
    proba = forest_predict_proba(model, np.zeros((2, 3)))
    assert np.array_equal(proba, np.array([0.4, 0.4]))
    assert np.array_equal(proba >= 0.5, np.array([False, False]))


def test_oob_error_tracks_held_out_error():
    x, y = make_planted(2000, seed=7)
    x_tr, y_tr = x[:1400], y[:1400]
    x_te, y_te = x[1400:], y[1400:]
    model = fit_forest(x_tr, y_tr, RfParams(n_estimators=30, max_depth=10,
                                            min_samples_split=5, min_samples_leaf=2, seed=1))
    held_out = float(np.mean((forest_predict_proba(model, x_te) >= 0.5) != y_te))
    assert held_out < 0.2
    assert abs(model.oob_error - held_out) < 0.05


def test_no_bootstrap_has_no_oob_rows(tmp_path):
    # every row is in every bag: the error is undefined, not a perfect 0
    x, y = make_planted(60, seed=2)
    model = fit_forest(x, y, RfParams(n_estimators=3, max_depth=4, bootstrap=False))
    assert model.oob_error is None
    save_forest(model, tmp_path / "model.rf.json")
    assert json.loads((tmp_path / "model.rf.json").read_text())["oob_error"] is None
    assert load_forest(tmp_path / "model.rf.json").oob_error is None


def _saved(model, path) -> bytes:
    save_forest(model, path)
    return path.read_bytes()


def _runs_map(sizes):
    """A map that grows its indices in contiguous runs of `sizes`, one
    whole run at a time, and yields the results in index order."""
    def runs(fn, indices):
        indices = list(indices)
        assert sum(sizes) == len(indices)
        start = 0
        for size in sizes:
            yield from [fn(i) for i in indices[start:start + size]]
            start += size
    return runs


def test_fit_is_deterministic_and_thread_invariant(tmp_path):
    x, y = make_planted(150, seed=9)
    params = RfParams(n_estimators=6, max_depth=5, min_samples_split=2,
                      min_samples_leaf=1, seed=21)
    path = tmp_path / "model.rf.json"
    one = _saved(fit_forest(x, y, params), path)
    assert _saved(fit_forest(x, y, params), path) == one
    # the train pool's map grows contiguous runs of tree indices, each run
    # as a whole; any runs yielded in index order give the same forest
    # (test_pipeline checks the pool itself)
    for sizes in ([6], [3, 3], [1, 0, 4, 1]):
        assert _saved(fit_forest(x, y, params, map=_runs_map(sizes)), path) == one


def test_scaling_a_column_preserves_structure_and_predictions():
    x, y = make_planted(300, seed=13, n_noise=2)
    params = RfParams(n_estimators=4, max_depth=6, min_samples_split=2,
                      min_samples_leaf=1, seed=5)
    base = fit_forest(x, y, params)
    for c in (0.5, 2.0, 4.0):
        scaled = x.copy()
        scaled[:, 0] *= c
        other = fit_forest(scaled, y, params)
        for t_base, t_other in zip(base.trees, other.trees):
            assert np.array_equal(t_base.feature, t_other.feature)
            assert np.array_equal(t_base.left, t_other.left)
            assert np.array_equal(t_base.proba1, t_other.proba1)
        probe = x[:50].copy()
        probe_scaled = probe.copy()
        probe_scaled[:, 0] *= c
        assert np.array_equal(forest_predict_proba(base, probe),
                              forest_predict_proba(other, probe_scaled))


def test_model_round_trip_is_bit_exact(tmp_path):
    x, y = make_planted(120, seed=3)
    # a saved seed is a derive_seed output, which reaches 2**64 - 1, past
    # the signed 64-bit range that a setting takes
    model = fit_forest(x, y, RfParams(n_estimators=4, max_depth=5, seed=2**64 - 1))
    path = tmp_path / "model.rf.json"
    save_forest(model, path)
    loaded = load_forest(path)
    assert np.array_equal(forest_predict_proba(model, x), forest_predict_proba(loaded, x))
    assert loaded.oob_error == model.oob_error
    first = path.read_bytes()
    save_forest(loaded, path)
    assert path.read_bytes() == first


def test_model_schema_checks(tmp_path):
    x, y = make_planted(60, seed=4)
    path = tmp_path / "model.rf.json"
    save_forest(fit_forest(x, y, RfParams(n_estimators=2, max_depth=3)), path)
    payload = json.loads(path.read_text("utf-8"))
    assert load_forest(path).n_features == payload["n_features"]
    with pytest.raises(StageError, match="not a random-forest artifact; run train first"):
        load_forest(path, payload["n_features"] + 1)  # columns other than those it scores
    for bad in (dict(payload, schema_version=99), dict(payload, kind="mlp")):
        path.write_text(json.dumps(bad), encoding="utf-8")
        with pytest.raises(StageError, match="not a random-forest artifact; run train first"):
            load_forest(path)


def test_load_rejects_a_tree_with_a_cycle(tmp_path):
    # a root whose left child is itself would send every walk through it
    # round forever
    x, y = make_planted(60, seed=4)
    path = tmp_path / "model.rf.json"
    save_forest(fit_forest(x, y, RfParams(n_estimators=2, max_depth=3)), path)
    payload = json.loads(path.read_text("utf-8"))
    assert payload["trees"][0]["feature"][0] >= 0
    payload["trees"][0]["left"][0] = 0
    path.write_text(json.dumps(payload), encoding="utf-8")
    with pytest.raises(StageError, match="not a random-forest artifact; run train first"):
        load_forest(path)


def test_predict_rejects_wrong_width():
    x, y = make_planted(60, seed=6)
    model = fit_forest(x, y, RfParams(n_estimators=2, max_depth=3))
    with pytest.raises(DataError, match="feature columns"):
        forest_predict_proba(model, np.zeros((4, 3)))
