import numpy as np
import pytest

from soaccept.errors import DataError
from soaccept.resample import (
    ResamplePlan,
    _interpolate,
    _knn,
    adasyn,
    apply_plan,
    minority_label,
    smote,
    standardize,
)


def test_standardize_constant_column_to_zeros():
    x = np.column_stack([np.full(5, 7.0), np.arange(5, dtype=float)])
    z, scaler = standardize(x)
    assert np.all(z[:, 0] == 0.0)
    assert scaler.sd[0] == 0.0


def test_standardize_hand_example():
    z, _ = standardize(np.array([[0.0], [2.0]]))
    assert z.ravel() == pytest.approx([-1.0, 1.0])


def test_standardize_centers_training_data():
    rng = np.random.default_rng(3)
    x = rng.normal(5, 3, size=(40, 4))
    z, scaler = standardize(x)
    assert np.allclose(z.mean(axis=0), 0.0, atol=1e-12)
    assert np.allclose(z.std(axis=0), 1.0, atol=1e-12)
    # reusable on new rows with the same statistics
    x2 = rng.normal(5, 3, size=(10, 4))
    z2 = scaler.transform(x2)
    assert np.allclose(scaler.inverse(z2), x2, atol=1e-9)


def test_interpolation_endpoints():
    x = np.array([1.0, 2.0])
    nn = np.array([3.0, 0.0])
    assert np.array_equal(_interpolate(x, nn, 0.0), x)
    assert np.array_equal(_interpolate(x, nn, 1.0), nn)


def _on_some_segment(s, pts, tol=1e-9):
    for i in range(len(pts)):
        for j in range(len(pts)):
            if i == j:
                continue
            a, b = pts[i], pts[j]
            ab = b - a
            denom = float(ab @ ab)
            if denom == 0.0:
                continue
            t = float((s - a) @ ab) / denom
            if -1e-12 <= t <= 1 + 1e-12 and np.linalg.norm(s - (a + t * ab)) < tol:
                return True
    return False


def test_smote_synthetics_lie_on_minority_segments():
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    synth = smote(pts, k=2, n_synthetic=25, seed=9)
    assert synth.shape == (25, 2)
    for s in synth:
        assert _on_some_segment(s, pts)


def test_smote_exact_count_and_determinism():
    rng = np.random.default_rng(0)
    pts = rng.normal(size=(12, 3))
    a = smote(pts, k=4, n_synthetic=31, seed=42)
    b = smote(pts, k=4, n_synthetic=31, seed=42)
    assert a.shape == (31, 3)
    assert a.tobytes() == b.tobytes()
    c = smote(pts, k=4, n_synthetic=31, seed=43)
    assert a.tobytes() != c.tobytes()


def test_smote_k_too_large():
    pts = np.zeros((4, 2))
    with pytest.raises(DataError, match="smaller k") as err:
        smote(pts, k=4, n_synthetic=5, seed=1)
    assert "smaller k" in str(err.value)


def test_adasyn_beta_zero_is_noop():
    rng = np.random.default_rng(1)
    z_min = rng.normal(size=(6, 2))
    z_maj = rng.normal(size=(20, 2))
    assert adasyn(z_min, z_maj, k=3, beta=0.0, seed=5).shape == (0, 2)


def test_adasyn_balanced_classes_noop():
    rng = np.random.default_rng(2)
    z_min = rng.normal(size=(8, 2))
    z_maj = rng.normal(size=(8, 2))
    assert adasyn(z_min, z_maj, k=3, beta=1.0, seed=5).shape == (0, 2)


def test_adasyn_concentrates_on_majority_surrounded_point():
    # lone minority point inside the majority cloud; a tight minority
    # cluster far away whose neighborhoods are purely minority
    cluster = np.array([[10.0, 10.0], [10.1, 10.0], [10.0, 10.1], [10.1, 10.1]])
    lone = np.array([[0.0, 0.0]])
    z_min = np.vstack([lone, cluster])
    rng = np.random.default_rng(4)
    z_maj = rng.normal(0.3, 0.2, size=(12, 2))
    synth = adasyn(z_min, z_maj, k=3, beta=1.0, seed=6)
    g_total = (12 - 5) * 1.0
    assert synth.shape[0] == g_total  # r_hat = (1,0,0,0,0) allocates all to the lone point
    # every synthetic interpolates from the lone point toward a cluster member
    for s in synth:
        assert _on_some_segment(s, z_min)
        assert not _on_some_segment(s, cluster) or any(
            np.allclose(s, c) for c in cluster
        )


def test_adasyn_allocation_tracks_neighborhood_ratio():
    # half the minority sits among majority, half far away
    near = np.array([[0.0, 0.0], [0.2, 0.0], [0.0, 0.2], [0.2, 0.2]])
    far = near + 50.0
    z_min = np.vstack([near, far])
    rng = np.random.default_rng(8)
    z_maj = np.vstack([rng.normal(0.1, 0.05, size=(30, 2))])
    synth = adasyn(z_min, z_maj, k=3, beta=1.0, seed=7)
    g = (30 - 8) * 1.0
    m = 8
    assert g - m <= synth.shape[0] <= g + m


def test_apply_plan_none_identity():
    x = np.arange(12, dtype=float).reshape(6, 2)
    y = np.array([0, 0, 0, 0, 1, 1])
    x2, y2 = apply_plan(x, y, ResamplePlan(method="none"))
    assert np.array_equal(x2, x)
    assert np.array_equal(y2, y)


def test_apply_plan_smote_reaches_exact_ratio():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(140, 3))
    y = np.array([0] * 100 + [1] * 40)
    plan = ResamplePlan(method="smote", k=5, target_ratio=1.0, seed=11)
    x2, y2 = apply_plan(x, y, plan)
    assert x2.shape[0] == 200
    assert int((y2 == 1).sum()) == 100
    assert int((y2 == 0).sum()) == 100
    # originals verbatim and first
    assert np.array_equal(x2[:140], x)
    assert np.array_equal(y2[:140], y)
    # synthetics carry the minority label only
    assert np.all(y2[140:] == 1)


def test_apply_plan_partial_ratio():
    rng = np.random.default_rng(6)
    x = rng.normal(size=(140, 3))
    y = np.array([0] * 100 + [1] * 40)
    plan = ResamplePlan(method="smote", k=5, target_ratio=0.5, seed=11)
    _, y2 = apply_plan(x, y, plan)
    assert int((y2 == 1).sum()) == 50


def test_apply_plan_deterministic():
    rng = np.random.default_rng(7)
    x = rng.normal(size=(60, 4))
    y = np.array([0] * 45 + [1] * 15)
    plan = ResamplePlan(method="adasyn", k=4, beta=1.0, seed=21)
    a_x, a_y = apply_plan(x, y, plan)
    b_x, b_y = apply_plan(x, y, plan)
    assert a_x.tobytes() == b_x.tobytes()
    assert np.array_equal(a_y, b_y)


def test_apply_plan_synthetics_in_raw_units():
    rng = np.random.default_rng(9)
    x = np.column_stack([rng.normal(1000.0, 200.0, 80), rng.normal(size=80)])
    y = np.array([0] * 60 + [1] * 20)
    plan = ResamplePlan(method="smote", k=3, target_ratio=1.0, seed=2)
    x2, _ = apply_plan(x, y, plan)
    synth = x2[80:]
    # interpolations stay inside the minority's raw bounding box
    lo, hi = x[y == 1].min(axis=0), x[y == 1].max(axis=0)
    assert np.all(synth >= lo - 1e-9) and np.all(synth <= hi + 1e-9)


def test_minority_label_tie_prefers_accepted():
    assert minority_label(np.array([0, 1, 0, 1])) == 1
    assert minority_label(np.array([0, 0, 1])) == 1
    assert minority_label(np.array([1, 1, 0])) == 0


def test_plan_validation():
    with pytest.raises(DataError, match="method must be one of"):
        ResamplePlan(method="bogus")
    with pytest.raises(DataError, match="k must be >= 1"):
        ResamplePlan(k=0)
    with pytest.raises(DataError, match="target_ratio must be in"):
        ResamplePlan(target_ratio=0.0)
    with pytest.raises(DataError, match="beta must be in"):
        ResamplePlan(beta=1.5)


def _brute_knn(queries, data, k):
    """Unscreened reference: every squared distance summed in cKDTree's
    order (four interleaved accumulators, then the tail), one row at a time,
    ranked by (distance, row index) with the query's own row left out."""
    n, dim = data.shape
    out = np.full((queries.shape[0], k), n, dtype=np.int64)
    body = dim - dim % 4
    for i, q in enumerate(queries):
        dist = []
        for j, d in enumerate(data):
            acc = [0.0, 0.0, 0.0, 0.0]
            for c in range(body):
                diff = q[c] - d[c]
                acc[c % 4] += diff * diff
            total = acc[0] + acc[1] + acc[2] + acc[3]
            for c in range(body, dim):
                diff = q[c] - d[c]
                total += diff * diff
            if j != i:
                dist.append((total, j))
        near = [j for _, j in sorted(dist)[:k]]
        out[i, : len(near)] = near
    return out


def _adversarial(name):
    rng = np.random.default_rng(31)
    lattice = np.array(
        [[a, b, c] for a in range(3) for b in range(3) for c in range(3)], dtype=float
    )
    if name == "duplicates":
        base = rng.normal(size=(12, 3))
        return np.vstack([base, base, base[:5]])
    if name == "lattice":
        return lattice
    if name == "offset":
        return 1e6 + rng.normal(size=(30, 5))
    if name == "offset-lattice":
        return 1e6 + lattice
    if name == "constant-column":
        data = rng.normal(size=(25, 6))
        data[:, 2] = 0.0
        return data
    if name == "all-equal":
        return np.full((9, 4), 3.25)
    return np.round(rng.normal(size=(40, 17)), 1)  # "rounded-wide"


@pytest.mark.parametrize(
    "name",
    ["duplicates", "lattice", "offset", "offset-lattice", "constant-column",
     "all-equal", "rounded-wide"],
)
def test_knn_screen_equals_brute_force(name):
    data = _adversarial(name)
    m = data.shape[0]
    for k in (1, 3, m - 1):
        assert np.array_equal(_knn(data, data, k), _brute_knn(data, data, k)), k
        half = data[: m // 2]  # ADASYN shape: a prefix against the full set
        assert np.array_equal(_knn(half, data, k), _brute_knn(half, data, k)), k


def test_knn_pads_missing_neighbors_with_data_size():
    data = np.array([[0.0], [1.0], [3.0]])
    assert _knn(data, data, 4).tolist() == [[1, 2, 3, 3], [0, 2, 3, 3], [1, 0, 3, 3]]


def test_knn_duplicates_come_back_lowest_index_first():
    point = np.array([[0.5, -1.0]])
    data = np.vstack([point, [[9.0, 9.0]], point, point, [[0.5, -0.9]], point])
    assert _knn(data, data, 3)[0].tolist() == [2, 3, 5]
    assert _knn(data, data, 4)[0].tolist() == [2, 3, 5, 4]
    assert _knn(data, data, 3)[5].tolist() == [0, 2, 3]


def _ckdtree_neighbors(queries, data, k):
    spatial = pytest.importorskip("scipy.spatial")
    _, idx = spatial.cKDTree(data).query(queries, k=k + 1)
    return np.array([[j for j in row if j != i][:k] for i, row in enumerate(idx)])


@pytest.mark.parametrize("dim", [1, 4, 6, 16])
def test_knn_equals_ckdtree_on_tie_free_data(dim):
    rng = np.random.default_rng(dim)
    z_min = rng.normal(size=(300, dim))
    z_maj = rng.normal(0.5, 1.5, size=(700, dim))
    full = np.vstack([z_min, z_maj])
    for k in (1, 5):
        # SMOTE: the minority against itself
        assert np.array_equal(_knn(z_min, z_min, k), _ckdtree_neighbors(z_min, z_min, k))
        # ADASYN: the minority against the whole split, minority rows first
        assert np.array_equal(_knn(z_min, full, k), _ckdtree_neighbors(z_min, full, k))


def test_knn_padding_equals_ckdtree():
    data = np.random.default_rng(3).normal(size=(4, 2))
    assert np.array_equal(_knn(data, data, 6), _ckdtree_neighbors(data, data, 6))
