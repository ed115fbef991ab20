import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from soaccept.errors import DataError
from soaccept.features import FEATURE_NAMES
from soaccept import selection
from soaccept.selection import (
    _JITTER_SEED,
    _count_within,
    _kth_gap,
    _psi,
    mutual_information,
    pearson_matrix,
    select_features,
    select_from_stats,
)

RNG = np.random.default_rng(7)


def test_pearson_diagonal_and_symmetry():
    x = RNG.normal(size=(50, 4))
    r, _ = pearson_matrix(x)
    assert np.allclose(np.diag(r), 1.0)
    assert np.allclose(r, r.T)
    assert np.all(np.abs(r) <= 1.0 + 1e-12)


def test_pearson_perfect_anticorrelation():
    col = np.arange(10, dtype=float)
    x = np.column_stack([col, -col])
    r, _ = pearson_matrix(x)
    assert r[0, 1] == pytest.approx(-1.0, abs=1e-12)


def test_pearson_hand_worked_value():
    x = np.column_stack([[1.0, 2.0, 3.0], [2.0, 4.0, 6.5]])
    r, _ = pearson_matrix(x)
    # sum dx*dy = 4.5, sum dx^2 = 2, sum dy^2 = 61/6
    expected = 4.5 / math.sqrt(2 * 61 / 6)
    assert r[0, 1] == pytest.approx(expected, abs=1e-12)
    assert r[0, 1] == pytest.approx(0.9979487, abs=1e-7)


def test_pearson_zero_variance_flagged_as_zero():
    x = np.column_stack([np.ones(20), np.arange(20, dtype=float)])
    r, flat = pearson_matrix(x)
    assert flat.tolist() == [True, False]
    assert r[0, 1] == 0.0
    assert r[0, 0] == 1.0


def test_pearson_needs_two_rows():
    with pytest.raises(DataError, match="pearson_matrix needs at least 2 rows"):
        pearson_matrix(np.ones((1, 3)))


def test_mi_independent_near_zero():
    n = 2000
    x = RNG.normal(size=n)
    y = RNG.integers(0, 2, size=n)
    assert abs(mutual_information(x, y, k=3)) < 0.05


def test_mi_deterministic_dependence_one_bit():
    n = 2000
    y = np.repeat([0, 1], n // 2)
    x = y + RNG.normal(scale=1e-6, size=n)
    ig = mutual_information(x, y, k=3)
    assert ig == pytest.approx(1.0, abs=0.1)
    assert ig <= 1.0 + 0.05  # binary label caps IG near 1 bit


def test_mi_threshold_function_of_x():
    n = 2000
    x = RNG.normal(size=n)
    y = (x > 0).astype(int)
    assert mutual_information(x, y, k=3) == pytest.approx(1.0, abs=0.1)


def test_mi_monotone_transform_stability():
    n = 2000
    x = RNG.normal(size=n)
    y = (x + RNG.normal(scale=0.5, size=n) > 0).astype(int)
    a = mutual_information(x, y, k=3)
    b = mutual_information(np.exp(x), y, k=3)
    assert abs(a - b) < 0.05


def test_mi_single_class_rejected():
    with pytest.raises(DataError, match="needs both classes present"):
        mutual_information(np.arange(30.0), np.zeros(30, dtype=int), k=3)


def test_mi_too_few_samples_rejected():
    with pytest.raises(DataError, match="needs n >= 3k"):
        mutual_information(np.arange(5.0), np.array([0, 1, 0, 1, 0]), k=3)


def test_mi_deterministic_across_calls():
    n = 300
    x = RNG.normal(size=n)
    y = RNG.integers(0, 2, size=n)
    assert mutual_information(x, y, k=3) == mutual_information(x.copy(), y.copy(), k=3)


def _jittered(x):
    """The column as mutual_information perturbs it."""
    rng = np.random.default_rng(_JITTER_SEED)
    scale = max(1.0, float(np.mean(np.abs(x))))
    return x + 1e-10 * scale * rng.standard_normal(x.shape[0])


def _columns(seed, count=30):
    """Seeded integer-valued, continuous and rounded columns."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        n = int(rng.integers(20, 1500))
        kind = i % 3
        if kind == 0:
            x = rng.integers(0, int(rng.integers(2, 60)), n).astype(float)
        elif kind == 1:
            x = rng.normal(size=n) * 10.0 ** rng.uniform(-3, 5)
        else:
            x = np.round(rng.lognormal(size=n) * 100.0, int(rng.integers(0, 3)))
        yield x


def test_kth_gap_and_count_within_match_brute_force():
    for x in map(_jittered, _columns(21)):
        for k in (1, 3, 5):
            gaps = np.abs(x[None, :] - x[:, None])
            expected = np.sort(gaps, axis=1)[:, k]  # column 0 is the point itself
            assert np.array_equal(_kth_gap(x, k), expected)
            radius = np.nextafter(expected, 0)
            within = (gaps <= radius[:, None]).sum(axis=1)
            assert np.array_equal(_count_within(x, radius), within)


def test_count_within_on_exact_duplicates_and_zero_radius():
    x = np.array([1.0, 1.0, 1.0, 2.0, 2.0, 5.0, 1.0 + 2.0**-52])
    radius = np.array([0.0, 2.0**-52, 1.0, 0.0, 3.0, 2.9999999999999996, 0.0])
    within = (np.abs(x[None, :] - x[:, None]) <= radius[:, None]).sum(axis=1)
    assert within.tolist() == [3, 4, 6, 2, 7, 1, 1]
    assert np.array_equal(_count_within(x, radius), within)


def _old_mutual_information(x, y, k=3):
    """The cKDTree + scipy.special estimator that _psi and the sorted
    searches replaced, kept as the bit-for-bit reference."""
    from scipy.spatial import cKDTree
    from scipy.special import digamma

    x = _jittered(np.asarray(x, dtype=np.float64).ravel())
    y = np.asarray(y).ravel()
    n = x.shape[0]
    classes, counts = np.unique(y, return_counts=True)
    radius = np.empty(n)
    k_point = np.empty(n)
    label_count = np.empty(n)
    usable = np.zeros(n, dtype=bool)
    points = x.reshape(-1, 1)
    for cls, count in zip(classes, counts):
        mask = y == cls
        label_count[mask] = count
        if count <= 1:
            continue
        k_eff = min(k, count - 1)
        sub = points[mask]
        dist, _ = cKDTree(sub).query(sub, k=k_eff + 1)
        radius[mask] = np.nextafter(dist[:, -1], 0)
        k_point[mask] = k_eff
        usable[mask] = True
    points = points[usable]
    tree = cKDTree(points)
    within = np.array(
        [len(hits) for hits in tree.query_ball_point(points, radius[usable])],
        dtype=np.float64,
    )
    nats = (
        digamma(points.shape[0])
        + float(np.mean(digamma(k_point[usable])))
        - float(np.mean(digamma(label_count[usable])))
        - float(np.mean(digamma(within)))
    )
    return max(0.0, nats / math.log(2))


def test_psi_is_bit_identical_to_scipy_digamma():
    special = pytest.importorskip("scipy.special")
    n = np.arange(1, 200_001)
    ours = np.array([_psi(int(v)) for v in n])
    assert np.array_equal(
        ours.view(np.int64), special.digamma(n.astype(np.float64)).view(np.int64)
    )


def test_radii_and_counts_equal_ckdtree():
    spatial = pytest.importorskip("scipy.spatial")
    for x in map(_jittered, _columns(22)):
        points = x.reshape(-1, 1)
        tree = spatial.cKDTree(points)
        for k in (1, 3):
            dist, _ = tree.query(points, k=k + 1)
            assert np.array_equal(_kth_gap(x, k), dist[:, -1])
            radius = np.nextafter(dist[:, -1], 0)
            hits = tree.query_ball_point(points, radius)
            assert np.array_equal(_count_within(x, radius), [len(h) for h in hits])


def test_mutual_information_is_bit_identical_to_scipy_version():
    pytest.importorskip("scipy")
    rng = np.random.default_rng(23)
    for i, x in enumerate(_columns(24, count=24)):
        y = (rng.random(x.shape[0]) < rng.uniform(0.05, 0.95)).astype(int)
        y[:2] = [0, 1]
        if i == 0:
            y[:] = 0
            y[7] = 1  # a one-point class is left out of the estimate
        k = (1, 3, 5)[i % 3]
        ours = np.float64(mutual_information(x, y, k=k))
        theirs = np.float64(_old_mutual_information(x, y, k=k))
        assert ours.view(np.int64) == theirs.view(np.int64)


def _published_stats():
    ig = {
        "Timelag": 0.873, "URLCount": 0.432, "CommentCount": 0.563,
        "Reputation": 0.893, "TextPolarity": 0.567, "AnswerCount": 0.445,
        "ViewCount": 0.563, "Score": 0.456, "NumberOfCodeLine": 0.612,
        "NumberOfSentence": 0.654, "TextualSimilarity": 0.534,
        "Codelength": 0.456, "TFAnswerCode": 0.579, "TFAnswerText": 0.467,
        "SignUpDateTimeLag": 0.234, "NumberOfWords": 0.345,
    }
    corr = np.eye(16)
    idx = {n: i for i, n in enumerate(FEATURE_NAMES)}
    for a, b, r in (
        ("NumberOfWords", "NumberOfSentence", 0.82),
        ("SignUpDateTimeLag", "Reputation", 0.76),
    ):
        corr[idx[a], idx[b]] = corr[idx[b], idx[a]] = r
    return ig, corr


def test_published_statistics_replay_retains_fourteen():
    ig, corr = _published_stats()
    retained, dropped = select_from_stats(FEATURE_NAMES, corr, ig, 0.7, 0.4)
    assert len(retained) == 14
    assert "NumberOfWords" not in retained
    assert "SignUpDateTimeLag" not in retained
    reasons = dict(dropped)
    assert reasons["NumberOfWords"] == "correlated-with:NumberOfSentence"
    assert reasons["SignUpDateTimeLag"] == "correlated-with:Reputation"
    assert retained == [
        n for n in FEATURE_NAMES if n not in ("NumberOfWords", "SignUpDateTimeLag")
    ]


def test_selection_identity_when_independent():
    ig = {n: 0.5 for n in ("a", "b", "c")}
    retained, dropped = select_from_stats(("a", "b", "c"), np.eye(3), ig, 0.7, 0.4)
    assert retained == ["a", "b", "c"]
    assert dropped == []


def test_selection_low_ig_filter():
    ig = {"a": 0.5, "b": 0.4, "c": 0.39}
    retained, dropped = select_from_stats(("a", "b", "c"), np.eye(3), ig, 0.7, 0.4)
    # the floor is strict: IG must exceed the threshold
    assert retained == ["a"]
    assert ("b", "low-ig") in dropped
    assert ("c", "low-ig") in dropped


def test_selection_equal_ig_drops_later_name():
    corr = np.eye(2)
    corr[0, 1] = corr[1, 0] = 0.9
    retained, dropped = select_from_stats(("alpha", "beta"), corr, {"alpha": 0.6, "beta": 0.6}, 0.7, 0.4)
    assert retained == ["alpha"]
    assert dropped == [("beta", "correlated-with:alpha")]


def test_selection_iterates_until_clean():
    # chain a~b~c: dropping b resolves both violations
    corr = np.eye(3)
    corr[0, 1] = corr[1, 0] = 0.95
    corr[1, 2] = corr[2, 1] = 0.85
    ig = {"a": 0.9, "b": 0.5, "c": 0.8}
    retained, dropped = select_from_stats(("a", "b", "c"), corr, ig, 0.7, 0.4)
    assert retained == ["a", "c"]
    assert dropped == [("b", "correlated-with:a")]


def test_selection_set_invariant_under_column_reorder():
    ig, corr = _published_stats()
    perm = list(RNG.permutation(16))
    names_p = tuple(FEATURE_NAMES[i] for i in perm)
    corr_p = corr[np.ix_(perm, perm)]
    base, _ = select_from_stats(FEATURE_NAMES, corr, ig, 0.7, 0.4)
    shuffled, _ = select_from_stats(names_p, corr_p, ig, 0.7, 0.4)
    assert set(base) == set(shuffled)


def test_select_features_end_to_end_drops_duplicate_column():
    n = 600
    rng = np.random.default_rng(11)
    y = rng.integers(0, 2, size=n)
    signal = y + rng.normal(scale=0.3, size=n)
    twin = 2.0 * signal + 1.0  # |r| = 1 with signal
    noise = rng.normal(size=n)
    x = np.column_stack([signal, twin, noise])
    report = select_features(x, y, ("signal", "twin", "noise"), 0.7, 0.05, 3)
    assert abs(report["correlation"]["matrix"][0][1]) > 0.99
    # one of the twins survives, noise is dropped for low IG
    assert len([f for f in report["retained"] if f in ("signal", "twin")]) == 1
    assert {"feature": "noise", "reason": "low-ig"} in report["dropped"]


def test_selection_report_file(monkeypatch):
    ig, corr_m = _published_stats()
    monkeypatch.setattr(selection, "pearson_matrix",
                        lambda x: (corr_m, np.zeros(16, dtype=bool)))
    # the column index is x's one nonzero row, so each column maps to its name's gain
    monkeypatch.setattr(selection, "mutual_information",
                        lambda col, y, k: ig[FEATURE_NAMES[int(col[0])]])
    x = np.zeros((2, 16))
    x[0] = np.arange(16)
    report = select_features(x, np.zeros(2), FEATURE_NAMES, 0.7, 0.4, 3)
    retained, _ = select_from_stats(FEATURE_NAMES, corr_m, ig, 0.7, 0.4)
    assert report["retained"] == retained
    assert report["thresholds"] == {"correlation": 0.7, "info_gain": 0.4}
    assert report["info_gain_bits"]["Timelag"] == pytest.approx(0.873)
    assert {d["feature"] for d in report["dropped"]} == {"NumberOfWords", "SignUpDateTimeLag"}


def _rescanning_select(names, corr, ig, r_threshold, ig_threshold):
    """Correlation pruning as first written: after every drop, rescan the
    retained pairs for the strongest one at or above the threshold."""
    index = {name: i for i, name in enumerate(names)}
    retained = set(names)
    dropped = []
    while True:
        worst = None
        for a in names:
            if a not in retained:
                continue
            for b in names:
                if b <= a or b not in retained:
                    continue
                r_ab = abs(float(corr[index[a], index[b]]))
                if r_ab < r_threshold:
                    continue
                key = (-r_ab, a, b)
                if worst is None or key < worst[0]:
                    worst = (key, a, b)
        if worst is None:
            break
        _, a, b = worst
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
    return [n for n in names if n in retained], dropped


@st.composite
def _tied_stats(draw):
    """Names in a drawn order, a symmetric matrix whose |r| come from a
    small grid, and information gains from another: ties are common."""
    names = tuple(draw(st.permutations("abcdefg"))[: draw(st.integers(2, 7))])
    corr = np.eye(len(names))
    for i in range(len(names)):
        for j in range(i + 1, len(names)):
            corr[i, j] = corr[j, i] = draw(
                st.sampled_from([0.0, 0.5, 0.7, -0.7, 0.8, -0.8, 0.9, -1.0, 1.0]))
    ig = {name: draw(st.sampled_from([0.3, 0.4, 0.5, 0.6])) for name in names}
    return names, corr, ig


@settings(max_examples=300, deadline=None)
@given(_tied_stats(), st.sampled_from([0.7, 0.8, 0.95]))
def test_one_pass_pruning_matches_rescanning(stats, r_threshold):
    names, corr, ig = stats
    assert select_from_stats(names, corr, ig, r_threshold, 0.4) == _rescanning_select(
        names, corr, ig, r_threshold, 0.4)
