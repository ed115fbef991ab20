"""End-to-end acceptance gate: ten numbered checks, one per release
criterion, each against an independent oracle or published constant.

The conftest hook prints one `ACCEPTANCE n: PASS/FAIL` line per check at
the end of the session.
"""

import json
import math
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np

from soaccept.features import FEATURE_NAMES, fit_tfidf, tfidf_vector
from soaccept.forest import RfParams, fit_forest, forest_predict_proba
from soaccept.metrics import accuracy, confusion, mcc, precision, recall, roc
from soaccept.mlp import MlpConfig, init_parameters, loss_and_gradients
from soaccept.porter import porter_stem
from soaccept.resample import ResamplePlan, adasyn, adasyn_allocation, apply_plan
from soaccept.selection import mutual_information, select_from_stats

from _synth import cosine_similarity, make_planted, max_relative_error, numeric_gradients

FIXTURES = Path(__file__).parent / "fixtures"


# -- 1: term weighting and cosine similarity against a brute-force oracle ---

def _brute_weights(doc, corpus):
    counts = Counter(doc)
    maxtf = max(counts.values())
    df = Counter()
    for d in corpus:
        df.update(set(d))
    out = {}
    for term, tf in counts.items():
        if term in df:
            nf = 0.5 + 0.5 * tf / maxtf
            out[term] = nf * math.log(len(corpus) / df[term])
    return out


def _brute_cosine(wa, wb):
    dot = sum(v * wb.get(t, 0.0) for t, v in wa.items())
    na = math.sqrt(sum(v * v for v in wa.values()))
    nb = math.sqrt(sum(v * v for v in wb.values()))
    if na == 0.0 or nb == 0.0:
        return 0.0
    return dot / (na * nb)


def test_criterion_01_tfidf_cosine_matches_brute_force():
    corpora = [
        [["sort", "map", "java"], ["sort", "list"], ["map", "stream", "java"]],
        [["a"]],
        [["a", "a", "b"], ["a", "a", "b"]],
        [["x", "y"], ["p", "q"], ["x", "p"], ["y", "q"], ["x", "q"]],
        [["parse", "date", "parse"], ["date"], ["format", "parse"], ["zone"]],
        [["common"] * 7 + ["rare"], ["common", "other"], ["third", "common"]],
    ]
    started = time.perf_counter()
    for corpus in corpora:
        model = fit_tfidf(corpus)
        index_term = {i: t for t, i in model.vocabulary.items()}
        vectors = []
        for doc in corpus + [["rare", "unseen", "common"]]:
            got = tfidf_vector(model, doc)
            want = _brute_weights(doc, corpus)
            got_terms = {index_term[i]: w for i, w in got.items()}
            assert set(got_terms) == set(want)
            for term, w in want.items():
                assert abs(got_terms[term] - w) < 1e-9, (term, doc)
            vectors.append((got, want))
        for ga, wa in vectors:
            for gb, wb in vectors:
                assert abs(cosine_similarity(ga, gb) - _brute_cosine(wa, wb)) < 1e-9
    assert time.perf_counter() - started < 1.0


# -- 2: stemmer agreement with the canonical vocabulary sample --------------

def test_criterion_02_porter_canonical_sample():
    pairs = []
    for line in (Path(__file__).parent / "data" / "porter_pairs.txt").read_text().splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            word, stem = line.split("\t")
            pairs.append((word, stem))
    assert len(pairs) >= 100
    assert ("coming", "come") in pairs
    started = time.perf_counter()
    mismatches = [(w, porter_stem(w), s) for w, s in pairs if porter_stem(w) != s]
    assert mismatches == []
    assert time.perf_counter() - started < 1.0


# -- 3: every smote synthetic sits on a minority-to-neighbor segment --------

def _segment_residual(point, a, b):
    ab = b - a
    denom = float(ab @ ab)
    if denom == 0.0:
        return float(np.linalg.norm(point - a))
    t = float((point - a) @ ab) / denom
    t = min(1.0, max(0.0, t))
    return float(np.linalg.norm(point - (a + t * ab)))


def _knn_minority(z, k):
    d2 = ((z[:, None, :] - z[None, :, :]) ** 2).sum(axis=2)
    np.fill_diagonal(d2, np.inf)
    kk = min(k, len(z) - 1)
    return np.argsort(d2, axis=1, kind="stable")[:, :kk]


def test_criterion_03_smote_colinearity_and_exact_ratio():
    rng = np.random.default_rng(7)
    for trial in range(10):
        d = int(rng.integers(2, 6))
        n_min = int(rng.integers(8, 51))
        n_maj = n_min + int(rng.integers(10, 60))
        x_min = rng.normal(0.0, 1.0, size=(n_min, d))
        x_maj = rng.normal(2.5, 1.0, size=(n_maj, d))
        x = np.vstack([x_min, x_maj])
        y = np.array([1] * n_min + [0] * n_maj)
        plan = ResamplePlan(method="smote", k=5, target_ratio=1.0, seed=trial)
        x_res, y_res = apply_plan(x, y, plan)
        assert int((y_res == 1).sum()) == n_maj  # exact target ratio
        assert int((y_res == 0).sum()) == n_maj
        synthetic = x_res[len(y):]
        assert np.all(y_res[len(y):] == 1)
        # neighbor graph in the standardized coordinates the sampler
        # interpolates in; the segment test runs on the raw points, which
        # the per-column affine map carries over unchanged
        z = (x - x.mean(axis=0)) / x.std(axis=0)
        neighbors = _knn_minority(z[:n_min], 5)
        for point in synthetic:
            residual = min(
                _segment_residual(point, x_min[i], x_min[j])
                for i in range(n_min)
                for j in neighbors[i]
            )
            assert residual < 1e-9


# -- 4: adasyn allocation tracks the majority-density ratios ----------------

def test_criterion_04_adasyn_allocation():
    k = 5
    for trial in range(5):
        rng = np.random.default_rng(100 + trial)
        n_min = int(rng.integers(20, 41))
        n_maj = n_min + int(rng.integers(30, 90))
        d = int(rng.integers(2, 4))
        x_min = rng.normal(0.0, 1.3, size=(n_min, d))
        x_maj = rng.normal(1.0, 1.3, size=(n_maj, d))
        g_total = float(n_maj - n_min)

        # independent density estimate: majority share of each minority
        # point's k nearest neighbors in the pooled data
        pooled = np.vstack([x_min, x_maj])
        d2 = ((x_min[:, None, :] - pooled[None, :, :]) ** 2).sum(axis=2)
        for i in range(n_min):
            d2[i, i] = np.inf
        near = np.argsort(d2, axis=1, kind="stable")[:, :k]
        r = (near >= n_min).sum(axis=1) / k
        r_hat = r / r.sum()
        expected = r_hat * g_total

        counts = adasyn_allocation(x_min, x_maj, k=k, beta=1.0)
        assert np.all(np.abs(counts - expected) <= 1.0)
        assert abs(counts.sum() - g_total) <= n_min

        synthetic = adasyn(x_min, x_maj, k=k, beta=1.0, seed=trial)
        assert len(synthetic) == counts.sum()
        neighbors = _knn_minority(x_min, k)
        for point in synthetic:
            residual = min(
                _segment_residual(point, x_min[i], x_min[j])
                for i in range(n_min)
                for j in neighbors[i]
            )
            assert residual < 1e-9

        assert len(adasyn(x_min, x_maj, k=k, beta=0.0, seed=trial)) == 0
        assert adasyn_allocation(x_min, x_maj, k=k, beta=0.0).sum() == 0


# -- 5: information estimate hits the known endpoints -----------------------

def test_criterion_05_mutual_information_endpoints():
    rng = np.random.default_rng(5)
    n = 2000
    x = rng.normal(size=n)
    y_dependent = (x > np.median(x)).astype(np.int64)
    y_independent = rng.integers(0, 2, size=n)
    started = time.perf_counter()
    dependent = mutual_information(x, y_dependent, k=3)
    independent = mutual_information(x, y_independent, k=3)
    assert time.perf_counter() - started < 5.0
    assert abs(dependent - 1.0) < 0.1
    assert independent < 0.05


# -- 6: selection replay of the published statistics ------------------------

PUBLISHED_IG = {
    "Timelag": 0.873,
    "URLCount": 0.432,
    "CommentCount": 0.563,
    "Reputation": 0.893,
    "TextPolarity": 0.567,
    "AnswerCount": 0.445,
    "ViewCount": 0.563,
    "Score": 0.456,
    "NumberOfCodeLine": 0.612,
    "NumberOfSentence": 0.654,
    "TextualSimilarity": 0.534,
    "Codelength": 0.456,
    "TFAnswerCode": 0.579,
    "TFAnswerText": 0.467,
    "SignUpDateTimeLag": 0.234,
    "NumberOfWords": 0.345,
}


def test_criterion_06_selection_replay_drops_the_two_reported_features():
    names = FEATURE_NAMES
    idx = {name: i for i, name in enumerate(names)}
    corr = np.eye(len(names))
    for a, b, r in (
        ("NumberOfWords", "NumberOfSentence", 0.82),
        ("SignUpDateTimeLag", "Reputation", 0.76),
    ):
        corr[idx[a], idx[b]] = corr[idx[b], idx[a]] = r
    retained, dropped = select_from_stats(names, corr, PUBLISHED_IG, r_threshold=0.7,
                                          ig_threshold=0.4)
    assert sorted(f for f, _ in dropped) == ["NumberOfWords", "SignUpDateTimeLag"]
    assert len(retained) == 14
    assert set(retained) == set(names) - {"NumberOfWords", "SignUpDateTimeLag"}


# -- 7: network gradients vs central finite differences ---------------------

def test_criterion_07_mlp_gradient_check():
    config = MlpConfig(hidden=(8, 8, 8, 8, 8), seed=2)
    rng = np.random.default_rng(12)
    x = rng.normal(size=(16, 4))
    y = rng.integers(0, 2, size=16)
    weights, biases = init_parameters(4, config)
    _, grads_w, grads_b = loss_and_gradients(weights, biases, x, y)
    num_w, num_b = numeric_gradients(weights, biases, x, y)
    assert max_relative_error(grads_w, grads_b, num_w, num_b) < 1e-4


# -- 8: forest sanity on the planted dataset --------------------------------

def test_criterion_08_forest_planted_performance():
    started = time.perf_counter()
    params = RfParams(n_estimators=40, max_depth=12, min_samples_split=4,
                      min_samples_leaf=2, seed=0)

    x, y = make_planted(2000, seed=0, n_noise=8)
    cut = 1400
    model = fit_forest(x[:cut], y[:cut], params)
    scores = forest_predict_proba(model, x[cut:])
    auc = roc(y[cut:], scores).auc
    held_out_error = 1.0 - accuracy(confusion(y[cut:], (scores >= 0.5).astype(int)))
    assert auc >= 0.90
    assert abs(model.oob_error - held_out_error) < 0.05

    top2_hits = 0
    for seed in range(20):
        xs, ys = make_planted(2000, seed=seed, n_noise=8)
        m = fit_forest(xs[:cut], ys[:cut], RfParams(
            n_estimators=40, max_depth=12, min_samples_split=4,
            min_samples_leaf=2, seed=seed))
        if set(np.argsort(m.importances)[-2:]) == {0, 1}:
            top2_hits += 1
    assert top2_hits >= 19
    assert time.perf_counter() - started < 60.0


# -- 9: metric values against hand counts -----------------------------------

def test_criterion_09_metric_oracles():
    rng = np.random.default_rng(17)
    for trial in range(30):
        n = int(rng.integers(2, 201))
        y = rng.integers(0, 2, size=n)
        if y.min() == y.max():
            y[0] = 1 - y[0]
        scores = np.round(rng.random(n), int(rng.integers(1, 4)))
        concordant = 0.0
        pairs = 0
        for i in range(n):
            for j in range(n):
                if y[i] == 1 and y[j] == 0:
                    pairs += 1
                    if scores[i] > scores[j]:
                        concordant += 1.0
                    elif scores[i] == scores[j]:
                        concordant += 0.5
        assert abs(roc(y, scores).auc - concordant / pairs) < 1e-12

    for tp, fp, tn, fn in ((3, 1, 4, 2), (0, 0, 7, 3), (5, 0, 5, 0), (2, 2, 2, 2)):
        y_true = [1] * tp + [0] * fp + [0] * tn + [1] * fn
        y_pred = [1] * tp + [1] * fp + [0] * tn + [0] * fn
        cm = confusion(y_true, y_pred)
        assert (cm.tp, cm.fp, cm.tn, cm.fn) == (tp, fp, tn, fn)
        assert accuracy(cm) == (tp + tn) / (tp + fp + tn + fn)
        assert precision(cm) == (tp / (tp + fp) if tp + fp else 0.0)
        assert recall(cm) == (tp / (tp + fn) if tp + fn else 0.0)
        denom = (tp + fp) * (tp + fn) * (tn + fp) * (tn + fn)
        want_mcc = (tp * tn - fp * fn) / math.sqrt(denom) if denom else 0.0
        assert mcc(cm) == want_mcc


# -- 10: the bundled corpus runs fast and reproducibly ----------------------

def _run_cli(workdir, threads):
    return subprocess.run(
        [
            sys.executable, "-m", "soaccept.cli", "run",
            "--posts", str(FIXTURES / "Posts.xml"),
            "--users", str(FIXTURES / "Users.xml"),
            "--out", str(workdir),
            "--threads", str(threads),
        ],
        capture_output=True,
        text=True,
    )


def _tree_bytes(root: Path) -> dict:
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def test_criterion_10_end_to_end_reproducibility(tmp_path):
    started = time.perf_counter()
    first = _run_cli(tmp_path / "a", threads=1)
    elapsed = time.perf_counter() - started
    assert first.returncode == 0, first.stderr
    assert elapsed < 120.0

    report = json.loads((tmp_path / "a" / "ingest_report.json").read_text("utf-8"))
    assert report["questions_retained"] == 200

    assert _run_cli(tmp_path / "b", threads=1).returncode == 0
    assert _run_cli(tmp_path / "c", threads=8).returncode == 0
    a, b, c = (_tree_bytes(tmp_path / sub) for sub in ("a", "b", "c"))
    assert a == b  # rerun
    assert a == c  # thread count
