import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from soaccept.errors import DataError
from soaccept.metrics import (
    REFERENCE_RESULTS,
    ConfusionMatrix,
    accuracy,
    confusion,
    emit_report,
    evaluate_model,
    mcc,
    precision,
    recall,
    roc,
)


def test_perfect_predictions():
    y = [0, 1, 1, 0, 1]
    cm = confusion(y, y)
    assert accuracy(cm) == 1.0
    assert precision(cm) == 1.0
    assert recall(cm) == 1.0
    assert mcc(cm) == 1.0


def test_hand_computed_rates():
    cm = ConfusionMatrix(tp=3, fp=1, tn=4, fn=2)
    assert precision(cm) == 0.75
    assert recall(cm) == 0.6
    assert accuracy(cm) == 0.7


def test_confusion_validation():
    with pytest.raises(DataError, match="lengths"):
        confusion([0, 1], [0, 1, 1])
    with pytest.raises(DataError, match="0/1"):
        confusion([0, 2], [0, 1])
    with pytest.raises(DataError, match="confusion counts must be nonnegative"):
        ConfusionMatrix(tp=-1, fp=0, tn=0, fn=0)


def test_mcc_balanced_mistakes_is_zero():
    assert mcc(ConfusionMatrix(tp=4, fp=4, tn=4, fn=4)) == 0.0


def test_mcc_zero_factor_is_zero():
    assert mcc(ConfusionMatrix(tp=0, fp=0, tn=5, fn=3)) == 0.0


def test_reference_constants_frozen():
    rf = REFERENCE_RESULTS["random-forest"]
    nn = REFERENCE_RESULTS["mlp"]
    assert rf["smote"]["accuracy"] == 0.717
    assert rf["adasyn"]["accuracy"] == 0.706
    assert nn["smote"]["accuracy"] == 0.709
    assert nn["adasyn"]["accuracy"] == 0.698
    assert rf["smote"]["precision"] == 0.8825
    assert rf["smote"]["recall"] == 0.7329
    assert rf["smote"]["mcc"] == 0.39
    assert nn["smote"]["mcc"] == 0.34


counts = st.integers(min_value=0, max_value=40)


@given(tp=counts, fp=counts, tn=counts, fn=counts)
def test_mcc_class_swap_symmetry(tp, fp, tn, fn):
    a = mcc(ConfusionMatrix(tp=tp, fp=fp, tn=tn, fn=fn))
    b = mcc(ConfusionMatrix(tp=tn, fp=fn, tn=tp, fn=fp))
    assert math.isclose(a, b, rel_tol=0, abs_tol=1e-12)


@given(tp=counts, fp=counts, tn=counts, fn=counts)
def test_accuracy_identity(tp, fp, tn, fn):
    if tp + fp + tn + fn == 0:
        return
    cm = ConfusionMatrix(tp=tp, fp=fp, tn=tn, fn=fn)
    assert accuracy(cm) == (tp + tn) / cm.total
    # complement form only agrees to rounding (1 - 2/3 != 1/3 exactly)
    assert math.isclose(accuracy(cm), 1.0 - (fp + fn) / cm.total, abs_tol=1e-15)


def _auc_by_pairs(y, s):
    pos = [sv for yv, sv in zip(y, s) if yv == 1]
    neg = [sv for yv, sv in zip(y, s) if yv == 0]
    wins = sum(1.0 if p > q else 0.5 if p == q else 0.0 for p in pos for q in neg)
    return wins / (len(pos) * len(neg))


def test_roc_perfect_ranking():
    curve = roc([0, 0, 1, 1], [0.1, 0.2, 0.8, 0.9])
    assert curve.auc == 1.0
    assert curve.points[0] == (0.0, 0.0, math.inf)
    assert curve.points[-1][:2] == (1.0, 1.0)


def test_roc_constant_scores():
    curve = roc([0, 1, 0, 1], [0.4, 0.4, 0.4, 0.4])
    assert curve.auc == 0.5
    assert len(curve.points) == 2  # (0,0) plus the single threshold


def test_roc_three_sample_example():
    curve = roc([1, 0, 1], [0.9, 0.8, 0.7])
    assert curve.auc == 0.5
    assert len(curve.points) == 4


def test_roc_rejects_single_class():
    with pytest.raises(DataError, match="both classes"):
        roc([1, 1, 1], [0.1, 0.5, 0.9])


def test_roc_point_count_is_distinct_scores_plus_one():
    y = [0, 1, 0, 1, 1, 0]
    s = [0.1, 0.9, 0.1, 0.5, 0.9, 0.3]
    curve = roc(y, s)
    assert len(curve.points) == len(set(s)) + 1


@settings(deadline=None, max_examples=120)
@given(st.lists(st.tuples(st.integers(0, 1),
                          st.floats(0, 1, allow_nan=False, width=32)),
                min_size=2, max_size=60).filter(
                    lambda ps: 0 < sum(y for y, _ in ps) < len(ps)))
def test_roc_matches_pair_counting_oracle(pairs):
    y = [p[0] for p in pairs]
    s = [float(p[1]) for p in pairs]
    curve = roc(y, s)
    fprs = [p[0] for p in curve.points]
    tprs = [p[1] for p in curve.points]
    assert fprs == sorted(fprs)
    assert tprs == sorted(tprs)
    assert curve.points[0][:2] == (0.0, 0.0)
    assert curve.points[-1][:2] == (1.0, 1.0)
    assert abs(curve.auc - _auc_by_pairs(y, s)) < 1e-12


def _report(*evals):
    """`evals` and the context of their report, as `emit_report` takes them."""
    importance = {"names": ["Score", "Reputation"], "forest": [0.7, 0.3], "mlp": [0.4, 0.6]}
    return evals, importance, {"Score": 0.51, "Reputation": 0.42}, {"test_rows": 40}


def _toy_report():
    rng = np.random.default_rng(3)
    y = (rng.random(40) < 0.4).astype(np.int64)
    noisy = np.clip(0.55 * y + 0.3 * rng.random(40), 0.0, 1.0)
    return _report(
        evaluate_model("random-forest", "smote", y, noisy),
        evaluate_model("mlp", "adasyn", y, 1.0 - noisy * 0.5),
    )


def test_evaluate_model_threshold():
    record, _ = evaluate_model("random-forest", "none", [0, 1, 1], [0.4, 0.5, 0.9])
    assert record["confusion"] == {"tp": 2, "fp": 0, "tn": 1, "fn": 0}


def test_all_negative_predictions_zero_with_flag(tmp_path):
    # the network predicts no positives, so precision has no denominator:
    # metrics.json says so beside its 0.0, and report.md prints "undefined"
    y_true = [1, 0, 1, 0]
    report = _report(
        evaluate_model("random-forest", "smote", y_true, [0.9, 0.1, 0.8, 0.2]),
        evaluate_model("mlp", "smote", y_true, [0.4, 0.3, 0.2, 0.1]),
    )
    emit_report(*report, tmp_path)
    rf, nn = json.loads((tmp_path / "metrics.json").read_text())["evals"]
    assert (nn["precision"], nn["precision_defined"]) == (0.0, False)
    assert (nn["recall"], nn["recall_defined"]) == (0.0, True)
    assert rf["precision_defined"] and rf["recall_defined"]
    md = (tmp_path / "report.md").read_text().splitlines()
    assert "| mlp | smote | 50.00% | undefined | 0.00% | 0.000 | 0.750 |" in md
    assert "| random-forest | smote | 100.00% | 100.00% | 100.00% | 1.000 | 1.000 |" in md


def test_emit_report_writes_all_files(tmp_path):
    report = _toy_report()
    written, paths = emit_report(*report, tmp_path)
    assert paths == [tmp_path / name
                     for name in ("metrics.json", "report.md", "roc.csv", "roc.svg")]
    payload = json.loads((tmp_path / "metrics.json").read_text())
    assert written == payload
    assert payload["schema_version"] == 1
    assert len(payload["evals"]) == 2
    assert payload["reference"] == REFERENCE_RESULTS
    md = (tmp_path / "report.md").read_text()
    assert "| Model | Sampler | Accuracy |" in md
    assert "Full-corpus reference baseline" in md
    assert "| Score |" in md
    svg = (tmp_path / "roc.svg").read_text()
    assert svg.startswith("<svg")
    assert "polyline" in svg


def test_roc_curves_of_one_sampler_differ_in_colour(tmp_path):
    # a pipeline report holds both models under the same sampler
    y = [0, 1, 1, 0]
    report = _report(
        evaluate_model("random-forest", "smote", y, [0.1, 0.9, 0.8, 0.3]),
        evaluate_model("mlp", "smote", y, [0.4, 0.6, 0.7, 0.2]),
    )
    emit_report(*report, tmp_path)
    svg = (tmp_path / "roc.svg").read_text()
    strokes = re.findall(r'<polyline fill="none" stroke="([^"]+)"', svg)
    assert len(strokes) == 2 and strokes[0] != strokes[1]


def test_emit_report_is_byte_deterministic(tmp_path):
    report = _toy_report()
    for sub in ("a", "b"):
        (tmp_path / sub).mkdir()
        emit_report(*report, tmp_path / sub)
    for name in ("report.md", "roc.csv", "roc.svg", "metrics.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_roc_csv_rows(tmp_path):
    report = _toy_report()
    emit_report(*report, tmp_path)
    lines = (tmp_path / "roc.csv").read_text().splitlines()
    assert lines[0] == "model,sampler,fpr,tpr,threshold"
    expected = sum(len(curve.points) for _, curve in report[0])
    assert len(lines) == 1 + expected


def test_emit_report_requires_evals(tmp_path):
    with pytest.raises(DataError, match="no model evaluations"):
        emit_report(*_report(), tmp_path)
