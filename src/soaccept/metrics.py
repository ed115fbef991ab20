"""Binary-classification metrics and report emission.

Accepted answers are the positive class throughout.  Rates with a zero
denominator come back as 0.0.  `evaluate_model` builds each evaluated
model's record of metrics.json, which carries each number once together
with the defined/undefined flag of each rate; report.md is rendered from
those records, so its tables mark an undefined rate rather than hide it.
All emitted files are byte-deterministic for identical inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .codec import write_json
from .errors import DataError
from .features import format_value

# Full-corpus baseline (249,588 answers); desk-scale runs are not
# expected to land on these, they are printed alongside for context.
REFERENCE_RESULTS = {
    "random-forest": {
        "smote": {"accuracy": 0.717, "precision": 0.8825, "recall": 0.7329, "mcc": 0.39},
        "adasyn": {"accuracy": 0.706, "precision": 0.8504, "recall": 0.7107},
    },
    "mlp": {
        "smote": {"accuracy": 0.709, "precision": 0.8729, "recall": 0.7215, "mcc": 0.34},
        "adasyn": {"accuracy": 0.698, "precision": 0.8313, "recall": 0.6945},
    },
}


@dataclass(frozen=True)
class ConfusionMatrix:
    tp: int
    fp: int
    tn: int
    fn: int

    def __post_init__(self):
        if min(self.tp, self.fp, self.tn, self.fn) < 0:
            raise DataError("confusion counts must be nonnegative")

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.tn + self.fn


def confusion(y_true, y_pred) -> ConfusionMatrix:
    y_true = np.asarray(y_true)
    y_pred = np.asarray(y_pred)
    if y_true.shape != y_pred.shape:
        raise DataError("y_true and y_pred lengths differ")
    for arr in (y_true, y_pred):
        if not np.isin(arr, (0, 1)).all():
            raise DataError("labels must be 0/1")
    return ConfusionMatrix(
        tp=int(np.sum((y_true == 1) & (y_pred == 1))),
        fp=int(np.sum((y_true == 0) & (y_pred == 1))),
        tn=int(np.sum((y_true == 0) & (y_pred == 0))),
        fn=int(np.sum((y_true == 1) & (y_pred == 0))),
    )


def accuracy(cm: ConfusionMatrix) -> float:
    if cm.total == 0:
        raise DataError("empty confusion matrix")
    return (cm.tp + cm.tn) / cm.total


def precision(cm: ConfusionMatrix) -> float:
    denom = cm.tp + cm.fp
    return cm.tp / denom if denom else 0.0


def recall(cm: ConfusionMatrix) -> float:
    denom = cm.tp + cm.fn
    return cm.tp / denom if denom else 0.0


def mcc(cm: ConfusionMatrix) -> float:
    """(tp*tn - fp*fn) / sqrt of the four marginal products; 0 when any
    marginal is empty."""
    factors = (
        (cm.tp + cm.fp) * (cm.tp + cm.fn) * (cm.tn + cm.fp) * (cm.tn + cm.fn)
    )
    if factors == 0:
        return 0.0
    return (cm.tp * cm.tn - cm.fp * cm.fn) / math.sqrt(factors)


@dataclass(frozen=True)
class RocCurve:
    points: tuple  # (fpr, tpr, threshold), fpr ascending, ends at (1, 1)
    auc: float


def roc(y_true, scores) -> RocCurve:
    """Threshold sweep over the distinct scores, highest first.

    The curve starts at (0, 0) with an infinite threshold and gains one
    point per distinct score, so it always carries
    distinct-score-count + 1 points.  AUC is the trapezoid area, which
    equals the probability a random positive outscores a random
    negative with ties counted half.
    """
    y = np.asarray(y_true)
    s = np.asarray(scores, dtype=np.float64)
    if y.shape != s.shape:
        raise DataError("labels and scores lengths differ")
    if not np.isin(y, (0, 1)).all():
        raise DataError("labels must be 0/1")
    n_pos = int(np.sum(y == 1))
    n_neg = int(np.sum(y == 0))
    if n_pos == 0 or n_neg == 0:
        raise DataError("roc needs both classes present")

    order = np.argsort(-s, kind="stable")
    ys = y[order]
    ss = s[order]
    cum_pos = np.cumsum(ys)
    boundaries = np.nonzero(np.append(ss[1:] != ss[:-1], True))[0]

    points = [(0.0, 0.0, math.inf)]
    for i in boundaries:
        tp = int(cum_pos[i])
        fp = int(i + 1 - tp)
        points.append((fp / n_neg, tp / n_pos, float(ss[i])))

    area = 0.0
    for (fpr0, tpr0, _), (fpr1, tpr1, _) in zip(points, points[1:]):
        area += (fpr1 - fpr0) * (tpr0 + tpr1) / 2.0
    return RocCurve(points=tuple(points), auc=area)


def evaluate_model(model: str, sampler: str, y_true, scores) -> tuple:
    """One model's metrics.json record under one sampling method, each
    number computed here once from the test labels and `scores`, cut at
    0.5, with the flag of each rate whose denominator may be empty; and
    the `RocCurve` that roc.csv and roc.svg draw."""
    cm = confusion(y_true, (np.asarray(scores, dtype=np.float64) >= 0.5).astype(np.int64))
    curve = roc(y_true, scores)
    record = {
        "model": model,
        "sampler": sampler,
        "confusion": {"tp": cm.tp, "fp": cm.fp, "tn": cm.tn, "fn": cm.fn},
        "accuracy": accuracy(cm),
        "precision": precision(cm),
        "precision_defined": cm.tp + cm.fp > 0,
        "recall": recall(cm),
        "recall_defined": cm.tp + cm.fn > 0,
        "mcc": mcc(cm),
        "auc": curve.auc,
        "n_test_rows": cm.total,
    }
    return record, curve


_MODEL_COLORS = {"random-forest": "#1f77b4", "mlp": "#ff7f0e"}


def _pct(v: float) -> str:
    return f"{100.0 * v:.2f}%"


def _table(header, rows) -> list:
    """The lines of a markdown table, then a blank line."""
    return [
        "| " + " | ".join(header) + " |",
        "| " + " | ".join("---" for _ in header) + " |",
        *("| " + " | ".join(str(cell) for cell in row) + " |" for row in rows),
        "",
    ]


def _report_markdown(doc: dict) -> str:
    """report.md, every cell read from `doc`, the metrics.json document."""
    evals, meta, imp = doc["evals"], doc["meta"], doc["importance"]
    lines = ["# Evaluation report", ""]
    lines += [f"- {key}: {meta[key]}" for key in sorted(meta)]
    lines += ["", "## Test-split metrics", ""]
    lines += _table(
        ("Model", "Sampler", "Accuracy", "Precision", "Recall", "MCC", "AUC"),
        [(ev["model"], ev["sampler"], _pct(ev["accuracy"]),
          _pct(ev["precision"]) if ev["precision_defined"] else "undefined",
          _pct(ev["recall"]) if ev["recall_defined"] else "undefined",
          f"{ev['mcc']:.3f}", f"{ev['auc']:.3f}") for ev in evals],
    )
    lines += ["## Confusion matrices", ""]
    lines += _table(
        ("Model", "Sampler", "TP", "FP", "TN", "FN"),
        [(ev["model"], ev["sampler"], *(ev["confusion"][k] for k in ("tp", "fp", "tn", "fn")))
         for ev in evals],
    )
    lines += ["## Information gain of candidate features (bits)", ""]
    lines += _table(
        ("Feature", "Info gain"),
        [(name, f"{bits:.3f}") for name, bits in
         sorted(doc["info_gain_bits"].items(), key=lambda kv: (-kv[1], kv[0]))],
    )
    lines += ["## Feature weights of the trained models", ""]
    lines += _table(
        ("Feature", "Forest", "Network"),
        [(name, f"{rf:.3f}", f"{nn:.3f}") for name, rf, nn in
         sorted(zip(imp["names"], imp["forest"], imp["mlp"]), key=lambda r: (-r[1], r[0]))],
    )
    lines += [
        "## Full-corpus reference baseline",
        "",
        "Results originally reported for the 249,588-answer corpus; small "
        "fixture runs are not expected to match them.",
        "",
    ]
    lines += _table(
        ("Model", "Sampler", "Accuracy", "Precision", "Recall", "MCC"),
        [(model, sampler, _pct(ref["accuracy"]), _pct(ref["precision"]),
          _pct(ref["recall"]), f"{ref['mcc']:.2f}" if "mcc" in ref else "-")
         for model, by_sampler in sorted(doc["reference"].items())
         for sampler, ref in sorted(by_sampler.items())],
    )
    return "\n".join(lines)


def _roc_csv(evals) -> str:
    rows = ["model,sampler,fpr,tpr,threshold"]
    for record, curve in evals:
        for fpr, tpr, thr in curve.points:
            rows.append(
                f"{record['model']},{record['sampler']},{format_value(fpr)},"
                f"{format_value(tpr)},{format_value(thr)}"
            )
    return "\n".join(rows) + "\n"


def _svg_path(points, width, height, margin):
    coords = []
    for fpr, tpr, _ in points:
        px = margin + fpr * width
        py = margin + (1.0 - tpr) * height
        coords.append(f"{px:.1f},{py:.1f}")
    return " ".join(coords)


def _roc_svg(evals) -> str:
    size, margin = 560, 50
    plot = size - 2 * margin
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {size} {size + 30}" '
        f'font-family="sans-serif" font-size="13">',
        f'<rect x="{margin}" y="{margin}" width="{plot}" height="{plot}" '
        'fill="white" stroke="black"/>',
    ]
    for i in range(6):
        frac = i / 5.0
        x = margin + frac * plot
        y = margin + plot - frac * plot
        parts.append(
            f'<text x="{x:.1f}" y="{margin + plot + 18}" text-anchor="middle">'
            f"{frac:.1f}</text>"
        )
        parts.append(
            f'<text x="{margin - 8}" y="{y:.1f}" text-anchor="end" '
            f'dominant-baseline="middle">{frac:.1f}</text>'
        )
    parts.append(
        f'<text x="{margin + plot / 2:.1f}" y="{size + 20}" text-anchor="middle">'
        "False positive rate</text>"
    )
    parts.append(
        f'<text x="14" y="{margin + plot / 2:.1f}" text-anchor="middle" '
        f'transform="rotate(-90 14 {margin + plot / 2:.1f})">True positive rate</text>'
    )
    parts.append(
        f'<line x1="{margin}" y1="{margin + plot}" x2="{margin + plot}" y2="{margin}" '
        'stroke="#d62728" stroke-dasharray="6,4"/>'
    )
    for idx, (record, curve) in enumerate(evals):
        color = _MODEL_COLORS[record["model"]]
        parts.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="2" '
            f'points="{_svg_path(curve.points, plot, plot, margin)}"/>'
        )
        ly = margin + 16 + 18 * idx
        parts.append(
            f'<rect x="{margin + plot - 190}" y="{ly - 10}" width="24" height="4" '
            f'fill="{color}"/>'
        )
        parts.append(
            f'<text x="{margin + plot - 160}" y="{ly}">'
            f"{record['model']} / {record['sampler']} (AUC {record['auc']:.3f})</text>"
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def emit_report(evals, importance: dict, info_gain_bits: dict, meta: dict, out_dir) -> tuple:
    """Write metrics.json, report.md, roc.csv and roc.svg into `out_dir`,
    an existing directory's Path.  `evals` holds `evaluate_model`'s
    (record, curve) pairs; the metrics.json document holds their records
    and the context report.md shows: the `importance` columns, as
    `normalized_importance_report` returns them, the selection's
    `info_gain_bits` and the run's `meta`.  The document as written, and
    the four paths."""
    if not evals:
        raise DataError("report has no model evaluations to emit")
    doc = {
        "evals": [record for record, _ in evals],
        "reference": REFERENCE_RESULTS,
        "importance": importance,
        "info_gain_bits": info_gain_bits,
        "meta": meta,
    }
    paths = [out_dir / name for name in ("metrics.json", "report.md", "roc.csv", "roc.svg")]
    written = write_json(paths[0], doc)
    texts = (_report_markdown(doc), _roc_csv(evals), _roc_svg(evals))
    for path, text in zip(paths[1:], texts):
        path.write_text(text, encoding="utf-8")
    return written, paths
