"""Output checks computed apart from the program.

Every check compares a file the program wrote against the generator's
plan (`gen.py`) or against a value this module computes itself: its own
CSV reading, tree traversal, Mann-Whitney AUC and sha256 digests.
Nothing here imports the program.  A failed check raises `CheckError`
with what differed.
"""

from __future__ import annotations

import csv
import hashlib
import json
from pathlib import Path

import numpy as np

# features.csv columns that equal a raw field of the dump
RAW_COLUMNS = {
    "Timelag": lambda a: a["answer_ts"] - a["question_ts"],
    "Score": lambda a: a["score"],
    "CommentCount": lambda a: a["comment_count"],
    "Reputation": lambda a: a["reputation"],
    "ViewCount": lambda a: a["view_count"],
    "AnswerCount": lambda a: a["answer_count"],
}


class CheckError(Exception):
    pass


def read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def check_ingest(report: dict, plan: dict) -> None:
    """Retained and per-rule discard counts equal the planted ones."""
    got = {k: v for k, v in report.items() if k != "schema_version"}
    if got != plan["ingest"]:
        raise CheckError(f"ingest report {got} differs from planted {plan['ingest']}")


def read_features(path) -> tuple[list, np.ndarray, list]:
    """(column names, value matrix, labels) of a features.csv."""
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    if header[-1] != "label":
        raise CheckError(f"features.csv header ends with {header[-1]!r}, not 'label'")
    x = np.array([[float(v) for v in r[:-1]] for r in body], dtype=np.float64)
    return header[:-1], x.reshape(len(body), len(header) - 1), [r[-1] for r in body]


def check_features(path, plan: dict) -> None:
    """One row per kept answer minus clock anomalies, in (question, answer)
    order; one accepted label per question; raw columns as planted."""
    names, x, labels = read_features(path)
    expected = [a for a in plan["answers"] if not a["clock_anomaly"]]
    if len(labels) != len(expected):
        raise CheckError(f"features.csv has {len(labels)} rows, expected {len(expected)}")
    accepted_per_question: dict = {}
    for i, (a, label) in enumerate(zip(expected, labels)):
        want = "accepted" if a["accepted"] else "unaccepted"
        if label != want:
            raise CheckError(f"row {i + 1}: label {label!r}, planted {want!r}")
        if label == "accepted":
            accepted_per_question[a["question_id"]] = (
                accepted_per_question.get(a["question_id"], 0) + 1)
    questions = {a["question_id"] for a in expected}
    wrong = [q for q in sorted(questions) if accepted_per_question.get(q) != 1]
    if wrong:
        raise CheckError(f"questions without exactly one accepted row: {wrong[:5]}")
    for column, field in RAW_COLUMNS.items():
        if column not in names:
            raise CheckError(f"features.csv lacks column {column}")
        got = x[:, names.index(column)]
        want = np.array([float(field(a)) for a in expected])
        bad = np.nonzero(got != want)[0]
        if bad.size:
            i = int(bad[0])
            raise CheckError(f"row {i + 1}: {column} = {float(got[i])!r},"
                             f" planted {float(want[i])!r}")


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        while chunk := fh.read(1 << 20):
            h.update(chunk)
    return h.hexdigest()


def check_manifest(workdir: Path, dumps: dict) -> dict:
    """Every manifest hash matches a fresh digest of its file.

    `dumps` maps the ingest input labels ("posts", "users") to the dump
    files.  Returns the manifest.
    """
    manifest = read_json(workdir / "manifest.json")
    for stage, entry in sorted(manifest["stages"].items()):
        files = [(dumps[label] if stage == "ingest" else workdir / label, want)
                 for label, want in entry["inputs"].items()]
        files += [(workdir / rel, want) for rel, want in entry["outputs"].items()]
        for path, want in files:
            if sha256_file(path) != want:
                raise CheckError(f"manifest hash of {path.name} (stage {stage}) is stale")
    return manifest


def hashed_bytes(workdir: Path, manifest: dict, dumps: dict) -> tuple[int, int]:
    """Bytes a `run`, and one `rank` in the README's form, read to hash.

    Computed from the manifest and file sizes, not measured: each stage
    hashes its own inputs and outputs once when it records them, and
    re-hashes every earlier stage's before it starts; `rank` re-hashes
    ingest through train but not the dumps, which it is not given.
    """
    order = ("ingest", "features", "select", "train", "evaluate")
    stages = manifest["stages"]

    def size(stage: str, with_dumps: bool) -> int:
        entry = stages[stage]
        total = sum((workdir / rel).stat().st_size for rel in entry["outputs"])
        for label in entry["inputs"]:
            if stage != "ingest":
                total += (workdir / label).stat().st_size
            elif with_dumps:
                total += Path(dumps[label]).stat().st_size
        return total

    run = sum(size(s, True) for s in order)
    run += sum(size(p, True) for i in range(len(order)) for p in order[:i])
    rank = sum(size(s, False) for s in order[:4])
    return run, rank


def forest_scores(model_path, x: np.ndarray) -> np.ndarray:
    """Mean leaf class-1 fraction over the trees of a saved forest.

    The model file stores each tree as flat arrays (feature -1 marks a
    leaf, rows with value <= threshold go left).  Trees are summed in file
    order and divided by their count, as the model defines its score.
    """
    model = read_json(model_path)
    acc = np.zeros(x.shape[0])
    rows = np.arange(x.shape[0])
    for tree in model["trees"]:
        feature = np.asarray(tree["feature"])
        threshold = np.asarray(tree["threshold"])
        left, right = np.asarray(tree["left"]), np.asarray(tree["right"])
        node = np.zeros(x.shape[0], dtype=np.int64)
        while True:
            f = feature[node]
            inner = f >= 0
            if not inner.any():
                break
            go_left = x[rows, np.where(inner, f, 0)] <= threshold[node]
            node = np.where(inner, np.where(go_left, left[node], right[node]), node)
        acc += np.asarray(tree["proba1"])[node]
    return acc / len(model["trees"])


def mann_whitney_auc(labels: np.ndarray, scores: np.ndarray) -> float:
    """P(random positive outscores random negative), ties counted half."""
    order = np.argsort(scores, kind="stable")
    ranks = np.empty(len(scores))
    sorted_scores = scores[order]
    i = 0
    while i < len(scores):
        j = i
        while j + 1 < len(scores) and sorted_scores[j + 1] == sorted_scores[i]:
            j += 1
        ranks[order[i:j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    n_pos = int(labels.sum())
    n_neg = len(labels) - n_pos
    return (ranks[labels == 1].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def check_metrics(workdir: Path, sampler: str = "smote") -> dict:
    """The forest's reported AUC and accuracy against a recomputation.

    Scores the held-out rows of features.csv (split.json) with the saved
    forest on the retained columns (selection.json), and requires
    metrics.json's forest AUC to equal the Mann-Whitney AUC of those
    scores and its accuracy to beat the majority-class share.  Returns
    the majority share and each model's reported accuracy, for gates.
    """
    names, x, labels = read_features(workdir / "features.csv")
    retained = read_json(workdir / "selection.json")["retained"]
    test = np.asarray(read_json(workdir / "models" / sampler / "split.json")["test"])
    y = np.array([1 if lab == "accepted" else 0 for lab in labels])[test]
    x_test = x[np.ix_(test, [names.index(n) for n in retained])]
    scores = forest_scores(workdir / "models" / sampler / "model.rf.json", x_test)
    report = read_json(workdir / "report" / sampler / "metrics.json")
    evals = {e["model"]: e for e in report["evals"]}
    forest = evals["random-forest"]
    auc = mann_whitney_auc(y, scores)
    if abs(forest["auc"] - auc) > 1e-9:
        raise CheckError(f"forest AUC {forest['auc']!r} in metrics.json, recomputed {auc!r}")
    accuracy = float(np.mean((scores >= 0.5) == (y == 1)))
    if abs(forest["accuracy"] - accuracy) > 1e-12:
        raise CheckError(f"forest accuracy {forest['accuracy']!r}, recomputed {accuracy!r}")
    majority = max(float(y.mean()), 1.0 - float(y.mean()))
    if not forest["accuracy"] > majority:
        raise CheckError(f"forest accuracy {accuracy:.4f} does not beat the "
                         f"majority-class share {majority:.4f}")
    return {"majority": majority, "rf": forest["accuracy"], "mlp": evals["mlp"]["accuracy"]}


def check_mlp_gate(summary: dict) -> None:
    """The network's held-out accuracy beats the majority-class share."""
    if not summary["mlp"] > summary["majority"]:
        raise CheckError(f"mlp accuracy {summary['mlp']:.4f} does not beat the "
                         f"majority-class share {summary['majority']:.4f}")


def check_rank_response(response: dict, request: dict, model: str) -> None:
    """Each candidate once, probabilities in [0, 1], ordered by probability
    with ties in input order, and the imputed features the planted ones."""
    if response.get("model") != model:
        raise CheckError(f"rank answered with model {response.get('model')!r}, not {model!r}")
    cands = response.get("candidates")
    n = len(request["imputed"])
    if not isinstance(cands, list) or sorted(c.get("index") for c in cands) != list(range(n)):
        raise CheckError(f"rank response does not list each of {n} candidates once")
    for c in cands:
        p = c.get("probability")
        if not isinstance(p, float) or not 0.0 <= p <= 1.0:
            raise CheckError(f"candidate {c['index']}: probability {p!r} outside [0, 1]")
        if c.get("imputed") != request["imputed"][c["index"]]:
            raise CheckError(f"candidate {c['index']}: imputed {c.get('imputed')!r}, "
                             f"request left out {request['imputed'][c['index']]!r}")
    for a, b in zip(cands, cands[1:]):
        if (-a["probability"], a["index"]) > (-b["probability"], b["index"]):
            raise CheckError(f"candidates {a['index']} and {b['index']} are out of order")
