"""The five stages, the train stage's worker pool, and `rank`.

ingest -> features -> select -> train -> evaluate, each a `cmd_*`
function over one work directory: a stage checks that its
prerequisites are fresh (`manifest.ensure_fresh`), reads their files,
writes its own and records them in ``manifest.json``.  `cmd_run` runs
all five with each file hashed once; `cmd_rank` scores new candidate
answers with the trained models.  Nothing a stage writes carries a
timestamp, so two runs with the same inputs and settings are
byte-identical.
"""

from __future__ import annotations

import json
import math
import os
from pathlib import Path

import numpy as np

from .codec import is_int, is_number, list_of, read_artifact, stamped, write_json
from .errors import ConfigError, DataError
from .features import (
    FEATURE_NAMES,
    analyze_records,
    build_pair_corpus,
    extract_matrix,
    fit_tfidf,
    load_tfidf,
    read_features_csv,
    save_tfidf,
    write_features_csv,
)
from .forest import (
    RfParams,
    fit_forest,
    forest_predict_proba,
    load_forest,
    save_forest,
)
from .ingest import (
    AnswerEntry,
    DecodeError,
    ParseError,
    PostRow,
    QARecord,
    UserRow,
    build_dataset,
    decode_post,
    decode_user,
    parse_timestamp,
    read_dataset,
    stream_rows,
    write_dataset,
)
from .learners import normalized_importance_report, random_search, split_indices
from .manifest import (
    artifact,
    digest_memo,
    dump_digests,
    ensure_fresh,
    record_stage,
    verify_chain,
)
from .metrics import emit_report, evaluate_model
from .mlp import MlpConfig, fit_mlp, load_mlp, mlp_predict_proba, save_mlp
# `standardize` is not called here: perfbench/tracer.py wraps pipeline.standardize
from .resample import apply_plan, standardize
from .seeding import derive_seed
from .selection import select_features
from .settings import RunConfig


# ---------------------------------------------------------------------------
# stages

def _make_dir(path: Path, what: str) -> None:
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # a regular file in the way, say
        raise ConfigError(f"cannot create {what} {path}: {exc}") from exc


def _read_dump(path: str, decode) -> list:
    """Every row of the dump at `path`, decoded; XML that does not parse is
    named by the file, and a row that does not decode by the file, its
    ordinal and its Id if that parses."""
    rows = []
    with open(path, "rb") as fh:
        try:
            for attrs in stream_rows(fh):
                rows.append(decode(attrs))
        except ParseError as exc:
            raise DataError(f"{path}: {exc}") from exc
        except DecodeError as exc:
            try:
                where = f" (Id {int(attrs['Id'])})"
            except (KeyError, ValueError):
                where = ""
            raise DataError(f"{path}: row {len(rows) + 1}{where}: {exc}") from exc
    return rows


def cmd_ingest(cfg: RunConfig) -> dict:
    """Posts + users XML -> dataset.jsonl + ingest_report.json."""
    if not cfg.posts or not cfg.users:
        raise ConfigError('ingest needs "posts" and "users" file paths in the config')
    _make_dir(Path(cfg.workdir), "work directory")
    try:
        posts = _read_dump(cfg.posts, decode_post)
        users = {row.id: row for row in _read_dump(cfg.users, decode_user)}
    except OSError as exc:
        raise DataError(f"cannot read input file: {exc}") from exc

    records, report = build_dataset(posts, users, cfg.filter)
    if not records:
        raise DataError("no questions survived the ingest filters")
    outputs = [artifact(cfg, "dataset.jsonl"), artifact(cfg, "ingest_report.json")]
    write_dataset(records, outputs[0])
    write_json(outputs[1], report)
    record_stage(cfg, "ingest", dump_digests(cfg), outputs)
    return report


def cmd_features(cfg: RunConfig) -> dict:
    """dataset.jsonl -> features.csv + tfidf.json + feature_stats.json."""
    inputs = ensure_fresh(cfg, "features")
    records = read_dataset(artifact(cfg, "dataset.jsonl"))
    if not records:
        raise DataError("dataset.jsonl holds no records")
    analyzed = analyze_records(records)
    tfidf = fit_tfidf(build_pair_corpus(analyzed))
    matrix = extract_matrix(analyzed, tfidf)
    if matrix.x.shape[0] == 0:
        raise DataError("every answer row was dropped during extraction")
    outputs = [artifact(cfg, label) for label in
               ("features.csv", "tfidf.json", "feature_stats.json")]
    write_features_csv(matrix, outputs[0])
    save_tfidf(tfidf, outputs[1])
    stats = write_json(outputs[2], {
        "n_rows": int(matrix.x.shape[0]),
        "n_questions": int(np.unique(matrix.question_ids).size),
        "n_accepted": int(matrix.y.sum()),
        "stats": matrix.stats,
    })
    record_stage(cfg, "features", inputs, outputs)
    return stats


def cmd_select(cfg: RunConfig, matrix=None) -> dict:
    """features.csv -> selection.json (correlation + info-gain pruning).

    `matrix` is features.csv already parsed (by `cmd_run`); without it
    the file is read here.
    """
    inputs = ensure_fresh(cfg, "select")
    if matrix is None:
        matrix = read_features_csv(artifact(cfg, "features.csv"))
    d = cfg.settings["selection"]
    try:
        report = select_features(matrix.x, matrix.y, matrix.names,
                                 d["r_threshold"], d["ig_threshold"], d["mi_k"])
    except DataError as exc:
        raise DataError(f"feature selection failed: {exc}") from exc
    path = artifact(cfg, "selection.json")
    report = write_json(path, report, "selection")
    record_stage(cfg, "select", inputs, [path])
    return report


def _read_selection(cfg: RunConfig, matrix):
    """selection.json, the features it retains, and `matrix`'s columns of them."""
    selection = read_artifact(artifact(cfg, "selection.json"), "selection", "select", {
        "retained": list_of(FEATURE_NAMES.__contains__),
        "info_gain_bits": lambda ig: isinstance(ig, dict) and all(map(is_number, ig.values())),
    })
    retained = selection["retained"]
    if not retained:
        raise DataError("feature selection retained no features; lower the thresholds")
    cols = [matrix.names.index(name) for name in retained]
    return selection, retained, matrix.x[:, cols]


def _worker_count(threads: int, tasks: int) -> int:
    """Processes to fit in: `threads`, capped by the task count and the
    CPUs this process may run on; 1 where the platform cannot fork."""
    if not hasattr(os, "fork"):
        return 1
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    return min(threads, tasks, cpus)


def _fit_models(x, y, params: RfParams, config: MlpConfig, threads: int):
    """The forest and the network, both on `x`.

    One process, as `threads` 1 or a single CPU gives, fits both here,
    one after the other.  With more, as the default 2 gives on two or
    more CPUs, the forest's trees go to a pool of the other forked
    processes, in at most one contiguous run of tree indices per worker,
    joined in index order, while this process fits the network.  So the
    one fit on BLAS stays in one process, and whatever this module binds
    to `fit_mlp` and `fit_forest`, such as a tracer's wrappers, runs here
    and is never pickled.  Fork starts workers without re-importing
    anything, which spawn would pay for on every run.  The command line
    starts no thread of its own, and NumPy's OpenBLAS stops its worker
    threads at the fork and restarts them on its next call.  The pool
    modules are imported here so that loading the package, and so every
    `rank` call, does not pay for them.
    """
    workers = _worker_count(threads, 1 + params.n_estimators)
    if workers == 1:
        return fit_forest(x, y, params), fit_mlp(x, y, config)
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    network = []

    def grow(fn, indices):
        # the pool's map queues every run of trees before it returns, so
        # the network is fitted here while the workers grow them
        runs = pool.map(fn, indices, chunksize=math.ceil(params.n_estimators / (workers - 1)))
        network.append(fit_mlp(x, y, config))
        return runs

    context = multiprocessing.get_context("fork")
    with ProcessPoolExecutor(max_workers=workers - 1, mp_context=context) as pool:
        forest = fit_forest(x, y, params, map=grow)
    return forest, network[0]


def cmd_train(cfg: RunConfig, matrix=None) -> dict:
    """features.csv + selection.json -> fitted models under models/<sampler>/.

    `threads` processes fit the forest's trees and the network side by
    side (`_fit_models`); `matrix` is features.csv already
    parsed, as for `cmd_select`.  Returns what `soaccept train` prints.
    """
    inputs = ensure_fresh(cfg, "train")
    if matrix is None:
        matrix = read_features_csv(artifact(cfg, "features.csv"))
    _, _, x = _read_selection(cfg, matrix)
    y = matrix.y.astype(np.int8)

    try:
        train_idx, test_idx = split_indices(len(y), cfg.split)
    except DataError as exc:
        raise DataError(f"cannot split {len(y)} rows: {exc}") from exc
    x_train, y_train = x[train_idx], y[train_idx]

    params, search = cfg.forest, None
    if cfg.search is not None:
        params, search = random_search(x_train, y_train, cfg.search, cfg.resample)

    x_res, y_res = apply_plan(x_train, y_train, cfg.resample)
    forest, mlp = _fit_models(x_res, y_res, params, cfg.mlp, cfg.threads)

    # medians of the raw training split, for imputing unobserved features
    # at ranking time; computed over all columns, not just the retained ones
    medians = np.median(matrix.x[train_idx], axis=0)

    _make_dir(artifact(cfg, "models/{}"), "model directory")
    outputs = [artifact(cfg, f"models/{{}}/{name}") for name in
               ("model.rf.json", "model.mlp.json", "medians.json", "split.json", "search.json")]
    save_forest(forest, outputs[0])
    save_mlp(mlp, outputs[1])
    write_json(outputs[2], {"names": list(FEATURE_NAMES), "values": medians.tolist()}, "medians")
    write_json(outputs[3], {"train_fraction": cfg.split.train_fraction,
                            "train": train_idx.tolist(), "test": test_idx.tolist()}, "split")
    if search is None:
        # a search.json left by an earlier, searching train would describe
        # another forest than the one beside it
        outputs.pop().unlink(missing_ok=True)
    else:
        write_json(outputs[4], search)
    record_stage(cfg, "train", inputs, outputs)
    return {"resampled_rows": int(len(y_res)), "oob_error": forest.oob_error}


def cmd_evaluate(cfg: RunConfig, matrix=None) -> dict:
    """Held-out metrics + importance rankings -> report/<sampler>/; the
    metrics.json document it writes there, as it was written.

    `matrix` is features.csv already parsed, as for `cmd_select`.
    """
    inputs = ensure_fresh(cfg, "evaluate")
    if matrix is None:
        matrix = read_features_csv(artifact(cfg, "features.csv"))
    selection, retained, x = _read_selection(cfg, matrix)
    y = matrix.y.astype(np.int8)

    in_range = list_of(lambda i: is_int(i) and 0 <= i < len(y))  # indices of features.csv rows
    rows = lambda side: side != [] and in_range(side)  # train never leaves a side empty
    split = read_artifact(artifact(cfg, "models/{}/split.json"), "split", "train",
                          {"train": rows, "test": rows})
    train_rows, test_idx = len(split["train"]), np.asarray(split["test"], dtype=np.int64)
    x_test, y_test = x[test_idx], y[test_idx]

    forest = load_forest(artifact(cfg, "models/{}/model.rf.json"), x.shape[1])
    mlp = load_mlp(artifact(cfg, "models/{}/model.mlp.json"), x.shape[1])

    rf_scores = forest_predict_proba(forest, x_test)
    mlp_scores = mlp_predict_proba(mlp, x_test)
    sampler = cfg.sampler
    evals = (
        evaluate_model("random-forest", sampler, y_test, rf_scores),
        evaluate_model("mlp", sampler, y_test, mlp_scores),
    )
    importance = normalized_importance_report(
        retained, forest, mlp, x_test, y_test,
        seed=derive_seed(cfg.seed, "importance"),
        n_rounds=cfg.settings["evaluate"]["importance_rounds"],
    )
    meta = {
        "sampler": sampler,
        "seed": cfg.seed,
        "train_rows": train_rows,
        "test_rows": int(len(test_idx)),
        "retained_features": len(retained),
    }
    report_dir = artifact(cfg, "report/{}")
    _make_dir(report_dir, "report directory")
    doc, outputs = emit_report(evals, importance, selection["info_gain_bits"], meta, report_dir)
    record_stage(cfg, "evaluate", inputs, outputs)
    return doc


def cmd_run(cfg: RunConfig) -> dict:
    """All five stages in order against one work directory.

    features.csv is parsed once, after the stage that writes it, and the
    matrix is handed to the three stages that read it.  Each file is
    hashed once (`manifest.digest_memo`).  Returns what `soaccept run`
    prints.
    """
    with digest_memo():
        ingest_report = cmd_ingest(cfg)
        feature_stats = cmd_features(cfg)
        matrix = read_features_csv(artifact(cfg, "features.csv"))
        selection = cmd_select(cfg, matrix)
        cmd_train(cfg, matrix)
        cmd_evaluate(cfg, matrix)
    return {
        "questions": ingest_report["questions_retained"],
        "feature_rows": feature_stats["n_rows"],
        "retained_features": len(selection["retained"]),
        "report_dir": str(artifact(cfg, "report/{}")),
    }


# ---------------------------------------------------------------------------
# ranking new candidates

def _candidate_int(value, what: str) -> int | None:
    """An optional integer field: absent or null is None (imputed later);
    any other JSON type, or an integer that `is_int` rejects, is an error
    rather than a silent imputation."""
    if value is None or is_int(value):
        return value
    if type(value) is int:  # wider than 64 bits; a bool is not an int here
        raise DataError(f"{what}: outside the signed 64-bit range")
    raise DataError(f"{what}: not an integer: {value!r}")


def _candidate_ts(value, what: str) -> int | None:
    if isinstance(value, str):
        try:
            return parse_timestamp(value)
        except ValueError:
            raise DataError(f"{what}: not a timestamp: {value!r}") from None
    if value is not None and type(value) is not int:
        raise DataError(f"{what} must be an ISO-8601 string or epoch milliseconds")
    return _candidate_int(value, what)


# the request field and the feature column of each answer's count
_REQUEST_COUNTS = (("score", "Score"), ("comment_count", "CommentCount"),
                   ("reputation", "Reputation"))


def _candidate_record(payload: dict) -> tuple[QARecord, list]:
    """Build a pseudo question/answer record from a rank request.

    Returns the record plus, per answer, a dict from each feature the
    request feeds to its value, or None where the request cannot supply
    it.  The record's clocks and counts are 0, so `extract_matrix` keeps
    every row and leaves those columns for `cmd_rank` to fill.
    """
    if not isinstance(payload, dict):
        raise DataError('rank input must be a JSON object with "question" and "answers"')
    question = payload.get("question")
    answers = payload.get("answers")
    if not isinstance(question, dict) or not isinstance(question.get("body"), str):
        raise DataError('rank input needs a "question" object with a "body" string')
    tags = question.get("tags", [])
    if not isinstance(tags, list) or not all(isinstance(t, str) for t in tags):
        raise DataError("question.tags must be a list of strings")
    if not isinstance(answers, list):
        raise DataError('rank input needs an "answers" list')
    if not answers:
        raise DataError("no candidate answers to rank")

    q_ts = _candidate_ts(question.get("creation_ts"), "question.creation_ts")
    view_count = _candidate_int(question.get("view_count"), "question.view_count")
    q_row = PostRow(id=0, post_type="question", creation_ts=0, body=question["body"],
                    tags=list(tags))

    entries, values = [], []
    for i, answer in enumerate(answers):
        if not isinstance(answer, dict) or not isinstance(answer.get("body"), str):
            raise DataError(f'answers[{i}] needs a "body" string')
        a_ts = _candidate_ts(answer.get("creation_ts"), f"answers[{i}].creation_ts")
        signup_ts = _candidate_ts(
            answer.get("user_creation_ts"), f"answers[{i}].user_creation_ts"
        )
        # the signup lag runs to the answer's own clock, or to the question
        # instant when the answer has none
        own_ts = a_ts if a_ts is not None else q_ts if q_ts is not None else 0
        given = {
            "Timelag": (a_ts - q_ts if q_ts is not None and a_ts is not None
                        and a_ts >= q_ts else None),
            "SignUpDateTimeLag": (own_ts - signup_ts if signup_ts is not None
                                  and signup_ts <= own_ts else None),
            "ViewCount": view_count,
        }
        for field, name in _REQUEST_COUNTS:
            given[name] = _candidate_int(answer.get(field), f"answers[{i}].{field}")
        values.append(given)
        entries.append(AnswerEntry(
            post=PostRow(id=i + 1, post_type="answer", creation_ts=0, body=answer["body"],
                         parent_id=0),
            user=UserRow(id=i + 1, reputation=0, creation_ts=0),
            accepted=False,
        ))
    return QARecord(question=q_row, answers=entries), values


def cmd_rank(cfg: RunConfig, input_path, model_kind: str = "rf") -> dict:
    """Score new candidate answers with the persisted artifacts.

    Candidates are ranked by predicted acceptance probability, ties kept
    in input order.  Features the request cannot supply (vote score and
    view counts accrue after posting; timestamps may be unknown) fall
    back to the training-split medians and are listed per candidate.
    """
    if model_kind not in ("rf", "mlp"):
        raise ConfigError(f"model must be 'rf' or 'mlp', got {model_kind!r}")
    verify_chain(cfg, ("ingest", "features", "select", "train"), requester="rank")

    try:
        with open(input_path, encoding="utf-8") as fh:
            payload = json.load(fh)
    except OSError as exc:
        raise DataError(f"cannot read rank input: {exc}") from exc
    except ValueError as exc:  # not JSON, or not UTF-8
        raise DataError(f"rank input {input_path} is not valid JSON: {exc}") from exc
    record, values = _candidate_record(payload)

    tfidf = load_tfidf(artifact(cfg, "tfidf.json"))
    matrix = extract_matrix(analyze_records([record]), tfidf)

    column_medians = read_artifact(artifact(cfg, "models/{}/medians.json"), "medians", "train", {
        "names": lambda names: names == list(FEATURE_NAMES),
        "values": lambda values: list_of(is_number)(values) and len(values) == len(FEATURE_NAMES),
    })["values"]
    col_of = {name: j for j, name in enumerate(FEATURE_NAMES)}
    imputed = []
    for row, given in zip(matrix.x, values):
        for name, value in given.items():
            j = col_of[name]
            row[j] = column_medians[j] if value is None else float(value)
        imputed.append(sorted(name for name, value in given.items() if value is None))

    _, _, x = _read_selection(cfg, matrix)
    if model_kind == "rf":
        forest = load_forest(artifact(cfg, "models/{}/model.rf.json"), x.shape[1])
        scores = forest_predict_proba(forest, x)
    else:
        mlp = load_mlp(artifact(cfg, "models/{}/model.mlp.json"), x.shape[1])
        scores = mlp_predict_proba(mlp, x)

    order = sorted(range(len(values)), key=lambda i: (-scores[i], i))
    return stamped({
        "model": model_kind,
        "sampler": cfg.sampler,
        "candidates": [
            {
                "index": i,
                "probability": float(scores[i]),
                "imputed": imputed[i],
            }
            for i in order
        ],
    })
