"""Staged batch pipeline over a content-addressed work directory.

Each stage reads its predecessor's files, writes its own, and records a
sha256 fingerprint of both in ``manifest.json``.  Rerunning a stage in
isolation is safe: stale or missing prerequisites fail fast with a
message naming the stage to rerun.  Nothing in the work directory
carries a timestamp, so two runs with the same inputs and settings are
byte-identical.

One `cmd_run` hashes each file once: it keeps every digest it computes,
keyed on the file's (device, inode, size, mtime), and trusts it for the
rest of the run.  A stage run on its own, and `cmd_rank`, keep none and
hash every file they check afresh.

Work directory layout::

    dataset.jsonl            retained question/answer records
    ingest_report.json       retention and discard counts
    features.csv             one feature row per kept answer, plus its label
    feature_stats.json       row/question/accepted counts, extraction counters
    tfidf.json               corpus term frequencies (reused by rank)
    selection.json           correlation/info-gain pruning report
    models/<sampler>/        model.rf.json, model.mlp.json, scaler.json,
                             medians.json, split.json [, search.json]
    report/<sampler>/        report.md, roc.csv, roc.svg, metrics.json
    manifest.json            per-stage config + file fingerprints
"""

from __future__ import annotations

import copy
import hashlib
import json
import math
import os
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

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
    fit_trees,
    forest_predict_proba,
    load_forest,
    save_forest,
)
from .ingest import (
    AnswerEntry,
    IngestFilter,
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
from .learners import (
    SearchSpace,
    SplitSpec,
    normalized_importance_report,
    random_search,
    split_indices,
)
from .metrics import EvalReport, emit_report, evaluate_model
from .mlp import MlpConfig, fit_mlp, load_mlp, mlp_predict_proba, save_mlp
from .resample import ResamplePlan, Scaler, apply_plan, standardize
from .seeding import derive_seed
from .selection import select_features, selection_report


class ConfigError(Exception):
    """Bad configuration: unknown key, wrong type, out-of-range value."""


class DataError(Exception):
    """Input data cannot produce a usable result (empty, degenerate)."""


class StageError(Exception):
    """A prerequisite stage has not run, or its artifacts went stale."""


# ---------------------------------------------------------------------------
# configuration

def _defaults(cls, **pipeline_defaults) -> dict:
    """A stage class's defaults as a settings section: every field but
    `seed`, tuples as lists, then the values where the pipeline's default
    differs from the class's."""
    section = {
        f.name: list(f.default) if isinstance(f.default, tuple) else f.default
        for f in fields(cls)
        if f.name != "seed"
    }
    return {**section, **pipeline_defaults}


DEFAULT_CONFIG = {
    "posts": None,
    "users": None,
    "workdir": "workdir",
    "seed": 0,
    "threads": 1,
    "filter": {
        "tags": ["java", "javascript"],
        "years": [2014, 2016],
    },
    "selection": {"r_threshold": 0.7, "ig_threshold": 0.4, "mi_k": 3},
    "split": _defaults(SplitSpec),
    "resample": _defaults(ResamplePlan, method="smote"),
    "forest": _defaults(RfParams),
    "mlp": _defaults(MlpConfig),
    "search": _defaults(SearchSpace, enabled=False),
    "evaluate": {"importance_rounds": 5},
}


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    # finite only: json also reads NaN, Infinity and integers past a
    # float's range, which no setting means
    try:
        return (_is_int(value) or isinstance(value, float)) and math.isfinite(value)
    except OverflowError:
        return False


# the type rule: what a setting accepts, by the type of its default
_TYPE_RULE = {
    type(None): (lambda v: v is None or isinstance(v, str), "a path string or null"),
    bool: (lambda v: isinstance(v, bool), "true or false"),
    int: (_is_int, "an integer"),
    float: (_is_number, "a number"),
    str: (lambda v: isinstance(v, str), "a string"),
}
# the one union, a name or a count; RfParams checks which names and counts
_NAME_OR_INT = (lambda v: _is_int(v) or isinstance(v, str), "a name or an integer")
_NAME_OR_INT_KEYS = ("forest.max_features", "search.max_features")


def _checked(default, value, path: str = ""):
    """`value` merged onto `default` and checked against its type.

    An object merges key by key, unknown keys rejected; a list takes a
    non-empty list whose items have the type of its first default item;
    a float setting stores an int as a float.  Errors name the dotted key.
    """
    if isinstance(default, dict):
        if not isinstance(value, dict):
            raise ConfigError(f"{path or 'configuration'} must be a JSON object")
        prefix = f"{path}." if path else ""
        for key in value:
            if key not in default:
                raise ConfigError(f"unknown configuration key: {prefix}{key}")
        return {
            key: _checked(sub, value.get(key, sub), prefix + key)
            for key, sub in default.items()
        }
    if isinstance(default, list):
        if not isinstance(value, list) or not value:
            raise ConfigError(f"{path} must be a non-empty list")
        return [_checked(default[0], item, f"{path}[{i}]") for i, item in enumerate(value)]
    if path.partition("[")[0] in _NAME_OR_INT_KEYS:
        accepts, wanted = _NAME_OR_INT
    else:
        accepts, wanted = _TYPE_RULE[type(default)]
    if not accepts(value):
        raise ConfigError(f"{path} must be {wanted}, got {value!r}")
    return float(value) if isinstance(default, float) else value


def _parse_set_value(text: str):
    # JSON first; bare words fall back to strings, comma runs to lists
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        if "," in text:
            return [_parse_set_value(item) for item in text.split(",")]
        return text


def apply_set_overrides(data: dict, assignments) -> dict:
    """Apply `key.path=value` strings on top of a config dict."""
    out = copy.deepcopy(data)
    for raw in assignments:
        key, sep, value = raw.partition("=")
        if not sep or not key:
            raise ConfigError(f"--set needs key=value, got {raw!r}")
        node = out
        parts = key.split(".")
        probe = DEFAULT_CONFIG
        for part in parts[:-1]:
            if not isinstance(probe.get(part), dict):
                raise ConfigError(f"unknown configuration key: {key}")
            probe = probe[part]
            node = node.setdefault(part, {})
        if parts[-1] not in probe:
            raise ConfigError(f"unknown configuration key: {key}")
        parsed = _parse_set_value(value)
        # a single bare word for a list-typed key means a one-element list
        if isinstance(probe[parts[-1]], list) and not isinstance(parsed, list):
            parsed = [parsed]
        node[parts[-1]] = parsed
    return out


@dataclass(frozen=True)
class RunConfig:
    """Checked pipeline settings: `DEFAULT_CONFIG`'s tree with the
    overrides merged in.  Seeds for each stage derive from `seed`."""

    settings: dict

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        cfg = cls(_checked(DEFAULT_CONFIG, data))
        if not cfg.workdir:
            raise ConfigError("workdir must be a non-empty path string")
        if cfg.threads < 1:
            raise ConfigError("threads must be >= 1")
        if len(cfg.settings["filter"]["years"]) != 2:
            raise ConfigError("filter.years must be [first, last]")
        if cfg.settings["selection"]["mi_k"] < 1:
            raise ConfigError("selection: mi_k must be >= 1")
        if cfg.settings["evaluate"]["importance_rounds"] < 1:
            raise ConfigError("evaluate.importance_rounds must be >= 1")
        # building every stage object up front surfaces bad values at load
        # time instead of deep inside a run, named by their section
        for section, build in (
            ("filter", cfg.ingest_filter),
            ("split", cfg.split_spec),
            ("resample", cfg.resample_plan),
            ("forest", cfg.rf_params),
            ("mlp", cfg.mlp_config),
            ("search", cfg.search_space),
        ):
            try:
                build()
            except ValueError as exc:
                raise ConfigError(f"{section}: {exc}") from exc
        return cfg

    @property
    def posts(self) -> str | None:
        return self.settings["posts"]

    @property
    def users(self) -> str | None:
        return self.settings["users"]

    @property
    def workdir(self) -> str:
        return self.settings["workdir"]

    @property
    def seed(self) -> int:
        return self.settings["seed"]

    @property
    def threads(self) -> int:
        return self.settings["threads"]

    @property
    def sampler(self) -> str:
        """The resampling method, which names the model and report directories."""
        return self.settings["resample"]["method"]

    def ingest_filter(self) -> IngestFilter:
        d = self.settings["filter"]
        return IngestFilter(tags_any_of=frozenset(d["tags"]), year_range=tuple(d["years"]))

    def split_spec(self) -> SplitSpec:
        return SplitSpec(seed=derive_seed(self.seed, "split"), **self.settings["split"])

    def resample_plan(self) -> ResamplePlan:
        return ResamplePlan(seed=derive_seed(self.seed, "resample"), **self.settings["resample"])

    def rf_params(self) -> RfParams:
        return RfParams(seed=derive_seed(self.seed, "forest"), **self.settings["forest"])

    def mlp_config(self) -> MlpConfig:
        return MlpConfig(seed=derive_seed(self.seed, "mlp"), **self.settings["mlp"])

    def search_space(self) -> SearchSpace | None:
        d = dict(self.settings["search"])
        if not d.pop("enabled"):
            return None
        grids = {k: tuple(v) if isinstance(v, list) else v for k, v in d.items()}
        return SearchSpace(seed=derive_seed(self.seed, "search"), **grids)


def load_config(
    path=None,
    sets=(),
    seed: int | None = None,
    threads: int | None = None,
    workdir: str | None = None,
    posts: str | None = None,
    users: str | None = None,
) -> RunConfig:
    """Config file, then --set overrides, then dedicated flags; all optional."""
    data: dict = {}
    if path is not None:
        try:
            with open(path, encoding="utf-8") as fh:
                data = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config file {path}: {exc}") from exc
        except ValueError as exc:  # not JSON, or not UTF-8
            raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError("configuration must be a JSON object")
    data = apply_set_overrides(data, sets)
    for key, value in (
        ("seed", seed),
        ("threads", threads),
        ("workdir", workdir),
        ("posts", posts),
        ("users", users),
    ):
        if value is not None:
            data[key] = value
    return RunConfig.from_dict(data)


# ---------------------------------------------------------------------------
# work directory and manifest

@dataclass(frozen=True)
class Paths:
    root: Path
    sampler: str

    @property
    def dataset(self) -> Path:
        return self.root / "dataset.jsonl"

    @property
    def ingest_report(self) -> Path:
        return self.root / "ingest_report.json"

    @property
    def features_csv(self) -> Path:
        return self.root / "features.csv"

    @property
    def feature_stats(self) -> Path:
        return self.root / "feature_stats.json"

    @property
    def tfidf(self) -> Path:
        return self.root / "tfidf.json"

    @property
    def selection(self) -> Path:
        return self.root / "selection.json"

    @property
    def models_dir(self) -> Path:
        return self.root / "models" / self.sampler

    @property
    def report_dir(self) -> Path:
        return self.root / "report" / self.sampler

    @property
    def manifest(self) -> Path:
        return self.root / "manifest.json"

    def rel(self, path: Path) -> str:
        return path.relative_to(self.root).as_posix()


def paths_for(cfg: RunConfig) -> Paths:
    return Paths(root=Path(cfg.workdir), sampler=cfg.sampler)


def _write_json(path: Path, payload: dict) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _make_dir(path: Path, what: str) -> None:
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # a regular file in the way, say
        raise ConfigError(f"cannot create {what} {path}: {exc}") from exc


def _read_json(path: Path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


# digests by (st_dev, st_ino, st_size, st_mtime_ns), kept while `cmd_run`
# runs and None otherwise
_digest_memo: dict | None = None


def _digest(path) -> str:
    """sha256 of `path`: from the memo while one `cmd_run` keeps it and
    the file's key is unchanged since it was hashed, else read afresh."""
    if _digest_memo is None:
        return _sha256_file(path)
    st = os.stat(path)
    key = (st.st_dev, st.st_ino, st.st_size, st.st_mtime_ns)
    if key not in _digest_memo:
        _digest_memo[key] = _sha256_file(path)
    return _digest_memo[key]


# each stage in run order: its first artifact, named in dependency errors;
# the top-level settings its config digest covers (extraction has none, so
# the features stage's freshness rides on dataset.jsonl); and the files it
# reads, which its manifest entry records with the digests checked before
# the read: ingest's dump settings, then work-directory paths, `{}` for
# the sampler
_STAGES = {
    "ingest": ("dataset.jsonl", ("filter",), ("posts", "users")),
    "features": ("features.csv", (), ("dataset.jsonl",)),
    "select": ("selection.json", ("selection",), ("features.csv",)),
    "train": ("trained models", ("seed", "split", "resample", "forest", "mlp", "search"),
              ("features.csv", "selection.json")),
    "evaluate": ("evaluation report", ("seed", "evaluate"),
                 ("features.csv", "selection.json", "models/{}/model.rf.json",
                  "models/{}/model.mlp.json", "models/{}/scaler.json", "models/{}/split.json")),
}


def _fingerprint(stage: str, cfg: RunConfig) -> str:
    part = {key: cfg.settings[key] for key in _STAGES[stage][1]}
    if stage == "evaluate":
        part["sampler"] = cfg.sampler
    text = json.dumps(part, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _load_manifest(p: Paths) -> dict:
    if not p.manifest.exists():
        return {"schema_version": 1, "stages": {}}
    try:
        manifest = _read_json(p.manifest)
    except ValueError:  # not JSON, or not UTF-8
        manifest = None
    if not isinstance(manifest, dict) or not isinstance(manifest.get("stages"), dict):
        raise StageError("manifest.json is corrupt; remove it and rerun ingest")
    if manifest.get("schema_version") != 1:
        raise StageError(
            f"manifest schema {manifest.get('schema_version')!r} is not supported"
        )
    return manifest


def _record_stage(cfg: RunConfig, stage: str, inputs: dict, outputs) -> None:
    """Record `stage` in the manifest: `inputs` maps each label it read to
    the digest checked before the read; only the outputs are hashed here."""
    p = paths_for(cfg)
    manifest = _load_manifest(p)
    manifest["stages"][stage] = {
        "config": _fingerprint(stage, cfg),
        "inputs": inputs,
        "outputs": {p.rel(path): _digest(path) for path in sorted(outputs)},
    }
    _write_json(p.manifest, manifest)


def _verify_chain(cfg: RunConfig, priors, requester: str) -> dict:
    """Check each of `priors`, in run order, against its manifest record.

    Every output is hashed once, or taken from the run's memo
    (`_digest`).  A later stage's recorded input is then
    compared with the digest its producer recorded, which the same loop
    has just checked against the file.  Returns those checked digests,
    by work-directory path.
    """
    p = paths_for(cfg)
    stages = _load_manifest(p)["stages"]
    verified = {}  # output path -> recorded digest, checked against the file
    for prior in priors:
        entry = stages.get(prior)
        if entry is None:
            raise StageError(
                f"stage '{requester}' needs {_STAGES[prior][0]}; run {prior} first"
            )
        if entry.get("config") != _fingerprint(prior, cfg):
            raise StageError(
                f"settings for stage '{prior}' changed after it ran; run {prior} first"
            )
        for label, want in entry.get("inputs", {}).items():
            if prior == "ingest":
                # source dumps are external; they are only comparable while
                # the config still points at them, and the work directory
                # stays self-contained without them (dataset.jsonl is pinned)
                source = cfg.settings[label] if label in _STAGES["ingest"][2] else None
                if source is None or not Path(source).exists():
                    continue
                got = _digest(source)
            else:
                got = verified.get(label)
            if got != want:
                raise StageError(f"{label} changed after stage '{prior}' ran; run {prior} first")
        for rel, want in entry.get("outputs", {}).items():
            out = p.root / rel
            if not out.exists():
                raise StageError(f"{rel} is missing; run {prior} first")
            if _digest(out) != want:
                raise StageError(f"{rel} was modified after stage '{prior}' ran; run {prior} first")
            verified[rel] = want
    return verified


def ensure_fresh(cfg: RunConfig, stage: str) -> dict:
    """Fail with the stage to rerun when any prerequisite is absent or stale.

    Returns the checked digest of each file `stage` reads, by its label.
    """
    order = list(_STAGES)
    verified = _verify_chain(cfg, order[: order.index(stage)], requester=stage)
    labels = [label.format(cfg.sampler) for label in _STAGES[stage][2]]
    try:
        return {label: verified[label] for label in labels}
    except KeyError:  # a producer's record leaves out a file it writes
        raise StageError("manifest.json is corrupt; remove it and rerun ingest") from None


# ---------------------------------------------------------------------------
# stages

def cmd_ingest(cfg: RunConfig) -> dict:
    """Posts + users XML -> dataset.jsonl + ingest_report.json."""
    if not cfg.posts or not cfg.users:
        raise ConfigError('ingest needs "posts" and "users" file paths in the config')
    p = paths_for(cfg)
    _make_dir(p.root, "work directory")

    posts = []
    try:
        with open(cfg.posts, "rb") as fh:
            for attrs in stream_rows(fh):
                posts.append(decode_post(attrs))
        users = {}
        with open(cfg.users, "rb") as fh:
            for attrs in stream_rows(fh):
                row = decode_user(attrs)
                users[row.id] = row
    except OSError as exc:
        raise DataError(f"cannot read input file: {exc}") from exc

    records, report = build_dataset(posts, users, cfg.ingest_filter())
    if not records:
        raise DataError("no questions survived the ingest filters")
    write_dataset(records, p.dataset)
    _write_json(p.ingest_report, {"schema_version": 1, **report})
    dumps = {label: _digest(cfg.settings[label]) for label in _STAGES["ingest"][2]}
    _record_stage(cfg, "ingest", dumps, [p.dataset, p.ingest_report])
    return report


def cmd_features(cfg: RunConfig) -> dict:
    """dataset.jsonl -> features.csv + tfidf.json + feature_stats.json."""
    inputs = ensure_fresh(cfg, "features")
    p = paths_for(cfg)
    records = read_dataset(p.dataset)
    if not records:
        raise DataError("dataset.jsonl holds no records")
    analyzed = analyze_records(records)
    tfidf = fit_tfidf(build_pair_corpus(analyzed))
    matrix = extract_matrix(analyzed, tfidf)
    if matrix.x.shape[0] == 0:
        raise DataError("every answer row was dropped during extraction")
    write_features_csv(matrix, p.features_csv)
    save_tfidf(tfidf, p.tfidf)
    stats = {
        "schema_version": 1,
        "n_rows": int(matrix.x.shape[0]),
        "n_questions": int(np.unique(matrix.question_ids).size),
        "n_accepted": int(matrix.y.sum()),
        "stats": matrix.stats,
    }
    _write_json(p.feature_stats, stats)
    _record_stage(cfg, "features", inputs, [p.features_csv, p.tfidf, p.feature_stats])
    return stats


def cmd_select(cfg: RunConfig, matrix=None) -> dict:
    """features.csv -> selection.json (correlation + info-gain pruning).

    `matrix` is features.csv already parsed (by `cmd_run`); without it
    the file is read here.
    """
    inputs = ensure_fresh(cfg, "select")
    p = paths_for(cfg)
    if matrix is None:
        matrix = read_features_csv(p.features_csv)
    d = cfg.settings["selection"]
    try:
        result, corr, ig = select_features(
            matrix.x,
            matrix.y,
            matrix.names,
            r_threshold=d["r_threshold"],
            ig_threshold=d["ig_threshold"],
            k=d["mi_k"],
        )
    except ValueError as exc:
        raise DataError(f"feature selection failed: {exc}") from exc
    report = selection_report(result, corr, ig, d["r_threshold"], d["ig_threshold"])
    _write_json(p.selection, report)
    _record_stage(cfg, "select", inputs, [p.selection])
    return report


def _retained_columns(matrix, selection: dict):
    retained = selection.get("retained", [])
    if not retained:
        raise DataError("feature selection retained no features; lower the thresholds")
    try:
        cols = [matrix.names.index(name) for name in retained]
    except ValueError as exc:
        raise DataError(f"selection.json names an unknown feature: {exc}") from exc
    return retained, cols


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


def _fit_network(z, y, config: MlpConfig):
    # submitted by reference, so the pool never pickles whatever object
    # `fit_mlp` is bound to in this module; the worker looks it up
    return fit_mlp(z, y, config)


def _fit_models(x, z, y, params: RfParams, config: MlpConfig, threads: int):
    """The forest on `x` and the network on its standardized copy `z`.

    With more than one worker the fits share one pool of forked
    processes: the network goes in first, as one task, and contiguous
    blocks of tree indices follow as the others.  The trees are joined
    in index order as their blocks finish.  Fork starts workers without
    re-importing anything, which spawn would pay for on every run; it
    needs a caller with no other threads running, as the command line
    is.  The pool modules are imported here so that loading the package,
    and so every `rank` call, does not pay for them.
    """
    workers = _worker_count(threads, 1 + params.n_estimators)
    if workers == 1:
        return fit_forest(x, y, params), fit_mlp(z, y, config)
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    context = multiprocessing.get_context("fork")
    with ProcessPoolExecutor(max_workers=workers, mp_context=context) as pool:
        network = pool.submit(_fit_network, z, y, config)
        blocks = [
            pool.submit(fit_trees, x, y, params, block.tolist())
            for block in np.array_split(np.arange(params.n_estimators), workers)
        ]
        fitted = (pair for block in blocks for pair in block.result())
        return fit_forest(x, y, params, fitted), network.result()


def cmd_train(cfg: RunConfig, matrix=None) -> dict:
    """features.csv + selection.json -> fitted models under models/<sampler>/.

    `threads` worker processes fit the forest's trees and the network
    side by side (`_fit_models`); `matrix` is features.csv already
    parsed, as for `cmd_select`.
    """
    inputs = ensure_fresh(cfg, "train")
    p = paths_for(cfg)
    if matrix is None:
        matrix = read_features_csv(p.features_csv)
    selection = _read_json(p.selection)
    retained, cols = _retained_columns(matrix, selection)
    x = matrix.x[:, cols]
    y = matrix.y.astype(np.int8)

    spec = cfg.split_spec()
    try:
        train_idx, test_idx = split_indices(len(y), spec)
    except ValueError as exc:
        raise DataError(f"cannot split {len(y)} rows: {exc}") from exc
    x_train, y_train = x[train_idx], y[train_idx]
    plan = cfg.resample_plan()

    search_result = None
    space = cfg.search_space()
    if space is not None:
        search_result = random_search(x_train, y_train, space, plan)
        params = search_result.best
    else:
        params = cfg.rf_params()

    x_res, y_res = apply_plan(x_train, y_train, plan)
    z_res, scaler = standardize(x_res)
    forest, mlp = _fit_models(x_res, z_res, y_res, params, cfg.mlp_config(), cfg.threads)
    forest.feature_names = tuple(retained)

    # medians of the raw training split, for imputing unobserved features
    # at ranking time; computed over all columns, not just the retained ones
    medians = np.median(matrix.x[train_idx], axis=0)

    _make_dir(p.models_dir, "model directory")
    rf_path = p.models_dir / "model.rf.json"
    mlp_path = p.models_dir / "model.mlp.json"
    save_forest(forest, rf_path)
    save_mlp(mlp, mlp_path)
    scaler_path = p.models_dir / "scaler.json"
    _write_json(
        scaler_path,
        {
            "schema_version": 1,
            "kind": "scaler",
            "names": list(retained),
            "mean": scaler.mean.tolist(),
            "sd": scaler.sd.tolist(),
        },
    )
    medians_path = p.models_dir / "medians.json"
    _write_json(
        medians_path,
        {
            "schema_version": 1,
            "kind": "medians",
            "names": list(FEATURE_NAMES),
            "values": medians.tolist(),
        },
    )
    split_path = p.models_dir / "split.json"
    _write_json(
        split_path,
        {
            "schema_version": 1,
            "train_fraction": spec.train_fraction,
            "train": train_idx.tolist(),
            "test": test_idx.tolist(),
        },
    )
    outputs = [rf_path, mlp_path, scaler_path, medians_path, split_path]
    search_path = p.models_dir / "search.json"
    if search_result is None:
        # a search.json left by an earlier, searching train would describe
        # another forest than the one beside it
        search_path.unlink(missing_ok=True)
    else:
        _write_json(
            search_path,
            {
                "schema_version": 1,
                "best": {k: v for k, v in asdict(params).items() if k != "seed"},
                "trials": search_result.trials,
            },
        )
        outputs.append(search_path)
    _record_stage(cfg, "train", inputs, outputs)
    return {
        "train_rows": int(len(train_idx)),
        "test_rows": int(len(test_idx)),
        "resampled_rows": int(len(y_res)),
        "oob_error": forest.oob_error,
        "mlp_final_loss": mlp.loss_history[-1] if mlp.loss_history else None,
        "searched": search_result is not None,
    }


def _load_scaler(path: Path) -> Scaler:
    payload = _read_json(path)
    if payload.get("schema_version") != 1 or payload.get("kind") != "scaler":
        raise StageError(f"{path} is not a scaler artifact; run train first")
    return Scaler(
        mean=np.asarray(payload["mean"], dtype=np.float64),
        sd=np.asarray(payload["sd"], dtype=np.float64),
    )


def cmd_evaluate(cfg: RunConfig, matrix=None) -> EvalReport:
    """Held-out metrics + importance rankings -> report/<sampler>/.

    `matrix` is features.csv already parsed, as for `cmd_select`.
    """
    inputs = ensure_fresh(cfg, "evaluate")
    p = paths_for(cfg)
    if matrix is None:
        matrix = read_features_csv(p.features_csv)
    selection = _read_json(p.selection)
    retained, cols = _retained_columns(matrix, selection)
    x = matrix.x[:, cols]
    y = matrix.y.astype(np.int8)

    split = _read_json(p.models_dir / "split.json")
    test_idx = np.asarray(split["test"], dtype=np.int64)
    train_rows = len(split["train"])
    x_test, y_test = x[test_idx], y[test_idx]

    forest = load_forest(p.models_dir / "model.rf.json")
    mlp = load_mlp(p.models_dir / "model.mlp.json")
    scaler = _load_scaler(p.models_dir / "scaler.json")
    z_test = scaler.transform(x_test)

    rf_scores = forest_predict_proba(forest, x_test)
    mlp_scores = mlp_predict_proba(mlp, z_test)
    sampler = cfg.sampler
    evals = (
        evaluate_model("random-forest", sampler, y_test, rf_scores),
        evaluate_model("mlp", sampler, y_test, mlp_scores),
    )
    importance = normalized_importance_report(
        tuple(retained),
        forest,
        mlp,
        z_test,
        y_test,
        seed=derive_seed(cfg.seed, "importance"),
        n_rounds=cfg.settings["evaluate"]["importance_rounds"],
    )
    report = EvalReport(
        evals=evals,
        importance=importance,
        info_gain_bits=selection.get("info_gain_bits"),
        meta={
            "sampler": sampler,
            "seed": cfg.seed,
            "train_rows": train_rows,
            "test_rows": int(len(test_idx)),
            "retained_features": len(retained),
        },
    )
    _make_dir(p.report_dir, "report directory")
    written = emit_report(report, p.report_dir)
    _record_stage(cfg, "evaluate", inputs, written)
    return report


def cmd_run(cfg: RunConfig) -> dict:
    """All five stages in order against one work directory.

    features.csv is parsed once, after the stage that writes it, and the
    matrix is handed to the three stages that read it.  Each file is
    hashed once: the digest memo is on until the run returns or fails.
    """
    global _digest_memo
    _digest_memo = {}
    try:
        ingest_report = cmd_ingest(cfg)
        feature_stats = cmd_features(cfg)
        p = paths_for(cfg)
        matrix = read_features_csv(p.features_csv)
        selection = cmd_select(cfg, matrix)
        train_summary = cmd_train(cfg, matrix)
        cmd_evaluate(cfg, matrix)
    finally:
        _digest_memo = None
    return {
        "questions": ingest_report["questions_retained"],
        "answers": ingest_report["answers_retained"],
        "feature_rows": feature_stats["n_rows"],
        "retained_features": len(selection["retained"]),
        "train": train_summary,
        "report_dir": str(p.report_dir),
    }


# ---------------------------------------------------------------------------
# ranking new candidates

def _candidate_ts(value, what: str) -> int | None:
    if value is None:
        return None
    if isinstance(value, bool):
        raise DataError(f"{what} must be an ISO-8601 string or epoch milliseconds")
    if isinstance(value, int):
        return value
    if isinstance(value, str):
        try:
            return parse_timestamp(value)
        except ValueError:
            raise DataError(f"{what}: not a timestamp: {value!r}") from None
    raise DataError(f"{what} must be an ISO-8601 string or epoch milliseconds")


def _candidate_int(value, what: str) -> int | None:
    """An optional integer field: absent or null is None (imputed later);
    any other JSON type is an error rather than a silent imputation."""
    if value is None:
        return None
    if not isinstance(value, int) or isinstance(value, bool):
        raise DataError(f"{what}: not an integer: {value!r}")
    return value


def _candidate_record(payload: dict) -> tuple[QARecord, list]:
    """Build a pseudo question/answer record from a rank request.

    Returns the record plus, per answer, the names of features that were
    not observable in the request and must be median-imputed.
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
    q_row = PostRow(
        id=0,
        post_type="question",
        creation_ts=q_ts if q_ts is not None else 0,
        body=question["body"],
        view_count=_candidate_int(question.get("view_count"), "question.view_count"),
        tags=list(tags),
    )

    entries = []
    imputed: list = []
    for i, answer in enumerate(answers):
        if not isinstance(answer, dict) or not isinstance(answer.get("body"), str):
            raise DataError(f'answers[{i}] needs a "body" string')
        missing = set()
        a_ts = _candidate_ts(answer.get("creation_ts"), f"answers[{i}].creation_ts")
        signup_ts = _candidate_ts(
            answer.get("user_creation_ts"), f"answers[{i}].user_creation_ts"
        )
        # the signup lag runs to the answer's own clock, or to the question
        # instant when the answer has none
        own_ts = a_ts if a_ts is not None else q_row.creation_ts
        if signup_ts is None or signup_ts > own_ts:
            signup_ts = own_ts
            missing.add("SignUpDateTimeLag")
        if q_ts is None or a_ts is None or a_ts < q_ts:
            # no usable pair of clocks; park the answer at the question
            # instant, keeping its signup lag, and let the median fill Timelag
            signup_ts += q_row.creation_ts - own_ts
            a_ts = q_row.creation_ts
            missing.add("Timelag")
        score = _candidate_int(answer.get("score"), f"answers[{i}].score")
        comment_count = _candidate_int(
            answer.get("comment_count"), f"answers[{i}].comment_count"
        )
        reputation = _candidate_int(answer.get("reputation"), f"answers[{i}].reputation")
        for value, name in (
            (score, "Score"),
            (comment_count, "CommentCount"),
            (reputation, "Reputation"),
            (q_row.view_count, "ViewCount"),
        ):
            if value is None:
                missing.add(name)
        entries.append(
            AnswerEntry(
                post=PostRow(
                    id=i + 1,
                    post_type="answer",
                    creation_ts=a_ts,
                    score=score or 0,
                    body=answer["body"],
                    parent_id=0,
                    comment_count=comment_count or 0,
                ),
                user=UserRow(id=i + 1, reputation=reputation or 0, creation_ts=signup_ts),
                accepted=False,
            )
        )
        imputed.append(sorted(missing))
    return QARecord(question=q_row, answers=entries), imputed


def cmd_rank(cfg: RunConfig, input_path, model_kind: str = "rf") -> dict:
    """Score new candidate answers with the persisted artifacts.

    Candidates are ranked by predicted acceptance probability, ties kept
    in input order.  Features the request cannot supply (vote score and
    view counts accrue after posting; timestamps may be unknown) fall
    back to the training-split medians and are listed per candidate.
    """
    if model_kind not in ("rf", "mlp"):
        raise ConfigError(f"model must be 'rf' or 'mlp', got {model_kind!r}")
    _verify_chain(cfg, ("ingest", "features", "select", "train"), requester="rank")
    p = paths_for(cfg)

    try:
        with open(input_path, encoding="utf-8") as fh:
            payload = json.load(fh)
    except OSError as exc:
        raise DataError(f"cannot read rank input: {exc}") from exc
    except ValueError as exc:  # not JSON, or not UTF-8
        raise DataError(f"rank input {input_path} is not valid JSON: {exc}") from exc
    record, imputed = _candidate_record(payload)

    tfidf = load_tfidf(p.tfidf)
    matrix = extract_matrix(analyze_records([record]), tfidf)
    n = len(record.answers)
    if matrix.x.shape[0] != n:
        raise DataError("candidate rows were dropped during extraction")

    medians = _read_json(p.models_dir / "medians.json")
    median_of = dict(zip(medians["names"], medians["values"]))
    col_of = {name: j for j, name in enumerate(matrix.names)}
    for i, names in enumerate(imputed):
        for name in names:
            matrix.x[i, col_of[name]] = median_of[name]

    selection = _read_json(p.selection)
    retained, cols = _retained_columns(matrix, selection)
    x = matrix.x[:, cols]
    if model_kind == "rf":
        forest = load_forest(p.models_dir / "model.rf.json")
        scores = forest_predict_proba(forest, x)
    else:
        mlp = load_mlp(p.models_dir / "model.mlp.json")
        scaler = _load_scaler(p.models_dir / "scaler.json")
        scores = mlp_predict_proba(mlp, scaler.transform(x))

    order = sorted(range(n), key=lambda i: (-scores[i], i))
    return {
        "schema_version": 1,
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
    }
