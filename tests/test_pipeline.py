import hashlib
import json
import os
import platform
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from _synth import cosine_similarity, vector_concordance_similarity
from soaccept import codec, features, manifest, pipeline, settings
from soaccept.ingest import IngestFilter, parse_timestamp, read_dataset
from soaccept.errors import ConfigError, DataError, StageError
from soaccept.manifest import artifact
from soaccept.pipeline import (
    cmd_evaluate,
    cmd_features,
    cmd_ingest,
    cmd_rank,
    cmd_run,
    cmd_select,
    cmd_train,
)
from soaccept.settings import RunConfig, apply_set_overrides, load_config

FIXTURES = Path(__file__).parent / "fixtures"
POSTS = str(FIXTURES / "Posts.xml")
USERS = str(FIXTURES / "Users.xml")


def make_config(workdir, **extra):
    sets = [f"{k}={v}" for k, v in extra.items()]
    return load_config(sets=sets, posts=POSTS, users=USERS, workdir=str(workdir))


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    """One full pipeline run shared by the read-only tests."""
    wd = tmp_path_factory.mktemp("run")
    cmd_run(make_config(wd))
    return wd


def copy_workdir(run_dir, tmp_path) -> Path:
    dst = tmp_path / "wd"
    shutil.copytree(run_dir, dst)
    return dst


# -- configuration ----------------------------------------------------------

def test_defaults_load_without_a_file():
    cfg = load_config()
    assert cfg.seed == 0
    assert cfg.sampler == "smote"
    assert cfg.filter == IngestFilter(
        tags_any_of=frozenset({"java", "javascript"}), year_range=(2014, 2016)
    )
    assert cfg.forest.n_estimators == 200
    assert cfg.mlp.hidden == (64, 64, 32, 32, 16)
    assert cfg.search is None


def test_unknown_keys_rejected():
    with pytest.raises(ConfigError, match="unknown configuration key: froest"):
        RunConfig.from_dict({"froest": {}})
    with pytest.raises(ConfigError, match="forest.n_trees"):
        RunConfig.from_dict({"forest": {"n_trees": 10}})


def test_bad_values_rejected():
    with pytest.raises(ConfigError):
        RunConfig.from_dict({"threads": 0})
    with pytest.raises(ConfigError):
        RunConfig.from_dict({"seed": "zero"})
    with pytest.raises(ConfigError):
        RunConfig.from_dict({"filter": {"years": [2014]}})
    with pytest.raises(ConfigError):
        RunConfig.from_dict({"filter": {"tags": []}})
    with pytest.raises(ConfigError):
        RunConfig.from_dict({"mlp": {"hidden": [4, 4]}})
    with pytest.raises(ConfigError):
        RunConfig.from_dict({"resample": {"method": "oversample"}})
    with pytest.raises(ConfigError):
        RunConfig.from_dict({"forest": {"max_features": "auto"}})
    with pytest.raises(ConfigError):
        RunConfig.from_dict({"search": {"enabled": True, "max_features": ["auto"]}})


def test_set_overrides_parse_json_words_and_lists():
    data = apply_set_overrides(
        {},
        [
            "forest.n_estimators=50",
            "forest.max_features=sqrt",
            "search.enabled=true",
            "filter.tags=java,javascript",
            "mlp.learning_rate=0.5",
        ],
    )
    assert data["forest"]["n_estimators"] == 50
    assert data["forest"]["max_features"] == "sqrt"
    assert data["search"]["enabled"] is True
    assert data["filter"]["tags"] == ["java", "javascript"]
    assert data["mlp"]["learning_rate"] == 0.5


def test_set_overrides_reject_unknown_and_malformed():
    with pytest.raises(ConfigError, match="unknown configuration key"):
        apply_set_overrides({}, ["forest.depth=3"])
    with pytest.raises(ConfigError, match="key=value"):
        apply_set_overrides({}, ["forest.n_estimators"])


def test_config_file_and_flag_precedence(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"seed": 3, "threads": 2}), encoding="utf-8")
    cfg = load_config(path=path, sets=["seed=5"], seed=9)
    assert cfg.seed == 9  # flag beats --set beats file
    assert cfg.threads == 2
    broken = tmp_path / "broken.json"
    broken.write_text("{", encoding="utf-8")
    with pytest.raises(ConfigError, match="not valid JSON"):
        load_config(path=broken, sets=[])
    with pytest.raises(ConfigError, match="cannot read config file"):
        load_config(path=tmp_path / "absent.json", sets=[])


def test_search_space_built_when_enabled():
    cfg = RunConfig.from_dict(
        {"search": {"enabled": True, "n_iterations": 7, "n_estimators": [10, 20]}}
    )
    space = cfg.search
    assert space.n_iterations == 7
    assert space.n_estimators == (10, 20)
    assert space.cv_folds == 4


def test_readme_defaults_table_matches_the_code():
    # each row of README's Defaults table names its keys in backticks; a
    # `first` &hellip; `last` row names a run of keys in DEFAULT_CONFIG's order
    flat = {f"{section}.{key}" if isinstance(value, dict) else section: inner
            for section, value in settings.DEFAULT_CONFIG.items()
            for key, inner in (value.items() if isinstance(value, dict) else [(None, value)])}
    order = list(flat)
    text = (Path(__file__).parents[1] / "README.md").read_text("utf-8")
    table = text.split("\nDefaults:\n", 1)[1].split("\n## ", 1)[0]
    documented = {}
    for line in table.strip().splitlines()[2:]:  # after the header and its rule
        keys, default = line.strip("| ").split(" | ")[:2]
        names = re.findall(r"`([^`]+)`", keys)
        if "&hellip;" in keys:
            names = order[order.index(names[0]):order.index(names[1]) + 1]
        for name in names:
            assert name not in documented, name
            documented[name] = default
    assert sorted(documented) == sorted(flat)
    for name, default in documented.items():
        if default == "grids":
            assert name.startswith("search.") and isinstance(flat[name], list), name
        else:
            assert json.loads(default.strip("`")) == flat[name], name


# stage config digests: a change to one makes every manifest written before
# it stale, so it must be deliberate
_DIGESTS = {
    "ingest": "1f4f13b3d2632a8115cc7a2ba55ac75118392f1b8e4244a9e4883b11bbfca0a6",
    "features": "44136fa355b3678a1146ad16f7e8649e94fb4fc21fe77e8310c060f61caaff8a",
    "select": "c90323bdc0c668e034ee15ece2f801235b919d019b94dcd309b32197db2a8632",
    "train": "414006e4380b18594f0e0a76fed843c3a360fbb827a219b2a9ff6e7e912ba0aa",
    "evaluate": "fc8bddb132b1f266a969287db8cbadca0b91965149a79d8286cfae20b1a05fc1",
}


@pytest.mark.parametrize(
    "sets, changed",
    [
        ([], {}),
        (
            ["selection.r_threshold=1"],
            {"select": "7a8c1f90e45f1917af803f543f8db9070cf607d67346e30504bc51df3a1c1d12"},
        ),
        (
            ["mlp.learning_rate=1"],
            {"train": "caf3132d27908ccf2e887216d206618c0cafd1888b2d98162d9fcc75927fd9fc"},
        ),
    ],
    ids=["defaults", "r_threshold-int", "learning_rate-int"],
)
def test_stage_fingerprints_are_pinned(sets, changed):
    cfg = load_config(sets=sets)
    got = {stage: manifest._fingerprint(stage, cfg) for stage in _DIGESTS}
    assert got == {**_DIGESTS, **changed}


def test_stage_seeds_differ():
    cfg = load_config()
    seeds = {
        cfg.split.seed,
        cfg.resample.seed,
        cfg.forest.seed,
        cfg.mlp.seed,
    }
    assert len(seeds) == 4


# -- staged runs ------------------------------------------------------------

def test_run_produces_all_artifacts(run_dir):
    for rel in (
        "dataset.jsonl",
        "ingest_report.json",
        "features.csv",
        "feature_stats.json",
        "tfidf.json",
        "selection.json",
        "models/smote/model.rf.json",
        "models/smote/model.mlp.json",
        "models/smote/medians.json",
        "models/smote/split.json",
        "report/smote/report.md",
        "report/smote/roc.csv",
        "report/smote/roc.svg",
        "report/smote/metrics.json",
        "manifest.json",
    ):
        assert (run_dir / rel).exists(), rel


def test_ingest_counts_match_fixture(run_dir):
    report = json.loads((run_dir / "ingest_report.json").read_text("utf-8"))
    assert report["questions_retained"] == 200
    assert report["answers_retained"] == 787
    assert report["accepted_answers"] == 200
    stats = json.loads((run_dir / "feature_stats.json").read_text("utf-8"))
    assert stats["n_questions"] == 200
    # two fixture answers predate their question and drop out here
    assert stats["n_rows"] == 787 - 2
    assert stats["stats"]["rows_dropped_negative_timelag"] == 2


def test_manifest_has_no_timestamps_and_all_stages(run_dir):
    manifest = json.loads((run_dir / "manifest.json").read_text("utf-8"))
    assert sorted(manifest["stages"]) == [
        "evaluate", "features", "ingest", "select", "train",
    ]
    for entry in manifest["stages"].values():
        assert set(entry) == {"config", "inputs", "outputs"}
        for digest in entry["outputs"].values():
            assert len(digest) == 64


def test_every_json_file_carries_the_schema_version(run_dir):
    kinds = {}
    for path in sorted(run_dir.rglob("*.json")):
        doc = json.loads(path.read_text("utf-8"))
        assert doc.get("schema_version") == 1, path
        if "kind" in doc:
            kinds[path.name] = doc["kind"]
    assert kinds == {"tfidf.json": "tfidf", "selection.json": "selection",
                     "model.rf.json": "random-forest", "model.mlp.json": "mlp",
                     "medians.json": "medians", "split.json": "split"}
    with open(run_dir / "dataset.jsonl", encoding="utf-8") as fh:
        assert {json.loads(line)["v"] for line in fh} == {1}


# sha256 of what ingest, features and select write from the bundled
# fixture; these files use no BLAS, so they are the same on every machine
FIXTURE_DIGESTS = {
    "dataset.jsonl": "d5867524328340d7cab50c24c7eaf90d5cd1823b7dcdac18910407ee1e2c9676",
    "ingest_report.json": "c788da8b0776c2dac4f606460b1fce834769b2d257d620787ddb8b651e3fe549",
    "features.csv": "ff5ed4a4e8d6037219164d464e343e9b21f4e735950c38525308ff141a0601b0",
    "tfidf.json": "e43acb890b4e710e6e373db6aeb2421e299c5cc7e02d51f3422b32a6e79929c8",
    "feature_stats.json": "27a057c4670d3412f72eceda4ac5e2317529b740fa6d00bdbfb212c839ba59ba",
    "selection.json": "276909cef0194f50e594ad75df215a5fe57fd9b7d83d2a06658ee13f65c1e3f6",
}


def test_ingest_and_features_artifacts_keep_their_digests(tmp_path):
    cfg = make_config(tmp_path / "wd")
    cmd_ingest(cfg)
    cmd_features(cfg)
    cmd_select(cfg)
    digests = {name: hashlib.sha256((tmp_path / "wd" / name).read_bytes()).hexdigest()
               for name in FIXTURE_DIGESTS}
    assert digests == FIXTURE_DIGESTS


# sha256 of the files that train writes from the bundled fixture and that
# no BLAS kernel changes (`_KERNEL_FREE` below)
TRAIN_DIGESTS = {
    "models/smote/model.rf.json": "d8e2c3775b51bb53d6c62b1c2aca792b1d6921210ad5877fe5ba890251ffab22",
    "models/smote/split.json": "3f4b5ab4e46ac159f997b5c0ae94d7a2c289f7071e40089adc167f79e548be8f",
    "models/smote/medians.json": "2835b45b52dc51f6db424d9071aa3a4d9c9bd7a84e325db2f67773531839b5e6",
}


def test_train_artifacts_keep_their_digests(run_dir):
    assert {rel: _sha256(run_dir / rel) for rel in TRAIN_DIGESTS} == TRAIN_DIGESTS


def _kernel_free_report(wd) -> dict:
    """The parts of report/smote/ that no BLAS kernel changes: metrics.json
    without the network's record and importance column, as sorted-key
    json, and roc.csv without the network's rows."""
    doc = json.loads((wd / "report/smote/metrics.json").read_text("utf-8"))
    doc["evals"] = [ev for ev in doc["evals"] if ev["model"] != "mlp"]
    del doc["importance"]["mlp"]
    lines = (wd / "report/smote/roc.csv").read_text("utf-8").splitlines(keepends=True)
    return {"metrics.json": json.dumps(doc, sort_keys=True),
            "roc.csv": "".join(line for line in lines if not line.startswith("mlp,"))}


# sha256 of `_kernel_free_report` of the bundled fixture's run
EVALUATE_DIGESTS = {
    "metrics.json": "c2d8a23e82b62fecc62faa2c4785b4689a8bfe610c6845e55244c3ca9ae52b47",
    "roc.csv": "0b48f5a01f7c42e8518184de9b819519bf8c6279c2f1ff30680dfa36c6dc2c12",
}


def test_evaluate_artifacts_keep_their_kernel_free_digests(run_dir):
    digests = {name: hashlib.sha256(text.encode("utf-8")).hexdigest()
               for name, text in _kernel_free_report(run_dir).items()}
    assert digests == EVALUATE_DIGESTS


def test_rerunning_one_stage_is_byte_stable(run_dir, tmp_path):
    wd = copy_workdir(run_dir, tmp_path)
    before = (wd / "selection.json").read_bytes()
    cmd_select(make_config(wd))
    assert (wd / "selection.json").read_bytes() == before
    assert (wd / "manifest.json").read_bytes() == (run_dir / "manifest.json").read_bytes()


def test_stages_one_by_one_match_run(run_dir, tmp_path):
    cfg = make_config(tmp_path / "wd")
    for stage in (cmd_ingest, cmd_features, cmd_select, cmd_train, cmd_evaluate):
        stage(cfg)
    assert _files(tmp_path / "wd") == _files(run_dir)


def test_select_returns_the_report_it_wrote(run_dir, tmp_path):
    wd = copy_workdir(run_dir, tmp_path)
    report = cmd_select(make_config(wd))
    assert report == json.loads((wd / "selection.json").read_text("utf-8"))


def _files(root: Path) -> dict:
    return {str(f.relative_to(root)): f.read_bytes() for f in sorted(root.rglob("*"))
            if f.is_file()}


def test_thread_count_does_not_change_models(run_dir, tmp_path):
    wd = copy_workdir(run_dir, tmp_path)
    for method in ("smote", "adasyn"):
        written = []
        # 16 workers are asked for; at most the CPU count are started
        for threads in (1, 2, 16):
            cmd_train(make_config(wd, threads=threads, **{"resample.method": method}))
            written.append(_files(wd / "models" / method))
        assert len(written[0]) == 4
        assert written[0] == written[1] == written[2], method
    assert _files(wd / "models/smote") == _files(run_dir / "models/smote")


@pytest.mark.parametrize("n_trees", [1, 7, 23])
def test_tree_blocks_do_not_change_models(run_dir, tmp_path, n_trees):
    # tree counts that do not split evenly into two runs of tree indices;
    # one tree also leaves a worker no run
    wd = copy_workdir(run_dir, tmp_path)
    written = []
    for threads in (1, 2):
        cmd_train(make_config(wd, threads=threads, **{"forest.n_estimators": n_trees,
                                                      "mlp.epochs": 2}))
        written.append(_files(wd / "models" / "smote"))
    assert written[0] == written[1]


def test_worker_count_is_capped_by_tasks_and_cpus():
    cpus = len(os.sched_getaffinity(0))
    assert pipeline._worker_count(1, 201) == 1
    assert pipeline._worker_count(16, 7) == min(7, cpus)
    assert pipeline._worker_count(10_000, 10_001) == cpus
    assert pipeline._worker_count(16, 1) == 1


def _rebound(fn):
    # a closure, as a tracer's wrapper is, which pickle cannot find by name
    return lambda *args, **kwargs: fn(*args, **kwargs)


def test_train_pool_runs_with_fit_mlp_rebound(run_dir, tmp_path, monkeypatch):
    # wrappers bound over `pipeline.fit_mlp` and `pipeline.fit_forest`, as
    # a tracer installs them, cannot be pickled; the pool is handed only
    # `forest._fit_one`, so it must still fit both models, and the same ones
    wd = copy_workdir(run_dir, tmp_path)
    for name in ("fit_mlp", "fit_forest"):
        monkeypatch.setattr(pipeline, name, _rebound(getattr(pipeline, name)))
    cmd_train(make_config(wd, threads=2))
    assert _files(wd / "models/smote") == _files(run_dir / "models/smote")


def test_train_pool_fits_the_network_in_this_process(run_dir, tmp_path, monkeypatch):
    # a call made in a forked worker would not reach this list, so the
    # network's fit, and a tracer's count of it, stays in this process
    if pipeline._worker_count(2, 2) < 2:
        pytest.skip("needs 2 CPUs and fork for a pool")
    calls = []
    fit = pipeline.fit_mlp

    def counting(*args):
        calls.append(os.getpid())
        return fit(*args)

    monkeypatch.setattr(pipeline, "fit_mlp", counting)
    cmd_train(make_config(copy_workdir(run_dir, tmp_path), threads=2))
    assert calls == [os.getpid()]


def test_run_parses_features_csv_once(tmp_path, monkeypatch):
    calls = []
    original = pipeline.read_features_csv

    def counting(path):
        calls.append(path)
        return original(path)

    monkeypatch.setattr(pipeline, "read_features_csv", counting)
    cfg = make_config(tmp_path / "wd", **{"forest.n_estimators": 4, "mlp.epochs": 2})
    cmd_run(cfg)
    assert len(calls) == 1
    cmd_evaluate(cfg)  # a stage run on its own reads the file itself
    assert len(calls) == 2


def test_train_without_features_names_the_missing_stage(tmp_path):
    cfg = make_config(tmp_path / "wd")
    cmd_ingest(cfg)
    with pytest.raises(StageError, match="run features first"):
        cmd_train(cfg)


def test_nothing_run_at_all_points_at_ingest(tmp_path):
    with pytest.raises(StageError, match="run ingest first"):
        cmd_features(make_config(tmp_path / "wd"))


def test_modified_upstream_artifact_detected(run_dir, tmp_path):
    wd = copy_workdir(run_dir, tmp_path)
    path = wd / "features.csv"
    path.write_text(path.read_text("utf-8").replace("accepted", "accepted", 1) + "#\n")
    with pytest.raises(StageError, match="features.csv was modified.*run features first"):
        cmd_train(make_config(wd))


def test_deleted_artifact_detected(run_dir, tmp_path):
    wd = copy_workdir(run_dir, tmp_path)
    (wd / "selection.json").unlink()
    with pytest.raises(StageError, match="selection.json is missing; run select first"):
        cmd_train(make_config(wd))


def test_config_change_marks_stage_stale(run_dir, tmp_path):
    wd = copy_workdir(run_dir, tmp_path)
    cfg = make_config(wd, **{"selection.ig_threshold": 0.05})
    with pytest.raises(StageError, match="settings for stage 'select' changed"):
        cmd_train(cfg)
    cmd_select(cfg)  # rerunning the named stage clears the block
    cmd_train(cfg)


def test_rerun_producer_marks_its_consumer_stale(run_dir, tmp_path):
    # train's settings are unchanged, but its recorded selection.json no
    # longer matches the digest select recorded on the rerun
    wd = copy_workdir(run_dir, tmp_path)
    cfg = make_config(wd, **{"selection.ig_threshold": 0.05})
    cmd_select(cfg)
    stale = "selection.json changed after stage 'train' ran; run train first"
    with pytest.raises(StageError, match=stale):
        cmd_evaluate(cfg)
    with pytest.raises(StageError, match=stale):
        cmd_rank(cfg, write_payload(tmp_path, rank_payload()))


@pytest.mark.parametrize("call", ["ensure_fresh", "rank", "select", "train", "evaluate"])
def test_freshness_check_hashes_each_file_once(run_dir, tmp_path, monkeypatch, call):
    # a stage records the digests its freshness check verified, so it
    # hashes no input again; the stages write, so they run on a copy
    wd = run_dir if call in ("ensure_fresh", "rank") else copy_workdir(run_dir, tmp_path)
    cfg = make_config(wd)
    request = write_payload(tmp_path, rank_payload())
    calls = {
        "ensure_fresh": lambda: pipeline.ensure_fresh(cfg, "evaluate"),
        "rank": lambda: cmd_rank(cfg, request),
        "select": lambda: cmd_select(cfg),
        "train": lambda: cmd_train(cfg),
        "evaluate": lambda: cmd_evaluate(cfg),
    }
    hashed = []
    original = manifest._sha256_file

    def counting(path):
        hashed.append(Path(path).resolve())
        return original(path)

    monkeypatch.setattr(manifest, "_sha256_file", counting)
    calls[call]()
    assert (wd / "features.csv").resolve() in hashed
    assert len(hashed) == len(set(hashed))


def test_run_hashes_each_file_once(tmp_path, monkeypatch):
    # one run trusts each digest it computed for the rest of the run: the
    # two dumps, then each stage's outputs when it records them
    wd = tmp_path / "wd"
    hashed = []
    original = manifest._sha256_file

    def counting(path):
        hashed.append(Path(path).resolve())
        return original(path)

    monkeypatch.setattr(manifest, "_sha256_file", counting)
    cmd_run(make_config(wd))
    stages = json.loads((wd / "manifest.json").read_text("utf-8"))["stages"]
    outputs = [(wd / rel).resolve() for entry in stages.values() for rel in entry["outputs"]]
    assert sorted(hashed) == sorted([Path(POSTS).resolve(), Path(USERS).resolve(), *outputs])
    assert len(hashed) == 16


def test_run_memo_ends_with_the_run(tmp_path):
    # an edit that keeps the size and the mtime of a file the run hashed
    # is still caught by the next command in the same process
    cfg = make_config(tmp_path / "wd", **{"forest.n_estimators": 5, "mlp.epochs": 1})
    cmd_run(cfg)
    csv_path = artifact(cfg, "features.csv")
    st = csv_path.stat()
    data = bytearray(csv_path.read_bytes())
    data[-2] ^= 1
    with open(csv_path, "r+b") as fh:
        fh.write(data)
    os.utime(csv_path, ns=(st.st_atime_ns, st.st_mtime_ns))
    assert csv_path.stat().st_mtime_ns == st.st_mtime_ns
    with pytest.raises(StageError, match="features.csv was modified after stage 'features' ran"):
        cmd_select(cfg)


def test_failed_run_drops_the_memo(tmp_path):
    cfg = make_config(tmp_path / "wd", **{"filter.tags": "cobol"})
    with pytest.raises(DataError, match="no questions survived"):
        cmd_run(cfg)
    assert manifest._digest_memo is None


def test_unrecorded_input_is_a_corrupt_manifest(run_dir, tmp_path):
    # a stage records the digest its check verified for each file it reads;
    # a producer's record that leaves the file out leaves none to record
    wd = copy_workdir(run_dir, tmp_path)
    manifest = json.loads((wd / "manifest.json").read_text("utf-8"))
    del manifest["stages"]["features"]["outputs"]["features.csv"]
    (wd / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
    with pytest.raises(StageError, match="manifest.json is corrupt; remove it and rerun ingest"):
        cmd_select(make_config(wd))


def _sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


@pytest.mark.parametrize("sampler", ["smote", "adasyn"])
def test_manifest_records_each_stage_inputs(run_dir, tmp_path, sampler):
    wd = run_dir
    if sampler != "smote":
        wd = copy_workdir(run_dir, tmp_path)
        cfg = make_config(wd, **{"resample.method": sampler})
        cmd_train(cfg)
        cmd_evaluate(cfg)
    models = f"models/{sampler}"
    expected = {
        "ingest": ["posts", "users"],
        "features": ["dataset.jsonl"],
        "select": ["features.csv"],
        "train": ["features.csv", "selection.json"],
        "evaluate": [
            "features.csv",
            f"{models}/model.mlp.json",
            f"{models}/model.rf.json",
            f"{models}/split.json",
            "selection.json",
        ],
    }
    stages = json.loads((wd / "manifest.json").read_text("utf-8"))["stages"]
    assert {stage: list(entry["inputs"]) for stage, entry in stages.items()} == expected
    dumps = {"posts": POSTS, "users": USERS}
    for stage, entry in stages.items():
        for label, digest in entry["inputs"].items():
            assert digest == _sha256(dumps[label] if stage == "ingest" else wd / label)


def test_changed_source_dump_marks_ingest_stale(run_dir, tmp_path):
    wd = copy_workdir(run_dir, tmp_path)
    posts = tmp_path / "Posts.xml"
    posts.write_text(
        Path(POSTS).read_text("utf-8").replace("idiomatic", "idiomatique", 1),
        encoding="utf-8",
    )
    cfg = load_config(posts=str(posts), users=USERS, workdir=str(wd))
    with pytest.raises(StageError, match="posts changed.*run ingest first"):
        cmd_features(cfg)


def test_features_analyze_each_post_once(tmp_path, monkeypatch):
    cfg = make_config(tmp_path / "wd")
    cmd_ingest(cfg)
    calls = []
    split = features.split_code_blocks

    def counting_split(body):
        calls.append(body)
        return split(body)

    monkeypatch.setattr(features, "split_code_blocks", counting_split)
    cmd_features(cfg)
    records = read_dataset(artifact(cfg, "dataset.jsonl"))
    assert len(calls) == sum(1 + len(r.answers) for r in records)


def test_features_build_each_question_vector_once(tmp_path, monkeypatch):
    cfg = make_config(tmp_path / "wd")
    cmd_ingest(cfg)
    calls = []
    vector = features.tfidf_vector

    def counting_vector(model, doc):
        calls.append(doc)
        return vector(model, doc)

    monkeypatch.setattr(features, "tfidf_vector", counting_vector)
    n_rows = cmd_features(cfg)["n_rows"]
    questions = len(read_dataset(artifact(cfg, "dataset.jsonl")))
    # one question vector, then one code and one prose vector per row
    assert len(calls) == questions + 2 * n_rows


def test_extracted_similarities_match_the_public_pairwise_functions(run_dir):
    # extract_matrix builds each question's vectors and norms once; each
    # value must equal the one the public functions give pair by pair
    analyzed = features.analyze_records(read_dataset(run_dir / "dataset.jsonl"))
    model = features.fit_tfidf(features.build_pair_corpus(analyzed))
    matrix = features.extract_matrix(analyzed, model)
    row_of = {aid: i for i, aid in enumerate(matrix.answer_ids.tolist())}
    col = {name: matrix.names.index(name)
           for name in ("TextualSimilarity", "TFAnswerCode", "TFAnswerText")}
    checked = 0
    for rec in analyzed:
        q_vec = features.tfidf_vector(model, rec.question.prose_tokens)
        for entry, at in zip(rec.record.answers, rec.answers):
            if entry.post.id not in row_of:  # dropped: answer predates its question
                continue
            row = matrix.x[row_of[entry.post.id]]
            assert row[col["TextualSimilarity"]] == vector_concordance_similarity(
                rec.question.raw_tokens, at.raw_tokens)
            assert row[col["TFAnswerCode"]] == cosine_similarity(
                q_vec, features.tfidf_vector(model, at.code_ids))
            assert row[col["TFAnswerText"]] == cosine_similarity(
                q_vec, features.tfidf_vector(model, at.prose_tokens))
            checked += 1
    assert checked == matrix.x.shape[0]
    assert np.count_nonzero(matrix.x[:, list(col.values())]) > checked


def test_ingest_requires_paths(tmp_path):
    cfg = load_config(workdir=str(tmp_path / "wd"))
    with pytest.raises(ConfigError, match="posts"):
        cmd_ingest(cfg)


def test_filters_with_no_matches_raise_data_error(tmp_path):
    cfg = make_config(tmp_path / "wd", **{"filter.tags": "fortran"})
    with pytest.raises(DataError, match="no questions survived"):
        cmd_ingest(cfg)


def test_adasyn_models_live_beside_smote(run_dir, tmp_path):
    wd = copy_workdir(run_dir, tmp_path)
    cfg = make_config(wd, **{"resample.method": "adasyn"})
    cmd_train(cfg)
    report = cmd_evaluate(cfg)
    assert (wd / "models/adasyn/model.rf.json").exists()
    assert (wd / "models/smote/model.rf.json").exists()
    assert (wd / "report/adasyn/metrics.json").exists()
    assert all(ev["sampler"] == "adasyn" for ev in report["evals"])


def test_fixture_forest_beats_chance_by_a_wide_margin(run_dir):
    metrics = json.loads((run_dir / "report/smote/metrics.json").read_text("utf-8"))
    rf = next(ev for ev in metrics["evals"] if ev["model"] == "random-forest")
    assert rf["accuracy"] > 0.85
    assert rf["auc"] > 0.9


def test_fixture_models_beat_the_majority_share(run_dir):
    # a model that degrades to a constant predictor scores the majority
    # share and an MCC of 0
    metrics = json.loads((run_dir / "report/smote/metrics.json").read_text("utf-8"))
    for ev in metrics["evals"]:
        cm = ev["confusion"]
        majority = max(cm["tp"] + cm["fn"], cm["tn"] + cm["fp"]) / sum(cm.values())
        assert ev["accuracy"] > majority, ev["model"]
        assert ev["mcc"] > 0, ev["model"]


def _md_table(text: str, heading: str):
    """The header line and the cell lists of the table under `heading`."""
    block = text.split(f"## {heading}\n\n", 1)[1].split("\n\n", 1)[0]
    header, separator, *rows = block.splitlines()
    assert separator == "| " + " | ".join(["---"] * (header.count("|") - 1)) + " |"
    return header, [[cell.strip() for cell in row.strip("|").split("|")] for row in rows]


def test_report_md_agrees_with_metrics_json(run_dir):
    report = (run_dir / "report/smote/report.md").read_text("utf-8")
    evals = json.loads((run_dir / "report/smote/metrics.json").read_text("utf-8"))["evals"]

    def rate(ev, key):
        return f"{100.0 * ev[key]:.2f}%" if ev.get(f"{key}_defined", True) else "undefined"

    header, rows = _md_table(report, "Test-split metrics")
    assert header == "| Model | Sampler | Accuracy | Precision | Recall | MCC | AUC |"
    assert rows == [
        [ev["model"], ev["sampler"], rate(ev, "accuracy"), rate(ev, "precision"),
         rate(ev, "recall"), f"{ev['mcc']:.3f}", f"{ev['auc']:.3f}"]
        for ev in evals
    ]
    header, rows = _md_table(report, "Confusion matrices")
    assert header == "| Model | Sampler | TP | FP | TN | FN |"
    assert rows == [
        [ev["model"], ev["sampler"], *(str(ev["confusion"][k]) for k in ("tp", "fp", "tn", "fn"))]
        for ev in evals
    ]
    assert [row[0] for row in rows] == ["random-forest", "mlp"]


def test_roc_files_agree_with_metrics_json(run_dir):
    # each record's curve in roc.csv, in the records' order, has its AUC
    # as trapezoid area, and roc.svg's legend names the record
    report = run_dir / "report/smote"
    evals = json.loads((report / "metrics.json").read_text("utf-8"))["evals"]
    header, *lines = (report / "roc.csv").read_text("utf-8").splitlines()
    assert header == "model,sampler,fpr,tpr,threshold"
    curves = {}
    for line in lines:
        model, sampler, fpr, tpr, _ = line.split(",")
        curves.setdefault((model, sampler), []).append((float(fpr), float(tpr)))
    assert list(curves) == [(ev["model"], ev["sampler"]) for ev in evals]
    svg = (report / "roc.svg").read_text("utf-8")
    for ev in evals:
        points = curves[ev["model"], ev["sampler"]]
        area = sum((x1 - x0) * (y0 + y1) / 2.0 for (x0, y0), (x1, y1) in zip(points, points[1:]))
        assert abs(area - ev["auc"]) <= 1e-6, ev["model"]
        assert f"{ev['model']} / {ev['sampler']} (AUC {ev['auc']:.3f})" in svg


def test_search_writes_trials(run_dir, tmp_path):
    wd = copy_workdir(run_dir, tmp_path)
    cfg = make_config(
        wd,
        **{
            "search.enabled": "true",
            "search.n_iterations": 3,
            "search.cv_folds": 2,
            "search.n_estimators": "5,10",
            "search.max_depth": "4",
            "search.min_samples_split": "2",
            "search.min_samples_leaf": "1",
        },
    )
    cmd_train(cfg)
    search = json.loads((wd / "models/smote/search.json").read_text("utf-8"))
    assert len(search["trials"]) == 3
    assert search["best"]["n_estimators"] in (5, 10)
    assert all(len(t["fold_accuracies"]) == 2 for t in search["trials"])
    # the searched forest and its search.json, byte for byte
    assert _sha256(wd / "models/smote/search.json") == (
        "0a6e072aba4308899211ba45dfd1f989fd5a617297bf437cbcb50ca35576ca41")
    assert _sha256(wd / "models/smote/model.rf.json") == (
        "be77c6201c06f75d92728e748feb3f41de226b5ccd5b6aed398849f8d2b4ecd5")


def test_train_without_search_removes_stale_search_report(run_dir, tmp_path):
    wd = copy_workdir(run_dir, tmp_path)
    searched = make_config(
        wd,
        **{
            "search.enabled": "true",
            "search.n_iterations": 1,
            "search.cv_folds": 2,
            "search.n_estimators": 5,
            "search.max_depth": 5,
        },
    )
    cmd_train(searched)
    assert (wd / "models/smote/search.json").exists()
    cmd_train(make_config(wd))
    outputs = json.loads((wd / "manifest.json").read_text("utf-8"))["stages"]["train"]["outputs"]
    written = [f.relative_to(wd).as_posix() for f in (wd / "models/smote").iterdir()]
    assert sorted(written) == sorted(outputs)
    assert "models/smote/search.json" not in written


def _openblas_dynamic_arch() -> bool:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # a NumPy without the dicts mode
        return False
    return "DYNAMIC_ARCH" in blas.get("openblas configuration", "")


# every file that the README says no BLAS kernel changes
_KERNEL_FREE = ("dataset.jsonl", "ingest_report.json", "features.csv", "tfidf.json",
                "feature_stats.json", "selection.json", "models/smote/model.rf.json",
                "models/smote/split.json", "models/smote/medians.json")


@pytest.mark.skipif(platform.machine() not in ("x86_64", "AMD64") or not _openblas_dynamic_arch(),
                    reason="needs an x86-64 OpenBLAS that picks its kernel at load time")
def test_artifacts_before_the_network_do_not_depend_on_the_blas_kernel(run_dir, tmp_path):
    # Prescott, the oldest x86-64 kernel, orders its sums unlike the newer
    # ones; run_dir ran the quickstart on this machine's own kernel
    wd = tmp_path / "prescott"
    done = subprocess.run(
        [sys.executable, "-m", "soaccept.cli", "run", "--posts", POSTS, "--users", USERS,
         "--out", str(wd)],
        env={**os.environ, "OPENBLAS_CORETYPE": "Prescott"}, capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stderr
    for rel in _KERNEL_FREE:
        assert (wd / rel).read_bytes() == (run_dir / rel).read_bytes(), rel
    assert _kernel_free_report(wd) == _kernel_free_report(run_dir)


# -- ranking ----------------------------------------------------------------

def rank_payload():
    question = {
        "body": "<p>I need to sort a HashMap by value in java."
        " My current attempt throws on the first malformed entry.</p>"
        "<p>What is the idiomatic way to do this?</p>",
        "creation_ts": "2015-03-10T09:15:00.000",
        "view_count": 1200,
        "tags": ["java"],
    }
    strong = {
        "body": "<p>You can sort a HashMap by value with <code>Collections.sort</code>."
        " This keeps the original order stable.</p>"
        "<pre><code>List&lt;String&gt; out = items.stream()\n"
        "    .sorted()\n    .collect(Collectors.toList());</code></pre>",
        "creation_ts": "2015-03-10T09:28:00.000",
        "reputation": 18000,
        "user_creation_ts": "2010-01-05T00:00:00.000",
        "comment_count": 1,
        "score": 11,
    }
    weak = {
        "body": "<p>Try <code>Optional</code> for this."
        " The edge case is an empty collection.</p>",
        "creation_ts": "2015-03-14T22:00:00.000",
        "reputation": 12,
    }
    return {"question": question, "answers": [weak, strong]}


def write_payload(tmp_path, payload) -> str:
    path = tmp_path / "candidates.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def test_rank_prefers_the_planted_strong_answer(run_dir, tmp_path):
    cfg = make_config(run_dir)
    result = cmd_rank(cfg, write_payload(tmp_path, rank_payload()), model_kind="rf")
    assert result["model"] == "rf"
    assert [c["index"] for c in result["candidates"]] == [1, 0]
    probs = {c["index"]: c["probability"] for c in result["candidates"]}
    assert probs[1] > probs[0]
    by_index = {c["index"]: c for c in result["candidates"]}
    assert by_index[1]["imputed"] == []
    # the weak answer gave body, timestamp and reputation, nothing else
    assert by_index[0]["imputed"] == ["CommentCount", "Score", "SignUpDateTimeLag"]


def test_rank_output_carries_the_work_directory_version(run_dir, tmp_path):
    result = cmd_rank(make_config(run_dir), write_payload(tmp_path, rank_payload()))
    stamp = json.loads((run_dir / "manifest.json").read_text("utf-8"))["schema_version"]
    assert codec.is_this_version(result["schema_version"])
    assert result["schema_version"] == codec.SCHEMA_VERSION == stamp


def test_rank_is_deterministic_across_calls_and_models(run_dir, tmp_path):
    cfg = make_config(run_dir)
    path = write_payload(tmp_path, rank_payload())
    for kind in ("rf", "mlp"):
        assert cmd_rank(cfg, path, model_kind=kind) == cmd_rank(cfg, path, model_kind=kind)


def test_identical_candidates_tie_in_input_order(run_dir, tmp_path):
    payload = rank_payload()
    payload["answers"] = [dict(payload["answers"][1]), dict(payload["answers"][1])]
    cfg = make_config(run_dir)
    result = cmd_rank(cfg, write_payload(tmp_path, payload), model_kind="rf")
    probs = [c["probability"] for c in result["candidates"]]
    assert probs[0] == probs[1]
    assert [c["index"] for c in result["candidates"]] == [0, 1]


def test_rank_without_candidates_or_artifacts(run_dir, tmp_path):
    cfg = make_config(run_dir)
    empty = {"question": rank_payload()["question"], "answers": []}
    with pytest.raises(DataError, match="no candidate answers"):
        cmd_rank(cfg, write_payload(tmp_path, empty))
    fresh = make_config(tmp_path / "fresh")
    with pytest.raises(StageError, match="run ingest first"):
        cmd_rank(fresh, write_payload(tmp_path, rank_payload()))


def test_rank_missing_timestamps_fall_back_to_medians(run_dir, tmp_path):
    payload = rank_payload()
    del payload["question"]["creation_ts"]
    del payload["question"]["view_count"]
    cfg = make_config(run_dir)
    result = cmd_rank(cfg, write_payload(tmp_path, payload), model_kind="rf")
    for cand in result["candidates"]:
        assert "Timelag" in cand["imputed"]
        assert "ViewCount" in cand["imputed"]
    medians = json.loads((run_dir / "models/smote/medians.json").read_text("utf-8"))
    lookup = dict(zip(medians["names"], medians["values"]))
    assert lookup["Timelag"] > 0


_Q, _A, _S = "2015-03-10T09:15:00.000", "2015-03-10T09:28:00.000", "2010-01-05T00:00:00.000"


# the question's, the answer's and the signup clock (absent when None), and
# each lag as the pair of clocks it runs between, or None for the median
@pytest.mark.parametrize("q, a, s, timelag, signup_lag", [
    (None, _A, _S, None, ("a", "s")),
    (_Q, "2015-03-10T09:00:00.000", _S, None, ("a", "s")),
    (_Q, _A, "2015-03-11T00:00:00.000", ("a", "q"), None),
    # the signup lag runs to the question's clock
    (_Q, None, _S, None, ("q", "s")),
    (parse_timestamp(_Q), parse_timestamp(_A), parse_timestamp(_S), ("a", "q"), ("a", "s")),
], ids=["no-question-clock", "answer-before-question", "signup-after-answer",
        "no-answer-clock", "epoch-ms"])
def test_rank_signup_lag_kept_without_question_clock(run_dir, tmp_path, monkeypatch,
                                                     q, a, s, timelag, signup_lag):
    payload = rank_payload()
    strong = payload["answers"][1]
    payload["answers"] = [strong]
    for fields, key, clock in ((payload["question"], "creation_ts", q),
                               (strong, "creation_ts", a), (strong, "user_creation_ts", s)):
        fields.pop(key)
        if clock is not None:
            fields[key] = clock
    extracted = []
    extract = pipeline.extract_matrix

    def keep_matrix(*args, **kwargs):
        extracted.append(extract(*args, **kwargs))
        return extracted[-1]

    monkeypatch.setattr(pipeline, "extract_matrix", keep_matrix)
    result = cmd_rank(make_config(run_dir), write_payload(tmp_path, payload))
    # the matrix after imputation: each lag the request gives is its own,
    # not the median
    row = dict(zip(extracted[0].names, extracted[0].x[0]))
    medians = json.loads((run_dir / "models/smote/medians.json").read_text("utf-8"))
    median_of = dict(zip(medians["names"], medians["values"]))
    ms = {k: v if isinstance(v, int) else parse_timestamp(v) for k, v in zip("qas", (q, a, s))
          if v is not None}
    lags = {"Timelag": timelag, "SignUpDateTimeLag": signup_lag}
    for name, clocks in lags.items():
        if clocks is None:
            assert row[name] == median_of[name], name
        else:
            assert row[name] == ms[clocks[0]] - ms[clocks[1]] != median_of[name], name
    assert result["candidates"][0]["imputed"] == sorted(
        name for name, clocks in lags.items() if clocks is None)


def test_rank_rejects_malformed_input(run_dir, tmp_path):
    cfg = make_config(run_dir)
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    with pytest.raises(DataError, match="not valid JSON"):
        cmd_rank(cfg, str(bad))
    with pytest.raises(DataError, match='"question"'):
        cmd_rank(cfg, write_payload(tmp_path, {"answers": [{"body": "x"}]}))
    with pytest.raises(DataError, match="answers\\[0\\]"):
        cmd_rank(
            cfg,
            write_payload(
                tmp_path, {"question": {"body": "<p>q</p>"}, "answers": [{}]}
            ),
        )


def test_rank_scores_live_in_unit_interval(run_dir, tmp_path):
    cfg = make_config(run_dir)
    path = write_payload(tmp_path, rank_payload())
    for kind in ("rf", "mlp"):
        result = cmd_rank(cfg, path, model_kind=kind)
        for cand in result["candidates"]:
            assert 0.0 <= cand["probability"] <= 1.0
    with pytest.raises(ConfigError):
        cmd_rank(cfg, path, model_kind="svm")
