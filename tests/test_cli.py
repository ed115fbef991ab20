import ast
import builtins
import hashlib
import importlib
import inspect
import json
import os
import pkgutil
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import soaccept
from soaccept import cli
from soaccept.cli import main
from soaccept.errors import ConfigError, DataError, StageError
from soaccept.pipeline import cmd_evaluate
from soaccept.settings import load_config

FIXTURES = Path(__file__).parent / "fixtures"
POSTS = str(FIXTURES / "Posts.xml")
USERS = str(FIXTURES / "Users.xml")


def run_cli(*argv):
    return main(list(argv))


def common(workdir):
    return ["--posts", POSTS, "--users", USERS, "--out", str(workdir)]


@pytest.fixture(scope="module")
def cli_dir(tmp_path_factory):
    wd = tmp_path_factory.mktemp("cli")
    assert run_cli("run", *common(wd)) == 0
    return wd


def test_stage_commands_chain_to_success(tmp_path, capsys):
    wd = tmp_path / "wd"
    for command in ("ingest", "features", "select", "train", "evaluate"):
        assert run_cli(command, *common(wd)) == 0, command
    out = capsys.readouterr().out
    assert "retained 200 questions" in out
    assert "accuracy" in out


def test_config_error_exits_2(tmp_path):
    assert run_cli("run", *common(tmp_path), "--set", "forest.depth=3") == 2
    assert run_cli("run", *common(tmp_path), "--set", "threads=0") == 2


@pytest.mark.parametrize("sets", [[], ["--set", "forest.max_depth=3"]], ids=["file", "set"])
def test_config_section_not_an_object_exits_2(tmp_path, capsys, sets):
    path = tmp_path / "run.json"
    path.write_text('{"forest": 5}', encoding="utf-8")
    assert run_cli("run", *common(tmp_path / "wd"), "--config", str(path), *sets) == 2
    assert capsys.readouterr().err == "error: forest must be a JSON object\n"


def test_config_file_not_utf8_exits_2(tmp_path, capsys):
    path = tmp_path / "run.json"
    path.write_bytes(b'{"seed": 1, "workdir": "caf\xe9"}')  # latin-1, not UTF-8
    assert run_cli("run", *common(tmp_path / "wd"), "--config", str(path)) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: config file {path} is not valid JSON: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["ingest", "run"])
def test_out_naming_a_file_exits_2(tmp_path, capsys, command):
    blocker = tmp_path / "wd"
    blocker.write_text("a regular file\n", encoding="utf-8")
    assert run_cli(command, *common(blocker)) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot create work directory {blocker}: ")
    assert "Traceback" not in err
    assert blocker.read_text(encoding="utf-8") == "a regular file\n"


@pytest.mark.parametrize(
    "command, blocked, kind",
    [("train", "models", "model"), ("evaluate", "report", "report")],
)
def test_output_directory_blocked_by_a_file_exits_2(cli_dir, tmp_path, capsys,
                                                    command, blocked, kind):
    wd = tmp_path / "wd"
    shutil.copytree(cli_dir, wd)
    shutil.rmtree(wd / blocked)
    (wd / blocked).write_text("a regular file\n", encoding="utf-8")
    capsys.readouterr()
    assert run_cli(command, *common(wd)) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot create {kind} directory {wd / blocked / 'smote'}: ")
    assert "Traceback" not in err
    assert (wd / blocked).read_text(encoding="utf-8") == "a regular file\n"


@pytest.mark.parametrize(
    "setting",
    [
        "forest.n_estimators=2.5",
        "mlp.epochs=2.5",
        "mlp.batch_size=32.0",
        "forest.bootstrap=yes",
        "forest.max_depth=true",
        "forest.max_features=2.0",
        "search.n_iterations=1.5",
        "mlp.hidden=64,64,32,32,16.5",
        "selection.r_threshold=NaN",
        "mlp.learning_rate=Infinity",
        pytest.param("split.train_fraction=" + "9" * 400, id="split.train_fraction=<400 digits>"),
    ],
)
def test_mistyped_setting_exits_2(tmp_path, capsys, setting):
    code = run_cli("run", *common(tmp_path), "--set", setting)
    assert code == 2
    assert setting.partition("=")[0] in capsys.readouterr().err
    assert not any(tmp_path.iterdir())  # rejected before any stage ran


@pytest.mark.parametrize(
    "settings",
    [
        ["resample.k=0"],
        ["filter.years=2016,2014"],
        ["forest.max_features=auto"],
        ["search.enabled=true", "search.max_features=auto"],
        ["mlp.hidden=64,64,32,32,0"],
        ["split.train_fraction=1.5"],
        ["selection.mi_k=0"],
        ["selection.mi_k=-1"],
    ],
    ids=" ".join,
)
def test_out_of_range_setting_names_its_section(tmp_path, capsys, settings):
    sets = [arg for setting in settings for arg in ("--set", setting)]
    assert run_cli("run", *common(tmp_path), *sets) == 2
    section = settings[0].partition(".")[0]
    assert capsys.readouterr().err.startswith(f"error: {section}: ")
    assert not any(tmp_path.iterdir())  # rejected before any stage ran


def test_removed_require_accepted_key_exits_2(tmp_path, capsys):
    code = run_cli("run", *common(tmp_path), "--set", "filter.require_accepted=false")
    assert code == 2
    assert "unknown configuration key: filter.require_accepted" in capsys.readouterr().err


def test_diverging_run_exits_3_alike_in_and_out_of_process(tmp_path, capsys):
    errors = []
    for threads in (1, 2):
        code = run_cli("run", *common(tmp_path / str(threads)), "--threads", str(threads),
                       "--set", "mlp.learning_rate=1e307", "--set", "forest.n_estimators=4")
        assert code == 3
        errors.append(capsys.readouterr().err)
    assert errors[0] == errors[1]
    assert errors[0] == (
        "error: training diverged at epoch 1: loss is no longer finite; "
        "lower the learning rate\n"
    )


def test_every_error_class_has_one_of_three_exit_codes():
    roots = (ConfigError, DataError, StageError)
    assert [cls.exit_code for cls in roots] == [2, 3, 4]
    defined = []
    for info in pkgutil.iter_modules(soaccept.__path__):
        module = importlib.import_module(f"soaccept.{info.name}")
        defined += [obj for obj in vars(module).values()
                    if isinstance(obj, type) and issubclass(obj, BaseException)
                    and obj.__module__ == module.__name__]
        # the package raises only its own classes, never a builtin one
        # (SystemExit only hands main's exit code to the interpreter)
        tree = ast.parse(inspect.getsource(module))
        raised = {node.exc.func.id for node in ast.walk(tree)
                  if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
                  and isinstance(node.exc.func, ast.Name)}
        assert not raised & (set(dir(builtins)) - {"SystemExit"}), module.__name__
    assert set(roots) < set(defined)
    for cls in defined:
        assert issubclass(cls, roots), cls
    # cli.main catches exactly the three, so none can exit 1 with a traceback
    handlers = [node.type for node in ast.walk(ast.parse(inspect.getsource(main)))
                if isinstance(node, ast.ExceptHandler)]
    assert len(handlers) == 1 and isinstance(handlers[0], ast.Tuple)
    assert {vars(cli)[name.id] for name in handlers[0].elts} == set(roots)


def test_data_error_exits_3(tmp_path):
    bad = tmp_path / "Posts.xml"
    bad.write_text("<posts><row Id='1'", encoding="utf-8")
    code = run_cli(
        "ingest", "--posts", str(bad), "--users", USERS, "--out", str(tmp_path / "wd")
    )
    assert code == 3
    code = run_cli(
        "ingest", *common(tmp_path / "wd2"), "--set", "filter.tags=cobol"
    )
    assert code == 3


def test_stage_dependency_error_exits_4(tmp_path, capsys):
    wd = tmp_path / "wd"
    assert run_cli("ingest", *common(wd)) == 0
    assert run_cli("train", *common(wd)) == 4
    err = capsys.readouterr().err
    assert "run features first" in err


@pytest.mark.parametrize(
    "text",
    ['{"schema_version": 1, "stag', '{"schema_version": 1}', "[]",
     '{"schema_version": 1, "stages": []}'],
    ids=["truncated", "no-stages", "list", "stages-list"],
)
def test_corrupt_manifest_exits_4(tmp_path, capsys, text):
    wd = tmp_path / "wd"
    assert run_cli("ingest", *common(wd)) == 0
    (wd / "manifest.json").write_text(text, encoding="utf-8")
    assert run_cli("features", *common(wd)) == 4
    assert "manifest.json is corrupt; remove it and rerun ingest" in capsys.readouterr().err


def test_unsupported_manifest_schema_names_the_remedy(tmp_path, capsys):
    wd = tmp_path / "wd"
    assert run_cli("ingest", *common(wd)) == 0
    manifest = json.loads((wd / "manifest.json").read_text("utf-8"))
    (wd / "manifest.json").write_text(json.dumps(dict(manifest, schema_version=2)), "utf-8")
    assert run_cli("features", *common(wd)) == 4
    assert capsys.readouterr().err == (
        "error: manifest schema 2 is not supported; remove it and rerun ingest\n"
    )


def _edit_json(**changes):
    """An edit of a JSON file that sets `changes`."""
    def edit(text):
        return json.dumps({**json.loads(text), **changes}, indent=2, sort_keys=True)
    return edit


def _without(*keys):
    """An edit of a JSON file that removes `keys`."""
    def edit(text):
        return json.dumps({k: v for k, v in json.loads(text).items() if k not in keys})
    return edit


def _redigest(wd: Path, rel: str) -> None:
    """Record `rel`'s new digest wherever manifest.json names it, so that
    the file's own check, not the digest check, is what meets it."""
    manifest = json.loads((wd / "manifest.json").read_text("utf-8"))
    digest = hashlib.sha256((wd / rel).read_bytes()).hexdigest()
    for entry in manifest["stages"].values():
        for files in (entry["inputs"], entry["outputs"]):
            if rel in files:
                files[rel] = digest
    (wd / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True), "utf-8")


def _edit_record(edit):
    """An edit of dataset.jsonl that applies `edit` to its first record."""
    def apply(text):
        first, rest = text.split("\n", 1)
        record = json.loads(first)
        edit(record)
        return json.dumps(record, sort_keys=True) + "\n" + rest
    return apply


def _edit_doc(edit):
    """An edit of a JSON file that applies `edit` to its document."""
    def apply(text):
        document = json.loads(text)
        edit(document)
        return json.dumps(document)
    return apply


def _first_tree(edit):
    """An edit of model.rf.json that applies `edit` to its first tree."""
    return _edit_doc(lambda doc: edit(doc["trees"][0]))


# a file that carries its own version or kind, edited to another one; the
# command that reads it; the stage that writes it
_FOREIGN = {
    "tfidf": ("tfidf.json", _edit_json(schema_version=2), "rank", "features"),
    "rf": ("models/smote/model.rf.json", _edit_json(schema_version=2), "evaluate", "train"),
    "mlp": ("models/smote/model.mlp.json", _edit_json(schema_version=2), "evaluate", "train"),
    # a network saved without its input scaling, as earlier versions wrote it
    "mlp-unscaled": ("models/smote/model.mlp.json", _without("mean", "sd"), "evaluate", "train"),
    "medians": ("models/smote/medians.json", _edit_json(schema_version=2), "rank", "train"),
    # a network whose input scaling is one feature short; whose first layer
    # lost a unit's row of weights
    "mlp-mean": ("models/smote/model.mlp.json", _edit_doc(lambda doc: doc["mean"].pop()),
                 "evaluate", "train"),
    "mlp-weights": ("models/smote/model.mlp.json", _edit_doc(lambda doc: doc["weights"][0].pop()),
                    "evaluate", "train"),
    # a tree whose root splits on a feature past the last; whose thresholds
    # were cut to one
    "rf-feature": ("models/smote/model.rf.json",
                   _first_tree(lambda tree: tree.update(feature=[99] + tree["feature"][1:])),
                   "evaluate", "train"),
    "rf-short": ("models/smote/model.rf.json",
                 _first_tree(lambda tree: tree.update(threshold=tree["threshold"][:1])),
                 "evaluate", "train"),
    # medians without their feature names; with three values only
    "medians-names": ("models/smote/medians.json", _without("names"), "rank", "train"),
    "medians-values": ("models/smote/medians.json",
                       _edit_doc(lambda doc: doc.update(values=doc["values"][:3])),
                       "rank", "train"),
    # a tf-idf model without its terms
    "tfidf-terms": ("tfidf.json", _without("terms"), "rank", "features"),
    # the first record's version; the first header name
    "dataset": ("dataset.jsonl", lambda text: text.replace('"v": 1', '"v": 2', 1),
                "features", "ingest"),
    "features": ("features.csv", lambda text: text.replace("Score", "Score2", 1),
                 "select", "features"),
    # the first line not JSON, not an object, or without its answers
    "dataset-json": ("dataset.jsonl", lambda text: "{" + text, "features", "ingest"),
    "dataset-list": ("dataset.jsonl", lambda text: "[1]\n" + text.split("\n", 1)[1],
                     "features", "ingest"),
    "dataset-key": ("dataset.jsonl", lambda text: text.replace('"answers"', '"answerz"', 1),
                    "features", "ingest"),
    # the first row's first cell not a number; the first row one cell longer
    "features-cell": ("features.csv", lambda text: text.replace("\n", "\nx", 1),
                      "select", "features"),
    "features-row": ("features.csv", lambda text: text.replace("\n", "\n1,", 1),
                     "select", "features"),
    # the first accepted row's label misspelt
    "features-label": ("features.csv", lambda text: text.replace(",accepted\n", ",acceptd\n", 1),
                       "select", "features"),
    # the first record's version a boolean, its question id a string,
    # first answer's body a number, first answer's accepted flag a string
    "dataset-v": ("dataset.jsonl", lambda text: text.replace('"v": 1', '"v": true', 1),
                  "features", "ingest"),
    "dataset-id": ("dataset.jsonl", _edit_record(lambda r: r["question"].update(id="x")),
                   "features", "ingest"),
    "dataset-body": ("dataset.jsonl", _edit_record(lambda r: r["answers"][0].update(body=5)),
                     "features", "ingest"),
    "dataset-accepted": ("dataset.jsonl",
                         _edit_record(lambda r: r["answers"][0].update(accepted="true")),
                         "features", "ingest"),
    # the first answer's score wider than 64 bits
    "dataset-wide": ("dataset.jsonl",
                     _edit_record(lambda r: r["answers"][0].update(score=10**400 - 1)),
                     "features", "ingest"),
    # the first question without a key that ingest always writes
    "dataset-missing": ("dataset.jsonl", _edit_record(lambda r: r["question"].pop("view_count")),
                        "features", "ingest"),
    # a split without its test side; one whose test side names a row past
    # the last and a boolean
    "split": ("models/smote/split.json", _without("test"), "evaluate", "train"),
    "split-index": ("models/smote/split.json", _edit_json(test=[785, True]), "evaluate", "train"),
    # a selection without the features it retains; without their information gains
    "selection": ("selection.json", _without("retained"), "evaluate", "select"),
    "selection-gain": ("selection.json", _without("info_gain_bits"), "evaluate", "select"),
}


@pytest.mark.parametrize("rel, edit, command, stage", _FOREIGN.values(), ids=_FOREIGN)
def test_file_of_another_version_or_kind_exits_4(cli_dir, tmp_path, capsys, rel, edit,
                                                 command, stage):
    wd = tmp_path / "wd"
    shutil.copytree(cli_dir, wd)
    path = wd / rel
    path.write_text(edit(path.read_text("utf-8")), encoding="utf-8")
    _redigest(wd, rel)
    extra = ["--input", write_request(tmp_path, rank_request())] if command == "rank" else []
    assert run_cli(command, *common(wd), *extra) == 4
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}") and err.count("\n") == 1, err
    assert err.endswith(f"; run {stage} first\n"), err


def test_training_another_sampler_leaves_the_first_one_stale(cli_dir, tmp_path, capsys):
    # the files of both samplers stay, but the manifest keeps one train
    # record, the last sampler trained's, until train runs again
    wd = tmp_path / "wd"
    shutil.copytree(cli_dir, wd)
    smote = {p.name: p.read_bytes() for p in (wd / "models" / "smote").iterdir()}
    for command in ("train", "evaluate"):
        assert run_cli(command, *common(wd), "--set", "resample.method=adasyn") == 0, command
    capsys.readouterr()
    request = ["--input", write_request(tmp_path, rank_request())]
    for command, extra in (("evaluate", []), ("rank", request)):
        assert run_cli(command, *common(wd), *extra) == 4, command
        assert capsys.readouterr().err == (
            "error: settings for stage 'train' changed after it ran; run train first\n"
        )
    assert {p.name: p.read_bytes() for p in (wd / "models" / "smote").iterdir()} == smote
    assert (wd / "models" / "adasyn" / "model.rf.json").is_file()
    assert run_cli("train", *common(wd)) == 0
    assert run_cli("rank", *common(wd), *request) == 0


def _edited_dump(tmp_path, dump, row_id, attribute, value):
    """A copy of fixture `dump` whose row `row_id` has `attribute` set to `value`."""
    lines = (FIXTURES / dump).read_text("utf-8").splitlines(keepends=True)
    i = next(i for i, line in enumerate(lines) if line.startswith(f'  <row Id="{row_id}" '))
    head, sep, tail = lines[i].partition(f' {attribute}="')
    assert sep, (dump, row_id, attribute)
    lines[i] = head + sep + value + tail[tail.index('"'):]
    bad = tmp_path / dump
    bad.write_text("".join(lines), encoding="utf-8")
    return bad


def _run_on(tmp_path, command, bad):
    """`command` on the fixture dumps with `bad` standing in for its namesake."""
    dumps = {"Posts.xml": POSTS, "Users.xml": USERS, bad.name: str(bad)}
    return run_cli(command, "--posts", dumps["Posts.xml"], "--users", dumps["Users.xml"],
                   "--out", str(tmp_path / "wd"))


@pytest.mark.parametrize(
    "dump, attribute, value, where",
    [
        ("Posts.xml", "Score", "x1", "row 3 (Id 3)"),
        ("Users.xml", "Reputation", "x1", "row 3 (Id 3)"),
        ("Posts.xml", "Id", "x1", "row 3"),
    ],
    ids=["posts-score", "users-reputation", "posts-id"],
)
def test_undecodable_row_names_file_row_and_id(tmp_path, capsys, dump, attribute, value, where):
    # the third row of each fixture dump, whose Id is 3, gets a bad value
    bad = _edited_dump(tmp_path, dump, 3, attribute, value)
    assert _run_on(tmp_path, "ingest", bad) == 3
    assert capsys.readouterr().err == (
        f"error: {bad}: {where}: bad attribute {attribute!r}: not an integer: {value!r}\n"
    )


_WIDE = "9" * 400


@pytest.mark.parametrize(
    "dump, row_id, attribute, value, where",
    [
        ("Posts.xml", 3, "Score", _WIDE, "row 3 (Id 3)"),  # an answer
        ("Posts.xml", 1, "ViewCount", _WIDE, "row 1 (Id 1)"),  # a question
        ("Users.xml", 3, "Reputation", _WIDE, "row 3 (Id 3)"),
        ("Posts.xml", 3, "Id", str(-(2**63) - 1), f"row 3 (Id {-(2**63) - 1})"),
    ],
    ids=["answer-score", "question-viewcount", "user-reputation", "post-id"],
)
def test_integer_beyond_int64_exits_3(tmp_path, capsys, dump, row_id, attribute, value, where):
    bad = _edited_dump(tmp_path, dump, row_id, attribute, value)
    assert _run_on(tmp_path, "run", bad) == 3
    assert capsys.readouterr().err == (
        f"error: {bad}: {where}: bad attribute {attribute!r}: outside the signed 64-bit range\n"
    )


def test_signup_before_year_1000_reaches_features(tmp_path, capsys):
    bad = tmp_path / "Users.xml"
    text = (FIXTURES / "Users.xml").read_text("utf-8")
    bad.write_text(re.sub(r'CreationDate="\d{4}-', 'CreationDate="0999-', text), "utf-8")
    assert _run_on(tmp_path, "ingest", bad) == 0
    assert '"user_creation_ts": "0999-' in (tmp_path / "wd" / "dataset.jsonl").read_text("utf-8")
    assert _run_on(tmp_path, "features", bad) == 0
    assert capsys.readouterr().out.startswith("retained 200 questions")


def test_missing_input_file_exits_3(tmp_path):
    code = run_cli(
        "ingest",
        "--posts", str(tmp_path / "absent.xml"),
        "--users", USERS,
        "--out", str(tmp_path / "wd"),
    )
    assert code == 3


def rank_request():
    return {
        "question": {"body": "<p>How to merge nested JSON payloads in java?</p>"},
        "answers": [
            {"body": "<p>Use <code>Jackson</code>. Remember to handle null.</p>"},
            {"body": "<p>You can merge nested JSON payloads with <code>Streams</code>.</p>"},
        ],
    }


def write_request(tmp_path, payload) -> str:
    path = tmp_path / "c.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def test_rank_prints_json(cli_dir, tmp_path, capsys):
    path = write_request(tmp_path, rank_request())
    assert run_cli("rank", *common(cli_dir), "--input", path, "--model", "rf") == 0
    result = json.loads(capsys.readouterr().out)
    assert {c["index"] for c in result["candidates"]} == {0, 1}
    assert result["sampler"] == "smote"


def _edited(question=(), answer=()):
    payload = rank_request()
    payload["question"].update(question)
    payload["answers"][1].update(answer)
    return payload


_BAD_TS = "2015-13-45T00:00:00.000"


@pytest.mark.parametrize(
    "payload, location",
    [
        (_edited(question={"creation_ts": _BAD_TS}), "question.creation_ts: not a timestamp"),
        (_edited(answer={"creation_ts": _BAD_TS}), "answers[1].creation_ts: not a timestamp"),
        ([1, 2], "rank input must be a JSON object"),
        (_edited(question={"tags": 5}), "question.tags must be a list of strings"),
        (_edited(question={"tags": "java"}), "question.tags must be a list of strings"),
        (_edited(question={"creation_ts": 10**400}, answer={"user_creation_ts": 0}),
         "question.creation_ts: outside the signed 64-bit range"),
    ],
    ids=["question-ts", "answer-ts", "top-level-array", "tags-int", "tags-string",
         "question-ts-beyond-int64"],
)
def test_rank_malformed_request_exits_3(cli_dir, tmp_path, capsys, payload, location):
    path = write_request(tmp_path, payload)
    assert run_cli("rank", *common(cli_dir), "--input", path) == 3
    assert f"error: {location}" in capsys.readouterr().err


def test_rank_input_not_utf8_exits_3(cli_dir, tmp_path, capsys):
    path = tmp_path / "c.json"
    text = json.dumps(rank_request()).replace("java?", "caf\u00e9?")
    path.write_bytes(text.encode("latin-1"))
    assert run_cli("rank", *common(cli_dir), "--input", str(path)) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"error: rank input {path} is not valid JSON: ")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "payload, location",
    [
        (_edited(answer={"score": "12"}), "answers[1].score: not an integer: '12'"),
        (_edited(answer={"comment_count": 2.0}), "answers[1].comment_count: not an integer: 2.0"),
        (_edited(answer={"reputation": 5400.0}), "answers[1].reputation: not an integer: 5400.0"),
        (_edited(answer={"reputation": True}), "answers[1].reputation: not an integer: True"),
        (_edited(question={"view_count": "1200"}), "question.view_count: not an integer: '1200'"),
        (_edited(answer={"score": 10**400}), "answers[1].score: outside the signed 64-bit range"),
    ],
    ids=["score-string", "comment-count-float", "reputation-float", "reputation-bool",
         "view-count-string", "score-beyond-int64"],
)
def test_rank_mistyped_count_exits_3(cli_dir, tmp_path, capsys, payload, location):
    path = write_request(tmp_path, payload)
    assert run_cli("rank", *common(cli_dir), "--input", path) == 3
    assert f"error: {location}" in capsys.readouterr().err


def test_rank_null_count_is_imputed(cli_dir, tmp_path, capsys):
    payload = _edited(question={"view_count": None}, answer={"score": None, "reputation": 7})
    path = write_request(tmp_path, payload)
    assert run_cli("rank", *common(cli_dir), "--input", path) == 0
    candidates = json.loads(capsys.readouterr().out)["candidates"]
    imputed = {c["index"]: c["imputed"] for c in candidates}
    assert "Score" in imputed[1] and "ViewCount" in imputed[1]
    assert "Reputation" not in imputed[1]


def _loaded(module: str, body: str, *argv) -> bool:
    """Run `body` in a fresh interpreter; report whether `module` got imported."""
    src = str(Path(soaccept.__file__).parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", f"import sys\n{body}\nprint({module!r} in sys.modules)",
         *argv],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1] == "True"


_MAIN_BODY = "from soaccept.cli import main\nassert main(sys.argv[1:]) == 0"


def _rank_argv(workdir, path, model):
    return ["rank", *common(workdir), "--input", path, "--model", model]


def test_cli_import_leaves_scipy_unloaded():
    assert not _loaded("scipy", "import soaccept.cli")


@pytest.mark.parametrize("model", ["rf", "mlp"])
def test_rank_leaves_scipy_unloaded(cli_dir, tmp_path, model):
    path = write_request(tmp_path, rank_request())
    assert not _loaded("scipy", _MAIN_BODY, *_rank_argv(cli_dir, path, model))


@pytest.mark.parametrize("settings", [(), ("--set", "resample.method=adasyn")],
                         ids=["smote", "adasyn"])
def test_run_leaves_scipy_unloaded(tmp_path, settings):
    argv = ["run", *common(tmp_path / "wd"), *settings]
    assert not _loaded("scipy", _MAIN_BODY, *argv)


# the process pool is imported only when a forest is fitted by several workers
_POOL_MODULES = ("multiprocessing", "concurrent.futures")


@pytest.mark.parametrize("module", _POOL_MODULES)
def test_cli_import_leaves_process_pool_unloaded(module):
    assert not _loaded(module, "import soaccept.cli")


@pytest.mark.parametrize("module", _POOL_MODULES)
@pytest.mark.parametrize("model", ["rf", "mlp"])
def test_rank_leaves_process_pool_unloaded(cli_dir, tmp_path, model, module):
    path = write_request(tmp_path, rank_request())
    assert not _loaded(module, _MAIN_BODY, *_rank_argv(cli_dir, path, model))


def test_console_entry_point_runs(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "soaccept.cli", "select", "--out", str(tmp_path)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 4
    assert "run ingest first" in proc.stderr


def test_train_without_bootstrap_reports_no_oob_error(cli_dir, tmp_path, capsys):
    # every row is in every bag, so no row is out of bag: the error is
    # undefined, as report.md prints a rate with no denominator
    wd = tmp_path / "wd"
    shutil.copytree(cli_dir, wd)
    sets = ["--set", "forest.bootstrap=false", "--set", "forest.n_estimators=5"]
    assert run_cli("train", *common(wd), *sets) == 0
    assert capsys.readouterr().out.endswith(" resampled rows (oob error undefined)\n")
    model = json.loads((wd / "models/smote/model.rf.json").read_text("utf-8"))
    assert model["oob_error"] is None


def test_evaluate_prints_and_returns_the_metrics_json_records(cli_dir, tmp_path, capsys):
    wd = tmp_path / "wd"
    shutil.copytree(cli_dir, wd)
    capsys.readouterr()
    assert run_cli("evaluate", *common(wd)) == 0
    doc = json.loads((wd / "report/smote/metrics.json").read_text("utf-8"))
    assert capsys.readouterr().out.splitlines() == [
        f"{ev['model']}/{ev['sampler']}: accuracy {ev['accuracy']:.4f}"
        f" mcc {ev['mcc']:.4f} auc {ev['auc']:.4f}" for ev in doc["evals"]
    ]
    cfg = load_config(workdir=str(wd), posts=POSTS, users=USERS)
    assert cmd_evaluate(cfg) == doc


def test_seed_flag_changes_models(cli_dir, tmp_path):
    wd = tmp_path / "wd"
    assert run_cli("run", *common(wd), "--seed", "7") == 0
    ours = (wd / "models/smote/model.rf.json").read_bytes()
    theirs = (cli_dir / "models/smote/model.rf.json").read_bytes()
    assert ours != theirs
