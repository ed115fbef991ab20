import ast
import builtins
import hashlib
import importlib
import inspect
import json
import math
import os
import pkgutil
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
        pytest.param("forest.n_estimators=" + "9" * 400, id="forest.n_estimators=<400 digits>"),
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
     '{"schema_version": 1, "stages": []}',
     '{"schema_version": 1, "stages": {"ingest": []}}',
     '{"schema_version": 1, "stages": {"ingest": {"config": <c>, "inputs": [], "outputs": {}}}}',
     '{"schema_version": 1, "stages": {"ingest": {"config": <c>, "inputs": {}, "outputs": 5}}}'],
    ids=["truncated", "no-stages", "list", "stages-list", "record-list", "inputs-list",
         "outputs-number"],
)
def test_corrupt_manifest_exits_4(tmp_path, capsys, text):
    wd = tmp_path / "wd"
    assert run_cli("ingest", *common(wd)) == 0
    # a record keeps ingest's real settings digest, so that its files are
    # what the check meets
    config = json.loads((wd / "manifest.json").read_text("utf-8"))["stages"]["ingest"]["config"]
    (wd / "manifest.json").write_text(text.replace("<c>", json.dumps(config)), "utf-8")
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


@pytest.mark.parametrize("version", [True, 1.0])
def test_manifest_version_is_the_integer(tmp_path, capsys, version):
    # true and 1.0 equal 1, but neither is the version that codec writes
    wd = tmp_path / "wd"
    assert run_cli("ingest", *common(wd)) == 0
    manifest = json.loads((wd / "manifest.json").read_text("utf-8"))
    (wd / "manifest.json").write_text(json.dumps(dict(manifest, schema_version=version)), "utf-8")
    assert run_cli("features", *common(wd)) == 4
    assert capsys.readouterr().err == (
        f"error: manifest schema {version!r} is not supported; remove it and rerun ingest\n"
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
# command that reads it, with its options; the stage that writes it
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
    # a forest's max_depth and a network's epochs NaN, which a bound
    # written with `<` would let through
    "rf-params-nan": ("models/smote/model.rf.json",
                      _edit_doc(lambda doc: doc["params"].update(max_depth=float("nan"))),
                      "evaluate", "train"),
    "mlp-config-nan": ("models/smote/model.mlp.json",
                       _edit_doc(lambda doc: doc["config"].update(epochs=float("nan"))),
                       "rank --model mlp", "train"),
    # a forest's max_depth infinite, n_estimators not an integer, max_depth
    # missing and seed not a number; a network's first width not an integer
    # and learning rate a boolean: each a value that the settings' type rule
    # rejects, or a key that the model does not save
    "rf-params-inf": ("models/smote/model.rf.json",
                      _edit_doc(lambda doc: doc["params"].update(max_depth=float("inf"))),
                      "evaluate", "train"),
    "rf-params-float": ("models/smote/model.rf.json",
                        _edit_doc(lambda doc: doc["params"].update(n_estimators=2.5)),
                        "rank --model rf", "train"),
    "rf-params-missing": ("models/smote/model.rf.json",
                          _edit_doc(lambda doc: doc["params"].pop("max_depth")),
                          "evaluate", "train"),
    "rf-params-seed": ("models/smote/model.rf.json",
                       _edit_doc(lambda doc: doc["params"].update(seed="x")),
                       "rank --model rf", "train"),
    "mlp-config-hidden": ("models/smote/model.mlp.json",
                          _edit_doc(lambda doc: doc["config"]["hidden"].__setitem__(0, 64.5)),
                          "evaluate", "train"),
    "mlp-config-rate": ("models/smote/model.mlp.json",
                        _edit_doc(lambda doc: doc["config"].update(learning_rate=True)),
                        "rank --model mlp", "train"),
    # a vocabulary with one document frequency fewer than terms
    "tfidf-df": ("tfidf.json", _edit_doc(lambda doc: doc["df"].pop()), "rank", "features"),
    # a version stamp that equals 1 but is not the integer
    "rf-version-bool": ("models/smote/model.rf.json", _edit_json(schema_version=True),
                        "evaluate", "train"),
    "selection-version-float": ("selection.json", _edit_json(schema_version=1.0),
                                "evaluate", "select"),
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
    # the last and a boolean; one whose test side is empty
    "split": ("models/smote/split.json", _without("test"), "evaluate", "train"),
    "split-index": ("models/smote/split.json", _edit_json(test=[785, True]), "evaluate", "train"),
    "split-empty": ("models/smote/split.json", _edit_json(test=[]), "evaluate", "train"),
    # a selection without the features it retains; without their information gains
    "selection": ("selection.json", _without("retained"), "evaluate", "select"),
    "selection-gain": ("selection.json", _without("info_gain_bits"), "evaluate", "select"),
    # a selection and a split of another version
    "selection-version": ("selection.json", _edit_json(schema_version=2), "evaluate", "select"),
    "split-version": ("models/smote/split.json", _edit_json(schema_version=2), "evaluate", "train"),
    # a forest whose params hold an unknown key; whose feature count is a
    # string; whose importances are a string, or one short; without trees;
    # whose every threshold is null; whose root's class-1 fraction exceeds 1
    "rf-params": ("models/smote/model.rf.json", _edit_doc(lambda doc: doc["params"].update(x=1)),
                  "evaluate", "train"),
    "rf-n-features": ("models/smote/model.rf.json", _edit_json(n_features="x"),
                      "evaluate", "train"),
    "rf-importances": ("models/smote/model.rf.json", _edit_json(importances="x"),
                       "evaluate", "train"),
    "rf-importances-short": ("models/smote/model.rf.json",
                             _edit_doc(lambda doc: doc["importances"].pop()), "evaluate", "train"),
    "rf-trees": ("models/smote/model.rf.json", _without("trees"), "evaluate", "train"),
    "rf-threshold": ("models/smote/model.rf.json",
                     _edit_doc(lambda doc: [tree.update(threshold=[None] * len(tree["threshold"]))
                                            for tree in doc["trees"]]),
                     "evaluate", "train"),
    "rf-proba": ("models/smote/model.rf.json",
                 _first_tree(lambda tree: tree.update(proba1=[2.0] + tree["proba1"][1:])),
                 "evaluate", "train"),
    # a network whose loss history is a number; whose config holds an
    # unknown key; whose config lists four hidden widths
    "mlp-loss": ("models/smote/model.mlp.json", _edit_json(loss_history=5), "evaluate", "train"),
    "mlp-config": ("models/smote/model.mlp.json", _edit_doc(lambda doc: doc["config"].update(x=1)),
                   "evaluate", "train"),
    "mlp-hidden": ("models/smote/model.mlp.json",
                   _edit_doc(lambda doc: doc["config"].update(hidden=doc["config"]["hidden"][:4])),
                   "evaluate", "train"),
    # a file that is not JSON; one that is not UTF-8 (an edit that returns
    # bytes writes them as they are)
    "rf-json": ("models/smote/model.rf.json", lambda text: "{" + text, "evaluate", "train"),
    "selection-json": ("selection.json", lambda text: "{" + text, "evaluate", "select"),
    "medians-json": ("models/smote/medians.json", lambda text: "{" + text, "rank", "train"),
    "tfidf-json": ("tfidf.json", lambda text: "{" + text, "rank", "features"),
    "split-utf8": ("models/smote/split.json", lambda text: b"\xff" + text.encode("utf-8"),
                   "evaluate", "train"),
    # a byte that is not UTF-8 opening the first row; inside the first body
    "features-utf8": ("features.csv",
                      lambda text: text.encode("utf-8").replace(b"\n", b"\n\xff", 1),
                      "select", "features"),
    "dataset-utf8": ("dataset.jsonl",
                     lambda text: text.encode("utf-8").replace(b'"body": "', b'"body": "\xff', 1),
                     "features", "ingest"),
    # numbers that json reads but no field means: a median, and a document
    # count, past a float's range; an information gain, a forest's
    # importance and a network's input mean that are NaN; a weight that is
    # infinite
    "medians-huge": ("models/smote/medians.json",
                     _edit_doc(lambda doc: doc["values"].__setitem__(0, 10**400)), "rank", "train"),
    "tfidf-n-docs-huge": ("tfidf.json", _edit_json(n_docs=10**400), "rank", "features"),
    "selection-gain-nan": ("selection.json",
                           _edit_doc(lambda doc: doc["info_gain_bits"].update(Score=float("nan"))),
                           "evaluate", "select"),
    "rf-importance-nan": ("models/smote/model.rf.json",
                          _edit_doc(lambda doc: doc["importances"].__setitem__(0, float("nan"))),
                          "evaluate", "train"),
    "mlp-mean-nan": ("models/smote/model.mlp.json",
                     _edit_doc(lambda doc: doc["mean"].__setitem__(0, float("nan"))),
                     "rank --model mlp", "train"),
    "mlp-weight-inf": ("models/smote/model.mlp.json",
                       _edit_doc(lambda doc: doc["weights"][0][0].__setitem__(0, float("inf"))),
                       "rank --model mlp", "train"),
    # the first row's first cell a number that float() reads but is not finite
    "features-nan": ("features.csv", lambda text: re.sub(r"\n[^,]*", "\nnan", text, count=1),
                     "select", "features"),
    "features-1e999": ("features.csv", lambda text: re.sub(r"\n[^,]*", "\n1e999", text, count=1),
                       "select", "features"),
}
# the line that the error names, in a file read line by line, where an
# edit meets that file's first row
_LINE = {**dict.fromkeys(["dataset", "dataset-json", "dataset-list", "dataset-key", "dataset-v",
                          "dataset-id", "dataset-body", "dataset-accepted", "dataset-wide",
                          "dataset-missing", "dataset-utf8"], 1),
         **dict.fromkeys(["features-cell", "features-row", "features-utf8", "features-nan",
                          "features-1e999"], 2)}


@pytest.mark.parametrize("case", _FOREIGN)
def test_file_of_another_version_or_kind_exits_4(cli_dir, tmp_path, capsys, case):
    rel, edit, command, stage = _FOREIGN[case]
    wd = tmp_path / "wd"
    shutil.copytree(cli_dir, wd)
    path = wd / rel
    edited = edit(path.read_text("utf-8"))
    path.write_bytes(edited if isinstance(edited, bytes) else edited.encode("utf-8"))
    _redigest(wd, rel)
    command, *options = command.split()
    extra = ["--input", write_request(tmp_path, rank_request())] if command == "rank" else []
    assert run_cli(command, *options, *common(wd), *extra) == 4
    err = capsys.readouterr().err
    where = f"{path} line {_LINE[case]} " if case in _LINE else str(path)
    assert err.startswith(f"error: {where}") and err.count("\n") == 1, err
    assert err.endswith(f"; run {stage} first\n"), err


@pytest.mark.parametrize("command, model, kind", [
    ("evaluate", "model.rf.json", "random-forest"),
    ("rank --model mlp", "model.mlp.json", "mlp"),
])
def test_models_of_another_selection_exit_4(cli_dir, tmp_path, capsys, command, model, kind):
    # selection.json, re-digested, retains one feature fewer than the
    # models were trained on: they score other columns, so train reruns
    wd = tmp_path / "wd"
    shutil.copytree(cli_dir, wd)
    path = wd / "selection.json"
    path.write_text(_edit_doc(lambda doc: doc["retained"].pop())(path.read_text("utf-8")), "utf-8")
    _redigest(wd, "selection.json")
    command, *options = command.split()
    extra = ["--input", write_request(tmp_path, rank_request())] if command == "rank" else []
    assert run_cli(command, *options, *common(wd), *extra) == 4
    assert capsys.readouterr().err == (
        f"error: {wd / 'models/smote' / model} is not a {kind} artifact; run train first\n"
    )


# each file that a command reads back, and the commands that read it
_READ_BACK = {
    "features.csv": ("evaluate",),
    "tfidf.json": ("rank",),
    "selection.json": ("evaluate", "rank"),
    "models/smote/split.json": ("evaluate",),
    "models/smote/medians.json": ("rank",),
    "models/smote/model.rf.json": ("evaluate", "rank"),
    "models/smote/model.mlp.json": ("evaluate", "rank"),
}
_DELETE = object()  # the edit that removes a key, a list item or a cell
# values that json reads, among them those that no field means
_MUTATIONS = (float("nan"), float("inf"), float("-inf"), 10**400, -(10**400), 2**63, -1, 0,
              1e308, 0.5, -0.5, "x", None, [], {}, True, _DELETE)


def _mutate_field(data, document):
    """`document` with one field set to a drawn mutation or deleted.  The
    field is drawn by a walk from the top down to a leaf, which stops at a
    container one step in four, but never replaces the top itself."""
    parent, key, node = None, None, document
    while isinstance(node, (dict, list)) and node and (key is None or data.draw(st.integers(0, 3))):
        parent = node
        keys = sorted(node) if isinstance(node, dict) else range(len(node))
        key = data.draw(st.sampled_from(keys))
        node = node[key]
    mutation = data.draw(st.sampled_from(_MUTATIONS))
    if mutation is _DELETE:
        del parent[key]
    else:
        parent[key] = mutation
    return document


def _mutate_cell(data, text):
    """features.csv's `text` with one cell of one row set to a drawn
    mutation, written as JSON, or deleted."""
    lines = text.split("\n")
    i = data.draw(st.integers(1, len(lines) - 2))  # a row; the last line is empty
    cells = lines[i].split(",")
    j = data.draw(st.integers(0, len(cells) - 1))
    mutation = data.draw(st.sampled_from(_MUTATIONS))
    if mutation is _DELETE:
        del cells[j]
    else:
        cells[j] = json.dumps(mutation)
    lines[i] = ",".join(cells)
    return "\n".join(lines)


def _numbers(node):
    if isinstance(node, dict):
        node = list(node.values())
    if isinstance(node, list):
        return [number for item in node for number in _numbers(item)]
    return [node] if isinstance(node, float) else []


def test_one_mutated_field_exits_0_or_4_with_finite_numbers(cli_dir, tmp_path, capsys):
    # one field of a file that a command reads back, re-digested, so that
    # the file's own check meets it: the commands that read the file exit 0
    # with every number that they print or write finite, or exit 4, or exit
    # 3 because the selection retains nothing; never a traceback
    wd = tmp_path / "wd"
    shutil.copytree(cli_dir, wd)
    manifest = (wd / "manifest.json").read_bytes()
    request = write_request(tmp_path, rank_request())
    commands = {"evaluate": [["evaluate"]],
                "rank": [["rank", "--input", request, "--model", model] for model in ("rf", "mlp")]}

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(st.data())
    def check(data):
        rel = data.draw(st.sampled_from(sorted(_READ_BACK)))
        original = (wd / rel).read_text("utf-8")
        if rel == "features.csv":
            edited = _mutate_cell(data, original)
        else:
            edited = json.dumps(_mutate_field(data, json.loads(original)))
        (wd / rel).write_text(edited, "utf-8")
        _redigest(wd, rel)
        try:
            for argv in (argv for command in _READ_BACK[rel] for argv in commands[command]):
                capsys.readouterr()
                code = run_cli(*argv, "--out", str(wd))
                out, err = capsys.readouterr()
                assert code in (0, 4) or err == (
                    "error: feature selection retained no features; lower the thresholds\n"
                ), (argv, err)
                if code == 0:
                    printed = json.loads(out) if argv[0] == "rank" else json.loads(
                        (wd / "report/smote/metrics.json").read_text("utf-8"))
                    assert all(map(math.isfinite, _numbers(printed))), (argv, out)
        finally:
            (wd / rel).write_text(original, "utf-8")
            (wd / "manifest.json").write_bytes(manifest)

    check()


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
    if sep:
        lines[i] = head + sep + value + tail[tail.index('"'):]
    else:  # an attribute that the row lacks is added last
        lines[i] = lines[i].replace(" />", f' {attribute}="{value}" />')
    bad = tmp_path / dump
    bad.write_text("".join(lines), encoding="utf-8")
    return bad


def _run_on(tmp_path, command, bad):
    """`command` on the fixture dumps with `bad` standing in for its namesake."""
    dumps = {"Posts.xml": POSTS, "Users.xml": USERS, bad.name: str(bad)}
    return run_cli(command, "--posts", dumps["Posts.xml"], "--users", dumps["Users.xml"],
                   "--out", str(tmp_path / "wd"))


_BAD_DATE = "2014-13-45T00:00:00.000"


@pytest.mark.parametrize(
    "dump, row_id, attribute, value, where, detail",
    [
        ("Posts.xml", 3, "Score", "x1", "row 3 (Id 3)", "not an integer: 'x1'"),
        ("Users.xml", 3, "Reputation", "x1", "row 3 (Id 3)", "not an integer: 'x1'"),
        ("Posts.xml", 3, "Id", "x1", "row 3", "not an integer: 'x1'"),
        ("Posts.xml", 3, "CreationDate", _BAD_DATE, "row 3 (Id 3)",
         f"not a timestamp: {_BAD_DATE!r}"),
        ("Posts.xml", 3, "Tags", "&lt;java&gt;", "row 3 (Id 3)", "present on answer"),
        ("Posts.xml", 1, "ParentId", "4", "row 1 (Id 1)", "present on question"),
        ("Posts.xml", 3, "CommentCount", "-1", "row 3 (Id 3)", "negative"),
    ],
    ids=["posts-score", "users-reputation", "posts-id", "posts-creation-date",
         "answer-tags", "question-parent-id", "negative-comment-count"],
)
def test_undecodable_row_names_file_row_and_id(tmp_path, capsys, dump, row_id, attribute,
                                               value, where, detail):
    # row 1 of the fixture's posts is a question, row 3 an answer to it
    bad = _edited_dump(tmp_path, dump, row_id, attribute, value)
    assert _run_on(tmp_path, "ingest", bad) == 3
    assert capsys.readouterr().err == f"error: {bad}: {where}: bad attribute {attribute!r}: {detail}\n"


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


@pytest.mark.parametrize(
    "dump, detail",
    [
        ("Users.xml", "line 34, column 2 (error at byte 2986, last complete row at byte 2983)"),
        ("Posts.xml", "line 11, column 2 (error at byte 2973, last complete row at byte 2970)"),
    ],
    ids=["users", "posts"],
)
def test_malformed_dump_names_its_file(tmp_path, capsys, dump, detail):
    # the fixture dump cut to 3000 bytes, inside a row
    bad = tmp_path / dump
    bad.write_bytes((FIXTURES / dump).read_bytes()[:3000])
    assert _run_on(tmp_path, "ingest", bad) == 3
    first = capsys.readouterr().err.splitlines()[0]
    assert first == f"error: {bad}: malformed dump XML: unclosed token: {detail}"


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
        (_edited(question={"creation_ts": 1.5}),
         "question.creation_ts must be an ISO-8601 string or epoch milliseconds"),
        (_edited(question={"creation_ts": True}),
         "question.creation_ts must be an ISO-8601 string or epoch milliseconds"),
        ({"question": rank_request()["question"], "answers": {"0": rank_request()["answers"][0]}},
         'rank input needs an "answers" list'),
    ],
    ids=["question-ts", "answer-ts", "top-level-array", "tags-int", "tags-string",
         "question-ts-beyond-int64", "question-ts-float", "question-ts-bool", "answers-object"],
)
def test_rank_malformed_request_exits_3(cli_dir, tmp_path, capsys, payload, location):
    path = write_request(tmp_path, payload)
    assert run_cli("rank", *common(cli_dir), "--input", path) == 3
    assert f"error: {location}" in capsys.readouterr().err


def test_rank_input_missing_exits_3(cli_dir, tmp_path, capsys):
    path = tmp_path / "absent.json"
    assert run_cli("rank", *common(cli_dir), "--input", str(path)) == 3
    assert capsys.readouterr().err == (
        f"error: cannot read rank input: [Errno 2] No such file or directory: '{path}'\n"
    )


def test_split_leaving_one_side_empty_exits_3(cli_dir, tmp_path, capsys):
    wd = tmp_path / "wd"
    shutil.copytree(cli_dir, wd)
    assert run_cli("train", *common(wd), "--set", "split.train_fraction=0.001") == 3
    assert capsys.readouterr().err == (
        "error: cannot split 785 rows: split leaves one side empty; adjust train_fraction\n"
    )


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


@pytest.mark.parametrize("cpus, module", [(1, "multiprocessing"),
                                           (1, "concurrent.futures"),
                                           (2, "concurrent.futures")])
def test_default_run_uses_the_pool_only_on_several_cpus(tmp_path, cpus, module):
    # pinned to `cpus` CPUs: the default threads, 2, is capped by the CPU
    # count, so a default run imports the pool only on two
    if not hasattr(os, "sched_setaffinity"):
        pytest.skip("no affinity call on this platform")
    if len(os.sched_getaffinity(0)) < cpus:
        pytest.skip(f"needs {cpus} CPUs")
    body = f"import os\nos.sched_setaffinity(0, sorted(os.sched_getaffinity(0))[:{cpus}])\n{_MAIN_BODY}"
    assert _loaded(module, body, "run", *common(tmp_path / "wd")) == (cpus > 1)


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
