import json
import subprocess
import sys
from pathlib import Path

import pytest

from soaccept.cli import main

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


def test_removed_require_accepted_key_exits_2(tmp_path, capsys):
    code = run_cli("run", *common(tmp_path), "--set", "filter.require_accepted=false")
    assert code == 2
    assert "unknown configuration key: filter.require_accepted" in capsys.readouterr().err


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


def test_missing_input_file_exits_3(tmp_path):
    code = run_cli(
        "ingest",
        "--posts", str(tmp_path / "absent.xml"),
        "--users", USERS,
        "--out", str(tmp_path / "wd"),
    )
    assert code == 3


def test_rank_prints_json(cli_dir, tmp_path, capsys):
    payload = {
        "question": {"body": "<p>How to merge nested JSON payloads in java?</p>"},
        "answers": [
            {"body": "<p>Use <code>Jackson</code>. Remember to handle null.</p>"},
            {"body": "<p>You can merge nested JSON payloads with <code>Streams</code>.</p>"},
        ],
    }
    path = tmp_path / "c.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    assert run_cli("rank", *common(cli_dir), "--input", str(path), "--model", "rf") == 0
    result = json.loads(capsys.readouterr().out)
    assert {c["index"] for c in result["candidates"]} == {0, 1}
    assert result["sampler"] == "smote"


def test_console_entry_point_runs(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "soaccept.cli", "select", "--out", str(tmp_path)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 4
    assert "run ingest first" in proc.stderr


def test_seed_flag_changes_models(cli_dir, tmp_path):
    wd = tmp_path / "wd"
    assert run_cli("run", *common(wd), "--seed", "7") == 0
    ours = (wd / "models/smote/model.rf.json").read_bytes()
    theirs = (cli_dir / "models/smote/model.rf.json").read_bytes()
    assert ours != theirs
