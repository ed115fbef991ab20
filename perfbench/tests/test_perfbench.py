"""Tests of the benchmark itself: generator determinism, and that every
output check rejects a planted corruption.

    PYTHONPATH=src python3 -m pytest perfbench/tests -q
"""

import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import checks
import gen
import run
from checks import CheckError
from tracer import LEAF, SPAN, Tracer

BENCH = Path(__file__).resolve().parent.parent


def _write(spec, seed, out):
    gen.write_dump(gen.generate(spec, seed), out)
    return {name: (out / name).read_bytes() for name in ("Posts.xml", "Users.xml", "plan.json")}


@pytest.mark.parametrize("spec", [gen.DumpSpec(40), gen.DumpSpec(20, 3.0, 500)])
def test_generator_is_byte_deterministic(tmp_path, spec):
    first = _write(spec, 7, tmp_path / "a")
    assert _write(spec, 7, tmp_path / "b") == first
    assert _write(spec, 8, tmp_path / "c")["Posts.xml"] != first["Posts.xml"]


def test_generator_plans_offtopic_share():
    plan = gen.generate(gen.DumpSpec(30, offtopic_per_kept=10.0, vocab=300), 3).plan
    discards = plan["ingest"]["discards"]
    assert plan["ingest"]["questions_retained"] == 30
    assert discards["question_tag_mismatch"] + discards["question_year_out_of_range"] >= 300


def test_requests_are_seeded_and_plant_omissions():
    a = gen.make_request("1:rank:0:1", 4, True)
    assert gen.make_request("1:rank:0:1", 4, True) == a
    for answer, imputed in zip(a["payload"]["answers"], a["imputed"]):
        left_out = {f for f in gen.OPTIONAL_ANSWER_FIELDS if f not in answer}
        assert {gen.OPTIONAL_ANSWER_FIELDS[f] for f in left_out} <= set(imputed)
    full = gen.make_request("1:rank:0:2", 3, False)
    assert full["imputed"] == [[], [], []]


# -- a small real run, then one corruption per check ------------------------

@pytest.fixture(scope="module")
def built(tmp_path_factory):
    from soaccept import cli

    root = tmp_path_factory.mktemp("bench")
    dump = gen.generate(gen.DumpSpec(60), 11)
    gen.write_dump(dump, root / "dump")
    dumps = {"posts": root / "dump" / "Posts.xml", "users": root / "dump" / "Users.xml"}
    code = cli.main(["run", "--posts", str(dumps["posts"]), "--users", str(dumps["users"]),
                     "--out", str(root / "wd")])
    assert code == 0
    return root / "wd", dumps, dump.plan


@pytest.fixture
def copy(built, tmp_path):
    wd, dumps, plan = built
    shutil.copytree(wd, tmp_path / "wd")
    return tmp_path / "wd", dumps, plan


def test_checks_accept_the_program_output(built):
    wd, dumps, plan = built
    checks.check_ingest(checks.read_json(wd / "ingest_report.json"), plan)
    checks.check_features(wd / "features.csv", plan)
    checks.check_manifest(wd, dumps)
    summary = checks.check_metrics(wd)
    assert 0.5 <= summary["majority"] < summary["rf"]


def test_ingest_check_rejects_a_changed_count(built):
    wd, _, plan = built
    report = checks.read_json(wd / "ingest_report.json")
    report["discards"]["question_tag_mismatch"] += 1
    with pytest.raises(CheckError, match="ingest report"):
        checks.check_ingest(report, plan)


def _edit_csv(path, row, column, fn):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    cells = lines[row].split(",")
    j = header.index(column)
    cells[j] = fn(cells[j])
    lines[row] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("column,fn,match", [
    ("Timelag", lambda v: str(int(v) + 1), "Timelag"),
    ("Reputation", lambda v: str(int(v) * 2 + 1), "Reputation"),
    ("label", lambda v: "accepted" if v == "unaccepted" else "unaccepted", "label"),
])
def test_feature_check_rejects_a_changed_cell(copy, column, fn, match):
    wd, _, plan = copy
    _edit_csv(wd / "features.csv", 5, column, fn)
    with pytest.raises(CheckError, match=match):
        checks.check_features(wd / "features.csv", plan)


def test_feature_check_rejects_a_missing_row(copy):
    wd, _, plan = copy
    lines = (wd / "features.csv").read_text().splitlines()
    (wd / "features.csv").write_text("\n".join(lines[:-1]) + "\n")
    with pytest.raises(CheckError, match="rows"):
        checks.check_features(wd / "features.csv", plan)


def test_feature_check_rejects_a_clock_anomaly_row(copy):
    wd, _, plan = copy
    kept = [a for a in plan["answers"] if a["clock_anomaly"]]
    assert kept, "the generator plants clock anomalies"
    plan = {**plan, "answers": [{**a, "clock_anomaly": False} for a in plan["answers"]]}
    with pytest.raises(CheckError):
        checks.check_features(wd / "features.csv", plan)


def test_manifest_check_rejects_a_modified_artifact(copy):
    wd, dumps, _ = copy
    with open(wd / "selection.json", "a") as fh:
        fh.write(" ")
    with pytest.raises(CheckError, match="selection.json"):
        checks.check_manifest(wd, dumps)


def test_metrics_check_rejects_a_wrong_auc(copy):
    wd, _, _ = copy
    path = wd / "report" / "smote" / "metrics.json"
    metrics = json.loads(path.read_text())
    metrics["evals"][0]["auc"] -= 1e-6
    path.write_text(json.dumps(metrics))
    with pytest.raises(CheckError, match="AUC"):
        checks.check_metrics(wd)


def test_forest_scores_match_the_program(built):
    from soaccept.forest import forest_predict_proba, load_forest

    wd, _, _ = built
    names, x, _ = checks.read_features(wd / "features.csv")
    retained = checks.read_json(wd / "selection.json")["retained"]
    x = x[:, [names.index(n) for n in retained]]
    model = wd / "models" / "smote" / "model.rf.json"
    np.testing.assert_array_equal(checks.forest_scores(model, x),
                                  forest_predict_proba(load_forest(model), x))


def test_mann_whitney_auc_counts_pairs():
    rng = np.random.default_rng(0)
    y = rng.integers(0, 2, 60)
    s = rng.integers(0, 5, 60).astype(float)  # many ties
    pos, neg = s[y == 1], s[y == 0]
    brute = np.mean([(p > q) + 0.5 * (p == q) for p in pos for q in neg])
    assert checks.mann_whitney_auc(y, s) == pytest.approx(brute, abs=1e-12)


def test_mlp_gate_fails_a_constant_predictor():
    with pytest.raises(CheckError, match="majority"):
        checks.check_mlp_gate({"majority": 0.75, "mlp": 0.25})
    checks.check_mlp_gate({"majority": 0.75, "mlp": 0.8})


def _response(request, order, probs):
    return {"model": "rf", "candidates": [
        {"index": i, "probability": p, "imputed": request["imputed"][i]}
        for i, p in zip(order, probs)]}


def test_rank_check_rejects_each_corruption():
    request = gen.make_request("9", 3, True)
    good = _response(request, [2, 0, 1], [0.9, 0.5, 0.5])
    checks.check_rank_response(good, request, "rf")
    missing = _response(request, [2, 0], [0.9, 0.5])
    with pytest.raises(CheckError, match="once"):
        checks.check_rank_response(missing, request, "rf")
    twice = _response(request, [2, 0, 0], [0.9, 0.5, 0.5])
    with pytest.raises(CheckError, match="once"):
        checks.check_rank_response(twice, request, "rf")
    tie_order = _response(request, [2, 1, 0], [0.9, 0.5, 0.5])
    with pytest.raises(CheckError, match="order"):
        checks.check_rank_response(tie_order, request, "rf")
    outside = _response(request, [2, 0, 1], [1.5, 0.5, 0.5])
    with pytest.raises(CheckError, match="outside"):
        checks.check_rank_response(outside, request, "rf")
    imputed = _response(request, [2, 0, 1], [0.9, 0.5, 0.5])
    imputed["candidates"][0]["imputed"] = imputed["candidates"][0]["imputed"] + ["Score"]
    with pytest.raises(CheckError, match="imputed"):
        checks.check_rank_response(imputed, request, "rf")


# -- tracing -------------------------------------------------------------------

def test_tracer_nests_spans_and_subtracts_children():
    tracer = Tracer()
    leaf = tracer.wrap(lambda: time.sleep(0.02), "leaf", LEAF)
    inner = tracer.wrap(lambda: (time.sleep(0.01), leaf()), "inner", SPAN)
    outer = tracer.wrap(lambda: (inner(), leaf()), "outer", SPAN)
    outer()
    by_name = {s[1]: s for s in tracer.spans}
    sid, _, parent, start, end, own = by_name["outer"]
    assert parent is None and by_name["inner"][2] == sid
    assert tracer.leaves["leaf"][0] == 2
    assert own < 0.005 < end - start
    assert 0.008 < by_name["inner"][5] < 0.02


def test_benchmark_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    proc = subprocess.run([sys.executable, str(tmp_path / "perfbench" / "run.py"),
                           "--workload", "rank", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""


def test_every_benchmark_metric_is_declared():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"] for m in spec["end_to_end"]} == {
        "run_s", "peak_rss_mb", "rank_p50_ms", "rank_tail_ms", "setup_s"}


def test_traced_round_reports_every_declared_layer_metric(built, tmp_path):
    wd, dumps, plan = built
    env = {**os.environ, "PYTHONPATH": str(BENCH.parent / "src")}
    traced_wd = tmp_path / "wd"
    trace_dir = tmp_path / "trace"
    trace_dir.mkdir()
    tracer = str(BENCH / "tracer.py")
    subprocess.run([sys.executable, tracer, str(trace_dir / "run.json"), "run",
                    "--posts", str(dumps["posts"]), "--users", str(dumps["users"]),
                    "--out", str(traced_wd)], env=env, check=True, capture_output=True)
    request = gen.make_request("3", 3, True)
    (tmp_path / "request.json").write_text(json.dumps(request["payload"]))
    subprocess.run([sys.executable, tracer, str(trace_dir / "rank.json"), "rank",
                    "--out", str(traced_wd), "--input", str(tmp_path / "request.json")],
                   env=env, check=True, capture_output=True)
    metrics = run.layer_metrics(trace_dir, traced_wd, dumps)
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
    measured_apart = {"cli.import_s", "trace.overhead_share"}
    assert set(metrics) == set(declared) - measured_apart
    assert all(unit == declared[name] for name, (_, unit) in metrics.items())
    assert all(value > 0 for value, _ in metrics.values())
    assert metrics["ingest.retained_share"][0] == pytest.approx(
        plan["ingest"]["questions_retained"] / plan["ingest"]["questions_seen"])
