"""The soaccept benchmark: one workload per call, one JSON result line.

    python3 perfbench/run.py --workload full-run --seed 1 --seconds 25 --trace 0

Run from a checkout of the repository; the program is used from ``src/``
through ``PYTHONPATH`` and nothing is installed.  Each call generates its
inputs from ``--seed`` (`gen.py`), runs ``soaccept`` as separate
processes, checks their outputs with `checks.py`, and prints as its last
line ``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0``
the metrics are the end-to-end ones, with ``--trace 1`` the per-layer ones
from `tracer.py`.  Workloads, metrics and reference figures are described
in README.md next to this file.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import checks
import gen
from checks import CheckError

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench_work"


@dataclass(frozen=True)
class Workload:
    dump: gen.DumpSpec
    run_flags: tuple  # flags for `soaccept run` only
    model_flags: tuple  # settings both `run` and `rank` must be given
    serve_only: bool  # rounds are rank calls against a work directory built in set-up
    ranks_per_round: int
    round_seconds: float  # nominal length of a round; sets the round count
    gate: bool = False  # run the network gate on `GATE_DUMP` once per call


WORKLOADS = {
    "full-run": Workload(gen.DumpSpec(500), ("--threads", "2"), (),
                         serve_only=False, ranks_per_round=2, round_seconds=6.0, gate=True),
    "wide-dump": Workload(gen.DumpSpec(500, offtopic_per_kept=10.0, vocab=20000),
                          ("--threads", "1"),
                          ("--set", "forest.n_estimators=10", "--set", "mlp.epochs=2"),
                          serve_only=False, ranks_per_round=2, round_seconds=6.0),
    "rank": Workload(gen.DumpSpec(200), (), (), serve_only=True, ranks_per_round=4,
                     round_seconds=2.5),
}

# The network gate runs on a fixed input, not a seeded one: at default
# settings the network is a constant predictor on this dump, so the gate
# fails on every run of the current program rather than on some seeds.
GATE_DUMP, GATE_SEED = gen.DumpSpec(200), 0

# rank requests, taken in turn: (candidates, model, sparse)
REQUEST_MIX = ((1, "rf", False), (4, "rf", True), (3, "mlp", True), (6, "rf", False))
SETUP_REPEATS = 3  # set-ups of the rank workload
TAIL_QUANTILE = 0.75  # the rank workload's 40 calls leave ten beyond it
# Share of rf requests with two or more candidates whose planted accepted
# answer must come first.  Checked on the measured `rank` workload only,
# whose 20 such requests per call make a chance shortfall negligible; the
# batch workloads make too few rank calls for a share to mean anything.
RANK_FIRST_SHARE = 0.75
IMPORT_REPEATS = 3


@dataclass
class Proc:
    wall: float
    rss_mb: float
    out: str
    summary: dict | None = None  # accuracies read by `check_metrics`


class Inputs:
    """One generated dump on disk, its plan, and the first manifest built from it."""

    def __init__(self, directory: Path, spec: gen.DumpSpec, seed: int):
        self.spec, self.seed = spec, seed
        self.dir = directory
        self.files = {"posts": directory / "Posts.xml", "users": directory / "Users.xml"}
        self.plan: dict = {}
        self.manifest: dict | None = None

    def write(self) -> str:
        """Generate and write the dump; a digest of the files written."""
        dump = gen.generate(self.spec, self.seed)
        gen.write_dump(dump, self.dir)
        self.plan = dump.plan
        return "".join(checks.sha256_file(p) for p in self.files.values())


class Bench:
    """State of one benchmark call: work area, tallies and samples.

    The number of rounds follows from ``--seconds`` alone, never from how
    fast they ran, so every call with the same arguments attempts the same
    operations and the failed share is the same whatever the machine did.
    """

    def __init__(self, name: str, seed: int, seconds: float):
        self.name = name
        self.w = WORKLOADS[name]
        self.seed = seed
        self.n_rounds = max(2, round(seconds / self.w.round_seconds))
        self.work = WORK / name
        self.workdir = self.work / "workdir"
        self.inputs = Inputs(self.work / "dump", self.w.dump, seed)
        self.gate_inputs = Inputs(self.work / "gate_dump", GATE_DUMP, GATE_SEED)
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.requests = 0
        self.digest: str | None = None  # of the first dump written
        self.first_place = [0, 0]  # rf requests with >= 2 candidates: hits, total
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p))

    # -- processes -----------------------------------------------------------

    def invoke(self, argv: list) -> Proc:
        """Run one interpreter to exit; wall time and its own peak RSS."""
        stderr_path = self.work / "stderr.txt"
        with open(stderr_path, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen([sys.executable, *argv], cwd=ROOT, env=self.env,
                                    stdout=subprocess.PIPE, stderr=err)
            try:
                with proc.stdout:
                    out = proc.stdout.read()
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            raise CheckError(f"{' '.join(argv[:4])} exited {proc.returncode}: "
                             + stderr_path.read_text(errors="replace")[-500:])
        return Proc(wall=wall, rss_mb=usage.ru_maxrss / 1024.0, out=out.decode())

    def soaccept(self, args: list, trace: Path | None) -> Proc:
        if trace is None:
            return self.invoke(["-m", "soaccept.cli", *args])
        return self.invoke([str(ROOT / "perfbench" / "tracer.py"), str(trace), *args])

    # -- operations ----------------------------------------------------------

    def operation(self, fn, *args, gate: bool = False):
        """Run one counted operation; a failed check fails the benchmark
        unless the operation is the known-failing gate."""
        self.attempted += 1
        try:
            return fn(*args)
        except CheckError as exc:
            self.failed += 1
            if not gate:
                self.correct = False
            print(f"{'gate' if gate else 'FAILED'}: {exc}", file=sys.stderr)
            return None

    def run_pipeline(self, inputs: Inputs, workdir: Path, trace: Path | None = None) -> Proc:
        """`soaccept run` into a fresh work directory, then every check."""
        shutil.rmtree(workdir, ignore_errors=True)
        proc = self.soaccept(["run", "--posts", str(inputs.files["posts"]),
                              "--users", str(inputs.files["users"]), "--out", str(workdir),
                              *self.w.run_flags, *self.w.model_flags], trace)
        checks.check_ingest(checks.read_json(workdir / "ingest_report.json"), inputs.plan)
        checks.check_features(workdir / "features.csv", inputs.plan)
        manifest = checks.check_manifest(workdir, inputs.files)
        if inputs.manifest is None:
            inputs.manifest = manifest
        elif manifest != inputs.manifest:
            raise CheckError("manifest differs from an earlier run on the same inputs")
        proc.summary = checks.check_metrics(workdir)
        return proc

    def run_gate(self) -> None:
        """The network gate, one operation that fails while the network is
        a constant predictor.  Its `run` is checked like any other."""
        run = self.operation(self.run_pipeline, self.gate_inputs, self.work / "gate_wd")
        if run is not None:
            self.operation(checks.check_mlp_gate, run.summary, gate=True)

    def rank_call(self, request: dict, model: str, trace: Path | None = None) -> Proc:
        path = self.work / "request.json"
        path.write_text(json.dumps(request["payload"]), encoding="utf-8")
        proc = self.soaccept(["rank", "--out", str(self.workdir), "--input", str(path),
                              "--model", model, *self.w.model_flags], trace)
        try:
            response = json.loads(proc.out)
        except json.JSONDecodeError as exc:
            raise CheckError(f"rank printed no JSON: {exc}") from exc
        checks.check_rank_response(response, request, model)
        if model == "rf" and len(request["imputed"]) > 1:
            self.first_place[1] += 1
            self.first_place[0] += response["candidates"][0]["index"] == request["accepted"]
        return proc

    def one_round(self, trace_dir: Path | None = None, with_run: bool = True) -> tuple:
        """A checked `run` (batch workloads), then rank calls against its
        work directory.  Returns the `run` (or None) and the rank calls."""
        run = None
        if with_run:
            trace = trace_dir / "run.json" if trace_dir else None
            run = self.operation(self.run_pipeline, self.inputs, self.workdir, trace)
        ranks = []
        for _ in range(self.w.ranks_per_round):
            k = self.requests % len(REQUEST_MIX)
            n, model, sparse = REQUEST_MIX[k]
            request = gen.make_request(f"{self.seed}:rank:{self.requests}", n, sparse,
                                       self.w.dump.vocab)
            self.requests += 1
            trace = trace_dir / f"rank{self.requests}.json" if trace_dir else None
            proc = self.operation(self.rank_call, request, model, trace)
            if proc is not None:
                ranks.append(proc)
        return run, ranks

    # -- the two modes -------------------------------------------------------

    def set_up(self, runs: list) -> float:
        """Write the workload's inputs and check that they come out as on
        the first set-up; on `rank` also build the work directory with
        `soaccept run`, whose wall time goes to `runs`.  Seconds taken."""
        t0 = time.perf_counter()
        digest = self.inputs.write()
        if self.digest is None:
            self.digest = digest
        elif digest != self.digest:
            self.fail("the generator wrote different dumps for one seed")
        if self.w.gate:
            self.gate_inputs.write()
        if self.w.serve_only:
            run = self.operation(self.run_pipeline, self.inputs, self.workdir)
            if run is not None:
                runs.append(run.wall)
        return time.perf_counter() - t0

    def measure(self) -> dict:
        runs, ranks, rss, setups = [], [], [], []
        # `rank` sets up before its rounds; a batch workload sets up before
        # each round, so that its short set-ups sample the whole call
        if self.w.serve_only:
            setups = [self.set_up(runs) for _ in range(SETUP_REPEATS)]
        for i in range(self.n_rounds):
            if not self.w.serve_only:
                setups.append(self.set_up(runs))
            if i == 0 and self.w.gate:
                self.run_gate()
            run, procs = self.one_round(with_run=not self.w.serve_only)
            if run is not None:
                runs.append(run.wall)
                rss.append(run.rss_mb)
            ranks += [p.wall for p in procs]
            if self.w.serve_only:
                rss += [p.rss_mb for p in procs]
        self.report(check_first_place=self.w.serve_only)
        if not (runs and ranks and rss):
            self.fail("no operation completed")
            return {}
        ranks.sort()
        return {
            "run_s": (statistics.median(runs), "s"),
            "peak_rss_mb": (max(rss) if self.w.serve_only else statistics.median(rss), "MB"),
            "rank_p50_ms": (1000.0 * statistics.median(ranks), "ms"),
            "rank_tail_ms": (1000.0 * ranks[math.ceil(TAIL_QUANTILE * len(ranks)) - 1], "ms"),
            "setup_s": (statistics.median(setups), "s"),
        }

    def trace(self) -> dict:
        """Pairs of an untraced and a traced round, each with a `run` on
        every workload so that each layer shows."""
        self.set_up([])
        if self.w.gate:
            self.run_gate()
        plain, traced, layers = [], [], []
        for _ in range(max(2, self.n_rounds // 4)):
            run, ranks = self.one_round()
            plain.append(sum(p.wall for p in [run, *ranks] if p is not None))
            trace_dir = self.work / "trace"
            shutil.rmtree(trace_dir, ignore_errors=True)
            trace_dir.mkdir(parents=True)
            run, ranks = self.one_round(trace_dir)
            traced.append(sum(p.wall for p in [run, *ranks] if p is not None))
            if self.correct:
                layers.append(layer_metrics(trace_dir, self.workdir, self.inputs.files))
        self.report(check_first_place=False)
        if not layers:
            self.fail("no traced round completed")
            return {}
        out = {name: (statistics.median(m[name][0] for m in layers), unit)
               for name, (_, unit) in layers[0].items()}
        out["cli.import_s"] = (self.import_seconds(), "s")
        out["trace.overhead_share"] = (
            statistics.median(traced) / statistics.median(plain) - 1.0, "ratio")
        return out

    def import_seconds(self) -> float:
        walls = [self.invoke(["-c", "import soaccept.cli"]).wall for _ in range(IMPORT_REPEATS)]
        return statistics.median(walls)

    def report(self, check_first_place: bool) -> None:
        hits, total = self.first_place
        print(f"{self.name}: {self.attempted} operations, {self.failed} failed; planted"
              f" answer ranked first in {hits}/{total} rf requests", file=sys.stderr)
        if check_first_place and hits < RANK_FIRST_SHARE * total:
            self.fail(f"planted accepted answer ranked first in {hits}/{total} rf requests,"
                      f" below {RANK_FIRST_SHARE:.0%}")

    def fail(self, message: str) -> None:
        self.correct = False
        print(f"FAILED: {message}", file=sys.stderr)


def _spans(trace_dir: Path):
    """Every traced process of a round: (spans, leaves, counters)."""
    for path in sorted(trace_dir.glob("*.json")):
        data = checks.read_json(path)
        yield data["spans"], data["leaves"], data["counters"]


def layer_metrics(trace_dir: Path, workdir: Path, dumps: dict) -> dict:
    """Per-layer figures of one traced round, name -> (value, unit)."""
    total: dict = {}
    self_time: dict = {}
    calls: dict = {}
    counters: dict = {}
    distinct = stems = analyzed = dataset_posts = 0
    for spans, leaves, counts in _spans(trace_dir):
        for _, name, _, start, end, own in spans:
            total[name] = total.get(name, 0.0) + (end - start)
            self_time[name] = self_time.get(name, 0.0) + own
            calls[name] = calls.get(name, 0) + 1
        for name, (n, seconds, own) in leaves.items():
            total[name] = total.get(name, 0.0) + seconds
            self_time[name] = self_time.get(name, 0.0) + own
            calls[name] = calls.get(name, 0) + n
        for name, value in counts.items():
            counters[name] = counters.get(name, 0) + value
        distinct += counts.get("porter.distinct", 0)
        stems += leaves.get("porter.porter_stem", (0,))[0]
        if "ingest.dataset_posts" in counts:  # the `run` process
            analyzed += leaves.get("textprep.split_code_blocks", (0,))[0]
            dataset_posts += counts["ingest.dataset_posts"]

    def s(name):
        return total.get(name, 0.0)

    stage_self = sum(self_time.get(f"pipeline.cmd_{stage}", 0.0) for stage in
                     ("run", "ingest", "features", "select", "train", "evaluate"))
    run_bytes, rank_bytes = checks.hashed_bytes(
        workdir, checks.read_json(workdir / "manifest.json"), dumps)
    return {
        "ingest.parse_s": (s("ingest.stream_rows"), "s"),
        "ingest.decode_s": (s("ingest.decode_post") + s("ingest.decode_user"), "s"),
        "ingest.filter_s": (s("ingest.build_dataset"), "s"),
        "ingest.write_s": (s("ingest.write_dataset"), "s"),
        "ingest.read_s": (s("ingest.read_dataset"), "s"),
        "ingest.rows": (counters.get("ingest.stream_rows.items", 0), "count"),
        "ingest.retained_share": (counters["ingest.questions_retained"]
                                  / counters["ingest.questions_seen"], "ratio"),
        "textprep.tokenize_s": (self_time.get("textprep.tokenize", 0.0), "s"),
        "porter.stem_s": (s("porter.porter_stem"), "s"),
        "porter.stem_calls": (stems, "count"),
        "porter.distinct_share": (distinct / stems if stems else 0.0, "ratio"),
        "features.corpus_s": (s("features.build_pair_corpus"), "s"),
        "features.tfidf_fit_s": (s("features.fit_tfidf"), "s"),
        "features.extract_s": (s("features.extract_matrix"), "s"),
        "features.posts_analyzed": (analyzed / dataset_posts, "ratio"),
        "features.csv_write_s": (s("features.write_features_csv"), "s"),
        "features.csv_read_s": (s("features.read_features_csv"), "s"),
        "features.csv_reads": (calls.get("features.read_features_csv", 0), "count"),
        "selection.pearson_s": (s("selection.pearson_matrix"), "s"),
        "selection.mi_s": (s("selection.mutual_information"), "s"),
        "resample.apply_s": (s("resample.apply_plan"), "s"),
        "resample.standardize_s": (s("resample.standardize"), "s"),
        "resample.synthetic_rows": (counters.get("resample.synthetic_rows", 0), "count"),
        "forest.fit_s": (s("forest.fit_forest"), "s"),
        "forest.nodes": (counters.get("forest.nodes", 0), "count"),
        "forest.max_depth": (counters.get("forest.max_depth", 0), "count"),
        "forest.predict_s": (s("forest.forest_predict_proba"), "s"),
        "forest.load_s": (s("forest.load_forest"), "s"),
        "forest.save_s": (s("forest.save_forest"), "s"),
        "forest.model_mb": (counters.get("forest.save_forest.bytes", 0) / 1e6, "MB"),
        "mlp.fit_s": (s("mlp.fit_mlp"), "s"),
        "mlp.batches": (calls.get("mlp.loss_and_gradients", 0), "count"),
        "mlp.predict_s": (s("mlp.mlp_predict_proba"), "s"),
        "mlp.load_s": (s("mlp.load_mlp"), "s"),
        "learners.importance_s": (s("learners.normalized_importance_report"), "s"),
        "learners.importance_predicts": (calls.get("learners.mlp_predict_proba", 0), "count"),
        "metrics.evaluate_s": (s("metrics.evaluate_model"), "s"),
        "metrics.report_s": (s("metrics.emit_report"), "s"),
        "pipeline.verify_s": (s("pipeline.ensure_fresh"), "s"),
        "pipeline.stage_self_s": (stage_self, "s"),
        "pipeline.rank_self_s": (self_time.get("pipeline.cmd_rank", 0.0)
                                 / max(1, calls.get("pipeline.cmd_rank", 0)), "s"),
        "pipeline.hashed_mb": (run_bytes / 1e6, "MB"),
        "pipeline.rank_hashed_mb": (rank_bytes / 1e6, "MB"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "soaccept" / "cli.py").is_file():
        print(f"error: no program source under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2

    bench = Bench(args.workload, args.seed, args.seconds)
    shutil.rmtree(bench.work, ignore_errors=True)
    bench.work.mkdir(parents=True)
    try:
        metrics = bench.trace() if args.trace else bench.measure()
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)
    print(json.dumps({
        "correct": bench.correct and bool(metrics),
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if bench.correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
