"""Span tracing around the program's public functions, from outside it.

Run as ``python3 perfbench/tracer.py SPANS.json ARGS...``: this installs
wrappers around the calls listed in `TARGETS`, runs ``soaccept.cli.main``
with ARGS, writes the recorded spans to SPANS.json and exits with the
command's exit code.  Nothing under ``src/`` is edited; a wrapper replaces
the name in the module that calls it (``from .x import f`` binds `f`
there), so each row of `TARGETS` names the calling module.

Spans are kept in memory and written once, when the command ends.  A span
records name, start, end, parent and self time (its duration minus the
time of the traced calls inside it).  Functions called per token or per
row are aggregated instead (count, total, self) so that the trace stays
small; they still count as children of the enclosing span.
"""

from __future__ import annotations

import json
import sys
import threading
import time
from pathlib import Path

SPAN, LEAF, STREAM = "span", "leaf", "stream"

# (calling module, attribute, recorded name, kind)
TARGETS = (
    ("cli", "cmd_run", "pipeline.cmd_run", SPAN),
    ("cli", "cmd_rank", "pipeline.cmd_rank", SPAN),
    ("pipeline", "cmd_ingest", "pipeline.cmd_ingest", SPAN),
    ("pipeline", "cmd_features", "pipeline.cmd_features", SPAN),
    ("pipeline", "cmd_select", "pipeline.cmd_select", SPAN),
    ("pipeline", "cmd_train", "pipeline.cmd_train", SPAN),
    ("pipeline", "cmd_evaluate", "pipeline.cmd_evaluate", SPAN),
    ("pipeline", "ensure_fresh", "pipeline.ensure_fresh", SPAN),
    ("pipeline", "stream_rows", "ingest.stream_rows", STREAM),
    ("pipeline", "decode_post", "ingest.decode_post", LEAF),
    ("pipeline", "decode_user", "ingest.decode_user", LEAF),
    ("pipeline", "build_dataset", "ingest.build_dataset", SPAN),
    ("pipeline", "write_dataset", "ingest.write_dataset", SPAN),
    ("pipeline", "read_dataset", "ingest.read_dataset", SPAN),
    ("pipeline", "build_pair_corpus", "features.build_pair_corpus", SPAN),
    ("pipeline", "fit_tfidf", "features.fit_tfidf", SPAN),
    ("pipeline", "extract_matrix", "features.extract_matrix", SPAN),
    ("pipeline", "write_features_csv", "features.write_features_csv", SPAN),
    ("pipeline", "read_features_csv", "features.read_features_csv", SPAN),
    ("pipeline", "save_tfidf", "features.save_tfidf", SPAN),
    ("pipeline", "load_tfidf", "features.load_tfidf", SPAN),
    ("features", "split_code_blocks", "textprep.split_code_blocks", LEAF),
    ("features", "tokenize", "textprep.tokenize", LEAF),
    ("textprep", "porter_stem", "porter.porter_stem", LEAF),
    ("selection", "pearson_matrix", "selection.pearson_matrix", SPAN),
    ("selection", "mutual_information", "selection.mutual_information", SPAN),
    ("pipeline", "apply_plan", "resample.apply_plan", SPAN),
    ("pipeline", "standardize", "resample.standardize", SPAN),
    ("resample", "standardize", "resample.standardize", SPAN),
    ("pipeline", "fit_forest", "forest.fit_forest", SPAN),
    ("pipeline", "forest_predict_proba", "forest.forest_predict_proba", SPAN),
    ("pipeline", "save_forest", "forest.save_forest", SPAN),
    ("pipeline", "load_forest", "forest.load_forest", SPAN),
    ("pipeline", "fit_mlp", "mlp.fit_mlp", SPAN),
    ("mlp", "loss_and_gradients", "mlp.loss_and_gradients", LEAF),
    ("pipeline", "mlp_predict_proba", "mlp.mlp_predict_proba", SPAN),
    ("pipeline", "save_mlp", "mlp.save_mlp", SPAN),
    ("pipeline", "load_mlp", "mlp.load_mlp", SPAN),
    ("pipeline", "normalized_importance_report", "learners.normalized_importance_report", SPAN),
    ("learners", "mlp_predict_proba", "learners.mlp_predict_proba", LEAF),
    ("pipeline", "evaluate_model", "metrics.evaluate_model", SPAN),
    ("pipeline", "emit_report", "metrics.emit_report", SPAN),
)


def _tree_depth(left, right) -> int:
    # nodes are stored parent before child, so one forward pass suffices
    depth = [0] * len(left)
    for node, (lo, hi) in enumerate(zip(left, right)):
        if lo >= 0:
            depth[lo] = depth[hi] = depth[node] + 1
    return max(depth)


def _probe(name: str, args, result) -> dict:
    """Counts read off a call's arguments and result."""
    if name == "ingest.build_dataset":
        report = result[1]
        return {"ingest.questions_seen": report["questions_seen"],
                "ingest.questions_retained": report["questions_retained"],
                "ingest.dataset_posts": sum(1 + len(r.answers) for r in result[0])}
    if name == "resample.apply_plan":
        return {"resample.synthetic_rows": len(result[1]) - len(args[1])}
    if name == "forest.fit_forest":
        return {"forest.nodes": sum(t.n_nodes for t in result.trees),
                "forest.max_depth": max(_tree_depth(t.left.tolist(), t.right.tolist())
                                        for t in result.trees)}
    if name == "forest.save_forest":
        return {"forest.save_forest.bytes": Path(args[1]).stat().st_size}
    return {}


_PROBED = {"ingest.build_dataset", "resample.apply_plan", "forest.fit_forest",
           "forest.save_forest"}


class Tracer:
    """In-memory span and counter store; one per traced process."""

    def __init__(self):
        self.spans: list = []  # [id, name, parent id, start, end, self seconds]
        self.leaves: dict = {}  # name -> [calls, total seconds, self seconds]
        self.counters: dict = {}
        self.distinct: set = set()  # porter_stem inputs
        self._ids = 0
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _record(self, name, kind, frame, t0, t1, args, result):
        stack = self._stack()
        dur = t1 - t0
        if kind == SPAN:
            parent = stack[-1][0] if stack else None
            self.spans.append([frame[0], name, parent, t0, t1, dur - frame[1]])
        else:
            acc = self.leaves.setdefault(name, [0, 0.0, 0.0])
            acc[0] += 1
            acc[1] += dur
            acc[2] += dur - frame[1]
            if name == "porter.porter_stem":
                self.distinct.add(args[0])
        if name in _PROBED:
            p0 = time.perf_counter()
            for key, value in _probe(name, args, result).items():
                self.counters[key] = self.counters.get(key, 0) + value
            # the probe's own time is hidden from the enclosing span
            dur += time.perf_counter() - p0
        if stack:
            stack[-1][1] += dur

    def wrap(self, fn, name: str, kind: str):
        tracer = self

        def call(*args, **kwargs):
            stack = tracer._stack()
            frame = [tracer._next_id() if kind == SPAN else None, 0.0]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
            tracer._record(name, kind, frame, t0, t1, args, result)
            return result

        def stream(*args, **kwargs):
            it = iter(fn(*args, **kwargs))
            items = name + ".items"
            while True:
                stack = tracer._stack()
                frame = [None, 0.0]
                stack.append(frame)
                t0 = time.perf_counter()
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    t1 = time.perf_counter()
                    stack.pop()
                    tracer._record(name, kind, frame, t0, t1, args, None)
                tracer.counters[items] = tracer.counters.get(items, 0) + 1
                yield item

        call.__wrapped__ = stream.__wrapped__ = fn
        return stream if kind == STREAM else call

    def _next_id(self) -> int:
        self._ids += 1
        return self._ids

    def install(self) -> None:
        import importlib

        for module, attr, name, kind in TARGETS:
            mod = importlib.import_module(f"soaccept.{module}")
            setattr(mod, attr, self.wrap(getattr(mod, attr), name, kind))

    def dump(self, path) -> None:
        counters = dict(self.counters)
        if self.distinct:
            counters["porter.distinct"] = len(self.distinct)
        Path(path).write_text(json.dumps(
            {"spans": self.spans, "leaves": self.leaves, "counters": counters}))


def main(argv) -> int:
    out, args = argv[0], argv[1:]
    tracer = Tracer()
    tracer.install()
    from soaccept import cli

    try:
        code = cli.main(args)
    finally:
        tracer.dump(out)
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
