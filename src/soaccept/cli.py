"""Command line front end.

Exit codes: 0 success; otherwise the `exit_code` of the class in
`errors` that was raised: 2 configuration error (`ConfigError`), 3 data
error (`DataError`), 4 stage dependency error (`StageError`: a
prerequisite stage has not run or is stale).
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import ConfigError, DataError, StageError
from .pipeline import (
    cmd_evaluate,
    cmd_features,
    cmd_ingest,
    cmd_rank,
    cmd_run,
    cmd_select,
    cmd_train,
)
from .settings import load_config


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", metavar="FILE", help="JSON settings file")
    p.add_argument(
        "--set",
        metavar="KEY=VALUE",
        action="append",
        default=[],
        dest="overrides",
        help="override one setting, e.g. --set forest.n_estimators=50",
    )
    p.add_argument("--seed", type=int, help="master random seed")
    p.add_argument(
        "--threads",
        type=int,
        help="processes for the train stage: this one fits the network while the"
        " others grow contiguous runs of the forest's tree indices (at most the"
        " CPUs this process may run on; 1 fits both in-process; default 2); the"
        " randomized search runs in one process",
    )
    p.add_argument("--out", metavar="DIR", help="work directory (default: workdir)")
    p.add_argument("--posts", metavar="FILE", help="posts XML dump")
    p.add_argument("--users", metavar="FILE", help="users XML dump")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="soaccept",
        description="Predict which answer a question asker will accept.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")
    stages = (
        ("ingest", "filter the XML dumps into dataset.jsonl"),
        ("features", "extract the per-answer feature matrix"),
        ("select", "prune features by correlation and information gain"),
        ("train", "fit the forest and network on the balanced training split"),
        ("evaluate", "score the held-out split and write the report"),
        ("run", "all stages in order"),
    )
    for name, help_text in stages:
        _add_common(sub.add_parser(name, help=help_text))
    rank = sub.add_parser("rank", help="order new candidate answers by model score")
    _add_common(rank)
    rank.add_argument("--input", required=True, metavar="FILE", help="candidates JSON")
    rank.add_argument(
        "--model", choices=("rf", "mlp"), default="rf", help="which trained model scores"
    )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(
            path=args.config,
            sets=args.overrides,
            seed=args.seed,
            threads=args.threads,
            workdir=args.out,
            posts=args.posts,
            users=args.users,
        )
        if args.command == "ingest":
            report = cmd_ingest(cfg)
            print(
                f"retained {report['questions_retained']} questions"
                f" / {report['answers_retained']} answers"
            )
        elif args.command == "features":
            stats = cmd_features(cfg)
            print(f"wrote {stats['n_rows']} feature rows")
        elif args.command == "select":
            selection = cmd_select(cfg)
            print(f"retained {len(selection['retained'])} features")
        elif args.command == "train":
            summary = cmd_train(cfg)
            oob = summary["oob_error"]
            print(
                f"trained on {summary['resampled_rows']} resampled rows"
                f" (oob error {'undefined' if oob is None else f'{oob:.4f}'})"
            )
        elif args.command == "evaluate":
            for ev in cmd_evaluate(cfg)["evals"]:
                print(
                    f"{ev['model']}/{ev['sampler']}: accuracy {ev['accuracy']:.4f}"
                    f" mcc {ev['mcc']:.4f} auc {ev['auc']:.4f}"
                )
        elif args.command == "run":
            summary = cmd_run(cfg)
            print(
                f"{summary['questions']} questions -> {summary['feature_rows']} rows"
                f" -> {summary['retained_features']} features; report in"
                f" {summary['report_dir']}"
            )
        elif args.command == "rank":
            ranking = cmd_rank(cfg, args.input, model_kind=args.model)
            json.dump(ranking, sys.stdout, indent=2, sort_keys=True)
            print()
    except (ConfigError, DataError, StageError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
