"""The settings tree: its defaults, `--set` parsing and `RunConfig`.

Settings come from an optional JSON file, then `--set key.path=value`
overrides, then the dedicated flags.  Every value is checked against the
type of its default by `codec.checked`, the type rule that the model
files' saved settings also pass.  `RunConfig` builds every stage object
once, at load time, and holds it, so a bad value fails before any stage
runs: a mistyped one named by its dotted key, one that a stage rejects
by its section.
"""

from __future__ import annotations

import copy
import json
from dataclasses import dataclass

from .codec import checked, settings_of
from .errors import ConfigError, DataError
from .forest import RfParams
from .ingest import IngestFilter
from .learners import SearchSpace, SplitSpec
from .mlp import MlpConfig
from .resample import ResamplePlan
from .seeding import derive_seed


DEFAULT_CONFIG = {
    "posts": None,
    "users": None,
    "workdir": "workdir",
    "seed": 0,
    "threads": 2,
    "filter": {
        "tags": ["java", "javascript"],
        "years": [2014, 2016],
    },
    "selection": {"r_threshold": 0.7, "ig_threshold": 0.4, "mi_k": 3},
    "split": settings_of(SplitSpec),
    "resample": {**settings_of(ResamplePlan), "method": "smote"},
    "forest": settings_of(RfParams),
    "mlp": settings_of(MlpConfig),
    "search": {**settings_of(SearchSpace), "enabled": False},
    "evaluate": {"importance_rounds": 5},
}


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
        for depth, part in enumerate(parts[:-1], 1):
            if not isinstance(probe.get(part), dict):
                raise ConfigError(f"unknown configuration key: {key}")
            probe = probe[part]
            node = node.setdefault(part, {})
            if not isinstance(node, dict):  # a config file's section, say
                raise ConfigError(f"{'.'.join(parts[:depth])} must be a JSON object")
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
    """Checked settings, `DEFAULT_CONFIG`'s tree with the overrides merged
    in, and the stage objects that `from_dict` builds from its sections
    once, each seeded from `seed`; `search` is None unless `search.enabled`."""

    settings: dict
    filter: IngestFilter
    split: SplitSpec
    resample: ResamplePlan
    forest: RfParams
    mlp: MlpConfig
    search: SearchSpace | None

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        settings = checked(DEFAULT_CONFIG, data)
        if not settings["workdir"]:
            raise ConfigError("workdir must be a non-empty path string")
        if settings["threads"] < 1:
            raise ConfigError("threads must be >= 1")
        if len(settings["filter"]["years"]) != 2:
            raise ConfigError("filter.years must be [first, last]")
        if settings["selection"]["mi_k"] < 1:
            raise ConfigError("selection: mi_k must be >= 1")
        if settings["evaluate"]["importance_rounds"] < 1:
            raise ConfigError("evaluate.importance_rounds must be >= 1")

        def build(section, make, **values):
            try:
                return make(**values)
            except DataError as exc:
                raise ConfigError(f"{section}: {exc}") from exc

        def seeded(section, make, values):
            return build(section, make, seed=derive_seed(settings["seed"], section), **values)

        d, grids = settings["filter"], settings["search"]
        return cls(
            settings,
            filter=build("filter", IngestFilter, tags_any_of=frozenset(d["tags"]),
                         year_range=tuple(d["years"])),
            split=seeded("split", SplitSpec, settings["split"]),
            resample=seeded("resample", ResamplePlan, settings["resample"]),
            forest=seeded("forest", RfParams, settings["forest"]),
            mlp=seeded("mlp", MlpConfig, settings["mlp"]),
            search=seeded("search", SearchSpace, {
                k: tuple(v) if isinstance(v, list) else v
                for k, v in grids.items() if k != "enabled"
            }) if grids["enabled"] else None,
        )

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
        return self.resample.method


def load_config(path=None, sets=(), **flags) -> RunConfig:
    """Config file, then --set overrides, then `flags`: top-level keys, such
    as `workdir` for --out, that override unless None.  All optional."""
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
    data.update((key, value) for key, value in flags.items() if value is not None)
    return RunConfig.from_dict(data)
