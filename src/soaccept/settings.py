"""The settings tree: its defaults, the type rule, `--set` parsing and
`RunConfig`.

Settings come from an optional JSON file, then `--set key.path=value`
overrides, then the dedicated flags.  Every value is checked against the
type of its default, and every stage object is built once at load time,
so a bad value fails before any stage runs, named by its dotted key.
"""

from __future__ import annotations

import copy
import json
import math
from dataclasses import dataclass, fields

from .codec import is_int
from .errors import ConfigError, DataError
from .forest import RfParams
from .ingest import IngestFilter
from .learners import SearchSpace, SplitSpec
from .mlp import MlpConfig
from .resample import ResamplePlan
from .seeding import derive_seed


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


def _is_number(value) -> bool:
    # finite only: json also reads NaN, Infinity and integers past a
    # float's range, which no setting means
    try:
        return (is_int(value) or isinstance(value, float)) and math.isfinite(value)
    except OverflowError:
        return False


# the type rule: what a setting accepts, by the type of its default
_TYPE_RULE = {
    type(None): (lambda v: v is None or isinstance(v, str), "a path string or null"),
    bool: (lambda v: isinstance(v, bool), "true or false"),
    int: (is_int, "an integer"),
    float: (_is_number, "a number"),
    str: (lambda v: isinstance(v, str), "a string"),
}
# the one union, a name or a count; RfParams checks which names and counts
_NAME_OR_INT = (lambda v: is_int(v) or isinstance(v, str), "a name or an integer")
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
            except DataError as exc:
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
