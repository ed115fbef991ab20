"""The JSON encoding of every work-directory file, its schema version,
and the type rule of every value that the program reads.

`stamped` stamps a document with `SCHEMA_VERSION`, and its `kind` when
it has one: every file that `write_json` writes, with sorted keys, and
`rank`'s output.  `is_this_version` is the one test of the stamp.  The
version that gates a whole work directory is `manifest.json`'s, which
every command checks first, through `read_json`.  Every other JSON file
that a command reads back goes through `read_artifact`: version, kind
and each field of its table present and passing its test (`has_fields`),
or `foreign`, the exit-4 error naming the stage to rerun.  `is_int` and
`is_number` are the one rule for every integer and number read;
`checked` checks each setting, of a run or saved in a model file
(`load_settings`), against the type of its default.
"""

from __future__ import annotations

import dataclasses
import json
import math

from .errors import ConfigError, StageError

SCHEMA_VERSION = 1


def fits_int64(value: int) -> bool:
    """Whether `value` fits a signed 64-bit integer: a wider one would
    overflow the float features and the int64 arrays built from it."""
    return -(2**63) <= value < 2**63


def is_int(value) -> bool:
    # exactly int: json loads true and false as bools, a subclass of int
    return type(value) is int and fits_int64(value)


def is_number(value) -> bool:
    # json also reads NaN, Infinity and integers past a float's range,
    # which no field or setting means
    return (isinstance(value, float) and math.isfinite(value)) or is_int(value)


def is_this_version(stamp) -> bool:
    # exactly the integer: true and 1.0 compare equal to 1
    return is_int(stamp) and stamp == SCHEMA_VERSION


def list_of(test):
    return lambda value: isinstance(value, list) and all(map(test, value))


def has_fields(document, fields: dict) -> bool:
    """Whether `document` is an object whose `fields` are present and pass their tests."""
    return isinstance(document, dict) and all(
        name in document and test(document[name]) for name, test in fields.items())


def foreign(path, kind: str, stage: str) -> StageError:
    """The error for a file at `path` that is not a `kind` artifact of this version."""
    return StageError(f"{path} is not a {kind} artifact; run {stage} first")


def stamped(payload: dict, kind: str | None = None) -> dict:
    """`payload` stamped with `SCHEMA_VERSION`, and with `kind` when given."""
    document = {**payload, "schema_version": SCHEMA_VERSION}
    if kind is not None:
        document["kind"] = kind
    return document


def write_json(path, payload: dict, kind: str | None = None, compact: bool = False) -> dict:
    """Write `payload`, `stamped`, to `path`, and return what was written.

    Indented by 2, or on one line if `compact` (the model files); dumps
    takes the C encoder there, which dump with a file never does, and
    dump keeps an indented file from being held whole as text.
    """
    document = stamped(payload, kind)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        if compact:
            fh.write(json.dumps(document, sort_keys=True, ensure_ascii=False,
                                allow_nan=False, separators=(",", ":")))
        else:
            json.dump(document, fh, indent=2, sort_keys=True, ensure_ascii=False, allow_nan=False)
        fh.write("\n")
    return document


def read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def read_artifact(path, kind: str, stage: str, fields: dict) -> dict:
    """The document at `path` if this version wrote it as a `kind` file with
    `fields`; otherwise `foreign`, naming `stage`, the stage that writes it."""
    try:
        document = read_json(path)
    except ValueError:  # not JSON, or not UTF-8
        raise foreign(path, kind, stage) from None
    stamp = {"schema_version": is_this_version, "kind": lambda v: v == kind}
    if not has_fields(document, {**stamp, **fields}):
        raise foreign(path, kind, stage)
    return document


# the type rule: what a setting accepts, by the type of its default
_TYPE_RULE = {
    type(None): (lambda v: v is None or isinstance(v, str), "a path string or null"),
    bool: (lambda v: isinstance(v, bool), "true or false"),
    int: (is_int, "an integer"),
    float: (is_number, "a number"),
    str: (lambda v: isinstance(v, str), "a string"),
}
# the one union, a name or a count, taken by every `max_features` key;
# RfParams checks which names and counts
_NAME_OR_INT = (lambda v: is_int(v) or isinstance(v, str), "a name or an integer")


def checked(default, value, path: str = ""):
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
            key: checked(sub, value.get(key, sub), prefix + key)
            for key, sub in default.items()
        }
    if isinstance(default, list):
        if not isinstance(value, list) or not value:
            raise ConfigError(f"{path} must be a non-empty list")
        return [checked(default[0], item, f"{path}[{i}]") for i, item in enumerate(value)]
    if path.rpartition(".")[2].partition("[")[0] == "max_features":
        accepts, wanted = _NAME_OR_INT
    else:
        accepts, wanted = _TYPE_RULE[type(default)]
    if not accepts(value):
        raise ConfigError(f"{path} must be {wanted}, got {value!r}")
    return float(value) if isinstance(default, float) else value


def settings_of(cls) -> dict:
    """A stage class's settings and defaults: its fields but `seed`, tuples as lists."""
    return {f.name: list(f.default) if isinstance(f.default, tuple) else f.default
            for f in dataclasses.fields(cls) if f.name != "seed"}


def load_settings(cls, saved):
    """The `cls` saved as `saved`: exactly its settings, each passing `checked`,
    and its `seed`, a `derive_seed` output in [0, 2**64), not a setting."""
    defaults = settings_of(cls)
    if not (isinstance(saved, dict) and saved.keys() == {*defaults, "seed"}
            and type(saved["seed"]) is int and 0 <= saved["seed"] < 2**64):
        raise ConfigError("not the settings that a model saves")
    return cls(seed=saved["seed"], **checked(defaults, {k: saved[k] for k in defaults}))
