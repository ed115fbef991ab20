"""The JSON encoding of every work-directory file, and its schema version.

`write_json` stamps a document with `SCHEMA_VERSION`, and its `kind`
when it has one, and writes it with sorted keys.  The version that gates
a whole work directory is `manifest.json`'s, which every command checks
first, through `read_json`.  Every other JSON file that a command reads
back goes through `read_artifact`: version, kind and each field of its
table present and passing its test (`has_fields`), or `foreign`, the
exit-4 error naming the stage to rerun.  `is_int` and `is_number` are
the one rule for every integer and number that the program reads: a
setting, a field of a file read back, or a field of a `rank` request.
"""

from __future__ import annotations

import json
import math

from .errors import StageError

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


def list_of(test):
    return lambda value: isinstance(value, list) and all(map(test, value))


def has_fields(document, fields: dict) -> bool:
    """Whether `document` is an object whose `fields` are present and pass their tests."""
    return isinstance(document, dict) and all(
        name in document and test(document[name]) for name, test in fields.items())


def foreign(path, kind: str, stage: str) -> StageError:
    """The error for a file at `path` that is not a `kind` artifact of this version."""
    return StageError(f"{path} is not a {kind} artifact; run {stage} first")


def write_json(path, payload: dict, kind: str | None = None, compact: bool = False) -> dict:
    """Write `payload`, stamped, to `path`, and return what was written.

    Indented by 2, or on one line if `compact` (the model files); dumps
    takes the C encoder there, which dump with a file never does, and
    dump keeps an indented file from being held whole as text.
    """
    document = {**payload, "schema_version": SCHEMA_VERSION}
    if kind is not None:
        document["kind"] = kind
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
    stamp = {"schema_version": lambda v: v == SCHEMA_VERSION, "kind": lambda v: v == kind}
    if not has_fields(document, {**stamp, **fields}):
        raise foreign(path, kind, stage)
    return document
