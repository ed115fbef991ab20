"""The JSON encoding of every work-directory file, and its schema version.

`write_json` stamps a document with `SCHEMA_VERSION`, and its `kind`
when it has one, and writes it with sorted keys.  The version that gates
a whole work directory is `manifest.json`'s, which every command checks
first.  `read_artifact` also checks the version and kind of the files
that carry a kind, and `foreign` is its exit-4 error, naming the stage
to rerun; `read_json` reads any other file as it stands.  `is_int` is
the one test of a decoded JSON integer.
"""

from __future__ import annotations

import json

from .errors import StageError

SCHEMA_VERSION = 1


def is_int(value) -> bool:
    # json loads true and false as bools, which isinstance counts as ints
    return isinstance(value, int) and not isinstance(value, bool)


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
                                separators=(",", ":")))
        else:
            json.dump(document, fh, indent=2, sort_keys=True, ensure_ascii=False)
        fh.write("\n")
    return document


def read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def read_artifact(path, kind: str, stage: str) -> dict:
    """The document at `path` if this version wrote it as a `kind` file;
    otherwise `foreign`, naming `stage`, the stage that writes it."""
    document = read_json(path)
    if (not isinstance(document, dict) or document.get("schema_version") != SCHEMA_VERSION
            or document.get("kind") != kind):
        raise foreign(path, kind, stage)
    return document
