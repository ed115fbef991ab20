"""The work-directory contract: where each file lives, and `manifest.json`.

Each stage records, under its name, a digest of the settings it read,
the sha256 of each file it read (checked before the read) and of each
file it wrote.  Before a stage runs, `ensure_fresh` checks every earlier
stage's record against the settings and the files, and fails with the
stage to rerun.  Files are named by their label, a path relative to the
work directory with `{}` for the sampler, as in
``models/{}/model.rf.json``.  `codec` writes every JSON file, this one
included; this one's schema version, checked before any stage runs, is
the one that gates the whole work directory.

Inside `digest_memo()`, each file is hashed once: its digest is kept,
keyed on the file's (device, inode, size, mtime), and trusted for the
rest of the block.  Outside it, every check hashes afresh.
"""

from __future__ import annotations

import hashlib
import json
import os
from contextlib import contextmanager
from pathlib import Path

from .codec import has_fields, is_this_version, read_json, write_json
from .errors import StageError
from .settings import RunConfig

# each stage in run order: its first artifact, named in dependency errors;
# the top-level settings its config digest covers (extraction has none, so
# the features stage's freshness rides on dataset.jsonl); and the files it
# reads, which its manifest entry records with the digests checked before
# the read: ingest's dump settings, then work-directory labels
_STAGES = {
    "ingest": ("dataset.jsonl", ("filter",), ("posts", "users")),
    "features": ("features.csv", (), ("dataset.jsonl",)),
    "select": ("selection.json", ("selection",), ("features.csv",)),
    "train": ("trained models", ("seed", "split", "resample", "forest", "mlp", "search"),
              ("features.csv", "selection.json")),
    "evaluate": ("evaluation report", ("seed", "evaluate"),
                 ("features.csv", "selection.json", "models/{}/model.rf.json",
                  "models/{}/model.mlp.json", "models/{}/split.json")),
}


def artifact(cfg: RunConfig, label: str) -> Path:
    """The work-directory file or directory that `label` names."""
    return Path(cfg.workdir, label.format(cfg.sampler))


def _sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


# digests by (st_dev, st_ino, st_size, st_mtime_ns) inside `digest_memo()`,
# None outside it
_digest_memo: dict | None = None


@contextmanager
def digest_memo():
    """Hash each file once until the block ends, however it ends."""
    global _digest_memo
    _digest_memo = {}
    try:
        yield
    finally:
        _digest_memo = None


def digest(path) -> str:
    """sha256 of `path`: from the memo while its key is unchanged since it
    was hashed inside `digest_memo()`, else read afresh."""
    if _digest_memo is None:
        return _sha256_file(path)
    st = os.stat(path)
    key = (st.st_dev, st.st_ino, st.st_size, st.st_mtime_ns)
    if key not in _digest_memo:
        _digest_memo[key] = _sha256_file(path)
    return _digest_memo[key]


def dump_digests(cfg: RunConfig) -> dict:
    """The digest of each dump that ingest reads, by its setting's name."""
    return {label: digest(cfg.settings[label]) for label in _STAGES["ingest"][2]}


def _fingerprint(stage: str, cfg: RunConfig) -> str:
    part = {key: cfg.settings[key] for key in _STAGES[stage][1]}
    if stage == "evaluate":
        part["sampler"] = cfg.sampler
    text = json.dumps(part, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _names_to_digests(files) -> bool:
    return isinstance(files, dict) and all(isinstance(v, str) for v in files.values())


# the fields of each stage's record, as `record_stage` writes them
_RECORD = {
    "config": lambda config: isinstance(config, str),
    "inputs": _names_to_digests,
    "outputs": _names_to_digests,
}


def _load_manifest(path: Path) -> dict:
    if not path.exists():
        return {"stages": {}}
    try:
        manifest = read_json(path)
    except ValueError:  # not JSON, or not UTF-8
        manifest = None
    stages = manifest.get("stages") if isinstance(manifest, dict) else None
    if not isinstance(stages, dict) or not all(has_fields(r, _RECORD) for r in stages.values()):
        raise StageError("manifest.json is corrupt; remove it and rerun ingest")
    if not is_this_version(manifest.get("schema_version")):
        raise StageError(
            f"manifest schema {manifest.get('schema_version')!r} is not supported;"
            " remove it and rerun ingest"
        )
    return manifest


def record_stage(cfg: RunConfig, stage: str, inputs: dict, outputs) -> None:
    """Record `stage` in the manifest: `inputs` maps each label it read to
    the digest checked before the read; only the `outputs`, paths in the
    work directory, are hashed here."""
    path = artifact(cfg, "manifest.json")
    manifest = _load_manifest(path)
    manifest["stages"][stage] = {
        "config": _fingerprint(stage, cfg),
        "inputs": inputs,
        "outputs": {
            out.relative_to(cfg.workdir).as_posix(): digest(out) for out in sorted(outputs)
        },
    }
    write_json(path, manifest)


def verify_chain(cfg: RunConfig, priors, requester: str) -> dict:
    """Check each of `priors`, in run order, against its manifest record.

    Every output is hashed once, or taken from the memo (`digest`).  A
    later stage's recorded input is then compared with the digest its
    producer recorded, which the same loop has just checked against the
    file.  Returns those checked digests, by label.
    """
    stages = _load_manifest(artifact(cfg, "manifest.json"))["stages"]
    verified = {}  # output label -> recorded digest, checked against the file
    for prior in priors:
        entry = stages.get(prior)
        if entry is None:
            raise StageError(
                f"stage '{requester}' needs {_STAGES[prior][0]}; run {prior} first"
            )
        if entry["config"] != _fingerprint(prior, cfg):
            raise StageError(
                f"settings for stage '{prior}' changed after it ran; run {prior} first"
            )
        for label, want in entry["inputs"].items():
            if prior == "ingest":
                # source dumps are external; they are only comparable while
                # the config still points at them, and the work directory
                # stays self-contained without them (dataset.jsonl is pinned)
                source = cfg.settings[label] if label in _STAGES["ingest"][2] else None
                if source is None or not Path(source).exists():
                    continue
                got = digest(source)
            else:
                got = verified.get(label)
            if got != want:
                raise StageError(f"{label} changed after stage '{prior}' ran; run {prior} first")
        for rel, want in entry["outputs"].items():
            out = Path(cfg.workdir, rel)
            if not out.exists():
                raise StageError(f"{rel} is missing; run {prior} first")
            if digest(out) != want:
                raise StageError(f"{rel} was modified after stage '{prior}' ran; run {prior} first")
            verified[rel] = want
    return verified


def ensure_fresh(cfg: RunConfig, stage: str) -> dict:
    """Fail with the stage to rerun when any prerequisite is absent or stale.

    Returns the checked digest of each file `stage` reads, by its label.
    """
    order = list(_STAGES)
    verified = verify_chain(cfg, order[: order.index(stage)], requester=stage)
    labels = [label.format(cfg.sampler) for label in _STAGES[stage][2]]
    try:
        return {label: verified[label] for label in labels}
    except KeyError:  # a producer's record leaves out a file it writes
        raise StageError("manifest.json is corrupt; remove it and rerun ingest") from None
