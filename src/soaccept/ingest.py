"""Stream Stack Exchange dump XML, decode rows, and build the labeled dataset.

Dump files (`Posts.xml`, `Users.xml`) hold one `<row .../>` element per
record under a single root.  `stream_rows` reads them with constant
memory; the ingest stage decodes them into typed records, filters them by
tag/year/acceptance rules, and persists them as newline-delimited JSON
(`dataset.jsonl`), each line carrying the work directory's schema version
as `v`.  The stage holds every decoded post and user until it writes, so
its memory grows with the dump.  One field table per post kind states a
line's format for both its writer and its reader.
"""

from __future__ import annotations

import json
import re
import xml.parsers.expat
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from datetime import datetime, timedelta, timezone
from typing import Iterator

from .codec import SCHEMA_VERSION, fits_int64, foreign, has_fields, is_int, is_this_version, list_of
from .errors import DataError

_TAG_RE = re.compile(r"<([^<>]+)>")


class ParseError(DataError):
    """Malformed dump XML; carries the parser byte offsets."""

    def __init__(self, message: str, error_byte: int, last_row_byte: int | None):
        super().__init__(message)
        self.error_byte = error_byte
        self.last_row_byte = last_row_byte


class DecodeError(DataError):
    """A row attribute is missing or unparseable; names the attribute."""

    def __init__(self, attribute: str, detail: str):
        super().__init__(f"bad attribute {attribute!r}: {detail}")
        self.attribute = attribute


_EPOCH = datetime(1970, 1, 1)
_MILLISECOND = timedelta(milliseconds=1)


def parse_timestamp(text: str) -> int:
    """Dump timestamp (naive = UTC, optional 'Z'/'+00:00') to epoch milliseconds."""
    s = text.strip()
    if s.endswith("Z"):
        s = s[:-1]
    elif s.endswith("+00:00"):
        s = s[:-6]
    dt = datetime.fromisoformat(s)
    if dt.tzinfo is not None:
        dt = dt.astimezone(timezone.utc).replace(tzinfo=None)
    # integer arithmetic: float epoch seconds lose sub-ms precision at this scale
    return (dt - _EPOCH) // _MILLISECOND


def format_timestamp(ms: int) -> str:
    sec, msec = divmod(ms, 1000)
    dt = datetime.fromtimestamp(sec, tz=timezone.utc)
    # %Y leaves a year before 1000 unpadded, which fromisoformat rejects
    return f"{dt.year:04d}-{dt:%m-%dT%H:%M:%S}.{msec:03d}Z"


def timestamp_year(ms: int) -> int:
    return datetime.fromtimestamp(ms // 1000, tz=timezone.utc).year


@dataclass
class PostRow:
    id: int
    post_type: str  # question | answer | other
    creation_ts: int  # epoch ms UTC
    score: int = 0
    body: str = ""
    parent_id: int | None = None
    accepted_answer_id: int | None = None
    view_count: int | None = None
    owner_user_id: int | None = None
    tags: list[str] = field(default_factory=list)
    answer_count: int | None = None
    comment_count: int = 0


@dataclass
class UserRow:
    id: int
    reputation: int
    creation_ts: int


@dataclass
class AnswerEntry:
    post: PostRow
    user: UserRow
    accepted: bool


@dataclass
class QARecord:
    question: PostRow
    answers: list[AnswerEntry]


@dataclass(frozen=True)
class IngestFilter:
    tags_any_of: frozenset[str]
    year_range: tuple[int, int]

    def __post_init__(self):
        if self.year_range[0] > self.year_range[1]:
            raise DataError("year_range start > end")


def stream_rows(source) -> Iterator[dict]:
    """Yield one attribute map per `<row .../>` element, in document order.

    `source` is a binary file-like object read in 64 KiB chunks; memory
    stays bounded by one chunk plus one row.  Non-row elements are skipped.
    Malformed or truncated XML raises ParseError carrying the byte offset
    of the error and of the last complete row.
    """
    parser = xml.parsers.expat.ParserCreate("utf-8")
    pending: list[dict] = []
    last_row_byte: list[int | None] = [None]

    def handle_start(name, attrs):
        if name == "row":
            pending.append(attrs)

    def handle_end(name):
        if name == "row":
            last_row_byte[0] = parser.CurrentByteIndex

    parser.StartElementHandler = handle_start
    parser.EndElementHandler = handle_end

    while True:
        chunk = source.read(1 << 16)
        try:
            parser.Parse(chunk, not chunk)
        except xml.parsers.expat.ExpatError as exc:
            raise ParseError(
                f"malformed dump XML: {exc} (error at byte {parser.ErrorByteIndex},"
                f" last complete row at byte {last_row_byte[0]})",
                error_byte=parser.ErrorByteIndex,
                last_row_byte=last_row_byte[0],
            ) from exc
        yield from pending
        pending.clear()
        if not chunk:
            return


def _req(attrs: dict, name: str) -> str:
    if name not in attrs:
        raise DecodeError(name, "missing")
    return attrs[name]


def _opt_int(attrs: dict, name: str) -> int | None:
    raw = attrs.get(name)
    if raw is None:
        return None
    try:
        value = int(raw)
    except ValueError:
        raise DecodeError(name, f"not an integer: {raw!r}") from None
    if not fits_int64(value):
        raise DecodeError(name, "outside the signed 64-bit range")
    return value


def _req_int(attrs: dict, name: str) -> int:
    value = _opt_int(attrs, name)
    if value is None:
        raise DecodeError(name, "missing")
    return value


def _req_ts(attrs: dict, name: str) -> int:
    raw = _req(attrs, name)
    try:
        return parse_timestamp(raw)
    except ValueError:
        raise DecodeError(name, f"not a timestamp: {raw!r}") from None


def parse_tags(raw: str) -> list[str]:
    """`<java><arrays>` (or `|java|arrays|`) to a lowercase tag list."""
    if "<" in raw:
        return [t.lower() for t in _TAG_RE.findall(raw)]
    return [t.lower() for t in raw.split("|") if t]


def decode_post(attrs: dict) -> PostRow:
    post_id = _req_int(attrs, "Id")
    type_id = _req(attrs, "PostTypeId")
    post_type = {"1": "question", "2": "answer"}.get(type_id, "other")
    row = PostRow(
        id=post_id,
        post_type=post_type,
        creation_ts=_req_ts(attrs, "CreationDate"),
        score=_opt_int(attrs, "Score") or 0,
        body=attrs.get("Body", ""),
        parent_id=_opt_int(attrs, "ParentId"),
        accepted_answer_id=_opt_int(attrs, "AcceptedAnswerId"),
        view_count=_opt_int(attrs, "ViewCount"),
        owner_user_id=_opt_int(attrs, "OwnerUserId"),
        tags=parse_tags(attrs.get("Tags", "")),
        answer_count=_opt_int(attrs, "AnswerCount"),
        comment_count=_opt_int(attrs, "CommentCount") or 0,
    )
    if row.post_type == "answer":
        if row.parent_id is None:
            raise DecodeError("ParentId", "missing on answer")
        if row.tags:
            raise DecodeError("Tags", "present on answer")
    if row.post_type == "question" and row.parent_id is not None:
        raise DecodeError("ParentId", "present on question")
    if row.comment_count < 0:
        raise DecodeError("CommentCount", "negative")
    return row


def decode_user(attrs: dict) -> UserRow:
    user_id = _req_int(attrs, "Id")
    reputation = _opt_int(attrs, "Reputation")
    reputation = 0 if reputation is None else reputation
    if reputation < 0:
        raise DecodeError("Reputation", "negative")
    return UserRow(
        id=user_id,
        reputation=reputation,
        creation_ts=_req_ts(attrs, "CreationDate"),
    )


def build_dataset(
    posts, users: dict[int, UserRow], flt: IngestFilter
) -> tuple[list[QARecord], dict]:
    """Apply the sampling rules and return (records, discard report).

    A question is retained when its tags intersect the filter, its
    creation year is in range, and its accepted answer survives the
    answer discards (unregistered owner, same owner as the question,
    owner missing from the user table) with at least one competitor.
    Answers are sorted by id within a record, records by question id,
    regardless of input order.
    """
    questions: dict[int, PostRow] = {}
    answers_by_parent: dict[int, list[PostRow]] = defaultdict(list)
    counts: Counter = Counter()
    for post in posts:
        if post.post_type == "question":
            questions[post.id] = post
        elif post.post_type == "answer":
            answers_by_parent[post.parent_id].append(post)
        else:
            counts["other_post_type"] += 1

    lo, hi = flt.year_range
    records: list[QARecord] = []
    for qid in sorted(questions):
        q = questions[qid]
        if not (set(q.tags) & flt.tags_any_of):
            counts["question_tag_mismatch"] += 1
            continue
        if not (lo <= timestamp_year(q.creation_ts) <= hi):
            counts["question_year_out_of_range"] += 1
            continue
        if q.accepted_answer_id is None:
            counts["question_no_accepted_answer"] += 1
            continue
        kept: list[tuple[PostRow, UserRow]] = []
        for a in sorted(answers_by_parent.get(qid, []), key=lambda p: p.id):
            if a.owner_user_id is None:
                counts["answer_unregistered_owner"] += 1
                continue
            if q.owner_user_id is not None and a.owner_user_id == q.owner_user_id:
                counts["answer_self_authored"] += 1
                continue
            user = users.get(a.owner_user_id)
            if user is None:
                counts["answer_owner_unknown"] += 1
                continue
            kept.append((a, user))
        if not any(a.id == q.accepted_answer_id for a, _ in kept):
            counts["question_accepted_answer_discarded"] += 1
            continue
        if len(kept) < 2:
            counts["question_too_few_answers"] += 1
            continue
        records.append(
            QARecord(
                question=q,
                answers=[
                    AnswerEntry(post=a, user=u, accepted=a.id == q.accepted_answer_id)
                    for a, u in kept
                ],
            )
        )

    report = {
        "questions_seen": len(questions),
        "questions_retained": len(records),
        "answers_retained": sum(len(r.answers) for r in records),
        "accepted_answers": len(records),
        "discards": {k: counts[k] for k in sorted(counts)},
    }
    return records, report


def _int64_or_none(value) -> bool:
    return value is None or is_int(value)


# a dataset.jsonl post: each PostRow field it holds, with the test that
# its JSON value must pass; post_type and creation_ts are written beside them
_ANSWER_FIELDS = {
    "id": is_int,
    "score": is_int,
    "body": lambda value: isinstance(value, str),
    "owner_user_id": is_int,
    "comment_count": is_int,
    "parent_id": is_int,
}
_QUESTION_FIELDS = {
    **_ANSWER_FIELDS,
    "parent_id": _int64_or_none,
    "owner_user_id": _int64_or_none,
    "accepted_answer_id": _int64_or_none,
    "view_count": _int64_or_none,
    "tags": list_of(lambda tag: isinstance(tag, str)),
    "answer_count": _int64_or_none,
}


def _post_to_json(p: PostRow, fields: dict) -> dict:
    obj = {name: getattr(p, name) for name in fields}
    obj["post_type"] = p.post_type
    obj["creation_ts"] = format_timestamp(p.creation_ts)
    return obj


def _post_from_json(obj: dict, post_type: str, fields: dict) -> PostRow | None:
    """The post `_post_to_json` wrote as `obj`, or None unless it has `fields`."""
    if not has_fields(obj, fields):
        return None
    return PostRow(post_type=post_type, creation_ts=parse_timestamp(obj["creation_ts"]),
                   **{name: obj[name] for name in fields})


def write_dataset(records: list[QARecord], path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for rec in records:
            obj = {
                "v": SCHEMA_VERSION,
                "question": _post_to_json(rec.question, _QUESTION_FIELDS),
                "answers": [
                    {
                        **_post_to_json(a.post, _ANSWER_FIELDS),
                        "reputation": a.user.reputation,
                        "user_creation_ts": format_timestamp(a.user.creation_ts),
                        "accepted": a.accepted,
                    }
                    for a in rec.answers
                ],
            }
            fh.write(json.dumps(obj, sort_keys=True, ensure_ascii=False) + "\n")


def read_dataset(path) -> list[QARecord]:
    records = []
    with open(path, "rb") as fh:
        for line_no, line in enumerate(fh, 1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line.decode("utf-8"))
                question = _post_from_json(obj["question"], "question", _QUESTION_FIELDS)
                answers = [
                    AnswerEntry(
                        post=_post_from_json(a, "answer", _ANSWER_FIELDS),
                        user=UserRow(id=a["owner_user_id"], reputation=a["reputation"],
                                     creation_ts=parse_timestamp(a["user_creation_ts"])),
                        accepted=a["accepted"],
                    )
                    for a in obj["answers"]
                ]
                well_typed = (is_this_version(obj["v"])
                              and question is not None
                              and all(a.post is not None and is_int(a.user.reputation)
                                      and isinstance(a.accepted, bool) for a in answers))
            except (AttributeError, KeyError, TypeError, ValueError):
                well_typed = False  # not UTF-8, not JSON, not an object, or a key missing
            if not well_typed:
                raise foreign(f"{path} line {line_no}", "dataset", "ingest")
            records.append(QARecord(question=question, answers=answers))
    return records
