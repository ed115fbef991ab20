import calendar
import io
import json
import random
import tracemalloc
from datetime import datetime, timedelta, timezone
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from soaccept.errors import StageError
from soaccept.ingest import (
    DecodeError,
    IngestFilter,
    ParseError,
    PostRow,
    UserRow,
    build_dataset,
    decode_post,
    decode_user,
    format_timestamp,
    parse_tags,
    parse_timestamp,
    read_dataset,
    stream_rows,
    write_dataset,
)

TS = "2014-03-01T10:00:00.000"


def test_stream_single_row():
    rows = list(stream_rows(io.BytesIO(b'<rows><row Id="1" Score="3"/></rows>')))
    assert rows == [{"Id": "1", "Score": "3"}]


def test_stream_empty_root():
    assert list(stream_rows(io.BytesIO(b"<rows></rows>"))) == []


def test_stream_skips_non_row_elements():
    xml = b'<rows><meta x="1"/><row Id="7"/></rows>'
    assert list(stream_rows(io.BytesIO(xml))) == [{"Id": "7"}]


def test_stream_truncated_file_reports_last_complete_row():
    full = b'<rows><row Id="1"/><row Id="2"/><row Id="3" Sco'
    with pytest.raises(ParseError) as err:
        list(stream_rows(io.BytesIO(full)))
    assert err.value.last_row_byte is not None
    # the second row closes before the cut
    assert err.value.last_row_byte <= full.index(b'<row Id="3"')


def test_stream_malformed_has_byte_offset():
    with pytest.raises(ParseError) as err:
        list(stream_rows(io.BytesIO(b"<rows><row Id='1'/><oops</rows>")))
    assert err.value.error_byte >= 0


def test_malformed_message_names_both_byte_offsets():
    # the bundled posts dump cut mid-row, as a truncated download leaves it
    cut = (Path(__file__).parent / "fixtures" / "Posts.xml").read_bytes()[:3000]
    with pytest.raises(ParseError) as err:
        list(stream_rows(io.BytesIO(cut)))
    assert (err.value.error_byte, err.value.last_row_byte) == (2973, 2970)
    assert str(err.value) == ("malformed dump XML: unclosed token: line 11, column 2"
                              " (error at byte 2973, last complete row at byte 2970)")


def test_stream_memory_stays_bounded():
    row = b'<row Id="%d" Body="abcdefghij"/>'

    class Synth(io.RawIOBase):
        # synthesizes a large document without materializing it
        def __init__(self, n):
            def gen():
                yield b"<rows>"
                for i in range(n):
                    yield row % i
                yield b"</rows>"

            self.chunks = gen()
            self.buf = b""

        def read(self, size=-1):
            while len(self.buf) < size:
                nxt = next(self.chunks, None)
                if nxt is None:
                    break
                self.buf += nxt
            out, self.buf = self.buf[:size], self.buf[size:]
            return out

    n = 0
    tracemalloc.start()
    for _ in stream_rows(Synth(300_000)):
        n += 1
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert n == 300_000
    assert peak < 8 * 1024 * 1024


def test_decode_question():
    row = decode_post({"Id": "5", "PostTypeId": "1", "CreationDate": TS, "Tags": "<java>"})
    assert row.post_type == "question"
    assert row.tags == ["java"]
    assert row.id == 5


def test_decode_answer():
    row = decode_post({"Id": "6", "PostTypeId": "2", "ParentId": "5", "CreationDate": TS})
    assert row.post_type == "answer"
    assert row.parent_id == 5


def test_decode_missing_creation_date():
    with pytest.raises(DecodeError) as err:
        decode_post({"Id": "7", "PostTypeId": "1"})
    assert err.value.attribute == "CreationDate"


def test_decode_answer_without_parent():
    with pytest.raises(DecodeError) as err:
        decode_post({"Id": "6", "PostTypeId": "2", "CreationDate": TS})
    assert err.value.attribute == "ParentId"


def test_decode_bad_integer_names_attribute():
    with pytest.raises(DecodeError) as err:
        decode_post({"Id": "x", "PostTypeId": "1", "CreationDate": TS})
    assert err.value.attribute == "Id"


@pytest.mark.parametrize("value, fits", [
    (2**63 - 1, True), (-(2**63), True), (2**63, False), (-(2**63) - 1, False),
])
def test_decode_integer_holds_to_int64(value, fits):
    attrs = {"Id": "6", "PostTypeId": "2", "ParentId": "5", "CreationDate": TS,
             "Score": str(value)}
    if fits:
        assert decode_post(attrs).score == value
    else:
        with pytest.raises(DecodeError, match="outside the signed 64-bit range") as err:
            decode_post(attrs)
        assert err.value.attribute == "Score"


def test_decode_user():
    u = decode_user({"Id": "9", "Reputation": "1500", "CreationDate": "2012-01-01T00:00:00.000"})
    assert u == UserRow(id=9, reputation=1500, creation_ts=parse_timestamp("2012-01-01T00:00:00"))


def test_decode_user_negative_reputation():
    with pytest.raises(DecodeError) as err:
        decode_user({"Id": "9", "Reputation": "-1", "CreationDate": TS})
    assert err.value.attribute == "Reputation"


def test_decode_user_missing_id():
    with pytest.raises(DecodeError) as err:
        decode_user({"Reputation": "10", "CreationDate": TS})
    assert err.value.attribute == "Id"


def test_parse_tags_formats():
    assert parse_tags("<java><arrays>") == ["java", "arrays"]
    assert parse_tags("|java|arrays|") == ["java", "arrays"]
    assert parse_tags("") == []
    assert parse_tags("<JavaScript>") == ["javascript"]


def _timegm_millis(text):
    """The calendar-based formula `parse_timestamp` must reproduce."""
    s = text.strip()
    if s.endswith("Z"):
        s = s[:-1]
    elif s.endswith("+00:00"):
        s = s[:-6]
    dt = datetime.fromisoformat(s)
    if dt.tzinfo is not None:
        dt = dt.astimezone(timezone.utc).replace(tzinfo=None)
    return calendar.timegm(dt.timetuple()) * 1000 + dt.microsecond // 1000


@pytest.mark.parametrize("text", [
    "1969-12-31T23:59:59.999",
    "1969-12-31T23:59:59.9995",
    "1960-06-15T10:10:10.001",
    "1900-01-01T00:00:00.500",
    "2012-02-29T23:59:59.999",
    "2016-02-29T00:00:00",
    "2014-03-01T10:00:00.123Z",
    "2014-03-01T10:00:00.123+00:00",
    "2014-03-01T10:00:00.123+02:00",
    "1970-01-01T01:00:00.000001+02:00",
    "2014-03-01T10:00:00.123456",
    "2014-03-01T10:00:00.999999",
    "0001-01-01T00:00:00",
    "0001-01-01T00:00:00.000999",
    " 2008-07-31T21:42:52.667 ",
])
def test_timestamp_matches_calendar_formula(text):
    assert parse_timestamp(text) == _timegm_millis(text)


@settings(max_examples=300, deadline=None)
@given(st.datetimes(min_value=datetime(2, 1, 1), max_value=datetime(9998, 12, 31)),
       st.sampled_from(["", "Z", "+00:00", "+02:00", "-05:30"]))
def test_timestamp_matches_calendar_formula_anywhere(dt, suffix):
    text = dt.isoformat() + suffix
    assert parse_timestamp(text) == _timegm_millis(text)


def test_timestamp_round_trip_millisecond_exact():
    ms = parse_timestamp("2014-03-01T10:00:00.123")
    assert format_timestamp(ms) == "2014-03-01T10:00:00.123Z"
    assert parse_timestamp(format_timestamp(ms)) == ms


@pytest.mark.parametrize(
    "text", ["0001-01-01T00:00:00.000Z", "0999-01-15T14:33:54.735Z", "9999-12-31T23:59:59.999Z"]
)
def test_timestamp_round_trip_pads_the_year(text):
    ms = parse_timestamp(text)
    assert format_timestamp(ms) == text
    assert parse_timestamp(format_timestamp(ms)) == ms


FILTER = IngestFilter(tags_any_of=frozenset({"java", "javascript"}), year_range=(2013, 2015))


def _question(qid, owner=100, accepted=None, tags=("java",), ts=TS, **kw):
    return PostRow(
        id=qid,
        post_type="question",
        creation_ts=parse_timestamp(ts),
        owner_user_id=owner,
        accepted_answer_id=accepted,
        tags=list(tags),
        **kw,
    )


def _answer(aid, parent, owner, ts="2014-03-01T11:00:00.000"):
    return PostRow(
        id=aid,
        post_type="answer",
        creation_ts=parse_timestamp(ts),
        parent_id=parent,
        owner_user_id=owner,
    )


def _users(*ids):
    return {
        i: UserRow(id=i, reputation=10 * i, creation_ts=parse_timestamp("2010-01-01T00:00:00"))
        for i in ids
    }


def test_build_keeps_valid_question():
    posts = [
        _question(1, accepted=11),
        _answer(11, 1, 201),
        _answer(12, 1, 202),
        _answer(13, 1, 203),
    ]
    records, report = build_dataset(posts, _users(201, 202, 203), FILTER)
    assert len(records) == 1
    rec = records[0]
    assert len(rec.answers) == 3
    assert [a.accepted for a in rec.answers] == [True, False, False]
    assert report["questions_retained"] == 1


def test_build_drops_self_accepted_question():
    posts = [
        _question(1, owner=100, accepted=11),
        _answer(11, 1, 100),  # accepted answer by the question owner
        _answer(12, 1, 202),
        _answer(13, 1, 203),
    ]
    records, report = build_dataset(posts, _users(100, 202, 203), FILTER)
    assert records == []
    assert report["discards"]["answer_self_authored"] == 1
    assert report["discards"]["question_accepted_answer_discarded"] == 1


def test_build_unregistered_answerer_drops_below_minimum():
    posts = [
        _question(1, accepted=11),
        _answer(11, 1, 201),
        _answer(12, 1, None),  # unregistered owner
    ]
    records, report = build_dataset(posts, _users(201), FILTER)
    assert records == []
    assert report["discards"]["answer_unregistered_owner"] == 1
    assert report["discards"]["question_too_few_answers"] == 1


def test_build_filters_by_tag_and_year():
    posts = [
        _question(1, accepted=11, tags=("python",)),
        _answer(11, 1, 201),
        _answer(12, 1, 202),
        _question(2, accepted=21, ts="2011-05-01T00:00:00.000"),
        _answer(21, 2, 201),
        _answer(22, 2, 202),
    ]
    records, report = build_dataset(posts, _users(201, 202), FILTER)
    assert records == []
    assert report["discards"]["question_tag_mismatch"] == 1
    assert report["discards"]["question_year_out_of_range"] == 1


def test_build_order_insensitive():
    posts = [
        _question(2, accepted=22),
        _question(1, accepted=11),
        _answer(11, 1, 201),
        _answer(12, 1, 202),
        _answer(22, 2, 203),
        _answer(21, 2, 204),
    ]
    users = _users(201, 202, 203, 204)
    base, _ = build_dataset(posts, users, FILTER)
    assert [r.question.id for r in base] == [1, 2]
    for seed in range(5):
        shuffled = posts[:]
        random.Random(seed).shuffle(shuffled)
        got, _ = build_dataset(shuffled, users, FILTER)
        assert got == base


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_build_output_always_satisfies_record_invariants(data):
    n_q = data.draw(st.integers(1, 4))
    posts = []
    next_aid = 1000
    for qid in range(1, n_q + 1):
        owner = data.draw(st.integers(100, 104))
        n_a = data.draw(st.integers(0, 4))
        aids = []
        for _ in range(n_a):
            next_aid += 1
            aids.append(next_aid)
            a_owner = data.draw(st.one_of(st.none(), st.integers(100, 104)))
            posts.append(_answer(next_aid, qid, a_owner))
        accepted = data.draw(st.one_of(st.none(), st.sampled_from(aids) if aids else st.none()))
        tags = data.draw(st.sampled_from([("java",), ("python",), ("java", "arrays")]))
        posts.append(_question(qid, owner=owner, accepted=accepted, tags=tags))
    users = _users(*range(100, 103))  # some owners are deliberately unknown
    records, report = build_dataset(posts, users, FILTER)
    for rec in records:
        assert len(rec.answers) >= 2
        assert sum(a.accepted for a in rec.answers) == 1
        for a in rec.answers:
            assert a.post.parent_id == rec.question.id
            assert a.post.owner_user_id is not None
            assert a.post.owner_user_id != rec.question.owner_user_id
            assert a.user.id == a.post.owner_user_id
    assert report["questions_retained"] == len(records)


def test_dataset_round_trip(tmp_path):
    posts = [
        _question(1, accepted=11, view_count=55, answer_count=2, score=4),
        _answer(11, 1, 201),
        _answer(12, 1, 202),
    ]
    records, _ = build_dataset(posts, _users(201, 202), FILTER)
    path = tmp_path / "dataset.jsonl"
    write_dataset(records, path)
    assert read_dataset(path) == records

    again = tmp_path / "again.jsonl"
    write_dataset(records, again)
    assert path.read_bytes() == again.read_bytes()


def test_dataset_empty_round_trip(tmp_path):
    path = tmp_path / "dataset.jsonl"
    write_dataset([], path)
    assert path.read_text() == ""
    assert read_dataset(path) == []


def test_dataset_schema_fields(tmp_path):
    posts = [_question(1, accepted=11), _answer(11, 1, 201), _answer(12, 1, 202)]
    records, _ = build_dataset(posts, _users(201, 202), FILTER)
    path = tmp_path / "dataset.jsonl"
    write_dataset(records, path)
    obj = json.loads(path.read_text().splitlines()[0])
    assert obj["v"] == 1
    assert set(obj) == {"v", "question", "answers"}
    q = obj["question"]
    assert set(q) == {
        "id", "post_type", "parent_id", "accepted_answer_id", "creation_ts",
        "score", "view_count", "body", "owner_user_id", "tags", "answer_count",
        "comment_count",
    }
    a = obj["answers"][0]
    assert set(a) == {
        "id", "post_type", "parent_id", "creation_ts", "score", "body",
        "owner_user_id", "comment_count", "reputation", "user_creation_ts",
        "accepted",
    }
    assert a["creation_ts"].endswith("Z")


def test_dataset_version_mismatch(tmp_path):
    path = tmp_path / "dataset.jsonl"
    path.write_text('{"v": 99, "question": {}, "answers": []}\n')
    with pytest.raises(StageError, match="line 1 is not a dataset artifact; run ingest first"):
        read_dataset(path)
