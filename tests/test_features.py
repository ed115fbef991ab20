import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _synth import cosine_similarity, vector_concordance_similarity
from soaccept.errors import DataError, StageError
from soaccept.features import (
    FEATURE_NAMES,
    analyze_records,
    extract_identifiers,
    build_pair_corpus,
    extract_matrix,
    fit_tfidf,
    load_tfidf,
    save_tfidf,
    format_value,
    load_keywords,
    load_polarity_lexicon,
    read_features_csv,
    text_polarity,
    tfidf_vector,
    time_features,
    write_features_csv,
)
from soaccept.ingest import AnswerEntry, PostRow, QARecord, UserRow, parse_timestamp
from soaccept.textprep import raw_tokens

LEXICON = load_polarity_lexicon()
KEYWORDS = load_keywords()


def test_feature_name_order_is_fixed():
    assert FEATURE_NAMES == (
        "Timelag", "URLCount", "CommentCount", "Reputation", "TextPolarity",
        "AnswerCount", "ViewCount", "Score", "NumberOfCodeLine",
        "NumberOfSentence", "TextualSimilarity", "Codelength", "TFAnswerCode",
        "TFAnswerText", "SignUpDateTimeLag", "NumberOfWords",
    )


def test_idf_values_on_two_doc_corpus():
    model = fit_tfidf([["cat", "dog"], ["cat"]])
    assert model.idf(model.vocabulary["cat"]) == 0.0
    assert model.idf(model.vocabulary["dog"]) == pytest.approx(math.log(2), abs=1e-12)


def test_single_document_corpus_all_weights_zero():
    model = fit_tfidf([["cat", "dog", "dog"]])
    vec = tfidf_vector(model, ["cat", "dog"])
    assert all(w == 0.0 for w in vec.values())


def test_empty_corpus_rejected():
    with pytest.raises(DataError, match="empty corpus"):
        fit_tfidf([])


def test_weight_formula_on_two_doc_corpus():
    model = fit_tfidf([["cat", "dog"], ["cat"]])
    vec = tfidf_vector(model, ["dog"])
    assert vec[model.vocabulary["dog"]] == pytest.approx(math.log(2), abs=1e-12)


def test_maxtf_counts_unknown_terms():
    model = fit_tfidf([["cat", "dog"], ["cat"]])
    doc = ["dog"] + ["zzz"] * 5
    vec = tfidf_vector(model, doc)
    # nf = 0.5 + 0.5 * 1/5 over the doc's own maximum count
    assert vec[model.vocabulary["dog"]] == pytest.approx(0.6 * math.log(2), abs=1e-12)
    assert len(vec) == 1


def test_empty_document_zero_vector():
    model = fit_tfidf([["cat"]])
    assert tfidf_vector(model, []) == {}


def test_cosine_identity_orthogonal_mixed():
    assert cosine_similarity({0: 2.0, 1: 1.0}, {0: 2.0, 1: 1.0}) == pytest.approx(1.0)
    assert cosine_similarity({0: 1.0}, {1: 1.0}) == 0.0
    assert cosine_similarity({0: 1.0, 2: 1.0}, {0: 1.0, 1: 1.0}) == pytest.approx(0.5, abs=1e-12)


def test_cosine_zero_norm_convention():
    assert cosine_similarity({}, {0: 1.0}) == 0.0
    assert cosine_similarity({0: 1.0}, {}) == 0.0


@settings(max_examples=80, deadline=None)
@given(
    st.lists(
        st.lists(st.sampled_from(["a", "b", "c", "d", "e"]), min_size=0, max_size=8),
        min_size=1,
        max_size=5,
    ),
    st.lists(st.sampled_from(["a", "b", "c", "d", "e", "zz"]), min_size=1, max_size=8),
)
def test_weights_match_bruteforce_eq(corpus, doc):
    model = fit_tfidf(corpus)
    vec = tfidf_vector(model, doc)
    # independent naive evaluation of the weighting formula
    n = len(corpus)
    counts = {}
    for t in doc:
        counts[t] = counts.get(t, 0) + 1
    maxtf = max(counts.values())
    expected = {}
    for t, tf in counts.items():
        df = sum(1 for d in corpus if t in d)
        if df == 0:
            continue
        expected[model.vocabulary[t]] = (0.5 + 0.5 * tf / maxtf) * math.log(n / df)
    assert set(vec) == set(expected)
    for k in expected:
        assert vec[k] == pytest.approx(expected[k], abs=1e-9)


def concordance(question_text, answer_text):
    return vector_concordance_similarity(raw_tokens(question_text), raw_tokens(answer_text))


def polarity(text):
    return text_polarity(raw_tokens(text), LEXICON)


def test_concordance_examples():
    assert concordance("same words here", "same words here") == pytest.approx(1.0)
    assert concordance("alpha beta", "gamma delta") == 0.0
    assert concordance("cat dog", "cat cat") == pytest.approx(
        2 / (math.sqrt(2) * 2), abs=1e-12
    )


@given(st.integers(1, 6))
def test_concordance_scale_invariance(k):
    base = concordance("cat dog dog", "cat bird")
    scaled = concordance(" ".join(["cat dog dog"] * k), "cat bird")
    assert scaled == pytest.approx(base, abs=1e-12)


def test_polarity_lexicon_and_negation():
    assert LEXICON["good"] == pytest.approx(0.7)
    assert polarity("good") == pytest.approx(0.7)
    assert polarity("not good") == pytest.approx(-0.7)
    assert polarity("") == 0.0
    assert polarity("the compiler reads files") == 0.0


def test_polarity_is_mean_of_matches():
    assert polarity("good but wrong") == pytest.approx((0.7 - 0.6) / 2)


def test_polarity_contraction_negator():
    # "doesn't work nicely" tokenizes to [doesn, t, work, nicely]
    assert polarity("it works") == pytest.approx(0.6)
    assert polarity("doesn't works") == pytest.approx(-0.6)


def test_identifier_extraction():
    ids = extract_identifiers("int x = y + 2;", KEYWORDS)
    assert ids == ["x", "y"]
    assert extract_identifiers("for (let i = 0; i < n; i++)", KEYWORDS) == ["i", "i", "n", "i"]


TS_Q = parse_timestamp("2014-03-01T10:00:00.000")


def _user(uid, signup="2012-06-01T00:00:00.000", rep=500):
    return UserRow(id=uid, reputation=rep, creation_ts=parse_timestamp(signup))


def _post(pid, post_type, ts_ms, **kw):
    return PostRow(id=pid, post_type=post_type, creation_ts=ts_ms, **kw)


def test_time_features_conversion():
    q = _post(1, "question", TS_Q)
    a = _post(2, "answer", TS_Q + 3_600_000, parent_id=1)
    u = _user(9)
    timelag, signup = time_features(q, a, u)
    assert timelag == 3_600_000
    assert signup == a.creation_ts - u.creation_ts


def test_time_features_simultaneous():
    q = _post(1, "question", TS_Q)
    a = _post(2, "answer", TS_Q, parent_id=1)
    assert time_features(q, a, _user(9))[0] == 0


def _record(qid=1, n_answers=2, accepted_index=0, q_body="<p>How do I sort an array in java?</p>"):
    q = _post(
        qid, "question", TS_Q + qid,
        body=q_body, owner_user_id=10, view_count=120,
        accepted_answer_id=qid * 100 + accepted_index, tags=["java"],
    )
    answers = []
    for i in range(n_answers):
        body = (
            f"<p>Answer {i} talks about sorting an array nicely.</p>"
            f"<code>int v{i} = arr[{i}];</code>"
        )
        post = _post(
            qid * 100 + i, "answer", TS_Q + qid + 60_000 * (i + 1),
            body=body, parent_id=qid, owner_user_id=20 + i, score=i, comment_count=i,
        )
        answers.append(AnswerEntry(post=post, user=_user(20 + i, rep=100 * (i + 1)), accepted=i == accepted_index))
    return QARecord(question=q, answers=answers)


def extract(records):
    analyzed = analyze_records(records)
    return extract_matrix(analyzed, fit_tfidf(build_pair_corpus(analyzed)))


def answer_row(body):
    """Feature row of one answer with `body`, as a name -> value map."""
    rec = _record(1, 2)
    rec.answers[0].post.body = body
    m = extract([rec])
    return dict(zip(m.names, m.x[0]))


def test_count_features_code_and_urls():
    row = answer_row(
        "<p>see http://a.b and https://c.d for more. Second sentence.</p>"
        "<code>int x = y + 2;\n\nz = x;</code>"
    )
    assert row["URLCount"] == 2
    assert row["NumberOfCodeLine"] == 2
    assert row["Codelength"] == 4  # x, y, z, x; "int" is a keyword
    assert row["NumberOfSentence"] == 2


def test_count_features_no_code():
    row = answer_row("<p>plain simple words</p>")
    assert row["NumberOfCodeLine"] == 0
    assert row["Codelength"] == 0
    assert row["NumberOfWords"] == 3


def test_number_of_words_excludes_stop_words():
    assert answer_row("the quick brown fox")["NumberOfWords"] == 3


def test_extract_matrix_shape_and_labels():
    m = extract([_record(1, 2), _record(2, 3, accepted_index=1)])
    assert m.x.shape == (5, 16)
    assert m.y.tolist() == [1, 0, 0, 1, 0]
    assert m.names == FEATURE_NAMES
    # exactly one accepted row per question
    for qid in (1, 2):
        mask = m.question_ids == qid
        assert int(m.y[mask].sum()) == 1


def test_extract_matrix_empty():
    m = extract_matrix([], fit_tfidf([["cat"]]))
    assert m.x.shape == (0, 16)


def test_extract_matrix_row_values():
    m = extract([_record(1, 2)])
    names = list(m.names)
    row0 = dict(zip(names, m.x[0]))
    assert row0["Timelag"] == 60_000.0
    assert row0["AnswerCount"] == 2.0
    assert row0["ViewCount"] == 120.0
    assert row0["Score"] == 0.0
    assert row0["CommentCount"] == 0.0
    assert row0["Reputation"] == 100.0
    assert row0["NumberOfCodeLine"] == 1.0
    assert row0["Codelength"] == 2.0  # v0 and arr; "int" is a keyword, "0" no identifier
    assert 0.0 <= row0["TextualSimilarity"] <= 1.0
    assert 0.0 <= row0["TFAnswerText"] <= 1.0
    assert 0.0 <= row0["TFAnswerCode"] <= 1.0


def test_extract_matrix_order_insensitive():
    records = [_record(3, 2), _record(1, 3), _record(2, 2)]
    base = extract(records)
    flipped = extract(records[::-1])
    assert base.names == flipped.names
    for name in ("x", "y", "question_ids", "answer_ids"):
        assert np.array_equal(getattr(base, name), getattr(flipped, name)), name
    assert base.question_ids.tolist() == sorted(base.question_ids.tolist())


def test_extract_matrix_drops_clock_anomaly_rows():
    rec = _record(1, 3)
    rec.answers[2].post.creation_ts = rec.question.creation_ts - 5
    m = extract([rec])
    assert m.x.shape[0] == 2
    assert m.stats["rows_dropped_negative_timelag"] == 1


def test_extract_matrix_flags_negative_signup_lag():
    rec = _record(1, 2)
    rec.answers[1].user.creation_ts = rec.answers[1].post.creation_ts + 10
    m = extract([rec])
    assert m.x.shape[0] == 2
    assert m.stats["rows_negative_signup_lag"] == 1
    row = dict(zip(m.names, m.x[1]))
    assert row["SignUpDateTimeLag"] == -10.0


def test_similarity_features_always_in_unit_interval():
    records = [_record(i, 2 + i % 3) for i in range(1, 6)]
    m = extract(records)
    for name in ("TextualSimilarity", "TFAnswerCode", "TFAnswerText"):
        col = m.x[:, list(m.names).index(name)]
        assert np.all(col >= 0.0) and np.all(col <= 1.0)


def test_format_value():
    assert format_value(3600000.0) == "3600000"
    assert format_value(0.5) == "0.5"
    assert format_value(1 / 3) == "0.333333333"
    assert format_value(12345678901.0) == "12345678901"


def test_features_csv_round_trip(tmp_path):
    m = extract([_record(1, 2), _record(2, 2)])
    path = tmp_path / "features.csv"
    write_features_csv(m, path)
    header = path.read_text().splitlines()[0]
    assert header == ",".join(FEATURE_NAMES) + ",label"
    back = read_features_csv(path)
    assert back.y.tolist() == m.y.tolist()
    # 9 significant digits survive the trip
    assert np.allclose(back.x, m.x, rtol=1e-8, atol=1e-12)

    again = tmp_path / "again.csv"
    write_features_csv(m, again)
    assert path.read_bytes() == again.read_bytes()


def test_tfidf_round_trip_preserves_weights(tmp_path):
    corpus = [["cat", "dog"], ["cat", "cat", "fish"], ["bird"]]
    model = fit_tfidf(corpus)
    path = tmp_path / "tfidf.json"
    save_tfidf(model, path)
    loaded = load_tfidf(path)
    assert loaded.vocabulary == model.vocabulary
    assert loaded.n_docs == model.n_docs
    assert tfidf_vector(loaded, ["cat", "fish"]) == tfidf_vector(model, ["cat", "fish"])
    first = path.read_bytes()
    save_tfidf(loaded, path)
    assert path.read_bytes() == first


@pytest.mark.parametrize("old, new", [('"schema_version":1', '"schema_version":7'),
                                      ('"kind":"tfidf"', '"kind":"mlp"')])
def test_tfidf_schema_checks(tmp_path, old, new):
    path = tmp_path / "tfidf.json"
    save_tfidf(fit_tfidf([["cat", "dog"], ["bird"]]), path)
    text = path.read_text("utf-8")
    assert old in text
    path.write_text(text.replace(old, new), encoding="utf-8")
    with pytest.raises(StageError, match="not a tfidf artifact; run features first"):
        load_tfidf(path)


def _echo_record(qid, q_topic, echo, other):
    q = _post(qid, "question", TS_Q + qid, body=f"<p>How to {q_topic} quickly?</p>",
              owner_user_id=10, view_count=5, accepted_answer_id=qid * 100, tags=["java"])
    answers = []
    for i, text in enumerate((echo, other)):
        post = _post(qid * 100 + i, "answer", TS_Q + qid + 60_000 * (i + 1),
                     body=f"<p>{text}</p>", parent_id=qid, owner_user_id=20 + i)
        answers.append(AnswerEntry(post=post, user=_user(20 + i), accepted=i == 0))
    return QARecord(question=q, answers=answers)


def test_extract_matrix_accepts_prefit_model():
    # the accepted answers echo rare question terms, so idf stays positive
    records = [
        _echo_record(1, "parse dates", "Parse dates with pattern tokens.",
                     "Use a clock widget."),
        _echo_record(2, "shrink images", "Shrink images from the edges.",
                     "Buy more disk space."),
    ]
    analyzed = analyze_records(records)
    corpus = build_pair_corpus(analyzed)
    assert len(corpus) == 4
    fresh = extract_matrix(analyzed, fit_tfidf(corpus))
    # a model from a different corpus shifts the similarity columns only
    other = fit_tfidf([["unrelated", "terms"]])
    shifted = extract_matrix(analyzed, other)
    text_col = FEATURE_NAMES.index("TFAnswerText")
    keep = [i for i in range(16) if i != text_col]
    assert np.array_equal(fresh.x[:, keep], shifted.x[:, keep])
    assert fresh.x[0, text_col] > 0.0
    assert not np.array_equal(fresh.x[:, text_col], shifted.x[:, text_col])
