"""The 16 per-answer features and the tf-idf machinery behind them.

Every post of a run is analyzed once (`analyze_records`): split into
prose and code, tokenized, stemmed, and its code identifiers listed.  The
pair corpus, the tf-idf fit and every feature read that analysis.

A tf-idf "document" is one question-answer pair: the normalized prose
tokens of both posts plus the identifier tokens of both posts' code.
Document frequencies therefore count Q&A pairs, and N is the number of
answers in the run.  Weights follow w = nf * idf with
nf = 0.5 + 0.5 * tf / maxtf (maxtf over the document's own term set) and
idf = ln(N / df).
"""

from __future__ import annotations

import csv
import math
import re
from collections import Counter
from dataclasses import dataclass, field
from importlib import resources

import numpy as np

from .codec import foreign, is_int, read_artifact, write_json
from .errors import DataError
from .ingest import PostRow, QARecord, UserRow
from .textprep import (
    AnswerParts,
    count_code_lines,
    load_stopwords,
    raw_tokens,
    remove_stop_words,
    split_code_blocks,
    split_sentences,
    tokenize,
)

FEATURE_NAMES = (
    "Timelag",
    "URLCount",
    "CommentCount",
    "Reputation",
    "TextPolarity",
    "AnswerCount",
    "ViewCount",
    "Score",
    "NumberOfCodeLine",
    "NumberOfSentence",
    "TextualSimilarity",
    "Codelength",
    "TFAnswerCode",
    "TFAnswerText",
    "SignUpDateTimeLag",
    "NumberOfWords",
)

LABELS = ("unaccepted", "accepted")  # features.csv's label cell, by class

_URL_RE = re.compile(r"https?://")
_IDENTIFIER_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")

# tokens that flip the sign of the next lexicon word; "t" is the tail of
# split contractions (doesn't -> doesn, t)
NEGATORS = frozenset({"not", "no", "never", "none", "neither", "nor", "cannot", "t"})


@dataclass
class TfIdfModel:
    vocabulary: dict[str, int]  # term -> dense index 0..|V|-1
    df: np.ndarray  # per-term document frequency
    n_docs: int
    # index -> idf, filled on first use, so `rank` pays only for its terms
    _idf: dict[int, float] = field(default_factory=dict, init=False, repr=False, compare=False)

    def idf(self, index: int) -> float:
        try:
            return self._idf[index]
        except KeyError:
            value = self._idf[index] = math.log(self.n_docs / self.df[index])
            return value


def fit_tfidf(corpus: list[list[str]]) -> TfIdfModel:
    """Fit vocabulary and document frequencies over token documents."""
    if not corpus:
        raise DataError("empty corpus")
    df_counter: Counter = Counter()
    for doc in corpus:
        df_counter.update(set(doc))
    terms = sorted(df_counter)
    vocabulary = {t: i for i, t in enumerate(terms)}
    df = np.array([df_counter[t] for t in terms], dtype=np.int64)
    return TfIdfModel(vocabulary=vocabulary, df=df, n_docs=len(corpus))


def save_tfidf(model: TfIdfModel, path) -> None:
    terms = sorted(model.vocabulary, key=model.vocabulary.get)
    payload = {"terms": terms, "df": model.df.tolist(), "n_docs": model.n_docs}
    write_json(path, payload, kind="tfidf", compact=True)


def load_tfidf(path) -> TfIdfModel:
    """The model saved at `path`; exit 4 unless its `terms` are strings,
    `df` holds one positive count per term and `n_docs` is positive."""
    payload = read_artifact(path, "tfidf", "features")
    terms, df, n_docs = (payload.get(k) for k in ("terms", "df", "n_docs"))
    if not (isinstance(terms, list) and all(isinstance(t, str) for t in terms)
            and isinstance(df, list) and len(df) == len(terms)
            and all(is_int(n) and n > 0 for n in df) and is_int(n_docs) and n_docs > 0):
        raise foreign(path, "tfidf", "features")
    return TfIdfModel(
        vocabulary={t: i for i, t in enumerate(terms)},
        df=np.asarray(df, dtype=np.int64),
        n_docs=n_docs,
    )


def tfidf_vector(model: TfIdfModel, doc: list[str]) -> dict[int, float]:
    """Sparse Eq-style weight vector for one document.

    maxtf is the maximum raw count over the document's own terms, known
    or not; terms outside the vocabulary contribute no output entry.
    """
    if not doc:
        return {}
    counts = Counter(doc)
    maxtf = max(counts.values())
    vocabulary, idf = model.vocabulary, model.idf
    out: dict[int, float] = {}
    for term, tf in counts.items():
        idx = vocabulary.get(term)
        if idx is None:
            continue
        nf = 0.5 + 0.5 * tf / maxtf
        out[idx] = nf * idf(idx)
    return out


def _norm(vec: dict) -> float:
    return math.sqrt(sum(vec[k] * vec[k] for k in sorted(vec)))


def _cosine(q: dict, norm_q: float, a: dict) -> float:
    """Cosine of sparse vectors `q`, whose norm is given, and `a`; every
    sum runs in sorted-key order."""
    norm_a = _norm(a)
    if norm_q == 0.0 or norm_a == 0.0:
        return 0.0
    dot = sum(q[k] * a[k] for k in sorted(q.keys() & a.keys()))
    return dot / (norm_q * norm_a)


def cosine_similarity(q: dict[int, float], a: dict[int, float]) -> float:
    """Cosine of two sparse vectors (index -> weight); 0.0 when either
    has zero norm."""
    return _cosine(q, _norm(q), a)


def vector_concordance_similarity(question_tokens, answer_tokens) -> float:
    """Cosine of raw word-count vectors over the pair's union vocabulary;
    sorted words run in the order of indices into that vocabulary."""
    q_counts = Counter(question_tokens)
    return _cosine(q_counts, _norm(q_counts), Counter(answer_tokens))


def load_polarity_lexicon() -> dict[str, float]:
    text = resources.files("soaccept.data").joinpath("polarity_lexicon.tsv").read_text("utf-8")
    lexicon = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        word, valence = line.split("\t")
        lexicon[word] = float(valence)
    return lexicon


def text_polarity(tokens: list[str], lexicon: dict[str, float]) -> float:
    """Mean signed valence of matched lexicon words over raw prose
    tokens; a negator flips the sign of the next word."""
    total = 0.0
    matched = 0
    for i, tok in enumerate(tokens):
        valence = lexicon.get(tok)
        if valence is None:
            continue
        if i > 0 and tokens[i - 1] in NEGATORS:
            valence = -valence
        total += valence
        matched += 1
    return total / matched if matched else 0.0


def load_keywords() -> frozenset[str]:
    words = set()
    for name in ("keywords_java.txt", "keywords_js.txt"):
        text = resources.files("soaccept.data").joinpath(name).read_text("utf-8")
        words.update(w for w in (line.strip() for line in text.splitlines()) if w)
    return frozenset(words)


def extract_identifiers(code: str, keywords: frozenset[str]) -> list[str]:
    return [t for t in _IDENTIFIER_RE.findall(code) if t not in keywords]


def time_features(question: PostRow, answer: PostRow, user: UserRow) -> tuple[int, int]:
    """(Timelag, SignUpDateTimeLag) in milliseconds; a negative Timelag
    marks an answer that predates its question."""
    return answer.creation_ts - question.creation_ts, answer.creation_ts - user.creation_ts


@dataclass(eq=False)
class FeatureMatrix:
    names: tuple[str, ...]
    x: np.ndarray  # (n_rows, n_features) float64
    y: np.ndarray  # (n_rows,) int8, 1 = accepted
    question_ids: np.ndarray
    answer_ids: np.ndarray
    stats: dict = field(default_factory=dict)


@dataclass
class PostText:
    """One post, analyzed once: its prose split into words once, and the
    words filtered for stop words once, for every text feature."""

    parts: AnswerParts
    raw_tokens: list[str]  # lowercased prose words, numbers dropped
    n_words: int  # raw tokens that are not stop words
    prose_tokens: list[str]  # those tokens stemmed, stop words removed again
    code_ids: list[str]  # lowercased identifier tokens


@dataclass
class AnalyzedRecord:
    record: QARecord  # answers in id order
    question: PostText
    answers: list[PostText]  # parallel to record.answers


def _analyze_post(post: PostRow, stop_list, keywords) -> PostText:
    parts = split_code_blocks(post.body)
    words = raw_tokens(parts.prose_text)
    content = remove_stop_words(words, stop_list)
    return PostText(
        parts=parts,
        raw_tokens=words,
        n_words=len(content),
        prose_tokens=tokenize(content, stop_list),
        code_ids=[
            t.lower()
            for block in parts.code_blocks
            for t in extract_identifiers(block, keywords)
        ],
    )


def analyze_records(records: list[QARecord]) -> list[AnalyzedRecord]:
    """Analyze every post once, in (question id, answer id) order."""
    stop_list = load_stopwords()
    keywords = load_keywords()
    analyzed = []
    for rec in sorted(records, key=lambda r: r.question.id):
        answers = sorted(rec.answers, key=lambda e: e.post.id)
        analyzed.append(
            AnalyzedRecord(
                record=QARecord(question=rec.question, answers=answers),
                question=_analyze_post(rec.question, stop_list, keywords),
                answers=[_analyze_post(e.post, stop_list, keywords) for e in answers],
            )
        )
    return analyzed


def build_pair_corpus(analyzed: list[AnalyzedRecord]) -> list[list[str]]:
    """Token document per Q&A pair: both prose streams plus both
    identifier streams, in (question id, answer id) order."""
    return [
        rec.question.prose_tokens + at.prose_tokens + rec.question.code_ids + at.code_ids
        for rec in analyzed
        for at in rec.answers
    ]


def extract_matrix(analyzed: list[AnalyzedRecord], tfidf_model: TfIdfModel) -> FeatureMatrix:
    """One feature row per answer, ordered by (question id, answer id).

    `tfidf_model` is fitted over the run's pair corpus, or loaded from
    an earlier run to score new candidates.  Answers that predate their
    question (clock anomaly) are dropped and counted in stats.
    """
    lexicon = load_polarity_lexicon()
    rows = []
    labels = []
    qids = []
    aids = []
    stats = {
        "rows_dropped_negative_timelag": 0,
        "rows_negative_signup_lag": 0,
        "unclosed_code_blocks": 0,
    }
    for analysis in analyzed:
        rec, qt = analysis.record, analysis.question
        # TFAnswerCode and TFAnswerText both compare against the question's
        # prose vector, TextualSimilarity against its word counts
        q_vec = tfidf_vector(tfidf_model, qt.prose_tokens)
        q_vec_norm = _norm(q_vec)
        q_counts = Counter(qt.raw_tokens)
        q_counts_norm = _norm(q_counts)
        for entry, at in zip(rec.answers, analysis.answers):
            timelag, signup_lag = time_features(rec.question, entry.post, entry.user)
            if timelag < 0:
                stats["rows_dropped_negative_timelag"] += 1
                continue
            if signup_lag < 0:
                stats["rows_negative_signup_lag"] += 1
            if at.parts.unclosed_code:
                stats["unclosed_code_blocks"] += 1
            prose = at.parts.prose_text
            row = (
                float(timelag),
                float(len(_URL_RE.findall(prose))),
                float(entry.post.comment_count),
                float(entry.user.reputation),
                text_polarity(at.raw_tokens, lexicon),
                float(len(rec.answers)),
                float(rec.question.view_count or 0),
                float(entry.post.score),
                float(count_code_lines(at.parts.code_blocks)),
                float(len(split_sentences(prose))),
                _cosine(q_counts, q_counts_norm, Counter(at.raw_tokens)),
                float(len(at.code_ids)),
                _cosine(q_vec, q_vec_norm, tfidf_vector(tfidf_model, at.code_ids)),
                _cosine(q_vec, q_vec_norm, tfidf_vector(tfidf_model, at.prose_tokens)),
                float(signup_lag),
                float(at.n_words),
            )
            rows.append(row)
            labels.append(1 if entry.accepted else 0)
            qids.append(rec.question.id)
            aids.append(entry.post.id)

    n = len(rows)
    return FeatureMatrix(
        names=FEATURE_NAMES,
        x=np.array(rows, dtype=np.float64).reshape(n, len(FEATURE_NAMES)),
        y=np.array(labels, dtype=np.int8),
        question_ids=np.array(qids, dtype=np.int64),
        answer_ids=np.array(aids, dtype=np.int64),
        stats=stats,
    )


def format_value(v: float) -> str:
    """Integral values print as integers, others with 9 significant digits."""
    if float(v).is_integer() and abs(v) < 2**53:
        return str(int(v))
    return f"{v:.9g}"


def write_features_csv(matrix: FeatureMatrix, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(list(matrix.names) + ["label"])
        for row, label in zip(matrix.x, matrix.y):
            writer.writerow([format_value(v) for v in row] + [LABELS[label]])


def read_features_csv(path) -> FeatureMatrix:
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        if tuple(header[:-1]) != FEATURE_NAMES or header[-1] != "label":
            raise foreign(path, "features", "features")
        rows, labels = [], []
        for rec in reader:
            try:
                row = [float(v) for v in rec[:-1]]
            except ValueError:  # a cell that is not a number
                row = []
            if len(row) != len(FEATURE_NAMES) or rec[-1] not in LABELS:
                raise foreign(f"{path} line {reader.line_num}", "features", "features")
            rows.append(row)
            labels.append(LABELS.index(rec[-1]))
    n = len(rows)
    return FeatureMatrix(
        names=FEATURE_NAMES,
        x=np.array(rows, dtype=np.float64).reshape(n, len(FEATURE_NAMES)),
        y=np.array(labels, dtype=np.int8),
        question_ids=np.zeros(n, dtype=np.int64),
        answer_ids=np.zeros(n, dtype=np.int64),
    )
