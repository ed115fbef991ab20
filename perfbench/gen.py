"""Seeded Stack Exchange dump generator for the benchmark.

`generate(spec, seed)` builds a `Posts.xml`/`Users.xml` pair with the
distribution of the bundled fixture generator (`scripts/make_fixture.py`):
retained java/javascript questions from 2014..2016, each with one accepted
answer that carries a planted advantage (sooner, higher score and
reputation, more overlap with the question, more code), plus decoy rows
for every ingest discard rule, two kinds of clock anomaly and non-Q&A
rows.  Three parameters scale it:

- ``n_questions``: retained questions;
- ``offtopic_per_kept``: extra questions per retained one that the ingest
  filter must drop, half by tag and half by creation year;
- ``vocab``: 0 keeps the fixture's narrow phrase lists, N > 0 draws prose
  from N generated English-like words with a Zipf distribution.

Besides the XML the generator returns what it planted: the expected
ingest report and, for every kept answer in (question id, answer id)
order, the raw fields that the timing and count features are computed
from.  The code here shares nothing with the program, so the checks that
compare against it are independent.  Pure Python and fully seeded:
the same spec and seed give byte-identical files.
"""

from __future__ import annotations

import bisect
import calendar
import itertools
import json
import random
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from xml.sax.saxutils import quoteattr

MINUTE = 60_000
HOUR = 3_600_000
DAY = 86_400_000

# -- the bundled fixture's phrase lists (narrow vocabulary) -----------------

VERBS = ["sort", "parse", "merge", "filter", "format", "cache", "validate",
         "serialize", "deduplicate", "paginate", "escape", "compress"]
OBJECTS = {
    "java": ["a HashMap by value", "dates from a CSV file", "nested JSON payloads",
             "a LinkedList in place", "large XML documents", "BigDecimal amounts",
             "thread pool results", "JDBC result sets", "enum constants",
             "classpath resources", "byte buffers", "property files"],
    "javascript": ["an array of objects", "query string parameters", "nested promises",
                   "DOM event handlers", "JSON from fetch", "dates without libraries",
                   "a deeply nested object", "form input values", "regex capture groups",
                   "localStorage entries", "duplicate array entries", "CSS class lists"],
}
APIS = {
    "java": ["Collections.sort", "SimpleDateFormat", "StringBuilder", "Streams",
             "Jackson", "TreeMap", "Optional", "CompletableFuture"],
    "javascript": ["Array.prototype.reduce", "Object.entries", "Promise.all",
                   "URLSearchParams", "Array.from", "JSON.parse", "addEventListener", "Map"],
}
FILLER = ["I tried the obvious loop but it gets slow on larger inputs.",
          "The documentation was not much help here.",
          "This runs inside a scheduled job, so correctness matters.",
          "My current attempt throws on the first malformed entry.",
          "I would prefer to avoid extra dependencies.",
          "The same code works fine on a small sample."]
ANSWER_FILLER = ["Be careful with empty inputs.",
                 "This keeps the original order stable.",
                 "Measured on a million entries it stays fast.",
                 "The edge case is an empty collection.",
                 "You can inline this as a helper method.",
                 "Remember to handle null before the call."]
CODE = {
    "java": ["Map<String, Integer> counts = new HashMap<>();\nfor (String key : keys) {\n"
             "    counts.merge(key, 1, Integer::sum);\n}",
             "List<String> out = items.stream()\n    .filter(s -> !s.isEmpty())\n"
             "    .sorted()\n    .collect(Collectors.toList());",
             "SimpleDateFormat fmt = new SimpleDateFormat(\"yyyy-MM-dd\");\n"
             "Date when = fmt.parse(raw);",
             "StringBuilder sb = new StringBuilder();\n"
             "for (String part : parts) sb.append(part).append(',');"],
    "javascript": ["const grouped = rows.reduce((acc, row) => {\n"
                   "  (acc[row.key] ||= []).push(row);\n  return acc;\n}, {});",
                   "const params = new URLSearchParams(location.search);\n"
                   "const page = Number(params.get('page') || 1);",
                   "const unique = [...new Map(items.map(x => [x.id, x])).values()];",
                   "document.querySelector('#form').addEventListener('submit', (e) => {\n"
                   "  e.preventDefault();\n});"],
}
OFFTOPIC_TAGS = ["python", "c++", "php", "ruby", "go", "sql", "pandas", "android",
                 "css", "rust"]

# -- wide vocabulary: English-like words with suffixes Porter rewrites ------

_ONSETS = ["b", "c", "d", "f", "g", "h", "l", "m", "n", "p", "r", "s", "t", "v",
           "br", "cl", "cr", "dr", "gr", "pl", "pr", "sp", "st", "tr", "ch", "sh"]
_VOWELS = ["a", "e", "i", "o", "u", "ea", "ou", "ai"]
_CODAS = ["", "n", "r", "l", "s", "t", "m", "nd", "rt", "st", "ck", "ll"]
_SUFFIXES = ["", "", "", "s", "ing", "ed", "ation", "ness", "ly", "ment", "ful",
             "able", "ize", "er", "ity", "ive", "ous", "al", "ance", "ism"]
_VOCAB_SEED = 1867  # the word list is the same for every workload seed


def wide_vocabulary(width: int) -> list[str]:
    """`width` distinct generated words, most frequent first."""
    rng = random.Random(_VOCAB_SEED)
    words: list[str] = []
    seen: set[str] = set()
    while len(words) < width:
        stem = "".join(
            rng.choice(_ONSETS) + rng.choice(_VOWELS) + rng.choice(_CODAS)
            for _ in range(rng.choice((1, 1, 2, 2, 3)))
        )
        word = stem + rng.choice(_SUFFIXES)
        if len(word) > 2 and word not in seen:
            seen.add(word)
            words.append(word)
    return words


def iso(ms: int) -> str:
    """Dump timestamp: UTC, millisecond precision, no zone suffix."""
    sec, msec = divmod(ms, 1000)
    return f"{datetime.fromtimestamp(sec, tz=timezone.utc):%Y-%m-%dT%H:%M:%S}.{msec:03d}"


def ts(year: int, month: int, day: int) -> int:
    return calendar.timegm((year, month, day, 0, 0, 0)) * 1000


@dataclass(frozen=True)
class DumpSpec:
    n_questions: int
    offtopic_per_kept: float = 0.0
    vocab: int = 0


@dataclass
class Dump:
    posts: list  # attribute dicts in id order
    users: dict  # id -> attribute dict
    plan: dict  # what was planted; see `generate`


class _Text:
    """Post bodies in either vocabulary; `topic` is what answers echo."""

    def __init__(self, rng: random.Random, vocab: int):
        self.rng = rng
        self.words = wide_vocabulary(vocab) if vocab else None
        if self.words:
            weights = [1.0 / (rank + 1) ** 1.07 for rank in range(len(self.words))]
            self.cum = list(itertools.accumulate(weights))

    def pick(self, seq):
        return seq[self.rng.randrange(len(seq))]

    def zipf(self, k: int) -> list[str]:
        total = self.cum[-1]
        return [self.words[bisect.bisect(self.cum, self.rng.random() * total)]
                for _ in range(k)]

    def sentence(self) -> str:
        words = self.zipf(self.rng.randint(6, 14))
        return " ".join(words).capitalize() + "."

    def topic(self, lang: str) -> str:
        if self.words is None:
            return f"{self.pick(VERBS)} {self.pick(OBJECTS[lang])}"
        return f"{self.pick(VERBS)} the {' '.join(self.zipf(3))}"

    def filler(self, answer: bool) -> str:
        if self.words is None:
            return self.pick(ANSWER_FILLER if answer else FILLER)
        return " ".join(self.sentence() for _ in range(self.rng.randint(1, 3)))

    def question(self, lang: str, task: str) -> str:
        parts = [f"<p>I need to {task} in {lang}. {self.filler(False)}</p>"]
        if self.rng.random() < 0.5:
            parts.append(f"<pre><code>{self.pick(CODE[lang])}</code></pre>")
        parts.append("<p>What is the idiomatic way to do this?</p>")
        return "".join(parts)

    def answer(self, lang: str, task: str, echo: bool, strong: bool) -> str:
        api = self.pick(APIS[lang])
        if echo:
            lead = f"<p>You can {task} with <code>{api}</code>. {self.filler(True)}</p>"
        else:
            lead = f"<p>Try <code>{api}</code> for this. {self.filler(True)}</p>"
        parts = [lead]
        if self.rng.random() < (0.85 if strong else 0.45):
            parts.append(f"<pre><code>{self.pick(CODE[lang])}</code></pre>")
        if self.rng.random() < (0.3 if strong else 0.15):
            parts.append(f'<p>See <a href="https://example.com/{lang}/{api.lower()}">'
                         "the reference</a> for details.</p>")
        if strong and self.rng.random() < 0.6:
            parts.append(f"<p>{self.filler(True)}</p>")
        return "".join(parts)


def _answer_traits(rng: random.Random, strong: bool) -> dict:
    """Lag, score, echo and owner draws; accepted answers skew favourable."""
    if strong:
        return {
            "lag": rng.randrange(4 * MINUTE, 10 * HOUR),
            "score": rng.randrange(2, 40),
            "echo": rng.random() < 0.9,
            "reputation": max(1, int(rng.lognormvariate(8.3, 0.9))),
            "age": rng.randrange(200 * DAY, 2500 * DAY),
        }
    return {
        "lag": rng.randrange(20 * MINUTE, 5 * DAY),
        "score": rng.randrange(0, 9),
        "echo": rng.random() < 0.25,
        "reputation": max(1, int(rng.lognormvariate(5.8, 1.3))),
        "age": rng.randrange(5 * DAY, 1200 * DAY),
    }


class _Builder:
    def __init__(self, spec: DumpSpec, seed: int):
        self.spec = spec
        self.rng = random.Random(seed)
        self.text = _Text(self.rng, spec.vocab)
        self.posts: list[dict] = []
        self.users: dict[int, dict] = {}
        self.kept: dict[int, dict] = {}  # question id -> planted facts
        self.discards: dict[str, int] = {}

    def count(self, rule: str, n: int = 1) -> None:
        self.discards[rule] = self.discards.get(rule, 0) + n

    def new_user(self, created_ms: int, reputation: int) -> int:
        uid = len(self.users) + 1
        self.users[uid] = {"Id": str(uid), "Reputation": str(reputation),
                           "CreationDate": iso(created_ms), "DisplayName": f"user{uid}"}
        return uid

    def add_post(self, **attrs) -> int:
        pid = len(self.posts) + 1
        self.posts.append({"Id": str(pid), **attrs})
        return pid

    def add_question(self, ms: int, lang: str, task: str, tags) -> int:
        rng = self.rng
        asker = self.new_user(ms - rng.randrange(10, 1500) * DAY,
                              max(1, int(rng.lognormvariate(5.0, 1.5))))
        return self.add_post(
            PostTypeId="1", CreationDate=iso(ms), Score=str(rng.randrange(0, 12)),
            ViewCount=str(rng.randrange(60, 20000)), Body=self.text.question(lang, task),
            OwnerUserId=str(asker), Tags="".join(f"<{t}>" for t in tags),
            Title=f"How to {task} in {lang}?", CommentCount=str(rng.randrange(0, 4)),
        )

    def add_answer(self, qid: int, ms: int, body: str, owner: int | None,
                   score: int, comments: int) -> int:
        attrs = {"PostTypeId": "2", "ParentId": str(qid), "CreationDate": iso(ms),
                 "Score": str(score), "Body": body, "CommentCount": str(comments)}
        if owner is not None:
            attrs["OwnerUserId"] = str(owner)
        return self.add_post(**attrs)

    def question_of(self, qid: int) -> dict:
        return self.posts[qid - 1]

    # -- retained questions ---------------------------------------------------

    def retained(self, ms: int, unregistered_competitor: bool) -> None:
        rng, text = self.rng, self.text
        lang = text.pick(["java", "javascript"])
        task = text.topic(lang)
        qid = self.add_question(ms, lang, task, [lang])
        q = self.question_of(qid)
        n_answers = rng.choice([2, 3, 3, 4, 4, 5, 6])
        accepted_pos = rng.randrange(n_answers)
        # a competitor without an owner is discarded by ingest, so the
        # question needs two other answers to stay retained
        drop_pos = None
        if unregistered_competitor:
            n_answers = max(n_answers, 3)
            drop_pos = (accepted_pos + 1) % n_answers
        answers = []
        for j in range(n_answers):
            strong = j == accepted_pos
            t = _answer_traits(rng, strong)
            a_ms = ms + t["lag"]
            comments = rng.randrange(0, 5)
            body = text.answer(lang, task, t["echo"], strong)
            if j == drop_pos:
                self.add_answer(qid, a_ms, body, None, t["score"], comments)
                self.count("answer_unregistered_owner")
                continue
            user_ms = max(0, a_ms - t["age"])
            owner = self.new_user(user_ms, t["reputation"])
            aid = self.add_answer(qid, a_ms, body, owner, t["score"], comments)
            answers.append({"id": aid, "ts": a_ms, "score": t["score"],
                            "comment_count": comments, "reputation": t["reputation"],
                            "user_id": owner, "user_ts": user_ms, "accepted": strong,
                            "clock_anomaly": False})
        q["AcceptedAnswerId"] = str(answers[[a["accepted"] for a in answers].index(True)]["id"])
        q["AnswerCount"] = str(n_answers)
        self.kept[qid] = {"id": qid, "lang": lang, "ts": ms,
                          "view_count": int(q["ViewCount"]), "answers": answers}

    # -- decoys: one helper per ingest discard rule --------------------------

    def simple_answers(self, qid: int, ms: int, lang: str, task: str, owners) -> list:
        ids = []
        for owner in owners:
            a_ms = ms + self.rng.randrange(HOUR, 2 * DAY)
            if owner == "new":
                t = _answer_traits(self.rng, False)
                owner = self.new_user(max(0, a_ms - t["age"]), t["reputation"])
            ids.append(self.add_answer(qid, a_ms, self.text.answer(lang, task, False, False),
                                       owner, self.rng.randrange(0, 6),
                                       self.rng.randrange(0, 3)))
        return ids

    def decoy(self, kind: str, ms: int) -> None:
        rng, text = self.rng, self.text
        lang = text.pick(["java", "javascript"])
        task = text.topic(lang)
        tags = [lang]
        if kind == "question_tag_mismatch":
            tags = rng.sample(OFFTOPIC_TAGS, rng.randint(1, 2))
        qid = self.add_question(ms, lang, task, tags)
        q = self.question_of(qid)
        owners: list = ["new"] * rng.randint(1, 4)
        accepted = 0
        if kind == "question_no_accepted_answer":
            accepted = None
            owners = ["new"] * rng.randint(1, 3)
        elif kind == "unregistered_accepted":
            owners = [None, "new"]
        elif kind == "self_accepted":
            owners = [int(q["OwnerUserId"]), "new"]
        elif kind == "ghost_accepted":
            owners = [10_000_000 + qid, "new"]  # id never written to Users.xml
        elif kind == "lone_accepted":
            owners = ["new", None]
        ids = self.simple_answers(qid, ms, lang, task, owners)
        if accepted is not None:
            q["AcceptedAnswerId"] = str(ids[accepted])
        q["AnswerCount"] = str(len(ids))
        if kind in ("question_tag_mismatch", "question_year_out_of_range",
                    "question_no_accepted_answer"):
            self.count(kind)  # answers of these are never examined
        elif kind == "unregistered_accepted":
            self.count("answer_unregistered_owner")
            self.count("question_accepted_answer_discarded")
        elif kind == "self_accepted":
            self.count("answer_self_authored")
            self.count("question_accepted_answer_discarded")
        elif kind == "ghost_accepted":
            self.count("answer_owner_unknown")
            self.count("question_accepted_answer_discarded")
        elif kind == "lone_accepted":
            self.count("answer_unregistered_owner")
            self.count("question_too_few_answers")
        else:  # pragma: no cover - kinds come from build()
            raise ValueError(kind)

    # -- the whole dump --------------------------------------------------------

    def build(self) -> None:
        rng = self.rng
        n = self.spec.n_questions
        # decoy counts scale the fixture's per-200 mix
        scaled = {
            "question_tag_mismatch": 3, "question_year_out_of_range": 3,
            "question_no_accepted_answer": 2, "unregistered_accepted": 2,
            "self_accepted": 1, "ghost_accepted": 1, "lone_accepted": 2,
        }
        kinds = {k: max(1, round(v * n / 200)) for k, v in scaled.items()}
        offtopic = round(self.spec.offtopic_per_kept * n)
        kinds["question_tag_mismatch"] += offtopic // 2
        kinds["question_year_out_of_range"] += offtopic - offtopic // 2
        n_competitor = max(1, n // 100)

        slots = ["retained"] * n + [k for k, c in kinds.items() for _ in range(c)]
        rng.shuffle(slots)
        lo, hi = ts(2014, 1, 6), ts(2016, 12, 20)
        inside = sorted(rng.randrange(lo, hi) for _ in slots)
        competitor = set(rng.sample(range(n), n_competitor))
        kept_index = 0
        for kind, ms in zip(slots, inside):
            if kind == "retained":
                self.retained(ms, kept_index in competitor)
                kept_index += 1
            elif kind == "question_year_out_of_range":
                year = rng.choice([2009, 2011, 2012, 2013, 2017, 2018, 2019])
                self.decoy(kind, ts(year, 1, 1) + rng.randrange(0, 360 * DAY))
            else:
                self.decoy(kind, ms)

        n_other = max(1, round(3 * n / 200))
        for i in range(n_other):
            self.add_post(PostTypeId=str(4 + i % 3), CreationDate=iso(lo + i * DAY),
                          Body="<p>tag wiki stub</p>")
        self.count("other_post_type", n_other)

        # answers that predate their question: ingest keeps them, feature
        # extraction drops them
        java = [q for q in self.kept.values() if q["lang"] == "java"]
        for q in java[: max(1, round(2 * n / 200))]:
            a_ms = q["ts"] - 2 * HOUR
            t = _answer_traits(rng, False)
            user_ms = max(0, a_ms - t["age"])
            owner = self.new_user(user_ms, t["reputation"])
            aid = self.add_answer(q["id"], a_ms,
                                  "<p>Posted from a machine with a skewed clock.</p>",
                                  owner, 0, 0)
            q["answers"].append({"id": aid, "ts": a_ms, "score": 0, "comment_count": 0,
                                 "reputation": t["reputation"], "user_id": owner,
                                 "user_ts": user_ms, "accepted": False,
                                 "clock_anomaly": True})
        # answerers whose account is newer than their answer (kept as is)
        fresh = [a for q in self.kept.values() for a in q["answers"]
                 if not a["clock_anomaly"]][: max(1, round(2 * n / 200))]
        for a in fresh:
            a["user_ts"] = a["ts"] + 3 * DAY
            self.users[a["user_id"]]["CreationDate"] = iso(a["user_ts"])

    def plan(self) -> dict:
        answers = []
        for qid in sorted(self.kept):
            q = self.kept[qid]
            for a in sorted(q["answers"], key=lambda a: a["id"]):
                answers.append({
                    "question_id": qid, "answer_id": a["id"],
                    "question_ts": q["ts"], "answer_ts": a["ts"], "user_ts": a["user_ts"],
                    "score": a["score"], "comment_count": a["comment_count"],
                    "reputation": a["reputation"], "view_count": q["view_count"],
                    "answer_count": len(q["answers"]), "accepted": a["accepted"],
                    "clock_anomaly": a["clock_anomaly"],
                })
        return {
            "ingest": {
                "questions_seen": sum(1 for p in self.posts if p["PostTypeId"] == "1"),
                "questions_retained": len(self.kept),
                "answers_retained": len(answers),
                "accepted_answers": len(self.kept),
                "discards": dict(sorted(self.discards.items())),
            },
            "answers": answers,
        }


def generate(spec: DumpSpec, seed: int) -> Dump:
    """Build one dump and its plan.

    ``plan["ingest"]`` is the ingest report the filters must produce;
    ``plan["answers"]`` lists every answer that survives ingest, in
    (question id, answer id) order, with its question's and owner's raw
    fields, its label, and whether feature extraction must drop it.
    """
    b = _Builder(spec, seed)
    b.build()
    return Dump(posts=b.posts, users=b.users, plan=b.plan())


def _xml(root: str, rows) -> str:
    lines = ['<?xml version="1.0" encoding="utf-8"?>', f"<{root}>"]
    for attrs in rows:
        lines.append("  <row " + " ".join(f"{k}={quoteattr(v)}" for k, v in attrs.items())
                     + " />")
    lines.append(f"</{root}>")
    return "\n".join(lines) + "\n"


def write_dump(dump: Dump, out_dir: Path) -> None:
    """Posts.xml, Users.xml and plan.json under `out_dir`."""
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "Posts.xml").write_text(_xml("posts", dump.posts), encoding="utf-8")
    (out_dir / "Users.xml").write_text(
        _xml("users", (dump.users[uid] for uid in sorted(dump.users))), encoding="utf-8")
    (out_dir / "plan.json").write_text(json.dumps(dump.plan, sort_keys=True) + "\n",
                                       encoding="utf-8")


# -- rank requests -------------------------------------------------------------

# feature imputed by `rank` when the request leaves out a field
OPTIONAL_ANSWER_FIELDS = {
    "creation_ts": "Timelag",
    "score": "Score",
    "comment_count": "CommentCount",
    "reputation": "Reputation",
    "user_creation_ts": "SignUpDateTimeLag",
}


def make_request(seed: int | str, n_candidates: int, sparse: bool, vocab: int = 0) -> dict:
    """One `rank` request for a fresh question, plus what it planted.

    The candidate at ``accepted`` has the accepted-answer distribution;
    the rest are competitors.  A sparse request leaves out each optional
    answer field with probability 0.3 and the question's view count with
    probability 0.5; ``imputed`` lists, per candidate, the features the
    program must fill from the training medians.  The question timestamp
    is always given and every account predates the question, so no
    supplied field is ever unusable.
    """
    rng = random.Random(seed)
    text = _Text(rng, vocab)
    lang = text.pick(["java", "javascript"])
    task = text.topic(lang)
    q_ms = rng.randrange(ts(2014, 1, 6), ts(2016, 12, 20))
    question = {"body": text.question(lang, task), "creation_ts": iso(q_ms), "tags": [lang]}
    view_omitted = sparse and rng.random() < 0.5
    if not view_omitted:
        question["view_count"] = rng.randrange(60, 20000)
    accepted = rng.randrange(n_candidates)
    answers, imputed = [], []
    for j in range(n_candidates):
        t = _answer_traits(rng, j == accepted)
        a_ms = q_ms + t["lag"]
        full = {
            "body": text.answer(lang, task, t["echo"], j == accepted),
            "creation_ts": iso(a_ms),
            "score": t["score"],
            "comment_count": rng.randrange(0, 5),
            "reputation": t["reputation"],
            "user_creation_ts": iso(min(a_ms - t["age"], q_ms - DAY)),
        }
        omitted = [f for f in OPTIONAL_ANSWER_FIELDS if sparse and rng.random() < 0.3]
        answers.append({k: v for k, v in full.items() if k not in omitted})
        missing = {OPTIONAL_ANSWER_FIELDS[f] for f in omitted}
        if view_omitted:
            missing.add("ViewCount")
        imputed.append(sorted(missing))
    return {"payload": {"question": question, "answers": answers},
            "accepted": accepted, "imputed": imputed}
