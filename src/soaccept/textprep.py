"""Prose/code splitting and prose normalization for post bodies.

Bodies arrive as HTML.  Code lives in `<code>` spans (usually wrapped in
`<pre>` for blocks); everything else is prose once tags are stripped and
entities decoded.  Prose normalization is lowercasing, alphanumeric-run
tokenization, stop-word removal, then Porter stemming, in that order.
"""

from __future__ import annotations

import html
import re
from dataclasses import dataclass, field
from importlib import resources

from .porter import porter_stem

_CODE_OPEN_RE = re.compile(r"<code[^>]*>", re.IGNORECASE)
_CODE_CLOSE = "</code>"
_TAG_RE = re.compile(r"<[^>]+>")
_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)
_SENTENCE_END_RE = re.compile(r"[.!?]+(?=\s|\Z)")


@dataclass
class AnswerParts:
    prose_text: str
    code_blocks: list[str] = field(default_factory=list)
    unclosed_code: bool = False


def split_code_blocks(body: str) -> AnswerParts:
    """Split an HTML body into plain prose and raw code block strings.

    Each maximal `<code>...</code>` span becomes one code block (a span
    nested in `<pre>` counts once).  An unclosed `<code>` consumes the
    rest of the body and sets the warning flag.  Remaining tags are
    stripped and entities decoded on both sides.
    """
    code_blocks = []
    prose_parts = []
    unclosed = False
    pos = 0
    while True:
        m = _CODE_OPEN_RE.search(body, pos)
        if m is None:
            prose_parts.append(body[pos:])
            break
        prose_parts.append(body[pos : m.start()])
        end = body.find(_CODE_CLOSE, m.end())
        if end < 0:
            code_blocks.append(html.unescape(body[m.end() :]))
            unclosed = True
            break
        code_blocks.append(html.unescape(body[m.end() : end]))
        pos = end + len(_CODE_CLOSE)
    prose = html.unescape(_TAG_RE.sub("", "".join(prose_parts)))
    return AnswerParts(prose_text=prose, code_blocks=code_blocks, unclosed_code=unclosed)


def raw_tokens(text: str) -> list[str]:
    """Lowercase alphanumeric runs, purely numeric runs dropped."""
    return [t for t in _TOKEN_RE.findall(text.lower()) if not t.isdigit()]


def remove_stop_words(tokens: list[str], stop_list: frozenset[str]) -> list[str]:
    return [t for t in tokens if t not in stop_list]


def stem_tokens(tokens: list[str]) -> list[str]:
    # Porter is defined for English ASCII; other tokens pass through
    return [porter_stem(t) if t.isascii() and t.isalpha() else t for t in tokens]


def tokenize(words: list[str], stop_list: frozenset[str]) -> list[str]:
    """The stems of `words`, raw tokens already without stop words.

    Stemming can itself produce a stop word ("willing" stems to "will"),
    so the stop filter runs again afterwards; no output token may be on
    the stop list.
    """
    return remove_stop_words(stem_tokens(words), stop_list)


def split_sentences(text: str) -> list[str]:
    """Sentence segments ended by ./!/? before whitespace or end of text.

    A period inside a decimal number is not followed by whitespace, so it
    never terminates a sentence.  Blank segments are dropped.
    """
    return [s for s in (seg.strip() for seg in _SENTENCE_END_RE.split(text)) if s]


def count_code_lines(code_blocks: list[str]) -> int:
    return sum(1 for block in code_blocks for line in block.split("\n") if line.strip())


def data_lines(name: str) -> list[str]:
    """The stripped lines of the package's word list `name`, without the
    blank ones and the `#` comments."""
    text = resources.files("soaccept.data").joinpath(name).read_text("utf-8")
    return [line for line in map(str.strip, text.splitlines()) if line and line[0] != "#"]


def load_stopwords() -> frozenset[str]:
    return frozenset(data_lines("stopwords.txt"))
