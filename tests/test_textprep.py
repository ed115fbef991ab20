import string

from hypothesis import given
from hypothesis import strategies as st

from soaccept.textprep import (
    count_code_lines,
    load_stopwords,
    raw_tokens,
    remove_stop_words,
    split_code_blocks,
    split_sentences,
    tokenize,
)

STOP = load_stopwords()


def _words(text):
    """`text`'s raw tokens without stop words, as `tokenize` takes them."""
    return remove_stop_words(raw_tokens(text), STOP)


def test_split_prose_and_single_code_block():
    body = "<p>I would not rely on that approach</p><code> def plot: a=c[1,2,3] </code>"
    parts = split_code_blocks(body)
    assert parts.code_blocks == [" def plot: a=c[1,2,3] "]
    assert parts.prose_text == "I would not rely on that approach"
    assert not parts.unclosed_code


def test_split_no_code_tags():
    parts = split_code_blocks("<p>plain answer</p>")
    assert parts.prose_text == "plain answer"
    assert parts.code_blocks == []


def test_pre_wrapped_block_counts_once():
    parts = split_code_blocks("<pre><code>x=1</code></pre><code>y=2</code>")
    assert parts.code_blocks == ["x=1", "y=2"]
    assert parts.prose_text == ""


def test_unclosed_code_runs_to_end_and_flags():
    parts = split_code_blocks("<p>try</p><code>while (true) {")
    assert parts.unclosed_code
    assert parts.code_blocks == ["while (true) {"]
    assert parts.prose_text == "try"


def test_entities_decoded_on_both_sides():
    parts = split_code_blocks("<p>a &amp; b</p><code>List&lt;T&gt; xs;</code>")
    assert parts.prose_text == "a & b"
    assert parts.code_blocks == ["List<T> xs;"]


def test_code_attribute_in_open_tag():
    parts = split_code_blocks('<code class="java">int x;</code>')
    assert parts.code_blocks == ["int x;"]


@given(st.text(alphabet=string.ascii_letters + string.digits + " .,!?:;()[]'\"\n", max_size=200))
def test_tagfree_prose_reconstruction(text):
    assert split_code_blocks(text).prose_text == text


def test_stop_word_filter():
    assert remove_stop_words(["above", "cat", "but"], STOP) == ["cat"]
    assert remove_stop_words([], STOP) == []
    assert remove_stop_words(["cat", "dog"], STOP) == ["cat", "dog"]


def test_stop_list_is_fixed_179_words():
    assert len(STOP) == 179
    for w in ("above", "but", "an", "anything"):
        assert w in STOP


def test_tokenize_examples():
    assert tokenize(_words("The cat, the CAT!"), STOP) == ["cat", "cat"]
    assert tokenize(_words(""), STOP) == []
    assert tokenize(_words("running 42 times"), STOP) == ["run", "time"]


def test_tokenize_keeps_mixed_alphanumeric():
    assert tokenize(_words("use utf8 now"), STOP) == ["us", "utf8"]


def test_tokenize_stems_exactly_once():
    # "indeed" stems to "inde"; a second pass would shorten it again
    assert tokenize(_words("indeed"), STOP) == ["inde"]


def test_tokenize_output_never_contains_stop_words():
    # stemming maps "willing" onto the stop word "will"; it must not leak
    assert tokenize(_words("willing"), STOP) == []


@given(st.text(max_size=120))
def test_tokenize_invariants_on_arbitrary_text(text):
    for tok in tokenize(_words(text), STOP):
        assert tok
        assert tok not in STOP
        assert tok == tok.lower()
        assert all(c.isalnum() for c in tok)
        assert not tok.isdigit()


def test_raw_tokens_keep_stop_words_and_case_fold():
    assert raw_tokens("Not GOOD at all 99") == ["not", "good", "at", "all"]


def test_sentence_split_examples():
    assert len(split_sentences("Yes. Try it!")) == 2
    assert split_sentences("") == []
    assert len(split_sentences("Use v1.2 now. Done.")) == 2


def test_sentence_split_multi_punctuation():
    assert split_sentences("Wait... what? No!") == ["Wait", "what", "No"]


def test_count_code_lines_skips_blanks():
    blocks = ["a=1\n\nb=2\n", "c=3"]
    assert count_code_lines(blocks) == 3
    assert count_code_lines([]) == 0
