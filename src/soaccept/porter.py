"""Suffix-stripping stemmer (Porter, 1980).

Implements the five-step algorithm as published: the measure m counts
vowel-consonant sequences in the candidate stem, and the *v*, *d and *o
conditions gate individual rules.  Within a step, the first suffix that
matches textually consumes the step whether or not its condition holds.
Words of one or two letters are returned unchanged.
"""

from functools import lru_cache

_VOWELS = "aeiou"


def _is_cons(word: str, i: int) -> bool:
    ch = word[i]
    if ch in _VOWELS:
        return False
    if ch == "y":
        # y is a vowel when preceded by a consonant ("happy"), else a consonant
        return i == 0 or not _is_cons(word, i - 1)
    return True


def _measure(stem: str) -> int:
    """Number of VC sequences: stem has the form [C](VC)^m[V]."""
    n = len(stem)
    i = 0
    while i < n and _is_cons(stem, i):
        i += 1
    m = 0
    while i < n:
        while i < n and not _is_cons(stem, i):
            i += 1
        if i >= n:
            break
        m += 1
        while i < n and _is_cons(stem, i):
            i += 1
    return m


def _has_vowel(stem: str) -> bool:
    return any(not _is_cons(stem, i) for i in range(len(stem)))


def _ends_double_cons(word: str) -> bool:
    return len(word) >= 2 and word[-1] == word[-2] and _is_cons(word, len(word) - 1)


def _ends_cvc(word: str) -> bool:
    # consonant-vowel-consonant where the final consonant is not w, x or y
    if len(word) < 3:
        return False
    n = len(word)
    return (
        _is_cons(word, n - 1)
        and not _is_cons(word, n - 2)
        and _is_cons(word, n - 3)
        and word[-1] not in "wxy"
    )


def _step1ab(w: str) -> str:
    if w.endswith("sses"):
        w = w[:-2]
    elif w.endswith("ies"):
        w = w[:-2]
    elif w.endswith("ss"):
        pass
    elif w.endswith("s"):
        w = w[:-1]

    if w.endswith("eed"):
        if _measure(w[:-3]) > 0:
            w = w[:-1]
    else:
        stripped = False
        if w.endswith("ed") and _has_vowel(w[:-2]):
            w = w[:-2]
            stripped = True
        elif w.endswith("ing") and _has_vowel(w[:-3]):
            w = w[:-3]
            stripped = True
        if stripped:
            if w.endswith(("at", "bl", "iz")):
                w += "e"
            elif _ends_double_cons(w) and w[-1] not in "lsz":
                w = w[:-1]
            elif _measure(w) == 1 and _ends_cvc(w):
                w += "e"
    return w


def _step1c(w: str) -> str:
    if w.endswith("y") and _has_vowel(w[:-1]):
        w = w[:-1] + "i"
    return w


_STEP2 = (
    ("ational", "ate"),
    ("tional", "tion"),
    ("enci", "ence"),
    ("anci", "ance"),
    ("izer", "ize"),
    ("abli", "able"),
    ("alli", "al"),
    ("entli", "ent"),
    ("eli", "e"),
    ("ousli", "ous"),
    ("ization", "ize"),
    ("ation", "ate"),
    ("ator", "ate"),
    ("alism", "al"),
    ("iveness", "ive"),
    ("fulness", "ful"),
    ("ousness", "ous"),
    ("aliti", "al"),
    ("iviti", "ive"),
    ("biliti", "ble"),
)

_STEP3 = (
    ("icate", "ic"),
    ("ative", ""),
    ("alize", "al"),
    ("iciti", "ic"),
    ("ical", "ic"),
    ("ful", ""),
    ("ness", ""),
)

# order matters: "ement" before "ment" before "ent"
_STEP4 = (
    "al", "ance", "ence", "er", "ic", "able", "ible", "ant", "ement",
    "ment", "ent", "ion", "ou", "ism", "ate", "iti", "ous", "ive", "ize",
)


def _apply_rules(w: str, rules) -> str:
    for suffix, repl in rules:
        if w.endswith(suffix):
            stem = w[: -len(suffix)]
            if _measure(stem) > 0:
                return stem + repl
            return w  # suffix matched, condition failed: step is spent
    return w


def _step4(w: str) -> str:
    for suffix in _STEP4:
        if w.endswith(suffix):
            stem = w[: -len(suffix)]
            if suffix == "ion" and not (stem and stem[-1] in "st"):
                continue  # ion only strips after s or t; keep scanning
            if _measure(stem) > 1:
                return stem
            return w
    return w


def _step5(w: str) -> str:
    if w.endswith("e"):
        stem = w[:-1]
        m = _measure(stem)
        if m > 1 or (m == 1 and not _ends_cvc(stem)):
            w = stem
    if w.endswith("l") and _ends_double_cons(w) and _measure(w) > 1:
        w = w[:-1]
    return w


# A vocabulary repeats its words many times over; the bound keeps a
# real dump's long tail of rare words from growing the memo without limit.
@lru_cache(maxsize=1 << 16)
def porter_stem(word: str) -> str:
    """Stem a non-empty lowercase ASCII-alphabetic word."""
    if len(word) <= 2:
        return word
    w = _step1ab(word)
    w = _step1c(w)
    w = _apply_rules(w, _STEP2)
    w = _apply_rules(w, _STEP3)
    w = _step4(w)
    w = _step5(w)
    return w
