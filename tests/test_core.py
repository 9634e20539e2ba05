"""Alphabet, shortlex order, presentation parsing, rule orientation."""

import logging

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from logrew.core import (
    Alphabet, OrderSpec, ParseError, Rule,
    orient, parse_presentation, word_from_str, word_to_str,
)
from helpers import words_over

ABC = Alphabet(("a", "b", "c"))
ORDER = OrderSpec(ABC)
SE = OrderSpec(Alphabet(("s", "e")))


def shortlex_key(order, w):
    # independent oracle: tuple comparison on (length, negated precedence
    # ranks); rank 0 is the greatest letter, so bigger key = greater word
    return len(w), tuple(-order.alphabet.rank(x) for x in w)


def test_compare_examples():
    assert SE.greater(("s",), ("e",)) and not SE.greater(("e",), ("s",))
    assert SE.greater(("e", "s", "s"), ("s", "e")) and not SE.greater(("s", "e"), ("e", "s", "s"))
    assert not SE.greater(("s", "e", "s"), ("s", "e", "s"))


def test_compare_total_order_exhaustive():
    # agreement with the key oracle on every pair gives irreflexivity,
    # trichotomy (the oracle key is injective), and (keys being tuples)
    # transitivity
    words = list(words_over(("a", "b", "c"), 6))
    keys = {w: shortlex_key(ORDER, w) for w in words}
    for a in words:
        ka = keys[a]
        for b in words:
            assert ORDER.greater(a, b) == (ka > keys[b])


words_abc = st.lists(st.sampled_from(["a", "b", "c"]), max_size=4).map(tuple)


@given(u=words_abc, v=words_abc, x=words_abc, y=words_abc)
@settings(max_examples=300)
def test_compare_admissible(u, v, x, y):
    assert ORDER.greater(x + u + y, x + v + y) == ORDER.greater(u, v)


def test_well_foundedness_witness():
    # total order: the longest strictly decreasing chain from w steps
    # through every smaller word, so any chain length is at most rank+1
    words = sorted(words_over(("a", "b"), 4), key=lambda w: shortlex_key(OrderSpec(Alphabet(("a", "b"))), w))
    order = OrderSpec(Alphabet(("a", "b")))
    for rank, w in enumerate(words):
        below = sum(1 for v in words if order.greater(w, v))
        assert below == rank
    longest = {}
    for w in words:  # ascending, so all smaller words are done
        longest[w] = 1 + max((longest[v] for v in words if order.greater(w, v)), default=0)
    for rank, w in enumerate(words):
        assert longest[w] == rank + 1


def test_alphabet_rejects_duplicates_and_unknown_letters():
    with pytest.raises(ValueError):
        Alphabet(("a", "a"))
    with pytest.raises(ValueError):
        ABC.rank("z")
    for a, b in ((("z",), ("a",)), (("z", "z"), ("a",)), (("a", "a"), ("z",))):
        with pytest.raises(ValueError):
            ORDER.greater(a, b)


def test_word_round_trip():
    assert word_to_str(()) == "1"
    assert word_from_str("1") == ()
    assert word_from_str("a b a") == ("a", "b", "a")
    assert word_to_str(("a", "b")) == "a b"
    with pytest.raises(ParseError):
        word_from_str("a z", ABC)


SE_TEXT = """\
monoid
letters: s e
order: shortlex
rules:
e e = e
s s s = s
s s e = e
e s s = e
s e s e = e s e
e s e s = e s e
"""


def test_parse_presentation_fixture():
    p = parse_presentation(SE_TEXT)
    assert p.alphabet.letters == ("s", "e")
    assert len(p.relations) == 6
    assert p.relations[0] == ((("e", "e")), ("e",))
    assert p.order == OrderSpec(p.alphabet)


def test_parse_zero_relations_free_monoid():
    p = parse_presentation("monoid\nletters: x y\norder: shortlex\nrules:\n")
    assert p.relations == ()
    assert orient(p) == ()


def test_parse_comments_and_blank_lines():
    text = "# heading\nmonoid\n\nletters: a b  # two letters\norder: shortlex\nrules:\na b = a\n"
    p = parse_presentation(text)
    assert p.alphabet.letters == ("a", "b")
    assert p.relations == ((("a", "b"), ("a",)),)


@pytest.mark.parametrize("text,fragment", [
    ("monoid\nletters: a a\norder: shortlex\nrules:\n", "duplicate"),
    ("monoid\nletters: a b\norder: shortlex\nrules:\na x = a\n", "unknown letter"),
    ("monoid\nletters: a b\norder: wreath\nrules:\n", "unsupported order"),
    ("group\nletters: a\norder: shortlex\nrules:\n", "monoid"),
    ("monoid\nletters: a\norder: shortlex\nrules:\na a\n", "relation"),
    ("monoid\norder: shortlex\nrules:\n", "expected 'letters:' declaration"),
    ("monoid\nletters:\norder: shortlex\nrules:\n", "empty letter declaration"),
    ("monoid\nletters: a\nrules:\n", "expected 'order:' declaration"),
    ("monoid\nletters: a\norder: shortlex\nfoo\n", "expected 'rules:' section (line 4)"),
    # a byte-order mark is dropped once, so a second one is text
    ("\ufeff\ufeffmonoid\nletters: a\norder: shortlex\nrules:\n", "expected 'monoid' header"),
])
def test_parse_errors(text, fragment):
    with pytest.raises(ParseError) as err:
        parse_presentation(text)
    assert fragment in str(err.value)


def test_parse_drops_a_byte_order_mark():
    text = "monoid\nletters: a b\norder: shortlex\nrules:\na b = a\n"
    assert parse_presentation("\ufeff" + text) == parse_presentation(text)


def test_alphabet_equality_hash_and_repr():
    # two parses of one file give equal presentations with equal hashes
    text = "monoid\nletters: s e\norder: shortlex\nrules:\ne e = e\n"
    first, second = parse_presentation(text), parse_presentation(text)
    assert first.alphabet is not second.alphabet
    assert first == second and hash(first) == hash(second)
    assert Alphabet(("s", "e")) != ("s", "e") and Alphabet(("s", "e")) != Alphabet(("e", "s"))
    assert repr(first.alphabet) == "Alphabet(letters=('s', 'e'))"


@pytest.mark.parametrize("letters,relation", [("a 1", "a a = 1"), ("a =", "= = a a")])
def test_parse_rejects_reserved_letter_names(letters, relation):
    # a letter 1 would print as the empty word, and = = a a would read as 1 = (= a a)
    text = f"monoid\nletters: {letters}\norder: shortlex\nrules:\n{relation}\n"
    with pytest.raises(ParseError) as err:
        parse_presentation(text)
    assert "reserved letter name" in str(err.value)
    assert (err.value.line, err.value.column) == (2, 2)


def test_parse_error_carries_line_number():
    text = "monoid\nletters: a b\norder: shortlex\nrules:\na x = a\n"
    with pytest.raises(ParseError) as err:
        parse_presentation(text)
    assert err.value.line == 5


def test_orient_examples():
    p = parse_presentation(SE_TEXT)
    rules = orient(p)
    assert rules[0] == Rule("r1", ("e", "e"), ("e",))
    assert [r.rid for r in rules] == ["r1", "r2", "r3", "r4", "r5", "r6"]
    # swapped relation orients the same way
    flipped = parse_presentation("monoid\nletters: s e\norder: shortlex\nrules:\ne = e e\n")
    assert orient(flipped) == (Rule("r1", ("e", "e"), ("e",)),)


def test_orient_drops_trivial_relations(caplog):
    p = parse_presentation("monoid\nletters: a b\norder: shortlex\nrules:\na b = a b\nb a = b\n")
    with caplog.at_level(logging.WARNING, logger="logrew.core"):
        rules = orient(p)
    assert rules == (Rule("r1", ("b", "a"), ("b",)),)
    assert [(r.name, r.levelno, r.getMessage()) for r in caplog.records] == [
        ("logrew.core", logging.WARNING, "dropping trivial relation a b = a b")]


def test_orient_output_satisfies_rule_invariants():
    p = parse_presentation(SE_TEXT)
    for rule in orient(p):
        assert p.order.greater(rule.lhs, rule.rhs)


def test_multicharacter_generator_names():
    p = parse_presentation("monoid\nletters: aa bb\norder: shortlex\nrules:\naa bb = aa\n")
    assert p.alphabet.letters == ("aa", "bb")
    assert p.relations[0] == (("aa", "bb"), ("aa",))
