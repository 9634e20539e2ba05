"""Invariants on finite groups beyond the s/e fixture.

Four presentations: the alternating group A4 as the triangle group
<a, b | a^2, b^3, (ab)^3> and Z4 x Z5, written out here, and the
Coxeter group S4 and A5 = <a, b | a^2, b^3, (ab)^5> from the helpers.
For each, the completed system must have as many normal forms
as the group has elements, every derived log must expand to a cell on
the initial rules from the rule's lhs to its rhs, proofs of equal words
must replay on the initial rules, and ``express`` must leave an identity
residual on random loops.

The ladder, PSL(2,7), H4 and E6 are counted off the lhs index instead,
by ``count_normal_forms``; the element search above checks reduction,
the count checks the index tables.
"""

import random

import pytest

from logrew import parse_presentation, system_from_presentation
from logrew.completion import logged_knuth_bendix
from logrew.endorewrites import express, generate
from logrew.engine import expand_log, normal_form, prove
import logrew.twocell as tc

from logrew.core import Alphabet, OrderSpec
from logrew.engine import LoggedSystem

from helpers import (
    A5, LADDER, S4, SCALE_GROUPS, count_normal_forms, random_cell, random_loop, random_word,
)

A4 = """monoid
letters: a b
order: shortlex
rules:
a a = 1
b b b = 1
a b a b a b = 1
"""

Z4_Z5 = """monoid
letters: a b
order: shortlex
rules:
a a a a = 1
b b b b b = 1
b a = a b
"""

GROUPS = {"S4": (S4, 24), "A4": (A4, 12), "Z4xZ5": (Z4_Z5, 20), "A5": (A5, 60)}


@pytest.fixture(scope="module", params=sorted(GROUPS))
def group(request):
    text, order = GROUPS[request.param]
    presentation = parse_presentation(text)
    init = system_from_presentation(presentation)
    completion = logged_knuth_bendix(init)
    assert completion.status == "complete"
    return presentation.alphabet.letters, init, completion, order


def elements(letters, sys):
    """Normal forms reachable from the empty word by right multiplication."""
    seen = {normal_form((), sys)}
    frontier = list(seen)
    while frontier:
        word = frontier.pop()
        for letter in letters:
            nf = normal_form(word + (letter,), sys)
            if nf not in seen:
                seen.add(nf)
                frontier.append(nf)
    return seen


def test_normal_forms_count_group_elements(group):
    letters, _, completion, order = group
    assert len(elements(letters, completion.system)) == order


def test_derived_logs_expand_to_initial_rules(group):
    _, init, completion, _ = group
    sys = completion.system
    derived = [rule for rule in sys.rules if rule.rid in sys.logs]
    for rule in derived:
        expanded = expand_log(sys.logs[rule.rid], sys)
        assert expanded.source == rule.lhs
        assert tc.target(expanded, init.rule_map) == rule.rhs


def test_proofs_of_equal_words_replay_on_initial_rules(group):
    letters, init, completion, _ = group
    sys = completion.system
    rng = random.Random(7)
    for _ in range(20):
        w1 = random_word(rng, letters, 10, min_len=1)
        w2 = tc.target(random_cell(rng, init, w1, rng.randint(1, 6)), init.rule_map)
        cell = prove(w1, w2, sys)
        certificate = expand_log(cell, sys)
        assert certificate.source == w1
        assert tc.target(certificate, init.rule_map) == w2


def test_express_leaves_identity_residual(group):
    letters, init, completion, _ = group
    gens = generate(completion, init)
    rng = random.Random(11)
    factors = 0
    for _ in range(6):
        base = random_word(rng, letters, 5, min_len=1)
        loop = random_loop(rng, gens.system, base, rng.randint(1, 6))
        dec = express(loop, gens)
        assert dec.residual.steps == ()
        for factor in dec.factors:
            assert tc.validate(factor.cell, gens.system.rule_map) is None
            assert tc.target(factor.cell, gens.system.rule_map) == base
            assert factor.cell.source == base
        factors += len(dec.factors)
    assert factors > 0


PSL27 = """monoid
letters: a b
order: shortlex
rules:
a a = 1
b b b = 1
a b a b a b a b a b a b a b = 1
a b a b b a b a b b a b a b b a b a b b = 1
"""


def test_psl27_completes_to_168_elements():
    # PSL(2,7) = <a, b | a^2, b^3, (ab)^7, (ab ab^2)^4>
    completion = logged_knuth_bendix(system_from_presentation(parse_presentation(PSL27)))
    assert completion.status == "complete"
    assert len(elements(("a", "b"), completion.system)) == 168


# the length of a Coxeter group's longest element: its number of reflections
LONGEST = {"S4": 6, "S5": 10, "S6": 15, "S7": 21, "B4": 16, "H3": 15, "F4": 24, "H4": 60, "E6": 36}


@pytest.mark.parametrize("name", [*LADDER, "PSL(2,7)", *SCALE_GROUPS])
def test_normal_forms_counted_off_the_index(name):
    text, order = {**LADDER, **SCALE_GROUPS, "PSL(2,7)": (PSL27, 168)}[name]
    completion = logged_knuth_bendix(system_from_presentation(parse_presentation(text)))
    assert completion.status == "complete"
    counts = count_normal_forms(completion.system, 200)
    assert sum(counts) == order
    if name in LONGEST:
        assert len(counts) - 1 == LONGEST[name]
    if name in ("S4", "S5", "S6", "S7"):
        # type A_{n-1}: the growth series is the q-factorial, the product
        # over k = 1..n of 1 + t + ... + t^(k-1)
        series = [1]
        for k in range(1, int(name[1:]) + 1):
            series = [sum(series[max(0, i - k + 1):i + 1]) for i in range(len(series) + k - 1)]
        assert counts == series


def test_count_of_an_infinite_monoid_stops_at_the_bound():
    free = LoggedSystem((), order=OrderSpec(Alphabet(("a", "b"))))
    with pytest.raises(ValueError, match="longer than 5"):
        count_normal_forms(free, 5)
