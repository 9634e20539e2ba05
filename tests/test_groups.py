"""Invariants on groups and monoids beyond the s/e fixture.

Four finite groups: the alternating group A4 as the triangle group
<a, b | a^2, b^3, (ab)^3> and Z4 x Z5, written out here, and the
Coxeter group S4 and A5 = <a, b | a^2, b^3, (ab)^5> from the helpers.
For each, the completed system must have as many normal forms
as the group has elements.  On them, and on five infinite monoids (the
four infinite Coxeter groups of rank 3 and B3+ with Delta), every derived
log must expand to a cell on the initial rules from the rule's lhs to its
rhs, proofs of equal words must replay on the initial rules, and
``express`` must leave an identity residual on random loops.

The ladder, PSL(2,7), H4 and E6 are counted off the lhs index instead,
by ``count_normal_forms``; the element search above checks reduction,
the count checks the index tables.  The nine Coxeter groups among them
are counted at every length, against Solomon's product over their
degrees.  On the ladder, PSL(2,7) and H4, completion's active rules are
compared with the reduced system read off a Todd-Coxeter coset table,
an oracle that does no rewriting; on four groups they must not depend on
the order of the relations, and on the ladder and PSL(2,7) ``normal_form``
and ``prove`` must agree with the cosets of random words.  Completion in
heap order, ``helpers.heap_knuth_bendix``, must reach the same system on
the nine groups.  The four infinite Coxeter groups of
rank 3 are counted by ``growth`` against Steinberg's series, and PSL(2,Z)
and Z x Z against the series of their factors, each to the length that
``growth_length`` computes from the live states of the lhs index and the
series' degrees, which proves them equal at every length.  So are Z and the
free monoid of ``presentations/``.  Positive braid monoids, Garside's
presentations of B3+ and B4+ and B3+ with Delta, are counted by weight
against Deligne's series, and B3+ on its two Artin generators is shown to
stop at its limit.  On four finite groups the generator set makes Squier's
complex exact, over GF(2^31 - 1), at ZM[letters] and ZM[rules], and a
minimized set is shown to fall short.
"""

from functools import cache
import random

from hypothesis import given, settings
import hypothesis.strategies as st
import pytest

from logrew import parse_presentation, system_from_presentation
from logrew.completion import CompletionLimits, logged_knuth_bendix
from logrew.endorewrites import express, generate, minimize
from logrew.engine import Verdict, expand_log, normal_form, prove
import logrew.twocell as tc

from logrew.core import Alphabet, OrderSpec
from logrew.engine import LoggedSystem

import helpers
from conftest import PRESENTATIONS
from helpers import (
    A5, INFINITE_COXETER, LADDER, NINE_GROUPS, S4, SCALE_GROUPS, _series_quotient, cayley_walk, coset_of,
    count_normal_forms, coxeter, deligne_growth, garside, growth, growth_length, heap_knuth_bendix, poly_mul,
    poly_sum, random_cell, random_loop, random_word, reduced_system, relator_pair, solomon_growth,
    squier_ranks, steinberg_growth,
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

B3_DELTA = "monoid\nletters: D a b\norder: shortlex\nrules:\na b a = b a b\na b a = D\n"

# infinite monoids with a finite complete system: name -> presentation
INFINITE = {**{name: coxeter("abc", labels) for name, labels in INFINITE_COXETER.items()},
            "B3+ with Delta": B3_DELTA}

# the invariants hold on every complete system, so they run on both
MONOIDS = {**{name: GROUPS[name][0] for name in sorted(GROUPS)}, **INFINITE}


@cache
def completed(name):
    """The letters, initial system and completion of ``MONOIDS[name]``."""
    presentation = parse_presentation(MONOIDS[name])
    init = system_from_presentation(presentation)
    completion = logged_knuth_bendix(init)
    assert completion.status == "complete"
    return presentation.alphabet.letters, init, completion


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


@pytest.mark.parametrize("name", sorted(GROUPS))
def test_normal_forms_count_group_elements(name):
    letters, _, completion = completed(name)
    assert len(elements(letters, completion.system)) == GROUPS[name][1]


@pytest.mark.parametrize("name", MONOIDS)
def test_derived_logs_expand_to_initial_rules(name):
    _, init, completion = completed(name)
    sys = completion.system
    derived = [rule for rule in sys.rules if rule.rid in sys.logs]
    for rule in derived:
        expanded = expand_log(sys.logs[rule.rid], sys)
        assert expanded.source == rule.lhs
        assert tc.target(expanded, init.rule_map) == rule.rhs


@pytest.mark.parametrize("name", MONOIDS)
def test_proofs_of_equal_words_replay_on_initial_rules(name):
    letters, init, completion = completed(name)
    sys = completion.system
    rng = random.Random(7)
    for _ in range(20):
        w1 = random_word(rng, letters, 10, min_len=1)
        w2 = tc.target(random_cell(rng, init, w1, rng.randint(1, 6)), init.rule_map)
        cell = prove(w1, w2, sys)
        certificate = expand_log(cell, sys)
        assert certificate.source == w1
        assert tc.target(certificate, init.rule_map) == w2


@pytest.mark.parametrize("name", MONOIDS)
def test_express_leaves_identity_residual(name):
    letters, init, completion = completed(name)
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


# the degrees of the finite Coxeter groups: their product is the order, and the
# sum of d - 1 the length of the longest element, the number of reflections;
# type A_{n-1} (S_n) has 2..n, so its growth series is the q-factorial
DEGREES = {"S4": (2, 3, 4), "S5": (2, 3, 4, 5), "S6": (2, 3, 4, 5, 6), "S7": (2, 3, 4, 5, 6, 7),
           "B4": (2, 4, 6, 8), "H3": (2, 6, 10), "F4": (2, 6, 8, 12), "H4": (2, 12, 20, 30),
           "E6": (2, 5, 6, 8, 9, 12)}


@pytest.mark.parametrize("name", [*LADDER, "PSL(2,7)", *SCALE_GROUPS])
def test_normal_forms_counted_off_the_index(name):
    # a Coxeter group's counts, at every length, are Solomon's product
    text, order = {**LADDER, **SCALE_GROUPS, "PSL(2,7)": (PSL27, 168)}[name]
    completion = logged_knuth_bendix(system_from_presentation(parse_presentation(text)))
    assert completion.status == "complete"
    counts = count_normal_forms(completion.system, 200)
    if name in DEGREES:
        assert counts == solomon_growth(DEGREES[name])
    assert sum(counts) == order


@pytest.mark.parametrize("name", [*LADDER, "PSL(2,7)", "H4"])
def test_active_rules_are_the_system_read_off_the_cayley_graph(name):
    # an oracle outside rewriting: the reduced complete system of shortlex is
    # unique, so completion's active rules must be todd_coxeter's, whatever
    # their order and logs; the coset count checks the enumeration itself
    text, order = {**LADDER, **SCALE_GROUPS, "PSL(2,7)": (PSL27, 168)}[name]
    cosets, rules = reduced_system(text)
    assert cosets == order
    sys = logged_knuth_bendix(system_from_presentation(parse_presentation(text))).system
    assert active_rules(sys) == sorted(rules.items())


def active_rules(sys):
    return sorted((rule.lhs, rule.rhs) for rule in sys.rules if rule.rid not in sys.retired)


@pytest.mark.parametrize("name", ["S4", "triangle_r3", "triangle_r5", "B4"])
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_active_rules_do_not_depend_on_the_order_of_the_relations(name, data):
    # the oracle's system is the group's, so any order of the relation lines
    # must complete to it, whatever rules, logs and retirements lie on the way
    head, relations = LADDER[name][0].split("rules:\n")
    lines = data.draw(st.permutations(relations.splitlines()))
    text = head + "rules:\n" + "".join(line + "\n" for line in lines)
    sys = logged_knuth_bendix(system_from_presentation(parse_presentation(text))).system
    assert active_rules(sys) == sorted(reduced_system(LADDER[name][0])[1].items())


# the ladder and PSL(2,7): name -> (presentation, group order)
WALKED = {**LADDER, "PSL(2,7)": (PSL27, 168)}


@cache
def walked(name):
    """The completed system of a group of WALKED, and its Cayley walk."""
    text = WALKED[name][0]
    return logged_knuth_bendix(system_from_presentation(parse_presentation(text))).system, cayley_walk(text)


@pytest.mark.parametrize("name", WALKED)
def test_normal_forms_are_the_least_words_of_their_cosets(name):
    sys, (letters, table, least) = walked(name)
    rng = random.Random(5)
    for _ in range(40):
        word = random_word(rng, letters, 30)
        assert normal_form(word, sys) == least[coset_of(word, letters, table)], word


@pytest.mark.parametrize("name", WALKED)
def test_prove_answers_not_equal_exactly_for_different_cosets(name):
    # half the pairs are equal by a relator inserted, half independent words,
    # which in these groups mostly name different cosets
    sys, (letters, table, _) = walked(name)
    text = WALKED[name][0]
    rng = random.Random(9)
    seen = set()
    for i in range(30):
        if i % 2:
            w1, w2 = relator_pair(rng, text, rng.randint(0, 12))
        else:
            w1, w2 = random_word(rng, letters, 12), random_word(rng, letters, 12)
        different = coset_of(w1, letters, table) != coset_of(w2, letters, table)
        outcome = prove(w1, w2, sys)
        assert (outcome is Verdict.NOT_EQUAL) == different, (w1, w2)
        if not different:
            assert tc.target(outcome, sys.rule_map) == w2
        seen.add(different)
    assert seen == {True, False}


@pytest.mark.parametrize("name", NINE_GROUPS)
def test_heap_order_reaches_the_reduced_system(name, monkeypatch):
    # ROADMAP item 2's reference: completion that takes the shortest live
    # superposition first ends at the same reduced system as FIFO, and between
    # two added rules it resolves branchings by nondecreasing length
    text, order = NINE_GROUPS[name]
    resolve, runs = helpers.resolve, [[]]

    def recorded_resolve(overlap, sys):
        outcome = resolve(overlap, sys)
        runs[-1].append(len(overlap.superposition))
        if outcome is not None:
            runs.append([])
        return outcome

    monkeypatch.setattr(helpers, "resolve", recorded_resolve)
    init = system_from_presentation(parse_presentation(text))
    result = heap_knuth_bendix(init)
    assert result.system.complete and not result.pending
    assert active_rules(result.system) == sorted(reduced_system(text)[1].items())
    assert sum(count_normal_forms(result.system, 200)) == order
    assert all(run == sorted(run) for run in runs)
    # stopped after one derived rule, it leaves branchings pending, and resuming ends alike
    stopped = heap_knuth_bendix(init, CompletionLimits(len(init.rules) + 1, 64))
    if len(result.system.rules) > len(init.rules) + 1:
        assert stopped.pending and not stopped.system.complete
    assert active_rules(heap_knuth_bendix(stopped.system).system) == active_rules(result.system)


# two series written out, to check the formula as well as the counts
STEINBERG = {"A~2": [1, *range(3, 34, 3)], "(2,3,7)": [1, 3, 5, 7, 9, 12, 16, 20, 24, 28, 33, 40]}


@pytest.mark.parametrize("name", INFINITE_COXETER)
def test_infinite_coxeter_groups_grow_as_steinbergs_series(name):
    # counts to growth_length, so at every length: they do not depend on rule order or logs
    labels = INFINITE_COXETER[name]
    completion = logged_knuth_bendix(system_from_presentation(parse_presentation(coxeter("abc", labels))))
    assert completion.status == "complete"
    num, den = steinberg_growth("abc", labels)
    n = growth_length(completion.system, num, den)
    series = _series_quotient(num, den, n)
    assert growth(completion.system, n) == series
    assert series[:12] == STEINBERG.get(name, series[:12])


PSL2Z = """monoid
letters: a b
order: shortlex
rules:
a a = 1
b b b = 1
"""

Z2 = """monoid
letters: a A b B
order: shortlex
rules:
a A = 1
A a = 1
b B = 1
B b = 1
b a = a b
B a = a B
b A = A b
B A = A B
"""


def _product_growth():
    """Z x Z over a, A, b, B: the square of Z's series (1 + t) / (1 - t)."""
    return poly_mul([1, 1], [1, 1]), poly_mul([1, -1], [1, -1])


def _free_product_growth():
    """Z2 * Z3 = <a | a^2> * <b | b^3>: 1 / f = 1 / u + 1 / v - 1 for the
    factors' series u = 1 + t and v = 1 + t + t^2, so f = u v / (u + v - u v)."""
    u, v = [1, 1], [1, 1, 1]
    uv = poly_mul(u, v)
    return uv, poly_sum(u, v, [-c for c in uv])


@pytest.mark.parametrize("text, series", [(PSL2Z, _free_product_growth()), (Z2, _product_growth())],
                         ids=["PSL(2,Z)", "ZxZ"])
def test_infinite_groups_grow_as_their_factors_give(text, series):
    # a free product and a direct product: their series follow from their
    # factors', so counts to growth_length check the completion at every length
    completion = logged_knuth_bendix(system_from_presentation(parse_presentation(text)))
    assert completion.status == "complete"
    n = growth_length(completion.system, *series)
    assert growth(completion.system, n) == _series_quotient(*series, n)


def test_count_of_an_infinite_monoid_stops_at_the_bound():
    free = LoggedSystem((), order=OrderSpec(Alphabet(("a", "b"))))
    with pytest.raises(ValueError, match="longer than 5"):
        count_normal_forms(free, 5)


# Squier's complex over ZM, ranks over GF(2^31 - 1): name -> (rank d2, rank d3)
SQUIER = {"S4": (49, 311), "triangle_r3": (13, 83), "triangle_r4": (25, 239), "Z8xZ9": (73, 143)}


@cache
def ladder_generators(name):
    completion = logged_knuth_bendix(system_from_presentation(parse_presentation(LADDER[name][0])))
    assert completion.status == "complete"
    return generate(completion)


@pytest.mark.parametrize("name", SQUIER)
def test_generators_make_squiers_complex_exact(name):
    # the loops of generate span the kernel of d2, linearly over ZM: a set
    # that missed a loop, or logged one with a wrong exponent or prefix, would
    # give d3 another rank (every exponent +1 reads 360 on S4, no prefix 288)
    gens = ladder_generators(name)
    size, d2, d3 = squier_ranks(gens)
    assert size == LADDER[name][1]
    assert d2 == (len(gens.system.order.alphabet.letters) - 1) * size + 1
    assert d3 == len(gens.system.rules) * size - d2
    assert (d2, d3) == SQUIER[name]


@pytest.mark.parametrize("name, kept", [("S4", 310), ("Z8xZ9", 135)])
def test_a_minimized_set_is_not_a_homotopy_basis(name, kept):
    # minimize compares abelianizations only: its kept set falls short of
    # exactness at ZM[rules] (ROADMAP item 8; item 10 would close the gap)
    assert squier_ranks(minimize(ladder_generators(name)))[2] == kept < SQUIER[name][1]


def simple_lengths(text):
    """Each letter of a Garside presentation to its simple braid's length."""
    return {x: len(x) for x in parse_presentation(text).alphabet.letters}


def test_delignes_series_of_b3_and_b4():
    assert deligne_growth("ab", [3]) == [1, -2, 0, 1]
    assert deligne_growth("abc", [3, 3]) == [1, -3, 1, 2, 0, 0, -1]


@pytest.mark.parametrize("text, weight, labels, rules", [
    (garside(3), simple_lengths(garside(3)), [3], 12),
    (garside(4), simple_lengths(garside(4)), [3, 3], 342),
    (B3_DELTA, {"D": 3, "a": 1, "b": 1}, [3], 6),
], ids=["Garside B3+", "Garside B4+", "B3+ with Delta"])
def test_artin_monoids_grow_as_delignes_series(text, weight, labels, rules):
    # positive braid monoids, each letter weighted by its length over the
    # Artin generators: their irreducible words of each weight are the
    # monoid's elements of that length, whose series Deligne's sum gives
    completion = logged_knuth_bendix(system_from_presentation(parse_presentation(text)),
                                     CompletionLimits(max_rules=400))
    assert (completion.status, len(completion.system.rules)) == ("complete", rules)
    den = deligne_growth("abc"[:len(labels) + 1], labels)
    assert growth(completion.system, 13, weight) == _series_quotient([1], den, 13)


@pytest.mark.parametrize("name, series", [("int_monoid", ([1, 1], [1, -1])), ("free_monoid", ([1], [1, -2]))])
def test_monoids_of_the_presentations_grow_as_their_series(name, series):
    # Z = <a, b | a b, b a>, (1 + t) / (1 - t), and the free monoid on two letters, 1 / (1 - 2t)
    text = (PRESENTATIONS / f"{name}.txt").read_text(encoding="utf-8")
    completion = logged_knuth_bendix(system_from_presentation(parse_presentation(text)))
    assert completion.status == "complete"
    n = growth_length(completion.system, *series)
    assert growth(completion.system, n) == _series_quotient(*series, n)


def test_positive_braid_monoid_on_two_letters_stops_at_its_limit():
    # B3+ = <a, b | a b a = b a b> has no finite shortlex completion on {a, b}:
    # it derives a b^n a b -> b a b b a^(n-1) for each n >= 2 until an lhs
    # would pass 64 letters
    text = "monoid\nletters: a b\norder: shortlex\nrules:\na b a = b a b\n"
    result = logged_knuth_bendix(system_from_presentation(parse_presentation(text)))
    assert result.status == "limit" and result.pending
    family = [(("a",) + ("b",) * n + ("a", "b"), ("b", "a", "b", "b") + ("a",) * (n - 1))
              for n in range(2, 62)]
    assert [rule[1:] for rule in result.system.rules] == [(("a", "b", "a"), ("b", "a", "b")), *family]
