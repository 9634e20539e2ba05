"""Loop extraction, generating sets, conjugacy reduction, and expression
of loops over the generators."""

import random
from collections import Counter

from hypothesis import example, given, settings
import hypothesis.strategies as st
import pytest

from logrew.core import parse_presentation, word_from_str, word_to_str
from logrew.engine import expand_log, normal_form, reduce_logged, system_from_presentation
from logrew.completion import (
    CompletionLimits, CompletionResult, logged_knuth_bendix,
)
from logrew import endorewrites
from logrew.endorewrites import (
    UnmatchedDiamond, _diamond, decomposition_to_json, express, generate,
    generator_set_to_json, minimize,
)
import logrew.twocell as tc
from logrew.twocell import ChainError, Step, TwoCell, identity

from helpers import (
    A5, LADDER, MERGING, S4, check_retirement, compose_all, critical_pairs, cyclic_core, delta,
    every_branching_resolves, find_overlaps, interchange_normalize, intermediate_words, invert,
    random_cell, random_loop, random_word, replay_in_order, resolve, scan_conjugacy_reduce,
    scan_redexes, signed_factor_sum, step_ends, transport, words_over,
)
from fixture_loops import SE_LOOPS, loop_cell
from test_groups import PSL27

W = word_from_str


@pytest.fixture(scope="module")
def rng():
    return random.Random(90125)


@pytest.fixture(scope="module")
def a5_generators():
    init = system_from_presentation(parse_presentation(A5))
    return generate(logged_knuth_bendix(init), init)


def _assert_own_best_rotations(gens):
    """Each generator's loop is cyclically reduced and based at its one
    greatest word, so it is its own best rotation."""
    rules, key = gens.system.rule_map, gens.system.order.key
    for gen in gens.origin_index.values():
        assert cyclic_core(gen.cell, rules) == gen.cell
        top, *rest = (key(w) for w in intermediate_words(gen.cell, rules)[:-1])
        assert all(top < k for k in rest)


def _pair_on(sys, word, p1, r1, p2, r2):
    """The word with the forward steps of r1 at p1 and of r2 at p2."""
    rules = sys.rule_map
    s1 = Step(word[:p1], r1, 1, word[p1 + len(rules[r1].lhs):])
    s2 = Step(word[:p2], r2, 1, word[p2 + len(rules[r2].lhs):])
    return word, s1, s2


def test_delta_published_overlap(se_init, se_system):
    r2, r3 = se_init.rule_map["r2"], se_init.rule_map["r3"]
    [ov] = [o for o in find_overlaps(r2, r3) if o.superposition == W("s s s e")]
    loop = delta(ov.superposition, ov.left, ov.right, se_system)
    assert loop == loop_cell("se_1")


def test_delta_equal_pair_trivial(se_system):
    cp = _pair_on(se_system, W("e e"), 0, "r1", 0, "r1")
    assert delta(*cp, se_system) == identity(W("e e"))


def test_delta_disjoint_pair_interchange_trivial(se_system, se_rules):
    cp = _pair_on(se_system, W("e e s s s"), 0, "r1", 2, "r2")
    loop = delta(*cp, se_system)
    assert loop.source == W("e e s s s")
    assert interchange_normalize(loop, se_rules) == identity(loop.source)


def test_delta_and_generate_need_a_complete_system(ab_init):
    # ab_monoid's initial rules take a b a to a a one way and to a the other
    [overlap] = [o for o in critical_pairs(ab_init, 0) if o.superposition == W("a b a")]
    unresolved = "^critical branching does not resolve; the system is incomplete$"
    with pytest.raises(ValueError, match=unresolved):  # the helper's mirror of generate's check
        delta(overlap.superposition, overlap.left, overlap.right, ab_init)
    with pytest.raises(ValueError, match="^generator extraction needs a completed system$"):
        generate(CompletionResult(ab_init))
    # the library's check: given a system flagged complete that is not,
    # generate closes each branching itself and finds the one that does not resolve
    flagged = ab_init._copy()
    flagged.complete = True
    with pytest.raises(ValueError, match=unresolved):
        generate(CompletionResult(flagged))


def test_delta_whisker_coherence(se_generators, se_system):
    # an overlap embedded as x.y.z resolves to the whiskered minimal loop;
    # delta builds loops on a superposition only, so the embedded diamond
    # comes from the generator table
    inner = _pair_on(se_system, W("s s s e"), 0, "r2", 1, "r3")
    word, a, b = _pair_on(se_system, W("e s s s e s s"), 1, "r2", 2, "r3")
    d_inner = delta(*inner, se_system)
    outer = TwoCell(word, _diamond(a, b, se_generators)[4])
    assert tc.free_reduce(outer) == tc.free_reduce(
        tc.whisker(W("e"), d_inner, W("s s")))


def test_generate_published_system(se_generators):
    gens = se_generators
    assert len(gens.generators) == 28
    groups = Counter(word_to_str(g.base_element) for g in gens.generators)
    assert groups == {"e": 7, "s": 1, "s s": 1, "e s": 1, "s e": 1, "e s e": 17}
    rules = gens.system.rule_map
    for gen in gens.generators:
        assert tc.validate(gen.cell, rules) is None
        assert tc.target(gen.cell, rules) == gen.cell.source
        assert interchange_normalize(gen.cell, rules).steps
        assert gen.base_element == normal_form(gen.cell.source, gens.system)


def test_generate_covers_two_overlaps_beyond_published_list(se_generators):
    # the published list stops at 26; a full overlap scan also finds the
    # s.s.s|s.e.s.e and e.s.s|s.e.s.e configurations (cross-checked by the
    # brute-force scan in test_completion)
    sups = {word_to_str(g.cell.source) for g in se_generators.generators}
    assert "s s s e s e" in sups
    assert "e s s e s e" in sups


def test_generate_free_monoid(free_presentation):
    init = system_from_presentation(free_presentation)
    comp = logged_knuth_bendix(init)
    gens = generate(comp, init)
    assert gens.generators == ()


def test_generate_ab_monoid(ab_completion, ab_init):
    gens = generate(ab_completion, ab_init)
    assert gens.generators
    rules = gens.system.rule_map
    for gen in gens.generators:
        assert tc.validate(gen.cell, rules) is None
        assert tc.target(gen.cell, rules) == gen.cell.source


def test_generate_deterministic(se_completion, se_init):
    first = generate(se_completion, se_init)
    second = generate(se_completion, se_init)
    assert generator_set_to_json(first) == generator_set_to_json(second)


def test_conjugacy_reduce_identity(se_system):
    assert scan_conjugacy_reduce(identity(W("s e")), se_system) == identity(W("s e"))


def test_conjugacy_reduce_published_generator_unchanged(se_system):
    loop = loop_cell("se_1")
    assert scan_conjugacy_reduce(loop, se_system) == loop


def test_conjugacy_reduce_strips_outer_pair(se_system, se_rules):
    loop = loop_cell("se_1")
    beta = TwoCell(W("s s s s s e"), (Step(W("1"), "r2", 1, W("s s e")),))
    conjugated = compose_all(
        [invert(beta, se_rules), tc.whisker(W("s s"), loop, W("1")), beta],
        se_rules,
    )
    assert scan_conjugacy_reduce(conjugated, se_system) == scan_conjugacy_reduce(
        tc.whisker(W("s s"), loop, W("1")), se_system)


def test_conjugacy_invariance(rng, se_system, se_rules, a5_generators):
    for _ in range(200):
        base = random_word(rng, ("s", "e"), 7, min_len=1)
        gamma = random_loop(rng, se_system, base, rng.randint(0, 5))
        beta = random_cell(rng, se_system, base, rng.randint(0, 4))
        conjugated = compose_all(
            [invert(beta, se_rules), gamma, beta], se_rules)
        assert scan_conjugacy_reduce(conjugated, se_system) == scan_conjugacy_reduce(gamma, se_system)
    # g . g . h visits the words of g twice, so its greatest word is often
    # tied: such loops and their inverses, on se and on A5
    r = random.Random(1729)
    for sys, letters in ((se_system, ("s", "e")), (a5_generators.system, ("a", "b"))):
        rules = sys.rule_map
        for _ in range(100):
            base = random_word(r, letters, 5, min_len=1)
            g, h = (random_loop(r, sys, base, r.randint(1, 6)) for _ in range(2))
            loop = TwoCell(base, g.steps + g.steps + h.steps)
            for gamma in (loop, TwoCell(base, tc.invert_steps(loop.steps))):
                beta = random_cell(r, sys, base, r.randint(0, 4))
                conjugated = compose_all([invert(beta, rules), gamma, beta], rules)
                assert scan_conjugacy_reduce(conjugated, sys) == scan_conjugacy_reduce(gamma, sys)


def test_express_identity(se_generators):
    dec = express(identity(W("s e")), se_generators)
    assert dec.factors == ()
    assert dec.residual == identity(W("s e"))


def test_express_all_published_loops(se_generators, se_system, se_rules):
    for name in SE_LOOPS:
        cell = loop_cell(name)
        dec = express(cell, se_generators)
        assert dec.residual == identity(cell.source), name
        assert signed_factor_sum(dec) == tc.abelianize(cell), name
        for factor in dec.factors:
            assert tc.validate(factor.cell, se_rules) is None
            assert tc.target(factor.cell, se_rules) == factor.cell.source
            assert factor.cell.source == cell.source


def test_express_factor_references_resolve(se_generators):
    known = {g.gid for g in se_generators.generators}
    for name in ("ese_8", "e_2", "ese_14"):
        dec = express(loop_cell(name), se_generators)
        for factor in dec.factors:
            assert factor.gen is None or factor.gen in known


def test_express_published_composite(se_generators, se_rules):
    lhs = TwoCell(W("s s s s e"), (
        Step(W("1"), "r2", 1, W("s e")),
        Step(W("s"), "r2", -1, W("e")),
        Step(W("s"), "r2", 1, W("e")),
        Step(W("s s"), "r3", -1, W("1")),
    ))
    dec = express(lhs, se_generators)
    assert dec.residual == identity(lhs.source)
    assert signed_factor_sum(dec) == tc.abelianize(lhs)
    assert all(factor.gen is not None for factor in dec.factors)


def test_express_random_loops(rng, se_generators, se_system, se_rules):
    for _ in range(150):
        base = random_word(rng, ("s", "e"), 7, min_len=1)
        loop = random_loop(rng, se_system, base, rng.randint(0, 5))
        dec = express(loop, se_generators)
        assert dec.residual == identity(base)
        assert signed_factor_sum(dec) == tc.abelianize(loop)


def test_express_ab_random_loops(rng, ab_completion, ab_init):
    gens = generate(ab_completion, ab_init)
    sys = gens.system
    for _ in range(1000):
        base = random_word(rng, ("a", "b"), 6, min_len=1)
        loop = random_loop(rng, sys, base, rng.randint(0, 5))
        dec = express(loop, gens)
        assert dec.residual == identity(base)
        assert signed_factor_sum(dec) == tc.abelianize(loop)


def test_express_conjugation_factor_content(rng, se_generators, se_system, se_rules):
    for _ in range(50):
        base = random_word(rng, ("s", "e"), 6, min_len=1)
        loop = random_loop(rng, se_system, base, rng.randint(1, 4))
        beta = random_cell(rng, se_system, base, rng.randint(0, 3))
        conjugated = compose_all(
            [invert(beta, se_rules), loop, beta], se_rules)
        left = express(scan_conjugacy_reduce(conjugated, se_system), se_generators)
        right = express(scan_conjugacy_reduce(loop, se_system), se_generators)
        content = lambda dec: Counter(
            (f.gen, f.exp) for f in dec.factors if f.gen is not None)
        assert content(left) == content(right)


@pytest.mark.parametrize("name", ["se", "A5"])
def test_diamond_either_order(name, se_generators, a5_generators):
    # every pair of forward redexes on words up to 7 letters: the diamond
    # runs from a to b^-1, is the generator's loop whiskered (inverted when
    # the pair is not in branching order), and taken the other way round it is
    # inverted and its exponent negated; a disjoint pair closes by its
    # interchange square.
    # The reference finds the generator by its two origin steps, context words
    # and all, not by the (rule id, offset) pairs that key origin_index
    gens, letters = {"se": (se_generators, "se"), "A5": (a5_generators, "ab")}[name]
    rules = gens.system.rule_map
    by_steps = {frozenset((gen.origin.left, gen.origin.right)): gen for gen in gens.generators}
    kinds = Counter()
    for v in words_over(letters, 7):
        steps = [Step(v[:p], rid, 1, v[p + len(rules[rid].lhs):])
                 for p, rid in scan_redexes(v, gens.system)]
        for i, a in enumerate(steps):
            for b in steps[i + 1:]:
                gid, exp, x, z, dia_steps = _diamond(a, b, gens)
                dia = TwoCell(v, dia_steps)
                assert dia.steps[0] == a and dia.steps[-1] == tc.invert_step(b)
                inner_a, inner_b = (
                    Step(s.prefix[len(x):], s.rule, s.exp, s.suffix[:len(s.suffix) - len(z)])
                    for s in (a, b))
                gen = by_steps.get(frozenset((inner_a, inner_b)))
                if gen is not None:
                    in_order = inner_a == gen.origin.left
                    whiskered = tc.whisker(x, gen.cell, z)
                    assert dia == (whiskered if in_order else invert(whiskered, rules))
                    assert (gid, exp) == (gen.gid, 1 if in_order else -1)
                else:
                    assert gid is None
                    # the interchange square: b moved across a, then a moved
                    # across b inverted; they cancel only where they are one
                    # step (two erasing redexes side by side)
                    b_across, a_across = (transport(t, s, step_ends(s, rules)[1], rules)
                                       for s, t in ((a, b), (b, a)))
                    assert dia.steps[1:-1] == (
                        (b_across, tc.invert_step(a_across)) if b_across != a_across else ())
                *other, other_steps = _diamond(b, a, gens)
                assert TwoCell(v, other_steps) == invert(dia, rules)
                assert other == [gid, -exp, x, z]
                kinds["disjoint" if gen is None else "generator"] += 1
    assert kinds["disjoint"] > 0 and kinds["generator"] > 0


@pytest.mark.parametrize("name", [*LADDER, "PSL(2,7)"])
def test_diamonds_find_their_generator_by_rule_and_offset(name):
    # generate's origins are helpers.critical_pairs' records in base element
    # order, discovery breaking ties, so no id moves; each generator's origin
    # steps, whiskered by a random x and z, find it from either order by their
    # (rule id, offset) pairs, with exponent +1 in branching order, else -1
    text = {**LADDER, "PSL(2,7)": (PSL27, 168)}[name][0]
    comp = logged_knuth_bendix(system_from_presentation(parse_presentation(text)))
    gens, sys = generate(comp), comp.system
    branchings = critical_pairs(sys, 0)
    meets = [normal_form(o.superposition, sys) for o in branchings]
    ids = sorted(range(len(branchings)), key=lambda i: (len(meets[i]), sys.order.key(meets[i])))
    assert [gen.origin for gen in gens.generators] == [branchings[i] for i in ids]
    rng, letters = random.Random(7), sys.order.alphabet.letters
    for gen in gens.generators:
        x, z = random_word(rng, letters, 3), random_word(rng, letters, 3)
        a, b = (Step(x + s.prefix, s.rule, 1, s.suffix + z) for s in (gen.origin.left, gen.origin.right))
        for s, t, exp in ((a, b, 1), (b, a, -1)):
            assert _diamond(s, t, gens)[:4] == (gen.gid, exp, x, z)


def test_express_takes_diamonds_from_the_table(monkeypatch, se_generators, a5_generators):
    # every overlapping diamond is the generator table's loop whiskered:
    # express re-derives no branching's two sides
    def rederived(*_):
        raise AssertionError("express re-derived a branching's sides")

    monkeypatch.setattr("logrew.endorewrites.sides", rederived)
    for loop in map(loop_cell, SE_LOOPS):
        assert express(loop, se_generators).residual == identity(loop.source)
    rng = random.Random(1994)
    for _ in range(60):
        base = random_word(rng, ("a", "b"), 6, min_len=1)
        loop = random_loop(rng, a5_generators.system, base, rng.randint(1, 5))
        assert express(loop, a5_generators).residual == identity(base)


@pytest.mark.parametrize("cut, message", [
    (slice(None, -1), r"^factor 3 ends at a b a b b b, not at the base a b a$"),
    (slice(1, None), r"^step expects a b a a a but stands on a b a \(step 0\)$"),
], ids=["last-step", "first-step"])
def test_express_replays_each_factor(monkeypatch, a5_generators, cut, message):
    # the last factor cell, with a step cut off, no longer closes at the
    # base, or no longer replays from it; only express's replay of each
    # factor sees that
    decompose = endorewrites._decompose

    def cut_last(loop, gens):
        *rest, last = decompose(loop, gens)
        return [*rest, last._replace(cell=TwoCell(last.cell.source, last.cell.steps[cut]))]

    loop = random_loop(random.Random(1), a5_generators.system, W("a b a"), 4)
    assert len(express(loop, a5_generators).factors) == 4
    monkeypatch.setattr(endorewrites, "_decompose", cut_last)
    with pytest.raises(ChainError, match=message):
        express(loop, a5_generators)


def _diamonds_of(factor, gens):
    """The diamonds a factor can stand for: its generator's loop whiskered
    by x and z (inverted for exponent -1), or for a trivial factor the
    interchange square of each disjoint pair of forward redexes at the
    conjugator's end whose left one has prefix x and right one suffix z,
    the left step first for exponent 1."""
    sys = gens.system
    rules = sys.rule_map
    if factor.gen is not None:
        dia = tc.whisker(factor.x, gens.by_id(factor.gen).cell, factor.z).steps
        return [dia if factor.exp == 1 else tc.invert_steps(dia)]
    v = tc.target(factor.conjugator, rules)
    redexes = [Step(v[:p], rid, 1, v[p + len(rules[rid].lhs):]) for p, rid in scan_redexes(v, sys)]
    pairs = [(s, t) for s in redexes for t in redexes
             if s.prefix == factor.x and t.suffix == factor.z
             and len(s.prefix) + len(rules[s.rule].lhs) <= len(t.prefix)]
    assert pairs
    return [delta(v, *(pair if factor.exp == 1 else pair[::-1]), sys).steps for pair in pairs]


def test_factor_cells_are_conjugated_diamonds(se_generators, a5_generators):
    # each factor's cell is join(join(conjugator, diamond), conjugator^-1),
    # free reduced at both junctions; no golden file holds a factor's cell
    def check(loop, gens):
        dec = express(loop, gens)
        assert dec.residual == identity(loop.source)
        for factor in dec.factors:
            conj = factor.conjugator.steps
            assert factor.cell.source == factor.conjugator.source == loop.source
            assert factor.cell.steps in [tc.join(tc.join(conj, dia), tc.invert_steps(conj))
                                         for dia in _diamonds_of(factor, gens)]
            assert all(type(s) is Step for s in factor.cell.steps)
            kinds[factor.gen is None] += 1

    kinds = Counter()
    for loop in map(loop_cell, SE_LOOPS):
        check(loop, se_generators)
    rng = random.Random(2718)
    for _ in range(60):
        base = random_word(rng, ("a", "b"), 6, min_len=1)
        check(random_loop(rng, a5_generators.system, base, rng.randint(1, 5)), a5_generators)
    assert kinds[True] > 0 and kinds[False] > 0


def test_factors_replay_in_rewrite_order(se_generators, a5_generators):
    # the factor list is the order peak elimination rewrites the loop in:
    # each factor is the diamond at the leftmost peak, conjugated by the
    # path to it; a loop with no peak left rotates its last step to the front
    for loop in map(loop_cell, SE_LOOPS):
        replay_in_order(loop, express(loop, se_generators).factors)
    s4_generators = generate(logged_knuth_bendix(system_from_presentation(parse_presentation(S4))))
    rng = random.Random(1202)
    for gens, letters in ((a5_generators, ("a", "b")), (s4_generators, ("a", "b", "c"))):
        for _ in range(60):
            base = random_word(rng, letters, 6, min_len=1)
            loop = random_loop(rng, gens.system, base, rng.randint(1, 5))
            replay_in_order(loop, express(loop, gens).factors)


def test_two_reductions_of_one_word_close_into_a_loop_with_long_conjugators(a5_generators):
    # reduce_logged against a reduction by random redexes, both of one
    # 30-letter word to its normal form: peak elimination then walks far
    # into the loop, so conjugators grow well past the endos loops' few steps
    s4_generators = generate(logged_knuth_bendix(system_from_presentation(parse_presentation(S4))))
    rng, longest = random.Random(3), 0
    for gens, letters in ((a5_generators, ("a", "b")), (s4_generators, ("a", "b", "c"))):
        sys, rules = gens.system, gens.system.rule_map
        for _ in range(20):
            word = w = tuple(rng.choice(letters) for _ in range(30))
            steps = []
            while redexes := scan_redexes(w, sys):
                pos, rid = rng.choice(redexes)
                lhs, rhs = rules[rid].lhs, rules[rid].rhs
                steps.append(Step(w[:pos], rid, 1, w[pos + len(lhs):]))
                w = w[:pos] + rhs + w[pos + len(lhs):]
            loop = TwoCell(word, reduce_logged(word, sys).steps + tc.invert_steps(tuple(steps)))
            dec = express(loop, gens)
            assert dec.residual == identity(word)
            replay_in_order(loop, dec.factors)
            longest = max([longest, *(len(f.conjugator.steps) for f in dec.factors)])
    assert longest >= 10


def test_express_rejects_missing_origin(se_generators):
    from logrew.endorewrites import GeneratorSet

    cell = loop_cell("se_1")
    needed = frozenset((("r3", 1), ("r2", 0)))  # r3 on s s s e after one letter, r2 at its start
    assert needed in se_generators.origin_index
    gutted = GeneratorSet(
        se_generators.generators,
        {k: v for k, v in se_generators.origin_index.items() if k != needed},
        se_generators.system,
    )
    with pytest.raises(UnmatchedDiamond):
        express(cell, gutted)


def test_express_over_minimized_set_names_dropped_generator(a5_generators):
    gens = a5_generators
    small = minimize(gens)
    kept = {gen.gid for gen in small.generators}
    dropped = {gen.gid for gen in gens.generators} - kept
    assert len(dropped) == 304  # 340 generators, 36 kept
    for gid in sorted(dropped):
        with pytest.raises(UnmatchedDiamond, match=f"generator {gid} is not in the set"):
            express(gens.by_id(gid).cell, small)


@st.composite
def presentations(draw):
    """Small presentations over 2 or 3 letters with 1 to 4 relations."""
    letters = ("a", "b", "c")[:draw(st.integers(2, 3))]
    word = st.lists(st.sampled_from(letters), max_size=4).map(lambda w: " ".join(w) or "1")
    relations = draw(st.lists(
        st.tuples(word, word).filter(lambda r: r[0] != r[1]), min_size=1, max_size=4))
    return "".join(
        [f"monoid\nletters: {' '.join(letters)}\norder: shortlex\nrules:\n"]
        + [f"{lhs} = {rhs}\n" for lhs, rhs in relations]
    )


@given(presentations())
@example(MERGING)
@settings(max_examples=60, deadline=None)
def test_generate_is_one_loop_per_branching(text):
    # a duplicate loop leaves the set generating, so no branching's loop is
    # merged into another's; ids go by base element (shortest first, the
    # greatest word first within a length), then discovery
    init = system_from_presentation(parse_presentation(text))
    comp = logged_knuth_bendix(init, CompletionLimits(12, 8))
    if comp.status != "complete":
        return
    sys = comp.system
    gens = generate(comp, init)
    branchings = critical_pairs(sys, 0)
    assert len(gens.generators) == len(branchings)
    assert [gen.gid for gen in gens.generators] == [f"g{n}" for n in range(1, len(branchings) + 1)]
    _assert_own_best_rotations(gens)
    meets = [normal_form(o.superposition, sys) for o in branchings]
    ids = sorted(range(len(branchings)), key=lambda i: (len(meets[i]), sys.order.key(meets[i]), i))
    for gen, i in zip(gens.generators, ids):
        o = branchings[i]
        assert gen.origin == o
        assert gen.cell == delta(o.superposition, o.left, o.right, sys)
        assert (gen.cell.source, gen.base_element) == (o.superposition, meets[i])
        assert gens.origin_index[frozenset(((o.left.rule, len(o.left.prefix)),
                                            (o.right.rule, len(o.right.prefix))))] is gen
    assert len(gens.origin_index) == len(branchings)


@given(presentations())
@example(MERGING)
@settings(max_examples=60, deadline=None)
def test_branchings_taken_once_complete_and_express(text):
    init = system_from_presentation(parse_presentation(text))
    comp = logged_knuth_bendix(init, CompletionLimits(12, 8))
    if comp.status != "complete":
        return
    sys = comp.system
    check_retirement(sys)
    # completion took each branching once; the mirror images resolve too
    for a in sys.rules:
        for b in sys.rules:
            for ov in find_overlaps(a, b):
                assert resolve(ov, sys) is None
    for rule in sys.rules:
        if rule.rid in sys.logs:
            expanded = expand_log(sys.logs[rule.rid], sys)
            assert expanded.source == rule.lhs
            assert tc.validate(expanded, init.rule_map) is None
            assert tc.target(expanded, init.rule_map) == rule.rhs
    gens = generate(comp, init)
    rules = gens.system.rule_map
    for gen in gens.origin_index.values():
        for loop in (gen.cell, invert(gen.cell, rules)):
            assert express(loop, gens).residual == identity(loop.source)


def test_disjoint_double_redexes_give_trivial_loops(se_system, se_rules):
    checked = 0
    for w in words_over(("s", "e"), 8):
        redexes = scan_redexes(w, se_system)
        for i, (p1, r1) in enumerate(redexes):
            for p2, r2 in redexes[i + 1:]:
                l1 = len(se_rules[r1].lhs)
                l2 = len(se_rules[r2].lhs)
                if p1 + l1 <= p2 or p2 + l2 <= p1:
                    cp = _pair_on(se_system, w, p1, r1, p2, r2)
                    loop = delta(*cp, se_system)
                    assert interchange_normalize(loop, se_rules) == identity(w)
                    checked += 1
    assert checked > 100


def test_decomposition_json(se_generators):
    dec = express(loop_cell("ese_2"), se_generators)
    data = decomposition_to_json(dec)
    assert data["base"] == "s s e s e"
    assert data["residual"]["steps"] == []
    for factor in data["factors"]:
        assert factor["gen"] == "trivial" or factor["gen"].startswith("g")
        assert factor["exp"] in (1, -1)


def test_generator_set_json(se_generators):
    data = generator_set_to_json(se_generators)
    assert len(data["generators"]) == 28
    entry = data["generators"][0]
    assert set(entry) == {"id", "base_word", "base_element", "origin", "cell"}
    assert set(entry["origin"]) == {"left_rule", "right_rule", "case", "u1", "v1", "u2", "v2"}


def test_empty_rhs_rules_full_pipeline(rng):
    # two mutually inverse generators: rules with empty right-hand sides
    from logrew import parse_presentation, system_from_presentation

    text = "monoid\nletters: a b\norder: shortlex\nrules:\na b = 1\nb a = 1\n"
    init = system_from_presentation(parse_presentation(text))
    comp = logged_knuth_bendix(init)
    assert comp.status == "complete"
    assert every_branching_resolves(comp.system)
    assert normal_form(W("a b b a"), comp.system) == W("1")
    gens = generate(comp, init)
    assert {word_to_str(g.cell.source) for g in gens.generators} == {"a b a", "b a b"}
    for _ in range(100):
        base = random_word(rng, ("a", "b"), 6, min_len=1)
        loop = random_loop(rng, gens.system, base, rng.randint(0, 5))
        dec = express(loop, gens)
        assert dec.residual == identity(base)
        assert signed_factor_sum(dec) == tc.abelianize(loop)
