"""Two-cell algebra: replay, composition, whiskering, normalization."""

import random

import pytest
from hypothesis import example, given, settings
import hypothesis.strategies as st

from logrew.completion import Overlap, logged_knuth_bendix
from logrew.core import Rule, parse_presentation, word_from_str
from logrew.engine import LoggedSystem, expand_log, reduce_into, replay_moves, system_from_presentation
import logrew.twocell as tc
from logrew.twocell import ChainError, Step, TwoCell, cell_from_json, cell_to_json, identity

from helpers import (
    A5, LADDER, compose, compose_all, critical_pairs, interchange_normalize, invert, random_cell,
    random_loop, random_word, step_ends, swap_adjacent, transport,
)
from fixture_loops import SE_LOOPS, loop_cell

W = word_from_str


@pytest.fixture(scope="module")
def rng():
    return random.Random(20240817)


def one_step(prefix, rid, exp, suffix):
    return TwoCell(None, (Step(W(prefix), rid, exp, W(suffix)),))


def test_target_identity(se_rules):
    assert tc.target(identity(W("s e")), se_rules) == W("s e")


def test_target_one_step(se_rules):
    cell = TwoCell(W("s s s e"), (Step(W("1"), "r2", 1, W("e")),))
    assert tc.target(cell, se_rules) == W("s e")


def test_target_chain_broken(se_rules):
    cell = TwoCell(W("e e"), (
        Step(W("1"), "r1", 1, W("1")),
        Step(W("e"), "r1", 1, W("1")),  # stands on "e", needs "e e e"
    ))
    with pytest.raises(ChainError) as err:
        tc.target(cell, se_rules)
    assert err.value.index == 1


def test_target_error_contract(se_rules):
    # the message and index of each way a replay fails, and the index
    # validate gives for it: a misaligned step, an unknown rule, and a bad
    # exponent, which is a ValueError of step_io's and not a ChainError
    down = Step(W("1"), "r1", 1, W("1"))  # e e -> e
    for steps, message, index in (
        ((down, Step(W("e"), "r1", 1, W("1"))), "step expects e e e but stands on e", 1),
        ((Step(W("1"), "r1", -1, W("1")),), "step expects e but stands on e e", 0),
        ((down, down), "step expects e e but stands on e", 1),
        ((down, Step(W("1"), "r1", -1, W("s"))), "step expects e s but stands on e", 1),
        ((Step(W("1"), "r99", 1, W("1")),), "unknown rule 'r99'", 0),
        ((down, Step(W("1"), "r99", 2, W("1"))), "unknown rule 'r99'", 1),
    ):
        cell = TwoCell(W("e e"), steps)
        with pytest.raises(ChainError) as err:
            tc.target(cell, se_rules)
        assert str(err.value) == f"{message} (step {index})"
        assert err.value.index == index
        assert tc.validate(cell, se_rules) == index
    cell = TwoCell(W("1"), (Step(W("1"), "r1", 1, W("1")),))
    with pytest.raises(ChainError, match=r"^step expects e e but stands on 1 \(step 0\)$"):
        tc.target(cell, se_rules)
    for exp, index in ((2, 0), (0, 1)):
        steps = (down,) * index + (Step(W("1"), "r1", exp, W("1")),)
        for replay in (tc.target, tc.validate):
            with pytest.raises(ValueError, match=rf"^step exponent must be \+1 or -1, got {exp}$") as err:
                replay(TwoCell(W("e e"), steps), se_rules)
            assert type(err.value) is ValueError


def test_validate_fixture_loops(se_rules):
    for name in SE_LOOPS:
        cell = loop_cell(name)
        assert tc.validate(cell, se_rules) is None, name
        assert tc.target(cell, se_rules) == cell.source, name


def test_validate_identity_and_corruption(se_rules):
    assert tc.validate(identity(W("s s")), se_rules) is None
    good = loop_cell("se_1")
    bad_step = Step(good.steps[1].suffix, good.steps[1].rule,
                    good.steps[1].exp, good.steps[1].prefix)
    bad = TwoCell(good.source, (good.steps[0], bad_step))
    assert tc.validate(bad, se_rules) == 1


def test_validate_unknown_rule(se_rules):
    cell = TwoCell(W("e"), (Step(W("1"), "r99", 1, W("1")),))
    assert tc.validate(cell, se_rules) == 0


def test_compose_identities(se_rules):
    e = identity(W("s e"))
    assert compose(e, e, se_rules) == e


def test_compose_overlap_loop(se_rules):
    down_left = TwoCell(W("s s s e"), (Step(W("1"), "r2", 1, W("e")),))
    down_right = TwoCell(W("s s s e"), (Step(W("s"), "r3", 1, W("1")),))
    loop = compose(down_left, invert(down_right, se_rules), se_rules)
    assert loop == loop_cell("se_1")


def test_compose_endpoint_mismatch(se_rules):
    with pytest.raises(ChainError):
        compose(identity(W("s")), identity(W("e")), se_rules)


def test_malformed_calls_raise_value_error(se_rules):
    # an exponent other than +1 or -1, and the tests' reference transport
    # across an overlapping step: r2 (s s s) and r3 (s s e) on s s s e
    with pytest.raises(ValueError, match=r"^step exponent must be \+1 or -1, got 2$"):
        tc.step_io(Step(W("1"), "r1", 2, W("1")), se_rules)
    across, step = Step(W("1"), "r2", 1, W("e")), Step(W("s"), "r3", 1, W("1"))
    with pytest.raises(ValueError, match="^steps are not disjoint$"):
        transport(step, across, step_ends(across, se_rules)[1], se_rules)


def test_invert_identity_and_one_step(se_rules):
    assert invert(identity(W("s")), se_rules) == identity(W("s"))
    cell = TwoCell(W("s s s e"), (Step(W("1"), "r2", 1, W("e")),))
    inv = invert(cell, se_rules)
    assert inv == TwoCell(W("s e"), (Step(W("1"), "r2", -1, W("e")),))
    assert invert(inv, se_rules) == cell


def test_free_reduce_kills_conjugate_tail(rng, se_system, se_rules):
    for _ in range(100):
        base = random_word(rng, ("s", "e"), 6, min_len=1)
        cell = random_cell(rng, se_system, base, rng.randint(0, 6))
        comp = compose(cell, invert(cell, se_rules), se_rules)
        assert tc.free_reduce(comp) == identity(base)


def test_free_reduce_idempotent(rng, se_system, se_rules):
    for _ in range(500):
        base = random_word(rng, ("s", "e"), 6, min_len=1)
        cell = random_cell(rng, se_system, base, rng.randint(0, 6))
        once = tc.free_reduce(cell)
        assert tc.free_reduce(once) == once
        assert tc.validate(once, se_rules) is None


def test_groupoid_associativity_after_reduction(rng, se_system, se_rules):
    for _ in range(100):
        base = random_word(rng, ("s", "e"), 6, min_len=1)
        a = random_cell(rng, se_system, base, 2)
        b = random_cell(rng, se_system, tc.target(a, se_rules), 2)
        c = random_cell(rng, se_system, tc.target(b, se_rules), 2)
        left = compose(compose(a, b, se_rules), c, se_rules)
        right = compose(a, compose(b, c, se_rules), se_rules)
        assert tc.free_reduce(left) == tc.free_reduce(right)


def test_whisker_identity_laws(se_rules):
    assert tc.whisker(W("s"), identity(W("e")), W("s s")) == identity(W("s e s s"))
    cell = loop_cell("se_1")
    assert tc.whisker(W("1"), cell, W("1")) == cell


def test_builders_make_steps():
    # the builders make each step and overlap with tuple.__new__: still a
    # Step or Overlap, equal, hashing and printing as the constructor's value
    cell = loop_cell("ese_8")
    built = [tc.invert_step(cell.steps[0]), *tc.invert_steps(cell.steps),
             *tc.whisker(W("e"), cell, W("s")).steps, *cell_from_json(cell_to_json(cell)).steps]
    # critical_pairs of a completed ladder system, and of one whose later lhs
    # holds an earlier one (case i); replay_moves and expand_log of reductions
    sys = logged_knuth_bendix(system_from_presentation(parse_presentation(LADDER["B4"][0]))).system
    nested = LoggedSystem((Rule("r1", W("a a"), W("a")), Rule("r2", W("b a a"), W("b"))), order=sys.order)
    overlaps = critical_pairs(sys, 0) + critical_pairs(nested, 0)
    assert {overlap.case for overlap in overlaps} == {"i", "ii", "iii", "iv"}
    for overlap in overlaps:
        same = Overlap(*overlap)
        assert type(overlap) is Overlap
        assert (overlap, hash(overlap), repr(overlap)) == (same, hash(same), repr(same))
        moves = []
        reduce_into(overlap.superposition, sys, moves)
        replayed = replay_moves(overlap.superposition, moves, sys)
        expanded = expand_log(TwoCell(overlap.superposition, replayed), sys).steps
        built += [overlap.left, overlap.right, *replayed, *expanded]
    for step in built:
        same = Step(*step)
        assert type(step) is Step
        assert (step, hash(step), repr(step)) == (same, hash(same), repr(same))


def test_whisker_functoriality(rng, se_system, se_rules):
    for _ in range(100):
        base = random_word(rng, ("s", "e"), 5, min_len=1)
        a = random_cell(rng, se_system, base, 2)
        b = random_cell(rng, se_system, tc.target(a, se_rules), 2)
        u, v = random_word(rng, ("s", "e"), 2), random_word(rng, ("s", "e"), 2)
        left = tc.whisker(u, compose(a, b, se_rules), v)
        right = compose(tc.whisker(u, a, v), tc.whisker(u, b, v), se_rules)
        assert left == right
        u1, v1 = random_word(rng, ("s", "e"), 2), random_word(rng, ("s", "e"), 2)
        assert tc.whisker(u1, tc.whisker(u, a, v), v1) == tc.whisker(u1 + u, a, v + v1)


def test_horizontal_compose_identities(se_rules):
    # a o b: a whiskered by b's source, then b whiskered by a's target
    a, b = identity(W("s")), identity(W("e e"))
    h = compose(tc.whisker(W("1"), a, b.source),
                   tc.whisker(tc.target(a, se_rules), b, W("1")), se_rules)
    assert h == identity(W("s e e"))


def test_horizontal_compose_concatenates_sources(rng, se_system, se_rules):
    for _ in range(50):
        a = random_cell(rng, se_system, random_word(rng, ("s", "e"), 4, 1), 2)
        b = random_cell(rng, se_system, random_word(rng, ("s", "e"), 4, 1), 2)
        h = compose(tc.whisker(W("1"), a, b.source),
                       tc.whisker(tc.target(a, se_rules), b, W("1")), se_rules)
        assert h.source == a.source + b.source
        assert tc.target(h, se_rules) == tc.target(a, se_rules) + tc.target(b, se_rules)


def test_horizontal_compose_both_orders_normalize_equal(rng, se_system, se_rules):
    # one-step cells: left-then-right and right-then-left representatives
    for _ in range(100):
        a = random_cell(rng, se_system, random_word(rng, ("s", "e"), 4, 1), 1)
        b = random_cell(rng, se_system, random_word(rng, ("s", "e"), 4, 1), 1)
        form1 = compose(tc.whisker(W("1"), a, b.source),
                           tc.whisker(tc.target(a, se_rules), b, W("1")), se_rules)
        form2 = compose(tc.whisker(a.source, b, W("1")),
                           tc.whisker(W("1"), a, tc.target(b, se_rules)), se_rules)
        assert interchange_normalize(form1, se_rules) == interchange_normalize(form2, se_rules)


DIAMOND_X, DIAMOND_Y, DIAMOND_Z = W("s"), W("s"), W("e")


def _disjoint_diamond(se_rules):
    # two independent redexes: r1 at position 1, r2 at position 4
    w = W("s e e s s s s e")
    path1 = TwoCell(w, (
        Step(W("s"), "r1", 1, W("s s s s e")),
        Step(W("s e s"), "r2", 1, W("e")),
    ))
    path2 = TwoCell(w, (
        Step(W("s e e s"), "r2", 1, W("e")),
        Step(W("s"), "r1", 1, W("s s e")),
    ))
    return compose(path1, invert(path2, se_rules), se_rules)


def test_interchange_disjoint_diamond_trivial(se_rules):
    diamond = _disjoint_diamond(se_rules)
    assert len(diamond.steps) == 4
    assert interchange_normalize(diamond, se_rules) == identity(diamond.source)


def test_interchange_one_step_fixed_point(se_rules):
    cell = TwoCell(W("s s s e"), (Step(W("1"), "r2", 1, W("e")),))
    assert interchange_normalize(cell, se_rules) == cell


def _published_relation_cells():
    lhs = TwoCell(W("s s s s e"), (
        Step(W("1"), "r2", 1, W("s e")),
        Step(W("s"), "r2", -1, W("e")),
        Step(W("s"), "r2", 1, W("e")),
        Step(W("s s"), "r3", -1, W("1")),
    ))
    rhs = TwoCell(W("s s s s e"), (
        Step(W("1"), "r2", 1, W("s e")),
        Step(W("s s"), "r3", -1, W("1")),
    ))
    return lhs, rhs


def test_interchange_published_relation(se_rules):
    lhs, rhs = _published_relation_cells()
    assert tc.validate(lhs, se_rules) is None
    assert tc.validate(rhs, se_rules) is None
    assert interchange_normalize(lhs, se_rules) == interchange_normalize(rhs, se_rules)


def test_interchange_preserves_endpoints_and_counts(rng, se_system, se_rules):
    for _ in range(200):
        base = random_word(rng, ("s", "e"), 6, min_len=1)
        cell = random_cell(rng, se_system, base, rng.randint(0, 6))
        norm = interchange_normalize(cell, se_rules)
        assert norm.source == cell.source
        assert tc.validate(norm, se_rules) is None
        assert tc.target(norm, se_rules) == tc.target(cell, se_rules)
        assert tc.abelianize(norm) == tc.abelianize(cell)
        assert interchange_normalize(norm, se_rules) == norm


def test_cells_equal_mod_I(se_rules):
    # equal interchange normal forms prove two cells interchange-equal
    norm = lambda cell: interchange_normalize(cell, se_rules)
    cell = loop_cell("se_1")
    assert norm(cell) == norm(cell)
    lhs, rhs = _published_relation_cells()
    assert norm(lhs) == norm(rhs)
    # different base words can never normalize equal
    assert norm(loop_cell("se_1")) != norm(loop_cell("es_1"))


def test_cells_equal_mod_I_is_sound(rng, se_system, se_rules):
    for _ in range(100):
        base = random_word(rng, ("s", "e"), 5, min_len=1)
        a = random_cell(rng, se_system, base, 3)
        b = random_cell(rng, se_system, base, 3)
        if interchange_normalize(a, se_rules) == interchange_normalize(b, se_rules):
            assert tc.target(a, se_rules) == tc.target(b, se_rules)
            assert tc.abelianize(a) == tc.abelianize(b)


def test_abelianize_examples(se_rules):
    assert tc.abelianize(identity(W("s e"))) == {}
    assert tc.abelianize(loop_cell("se_1")) == {"r2": 1, "r3": -1}


def test_abelianize_invariance(rng, se_system, se_rules):
    for _ in range(200):
        base = random_word(rng, ("s", "e"), 6, min_len=1)
        cell = random_cell(rng, se_system, base, rng.randint(0, 5))
        assert tc.abelianize(tc.free_reduce(cell)) == tc.abelianize(cell)
        loop = random_loop(rng, se_system, base, rng.randint(0, 4))
        b = random_cell(rng, se_system, base, rng.randint(0, 4))
        conjugated = compose_all(
            [invert(b, se_rules), loop, b], se_rules)
        assert tc.abelianize(conjugated) == tc.abelianize(loop)


def test_json_round_trip(se_rules):
    for name in ("se_1", "ese_8", "e_2"):
        cell = loop_cell(name)
        data = cell_to_json(cell)
        assert cell_from_json(data) == cell
    data = cell_to_json(identity(W("1")))
    assert data["source"] == "1"
    assert cell_from_json(data) == identity(())


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=150, deadline=None)
def test_cell_laws_property(seed, se_system, se_rules):
    r = random.Random(seed)
    base = random_word(r, ("s", "e"), 6, min_len=1)
    cell = random_cell(r, se_system, base, r.randint(0, 6))
    # inversion is an involution and kills the cell under free reduction
    assert invert(invert(cell, se_rules), se_rules) == cell
    assert tc.free_reduce(
        compose(cell, invert(cell, se_rules), se_rules)) == identity(base)
    # serialization and normalization leave the replayed endpoints alone
    assert cell_from_json(cell_to_json(cell)) == cell
    norm = interchange_normalize(cell, se_rules)
    assert tc.target(norm, se_rules) == tc.target(cell, se_rules)
    assert tc.abelianize(norm) == tc.abelianize(cell)


@pytest.fixture(scope="module")
def a5_system():
    return logged_knuth_bendix(system_from_presentation(parse_presentation(A5))).system


def _commutator(r, sys, letters):
    """c . d . c^-1 . d^-1 for random cells c, d side by side on u v: the
    steps of each must swap past the other's to cancel."""
    u, v = (random_word(r, letters, 4, min_len=1) for _ in range(2))
    c, d = (random_cell(r, sys, w, r.randint(1, 4)) for w in (u, v))
    rules = sys.rule_map
    cu, dv = tc.target(c, rules), tc.target(d, rules)
    return compose_all([
        tc.whisker((), c, v), tc.whisker(cu, d, ()),
        tc.whisker((), invert(c, rules), dv), tc.whisker(u, invert(d, rules), ()),
    ], rules)


@given(seed=st.integers(0, 2**32 - 1), group=st.sampled_from(["se", "A5"]),
       kind=st.sampled_from(["cell", "loop", "commutator"]))
@settings(max_examples=300, deadline=None)
def test_interchange_normalize_reaches_a_fixpoint(seed, group, kind, se_system, a5_system):
    sys = se_system if group == "se" else a5_system
    rules = sys.rule_map
    letters = ("s", "e") if group == "se" else ("a", "b")
    r = random.Random(seed)
    if kind == "commutator":
        cell = _commutator(r, sys, letters)
    else:
        base = random_word(r, letters, 6, min_len=1)
        make = random_cell if kind == "cell" else random_loop
        cell = make(r, sys, base, r.randint(0, 12))
    norm = interchange_normalize(cell, rules)
    assert norm.source == cell.source
    assert tc.target(norm, rules) == tc.target(cell, rules)
    assert tc.abelianize(norm) == tc.abelianize(cell)
    assert interchange_normalize(norm, rules) == norm
    # no adjacent pair swaps into left-to-right order, and none cancels
    for a, b in zip(norm.steps, norm.steps[1:]):
        assert swap_adjacent(a, b, rules) is None
        assert b != tc.invert_step(a)


@given(seed=st.integers(0, 2**32 - 1), group=st.sampled_from(["se", "A5"]),
       kind=st.sampled_from(["walk", "undo", "undo_then_walk", "empty"]))
@settings(max_examples=300, deadline=None)
def test_join_is_free_reduction_of_the_product(seed, group, kind, se_system, a5_system):
    # b undoes none, some or all of a's last steps (and may walk on), so the
    # junction cancels anywhere from nothing to the whole of a or of b
    sys = se_system if group == "se" else a5_system
    rules = sys.rule_map
    letters = ("s", "e") if group == "se" else ("a", "b")
    r = random.Random(seed)
    a = tc.free_reduce(random_cell(r, sys, random_word(r, letters, 6, min_len=1), r.randint(0, 8)))
    middle = tc.target(a, rules)
    if kind == "empty":  # either side, or both
        if r.random() < 0.5:
            a = TwoCell(middle, ())
        b = tc.free_reduce(random_cell(r, sys, middle, r.randint(0, 8) if not a.steps else 0))
    else:
        k = r.randint(0, len(a.steps)) if kind != "walk" else 0
        undo = tc.invert_steps(a.steps[len(a.steps) - k:])
        after = tc.target(TwoCell(middle, undo), rules)
        walk = random_cell(r, sys, after, r.randint(0, 8) if kind != "undo" else 0)
        b = tc.free_reduce(TwoCell(middle, undo + walk.steps))
    joined = tc.join(a.steps, b.steps)
    assert joined == tc.free_reduce(TwoCell(a.source, a.steps + b.steps)).steps
    assert tc.target(TwoCell(a.source, joined), rules) == tc.target(b, rules)


def _draw_rules(draw):
    """Up to four rules over 2 or 3 letters, some with an empty rhs, and a
    strategy for words over those letters."""
    letters = ("a", "b", "c")[:draw(st.integers(2, 3))]

    def words(lo, hi):
        return st.lists(st.sampled_from(letters), min_size=lo, max_size=hi).map(tuple)

    rules = {}
    for n in range(1, draw(st.integers(1, 4)) + 1):
        lhs = draw(words(1, 3))
        rhs = draw(st.one_of(st.just(()), words(0, len(lhs) - 1)))
        rules[f"r{n}"] = Rule(f"r{n}", lhs, rhs)
    return rules, words


def _draw_rule(draw, rules):
    """A rule id, an exponent +1 or -1, and the input of such a step."""
    rid, exp = draw(st.sampled_from(sorted(rules))), draw(st.sampled_from((1, -1)))
    return rid, exp, rules[rid].lhs if exp == 1 else rules[rid].rhs


@st.composite
def disjoint_steps(draw):
    """Rules, a word, and two steps on disjoint regions of it.  The word is
    x . in1 . y . in2 . z, so two empty inputs with y empty sit at one
    position."""
    rules, words = _draw_rules(draw)
    rid1, exp1, in1 = _draw_rule(draw, rules)
    rid2, exp2, in2 = _draw_rule(draw, rules)
    x, y, z = draw(words(0, 2)), draw(words(0, 2)), draw(words(0, 2))
    steps = [Step(x, rid1, exp1, y + in2 + z), Step(x + in1 + y, rid2, exp2, z)]
    if draw(st.booleans()):
        steps.reverse()
    return rules, x + in1 + y + in2 + z, *steps


@st.composite
def adjacent_steps(draw):
    """Rules, a word, a step on it, and any step on that step's target."""
    rules, words = _draw_rules(draw)
    rid, exp, inw = _draw_rule(draw, rules)
    x, z = draw(words(0, 3)), draw(words(0, 3))
    first = Step(x, rid, exp, z)
    middle = step_ends(first, rules)[1]
    seconds = [
        Step(middle[:p], rule.rid, sign, middle[p + len(taken):])
        for rule in rules.values()
        for sign, taken in ((1, rule.lhs), (-1, rule.rhs))
        for p in range(len(middle) + 1)
        if middle[p:p + len(taken)] == taken
    ]
    return rules, x + inw + z, first, draw(st.sampled_from(seconds))


# the tie: inverse steps of rules with an empty rhs, with empty inputs at position 1
TIE_RULES = {"r1": Rule("r1", W("a a"), ()), "r2": Rule("r2", W("b b"), ())}
TIE_STEPS = Step(W("a"), "r1", -1, W("b")), Step(W("a"), "r2", -1, W("b"))


@given(disjoint_steps())
@example((TIE_RULES, W("a b"), *TIE_STEPS))
@example((TIE_RULES, W("a b"), *reversed(TIE_STEPS)))
@settings(max_examples=200, deadline=None)
def test_transport_closes_the_square(case):
    rules, word, step, across = case
    (s_step, t_step), (s_across, t_across) = step_ends(step, rules), step_ends(across, rules)
    assert s_step == s_across == word
    step_moved = transport(step, across, t_across, rules)
    across_moved = transport(across, step, t_step, rules)
    (s_step_moved, t_step_moved), (s_across_moved, t_across_moved) = (
        step_ends(step_moved, rules), step_ends(across_moved, rules))
    assert (s_step_moved, s_across_moved) == (t_across, t_step)
    assert t_step_moved == t_across_moved


@given(adjacent_steps())
# r2 puts b b at position 1 left of the a a that r1 put there
@example((TIE_RULES, W("a b"), TIE_STEPS[0], Step(W("a"), "r2", -1, W("a a b"))))
@settings(max_examples=200, deadline=None)
def test_swap_adjacent_keeps_endpoints(case):
    rules, word, first, second = case
    pair = TwoCell(word, (first, second))
    swapped = swap_adjacent(first, second, rules)
    if swapped is not None:
        assert tc.target(TwoCell(word, swapped), rules) == tc.target(pair, rules)
