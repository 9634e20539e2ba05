"""Logged reduction, normal forms, the word problem, log expansion."""

import ast
import copy
import random
import sys as _sys
import threading
import time
from pathlib import Path

from hypothesis import example, given, settings
import hypothesis.strategies as st
import pytest

from logrew import engine, parse_presentation, system_from_presentation
from logrew.completion import (
    CompletionLimits, is_complete, logged_knuth_bendix, system_from_json,
)
from logrew.core import Alphabet, OrderSpec, Rule, word_from_str
from logrew.endorewrites import express, generate
from logrew.engine import (
    LoggedSystem, Verdict, expand_log, normal_form, prove, reduce_into, reduce_logged, replay_moves,
)
import logrew.twocell as tc
from logrew.twocell import Step, TwoCell, identity

from helpers import (
    LADDER, NOTES, S4, all_normal_forms, critical_pairs, expanded_lengths, intermediate_words,
    random_cell, random_loop, random_word, relator_pair, scan_redexes, scan_reduce, scan_retired,
    words_over,
)
from test_endorewrites import presentations

W = word_from_str


@pytest.fixture(scope="module")
def rng():
    return random.Random(4242)


def test_reduce_logged_leftmost(se_system, se_rules):
    cell = reduce_logged(W("s s s e"), se_system)
    assert cell.steps == (Step(W("1"), "r2", 1, W("e")),)
    assert tc.target(cell, se_rules) == W("s e")
    assert reduce_logged(W("s e"), se_system) == identity(W("s e"))


def test_reduce_logged_matches_exhaustive_oracle(se_system, se_rules):
    cache = {}
    for w in words_over(("s", "e"), 7):
        expected = all_normal_forms(w, se_system, cache)
        assert len(expected) == 1
        cell = reduce_logged(w, se_system)
        assert tc.validate(cell, se_rules) is None
        reached = tc.target(cell, se_rules)
        assert scan_redexes(reached, se_system) == []
        assert reached in expected


def test_reduction_steps_strictly_decrease(rng, se_system, se_presentation, se_rules):
    for _ in range(100):
        w = random_word(rng, ("s", "e"), 10, min_len=1)
        cell = reduce_logged(w, se_system)
        words = intermediate_words(cell, se_rules)
        for before, after in zip(words, words[1:]):
            assert se_presentation.order.greater(before, after)


def test_normal_form_examples(se_system):
    assert normal_form(W("e e"), se_system) == W("e")
    assert normal_form(W("s e s"), se_system) == W("s e s")
    reachable = {normal_form(w, se_system) for w in words_over(("s", "e"), 6)}
    assert reachable == {W(x) for x in ("1", "e", "s", "e s", "s e", "s s", "e s e", "s e s")}


@st.composite
def systems_and_words(draw):
    """A random terminating system over 2 or 3 letters, and a word of up to
    200 letters.  Left-hand sides are drawn fresh, equal to an earlier one,
    around an earlier one, or extending an earlier one; the rules are then
    shuffled, so a longer lhs sharing a position may come first or last."""
    letters = ("a", "b", "c")[:draw(st.integers(2, 3))]

    def words(lo, hi):
        return st.lists(st.sampled_from(letters), min_size=lo, max_size=hi).map(tuple)

    lhss = [draw(words(1, 4))]
    for _ in range(draw(st.integers(1, 6))):
        base = draw(st.sampled_from(lhss))
        kind = draw(st.sampled_from(("fresh", "same", "inside", "prefix")))
        if kind == "fresh":
            lhss.append(draw(words(1, 4)))
        elif kind == "same":
            lhss.append(base)
        elif kind == "inside":
            lhss.append(draw(words(1, 2)) + base + draw(words(0, 2)))
        else:
            lhss.append(base + draw(words(1, 2)))
    rules = []
    for lhs in lhss:
        # shorter right-hand sides keep every reduction under 200 steps
        rhs = draw(words(0, len(lhs) - 1))
        rules.append(Rule(f"r{len(rules) + 1}", lhs, rhs))
    sys = LoggedSystem(tuple(draw(st.permutations(rules))), order=OrderSpec(Alphabet(letters)))
    n = draw(st.integers(0, 200))
    return sys, draw(words(n, n))


def system(*rules):
    # b before a, so every example's rules decrease, b -> a included
    return LoggedSystem(
        tuple(Rule(f"r{i}", W(l), W(r)) for i, (l, r) in enumerate(rules, 1)),
        order=OrderSpec(Alphabet(("b", "a"))),
    )


@given(systems_and_words())
# a ends before a b, which starts with it and has the lower rule index
@example((system(("a b", "b"), ("a", "1")), W("a b")))
# rewriting b at 2 completes a a a at 0: the states are cut back to the
# redex's start, and the rhs is read from there
@example((system(("a a a", "1"), ("b", "a")), W("a a b")))
# r1 at 0 starts further left, but b at 1 ends first
@example((system(("a b a", "1"), ("b", "1")), W("a b a")))
# a and b a both end at 2: the longer is taken, though its index is higher
@example((system(("a", "1"), ("b a", "b")), W("b a")))
# two equal lhs end at 2: the lower index is taken
@example((system(("a b", "b"), ("a b", "1")), W("a b")))
# a a b at 1 is found only through the failure transition from a a on a
@example((system(("a a b", "b"),), W("a a a b")))
@settings(max_examples=150, deadline=None)
def test_indexed_reduction_matches_rescan(case):
    sys, w = case
    expected = scan_reduce(w, sys)
    assert reduce_logged(w, sys) == expected
    assert normal_form(w, sys) == tc.target(expected, sys.rule_map)
    # the word reduce_into returns is where the steps of its moves replay to
    moves = []
    end = reduce_into(w, sys, moves)
    assert TwoCell(w, replay_moves(w, moves, sys)) == expected
    assert end == tc.target(expected, sys.rule_map)
    # a word's reduction cancels against itself
    assert prove(w, w, sys) == identity(w)


def check_index(sys):
    """Every table of the system's index, and its retired rules, against
    their definitions on the states' words and the left-hand sides."""
    words = [()] * len(sys._step)
    for s, row in enumerate(sys._step):  # a state is numbered after its parent
        for letter, t in row.items():
            if sys._depth[t] == sys._depth[s] + 1:
                words[t] = words[s] + (letter,)
    state = {w: s for s, w in enumerate(words)}
    assert len(state) == len(words) and sys._depth == [len(w) for w in words]
    lhss = [rule.lhs for rule in sys.rules]
    letters = {letter for lhs in lhss for letter in lhs}
    for s, w in enumerate(words):
        suffixes = [w[k:] for k in range(1, len(w) + 1)]  # proper, longest first
        if s:
            assert sys._fail[s] == state[next(u for u in suffixes if u in state)]
        assert sys._out[s] == next((state[u] for u in (w, *suffixes) if u and u in lhss), 0)
        moves = {c: next((state[u] for u in (w + (c,), *(v + (c,) for v in suffixes)) if u in state), 0)
                 for c in letters}
        assert sys._step[s] == {c: t for c, t in moves.items() if t}
    assert tables(sys)["_kids"] == {
        s: [u for u in range(1, len(words)) if sys._fail[u] == s] for s in set(sys._fail[1:])}
    assert sys._paths == [tuple(state[lhs[:k]] for k in range(1, len(lhs) + 1)) for lhs in lhss]
    assert sys._hits == {state[lhs]: tuple(x for x, other in enumerate(lhss) if other == lhs)
                          for lhs in lhss}
    assert sys._through == {
        s: tuple(x for x, lhs in enumerate(lhss) if lhs[:len(w)] == w and len(lhs) > len(w))
        for s, w in enumerate(words) if s and any(lhs[:len(w)] == w and len(lhs) > len(w) for lhs in lhss)}
    assert sys.retired == scan_retired(sys)


def test_index_matches_its_definitions():
    for text, _ in LADDER.values():
        check_index(logged_knuth_bendix(system_from_presentation(parse_presentation(text))).system)

    @given(systems_and_words())
    @settings(max_examples=150, deadline=None)
    def on_random_rules(case):
        check_index(case[0])

    on_random_rules()


def tables(sys, *skip):
    """What a system holds, slot by slot but the slots named in skip, each
    failure tree child list in ascending order; walking ``__slots__``, it
    misses no table added later."""
    found = {name: getattr(sys, name) for name in LoggedSystem.__slots__ if name not in skip}
    found["_kids"] = {s: sorted(kids) for s, kids in sys._kids.items()}
    return found


def snapshot(sys, expanded=True):
    """A deep copy of what a system holds, its expansion table only if expanded."""
    return copy.deepcopy(tables(sys, *(() if expanded else ("_expanded",))))


def checked_extensions(monkeypatch):
    """Make every ``_add_rule`` of a derived rule check the system it grows:
    afterwards it equals a fresh build of the same rules, slot by slot but
    the logs, and its index meets its definitions.  Returns the list of the
    rule counts checked."""
    add_rule, grown = LoggedSystem._add_rule, []

    def checked(sys, rule, log=None):
        add_rule(sys, rule, log)
        if log is None:  # the constructor's, the fresh build's below included
            return
        assert tables(sys, "logs") == tables(LoggedSystem(sys.rules, order=sys.order), "logs")
        check_index(sys)
        grown.append(len(sys.rules))

    monkeypatch.setattr(LoggedSystem, "_add_rule", checked)
    return grown


@pytest.mark.parametrize("resumed", [False, True], ids=["initial", "resumed"])
@pytest.mark.parametrize("name", sorted(LADDER))
def test_completion_leaves_its_input_as_it_was(name, resumed):
    # completion grows a system of its own: the one passed in, initial or a
    # partial result resumed (stopped at twice the initial rules), keeps
    # every table
    init = system_from_presentation(parse_presentation(LADDER[name][0]))
    if resumed:
        init = logged_knuth_bendix(init, CompletionLimits(2 * len(init.rules))).system
    before = snapshot(init)
    result = logged_knuth_bendix(init)
    assert snapshot(init) == before
    assert result.status == "complete"


def test_a_completed_system_is_written_only_by_expand_log(rng):
    # the README lets threads share a completed system: once completion has
    # returned it, only expand_log's table is written
    init = system_from_presentation(parse_presentation(LADDER["F4"][0]))
    result = logged_knuth_bendix(init)
    sys = result.system
    before = snapshot(sys, expanded=False)
    letters = sys.order.alphabet.letters
    for _ in range(20):
        w, v = random_word(rng, letters, 20), random_word(rng, letters, 20)
        assert reduce_logged(w, sys).source == w
        proof = prove(w + v, normal_form(w, sys) + v, sys)
        assert expand_log(proof, sys).source == w + v
    assert is_complete(sys) == (True, None)
    assert critical_pairs(sys, 0)
    gens = generate(result, init)
    for _ in range(5):
        base = random_word(rng, letters, 6, min_len=1)
        assert express(random_loop(rng, sys, base, 4), gens).residual == identity(base)
    assert snapshot(sys, expanded=False) == before


@pytest.mark.parametrize("name", sorted(LADDER))
def test_extended_index_equals_a_fresh_build_on_the_ladder(name, monkeypatch):
    grown = checked_extensions(monkeypatch)
    result = logged_knuth_bendix(system_from_presentation(parse_presentation(LADDER[name][0])))
    assert len(grown) == len(result.system.logs)


@given(text=presentations())
@settings(max_examples=60, deadline=None)
def test_extended_index_equals_a_fresh_build_on_random_presentations(text):
    with pytest.MonkeyPatch.context() as monkeypatch:
        grown = checked_extensions(monkeypatch)
        result = logged_knuth_bendix(system_from_presentation(parse_presentation(text)),
                                     CompletionLimits(12, 8))
        assert len(grown) == len(result.system.logs)


@pytest.mark.parametrize("name", sorted(LADDER))
def test_completion_builds_its_index_once(name, monkeypatch):
    # completion copies its input's index, built once, and grows it in place:
    # _add_rule, the one way a rule enters an index, runs once for each
    # derived rule and never for an input rule
    add, added = LoggedSystem._add_rule, []

    def counted(sys, rule, log=None):
        added.append(rule.rid)
        add(sys, rule, log)

    init = system_from_presentation(parse_presentation(LADDER[name][0]))
    monkeypatch.setattr(LoggedSystem, "_add_rule", counted)
    grown = logged_knuth_bendix(init).system
    assert added == [rule.rid for rule in grown.rules[len(init.rules):]] == list(grown.logs)


def test_an_empty_lhs_is_rejected():
    # an empty lhs ends at the root, where reduction never looks for a match
    order = OrderSpec(Alphabet(("a", "b")))
    empty, other = Rule("r1", (), ("a",)), Rule("r2", W("a b"), W("a"))
    for rules in ((empty,), (other, empty)):
        with pytest.raises(ValueError, match="non-empty lhs"):
            LoggedSystem(rules, order=order)
    sys = LoggedSystem((other,), order=order)
    before = snapshot(sys)
    with pytest.raises(ValueError, match="non-empty lhs"):
        sys._add_rule(empty, identity(()))
    assert snapshot(sys) == before


@pytest.mark.parametrize("rule,message", [
    (Rule("r3", W("a b"), W("b a")), "rule r3: duplicate id"),
    (Rule("r7", W("c"), W("a b")), "rule r7: lhs is not greater than rhs"),
    (Rule("r7", W("a d"), W("a")), "rule r7: letter 'd' not in alphabet"),
    (Rule("r7", (), W("a")), "rule r7: needs a non-empty lhs"),
], ids=["duplicate-id", "increasing", "unknown-letter", "empty-lhs"])
def test_a_rule_added_to_a_live_system_is_checked_as_the_constructor_checks(rule, message):
    # every rule that enters a system is checked, and a rejected one writes nothing
    sys = system_from_presentation(parse_presentation(S4))
    before = snapshot(sys)
    with pytest.raises(ValueError, match=f"^{message}$"):
        sys._add_rule(rule, TwoCell(rule.lhs, ()))
    assert snapshot(sys) == before
    with pytest.raises(ValueError, match=f"^{message}$"):
        LoggedSystem(sys.rules + (rule,), order=sys.order)


def test_reduction_on_an_extended_system_uses_its_own_index(rng, abc_completion):
    # a system grown by a rule reduces by its grown index: the one over the
    # first k rules must not serve once it holds one rule more
    full = abc_completion.system
    words = [random_word(rng, ("a", "b", "c"), 30) for _ in range(40)]
    for k in range(2, len(full.rules)):
        sys = LoggedSystem(full.rules[:k], {r.rid: full.logs[r.rid] for r in full.rules[2:k]},
                           order=full.order)
        for w in words:
            assert reduce_logged(w, sys) == scan_reduce(w, sys)
        sys._add_rule(full.rules[k], full.logs[full.rules[k].rid])
        for w in words:
            assert reduce_logged(w, sys) == scan_reduce(w, sys)


@pytest.mark.parametrize("log,message", [
    # through its own rule: expand_log would look up an expansion not yet made
    (TwoCell(W("a"), (Step((), "r2", 1, ()),)), "log names rule r2, which is not listed before it"),
    (TwoCell(W("a"), (Step((), "r9", 1, ()),)), r"log does not replay: unknown rule 'r9' \(step 0\)"),
    (TwoCell(W("a a"), (Step((), "r1", 1, ()),)), "log does not run from its lhs to its rhs"),
    (None, "log is not a two-cell"),
    ({"source": "a", "steps": []}, "log is not a two-cell"),
])
def test_system_rejects_a_log_that_does_not_expand(log, message):
    rules = (Rule("r1", W("a a"), ()), Rule("r2", W("a"), W("b")))
    with pytest.raises(ValueError, match=f"^rule r2: {message}$"):
        LoggedSystem(rules, {"r2": log}, order=OrderSpec(Alphabet(("a", "b"))))


@pytest.mark.parametrize("rules,message", [
    # a step names its rule by id: reduce_logged(a a) logged r1 at a a,
    # which replays as b -> a and fails
    ((("r1", "a a", "1"), ("r1", "b", "a")), "rule r1: duplicate id"),
    # normal_form(a) rewrote a to a a and never returned
    ((("r1", "a", "a a"),), "rule r1: lhs is not greater than rhs"),
    ((("r1", "b a", "1"), ("r2", "x", "a")), "rule r2: letter 'x' not in alphabet"),
    # each rule is checked in list order, so the first faulty one is named
    ((("r1", "a", "a a"), ("r2", "1", "a")), "rule r1: lhs is not greater than rhs"),
], ids=["duplicate-id", "increasing", "unknown-letter", "first-fault"])
def test_system_rejects_a_duplicate_id_and_a_rule_that_does_not_decrease(rules, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        LoggedSystem(tuple(Rule(rid, W(lhs), W(rhs)) for rid, lhs, rhs in rules),
                     order=OrderSpec(Alphabet(("b", "a"))))


def test_system_rejects_a_log_for_an_unlisted_rule():
    with pytest.raises(ValueError, match="^rule r7: a log for a rule that is not listed$"):
        LoggedSystem((Rule("r1", W("a a"), ()),), {"r7": TwoCell(W("a"), ())},
                     order=OrderSpec(Alphabet(("a", "b"))))


def test_reduction_with_an_lhs_longer_than_the_recursion_limit():
    lhs = ("a",) * 1499 + ("b",)
    assert len(lhs) > _sys.getrecursionlimit()
    sys = LoggedSystem((Rule("r1", lhs, ("b",)),), order=OrderSpec(Alphabet(("a", "b"))))
    w = ("a",) * 3000 + ("b",)
    assert reduce_logged(w, sys) == scan_reduce(w, sys)
    # the index is built without recursion, so its 1,500-state chain
    # of failure links needs no workaround
    assert sys._fail[1499] == 1498


def test_reduction_shared_across_threads():
    f4 = logged_knuth_bendix(system_from_presentation(parse_presentation(LADDER["F4"][0]))).system
    letters = f4.order.alphabet.letters

    def fresh():  # the same rules with an index of its own
        return LoggedSystem(f4.rules, f4.logs, order=f4.order)

    words = [[random_word(random.Random(seed * 1000 + i), letters, 40) for i in range(200)]
             for seed in range(4)]
    alone = fresh()
    expected = [[reduce_logged(w, alone) for w in batch] for batch in words]
    shared, start, results = fresh(), threading.Barrier(4), [None] * 4

    def work(k):
        start.wait()
        results[k] = [reduce_logged(w, shared) for w in words[k]]

    interval = _sys.getswitchinterval()
    _sys.setswitchinterval(1e-6)  # switch threads often
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        _sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert results == expected


def test_prove_examples(se_system, se_rules):
    witness = prove(W("s s s e"), W("s e"), se_system)
    assert isinstance(witness, TwoCell)
    assert len(witness.steps) == 1
    assert witness.source == W("s s s e")
    assert tc.target(witness, se_rules) == W("s e")

    loop = prove(W("e s e s"), W("e s e s"), se_system)
    assert tc.free_reduce(loop) == identity(W("e s e s"))

    assert prove(W("e"), W("s"), se_system) is Verdict.NOT_EQUAL


def test_prove_unknown_without_completeness(se_init):
    # same rules, but the system is not flagged complete
    assert not se_init.complete
    assert prove(W("e"), W("s"), se_init) is Verdict.UNKNOWN


def test_only_completion_and_a_checked_load_flag_a_system_complete(ab_init, ab_completion):
    # ab_monoid's two initial rules do not resolve a b a; a system of them
    # taken as complete had prove call a a and a unequal, which completion
    # proves equal
    with pytest.raises(TypeError):
        LoggedSystem(ab_init.rules, complete=True, order=ab_init.order)
    assert not hasattr(LoggedSystem, "as_complete")
    assert prove(W("a a"), W("a"), LoggedSystem(ab_init.rules, order=ab_init.order)) is Verdict.UNKNOWN
    assert isinstance(prove(W("a a"), W("a"), ab_completion.system), TwoCell)
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in Path(engine.__file__).parent.glob("*.py")}

    def functions(test):
        return {(stem, node.name) for stem, tree in trees.items() for node in ast.walk(tree)
                if isinstance(node, ast.FunctionDef) and any(map(test, ast.walk(node)))}

    def sets_complete(node):
        targets = [t for a in getattr(node, "targets", ()) for t in getattr(a, "elts", [a])]
        return any(isinstance(t, ast.Attribute) and t.attr == "complete" for t in targets)

    # the constructor sets the flag false; only these two set it true
    assert functions(sets_complete) == {("engine", "__init__"), ("completion", "logged_knuth_bendix"),
                                        ("completion", "system_from_json")}
    assert functions(lambda n: isinstance(n, ast.Call) and getattr(n.func, "attr", None) == "_add_rule") \
        == {("engine", "__init__"), ("completion", "logged_knuth_bendix")}
    names = {getattr(n, "attr", getattr(n, "name", None)) for tree in trees.values() for n in ast.walk(tree)}
    assert names.isdisjoint({"with_rule", "_as_complete", "extended", "_Automaton", "_lhs"})


def test_prove_witness_connects_inputs(rng, se_system, se_rules):
    for _ in range(100):
        w1 = random_word(rng, ("s", "e"), 8)
        w2 = random_word(rng, ("s", "e"), 8)
        outcome = prove(w1, w2, se_system)
        if isinstance(outcome, TwoCell):
            assert outcome.source == w1
            assert tc.validate(outcome, se_rules) is None
            assert tc.target(outcome, se_rules) == w2
            assert normal_form(w1, se_system) == normal_form(w2, se_system)
        else:
            assert normal_form(w1, se_system) != normal_form(w2, se_system)


def test_expand_log_initial_rules_unchanged(se_system, rng):
    for _ in range(20):
        w = random_word(rng, ("s", "e"), 8, min_len=1)
        cell = reduce_logged(w, se_system)
        assert expand_log(cell, se_system) == cell
    assert expand_log(identity(W("s")), se_system) == identity(W("s"))


def test_expand_log_random_cells(rng, abc_completion):
    sys = abc_completion.system
    assert abc_completion.status == "complete"
    assert sys.logs
    initial = {r.rid for r in sys.rules if r.rid not in sys.logs}
    letters = tuple(sys.order.alphabet.letters)
    for _ in range(200):
        base = random_word(rng, letters, 5, min_len=1)
        cell = random_cell(rng, sys, base, rng.randint(0, 5))
        expanded = expand_log(cell, sys)
        assert tc.validate(expanded, sys.rule_map) is None
        assert expanded.source == cell.source
        assert tc.target(expanded, sys.rule_map) == tc.target(cell, sys.rule_map)
        assert all(step.rule in initial for step in expanded.steps)


def chain(depth: int) -> LoggedSystem:
    """r_k: a^k b -> b for k = 1 to depth, r_k logged as a r_(k-1) then r1, so
    r_k expands to k steps of r1 through a chain of k - 1 logs."""
    entries = [{"id": "r1", "lhs": "a b", "rhs": "b"}]
    for k in range(2, depth + 1):
        lhs = ("a",) * k + ("b",)
        log = TwoCell(lhs, (Step(("a",), f"r{k - 1}", 1, ()), Step((), "r1", 1, ())))
        entries.append({"id": f"r{k}", "lhs": tc.word_to_str(lhs), "rhs": "b",
                        "provenance": "derived", "log": tc.cell_to_json(log)})
    return system_from_json({"status": "limit", "rules": entries}, OrderSpec(Alphabet(("a", "b")))).system


def test_expand_log_follows_a_chain_of_logs_deeper_than_the_recursion_limit():
    depth = 600
    assert 2 * depth > _sys.getrecursionlimit()
    sys = chain(depth)
    down = tuple(Step(("a",) * j, "r1", 1, ()) for j in reversed(range(depth)))
    lhs = sys.rule_map[f"r{depth}"].lhs
    assert expand_log(TwoCell(lhs, (Step((), f"r{depth}", 1, ()),)), sys) == TwoCell(lhs, down)
    up = TwoCell(W("b"), (Step((), f"r{depth}", -1, ()),))
    assert expand_log(up, sys) == TwoCell(W("b"), tuple(Step(s.prefix, "r1", -1, ()) for s in reversed(down)))


def test_expand_log_sizes_an_expansion_before_building_it():
    # r199 of the README's Notes example expands to about 1.1e17 steps: the
    # exact length is summed through the logs and refused, with no step built
    result = logged_knuth_bendix(system_from_presentation(parse_presentation(NOTES)))
    sys = result.system
    assert (result.status, len(sys.rules)) == ("limit", 200)
    lhs = sys.rule_map["r199"].lhs
    start = time.perf_counter()
    with pytest.raises(engine.ExpansionTooLong, match="^expansion of 113966313867687395 steps "
                                                      "exceeds the limit of 1000000$") as caught:
        expand_log(TwoCell(lhs, (Step((), "r199", 1, ()),)), sys)
    assert time.perf_counter() - start < 1
    assert caught.value.length == expanded_lengths(sys)["r199"] == 113_966_313_867_687_395
    assert isinstance(caught.value, ValueError) and sys._expanded == {}


def test_expand_log_builds_an_expansion_of_exactly_the_limit(monkeypatch):
    # initial steps count one each, and a rule already expanded counts its
    # table entry's length
    monkeypatch.setattr(engine, "EXPANSION_LIMIT", 12)
    sys, source = chain(10), W("a a a a a a a a a a b")
    at_limit = TwoCell(source, (Step((), "r10", 1, ()), Step((), "r1", -1, ()), Step((), "r1", 1, ())))
    assert len(expand_log(at_limit, sys).steps) == 12 and set(sys._expanded) == {f"r{k}" for k in range(2, 11)}
    over = TwoCell(source, (Step((), "r10", 1, ()), Step((), "r10", -1, ())))
    untouched = chain(10)
    for system in (sys, untouched):  # r10 sized from the table, then through the logs
        with pytest.raises(engine.ExpansionTooLong, match="^expansion of 20 steps exceeds the limit of 12$"):
            expand_log(over, system)
    assert len(sys._expanded) == 9 and untouched._expanded == {}


@pytest.fixture(scope="module")
def s5():
    return logged_knuth_bendix(system_from_presentation(parse_presentation(LADDER["S5"][0]))).system


def fresh(sys):
    """The same rules and logs, complete, with an expansion table of their own."""
    own = LoggedSystem(sys.rules, sys.logs, order=sys.order)
    own.complete = True
    return own


def test_reduction_reads_no_letter_twice_but_a_rhs(s5):
    # a rewrite cuts the states back to the redex's start and reads on from
    # there: one table read per letter of the word and of each rhs put in
    reads = []

    class Row(dict):
        def get(self, *args):
            reads.append(1)
            return dict.get(self, *args)

    sys = fresh(s5)
    sys._step[:] = [Row(row) for row in sys._step]
    w = random_word(random.Random(4096), sys.order.alphabet.letters, 4096, min_len=4096)
    cell = reduce_logged(w, sys)
    assert len(cell.steps) > 1000
    assert len(reads) == len(w) + sum(len(sys.rule_map[step.rule].rhs) for step in cell.steps)


def check_free_reduced_proof(w1, w2, sys):
    """prove of an equal pair is the free reduction of w1's logged reduction
    followed by w2's inverted: no step is followed by its inverse, and it
    replays to w2 both as it is and expanded onto the initial rules."""
    outcome = prove(w1, w2, sys)
    if normal_form(w1, sys) != normal_form(w2, sys):
        assert outcome is (Verdict.NOT_EQUAL if sys.complete else Verdict.UNKNOWN)
        return
    down = TwoCell(w1, reduce_logged(w1, sys).steps + tc.invert_steps(reduce_logged(w2, sys).steps))
    assert outcome == tc.free_reduce(down)
    assert not any(t == tc.invert_step(s) for s, t in zip(outcome.steps, outcome.steps[1:]))
    assert tc.target(outcome, sys.rule_map) == w2
    initial = {rule.rid: rule for rule in sys.rules if rule.rid not in sys.logs}
    assert tc.target(expand_log(outcome, sys), initial) == w2


@given(systems_and_words(), st.data())
@settings(max_examples=150, deadline=None)
def test_prove_is_the_free_reduced_pair_of_reductions(case, data):
    # a rule's two sides put into one word: on these systems, which need not
    # be confluent, the two reductions may also end apart
    sys, w = case
    rule, k = data.draw(st.sampled_from(sys.rules)), data.draw(st.integers(0, len(w)))
    check_free_reduced_proof(w[:k] + rule.lhs + w[k:], w[:k] + rule.rhs + w[k:], sys)


@given(st.integers(0, 2**32 - 1), st.integers(8, 64))
@settings(max_examples=60, deadline=None)
def test_prove_on_s5_relator_pairs_is_the_free_reduced_pair_of_reductions(s5, seed, length):
    # derived rules too, with both exponents, so the expansion is checked
    check_free_reduced_proof(*relator_pair(random.Random(seed), LADDER["S5"][0], length), s5)


def s5_proofs(sys, seed, count):
    """Proofs of w = w with a letter squared inserted (each letter of S5 is an
    involution), so that derived rules are used with both exponents."""
    rng, letters, cells = random.Random(seed), sys.order.alphabet.letters, []
    for _ in range(count):
        w = random_word(rng, letters, 24, min_len=1)
        k = rng.randint(0, len(w))
        cells.append(prove(w, w[:k] + (rng.choice(letters),) * 2 + w[k:], sys))
    return cells


def check_expansion(cell, expanded, sys):
    assert expanded.source == cell.source
    assert tc.validate(expanded, sys.rule_map) is None
    assert tc.target(expanded, sys.rule_map) == tc.target(cell, sys.rule_map)
    assert not any(step.rule in sys.logs for step in expanded.steps)


def test_expansion_table_warm_equals_cold(s5):
    warm = fresh(s5)
    cells = s5_proofs(warm, 7, 120)
    assert {(step.rule, step.exp) for cell in cells for step in cell.steps
            if step.rule in s5.logs} >= {(rid, exp) for rid in ("r19", "r20") for exp in (1, -1)}
    first = [expand_log(cell, warm) for cell in cells]
    assert warm._expanded  # filled, and used below
    for cell, before in zip(cells, first):
        cold = expand_log(cell, fresh(s5))
        check_expansion(cell, cold, s5)
        assert expand_log(cell, warm) == before == cold


def test_expansions_shared_across_threads(s5):
    cells = [s5_proofs(s5, seed, 60) for seed in range(4)]
    alone = fresh(s5)
    expected = [[expand_log(cell, alone) for cell in batch] for batch in cells]
    shared, start, results = fresh(s5), threading.Barrier(4), [None] * 4

    def work(k):
        start.wait()
        results[k] = [expand_log(cell, shared) for cell in cells[k]]

    interval = _sys.getswitchinterval()
    _sys.setswitchinterval(1e-6)  # switch threads often
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        _sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert results == expected
    assert shared._expanded == alone._expanded


def test_expand_log_never_walks_the_shared_table(s5):
    # another thread may store an entry at any moment, and a walk over the
    # table would then raise; it is only looked up, entry by entry
    class Unwalkable(dict):
        def __iter__(self):
            raise AssertionError("the table was walked")

        keys = values = items = __iter__

    cells = s5_proofs(s5, 3, 40)
    expected = [expand_log(cell, fresh(s5)) for cell in cells]
    sys = fresh(s5)
    sys._expanded = Unwalkable()
    assert [expand_log(cell, sys) for cell in cells] == expected  # cold, then warm
    assert [expand_log(cell, sys) for cell in cells] == expected and sys._expanded


def test_expansions_do_not_leak_between_systems(s5):
    # a second system with the same ids, one derived rule's log taking a
    # detour: its first step, undone, then the log as stored
    rid = next(rid for rid in reversed(s5.logs) if len(s5.logs[rid].steps) > 1)
    log = s5.logs[rid]
    detour = TwoCell(log.source, (log.steps[0], *tc.invert_steps(log.steps[:1]), *log.steps))
    other = LoggedSystem(s5.rules, {**s5.logs, rid: detour}, order=s5.order)
    lhs = s5.rule_map[rid].lhs
    cells = [TwoCell(lhs, (Step((), rid, 1, ()),)),
             TwoCell(s5.rule_map[rid].rhs, (Step((), rid, -1, ()),))]
    cold = [expand_log(cell, fresh(other)) for cell in cells]
    assert cold != [expand_log(cell, fresh(s5)) for cell in cells]
    first = fresh(s5)
    for cell in [*cells, *s5_proofs(first, 3, 40)]:
        expand_log(cell, first)
    assert first._expanded
    for cell, expected in zip(cells, cold):
        check_expansion(cell, expected, other)
        assert expand_log(cell, other) == expected != expand_log(cell, first)


def test_one_expansion_per_derived_rule(s5):
    # the table keeps one expansion per derived rule reached, keyed by its id;
    # a -1 step reads that expansion backwards, exponents negated
    sys = fresh(s5)
    cells = s5_proofs(sys, 11, 60)
    reached = {step.rule for cell in cells for step in cell.steps if step.rule in s5.logs}
    assert {(step.rule, step.exp) for cell in cells for step in cell.steps
            if step.rule in s5.logs} >= {(rid, exp) for rid in ("r19", "r20") for exp in (1, -1)}
    for rule in reversed(s5.rules):  # a log names only earlier rules
        if rule.rid in reached:
            reached.update(step.rule for step in s5.logs[rule.rid].steps if step.rule in s5.logs)
    for cell in cells:
        expand_log(cell, sys)
    assert set(sys._expanded) == reached
    for rid in s5.logs:
        rule = s5.rule_map[rid]
        up, down = TwoCell(rule.lhs, (Step((), rid, 1, ()),)), TwoCell(rule.rhs, (Step((), rid, -1, ()),))
        backward = expand_log(down, sys)
        assert backward.steps == tc.invert_steps(expand_log(up, sys).steps)
        check_expansion(down, backward, s5)

