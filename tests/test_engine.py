"""Logged reduction, normal forms, the word problem, log expansion."""

import ast
import copy
import random
import sys as _sys
import threading
from pathlib import Path

from hypothesis import example, given, settings
import hypothesis.strategies as st
import pytest

from logrew import engine, parse_presentation, system_from_presentation
from logrew.completion import CompletionLimits, logged_knuth_bendix, system_from_json
from logrew.core import Alphabet, OrderSpec, Rule, word_from_str
from logrew.engine import (
    LoggedSystem, Verdict, expand_log, normal_form, prove, reduce_into, reduce_logged,
)
import logrew.twocell as tc
from logrew.twocell import Step, TwoCell, identity

from helpers import (
    LADDER, all_normal_forms, intermediate_words, random_cell, random_word, scan_redexes,
    scan_reduce, scan_retired, words_over,
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
# at position 0 the longer lhs has the lower rule index
@example((system(("a b", "b"), ("a", "1")), W("a b")))
# rewriting b at 2 makes a redex at 0, left of the rewrite
@example((system(("a a a", "1"), ("b", "a")), W("a a b")))
# b ends first, but the leftmost redex is r1 at 0, which ends later
@example((system(("a b a", "1"), ("b", "1")), W("a b a")))
# a a b at 1 is found only through the failure transition from a a on a
@example((system(("a a b", "b"),), W("a a a b")))
@settings(max_examples=150, deadline=None)
def test_indexed_reduction_matches_rescan(case):
    sys, w = case
    expected = scan_reduce(w, sys)
    assert reduce_logged(w, sys) == expected
    assert normal_form(w, sys) == tc.target(expected, sys.rule_map)
    # the word reduce_into returns is where its steps replay to
    steps = []
    end = reduce_into(w, sys, steps)
    assert TwoCell(w, tuple(steps)) == expected
    assert end == tc.target(expected, sys.rule_map)
    assert prove(w, w, sys) == TwoCell(w, expected.steps + tc.invert_steps(expected.steps))


def check_index(sys):
    """Every table of the index, and the system's retired rules, against
    their definitions on the states' words and the left-hand sides."""
    index = sys._lhs
    words = [()] * len(index.step)
    for s, row in enumerate(index.step):  # a state is numbered after its parent
        for letter, t in row.items():
            if index.depth[t] == index.depth[s] + 1:
                words[t] = words[s] + (letter,)
    state = {w: s for s, w in enumerate(words)}
    assert len(state) == len(words) and index.depth == [len(w) for w in words]
    lhss = [rule.lhs for rule in sys.rules]
    letters = {letter for lhs in lhss for letter in lhs}
    for s, w in enumerate(words):
        suffixes = [w[k:] for k in range(1, len(w) + 1)]  # proper, longest first
        if s:
            assert index.fail[s] == state[next(u for u in suffixes if u in state)]
        assert index.out[s] == next((state[u] for u in (w, *suffixes) if u and u in lhss), 0)
        moves = {c: next((state[u] for u in (w + (c,), *(v + (c,) for v in suffixes)) if u in state), 0)
                 for c in letters}
        assert index.step[s] == {c: t for c, t in moves.items() if t}
    assert tables(index)["kids"] == {
        s: [u for u in range(1, len(words)) if index.fail[u] == s] for s in set(index.fail[1:])}
    assert index.paths == tuple(tuple(state[lhs[:k]] for k in range(1, len(lhs) + 1)) for lhs in lhss)
    assert index.hits == {state[lhs]: tuple(x for x, other in enumerate(lhss) if other == lhs)
                          for lhs in lhss}
    assert index.through == {
        s: tuple(x for x, lhs in enumerate(lhss) if lhs[:len(w)] == w and len(lhs) > len(w))
        for s, w in enumerate(words) if s and any(lhs[:len(w)] == w and len(lhs) > len(w) for lhs in lhss)}
    assert index.lowest == {state[lhs]: min(x for x, other in enumerate(lhss) if lhs[:len(other)] == other)
                            for lhs in lhss}
    assert sys.retired == scan_retired(sys)


def test_index_matches_its_definitions():
    for text, _ in LADDER.values():
        check_index(logged_knuth_bendix(system_from_presentation(parse_presentation(text))).system)

    @given(systems_and_words())
    @settings(max_examples=150, deadline=None)
    def on_random_rules(case):
        check_index(case[0])

    on_random_rules()


def tables(index):
    """The index's tables, each failure tree child list in ascending order."""
    found = {name: getattr(index, name) for name in index.__slots__}
    found["kids"] = {s: sorted(kids) for s, kids in index.kids.items()}
    return found


def checked_extensions(monkeypatch):
    """Make every ``with_rule`` check the index it extends: the new one equals
    a fresh build of the same rules, table by table, and meets its
    definitions, and the parent's tables are as they were before the call.
    Returns the list of the systems checked."""
    with_rule, grown = LoggedSystem.with_rule, []

    def checked(parent, rule, log):
        before = copy.deepcopy(tables(parent._lhs))
        child = with_rule(parent, rule, log)
        assert tables(parent._lhs) == before
        assert tables(child._lhs) == tables(LoggedSystem(child.rules, order=child.order)._lhs)
        check_index(child)
        grown.append(child)
        return child

    monkeypatch.setattr(LoggedSystem, "with_rule", checked)
    return grown


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
                                     CompletionLimits(12, 6, 8))
        assert len(grown) == len(result.system.logs)


@pytest.mark.parametrize("name", sorted(LADDER))
def test_completion_builds_its_index_once(name, monkeypatch):
    # the full build runs for the initial rule list only; every derived
    # rule extends its parent's index
    build, builds = engine._Automaton.__init__, []

    def counted(index, rules):
        builds.append(len(rules))
        build(index, rules)

    monkeypatch.setattr(engine._Automaton, "__init__", counted)
    init = system_from_presentation(parse_presentation(LADDER[name][0]))
    logged_knuth_bendix(init)
    assert builds == [len(init.rules)]


def test_an_empty_lhs_is_rejected():
    # an empty lhs ends at the root, where reduction never looks for a match
    order = OrderSpec(Alphabet(("a", "b")))
    empty, other = Rule("r1", (), ("a",)), Rule("r2", W("a b"), W("a"))
    for rules in ((empty,), (other, empty)):
        with pytest.raises(ValueError, match="non-empty lhs"):
            LoggedSystem(rules, order=order)
    parent = LoggedSystem((other,), order=order)
    with pytest.raises(ValueError, match="non-empty lhs"):
        parent.with_rule(empty, identity(()))
    assert parent.rules == (other,) and parent.retired == frozenset()


def test_reduction_on_an_extended_system_uses_its_own_index(rng, abc_completion):
    # each system builds its own index: the one over the first k rules
    # must not serve the system with one rule more
    full = abc_completion.system
    words = [random_word(rng, ("a", "b", "c"), 30) for _ in range(40)]
    for k in range(2, len(full.rules)):
        parent = LoggedSystem(full.rules[:k], {r.rid: full.logs[r.rid] for r in full.rules[2:k]},
                              order=full.order)
        child = parent.with_rule(full.rules[k], full.logs[full.rules[k].rid])
        for w in words:
            assert reduce_logged(w, parent) == scan_reduce(w, parent)
        for w in words:
            assert reduce_logged(w, child) == scan_reduce(w, child)


def test_as_complete_shares_the_index(abc_completion):
    full = abc_completion.system
    s = LoggedSystem(full.rules, full.logs, order=full.order)
    done = s._as_complete()
    assert (done.rules, done.logs, done.order) == (s.rules, s.logs, s.order)
    assert done.complete and not s.complete
    assert done._lhs is s._lhs and done.rule_map is s.rule_map and done.retired is s.retired


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
], ids=["duplicate-id", "increasing", "unknown-letter"])
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
    assert sys._lhs.fail[1499] == 1498


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
    callers = {
        (path.stem, node.name)
        for path in Path(engine.__file__).parent.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.FunctionDef)
        and any(isinstance(n, ast.Attribute) and n.attr == "_as_complete" for n in ast.walk(node))
    }
    assert callers == {("completion", "logged_knuth_bendix"), ("completion", "system_from_json")}


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


def test_expand_log_follows_a_chain_of_logs_deeper_than_the_recursion_limit():
    # r_k: a^k b -> b, logged as a r_(k-1) then r1, so r600 expands to 600
    # steps of r1 through a chain of 599 logs
    depth = 600
    assert 2 * depth > _sys.getrecursionlimit()
    entries = [{"id": "r1", "lhs": "a b", "rhs": "b"}]
    for k in range(2, depth + 1):
        lhs = ("a",) * k + ("b",)
        log = TwoCell(lhs, (Step(("a",), f"r{k - 1}", 1, ()), Step((), "r1", 1, ())))
        entries.append({"id": f"r{k}", "lhs": tc.word_to_str(lhs), "rhs": "b",
                        "provenance": "derived", "log": tc.cell_to_json(log)})
    sys = system_from_json({"status": "limit", "rules": entries}, OrderSpec(Alphabet(("a", "b")))).system
    down = tuple(Step(("a",) * j, "r1", 1, ()) for j in reversed(range(depth)))
    lhs = sys.rule(f"r{depth}").lhs
    assert expand_log(TwoCell(lhs, (Step((), f"r{depth}", 1, ()),)), sys) == TwoCell(lhs, down)
    up = TwoCell(W("b"), (Step((), f"r{depth}", -1, ()),))
    assert expand_log(up, sys) == TwoCell(W("b"), tuple(Step(s.prefix, "r1", -1, ()) for s in reversed(down)))
