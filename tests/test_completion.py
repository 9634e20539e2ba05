"""Overlap search, critical-branching resolution, logged completion."""

import json
from pathlib import Path

from hypothesis import example, given, settings
import hypothesis.strategies as st
import pytest

from logrew import completion
from logrew.core import EMPTY, Alphabet, OrderSpec, Rule, orient, parse_presentation, word_from_str
from logrew.engine import (
    LoggedSystem, expand_log, normal_form, prove, reduce_logged, system_from_presentation,
)
from logrew.completion import (
    CompletionLimits, is_complete, logged_knuth_bendix, sides, system_from_json, system_to_json,
)
import logrew.twocell as tc
from logrew.twocell import Step, TwoCell

import helpers
from helpers import (
    LADDER, NINE_GROUPS, NOTES, SCALE_GROUPS, brute_force_overlaps, check_retirement, congruence_classes,
    count_normal_forms, critical_pairs, delta, every_branching_resolves, expanded_lengths,
    filter_knuth_bendix, find_overlaps, growth, live_states, pairwise_critical_pairs, resolve, scan_retired,
    step_ends, words_over,
)
from test_endorewrites import presentations
from test_engine import system, systems_and_words
from test_groups import INFINITE, PSL27

W = word_from_str


def test_find_overlaps_published_example(se_init):
    r2, r3 = se_init.rule_map["r2"], se_init.rule_map["r3"]
    overlaps = find_overlaps(r2, r3)
    cases = {(o.case, o.superposition) for o in overlaps}
    assert ("iii", W("s s s s e")) in cases
    assert ("iii", W("s s s e")) in cases
    match = [o for o in overlaps if o.superposition == W("s s s s e")][0]
    assert match.left.suffix == W("s e") and match.right.prefix == W("s s")
    small = [o for o in overlaps if o.superposition == W("s s s e")][0]
    assert small.left.suffix == W("e") and small.right.prefix == W("s")


def test_find_overlaps_self_overlap(se_init):
    r1 = se_init.rule_map["r1"]
    overlaps = find_overlaps(r1, r1)
    assert {(o.case, o.superposition) for o in overlaps} == {
        ("ii", W("e e e")), ("iii", W("e e e")),
    }


def test_find_overlaps_disjoint_alphabets():
    a = Rule("r1", ("a", "a"), ("a",))
    b = Rule("r2", ("b", "b"), ("b",))
    assert find_overlaps(a, b) == []


def test_find_overlaps_containment_cases():
    outer = Rule("r1", ("a", "b", "a"), ("a",))
    inner = Rule("r2", ("b",), ())
    [ov] = find_overlaps(inner, outer)
    assert ov.case == "i" and ov.left.prefix == ("a",) and ov.left.suffix == ("a",)
    [ov] = find_overlaps(outer, inner)
    assert ov.case == "iv" and ov.right.prefix == ("a",) and ov.right.suffix == ("a",)


def test_find_overlaps_excludes_identical_self_placement():
    rule = Rule("r1", ("a", "b"), ("a",))
    assert find_overlaps(rule, rule) == []
    other = Rule("r2", ("a", "b"), ("b",))
    # same lhs, different rules: the full coincidence is kept, once
    full = [o for o in find_overlaps(rule, other) if o.superposition == ("a", "b")]
    assert [(o.case, o.left, o.right) for o in full] == [
        ("i", Step((), "r1", 1, ()), Step((), "r2", 1, ())),
    ]


def test_find_overlaps_against_brute_force(se_init):
    letters = ("s", "e")
    # r7 shares r2's lhs, so a placement found twice would show in the counts
    rules = se_init.rules + (Rule("r7", se_init.rule_map["r2"].lhs, ()),)
    for a in rules:
        for b in rules:
            got = sorted(
                (o.superposition, len(o.left.prefix), len(o.right.prefix))
                for o in find_overlaps(a, b)
            )
            expected = sorted(brute_force_overlaps(a, b, letters))
            assert got == expected, (a.rid, b.rid)


def test_resolve_published_overlap(se_init, se_presentation):
    r2, r3 = se_init.rule_map["r2"], se_init.rule_map["r3"]
    [ov] = [o for o in find_overlaps(r2, r3) if o.superposition == W("s s s s e")]
    assert resolve(ov, se_init) is None
    loop = delta(ov.superposition, ov.left, ov.right, se_init)
    assert loop.source == W("s s s s e")
    assert tc.target(loop, se_init.rule_map) == loop.source


def test_resolve_small_overlap_two_step_loop(se_init):
    r2, r3 = se_init.rule_map["r2"], se_init.rule_map["r3"]
    [ov] = [o for o in find_overlaps(r2, r3) if o.superposition == W("s s s e")]
    assert resolve(ov, se_init) is None
    assert delta(ov.superposition, ov.left, ov.right, se_init) == TwoCell(W("s s s e"), (
        Step(W("1"), "r2", 1, W("e")), Step(W("s"), "r3", -1, W("1")),
    ))


def test_every_published_pair_resolves(se_init):
    for a in se_init.rules:
        for b in se_init.rules:
            for ov in find_overlaps(a, b):
                assert resolve(ov, se_init) is None
                loop = delta(ov.superposition, ov.left, ov.right, se_init)
                assert loop.source == ov.superposition
                assert tc.target(loop, se_init.rule_map) == loop.source


def test_resolve_new_rule_ab(ab_init):
    r1, r2 = ab_init.rule_map["r1"], ab_init.rule_map["r2"]
    [ov] = [o for o in find_overlaps(r1, r2) if o.superposition == W("a b a")]
    rule, log = resolve(ov, ab_init)
    assert rule == Rule("r3", W("a a"), W("a"))
    # the log witnesses aa -> a over the two initial rules in three steps
    assert len(log.steps) == 3
    assert log.source == W("a a")
    assert tc.target(log, ab_init.rule_map) == W("a")
    assert {s.rule for s in log.steps} == {"r1", "r2"}


def test_knuth_bendix_published_system(se_init, se_completion):
    assert se_completion.status == "complete"
    assert len(se_completion.system.rules) == 6
    assert se_completion.system.logs == {}
    assert se_completion.pending == ()
    assert se_completion.system.complete


def test_knuth_bendix_free_monoid(free_presentation):
    result = logged_knuth_bendix(system_from_presentation(free_presentation))
    assert result.status == "complete"
    assert result.system.rules == ()


def test_knuth_bendix_ab_monoid(ab_completion, ab_init):
    assert ab_completion.status == "complete"
    sys = ab_completion.system
    assert [(r.rid, r.lhs, r.rhs) for r in sys.rules] == [
        ("r1", W("a b"), W("a")),
        ("r2", W("b a"), W("b")),
        ("r3", W("b b"), W("b")),
        ("r4", W("a a"), W("a")),
    ]
    assert set(sys.logs) == {"r3", "r4"}
    for rid in ("r3", "r4"):
        expanded = expand_log(sys.logs[rid], sys)
        assert tc.validate(expanded, ab_init.rule_map) is None
        assert expanded.source == sys.rule_map[rid].lhs
        assert tc.target(expanded, ab_init.rule_map) == sys.rule_map[rid].rhs


def test_knuth_bendix_agrees_with_congruence_closure(ab_completion, ab_presentation):
    sys = ab_completion.system
    classes = congruence_classes(("a", "b"), ab_presentation.relations, 6)
    for u in words_over(("a", "b"), 6):
        for v in words_over(("a", "b"), 6):
            same = normal_form(u, sys) == normal_form(v, sys)
            assert same == (classes[u] == classes[v]), (u, v)


def test_rule_invariants_after_completion(ab_completion, ab_presentation):
    order = ab_presentation.order
    for rule in ab_completion.system.rules:
        assert order.greater(rule.lhs, rule.rhs)


def test_knuth_bendix_determinism(se_init, ab_init):
    for init in (se_init, ab_init):
        first = logged_knuth_bendix(init)
        second = logged_knuth_bendix(init)
        assert first.system.rules == second.system.rules
        assert first.system.logs == second.system.logs


def test_limit_exceeded_keeps_pending():
    text = "monoid\nletters: a b\norder: shortlex\nrules:\na b a = b a a\n"
    init = system_from_presentation(parse_presentation(text))
    result = logged_knuth_bendix(init, CompletionLimits(max_rules=3))
    assert result.status == "limit"
    assert result.pending
    # partial system still usable and resumable at higher limits
    assert len(result.system.rules) <= 3


def test_max_word_length_limit(ab_init):
    result = logged_knuth_bendix(ab_init, CompletionLimits(max_word_length=1))
    assert result.status == "limit"
    assert result.pending


@pytest.mark.parametrize("bounds", [(0, 64), (64, 0), (64, -1)])
def test_completion_limits_must_be_positive(bounds):
    with pytest.raises(ValueError, match="^completion limits must be positive$"):
        CompletionLimits(*bounds)
    with pytest.raises(ValueError, match="^completion limits must be positive$"):
        CompletionLimits()._replace(**dict(zip(CompletionLimits._fields, bounds)))


def test_completion_limits_have_no_pass_limit():
    # an old call with a pass limit fails rather than read its bounds anew
    assert CompletionLimits._fields == ("max_rules", "max_word_length")
    with pytest.raises(TypeError):
        CompletionLimits(1, 2, 3)
    with pytest.raises(TypeError):
        CompletionLimits(max_passes=1)


@pytest.mark.parametrize("limits", [CompletionLimits(10), CompletionLimits(12)])
def test_pending_pairs_of_retired_rules_are_inclusions(limits):
    # a limit reports only what completion would still resolve; S4 lists
    # 12 rules after two passes
    init = system_from_presentation(parse_presentation(LADDER["S4"][0]))
    result = logged_knuth_bendix(init, limits)
    assert result.status == "limit"
    gone = result.system.retired
    touching = [o for o in result.pending if {o.left.rule, o.right.rule} & gone]
    assert touching and all(o.case in ("i", "iv") for o in touching)
    resumed = logged_knuth_bendix(result.system)
    assert resumed.status == "complete"
    check_retirement(resumed.system)


# max_rules: one derived rule, then the limit; twice: twice the initial
# rules.  Each stops every group but Z8xZ9 partway, at a different point
@pytest.mark.parametrize("max_rules", [None, lambda n: n + 1, lambda n: 2 * n],
                         ids=["complete", "max_rules", "twice"])
@pytest.mark.parametrize("name", sorted(LADDER))
def test_completion_resolves_what_building_every_overlap_resolves(name, max_rules, monkeypatch):
    # a pass keys only the inclusions of a rule retired before it starts;
    # it tests the same branchings, in the same order, and stops at a limit
    # with the same pending pairs as the filtering reference, which builds
    # every overlap and resolves each live one by helpers.resolve.  Completion
    # tests a key by _joins alone, so it reduces no pair twice.  Each run
    # counts what its pair search returns: completion's keys, and the
    # overlaps of the pairwise reference the filtering run builds by
    init = system_from_presentation(parse_presentation(LADDER[name][0]))
    limits = max_rules and CompletionLimits(max_rules(len(init.rules)))
    joins, resolve = completion._joins, helpers.resolve
    tested, resolved, built = [], [], []

    def recorded_joins(sys, key):
        tested.append(completion._overlap(sys.rules, key))
        return joins(sys, key)

    def recorded_resolve(overlap, sys):
        resolved.append(overlap)
        return resolve(overlap, sys)

    def counted(search):
        def counted_search(*args):
            found = search(*args)
            built.append(len(found))
            return found
        return counted_search

    monkeypatch.setattr(completion, "_joins", recorded_joins)
    monkeypatch.setattr(helpers, "resolve", recorded_resolve)
    monkeypatch.setattr(completion, "_branchings", counted(completion._branchings))
    monkeypatch.setattr(helpers, "pairwise_critical_pairs", counted(helpers.pairwise_critical_pairs))
    result = logged_knuth_bendix(init, limits)
    assert tested and not resolved
    ours_built = sum(built)
    built.clear()
    expected = filter_knuth_bendix(init, limits)
    assert tested == resolved
    assert (result.status, result.system.rules, result.system.logs, result.pending) == (
        expected.status, expected.system.rules, expected.system.logs, expected.pending)
    assert 0 < ours_built <= sum(built)


def _checked_branchings(monkeypatch):
    """Make completion, ``is_complete`` and ``helpers.critical_pairs`` check each pass's
    keys, built into records, against the pairwise reference; returns the
    list of the calls checked."""
    search, calls = completion._branchings, []

    def checked(sys, new_start, gone):
        keys = search(sys, new_start, gone)
        found = [completion._overlap(sys.rules, key) for key in keys]
        assert found == pairwise_critical_pairs(sys, new_start, gone), (new_start, sorted(gone))
        calls.append(len(found))
        return keys

    monkeypatch.setattr(completion, "_branchings", checked)
    return calls


class _Unread(dict):
    """A failure tree that raises on every read."""

    def _read(self, *_):
        raise AssertionError("the failure tree was read")

    get = __getitem__ = __contains__ = __iter__ = __len__ = items = keys = values = _read


@pytest.mark.parametrize("name", sorted(LADDER))
def test_critical_pairs_read_off_the_automaton_equal_the_pairwise_search(name, monkeypatch):
    # on every pass of a completion, with the rules retired so far, and on
    # the completed system with and without its retired rules' pairs, its
    # failure tree unreadable: the walks follow output and failure chains only
    calls = _checked_branchings(monkeypatch)
    sys = logged_knuth_bendix(system_from_presentation(parse_presentation(LADDER[name][0]))).system
    sys._kids = _Unread(sys._kids)
    for gone in (frozenset(), sys.retired):
        for new_start in (0, len(sys.rules) // 2, len(sys.rules)):
            critical_pairs(sys, new_start, gone)
    assert len(calls) > 6 and any(calls)


@pytest.mark.parametrize("limits", [CompletionLimits(), CompletionLimits(12, 8)],
                         ids=["default", "small"])
@given(text=presentations(), start=st.integers(0, 300), mask=st.integers(0, 2 ** 300))
@example(text=LADDER["triangle_r4"][0], start=7, mask=0b1010110)
@example(text="monoid\nletters: a b\norder: shortlex\nrules:\na = 1\na = 1\n", start=0, mask=0)  # equal lhs
# a fixed seed: with fresh draws each run its time ranged from 1.2 s to 28.6 s
@settings(max_examples=60, deadline=None, derandomize=True)
def test_critical_pairs_equal_the_pairwise_search_on_random_presentations(limits, text, start, mask):
    # every pass of the completion, then any new_start and any gone set, on
    # the grown system, checked; on one built afresh from its rules, the same
    with pytest.MonkeyPatch.context() as monkeypatch:
        _checked_branchings(monkeypatch)
        grown = logged_knuth_bendix(system_from_presentation(parse_presentation(text)), limits).system
        drawn = start % (len(grown.rules) + 1), {r.rid for x, r in enumerate(grown.rules) if mask >> x & 1}
        found = [critical_pairs(grown, new_start, gone) for new_start, gone in ((0, grown.retired), drawn)]
    fresh = LoggedSystem(grown.rules, grown.logs, order=grown.order)
    assert [critical_pairs(fresh, new_start, gone) for new_start, gone in ((0, grown.retired), drawn)] == found


@pytest.mark.parametrize("name", sorted(LADDER))
def test_resolve_logs_only_the_pairs_that_become_rules(name, monkeypatch):
    # completion compares the ends unlogged and calls _new_rule only when
    # the two ends of sides differ; it gives the rule and log sides yields,
    # and each one is added, in turn.  The completed system resolves every
    # branching the pairwise search finds
    new_rule, outcomes = completion._new_rule, []

    def checked(overlap, sys):
        outcome = new_rule(overlap, sys)
        (left, z_left), (right, z_right) = sides(overlap.left, overlap.right, sys)
        assert z_left != z_right
        (up, lhs), (over, rhs) = sorted(
            [(left, z_left), (right, z_right)], key=lambda side: sys.order.key(side[1]))
        assert outcome == (Rule(f"r{len(sys.rules) + 1}", lhs, rhs), TwoCell(lhs, tc.invert_steps(up) + over))
        outcomes.append(outcome)
        return outcome

    monkeypatch.setattr(completion, "_new_rule", checked)
    sys = logged_knuth_bendix(system_from_presentation(parse_presentation(LADDER[name][0]))).system
    assert bool(outcomes) == (name != "Z8xZ9")
    assert [(rule, sys.logs[rule.rid]) for rule in sys.rules if rule.rid in sys.logs] == outcomes
    assert all(resolve(overlap, sys) is None for overlap in pairwise_critical_pairs(sys, 0))


def _check_keys(sys: LoggedSystem) -> int:
    """Every key of sys, retired rules' overlaps included: the two words
    ``_joins`` reduces, read off the rules, are the targets of the steps of
    the key's ``Overlap``, and its verdict is that of ``helpers.resolve``,
    read off the logged sides; returns the number of keys checked."""
    keys, read, reduce = completion._branchings(sys, 0, frozenset()), [], completion.reduce_into

    def recorded(w, *args):
        read.append(w)
        return reduce(w, *args)

    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(completion, "reduce_into", recorded)
        for key in keys:
            overlap, read[:] = completion._overlap(sys.rules, key), []
            joins = completion._joins(sys, key)
            targets = [step_ends(step, sys.rule_map)[1] for step in (overlap.left, overlap.right)]
            assert sorted(read) == sorted(targets), (key, overlap)
            assert joins == (resolve(overlap, sys) is None), (key, overlap)
    return len(keys)


@pytest.mark.parametrize("name", sorted(LADDER))
def test_keys_read_the_reducts_and_verdicts_of_their_overlaps(name):
    sys = logged_knuth_bendix(system_from_presentation(parse_presentation(LADDER[name][0]))).system
    assert _check_keys(sys)


@given(text=presentations(), max_rules=st.integers(1, 40))
@settings(max_examples=60, deadline=None)
def test_keys_read_the_reducts_and_verdicts_of_their_overlaps_on_random_presentations(text, max_rules):
    # partial systems too, where many keys do not join
    _check_keys(logged_knuth_bendix(system_from_presentation(parse_presentation(text)),
                                    CompletionLimits(max_rules)).system)


@pytest.mark.parametrize("max_rules", [None, lambda n: n + 1, lambda n: 2 * n],
                         ids=["complete", "max_rules", "twice"])
@pytest.mark.parametrize("name", sorted(LADDER))
def test_completion_builds_a_record_per_rule_and_pending_branching(name, max_rules, monkeypatch):
    init = system_from_presentation(parse_presentation(LADDER[name][0]))
    overlap, built = completion._overlap, []

    def counted(rules, key):
        built.append(key)
        return overlap(rules, key)

    monkeypatch.setattr(completion, "_overlap", counted)
    result = logged_knuth_bendix(init, max_rules and CompletionLimits(max_rules(len(init.rules))))
    assert (result.status == "limit") == (max_rules is not None and name != "Z8xZ9")
    assert len(built) == len(result.system.logs) + len(result.pending)


def test_is_complete_published(se_system):
    ok, witness = is_complete(se_system)
    assert ok and witness is None


def test_is_complete_reports_witness(ab_init):
    ok, witness = is_complete(ab_init)
    assert not ok
    assert witness is not None
    assert witness.superposition in (W("a b a"), W("b a b"))
    rule, log = resolve(witness, ab_init)
    assert isinstance(rule, Rule) and isinstance(log, TwoCell)


def test_is_complete_empty_system():
    sys = LoggedSystem((), order=OrderSpec(Alphabet(("a",))))
    ok, witness = is_complete(sys)
    assert ok and witness is None


def _corrupted(sys: LoggedSystem) -> list[LoggedSystem]:
    """sys, from its rules alone, with one listed rule dropped, and with one
    retired rule's rhs set to the empty word."""
    rules = sys.rules
    return [LoggedSystem(corrupt, order=sys.order) for corrupt in (
        *(rules[:k] + rules[k + 1:] for k in range(len(rules))),
        *(tuple(r._replace(rhs=EMPTY) if r is gone else r for r in rules)
          for gone in rules if gone.rid in sys.retired))]


# the rules each ladder group lists after one and after two passes of
# completion; Z8xZ9 completes in its first pass
PASS_RULES = {"S4": (9, 12), "S5": (16, 22), "S6": (25, 35), "S7": (36, 51), "B4": (16, 22),
              "H3": (9, 12), "F4": (16, 22), "triangle_r3": (4, 5), "triangle_r4": (4, 5),
              "triangle_r5": (4, 5)}


@pytest.mark.parametrize("name", [*LADDER, "PSL(2,7)", *SCALE_GROUPS])
def test_is_complete_agrees_with_every_branching_resolving(name):
    # is_complete resolves only the branchings completion resolves: another
    # peak of a retired rule closes through that rule's inclusions, so the
    # verdict is the one over all branchings.  Checked on the completed
    # system and, for the ladder, on it corrupted and on partial completions
    text = {**LADDER, **SCALE_GROUPS, "PSL(2,7)": (PSL27, 168)}[name][0]
    init = system_from_presentation(parse_presentation(text))
    done = logged_knuth_bendix(init).system
    systems = [done]
    if name in LADDER:
        partials = [logged_knuth_bendix(init, CompletionLimits(n))
                    for n in (len(init.rules) + 2, *PASS_RULES.get(name, ()))]
        assert all(partial.status == "limit" for partial in partials[1:])
        systems += _corrupted(done) + [partial.system for partial in partials]
    verdicts = [(is_complete(sys)[0], every_branching_resolves(sys)) for sys in systems]
    assert verdicts[0] == (True, True)
    assert [ok for ok, _ in verdicts] == [every for _, every in verdicts]


@given(text=presentations())
@settings(max_examples=60, deadline=None)
def test_is_complete_agrees_with_every_branching_resolving_on_random_presentations(text):
    # complete and partial systems alike, each also with one rule dropped
    # or a retired rule's rhs emptied
    sys = logged_knuth_bendix(system_from_presentation(parse_presentation(text)),
                              CompletionLimits(12, 8)).system
    for candidate in (sys, *_corrupted(sys)):
        assert is_complete(candidate)[0] == every_branching_resolves(candidate)


def test_retired_marks_contained_and_repeated_lhs():
    order = OrderSpec(Alphabet(("a", "b")))
    rules = (
        Rule("r1", W("a a b"), W("a")),  # contains r3's lhs
        Rule("r2", W("a b"), W("a")),
        Rule("r3", W("a a"), W("a")),
        Rule("r4", W("a b"), W("b")),    # repeats r2's lhs
    )
    assert LoggedSystem(rules, order=order).retired == {"r1", "r4"}


@pytest.mark.parametrize("name", sorted(LADDER))
def test_retired_equals_slicing_on_the_ladder(name):
    init = system_from_presentation(parse_presentation(LADDER[name][0]))
    for sys in (init, logged_knuth_bendix(init).system):
        assert sys.retired == scan_retired(sys)


@given(systems_and_words())
# r1's lhs is a proper suffix of r2's, seen only on the failure chain of its end
@example((system(("b", "1"), ("a b", "a")), ()))
# r2 repeats r1's lhs, seen only at their shared end state
@example((system(("a b", "a"), ("a b", "b")), ()))
# r1's lhs is a proper prefix of r2's
@example((system(("a", "1"), ("a b", "b")), ()))
@settings(max_examples=200, deadline=None)
def test_retired_equals_slicing_on_nested_and_repeated_lhs(case):
    sys, _ = case
    assert sys.retired == scan_retired(sys)


def test_reduced_system_retires_nothing(ab_completion):
    assert ab_completion.system.retired == set()
    assert all("retired" not in rule for rule in system_to_json(ab_completion)["rules"])


PRESENTATIONS = Path(__file__).resolve().parent.parent / "presentations"


@pytest.mark.parametrize("name", [*NINE_GROUPS, *(p.stem for p in sorted(PRESENTATIONS.glob("*.txt")))])
def test_retirement_invariants(name):
    text = NINE_GROUPS[name][0] if name in NINE_GROUPS else (PRESENTATIONS / f"{name}.txt").read_text()
    result = logged_knuth_bendix(system_from_presentation(parse_presentation(text)))
    assert result.status == "complete"
    check_retirement(result.system)
    # each side's end word is where its steps replay to from the superposition
    sys = result.system
    for overlap in critical_pairs(sys, 0):
        for steps, end in sides(overlap.left, overlap.right, sys):
            assert end == tc.target(TwoCell(overlap.superposition, steps), sys.rule_map)


@pytest.mark.parametrize("relations,letters,gone", [
    ("a a a = a\na a = 1\n", ("a",), {"r1"}),      # r1's lhs contains r2's
    ("a b = c\na b = 1\n", ("a", "b", "c"), {"r2"}),  # r2 repeats r1's lhs
], ids=["nested", "repeated"])
def test_nested_or_repeated_initial_lhs(relations, letters, gone):
    text = f"monoid\nletters: {' '.join(letters)}\norder: shortlex\nrules:\n{relations}"
    presentation = parse_presentation(text)
    result = logged_knuth_bendix(system_from_presentation(presentation))
    assert result.status == "complete"
    sys = result.system
    assert sys.retired == gone
    check_retirement(sys)
    classes = congruence_classes(letters, presentation.relations, 4)
    for u in words_over(letters, 4):
        for v in words_over(letters, 4):
            assert (normal_form(u, sys) == normal_form(v, sys)) == (classes[u] == classes[v]), (u, v)


@pytest.mark.parametrize("name", sorted(LADDER))
def test_saved_ladder_system_loads(name):
    # a retired rule keeps its id and log, so the logs that cite it replay
    init = system_from_presentation(parse_presentation(LADDER[name][0]))
    result = logged_knuth_bendix(init)
    data = json.loads(json.dumps(system_to_json(result)))
    assert any(rule.get("retired") for rule in data["rules"]) == (name != "Z8xZ9")
    again = system_from_json(data, init.order)
    assert again.system.rules == result.system.rules
    assert system_to_json(again) == data


@pytest.mark.parametrize("limits", [CompletionLimits(), CompletionLimits(max_rules=4)],
                         ids=["default", "max_rules=4"])
@given(text=presentations())
@example(text=NOTES)  # stops at the word-length limit; its rule r199 expands to about 1.1e17 steps
@settings(max_examples=40, deadline=None)
def test_saved_system_round_trips(limits, text):
    # complete and partial systems alike: the loaded one writes the same
    # JSON, and each derived rule's log expands onto the initial rules.
    # Expansion can grow exponentially with derivation depth, so only logs
    # of at most 10^4 expanded steps are built; loading replayed them all
    init = system_from_presentation(parse_presentation(text))
    result = logged_knuth_bendix(init, limits)
    data = json.loads(json.dumps(system_to_json(result)))
    again = system_from_json(data, init.order)
    assert again.status == result.status
    assert system_to_json(again) == data
    lengths = expanded_lengths(again.system)
    for rid, log in again.system.logs.items():
        if lengths[rid] > 10 ** 4:
            continue
        expanded = expand_log(log, again.system)
        assert len(expanded.steps) == lengths[rid]
        assert expanded.source == again.system.rule_map[rid].lhs
        assert tc.target(expanded, init.rule_map) == again.system.rule_map[rid].rhs


def test_system_does_not_write_into_caller_dicts():
    logs = {}
    rule = Rule("r1", W("a a"), W("a"))
    sys = LoggedSystem((rule,), logs, order=OrderSpec(Alphabet(("a",))))
    assert sys.logs is not logs
    sys._add_rule(Rule("r2", W("a a a"), W("a")), TwoCell(W("a a a"), ()))
    assert logs == {}
    assert list(sys.logs) == ["r2"]


def test_a_system_built_from_a_list_completes_and_leaves_the_list(ab_presentation):
    # a kept list was concatenated with a tuple at the first derived rule
    rules = list(orient(ab_presentation))
    kept = rules[:]
    from_list = logged_knuth_bendix(LoggedSystem(rules, order=ab_presentation.order))
    expected = logged_knuth_bendix(LoggedSystem(tuple(rules), order=ab_presentation.order))
    assert system_to_json(from_list) == system_to_json(expected)
    assert len(from_list.system.rules) > len(rules) and rules == kept


def test_system_json_round_trip(ab_completion):
    data = system_to_json(ab_completion)
    again = system_from_json(json.loads(json.dumps(data)), ab_completion.system.order)
    assert again.status == ab_completion.status
    assert again.system.rules == ab_completion.system.rules
    assert again.system.logs == ab_completion.system.logs
    assert again.system.complete
    assert system_to_json(ab_completion) == system_to_json(again)


@pytest.mark.parametrize("field,value,message", [
    ("log", None, "rule r3: derived without a log"),
    ("provenance", "guessed", "rule r3: unknown provenance 'guessed'"),
    ("provenance", "initial", "rule r3: initial with a log"),
    ("log", lambda log: {**log, "steps": [{**s, "rule": "r9"} for s in log["steps"]]},
     "rule r3: log does not replay: unknown rule 'r9'"),
    ("log", lambda log: {**log, "steps": log["steps"][:1]},
     "rule r3: log does not run from its lhs to its rhs"),
    (None, lambda entry: {"lhs": entry["rhs"], "rhs": entry["lhs"]},
     "rule r1: lhs is not greater than rhs"),
    ("lhs", "x y", "rule r1: letter 'x' not in alphabet"),
    ("lhs", "x b", "rule r1: letter 'x' not in alphabet"),
    ("rhs", "y", "rule r1: letter 'y' not in alphabet"),
    ("lhs", "1", "rule r1: needs a non-empty lhs"),
])
def test_system_from_json_rejects_bad_rule(ab_completion, field, value, message):
    # a derived rule (r3) without a log would fail later, in expand_log, as
    # a bare KeyError, an initial one with a log would keep its steps in
    # expand_log, and a log that does not replay would be expanded into
    # steps of rules that are not there; an initial rule (r1) that does not
    # decrease sends normal_form round forever, and one over letters outside
    # the order (r1 is a b -> a) would rewrite words it cannot occur in, as
    # x y -> a makes x y x y reduce to a a; loading names the rule instead
    data = system_to_json(ab_completion)
    rid = message.split(":")[0].removeprefix("rule ")
    [entry] = [e for e in data["rules"] if e["id"] == rid]
    assert entry["provenance"] == ("derived" if rid == "r3" else "initial")
    if field is None:
        entry.update(value(entry))
    else:
        entry[field] = value(entry[field]) if callable(value) else value
    with pytest.raises(ValueError, match=message):
        system_from_json(data, ab_completion.system.order)


MISSING = object()


@pytest.mark.parametrize("path,value,message", [
    (("rules", 0, "id"), MISSING, "^rule entry 0: needs a string id$"),
    (("rules", 2, "log", "source"), MISSING, "^rule r3: missing 'source'$"),
    (("rules", 2, "log", "steps", 0), "r1", "^rule r3: string indices must be integers"),
    (("rules",), 3, "^a saved system needs a list of rules$"),
    (("rules", 2, "log", "steps", 0, "exp"), 2, "^rule r3: step exponent must be 1 or -1, got 2$"),
], ids=["no-id", "log-without-source", "step-as-string", "rules-not-a-list", "exponent-2"])
def test_system_from_json_raises_value_error_on_malformed_json(ab_completion, path, value, message):
    # a caller that loads a saved file catches ValueError alone, so none of
    # these may raise KeyError or TypeError, and each names what is wrong
    data = json.loads(json.dumps(system_to_json(ab_completion)))
    *outer, last = path
    place = data
    for key in outer:
        place = place[key]
    if value is MISSING:
        del place[last]
    else:
        place[last] = value
    with pytest.raises(ValueError, match=message):
        system_from_json(data, ab_completion.system.order)


def test_system_from_json_reads_a_missing_provenance_as_initial(ab_completion):
    data = system_to_json(ab_completion)
    for entry in data["rules"]:
        del entry["provenance"]
    with pytest.raises(ValueError, match="rule r3: initial with a log"):
        system_from_json(data, ab_completion.system.order)


def test_system_from_json_rejects_an_unknown_status(abc_completion):
    # the status was handed back as read, and written out again
    order = abc_completion.system.order
    data = {**system_to_json(abc_completion), "status": "bogus"}
    with pytest.raises(ValueError, match="unknown status 'bogus'"):
        system_from_json(data, order)
    del data["status"]
    assert system_from_json(data, order).status == "limit"


def test_system_from_json_rejects_duplicate_id():
    # both load as rule index 0 and 1, but a step names its rule by id, so
    # reduction would apply the second r1 where the first one matched
    data = {"status": "limit", "rules": [
        {"id": "r1", "lhs": "a a", "rhs": "1"}, {"id": "r1", "lhs": "b b", "rhs": "a"},
    ]}
    with pytest.raises(ValueError, match="rule r1: duplicate id"):
        system_from_json(data, OrderSpec(Alphabet(("a", "b"))))


def test_completion_gives_a_new_rule_an_id_no_listed_rule_has():
    # a loaded system may use any ids; named by the rule count alone, the
    # fourth rule was r4 again, so a step of one r4 replayed as the other
    # (19 of the words below) and the completed system did not load back
    order = OrderSpec(Alphabet(("a", "b")))
    init = LoggedSystem((Rule("r1", W("a a"), ()), Rule("r4", W("b b b"), ()),
                         Rule("r2", W("a b a b"), ())), order=order)
    result = logged_knuth_bendix(init)
    assert result.status == "complete"
    sys = result.system
    ids = [rule.rid for rule in sys.rules]
    assert ids[:4] == ["r1", "r4", "r2", "r5"] and len(set(ids)) == len(ids)
    for w in words_over(("a", "b"), 6):
        assert tc.target(reduce_logged(w, sys), sys.rule_map) == normal_form(w, sys)
    assert system_to_json(system_from_json(system_to_json(result), order)) == system_to_json(result)


@pytest.mark.parametrize("justifier", [
    {"id": "r3", "lhs": "b b", "rhs": "1", "provenance": "initial", "log": None},
    {"id": "r3", "lhs": "a", "rhs": "b", "provenance": "initial", "log": None},
], ids=["self", "later"])
def test_system_from_json_rejects_a_log_that_names_no_earlier_rule(justifier):
    # a a = 1 does not make a equal b; a derived r2: a -> b whose one-step
    # log is r2 itself replays, and then proves a = b by that step and sends
    # expand_log round forever; a log through a later rule is no better
    order = OrderSpec(Alphabet(("a", "b")))
    named = "r2" if justifier["lhs"] == "b b" else "r3"
    data = {"status": "limit", "rules": [
        {"id": "r1", "lhs": "a a", "rhs": "1", "provenance": "initial", "log": None},
        {"id": "r2", "lhs": "a", "rhs": "b", "provenance": "derived",
         "log": tc.cell_to_json(TwoCell(W("a"), (Step((), named, 1, ()),)))},
        justifier,
    ]}
    with pytest.raises(ValueError, match=f"^rule r2: log names rule {named}, which is not listed before it$"):
        system_from_json(data, order)


def test_system_from_json_checks_a_complete_status():
    # abc_cyclic's two initial rules do not resolve a b c; were they taken
    # as complete, prove would call a a and c c unequal, which they are not
    init = system_from_presentation(parse_presentation((PRESENTATIONS / "abc_cyclic.txt").read_text()))
    data = {**system_to_json(completion.CompletionResult(init)), "status": "complete"}
    with pytest.raises(ValueError, match="branching of rules r1 and r2 does not resolve"):
        system_from_json(data, init.order)
    assert isinstance(prove(W("a a"), W("c c"), logged_knuth_bendix(init).system), TwoCell)


@pytest.mark.parametrize("name", ["abc_cyclic", "ab_monoid"])
def test_saved_partial_system_resumes(name):
    # the saved JSON has no order, so it is passed back in on loading
    path = PRESENTATIONS / f"{name}.txt"
    init = system_from_presentation(parse_presentation(path.read_text()))
    partial = logged_knuth_bendix(init, CompletionLimits(3))
    assert partial.status == "limit"
    data = json.loads(json.dumps(system_to_json(partial)))
    resumed = logged_knuth_bendix(system_from_json(data, init.order).system)
    direct = logged_knuth_bendix(init)
    assert resumed.status == direct.status == "complete"
    assert [(r.lhs, r.rhs) for r in resumed.system.rules] == [
        (r.lhs, r.rhs) for r in direct.system.rules
    ]


@pytest.mark.parametrize("name,max_rules", [("S4", 10), ("triangle_r5", 12)])
def test_resumed_completion_keeps_normal_forms(name, max_rules):
    # resumption restarts the overlap search from the first pair, so its
    # derived rules, their ids and their order may differ from a direct run
    # (here S4 lists its rules in another order, A5 one rule fewer); the
    # normal forms may not
    init = system_from_presentation(parse_presentation(LADDER[name][0]))
    partial = logged_knuth_bendix(init, CompletionLimits(max_rules))
    assert partial.status == "limit"
    data = json.loads(json.dumps(system_to_json(partial)))
    resumed = logged_knuth_bendix(system_from_json(data, init.order).system)
    direct = logged_knuth_bendix(init)
    assert resumed.status == direct.status == "complete"
    check_retirement(resumed.system)
    for w in words_over(init.order.alphabet.letters, 6):
        assert normal_form(w, resumed.system) == normal_form(w, direct.system), w


@pytest.mark.parametrize("name", [*sorted(LADDER), *INFINITE])
def test_max_rules_alone_stops_and_resumes(name):
    # each max_rules from the initial rule count to the completed one: the
    # run lists at most that many rules, its pending branchings of a retired
    # rule are inclusions, and resuming it reaches a direct run's normal forms,
    # counted on a group and on an infinite monoid compared at every length
    init = system_from_presentation(parse_presentation(LADDER[name][0] if name in LADDER else INFINITE[name]))
    done = logged_knuth_bendix(init).system
    counts, touching = count_normal_forms(done, 200) if name in LADDER else None, 0
    for max_rules in range(len(init.rules), len(done.rules) + 1):
        result = logged_knuth_bendix(init, CompletionLimits(max_rules))
        assert len(result.system.rules) <= max_rules
        assert result.status == ("complete" if max_rules == len(done.rules) else "limit")
        gone = result.system.retired
        cases = [o.case for o in result.pending if {o.left.rule, o.right.rule} & gone]
        assert set(cases) <= {"i", "iv"}, max_rules
        touching += len(cases)
        resumed = logged_knuth_bendix(result.system)
        assert resumed.status == "complete", max_rules
        if counts is None:  # equal to this length, so at every length (helpers.growth_length)
            length = live_states(done) + live_states(resumed.system)
            assert growth(resumed.system, length) == growth(done, length), max_rules
        else:
            assert count_normal_forms(resumed.system, 200) == counts, max_rules
    assert touching or not done.retired
