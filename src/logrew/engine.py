"""Logged reduction: find redexes, rewrite to normal form, emit witnesses.

The reduction strategy is fixed to leftmost position, then lowest rule
index, so logs are reproducible.  Derived rules carry an unexpanded log;
``expand_log`` rewrites any cell so it references initial rules only.

Redexes are found by the index automaton of Sims 1994: a trie of the
left-hand sides with the failure links of Aho & Corasick 1975, which one
insertion grows by an lhs and the rules it retires: a system made from a
rule list inserts them in turn, ``with_rule`` one into a copy of its
parent's, and no index is written after it is made.  Reduction reads the
word once, one table entry per letter, keeping the state after each.  A
longer lhs can start further left yet end later, so it reads on until no
open partial match starts left of the leftmost redex found.  After a
rewrite it reads on from the redex, rereading only the right-hand side.
"""

from __future__ import annotations

import enum

from .core import OrderSpec, Presentation, Rule, Word, orient
from . import twocell
from .twocell import Step, TwoCell


class Verdict(enum.Enum):
    NOT_EQUAL = "not-equal"
    UNKNOWN = "unknown"


class _Automaton:
    """The lhs index automaton over int states, 0 the root; each state's word
    is the path to it in the trie of left-hand sides.  Per state: step, its
    move on each letter to the state of the longest suffix of word + letter
    that is a trie state (absent: the root; a move one deeper is a trie
    edge); depth; fail, the state of its longest proper suffix that is a
    trie state; and out, the state of the longest lhs that is a suffix of
    its word, 0 if none.  kids maps a state to its children in the failure
    tree (the states it is the failure link of), hits an lhs end state to
    the rules that end there, through a state to the rules whose lhs runs
    on past it, and lowest an lhs end state to the lowest rule ending on its
    trie path; paths holds each rule's states, one per letter, and retired
    the rules with another lhs as a proper factor or an earlier equal one.

    ``_add`` is the one way an lhs enters the index: a system made from a
    rule list adds them in turn from the root, ``extended`` one to a copy,
    so no index is written after it is made."""

    __slots__ = ("step", "depth", "fail", "out", "kids", "hits", "through", "lowest", "paths",
                 "retired")

    def __init__(self, rules: tuple[Rule, ...]):
        self.step, self.depth, self.fail, self.out, self.kids = [{}], [0], [0], [0], {}
        self.hits, self.through, self.lowest, self.paths, self.retired = {}, {}, {}, (), frozenset()
        for rule in rules:
            self._add(rule)

    def extended(self, rule: Rule) -> "_Automaton":
        """A copy with rule's lhs added as the next rule's; this index is not written."""
        grown = object.__new__(_Automaton)
        grown.step, grown.depth, grown.fail, grown.out, grown.kids = (
            self.step[:], self.depth[:], self.fail[:], self.out[:], self.kids.copy())
        grown.hits, grown.through, grown.lowest, grown.paths, grown.retired = (
            self.hits.copy(), self.through.copy(), self.lowest.copy(), self.paths, self.retired)
        grown._add(rule)
        return grown

    def _add(self, rule: Rule) -> None:
        """Add rule's lhs as the next rule's, replacing but never writing a row, tuple
        or set, so a copy of the top-level lists and dicts leaves its original as it was."""
        if not rule.lhs:
            raise ValueError(f"rule {rule.rid}: needs a non-empty lhs")
        step, depth, fail, out, kids = self.step, self.depth, self.fail, self.out, self.kids
        x, s, path = len(self.paths), 0, []
        for letter in rule.lhs:
            t = step[s].get(letter, 0)
            if depth[t] != depth[s] + 1:  # no trie edge: t is a new state, s's child
                t, f = len(depth), step[fail[s]].get(letter, 0) if s else 0
                # the states whose word ends with s's, up to one with an edge
                # of its own on letter, now move to t; the edge's far end had
                # f as its longest proper suffix and now has t
                step[s], todo, moved = {**step[s], letter: t}, [s], []
                for u in todo:
                    for v in kids.get(u, ()):
                        w = step[v].get(letter, 0)
                        if depth[w] == depth[v] + 1:
                            moved.append(w)
                        else:
                            step[v] = {**step[v], letter: t}
                            todo.append(v)
                step.append(dict(step[f]))
                depth.append(depth[s] + 1)
                fail.append(f)
                out.append(out[f])
                kids[f] = (*(v for v in kids.get(f, ()) if v not in moved), t)
                if moved:
                    kids[t] = tuple(moved)
                    for w in moved:
                        fail[w] = t
            s = t
            path.append(s)
        # retired: the new rule when a listed lhs is a factor of it, and the
        # listed ones through, or ending below, its end state in the failure tree
        gone = [x] if any(out[u] for u in path) else []
        if out[s] != s:  # else an equal lhs is listed: out is raised and they are retired
            for u in self.below(s):
                if depth[out[u]] < depth[s]:
                    out[u] = s
                gone += self.through.get(u, ()) + self.hits.get(u, ())
        for u in path[:-1]:
            self.through[u] = (*self.through.get(u, ()), x)
        self.hits[s] = (*self.hits.get(s, ()), x)
        self.lowest[s] = min(self.hits[u][0] for u in path if u in self.hits)
        self.paths += (tuple(path),)
        self.retired = self.retired.union(gone)

    def below(self, s: int) -> list[int]:
        """s and its descendants in the failure tree: the states whose word ends with s's."""
        states = [s]
        for u in states:
            states.extend(self.kids.get(u, ()))
        return states


class LoggedSystem:
    """Rules, the ids of those retired, and for each derived one (exactly those logged) its log."""

    __slots__ = ("rules", "logs", "complete", "order", "rule_map", "retired", "_lhs")

    def __init__(self, rules: tuple[Rule, ...], logs: dict = {}, *, order: OrderSpec):
        self.rules, self.complete, self.order = rules, False, order
        self.logs = dict(logs)  # an own copy, so the caller's dict is never written or shared
        self.rule_map = {r.rid: r for r in rules}
        self._lhs = _Automaton(rules)
        self.retired = frozenset(rules[x].rid for x in self._lhs.retired)
        # a step names its rule by id, so ids are unique, and each rule
        # decreases, so reduction ends
        place = {}  # id -> index
        for x, rule in enumerate(rules):
            try:  # the key ranks every letter of both words
                decreasing = order.greater(rule.lhs, rule.rhs)
            except ValueError as err:
                raise ValueError(f"rule {rule.rid}: {err}") from None
            if rule.rid in place or not decreasing:
                fault = "duplicate id" if rule.rid in place else "lhs is not greater than rhs"
                raise ValueError(f"rule {rule.rid}: {fault}")
            place[rule.rid] = x
        # each log names only rules listed before its own and replays from its
        # rule's lhs to its rhs, so it expands onto initial rules; with_rule and
        # _as_complete take completion's own rules and logs and check neither
        for rid, log in self.logs.items():
            if not isinstance(log, TwoCell):
                raise ValueError(f"rule {rid}: log is not a two-cell")
            if rid not in place:
                raise ValueError(f"rule {rid}: a log for a rule that is not listed")
            later = next((s.rule for s in log.steps if place.get(s.rule, -1) >= place[rid]), None)
            if later is not None:
                raise ValueError(f"rule {rid}: log names rule {later}, which is not listed before it")
            try:
                end = twocell.target(log, self.rule_map)
            except twocell.ChainError as err:
                raise ValueError(f"rule {rid}: log does not replay: {err}") from None
            if (log.source, end) != (self.rule(rid).lhs, self.rule(rid).rhs):
                raise ValueError(f"rule {rid}: log does not run from its lhs to its rhs")

    def rule(self, rid: str) -> Rule:
        return self.rule_map[rid]

    def with_rule(self, rule: Rule, log: TwoCell) -> "LoggedSystem":
        """The system with one more rule, its index this one's extended by the rule's lhs."""
        grown = object.__new__(LoggedSystem)
        grown.rules, grown.complete, grown.order = self.rules + (rule,), False, self.order
        grown.logs, grown.rule_map = {**self.logs, rule.rid: log}, {**self.rule_map, rule.rid: rule}
        grown._lhs = self._lhs.extended(rule)
        grown.retired = frozenset(grown.rules[x].rid for x in grown._lhs.retired)
        return grown

    def _as_complete(self) -> "LoggedSystem":
        """The system flagged complete, sharing its index; only completion and a checked load call it."""
        done = object.__new__(LoggedSystem)
        done.rules, done.logs, done.order, done.rule_map, done._lhs, done.retired = (
            self.rules, self.logs, self.order, self.rule_map, self._lhs, self.retired)
        done.complete = True
        return done


def system_from_presentation(p: Presentation) -> LoggedSystem:
    return LoggedSystem(orient(p), order=p.order)


def reduce_into(w: Word, sys: LoggedSystem, steps: list | None) -> Word:
    """The normal form of w by leftmost, lowest-index rewriting; each step
    is appended to steps unless steps is None."""
    lhs = sys._lhs
    step, depth, out, through, lowest = lhs.step, lhs.depth, lhs.out, lhs.through, lhs.lowest
    rules, current, stack = sys.rules, w, [0]  # stack[i]: the state after current[:i]
    while True:
        # read on until no partial match can start left of the best start
        best = n = len(current)
        pos, state = len(stack) - 1, stack[-1]
        while pos < n and pos - depth[state] < best:
            state = step[state].get(current[pos], 0)
            pos += 1
            stack.append(state)
            end = out[state]
            if end and pos - depth[end] < best:
                best, found = pos - depth[end], end
        if best == n:
            return current
        # the lowest rule whose lhs starts at best: on found's trie path, or
        # on a longer one, walked while some lhs runs on
        low = lowest[found]
        if found in through:
            state = found
            for pos in range(best + depth[found], n):
                state = step[state].get(current[pos], 0)
                if depth[state] != pos + 1 - best:
                    break
                low = lowest.get(state, low)
                if state not in through:
                    break
        rule = rules[low]
        suffix = current[best + len(rule.lhs):]
        if steps is not None:
            steps.append(Step(current[:best], rule.rid, 1, suffix))
        current = current[:best] + rule.rhs + suffix
        del stack[best + 1:]


def reduce_logged(w: Word, sys: LoggedSystem) -> TwoCell:
    """Reduce to an irreducible word, logging every application."""
    steps: list[Step] = []
    reduce_into(w, sys, steps)
    return TwoCell(w, tuple(steps))


def normal_form(w: Word, sys: LoggedSystem) -> Word:
    return reduce_into(w, sys, None)


def prove(w1: Word, w2: Word, sys: LoggedSystem) -> TwoCell | Verdict:
    """A cell w1 -> w2 when their normal forms agree, else a verdict.

    NOT_EQUAL is only claimed for systems flagged complete; otherwise
    disagreeing normal forms yield UNKNOWN.
    """
    down1, down2 = [], []
    if reduce_into(w1, sys, down1) == reduce_into(w2, sys, down2):
        return TwoCell(w1, tuple(down1) + twocell.invert_steps(down2))
    return Verdict.NOT_EQUAL if sys.complete else Verdict.UNKNOWN


def expand_log(cell: TwoCell, sys: LoggedSystem) -> TwoCell:
    """Replace derived-rule steps by their stored logs until only initial rules remain;
    a log names only earlier rules, so each rule reached expands, once per exponent, in list order."""
    logs, rules = sys.logs, sys.rules
    reached = {step.rule for step in cell.steps if step.rule in logs}
    for rule in reversed(rules):
        if rule.rid in reached:
            reached.update(step.rule for step in logs[rule.rid].steps if step.rule in logs)
    expanded: dict[tuple[str, int], TwoCell] = {}  # (rule, exponent) -> its log, expanded

    def _expand(c: TwoCell) -> TwoCell:
        steps: list[Step] = []
        for step in c.steps:
            if step.rule not in logs:  # an initial rule
                steps.append(step)
                continue
            key = step.rule, step.exp
            if key not in expanded:  # a log runs from its rule's lhs to its rhs
                expanded[key] = TwoCell(sys.rule(step.rule).rhs, twocell.invert_steps(
                    expanded[step.rule, 1].steps))
            steps.extend(twocell.whisker(step.prefix, expanded[key], step.suffix).steps)
        return TwoCell(c.source, tuple(steps))

    for rule in rules:
        if rule.rid in reached:
            expanded[rule.rid, 1] = _expand(logs[rule.rid])
    return _expand(cell)
