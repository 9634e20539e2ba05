"""Logged reduction: find redexes, rewrite to normal form, emit witnesses.

The reduction strategy is fixed to leftmost position, then lowest rule
index, so logs are reproducible.  Derived rules carry an unexpanded log;
``expand_log`` rewrites any cell so it references initial rules only.

Redexes are found by the index automaton of Sims 1994: a trie of the
left-hand sides with the failure links of Aho & Corasick 1975.  A system
made from a rule list builds it in full; ``with_rule`` extends a copy of
its parent's by the one new lhs, and no index is written after it is
made.  Reduction reads the word once, one table entry per letter,
keeping the state after each.  A longer lhs can start further left yet
end later, so it reads on until no open partial match starts left of the
leftmost redex found.  After a rewrite it reads on from the redex,
rereading only the right-hand side.
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
    trie path; paths holds each rule's states, one per letter.

    A system made from a rule list builds its index in full, breadth first;
    ``extended`` grows a copy by one lhs and writes only copies of the
    lists, dicts and rows it changes, so no index is written after it is
    made."""

    __slots__ = ("step", "depth", "fail", "out", "kids", "hits", "through", "lowest", "paths")

    def __init__(self, rules: tuple[Rule, ...]):
        step, depth, hits, through, paths = [{}], [0], {}, {}, []
        for x, rule in enumerate(rules):
            s, path = 0, []
            for letter in rule.lhs:
                if letter not in step[s]:
                    step[s][letter] = len(depth)
                    step.append({})
                    depth.append(depth[s] + 1)
                s = step[s][letter]
                path.append(s)
            for u in path[:-1]:
                through[u] = (*through.get(u, ()), x)
            hits[s] = (*hits.get(s, ()), x)  # an empty lhs ends at the root, never read
            paths.append(tuple(path))
        fail, out, kids, order = [0] * len(depth), [0] * len(depth), {}, [0]
        for s in order:  # breadth first: every state shallower than s is done
            edges, f = step[s], fail[s]
            if s:
                step[s] = {**step[f], **edges}
            for letter, t in edges.items():
                fail[t] = step[f].get(letter, 0) if s else 0
                out[t] = t if t in hits else out[fail[t]]
                kids[fail[t]] = (*kids.get(fail[t], ()), t)
                order.append(t)
        self.step, self.depth, self.fail, self.out, self.kids = step, depth, fail, out, kids
        self.hits, self.through, self.paths = hits, through, tuple(paths)
        self.lowest = {path[-1]: min(hits[u][0] for u in path if u in hits) for path in paths if path}

    def extended(self, lhs: Word) -> "_Automaton":
        """A copy with lhs added as the next rule's; this index is not written."""
        step, depth, fail, out = self.step[:], self.depth[:], self.fail[:], self.out[:]
        kids, x, s, path = self.kids.copy(), len(self.paths), 0, []
        for letter in lhs:
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
        through, hits = self.through.copy(), self.hits.copy()
        for u in path[:-1]:
            through[u] = (*through.get(u, ()), x)
        hits[s] = (*hits.get(s, ()), x)
        grown = object.__new__(_Automaton)
        grown.step, grown.depth, grown.fail, grown.out, grown.kids = step, depth, fail, out, kids
        grown.hits, grown.through, grown.paths = hits, through, self.paths + (tuple(path),)
        grown.lowest = {**self.lowest, s: min(hits[u][0] for u in path if u in hits)}
        if out[s] != s:
            for u in grown.below(s):
                if depth[out[u]] < depth[s]:
                    out[u] = s
        return grown

    def below(self, s: int) -> list[int]:
        """s and its descendants in the failure tree: the states whose word ends with s's."""
        states = [s]
        for u in states:
            states.extend(self.kids.get(u, ()))
        return states


class LoggedSystem:
    """Rules, and for each derived one (exactly those logged) the cell witnessing lhs -> rhs."""

    __slots__ = ("rules", "logs", "complete", "order", "_index", "_lhs")

    def __init__(self, rules: tuple[Rule, ...], logs: dict = {}, complete: bool = False, *,
                 order: OrderSpec):
        self.rules, self.complete, self.order = rules, complete, order
        self.logs = dict(logs)  # an own copy, so the caller's dict is never written or shared
        self._index = {r.rid: r for r in rules}
        self._lhs = _Automaton(rules)

    @property
    def rule_map(self) -> dict[str, Rule]:
        return self._index

    def rule(self, rid: str) -> Rule:
        return self._index[rid]

    def with_rule(self, rule: Rule, log: TwoCell) -> "LoggedSystem":
        """The system with one more rule, its index this one's extended by the rule's lhs."""
        grown = object.__new__(LoggedSystem)
        grown.rules, grown.complete, grown.order = self.rules + (rule,), False, self.order
        grown.logs, grown._index = {**self.logs, rule.rid: log}, {**self._index, rule.rid: rule}
        grown._lhs = self._lhs.extended(rule.lhs)
        return grown

    def as_complete(self) -> "LoggedSystem":
        """The system flagged complete, sharing the logs and index nothing writes."""
        done = object.__new__(LoggedSystem)
        done.rules, done.logs, done.order, done._index, done._lhs = (
            self.rules, self.logs, self.order, self._index, self._lhs)
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
    """Replace derived-rule steps by their stored logs until only initial rules remain."""
    expanded: dict[tuple[str, int], TwoCell] = {}  # (rule, exponent) -> its log, expanded

    def rule_log(rid: str, exp: int) -> TwoCell:
        if (rid, exp) not in expanded:
            if exp == 1:
                expanded[rid, exp] = _expand(sys.logs[rid])
            else:  # a log runs from its rule's lhs to its rhs
                expanded[rid, exp] = TwoCell(sys.rule(rid).rhs, twocell.invert_steps(rule_log(rid, 1).steps))
        return expanded[rid, exp]

    def _expand(c: TwoCell) -> TwoCell:
        steps: list[Step] = []
        for step in c.steps:
            if step.rule not in sys.logs:  # an initial rule
                steps.append(step)
                continue
            steps.extend(twocell.whisker(step.prefix, rule_log(step.rule, step.exp), step.suffix).steps)
        return TwoCell(c.source, tuple(steps))

    return _expand(cell)
