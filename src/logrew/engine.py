"""Logged reduction: find redexes, rewrite to normal form, emit witnesses.

The reduction strategy is fixed to leftmost position, then lowest rule
index, so logs are reproducible.  Derived rules carry an unexpanded log;
``expand_log`` rewrites any cell so it references initial rules only.

Redexes are found by the index automaton of Sims 1994: a trie of the
left-hand sides with the failure links of Aho & Corasick 1975, built in
full, breadth first, with each ``LoggedSystem`` and never written after.
Reduction reads the word once, keeping the state after each letter.  A
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
    """The lhs index automaton over int states, 0 the root, built in full
    with each system and never written after.  Per state: its trie edges,
    depth, failure link (the state of the longest proper suffix of its word
    that has one) and the length of the longest lhs that is a suffix of its
    word, 0 if none; hits maps a state to the rules whose lhs ends there,
    ascending."""

    def __init__(self, rules: tuple[Rule, ...]):
        goto, depth, hits = [{}], [0], {}
        for i, rule in enumerate(rules):
            s = 0
            for letter in rule.lhs:
                t = goto[s].get(letter)
                if t is None:
                    t = goto[s][letter] = len(goto)
                    goto.append({})
                    depth.append(depth[s] + 1)
                s = t
            hits.setdefault(s, []).append(i)  # an empty lhs ends at the root, never read
        fail, out = [0] * len(goto), [0] * len(goto)
        order = [0]
        for s in order:  # breadth first: every link on fail[s]'s chain is set
            for letter, t in goto[s].items():
                f = fail[s]
                while f and letter not in goto[f]:
                    f = fail[f]
                fail[t] = goto[f].get(letter, 0) if s else 0
                out[t] = depth[t] if t in hits else out[fail[t]]
                order.append(t)
        self.goto, self.depth, self.hits, self.fail, self.out = goto, depth, hits, fail, out


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
        return LoggedSystem(
            self.rules + (rule,),
            {**self.logs, rule.rid: log},
            complete=False,
            order=self.order,
        )

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
    goto, depth, fail, out, hits = lhs.goto, lhs.depth, lhs.fail, lhs.out, lhs.hits
    current, stack = w, [0]  # stack[i]: the state after current[:i]
    while True:
        # read on until no partial match can start left of the best start
        best = n = len(current)
        pos, state = len(stack) - 1, stack[-1]
        while pos < n and pos - depth[state] < best:
            letter = current[pos]
            while (t := goto[state].get(letter)) is None and state:
                state = fail[state]
            state = t or 0  # no trie edge leads back to the root
            pos += 1
            stack.append(state)
            longest = out[state]
            if longest and pos - longest < best:
                best = pos - longest
        if best == n:
            return current
        # the lowest rule whose lhs starts at best: one walk down the trie
        low, state = len(sys.rules), 0
        for pos in range(best, n):
            state = goto[state].get(current[pos])
            if state is None:
                break
            if state in hits and hits[state][0] < low:
                low = hits[state][0]
        rule = sys.rules[low]
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
    expanded: dict[str, TwoCell] = {}

    def rule_log(rid: str) -> TwoCell:
        if rid not in expanded:
            expanded[rid] = _expand(sys.logs[rid])
        return expanded[rid]

    def _expand(c: TwoCell) -> TwoCell:
        steps: list[Step] = []
        for step in c.steps:
            if step.rule not in sys.logs:  # an initial rule
                steps.append(step)
                continue
            inner = rule_log(step.rule)
            if step.exp == -1:  # a log runs from its rule's lhs to its rhs
                inner = TwoCell(sys.rule(step.rule).rhs, twocell.invert_steps(inner.steps))
            steps.extend(twocell.whisker(step.prefix, inner, step.suffix).steps)
        return TwoCell(c.source, tuple(steps))

    return _expand(cell)
