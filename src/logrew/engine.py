"""Logged reduction: find redexes, rewrite to normal form, emit witnesses.

The reduction strategy is fixed to leftmost end, then longest lhs, then
lowest rule index, so logs are reproducible.  Reduction records each rewrite
as a move, (start, rule index), and ``replay_moves`` builds the steps of the
moves a caller keeps: ``prove`` keeps those before its two reductions
coincide.  ``expand_log`` rewrites any cell so it references initial rules
only, keeping each rule's expansion in its system's table for later calls.

Redexes are found by the index automaton of Sims 1994: a trie of the
left-hand sides with the failure links of Aho & Corasick 1975, whose tables
the ``LoggedSystem`` holds.  ``LoggedSystem._add_rule`` is the one way a
rule enters a system: it checks the rule, inserts its lhs and retires the
rules the lhs makes redundant.  A system made from a rule list adds them in
turn, and completion each rule it derives into its copy of its input's
system, before returning it.  Reduction reads the word once, one table
entry per letter, keeping the state after each.  As soon as a state ends an
lhs it rewrites there, in place, cuts the states back to the redex's start
and reads on from it, so no letter is read twice but a right-hand side's.
"""

from __future__ import annotations

import enum

from .core import OrderSpec, Presentation, Rule, Word, orient
from . import twocell
from .twocell import Step, TwoCell


class Verdict(enum.Enum):
    NOT_EQUAL = "not-equal"
    UNKNOWN = "unknown"


class LoggedSystem:
    """Rules, the ids of those retired (another lhs is a proper factor of
    theirs, or an earlier rule's lhs equals theirs), and for each derived
    one (exactly those logged) its log; _expanded maps a derived rule's id
    to the steps of its log expanded, filled by expand_log.  The rest is the lhs
    index automaton over int states, 0 the root, a state's word the path to
    it in the trie of left-hand sides.  Per state: _step, its move on each
    letter to the state of the longest suffix of word + letter that is a
    trie state (absent: the root; a move one deeper is a trie edge);
    _depth; _fail, the state of its longest proper suffix that is a trie
    state; and _out, the state of the longest lhs that is a suffix of its
    word, 0 if none.  _kids maps a state to its children in the failure
    tree, read by insertion only; _hits an lhs end state to the rules that
    end there, lowest index first, and _through a state to the rules whose
    lhs runs on past it, in the same order; _paths holds each rule's
    states, one per letter.  A rule is named by its index.  Completion grows
    a ``_copy`` of its input, whose rules and logs are not checked again."""

    __slots__ = ("rules", "logs", "complete", "order", "rule_map", "retired", "_expanded",
                 "_step", "_depth", "_fail", "_out", "_kids", "_hits", "_through", "_paths")

    def __init__(self, rules: tuple[Rule, ...], logs: dict = {}, *, order: OrderSpec):
        # own copies: the caller's list and dict are never written
        self.rules, self.logs, self.complete, self.order = (), dict(logs), False, order
        self.rule_map, self.retired, self._expanded = {}, frozenset(), {}
        self._step, self._depth, self._fail, self._out, self._kids = [{}], [0], [0], [0], {}
        self._hits, self._through, self._paths = {}, {}, []
        for rule in rules:
            self._add_rule(rule)
        # each log names only earlier rules and replays from its rule's lhs to
        # its rhs, so it expands onto initial rules; completion's are not replayed
        place = {rule.rid: x for x, rule in enumerate(self.rules)}
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
            if (log.source, end) != (self.rule_map[rid].lhs, self.rule_map[rid].rhs):
                raise ValueError(f"rule {rid}: log does not run from its lhs to its rhs")

    def _copy(self) -> LoggedSystem:
        """A copy to grow in place: per-state dicts and lists are copied, tuples
        shared.  Nothing is checked again, and no check is lost: each rule was
        checked as it entered, each log by the constructor unless completion wrote it."""
        new = LoggedSystem((), order=self.order)  # not complete, nothing expanded
        new.rules, new.retired, new._step = self.rules, self.retired, [*map(dict, self._step)]
        for name in ("logs", "rule_map", "_depth", "_fail", "_out", "_kids", "_hits", "_through", "_paths"):
            setattr(new, name, getattr(self, name).copy())
        return new

    def _add_rule(self, rule: Rule, log: TwoCell | None = None) -> None:
        """List rule, with its log if derived: the one way a rule enters a system.
        A rejected rule writes nothing.  Its lhs is not empty (reduction never
        looks at the root), its words are over the alphabet, its id is new (a
        step names its rule by id) and it decreases (so reduction ends)."""
        if not rule.lhs:
            raise ValueError(f"rule {rule.rid}: needs a non-empty lhs")
        try:  # the key ranks every letter of both words
            decreasing = self.order.greater(rule.lhs, rule.rhs)
        except ValueError as err:
            raise ValueError(f"rule {rule.rid}: {err}") from None
        if rule.rid in self.rule_map or not decreasing:
            fault = "duplicate id" if rule.rid in self.rule_map else "lhs is not greater than rhs"
            raise ValueError(f"rule {rule.rid}: {fault}")
        step, depth, fail, out, kids = self._step, self._depth, self._fail, self._out, self._kids
        x, s, path = len(self.rules), 0, []
        for letter in rule.lhs:
            t = step[s].get(letter, 0)
            if depth[t] != depth[s] + 1:  # no trie edge: t is a new state, s's child
                t, f = len(depth), step[fail[s]].get(letter, 0) if s else 0
                # the states whose word ends with s's, up to one with an edge
                # of its own on letter, now move to t; the edge's far end had
                # f as its longest proper suffix and now has t
                step[s][letter], todo, moved = t, [s], []
                for u in todo:
                    for v in kids.get(u, ()):
                        w = step[v].get(letter, 0)
                        if depth[w] == depth[v] + 1:
                            moved.append(w)
                        else:
                            step[v][letter] = t
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
        # retired: the new rule when a listed lhs is a factor of it, and the listed
        # ones through, or ending at, s or below it in the failure tree
        gone = [x] if any(out[u] for u in path) else []
        if out[s] != s:  # else an equal lhs is listed: out is raised and they are retired
            below = [s]
            for u in below:
                below.extend(kids.get(u, ()))
                if depth[out[u]] < depth[s]:
                    out[u] = s
                gone += self._through.get(u, ()) + self._hits.get(u, ())
        for u in path[:-1]:
            self._through[u] = (*self._through.get(u, ()), x)
        self._hits[s] = (*self._hits.get(s, ()), x)
        self._paths.append(tuple(path))
        self.rules, self.rule_map[rule.rid] = self.rules + (rule,), rule
        if log is not None:
            self.logs[rule.rid] = log
        if gone:
            self.retired = self.retired.union(self.rules[y].rid for y in gone)


def system_from_presentation(p: Presentation) -> LoggedSystem:
    return LoggedSystem(orient(p), order=p.order)


def reduce_into(w: Word, sys: LoggedSystem, moves: list | None) -> Word:
    """The normal form of w by leftmost-end rewriting: as soon as an lhs
    ends, the longest one ending there, the lowest index among equal ones;
    each rewrite goes to moves as (start, rule index) unless it is None."""
    step, depth, out, hits, rules = sys._step, sys._depth, sys._out, sys._hits, sys.rules
    current, stack, pos = list(w), [0], 0  # stack[i]: the state after current[:i]
    while pos < len(current):
        state = step[stack[pos]].get(current[pos], 0)
        pos += 1
        stack.append(state)
        if end := out[state]:
            x, start = hits[end][0], pos - depth[end]
            if moves is not None:
                moves.append((start, x))
            current[start:pos] = rules[x].rhs
            del stack[start + 1:]
            pos = start
    return tuple(current)


def replay_moves(w: Word, moves: list, sys: LoggedSystem) -> tuple[Step, ...]:
    """The steps of moves, (start, rule index) pairs, applied in turn from w."""
    current, steps = list(w), []
    for start, x in moves:
        rid, lhs, rhs = sys.rules[x]
        steps.append(tuple.__new__(Step, (tuple(current[:start]), rid, 1, tuple(current[start + len(lhs):]))))
        current[start:start + len(lhs)] = rhs
    return tuple(steps)


def reduce_logged(w: Word, sys: LoggedSystem) -> TwoCell:
    """Reduce to an irreducible word, logging every application."""
    moves: list = []
    reduce_into(w, sys, moves)
    return TwoCell(w, replay_moves(w, moves, sys))


def normal_form(w: Word, sys: LoggedSystem) -> Word:
    return reduce_into(w, sys, None)


def prove(w1: Word, w2: Word, sys: LoggedSystem) -> TwoCell | Verdict:
    """A free-reduced cell w1 -> w2 when their normal forms agree, else a verdict.

    Read back from the one normal form, equal (start, rule) tails of the two
    reductions are equal steps, so the cell turns where they first coincide.
    NOT_EQUAL is only claimed for systems flagged complete, else UNKNOWN."""
    moves1, moves2 = [], []
    if reduce_into(w1, sys, moves1) != reduce_into(w2, sys, moves2):
        return Verdict.NOT_EQUAL if sys.complete else Verdict.UNKNOWN
    while moves1 and moves2 and moves1[-1] == moves2[-1]:
        del moves1[-1], moves2[-1]
    return TwoCell(w1, replay_moves(w1, moves1, sys) + twocell.invert_steps(replay_moves(w2, moves2, sys)))


def expand_log(cell: TwoCell, sys: LoggedSystem) -> TwoCell:
    """Replace derived-rule steps by their stored logs until only initial rules remain.

    A log names only earlier rules, so each derived rule reached expands in list
    order, once per system: the expansions are kept in the system's table, each
    stored only once complete, and a system's logs never change.  A log runs
    from its rule's lhs to its rhs, so a -1 step reads its expansion backwards."""
    logs, expanded, new = sys.logs, sys._expanded, tuple.__new__  # steps without namedtuple's frame
    reached = {step.rule for step in cell.steps if step.rule in logs and step.rule not in expanded}
    if reached:
        for rule in reversed(sys.rules):
            if rule.rid in reached:
                reached.update(step.rule for step in logs[rule.rid].steps
                               if step.rule in logs and step.rule not in expanded)

    def _expand(steps: tuple[Step, ...]) -> tuple[Step, ...]:
        out: list[Step] = []
        for step in steps:
            prefix, rid, exp, suffix = step
            if rid not in logs:  # an initial rule
                out.append(step)
            elif exp == 1:
                out += [new(Step, (prefix + p, r, e, s + suffix)) for p, r, e, s in expanded[rid]]
            else:
                out += [new(Step, (prefix + p, r, -e, s + suffix)) for p, r, e, s in reversed(expanded[rid])]
        return tuple(out)

    for rule in sys.rules:
        if rule.rid in reached:
            expanded[rule.rid] = _expand(logs[rule.rid].steps)
    return TwoCell(cell.source, _expand(cell.steps))
