"""Critical branchings, their logged resolution, and logged Knuth-Bendix completion.

A critical branching (``Overlap``) is two forward steps u1 a v1 and
u2 b v2 on one superposition, for rules a: l1 -> r1 and b: l2 -> r2:

    i)   u1 l1 v1 = l2          (l1 inside l2)
    ii)  u1 l1    = l2 v2       (proper suffix/prefix overlap, b left)
    iii) l1 v1    = u2 l2       (proper suffix/prefix overlap, a left)
    iv)  l1       = u2 l2 v2    (l2 inside l1)

The identical self-placement (all contexts empty, same rule) is excluded.
``critical_pairs`` reads each unordered branching once, in two walks from
each rule, off the lhs automaton of the system's reduction, for completion,
``is_complete`` and ``endorewrites.generate`` alike; ``resolve`` compares
the two reducts unlogged and logs only a branching that becomes a rule.

Completion retires a rule once another lhs is a proper factor of its lhs
(Huet 1981), as the system's ``retired`` records.  It stays listed,
unchanged, so every log still replays; completion and ``is_complete``
resolve only its inclusions, which keep its equation derivable.  Reduction
uses every listed rule: a retired lhs contains an active one, so the
irreducible words are the same, and proofs are shorter.
"""

from __future__ import annotations

from collections import namedtuple

from .core import EMPTY, OrderSpec, Rule, Word, word_from_str, word_to_str
from . import twocell
from .engine import LoggedSystem, reduce_into, replay_moves
from .twocell import Step, TwoCell


class Overlap(namedtuple("Overlap", "case superposition left right")):
    """A critical branching: two forward steps on the superposition."""

    __slots__ = ()


class CompletionLimits(namedtuple("CompletionLimits", "max_rules max_word_length")):
    """Positive bounds on a completion's listed rules, retired ones included, and lhs length."""

    __slots__ = ()

    def __new__(cls, max_rules: int = 256, max_word_length: int = 64):
        if min(max_rules, max_word_length) <= 0:
            raise ValueError("completion limits must be positive")
        return super().__new__(cls, max_rules, max_word_length)

    @classmethod
    def _make(cls, iterable):  # _replace makes its copy here: check it too
        return cls(*iterable)


class CompletionResult(namedtuple("CompletionResult", "system pending", defaults=((),))):
    """A system, whose flag is the status, and the branchings pending after a
    limit: the live rest of the stopping pass's queue, from the branching that
    hit the limit on, which holds none of a rule that pass added."""

    __slots__ = ()

    @property
    def status(self) -> str:
        return "complete" if self.system.complete else "limit"


NewRule = namedtuple("NewRule", "rule log")


def sides(word: Word, s1: Step, s2: Step, sys: LoggedSystem) -> tuple[tuple[TwoCell, Word], ...]:
    """Each of two steps on word followed by the logged reduction of its
    target, paired with the normal form that reduction ends at."""
    cells = []
    for s in (s1, s2):
        top, moves = twocell.step_target(s, sys.rule_map), []
        end = reduce_into(top, sys, moves)
        cells.append((TwoCell(word, (s, *replay_moves(top, moves, sys))), end))
    return tuple(cells)


def resolve(overlap: Overlap, sys: LoggedSystem) -> NewRule | None:
    """Reduce both sides: unequal reducts give a new rule, equal ones None.

    The reducts are compared unlogged; only a pair that becomes a rule
    has its ``sides`` logged.  ``endorewrites.delta`` closes the same two
    sides into the loop of a resolved branching.
    """
    rules, left, right = sys.rule_map, overlap.left, overlap.right
    if (reduce_into(left.prefix + rules[left.rule].rhs + left.suffix, sys, None)
            == reduce_into(right.prefix + rules[right.rule].rhs + right.suffix, sys, None)):
        return None
    (left, z_left), (right, z_right) = sides(overlap.superposition, overlap.left, overlap.right, sys)
    # new rule: greater reduct -> smaller reduct, logged up the greater side
    # and down the other; the one change of sign is between two distinct
    # steps, so the log is free reduced
    (lhs, up), (rhs, over) = (z_left, left), (z_right, right)
    if not sys.order.greater(z_left, z_right):
        (lhs, up), (rhs, over) = (rhs, over), (lhs, up)
    log = TwoCell(lhs, twocell.invert_steps(up.steps) + over.steps)
    k = len(sys.rules) + 1
    while f"r{k}" in rules:  # a loaded system may use any ids
        k += 1
    return NewRule(Rule(f"r{k}", lhs, rhs), log)


def critical_pairs(sys: LoggedSystem, new_start: int,
                   gone: frozenset | set = frozenset()) -> list[Overlap]:
    """Each unordered critical branching once, between rules i <= j with
    j >= new_start, in order of (i, j), then case, then position; case iii
    of a rule against itself is dropped, since it is case ii with the two
    steps swapped.  A pair with a rule id in ``gone`` gives its inclusions
    only.

    The branchings are read off the lhs automaton in two walks from each
    rule a; which case a branching is depends only on which of its rules is
    later.  The lhs l_b that end at position e of l_a are on the output
    chain of its state after e letters: case i of (b, a) when b is earlier,
    else case iv of (a, b), but for an equal lhs, case i of the later rule.
    A proper suffix of l_a that is a trie state is a proper prefix of every
    l_b that runs on past it, and the failure chain of l_a's end gives each
    such suffix: case ii of (b, a) when b <= a, else case iii of (a, b).
    A state lists its rules lowest index first, so for a rule a before
    new_start they are read from the last back to the first before it."""
    rules, depth, fail, out = sys.rules, sys._depth, sys._fail, sys._out
    hits, through = sys._hits, sys._through
    dead = [rule.rid in gone for rule in rules]
    found = {}  # (i, j, case, position) -> overlap
    for a, (rid, l1, _) in enumerate(rules):
        path, n1, least = sys._paths[a], len(l1), 0 if a >= new_start else new_start
        step = Step(EMPTY, rid, 1, EMPTY)
        for e, s in enumerate(path, 1):  # each l_b inside l_a: case i of (b, a), iv of (a, b)
            s = out[s]
            while s:
                p = e - depth[s]
                for b in reversed(hits[s]):
                    if b < least:
                        break
                    if b < a:
                        found[b, a, 0, p] = Overlap("i", l1, Step(l1[:p], rules[b].rid, 1, l1[e:]), step)
                    elif b > a and (p or e < n1):
                        found[a, b, 3, p] = Overlap("iv", l1, step, Step(l1[:p], rules[b].rid, 1, l1[e:]))
                s = out[fail[s]]
        if dead[a]:
            continue
        s = fail[path[-1]]
        while s:  # each proper suffix of l_a that is a trie state: case ii of (b, a), iii of (a, b)
            k = depth[s]
            for b in reversed(through.get(s, ())):
                if b < least:
                    break
                if not dead[b]:
                    l2 = rules[b].lhs
                    if b <= a:
                        found[b, a, 1, k] = Overlap("ii", l1[:-k] + l2, Step(l1[:-k], rules[b].rid, 1, EMPTY),
                                                    Step(EMPTY, rid, 1, l2[k:]))
                    else:
                        found[a, b, 2, k] = Overlap("iii", l1 + l2[k:], Step(EMPTY, rid, 1, l2[k:]),
                                                    Step(l1[:-k], rules[b].rid, 1, EMPTY))
            s = fail[s]
    return [found[key] for key in sorted(found)]


def logged_knuth_bendix(init: LoggedSystem, limits: CompletionLimits | None = None) -> CompletionResult:
    """Complete the system, logging every derived rule.

    Passes alternate overlap search (each unordered branching between a
    rule and a rule added in the previous pass, once) with FIFO
    critical-pair resolution.  A branching is resolved while both its
    rules are active, or when it is an inclusion; a pass builds only the
    inclusions of the rules already retired when it starts.  A rule past
    ``max_rules`` listed rules, or with an lhs longer than ``max_word_length``,
    is not added: the partial system returns with its pending branchings.
    It grows a system of its own, so ``init`` is not written, and writes it
    only before returning it.
    """
    limits = limits or CompletionLimits()
    sys = LoggedSystem(init.rules, init.logs, order=init.order)

    def live(overlap: Overlap) -> bool:
        return overlap.case in ("i", "iv") or sys.retired.isdisjoint((overlap.left.rule, overlap.right.rule))

    new_start = 0
    while True:
        queue = critical_pairs(sys, new_start, sys.retired)
        new_start = len(sys.rules)
        for n, overlap in enumerate(queue):
            outcome = resolve(overlap, sys) if live(overlap) else None
            if outcome is None:
                continue
            if len(sys.rules) >= limits.max_rules or len(outcome.rule.lhs) > limits.max_word_length:
                return CompletionResult(sys, tuple(filter(live, queue[n:])))
            sys._add_rule(outcome.rule, outcome.log)
        if len(sys.rules) == new_start:
            sys.complete = True
            return CompletionResult(sys)


def is_complete(sys: LoggedSystem) -> tuple[bool, Overlap | None]:
    """Check the branchings completion resolves (inclusions, and those of two active rules);
    returns a failing witness otherwise.  Any other closes below its superposition
    through an inclusion of its retired rule (Winkler & Buchberger 1983)."""
    witness = next((o for o in critical_pairs(sys, 0, sys.retired) if resolve(o, sys) is not None), None)
    return witness is None, witness


def system_to_json(result: CompletionResult) -> dict:
    """The rules, derived exactly when logged; retired ones are marked ``"retired": true``."""
    sys = result.system
    return {
        "status": result.status,
        "rules": [
            {
                "id": rule.rid,
                "lhs": word_to_str(rule.lhs),
                "rhs": word_to_str(rule.rhs),
                "provenance": "derived" if rule.rid in sys.logs else "initial",
                "log": twocell.cell_to_json(sys.logs[rule.rid]) if rule.rid in sys.logs else None,
                **({"retired": True} if rule.rid in sys.retired else {}),
            }
            for rule in sys.rules
        ],
    }


def system_from_json(data: dict, order: OrderSpec) -> CompletionResult:
    """A saved system under ``order``, which the JSON does not carry; ``retired``
    marks are not read.  A rule's ``provenance`` must be ``"derived"`` exactly
    when it has a log, which may name only rules listed before it, and the
    status ``"complete"`` (checked) or ``"limit"``.  Anything else raises
    ``ValueError``, naming the rule when its entry has an id.
    ``logged_knuth_bendix`` resumes a partial one to the normal forms of a
    direct run; derived rules, ids and order may differ."""
    entries = data.get("rules") if isinstance(data, dict) else None
    if not isinstance(entries, list):
        raise ValueError("a saved system needs a list of rules")
    rules, logs = [], {}
    for n, entry in enumerate(entries):
        rid = entry.get("id") if isinstance(entry, dict) else None
        try:  # a malformed entry raises ValueError, naming its rule when it has an id
            if not isinstance(rid, str):
                raise ValueError("needs a string id")
            rule = Rule(rid, word_from_str(entry["lhs"]), word_from_str(entry["rhs"]))
            log = entry.get("log")
            log = None if log is None else twocell.cell_from_json(log)
        except (AttributeError, KeyError, TypeError, ValueError) as err:
            where = f"rule {rid}" if isinstance(rid, str) else f"rule entry {n}"
            raise ValueError(f"{where}: {'missing ' if isinstance(err, KeyError) else ''}{err}") from None
        rules.append(rule)
        provenance, logged = entry.get("provenance", "initial"), log is not None
        if provenance not in ("initial", "derived"):
            raise ValueError(f"rule {rule.rid}: unknown provenance {provenance!r}")
        if logged != (provenance == "derived"):  # expand_log keeps the steps of a rule with no log
            raise ValueError(f"rule {rule.rid}: {provenance} {'with' if logged else 'without'} a log")
        if logged:
            logs[rule.rid] = log
    status = data.get("status", "limit")
    if status not in ("complete", "limit"):
        raise ValueError(f"unknown status {status!r}")
    sys = LoggedSystem(rules, logs, order=order)  # checks the ids, rules and logs
    if status == "complete":  # prove answers NOT_EQUAL on a complete system, so check the claim
        ok, witness = is_complete(sys)
        if not ok:
            raise ValueError(f"status complete, but the branching of rules "
                             f"{witness.left.rule} and {witness.right.rule} does not resolve")
        sys.complete = True
    return CompletionResult(sys)
