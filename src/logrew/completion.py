"""Overlap detection, logged critical pairs, and logged Knuth-Bendix completion.

Overlap cases, for rules a: l1 -> r1 and b: l2 -> r2:

    i)   u1 l1 v1 = l2          (l1 inside l2)
    ii)  u1 l1    = l2 v2       (proper suffix/prefix overlap, b left)
    iii) l1 v1    = u2 l2       (proper suffix/prefix overlap, a left)
    iv)  l1       = u2 l2 v2    (l2 inside l1)

The identical self-placement (all contexts empty, same rule) is excluded.
``critical_pairs`` takes each unordered branching once, for completion,
``is_complete`` and ``endorewrites.generate``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import EMPTY, OrderSpec, Rule, Word, word_from_str, word_to_str
from . import twocell
from .engine import LoggedSystem, expand_log, reduce_logged
from .twocell import Step, TwoCell


@dataclass(frozen=True)
class Overlap:
    case: str
    left_rule: str
    right_rule: str
    u1: Word
    v1: Word
    u2: Word
    v2: Word
    superposition: Word


@dataclass(frozen=True)
class CriticalPair:
    left: TwoCell
    right: TwoCell
    origin: Overlap


@dataclass(frozen=True)
class CompletionLimits:
    max_rules: int = 256
    max_passes: int = 64
    max_word_length: int = 64

    def __post_init__(self):
        if min(self.max_rules, self.max_passes, self.max_word_length) <= 0:
            raise ValueError("completion limits must be positive")


@dataclass(frozen=True)
class CompletionResult:
    status: str  # "complete" | "limit"
    system: LoggedSystem
    pending: tuple[CriticalPair, ...] = ()


@dataclass(frozen=True)
class NewRule:
    rule: Rule
    log: TwoCell


def occurrences(needle: Word, haystack: Word) -> list[int]:
    k = len(needle)
    return [p for p in range(len(haystack) - k + 1) if haystack[p:p + k] == needle]


def find_overlaps(a: Rule, b: Rule) -> list[Overlap]:
    """All overlap placements of a (as the first rule) against b (as the second)."""
    l1, l2 = a.lhs, b.lhs
    found: list[Overlap] = []
    placements = set()

    def add(case, u1, v1, u2, v2, sup):
        key = (u1, v1, u2, v2)
        if key in placements:
            return
        placements.add(key)
        found.append(Overlap(case, a.rid, b.rid, u1, v1, u2, v2, sup))

    # case i: l1 occurs inside l2
    for p in occurrences(l1, l2):
        u1, v1 = l2[:p], l2[p + len(l1):]
        if a.rid == b.rid and not u1 and not v1:
            continue  # identical placement of the same rule
        add("i", u1, v1, EMPTY, EMPTY, l2)
    # case ii: a proper overlap, l2 on the left
    for k in range(1, min(len(l1), len(l2))):
        if l1[:k] == l2[len(l2) - k:]:
            u1 = l2[:len(l2) - k]
            v2 = l1[k:]
            add("ii", u1, EMPTY, EMPTY, v2, u1 + l1)
    # case iii: a proper overlap, l1 on the left
    for k in range(1, min(len(l1), len(l2))):
        if l1[len(l1) - k:] == l2[:k]:
            v1 = l2[k:]
            u2 = l1[:len(l1) - k]
            add("iii", EMPTY, v1, u2, EMPTY, l1 + v1)
    # case iv: l2 occurs inside l1
    for p in occurrences(l2, l1):
        u2, v2 = l1[:p], l1[p + len(l2):]
        if a.rid == b.rid and not u2 and not v2:
            continue
        add("iv", EMPTY, EMPTY, u2, v2, l1)
    return found


def critical_pair(overlap: Overlap, sys: LoggedSystem) -> CriticalPair:
    """The whiskered pair of one-step cells sharing the superposition."""
    left = TwoCell(
        overlap.superposition,
        (Step(overlap.u1, overlap.left_rule, 1, overlap.v1),),
    )
    right = TwoCell(
        overlap.superposition,
        (Step(overlap.u2, overlap.right_rule, 1, overlap.v2),),
    )
    return CriticalPair(left, right, overlap)


def resolve(cp: CriticalPair, sys: LoggedSystem) -> NewRule | None:
    """Reduce both sides: unequal reducts give a new rule, equal ones None.

    The loop a resolved pair closes is built by ``endorewrites.delta``.
    """
    rules = sys.rule_map
    down_left = reduce_logged(twocell.target(cp.left, rules), sys)
    down_right = reduce_logged(twocell.target(cp.right, rules), sys)
    z_left = twocell.target(down_left, rules)
    z_right = twocell.target(down_right, rules)
    if z_left == z_right:
        return None
    # new rule: greater reduct -> smaller reduct, logged up the greater side
    # and down the other; the one change of sign is between two distinct
    # steps, so the log is free reduced
    sides = [(z_left, cp.left, down_left), (z_right, cp.right, down_right)]
    if not sys.order.greater(z_left, z_right):
        sides.reverse()
    (lhs, up, down_up), (rhs, over, down_over) = sides
    log = twocell.compose_all(
        [twocell.invert(down_up, rules), twocell.invert(up, rules), over, down_over], rules,
    )
    return NewRule(Rule(f"r{len(sys.rules) + 1}", lhs, rhs), log)


def critical_pairs(sys: LoggedSystem, new_start: int) -> list[CriticalPair]:
    """Each unordered critical branching once, between rules i <= j with
    j >= new_start, in order of (i, j); case iii of a rule against itself
    is dropped, since it is case ii with the two steps swapped."""
    rules = sys.rules
    return [
        critical_pair(overlap, sys)
        for i in range(len(rules))
        for j in range(max(i, new_start), len(rules))
        for overlap in find_overlaps(rules[i], rules[j])
        if i < j or overlap.case != "iii"
    ]


def logged_knuth_bendix(init: LoggedSystem, limits: CompletionLimits | None = None) -> CompletionResult:
    """Complete the system, logging every derived rule.

    Passes alternate overlap search (each unordered branching between a
    rule and a rule added in the previous pass, once) with FIFO
    critical-pair resolution.  Exceeding a limit returns the partial
    system together with the unprocessed pairs.
    """
    limits = limits or CompletionLimits()
    sys = init
    new_start = 0
    passes = 0
    while True:
        passes += 1
        queue = critical_pairs(sys, new_start)
        new_start = len(sys.rules)
        while queue:
            cp = queue.pop(0)
            outcome = resolve(cp, sys)
            if outcome is None:
                continue
            if (
                len(sys.rules) + 1 > limits.max_rules
                or len(outcome.rule.lhs) > limits.max_word_length
            ):
                return CompletionResult("limit", sys, (cp, *queue))
            sys = sys.with_rule(outcome.rule, outcome.log)
        if len(sys.rules) == new_start:
            return CompletionResult("complete", sys.as_complete(), ())
        if passes >= limits.max_passes:
            return CompletionResult("limit", sys, tuple(critical_pairs(sys, new_start)))


def is_complete(sys: LoggedSystem) -> tuple[bool, CriticalPair | None]:
    """Check every critical pair resolves; returns a failing witness otherwise."""
    for cp in critical_pairs(sys, 0):
        if resolve(cp, sys) is not None:
            return False, cp
    return True, None


def interreduce(sys: LoggedSystem) -> LoggedSystem:
    """Drop rules another rule reduces, then normalize derived right-hand sides.

    Logs of rewritten rules are expanded to initial rules only, so they
    stay valid whatever happens to the other derived rules.  Initial
    rules are never modified.
    """
    kept = list(sys.rules)
    changed = True
    while changed:
        changed = False
        for idx, rule in enumerate(kept):
            rest = [r for r in kept if r.rid != rule.rid]
            if any(occurrences(r.lhs, rule.lhs) for r in rest):
                del kept[idx]
                changed = True
                break
    base = LoggedSystem(tuple(kept), order=sys.order)  # reduces right-hand sides only
    out_rules, provenance, logs = [], {}, {}
    for rule in kept:
        if sys.provenance[rule.rid] == "initial":
            out_rules.append(rule)
            provenance[rule.rid] = "initial"
            continue
        down = reduce_logged(rule.rhs, base)
        new_rhs = twocell.target(down, base.rule_map)
        log = sys.logs[rule.rid]  # may cite dropped rules, so sys, not base
        if new_rhs != rule.rhs:
            log = twocell.compose(log, down, sys.rule_map)
        out_rules.append(Rule(rule.rid, rule.lhs, new_rhs))
        provenance[rule.rid] = "derived"
        logs[rule.rid] = expand_log(log, sys)
    out = LoggedSystem(tuple(out_rules), provenance, logs, order=sys.order)
    ok, _ = is_complete(out)
    return out.as_complete() if ok else out


def system_to_json(result: CompletionResult) -> dict:
    sys = result.system
    return {
        "status": result.status,
        "rules": [
            {
                "id": rule.rid,
                "lhs": word_to_str(rule.lhs),
                "rhs": word_to_str(rule.rhs),
                "provenance": sys.provenance[rule.rid],
                "log": twocell.cell_to_json(sys.logs[rule.rid]) if rule.rid in sys.logs else None,
            }
            for rule in sys.rules
        ],
    }


def system_from_json(data: dict, order: OrderSpec) -> CompletionResult:
    """A saved system under ``order``, which the JSON does not carry;
    ``logged_knuth_bendix`` resumes a partial one."""
    rules = []
    provenance = {}
    logs = {}
    for entry in data["rules"]:
        rule = Rule(entry["id"], word_from_str(entry["lhs"]), word_from_str(entry["rhs"]))
        rules.append(rule)
        provenance[rule.rid] = entry.get("provenance", "initial")
        if entry.get("log") is not None:
            logs[rule.rid] = twocell.cell_from_json(entry["log"])
    status = data.get("status", "limit")
    sys = LoggedSystem(tuple(rules), provenance, logs, complete=status == "complete", order=order)
    return CompletionResult(status, sys, ())
