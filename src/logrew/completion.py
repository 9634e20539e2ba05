"""Critical branchings, their logged resolution, and logged Knuth-Bendix completion.

A critical branching (``Overlap``) is two forward steps u1 a v1 and
u2 b v2 on one superposition, for rules a: l1 -> r1 and b: l2 -> r2:

    i)   u1 l1 v1 = l2          (l1 inside l2)
    ii)  u1 l1    = l2 v2       (proper suffix/prefix overlap, b left)
    iii) l1 v1    = u2 l2       (proper suffix/prefix overlap, a left)
    iv)  l1       = u2 l2 v2    (l2 inside l1)

The identical self-placement (all contexts empty, same rule) is excluded.
``critical_pairs`` takes each unordered branching once, for completion,
``is_complete`` and ``endorewrites.generate``.

Completion retires a rule once another lhs is a proper factor of its lhs
(Huet 1981).  It stays listed, unchanged, so every log still replays, but
only its inclusion branchings, which keep its equation derivable, are
resolved again.  Reduction uses every listed rule: a retired lhs contains
an active one, so the irreducible words are the same, and proofs are shorter.
"""

from __future__ import annotations

from typing import NamedTuple

from .core import EMPTY, OrderSpec, Rule, Word, word_from_str, word_to_str
from . import twocell
from .engine import LoggedSystem, find_redexes, reduce_into
from .twocell import Step, TwoCell


class Overlap(NamedTuple):
    """A critical branching: two forward steps on the superposition."""

    case: str
    superposition: Word
    left: Step
    right: Step


class CompletionLimits(NamedTuple("CompletionLimits", [
        ("max_rules", int), ("max_passes", int), ("max_word_length", int)])):
    """Positive bounds on the rules, the passes and the lhs length of a completion."""

    __slots__ = ()

    def __new__(cls, max_rules: int = 256, max_passes: int = 64, max_word_length: int = 64):
        if min(max_rules, max_passes, max_word_length) <= 0:
            raise ValueError("completion limits must be positive")
        return super().__new__(cls, max_rules, max_passes, max_word_length)

    @classmethod
    def _make(cls, iterable):  # _replace makes its copy here: check it too
        return cls(*iterable)


class CompletionResult(NamedTuple):
    """A system and the branchings left to resolve; its status is the system's flag."""

    system: LoggedSystem
    pending: tuple[Overlap, ...] = ()

    @property
    def status(self) -> str:
        return "complete" if self.system.complete else "limit"


class NewRule(NamedTuple):
    rule: Rule
    log: TwoCell


def occurrences(needle: Word, haystack: Word) -> list[int]:
    k = len(needle)
    return [p for p in range(len(haystack) - k + 1) if haystack[p:p + k] == needle]


def find_overlaps(a: Rule, b: Rule, inclusions_only: bool = False) -> list[Overlap]:
    """All overlap placements of a (as the first rule) against b (as the
    second), or only those of cases i and iv."""
    l1, l2 = a.lhs, b.lhs
    span = 0 if inclusions_only else min(len(l1), len(l2))  # a proper overlap is shorter than both
    found: list[Overlap] = []

    def add(case, u1, v1, u2, v2, sup):
        found.append(Overlap(case, sup, Step(u1, a.rid, 1, v1), Step(u2, b.rid, 1, v2)))

    # case i: l1 occurs inside l2
    for p in occurrences(l1, l2):
        u1, v1 = l2[:p], l2[p + len(l1):]
        if a.rid == b.rid and not u1 and not v1:
            continue  # identical placement of the same rule
        add("i", u1, v1, EMPTY, EMPTY, l2)
    # case ii: a proper overlap, l2 on the left
    for k in range(1, span):
        if l1[:k] == l2[len(l2) - k:]:
            u1 = l2[:len(l2) - k]
            v2 = l1[k:]
            add("ii", u1, EMPTY, EMPTY, v2, u1 + l1)
    # case iii: a proper overlap, l1 on the left
    for k in range(1, span):
        if l1[len(l1) - k:] == l2[:k]:
            v1 = l2[k:]
            u2 = l1[:len(l1) - k]
            add("iii", EMPTY, v1, u2, EMPTY, l1 + v1)
    # case iv: l2 occurs inside l1
    for p in occurrences(l2, l1):
        u2, v2 = l1[:p], l1[p + len(l2):]
        if not u2 and not v2:
            continue  # l1 = l2: case i has this placement, or it is the identical one
        add("iv", EMPTY, EMPTY, u2, v2, l1)
    return found


def sides(word: Word, s1: Step, s2: Step, sys: LoggedSystem) -> tuple[tuple[TwoCell, Word], ...]:
    """Each of two steps on word followed by the logged reduction of its
    target, paired with the normal form that reduction ends at."""
    legs = [[s1], [s2]]
    ends = [reduce_into(twocell.step_target(leg[0], sys.rule_map), sys, leg) for leg in legs]
    return tuple((TwoCell(word, tuple(leg)), end) for leg, end in zip(legs, ends))


def resolve(overlap: Overlap, sys: LoggedSystem) -> NewRule | None:
    """Reduce both sides: unequal reducts give a new rule, equal ones None.

    ``endorewrites.delta`` closes the same two sides into the loop of a
    resolved branching.
    """
    (left, z_left), (right, z_right) = sides(overlap.superposition, overlap.left, overlap.right, sys)
    if z_left == z_right:
        return None
    # new rule: greater reduct -> smaller reduct, logged up the greater side
    # and down the other; the one change of sign is between two distinct
    # steps, so the log is free reduced
    (lhs, up), (rhs, over) = (z_left, left), (z_right, right)
    if not sys.order.greater(z_left, z_right):
        (lhs, up), (rhs, over) = (rhs, over), (lhs, up)
    log = TwoCell(lhs, twocell.invert_steps(up.steps) + over.steps)
    return NewRule(Rule(f"r{len(sys.rules) + 1}", lhs, rhs), log)


def critical_pairs(sys: LoggedSystem, new_start: int,
                   gone: frozenset | set = frozenset()) -> list[Overlap]:
    """Each unordered critical branching once, between rules i <= j with
    j >= new_start, in order of (i, j); case iii of a rule against itself
    is dropped, since it is case ii with the two steps swapped.  A pair
    with a rule id in ``gone`` gives its inclusions only."""
    rules = sys.rules
    return [
        overlap
        for i in range(len(rules))
        for j in range(max(i, new_start), len(rules))
        for overlap in find_overlaps(rules[i], rules[j], rules[i].rid in gone or rules[j].rid in gone)
        if i < j or overlap.case != "iii"
    ]


def retired(sys: LoggedSystem) -> set[str]:
    """Ids of the rules whose lhs has another rule's lhs as a proper factor,
    or equals the lhs of an earlier rule."""
    rank = {rule.rid: (len(rule.lhs), i) for i, rule in enumerate(sys.rules)}
    return {rule.rid for rule in sys.rules
            if any(rank[rid] < rank[rule.rid] for _, rid in find_redexes(rule.lhs, sys))}


def logged_knuth_bendix(init: LoggedSystem, limits: CompletionLimits | None = None) -> CompletionResult:
    """Complete the system, logging every derived rule.

    Passes alternate overlap search (each unordered branching between a
    rule and a rule added in the previous pass, once) with FIFO
    critical-pair resolution.  A branching is resolved while both its
    rules are active, or when it is an inclusion; a pass builds only the
    inclusions of the rules already retired when it starts.  Exceeding a limit
    returns the partial system together with the unprocessed pairs.
    """
    limits = limits or CompletionLimits()
    sys = init
    gone = retired(init)

    def live(overlap: Overlap) -> bool:
        return overlap.case in ("i", "iv") or not {overlap.left.rule, overlap.right.rule} & gone

    new_start = 0
    passes = 0
    while True:
        passes += 1
        queue = critical_pairs(sys, new_start, gone)
        new_start = len(sys.rules)
        while queue:
            overlap = queue.pop(0)
            outcome = resolve(overlap, sys) if live(overlap) else None
            if outcome is None:
                continue
            if (
                len(sys.rules) + 1 > limits.max_rules
                or len(outcome.rule.lhs) > limits.max_word_length
            ):
                return CompletionResult(sys, tuple(filter(live, (overlap, *queue))))
            # the new lhs is irreducible, so it contains no listed lhs
            gone.update(r.rid for r in sys.rules if occurrences(outcome.rule.lhs, r.lhs))
            sys = sys.with_rule(outcome.rule, outcome.log)
        if len(sys.rules) == new_start:
            return CompletionResult(sys.as_complete())
        if passes >= limits.max_passes:
            return CompletionResult(sys, tuple(critical_pairs(sys, new_start, gone)))


def is_complete(sys: LoggedSystem) -> tuple[bool, Overlap | None]:
    """Check every critical branching resolves; returns a failing witness otherwise."""
    for overlap in critical_pairs(sys, 0):
        if resolve(overlap, sys) is not None:
            return False, overlap
    return True, None


def system_to_json(result: CompletionResult) -> dict:
    """The rules, derived exactly when logged; retired ones are marked ``"retired": true``."""
    sys = result.system
    gone = retired(sys)
    return {
        "status": result.status,
        "rules": [
            {
                "id": rule.rid,
                "lhs": word_to_str(rule.lhs),
                "rhs": word_to_str(rule.rhs),
                "provenance": "derived" if rule.rid in sys.logs else "initial",
                "log": twocell.cell_to_json(sys.logs[rule.rid]) if rule.rid in sys.logs else None,
                **({"retired": True} if rule.rid in gone else {}),
            }
            for rule in sys.rules
        ],
    }


def system_from_json(data: dict, order: OrderSpec) -> CompletionResult:
    """A saved system under ``order``, which the JSON does not carry; ``retired``
    marks are not read.  A rule's ``provenance`` must be ``"derived"`` exactly
    when it has a log, and the status ``"complete"`` (checked) or ``"limit"``.
    ``logged_knuth_bendix`` resumes a partial one to the normal forms of a
    direct run; derived rules, ids and order may differ."""
    rules, logs = {}, {}
    for entry in data["rules"]:
        rule = Rule(entry["id"], word_from_str(entry["lhs"]), word_from_str(entry["rhs"]))
        if rule.rid in rules:  # redexes are found by index, applied by id
            raise ValueError(f"rule {rule.rid}: duplicate id")
        try:  # the order's key ranks every letter of both words
            decreasing = order.greater(rule.lhs, rule.rhs)
        except ValueError as err:
            raise ValueError(f"rule {rule.rid}: {err}") from None
        if not decreasing:
            raise ValueError(f"rule {rule.rid}: lhs is not greater than rhs")
        rules[rule.rid] = rule
        provenance, logged = entry.get("provenance", "initial"), entry.get("log") is not None
        if provenance not in ("initial", "derived"):
            raise ValueError(f"rule {rule.rid}: unknown provenance {provenance!r}")
        if logged != (provenance == "derived"):  # expand_log keeps the steps of a rule with no log
            raise ValueError(f"rule {rule.rid}: {provenance} {'with' if logged else 'without'} a log")
        if logged:
            logs[rule.rid] = twocell.cell_from_json(entry["log"])
    status = data.get("status", "limit")
    if status not in ("complete", "limit"):
        raise ValueError(f"unknown status {status!r}")
    sys = LoggedSystem(tuple(rules.values()), logs, complete=status == "complete", order=order)
    for rid, log in logs.items():
        try:
            end = twocell.target(log, sys.rule_map)
        except twocell.ChainError as err:
            raise ValueError(f"rule {rid}: log does not replay: {err}") from None
        if (log.source, end) != (sys.rule(rid).lhs, sys.rule(rid).rhs):
            raise ValueError(f"rule {rid}: log does not run from its lhs to its rhs")
    if sys.complete:  # prove answers NOT_EQUAL on a complete system, so check the claim
        ok, witness = is_complete(sys)
        if not ok:
            raise ValueError(f"status complete, but the branching of rules "
                             f"{witness.left.rule} and {witness.right.rule} does not resolve")
    return CompletionResult(sys)
