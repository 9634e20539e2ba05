"""Critical branchings, their logged resolution, and logged Knuth-Bendix completion.

A critical branching (``Overlap``) is two forward steps u1 a v1 and
u2 b v2 on one superposition, for rules a: l1 -> r1 and b: l2 -> r2:

    i)   u1 l1 v1 = l2          (l1 inside l2)
    ii)  u1 l1    = l2 v2       (proper suffix/prefix overlap, b left)
    iii) l1 v1    = u2 l2       (proper suffix/prefix overlap, a left)
    iv)  l1       = u2 l2 v2    (l2 inside l1)

The identical self-placement (all contexts empty, same rule) is excluded.
``_branchings`` keys each unordered branching once, in two walks from each
rule off the lhs automaton of the system's reduction.  Completion and
``is_complete`` test a key's two reducts, read off its rules, unlogged, and
build an ``Overlap`` only for a rule, a pending branching or a witness.

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
    """Each of two forward steps on word followed by the logged reduction of
    its target, paired with the normal form that reduction ends at.
    ``_new_rule`` orients the two into a rule, and ``endorewrites._resolved``
    closes them into the loop of a branching that resolves."""
    cells, rules = [], sys.rule_map
    for s in (s1, s2):
        top, moves = s.prefix + rules[s.rule].rhs + s.suffix, []
        end = reduce_into(top, sys, moves)
        cells.append((TwoCell(word, (s, *replay_moves(top, moves, sys))), end))
    return tuple(cells)


def _new_rule(overlap: Overlap, sys: LoggedSystem) -> NewRule:
    """The rule of a branching whose reducts differ, logged by its ``sides``."""
    (left, z_left), (right, z_right) = sides(overlap.superposition, overlap.left, overlap.right, sys)
    # new rule: greater reduct -> smaller reduct, logged up the greater side
    # and down the other; the one change of sign is between two distinct
    # steps, so the log is free reduced
    (lhs, up), (rhs, over) = (z_left, left), (z_right, right)
    if not sys.order.greater(z_left, z_right):
        (lhs, up), (rhs, over) = (rhs, over), (lhs, up)
    log = TwoCell(lhs, twocell.invert_steps(up.steps) + over.steps)
    k = len(sys.rules) + 1
    while f"r{k}" in sys.rule_map:  # a loaded system may use any ids
        k += 1
    return NewRule(Rule(f"r{k}", lhs, rhs), log)


def _branchings(sys: LoggedSystem, new_start: int, gone: frozenset | set) -> list[tuple]:
    """The sorted keys (i, j, case 0-3 for i-iv, position) of ``critical_pairs``,
    read in two walks from each rule a, which is j in cases i and ii and i in
    iii and iv: which case a branching is depends only on which rule is later.
    The l_b that end at position e of l_a are on the output chain of its state
    after e letters, at p = e - |l_b|: case i of (b, a) when b is earlier, else
    iv of (a, b), but for an equal lhs, case i of the later rule.  The failure
    chain of l_a's end gives each proper suffix of l_a of k letters that is a
    trie state, a proper prefix of every l_b running on past it: case ii of (b, a)
    when b <= a, else iii of (a, b).  A state lists its rules lowest index first,
    so for a rule a before new_start they are read from the last back to the first."""
    depth, fail, out, hits, through = sys._depth, sys._fail, sys._out, sys._hits, sys._through
    dead = [rule.rid in gone for rule in sys.rules]
    found = []
    for a, path in enumerate(sys._paths):
        n1, least = len(path), 0 if a >= new_start else new_start
        for e, s in enumerate(path, 1):  # each l_b inside l_a: case i of (b, a), iv of (a, b)
            s = out[s]
            while s:
                p = e - depth[s]
                for b in reversed(hits[s]):
                    if b < least:
                        break
                    if b < a:
                        found.append((b, a, 0, p))
                    elif b > a and (p or e < n1):
                        found.append((a, b, 3, p))
                s = out[fail[s]]
        s = 0 if dead[a] else fail[path[-1]]
        while s:  # each proper suffix of l_a that is a trie state: case ii of (b, a), iii of (a, b)
            k = depth[s]
            for b in reversed(through.get(s, ())):
                if b < least:
                    break
                if not dead[b]:
                    found.append((b, a, 1, k) if b <= a else (a, b, 2, k))
            s = fail[s]
    found.sort()
    return found


def _joins(sys: LoggedSystem, key: tuple) -> bool:
    """Whether a branching's two one-step reducts, read off its rules, have one normal
    form, compared unlogged: r_a, the walked rule a's, and l_a[:p] + r_b + l_a[p+|l_b|:]
    for an inclusion, r_a + l_b[k:] and l_a[:-k] + r_b for an overlap of k letters."""
    i, j, case, k = key
    (_, la, ra), (_, lb, rb) = (sys.rules[j], sys.rules[i]) if case < 2 else (sys.rules[i], sys.rules[j])
    if case in (0, 3):
        return reduce_into(ra, sys, None) == reduce_into(la[:k] + rb + la[k + len(lb):], sys, None)
    return reduce_into(ra + lb[k:], sys, None) == reduce_into(la[:-k] + rb, sys, None)


def _overlap(rules: tuple[Rule, ...], key: tuple) -> Overlap:
    """The ``Overlap`` of a branching's key, built without namedtuple's frame."""
    i, j, case, k, new = *key, tuple.__new__
    (ra, la, _), (rb, lb, _) = (rules[j], rules[i]) if case < 2 else (rules[i], rules[j])
    if case in (0, 3):
        word, sa, sb = la, new(Step, (EMPTY, ra, 1, EMPTY)), new(Step, (la[:k], rb, 1, la[k + len(lb):]))
    else:
        word, sa, sb = la + lb[k:], new(Step, (EMPTY, ra, 1, lb[k:])), new(Step, (la[:-k], rb, 1, EMPTY))
    return new(Overlap, (("i", "ii", "iii", "iv")[case], word, *((sb, sa) if case < 2 else (sa, sb))))


def critical_pairs(sys: LoggedSystem, new_start: int, gone: frozenset | set = frozenset()) -> list[Overlap]:
    """Each unordered critical branching once, between rules i <= j with
    j >= new_start, in order of (i, j), then case, then position; case iii
    of a rule against itself is dropped, since it is case ii with the two
    steps swapped.  A pair with a rule id in ``gone`` gives its inclusions
    only.  It builds every key ``_branchings`` reads."""
    return [_overlap(sys.rules, key) for key in _branchings(sys, new_start, gone)]


def logged_knuth_bendix(init: LoggedSystem, limits: CompletionLimits | None = None) -> CompletionResult:
    """Complete the system, logging every derived rule.

    Passes alternate overlap search (each unordered branching between a
    rule and a rule added in the previous pass, once) with FIFO
    critical-pair resolution.  A branching is resolved while both its
    rules are active, or when it is an inclusion; a pass keys only the
    inclusions of the rules already retired when it starts.  ``_joins`` tests
    a key; only one whose reducts differ becomes an ``Overlap``, whose
    ``sides`` log its rule.  A rule past ``max_rules`` listed rules, or with
    an lhs longer than ``max_word_length``, is not added: the partial system
    returns with its pending branchings, the only other records built.
    It grows a copy of ``init`` (``LoggedSystem._copy``), so ``init`` is not
    written and its rules are neither inserted nor checked again, as they
    were when they entered it; it writes the copy only before returning it.
    """
    limits = limits or CompletionLimits()
    sys = init._copy()

    def live(key: tuple) -> bool:
        i, j, case, _ = key
        return case in (0, 3) or sys.retired.isdisjoint((sys.rules[i].rid, sys.rules[j].rid))

    new_start = 0
    while True:
        keys = _branchings(sys, new_start, sys.retired)
        new_start = len(sys.rules)
        for n, key in enumerate(keys):
            if not live(key) or _joins(sys, key):
                continue
            overlap = _overlap(sys.rules, key)
            outcome = _new_rule(overlap, sys)
            if len(sys.rules) >= limits.max_rules or len(outcome.rule.lhs) > limits.max_word_length:
                rest = (_overlap(sys.rules, later) for later in keys[n + 1:] if live(later))
                return CompletionResult(sys, (overlap, *rest))
            sys._add_rule(outcome.rule, outcome.log)
        if len(sys.rules) == new_start:
            sys.complete = True
            return CompletionResult(sys)


def is_complete(sys: LoggedSystem) -> tuple[bool, Overlap | None]:
    """Check the keys of the branchings completion resolves (inclusions, and those of two
    active rules); returns a failing witness otherwise, the one record it builds.  Any other
    closes below its superposition through an inclusion of its retired rule (Winkler & Buchberger 1983)."""
    key = next((key for key in _branchings(sys, 0, sys.retired) if not _joins(sys, key)), None)
    return (True, None) if key is None else (False, _overlap(sys.rules, key))


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
