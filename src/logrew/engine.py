"""Logged reduction: find redexes, rewrite to normal form, emit witnesses.

The reduction strategy is fixed to leftmost position, then lowest rule
index, so logs are reproducible.  Derived rules carry an unexpanded log;
``expand_log`` rewrites any cell so it references initial rules only.

Redexes are found through a trie of the left-hand sides built with each
``LoggedSystem`` (the index automaton of Sims 1994, without the failure
links of Aho & Corasick 1975).  After a rewrite at position p, reduction
resumes at max(0, p - maxlhs + 1): the redex at p was the leftmost, so
one starting further left would lie wholly in the unchanged prefix.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace

from .core import OrderSpec, Presentation, Rule, Word, orient, word_to_str
from . import twocell
from .twocell import Step, TwoCell


class Verdict(enum.Enum):
    NOT_EQUAL = "not-equal"
    UNKNOWN = "unknown"


@dataclass(frozen=True)
class LoggedSystem:
    """Rules plus, for derived ones, the cell witnessing lhs -> rhs."""

    rules: tuple[Rule, ...]
    provenance: dict = field(default_factory=dict)
    logs: dict = field(default_factory=dict)
    complete: bool = False
    order: OrderSpec = field(kw_only=True)
    _index: dict = field(init=False, repr=False, compare=False)
    _position: dict = field(init=False, repr=False, compare=False)
    _trie: dict = field(init=False, repr=False, compare=False)
    _maxlhs: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # own copies, so the caller's dicts are never written or shared
        provenance = dict(self.provenance)
        for rule in self.rules:
            provenance.setdefault(rule.rid, "initial")
        object.__setattr__(self, "provenance", provenance)
        object.__setattr__(self, "logs", dict(self.logs))
        object.__setattr__(self, "_index", {r.rid: r for r in self.rules})
        object.__setattr__(self, "_position", {r.rid: i for i, r in enumerate(self.rules)})
        # letter -> child; None -> ids of the rules whose lhs ends there, in rule order
        trie: dict = {}
        for rule in self.rules:
            if rule.lhs:
                node = trie
                for letter in rule.lhs:
                    node = node.setdefault(letter, {})
                node.setdefault(None, []).append(rule.rid)
        object.__setattr__(self, "_trie", trie)
        object.__setattr__(self, "_maxlhs", max((len(r.lhs) for r in self.rules), default=0))

    @property
    def rule_map(self) -> dict[str, Rule]:
        return self._index

    def rule(self, rid: str) -> Rule:
        return self._index[rid]

    def position(self, rid: str) -> int:
        """Index of the rule in ``rules``: the tie-break between redexes at one position."""
        return self._position[rid]

    def with_rule(self, rule: Rule, log: TwoCell) -> "LoggedSystem":
        return LoggedSystem(
            self.rules + (rule,),
            {**self.provenance, rule.rid: "derived"},
            {**self.logs, rule.rid: log},
            complete=False,
            order=self.order,
        )

    def as_complete(self) -> "LoggedSystem":
        return replace(self, complete=True)


def system_from_presentation(p: Presentation) -> LoggedSystem:
    return LoggedSystem(orient(p), order=p.order)


def _redexes_at(w: Word, pos: int, sys: LoggedSystem) -> list[str]:
    """Ids of the rules whose lhs occurs in w at pos, in rule order."""
    node, hits = sys._trie, []
    for letter in w[pos:pos + sys._maxlhs]:
        node = node.get(letter)
        if node is None:
            break
        hits += node.get(None, ())
    if len(hits) > 1:
        hits.sort(key=sys.position)
    return hits


def find_redexes(w: Word, sys: LoggedSystem) -> list[tuple[int, str]]:
    """All (position, rule id) with the rule's lhs at that position, by
    position, then rule index."""
    return [(pos, rid) for pos in range(len(w)) for rid in _redexes_at(w, pos, sys)]


def apply_step(w: Word, pos: int, rid: str, exp: int, sys: LoggedSystem) -> tuple[Word, Step]:
    """Apply one rule at a position, returning the new word and its log step."""
    rule = sys.rule(rid)
    inw, outw = (rule.lhs, rule.rhs) if exp == 1 else (rule.rhs, rule.lhs)
    if w[pos:pos + len(inw)] != inw:
        raise ValueError(
            f"no {rid} redex at position {pos} of {word_to_str(w)}"
        )
    step = Step(w[:pos], rid, exp, w[pos + len(inw):])
    return step.prefix + outw + step.suffix, step


def _reduce(w: Word, sys: LoggedSystem, steps: list | None) -> Word:
    """The normal form of w by leftmost, lowest-index rewriting; each step
    is appended to steps unless steps is None."""
    current, pos = w, 0
    while pos < len(current):
        hits = _redexes_at(current, pos, sys)
        if not hits:
            pos += 1
            continue
        current, step = apply_step(current, pos, hits[0], 1, sys)
        if steps is not None:
            steps.append(step)
        pos = max(0, pos - sys._maxlhs + 1)
    return current


def reduce_logged(w: Word, sys: LoggedSystem) -> TwoCell:
    """Reduce to an irreducible word, logging every application."""
    steps: list[Step] = []
    _reduce(w, sys, steps)
    return TwoCell(w, tuple(steps))


def normal_form(w: Word, sys: LoggedSystem) -> Word:
    return _reduce(w, sys, None)


def prove(w1: Word, w2: Word, sys: LoggedSystem) -> TwoCell | Verdict:
    """A cell w1 -> w2 when their normal forms agree, else a verdict.

    NOT_EQUAL is only claimed for systems flagged complete; otherwise
    disagreeing normal forms yield UNKNOWN.
    """
    down1 = reduce_logged(w1, sys)
    down2 = reduce_logged(w2, sys)
    rules = sys.rule_map
    if twocell.target(down1, rules) == twocell.target(down2, rules):
        return twocell.compose(down1, twocell.invert(down2, rules), rules)
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
            if sys.provenance.get(step.rule, "initial") == "initial":
                steps.append(step)
                continue
            inner = rule_log(step.rule)
            if step.exp == -1:
                inner = twocell.invert(inner, sys.rule_map)
            steps.extend(twocell.whisker(step.prefix, inner, step.suffix).steps)
        return TwoCell(c.source, tuple(steps))

    return _expand(cell)
