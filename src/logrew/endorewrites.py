"""Endorewrites: loops in the rewrite algebra and their generating sets.

A resolved critical branching yields a loop on its superposition (the two
reductions composed against each other).  Over a completed system the
loops of all branchings generate every endorewrite up to interchange and
conjugacy (Squier 1987), so ``generate`` makes each one a generator;
``express`` finds such a decomposition by eliminating peaks of a loop's
walk, taking each overlapping diamond from the generator of its
branching, so that the extracted product replays to the input exactly.
"""

from __future__ import annotations

from typing import NamedTuple

from .core import Rule, Word, word_to_str
from . import twocell
from .engine import LoggedSystem
from .twocell import ChainError, Step, TwoCell
from .completion import CompletionResult, Overlap, critical_pairs, sides


class UnmatchedDiamond(ValueError):
    """A branching whose overlap is missing from the generator table."""


def _strip(word: Word, a: Step, b: Step, rules: dict[str, Rule]) -> tuple[Word, Word, Step, Step]:
    """The whiskers x, z common to two overlapping steps on word, and the
    two steps on their minimal superposition, word = x . superposition . z."""
    lo = min(len(a.prefix), len(b.prefix))
    hi = max(len(s.prefix) + len(twocell.step_io(s, rules)[0]) for s in (a, b))
    cut = len(word) - hi

    def inner(s: Step) -> Step:
        return Step(s.prefix[lo:], s.rule, s.exp, s.suffix[:len(s.suffix) - cut])

    return word[:lo], word[hi:], inner(a), inner(b)


def _disjoint(s: Step, t: Step, rules: dict[str, Rule]) -> bool:
    """Whether two forward steps on one word rewrite disjoint regions."""
    (p, ls), (q, lt) = ((len(u.prefix), len(rules[u.rule].lhs)) for u in (s, t))
    return p + ls <= q or q + lt <= p


def delta(word: Word, s1: Step, s2: Step, sys: LoggedSystem) -> TwoCell:
    """The loop of two forward steps on word: the side of s1 against the
    side of s2, each a step followed by its resolving leg, free reduced.

    Disjoint redexes close in one step each (the interchange diamond).
    Overlapping redexes must stand on their own superposition, where
    ``completion.sides`` reduces both to the normal form.  Each side is
    forward steps only, so it is free reduced and the two join.
    """
    rules = sys.rule_map
    if not _disjoint(s1, s2, rules):
        return _resolved(word, s1, s2, sys)[0]
    side1, side2 = (
        (s, twocell.transport(t, s, twocell.step_target(s, rules), rules))
        for s, t in ((s1, s2), (s2, s1))
    )
    return TwoCell(word, twocell.join(side1, twocell.invert_steps(side2)))


def _resolved(word: Word, s1: Step, s2: Step, sys: LoggedSystem) -> tuple[TwoCell, Word]:
    """delta of two overlapping steps, and the normal form both sides reach."""
    (side1, end1), (side2, end2) = sides(word, s1, s2, sys)
    if end1 != end2:
        raise ValueError("critical branching does not resolve; the system is incomplete")
    return TwoCell(word, twocell.join(side1.steps, twocell.invert_steps(side2.steps))), end1


class Generator(NamedTuple):
    gid: str
    cell: TwoCell  # based at the superposition of its origin
    base_element: Word
    origin: Overlap


class GeneratorSet:
    """Generators in id order, and every branching's generator by the
    frozenset of its two steps, which ``express`` looks diamonds up in.
    ``minimize`` keeps the full index, so ``by_id`` names a generator it
    dropped."""

    __slots__ = ("generators", "origin_index", "system", "_by_id")

    def __init__(self, generators: tuple[Generator, ...], origin_index: dict, system: LoggedSystem):
        self.generators, self.origin_index, self.system = generators, origin_index, system
        self._by_id = {gen.gid: gen for gen in generators}

    def by_id(self, gid: str) -> Generator:
        if gid not in self._by_id:
            raise UnmatchedDiamond(f"generator {gid} is not in the set")
        return self._by_id[gid]


def generate(comp: CompletionResult, init: LoggedSystem | None = None) -> GeneratorSet:
    """Endorewrite generators from the critical branchings of the completed system.

    Every listed rule counts, retired ones included, since reduction uses
    them all.  ``init`` is not read; it is kept for existing callers.
    Each unordered branching gives one generator, its loop.  Ids follow
    the base element, the normal form of the superposition: shortest
    first, the greatest word first within a length, then discovery.  A
    duplicate loop leaves the set generating, so none is merged away.
    """
    if comp.status != "complete":
        raise ValueError("generator extraction needs a completed system")
    sys = comp.system
    found = [(o, *_resolved(o.superposition, o.left, o.right, sys)) for o in critical_pairs(sys, 0)]
    found.sort(key=lambda f: (len(f[2]), sys.order.key(f[2])))  # stable: discovery breaks ties
    generators = tuple(
        Generator(f"g{n}", loop, meet, o)
        for n, (o, loop, meet) in enumerate(found, start=1)
    )
    index = {frozenset((gen.origin.left, gen.origin.right)): gen for gen in generators}
    return GeneratorSet(generators, index, sys)


def minimize(gens: GeneratorSet) -> GeneratorSet:
    """Drop each generator whose abelianization the kept ones before it
    span over the rationals.  Generators with zero abelianization are
    never dropped (the filter cannot see them)."""
    from fractions import Fraction

    kept = []
    basis: list[dict] = []  # each row is zero at the pivots (first keys) of those before it

    def reduce(vector: dict) -> dict:
        vec = {k: Fraction(v) for k, v in vector.items()}
        for row in basis:
            pivot = next(iter(row))
            if pivot in vec:
                coef = vec[pivot] / row[pivot]
                for k, v in row.items():
                    vec[k] = vec.get(k, Fraction(0)) - coef * v
                vec = {k: v for k, v in vec.items() if v}
        return vec

    for gen in gens.generators:
        vector = twocell.abelianize(gen.cell)
        reduced = reduce(vector)
        if vector and not reduced:
            continue
        kept.append(gen)
        if reduced:
            basis.append(reduced)
    return GeneratorSet(tuple(kept), gens.origin_index, gens.system)


# ---------------------------------------------------------------------------
# expression of loops over the generators


class Factor(NamedTuple):
    gen: str | None       # generator id, None for a trivial (disjoint) diamond
    x: Word
    z: Word
    conjugator: TwoCell   # from the decomposition base to the diamond apex
    exp: int
    cell: TwoCell         # exact contribution, a loop at the base


class Decomposition(NamedTuple):
    factors: tuple[Factor, ...]
    residual: TwoCell  # based at the input's source, the decomposition base


def _diamond(conj: TwoCell, a: Step, b: Step, gens: GeneratorSet) -> tuple[Factor, tuple[Step, ...]]:
    """The diamond a . leg_a . leg_b^-1 . b^-1 of two distinct forward steps
    from v, the source of a, as a factor conjugated by conj (a cell ending
    at v), and the way round it: its inner steps, reversed and inverted.

    Overlapping steps take their generator's loop, whiskered; a generator
    holds its steps in its branching's order, so the other order inverts
    the loop and negates the exponent.  Disjoint steps close by interchange.
    """
    sys = gens.system
    rules = sys.rule_map
    v = twocell.step_source(a, rules)
    x, z, inner_a, inner_b = _strip(v, a, b, rules)
    if _disjoint(a, b, rules):
        # a trivial diamond has exponent 1 with its left step first
        gid, exp = None, 1 if len(a.prefix) < len(b.prefix) else -1
        dia = delta(v, a, b, sys).steps
    else:
        found = gens.origin_index.get(frozenset((inner_a, inner_b)))
        if found is None:
            raise UnmatchedDiamond(
                f"no generator origin for rules {a.rule},{b.rule} on {word_to_str(v)}"
            )
        gen = gens.by_id(found.gid)  # a minimized set lacks the generators it dropped
        gid, exp = gen.gid, 1
        dia = twocell.whisker(x, gen.cell, z).steps
        if inner_a != gen.origin.left:
            dia, exp = twocell.invert_steps(dia), -1
    cell = TwoCell(conj.source, twocell.join(
        twocell.join(conj.steps, dia), twocell.invert_steps(conj.steps)))
    return Factor(gid, x, z, conj, exp, cell), twocell.invert_steps(dia[1:-1])


def _decompose(loop: TwoCell, gens: GeneratorSet) -> list[Factor]:
    """Peak elimination: rewrite a free-reduced loop away, extracting diamonds.

    A peak is resolved in place and its diamond factor taken at once.  A
    loop without peaks descends from its base and climbs back: its outer
    steps move conj into the loop, and when they differ their diamond is
    deferred, so it follows every factor of the loop inside it.  Invariant:
    input ~ factors . conj . loop . conj^-1 . deferred (last first) in the
    free sesquigroupoid, so the factor product replays to the input.
    A diamond's ends are its two distinct forward steps, which free
    reduction never cancels; its inner steps, reversed and inverted, are
    the way round it that replaces them.  The loop, conj and every
    diamond are free reduced, so each product of them is a join.
    """
    rules = gens.system.rule_map
    conj = twocell.identity(loop.source)  # always free reduced, ending at loop.source
    factors: list[Factor] = []
    deferred: list[Factor] = []
    while loop.steps:
        steps = loop.steps
        peak = next(
            (i for i in range(len(steps) - 1)
             if steps[i].exp == -1 and steps[i + 1].exp == 1),
            None,
        )
        if peak is not None:
            down_a, down_b = twocell.invert_step(steps[peak]), steps[peak + 1]
            # the factor is the diamond down_b . leg_b . leg_a^-1 . down_a^-1;
            # the peak down_a^-1 . down_b becomes the way round, leg_a . leg_b^-1
            up = TwoCell(conj.source, twocell.join(conj.steps, steps[:peak + 1]))
            factor, around = _diamond(up, down_b, down_a, gens)
            factors.append(factor)
            loop = TwoCell(loop.source, twocell.join(
                twocell.join(steps[:peak], around), steps[peak + 2:]))
            continue
        # no internal peak: descending then ascending around the base
        m = next((i for i, s in enumerate(steps) if s.exp == -1), len(steps))
        assert 0 < m < len(steps), "a nonempty monotone loop cannot close"
        s1 = steps[0]
        s2 = twocell.invert_step(steps[-1])
        rest = steps[1:-1]
        if s1 != s2:
            factor, around = _diamond(conj, s1, s2, gens)
            deferred.append(factor)
            rest = twocell.join(rest, around)
        conj = TwoCell(conj.source, twocell.join(conj.steps, (s1,)))
        loop = TwoCell(twocell.step_target(s1, rules), rest)
    return factors + deferred[::-1]


def express(cell: TwoCell, gens: GeneratorSet) -> Decomposition:
    """Decompose an endorewrite into conjugated, whiskered generator loops.

    The factor cells multiply out, at the base word, to a cell that free
    reduces back to the input; the residual records the leftover loop
    (the identity whenever extraction succeeded).
    """
    rules = gens.system.rule_map
    try:
        end = twocell.target(cell, rules)
    except ChainError as err:
        raise ChainError("input does not replay", index=err.index) from None
    if end != cell.source:
        raise ChainError("input is not an endorewrite")
    loop = twocell.free_reduce(cell)
    factors = _decompose(loop, gens)
    # one replay of every factor cell, checking each is a loop at the base
    at_base = twocell.identity(cell.source)
    twocell.compose_all([at_base, *(f.cell for f in factors), at_base], rules)
    product: tuple[Step, ...] = ()
    for factor in factors:
        product = twocell.join(product, factor.cell.steps)
    residual = TwoCell(cell.source, twocell.join(twocell.invert_steps(product), loop.steps))
    return Decomposition(tuple(factors), residual)


# ---------------------------------------------------------------------------
# serialization


def generator_set_to_json(gens: GeneratorSet) -> dict:
    return {
        "generators": [
            {
                "id": gen.gid,
                "base_word": word_to_str(gen.cell.source),
                "base_element": word_to_str(gen.base_element),
                "origin": {
                    "left_rule": gen.origin.left.rule,
                    "right_rule": gen.origin.right.rule,
                    "case": gen.origin.case,
                    "u1": word_to_str(gen.origin.left.prefix),
                    "v1": word_to_str(gen.origin.left.suffix),
                    "u2": word_to_str(gen.origin.right.prefix),
                    "v2": word_to_str(gen.origin.right.suffix),
                },
                "cell": twocell.cell_to_json(gen.cell),
            }
            for gen in gens.generators
        ],
    }


def decomposition_to_json(dec: Decomposition) -> dict:
    return {
        "base": word_to_str(dec.residual.source),
        "factors": [
            {
                "gen": factor.gen if factor.gen is not None else "trivial",
                "x": word_to_str(factor.x),
                "z": word_to_str(factor.z),
                "conjugator": twocell.cell_to_json(factor.conjugator),
                "exp": factor.exp,
            }
            for factor in dec.factors
        ],
        "residual": twocell.cell_to_json(dec.residual),
    }

