"""Endorewrites: loops in the rewrite algebra and their generating sets.

A resolved critical branching yields a loop on its superposition (the two
reductions composed against each other).  Over a completed system the
loops of all branchings generate every endorewrite up to interchange and
conjugacy (Squier 1987), so ``generate`` makes each one a generator;
``express`` finds such a decomposition by eliminating peaks of a loop's
walk, taking each overlapping diamond from the generator of its
branching, so that the extracted product replays to the input exactly;
a loop with no peak left rotates its last step into the conjugator.
"""

from __future__ import annotations

from collections import namedtuple

from .core import Rule, Word, word_to_str
from . import twocell
from .engine import LoggedSystem
from .twocell import ChainError, Step, TwoCell
from .completion import CompletionResult, _branchings, _overlap, sides


class UnmatchedDiamond(ValueError):
    """A branching whose overlap is missing from the generator table."""


def _disjoint(s: Step, t: Step, rules: dict[str, Rule]) -> bool:
    """Whether two forward steps on one word rewrite disjoint regions."""
    p, q = len(s.prefix), len(t.prefix)
    return p + len(rules[s.rule].lhs) <= q or q + len(rules[t.rule].lhs) <= p


def _square(s1: Step, s2: Step, rules: dict[str, Rule]) -> tuple[Step, ...]:
    """The interchange square of two disjoint forward steps on one word:
    s1, s2 moved across s1, (s1 moved across s2)^-1, s2^-1, free reduced."""
    return twocell.join((s1, _across(s2, s1, rules)),
                        (twocell.invert_step(_across(s1, s2, rules)), twocell.invert_step(s2)))


def _across(s: Step, t: Step, rules: dict[str, Rule]) -> Step:
    """Forward step s moved onto the target of t, a forward step disjoint from it."""
    p, rule, exp, q = s
    lhs, rhs = rules[t.rule].lhs, rules[t.rule].rhs
    if len(p) > len(t.prefix):  # right of t: t's rhs, then the letters between them
        return tuple.__new__(Step, (t.prefix + rhs + p[len(t.prefix) + len(lhs):], rule, exp, q))
    return tuple.__new__(Step, (p, rule, exp, q[:len(q) - len(lhs) - len(t.suffix)] + rhs + t.suffix))


Generator = namedtuple("Generator", (
    "gid",
    "cell",  # based at the superposition of its origin
    "base_element",
    "origin",
))


class GeneratorSet:
    """Generators in id order, and every branching's generator by the
    frozenset of its two steps' (rule id, offset on the superposition) pairs,
    which ``express`` looks diamonds up in.
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
    them all.  ``init`` is not read; the benchmark's endos workload passes it.
    Each unordered branching gives one generator, its loop: the side of
    its left step against the side of its right, from ``sides``.  Ids follow
    the base element, the normal form of the superposition: shortest
    first, the greatest word first within a length, then discovery.  A
    duplicate loop leaves the set generating, so none is merged away.
    """
    if comp.status != "complete":
        raise ValueError("generator extraction needs a completed system")
    sys = comp.system
    found = []
    for o in (_overlap(sys.rules, key) for key in _branchings(sys, 0, frozenset())):
        # each side is forward steps only, so it is free reduced and the two join
        (left, meet), (right, end) = sides(o.left, o.right, sys)
        if meet != end:
            raise ValueError("critical branching does not resolve; the system is incomplete")
        found.append((o, TwoCell(o.superposition, twocell.join(left, twocell.invert_steps(right))), meet))
    found.sort(key=lambda f: (len(f[2]), sys.order.key(f[2])))  # stable: discovery breaks ties
    generators = tuple(
        Generator(f"g{n}", loop, meet, o)
        for n, (o, loop, meet) in enumerate(found, start=1)
    )
    index = {frozenset((s.rule, len(s.prefix)) for s in (gen.origin.left, gen.origin.right)): gen
             for gen in generators}
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


Factor = namedtuple("Factor", (
    "gen",         # generator id, None for a trivial (disjoint) diamond
    "x",
    "z",
    "conjugator",  # from the decomposition base to the diamond apex
    "exp",
    "cell",        # exact contribution, a loop at the base
))
Decomposition = namedtuple("Decomposition", (
    "factors",
    "residual",  # based at the input's source, the decomposition base
))


def _diamond(a: Step, b: Step, gens: GeneratorSet) -> tuple[str | None, int, Word, Word, tuple[Step, ...]]:
    """The diamond a . leg_a . leg_b^-1 . b^-1 of two distinct forward steps
    from one word: its generator id (None for a disjoint pair), exponent,
    whiskers x and z, and free-reduced steps.

    Overlapping steps take their generator's loop, whiskered; a generator
    holds its steps in its branching's order, so the other order inverts
    the loop and negates the exponent.  Disjoint steps close by interchange.
    """
    rules = gens.system.rule_map
    # the whiskers common to a and b, v = x . their minimal superposition . z,
    # are the shorter of their prefixes and the shorter of their suffixes
    x = a.prefix if len(a.prefix) <= len(b.prefix) else b.prefix
    z = a.suffix if len(a.suffix) <= len(b.suffix) else b.suffix
    if _disjoint(a, b, rules):
        # a trivial diamond has exponent 1 with its left step first
        gid, exp = None, 1 if len(a.prefix) < len(b.prefix) else -1
        dia = _square(a, b, rules)
    else:  # the generator table is keyed by each step's rule and offset on the superposition
        place_a = a.rule, len(a.prefix) - len(x)
        found = gens.origin_index.get(frozenset((place_a, (b.rule, len(b.prefix) - len(x)))))
        if found is None:
            raise UnmatchedDiamond(f"no generator origin for rules {a.rule},{b.rule} "
                                   f"on {word_to_str(a.prefix + rules[a.rule].lhs + a.suffix)}")
        gen = gens.by_id(found.gid)  # a minimized set lacks the generators it dropped
        gid, exp = gen.gid, 1
        dia = twocell.whisker(x, gen.cell, z).steps
        if place_a != (gen.origin.left.rule, len(gen.origin.left.prefix)):
            dia, exp = twocell.invert_steps(dia), -1
    return gid, exp, x, z, dia


def _decompose(loop: TwoCell, gens: GeneratorSet) -> list[Factor]:
    """Peak elimination: rewrite a free-reduced loop away, extracting diamonds.

    Factors are taken at the leftmost peak only: its diamond is the
    factor, and the way round it replaces the peak.  A loop without
    peaks descends from its base and climbs back, so it rotates its last
    step s2^-1 to the front, and s2 moves into conj: the loop then starts
    at the peak s2^-1 . s1, or the rotation cancels both steps when its
    first step s1 is s2.  Invariant: input ~ factors . conj . loop .
    conj^-1 in the free sesquigroupoid, so the factors come in the order
    the loop is rewritten and their product replays to the input.  A
    diamond's ends are its two distinct forward steps, which free
    reduction never cancels; its inner steps, reversed and inverted, are
    the way round it that replaces them.  The loop, conj and every
    diamond are free reduced, so each product of them is a join.
    """
    base, conj = loop.source, ()  # conj is always free reduced
    factors: list[Factor] = []
    steps = loop.steps  # the loop left, based where conj ends
    while steps:
        peak = next((i for i in range(len(steps) - 1)
                     if steps[i].exp == -1 and steps[i + 1].exp == 1), None)
        if peak is not None:
            # the factor is the diamond b . leg_b . leg_a^-1 . a^-1 of the peak
            # a^-1 . b, which becomes the way round, leg_a . leg_b^-1
            gid, exp, x, z, dia = _diamond(steps[peak + 1], twocell.invert_step(steps[peak]), gens)
            up = twocell.join(conj, steps[:peak + 1])
            # up . dia never cancels: up ends forward, or in a step the free-reduced loop follows by dia's first
            cell = TwoCell(base, twocell.join(up + dia, twocell.invert_steps(up)))
            factors.append(Factor(gid, x, z, TwoCell(base, up), exp, cell))
            around = twocell.invert_steps(dia[1:-1])
            steps = twocell.join(twocell.join(steps[:peak], around), steps[peak + 2:])
            continue
        # no peak: the loop descends, then climbs back; rotate its last step s2^-1 to the front
        assert steps[0].exp == 1 and steps[-1].exp == -1, "a nonempty monotone loop cannot close"
        conj = twocell.join(conj, (twocell.invert_step(steps[-1]),))
        steps = twocell.join(steps[-1:], steps[:-1])
    return factors


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
    product: tuple[Step, ...] = ()
    for n, factor in enumerate(factors):  # one replay of each factor cell: a loop at the base
        end = twocell.target(factor.cell, rules)
        if end != cell.source:
            raise ChainError(f"factor {n} ends at {word_to_str(end)}, "
                             f"not at the base {word_to_str(cell.source)}")
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

