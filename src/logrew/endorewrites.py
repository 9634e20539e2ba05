"""Endorewrites: loops in the rewrite algebra and their generating sets.

A resolved critical pair yields a loop on its superposition (the two
reductions composed against each other).  Over a completed system the
loops of all overlaps generate every endorewrite up to interchange and
conjugacy; ``express`` finds such a decomposition by eliminating peaks of
a loop's walk, resolving each local branching against the generator
table so that the extracted product replays to the input exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .core import Rule, Word, word_to_str
from . import twocell
from .engine import LoggedSystem, normal_form, prove, reduce_logged
from .twocell import ChainError, Step, TwoCell
from .completion import CompletionResult, CriticalPair, Overlap, critical_pairs


class UnmatchedDiamond(ValueError):
    """A branching whose overlap is missing from the generator table."""


def is_endorewrite(cell: TwoCell, rules: dict[str, Rule]) -> bool:
    return twocell.validate(cell, rules) is None and twocell.target(cell, rules) == cell.source


def _strip(word: Word, a: Step, b: Step, rules: dict[str, Rule]) -> tuple[Word, Word, Step, Step]:
    """The whiskers x, z common to two overlapping steps on word, and the
    two steps on their minimal superposition, word = x . superposition . z."""
    lo = min(len(a.prefix), len(b.prefix))
    hi = max(len(s.prefix) + len(twocell.step_io(s, rules)[0]) for s in (a, b))
    cut = len(word) - hi

    def inner(s: Step) -> Step:
        return Step(s.prefix[lo:], s.rule, s.exp, s.suffix[:len(s.suffix) - cut])

    return word[:lo], word[hi:], inner(a), inner(b)


def _origin_key(a: Step, b: Step) -> frozenset:
    """The ``origin_index`` key of two steps on a minimal superposition,
    whichever of them comes first."""
    return frozenset(((a.rule, a.prefix, a.suffix), (b.rule, b.prefix, b.suffix)))


def _pair_legs(cp: CriticalPair, sys: LoggedSystem) -> tuple[TwoCell, TwoCell]:
    """Resolving legs for a critical pair of one-step cells.

    Disjoint redexes close in one step each (the interchange diamond).
    Overlapping redexes resolve on their minimal superposition, the legs
    whiskered back out, so embedded overlaps get whiskered resolutions;
    on the minimal word both sides reduce to the normal form.
    """
    rules = sys.rule_map
    [s1], [s2] = cp.left.steps, cp.right.steps
    in1, _ = twocell.step_io(s1, rules)
    in2, _ = twocell.step_io(s2, rules)
    p1, p2 = len(s1.prefix), len(s2.prefix)
    if p1 + len(in1) <= p2 or p2 + len(in2) <= p1:
        t1, t2 = twocell.step_target(s1, rules), twocell.step_target(s2, rules)
        return (TwoCell(t1, (twocell.transport(s2, s1, t1, rules),)),
                TwoCell(t2, (twocell.transport(s1, s2, t2, rules),)))
    x, z, a, b = _strip(cp.left.source, s1, s2, rules)
    down_left = reduce_logged(twocell.step_target(a, rules), sys)
    down_right = reduce_logged(twocell.step_target(b, rules), sys)
    if twocell.target(down_left, rules) != twocell.target(down_right, rules):
        raise ValueError("critical pair does not resolve; the system is incomplete")
    return twocell.whisker(x, down_left, z), twocell.whisker(x, down_right, z)


def _loop(cp: CriticalPair, sys: LoggedSystem) -> tuple[TwoCell, TwoCell, TwoCell]:
    """The resolving legs of a critical pair and its loop, free reduced."""
    leg_left, leg_right = _pair_legs(cp, sys)
    loop = twocell.diamond(cp.left, leg_left, leg_right, cp.right, sys.rule_map)
    return leg_left, leg_right, twocell.free_reduce(loop)


def delta(cp: CriticalPair, sys: LoggedSystem) -> TwoCell:
    """The loop left . leg_left . leg_right^-1 . right^-1, free reduced."""
    return _loop(cp, sys)[2]


@dataclass
class OriginRecord:
    """Everything known about one overlap placement of the completed system."""

    overlap: Overlap
    leg_left: TwoCell
    leg_right: TwoCell
    delta: TwoCell
    gid: str | None = None  # representative generator; None when the loop is trivial
    exp: int = 1            # delta is equivalent to the representative to this power


@dataclass(frozen=True)
class Generator:
    gid: str
    cell: TwoCell
    base_word: Word
    base_element: Word
    origin: Overlap


@dataclass
class GeneratorSet:
    generators: tuple[Generator, ...]
    origin_index: dict = field(repr=False)  # _origin_key -> OriginRecord, one per branching
    system: LoggedSystem = field(repr=False)
    _by_id: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self._by_id = {gen.gid: gen for gen in self.generators}

    def by_id(self, gid: str) -> Generator:
        if gid not in self._by_id:
            raise UnmatchedDiamond(f"generator {gid} is not in the set")
        return self._by_id[gid]


def _union_system(completed: LoggedSystem, init: LoggedSystem) -> LoggedSystem:
    rules = list(completed.rules)
    provenance = dict(completed.provenance)
    logs = dict(completed.logs)
    for rule in init.rules:
        if rule.rid not in completed.rule_map:
            rules.append(rule)
            provenance[rule.rid] = init.provenance[rule.rid]
            if rule.rid in init.logs:
                logs[rule.rid] = init.logs[rule.rid]
    return LoggedSystem(
        tuple(rules), provenance, logs,
        complete=completed.complete,
        order=completed.order,
    )


def conjugacy_reduce(cell: TwoCell, sys: LoggedSystem) -> TwoCell:
    """Canonical representative of a loop's conjugacy class.

    Free reduction plus stripping of mutually inverse outer steps (which
    advances the base word) computes the cyclic reduction of the walk;
    conjugate loops always have rotation-equivalent cyclic reductions, so
    picking the rotation based at the greatest word (step sequence as tie
    break) is a true conjugacy invariant.  The pick is then interchange
    normalized; loops that vanish entirely return the identity at the
    normal form of their base.
    """
    rules = sys.rule_map

    def strip(c: TwoCell) -> TwoCell:
        steps = list(c.steps)
        source = c.source
        while len(steps) >= 2 and steps[0] == twocell.invert_step(steps[-1]):
            source = twocell.step_target(steps[0], rules)
            steps = steps[1:-1]
        return TwoCell(source, tuple(steps))

    core = strip(twocell.free_reduce(cell))
    if not core.steps:
        return twocell.identity(normal_form(core.source, sys))
    words = twocell.intermediate_words(core, rules)
    candidates = [
        TwoCell(words[k], core.steps[k:] + core.steps[:k])
        for k in range(len(core.steps))
    ]
    # the greatest base word, then the least step sequence
    best = min(candidates, key=lambda c: (sys.order.key(c.source), twocell.cell_key(c)))
    polished = strip(twocell.interchange_normalize(best, rules))
    if len(polished.steps) < len(best.steps):
        return conjugacy_reduce(polished, sys)
    return polished


def generate(comp: CompletionResult, init: LoggedSystem) -> GeneratorSet:
    """Endorewrite generators from the critical branchings of the completed system.

    Each unordered branching gives one loop.  Loops that normalize to an
    identity are dropped; duplicates modulo interchange normal form,
    inversion, and conjugacy reduction merge into one generator.  Every
    branching keeps one record pointing at its representative, which
    ``express`` uses to match diamonds.
    """
    if comp.status != "complete":
        raise ValueError("generator extraction needs a completed system")
    sys = _union_system(comp.system, init)
    rules = sys.rule_map

    records: dict = {}
    protos: list[OriginRecord] = []
    for cp in critical_pairs(sys, 0):
        rec = OriginRecord(cp.origin, *_loop(cp, sys))
        records[_origin_key(*cp.left.steps, *cp.right.steps)] = rec
        protos.append(rec)

    seen: dict = {}
    chosen: list[OriginRecord] = []
    rep_of: dict[int, tuple[int, int]] = {}
    for n, rec in enumerate(protos):
        norm = twocell.interchange_normalize(rec.delta, rules)
        if not norm.steps:
            continue  # trivial loop: no generator, the record keeps gid None
        canon = conjugacy_reduce(rec.delta, sys)
        ckey = twocell.cell_key(canon)
        icanon = conjugacy_reduce(twocell.invert(rec.delta, rules), sys)
        ikey = twocell.cell_key(icanon)
        if ckey in seen:
            idx, exp = seen[ckey]
            rep_of[n] = (idx, exp)
        elif ikey in seen:
            idx, exp = seen[ikey]
            rep_of[n] = (idx, -exp)
        else:
            idx = len(chosen)
            chosen.append(rec)
            rep_of[n] = (idx, 1)
            seen[ckey] = (idx, 1)
            if ikey != ckey:
                seen[ikey] = (idx, -1)

    # stable ids: order by base element (shortest first, the greatest word
    # first within a length), then discovery
    base_elements = [normal_form(rec.overlap.superposition, sys) for rec in chosen]
    ordering = sorted(
        range(len(chosen)),
        key=lambda i: (len(base_elements[i]), sys.order.key(base_elements[i]), i),
    )
    gid_of = {idx: f"g{n}" for n, idx in enumerate(ordering, start=1)}
    generators = tuple(
        Generator(
            gid_of[idx],
            chosen[idx].delta,
            chosen[idx].overlap.superposition,
            base_elements[idx],
            chosen[idx].overlap,
        )
        for idx in ordering
    )
    for n, rec in enumerate(protos):
        if n in rep_of:
            idx, exp = rep_of[n]
            rec.gid = gid_of[idx]
            rec.exp = exp
    return GeneratorSet(generators, records, sys)


def minimize(gens: GeneratorSet) -> GeneratorSet:
    """Heuristic shrink: drop generators whose abelianization is spanned
    by the kept ones.  Generators with zero abelianization are never
    dropped (the filter cannot see them)."""
    from fractions import Fraction

    kept = []
    basis: list[dict] = []

    def reduces_to_zero(vector: dict) -> bool:
        vec = {k: Fraction(v) for k, v in vector.items()}
        for row in basis:
            pivot = next(iter(row))
            if pivot in vec:
                coef = vec[pivot] / row[pivot]
                for k, v in row.items():
                    vec[k] = vec.get(k, Fraction(0)) - coef * v
                vec = {k: v for k, v in vec.items() if v}
        return not vec

    for gen in gens.generators:
        vector = twocell.abelianize(gen.cell)
        if vector and reduces_to_zero(vector):
            continue
        kept.append(gen)
        if vector:
            basis.append({k: Fraction(v) for k, v in vector.items()})
    return GeneratorSet(tuple(kept), gens.origin_index, gens.system)


# ---------------------------------------------------------------------------
# expression of loops over the generators


@dataclass(frozen=True)
class Factor:
    gen: str | None       # generator id, None for a trivial (disjoint) diamond
    x: Word
    z: Word
    conjugator: TwoCell   # from the decomposition base to the diamond apex
    exp: int
    cell: TwoCell         # exact contribution, a loop at the base


@dataclass(frozen=True)
class Decomposition:
    base: Word
    factors: tuple[Factor, ...]
    residual: TwoCell


def _match_overlap(v: Word, first: Step, second: Step, gens: GeneratorSet):
    """Locate the origin record for two overlapping redexes on v.

    Strips the shared whiskers x, z off v; the steps left on the minimal
    superposition are the ones ``critical_pair`` builds from the overlap.
    Returns the record, x, z and the two redexes in the record's order.
    """
    x, z, a, b = _strip(v, first, second, gens.system.rule_map)
    record = gens.origin_index.get(_origin_key(a, b))
    if record is None:
        raise UnmatchedDiamond(
            f"no generator origin for rules {first.rule},{second.rule} on {word_to_str(v)}"
        )
    o = record.overlap
    if a != Step(o.u1, o.left_rule, 1, o.v1):
        first, second = second, first
    return record, x, z, first, second


def _resolve_branching(v: Word, down_a: Step, down_b: Step, gens: GeneratorSet):
    """Diamond data for two distinct forward steps from v.

    Returns (dia, leg_a, leg_b, meta, swapped): dia is the loop
    first . leg_first . leg_second^-1 . second^-1 at v, free reduced, with
    disjoint steps in sorted order and overlapping ones in the order of
    their origin record; legs are rematched to the (down_a, down_b) order,
    and meta is (record-or-None, x, z, representative exponent).
    """
    sys = gens.system
    rules = sys.rule_map
    first, second = sorted(
        (down_a, down_b), key=lambda s: (len(s.prefix), sys.position(s.rule))
    )
    l1 = rules[first.rule].lhs
    l2 = rules[second.rule].lhs
    p1, p2 = len(first.prefix), len(second.prefix)
    if p2 >= p1 + len(l1):
        cp = CriticalPair(TwoCell(v, (first,)), TwoCell(v, (second,)), None)
        leg_first, leg_second, dia = _loop(cp, sys)
        meta = (None, v[:p1], v[p2 + len(l2):], 1)
    else:
        record, x, z, first, second = _match_overlap(v, first, second, gens)
        leg_first = twocell.whisker(x, record.leg_left, z)
        leg_second = twocell.whisker(x, record.leg_right, z)
        dia = twocell.whisker(x, record.delta, z)
        meta = (record, x, z, record.exp)
    swapped = (first, second) != (down_a, down_b)
    if swapped:
        return dia, leg_second, leg_first, meta, True
    return dia, leg_first, leg_second, meta, False


def _emit_factor(factors: list, conj: TwoCell, dia: TwoCell, meta, orientation: int,
                 gens: GeneratorSet):
    """Record one extracted diamond as a loop at the decomposition base."""
    record, x, z, rep_exp = meta
    sys = gens.system
    rules = sys.rule_map
    body = dia if orientation == 1 else twocell.invert(dia, rules)
    cell = twocell.free_reduce(twocell.compose_all(
        [conj, body, twocell.invert(conj, rules)], rules,
    ))
    conjugator = twocell.free_reduce(conj)
    gid = None if record is None else record.gid
    if gid is not None:
        rep = gens.by_id(gid)
        if rep.base_word != record.overlap.superposition:
            # conjugacy-merged representative living on another base word:
            # bridge through the common normal form so the whiskered
            # reference stays replayable
            bridge = prove(twocell.target(conjugator, rules), x + rep.base_word + z, sys)
            conjugator = twocell.free_reduce(twocell.compose(conjugator, bridge, rules))
    factors.append(Factor(
        gen=gid,
        x=x,
        z=z,
        conjugator=conjugator,
        exp=orientation * rep_exp,
        cell=cell,
    ))


def _decompose(loop: TwoCell, conj: TwoCell, factors: list, gens: GeneratorSet):
    """Peak elimination, iteratively: rewrite the loop away, extracting diamonds.

    Invariant: input ~ (emitted factors) . conj . loop . conj^-1 in the
    free sesquigroupoid, so the factor product replays to the input.
    """
    sys = gens.system
    rules = sys.rule_map
    stack: list[tuple] = [("loop", twocell.free_reduce(loop), conj)]
    while stack:
        task = stack.pop()
        if task[0] == "emit":
            _, econj, dia, meta, orientation = task
            _emit_factor(factors, econj, dia, meta, orientation, gens)
            continue
        _, loop, conj = task
        while loop.steps:
            steps = loop.steps
            peak = next(
                (i for i in range(len(steps) - 1)
                 if steps[i].exp == -1 and steps[i + 1].exp == 1),
                None,
            )
            if peak is not None:
                i = peak
                apex = twocell.target(TwoCell(loop.source, steps[:i + 1]), rules)
                down_a = twocell.invert_step(steps[i])
                down_b = steps[i + 1]
                dia, leg_a, leg_b, meta, swapped = _resolve_branching(apex, down_a, down_b, gens)
                up_path = TwoCell(loop.source, steps[:i + 1])
                _emit_factor(
                    factors,
                    twocell.free_reduce(twocell.compose(conj, up_path, rules)),
                    dia,
                    meta,
                    1 if swapped else -1,
                    gens,
                )
                middle = twocell.compose(leg_a, twocell.invert(leg_b, rules), rules)
                loop = twocell.free_reduce(
                    TwoCell(loop.source, steps[:i] + middle.steps + steps[i + 2:])
                )
                continue
            # no internal peak: descending then ascending around the base
            m = next((i for i, s in enumerate(steps) if s.exp == -1), len(steps))
            assert 0 < m < len(steps), "a nonempty monotone loop cannot close"
            s1 = steps[0]
            s2 = twocell.invert_step(steps[-1])
            if s1 == s2:
                head = TwoCell(loop.source, (s1,))
                conj = twocell.free_reduce(twocell.compose(conj, head, rules))
                loop = twocell.free_reduce(
                    TwoCell(twocell.target(head, rules), steps[1:-1])
                )
                continue
            dia, leg_1, leg_2, meta, swapped = _resolve_branching(loop.source, s1, s2, gens)
            rest = TwoCell(
                twocell.step_target(s1, rules),
                steps[1:-1]
                + leg_2.steps
                + tuple(twocell.invert_step(s) for s in reversed(leg_1.steps)),
            )
            inner_conj = twocell.free_reduce(
                twocell.compose(conj, TwoCell(loop.source, (s1,)), rules)
            )
            stack.append(("emit", conj, dia, meta, -1 if swapped else 1))
            stack.append(("loop", twocell.free_reduce(rest), inner_conj))
            break


def express(cell: TwoCell, gens: GeneratorSet) -> Decomposition:
    """Decompose an endorewrite into conjugated, whiskered generator loops.

    The factor cells multiply out, at the base word, to a cell that free
    reduces back to the input; the residual records the leftover loop
    (the identity whenever extraction succeeded).
    """
    rules = gens.system.rule_map
    bad = twocell.validate(cell, rules)
    if bad is not None:
        raise ChainError("input does not replay", index=bad)
    if twocell.target(cell, rules) != cell.source:
        raise ChainError("input is not an endorewrite")
    base = cell.source
    factors: list[Factor] = []
    _decompose(cell, twocell.identity(base), factors, gens)
    recomposed = twocell.identity(base)
    for factor in factors:
        recomposed = twocell.compose(recomposed, factor.cell, rules)
    residual = twocell.free_reduce(
        twocell.compose(twocell.invert(recomposed, rules), cell, rules)
    )
    return Decomposition(base, tuple(factors), residual)


# ---------------------------------------------------------------------------
# serialization


def generator_set_to_json(gens: GeneratorSet) -> dict:
    return {
        "generators": [
            {
                "id": gen.gid,
                "base_word": word_to_str(gen.base_word),
                "base_element": word_to_str(gen.base_element),
                "origin": {
                    "left_rule": gen.origin.left_rule,
                    "right_rule": gen.origin.right_rule,
                    "case": gen.origin.case,
                    "u1": word_to_str(gen.origin.u1),
                    "v1": word_to_str(gen.origin.v1),
                    "u2": word_to_str(gen.origin.u2),
                    "v2": word_to_str(gen.origin.v2),
                },
                "cell": twocell.cell_to_json(gen.cell),
            }
            for gen in gens.generators
        ],
    }


def decomposition_to_json(dec: Decomposition) -> dict:
    return {
        "base": word_to_str(dec.base),
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

