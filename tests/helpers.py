"""Shared oracles and random-walk generators for the test suite.

The oracles are deliberately naive: a rescan of every rule at every
position for redexes and reduction, exhaustive reduction-graph search,
union-find congruence closure, brute-force overlap scans, a pairwise
overlap search that compares every pair of left-hand sides by slicing,
retirement by slicing every lhs, completion that builds every overlap
before it filters them, a rotation search that keys every rotation
afresh, and Steinberg's growth series of a Coxeter group, summed from its
labels.  Tests compare the library against these, never against itself.

The cell operations that only tests use live here too, one copy each,
built on the library's remaining paths: a step's two ends
(``step_ends``), ``intermediate_words``, ``compose`` and ``compose_all``,
``invert``, a critical branching's verdict read off its logged sides
(``resolve``), the loop of two forward steps on one word (``delta``),
interchange normalization (``interchange_normalize`` with ``swap_adjacent`` and
``transport``), the cyclic core of a loop and its conjugacy canonical
form (``scan_conjugacy_reduce``), and the replay of a decomposition in
the order its loop is rewritten (``replay_in_order``).
"""

from fractions import Fraction
from itertools import product

from logrew import completion, endorewrites, parse_presentation
from logrew.completion import CompletionLimits, CompletionResult, NewRule, Overlap, critical_pairs
from logrew.core import EMPTY, Rule, Word, word_to_str
from logrew.engine import LoggedSystem, normal_form, reduce_logged
from logrew.twocell import ChainError, Step, TwoCell
import logrew.twocell as tc


# A5 = <a, b | a^2, b^3, (ab)^5>: completes to 14 rules, 6 of them retired
A5 = """monoid
letters: a b
order: shortlex
rules:
a a = 1
b b b = 1
a b a b a b a b a b = 1
"""

# the Coxeter group S4: completes to 15 rules, 8 of them retired
S4 = """monoid
letters: a b c
order: shortlex
rules:
a a = 1
b b = 1
c c = 1
a b a b a b = 1
a c a c = 1
b c b c b c = 1
"""

# completes to 24 branchings; five of their loops equal the loop of another
# up to interchange, inversion and conjugacy
MERGING = "monoid\nletters: a b\norder: shortlex\nrules:\na b b b = 1\na b = b b a\n"


def _presentation(letters, relations):
    return "".join([f"monoid\nletters: {' '.join(letters)}\norder: shortlex\nrules:\n"]
                   + [f"{' '.join(lhs) or '1'} = {' '.join(rhs) or '1'}\n" for lhs, rhs in relations])


def pair_labels(letters, labels):
    """Each pair of letters, written together in the order of letters, to its
    Coxeter label: labels maps pairs to their labels, and unmarked pairs
    commute (2); a list labels a linear diagram, labels[i] joining letters i
    and i + 1."""
    if isinstance(labels, list):
        labels = {letters[i:i + 2]: m for i, m in enumerate(labels)}
    return {s + u: labels.get(s + u, 2) for i, s in enumerate(letters) for u in letters[i + 1:]}


def coxeter(letters, labels):
    """The Coxeter group of a diagram, labelled as ``pair_labels`` reads it."""
    relations = [(s + s, "") for s in letters]
    relations += [(pair * m, "") for pair, m in pair_labels(letters, labels).items()]
    return _presentation(letters, relations)


def triangle(r):
    """<a, b | a^2, b^3, (ab)^r>."""
    return _presentation("ab", [("aa", ""), ("bbb", ""), ("ab" * r, "")])


# the groups of the benchmark ladder: name -> (presentation, group order)
LADDER = {
    "S4": (coxeter("abc", [3, 3]), 24),
    "S5": (coxeter("abcd", [3, 3, 3]), 120),
    "S6": (coxeter("abcde", [3, 3, 3, 3]), 720),
    "S7": (coxeter("abcdef", [3, 3, 3, 3, 3]), 5040),
    "B4": (coxeter("abcd", [4, 3, 3]), 384),
    "H3": (coxeter("abc", [5, 3]), 120),
    "F4": (coxeter("abcd", [3, 4, 3]), 1152),
    "triangle_r3": (triangle(3), 12),
    "triangle_r4": (triangle(4), 24),
    "triangle_r5": (triangle(5), 60),
    "Z8xZ9": (_presentation("ab", [("a" * 8, ""), ("b" * 9, ""), ("ba", "ab")]), 72),
}
# the ladder without its two largest groups
NINE_GROUPS = {name: LADDER[name] for name in LADDER if name not in ("S7", "F4")}
# two Coxeter groups one size up from the ladder: name -> (presentation, group order)
SCALE_GROUPS = {
    "H4": (coxeter("abcd", [5, 3, 3]), 14400),
    "E6": (coxeter("abcdef", {"ab": 3, "bc": 3, "cd": 3, "de": 3, "cf": 3}), 51840),
}
# the infinite Coxeter groups of rank 3, whose proper parabolic subgroups are
# finite: name -> labels on a b c, as ``coxeter`` and ``steinberg_growth`` read them
INFINITE_COXETER = {
    "A~2": {"ab": 3, "bc": 3, "ac": 3},
    "C~2": [4, 4],
    "G~2": [6, 3],
    "(2,3,7)": {"bc": 3, "ac": 7},
}


def growth(sys: LoggedSystem, n: int) -> list[int]:
    """The number of irreducible words of each length 0 to n, read off the lhs
    index (Sims 1994): an irreducible word is a path from the root that never
    enters a state whose word has an lhs as a suffix (out != 0)."""
    step, out, letters = sys._step, sys._out, sys.order.alphabet.letters
    counts, layer = [], {0: 1}  # state -> number of irreducible words that reach it
    for _ in range(n + 1):
        counts.append(sum(layer.values()))
        after = {}
        for s, k in layer.items():
            for letter in letters:
                t = step[s].get(letter, 0)
                if not out[t]:
                    after[t] = after.get(t, 0) + k
        layer = after
    return counts


def count_normal_forms(sys: LoggedSystem, bound: int) -> list[int]:
    """``growth`` up to the first length with no irreducible word.  Raises
    ValueError if words longer than bound remain: the monoid is infinite or
    has longer normal forms."""
    counts = growth(sys, bound + 1)
    if counts[-1]:
        raise ValueError(f"irreducible words longer than {bound}")
    return counts[:counts.index(0)]


def _series_quotient(num: list, den: list, n: int) -> list[Fraction]:
    """The coefficients of t^0 to t^n of the power series num / den; den[0] != 0."""
    q = []
    for k in range(n + 1):
        c = Fraction(num[k] if k < len(num) else 0)
        q.append((c - sum(den[i] * q[k - i] for i in range(1, min(k, len(den) - 1) + 1))) / den[0])
    return q


def steinberg_growth(letters, labels, n: int) -> list[Fraction]:
    """The growth series to length n of an infinite Coxeter group of rank 3,
    labelled as ``coxeter`` reads it, all of whose proper parabolic subgroups
    W_T are finite (Steinberg 1968): 1 / sum over T of (-1)^|T| t^N_T / W_T(t),
    N_T the length of W_T's longest element.  W_T(t) is 1 for T empty, 1 + t
    for one letter (N_T 1) and (1 + t)(1 + t + ... + t^(m-1)) for a pair
    labelled m (N_T m)."""
    assert len(letters) == 3
    terms = [([1], [1])] + [([0, -1], [1, 1])] * 3  # (numerator, denominator)
    terms += [([0] * m + [1], [1] + [2] * (m - 1) + [1]) for m in pair_labels(letters, labels).values()]
    total = [sum(column) for column in zip(*(_series_quotient(num, den, n) for num, den in terms))]
    return _series_quotient([1], total, n)


def occurrences(needle: Word, haystack: Word) -> list[int]:
    k = len(needle)
    return [p for p in range(len(haystack) - k + 1) if haystack[p:p + k] == needle]


def find_overlaps(a: Rule, b: Rule, inclusions_only: bool = False) -> list[Overlap]:
    """All overlap placements of a (as the first rule) against b (as the
    second), or only those of cases i and iv, by case, then position."""
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


def pairwise_critical_pairs(sys: LoggedSystem, new_start: int, gone=frozenset()) -> list[Overlap]:
    """``completion.critical_pairs`` by ``find_overlaps`` on every pair of
    rules i <= j with j >= new_start, in order of (i, j)."""
    rules = sys.rules
    return [
        overlap
        for i in range(len(rules))
        for j in range(max(i, new_start), len(rules))
        for overlap in find_overlaps(rules[i], rules[j], rules[i].rid in gone or rules[j].rid in gone)
        if i < j or overlap.case != "iii"
    ]


def scan_retired(sys: LoggedSystem) -> set[str]:
    """``LoggedSystem.retired`` by slicing: the ids of the rules whose lhs has
    another rule's lhs as a proper factor, or equals an earlier rule's lhs."""
    rules = sys.rules
    return {
        rule.rid for x, rule in enumerate(rules)
        if any(len(other.lhs) < len(rule.lhs) and occurrences(other.lhs, rule.lhs) for other in rules)
        or any(other.lhs == rule.lhs for other in rules[:x])
    }


def resolve(overlap: Overlap, sys: LoggedSystem) -> NewRule | None:
    """Completion's verdict on a branching, read off its logged sides rather
    than ``completion._joins``'s unlogged reducts: None when the two sides
    end at one normal form, else the rule ``completion._new_rule`` logs."""
    (_, left), (_, right) = completion.sides(overlap.superposition, overlap.left, overlap.right, sys)
    return None if left == right else completion._new_rule(overlap, sys)


def delta(word: Word, s1: Step, s2: Step, sys: LoggedSystem) -> TwoCell:
    """The loop of two forward steps on word: the interchange square of
    disjoint ones, ``endorewrites._square``, else the loop
    ``endorewrites._resolved`` closes from their ``completion.sides``,
    which must stand on their superposition."""
    if endorewrites._disjoint(s1, s2, sys.rule_map):
        return TwoCell(word, endorewrites._square(s1, s2, sys.rule_map))
    return endorewrites._resolved(word, s1, s2, sys)[0]


def every_branching_resolves(sys: LoggedSystem) -> bool:
    """Every critical branching of every listed rule resolves, retired
    rules' overlaps included: the stricter criterion that
    ``completion.is_complete`` must agree with."""
    return all(resolve(overlap, sys) is None for overlap in critical_pairs(sys, 0))


def check_retirement(sys: LoggedSystem) -> None:
    """A completed system's retired rules each contain an active lhs, no
    active lhs contains another, and the system is complete both with its
    retired rules and without them."""
    gone = sys.retired
    active = [rule for rule in sys.rules if rule.rid not in gone]

    def inside(needle, haystack):
        return any(haystack[p:p + len(needle)] == needle for p in range(len(haystack)))

    for rule in sys.rules:
        if rule.rid in gone:
            assert any(inside(a.lhs, rule.lhs) for a in active), rule.rid
    for a in active:
        assert not any(b is not a and inside(b.lhs, a.lhs) for b in active), a.rid
    assert every_branching_resolves(sys)
    assert every_branching_resolves(LoggedSystem(tuple(active), order=sys.order))


def filter_knuth_bendix(init: LoggedSystem, limits: CompletionLimits | None = None) -> CompletionResult:
    """Completion that builds every overlap of a pass, then drops by
    ``live`` the ones no retired rule may resolve: non-inclusions that
    involve a retired rule.  Each grown system is built afresh by the
    checked constructor, so it shares no growth code with completion.  It
    calls ``resolve`` by its name in this module, so a test can record the
    calls."""
    limits = limits or CompletionLimits()
    sys = LoggedSystem(init.rules, init.logs, order=init.order)
    gone = set(init.retired)

    def live(overlap):
        return overlap.case in ("i", "iv") or not {overlap.left.rule, overlap.right.rule} & gone

    new_start = 0
    while True:
        queue = pairwise_critical_pairs(sys, new_start)
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
            gone.update(r.rid for r in sys.rules if occurrences(outcome.rule.lhs, r.lhs))
            sys = LoggedSystem(sys.rules + (outcome.rule,), {**sys.logs, outcome.rule.rid: outcome.log},
                               order=sys.order)
        if len(sys.rules) == new_start:
            sys.complete = True
            return CompletionResult(sys)


def expanded_lengths(sys: LoggedSystem) -> dict[str, int]:
    """The number of steps each rule's log expands to, counted through the
    logs without building them (an initial rule counts 1), memoised, so a
    count can run far past any length expansion could build."""
    lengths = {}

    def length(rid):
        if rid not in lengths:
            log = sys.logs.get(rid)
            lengths[rid] = 1 if log is None else sum(length(step.rule) for step in log.steps)
        return lengths[rid]

    return {rule.rid: length(rule.rid) for rule in sys.rules}


def words_over(letters, max_len):
    for n in range(max_len + 1):
        yield from (tuple(w) for w in product(letters, repeat=n))


def scan_redexes(w: Word, sys: LoggedSystem) -> list[tuple[int, str]]:
    """All (position, rule id) with the rule's lhs at that position, by
    position, then rule index: every rule tried at every position."""
    hits = []
    for pos in range(len(w) + 1):
        for rule in sys.rules:
            k = len(rule.lhs)
            if k and w[pos:pos + k] == rule.lhs:
                hits.append((pos, rule.rid))
    return hits


def scan_reduce(w: Word, sys: LoggedSystem) -> TwoCell:
    """Leftmost-end reduction: the redex that ends first, then the longest
    lhs, then the lowest rule index, rescanning the whole word after every
    step."""
    index = {rule.rid: x for x, rule in enumerate(sys.rules)}

    def end_first(hit):
        pos, rid = hit
        k = len(sys.rule_map[rid].lhs)
        return pos + k, -k, index[rid]

    steps = []
    current = w
    while redexes := scan_redexes(current, sys):
        pos, rid = min(redexes, key=end_first)
        rule = sys.rule_map[rid]
        steps.append(Step(current[:pos], rid, 1, current[pos + len(rule.lhs):]))
        current = current[:pos] + rule.rhs + current[pos + len(rule.lhs):]
    return TwoCell(w, tuple(steps))


def one_step_reducts(w: Word, sys: LoggedSystem):
    """Every word reachable in one forward rule application."""
    out = []
    for pos, rid in scan_redexes(w, sys):
        rule = sys.rule_map[rid]
        out.append(w[:pos] + rule.rhs + w[pos + len(rule.lhs):])
    return out


def all_normal_forms(w: Word, sys: LoggedSystem, cache=None) -> frozenset:
    """Exhaustive reduction-graph search: every irreducible word reachable."""
    if cache is None:
        cache = {}
    if w in cache:
        return cache[w]
    nexts = one_step_reducts(w, sys)
    if not nexts:
        result = frozenset([w])
    else:
        result = frozenset()
        cache[w] = result  # cycle guard; reduction is acyclic anyway
        result = frozenset().union(*(all_normal_forms(n, sys, cache) for n in nexts))
    cache[w] = result
    return result


def congruence_classes(letters, relations, max_len, slack=3):
    """Union-find closure of the rewrite graph on words up to max_len.

    Derivations between short words may pass through longer ones, so the
    closure runs on a padded universe; callers compare within max_len.
    """
    universe = list(words_over(letters, max_len + slack))
    parent = {w: w for w in universe}

    def find(w):
        while parent[w] != w:
            parent[w] = parent[parent[w]]
            w = parent[w]
        return w

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb

    for w in universe:
        for lhs, rhs in relations:
            k = len(lhs)
            for pos in range(len(w) - k + 1):
                if w[pos:pos + k] == lhs:
                    other = w[:pos] + rhs + w[pos + len(lhs):]
                    if len(other) <= max_len + slack:
                        union(w, other)
    return {w: find(w) for w in universe}


def brute_force_overlaps(a, b, letters):
    """All (superposition, p1, p2) where both rules fire with meeting regions.

    Scans every word up to the combined lhs length; the identical
    self-placement of one rule is excluded, disjoint regions are not
    overlaps, and the word must be exactly covered by the two redexes.
    """
    hits = set()
    l1, l2 = a.lhs, b.lhs
    for w in words_over(letters, len(l1) + len(l2)):
        for p1 in range(len(w) - len(l1) + 1):
            if w[p1:p1 + len(l1)] != l1:
                continue
            for p2 in range(len(w) - len(l2) + 1):
                if w[p2:p2 + len(l2)] != l2:
                    continue
                if a.rid == b.rid and p1 == p2:
                    continue
                lo = min(p1, p2)
                hi = max(p1 + len(l1), p2 + len(l2))
                if lo != 0 or hi != len(w):
                    continue  # not the minimal superposition
                if p1 + len(l1) <= p2 or p2 + len(l2) <= p1:
                    continue  # disjoint regions
                hits.add((w, p1, p2))
    return hits


def random_cell(rng, sys: LoggedSystem, source: Word, n_steps: int) -> TwoCell:
    """Random valid cell: forward or backward rule applications."""
    steps = []
    w = source
    for _ in range(n_steps):
        options = [(pos, rid, 1) for pos, rid in scan_redexes(w, sys)]
        for rule in sys.rules:
            k = len(rule.rhs)
            for pos in range(len(w) - k + 1):
                if w[pos:pos + k] == rule.rhs:
                    options.append((pos, rule.rid, -1))
        if not options:
            break
        pos, rid, exp = rng.choice(options)
        rule = sys.rule_map[rid]
        inw, outw = (rule.lhs, rule.rhs) if exp == 1 else (rule.rhs, rule.lhs)
        steps.append(Step(w[:pos], rid, exp, w[pos + len(inw):]))
        w = w[:pos] + outw + w[pos + len(inw):]
    return TwoCell(source, tuple(steps))


def random_loop(rng, sys: LoggedSystem, source: Word, n_steps: int) -> TwoCell:
    """Random endorewrite at source: wander, then return via normal forms."""
    rules = sys.rule_map
    out = random_cell(rng, sys, source, n_steps)
    back = compose(
        reduce_logged(tc.target(out, rules), sys),
        invert(reduce_logged(source, sys), rules),
        rules,
    )
    return compose(out, back, rules)


def random_word(rng, letters, max_len, min_len=0) -> Word:
    return tuple(rng.choice(letters) for _ in range(rng.randint(min_len, max_len)))


def relator_pair(rng, text: str, length: int) -> tuple[Word, Word]:
    """A random word of length letters of the presentation text, and the same
    word with the lhs of one of its relations X = 1 inserted: an equal pair."""
    p = parse_presentation(text)
    w = random_word(rng, p.alphabet.letters, length, min_len=length)
    k = rng.randint(0, length)
    return w, w[:k] + rng.choice([lhs for lhs, rhs in p.relations if not rhs]) + w[k:]


def signed_factor_sum(dec) -> dict:
    total = {}
    for factor in dec.factors:
        for rid, n in tc.abelianize(factor.cell).items():
            total[rid] = total.get(rid, 0) + n
    return {rid: n for rid, n in sorted(total.items()) if n}


def replay_in_order(cell: TwoCell, factors) -> None:
    """Replay a decomposition's factors in list order against the loop they
    came from, asserting each is the next diamond peak elimination meets.

    The loop starts free reduced, at an empty conjugator.  With no peak
    left, equal outer steps move into the conjugator.  Each factor must
    then be conjugated by the conjugator followed by the loop up to its
    leftmost peak (or by the conjugator alone, for unequal outer steps),
    and its diamond, join(join(conj^-1, cell), conj), must start and end
    with the two steps there; the way round the diamond, its inner steps
    reversed and inverted, is spliced in for them.  The loop must end empty.
    """
    steps, conj = tc.free_reduce(cell).steps, ()

    def leftmost_peak():
        return next((i for i in range(len(steps) - 1)
                     if steps[i].exp == -1 and steps[i + 1].exp == 1), None)

    def strip_outer():
        nonlocal steps, conj
        while leftmost_peak() is None and steps and steps[0] == tc.invert_step(steps[-1]):
            conj, steps = conj + steps[:1], steps[1:-1]

    for n, factor in enumerate(factors):
        strip_outer()
        peak = leftmost_peak()
        if peak is None:
            assert steps, f"factor {n} is left over"
            at, ends, outer = conj, (steps[0], steps[-1]), True
        else:
            at, ends, outer = tc.join(conj, steps[:peak + 1]), (steps[peak + 1], steps[peak]), False
        assert factor.conjugator.steps == at, f"factor {n} is conjugated elsewhere"
        dia = tc.join(tc.join(tc.invert_steps(at), factor.cell.steps), at)
        assert (dia[0], dia[-1]) == ends, f"factor {n} is not the diamond met here"
        around = tc.invert_steps(dia[1:-1])
        if outer:
            steps, conj = tc.join(around, steps[1:-1]), conj + (tc.invert_step(ends[1]),)
        else:
            steps = tc.join(tc.join(steps[:peak], around), steps[peak + 2:])
    strip_outer()
    assert not steps, "the factors leave part of the loop"


def step_ends(step: Step, rules: dict[str, Rule]) -> tuple[Word, Word]:
    """The words a step stands on and produces."""
    consumed, produced = tc.step_io(step, rules)
    return step.prefix + consumed + step.suffix, step.prefix + produced + step.suffix


def intermediate_words(cell: TwoCell, rules: dict[str, Rule]) -> list[Word]:
    """All words visited, source first; length is len(steps) + 1."""
    return [cell.source] + [step_ends(step, rules)[1] for step in cell.steps]


def compose_all(cells: list[TwoCell], rules: dict[str, Rule]) -> TwoCell:
    """The cells one after another; each join is checked on one replay of
    the cell before it by ``twocell.target``."""
    for before, cell in zip(cells, cells[1:]):
        end = tc.target(before, rules)
        if end != cell.source:
            raise ChainError(
                f"cannot compose: target {word_to_str(end)} != source {word_to_str(cell.source)}")
    return TwoCell(cells[0].source, tuple(step for cell in cells for step in cell.steps))


def compose(a: TwoCell, b: TwoCell, rules: dict[str, Rule]) -> TwoCell:
    return compose_all([a, b], rules)


def invert(cell: TwoCell, rules: dict[str, Rule]) -> TwoCell:
    return TwoCell(tc.target(cell, rules), tc.invert_steps(cell.steps))


def transport(step: Step, across: Step, word: Word, rules: dict[str, Rule]) -> Step:
    """``step`` moved onto ``word``, the target of ``across``: the reference
    that ``endorewrites._square`` moves forward steps by position against.

    Both steps stand on one word on disjoint regions; a step right of
    ``across`` shifts by the change in length ``across`` makes.  Two empty
    regions at one position are ordered by what their steps put there, so
    moving either step across the other closes the square.
    """
    in_s, out_s = tc.step_io(step, rules)
    in_a, out_a = tc.step_io(across, rules)
    p, q = len(step.prefix), len(across.prefix)
    if p >= q + len(in_a) and (p + len(in_s) > q or out_s > out_a):
        p += len(out_a) - len(in_a)
    elif p + len(in_s) > q:
        raise ValueError("steps are not disjoint")
    return Step(word[:p], step.rule, step.exp, word[p + len(in_s):])


def swap_adjacent(first: Step, second: Step, rules: dict[str, Rule]) -> tuple[Step, Step] | None:
    """Swap two independent adjacent steps so the leftmost region acts first.

    Returns None when the regions interact or are already in left-to-right
    order.
    """
    _, out1 = tc.step_io(first, rules)
    in2, _ = tc.step_io(second, rules)
    p1 = len(first.prefix)
    p2 = len(second.prefix)
    left_of = p2 + len(in2) <= p1
    right_of = p2 >= p1 + len(out1)
    if not left_of or right_of:
        return None
    # close the square of first^-1 and second on the word between them,
    # where their regions never tie as they may on the word before first
    undo = tc.invert_step(first)
    back = transport(undo, second, step_ends(second, rules)[1], rules)
    return transport(second, undo, step_ends(first, rules)[0], rules), tc.invert_step(back)


def interchange_normalize(cell: TwoCell, rules: dict[str, Rule]) -> TwoCell:
    """Deterministic representative of (a sound fragment of) the interchange class.

    Bubble passes over every adjacent pair swap steps acting on disjoint
    regions until the leftmost region always comes first, each pass
    followed by free reduction, until a pass swaps nothing.  Endpoints and
    rule counts are preserved.  Equal normal forms prove two cells
    interchange-equal; unequal ones prove nothing.
    """
    cell = tc.free_reduce(cell)
    while True:
        steps = list(cell.steps)
        swapped = False
        for i in range(len(steps) - 1):
            pair = swap_adjacent(steps[i], steps[i + 1], rules)
            if pair is not None:
                steps[i], steps[i + 1] = pair
                swapped = True
        if not swapped:
            return cell
        cell = tc.free_reduce(TwoCell(cell.source, tuple(steps)))


def cyclic_core(cell: TwoCell, rules: dict[str, Rule]) -> TwoCell:
    """The loop free reduced and stripped of mutually inverse outer steps,
    which advances its base word: the cyclic reduction of its walk."""
    steps, source = list(tc.free_reduce(cell).steps), cell.source
    while len(steps) >= 2 and steps[0] == tc.invert_step(steps[-1]):
        source = step_ends(steps[0], rules)[1]
        steps = steps[1:-1]
    return TwoCell(source, tuple(steps))


def scan_conjugacy_reduce(cell: TwoCell, sys: LoggedSystem) -> TwoCell:
    """Conjugacy canonical form: every rotation of the cyclic core keyed
    afresh, the pick (greatest word, then least steps) interchange
    normalized, repeated while it shrinks.  A loop that vanishes gives the
    identity at the normal form of its base."""
    rules = sys.rule_map
    core = cyclic_core(cell, rules)
    if not core.steps:
        return tc.identity(normal_form(core.source, sys))
    words = intermediate_words(core, rules)
    candidates = [
        TwoCell(words[k], core.steps[k:] + core.steps[:k]) for k in range(len(core.steps))
    ]
    best = min(candidates, key=lambda c: (sys.order.key(c.source), c.steps))
    polished = cyclic_core(interchange_normalize(best, rules), rules)
    if len(polished.steps) < len(best.steps):
        return scan_conjugacy_reduce(polished, sys)
    return polished
