"""Seeded inputs for the workloads, built here and never read from the repository.

Presentations are written as presentation-file text.  Word pairs have
verdicts known by construction, and random loops are walked with the naive
redex scan below rather than with the library's own.  Words are tuples of
letter names, steps are ``(prefix, rule id, exponent, suffix)`` tuples, and
cells travel to the program as the JSON that ``logrew`` reads.
"""

from __future__ import annotations

import random


def presentation_text(letters: str, relations: list[tuple[str, str]]) -> str:
    lines = ["monoid", "letters: " + " ".join(letters), "order: shortlex", "rules:"]
    lines += [f"{lhs} = {rhs}" for lhs, rhs in relations]
    return "\n".join(lines) + "\n"


def coxeter(letters: str, m) -> str:
    """Coxeter group in relator form: s s = 1 and (s t)^m(s, t) = 1."""
    relations = [(f"{s} {s}", "1") for s in letters]
    for i in range(len(letters)):
        for j in range(i + 1, len(letters)):
            relations.append((" ".join((letters[i], letters[j]) * m(i, j)), "1"))
    return presentation_text(letters, relations)


def linear_diagram(labels: list[int]):
    """Coxeter matrix of a linear diagram: labels[i] joins nodes i and i + 1."""
    return lambda i, j: labels[i] if j == i + 1 else 2


def triangle(r: int) -> str:
    """<a, b | a^2, b^3, (ab)^r>."""
    return presentation_text("ab", [("a a", "1"), ("b b b", "1"), (" ".join("ab" * r), "1")])


def z8_z9() -> str:
    return presentation_text("ab", [(" ".join("a" * 8), "1"), (" ".join("b" * 9), "1"), ("b a", "a b")])


# (name, presentation text, group order)
LADDER = [
    ("S4", coxeter("abc", linear_diagram([3, 3])), 24),
    ("S5", coxeter("abcd", linear_diagram([3, 3, 3])), 120),
    ("S6", coxeter("abcde", linear_diagram([3, 3, 3, 3])), 720),
    ("S7", coxeter("abcdef", linear_diagram([3, 3, 3, 3, 3])), 5040),
    ("B4", coxeter("abcd", linear_diagram([4, 3, 3])), 384),
    ("H3", coxeter("abc", linear_diagram([5, 3])), 120),
    ("F4", coxeter("abcd", linear_diagram([3, 4, 3])), 1152),
    ("triangle_r3", triangle(3), 12),
    ("triangle_r4", triangle(4), 24),
    ("triangle_r5", triangle(5), 60),
    ("Z8xZ9", z8_z9(), 72),
]
ORDERS = {name: order for name, _, order in LADDER}
TEXTS = {name: text for name, text, _ in LADDER}


def word(text: str) -> tuple[str, ...]:
    tokens = text.split()
    return () if tokens == ["1"] else tuple(tokens)


def text_of(w) -> str:
    return " ".join(w) if w else "1"


def parse_relations(text: str) -> tuple[str, list[tuple[tuple, tuple]]]:
    """Letters (greatest first) and relations of presentation text written above."""
    lines = text.splitlines()
    letters = lines[1].split(":", 1)[1].split()
    relations = []
    for line in lines[4:]:
        lhs, rhs = line.split("=")
        relations.append((word(lhs), word(rhs)))
    return "".join(letters), relations


def initial_rules(text: str) -> dict[str, tuple[tuple, tuple]]:
    """Rule ids r1, r2, ... of the relations, each oriented greater side first
    under shortlex with the first declared letter greatest."""
    letters, relations = parse_relations(text)
    rank = {x: i for i, x in enumerate(letters)}

    def key(w):  # larger key = shortlex-greater word
        return len(w), tuple(-rank[x] for x in w)

    rules = {}
    for lhs, rhs in relations:
        if key(lhs) < key(rhs):
            lhs, rhs = rhs, lhs
        rules[f"r{len(rules) + 1}"] = (lhs, rhs)
    return rules


def relators(text: str) -> list[tuple]:
    """Relations of the form X = 1; inserting X anywhere keeps the element."""
    return [lhs for lhs, rhs in parse_relations(text)[1] if not rhs]


def random_word(rng: random.Random, letters: str, length: int) -> tuple:
    return tuple(rng.choice(letters) for _ in range(length))


def word_pair(rng: random.Random, letters: str, rels: list[tuple], length: int, equal: bool):
    """(w1, w2) equal by inserting a relator, or unequal by appending a letter."""
    w1 = random_word(rng, letters, length)
    if not equal:
        return w1, w1 + (rng.choice(letters),)
    pos = rng.randrange(length + 1)
    return w1, w1[:pos] + rng.choice(rels) + w1[pos:]


# ---------------------------------------------------------------------------
# naive rewriting on the rules a completed system prints


def moves(w: tuple, rules: dict, forward: bool = True):
    """Every (position, rule id, exponent, consumed, produced) that applies to w."""
    found = []
    for rid, (lhs, rhs) in rules.items():
        inw, outw = (lhs, rhs) if forward else (rhs, lhs)
        for pos in range(len(w) - len(inw) + 1):
            if w[pos:pos + len(inw)] == inw:
                found.append((pos, rid, 1 if forward else -1, inw, outw))
    return found


def apply_move(w: tuple, move) -> tuple[tuple, tuple]:
    pos, rid, exp, inw, outw = move
    return w[:pos] + outw + w[pos + len(inw):], (w[:pos], rid, exp, w[pos + len(inw):])


def reduce_naively(w: tuple, rules: dict) -> tuple[tuple, list]:
    """Leftmost reduction by full rescans; any strategy reaches the normal form."""
    steps = []
    while True:
        found = moves(w, rules)
        if not found:
            return w, steps
        w, step = apply_move(w, min(found, key=lambda m: m[0]))
        steps.append(step)


def random_loop(rng: random.Random, letters: str, rules: dict, walk: int, max_length: int):
    """A loop at a random base word: a walk of forward/backward steps, closed
    by reducing both ends to their common normal form.

    Backward steps never grow the word past max_length letters, which keeps a
    decomposition of the loop well under a second.
    """
    base = random_word(rng, letters, rng.randint(4, 10))
    w, steps = base, []
    for _ in range(walk):
        forward = moves(w, rules)
        backward = [m for m in moves(w, rules, forward=False)
                    if len(w) - len(m[3]) + len(m[4]) <= max_length]
        options = forward if forward and (not backward or rng.random() < 0.5) else backward
        w, step = apply_move(w, rng.choice(options))
        steps.append(step)
    _, down = reduce_naively(w, rules)
    _, base_down = reduce_naively(base, rules)
    back = [(p, rid, -exp, s) for p, rid, exp, s in reversed(base_down)]
    return base, steps + down + back


def cell_json(source: tuple, steps: list) -> dict:
    return {
        "source": text_of(source),
        "steps": [{"prefix": text_of(p), "rule": rid, "exp": exp, "suffix": text_of(s)}
                  for p, rid, exp, s in steps],
    }
