"""Output checks written without the library: replay, expansion, normal forms.

Each check returns None when the output is right, else a one-line reason.
Cells are checked from the JSON the program prints, so a third party with
only the presentation could run the same code.
"""

from __future__ import annotations

from .inputs import word


def steps_of(cell: dict) -> list[tuple]:
    return [(word(s["prefix"]), s["rule"], int(s["exp"]), word(s["suffix"])) for s in cell["steps"]]


def replay(source: tuple, steps: list[tuple], rules: dict) -> tuple:
    """Target of the steps from source; each step's prefix + lhs/rhs + suffix
    must equal the current word.  Raises ValueError where one does not."""
    current = source
    for n, (prefix, rid, exp, suffix) in enumerate(steps):
        if rid not in rules:
            raise ValueError(f"step {n} cites unknown rule {rid}")
        lhs, rhs = rules[rid]
        inw, outw = (lhs, rhs) if exp == 1 else (rhs, lhs)
        if prefix + inw + suffix != current:
            raise ValueError(f"step {n} does not stand on the current word")
        current = prefix + outw + suffix
    return current


def invert(steps: list[tuple]) -> list[tuple]:
    return [(p, rid, -exp, s) for p, rid, exp, s in reversed(steps)]


def free_reduce(steps: list[tuple]) -> list[tuple]:
    out: list[tuple] = []
    for p, rid, exp, s in steps:
        if out and out[-1] == (p, rid, -exp, s):
            out.pop()
        else:
            out.append((p, rid, exp, s))
    return out


def system_rules(system: dict) -> dict:
    return {r["id"]: (word(r["lhs"]), word(r["rhs"])) for r in system["rules"]}


def expanded_logs(system: dict, initial: set) -> dict:
    """Every derived rule's log with derived steps replaced by their own
    expanded logs, whiskered and inverted as the step says."""
    logs = {r["id"]: r["log"] for r in system["rules"] if r["id"] not in initial}
    expanded: dict[str, list] = {}

    def expand(rid: str, open_: frozenset) -> list:
        if rid not in expanded:
            if rid in open_ or rid not in logs:
                raise ValueError(f"log of {rid} cannot be expanded")
            steps = []
            for prefix, cited, exp, suffix in steps_of(logs[rid]):
                if cited in initial:
                    steps.append((prefix, cited, exp, suffix))
                    continue
                inner = expand(cited, open_ | {rid})
                inner = inner if exp == 1 else invert(inner)
                steps.extend((prefix + p, r, e, s + suffix) for p, r, e, s in inner)
            expanded[rid] = steps
        return expanded[rid]

    for rid in logs:
        expand(rid, frozenset())
    return expanded


def count_irreducible(rules: dict, letters: str, limit: int) -> int:
    """Number of words containing no left-hand side, counted up to limit + 1.

    Irreducible words are prefix closed, so extending irreducible words one
    letter at a time and testing only suffixes finds them all.
    """
    lhs_set = {lhs for lhs, _ in rules.values()}
    longest = max(len(lhs) for lhs in lhs_set)
    layer, count = [()], 1
    while layer and count <= limit:
        nxt = []
        for w in layer:
            for x in letters:
                v = w + (x,)
                if not any(v[len(v) - k:] in lhs_set for k in range(1, min(longest, len(v)) + 1)):
                    nxt.append(v)
        count += len(nxt)
        layer = nxt
    return count


def check_system(system: dict, initial_rules: dict, letters: str, order: int) -> str | None:
    """A completed system: status complete, every derived log replays from
    lhs to rhs on the initial rules only, and as many normal forms as the
    group has elements."""
    if system.get("status") != "complete":
        return f"status {system.get('status')!r}"
    rules = system_rules(system)
    for rid, rule in initial_rules.items():
        if rules.get(rid) != rule:
            return f"initial rule {rid} changed"
    try:
        for rid, steps in expanded_logs(system, set(initial_rules)).items():
            lhs, rhs = rules[rid]
            if replay(lhs, steps, initial_rules) != rhs:
                return f"log of {rid} does not end at its rhs"
    except ValueError as err:
        return str(err)
    found = count_irreducible(rules, letters, order)
    if found != order:
        return f"{found} normal forms, expected {order}"
    return None


def check_certificate(cert: dict, w1: tuple, w2: tuple, initial_rules: dict) -> str | None:
    """A certificate for w1 = w2 that replays on the initial rules only."""
    if word(cert["source"]) != w1:
        return "certificate starts elsewhere"
    try:
        reached = replay(w1, steps_of(cert), initial_rules)
    except ValueError as err:
        return str(err)
    if reached != w2 or word(cert.get("target", cert["source"])) != w2:
        return "certificate ends elsewhere"
    return None


def check_loop(cell: dict, rules: dict) -> str | None:
    source = word(cell["source"])
    try:
        if replay(source, steps_of(cell), rules) != source:
            return "cell is not a loop"
    except ValueError as err:
        return str(err)
    return None


def check_decomposition(data: dict, base: tuple, base_words: dict, rules: dict) -> str | None:
    """An `express` output for a loop at base.

    The residual is the identity, and every factor's conjugator replays
    from the base to the apex of the diamond it names: x + the generator's
    base word + z, or for a trivial factor x + a word that starts and ends
    with a left-hand side + z.  base_words maps generator id to base word,
    as `endos --json` prints them.
    """
    if word(data["base"]) != base or data["residual"]["steps"]:
        return "residual is not the identity"
    lhs_set = {lhs for lhs, _ in rules.values()}
    for n, factor in enumerate(data["factors"]):
        conj, gen = factor["conjugator"], factor["gen"]
        x, z = word(factor["x"]), word(factor["z"])
        if word(conj["source"]) != base:
            return f"factor {n}: conjugator does not start at the base"
        try:
            apex = replay(base, steps_of(conj), rules)
        except ValueError as err:
            return f"factor {n}: conjugator: {err}"
        if factor["exp"] not in (1, -1):
            return f"factor {n}: exponent {factor['exp']}"
        if len(apex) < len(x) + len(z) or apex[:len(x)] != x or apex[len(apex) - len(z):] != z:
            return f"factor {n}: conjugator does not end at x ... z"
        middle = apex[len(x):len(apex) - len(z)]
        if gen == "trivial":
            if not any(middle[:len(a)] == a for a in lhs_set) or \
                    not any(middle[len(middle) - len(b):] == b for b in lhs_set):
                return f"factor {n}: trivial diamond without redexes at both ends"
        elif gen not in base_words:
            return f"factor {n}: {gen} names no generator"
        elif middle != base_words[gen]:
            return f"factor {n}: conjugator does not end at the base word of {gen}"
    return None


def normal_form(w: tuple, rules: dict) -> tuple:
    """Normal form by a left-to-right stack; only suffixes of the stack can
    hold a new redex, and a complete system has one normal form per word."""
    by_length: dict[int, dict] = {}
    for lhs, rhs in rules.values():
        by_length.setdefault(len(lhs), {})[lhs] = rhs
    lengths = sorted(by_length)
    stack: list[str] = []
    pending = list(reversed(w))
    while pending:
        stack.append(pending.pop())
        for k in lengths:
            if k <= len(stack):
                rhs = by_length[k].get(tuple(stack[len(stack) - k:]))
                if rhs is not None:
                    del stack[len(stack) - k:]
                    pending.extend(reversed(rhs))
                    break
    return tuple(stack)
