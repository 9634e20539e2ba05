"""Two-cells: logged rewrite sequences with groupoid and whiskering algebra.

A step applies one rule inside a context, ``prefix . rule^exp . suffix``;
it is a named tuple, so it compares and hashes as its four fields.  A
two-cell is a source word plus a chain of steps; each step must stand on
the word produced by the previous one.  Cells are kept as explicit step
sequences, never as classes up to the interchange law.
``join`` multiplies two free-reduced step sequences, cancelling only at
the junction, where alone a product of reduced pieces can cancel.
"""

from __future__ import annotations

from collections import namedtuple

from .core import Rule, Word, word_from_str, word_to_str


class ChainError(ValueError):
    """A step sequence that does not replay, or mismatched endpoints."""

    def __init__(self, message, index=None):
        self.index = index
        super().__init__(message if index is None else f"{message} (step {index})")


# The builders below that make steps from steps or from JSON call
# tuple.__new__(Step, fields): the same Step, without the Python frame of
# namedtuple's __new__, which costs more than the tuple itself.
Step = namedtuple("Step", "prefix rule exp suffix")
TwoCell = namedtuple("TwoCell", "source steps")


def identity(w: Word) -> TwoCell:
    return TwoCell(w, ())


def step_io(step: Step, rules: dict[str, Rule]) -> tuple[Word, Word]:
    """Consumed and produced factor of a step (lhs/rhs swapped by exponent)."""
    rule = rules[step.rule]
    if step.exp == 1:
        return rule.lhs, rule.rhs
    if step.exp == -1:
        return rule.rhs, rule.lhs
    raise ValueError(f"step exponent must be +1 or -1, got {step.exp}")


def invert_step(step: Step) -> Step:
    return tuple.__new__(Step, (step.prefix, step.rule, -step.exp, step.suffix))


def target(cell: TwoCell, rules: dict[str, Rule]) -> Word:
    """Replay all steps from the source; raises ChainError if a step misaligns."""
    word = cell.source
    for i, step in enumerate(cell.steps):
        try:
            consumed, produced = step_io(step, rules)
        except KeyError:
            raise ChainError(f"unknown rule {step.rule!r}", index=i) from None
        prefix, _, _, suffix = step
        expected = prefix + consumed + suffix
        if word != expected:
            raise ChainError(
                f"step expects {word_to_str(expected)} but stands on {word_to_str(word)}",
                index=i,
            )
        word = prefix + produced + suffix
    return word


def validate(cell: TwoCell, rules: dict[str, Rule]) -> int | None:
    """Index of the first failing step, or None when the cell replays."""
    try:
        target(cell, rules)
    except ChainError as err:
        return err.index if err.index is not None else 0
    return None


def invert_steps(steps: tuple[Step, ...]) -> tuple[Step, ...]:
    """The steps reversed, each inverted: inversion without the replay."""
    return tuple([tuple.__new__(Step, (prefix, rule, -exp, suffix))
                  for prefix, rule, exp, suffix in reversed(steps)])


def whisker(u: Word, cell: TwoCell, v: Word) -> TwoCell:
    if not u and not v:
        return cell
    return TwoCell(
        u + cell.source + v,
        tuple([tuple.__new__(Step, (u + prefix, rule, exp, suffix + v))
               for prefix, rule, exp, suffix in cell.steps]),
    )


def free_reduce(cell: TwoCell) -> TwoCell:
    """Cancel adjacent step pairs that differ only in exponent sign."""
    stack: list[Step] = []
    for step in cell.steps:
        if stack and stack[-1] == invert_step(step):
            stack.pop()
        else:
            stack.append(step)
    return TwoCell(cell.source, tuple(stack))


def join(a: tuple[Step, ...], b: tuple[Step, ...]) -> tuple[Step, ...]:
    """The steps of ``free_reduce`` of a then b, for free-reduced a and b:
    the last steps of a cancel against the first of b, and nothing else."""
    n, most = 0, min(len(a), len(b))
    while n < most and a[-1 - n] == ((t := b[n])[0], t[1], -t[2], t[3]):  # invert_step(t), uncalled
        n += 1
    return a[:len(a) - n] + b[n:]


def abelianize(cell: TwoCell) -> dict[str, int]:
    """Signed rule-use counts, forgetting contexts and step order."""
    counts: dict[str, int] = {}
    for step in cell.steps:
        counts[step.rule] = counts.get(step.rule, 0) + step.exp
    return {rid: n for rid, n in sorted(counts.items()) if n != 0}


def render(cell: TwoCell) -> str:
    """One-line form: ``prefix rule^-1 suffix`` per step, joined by `` . ``; ``1`` if none."""
    parts = []
    for s in cell.steps:
        sign = "" if s.exp == 1 else "^-1"
        prefix = word_to_str(s.prefix) + " " if s.prefix else ""
        suffix = " " + word_to_str(s.suffix) if s.suffix else ""
        parts.append(f"{prefix}{s.rule}{sign}{suffix}")
    return " . ".join(parts) if parts else "1"


def cell_to_json(cell: TwoCell) -> dict:
    return {
        "source": word_to_str(cell.source),
        "steps": [
            {"prefix": word_to_str(prefix), "rule": rule, "exp": exp, "suffix": word_to_str(suffix)}
            for prefix, rule, exp, suffix in cell.steps
        ],
    }


def cell_from_json(data: dict) -> TwoCell:
    steps = []
    for s in data.get("steps", ()):
        exp = s["exp"]
        if type(exp) is not int or exp not in (1, -1):  # JSON 1 or -1: not true, 1.0, "1"
            raise ValueError(f"step exponent must be 1 or -1, got {exp!r}")
        steps.append(tuple.__new__(Step, (
            word_from_str(s["prefix"]),
            str(s["rule"]),
            exp,
            word_from_str(s["suffix"]),
        )))
    return TwoCell(word_from_str(data["source"]), tuple(steps))
