"""Alphabets, words, the shortlex well-ordering, and presentation files.

Words are plain tuples of generator names.  The empty tuple is the monoid
identity and prints as ``1``.  Precedence comes from declaration order in
the alphabet, earliest declared = greatest.
"""

from __future__ import annotations

from typing import NamedTuple

Word = tuple[str, ...]

EMPTY: Word = ()


class ParseError(ValueError):
    """Syntax or lookup error in a presentation file, with a location."""

    def __init__(self, message, line=None, column=None):
        self.line = line
        self.column = column
        where = ""
        if line is not None:
            where = f" (line {line}" + (f", column {column}" if column is not None else "") + ")"
        super().__init__(message + where)


def word_to_str(w: Word) -> str:
    return " ".join(w) if w else "1"


def word_from_str(text: str, alphabet: "Alphabet | None" = None) -> Word:
    """Parse a space-separated word; ``1`` denotes the empty word."""
    tokens = text.split()
    if tokens == ["1"]:
        return EMPTY
    if alphabet is not None:
        for t in tokens:
            if t not in alphabet:
                raise ParseError(f"unknown letter {t!r}")
    return tuple(tokens)


class Alphabet:
    """Ordered generator names; position gives precedence (first = greatest)."""

    __slots__ = ("letters", "_rank")

    def __init__(self, letters: tuple[str, ...]):
        if len(set(letters)) != len(letters):
            raise ValueError(f"duplicate letters in alphabet {letters}")
        self.letters = letters
        self._rank = {x: i for i, x in enumerate(letters)}

    def __repr__(self) -> str:
        return f"Alphabet(letters={self.letters!r})"

    def __eq__(self, other):
        return self.letters == other.letters if type(other) is Alphabet else NotImplemented

    def __hash__(self) -> int:
        return hash((self.letters,))

    def __contains__(self, letter: str) -> bool:
        return letter in self._rank

    def rank(self, letter: str) -> int:
        """Precedence rank, 0 = greatest letter."""
        try:
            return self._rank[letter]
        except KeyError:
            raise ValueError(f"letter {letter!r} not in alphabet") from None

    def check_word(self, w: Word) -> Word:
        for letter in w:
            self.rank(letter)
        return w


class OrderSpec(NamedTuple):
    """The shortlex well-ordering on words over an alphabet."""

    alphabet: Alphabet

    def key(self, w: Word) -> tuple[int, tuple[int, ...]]:
        """Sort key putting greater words first: longer first, then by the
        first differing letter, earlier declared first.  ``(len(w), key(w))``
        sorts by length ascending, then greatest word first in a length."""
        return -len(w), tuple(map(self.alphabet.rank, w))

    def greater(self, a: Word, b: Word) -> bool:
        return self.key(a) < self.key(b)


class Rule(NamedTuple):
    """An oriented relation lhs -> rhs with a stable identifier."""

    rid: str
    lhs: Word
    rhs: Word


class Presentation(NamedTuple):
    alphabet: Alphabet
    relations: tuple[tuple[Word, Word], ...]
    order: OrderSpec


def parse_presentation(text: str) -> Presentation:
    """Parse the line-oriented presentation format.

    Grammar: a ``monoid`` header, a ``letters:`` line (greatest precedence
    first), an ``order: shortlex`` line, then ``rules:`` followed by one
    ``<word> = <word>`` relation per line.  ``#`` starts a comment, ``1``
    is the empty word, so no letter is named ``1`` or contains ``=``.
    """
    lines = []
    for number, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0].strip()
        if stripped:
            lines.append((number, stripped))

    def take(expect: str) -> tuple[int, str]:
        if not lines:
            raise ParseError(f"unexpected end of file, expected {expect!r}")
        return lines.pop(0)

    number, head = take("monoid")
    if head != "monoid":
        raise ParseError(f"expected 'monoid' header, found {head!r}", line=number)

    number, letters_line = take("letters:")
    if not letters_line.startswith("letters:"):
        raise ParseError("expected 'letters:' declaration", line=number)
    names = letters_line[len("letters:"):].split()
    if not names:
        raise ParseError("empty letter declaration", line=number)
    seen = set()
    for column, name in enumerate(names, start=1):
        if name == "1" or "=" in name:
            raise ParseError(f"reserved letter name {name!r}", line=number, column=column)
        if name in seen:
            raise ParseError(f"duplicate letter {name!r}", line=number, column=column)
        seen.add(name)
    alphabet = Alphabet(tuple(names))

    number, order_line = take("order:")
    if not order_line.startswith("order:"):
        raise ParseError("expected 'order:' declaration", line=number)
    kind = order_line[len("order:"):].strip()
    if kind != "shortlex":
        raise ParseError(f"unsupported order {kind!r}", line=number)
    order = OrderSpec(alphabet)

    number, rules_head = take("rules:")
    if rules_head != "rules:":
        raise ParseError("expected 'rules:' section", line=number)

    relations = []
    for number, line in lines:
        if "=" not in line:
            raise ParseError("relation must be '<word> = <word>'", line=number)
        left_text, right_text = line.split("=", 1)
        try:
            left = word_from_str(left_text, alphabet)
            right = word_from_str(right_text, alphabet)
        except ParseError as err:
            raise ParseError(str(err), line=number) from None
        relations.append((left, right))

    return Presentation(alphabet, tuple(relations), order)


def orient(p: Presentation) -> tuple[Rule, ...]:
    """Orient each relation so lhs > rhs; trivial relations are dropped."""
    rules = []
    for a, b in p.relations:
        if a == b:
            import logging  # only here, so a cold start that logs nothing never loads it
            logging.getLogger(__name__).warning(
                "dropping trivial relation %s = %s", word_to_str(a), word_to_str(b))
            continue
        lhs, rhs = (a, b) if p.order.greater(a, b) else (b, a)
        rules.append(Rule(f"r{len(rules) + 1}", lhs, rhs))
    return tuple(rules)
