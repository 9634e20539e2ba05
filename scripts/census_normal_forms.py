#!/usr/bin/env python3
"""Enumerate the monoid presented by a file, up to a word-length bound.

Completes the presentation, then lists the distinct normal forms of all
words up to the bound together with how many words reduce to each.
"""

import argparse
from collections import Counter
from itertools import product
from pathlib import Path

from logrew import parse_presentation, system_from_presentation, word_to_str
from logrew.completion import CompletionLimits, logged_knuth_bendix
from logrew.engine import normal_form

DEFAULT = Path(__file__).resolve().parent.parent / "presentations" / "se_monoid.txt"


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("presentation", nargs="?", default=str(DEFAULT))
    parser.add_argument("--max-length", type=int, default=7)
    args = parser.parse_args()

    presentation = parse_presentation(Path(args.presentation).read_text(encoding="utf-8"))
    init = system_from_presentation(presentation)
    result = logged_knuth_bendix(init, CompletionLimits())
    if result.status != "complete":
        print("completion hit a limit; the census would not be canonical")
        return
    sys = result.system

    census = Counter()
    letters = presentation.alphabet.letters
    for n in range(args.max_length + 1):
        for word in product(letters, repeat=n):
            census[normal_form(word, sys)] += 1

    print(f"{len(census)} distinct elements among words of length <= {args.max_length}")
    for form, count in sorted(census.items(), key=lambda it: (len(it[0]), it[0])):
        print(f"  {word_to_str(form):<{args.max_length * 2}}  <- {count} words")


if __name__ == "__main__":
    main()
