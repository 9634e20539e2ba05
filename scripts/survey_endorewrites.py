#!/usr/bin/env python3
"""Complete a presentation and survey its generating endorewrites.

Prints the (completed) rule system, the generator loops grouped by the
monoid element of their base word, and a decomposition of one sample
loop back over the generators.
"""

import argparse
from pathlib import Path

from logrew import parse_presentation, system_from_presentation, word_to_str
from logrew.completion import CompletionLimits, logged_knuth_bendix
from logrew.endorewrites import express, generate
import logrew.twocell as tc

DEFAULT = Path(__file__).resolve().parent.parent / "presentations" / "se_monoid.txt"


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("presentation", nargs="?", default=str(DEFAULT))
    parser.add_argument("--max-rules", type=int, default=256)
    args = parser.parse_args()

    presentation = parse_presentation(Path(args.presentation).read_text())
    init = system_from_presentation(presentation)
    result = logged_knuth_bendix(init, CompletionLimits(max_rules=args.max_rules))
    print(f"completion: {result.status}, {len(result.system.rules)} rules")
    for rule in result.system.rules:
        tag = "   [derived]" if rule.rid in result.system.logs else ""
        print(f"  {rule.rid}: {word_to_str(rule.lhs)} -> {word_to_str(rule.rhs)}{tag}")
    if result.status != "complete":
        print(f"pending pairs: {len(result.pending)}; raise --max-rules to continue")
        return

    gens = generate(result)
    print(f"\n{len(gens.generators)} generating endorewrites")
    current = None
    for gen in gens.generators:
        element = word_to_str(gen.base_element)
        if element != current:
            print(f"\nEndorewrites of {element}:")
            current = element
        print(f"  {gen.gid} on {word_to_str(gen.cell.source)}: {tc.render(gen.cell)}")

    if gens.generators:
        sample = gens.generators[-1]
        dec = express(sample.cell, gens)
        print(f"\nsample decomposition of {sample.gid}:")
        for factor in dec.factors:
            name = factor.gen or "trivial"
            print(f"  {name}^{factor.exp} whiskered"
                  f" [{word_to_str(factor.x)}] _ [{word_to_str(factor.z)}]")
        print(f"  residual: {tc.render(dec.residual)}")
        print(f"  abelianization check: {tc.abelianize(sample.cell)}")


if __name__ == "__main__":
    main()
