"""Listed/active rules and resolves of the two reference completions,
``helpers.filter_knuth_bendix`` (FIFO, pass by pass) and
``helpers.heap_knuth_bendix`` (shortest superposition first), on the ladder,
H4 and E6: a preview of heap-order completion, kept out of the test suite.

Run from the repository root:  PYTHONPATH=src python tests/compare_heap_order.py
"""

import helpers  # found beside this script, which Python puts first on the path
from logrew import parse_presentation, system_from_presentation


def run(complete, init):
    """The result of a reference completion and the number of its ``resolve`` calls."""
    resolve, calls = helpers.resolve, []

    def counted(overlap, sys):
        calls.append(overlap)
        return resolve(overlap, sys)

    helpers.resolve = counted
    try:
        return complete(init), len(calls)
    finally:
        helpers.resolve = resolve


def main():
    print("| group | FIFO listed/active | heap listed/active | resolves FIFO -> heap |")
    print("|---|---|---|---|")
    for name, (text, _) in {**helpers.LADDER, **helpers.SCALE_GROUPS}.items():
        init = system_from_presentation(parse_presentation(text))
        cells = []
        for complete in (helpers.filter_knuth_bendix, helpers.heap_knuth_bendix):
            result, resolves = run(complete, init)
            sys = result.system
            cells.append((f"{len(sys.rules)}/{len(sys.rules) - len(sys.retired)}", resolves))
        (fifo, fifo_resolves), (heap, heap_resolves) = cells
        print(f"| {name} | {fifo} | {heap} | {fifo_resolves:,} -> {heap_resolves:,} |")


if __name__ == "__main__":
    main()
