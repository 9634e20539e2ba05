"""Golden outputs: exit code and stdout hash of every CLI command, frozen.

Each command runs in-process through ``logrew.cli.main`` on every file in
``presentations/``, in text form and with ``--json`` (``escaped_letters``
names letters that JSON must escape: non-ASCII, a quote, backslashes),
plus ``express`` on
the published loops of the s/e monoid and on seeded random loops over
A5, S4 and MERGING, whose generator sets ``endos`` prints too.
``complete --json`` runs on the groups of the benchmark ladder and on
PSL(2,7), ``reduce --json`` on one seeded 512-letter word of S5 and
``prove --json`` of another with a relator inserted: their left-hand
sides are long, so redexes overlap and the reduction strategy's
tie-breaks decide the logs there.  ``prove`` also runs on an ab_monoid
pair whose reductions end alike, so that its certificate drops their
shared tail.
The expected exit codes and sha256 digests of stdout live in
``tests/golden.json``; a refactor must leave every one of them unchanged.

Record the file afresh (only when an output is meant to change) with

    PYTHONPATH=src python tests/test_golden.py --record

which names each case whose outcome changed and counts the rest.
"""

import contextlib
import hashlib
import io
import json
import random
import sys
from pathlib import Path

import pytest

from logrew import parse_presentation, system_from_presentation
from logrew.cli import main
from logrew.completion import logged_knuth_bendix
import logrew.twocell as tc

from fixture_loops import SE_LOOPS, loop_cell
from helpers import A5, LADDER, MERGING, S4, random_loop, random_word, relator_pair
from test_groups import PSL27

PRESENTATIONS = Path(__file__).resolve().parent.parent / "presentations"
GOLDEN = Path(__file__).resolve().parent / "golden.json"

# per presentation: a word to reduce, an equal pair, an unequal pair
WORDS = {
    "ab_monoid": ("b a a b a b b", ("a b b a", "a"), ("a", "b")),
    "escaped_letters": ('b"q c\\\\ aα aα b"q', ('aα aα b"q b"q', "c\\\\"), ("aα", 'b"q')),
    "abc_cyclic": ("a b c a b c b", ("a b c", "c c"), ("a", "b")),
    "free_monoid": ("x y x", ("x y", "x y"), ("x", "y")),
    "int_monoid": ("a b b a a b", ("a a b", "a"), ("a", "1")),
    "se_monoid": ("s s s e s e s e", ("s s s e", "s e"), ("s", "e")),
}


def presentation_cases(name: str) -> dict[str, list[str]]:
    """Case name -> argv for every command on one presentation file."""
    path = str(PRESENTATIONS / f"{name}.txt")
    word, equal, unequal = WORDS[name]
    commands = {
        "complete": ["complete", path],
        "complete-limit": ["complete", path, "--limits", "3,64"],
        "nf": ["nf", path, word],
        "reduce": ["reduce", path, word],
        "reduce-expand": ["reduce", path, word, "--expand"],
        "prove": ["prove", path, *equal],
        "prove-expand": ["prove", path, *equal, "--expand"],
        "prove-unequal": ["prove", path, *unequal],
        "endos": ["endos", path],
        "endos-minimize": ["endos", path, "--minimize"],
    }
    cases = {}
    for label, argv in commands.items():
        cases[f"{name}:{label}"] = argv
        cases[f"{name}:{label}:json"] = argv + ["--json"]
    return cases


def express_cases(workdir: Path) -> dict[str, list[str]]:
    """Case name -> argv for ``express`` on each published s/e loop."""
    path = str(PRESENTATIONS / "se_monoid.txt")
    cases = {}
    for loop in SE_LOOPS:
        cellfile = workdir / f"{loop}.json"
        cellfile.write_text(json.dumps(tc.cell_to_json(loop_cell(loop))))
        cases[f"se_monoid:express:{loop}"] = ["express", path, str(cellfile)]
        cases[f"se_monoid:express:{loop}:json"] = ["express", path, str(cellfile), "--json"]
    return cases


# Seeds of random loops whose decompositions, between them, resolve
# branchings at an internal peak and at the base of the loop, on disjoint
# and on overlapping redexes, met in record order and reversed: all eight
# combinations on each group.  On MERGING the seeds resolve branchings
# whose generator is another branching's loop, at a peak and at the base,
# in record order and reversed.
GROUP_LOOPS = {
    "A5": (A5, (197, 325, 1446)),
    "S4": (S4, (120, 204, 851)),
    "MERGING": (MERGING, (5, 33, 665)),
}


def group_loop(text: str, seed: int) -> tc.TwoCell:
    """The seeded random loop on a random word of at most 5 letters."""
    presentation = parse_presentation(text)
    sys = logged_knuth_bendix(system_from_presentation(presentation)).system
    rng = random.Random(seed)
    base = random_word(rng, presentation.alphabet.letters, 5, min_len=1)
    return random_loop(rng, sys, base, rng.randint(1, 6))


def group_endos_cases(workdir: Path) -> dict[str, list[str]]:
    """Case name -> argv for ``endos`` on each presentation of GROUP_LOOPS."""
    cases = {}
    for name, (text, _) in GROUP_LOOPS.items():
        path = workdir / f"{name}.txt"
        path.write_text(text)
        cases[f"{name}:endos"] = ["endos", str(path)]
        cases[f"{name}:endos:json"] = ["endos", str(path), "--json"]
    return cases


def group_express_cases(workdir: Path) -> dict[str, list[str]]:
    """Case name -> argv for ``express`` on the seeded loops of GROUP_LOOPS."""
    cases = {}
    for name, (text, seeds) in GROUP_LOOPS.items():
        path = workdir / f"{name}.txt"
        path.write_text(text)
        for seed in seeds:
            cellfile = workdir / f"{name}-{seed}.json"
            cellfile.write_text(json.dumps(tc.cell_to_json(group_loop(text, seed))))
            cases[f"{name}:express:seed{seed}"] = ["express", str(path), str(cellfile)]
            cases[f"{name}:express:seed{seed}:json"] = ["express", str(path), str(cellfile), "--json"]
    return cases


def long_lhs_cases(workdir: Path) -> dict[str, list[str]]:
    """Case name -> argv for ``complete --json`` on the ladder groups and
    PSL(2,7), ``reduce --json`` on a seeded 512-letter word of S5, and
    ``prove --json`` of another with one of S5's relators inserted."""
    cases = {}
    for name, text in {**{n: t for n, (t, _) in LADDER.items()}, "PSL27": PSL27}.items():
        path = workdir / f"{name}.txt"
        path.write_text(text)
        cases[f"{name}:complete:json"] = ["complete", str(path), "--json"]
    word = random_word(random.Random(512), tuple("abcd"), 512, min_len=512)
    cases["S5:reduce-512:json"] = ["reduce", str(workdir / "S5.txt"), " ".join(word), "--json"]
    pair = relator_pair(random.Random(513), LADDER["S5"][0], 512)
    cases["S5:prove-512:json"] = ["prove", str(workdir / "S5.txt"), *map(" ".join, pair), "--json"]
    return cases


# an equal pair whose reductions end alike: b a b b a b takes 5 steps to b
# and b b b a b takes the last 4 of them, so prove prints the one step left
SHARED_TAIL = ("b a b b a b", "b b b a b")


def shared_tail_cases() -> dict[str, list[str]]:
    """Case name -> argv for ``prove`` of SHARED_TAIL on ab_monoid."""
    argv = ["prove", str(PRESENTATIONS / "ab_monoid.txt"), *SHARED_TAIL]
    return {"ab_monoid:prove-shared-tail": argv,
            "ab_monoid:prove-shared-tail:json": argv + ["--json"],
            "ab_monoid:prove-shared-tail-expand:json": argv + ["--expand", "--json"]}


def outcome(argv: list[str]) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return {"exit": code, "stdout_sha256": hashlib.sha256(out.getvalue().encode()).hexdigest()}


def presentation_names() -> list[str]:
    return sorted(p.stem for p in PRESENTATIONS.glob("*.txt"))


def check(cases: dict[str, list[str]]) -> None:
    golden = json.loads(GOLDEN.read_text())
    changed = [name for name, argv in cases.items() if outcome(argv) != golden.get(name)]
    assert not changed, f"outputs differ from tests/golden.json: {changed}"


@pytest.mark.parametrize("name", presentation_names())
def test_golden_presentation(name):
    check(presentation_cases(name))


def test_golden_express_published_loops(tmp_path):
    check(express_cases(tmp_path))


def test_golden_express_group_loops(tmp_path):
    check(group_express_cases(tmp_path))


def test_golden_endos_groups(tmp_path):
    check(group_endos_cases(tmp_path))


def test_golden_long_lhs(tmp_path):
    check(long_lhs_cases(tmp_path))


def test_golden_shared_tail():
    check(shared_tail_cases())


def record() -> None:
    import tempfile

    cases = {}
    for name in presentation_names():
        cases.update(presentation_cases(name))
    with tempfile.TemporaryDirectory() as workdir:
        cases.update(express_cases(Path(workdir)))
        cases.update(group_express_cases(Path(workdir)))
        cases.update(group_endos_cases(Path(workdir)))
        cases.update(long_lhs_cases(Path(workdir)))
        cases.update(shared_tail_cases())
        golden = {name: outcome(argv) for name, argv in sorted(cases.items())}
    before = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    changed = [name for name in golden if before.get(name) != golden[name]]
    for name in changed:
        print(f"changed: {name}")
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(golden)} cases in {GOLDEN}: {len(changed)} changed, "
          f"{len(golden) - len(changed)} unchanged")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        raise SystemExit("usage: python tests/test_golden.py --record")
    record()
