"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every criterion pins its stated tolerance (exactness or 100% rates) and
its wall-clock budget.
"""

import json
import random
import subprocess
import sys
import time
from pathlib import Path

import logrew
from logrew.core import word_from_str
from logrew.engine import (
    expand_log, normal_form, prove, reduce_logged, system_from_presentation,
)
from logrew.completion import logged_knuth_bendix
from logrew.endorewrites import delta, express, generate
import logrew.twocell as tc
from logrew.twocell import Step, TwoCell, identity
from logrew.cli import main

from helpers import (
    all_normal_forms, congruence_classes, every_branching_resolves, interchange_normalize, invert,
    random_cell, random_loop, random_word, scan_conjugacy_reduce, scan_redexes, signed_factor_sum,
    words_over,
)
from fixture_loops import SE_LOOPS, loop_cell

W = word_from_str
SE_FILE = str(Path(__file__).resolve().parent.parent / "presentations" / "se_monoid.txt")
# Directory holding the imported ``logrew`` package, so that child processes
# run the same code as this process whether it came from ``src`` or an install.
PACKAGE_ROOT = str(Path(logrew.__file__).resolve().parent.parent)


class Budget:
    def __init__(self, name, seconds):
        self.name = name
        self.seconds = seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        status = "PASS" if exc_type is None and elapsed <= self.seconds else "FAIL"
        print(f"[{status}] {self.name} ({elapsed:.2f}s / {self.seconds:.0f}s budget)")
        if exc_type is None:
            assert elapsed <= self.seconds, f"{self.name} exceeded {self.seconds}s"
        return False


def test_criterion_1_fixture_completes_without_new_rules(se_init):
    with Budget("criterion 1: fixture system is already complete", 1.0):
        result = logged_knuth_bendix(se_init)
        assert result.status == "complete"
        assert len(result.system.rules) == 6
        assert result.system.logs == {}
        assert every_branching_resolves(result.system)


def test_criterion_2_monoid_has_eight_elements(se_system):
    with Budget("criterion 2: eight normal forms", 1.0):
        cache = {}
        forms = set()
        for w in words_over(("s", "e"), 7):
            reached = all_normal_forms(w, se_system, cache)
            assert len(reached) == 1
            forms.update(reached)
        assert forms == {
            W("1"), W("e"), W("s"), W("e s"), W("s e"), W("s s"),
            W("e s e"), W("s e s"),
        }


def test_criterion_3_published_loops_verify_and_express(capsys, tmp_path):
    from logrew import parse_presentation

    with Budget("criterion 3: 26 published loops verify and express", 10.0):
        expressions = {}
        for name in SE_LOOPS:
            cell = loop_cell(name)
            cert = tmp_path / f"{name}.json"
            cert.write_text(json.dumps(tc.cell_to_json(cell)))
            assert main(["verify", SE_FILE, str(cert)]) == 0, name
            capsys.readouterr()
            assert main(["express", SE_FILE, str(cert), "--json"]) == 0, name
            expressions[name] = json.loads(capsys.readouterr().out)
        # identity residual straight from the command output
        for name, data in expressions.items():
            assert data["residual"]["steps"] == [], name
        # abelianization of each loop matches its decomposition over the
        # generator table, checked exactly through the library
        se_init = system_from_presentation(
            parse_presentation(Path(SE_FILE).read_text()))
        comp = logged_knuth_bendix(se_init)
        gens = generate(comp, se_init)
        for name in SE_LOOPS:
            cell = loop_cell(name)
            dec = express(cell, gens)
            assert dec.residual == identity(cell.source), name
            assert signed_factor_sum(dec) == tc.abelianize(cell), name


def test_criterion_4_third_loop_from_first_two(se_rules):
    with Budget("criterion 4: composite of two generators equals the third", 1.0):
        composite = TwoCell(W("s s s s e"), (
            Step(W("1"), "r2", 1, W("s e")),
            Step(W("s"), "r2", -1, W("e")),
            Step(W("s"), "r2", 1, W("e")),
            Step(W("s s"), "r3", -1, W("1")),
        ))
        third = TwoCell(W("s s s s e"), (
            Step(W("1"), "r2", 1, W("s e")),
            Step(W("s s"), "r3", -1, W("1")),
        ))
        assert tc.validate(composite, se_rules) is None
        assert tc.validate(third, se_rules) is None
        assert interchange_normalize(composite, se_rules) == interchange_normalize(third, se_rules)


def test_criterion_5_witness_soundness(se_system, se_rules):
    with Budget("criterion 5: 1000 random reduction witnesses", 5.0):
        rng = random.Random(1905)
        for _ in range(1000):
            w = random_word(rng, ("s", "e"), 12)
            cell = reduce_logged(w, se_system)
            assert tc.validate(cell, se_rules) is None
            reached = tc.target(cell, se_rules)
            assert scan_redexes(reached, se_system) == []
            witness = prove(w, normal_form(w, se_system), se_system)
            assert isinstance(witness, TwoCell)
            assert tc.validate(witness, se_rules) is None


def test_criterion_6_confluence_oracle(se_system):
    with Budget("criterion 6: exhaustive confluence to length 7", 30.0):
        cache = {}
        for w in words_over(("s", "e"), 7):
            reached = all_normal_forms(w, se_system, cache)
            assert len(reached) == 1
            assert next(iter(reached)) == normal_form(w, se_system)


def test_criterion_7_disjoint_diamonds_trivial(se_system, se_rules):
    with Budget("criterion 7: disjoint double redexes yield trivial loops", 30.0):
        checked = 0
        for w in words_over(("s", "e"), 8):
            redexes = scan_redexes(w, se_system)
            for i, (p1, r1) in enumerate(redexes):
                for p2, r2 in redexes[i + 1:]:
                    l1 = len(se_rules[r1].lhs)
                    l2 = len(se_rules[r2].lhs)
                    if not (p1 + l1 <= p2 or p2 + l2 <= p1):
                        continue
                    loop = delta(
                        w, Step(w[:p1], r1, 1, w[p1 + l1:]), Step(w[:p2], r2, 1, w[p2 + l2:]),
                        se_system,
                    )
                    assert interchange_normalize(loop, se_rules) == identity(w)
                    checked += 1
        assert checked > 0


def test_criterion_8_derived_logs_and_congruence(ab_init, ab_completion, ab_presentation):
    with Budget("criterion 8: derived logs valid, congruence matches", 10.0):
        sys_ab = ab_completion.system
        assert ab_completion.status == "complete"
        derived = [r for r in sys_ab.rules if r.rid in sys_ab.logs]
        assert derived
        for rule in derived:
            expanded = expand_log(sys_ab.logs[rule.rid], sys_ab)
            assert tc.validate(expanded, ab_init.rule_map) is None
            assert expanded.source == rule.lhs
            assert tc.target(expanded, ab_init.rule_map) == rule.rhs
            assert all(s.rule in ab_init.rule_map for s in expanded.steps)
        classes = congruence_classes(("a", "b"), ab_presentation.relations, 6)
        for u in words_over(("a", "b"), 6):
            for v in words_over(("a", "b"), 6):
                assert (normal_form(u, sys_ab) == normal_form(v, sys_ab)) == (
                    classes[u] == classes[v])


def test_criterion_9_invariance_suite(se_system, se_rules):
    with Budget("criterion 9: abelianization and conjugacy invariance", 10.0):
        rng = random.Random(230722)
        for _ in range(200):
            base = random_word(rng, ("s", "e"), 7, min_len=1)
            cell = random_cell(rng, se_system, base, rng.randint(0, 5))
            assert tc.abelianize(tc.free_reduce(cell)) == tc.abelianize(cell)
        for _ in range(200):
            base = random_word(rng, ("s", "e"), 7, min_len=1)
            cell = random_cell(rng, se_system, base, rng.randint(0, 5))
            assert tc.abelianize(interchange_normalize(cell, se_rules)) == tc.abelianize(cell)
        for _ in range(200):
            base = random_word(rng, ("s", "e"), 7, min_len=1)
            loop = random_loop(rng, se_system, base, rng.randint(0, 4))
            beta = random_cell(rng, se_system, base, rng.randint(0, 4))
            conjugated = tc.compose_all(
                [invert(beta, se_rules), loop, beta], se_rules)
            assert tc.abelianize(conjugated) == tc.abelianize(loop)
        for _ in range(200):
            base = random_word(rng, ("s", "e"), 7, min_len=1)
            gamma = random_loop(rng, se_system, base, rng.randint(0, 4))
            beta = random_cell(rng, se_system, base, rng.randint(0, 4))
            conjugated = tc.compose_all(
                [invert(beta, se_rules), gamma, beta], se_rules)
            assert (scan_conjugacy_reduce(conjugated, se_system)
                    == scan_conjugacy_reduce(gamma, se_system))


def test_criterion_10_determinism(tmp_path):
    with Budget("criterion 10: byte-identical JSON across runs", 60.0):
        cert = tmp_path / "loop.json"
        cert.write_text(json.dumps(tc.cell_to_json(loop_cell("ese_3"))))
        commands = [
            ["complete", SE_FILE, "--json"],
            ["nf", SE_FILE, "s s s e"],
            ["endos", SE_FILE, "--json"],
            ["express", SE_FILE, str(cert), "--json"],
            ["prove", SE_FILE, "s s s e", "s e", "--json"],
        ]
        outputs = []
        for seed in ("0", "1"):
            run_bytes = []
            for command in commands:
                proc = subprocess.run(
                    [sys.executable, "-m", "logrew.cli", *command],
                    capture_output=True,
                    env={"PYTHONHASHSEED": seed, "PATH": "/usr/bin:/bin",
                         "PYTHONPATH": PACKAGE_ROOT},
                )
                assert proc.returncode == 0, (
                    f"PYTHONHASHSEED={seed} logrew.cli {' '.join(command)} "
                    f"exited {proc.returncode}:\n"
                    f"{proc.stderr.decode(errors='replace')}")
                run_bytes.append(proc.stdout)
            outputs.append(run_bytes)
        assert outputs[0] == outputs[1]
