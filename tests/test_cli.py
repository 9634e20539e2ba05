"""Command line behavior: exit codes, JSON round trips, renderings."""

import contextlib
import io
import itertools
import json
import os
import re
import subprocess
import sys
from pathlib import Path

from hypothesis import given, settings
import hypothesis.strategies as st
import pytest

import logrew
from logrew import cli, parse_presentation, system_from_presentation
from logrew.cli import main, write_json
from logrew.completion import logged_knuth_bendix, system_from_json
import logrew.twocell as tc

from fixture_loops import SE_LOOPS, loop_cell
from helpers import A5, S4

PRESENTATIONS = Path(__file__).resolve().parent.parent / "presentations"
SE = str(PRESENTATIONS / "se_monoid.txt")
AB = str(PRESENTATIONS / "ab_monoid.txt")
FREE = str(PRESENTATIONS / "free_monoid.txt")
# the minimal environment of the cold runs, as in acceptance criterion 10
CHILD_ENV = {"PATH": "/usr/bin:/bin",
             "PYTHONPATH": str(Path(logrew.__file__).resolve().parent.parent)}


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_cold(*argv):
    """``python -m logrew.cli argv`` in a fresh interpreter, whose logging
    is the command line's own and not pytest's capture."""
    proc = subprocess.run([sys.executable, "-m", "logrew.cli", *argv],
                          capture_output=True, text=True, env=CHILD_ENV)
    return proc.returncode, proc.stdout, proc.stderr


def test_complete_published_fixture(capsys):
    code, out, _ = run(capsys, "complete", SE, "--json")
    assert code == 0
    data = json.loads(out)
    assert data["status"] == "complete"
    assert len(data["rules"]) == 6
    assert all(rule["provenance"] == "initial" for rule in data["rules"])


def test_complete_text_mode(capsys):
    code, out, _ = run(capsys, "complete", SE)
    assert code == 0
    assert "status: complete" in out
    assert "r1: e e -> e" in out


def test_complete_free_monoid(capsys):
    code, out, _ = run(capsys, "complete", FREE, "--json")
    assert code == 0
    assert json.loads(out)["rules"] == []


def test_complete_warns_of_trivial_relation(tmp_path):
    plain, trivial = tmp_path / "plain.txt", tmp_path / "trivial.txt"
    plain.write_text("monoid\nletters: a b\norder: shortlex\nrules:\na a = 1\n")
    trivial.write_text("monoid\nletters: a b\norder: shortlex\nrules:\na a = 1\nb = b\n")
    code, out, err = run_cold("complete", str(trivial))
    assert code == 0
    assert out == run_cold("complete", str(plain))[1] == "status: complete\n  r1: a a -> 1\n"
    assert err.splitlines() == ["WARNING: dropping trivial relation b = b"]


def test_complete_limit_exceeded(capsys, tmp_path):
    f = tmp_path / "loopy.txt"
    f.write_text("monoid\nletters: a b\norder: shortlex\nrules:\na b a = b a a\n")
    code, out, _ = run(capsys, "complete", str(f), "--json", "--limits", "3,64")
    assert code == 2
    data = json.loads(out)
    assert data["status"] == "limit"


def test_complete_rejects_nonpositive_limits(capsys):
    code, out, err = run(capsys, "complete", SE, "--limits", "0,64")
    assert code == 1 and out == ""
    assert "expected --limits MAX_RULES,MAX_WORD_LENGTH" in err
    assert "Traceback" not in err


def loaded_modules(code: str, *options: str) -> set[str]:
    """The names in sys.modules after code runs in a fresh interpreter,
    started with the given interpreter options."""
    proc = subprocess.run([sys.executable, *options, "-c", f"{code}\nimport sys\nprint(*sys.modules)"],
                          capture_output=True, text=True, env=CHILD_ENV, check=True)
    return set(proc.stdout.split())


def test_import_loads_no_module_it_does_not_use():
    # dataclasses loads inspect, ast and dis, logging loads traceback and
    # string, argparse loads gettext, typing.NamedTuple compiles each field
    # annotation: a cold command would pay for them before doing any work;
    # json loads only where JSON is read or a string needs escapes,
    # endorewrites only for endos and express
    added = loaded_modules("import logrew.cli") - loaded_modules("pass")
    assert "logrew.cli" in added
    assert not added & {"dataclasses", "inspect", "logging", "fractions", "argparse", "json",
                        "typing", "logrew.endorewrites"}


def test_a_cold_import_without_site_loads_no_typing():
    # a .pth file that site runs can load typing before the package does,
    # which hides it from the test above; under -S nothing is preloaded
    modules = loaded_modules("import logrew.cli, logrew.endorewrites", "-S")
    assert "logrew.endorewrites" in modules
    assert "typing" not in modules


@pytest.mark.parametrize("argv,endorewrites", [
    (["complete", SE, "--json"], False),
    (["prove", SE, "s s s e", "s e", "--json"], False),
    (["nf", SE, "s s s e"], False),
    (["endos", SE, "--json"], True),
])
def test_a_cold_command_loads_only_what_it_runs(argv, endorewrites):
    modules = loaded_modules(
        "import contextlib, io\nfrom logrew.cli import main\n"
        f"with contextlib.redirect_stdout(io.StringIO()):\n    assert main({argv!r}) == 0"
    ) - loaded_modules("pass")
    assert "json" not in modules
    assert ("logrew.endorewrites" in modules) == endorewrites


def test_every_public_name_resolves():
    namespace = {}
    exec("from logrew import *", namespace)
    for name in logrew.__all__:
        assert namespace[name] is getattr(logrew, name), name
        assert name in dir(logrew), name
    assert logrew.generate is logrew.endorewrites.generate
    with pytest.raises(AttributeError, match="no attribute 'missing'"):
        getattr(logrew, "missing")


def test_record_types_keep_their_public_surface(se_init):
    # the fields, default, checks, tuple equality and repr that callers,
    # saved outputs and origin_index keys rely on, however the classes are declared
    from logrew import completion, core, endorewrites
    fields = {
        core.OrderSpec: ("alphabet",),
        core.Rule: ("rid", "lhs", "rhs"),
        core.Presentation: ("alphabet", "relations", "order"),
        tc.Step: ("prefix", "rule", "exp", "suffix"),
        tc.TwoCell: ("source", "steps"),
        completion.Overlap: ("case", "superposition", "left", "right"),
        completion.CompletionLimits: ("max_rules", "max_word_length"),
        completion.CompletionResult: ("system", "pending"),
        completion.NewRule: ("rule", "log"),
        endorewrites.Generator: ("gid", "cell", "base_element", "origin"),
        endorewrites.Factor: ("gen", "x", "z", "conjugator", "exp", "cell"),
        endorewrites.Decomposition: ("factors", "residual"),
    }
    for cls, names in fields.items():
        assert cls._fields == names, cls.__name__
        values = tuple(range(1, len(names) + 1))
        record = cls(*values)
        assert record == values and hash(record) == hash(values), cls.__name__
        assert record._replace(**{names[0]: 7}) == (7, *values[1:]), cls.__name__
    assert completion.CompletionResult(se_init).pending == ()
    assert completion.CompletionLimits() == (256, 64)
    with pytest.raises(ValueError, match="^completion limits must be positive$"):
        completion.CompletionLimits()._replace(max_rules=0)
    step = tc.Step(("s",), "r2", -1, ())
    assert (("s",), "r2", -1, ()) in frozenset({step})
    assert repr(step) == "Step(prefix=('s',), rule='r2', exp=-1, suffix=())"


# any code point, lone surrogates included; or one from around the edge of
# the quoted-as-is ASCII range: space and ~, or controls, DEL, " and \
JSON_TEXT = (st.text(st.characters(exclude_categories=()))
             | st.text(st.sampled_from(' ~"\\\x00\x1f\x7f\xa0\ud800\U0001f600')))
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | JSON_TEXT,
    lambda children: st.lists(children) | st.dictionaries(JSON_TEXT, children), max_leaves=20)


@given(value=JSON_VALUES)
@settings(max_examples=300, deadline=None)
def test_write_json_equals_json_dumps(value):
    out = []
    write_json(value, out)
    assert "".join(out) == json.dumps(value, indent=2, sort_keys=True)


@pytest.mark.parametrize("argv", [["--help"], ["-h"], ["nf", "-h"], ["prove", SE, "--help"]])
def test_help_prints_usage_to_stdout(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 0 and err == ""
    assert out.startswith("usage: logrew COMMAND") and "Flags cannot be abbreviated." in out


def test_usage_text_agrees_with_the_command_table():
    # the usage text is kept by hand beside cli.COMMANDS: it names every
    # command with its operands, and exactly the flags each command takes
    text, commands = cli.USAGE_TEXT, cli.COMMANDS
    listed = {words[0]: list(itertools.takewhile(str.isupper, words[1:]))
              for words in map(str.split, text.splitlines()) if words and words[0] in commands}
    assert listed == {name: [operand.upper() for operand in operands]
                      for name, (_, operands, _) in commands.items()}
    flags = re.findall(r"^  (-h, --help|--[a-z]*) +(?:\(([a-z, ]+)\))?", text, re.M)
    assert [flag for flag, _ in flags[-2:]] == ["-h, --help", "--"]
    count, but = re.search(r"the first (\w+) on every command but (\w+):", text).groups()
    common = ("one", "two", "three", "four", "five").index(count) + 1
    takes = {name: set() for name in commands}
    for k, (flag, where) in enumerate(flags[:-2]):
        assert (k < common) == (not where), flag
        for name in where.split(", ") if where else set(commands) - {but}:
            takes[name].add(flag)
    assert takes == {name: set(flags) for name, (_, _, flags) in commands.items()}


@pytest.fixture
def dash(tmp_path):
    """A presentation whose letter -a starts like a flag."""
    path = tmp_path / "dash.txt"
    path.write_text("monoid\nletters: -a b\norder: shortlex\nrules:\n-a -a = 1\n", encoding="utf-8")
    return str(path)


def test_a_bare_double_dash_ends_the_flags(capsys, dash):
    # the letter -a is a flag before --, and an operand after it
    assert run(capsys, "nf", dash, "--", "-a") == (0, "-a\n", "")
    assert run(capsys, "prove", dash, "--", "-a", "-a -a -a") == (0, "-a = -a -a -a\n  [1] r1^-1 [-a]\n", "")
    for argv, reason in ((("nf", dash, "-a"), "unknown flag -a for nf"),
                         (("complete", dash, "--", "--json"), "complete takes FILE")):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "") and err.splitlines()[-1] == f"logrew: error: {reason}"
    # only a -h or --help before -- asks for the usage
    assert run(capsys, "nf", dash, "-h", "--", "-a")[1].startswith("usage: logrew COMMAND")
    assert run(capsys, "nf", dash, "--", "-h") == (1, "", "parse error: unknown letter '-h'\n")


LIMITS_MESSAGE = "expected --limits MAX_RULES,MAX_WORD_LENGTH"


@pytest.mark.parametrize("argv,reason", [
    ([], "expected a command"),
    (["bogus", SE], "unknown command 'bogus'"),
    (["nf", SE], "nf takes FILE WORD"),
    (["nf", SE, "s", "e"], "nf takes FILE WORD"),
    (["prove", SE, "s"], "prove takes FILE WORD1 WORD2"),
    (["complete", SE, "--bogus"], "unknown flag --bogus for complete"),
    (["complete", SE, "--js"], "unknown flag --js for complete"),  # no abbreviation
    (["complete", SE, "--json=1"], "unknown flag --json=1 for complete"),
    (["verify", SE, SE, "--json"], "unknown flag --json for verify"),
    (["endos", SE, "--expand"], "unknown flag --expand for endos"),
    (["complete", SE, "--limits"], LIMITS_MESSAGE),
    (["complete", SE, "--limits="], LIMITS_MESSAGE),
    (["complete", SE, "--limits=0,64"], LIMITS_MESSAGE),
    (["complete", SE, "--limits", "3,64,64"], LIMITS_MESSAGE),  # there is no pass limit
    (["complete", SE, "--limits", "3"], LIMITS_MESSAGE),
])
def test_usage_error_exits_1_with_usage_and_reason(capsys, argv, reason):
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith("usage: logrew COMMAND")
    assert err.splitlines()[-1] == f"logrew: error: {reason}"


def test_cold_usage_paths_print_no_traceback():
    code, out, err = run_cold("nf", "-h")
    assert code == 0 and out.startswith("usage: logrew") and err == ""
    for argv in ([], ["nf", SE], ["complete", SE, "--limits"], ["complete", SE, "--limits", "3,64,64"]):
        code, out, err = run_cold(*argv)
        assert code == 1 and out == "", argv
        assert err.startswith("usage: logrew") and "Traceback" not in err, argv


def test_limits_value_may_follow_an_equals_sign(capsys):
    joined = run(capsys, "complete", AB, "--json", "--limits=3,64")
    assert joined == run(capsys, "complete", AB, "--json", "--limits", "3,64")
    assert joined == run(capsys, "complete", "--limits=3,64", "--json", AB)  # flags first
    assert joined[0] == 2 and json.loads(joined[1])["status"] == "limit"


@pytest.mark.parametrize("command,expect", [
    ("prove", "unknown"), ("endos", "no generator set"), ("express", "cannot express"),
])
def test_limit_exceeded_exit_code(capsys, tmp_path, command, expect):
    # three rules stop ab_monoid's completion one rule short; complete, a and
    # b are not equal, so prove must say unknown (2), not not-equal (3)
    cellfile = tmp_path / "loop.json"
    cellfile.write_text(json.dumps({"source": "a b", "steps": [
        {"prefix": "1", "rule": "r1", "exp": 1, "suffix": "1"},
        {"prefix": "1", "rule": "r1", "exp": -1, "suffix": "1"},
    ]}))
    operands = {"prove": ["a", "b"], "endos": [], "express": [str(cellfile)]}[command]
    code, out, err = run(capsys, command, AB, *operands, "--limits", "3,64")
    assert code == 2
    assert out == "" and expect in err


def test_parse_error_exit_code(capsys, tmp_path):
    f = tmp_path / "bad.txt"
    f.write_text("monoid\nletters: a\norder: shortlex\nrules:\na x = a\n")
    code, _, err = run(capsys, "complete", str(f))
    assert code == 1
    assert "parse error" in err


def test_reserved_letter_name_exit_code(capsys, tmp_path):
    f = tmp_path / "one.txt"
    f.write_text("monoid\nletters: a 1\norder: shortlex\nrules:\na a = 1\n")
    code, out, err = run(capsys, "prove", str(f), "1 a a", "1 a a a a", "--json")
    assert code == 1
    assert out == "" and "parse error: reserved letter name '1' (line 2, column 2)" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ("complete", "/no/such/file.txt"),
    ("complete", "{latin1}"),
    ("complete", "{dir}"),
    ("verify", SE, "{dir}"),
    ("express", SE, "{dir}"),
], ids=["missing", "not-utf8", "directory", "verify-cell-directory", "express-cell-directory"])
def test_missing_file_exit_code(capsys, tmp_path, argv):
    latin1 = tmp_path / "latin1.txt"
    latin1.write_bytes("monoid\nletters: é\n".encode("latin-1"))
    paths = {"latin1": str(latin1), "dir": str(tmp_path)}
    code, out, err = run(capsys, *(arg.format(**paths) for arg in argv))
    assert code == 1
    assert out == "" and err.startswith("cannot read")


def test_nf(capsys):
    code, out, _ = run(capsys, "nf", SE, "s s s e")
    assert code == 0
    assert out.strip() == "s e"
    code, out, _ = run(capsys, "nf", SE, "1")
    assert out.strip() == "1"


def test_reduce_emits_valid_log(capsys, se_init):
    code, out, _ = run(capsys, "reduce", SE, "e s e s e s", "--json")
    assert code == 0
    data = json.loads(out)
    cell = tc.cell_from_json(data)
    assert tc.validate(cell, se_init.rule_map) is None
    assert data["target"] == tc.word_to_str(tc.target(cell, se_init.rule_map))


def test_reduce_expand_uses_initial_rules_only(capsys, ab_init):
    code, out, _ = run(capsys, "reduce", AB, "a a b b", "--json", "--expand")
    assert code == 0
    cell = tc.cell_from_json(json.loads(out))
    assert tc.validate(cell, ab_init.rule_map) is None
    assert {step.rule for step in cell.steps} <= {"r1", "r2"}


def test_prove_equal_words(capsys, se_init):
    code, out, _ = run(capsys, "prove", SE, "s s s e", "s e", "--json")
    assert code == 0
    data = json.loads(out)
    cell = tc.cell_from_json(data)
    assert tc.validate(cell, se_init.rule_map) is None
    assert len(data["steps"]) == 1


def test_prove_not_equal(capsys):
    code, _, err = run(capsys, "prove", SE, "e", "s")
    assert code == 3
    assert "not equal" in err


def test_prove_verify_round_trip(capsys, tmp_path):
    code, out, _ = run(capsys, "prove", SE, "e s e s e", "e s e", "--json", "--expand")
    assert code == 0
    cert = tmp_path / "cert.json"
    cert.write_text(out)
    code, out, _ = run(capsys, "verify", SE, str(cert))
    assert code == 0
    assert out.startswith("ok:")


def test_verify_all_published_loops(capsys, tmp_path):
    for name in SE_LOOPS:
        cert = tmp_path / f"{name}.json"
        cert.write_text(json.dumps(tc.cell_to_json(loop_cell(name))))
        code, out, _ = run(capsys, "verify", SE, str(cert))
        assert code == 0, name


def test_verify_corrupted_certificate(capsys, tmp_path):
    data = tc.cell_to_json(loop_cell("se_1"))
    data["steps"][1]["suffix"] = "s"
    cert = tmp_path / "broken.json"
    cert.write_text(json.dumps(data))
    code, _, err = run(capsys, "verify", SE, str(cert))
    assert code == 4
    assert "step 1" in err


def test_verify_declared_target_mismatch(capsys, tmp_path):
    data = tc.cell_to_json(loop_cell("se_1"))
    data["target"] = "s e"
    cert = tmp_path / "mismatch.json"
    cert.write_text(json.dumps(data))
    code, _, err = run(capsys, "verify", SE, str(cert))
    assert code == 4


def test_endos_groups(capsys):
    code, out, _ = run(capsys, "endos", SE, "--json")
    assert code == 0
    data = json.loads(out)
    groups = {}
    for gen in data["generators"]:
        groups[gen["base_element"]] = groups.get(gen["base_element"], 0) + 1
    assert groups == {"e": 7, "s": 1, "s s": 1, "e s": 1, "s e": 1, "e s e": 17}


def test_endos_text_grouping(capsys):
    code, out, _ = run(capsys, "endos", SE)
    assert code == 0
    assert "Endorewrites of e:" in out
    assert "Endorewrites of e s e:" in out


def test_endos_free_monoid(capsys):
    code, out, _ = run(capsys, "endos", FREE, "--json")
    assert code == 0
    assert json.loads(out)["generators"] == []


def test_endos_ab_monoid_verifies(capsys, ab_init):
    code, out, _ = run(capsys, "endos", AB, "--json")
    assert code == 0
    data = json.loads(out)
    assert data["generators"]
    from logrew.engine import expand_log
    from logrew.completion import logged_knuth_bendix

    full = logged_knuth_bendix(ab_init).system
    for gen in data["generators"]:
        cell = tc.cell_from_json(gen["cell"])
        assert tc.validate(cell, full.rule_map) is None
        expanded = expand_log(cell, full)
        assert tc.validate(expanded, ab_init.rule_map) is None


def test_endos_minimize_is_subset(capsys):
    code, full_out, _ = run(capsys, "endos", SE, "--json")
    code2, small_out, _ = run(capsys, "endos", SE, "--json", "--minimize")
    assert code == code2 == 0
    full_ids = {g["id"] for g in json.loads(full_out)["generators"]}
    small_ids = {g["id"] for g in json.loads(small_out)["generators"]}
    assert small_ids <= full_ids
    assert small_ids


def test_express_round_trip(capsys, tmp_path, se_init):
    cellfile = tmp_path / "loop.json"
    cellfile.write_text(json.dumps(tc.cell_to_json(loop_cell("ese_3"))))
    code, out, _ = run(capsys, "express", SE, str(cellfile), "--json")
    assert code == 0
    data = json.loads(out)
    assert data["residual"]["steps"] == []
    for factor in data["factors"]:
        conj = tc.cell_from_json(factor["conjugator"])
        assert tc.validate(conj, se_init.rule_map) is None


def test_a_byte_order_mark_is_read(capsys, tmp_path):
    # as an editor may save them: UTF-8 with a leading U+FEFF
    presentation, cell = tmp_path / "se.txt", tmp_path / "cell.json"
    presentation.write_bytes(b"\xef\xbb\xbf" + Path(SE).read_bytes())
    cell.write_bytes(b"\xef\xbb\xbf" + json.dumps(tc.cell_to_json(loop_cell("se_1"))).encode())
    assert run(capsys, "nf", str(presentation), "s s s e") == (0, "s e\n", "")
    code, out, _ = run(capsys, "verify", SE, str(cell))
    assert code == 0 and out.startswith("ok:")
    assert run(capsys, "express", str(presentation), str(cell))[0] == 0


def test_express_identity_loop(capsys, tmp_path):
    cellfile = tmp_path / "idloop.json"
    cellfile.write_text(json.dumps({"source": "s e", "steps": []}))
    code, out, _ = run(capsys, "express", SE, str(cellfile), "--json")
    assert code == 0
    assert json.loads(out)["factors"] == []


def test_express_invalid_cell(capsys, tmp_path):
    cellfile = tmp_path / "bad.json"
    cellfile.write_text(json.dumps({
        "source": "s e",
        "steps": [{"prefix": "1", "rule": "r1", "exp": 1, "suffix": "1"}],
    }))
    code, _, err = run(capsys, "express", SE, str(cellfile), "--json")
    assert code == 4


def test_json_outputs_stable_between_runs(capsys):
    outputs = []
    for _ in range(2):
        _, out, _ = run(capsys, "endos", SE, "--json")
        outputs.append(out)
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("name", ["A5", "S4"])
def test_interreduce_changes_no_output(capsys, tmp_path, name):
    text = {"A5": A5, "S4": S4}[name]
    f = tmp_path / f"{name}.txt"
    f.write_text(text)
    for argv in (["complete", str(f)], ["complete", str(f), "--json"],
                 ["endos", str(f)], ["endos", str(f), "--json"]):
        plain = run(capsys, *argv)
        assert plain[0] == 0
        assert run(capsys, *argv, "--interreduce") == plain
    # the reduced system is the completed one, and loads with its logs
    code, out, _ = run(capsys, "complete", str(f), "--interreduce", "--json")
    data = json.loads(out)
    assert any(rule.get("retired") for rule in data["rules"])
    init = system_from_presentation(parse_presentation(text))
    loaded = system_from_json(data, init.order).system
    assert loaded.rules == logged_knuth_bendix(init).system.rules


def test_complete_text_marks_retired_rules(capsys, tmp_path):
    f = tmp_path / "s4.txt"
    f.write_text(S4)
    _, out, _ = run(capsys, "complete", str(f))
    _, data, _ = run(capsys, "complete", str(f), "--json")
    marked = {line.split(":")[0].strip() for line in out.splitlines() if line.endswith("  (retired)")}
    assert marked == {rule["id"] for rule in json.loads(data)["rules"] if rule.get("retired")}
    assert len(marked) == 8


def test_closed_stdout_exits_1_silently(tmp_path):
    # endos --json on S4 writes about 120 KB, more than a pipe holds: the
    # reader takes one byte and closes the pipe while the command writes
    f = tmp_path / "s4.txt"
    f.write_text(S4)
    with subprocess.Popen([sys.executable, "-m", "logrew.cli", "endos", str(f), "--json"],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=CHILD_ENV) as proc:
        assert proc.stdout.read(1) == b"{"
        proc.stdout.close()
        err = proc.stderr.read().decode()
        code = proc.wait(timeout=120)
    assert code == 1
    assert err == ""
    # output small enough to sit in the buffer until exit, on a pipe closed before the start
    for argv in (["nf", SE, "s s s e"], ["--help"]):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run([sys.executable, "-m", "logrew.cli", *argv],
                                  stdout=write_end, stderr=subprocess.PIPE, env=CHILD_ENV, timeout=120)
        finally:
            os.close(write_end)
        assert (proc.returncode, proc.stderr) == (1, b""), argv


BAD_CELLS = {
    "not-json": '{"source": "s e", "steps": [',
    "list": "[1, 2]",
    "string": '"s e"',
    "number": "5",
    "source-letter": json.dumps({"source": "q q", "steps": []}),
    "prefix-letter": json.dumps({"source": "s s s e", "steps": [
        {"prefix": "q", "rule": "r2", "exp": 1, "suffix": "e"}]}),
    "suffix-letter": json.dumps({"source": "s s s e", "steps": [
        {"prefix": "1", "rule": "r2", "exp": 1, "suffix": "q"}]}),
    "target-letter": json.dumps({"source": "s e", "steps": [], "target": "q"}),
    "word-not-string": json.dumps({"source": 5, "steps": []}),
    # exponents that int() would take for +-1; each step replays as that
    "exp-float": json.dumps({"source": "e e", "steps": [
        {"prefix": "1", "rule": "r1", "exp": 1.7, "suffix": "1"}]}),
    "exp-bool": json.dumps({"source": "e e", "steps": [
        {"prefix": "1", "rule": "r1", "exp": True, "suffix": "1"}]}),
    "exp-string": json.dumps({"source": "e", "steps": [
        {"prefix": "1", "rule": "r1", "exp": "-1", "suffix": "1"}]}),
}


def test_bad_cell_input_exits_4(capsys, tmp_path):
    for name, text in BAD_CELLS.items():
        cellfile = tmp_path / f"{name}.json"
        cellfile.write_text(text)
        for command in ("verify", "express"):
            code, out, err = run(capsys, command, SE, str(cellfile))
            assert code == 4, (command, name)
            assert "Traceback" not in err, (command, name)
            assert out == "", (command, name)


def test_express_checks_the_cell_before_completing(capsys, tmp_path, monkeypatch):
    monkeypatch.setattr("logrew.endorewrites.generate", lambda *_: pytest.fail("generate ran"))
    presentation = tmp_path / "a5.txt"
    presentation.write_text(A5)
    cellfile = tmp_path / "bad.json"
    cellfile.write_text(json.dumps({"source": "q", "steps": []}))
    for limits in ((), ("--limits", "3,4")):  # 3 rules stop A5's completion
        code, out, err = run(capsys, "express", str(presentation), str(cellfile), *limits)
        assert code == 4 and out == "", limits
        assert "malformed cell" in err


def test_express_rejects_a_cell_that_is_not_a_loop(capsys, tmp_path):
    cellfile = tmp_path / "path.json"
    cellfile.write_text(json.dumps({
        "source": "s s s e",
        "steps": [{"prefix": "1", "rule": "r2", "exp": 1, "suffix": "e"}],
    }))
    code, _, err = run(capsys, "express", SE, str(cellfile))
    assert code == 4
    assert "not an endorewrite" in err


def spliced(original: bytes):
    """original with one slice replaced by random bytes or text, or random bytes."""
    n = len(original)
    patch = st.one_of(st.binary(max_size=12), st.text(max_size=12).map(str.encode))
    splice = st.tuples(st.integers(0, n), st.integers(0, n), patch).map(
        lambda t: original[:min(t[:2])] + t[2] + original[max(t[:2]):])
    return st.one_of(st.just(original), splice, st.binary(max_size=200))


CELL = json.dumps({**tc.cell_to_json(loop_cell("e_2")), "target": "e e s s"}).encode()
LIMITS = ("--limits", "8,8")
COMMANDS = st.sampled_from([
    ("complete", "P", *LIMITS), ("nf", "P", "W", *LIMITS),
    ("reduce", "P", "W", "--expand", "--json", *LIMITS), ("prove", "P", "W", "V", *LIMITS),
    ("endos", "P", "--json", *LIMITS), ("verify", "P", "C"),
    ("express", "P", "C", "--json", *LIMITS),
])


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@given(command=COMMANDS, presentation=spliced(Path(SE).read_bytes()), cell=spliced(CELL),
       words=st.lists(st.text(alphabet="se1 x", max_size=12), min_size=2, max_size=2))
@settings(max_examples=150, deadline=None)
def test_cli_survives_mangled_input(fuzz_dir, command, presentation, cell, words):
    (fuzz_dir / "fuzz.txt").write_bytes(presentation)
    (fuzz_dir / "fuzz.json").write_bytes(cell)
    paths = {"P": str(fuzz_dir / "fuzz.txt"), "C": str(fuzz_dir / "fuzz.json"),
             "W": words[0], "V": words[1]}
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main([paths.get(arg, arg) for arg in command])
    assert code in range(5)
