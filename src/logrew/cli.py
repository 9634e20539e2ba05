"""Command line front end.

Exit codes: 0 success, 1 parse or usage error or stdout closed or full,
2 completion or expansion limit exceeded, 3 words not equal, 4 invalid certificate or
cell (malformed, over letters outside the alphabet, or not replaying).
Data goes to stdout, diagnostics to stderr (dropped if it is closed or
full); ``--json`` switches the rendering, the JSON being the source of
truth either way.
"""

from __future__ import annotations

import sys as _sys
from types import SimpleNamespace

from .core import Alphabet, ParseError, Word, orient, parse_presentation, word_from_str, word_to_str
from . import twocell
from .engine import (
    ExpansionTooLong, Verdict, expand_log, normal_form, prove, reduce_logged,
    system_from_presentation,
)
from .completion import CompletionLimits, logged_knuth_bendix, system_to_json
from .twocell import ChainError, TwoCell

OK, USAGE, LIMIT, NOT_EQUAL, BAD_CERT = 0, 1, 2, 3, 4

# what reading a bad certificate or cell file raises (ParseError included)
BAD_CELL_ERRORS = (AttributeError, KeyError, RecursionError, TypeError, ValueError)


def _warn(message: str) -> None:
    """Print a diagnostic to stderr, or drop it if stderr is closed or full:
    a diagnostic never changes the exit code."""
    try:
        if _sys.stderr is not None:  # None if started closed, where print would write to stdout
            print(message, file=_sys.stderr)
    except OSError:
        pass


def _limits(text: str) -> CompletionLimits:
    try:
        max_rules, max_word_length = (int(p) for p in text.split(","))
        return CompletionLimits(max_rules, max_word_length)
    except ValueError:
        raise ValueError("expected --limits MAX_RULES,MAX_WORD_LENGTH") from None


def write_json(value, out: list[str], indent: str = "\n") -> None:
    """Append ``json.dumps(value, indent=2, sort_keys=True)`` to out for a str,
    int, bool, None, list or str-keyed dict, without json's pure-Python encoder."""
    if isinstance(value, str):
        if value.isascii() and value.isprintable() and '"' not in value and "\\" not in value:
            out.append(f'"{value}"')
        else:  # only a string that needs escapes loads json
            from json.encoder import encode_basestring_ascii
            out.append(encode_basestring_ascii(value))
    elif value is None or isinstance(value, bool):
        out.append("null" if value is None else "true" if value else "false")
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    else:
        is_dict = isinstance(value, dict)
        pairs = sorted(value.items()) if is_dict else [(None, item) for item in value]
        out.append("{" if is_dict else "[")
        for i, (key, item) in enumerate(pairs):
            out.append(("," if i else "") + indent + "  ")
            if is_dict:
                write_json(key, out)
                out.append(": ")
            write_json(item, out, indent + "  ")
        out.append((indent if pairs else "") + ("}" if is_dict else "]"))


def _emit(data: dict | str, as_json: bool, render) -> None:
    if as_json:
        out: list[str] = []
        write_json(data, out)
        print("".join(out))
    else:
        render(data)


def _emit_cell(cell: TwoCell, args, system, arrow: str) -> None:
    """Print a reduction or proof with its target, expanded on ``--expand``."""
    if args.expand:
        cell = expand_log(cell, system)
    data = twocell.cell_to_json(cell)
    data["target"] = word_to_str(twocell.target(cell, system.rule_map))

    def render(data):
        print(f"{data['source']} {arrow} {data['target']}")
        for step in data["steps"]:
            sign = "" if step["exp"] == 1 else "^-1"
            print(f"  [{step['prefix']}] {step['rule']}{sign} [{step['suffix']}]")

    _emit(data, args.json, render)


def _load_presentation(path: str):
    with open(path, encoding="utf-8") as handle:
        presentation = parse_presentation(handle.read())
    if any(a == b for a, b in presentation.relations):  # core.orient warns of these
        import logging
        logging.basicConfig(stream=_sys.stderr, format="%(levelname)s: %(message)s")
    return presentation


def _load_cell(path: str, alphabet: Alphabet) -> tuple[TwoCell, Word | None]:
    """A two-cell JSON file over the alphabet, with its declared target if
    any; raises one of BAD_CELL_ERRORS on any other file content."""
    import json  # only where JSON is read
    with open(path, encoding="utf-8") as handle:
        data = json.loads(handle.read().removeprefix("\ufeff"))
    if not isinstance(data, dict):
        raise ValueError("expected a JSON object")
    cell = twocell.cell_from_json(data)
    words = (cell.source, *(word for step in cell.steps for word in (step.prefix, step.suffix)))
    if not set().union(*words) <= set(alphabet.letters):  # else rank raises on the first foreign letter
        alphabet.rank(next(letter for word in words for letter in word if letter not in alphabet))
    target = word_from_str(data["target"], alphabet) if "target" in data else None
    return cell, target


def _completed(args, presentation=None):
    """The presentation of ``args.file``, unless one is given, and its
    completion under ``--limits``."""
    presentation = presentation or _load_presentation(args.file)
    return presentation, logged_knuth_bendix(system_from_presentation(presentation), args.limits)


def cmd_complete(args) -> int:
    _, result = _completed(args)
    data = system_to_json(result)

    def render(data):
        print(f"status: {data['status']}")
        for rule in data["rules"]:
            origin = "" if rule["provenance"] == "initial" else "  (derived)"
            mark = "  (retired)" if rule.get("retired") else ""
            print(f"  {rule['id']}: {rule['lhs']} -> {rule['rhs']}{origin}{mark}")
        if result.pending:
            print(f"pending critical pairs: {len(result.pending)}")

    _emit(data, args.json, render)
    return OK if result.status == "complete" else LIMIT


def cmd_nf(args) -> int:
    presentation, result = _completed(args)
    word = word_from_str(args.word, presentation.alphabet)
    _emit(word_to_str(normal_form(word, result.system)), args.json, print)
    return OK if result.status == "complete" else LIMIT


def cmd_reduce(args) -> int:
    presentation, result = _completed(args)
    word = word_from_str(args.word, presentation.alphabet)
    _emit_cell(reduce_logged(word, result.system), args, result.system, "->")
    return OK if result.status == "complete" else LIMIT


def cmd_prove(args) -> int:
    presentation, result = _completed(args)
    w1 = word_from_str(args.word1, presentation.alphabet)
    w2 = word_from_str(args.word2, presentation.alphabet)
    outcome = prove(w1, w2, result.system)
    if outcome is Verdict.NOT_EQUAL:
        _warn("not equal")
        return NOT_EQUAL
    if outcome is Verdict.UNKNOWN:
        _warn("unknown: system is not complete within limits")
        return LIMIT
    _emit_cell(outcome, args, result.system, "=")
    return OK


def cmd_verify(args) -> int:
    presentation = _load_presentation(args.file)
    initial = {rule.rid: rule for rule in orient(presentation)}
    try:
        cell, declared = _load_cell(args.certificate, presentation.alphabet)
    except BAD_CELL_ERRORS as err:
        _warn(f"malformed certificate: {err}")
        return BAD_CERT
    try:
        reached = twocell.target(cell, initial)
    except ChainError as err:
        _warn(f"invalid certificate: {err}")
        return BAD_CERT
    if declared is not None and declared != reached:
        _warn(f"certificate ends at {word_to_str(reached)}, declared {word_to_str(declared)}")
        return BAD_CERT
    print(f"ok: {word_to_str(cell.source)} -> {word_to_str(reached)}")
    return OK


def cmd_endos(args) -> int:
    from .endorewrites import generate, generator_set_to_json, minimize  # no other command loads it
    _, result = _completed(args)
    if result.status != "complete":
        _warn("completion exceeded limits; no generator set")
        return LIMIT
    gens = generate(result)
    if args.minimize:
        gens = minimize(gens)

    def render(data):
        groups: dict[Word, list] = {}
        for gen in gens.generators:
            groups.setdefault(gen.base_element, []).append(gen)
        for element, members in groups.items():
            print(f"Endorewrites of {word_to_str(element)}:")
            for gen in members:
                print(f"  {gen.gid} on {word_to_str(gen.cell.source)} "
                      f"({twocell.render(gen.cell)})")

    _emit(generator_set_to_json(gens), args.json, render)
    return OK


def cmd_express(args) -> int:
    from .endorewrites import UnmatchedDiamond, decomposition_to_json, express, generate
    presentation = _load_presentation(args.file)
    try:
        cell, declared = _load_cell(args.cell, presentation.alphabet)
    except BAD_CELL_ERRORS as err:
        _warn(f"malformed cell: {err}")
        return BAD_CERT
    if declared not in (None, cell.source):  # an endorewrite ends where it starts
        _warn(f"invalid cell: declared target {word_to_str(declared)} != source {word_to_str(cell.source)}")
        return BAD_CERT
    _, result = _completed(args, presentation)
    if result.status != "complete":
        _warn("completion exceeded limits; cannot express")
        return LIMIT
    gens = generate(result)
    try:
        decomposition = express(cell, gens)
    except UnmatchedDiamond as err:
        _warn(f"unmatched diamond: {err}")
        return USAGE
    except ChainError as err:  # the cell does not replay or is not a loop
        _warn(f"invalid cell: {err}")
        return BAD_CERT
    data = decomposition_to_json(decomposition)

    def render(data):
        print(f"base: {data['base']}")
        for factor in data["factors"]:
            print(f"  {factor['gen']}^{factor['exp']} whiskered "
                  f"[{factor['x']}] _ [{factor['z']}]")
        print(f"residual: {twocell.render(decomposition.residual)}")

    _emit(data, args.json, render)
    return OK


COMMON = ("--json", "--limits")
# command -> (handler, operands, flags); every flag but --limits takes no value
COMMANDS = {
    "complete": (cmd_complete, ("file",), COMMON),
    "nf": (cmd_nf, ("file", "word"), COMMON),
    "reduce": (cmd_reduce, ("file", "word"), (*COMMON, "--expand")),
    "prove": (cmd_prove, ("file", "word1", "word2"), (*COMMON, "--expand")),
    "verify": (cmd_verify, ("file", "certificate"), ()),
    "endos": (cmd_endos, ("file",), (*COMMON, "--minimize")),
    "express": (cmd_express, ("file", "cell"), COMMON),
}

USAGE_TEXT = """usage: logrew COMMAND FILE [OPERAND ...] [FLAG ...]
  complete FILE            run logged Knuth-Bendix completion
  nf FILE WORD             normal form of a word
  reduce FILE WORD         reduce a word, emitting the log
  prove FILE WORD1 WORD2   prove two words equal with a witness
  verify FILE CERTIFICATE  replay a two-cell JSON certificate against the initial rules
  endos FILE               generating endorewrites of the completed system
  express FILE CELL        express a two-cell JSON endorewrite in the generators

FILE is a presentation file; a WORD is space separated letters, or 1.
Flags, the first two on every command but verify:
  --json                   emit JSON
  --limits R,L             completion limits MAX_RULES,MAX_WORD_LENGTH
  --expand                 (reduce, prove) expand derived-rule steps to initial rules
  --minimize               (endos) drop generators whose abelianization the kept ones span
  -h, --help               print this text
  --                       end the flags: every argument after it is an operand
Flags cannot be abbreviated."""


def parse_args(argv: list[str]):
    """The handler and its args for argv, read off COMMANDS; raises ValueError
    if they do not fit.  An argument that starts with - is a flag unless it holds a space
    or follows a bare --, which ends the flags."""
    if not argv or argv[0] not in COMMANDS:
        raise ValueError(f"unknown command {argv[0]!r}" if argv else "expected a command")
    func, names, flags = COMMANDS[argv[0]]
    values = {**dict.fromkeys((flag[2:] for flag in flags), False), "limits": CompletionLimits()}
    operands, rest = [], iter(argv[1:])
    for arg in rest:
        flag, eq, value = arg.partition("=")
        if arg == "--":
            operands += rest
        elif not arg.startswith("-") or " " in arg:
            operands.append(arg)
        elif flag == "--limits" and flag in flags:
            values["limits"] = _limits(value if eq else next(rest, ""))
        elif arg in flags:
            values[arg[2:]] = True
        else:
            raise ValueError(f"unknown flag {arg} for {argv[0]}")
    if len(operands) != len(names):
        raise ValueError(f"{argv[0]} takes {' '.join(names).upper()}")
    return func, SimpleNamespace(**values, **dict(zip(names, operands)))


def _help(args) -> int:
    print(USAGE_TEXT)
    return OK


def main(argv=None) -> int:
    argv = _sys.argv[1:] if argv is None else list(argv)
    try:
        before = argv[:argv.index("--")] if "--" in argv else argv  # after --, -h is an operand
        func, args = (_help, None) if "-h" in before or "--help" in before else parse_args(argv)
    except ValueError as err:
        _warn(f"{USAGE_TEXT}\nlogrew: error: {err}")
        return USAGE
    try:
        code = func(args)
        if _sys.stdout is None:  # started with stdout closed (`>&-`): print wrote nothing
            return USAGE
        _sys.stdout.flush()  # so that a closed or full stdout raises here, not at exit
        return code
    except ParseError as err:
        _warn(f"parse error: {err}")
        return USAGE
    except ExpansionTooLong as err:  # before anything is printed
        _warn(str(err))
        return LIMIT
    except OSError as err:
        if err.filename is not None:  # open() names the file it could not open
            _warn(f"cannot read {err.filename}: {err.strerror}")
            return USAGE
        import os  # a write to stdout failed: the exit flush writes nowhere
        os.dup2(os.open(os.devnull, os.O_WRONLY), _sys.stdout.fileno())
        if not isinstance(err, BrokenPipeError):  # closed early, as by `| head`: silent
            _warn(f"cannot write to stdout: {err.strerror}")
        return USAGE
    except UnicodeDecodeError:  # the presentation; cells are read under BAD_CELL_ERRORS
        _warn(f"cannot read {args.file}: not UTF-8 text")
        return USAGE
    except MemoryError:  # a last resort: nothing bounds what express or generate builds
        _warn("out of memory")
        return USAGE


def console_entry() -> None:
    """Run main() as the process: flush stdout and stderr, then os._exit, which
    skips the interpreter's teardown (atexit handlers, finalizers, module cleanup)
    that the command line has no use for.  An exception from main exits as usual."""
    code = main()
    import os
    for stream in filter(None, (_sys.stdout, _sys.stderr)):  # None if started closed
        try:
            stream.flush()
        except OSError:  # a full stderr: main has flushed stdout, so the diagnostic is dropped
            pass
    os._exit(code)


if __name__ == "__main__":
    console_entry()
