"""The four workloads: one process, one request at a time, closed loop.

Every workload times only calls into the program; input generation and
the checks of ``checks.py`` run outside the timed regions.  ``--seconds``
fixes how many requests a run makes (the *_PER_S rates below, measured
at the seed commit), never the program's speed, so a percentile covers
the same requests on every commit.  A traced run executes a fixed request
list, each request once untraced and once traced, so its counts repeat
exactly for a seed and the difference of the two sums is the tracing
overhead.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import importlib
import io
import itertools
import json
import os
import random
import resource
import signal
import statistics
import subprocess
import sys
import traceback
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

from . import checks, inputs
from .tracer import Tracer

MODULES = ("core", "twocell", "engine", "completion", "endorewrites", "cli")
SETUP_REPEATS = 9
LONG_CLASS = (3, 512, 20260512)  # pairs, letters, seed: the same pairs in every run
# Short words take every length in turn and 3 pairs in 4 are equal, so that
# the seed changes the words but not the mix of lengths and verdicts.
SHORT_LENGTHS = range(8, 65, 4)
SHORT_MIX = 60  # pairs after which lengths and verdicts repeat
GENERATE_REPEATS = 3
# One long walk in eight keeps the median among many short loops, whose
# cost varies from loop to loop, and the tail among the long ones.
LOOP_WALKS = (12,) * 7 + (48,)
LOOP_MAX_LENGTH = 32
CHILD_TIMEOUT_S = 120

# Requests per second of --seconds.  Timed operations take about --seconds
# of a run at the seed commit on a two-CPU host; reference timings, checks
# and set-up take the rest.
LADDER_PASSES_PER_S = 1 / 12
SHORT_PAIRS_PER_S = 14.4
LOOPS_PER_S = 32.0
CYCLES_PER_S = 0.52


REFERENCE_WORD = tuple("abcdbadc" * 16)
REFERENCE_LHS = (tuple("abab"), tuple("cdc"), tuple("dd"), tuple("bad"), tuple("acac"))
REFERENCE_REPEATS = 20
REFERENCE_S = 0.003    # reference loop time at the nominal speed times are scaled to
SAMPLE_S = 0.05        # interval of the reference timings while measured work runs


def reference_loop() -> int:
    """Fixed pure-Python work shaped like redex search: slices compared in loops."""
    found = 0
    for _ in range(REFERENCE_REPEATS):
        for pos in range(len(REFERENCE_WORD)):
            for lhs in REFERENCE_LHS:
                found += REFERENCE_WORD[pos:pos + len(lhs)] == lhs
    return found


def time_reference() -> float:
    """Seconds the reference loop takes now."""
    enabled = gc.isenabled()
    gc.disable()  # the loop makes no cycles; keep collections of the heap out of it
    try:
        start = perf_counter()
        reference_loop()
        return perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class HostSpeed:
    """Scales times to a nominal host speed.

    On a shared host the CPU speed of this process swings by a third or
    more over a few seconds, with load from other tenants.  A fixed
    reference loop follows the swing, which is fast: it is timed just
    before and just after each measurement and every SAMPLE_S while the
    measured work runs, from a timer signal.  A time, less the timings made
    inside it, is multiplied by REFERENCE_S / (mean of those timings).
    Wall times, less the timings inside them, are kept beside the scaled
    ones in the record.

    With ``scaled`` off, times are wall-clock and no timing is made.  That
    is for traced runs, where the timings would add to the self time of the
    span they interrupt.
    """

    def __init__(self, scaled: bool = True):
        self.scaled = scaled
        self.history: list[float] = []  # every reference timing, in order
        self.inside: list[float] = []   # timings of the current measurement

    def _on_timer(self, signum, frame) -> None:
        self.inside.append(time_reference())

    def time(self, work):
        """(result of work(), wall seconds, scaled seconds)."""
        if not self.scaled:
            start = perf_counter()
            result = work()
            wall = perf_counter() - start
            return result, wall, wall
        before, self.inside = time_reference(), []
        previous = signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_S, SAMPLE_S)
        start = perf_counter()
        try:
            result = work()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            wall = perf_counter() - start  # after any timing the timer still delivers
            signal.signal(signal.SIGALRM, previous)
        wall -= sum(self.inside)
        references = [before, *self.inside, time_reference()]
        self.history += references
        return result, wall, wall * REFERENCE_S / statistics.mean(references)


CHILD_REFERENCE = "from perfbench.workloads import reference_loop\nfor _ in range(5):\n    reference_loop()\n"
CHILD_REFERENCE_S = 0.1  # reference child time at the nominal speed


class ChildSpeed:
    """Scales the times of commands run in child processes.

    A loop in this process does not follow a child's speed (scaling by it
    tripled the spread of cli_cold's median), because a cold start-up and
    import swing with the host too.  So a reference child runs just before
    each command: a cold interpreter that imports this module, not the
    package, and runs the reference loop.  The command's time is multiplied
    by CHILD_REFERENCE_S / (the reference child's time).
    """

    def __init__(self):
        root = Path(__file__).resolve().parents[1]
        self.env = {"PATH": os.environ.get("PATH", "/usr/bin:/bin"), "PYTHONPATH": str(root)}
        self.history: list[float] = []  # every reference child's time, in order

    def time(self, work):
        """(result of work(), wall seconds, scaled seconds)."""
        start = perf_counter()
        subprocess.run([sys.executable, "-c", CHILD_REFERENCE], env=self.env, capture_output=True,
                       timeout=CHILD_TIMEOUT_S, check=True)
        reference = perf_counter() - start
        self.history.append(reference)
        start = perf_counter()
        result = work()
        wall = perf_counter() - start
        return result, wall, wall * CHILD_REFERENCE_S / reference


TRACED = "traced:"  # kind prefix of the requests a traced run times under the tracer


@dataclass
class Result:
    """Attempted and failed operations, latencies of the successful ones by
    kind, the sha256 of each output, and the metrics derived from them."""

    metrics: dict = field(default_factory=dict)  # metric -> value
    named: dict = field(default_factory=dict)    # workload-specific name -> (value, unit)
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)
    samples: dict = field(default_factory=lambda: defaultdict(list))  # kind -> scaled seconds
    wall: dict = field(default_factory=lambda: defaultdict(list))     # kind -> wall seconds
    digests: dict = field(default_factory=lambda: defaultdict(list))  # kind -> sha256 of outputs
    notes: dict = field(default_factory=dict)
    speed: HostSpeed | ChildSpeed = field(default_factory=HostSpeed)
    tracer: Tracer | None = None  # set while a request runs traced

    def op(self, kind: str, work, check):
        """Time work() -> (text, value); then check(text, value) -> reason or None.

        Returns (text, value, scaled seconds), or None when the operation failed.
        """
        self.attempted += 1
        if self.tracer is not None:
            self.tracer.request, self.tracer.kind = self.attempted, kind
            kind = TRACED + kind
        try:
            (text, value), wall, took = self.speed.time(work)
            problem = check(text, value)
        except Exception as err:  # a crash of the program, or output the check cannot read
            problem = f"{type(err).__name__}: {err}"
        if problem:
            self.failed += 1
            self.errors.append(f"{kind}: {problem}")
            return None
        self.samples[kind].append(took)
        self.wall[kind].append(wall)
        self.digests[kind].append(hashlib.sha256(text.encode()).hexdigest())
        return text, value, took


def count(seconds: float, per_second: float, multiple: int = 1) -> int:
    """Requests a run of seconds makes: whole multiples, at least one."""
    return max(1, round(seconds * per_second / multiple)) * multiple


def p50(values: list) -> float:
    """Median; 0 when every operation of the kind failed (the run is then not correct)."""
    return statistics.median(values) if values else 0.0


def tail(values: list) -> float:
    """Highest percentile with at least ten samples beyond it: the 11th largest.
    Callers pass a fixed number of samples, so this is a fixed percentile."""
    ordered = sorted(values)
    return ordered[max(len(ordered) - 11, 0)] if ordered else 0.0


def ms(values: list) -> list:
    return [v * 1000 for v in values]


def peak_rss_mib(who=resource.RUSAGE_SELF) -> float:
    return resource.getrusage(who).ru_maxrss / 1024  # Linux reports KiB


def dumps(data) -> str:
    """The JSON text the command line prints with --json."""
    return json.dumps(data, indent=2, sort_keys=True)


def load(speed: HostSpeed, prepare=None):
    """Import the package afresh SETUP_REPEATS times, each followed by
    prepare(lib); returns lib, the last prepared state and the median
    scaled time."""
    times = []

    def setup():
        for name in [n for n in sys.modules if n == "logrew" or n.startswith("logrew.")]:
            del sys.modules[name]
        lib = SimpleNamespace(**{m: importlib.import_module("logrew." + m) for m in MODULES})
        return lib, prepare(lib) if prepare is not None else None

    for _ in range(SETUP_REPEATS):
        (lib, state), _, took = speed.time(setup)
        times.append(took)
    return lib, state, statistics.median(times)


def completed(text: str):
    def prepare(lib):
        presentation = lib.core.parse_presentation(text)
        init = lib.engine.system_from_presentation(presentation)
        return init, lib.completion.logged_knuth_bendix(init)
    return prepare


def traced_twice(requests: list, tracer: Tracer, result: Result) -> None:
    """Run each request of a fixed list once untraced and once traced, in
    alternating order so that drift and warm caches favour neither; the
    difference of the two sums is the tracing overhead."""
    for n, request in enumerate(requests):
        for traced in (False, True) if n % 2 == 0 else (True, False):
            if traced:
                result.tracer = tracer
                tracer.install()
            request(result)
            tracer.uninstall()
            result.tracer = None
    traced_s = sum(sum(v) for kind, v in result.samples.items() if kind.startswith(TRACED))
    untraced_s = sum(sum(v) for kind, v in result.samples.items() if not kind.startswith(TRACED))
    result.metrics["trace.overhead_s"] = traced_s - untraced_s
    result.metrics["trace.overhead_share"] = (traced_s - untraced_s) / untraced_s


def check_setup(result: Result, lib, completion, name: str) -> dict:
    """Check a set-up completion like any output; returns its rules."""
    system = lib.completion.system_to_json(completion)
    problem = checks.check_system(system, inputs.initial_rules(inputs.TEXTS[name]),
                                  inputs.parse_relations(inputs.TEXTS[name])[0], inputs.ORDERS[name])
    result.attempted += 1
    if problem:
        result.failed += 1
        result.errors.append(f"setup: {problem}")
    return checks.system_rules(system)


def generator_base_words(text: str) -> dict:
    """Generator id -> base word, from the JSON of `endos --json`."""
    return {g["id"]: inputs.word(g["base_word"]) for g in json.loads(text)["generators"]}


def same_as_first(first: dict, key: str, text: str, full_check):
    """Full check of the first output under key; later ones must be byte-identical."""
    digest = hashlib.sha256(text.encode()).hexdigest()
    if key in first:
        return None if first[key] == digest else "output differs from the first one"
    problem = full_check()
    if problem is None:
        first[key] = digest
    return problem


# ---------------------------------------------------------------------------
# kb_ladder


def kb_ladder(seed: int, seconds: float, tracer: Tracer | None) -> Result:
    result = Result(speed=HostSpeed(scaled=tracer is None))
    lib, _, result.metrics["setup_s"] = load(result.speed)
    order = [name for name, _, _ in inputs.LADDER]
    random.Random(seed).shuffle(order)
    first: dict = {}

    def complete(rec: Result, name: str):
        text = inputs.TEXTS[name]

        def work():  # as `complete --json`
            presentation = lib.core.parse_presentation(text)
            init = lib.engine.system_from_presentation(presentation)
            return dumps(lib.completion.system_to_json(lib.completion.logged_knuth_bendix(init))), None

        def check(out, _):
            return same_as_first(first, name, out, lambda: checks.check_system(
                json.loads(out), inputs.initial_rules(text), inputs.parse_relations(text)[0],
                inputs.ORDERS[name]))

        return rec.op(name, work, check)

    if tracer is not None:
        traced_twice([lambda rec, n=n: complete(rec, n) for n in order], tracer, result)
        return result
    passes = []
    for _ in range(count(seconds, LADDER_PASSES_PER_S)):
        done = [complete(result, name) for name in order]
        if all(done):
            passes.append(sum(d[2] for d in done))
    # The groups' times differ by orders of magnitude, so the statistics are
    # taken over the groups, each by the median of its passes.
    per_group = [p50(result.samples[name]) for name in order if result.samples.get(name)]
    result.metrics.update(
        peak_rss_mib=peak_rss_mib(),
        p50_ms=p50(ms(per_group)),
        tail_ms=max(ms(per_group), default=0.0),
        batch_s=p50(passes),
    )
    result.samples["pass"] = passes
    result.named["complete_s"] = (result.metrics["batch_s"], "s")
    return result


# ---------------------------------------------------------------------------
# certify


def certify(seed: int, seconds: float, tracer: Tracer | None) -> Result:
    result = Result(speed=HostSpeed(scaled=tracer is None))
    text = inputs.TEXTS["S5"]
    letters = inputs.parse_relations(text)[0]
    initial = inputs.initial_rules(text)
    rels = inputs.relators(text)
    lib, (init, completion), result.metrics["setup_s"] = load(result.speed, completed(text))
    rules = check_setup(result, lib, completion, "S5")
    system = completion.system
    core, engine, twocell = lib.core, lib.engine, lib.twocell

    def nf(rec, w):
        rec.op("nf", lambda: (core.word_to_str(engine.normal_form(w, system)), None),
               lambda out, _: None if inputs.word(out) == checks.normal_form(w, rules)
               else "wrong normal form")

    def prove(rec, kind, w1, w2, equal):
        def work():  # as `prove --expand --json`
            outcome = engine.prove(w1, w2, system)
            if outcome is engine.Verdict.NOT_EQUAL:
                return outcome.value, None
            cell = engine.expand_log(outcome, system)
            data = twocell.cell_to_json(cell)
            data["target"] = core.word_to_str(twocell.target(cell, system.rule_map))
            return dumps(data), None

        def check(out, _):
            if not equal:
                return None if out == engine.Verdict.NOT_EQUAL.value else "unequal words proved equal"
            return checks.check_certificate(json.loads(out), w1, w2, initial)

        done = rec.op(kind, work, check)
        if done is not None and equal:
            verify(rec, "verify" if kind == "prove" else "verify_long", done[0])

    def verify(rec, kind, certificate):
        def work():  # as `logrew verify`: parse the JSON, replay on the initial rules
            data = json.loads(certificate)
            cell = twocell.cell_from_json(data)
            if twocell.validate(cell, init.rule_map) is not None:
                return "invalid", None
            reached = twocell.target(cell, init.rule_map)
            if core.word_from_str(data["target"]) != reached:
                return "invalid", None
            return f"ok: {core.word_to_str(cell.source)} -> {core.word_to_str(reached)}", None

        rec.op(kind, work, lambda out, _: None if out.startswith("ok:") else "valid certificate rejected")

    pairs, length, long_seed = LONG_CLASS
    long_rng = random.Random(long_seed)
    long_pairs = [inputs.word_pair(long_rng, letters, rels, length, True) for _ in range(pairs)]
    rng = random.Random(seed)

    def short_requests(pairs: int):
        for n in range(pairs):
            length, equal = SHORT_LENGTHS[n % len(SHORT_LENGTHS)], n % 4 != 3
            yield "nf", inputs.random_word(rng, letters, length), None
            yield "prove", inputs.word_pair(rng, letters, rels, length, equal), equal

    def serve(rec, requests):
        for kind, arg, equal in requests:
            if kind == "nf":
                nf(rec, arg)
            else:
                prove(rec, "prove", *arg, equal)

    if tracer is not None:
        requests = [lambda rec, p=p: prove(rec, "prove_long", *p, True) for p in long_pairs]
        requests += [lambda rec, r=r: serve(rec, [r]) for r in short_requests(75)]
        traced_twice(requests, tracer, result)
        return result
    for w1, w2 in long_pairs:
        prove(result, "prove_long", w1, w2, True)
    serve(result, short_requests(count(seconds, SHORT_PAIRS_PER_S, SHORT_MIX)))
    s = result.samples
    result.metrics.update(
        peak_rss_mib=peak_rss_mib(),
        p50_ms=p50(ms(s.get("prove", []))),
        tail_ms=tail(ms(s.get("prove", []))),
        batch_s=p50(s.get("prove_long", [])),
    )
    result.named.update(
        nf_p50_ms=(p50(ms(s.get("nf", []))), "ms"),
        prove_p50_ms=(result.metrics["p50_ms"], "ms"),
        prove_tail_ms=(result.metrics["tail_ms"], "ms"),
        prove_long_s=(result.metrics["batch_s"], "s"),
        verify_p50_ms=(p50(ms(s.get("verify", []))), "ms"),
    )
    return result


# ---------------------------------------------------------------------------
# endos


def endos(seed: int, seconds: float, tracer: Tracer | None) -> Result:
    result = Result(speed=HostSpeed(scaled=tracer is None))
    text = inputs.TEXTS["triangle_r5"]
    letters = inputs.parse_relations(text)[0]
    lib, (init, completion), result.metrics["setup_s"] = load(result.speed, completed(text))
    rules = check_setup(result, lib, completion, "triangle_r5")
    twocell, endo = lib.twocell, lib.endorewrites
    first: dict = {}
    generated = []  # the latest generator set only, so that old ones add nothing to peak RSS
    base_words: dict = {}  # generator id -> base word, from the output of `endos --json`

    def generate(rec):
        def work():  # as `endos --json`
            gens = endo.generate(completion, init)
            return dumps(endo.generator_set_to_json(gens)), gens

        def check(out, _):
            return same_as_first(first, "generate", out, lambda: next(
                (f"{g['id']}: {p}" for g in json.loads(out)["generators"]
                 if (p := checks.check_loop(g["cell"], rules))), None))

        done = rec.op("generate", work, check)
        if done is not None:
            generated[:] = [done[1]]
            base_words.update(generator_base_words(done[0]))

    def express(rec, loop):
        def work():  # as `express --json`
            decomposition = endo.express(twocell.cell_from_json(loop), generated[-1])
            return dumps(endo.decomposition_to_json(decomposition)), decomposition

        def check(out, decomposition):
            source = inputs.word(loop["source"])
            problem = checks.check_decomposition(json.loads(out), source, base_words, rules)
            if problem:
                return problem
            # In process the factors' exact cells are at hand too: each is a
            # loop at the base, and together they multiply out to the input.
            product = []
            for factor in decomposition.factors:
                steps = [(s.prefix, s.rule, s.exp, s.suffix) for s in factor.cell.steps]
                if checks.replay(source, steps, rules) != source:
                    return "a factor is not a loop at the base"
                product += steps
            if checks.free_reduce(product) != checks.free_reduce(checks.steps_of(loop)):
                return "factors do not multiply out to the input"
            return None

        rec.op("express", work, check)

    rng = random.Random(seed)

    def loops():
        for walk in itertools.cycle(LOOP_WALKS):
            base, steps = inputs.random_loop(rng, letters, rules, walk, LOOP_MAX_LENGTH)
            yield inputs.cell_json(base, steps)

    if tracer is not None:
        requests = [generate] + [lambda rec, lp=lp: express(rec, lp) for lp in itertools.islice(loops(), 120)]
        traced_twice(requests, tracer, result)
        return result
    for _ in range(GENERATE_REPEATS):
        generate(result)
    if generated:
        for loop in itertools.islice(loops(), count(seconds, LOOPS_PER_S, len(LOOP_WALKS))):
            express(result, loop)
    s = result.samples
    result.metrics.update(
        peak_rss_mib=peak_rss_mib(),
        p50_ms=p50(ms(s.get("express", []))),
        tail_ms=tail(ms(s.get("express", []))),
        batch_s=p50(s.get("generate", [])),
    )
    result.named.update(
        generate_s=(result.metrics["batch_s"], "s"),
        express_p50_ms=(result.metrics["p50_ms"], "ms"),
        express_tail_ms=(result.metrics["tail_ms"], "ms"),
    )
    return result


# ---------------------------------------------------------------------------
# cli_cold


def cli_cold(seed: int, seconds: float, tracer: Tracer | None, workdir: Path) -> Result:
    result = Result(speed=ChildSpeed() if tracer is None else HostSpeed(scaled=False))
    name = "S4"
    text = inputs.TEXTS[name]
    letters = inputs.parse_relations(text)[0]
    initial = inputs.initial_rules(text)
    rels = inputs.relators(text)
    lib, _, result.metrics["setup_s"] = load(HostSpeed(scaled=tracer is None))  # in process
    _, completion = completed(text)(lib)
    rules = check_setup(result, lib, completion, name)
    src = Path(lib.core.__file__).resolve().parents[1]
    env = {"PATH": os.environ.get("PATH", "/usr/bin:/bin"), "PYTHONPATH": str(src)}
    presentation = workdir / "presentation.txt"
    presentation.write_text(text, encoding="utf-8")
    rng = random.Random(seed)
    first: dict = {}
    base_words: dict = {}  # generator id -> base word, from the output of `endos`

    def child(argv):
        """Run `python -m logrew.cli argv` cold; returns (exit code, stdout, stderr)."""
        proc = subprocess.run([sys.executable, "-m", "logrew.cli", *argv], capture_output=True,
                              env=env, cwd=workdir, timeout=CHILD_TIMEOUT_S, text=True)
        return proc.returncode, proc.stdout, proc.stderr

    def in_process(argv):
        """The same command through cli.main in this process."""
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = lib.cli.main(argv)
            except Exception:  # an escaped exception is what a child prints as a traceback
                traceback.print_exc()
                code = -1
        return code, out.getvalue(), err.getvalue()

    def cycle_commands():
        """One cycle: (kind, argv, check of stdout); the certificate and loop
        files are written before the commands that read them."""
        f = str(presentation)
        w = inputs.random_word(rng, letters, rng.randint(8, 64))
        r = inputs.random_word(rng, letters, rng.randint(8, 32))
        w1, w2 = inputs.word_pair(rng, letters, rels, rng.randint(8, 32), True)
        base, steps = inputs.random_loop(rng, letters, rules, 12, LOOP_MAX_LENGTH)
        loop = inputs.cell_json(base, steps)
        (workdir / "loop.json").write_text(json.dumps(loop), encoding="utf-8")
        certificate = workdir / "certificate.json"

        def system_ok(out):
            return same_as_first(first, "complete", out, lambda: checks.check_system(
                json.loads(out), initial, letters, inputs.ORDERS[name]))

        def reduce_ok(out):
            return checks.check_certificate(json.loads(out), r, checks.normal_form(r, rules), initial)

        def prove_ok(out):
            certificate.write_text(out, encoding="utf-8")
            return checks.check_certificate(json.loads(out), w1, w2, initial)

        def endos_ok(out):
            problem = same_as_first(first, "endos", out, lambda: next(
                (f"{g['id']}: {p}" for g in json.loads(out)["generators"]
                 if (p := checks.check_loop(g["cell"], rules))), None))
            if problem is None:
                base_words.update(generator_base_words(out))
            return problem

        def express_ok(out):
            return checks.check_decomposition(json.loads(out), base, base_words, rules)

        return [
            ("complete", ["complete", f, "--json"], system_ok),
            ("nf", ["nf", f, inputs.text_of(w)],
             lambda out: None if inputs.word(out) == checks.normal_form(w, rules) else "wrong normal form"),
            ("reduce", ["reduce", f, inputs.text_of(r), "--expand", "--json"], reduce_ok),
            ("prove", ["prove", f, inputs.text_of(w1), inputs.text_of(w2), "--expand", "--json"], prove_ok),
            ("verify", ["verify", f, str(certificate)],
             lambda out: None if out.startswith("ok:") else "valid certificate rejected"),
            ("endos", ["endos", f, "--json"], endos_ok),
            ("express", ["express", f, str(workdir / "loop.json"), "--json"], express_ok),
        ]

    def command(rec, run, kind, argv, check):
        """One command; a traceback or an undocumented exit code is a failure."""
        def verdict(out, status):
            code, err = status
            if code != 0 or "Traceback" in err:
                last = err.strip().splitlines()
                return f"exit {code}: {last[-1] if last else ''}"
            return check(out)

        def work():
            code, out, err = run(argv)
            return out, (code, err)

        return rec.op(kind, work, verdict)

    probe = ["complete", str(presentation), "--interreduce"]

    def run_probe(run) -> bool:
        """`complete --interreduce` must exit 0 without a traceback."""
        code, _, err = run(probe)
        return code == 0 and "Traceback" not in err

    if tracer is not None:
        startup = []
        for _ in range(SETUP_REPEATS):
            t0 = perf_counter()
            subprocess.run([sys.executable, "-c", "import logrew.cli"], env=env, check=True)
            t1 = perf_counter()
            subprocess.run([sys.executable, "-c", "pass"], env=env, check=True)
            startup.append((t1 - t0) - (perf_counter() - t1))
        stdout_bytes = {}

        def request(rec, kind, argv, check):
            done = command(rec, in_process, kind, argv, check)
            stdout_bytes[kind] = len(done[0].encode()) if done else 0

        traced_twice([lambda rec, c=c: request(rec, *c) for c in cycle_commands()], tracer, result)
        tracer.install()
        probe_failed = not run_probe(in_process)
        tracer.uninstall()
        result.metrics.update({
            "cli.startup_ms": statistics.median(startup) * 1000,
            "cli.stdout_bytes": sum(stdout_bytes.values()),
            "cli.interreduce_probe.failures": int(probe_failed),
        })
        return result

    cycles, probes, probes_failed = [], 0, 0
    for _ in range(count(seconds, CYCLES_PER_S)):
        done = [command(result, child, *c) for c in cycle_commands()]
        if all(done):
            cycles.append(sum(d[2] for d in done))
        probes += 1
        probes_failed += not run_probe(child)
    per_command = [v for kind in ("complete", "nf", "reduce", "prove", "verify", "endos", "express")
                   for v in result.samples.get(kind, [])]
    result.metrics.update(
        peak_rss_mib=peak_rss_mib(resource.RUSAGE_CHILDREN),
        p50_ms=p50(ms(per_command)),
        tail_ms=tail(ms(per_command)),
        batch_s=p50(cycles),
    )
    result.samples["cycle"] = cycles
    result.named.update(
        cli_p50_ms=(result.metrics["p50_ms"], "ms"),
        cli_tail_ms=(result.metrics["tail_ms"], "ms"),
    )
    result.notes["interreduce_probe"] = {"attempted": probes, "failed": probes_failed}
    return result
