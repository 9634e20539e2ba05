"""Per-layer tracing from outside the package.

The tracer replaces public functions of the ``logrew`` modules by wrappers
in every namespace that binds them (the defining module, modules that
imported the name, the package), so calls between modules are caught too.
Each call becomes a span (name, start, end, parent span, request id) kept
in columns in memory and written out once at the end.  A layer's self time
is its span's duration minus the time its child spans cover.

Per-step helpers called millions of times (``twocell.step_io``,
``step_source``, ``step_target``, ``engine.apply_step``) are not wrapped:
their time counts in the caller's self time.
"""

from __future__ import annotations

import functools
import gzip
import sys
from array import array
from collections import defaultdict
from time import perf_counter


def _first(args, kwargs):
    return args[0] if args else next(iter(kwargs.values()))


def _find_redexes(tracer, stat, arg, result):
    stat["letters"] += len(arg)
    stat["hits"] += len(result)
    stat["calls_with_hit"] += bool(result)


def _steps_out(tracer, stat, arg, result):
    stat["steps"] += len(result.steps)


def _expand_log(tracer, stat, arg, result):
    stat["steps_in"] += len(arg.steps)
    stat["steps_out"] += len(result.steps)


def _target(tracer, stat, arg, result):
    stat["steps"] += len(arg.steps)
    if tracer.depth.get("endorewrites.express"):
        tracer.stats["endorewrites.express"]["replayed_steps"] += len(arg.steps)


def _knuth_bendix(tracer, stat, arg, result):
    stat["rules_out"] += len(result.system.rules)


def _find_overlaps(tracer, stat, arg, result):
    stat["overlaps"] += len(result)


def _resolve(tracer, stat, arg, result):
    stat["new_rules"] += hasattr(result, "rule")


def _generate(tracer, stat, arg, result):
    records = list(result.origin_index.values())
    stat["records"] += len(records)
    stat["trivial"] += sum(getattr(r, "gid", None) is None for r in records)
    stat["generators"] += len(result.generators)


def _express(tracer, stat, arg, result):
    stat["input_steps"] += len(arg.steps)
    stat["factors"] += len(result.factors)
    stat["trivial_factors"] += sum(f.gen is None for f in result.factors)


# Wrapped functions and what each wrapper counts besides calls and self time.
# The serialisers and compose_all are wrapped so that their time leaves
# their callers' self time; cmd_* are not, so cli.main's self time is all
# of the command line layer's own work.
LAYERS = {
    "core.parse_presentation": None,
    "core.word_from_str": None,
    "engine.find_redexes": _find_redexes,
    "engine.reduce_logged": _steps_out,
    "engine.normal_form": None,
    "engine.prove": None,
    "engine.expand_log": _expand_log,
    "twocell.target": _target,
    "twocell.compose": None,
    "twocell.compose_all": None,
    "twocell.invert": None,
    "twocell.free_reduce": None,
    "twocell.interchange_normalize": None,
    "twocell.validate": None,
    "twocell.cell_to_json": None,
    "twocell.cell_from_json": None,
    "completion.logged_knuth_bendix": _knuth_bendix,
    "completion.find_overlaps": _find_overlaps,
    "completion.resolve": _resolve,
    "completion.interreduce": None,
    "completion.system_to_json": None,
    "endorewrites.generate": _generate,
    "endorewrites.conjugacy_reduce": None,
    "endorewrites.express": _express,
    "endorewrites.generator_set_to_json": None,
    "endorewrites.decomposition_to_json": None,
    "cli.main": None,
}

# ratio metric -> (numerator counter, denominator counter) of one layer
RATIOS = {
    "engine.find_redexes.useful_ratio": ("calls_with_hit", "hits"),
    "engine.expand_log.growth": ("steps_out", "steps_in"),
    "completion.resolve.useful_ratio": ("new_rules", "calls"),
    "endorewrites.generate.useful_ratio": ("generators", "records"),
    "endorewrites.express.replay_ratio": ("replayed_steps", "input_steps"),
}


class Tracer:
    def __init__(self):
        self.request = 0
        self.kind = ""
        self.names: list[str] = []
        self.stats: dict[str, dict] = {}
        self.self_by_kind: dict[str, dict] = defaultdict(lambda: defaultdict(float))
        self.bindings: list[tuple] = []  # (module, attribute, original, wrapper)
        self.depth: dict[str, int] = {}
        self.absent: list[str] = []
        self.stack: list[list] = []  # [span id, seconds covered by children]
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.requests = array("q")
        self.origin = perf_counter()

    def install(self) -> None:
        """Wrap every function of LAYERS in every loaded logrew module."""
        if not self.bindings and not self.absent:
            self._bind()
        for module, name, _, wrapper in self.bindings:
            setattr(module, name, wrapper)

    def uninstall(self) -> None:
        for module, name, original, _ in self.bindings:
            setattr(module, name, original)

    def _bind(self) -> None:
        modules = [m for n, m in sys.modules.items() if n == "logrew" or n.startswith("logrew.")]
        for qualified, counter in LAYERS.items():
            module_name, attr = qualified.split(".")
            fn = getattr(sys.modules.get("logrew." + module_name), attr, None)
            if fn is None:
                self.absent.append(qualified)
                continue
            wrapper = self._wrap(qualified, fn, counter)
            self.bindings += [(module, name, fn, wrapper) for module in modules
                              for name, value in vars(module).items() if value is fn]

    def _wrap(self, qualified, fn, counter):
        index = len(self.names)
        self.names.append(qualified)
        stat = self.stats[qualified] = defaultdict(int, calls=0, self_s=0.0)
        self.depth[qualified] = 0
        stack, depth = self.stack, self.depth

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = len(self.start)
            frame = [span, 0.0]
            self.name.append(index)
            self.parent.append(stack[-1][0] if stack else -1)
            self.requests.append(self.request)
            self.end.append(0.0)
            stack.append(frame)
            depth[qualified] += 1
            self.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                depth[qualified] -= 1
                stack.pop()
                self.end[span] = t1
                took = t1 - self.start[span]
                stat["calls"] += 1
                stat["self_s"] += took - frame[1]
                self.self_by_kind[self.kind][qualified] += took - frame[1]
                if stack:
                    stack[-1][1] += took
            if counter is not None:
                counter(self, stat, _first(args, kwargs), result)
            return result

        return wrapper

    def layer_metrics(self) -> dict[str, float]:
        """Every per-layer metric the spans give, by name; layers never called read 0."""
        values: dict[str, float] = {}
        for qualified, stat in self.stats.items():
            for key, value in stat.items():
                values[f"{qualified}.{key}"] = value
        for metric, (num, den) in RATIOS.items():
            layer = metric.rsplit(".", 1)[0]
            stat = self.stats.get(layer, {})
            values[metric] = stat[num] / stat[den] if stat.get(den) else 0.0
        values["trace.absent_functions"] = len(self.absent)
        return values

    def write_spans(self, path) -> None:
        """All spans as gzip CSV, times in seconds from the tracer's creation."""
        with gzip.open(path, "wt", encoding="utf-8") as out:
            out.write("span,name,start_s,end_s,parent,request\n")
            for span in range(len(self.start)):
                out.write(f"{span},{self.names[self.name[span]]},{self.start[span] - self.origin:.7f},"
                          f"{self.end[span] - self.origin:.7f},{self.parent[span]},{self.requests[span]}\n")
