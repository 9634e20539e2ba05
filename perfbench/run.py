#!/usr/bin/env python3
"""Benchmark of logrew: four seeded workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload certify --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

The package is imported from ``src/`` (the children of ``cli_cold`` get
the same path in ``PYTHONPATH``).  With ``--trace 0`` the end-to-end
metrics are measured untraced; with ``--trace 1`` a separate run wraps the
package's public functions and reports the per-layer metrics.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Each run also writes a record
(raw samples, output digests, Python version, nproc) and, when traced,
its spans under ``perfbench/results/``.  See ``perfbench/README.md`` for
what each metric means on each workload.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
HASH_SEED = "0"


def spec() -> dict:
    """BENCHMARK.json: the workload names and the metrics each mode prints."""
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def parse_args(argv, names):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*names, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_all(args, names) -> int:
    """Every workload in its own process, one after another."""
    results, ok = {}, True
    for workload in names:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False,
        )
        lines = proc.stdout.strip().splitlines()
        results[workload] = json.loads(lines[-1]) if proc.returncode in (0, 1) and lines else None
        ok = ok and proc.returncode == 0
    print(json.dumps(results))
    return 0 if ok else 1


def main(argv=None) -> int:
    benchmark = spec()
    names = [w["name"] for w in benchmark["workloads"]]
    args = parse_args(argv, names)
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED or sys.dont_write_bytecode:
        # The same dict and set layouts in every run remove one source of
        # run-to-run spread; the program's outputs do not depend on it.
        # Bytecode caches are written, as cli_cold's children write them,
        # so that every import after the first in a checkout reads them.
        env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
        os.execve(sys.executable, [sys.executable, *sys.argv], {**env, "PYTHONHASHSEED": HASH_SEED})
    if not (SRC / "logrew" / "__init__.py").is_file():
        print(f"perfbench: no package at {SRC / 'logrew'}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args, names)
    sys.path[:0] = [str(SRC), str(ROOT)]
    from perfbench import workloads
    from perfbench.tracer import Tracer

    results_dir = HERE / "results"
    results_dir.mkdir(exist_ok=True)
    tracer = Tracer() if args.trace else None
    run = getattr(workloads, args.workload)
    if args.workload == "cli_cold":
        with tempfile.TemporaryDirectory(dir=results_dir) as workdir:
            result = run(args.seed, args.seconds, tracer, Path(workdir))
    else:
        result = run(args.seed, args.seconds, tracer)

    if tracer is not None:
        measured, specs = {**tracer.layer_metrics(), **result.metrics}, benchmark["per_layer"]
    else:
        measured, specs = result.metrics, benchmark["end_to_end"]
    metrics = {m["name"]: {"value": measured.get(m["name"], 0), "unit": m["unit"]} for m in specs}
    correct = result.failed == 0

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if tracer is not None:
        tracer.write_spans(results_dir / f"{stem}.spans.csv.gz")
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": sys.version,
        "nproc": len(os.sched_getaffinity(0)),
        "correct": correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "errors": result.errors[:50],
        "metrics": metrics,
        "named": {name: {"value": v, "unit": u} for name, (v, u) in result.named.items()},
        "notes": result.notes,
        "absent": tracer.absent if tracer is not None else [],
        "self_s_by_kind": {k: dict(v) for k, v in tracer.self_by_kind.items()} if tracer else {},
        "samples_s": result.samples,
        "wall_s": result.wall,
        "reference_s": result.speed.history,
        "output_sha256": result.digests,
    }
    (results_dir / f"{stem}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")

    summary = {**{n: (m["value"], m["unit"]) for n, m in metrics.items()}, **result.named}
    for name, (value, unit) in summary.items():
        print(f"{args.workload:10} {name:42} {value:14.6g} {unit}", file=sys.stderr)
    for key, value in result.notes.items():
        print(f"{args.workload:10} {key}: {value}", file=sys.stderr)
    for line in result.errors[:10]:
        print(f"{args.workload:10} FAILED {line}", file=sys.stderr)
    if tracer is not None:
        for kind, layers in sorted(tracer.self_by_kind.items()):
            top = max(layers, key=layers.get)
            print(f"{args.workload:10} largest self time in {kind}: {top} {layers[top]:.6g} s",
                  file=sys.stderr)
        if tracer.absent:
            print(f"{args.workload:10} absent: {', '.join(tracer.absent)}", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": result.attempted,
                      "failed": result.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
