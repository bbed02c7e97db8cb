"""One heatconf CLI run inside a benchmark child process.

    python3 benchmarks/child.py STATS MARKER TRACE RUN_ID -- CLI_ARGS...

Calls `heatconf.cli.main(CLI_ARGS)` and writes STATS (JSON): the exit code,
the monotonic clock at spawn (from BENCH_SPAWN_NS, set by the parent just
before it starts this process), at the first call into the workload's main
loop (MARKER), and after `report.json` was written, plus peak RSS.  With
TRACE=1 it first wraps the heatconf modules (see tracing.py) and adds the
spans.  Thread pools are pinned by the parent through the environment.
"""
from __future__ import annotations

import importlib
import json
import os
import resource
import sys
import time
from pathlib import Path

from tracing import LAYERS, Tracer

# workload main loops: their first call ends set-up
MARKERS = {
    "quadratic": ("perturb", "ConformalSolver", "quadratic"),
    "pullback": ("embedding", "EmbeddingMap", "pullback_on"),
    "check": ("acceptance", None, "ALL_CHECKS"),
}


def _first_call(fn, stats):
    def marked(*args, **kwargs):
        if stats["first_loop_ns"] is None:
            stats["first_loop_ns"] = time.monotonic_ns()
        return fn(*args, **kwargs)
    return marked


def _after(fn, stats):
    def marked(*args, **kwargs):
        out = fn(*args, **kwargs)
        stats["report_end_ns"] = time.monotonic_ns()
        return out
    return marked


def main(argv: list[str]) -> int:
    stats_path, marker, trace, run_id = argv[:4]
    cli_args = argv[5:] if argv[4:5] == ["--"] else argv[4:]
    stats = {"rc": None, "spawn_ns": int(os.environ["BENCH_SPAWN_NS"]),
             "first_loop_ns": None, "report_end_ns": None, "run_id": run_id}
    layer, cls, name = MARKERS[marker]
    # untraced runs import only what the CLI command itself would import
    needed = LAYERS if trace == "1" else ("cli", layer)
    modules = {m: importlib.import_module(f"heatconf.{m}") for m in needed}
    src = Path(os.environ["BENCH_SRC"]).resolve()
    if src not in Path(modules["cli"].__file__).resolve().parents:
        print(f"heatconf imported from {modules['cli'].__file__}, expected {src}",
              file=sys.stderr)
        return 2
    tracer = Tracer(run_id) if trace == "1" else None
    if tracer:
        tracer.install(modules)
    if cls is None:
        registry = getattr(modules[layer], name)
        for key, fn in registry.items():
            registry[key] = _first_call(fn, stats)
    else:
        owner = getattr(modules[layer], cls)
        setattr(owner, name, _first_call(getattr(owner, name), stats))
    modules["cli"]._report = _after(modules["cli"]._report, stats)
    main_ns = time.monotonic_ns()
    try:
        stats["rc"] = modules["cli"].main(cli_args)
    finally:
        stats["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if tracer:
            tracer.span("startup", stats["spawn_ns"], main_ns)
            stats["spans"] = tracer.records()
        with open(stats_path, "w") as fh:
            json.dump(stats, fh)
    return stats["rc"]


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
