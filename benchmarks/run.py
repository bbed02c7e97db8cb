"""heatconf benchmark: end-to-end and per-layer metrics of three CLI workloads.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 benchmarks/run.py --workload all            # every workload, one command
    python3 benchmarks/run.py --self-test

Run from the repository root.  Every repetition starts fresh processes that
call `heatconf.cli.main` (through benchmarks/child.py) with a config generated
from the seed, with the numerical thread pools pinned through the child's
environment.  The parent and its children share one CPU, and every 0.25 s
the parent stops the child to time a fixed probe kernel (probe.py); times are
reported with the stopped intervals removed and scaled to the probe's nominal
host speed.  Repetitions run until the next one would overrun --seconds
(at least two; with --trace 1, pairs of one untraced and one traced run).
Every report is checked against reference.json and against the first
repetition's report.  The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}; the metrics are the
end-to-end ones with --trace 0 and the per-layer ones with --trace 1.
The exit code is 1 when any output check failed and 2 on a usage error.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

THREADS = 1                     # pinned BLAS/OpenMP threads in every child and the probe
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(THREADS)     # before numpy is first imported

import tracing
from probe import NOMINAL_BATCH_S, Probe, child_cpu, stop_free_clock
from workloads import WORKLOADS, stable_report

BENCH_DIR = Path(__file__).resolve().parent
MIN_REPS = 2                    # repetitions behind every median, at least
RUN_LIMIT_S = 150.0             # no repetition starts that could end past this
SELF_SHARE_TOL = 0.02           # traced self times must sum to wall_s within this share
END_TO_END = {"wall_s": "s", "setup_s": "s", "compute_s": "s", "peak_rss_mb": "MB",
              "ok_frac": "ratio"}


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(), "threads": THREADS,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}"}


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["BENCH_SRC"] = src
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(THREADS)
    env.pop("HEATCONF_OUT", None)
    return env


def start_probe() -> Probe:
    """Pin this process, and so every child it starts, to one CPU; warm the probe."""
    os.sched_setaffinity(0, child_cpu())
    return Probe()


def run_invocation(inv, rep_dir: Path, seed: int, traced: bool, env: dict,
                   deadline: float, probe: Probe) -> dict:
    cfg_path = rep_dir / f"{inv.label}.config.json"
    stats_path = rep_dir / f"{inv.label}.stats.json"
    log_path = rep_dir / f"{inv.label}.log"
    cfg_path.write_text(json.dumps(inv.config, indent=2))
    cmd = [sys.executable, str(BENCH_DIR / "child.py"), str(stats_path), inv.marker,
           "1" if traced else "0", f"{rep_dir.name}/{inv.label}", "--",
           "--config", str(cfg_path), "--out", str(rep_dir / inv.label),
           "--seed", str(seed), inv.command]
    env = dict(env, BENCH_SPAWN_NS=str(time.monotonic_ns()))
    with open(log_path, "w") as log:
        proc = subprocess.Popen(cmd, env=env, stdout=log, stderr=subprocess.STDOUT)
        probed = probe.interleave(proc, max(time.monotonic() + 5.0, deadline))
    rc = None if probed["timed_out"] else proc.returncode
    err = "timed out" if probed["timed_out"] else log_path.read_text(errors="replace")
    # host speed during this run, relative to the probe's nominal speed
    scale = NOMINAL_BATCH_S / probed["batch_s"] if probed["batch_s"] else 1.0
    out = {"label": inv.label, "rc": rc, "stderr": err[-2000:], "report": None,
           "probe_batch_s": probed["batch_s"]}
    if stats_path.is_file():
        stats = json.loads(stats_path.read_text())
        spawn = stats["spawn_ns"]
        stop_free = stop_free_clock(probed["stops"])

        def clock(t: int) -> int:
            """Host-speed-scaled ns since spawn, stopped intervals removed."""
            return round((stop_free(t) - stop_free(spawn)) * scale)
        end = stats["report_end_ns"]
        if end is not None:
            first = stats["first_loop_ns"] or end
            out.update(wall_s=clock(end) * 1e-9, setup_s=clock(first) * 1e-9,
                       raw_wall_s=(stop_free(end) - stop_free(spawn)) * 1e-9)
        out["rss_mb"] = stats["maxrss_kb"] / 1024.0
        out["spans"] = stats.get("spans")
        for span in out["spans"] or ():
            span["start_ns"], span["end_ns"] = clock(span["start_ns"]), clock(span["end_ns"])
    report = rep_dir / inv.label / "report.json"
    if report.is_file():
        out["report"] = report.read_text()
    return out


def run_rep(workload, seed: int, traced: bool, rep_dir: Path, env: dict,
            deadline: float, probe: Probe) -> dict:
    rep_dir.mkdir(parents=True)
    runs = [run_invocation(inv, rep_dir, seed, traced, env, deadline, probe)
            for inv in workload.invocations(seed)]
    rep = {"traced": traced, "runs": runs}
    if all("wall_s" in r for r in runs):
        rep["raw_wall_s"] = sum(r["raw_wall_s"] for r in runs)
        rep["wall_s"] = sum(r["wall_s"] for r in runs)
        rep["setup_s"] = sum(r["setup_s"] for r in runs)
        rep["compute_s"] = rep["wall_s"] - rep["setup_s"]
        rep["peak_rss_mb"] = max(r["rss_mb"] for r in runs)
    if traced and all(r.get("spans") for r in runs):
        spans = [r["spans"] for r in runs]
        rep["layers"] = tracing.aggregate(spans)
        rep["self_s"] = tracing.self_seconds(spans)
    return rep


def check_rep(workload, rep: dict, reference: dict, first: dict | None) -> list:
    """Operations of one repetition: (name, errors) pairs."""
    ops = []
    for run in rep["runs"]:
        count = workload.ops_per_invocation[run["label"]]
        if run["rc"] != 0 or run["report"] is None:
            msg = f"exit code {run['rc']}: {run['stderr'].strip()[-300:]}"
            ops += [(f"{run['label']} op {i}", [msg]) for i in range(count)]
            continue
        results = json.loads(run["report"])["results"]
        try:
            checked = workload.check(run["label"], results, reference[run["label"]])
        except (KeyError, TypeError, IndexError) as exc:
            checked = []
            ops += [(f"{run['label']} op {i}", [f"malformed report: {exc!r}"])
                    for i in range(count)]
        if first is not None and checked:
            base = next(r for r in first["runs"] if r["label"] == run["label"])
            if base["report"] is not None and \
                    stable_report(base["report"]) != stable_report(run["report"]):
                checked[0].errors.append("report.json differs from repetition 0")
        ops += [(op.name, op.errors) for op in checked]
    return ops


def median(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def run_workload(name: str, seed: int, seconds: float, trace: bool, root: Path,
                 reference: dict, env_info: dict, probe: Probe) -> dict:
    workload = WORKLOADS[name]
    ref = reference[name][workload.variant(seed)]
    run_dir = root / ".benchrun" / f"{name}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(run_dir, ignore_errors=True)
    env = child_env(root)
    # warm the file cache for the interpreter and the imports before timing
    subprocess.run([sys.executable, "-c", "import " + ", ".join(
        f"heatconf.{m}" for m in tracing.LAYERS)], env=env, check=True, timeout=60)
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S + 25.0
    # one unit is a repetition, or with tracing a pair of one untraced and one
    # traced repetition; pairs alternate their order, since the first
    # repetition of a run tends to be slower
    kinds = [False, True] if trace else [False]
    reps, ops = [], []
    while True:
        for traced in (kinds if len(reps) % 4 == 0 else kinds[::-1]):
            rep = run_rep(workload, seed, traced, run_dir / f"rep{len(reps)}", env, deadline,
                          probe)
            ops += check_rep(workload, rep, ref, reps[0] if reps else None)
            reps.append(rep)
        elapsed = time.monotonic() - start
        unit = elapsed / (len(reps) / len(kinds))
        if len(reps) >= MIN_REPS and elapsed + unit > min(seconds, RUN_LIMIT_S):
            break
    failed = [(n, e) for n, e in ops if e]
    untraced = [r for r in reps if not r["traced"]]
    e2e = {k: median(r.get(k) for r in untraced)
           for k in ("wall_s", "setup_s", "compute_s", "peak_rss_mb")}
    e2e["ok_frac"] = (len(ops) - len(failed)) / len(ops)
    result = {"workload": name, "seed": seed, "variant": workload.variant(seed),
              "trace": int(trace), "environment": env_info, "reps": len(reps),
              "attempted": len(ops), "failed": len(failed),
              "failures": [f"{n}: {'; '.join(e)}" for n, e in failed],
              "end_to_end": e2e,
              "per_rep": [{k: r.get(k) for k in ("traced", "wall_s", "setup_s",
                                                  "compute_s", "peak_rss_mb", "raw_wall_s")}
                          | {"probe_batch_s": [x["probe_batch_s"] for x in r["runs"]]}
                          for r in reps]}
    traced = [r for r in reps if r.get("layers") and r.get("wall_s")]
    if trace:
        layers = {k: median(r["layers"][k] for r in traced) for k in tracing.METRICS}
        wall_t = median(r["wall_s"] for r in traced)
        layers["trace.wall_s"] = wall_t
        if wall_t is not None and e2e["wall_s"] is not None:
            layers["trace.overhead_s"] = wall_t - e2e["wall_s"]
        layers["trace.self_share"] = median(sum(r["self_s"].values()) / r["wall_s"]
                                            for r in traced)
        result["per_layer"] = layers
        selfs = traced[0]["self_s"] if traced else {}
        result["top_self_s"] = sorted(selfs.items(), key=lambda kv: -kv[1])[:12]
    (run_dir / "result.json").write_text(json.dumps(result, indent=2))
    return result


PER_LAYER_EXTRA = {"trace.wall_s": "s", "trace.overhead_s": "s", "trace.self_share": "ratio"}


def per_layer_units() -> dict:
    units = {k: tracing.unit(k) for k in tracing.METRICS}
    units.update(PER_LAYER_EXTRA)
    return units


def print_result(res: dict) -> None:
    env = res["environment"]
    print(f"== {res['workload']}  seed {res['seed']} ({res['variant']})  "
          f"trace {res['trace']}  repetitions {res['reps']}")
    print("   environment: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    for k, v in res["end_to_end"].items():
        print(f"   {k:<34} {_fmt(v)} {END_TO_END[k]}")
    print(f"   {'failed_frac':<34} {res['failed'] / res['attempted']:.6g} ratio "
          f"({res['failed']} of {res['attempted']} operations)")
    for line in res["failures"][:20]:
        print(f"   FAILED {line}")
    if "per_layer" in res:
        units = per_layer_units()
        print("   per-layer (sizes and bytes are computed from array shapes, not measured):")
        for k, v in res["per_layer"].items():
            print(f"   {k:<34} {_fmt(v)} {units[k]}")
        print("   largest self times: " + ", ".join(f"{n} {s:.3f}s"
                                                  for n, s in res["top_self_s"][:6]))


def _fmt(v) -> str:
    return "n/a" if v is None else f"{v:.6g}"


def result_line(res: dict) -> dict:
    if res["trace"]:
        metrics = {k: {"value": res["per_layer"].get(k), "unit": u}
                   for k, u in per_layer_units().items()}
    else:
        metrics = {k: {"value": res["end_to_end"][k], "unit": u}
                   for k, u in END_TO_END.items()}
    return {"correct": res["failed"] == 0, "attempted": res["attempted"],
            "failed": res["failed"], "metrics": metrics}


def record_reference(name: str, seed: int, root: Path, path: Path) -> int:
    """Store one repetition's outputs as the reference for this seed's variant."""
    workload = WORKLOADS[name]
    reference = json.loads(path.read_text()) if path.is_file() else {}
    rep_dir = root / ".benchrun" / f"record-{name}-seed{seed}"
    shutil.rmtree(rep_dir, ignore_errors=True)
    rep = run_rep(workload, seed, False, rep_dir, child_env(root), time.monotonic() + 170,
                  start_probe())
    entry = {}
    for run in rep["runs"]:
        if run["rc"] != 0:
            print(f"{run['label']}: exit code {run['rc']}\n{run['stderr']}", file=sys.stderr)
            return 1
        entry[run["label"]] = workload.extract(run["label"],
                                               json.loads(run["report"])["results"])
    reference.setdefault(name, {})[workload.variant(seed)] = entry
    path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(f"recorded {name} ({workload.variant(seed)}) into {path}")
    return 0


def self_test(root: Path) -> int:
    """A wrong reference value must show as failed operations, and traced self
    times must add up to the traced wall time."""
    here = root / ".benchrun" / "self-test"
    shutil.rmtree(here, ignore_errors=True)
    here.mkdir(parents=True)
    reference = json.loads((BENCH_DIR / "reference.json").read_text())
    reference["scan-s2xs1"]["default"]["uncorrected"]["rows"][0]["q"] += 1
    bad = here / "wrong_reference.json"
    bad.write_text(json.dumps(reference))
    ok = True

    def bench(*args):
        proc = subprocess.run([sys.executable, str(BENCH_DIR / "run.py"), *args],
                              capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        return proc.returncode, (json.loads(lines[-1]) if lines else None), proc.stderr

    rc, line, err = bench("--workload", "scan-s2xs1", "--seed", "0", "--seconds", "1",
                          "--trace", "0", "--reference", str(bad))
    per_rep = sum(WORKLOADS["scan-s2xs1"].ops_per_invocation.values())
    caught = (rc == 1 and line is not None and not line["correct"]
              and line["failed"] == line["attempted"] // per_rep)   # one wrong row per repetition
    print(f"{'PASS' if caught else 'FAIL'} wrong reference q: exit {rc}, "
          f"failed {line and line['failed']} of {line and line['attempted']}")
    ok &= caught
    for name in WORKLOADS:
        rc, line, err = bench("--workload", name, "--seed", "0", "--seconds", "1",
                              "--trace", "1")
        share = line and line["metrics"]["trace.self_share"]["value"]
        good = rc == 0 and line["correct"] and share is not None \
            and abs(share - 1.0) <= SELF_SHARE_TOL
        print(f"{'PASS' if good else 'FAIL'} {name}: traced self times / traced wall_s "
              f"= {share} (tolerance {SELF_SHARE_TOL}), exit {rc}, "
              f"overhead {line and line['metrics']['trace.overhead_s']['value']} s")
        ok &= good
    print("self-test " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--reference", type=Path, default=BENCH_DIR / "reference.json")
    parser.add_argument("--record-reference", action="store_true",
                        help="store this seed's outputs as the reference and exit")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "heatconf" / "cli.py").is_file():
        print(f"no heatconf sources under {root / 'src'}: run from the repository root",
              file=sys.stderr)
        return 2
    # build: byte-compile once so no measured run pays for it
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(root / "src")],
                   check=True, stdout=subprocess.DEVNULL)
    if args.self_test:
        return self_test(root)
    if args.record_reference:
        return record_reference(args.workload, args.seed, root, args.reference)
    reference = json.loads(args.reference.read_text())
    env_info = environment()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    probe = start_probe()
    env_info["cpu"] = sorted(os.sched_getaffinity(0))[0]
    results = [run_workload(n, args.seed, args.seconds, bool(args.trace), root,
                            reference, env_info, probe) for n in names]
    for res in results:
        print_result(res)
    correct = all(r["failed"] == 0 for r in results)
    if len(results) == 1:
        print(json.dumps(result_line(results[0])))
    else:
        print(json.dumps({r["workload"]: result_line(r) for r in results}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
