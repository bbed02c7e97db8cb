"""Command-line entry point: config-driven experiments with JSON reports.

Subcommands
-----------
spectrum      dump eigenpairs (with tabulated jets) to the eigenpair file format
defect-scan   sweep t, measure the conformal defect, emit CSV/JSON tables
perturb       solve the conformal fixed point for each trace parameter k
gram          dump jet Gram blocks and singular values at probe points
verify        run the acceptance criteria and report pass/fail; their wall
              times go to timings.json

Each `cmd_*` takes the parsed config and returns its results and its files,
a map from a path under the output directory to a fill that writes the
file's content to the path it is given.  `main` finds the command in
COMMANDS and writes each file, then report.json, through `_write`.  Every
JSON output has one format (`_json_file`).

Exit codes: 0 success, 1 verification failures, 2 config error (an output
directory or output file that cannot be made or written included), 3
mathematical or resource precondition failure (a full disk or quota while
writing an output included, its line naming the file), 4 convergence
failure.  A failed write leaves neither the file nor its temp file, and a
stale temp file is removed first, so a symlink there is not written through.

Configuration is a single JSON document.  CONFIG_KEYS is its whole contract:
each section's keys with their parser and default.  An absent or null key
takes its default; a key not in the table, a section that is not an object
or a value its parser rejects exits 2 with one line naming the key.  Every
number, model params included, must be a JSON number that converts to a
finite float (`errors.finite`; json parses NaN and Infinity).  A verify override
sets only the seed of a criterion in acceptance.SEEDED_CHECKS: the
tolerances live in `acceptance` and cannot be overridden.  The only
environment override is HEATCONF_OUT for the output directory.  Identical
config and seed give a byte-identical report up to the timestamp field.

The CLI sets no thread counts.  numpy's BLAS pool is sized when the package
is first imported, so pin it with OPENBLAS_NUM_THREADS / OMP_NUM_THREADS in
the environment before launch.
"""
from __future__ import annotations

import argparse
import errno
import json
import math
import os
import platform
import sys
from datetime import datetime, timezone
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from . import __version__, acceptance, analysis, embedding, geometry, jets, perturb, spectrum
from .embedding import CorrectionSpec
from .errors import (ConfigError, ConvergenceError, DomainError, PreconditionError,
                     SpectrumError, as_float, as_float_list, as_int, reject_unknown_keys)
from .geometry import ManifoldModel


BASIS_CONVENTIONS = {
    "eigenbasis": "cosine before sine within each eigenvalue; lattice vectors "
                  "lexicographic; spherical harmonics in (degree, order) order "
                  "with scipy's Legendre sign convention",
    "frame": "orthonormal frame diagonal in the chart coordinates",
    "truncation": "component counts are extended to close eigenvalue shells",
    "indexing": "eigenvalues indexed with multiplicity, constant mode first",
}


def _between(parse, lo, hi, what: str):
    """`parse`, then reject values outside the open interval (lo, hi)."""
    def parse_between(value, name: str):
        parsed = parse(value, name)
        if not lo < parsed < hi:
            raise ConfigError(f"{name} must be {what}, got {value!r}")
        return parsed
    return parse_between


_positive = _between(as_float, 0, math.inf, "a positive finite number")
_fraction = _between(as_float, 0, 1, "a number in (0, 1)")
_count = _between(as_int, 0, math.inf, "an integer >= 1")
_natural = _between(as_int, -1, math.inf, "an integer >= 0")


def _distinct_float_list(value, name: str) -> list[float]:
    parsed = as_float_list(value, name)
    if not parsed or len(set(parsed)) < len(parsed):
        raise ConfigError(f"{name} must be a non-empty list of distinct numbers, "
                          f"got {value!r}")
    return parsed


def _as_section(value, name: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{name} must be a JSON object, got {value!r}")
    return value


def _model(value, name: str) -> ManifoldModel:
    return ManifoldModel.from_config(value)


def _criteria(value, name: str) -> list[str]:
    if not (isinstance(value, list) and value and all(
            isinstance(c, str) and c in acceptance.ALL_CHECKS for c in value)
            and len(set(value)) == len(value)):
        raise ConfigError(f"{name} must be a non-empty list of distinct criteria from "
                          f"{', '.join(acceptance.ALL_CHECKS)}, got {value!r}")
    return list(value)


def _overrides(value, name: str) -> dict:
    """Per-criterion seeds, {criterion: {"seed": int >= 0}}.  The gates,
    windows and sizes of the checks are constants of `acceptance`, so any
    other key, or an entry for a criterion outside SEEDED_CHECKS, is refused."""
    seeded = acceptance.SEEDED_CHECKS
    parsed = {}
    for crit, entry in _as_section(value, name).items():
        path = f"{name}.{crit}"
        entry = _as_section(entry, path)
        unknown = [key for key in entry if key != "seed" or crit not in seeded]
        if unknown or crit not in seeded:
            where = f"{path}.{unknown[0]}" if unknown else path
            raise ConfigError(f"{where} cannot be overridden: a verify override sets "
                              f"only the seed of {', '.join(seeded)}")
        parsed[crit] = {key: _natural(val, f"{path}.{key}") for key, val in entry.items()}
    return parsed


# The config contract: key -> (parser, default), a nested dict being a section.
# An absent or null key takes its default; a default of None means "unset".
CONFIG_KEYS = {
    "model": (_model, None),
    "rho": (_positive, 1.0),
    "q_override": (as_int, None),
    "t_grid": (as_float_list, []),
    "resolution": (as_int, 16),
    "seed": (_natural, 0),
    "analysis": {"s": (_natural, 2), "alpha": (_fraction, 0.45)},
    "correction": {"l": (as_int, 2), "eta": (as_float_list, [0.0])},
    "spectrum": {"count": (_count, 32), "lambda_max": (_positive, None),
                 "lambda_t_margin": (_positive, None)},
    "solver": {"e": (_positive, 1.0), "tol": (_positive, 1e-10),
               "max_iter": (_count, 40), "k_values": (_distinct_float_list, [0.0]),
               "epsilon": (as_float, 1e-3), "t": (_fraction, 0.05),
               "resolution": (as_int, None), "theta_threshold": (_positive, 0.25),
               "f_mode": (as_float_list, [1, 0])},
    "verify": {"criteria": (_criteria, None), "overrides": (_overrides, {})},
}


def _parse_section(table: dict, raw, prefix: str) -> dict:
    section = _as_section(raw, prefix.rstrip(".") or "config")
    reject_unknown_keys(section, tuple(table), prefix)
    parsed = {}
    for key, spec in table.items():
        value = section.get(key)
        if isinstance(spec, dict):
            parsed[key] = _parse_section(spec, {} if value is None else value,
                                         f"{prefix}{key}.")
            continue
        parse, default = spec
        value = default if value is None else value
        parsed[key] = None if value is None else parse(value, prefix + key)
    return parsed


def parse_config(raw, seed_override=None) -> SimpleNamespace:
    """Check every key of a config document against CONFIG_KEYS and fill in
    defaults: a namespace of the parsed keys (`correction` a CorrectionSpec,
    None for an absent or empty section) and the document as `raw`."""
    fields = _parse_section(CONFIG_KEYS, raw, "")
    if seed_override is not None:
        fields["seed"] = _natural(seed_override, "seed")
    corr, ana = fields["correction"], fields["analysis"]
    fields["correction"] = None
    if raw.get("correction"):
        fields["correction"] = CorrectionSpec(l=corr["l"], eta=tuple(corr["eta"]))
        if not ana["s"] + ana["alpha"] < corr["l"] + 0.5:
            raise ConfigError(
                f"smoothness budget violated: s + alpha = {ana['s'] + ana['alpha']} "
                f"must be < l + 1/2 = {corr['l'] + 0.5}")
    return SimpleNamespace(raw=raw, **fields)


def load_config(path, seed_override=None) -> SimpleNamespace:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except OSError as exc:
        raise ConfigError(f"config file {path}: {exc.strerror}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    return parse_config(raw, seed_override)


def _write(path: Path, fill) -> None:
    """Write the output file `path`: a stale `.<name>.tmp` beside it is
    removed, so a symlink there is never written through, `fill(tmp)` writes
    that temp file afresh, and `os.replace` moves it into place, replacing a
    symlink at `path`.  On any error the temp file is removed, so no partial
    file is left, and an OSError that names no file (a full disk found when
    the file is flushed) is given `path`."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.tmp")
    try:
        tmp.unlink(missing_ok=True)
        fill(tmp)
        os.replace(tmp, path)
    except BaseException as exc:
        tmp.unlink(missing_ok=True)
        if isinstance(exc, OSError) and exc.filename is None:
            exc.filename = str(path)
        raise


def _report(out_dir: Path, command: str, cfg: SimpleNamespace, results: dict) -> Path:
    report = {
        "command": command,
        "config": cfg.raw,
        "versions": {
            "heatconf": __version__,
            "numpy": np.__version__,
            "python": platform.python_version(),
        },
        "basis_conventions": BASIS_CONVENTIONS,
        "seed": cfg.seed,
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "results": results,
    }
    path = out_dir / "report.json"
    _write(path, _json_file(report, end="\n"))
    return path


def _policy(cfg: SimpleNamespace) -> embedding.TruncationPolicy:
    return embedding.TruncationPolicy(rho=cfg.rho, q_override=cfg.q_override,
                                      lambda_max=cfg.spectrum["lambda_max"],
                                      lambda_t_margin=cfg.spectrum["lambda_t_margin"])


def _embedding(cfg: SimpleNamespace, t: float) -> embedding.EmbeddingMap:
    """The embedding at time t under the config's truncation policy."""
    policy = _policy(cfg)
    provider = spectrum.analytic_spectrum(cfg.model, **policy.request(t, cfg.model.dim))
    return embedding.build_embedding(provider, t, policy)


def cmd_spectrum(cfg: SimpleNamespace) -> tuple[dict, dict]:
    if cfg.model is None:
        raise ConfigError("spectrum command needs a model")
    count = cfg.spectrum["count"]
    provider = spectrum.analytic_spectrum(cfg.model, count=count,
                                          lambda_max=cfg.spectrum["lambda_max"])
    pairs = spectrum.enumerate_eigenpairs(provider, count)
    grid = geometry.sample_grid(cfg.model, cfg.resolution)
    path = f"eigenpairs/{cfg.model.kind}.jsonl"
    results = {"file": path, "count": count,
               "lambdas": [p.lam for p in pairs[:min(count, 64)]]}
    return results, {path: lambda tmp: spectrum.save_spectrum(provider, tmp, grid, count)}


def cmd_defect_scan(cfg: SimpleNamespace) -> tuple[dict, dict]:
    if cfg.model is None or not cfg.t_grid:
        raise ConfigError("defect-scan needs a model and a t_grid")
    rows = embedding.defect_scan(cfg.model, cfg.t_grid, _policy(cfg),
                                 correction=cfg.correction,
                                 resolution=cfg.resolution,
                                 alpha=cfg.analysis["alpha"])
    metadata = {
        "model": cfg.model.to_config(),
        "rho": cfg.rho,
        "correction": None if cfg.correction is None else {
            "l": cfg.correction.l, "eta": list(cfg.correction.eta)},
        "basis_conventions": BASIS_CONVENTIONS,
    }
    fit = None
    if len(rows) >= 3 and all(r["defect_sup"] > 0 for r in rows):
        of = analysis.fit_order([r["t"] for r in rows],
                                [r["defect_sup"] for r in rows])
        fit = {"slope": of.slope, "intercept": of.intercept, "r_squared": of.r_squared}
    csv_path, json_path = "tables/defect_scan.csv", "tables/defect_scan.json"
    results = {"rows": rows, "defect_sup_fit": fit, "csv": csv_path, "json": json_path}
    return results, {csv_path: lambda tmp: embedding.write_scan_csv(rows, tmp),
                     json_path: _json_file({"metadata": metadata, "rows": rows})}


def cmd_gram(cfg: SimpleNamespace) -> tuple[dict, dict]:
    """Diagnostic dump of jet Gram blocks and singular values at probe points."""
    if cfg.model is None:
        raise ConfigError("gram diagnostics need a model")
    t = cfg.solver["t"] if not cfg.t_grid else cfg.t_grid[0]
    if not 0 < t < 1:
        raise ConfigError(f"t must lie in (0, 1), got {t!r}")
    emb = _embedding(cfg, t)
    grid = geometry.sample_grid(cfg.model, cfg.resolution)
    rng = np.random.default_rng(cfg.seed)
    pts = grid.points[rng.choice(len(grid.points), size=min(4, len(grid.points)),
                                 replace=False)]
    n = cfg.model.dim
    entries = []
    for x, G, Gc, sv, sv_c in zip(pts, *jets.PointwiseRightInverse(emb, pts).gram_blocks()):
        entries.append({
            "point": x.tolist(),
            "gram_P": G.tolist(),
            "gram_Pc": Gc.tolist(),
            "gram_P_lower_right_2t": (2 * t * G[n:, n:]).tolist(),
            "gram_Pc_lower_right_2t": (2 * t * Gc[n:, n:]).tolist(),
            "singular_values_P": sv.tolist(),
            "singular_values_Pc": sv_c.tolist(),
        })
    path = "gram_diagnostics.json"
    results = {"t": t, "q": emb.q, "points": len(entries), "file": path}
    return results, {path: _json_file({"t": t, "q": emb.q, "points": entries})}


def cmd_perturb(cfg: SimpleNamespace) -> tuple[dict, dict]:
    if cfg.model is None:
        raise ConfigError("perturb needs a model")
    sv = cfg.solver
    alpha = cfg.analysis["alpha"]
    resolution = perturb.grid_resolution(cfg.model.dim, sv["resolution"])
    # on the solver's grid, built before any spectrum so that a bad f_mode exits first
    f = perturb.manufactured_defect(perturb.SpectralGrid(cfg.model, resolution),
                                    sv["epsilon"], sv["f_mode"])
    solver = perturb.ConformalSolver(_embedding(cfg, sv["t"]), resolution=resolution,
                                     e=sv["e"])
    pairs = analysis.holder_pairs(solver.model, solver.grid.resolution)
    runs = []
    coeffs = {}                     # y per k: the family bounds need nothing more
    for k in sv["k_values"]:
        history, coeffs[k] = perturb.fixed_point_solve(
            solver, f, k=k, tol=sv["tol"], max_iter=sv["max_iter"],
            theta_threshold=sv["theta_threshold"], s=cfg.analysis["s"], alpha=alpha)
        runs.append(_perturb_run(solver, f, k, history, coeffs[k], pairs, alpha))
    family = None
    ks = sv["k_values"]
    if len(ks) >= 2:
        diff, upper, lower = perturb.family_bounds(
            solver, coeffs[ks[0]], coeffs[ks[1]], ks[1] - ks[0])
        family = {"distance": diff, "upper_bound": upper, "lower_bound": lower,
                  "pass": lower <= diff <= upper}
    path = "solver_log.json"
    results = {"runs": runs, "family": family, "log": path}
    return results, {path: _json_file({"runs": runs, "family": family})}


def _perturb_run(solver: perturb.ConformalSolver, f: np.ndarray, k: float, history: list,
                 y: np.ndarray, pairs: analysis.LatticeOffsets | analysis.ClosePairs,
                 alpha: float) -> dict:
    """The record of one k-solve: its steps, the verify numbers and the
    assembled C's, with alpha-Hoelder quotients of the residual and defect
    fields over the solver grid's pair table `pairs`.  C is freed on return,
    before the next solve."""
    result = perturb.assemble_C(solver, y, f)
    holder = lambda field: analysis.holder_seminorm_field(field, pairs, alpha)
    return {
        "k": k,
        "iterations": len(history),
        "steps": [{"l": st.l, "residual": st.residual, "step_norm": st.step_norm,
                   "contraction": st.contraction, "bound_ok": st.bound_ok}
                  for st in history],
        "verify": {"residual_sup": result.residual_sup,
                   "residual_holder": holder(result.residual),
                   "pullback_residual_sup": result.pullback_residual_sup},
        "conformal_result": {"defect_sup": result.defect_sup,
                             "defect_holder": holder(result.defect),
                             "injectivity": result.injectivity,
                             "injectivity_ok": result.injectivity_ok},
    }


def cmd_verify(cfg: SimpleNamespace) -> tuple[dict, dict]:
    """The criteria's outcomes for the report and their volatile timings,
    in run order, for timings.json."""
    results = acceptance.run_all(cfg.verify["criteria"], cfg.verify["overrides"])
    criteria = [{"criterion": res.criterion,
                 "passed": res.passed,
                 "expected_fail": res.expected_fail,
                 "note": res.note,
                 "details": res.details} for res in results]
    timings = [{"criterion": res.criterion,
                "elapsed_s": round(res.elapsed, 3),
                "budget_s": res.budget} for res in results]
    all_passed = all(res.passed or res.expected_fail for res in results)
    path = "timings.json"
    return ({"criteria": criteria, "all_passed": all_passed, "timings": path},
            {path: _json_file({"criteria": timings})})


def _json_safe(obj):
    if isinstance(obj, dict):
        return {str(k): _json_safe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_safe(v) for v in obj]
    if isinstance(obj, (np.floating, float)):
        v = float(obj)
        return v if np.isfinite(v) else None
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


def _json_file(obj, end: str = ""):
    """The fill of a JSON output, in the one format of them all: non-finite
    numbers as null, indent 2, sorted keys, then `end`."""
    return lambda path: path.write_text(
        json.dumps(_json_safe(obj), indent=2, sort_keys=True) + end)


COMMANDS = {"spectrum": cmd_spectrum, "defect-scan": cmd_defect_scan,
            "perturb": cmd_perturb, "gram": cmd_gram, "verify": cmd_verify}


def _check_out_dir(out_dir: Path) -> None:
    """Refuse, before any work, an output directory that cannot be made: the
    nearest existing one of it and its ancestors must be a directory."""
    for path in (out_dir, *out_dir.parents):
        if path.exists():
            if not path.is_dir():
                raise ConfigError(f"output directory {out_dir}: {path} is not a directory")
            return


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="heatconf",
        description="heat-kernel embeddings with conformal defect control")
    parser.add_argument("--config", type=str, help="path to the JSON run config")
    parser.add_argument("--out", type=str, default=None,
                        help="output directory (default ./heatconf-out, "
                             "env HEATCONF_OUT overrides)")
    parser.add_argument("--seed", type=int, default=None,
                        help="seed for random probes (overrides config)")
    parser.add_argument("command", choices=list(COMMANDS))
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.config:
            cfg = load_config(args.config, seed_override=args.seed)
        elif args.command == "verify":
            cfg = parse_config({}, seed_override=args.seed)
        else:
            raise ConfigError("--config is required for this command")
        out_dir = Path(os.environ.get("HEATCONF_OUT") or args.out
                       or "heatconf-out")
        _check_out_dir(out_dir)
        results, files = COMMANDS[args.command](cfg)
        for name, fill in files.items():
            _write(out_dir / name, fill)
        path = _report(out_dir, args.command, cfg, {args.command.replace("-", "_"): results})
        print(f"report written to {path}")
        if not results.get("all_passed", True):
            print("verification failures present", file=sys.stderr)
            return 1
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (PreconditionError, DomainError, SpectrumError) as exc:
        print(f"precondition failure: {exc}", file=sys.stderr)
        return 3
    except ConvergenceError as exc:
        print(f"convergence failure: {exc}", file=sys.stderr)
        return 4
    except OSError as exc:      # load_config maps its own, so this is an output's
        if exc.errno in (errno.ENOSPC, errno.EDQUOT):
            print(f"precondition failure: writing the output: {exc}", file=sys.stderr)
            return 3
        print(f"config error: output: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
