"""Command-line entry point: config-driven experiments with JSON reports.

Subcommands
-----------
spectrum      dump eigenpairs (with tabulated jets) to the eigenpair file format
defect-scan   sweep t, measure the conformal defect, emit CSV/JSON tables
perturb       solve the conformal fixed point for each trace parameter k
gram          dump jet Gram blocks and singular values at probe points
verify        run the acceptance criteria and report pass/fail

Exit codes: 0 success, 1 verification failures, 2 config error,
3 mathematical precondition failure, 4 convergence failure.

Configuration is a single JSON document.  CONFIG_KEYS is its whole contract:
each section's keys with their parser and default.  An absent or null key
takes its default; a key not in the table, a section that is not an object
or a value its parser rejects exits 2 with one line naming the key.  Every
number must be finite (json parses NaN and Infinity), and a verify override
is parsed by the type of its check's default.  The only
environment override is HEATCONF_OUT for the output directory.  Identical
config and seed give a byte-identical report up to the timestamp field and,
for verify, the per-criterion elapsed_s timings.

The CLI sets no thread counts.  numpy's BLAS pool is sized when the package
is first imported, so pin it with OPENBLAS_NUM_THREADS / OMP_NUM_THREADS in
the environment before launch.
"""
from __future__ import annotations

import argparse
import inspect
import json
import math
import os
import platform
import sys
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__, acceptance, analysis, embedding, geometry, jets, perturb, spectrum
from .embedding import CorrectionSpec
from .errors import (ConfigError, ConvergenceError, DomainError, PreconditionError,
                     SpectrumError, reject_unknown_keys)
from .geometry import ManifoldModel


BASIS_CONVENTIONS = {
    "eigenbasis": "cosine before sine within each eigenvalue; lattice vectors "
                  "lexicographic; spherical harmonics in (degree, order) order "
                  "with scipy's Legendre sign convention",
    "frame": "orthonormal frame diagonal in the chart coordinates",
    "truncation": "component counts are extended to close eigenvalue shells",
    "indexing": "eigenvalues indexed with multiplicity, constant mode first",
}


def _finite(value) -> bool:
    """Whether a JSON value is a number that converts to a finite float.  The
    json module parses NaN and Infinity, and an integer literal past the float
    range converts to no float."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def _as_float(value, name: str) -> float:
    if not _finite(value):
        raise ConfigError(f"{name} must be a finite number, got {value!r}")
    return float(value)


def _as_int(value, name: str) -> int:
    if not _finite(value) or (isinstance(value, float) and not value.is_integer()):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _between(parse, lo, hi, what: str):
    """`parse`, then reject values outside the open interval (lo, hi)."""
    def parse_between(value, name: str):
        parsed = parse(value, name)
        if not lo < parsed < hi:
            raise ConfigError(f"{name} must be {what}, got {value!r}")
        return parsed
    return parse_between


_positive = _between(_as_float, 0, math.inf, "a positive finite number")
_fraction = _between(_as_float, 0, 1, "a number in (0, 1)")
_count = _between(_as_int, 0, math.inf, "an integer >= 1")
_natural = _between(_as_int, -1, math.inf, "an integer >= 0")


def _as_float_list(value, name: str) -> list[float]:
    if not isinstance(value, list) or not all(_finite(v) for v in value):
        raise ConfigError(f"{name} must be a list of finite numbers, got {value!r}")
    return [float(v) for v in value]


def _distinct_float_list(value, name: str) -> list[float]:
    parsed = _as_float_list(value, name)
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
    if not (isinstance(value, list) and all(
            isinstance(c, str) and c in acceptance.ALL_CHECKS for c in value)):
        raise ConfigError(f"{name} must be a list of criteria from "
                          f"{', '.join(acceptance.ALL_CHECKS)}, got {value!r}")
    return list(value)


def _override_parser(default):
    """The parser of an acceptance override, implied by its default's type: a
    seed or count (int) is >= 0, a tolerance (float) finite, and a window
    (tuple) a list of as many finite numbers."""
    if isinstance(default, int):
        return _natural
    if isinstance(default, float):
        return _as_float

    def parse_window(value, name: str) -> list[float]:
        parsed = _as_float_list(value, name)
        if len(parsed) != len(default):
            raise ConfigError(f"{name} must be a list of {len(default)} numbers, "
                              f"got {value!r}")
        return parsed
    return parse_window


def _overrides(value, name: str) -> dict:
    """Per-criterion keyword overrides; each must bind to its check's signature
    and is parsed by the parser its default implies.  A keyword that binds to
    no named parameter, as with a check wrapped into (*args, **kwargs) by a
    call tracer, is passed on as given."""
    parsed = {}
    for crit, kwargs in _as_section(value, name).items():
        if crit not in acceptance.ALL_CHECKS:
            raise ConfigError(f"{name} names unknown criterion {crit!r}")
        sig = inspect.signature(acceptance.ALL_CHECKS[crit])
        kwargs = _as_section(kwargs, f"{name}.{crit}")
        try:
            sig.bind(**kwargs)
        except TypeError as exc:
            raise ConfigError(f"{name}.{crit}: {exc}") from None
        parsed[crit] = {key: _override_parser(sig.parameters[key].default)(
                            val, f"{name}.{crit}.{key}") if key in sig.parameters else val
                        for key, val in kwargs.items()}
    return parsed


# The config contract: key -> (parser, default), a nested dict being a section.
# An absent or null key takes its default; a default of None means "unset".
CONFIG_KEYS = {
    "model": (_model, None),
    "rho": (_positive, 1.0),
    "q_override": (_as_int, None),
    "t_grid": (_as_float_list, []),
    "resolution": (_as_int, 16),
    "seed": (_natural, 0),
    "analysis": {"s": (_as_int, 2), "alpha": (_fraction, 0.45)},
    "correction": {"l": (_as_int, 2), "eta": (_as_float_list, [0.0])},
    "spectrum": {"count": (_count, 32), "lambda_max": (_positive, None),
                 "lambda_t_margin": (_positive, None)},
    "solver": {"e": (_as_float, 1.0), "tol": (_positive, 1e-10),
               "max_iter": (_count, 40), "k_values": (_distinct_float_list, [0.0]),
               "epsilon": (_as_float, 1e-3), "t": (_fraction, 0.05),
               "resolution": (_as_int, None), "theta_threshold": (_as_float, 0.25),
               "f_mode": (_as_float_list, [1, 0])},
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


@dataclass
class RunConfig:
    """A parsed config: the CONFIG_KEYS entries, sections as dicts of parsed keys."""

    raw: dict
    model: ManifoldModel | None
    rho: float
    q_override: int | None
    t_grid: list
    resolution: int
    seed: int
    analysis: dict
    correction: CorrectionSpec | None     # None when the section is absent or empty
    spectrum: dict
    solver: dict
    verify: dict


def parse_config(raw, seed_override=None) -> RunConfig:
    """Check every key of a config document against CONFIG_KEYS and fill in defaults."""
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
    return RunConfig(raw=raw, **fields)


def load_config(path, seed_override=None) -> RunConfig:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    return parse_config(raw, seed_override)


def _report(out_dir: Path, command: str, cfg: RunConfig, results: dict) -> Path:
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
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "report.json"
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def cmd_spectrum(cfg: RunConfig, out_dir: Path) -> dict:
    if cfg.model is None:
        raise ConfigError("spectrum command needs a model")
    count = cfg.spectrum["count"]
    provider = spectrum.analytic_spectrum(cfg.model, count=count,
                                          lambda_max=cfg.spectrum["lambda_max"])
    pairs = spectrum.enumerate_eigenpairs(provider, count)
    grid = geometry.sample_grid(cfg.model, cfg.resolution)
    eig_dir = out_dir / "eigenpairs"
    eig_dir.mkdir(parents=True, exist_ok=True)
    path = eig_dir / f"{cfg.model.kind}.jsonl"
    spectrum.save_spectrum(provider, path, grid, count=count)
    return {
        "file": str(path.relative_to(out_dir)),
        "count": count,
        "lambdas": [p.lam for p in pairs[:min(count, 64)]],
    }


def cmd_defect_scan(cfg: RunConfig, out_dir: Path) -> dict:
    if cfg.model is None or not cfg.t_grid:
        raise ConfigError("defect-scan needs a model and a t_grid")
    policy = embedding.TruncationPolicy(rho=cfg.rho, q_override=cfg.q_override)
    window = cfg.spectrum["lambda_max"]
    margin = cfg.spectrum["lambda_t_margin"]
    if margin is not None:
        window = lambda t: margin / t
    rows = embedding.defect_scan(cfg.model, cfg.t_grid, policy,
                                 correction=cfg.correction,
                                 resolution=cfg.resolution,
                                 lambda_cutoff=window,
                                 alpha=cfg.analysis["alpha"])
    tables = out_dir / "tables"
    tables.mkdir(parents=True, exist_ok=True)
    embedding.write_scan_csv(rows, tables / "defect_scan.csv")
    metadata = {
        "model": cfg.model.to_config(),
        "rho": cfg.rho,
        "correction": None if cfg.correction is None else {
            "l": cfg.correction.l, "eta": list(cfg.correction.eta)},
        "basis_conventions": BASIS_CONVENTIONS,
    }
    embedding.write_scan_json(rows, tables / "defect_scan.json", metadata)
    fit = None
    if len(rows) >= 3 and all(r["defect_sup"] > 0 for r in rows):
        of = analysis.fit_order([r["t"] for r in rows],
                                [r["defect_sup"] for r in rows])
        fit = {"slope": of.slope, "intercept": of.intercept, "r_squared": of.r_squared}
    return {"rows": rows, "defect_sup_fit": fit,
            "csv": "tables/defect_scan.csv", "json": "tables/defect_scan.json"}


def cmd_gram(cfg: RunConfig, out_dir: Path) -> dict:
    """Diagnostic dump of jet Gram blocks and singular values at probe points."""
    if cfg.model is None:
        raise ConfigError("gram diagnostics need a model")
    t = cfg.solver["t"] if not cfg.t_grid else cfg.t_grid[0]
    if not 0 < t < 1:
        raise ConfigError(f"t must lie in (0, 1), got {t!r}")
    policy = embedding.TruncationPolicy(rho=cfg.rho, q_override=cfg.q_override)
    provider = spectrum.analytic_spectrum(cfg.model, count=policy.q(t, cfg.model.dim) + 1)
    emb = embedding.build_embedding(provider, t, policy)
    grid = geometry.sample_grid(cfg.model, cfg.resolution)
    rng = np.random.default_rng(cfg.seed)
    pts = grid.points[rng.choice(len(grid.points), size=min(4, len(grid.points)),
                                 replace=False)]
    n = cfg.model.dim
    E = jets.PointwiseRightInverse(emb, pts)
    Pc = jets.trace_free_rows(E.P, n)
    grams, grams_c = E.gram, Pc @ Pc.transpose(0, 2, 1)
    svs = np.linalg.svd(grams, compute_uv=False)
    svs_c = np.linalg.svd(grams_c, compute_uv=False)
    entries = []
    for x, G, Gc, sv, sv_c in zip(pts, grams, grams_c, svs, svs_c):
        entries.append({
            "point": x.tolist(),
            "gram_P": G.tolist(),
            "gram_Pc": Gc.tolist(),
            "gram_P_lower_right_2t": (2 * t * G[n:, n:]).tolist(),
            "gram_Pc_lower_right_2t": (2 * t * Gc[n:, n:]).tolist(),
            "singular_values_P": sv.tolist(),
            "singular_values_Pc": sv_c.tolist(),
        })
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "gram_diagnostics.json", "w") as fh:
        json.dump({"t": t, "q": emb.q, "points": entries}, fh, indent=2,
                  sort_keys=True)
    return {"t": t, "q": emb.q, "points": len(entries),
            "file": "gram_diagnostics.json"}


def cmd_perturb(cfg: RunConfig, out_dir: Path) -> dict:
    if cfg.model is None:
        raise ConfigError("perturb needs a model")
    sv = cfg.solver
    alpha = cfg.analysis["alpha"]
    resolution = perturb.grid_resolution(cfg.model.dim, sv["resolution"])
    # on the solver grid's points, sampled before any build so that a bad f_mode exits first
    f = perturb.manufactured_defect(geometry.sample_grid(cfg.model, resolution).points,
                                    sv["epsilon"], sv["f_mode"])
    t = sv["t"]
    policy = embedding.TruncationPolicy(rho=cfg.rho, q_override=cfg.q_override)
    provider = spectrum.analytic_spectrum(cfg.model, count=policy.q(t, cfg.model.dim) + 1)
    emb = embedding.build_embedding(provider, t, policy)
    solver = perturb.ConformalSolver(emb, resolution=resolution, e=sv["e"])
    runs = []
    coeffs = {}                     # y per k: the family bounds need nothing more
    for k in sv["k_values"]:
        history, coeffs[k] = perturb.fixed_point_solve(
            solver, f, k=k, tol=sv["tol"], max_iter=sv["max_iter"],
            theta_threshold=sv["theta_threshold"], s=cfg.analysis["s"], alpha=alpha)
        runs.append(_perturb_run(solver, f, k, history, coeffs[k], alpha))
    family = None
    ks = sv["k_values"]
    if len(ks) >= 2:
        diff, upper, lower = perturb.family_bounds(
            solver, coeffs[ks[0]], coeffs[ks[1]], ks[1] - ks[0])
        family = {"distance": diff, "upper_bound": upper, "lower_bound": lower,
                  "pass": lower <= diff <= upper}
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "solver_log.json", "w") as fh:
        json.dump({"runs": runs, "family": family}, fh, indent=2, sort_keys=True)
    return {"runs": runs, "family": family, "log": "solver_log.json"}


def _perturb_run(solver: perturb.ConformalSolver, f: np.ndarray, k: float, history: list,
                 y: np.ndarray, alpha: float) -> dict:
    """The record of one k-solve: its steps, the verify numbers and the
    assembled C's, with alpha-Hoelder quotients of the residual and defect
    fields.  C is freed on return, before the next solve."""
    result = perturb.assemble_C(solver, y, f)
    holder = lambda field: analysis.holder_seminorm_field(
        field, solver.grid.points, solver.model, alpha)
    return {
        "k": k,
        "iterations": len(history),
        "steps": [{"l": st.l, "residual": st.residual, "step_norm": st.step_norm,
                   "contraction": None if not np.isfinite(st.contraction)
                   else st.contraction, "bound_ok": st.bound_ok}
                  for st in history],
        "verify": {"residual_sup": result.residual_sup,
                   "residual_holder": holder(result.residual),
                   "pullback_residual_sup": result.pullback_residual_sup},
        "conformal_result": {"defect_sup": result.defect_sup,
                             "defect_holder": holder(result.defect),
                             "injectivity": result.injectivity,
                             "injectivity_ok": result.injectivity_ok},
    }


def cmd_verify(cfg: RunConfig, out_dir: Path) -> tuple[dict, bool]:
    results = acceptance.run_all(cfg.verify["criteria"], cfg.verify["overrides"])
    payload = {"criteria": [], "all_passed": True}
    for res in results:
        entry = {
            "criterion": res.criterion,
            "passed": res.passed,
            "expected_fail": res.expected_fail,
            "elapsed_s": round(res.elapsed, 3),
            "budget_s": res.budget,
            "note": res.note,
            "details": _json_safe(res.details),
        }
        payload["criteria"].append(entry)
        if not res.passed and not res.expected_fail:
            payload["all_passed"] = False
    return payload, payload["all_passed"]


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
    parser.add_argument("command", choices=["spectrum", "defect-scan", "perturb",
                                            "gram", "verify"])
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
        ok = True
        if args.command == "spectrum":
            results = {"spectrum": cmd_spectrum(cfg, out_dir)}
        elif args.command == "defect-scan":
            results = {"defect_scan": cmd_defect_scan(cfg, out_dir)}
        elif args.command == "perturb":
            results = {"perturb": cmd_perturb(cfg, out_dir)}
        elif args.command == "gram":
            results = {"gram": cmd_gram(cfg, out_dir)}
        else:
            payload, ok = cmd_verify(cfg, out_dir)
            results = {"verify": payload}
        path = _report(out_dir, args.command, cfg, _json_safe(results))
        print(f"report written to {path}")
        if not ok:
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


if __name__ == "__main__":
    sys.exit(main())
