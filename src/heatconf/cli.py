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

Configuration is a single JSON document; the only environment override is
HEATCONF_OUT for the output directory.  Identical config and seed give a
byte-identical report up to the timestamp field and, for verify, the
per-criterion elapsed_s timings.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import TYPE_CHECKING

if TYPE_CHECKING:      # heavy imports stay inside main() so --threads can act first
    from .embedding import CorrectionSpec
    from .geometry import ManifoldModel


def _set_thread_env(threads: int | None):
    # honored by BLAS/OpenMP pools created after this point; best effort
    if threads is None:
        return
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(threads)


REPORT_SCHEMA = {
    "type": "object",
    "required": ["command", "config", "versions", "basis_conventions", "seed",
                 "timestamp", "results"],
    "properties": {
        "command": {"type": "string"},
        "config": {"type": "object"},
        "versions": {"type": "object"},
        "basis_conventions": {"type": "object"},
        "seed": {"type": "integer"},
        "threads": {"type": ["integer", "null"]},
        "timestamp": {"type": "string"},
        "results": {"type": "object"},
    },
    "additionalProperties": False,
}

BASIS_CONVENTIONS = {
    "eigenbasis": "cosine before sine within each eigenvalue; lattice vectors "
                  "lexicographic; spherical harmonics in (degree, order) order "
                  "with scipy's Legendre sign convention",
    "frame": "orthonormal frame diagonal in the chart coordinates",
    "truncation": "component counts are extended to close eigenvalue shells",
    "indexing": "eigenvalues indexed with multiplicity, constant mode first",
}


@dataclass
class RunConfig:
    raw: dict
    model: "object"
    rho: float
    q_override: int | None
    t_grid: list
    resolution: int
    analysis_s: int
    analysis_alpha: float
    correction: "object | None"
    spectrum_count: int | None
    spectrum_lambda_max: float | None
    spectrum_lambda_t_margin: float | None
    solver: dict
    verify: dict
    seed: int


def _as_int(value, name: str) -> int:
    from .errors import ConfigError

    if isinstance(value, bool) or not isinstance(value, (int, float)) \
            or not float(value).is_integer():
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _as_float_list(value, name: str) -> list[float]:
    from .errors import ConfigError

    if not isinstance(value, list) or not all(
            isinstance(v, (int, float)) and not isinstance(v, bool) for v in value):
        raise ConfigError(f"{name} must be a list of numbers, got {value!r}")
    return [float(v) for v in value]


def _as_float(value, name: str) -> float:
    from .errors import ConfigError

    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{name} must be a number, got {value!r}")
    return float(value)


def _optional(parse, value, name: str):
    return None if value is None else parse(value, name)


def _as_section(value, name: str) -> dict:
    from .errors import ConfigError

    if not isinstance(value, dict):
        raise ConfigError(f"{name} must be a JSON object, got {value!r}")
    return value


def _as_verify(value, name: str) -> dict:
    """The verify section: known criterion names, overrides that bind to them."""
    import inspect

    from .acceptance import ALL_CHECKS
    from .errors import ConfigError

    section = _as_section(value, name)
    criteria = section.get("criteria")
    if criteria is not None and not (isinstance(criteria, list) and all(
            isinstance(c, str) and c in ALL_CHECKS for c in criteria)):
        raise ConfigError(f"{name}.criteria must be a list of criteria from "
                          f"{', '.join(ALL_CHECKS)}, got {criteria!r}")
    for crit, kwargs in _as_section(section.get("overrides", {}),
                                    f"{name}.overrides").items():
        if crit not in ALL_CHECKS:
            raise ConfigError(f"{name}.overrides names unknown criterion {crit!r}")
        try:
            inspect.signature(ALL_CHECKS[crit]).bind(
                **_as_section(kwargs, f"{name}.overrides.{crit}"))
        except TypeError as exc:
            raise ConfigError(f"{name}.overrides.{crit}: {exc}") from None
    return section


_SOLVER_FIELDS = {"e": _as_float, "tol": _as_float, "max_iter": _as_int,
                  "k_values": _as_float_list, "epsilon": _as_float, "t": _as_float,
                  "resolution": _as_int, "theta_threshold": _as_float,
                  "f_mode": _as_float_list}


def load_config(path, seed_override=None) -> RunConfig:
    from . import embedding
    from .errors import ConfigError
    from .geometry import ManifoldModel

    try:
        with open(path) as fh:
            raw = json.load(fh)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")

    model = ManifoldModel.from_config(raw["model"]) if "model" in raw else None
    corr_cfg = _optional(_as_section, raw.get("correction"), "correction")
    correction = None
    if corr_cfg:
        correction = embedding.CorrectionSpec(
            l=_as_int(corr_cfg.get("l", 2), "correction.l"),
            eta=tuple(_as_float_list(corr_cfg.get("eta", [0.0]), "correction.eta")))
    ana = _as_section(raw.get("analysis", {}), "analysis")
    s = _as_int(ana.get("s", 2), "analysis.s")
    alpha = _as_float(ana.get("alpha", 0.45), "analysis.alpha")
    if not 0 < alpha < 1:
        raise ConfigError("analysis.alpha must lie in (0, 1)")
    if correction is not None and not s + alpha < correction.l + 0.5:
        raise ConfigError(
            f"smoothness budget violated: s + alpha = {s + alpha} must be "
            f"< l + 1/2 = {correction.l + 0.5}")
    solver = {
        "e": 1.0, "tol": 1e-10, "max_iter": 40, "k_values": [0.0],
        "epsilon": 1e-3, "t": 0.05, "resolution": 48, "theta_threshold": 0.25,
        "f_mode": [1, 0],
    }
    solver.update(_as_section(raw.get("solver", {}), "solver"))
    for key, parse in _SOLVER_FIELDS.items():
        solver[key] = parse(solver[key], f"solver.{key}")
    spec_cfg = _as_section(raw.get("spectrum", {}), "spectrum")
    seed = _as_int(raw.get("seed", 0) if seed_override is None else seed_override, "seed")
    t_grid = _as_float_list(raw.get("t_grid", []), "t_grid")
    return RunConfig(
        raw=raw, model=model,
        rho=_as_float(raw.get("rho", 1.0), "rho"),
        q_override=_optional(_as_int, raw.get("q_override"), "q_override"),
        t_grid=t_grid,
        resolution=_as_int(raw.get("resolution", 16), "resolution"),
        analysis_s=s, analysis_alpha=alpha,
        correction=correction,
        spectrum_count=_optional(_as_int, spec_cfg.get("count"), "spectrum.count"),
        spectrum_lambda_max=_optional(_as_float, spec_cfg.get("lambda_max"),
                                      "spectrum.lambda_max"),
        spectrum_lambda_t_margin=_optional(_as_float, spec_cfg.get("lambda_t_margin"),
                                           "spectrum.lambda_t_margin"),
        solver=solver,
        verify=_as_verify(raw.get("verify", {}), "verify"),
        seed=seed,
    )


def _report(out_dir: Path, command: str, cfg: RunConfig, results: dict,
            threads) -> Path:
    import jsonschema
    import numpy
    import scipy

    from . import __version__

    report = {
        "command": command,
        "config": cfg.raw,
        "versions": {
            "heatconf": __version__,
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "python": platform.python_version(),
        },
        "basis_conventions": BASIS_CONVENTIONS,
        "seed": cfg.seed,
        "threads": threads,
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "results": results,
    }
    jsonschema.validate(report, REPORT_SCHEMA)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "report.json"
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def cmd_spectrum(cfg: RunConfig, out_dir: Path) -> dict:
    from . import geometry, spectrum
    from .errors import ConfigError

    if cfg.model is None:
        raise ConfigError("spectrum command needs a model")
    count = cfg.spectrum_count or 32
    provider = spectrum.analytic_spectrum(cfg.model, count=count,
                                          lambda_max=cfg.spectrum_lambda_max)
    pairs = spectrum.enumerate_eigenpairs(provider, count)
    grid = geometry.sample_grid(cfg.model, cfg.resolution)
    eig_dir = out_dir / "eigenpairs"
    eig_dir.mkdir(parents=True, exist_ok=True)
    path = eig_dir / f"{cfg.model.kind}.jsonl"
    spectrum.save_spectrum(provider, path, grid, tolerance=1e-6, count=count)
    return {
        "file": str(path.relative_to(out_dir)),
        "count": count,
        "lambdas": [p.lam for p in pairs[:min(count, 64)]],
    }


def cmd_defect_scan(cfg: RunConfig, out_dir: Path) -> dict:
    from . import analysis, embedding
    from .errors import ConfigError

    if cfg.model is None or not cfg.t_grid:
        raise ConfigError("defect-scan needs a model and a t_grid")
    policy = embedding.TruncationPolicy(rho=cfg.rho, q_override=cfg.q_override)
    window = cfg.spectrum_lambda_max
    margin = cfg.spectrum_lambda_t_margin
    if margin is not None:
        window = lambda t: margin / t
    rows = embedding.defect_scan(cfg.model, cfg.t_grid, policy,
                                 correction=cfg.correction,
                                 resolution=cfg.resolution,
                                 lambda_cutoff=window,
                                 alpha=cfg.analysis_alpha)
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
    import numpy as np

    from . import embedding, geometry, jets, spectrum
    from .errors import ConfigError

    if cfg.model is None:
        raise ConfigError("gram diagnostics need a model")
    t = cfg.solver["t"] if not cfg.t_grid else cfg.t_grid[0]
    policy = embedding.TruncationPolicy(rho=cfg.rho, q_override=cfg.q_override)
    provider = spectrum.analytic_spectrum(cfg.model,
                                          count=policy.q(t, cfg.model.dim) + 8)
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
    import numpy as np

    from . import embedding, perturb, spectrum
    from .errors import ConfigError

    if cfg.model is None:
        raise ConfigError("perturb needs a model")
    sv = cfg.solver
    n = cfg.model.dim
    if n < 2:
        raise ConfigError("perturb needs a model of dimension at least 2: its "
                          "manufactured defect diag(1, -1) needs two axes")
    if len(sv["f_mode"]) > n:
        raise ConfigError(f"solver.f_mode has {len(sv['f_mode'])} entries, more than "
                          f"the model dimension {n}")
    t = sv["t"]
    policy = embedding.TruncationPolicy(rho=cfg.rho, q_override=cfg.q_override)
    q_needed = policy.q(t, n)
    provider = spectrum.analytic_spectrum(cfg.model, count=q_needed + 8)
    emb = embedding.build_embedding(provider, t, policy)
    solver = perturb.ConformalSolver(emb, resolution=sv["resolution"], e=sv["e"])
    mode = np.zeros(n)
    mode[:len(sv["f_mode"])] = sv["f_mode"]
    phase = solver.grid.points @ mode
    pattern = np.zeros((n, n))
    pattern[0, 0], pattern[1, 1] = 1.0, -1.0
    f = sv["epsilon"] * np.cos(phase)[:, None, None] * pattern
    runs = []
    solutions = {}
    for k in sv["k_values"]:
        history, v = perturb.fixed_point_solve(
            emb, f, k=k, e=sv["e"], tol=sv["tol"], max_iter=sv["max_iter"],
            solver=solver, theta_threshold=sv["theta_threshold"],
            s=cfg.analysis_s, alpha=cfg.analysis_alpha)
        rep = perturb.verify_conformal(emb, v, f, solver, alpha=cfg.analysis_alpha)
        result = perturb.assemble_C(emb, v, solver, k=k, manufactured_f=f,
                                    alpha=cfg.analysis_alpha)
        solutions[k] = v
        runs.append({
            "k": k,
            "iterations": len(history),
            "steps": [{"l": st.l, "residual": st.residual, "step_norm": st.step_norm,
                       "contraction": None if not np.isfinite(st.contraction)
                       else st.contraction, "bound_ok": st.bound_ok}
                      for st in history],
            "verify": {"residual_sup": rep.residual_sup,
                       "residual_holder": rep.residual_holder,
                       "pullback_residual_sup": rep.pullback_residual_sup},
            "conformal_result": {"defect_sup": result.defect_sup,
                                 "defect_holder": result.defect_holder,
                                 "injectivity": result.injectivity,
                                 "injectivity_ok": result.injectivity_ok},
        })
    family = None
    ks = sv["k_values"]
    if len(ks) >= 2:
        diff, upper, lower = perturb.family_bounds(
            solver, solutions[ks[0]], solutions[ks[1]], ks[1] - ks[0])
        family = {"distance": diff, "upper_bound": upper, "lower_bound": lower,
                  "pass": lower <= diff <= upper}
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "solver_log.json", "w") as fh:
        json.dump({"runs": runs, "family": family}, fh, indent=2, sort_keys=True)
    return {"runs": runs, "family": family, "log": "solver_log.json"}


def cmd_verify(cfg: RunConfig, out_dir: Path) -> tuple[dict, bool]:
    from . import acceptance

    criteria = cfg.verify.get("criteria")
    overrides = cfg.verify.get("overrides", {})
    results = acceptance.run_all(criteria, overrides)
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
    import numpy as np
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
    parser.add_argument("--threads", type=int, default=None,
                        help="thread hint for numerical pools (best effort)")
    parser.add_argument("command", choices=["spectrum", "defect-scan", "perturb",
                                            "gram", "verify"])
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    _set_thread_env(args.threads)

    from .errors import (ConfigError, ConvergenceError, DomainError,
                         PreconditionError, SpectrumError)

    try:
        if args.config:
            cfg = load_config(args.config, seed_override=args.seed)
        elif args.command == "verify":
            cfg = RunConfig(raw={}, model=None, rho=1.0, q_override=None,
                            t_grid=[], resolution=16, analysis_s=2,
                            analysis_alpha=0.45, correction=None,
                            spectrum_count=None, spectrum_lambda_max=None,
                            spectrum_lambda_t_margin=None, solver={}, verify={},
                            seed=args.seed if args.seed is not None else 0)
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
        path = _report(out_dir, args.command, cfg, _json_safe(results), args.threads)
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
