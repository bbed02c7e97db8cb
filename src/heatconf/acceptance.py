"""Quantitative acceptance checks for the whole pipeline.

Each check returns a CheckResult with measured numbers; the pytest layer
asserts on them and the CLI "verify" subcommand reports them.  Tolerances
live here, in one place.  A check may be flagged expected_fail when the
stated target is unattainable at desk scale (documented in the details);
such checks still run and report honestly.
"""
from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field

import numpy as np

from . import analysis, embedding, geometry, jets, perturb, spectrum
from .embedding import TruncationPolicy, build_embedding
from .errors import ConfigError
from .geometry import ManifoldModel


@dataclass
class CheckResult:
    criterion: str
    passed: bool
    details: dict = field(default_factory=dict)
    expected_fail: bool = False
    note: str = ""
    elapsed: float = 0.0
    budget: float = 0.0


def _timed(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs) -> CheckResult:
        t0 = time.perf_counter()
        result = fn(*args, **kwargs)
        result.elapsed = time.perf_counter() - t0
        return result
    return wrapper


TORUS_2PI = ManifoldModel.flat_torus([2.0 * np.pi, 2.0 * np.pi])


@_timed
def check_homothety(tol: float = 1e-10) -> CheckResult:
    """Flat-torus symmetry forces an exact homothety at every truncation shell.

    The pullback comes from the closed lattice form of the torus provider's
    `gradient_gram`, which builds no jets; the large-q grid jets this check
    once ran are pinned against it by the `n2_pair_weights` case of
    `test_gradient_gram_matches_einsum` (count 10100, weights e^{-lambda t/2}).
    """
    grid = geometry.sample_grid(TORUS_2PI, 32)
    policy = TruncationPolicy(rho=1.0)
    details = {"rows": []}
    worst = 0.0
    provider = spectrum.analytic_spectrum(TORUS_2PI, count=10100)
    for t in (0.05, 0.02, 0.01):
        emb = build_embedding(provider, t, policy)
        rep = embedding.pullback_report(emb, grid)
        worst = max(worst, rep.sup)
        details["rows"].append({"t": t, "q": emb.q, "defect_sup": rep.sup})
    details["tol"] = tol
    return CheckResult("homothety", worst <= tol, details, budget=60.0)


@_timed
def check_circle_scale(tol: float = 1e-8) -> CheckResult:
    """Truncated circle pullback equals 1 up to an exponentially small residue."""
    model = ManifoldModel.circle(2.0 * np.pi)
    provider = spectrum.analytic_spectrum(model, count=80)
    emb = build_embedding(provider, 0.1, TruncationPolicy(rho=1.0))
    grid = geometry.sample_grid(model, 64)
    G = emb.pullback_on(grid.points)
    dev = float(np.max(np.abs(G[:, 0, 0] - 1.0)))
    return CheckResult("circle_scale", dev <= tol and emb.q >= 32,
                       {"q": emb.q, "max_deviation": dev, "tol": tol}, budget=5.0)


@_timed
def check_defect_law(uncorrected_window=(0.85, 1.15), corrected_min: float = 1.8,
                     lambda_t_margin: float = 16.0) -> CheckResult:
    """First-order defect decay and its cancellation by the h1 correction.

    The spectral window is lambda <= margin/t per t rather than the flat
    2/t_min: the anisotropy of the shells at the truncation edge enters the
    defect at size ~ exp(-lambda_max t), and with the narrow flat window it
    buries the order-t^2 signal of the corrected embedding (measured slope
    -1.2 at 2/t_min); with edge suppression exp(-16) both slopes are clean.
    """
    model = ManifoldModel.product_sphere_circle(1.0, 2.0 * np.pi)
    ts = [0.1, 0.07, 0.05, 0.035, 0.025]
    policy = TruncationPolicy(rho=1.0)
    window = lambda t: lambda_t_margin / t
    rows_u = embedding.defect_scan(model, ts, policy, resolution=6,
                                   lambda_cutoff=window)
    rows_c = embedding.defect_scan(model, ts, policy,
                                   correction=embedding.CorrectionSpec(l=2, eta=(0.0,)),
                                   resolution=6, lambda_cutoff=window)
    slope_u = analysis.fit_order(ts, [r["defect_sup"] for r in rows_u]).slope
    slope_c = analysis.fit_order(ts, [r["defect_sup"] for r in rows_c]).slope
    ok = uncorrected_window[0] <= slope_u <= uncorrected_window[1] \
        and slope_c >= corrected_min
    return CheckResult("defect_law", ok,
                       {"slope_uncorrected": slope_u, "slope_corrected": slope_c,
                        "window": list(uncorrected_window),
                        "corrected_min": corrected_min,
                        "lambda_t_margin": lambda_t_margin,
                        "rows_uncorrected": rows_u, "rows_corrected": rows_c},
                       budget=600.0)


@_timed
def check_rank_laws(points: int = 20, seed: int = 20240901) -> CheckResult:
    """Singular-value structure and Gram block asymptotics of P and P_c."""
    t = 0.02
    provider = spectrum.analytic_spectrum(TORUS_2PI, count=2700)
    emb = build_embedding(provider, t, TruncationPolicy(rho=1.0))
    grid = geometry.sample_grid(TORUS_2PI, 32)
    if not 1 <= points <= len(grid.points):
        raise ConfigError(f"rank_laws takes 1 to {len(grid.points)} points, got {points!r}")
    rng = np.random.default_rng(seed)
    pts = grid.points[rng.choice(len(grid.points), size=points, replace=False)]
    n = 2
    n_off = n * (n - 1) // 2
    target_P = np.eye(n_off + n)
    target_P[n_off:, n_off:] = jets.xi_matrix(n, 1.0 / 3.0) * 3.0
    target_Pc = np.eye(n_off + n)
    target_Pc[n_off:, n_off:] = jets.xi_matrix(n, -1.0 / (n - 1)) * (2.0 * n - 2.0) / n
    E = jets.PointwiseRightInverse(emb, pts)
    Pc = jets.trace_free_rows(E.P, n)
    G, Gc = E.gram, Pc @ Pc.transpose(0, 2, 1)
    sv = np.linalg.svd(G, compute_uv=False)
    svc = np.linalg.svd(Gc, compute_uv=False)
    hess_group, grad_group = sv[:, :n * (n + 1) // 2], sv[:, n * (n + 1) // 2:]
    worst = {
        "sv_grad_ratio": float(np.min(grad_group.min(1) / grad_group.max(1))),
        "sv_hess_ratio": float(np.min(hess_group.min(1) / hess_group.max(1))),
        "pc_smallest": float(np.max(svc[:, -1] / svc[:, 0])),
        "pc_second": float(np.min(svc[:, -2] / svc[:, 0])),
        "block_P": float(np.max(np.abs(2 * t * G[:, n:, n:] - target_P))),
        "block_Pc": float(np.max(np.abs(2 * t * Gc[:, n:, n:] - target_Pc))),
    }
    ok = (worst["sv_grad_ratio"] >= 1e-3 and worst["sv_hess_ratio"] >= 1e-3
          and worst["pc_smallest"] <= 1e-8 and worst["pc_second"] >= 1e-3
          and worst["block_P"] <= 5 * t and worst["block_Pc"] <= 5 * t)
    worst["block_tol"] = 5 * t
    return CheckResult("rank_laws", ok, worst, budget=30.0)


@_timed
def check_right_inverse(seed: int = 20240902) -> CheckResult:
    """Right-inverse identities of E and the one-parameter family E_c."""
    t = 0.05
    provider = spectrum.analytic_spectrum(TORUS_2PI, count=600)
    emb = build_embedding(provider, t, TruncationPolicy(rho=1.0))
    rng = np.random.default_rng(seed)
    x = rng.uniform(0, 2 * np.pi, size=2)
    E = jets.PointwiseRightInverse(emb, x[None, :])
    P = E.P[0]
    Pc = jets.trace_free_rows(P, 2)
    worst_resid = 0.0
    for _ in range(100):
        rhs = rng.standard_normal(5)
        v = E.apply(rhs[None, :])[0]
        worst_resid = max(worst_resid,
                          float(np.linalg.norm(P @ v - rhs) / np.linalg.norm(rhs)))
    w = E.kernel_generator()[0]
    pc_w = float(np.linalg.norm(Pc @ w) / np.sqrt(2.0))    # |(0, g)| with g = I
    h = np.array([[0.7, -0.2], [-0.2, -0.7]])
    v0 = E.apply_tensor(np.zeros((1, 2)), h[None])[0]
    images = []
    sols = {}
    for k in (-1.0, 0.0, 0.5, 2.0):
        sol = v0 if k == 0.0 else v0 + k * w
        sols[k] = sol
        images.append(Pc @ sol)
    family_spread = float(max(np.max(np.abs(img - images[0])) for img in images))
    lin_err = float(max(np.max(np.abs(sols[k] - sols[0.0] - k * w))
                        for k in (-1.0, 0.5, 2.0)))
    ok = (worst_resid <= 1e-9 and pc_w <= 1e-9 and family_spread <= 1e-10
          and lin_err <= 1e-12)
    return CheckResult("right_inverse", ok,
                       {"max_E_residual": worst_resid, "pc_w_relative": pc_w,
                        "family_spread": family_spread, "linearity_err": lin_err},
                       budget=30.0)


def _manufactured_problem(epsilon: float = 1e-3, resolution: int = 48):
    provider = spectrum.analytic_spectrum(TORUS_2PI, count=600)
    emb = build_embedding(provider, 0.05, TruncationPolicy(rho=1.0))
    solver = perturb.ConformalSolver(emb, resolution=resolution, e=1.0)
    return solver, perturb.manufactured_defect(solver.grid.points, epsilon, [1, 0])


@_timed
def check_fixed_point(epsilon: float = 1e-3, residual_tol: float = 1e-8,
                      seed: int = 20240903) -> CheckResult:
    """Contraction, iterate bound, equation residual, and uniqueness of the solve."""
    solver, f = _manufactured_problem(epsilon)
    history, y = perturb.fixed_point_solve(solver, f, k=0.0, tol=1e-10)
    result = perturb.assemble_C(solver, y, f)
    contractions = [st.contraction for st in history[1:]]
    # restart from a random kick of sup_x |P^T dy| = 1e-3
    rng = np.random.default_rng(seed)
    kick = rng.standard_normal(y.shape)
    kick *= 1e-3 / solver.sup_norm(kick)
    _, y2 = perturb.fixed_point_solve(solver, f, k=0.0, tol=1e-10, y_start=y + kick)
    reconv = float(np.max(np.abs(solver.image(y2 - y))))
    details = {
        "iterations": len(history),
        "max_contraction": max(contractions) if contractions else 0.0,
        "bound_ok_all": all(st.bound_ok for st in history),
        "residual": result.residual_sup,
        "pullback_residual": result.pullback_residual_sup,
        "reconvergence": reconv,
        "steps": [{"l": st.l, "step": st.step_norm, "contraction": st.contraction,
                   "residual": st.residual, "bound_ok": st.bound_ok}
                  for st in history],
    }
    ok = (len(history) <= 20
          and all(c <= 0.5 for c in contractions)
          and details["bound_ok_all"]
          and result.residual_sup <= residual_tol
          and reconv <= 1e-8)
    return CheckResult("fixed_point", ok, details, budget=300.0)


@_timed
def check_conformal_family(epsilon: float = 1e-3, residual_tol: float = 1e-8) -> CheckResult:
    """Two members of the conformal family: residuals, separation, injectivity."""
    solver, f = _manufactured_problem(epsilon)
    ks = (0.0, 1e-3)
    ys, injectivity, residuals = {}, {}, {}
    for k in ks:
        _, ys[k] = perturb.fixed_point_solve(solver, f, k=k, tol=1e-10)
        result = perturb.assemble_C(solver, ys[k], f)
        injectivity[k], residuals[k] = result.injectivity, result.residual_sup
    diff, upper, lower = perturb.family_bounds(solver, ys[ks[0]], ys[ks[1]],
                                               ks[1] - ks[0])
    details = {
        "residuals": {str(k): residuals[k] for k in ks},
        "family_distance": diff,
        "upper_bound": upper,
        "lower_bound": lower,
        "injectivity": {str(k): injectivity[k] for k in ks},
    }
    ok = (all(r <= residual_tol for r in residuals.values())
          and lower <= diff <= upper
          and all(d > 0 for d in injectivity.values()))
    return CheckResult("conformal_family", ok, details, budget=300.0)


@_timed
def check_linear_algebra(seed: int = 20240904) -> CheckResult:
    """Closed-form Xi inverses, boundary rank drop, and the block-inverse lemma."""
    rng = np.random.default_rng(seed)
    worst_inv = 0.0
    for n in range(2, 7):
        lo = -1.0 / (n - 1)
        for sigma in (-0.2, 0.0, 1.0 / 3.0, 0.9):
            sigma_eff = max(sigma, lo + 1e-2)    # clip into the open interval
            Xi = jets.xi_matrix(n, sigma_eff)
            err = float(np.max(np.abs(Xi @ jets.xi_inverse(n, sigma_eff) - np.eye(n))))
            worst_inv = max(worst_inv, err)
        sv = np.linalg.svd(jets.xi_matrix(n, lo), compute_uv=False)
        if np.sum(sv > 1e-10 * sv[0]) != n - 1:
            return CheckResult("linear_algebra", False,
                               {"rank_failure_n": n}, budget=10.0)
        lhs = 3.0 * jets.xi_matrix(n, 1.0 / 3.0) - ((n + 2.0) / n) * np.ones((n, n))
        rhs = ((2.0 * n - 2.0) / n) * jets.xi_matrix(n, lo)
        if np.max(np.abs(lhs - rhs)) > 1e-14:   # exact up to one rounding ulp
            return CheckResult("linear_algebra", False,
                               {"identity_failure_n": n}, budget=10.0)
    worst_block = 0.0
    for _ in range(100):
        m1, m2 = rng.integers(2, 5), rng.integers(2, 6)
        A1 = _random_spd(rng, m1)
        A2 = _random_spd(rng, m2)
        b = 0.05 * rng.standard_normal((m2, m1))
        M = np.block([[A1, b.T], [b, A2]])
        inv = jets.block_inverse(A1, A2, b)
        worst_block = max(worst_block, float(np.max(np.abs(inv - np.linalg.inv(M)))))
    ok = worst_inv <= 1e-12 and worst_block <= 1e-10
    return CheckResult("linear_algebra", ok,
                       {"xi_inverse_err": worst_inv, "block_vs_dense": worst_block},
                       budget=10.0)


def _random_spd(rng, m):
    A = rng.standard_normal((m, m))
    return A @ A.T + m * np.eye(m)


@_timed
def check_tail_bound() -> CheckResult:
    """Truncation-tail size against exp(-t^(-rho/n)) with unit constant.

    The circle rows pass with orders of magnitude to spare.  The flat-torus
    rows at t in {0.1, 0.05} cannot pass: the exact lattice tails are
    0.34 and 0.025 against bounds 0.042 and 0.011 (the asymptotic statement
    carries an unspecified constant; with constant 1 the two-dimensional
    polynomial prefactor only drops below it near t = 0.04).  The torus row
    at t = 0.02 demonstrates the asymptotic regime and passes.
    """
    policy = TruncationPolicy(rho=1.0)
    rows = []
    circle = ManifoldModel.circle(2.0 * np.pi)
    cprov = spectrum.analytic_spectrum(circle, count=600)
    for t in (0.1, 0.05):
        tail, bound, okay = embedding.tail_bound_check(cprov, t, policy, resolution=32)
        rows.append({"model": "circle", "t": t, "tail": tail, "bound": bound,
                     "pass": okay, "in_criterion": True})
    tprov = spectrum.analytic_spectrum(TORUS_2PI, count=10100)
    for t, stated in ((0.1, True), (0.05, True), (0.02, False)):
        tail, bound, okay = embedding.tail_bound_check(tprov, t, policy, resolution=16)
        rows.append({"model": "flat_torus", "t": t, "tail": tail, "bound": bound,
                     "pass": okay, "in_criterion": stated})
    stated_pass = all(r["pass"] for r in rows if r["in_criterion"])
    return CheckResult("tail_bound", stated_pass, {"rows": rows},
                       expected_fail=not stated_pass,
                       note="unit-constant bound unattainable on the 2-torus at "
                            "t >= 0.05; see rows for measured values",
                       budget=30.0)


ALL_CHECKS = {
    "homothety": check_homothety,
    "circle_scale": check_circle_scale,
    "defect_law": check_defect_law,
    "rank_laws": check_rank_laws,
    "right_inverse": check_right_inverse,
    "fixed_point": check_fixed_point,
    "conformal_family": check_conformal_family,
    "linear_algebra": check_linear_algebra,
    "tail_bound": check_tail_bound,
}


def run_all(criteria=None, overrides=None) -> list[CheckResult]:
    """Run the named criteria (all by default) with optional kwarg overrides."""
    overrides = overrides or {}
    names = list(ALL_CHECKS) if criteria is None else list(criteria)
    results = []
    for name in names:
        if name not in ALL_CHECKS:
            raise KeyError(f"unknown acceptance criterion {name!r}")
        results.append(ALL_CHECKS[name](**overrides.get(name, {})))
    return results
