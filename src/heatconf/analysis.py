"""Discrete norm estimation and asymptotic-order fitting.

Continuum Hoelder norms are replaced by computable surrogates: derivative
sup norms over the grid plus an increment quotient |D f(x) - D f(y)| / d^alpha
maximized over grid pairs closer than half the model's injectivity surrogate.
On a flat torus sampled at its uniform lattice the quotient covers every such
pair, one lattice offset at a time; elsewhere a dense pair list is strided
down to a pair budget.
Order claims are measured as log-log regression slopes and reported as fits,
never asserted as equalities (the underlying estimates are one-sided).
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import geometry
from .errors import ConfigError
from .geometry import ManifoldModel

PAIR_CAP = 1_000_000


@dataclass
class NormEstimate:
    sup: float
    derivative_sups: list[float]
    holder: float
    s: int
    alpha: float


@dataclass
class OrderFit:
    slope: float
    intercept: float
    r_squared: float
    t_values: np.ndarray
    y_values: np.ndarray


def _close_pairs(points: np.ndarray, model: ManifoldModel, radius: float,
                 cap: int = PAIR_CAP):
    """Index pairs (i, j), i < j, with geodesic distance <= radius, plus distances.

    Point sets too large for the pair budget are strided down deterministically.
    """
    N = len(points)
    stride = 1
    while (N // stride) ** 2 // 2 > cap:
        stride += 1
    idx = np.arange(0, N, stride)
    sub = points[idx]
    d = geometry.geodesic_distance(model, sub[:, None, :], sub[None, :, :])
    ii, jj = np.triu_indices(len(sub), k=1)
    mask = d[ii, jj] <= radius
    return idx[ii[mask]], idx[jj[mask]], d[ii, jj][mask]


def _lattice_resolution(points: np.ndarray, model: ManifoldModel) -> int | None:
    """r when `points` is exactly the flat torus's `sample_grid(model, r)`, else None."""
    if model.kind != geometry.FLAT_TORUS:
        return None
    n = model.dim
    r = int(round(len(points) ** (1.0 / n)))
    if r < 4 or r**n != len(points):
        return None
    return r if np.array_equal(points, geometry.sample_grid(model, r).points) else None


def _lattice_holder(values: np.ndarray, model: ManifoldModel, r: int, radius: float,
                    alpha: float) -> float:
    """The increment quotient over every pair of a torus lattice within radius.

    Each pair is a lattice offset o; one of o and -o is taken, the field is
    shifted by it (np.roll) and compared with itself.  The offset length
    |o_a L_a / r| decides membership, with 1e-12 relative slack so that pairs
    lying on the radius count whatever their rounding.
    """
    n = model.dim
    h = np.asarray(model.periods) / r
    reach = radius * (1.0 + 1e-12)
    field = values.reshape((r,) * n + values.shape[1:])
    box = [np.arange(-int(reach / h_a), int(reach / h_a) + 1) for h_a in h]
    best = 0.0
    for o in itertools.product(*box):
        nonzero = [x for x in o if x]
        if not nonzero or nonzero[0] < 0:          # o = 0, or -o stands for it
            continue
        d = float(np.sqrt(np.sum((np.array(o) * h) ** 2)))
        if d > reach:
            continue
        diff = np.max(np.abs(field - np.roll(field, o, axis=tuple(range(n)))))
        best = max(best, float(diff) / d**alpha)
    return best


def holder_seminorm_field(values: np.ndarray, points: np.ndarray,
                          model: ManifoldModel, alpha: float,
                          cap: int = PAIR_CAP) -> float:
    """max over close pairs of |values_i - values_j|_inf / dist^alpha.

    On a flat torus sampled at its `sample_grid` lattice every pair is a
    lattice offset, and all pairs are compared by shifting the field.  Any
    other model or point set compares a dense pair list, strided to `cap`.
    """
    values = np.asarray(values, dtype=float)
    if values.ndim == 1:
        values = values[:, None]
    radius = model.injectivity_surrogate / 2.0
    r = _lattice_resolution(points, model)
    if r is not None:
        return _lattice_holder(values, model, r, radius, alpha)
    ii, jj, d = _close_pairs(points, model, radius, cap)
    if len(d) == 0:
        return 0.0
    good = d > 0
    diff = np.max(np.abs(values[ii[good]] - values[jj[good]]), axis=1)
    return float(np.max(diff / d[good] ** alpha)) if np.any(good) else 0.0


def holder_norm(values: np.ndarray, s: int, alpha: float, points: np.ndarray,
                model: ManifoldModel, differentiate=None,
                cap: int = PAIR_CAP) -> NormEstimate:
    """Discrete C^{s,alpha} surrogate of a field sampled on a grid.

    `values` is [N] (scalar field) or [N, d] (vector field, pointwise l2 norm
    is reported).  `differentiate` maps a sampled array to its coordinate
    derivative with one trailing axis added; it is required for s >= 1
    (spectral backends supply it, tabulated fields are limited to the data
    they carry).
    """
    if not 0 < alpha < 1:
        raise ConfigError("alpha must lie in (0, 1)")
    values = np.asarray(values, dtype=float)
    flat = values.reshape(len(values), -1)
    sup = float(np.max(np.linalg.norm(flat, axis=1)))
    deriv_sups = []
    current = values
    for _ in range(s):
        if differentiate is None:
            raise ConfigError("derivative order exceeds what this backend supports")
        current = differentiate(current)
        deriv_sups.append(float(np.max(np.abs(current))))
    holder = holder_seminorm_field(current.reshape(len(values), -1), points,
                                   model, alpha, cap)
    return NormEstimate(sup, deriv_sups, holder, s, alpha)


def fit_order(t_values, values) -> OrderFit:
    """Least-squares slope of log(values) against log(t)."""
    t = np.asarray(t_values, dtype=float)
    y = np.asarray(values, dtype=float)
    if len(t) < 3:
        raise ConfigError("order fitting needs at least 3 samples")
    if np.any(t <= 0) or np.any(y <= 0):
        raise ConfigError("order fitting needs strictly positive samples")
    lt, ly = np.log(t), np.log(y)
    A = np.column_stack([lt, np.ones_like(lt)])
    coef, *_ = np.linalg.lstsq(A, ly, rcond=None)
    resid = ly - A @ coef
    ss_tot = float(np.sum((ly - ly.mean()) ** 2))
    r2 = 1.0 - float(np.sum(resid**2)) / ss_tot if ss_tot > 0 else 1.0
    return OrderFit(float(coef[0]), float(coef[1]), r2, t, y)


def scaling_diagnostics(maps, resolution: int = 16, s: int = 2, alpha: float = 0.5,
                        probes: int = 8, seed: int = 0) -> dict:
    """Norm sweeps of an embedding family and its right inverse across t.

    Measures per map: sup |Psi|, sup |grad Psi|, the alpha-Hoelder quotient of
    grad Psi, and a random-probe operator-norm proxy for the right inverse E.
    Fitted slopes are checked against the allowed decay rates
    (within -0.25 of -(s-1+alpha)/2 for Psi and -(s+alpha)/2 for E).
    """
    from . import jets   # local import keeps module load order simple

    rng = np.random.default_rng(seed)
    model = maps[0].model
    grid = geometry.sample_grid(model, resolution)
    rows = []
    for emb in maps:
        vals, grads, _ = emb.jets(grid.points, deriv=1)
        c0 = float(np.max(np.linalg.norm(vals, axis=0)))
        gnorm = np.linalg.norm(grads, axis=(0, 2))
        c1 = float(np.max(gnorm))
        c1_holder = holder_seminorm_field(
            np.moveaxis(grads, 0, 1).reshape(len(grid.points), -1),
            grid.points, model, alpha)
        m = model.dim * (model.dim + 3) // 2
        pts = grid.points[rng.choice(len(grid.points), size=probes, replace=False)]
        rhs = rng.standard_normal((probes, m))
        sol = jets.PointwiseRightInverse(emb, pts).apply(rhs)
        ratios = np.linalg.norm(sol, axis=1) / np.linalg.norm(rhs, axis=1)
        rows.append({"t": emb.t, "psi_c0": c0, "psi_c1": c1,
                     "psi_c1_holder": c1_holder, "E_opnorm": float(np.max(ratios))})
    ts = [r["t"] for r in rows]
    fits = {}
    for key, exponent in (("psi_c1", (s - 1 + alpha) / 2.0),
                          ("psi_c1_holder", (s - 1 + alpha) / 2.0),
                          ("E_opnorm", (s + alpha) / 2.0)):
        fit = fit_order(ts, [r[key] for r in rows])
        fits[key] = {"slope": fit.slope, "allowed": -exponent,
                     "pass": fit.slope >= -exponent - 0.25}
    return {"rows": rows, "fits": fits}
