"""Discrete Hoelder quotients and asymptotic-order fitting.

The continuum Hoelder seminorm is replaced by a computable surrogate: the
increment quotient |f(x) - f(y)| / d^alpha maximized over grid pairs closer
than half the model's injectivity surrogate.
On a flat torus sampled at its uniform lattice the quotient covers every such
pair, one lattice offset at a time; elsewhere a dense pair list is strided
down to a pair budget.
Order claims are measured as log-log regression slopes and reported as fits,
never asserted as equalities (the underlying estimates are one-sided).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import geometry
from .errors import ConfigError
from .geometry import ManifoldModel

PAIR_CAP = 1_000_000


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

    Each pair is a lattice offset o; one of o and -o is taken and the field
    is compared with itself shifted by it.  The field is wrap-padded once by
    the offset box's reach on each axis, so every shifted copy is a slice
    view of the padded one.  The offsets kept and their lengths are built as
    one table, and every difference goes through one buffer.  The offset
    length |o_a L_a / r| decides membership, with 1e-12 relative slack so
    that pairs lying on the radius count whatever their rounding.
    """
    n = model.dim
    h = np.asarray(model.periods) / r
    reach = radius * (1.0 + 1e-12)
    field = values.reshape((r,) * n + values.shape[1:])
    wide = [int(reach / h_a) for h_a in h]
    padded = np.pad(field, [(w, w) for w in wide] + [(0, 0)] * (field.ndim - n),
                    mode="wrap")
    box = np.stack(np.meshgrid(*(np.arange(-w, w + 1) for w in wide), indexing="ij"),
                   axis=-1).reshape(-1, n)
    lead = box[np.arange(len(box)), np.argmax(box != 0, axis=1)]  # first nonzero entry
    dist = np.sqrt(np.sum((box * h) ** 2, axis=1))
    keep = (lead > 0) & (dist <= reach)         # o = 0 and the -o of a kept o drop out
    diff = np.empty_like(field)
    best = 0.0
    for o, d in zip(box[keep].tolist(), dist[keep].tolist()):
        # field shifted by o, as np.roll(field, o) would give it
        shifted = padded[tuple(slice(w - o_a, w - o_a + r) for w, o_a in zip(wide, o))]
        np.subtract(field, shifted, out=diff)
        best = max(best, float(np.max(np.abs(diff, out=diff))) / d**alpha)
    return best


def holder_seminorm_field(values: np.ndarray, points: np.ndarray,
                          model: ManifoldModel, alpha: float,
                          cap: int = PAIR_CAP) -> float:
    """max over close pairs of |values_i - values_j|_inf / dist^alpha.

    `values` is [N, ...], one sample per point; the trailing axes are
    flattened into the component max.  On a flat torus sampled at its
    `sample_grid` lattice every pair is a lattice offset, and all pairs are
    compared by shifting the field.  Any other model or point set compares a
    dense pair list, strided to `cap`.
    """
    values = np.asarray(values, dtype=float).reshape(len(values), -1)
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
