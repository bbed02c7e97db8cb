"""Discrete Hoelder quotients and asymptotic-order fitting.

The continuum Hoelder seminorm is replaced by a computable surrogate: the
increment quotient |f(x) - f(y)| / d^alpha maximized over grid pairs closer
than half the model's injectivity surrogate.
The pairs are one table per point set (`holder_pairs`), which the quotient of
every field sampled on those points reads (`holder_seminorm_field`).  On a
flat torus sampled at its uniform lattice the table is the lattice offsets,
which cover every such pair, and the quotient compares the field with each
shift of itself; elsewhere it is a dense pair list strided down to a pair
budget.
Order claims are measured as log-log regression slopes and reported as fits,
never asserted as equalities (the underlying estimates are one-sided).
`defect-scan` and `perturb` report the Hoelder quotients of the fields they
compute; no acceptance check reads them.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import geometry
from .errors import ConfigError
from .geometry import ManifoldModel

# pairs the dense Hoelder quotient compares at most; read at call time
PAIR_CAP = 1_000_000


@dataclass
class OrderFit:
    slope: float
    intercept: float
    r_squared: float


def _close_pairs(points: np.ndarray, model: ManifoldModel, radius: float):
    """Index pairs (i, j), i < j, with geodesic distance <= radius, plus distances.

    Point sets too large for the pair budget `PAIR_CAP` are strided down
    deterministically.
    """
    N = len(points)
    stride = 1
    while (N // stride) ** 2 // 2 > PAIR_CAP:
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


class LatticeOffsets(NamedTuple):
    """The pairs of a flat torus's `sample_grid` lattice within the radius.

    Each pair is a lattice offset o, and one of o and -o is kept.  The field
    is wrap-padded by `wide`, the offset box's reach on each axis, so every
    shifted copy is a slice view of the padded one.
    """

    r: int                    # points per axis
    wide: tuple               # per axis, the padding width
    offsets: list             # kept offsets, one n-tuple each
    dist: list                # their lengths


class ClosePairs(NamedTuple):
    """Index pairs (i, j), i < j, at geodesic distance 0 < d <= radius."""

    ii: np.ndarray
    jj: np.ndarray
    d: np.ndarray


def _lattice_offsets(model: ManifoldModel, r: int, radius: float) -> LatticeOffsets:
    """The offsets of the r-point-per-axis torus lattice within radius.

    The offset length |o_a L_a / r| decides membership, with 1e-12 relative
    slack so that pairs lying on the radius count whatever their rounding.
    """
    n = model.dim
    h = np.asarray(model.periods) / r
    reach = radius * (1.0 + 1e-12)
    wide = tuple(int(reach / h_a) for h_a in h)
    box = np.stack(np.meshgrid(*(np.arange(-w, w + 1) for w in wide), indexing="ij"),
                   axis=-1).reshape(-1, n)
    lead = box[np.arange(len(box)), np.argmax(box != 0, axis=1)]  # first nonzero entry
    dist = np.sqrt(np.sum((box * h) ** 2, axis=1))
    keep = (lead > 0) & (dist <= reach)         # o = 0 and the -o of a kept o drop out
    return LatticeOffsets(r, wide, box[keep].tolist(), dist[keep].tolist())


def holder_pairs(points: np.ndarray, model: ManifoldModel) -> LatticeOffsets | ClosePairs:
    """The pair table of the Hoelder quotient on `points`: the pairs closer than
    half the model's injectivity surrogate.

    On a flat torus sampled at its `sample_grid` lattice every pair is a
    lattice offset, and the table is the offsets (`LatticeOffsets`).  Any
    other model or point set gets the dense pair list with d > 0, strided to
    `PAIR_CAP` pairs (`ClosePairs`).  One table serves every field sampled
    on the same points.
    """
    radius = model.injectivity_surrogate / 2.0
    r = _lattice_resolution(points, model)
    if r is not None:
        return _lattice_offsets(model, r, radius)
    ii, jj, d = _close_pairs(points, model, radius)
    good = d > 0
    return ClosePairs(ii[good], jj[good], d[good])


def _lattice_holder(values: np.ndarray, pairs: LatticeOffsets, alpha: float) -> float:
    """The increment quotient over the offsets of a torus lattice: the field
    is compared with itself shifted by each offset, every difference going
    through one buffer."""
    r, wide = pairs.r, pairs.wide
    n = len(wide)
    field = values.reshape((r,) * n + values.shape[1:])
    padded = np.pad(field, [(w, w) for w in wide] + [(0, 0)] * (field.ndim - n),
                    mode="wrap")
    diff = np.empty_like(field)
    best = 0.0
    for o, d in zip(pairs.offsets, pairs.dist):
        # field shifted by o, as np.roll(field, o) would give it
        shifted = padded[tuple(slice(w - o_a, w - o_a + r) for w, o_a in zip(wide, o))]
        np.subtract(field, shifted, out=diff)
        best = max(best, float(np.max(np.abs(diff, out=diff))) / d**alpha)
    return best


def holder_seminorm_field(values: np.ndarray, pairs: LatticeOffsets | ClosePairs,
                          alpha: float) -> float:
    """max over the pairs of |values_i - values_j|_inf / dist^alpha.

    `values` is [N, ...], one sample per point of the `holder_pairs` table
    `pairs`; the trailing axes are flattened into the component max.
    """
    values = np.asarray(values, dtype=float).reshape(len(values), -1)
    if isinstance(pairs, LatticeOffsets):
        return _lattice_holder(values, pairs, alpha)
    if len(pairs.d) == 0:
        return 0.0
    diff = np.max(np.abs(values[pairs.ii] - values[pairs.jj]), axis=1)
    return float(np.max(diff / pairs.d ** alpha))


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
    return OrderFit(float(coef[0]), float(coef[1]), r2)
