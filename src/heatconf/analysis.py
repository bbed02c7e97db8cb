"""Discrete Hoelder quotients and asymptotic-order fitting.

The continuum Hoelder seminorm is replaced by a computable surrogate: the
increment quotient |f(x) - f(y)| / d^alpha maximized over grid pairs closer
than half the model's injectivity surrogate.
The pairs are one table per sample grid (`holder_pairs`), which the quotient
of every field sampled on that grid reads (`holder_seminorm_field`).  On a
flat torus the table is the offsets of its uniform lattice, which cover every
such pair, and the quotient compares the field with each shift of itself;
elsewhere it is a dense pair list strided down to a pair budget.
The lattice scan is exact and output-sensitive: it bounds every offset's
increment by the field's per-line maxima and minima along each grid axis
(`_offset_bounds`) and visits the offsets in decreasing order of bound /
d^alpha, stopping at the first whose bound cannot beat the best quotient
found, so that its value is that of the full scan bit for bit.  A field with
a NaN or infinite sample has quotient nan on either table.
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
# values per gathered block of line-range bounds (256 KB)
_BLOCK = 2**15


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


class LatticeOffsets(NamedTuple):
    """The pairs of a flat torus's `sample_grid` lattice within the radius.

    Each pair is a lattice offset o, and one of o and -o is kept.  The field
    is wrap-padded by `wide`, the offset box's reach on each axis, so every
    shifted copy is a slice view of the padded one.  `lines` holds, per axis
    a, the tables of the offset bounds: the grid lines along a are numbered
    row-major by their other coordinates, an offset o moves line l to line
    l + o' (o' is o without its a entry, mod r), and the table is the line
    map [shifts, r^(n-1)] of each distinct o' with the row of each offset's o'.
    """

    r: int                    # points per axis
    wide: tuple               # per axis, the padding width
    offsets: list             # kept offsets, one n-tuple each
    dist: list                # their lengths
    lines: tuple              # per axis, (line map [shifts, r^(n-1)], shift row [offsets])


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
    kept = box[keep]
    # each line's coordinates off the dropped axis, and their row-major place values
    coords = np.indices((r,) * (n - 1)).reshape(n - 1, r ** (n - 1)).T
    place = r ** np.arange(n - 2, -1, -1)
    lines = []
    for a in range(n):
        shifts, row = np.unique(np.delete(kept, a, axis=1), axis=0, return_inverse=True)
        lines.append((((coords + shifts[:, None, :]) % r) @ place, row.reshape(-1)))
    return LatticeOffsets(r, wide, kept.tolist(), dist[keep].tolist(), tuple(lines))


def holder_pairs(model: ManifoldModel, resolution: int) -> LatticeOffsets | ClosePairs:
    """The pair table of the Hoelder quotient on `sample_grid(model, resolution)`:
    the pairs closer than half the model's injectivity surrogate.

    On a flat torus every pair of the sample lattice is a lattice offset, and
    the table is the offsets (`LatticeOffsets`).  Any other model gets the
    dense pair list of its sample grid with d > 0, strided to `PAIR_CAP`
    pairs (`ClosePairs`).  One table serves every field sampled on the grid.
    """
    radius = model.injectivity_surrogate / 2.0
    if model.kind == geometry.FLAT_TORUS:
        return _lattice_offsets(model, resolution, radius)
    points = geometry.sample_grid(model, resolution).points
    ii, jj, d = _close_pairs(points, model, radius)
    good = d > 0
    return ClosePairs(ii[good], jj[good], d[good])


def _offset_bounds(field: np.ndarray, pairs: LatticeOffsets) -> np.ndarray:
    """An upper bound UB(o) [offsets] of max |F(x) - F(x + o)| over the grid
    and components of `field` [r, ..., r, comps], for each offset of `pairs`.

    Along axis a, with hi and lo the per-line maxima and minima
    [r^(n-1), comps] and o moving line l to line m = l + o',
        UB_a(o) = max over l, comps of max(hi[l] - lo[m], hi[m] - lo[l]),
    and UB = min over a of UB_a.  UB_a is computed once per distinct shift
    o' and gathered, a block of at most `_BLOCK` values at a time.  Since
    F(x) <= hi and F(x + o) >= lo and rounding is monotone, every computed
    difference of the offset is at most UB in floating point too.
    """
    comps = field.shape[-1]
    bound = np.full(len(pairs.offsets), np.inf)
    for a, (lines, row) in enumerate(pairs.lines):
        # axis a leading and contiguous: numpy reduces a leading axis row by row,
        # an inner one a few components at a time
        along = np.ascontiguousarray(np.moveaxis(field, a, 0))
        hi = along.max(axis=0).reshape(-1, comps)
        lo = along.min(axis=0).reshape(-1, comps)
        # [hi, -lo][l] + [-lo, hi][m] holds both differences of a line pair
        # (a + (-b) rounds as a - b does)
        own = np.concatenate([hi, -lo], axis=1)
        other = np.concatenate([-lo, hi], axis=1)
        per_shift = np.empty(len(lines))
        step = max(1, _BLOCK // own.size)
        for s in range(0, len(lines), step):
            m = lines[s:s + step]
            per_shift[s:s + len(m)] = (own + other[m]).reshape(len(m), -1).max(axis=1)
        np.minimum(bound, per_shift[row], out=bound)
    return bound


def _lattice_holder(values: np.ndarray, pairs: LatticeOffsets,
                    alpha: float) -> tuple[float, int]:
    """The increment quotient of a finite field `values` [N, comps] over the
    offsets of a torus lattice, and the number of offsets it compared.

    The field is compared with itself shifted by an offset o, every
    difference going through one buffer, giving q(o) = max |diff| / d^alpha.
    Only some offsets are compared: each gets the cap UB(o) / d^alpha
    (`_offset_bounds`), with the same float d**alpha that divides q(o), so
    q(o) <= cap(o) in floating point.  The offsets are visited in decreasing
    order of cap (a stable sort), and the scan stops at the first whose cap
    is at most the best quotient so far: no offset left can exceed it, so
    the result is the maximum of q over every offset, bit for bit.  A field
    that varies along one grid axis has UB equal to the offset's largest
    difference, and the scan compares one offset or a few; a diagonal mode
    may need all of them.
    """
    r, wide = pairs.r, pairs.wide
    n = len(wide)
    field = values.reshape((r,) * n + values.shape[1:])
    scale = [d**alpha for d in pairs.dist]
    cap = _offset_bounds(field, pairs) / scale
    order = np.argsort(-cap, kind="stable").tolist()
    cap = cap.tolist()
    padded = np.pad(field, [(w, w) for w in wide] + [(0, 0)], mode="wrap")
    diff = np.empty_like(field)
    best, compared = 0.0, 0
    for i in order:
        if cap[i] <= best:
            break
        # field shifted by o, as np.roll(field, o) would give it
        o = pairs.offsets[i]
        shifted = padded[tuple(slice(w - o_a, w - o_a + r) for w, o_a in zip(wide, o))]
        np.subtract(field, shifted, out=diff)
        best = max(best, float(np.max(np.abs(diff, out=diff))) / scale[i])
        compared += 1
    return best, compared


def holder_seminorm_field(values: np.ndarray, pairs: LatticeOffsets | ClosePairs,
                          alpha: float) -> float:
    """max over the pairs of |values_i - values_j|_inf / dist^alpha.

    `values` is [N, ...], one sample per point of the `holder_pairs` table
    `pairs`; the trailing axes are flattened into the component max.  A
    field with a NaN or infinite sample has no finite quotient: it gets nan,
    whichever pairs would have met the sample, and the lattice path never
    forms bounds that inf - inf would make nan.
    """
    values = np.asarray(values, dtype=float).reshape(len(values), -1)
    if not np.isfinite(values).all():
        return np.nan
    if isinstance(pairs, LatticeOffsets):
        return _lattice_holder(values, pairs, alpha)[0]
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
