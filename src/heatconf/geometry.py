"""Analytic testbed manifolds with closed-form metric, connection, and curvature.

Supported kinds:

* ``flat_torus``            -- R^n / (L_1 Z x ... x L_n Z), chart x_i in [0, L_i), g = I
* ``circle``                -- circumference L, chart theta in [0, 2*pi), g = (L/2pi)^2
* ``sphere2``               -- round 2-sphere of radius R, chart (theta, phi)
* ``product_sphere_circle`` -- S^2(R) x S^1(L), chart (theta, phi, s)

One batched evaluator, `metric_on_grid`, gives the metric, its inverse, the
orthonormal frame, the connection, Ricci and scalar curvature and the first
heat-expansion tensor A1 over chart points [N, n]; a single point is a batch
of one.  Point arrays not of width n, and points within 1e-9 of a pole,
raise DomainError.  Curvature is hard-coded per atomic kind and cross-checked
by finite differences of that same evaluator in the tests.

`KINDS` holds one record per kind: its params with their config parsers
(JSON numbers that `errors.finite` accepts), in the order `to_config` writes
them, and on an atomic kind its dim, volume and injectivity surrogate.  The
product takes its dim, volume, injectivity surrogate and `blocks` from its
`factors` S^2(R) and S^1(L): their sum, product, min and consecutive
coordinate ranges; `metric_on_grid`, `sample_grid` and `geodesic_distance`
compose the factors' too.  `ManifoldModel.rescaled` multiplies each block by
a constant factor, which realizes the first-order correction g + t h1.
`conformal_defect` is the one trace-free part G - (tr_g G / n) g, shared by
the pullback report, the h1 correction and the flat-torus solver.
"""
from __future__ import annotations

import dataclasses
import functools
import itertools
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .errors import (ConfigError, DomainError, PreconditionError, as_float,
                     as_float_list, reject_unknown_keys)

FLAT_TORUS = "flat_torus"
CIRCLE = "circle"
SPHERE2 = "sphere2"
PRODUCT_SPHERE_CIRCLE = "product_sphere_circle"


class Kind(NamedTuple):
    """One kind's params and, on an atomic kind, closed forms as functions of a model."""
    params: dict
    dim: Callable | None = None
    volume: Callable | None = None
    injectivity_surrogate: Callable | None = None


KINDS = {
    FLAT_TORUS: Kind({"periods": lambda value, name: tuple(as_float_list(value, name))},
                     dim=lambda m: len(m.periods), volume=lambda m: float(np.prod(m.periods)),
                     injectivity_surrogate=lambda m: min(m.periods) / 2.0),
    CIRCLE: Kind({"length": as_float}, dim=lambda m: 1, volume=lambda m: m.length,
                 injectivity_surrogate=lambda m: m.length / 2.0),
    SPHERE2: Kind({"radius": as_float}, dim=lambda m: 2, volume=lambda m: 4 * np.pi * m.radius**2,
                  injectivity_surrogate=lambda m: np.pi * m.radius),
    PRODUCT_SPHERE_CIRCLE: Kind({"length": as_float, "radius": as_float}),
}

_POLE_MARGIN = 1e-9


@dataclass(frozen=True)
class ManifoldModel:
    """Immutable description of one testbed manifold."""

    kind: str
    periods: tuple[float, ...] = ()   # flat_torus only
    radius: float = 0.0               # sphere2 / product
    length: float = 0.0               # circle / product

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ConfigError(f"unknown manifold kind {self.kind!r}")
        # NaN fails every comparison, so it is refused with the rest
        for key in KINDS[self.kind].params:
            value = getattr(self, key)
            values = value if isinstance(value, tuple) else (value,)
            if not values or not all(0 < v < math.inf for v in values):
                raise ConfigError(f"{self.kind} needs positive finite {key}, got {value!r}")
        # finite parameters can still overflow or underflow: the square of a
        # radius of 1e300 or 1e-200, or the eigenvalue scale (2 pi)^2 /
        # volume^(2/n) of a circle of length 1e-320 or 1e200
        try:
            with np.errstate(over="ignore", under="ignore", divide="ignore"):
                volume = float(self.volume)
                scale = (2.0 * np.pi) ** 2 / np.float64(volume) ** (2.0 / self.dim)
        except OverflowError:
            volume = scale = math.inf
        if not (0 < volume < math.inf and 0 < scale < math.inf):
            raise ConfigError(f"{self.kind} volume {volume:g} or its eigenvalue scale (2 pi)^2 "
                              f"/ volume^(2/n) = {scale:g} is not positive and finite: its "
                              "parameters overflow or underflow")

    @classmethod
    def flat_torus(cls, periods) -> "ManifoldModel":
        return cls(FLAT_TORUS, periods=tuple(float(p) for p in periods))

    @classmethod
    def circle(cls, length: float) -> "ManifoldModel":
        return cls(CIRCLE, length=float(length))

    @classmethod
    def sphere2(cls, radius: float) -> "ManifoldModel":
        return cls(SPHERE2, radius=float(radius))

    @classmethod
    def product_sphere_circle(cls, radius: float, length: float) -> "ManifoldModel":
        return cls(PRODUCT_SPHERE_CIRCLE, radius=float(radius), length=float(length))

    @property
    def dim(self) -> int:
        return sum(KINDS[f.kind].dim(f) for f in self.factors)

    @property
    def volume(self) -> float:
        return math.prod(KINDS[f.kind].volume(f) for f in self.factors)

    @property
    def injectivity_surrogate(self) -> float:
        """Length scale below which chart geodesic distance is trustworthy."""
        return min(KINDS[f.kind].injectivity_surrogate(f) for f in self.factors)

    @property
    def blocks(self) -> tuple[tuple[int, ...], ...]:
        """Chart coordinates of each metric block: one consecutive range per factor."""
        ends = list(itertools.accumulate((f.dim for f in self.factors), initial=0))
        return tuple(tuple(range(a, b)) for a, b in zip(ends, ends[1:]))

    @functools.cached_property
    def factors(self) -> tuple["ManifoldModel", ...]:
        """The model on each metric block: S^2(R) and S^1(L) for the product,
        the model itself on the other kinds; built on first use and kept."""
        if self.kind == PRODUCT_SPHERE_CIRCLE:
            return ManifoldModel.sphere2(self.radius), ManifoldModel.circle(self.length)
        return (self,)

    def rescaled(self, factors) -> "ManifoldModel":
        """The model whose metric is factors[b] times g on each block b.

        Each block's lengths scale by sqrt(factor), so its eigenvalues divide
        by the factor and its eigenfunctions renormalize through the volume
        change.  The periods and the radius belong to the first block, the
        length to the last.
        """
        factors = [float(c) for c in factors]
        if len(factors) != len(self.blocks):
            raise ConfigError(f"{self.kind} has {len(self.blocks)} metric blocks, "
                              f"got {len(factors)} factors")
        if not all(c > 0 for c in factors):
            raise ConfigError(f"metric block factors must be strictly positive, got {factors}")
        first, last = math.sqrt(factors[0]), math.sqrt(factors[-1])
        return dataclasses.replace(self, periods=tuple(L * first for L in self.periods),
                                   radius=self.radius * first, length=self.length * last)

    def to_config(self) -> dict:
        params = {key: getattr(self, key) for key in KINDS[self.kind].params}
        return {"kind": self.kind, "params": {
            key: list(v) if isinstance(v, tuple) else v for key, v in params.items()}}

    @classmethod
    def from_config(cls, cfg) -> "ManifoldModel":
        """Model from {"kind", "params"}: params holds the keys of KINDS[kind].params,
        each read by its parser; a key that is missing, unknown or refused by
        its parser raises ConfigError naming it."""
        if not isinstance(cfg, dict):
            raise ConfigError(f"model must be a JSON object, got {cfg!r}")
        reject_unknown_keys(cfg, ("kind", "params"), "model.")
        kind, params = cfg.get("kind"), cfg.get("params", {})
        if kind not in KINDS:
            raise ConfigError(f"unknown manifold kind {kind!r} (allowed: {', '.join(KINDS)})")
        if not isinstance(params, dict):
            raise ConfigError(f"model.params must be a JSON object, got {params!r}")
        reject_unknown_keys(params, KINDS[kind].params, "model.params.")
        return cls(kind, **{key: parse(params.get(key), f"model.params.{key}")
                            for key, parse in KINDS[kind].params.items()})


@dataclass
class SampleGrid:
    """Quadrature grid: chart points [N, n] and positive weights summing to vol(M)."""

    points: np.ndarray
    weights: np.ndarray

    def __len__(self) -> int:
        return self.points.shape[0]


@dataclass(frozen=True)
class MetricData:
    """Closed-form metric data over chart points [N, n], one entry per point.

    Every supported metric is diagonal in its chart, so `frame` is diagonal:
    its columns e_a satisfy g(e_a, e_b) = delta_ab.  `christoffel` is indexed
    [N, k, i, j] = Gamma^k_ij; `a1` is the first heat-expansion tensor
    (1/3)(S g / 2 - Ric).
    """

    g: np.ndarray             # [N, n, n]
    g_inv: np.ndarray         # [N, n, n]
    frame: np.ndarray         # [N, n, n]
    christoffel: np.ndarray   # [N, n, n, n]
    ricci: np.ndarray         # [N, n, n]
    scalar: np.ndarray        # [N]
    a1: np.ndarray            # [N, n, n]


def metric_on_grid(model: ManifoldModel, points) -> MetricData:
    """Metric, frame, connection and curvature of the testbed over chart points [N, n].

    Points within _POLE_MARGIN of a pole, and point arrays that are not
    [N, model.dim], raise DomainError.  Flat and circle charts are periodic,
    so their points need no wrapping.
    """
    points = np.asarray(points, dtype=float)
    n = model.dim
    if points.ndim != 2 or points.shape[1] != n:
        raise DomainError(f"points of shape {points.shape} on a model of dim {n}; "
                          f"expected [N, {n}]")
    N = points.shape[0]
    diag = np.ones((N, n))                    # g_aa
    ric = np.zeros((N, n, n))
    gamma = np.zeros((N, n, n, n))
    scalar = np.zeros(N)
    for factor, (a, *_) in zip(model.factors, model.blocks):
        if factor.kind == CIRCLE:
            diag[:, a] = (factor.length / (2.0 * np.pi)) ** 2
        elif factor.kind == SPHERE2:
            b = a + 1
            theta = points[:, a]
            off = ~((theta > _POLE_MARGIN) & (theta < np.pi - _POLE_MARGIN))
            if off.any():
                raise DomainError(f"theta={theta[off][0]} outside the polar chart (0, pi)")
            R2 = factor.radius**2
            st, ct = np.sin(theta), np.cos(theta)
            diag[:, a] = R2
            diag[:, b] = R2 * (st * st)
            gamma[:, a, b, b] = -st * ct          # Gamma^theta_{phi phi}
            gamma[:, b, a, b] = gamma[:, b, b, a] = ct / st
            ric[:, a, a] = 1.0
            ric[:, b, b] = st * st
            scalar += 2.0 / R2
    g, g_inv, frame = (np.zeros((N, n, n)) for _ in range(3))
    np.einsum("nii->ni", g)[:] = diag
    np.einsum("nii->ni", g_inv)[:] = 1.0 / diag
    np.einsum("nii->ni", frame)[:] = 1.0 / np.sqrt(diag)
    a1 = (0.5 * scalar[:, None, None] * g - ric) / 3.0
    return MetricData(g, g_inv, frame, gamma, ric, scalar, a1)


def conformal_defect(G, g, g_inv=None):
    """Trace-free part G - (tr_g G / n) g of symmetric stacks [..., n, n], and tr_g G / n.

    The defect is zero exactly where G is conformal to g.  g_inv defaults to
    the inverse of g, and a singular g raises PreconditionError; callers that
    hold the closed-form inverse pass it, which spares a batched inversion.
    """
    G = np.asarray(G, dtype=float)
    g = np.asarray(g, dtype=float)
    if g_inv is None:
        try:
            g_inv = np.linalg.inv(g)
        except np.linalg.LinAlgError as exc:
            raise PreconditionError("reference metric is singular") from exc
    tr = np.einsum("...ij,...ij->...", g_inv, G) / g.shape[-1]
    return G - tr[..., None, None] * g, tr


def available_bytes() -> int | None:
    """MemAvailable from /proc/meminfo in bytes, or None where it cannot be read."""
    try:
        with open("/proc/meminfo") as fh:
            for line in fh:
                if line.startswith("MemAvailable:"):
                    return int(line.split()[1]) * 1024
    except (OSError, ValueError, IndexError):
        pass
    return None


def check_memory(need: int | float, what: str) -> None:
    """Refuse `what`, which needs `need` bytes (an int of any size, or a float
    that may be inf), with PreconditionError when that passes MemAvailable;
    where MemAvailable cannot be read nothing is refused."""
    avail = available_bytes()
    if avail is not None and need > avail:
        gb = need / 1e9 if need < 1e300 else math.inf     # an int past the float range
        size = f"{gb:.2f}" if gb < 1e6 else f"{gb:.3g}"
        raise PreconditionError(f"{what} needs about {size} GB, more than "
                                f"the {avail / 1e9:.2f} GB available")


def sample_grid(model: ManifoldModel, resolution: int) -> SampleGrid:
    """Quadrature grid with weights summing to the analytic volume.

    Tori and circles use periodic midpoint cells (spectrally exact).  The
    sphere uses Gauss-Legendre nodes in cos(theta) and a uniform phi grid,
    which keeps the poles out of the grid and integrates polynomial mode
    products exactly.  A grid of resolution^dim points whose arrays would not
    fit in memory is refused before any allocation.
    """
    if resolution < 4:
        raise ConfigError("resolution must be at least 4 per dimension")
    points = resolution ** model.dim
    # the points, the per-axis grids they are stacked from, and the weights
    check_memory(8 * points * (2 * model.dim + 1), f"a sample grid of {points} points")
    if model.kind == FLAT_TORUS:
        cell = model.volume / resolution ** model.dim
        pts = _mesh(torus_axes(model, resolution))
        return SampleGrid(pts, np.full(len(pts), cell))
    if model.kind == CIRCLE:
        theta = np.arange(resolution) * (2.0 * np.pi / resolution)
        w = np.full(resolution, model.length / resolution)
        return SampleGrid(theta[:, None], w)
    if model.kind == SPHERE2:
        nodes, gl_w = np.polynomial.legendre.leggauss(resolution)
        phi = np.arange(resolution) * (2.0 * np.pi / resolution)
        pts = _mesh([np.arccos(nodes)[::-1], phi])
        w = np.repeat(gl_w[::-1], resolution) * (2.0 * np.pi / resolution) * model.radius**2
        return SampleGrid(pts, w)
    # the tensor product of the factor grids, sphere points slowest
    sphere, circle = (sample_grid(f, resolution) for f in model.factors)
    S, C = len(sphere), len(circle)
    pts = np.column_stack([np.repeat(sphere.points, C, axis=0), np.tile(circle.points, (S, 1))])
    return SampleGrid(pts, np.repeat(sphere.weights, C) * np.tile(circle.weights, S))


def torus_axes(model: ManifoldModel, resolution: int) -> list[np.ndarray]:
    """The axis coordinates [resolution] of a flat torus's sample grid, whose
    tensor product (first axis slowest) is its points."""
    return [np.arange(resolution) * (L / resolution) for L in model.periods]


def _mesh(axes) -> np.ndarray:
    grids = np.meshgrid(*axes, indexing="ij")
    return np.column_stack([g.reshape(-1) for g in grids])


def geodesic_distance(model: ManifoldModel, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Pairwise-capable geodesic distance between chart points (broadcasting)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if model.kind == FLAT_TORUS:
        d = np.abs(x - y)
        per = np.asarray(model.periods)
        d = np.minimum(d, per - d)
        return np.sqrt(np.sum(d * d, axis=-1))
    if model.kind == CIRCLE:
        d = np.abs(x[..., 0] - y[..., 0])
        d = np.minimum(d, 2.0 * np.pi - d)
        return d * model.length / (2.0 * np.pi)
    if model.kind == SPHERE2:
        ct = (np.cos(x[..., 0]) * np.cos(y[..., 0])
              + np.sin(x[..., 0]) * np.sin(y[..., 0]) * np.cos(x[..., 1] - y[..., 1]))
        return model.radius * np.arccos(np.clip(ct, -1.0, 1.0))
    d = [geodesic_distance(f, x[..., b], y[..., b]) for f, b in zip(model.factors, model.blocks)]
    return np.sqrt(sum(di * di for di in d))
