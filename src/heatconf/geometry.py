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
raise DomainError.  Curvature is hard-coded per kind and cross-checked by finite
differences of that same evaluator in the tests.  `conformal_defect` is the
one trace-free part G - (tr_g G / n) g, shared by the pullback report, the h1
correction and the flat-torus solver.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DomainError, PreconditionError, reject_unknown_keys

FLAT_TORUS = "flat_torus"
CIRCLE = "circle"
SPHERE2 = "sphere2"
PRODUCT_SPHERE_CIRCLE = "product_sphere_circle"

KINDS = (FLAT_TORUS, CIRCLE, SPHERE2, PRODUCT_SPHERE_CIRCLE)

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
        if self.kind == FLAT_TORUS:
            if not self.periods or not all(0 < p < math.inf for p in self.periods):
                raise ConfigError("flat torus needs strictly positive finite periods")
        elif self.kind == CIRCLE:
            if not 0 < self.length < math.inf:
                raise ConfigError("circle length must be positive and finite")
        elif self.kind == SPHERE2:
            if not 0 < self.radius < math.inf:
                raise ConfigError("sphere radius must be positive and finite")
        else:
            if not (0 < self.radius < math.inf and 0 < self.length < math.inf):
                raise ConfigError("product needs positive finite radius and length")
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
        return {FLAT_TORUS: len(self.periods), CIRCLE: 1, SPHERE2: 2,
                PRODUCT_SPHERE_CIRCLE: 3}[self.kind]

    @property
    def volume(self) -> float:
        if self.kind == FLAT_TORUS:
            return float(np.prod(self.periods))
        if self.kind == CIRCLE:
            return self.length
        if self.kind == SPHERE2:
            return 4.0 * np.pi * self.radius**2
        return 4.0 * np.pi * self.radius**2 * self.length

    @property
    def injectivity_surrogate(self) -> float:
        """Length scale below which chart geodesic distance is trustworthy."""
        if self.kind == FLAT_TORUS:
            return min(self.periods) / 2.0
        if self.kind == CIRCLE:
            return self.length / 2.0
        if self.kind == SPHERE2:
            return np.pi * self.radius
        return min(np.pi * self.radius, self.length / 2.0)

    def to_config(self) -> dict:
        params: dict = {}
        if self.kind == FLAT_TORUS:
            params["periods"] = list(self.periods)
        if self.kind in (CIRCLE, PRODUCT_SPHERE_CIRCLE):
            params["length"] = self.length
        if self.kind in (SPHERE2, PRODUCT_SPHERE_CIRCLE):
            params["radius"] = self.radius
        return {"kind": self.kind, "params": params}

    @classmethod
    def from_config(cls, cfg: dict) -> "ManifoldModel":
        """Model from {"kind", "params"}; params takes the keys `to_config` writes."""
        try:
            kind = cfg["kind"]
            params = cfg.get("params", {})
        except (TypeError, KeyError) as exc:
            raise ConfigError(f"malformed model config: {cfg!r}") from exc
        reject_unknown_keys(cfg, ("kind", "params"), "model.")
        try:
            if kind == FLAT_TORUS:
                model = cls.flat_torus(params["periods"])
            elif kind == CIRCLE:
                model = cls.circle(params["length"])
            elif kind == SPHERE2:
                model = cls.sphere2(params["radius"])
            elif kind == PRODUCT_SPHERE_CIRCLE:
                model = cls.product_sphere_circle(params["radius"], params["length"])
            else:
                raise ConfigError(f"unknown manifold kind {kind!r}")
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(
                f"{kind} params missing or malformed ({exc!r}): {params!r}") from exc
        reject_unknown_keys(params, tuple(model.to_config()["params"]), "model.params.")
        return model


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
    if model.kind in (CIRCLE, PRODUCT_SPHERE_CIRCLE):
        diag[:, -1] = (model.length / (2.0 * np.pi)) ** 2
    if model.kind in (SPHERE2, PRODUCT_SPHERE_CIRCLE):
        theta = points[:, 0]
        off = ~((theta > _POLE_MARGIN) & (theta < np.pi - _POLE_MARGIN))
        if off.any():
            raise DomainError(f"theta={theta[off][0]} outside the polar chart (0, pi)")
        R2 = model.radius**2
        st, ct = np.sin(theta), np.cos(theta)
        diag[:, 0] = R2
        diag[:, 1] = R2 * (st * st)
        gamma[:, 0, 1, 1] = -st * ct          # Gamma^theta_{phi phi}
        gamma[:, 1, 0, 1] = gamma[:, 1, 1, 0] = ct / st
        ric[:, 0, 0] = 1.0
        ric[:, 1, 1] = st * st
        scalar[:] = 2.0 / R2
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
        axes = [np.arange(resolution) * (L / resolution) for L in model.periods]
        cell = model.volume / resolution ** model.dim
        pts = _mesh(axes)
        return SampleGrid(pts, np.full(len(pts), cell))
    if model.kind == CIRCLE:
        theta = np.arange(resolution) * (2.0 * np.pi / resolution)
        w = np.full(resolution, model.length / resolution)
        return SampleGrid(theta[:, None], w)
    if model.kind == SPHERE2:
        pts, w = _sphere_grid(model.radius, resolution)
        return SampleGrid(pts, w)
    spts, sw = _sphere_grid(model.radius, resolution)
    s = np.arange(resolution) * (2.0 * np.pi / resolution)
    cw = model.length / resolution
    pts = np.column_stack([
        np.repeat(spts, resolution, axis=0),
        np.tile(s, len(spts)),
    ])
    w = np.repeat(sw, resolution) * cw
    return SampleGrid(pts, w)


def _sphere_grid(radius: float, resolution: int):
    nodes, gl_w = np.polynomial.legendre.leggauss(resolution)
    theta = np.arccos(nodes)[::-1]
    gl_w = gl_w[::-1]
    phi = np.arange(resolution) * (2.0 * np.pi / resolution)
    pts = _mesh([theta, phi])
    w = np.repeat(gl_w, resolution) * (2.0 * np.pi / resolution) * radius**2
    return pts, w


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
        return _sphere_dist(model.radius, x, y)
    ds = _sphere_dist(model.radius, x[..., :2], y[..., :2])
    dc = np.abs(x[..., 2] - y[..., 2])
    dc = np.minimum(dc, 2.0 * np.pi - dc) * model.length / (2.0 * np.pi)
    return np.sqrt(ds * ds + dc * dc)


def _sphere_dist(radius, x, y):
    ct = (np.cos(x[..., 0]) * np.cos(y[..., 0])
          + np.sin(x[..., 0]) * np.sin(y[..., 0]) * np.cos(x[..., 1] - y[..., 1]))
    return radius * np.arccos(np.clip(ct, -1.0, 1.0))
