"""Analytic testbed manifolds with closed-form metric, connection, and curvature.

Supported kinds:

* ``flat_torus``            -- R^n / (L_1 Z x ... x L_n Z), chart x_i in [0, L_i), g = I
* ``circle``                -- circumference L, chart theta in [0, 2*pi), g = (L/2pi)^2
* ``sphere2``               -- round 2-sphere of radius R, chart (theta, phi)
* ``product_sphere_circle`` -- S^2(R) x S^1(L), chart (theta, phi, s)

All evaluators are pure functions of the immutable model; curvature is
hard-coded per kind and cross-checked by finite differences in the tests.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DomainError, reject_unknown_keys

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
        if self.kind == FLAT_TORUS:
            if not self.periods or any(p <= 0 for p in self.periods):
                raise ConfigError("flat torus needs strictly positive periods")
        elif self.kind == CIRCLE:
            if self.length <= 0:
                raise ConfigError("circle length must be positive")
        elif self.kind == SPHERE2:
            if self.radius <= 0:
                raise ConfigError("sphere radius must be positive")
        else:
            if self.radius <= 0 or self.length <= 0:
                raise ConfigError("product needs positive radius and length")

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
class MetricAtPoint:
    """Pointwise metric data in chart coordinates.

    christoffel is indexed [k, i, j] = Gamma^k_ij.
    """

    g: np.ndarray
    g_inv: np.ndarray
    christoffel: np.ndarray
    ricci: np.ndarray
    scalar: float


@dataclass
class SampleGrid:
    """Quadrature grid: chart points [N, n] and positive weights summing to vol(M)."""

    points: np.ndarray
    weights: np.ndarray

    def __len__(self) -> int:
        return self.points.shape[0]


def wrap_point(model: ManifoldModel, x) -> np.ndarray:
    """Map a chart point into the fundamental domain; reject pole hits."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.shape != (model.dim,):
        raise DomainError(f"point of dim {x.shape} on model of dim {model.dim}")
    if model.kind == FLAT_TORUS:
        return np.mod(x, np.asarray(model.periods))
    if model.kind == CIRCLE:
        return np.mod(x, 2.0 * np.pi)
    if model.kind == SPHERE2:
        theta, phi = x
        if not (_POLE_MARGIN < theta < np.pi - _POLE_MARGIN):
            raise DomainError(f"theta={theta} outside the polar chart (0, pi)")
        return np.array([theta, np.mod(phi, 2.0 * np.pi)])
    theta, phi, s = x
    if not (_POLE_MARGIN < theta < np.pi - _POLE_MARGIN):
        raise DomainError(f"theta={theta} outside the polar chart (0, pi)")
    return np.array([theta, np.mod(phi, 2.0 * np.pi), np.mod(s, 2.0 * np.pi)])


def metric_at(model: ManifoldModel, x) -> MetricAtPoint:
    """Closed-form metric, connection, and curvature at a chart point."""
    x = wrap_point(model, x)
    n = model.dim
    if model.kind == FLAT_TORUS:
        return MetricAtPoint(np.eye(n), np.eye(n), np.zeros((n, n, n)),
                             np.zeros((n, n)), 0.0)
    if model.kind == CIRCLE:
        a = (model.length / (2.0 * np.pi)) ** 2
        return MetricAtPoint(np.array([[a]]), np.array([[1.0 / a]]),
                             np.zeros((1, 1, 1)), np.zeros((1, 1)), 0.0)
    if model.kind == SPHERE2:
        return _sphere_metric(model.radius, x[0], pad=0)
    sphere = _sphere_metric(model.radius, x[0], pad=1)
    a = (model.length / (2.0 * np.pi)) ** 2
    sphere.g[2, 2] = a
    sphere.g_inv[2, 2] = 1.0 / a
    return sphere


def _sphere_metric(radius: float, theta: float, pad: int) -> MetricAtPoint:
    """Round-sphere data, optionally padded with `pad` extra flat directions."""
    n = 2 + pad
    R2 = radius * radius
    st, ct = np.sin(theta), np.cos(theta)
    g = np.zeros((n, n))
    g[0, 0] = R2
    g[1, 1] = R2 * st * st
    g_inv = np.zeros((n, n))
    g_inv[0, 0] = 1.0 / R2
    g_inv[1, 1] = 1.0 / (R2 * st * st)
    gamma = np.zeros((n, n, n))
    gamma[0, 1, 1] = -st * ct          # Gamma^theta_{phi phi}
    gamma[1, 0, 1] = gamma[1, 1, 0] = ct / st
    ric = np.zeros((n, n))
    ric[0, 0] = 1.0
    ric[1, 1] = st * st
    return MetricAtPoint(g, g_inv, gamma, ric, 2.0 / R2)


def a1_tensor(model: ManifoldModel, x) -> np.ndarray:
    """First curvature correction (1/3)(S/2 * g - Ric) in chart components."""
    m = metric_at(model, x)
    return (0.5 * m.scalar * m.g - m.ricci) / 3.0


def orthonormal_frame(model: ManifoldModel, x) -> np.ndarray:
    """Frame matrix F whose columns e_a satisfy g(e_a, e_b) = delta_ab.

    All supported metrics are diagonal in their charts, so F is diagonal.
    """
    m = metric_at(model, x)
    return np.diag(1.0 / np.sqrt(np.diag(m.g)))


def metric_on_grid(model: ManifoldModel, points: np.ndarray):
    """Vectorized (g, g_inv, frame) over chart points [N, n]."""
    points = np.asarray(points, dtype=float)
    N, n = points.shape
    g = np.zeros((N, n, n))
    if model.kind == FLAT_TORUS:
        g[:] = np.eye(n)
    elif model.kind == CIRCLE:
        g[:, 0, 0] = (model.length / (2.0 * np.pi)) ** 2
    else:
        R2 = model.radius**2
        st2 = np.sin(points[:, 0]) ** 2
        g[:, 0, 0] = R2
        g[:, 1, 1] = R2 * st2
        if model.kind == PRODUCT_SPHERE_CIRCLE:
            g[:, 2, 2] = (model.length / (2.0 * np.pi)) ** 2
    diag = np.einsum("nii->ni", g)
    g_inv = np.zeros_like(g)
    np.einsum("nii->ni", g_inv)[:] = 1.0 / diag
    frame = np.zeros_like(g)
    np.einsum("nii->ni", frame)[:] = 1.0 / np.sqrt(diag)
    return g, g_inv, frame


def christoffel_on_grid(model: ManifoldModel, points: np.ndarray) -> np.ndarray:
    """Vectorized Gamma^k_ij over chart points [N, n] -> [N, n, n, n]."""
    points = np.asarray(points, dtype=float)
    N, n = points.shape
    gamma = np.zeros((N, n, n, n))
    if model.kind in (FLAT_TORUS, CIRCLE):
        return gamma
    st, ct = np.sin(points[:, 0]), np.cos(points[:, 0])
    gamma[:, 0, 1, 1] = -st * ct
    gamma[:, 1, 0, 1] = gamma[:, 1, 1, 0] = ct / st
    return gamma


def sample_grid(model: ManifoldModel, resolution: int) -> SampleGrid:
    """Quadrature grid with weights summing to the analytic volume.

    Tori and circles use periodic midpoint cells (spectrally exact).  The
    sphere uses Gauss-Legendre nodes in cos(theta) and a uniform phi grid,
    which keeps the poles out of the grid and integrates polynomial mode
    products exactly.
    """
    if resolution < 4:
        raise ConfigError("resolution must be at least 4 per dimension")
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
