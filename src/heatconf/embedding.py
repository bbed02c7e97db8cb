"""Truncated normalized heat-kernel embeddings and their conformal defect.

An embedding map carries components c(t) * exp(-lambda_j t / 2) * phi_j for
j = 1..q (the constant mode is excluded), with the normalization
c(t) = sqrt(2) (4 pi)^{n/4} t^{(n+2)/4} chosen so the pullback metric tends
to g as t -> 0.  Truncation indices are always extended to close the final
eigenvalue shell: partial shells break the isometry-group symmetry that the
homothety tests rely on, and the embedding is only canonical on full shells.

The pullback metric and the truncation tail are the provider's
`gradient_gram` sums; `EmbeddingMap.jets` returns the weighted jets of a
point set, uncached.  The pullback report keeps the trace-free defect field
beside its sup, and `defect_scan` reports the field's Hoelder quotient.  The
metric correction supports l <= 2, with h1 checked constant on each block of
the frame over `sample_grid(model, 8)`.
"""
from __future__ import annotations

import csv
import json
import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import analysis, geometry, spectrum
from .errors import ConfigError, PreconditionError, SpectrumError
from .geometry import ManifoldModel, SampleGrid, conformal_defect
from .spectrum import SpectrumProvider

_SHELL_RTOL = 1e-9


def _freeness_floor(n: int) -> int:
    """The fewest components a free embedding of an n-manifold can have: n + n(n+1)/2."""
    return n + n * (n + 1) // 2


@dataclass(frozen=True)
class TruncationPolicy:
    """Component count selection: q(t) = ceil(t^(-n/2 - rho)) unless overridden."""

    rho: float = 1.0
    q_override: int | None = None

    def __post_init__(self):
        if self.rho <= 0:
            raise ConfigError("rho must be positive")
        if self.q_override is not None and self.q_override < 1:
            raise ConfigError("q_override must be a positive integer")

    def q(self, t: float, n: int) -> int:
        if not t > 0:
            raise ConfigError(f"t must be positive, got {t!r}")
        floor = _freeness_floor(n)
        if self.q_override is not None:
            if self.q_override < floor:
                raise ConfigError(
                    f"q_override={self.q_override} below freeness floor {floor}")
            return self.q_override
        try:
            q = math.ceil(t ** (-n / 2.0 - self.rho))
        except OverflowError:
            raise PreconditionError(f"q(t) = t^(-n/2 - rho) overflows at t = {t!r}, "
                                    f"rho = {self.rho!r}") from None
        return max(q, floor)


class EmbeddingMap:
    """Truncated normalized heat-kernel embedding M -> R^q."""

    def __init__(self, provider: SpectrumProvider, t: float, q: int):
        self.provider = provider
        self.model = provider.model
        self.t = float(t)
        self.q = int(q)
        n = self.model.dim
        self.c_norm = math.sqrt(2.0) * (4.0 * math.pi) ** (n / 4.0) * t ** ((n + 2) / 4.0)
        # component j (1-based provider index) carries weight c(t) e^{-lambda_j t/2}
        self.weights = self.c_norm * np.exp(-provider.lambdas[1:q + 1] * t / 2.0)

    def jets(self, points: np.ndarray):
        """Scaled jets of all q components on chart points [N, n].

        Returns (values [q, N], gradients [q, N, n], hessians [q, N, n, n]).
        """
        jets = self.provider.jet_block(1, self.q + 1, points)
        for arr in jets:      # fresh arrays: scale in place, hold one copy
            arr *= self.weights.reshape((-1,) + (1,) * (arr.ndim - 1))
        return jets

    def pullback_on(self, points: np.ndarray) -> np.ndarray:
        """Pullback metric G(x) = sum_j grad Psi_j(x) outer grad Psi_j(x), [N, n, n].

        The provider's `gradient_gram` sums the q weighted components.  The
        torus and circle providers sum each cos/sin pair in closed form and
        the S^2 x S^1 provider contracts its sphere and circle factors; neither
        builds per-mode jets.
        """
        return self.provider.gradient_gram(1, self.weights, points)


def build_embedding(provider: SpectrumProvider, t: float,
                    policy: TruncationPolicy) -> EmbeddingMap:
    """Embedding at time t with the policy's component count, shell-closed.

    An analytic provider holds whole shells, so a shell that runs to its last
    mode is closed.  Any other provider may end inside a shell, so a shell
    that reaches its last mode is refused: it cannot be told closed.
    """
    if t >= 1.0:
        warnings.warn(f"t = {t} >= 1: outside the asymptotic regime", stacklevel=2)
    n = provider.model.dim
    q = policy.q(t, n)
    lams = provider.lambdas
    if provider.count < q + 1:
        raise SpectrumError(
            f"insufficient spectrum: q(t)={q} needs {q + 1} modes, have {provider.count}")
    while q + 1 < provider.count and \
            lams[q + 1] - lams[q] <= _SHELL_RTOL * (1.0 + lams[q]):
        q += 1
    if q + 1 == provider.count and not isinstance(provider, spectrum.AnalyticSpectrum):
        raise SpectrumError(f"insufficient spectrum: the shell at q = {q} reaches the "
                            f"last of the provider's {provider.count} modes and may be open")
    return EmbeddingMap(provider, t, q)


def h1_solve(A1: np.ndarray, g: np.ndarray, eta1) -> np.ndarray:
    """First-order metric correction h1 = -tf(A1) + eta1 g, tf the trace-free part.

    So tf(h1) = -tf(A1) and (1/n) tr_g h1 = eta1; works pointwise or batched
    over a leading grid axis.
    """
    defect, _ = conformal_defect(A1, g)
    return np.asarray(eta1, dtype=float)[..., None, None] * g - defect


@dataclass
class CorrectionSpec:
    """Correction order l and the prescribed trace functions eta_i.

    The target defect order is l; the corrected metric is g + sum h_i t^i for
    i = 1..l-1.  Only l <= 2 is supported: the first-order tensor h1 has a
    closed form, and `corrected_model` realizes it when it is constant on each
    block of the product frame.
    """

    l: int = 2
    eta: tuple[float, ...] = (0.0,)

    def __post_init__(self):
        if self.l < 1:
            raise ConfigError("correction order l must be >= 1")
        if len(self.eta) < self.l - 1:
            raise ConfigError("need one eta_i for each order i = 1..l-1")
        if self.l > 2:
            raise ConfigError(
                f"correction order l = {self.l} is not supported: only l <= 2 "
                "(the closed-form first-order correction h1)")


_BLOCKS = {
    geometry.FLAT_TORUS: None,               # single block, all coordinates
    geometry.CIRCLE: ((0,),),
    geometry.SPHERE2: ((0, 1),),
    geometry.PRODUCT_SPHERE_CIRCLE: ((0, 1), (2,)),
}


def h1_frame_constant(model: ManifoldModel, eta1: float) -> np.ndarray:
    """h1 in orthonormal-frame components, verified constant over sample_grid(model, 8)."""
    m = geometry.metric_on_grid(model, geometry.sample_grid(model, 8).points)
    h1 = h1_solve(m.a1, m.g, eta1)
    mats = np.einsum("nia,nij,njb->nab", m.frame, h1, m.frame)
    if np.max(np.abs(mats - mats[0])) > 1e-10:
        raise PreconditionError(
            "h1 is not constant in the product frame; the correction needs h1 "
            "constant on each block")
    return mats[0]


def corrected_model(model: ManifoldModel, h1_frame: np.ndarray, t: float,
                    eta1: float = 0.0, count: int | None = None,
                    lambda_max: float | None = None):
    """Model and provider realizing g(t) = g + t h1 for blockwise-constant h1.

    Returns (rescaled model, analytic provider of the rescaled metric), the
    provider holding `count` modes or the window lambda <= `lambda_max` of
    the rescaled metric.
    """
    h1_frame = np.asarray(h1_frame, dtype=float)
    n = model.dim
    if abs(np.trace(h1_frame) / n - eta1) > 1e-10:
        raise PreconditionError("(1/n) tr h1 must equal eta1")
    if np.max(np.abs(h1_frame - np.diag(np.diag(h1_frame)))) > 1e-10:
        raise PreconditionError("h1 must be diagonal in the product frame")
    blocks = _BLOCKS[model.kind]
    if blocks is None:
        blocks = (tuple(range(n)),)
    factors = []
    for blk in blocks:
        coeffs = np.diag(h1_frame)[list(blk)]
        if np.max(np.abs(coeffs - coeffs[0])) > 1e-10:
            raise PreconditionError("h1 must be a constant multiple of g on each block")
        fac = 1.0 + t * coeffs[0]
        if fac <= 0:
            raise PreconditionError(f"degenerate scale 1 + t*h1 = {fac} on block {blk}")
        factors.append(fac)
    if t == 0 or all(f == 1.0 for f in factors):
        return model, spectrum.analytic_spectrum(model, count=count, lambda_max=lambda_max)
    scaled = spectrum.rescaled_model(model, factors)
    return scaled, spectrum.analytic_spectrum(scaled, count=count, lambda_max=lambda_max)


@dataclass
class PullbackReport:
    """Trace factor and trace-free defect of a pullback metric over a grid."""

    trace_factor: np.ndarray      # [N]
    defect_frame: np.ndarray      # [N, n, n] orthonormal-frame components
    sup: float


def pullback_report(emb: EmbeddingMap, grid: SampleGrid,
                    reference: ManifoldModel | None = None) -> PullbackReport:
    """Measure the embedding's conformal defect against a reference metric."""
    reference = reference or emb.model
    pts = grid.points
    G = emb.pullback_on(pts)
    m = geometry.metric_on_grid(reference, pts)
    defect, tr = conformal_defect(G, m.g, m.g_inv)
    defect_frame = np.einsum("nia,nij,njb->nab", m.frame, defect, m.frame)
    return PullbackReport(tr, defect_frame, float(np.max(np.abs(defect_frame))))


def defect_scan(model: ManifoldModel, t_grid, policy: TruncationPolicy,
                correction: CorrectionSpec | None = None, resolution: int = 8,
                lambda_cutoff=None, alpha: float = 0.5) -> list[dict]:
    """One row per t: component count, defect norms, and trace-factor range.

    With a correction, the embedding is built from the corrected metric's
    spectrum while the defect is still measured against the original g.
    A lambda_cutoff (a number, or a callable of t) replaces the count policy
    by an eigenvalue window; all enumerated modes are then used.  The window
    must keep lambda_max * t large: the anisotropy of the last included
    shells enters the defect at size ~ exp(-lambda_max t), which buries any
    higher-order signal when the window is too narrow.

    On the analytic testbeds defect_holder is rounding noise (at most 5.0e-15
    measured): they are homogeneous and truncation closes shells, so each
    shell's sum of grad phi outer grad phi is constant in the orthonormal
    frame and the defect is the same at every grid point.  On S^2 x S^1 the
    pullback comes from the provider's separable Gram sum, without mode jets,
    and the rows match the closed-form (degree, wavenumber) level sums
    (tests/test_embedding.py).
    """
    t_grid = list(t_grid)
    if any(not 0 < t < 1 for t in t_grid):
        raise ConfigError("t values must lie in (0, 1)")
    if any(b >= a for a, b in zip(t_grid, t_grid[1:])):
        raise ConfigError("t_grid must be strictly decreasing")
    grid = geometry.sample_grid(model, resolution)
    rows = []
    h1 = eta1 = None
    if correction is not None and correction.l >= 2:
        eta1 = correction.eta[0]
        h1 = h1_frame_constant(model, eta1)
    base_provider = None
    for t in t_grid:
        window = lambda_cutoff(t) if callable(lambda_cutoff) else lambda_cutoff
        q_target = None if window else policy.q(t, model.dim)
        if h1 is None:
            if base_provider is None or \
                    (window is None and base_provider.count < q_target + 1) or \
                    (window is not None and base_provider.lambda_max < window):
                base_provider = spectrum.analytic_spectrum(
                    model, count=None if window else q_target + 1,
                    lambda_max=window)
            provider = base_provider
        else:
            _, provider = corrected_model(
                model, h1, t, eta1,
                count=None if window else q_target + 1, lambda_max=window)
        if window is None:
            eff_policy = policy
        else:
            n_keep = int(np.searchsorted(provider.lambdas, window * (1 + 1e-12),
                                         side="right"))
            floor = _freeness_floor(model.dim)
            if n_keep - 1 < floor:
                raise ConfigError(
                    f"the eigenvalue window lambda <= {window:g} at t = {t:g} holds "
                    f"{n_keep - 1} non-constant modes, below the freeness floor {floor}")
            eff_policy = TruncationPolicy(rho=policy.rho, q_override=n_keep - 1)
        emb = build_embedding(provider, t, eff_policy)
        rep = pullback_report(emb, grid, reference=model)
        rows.append({
            "t": t,
            "q": emb.q,
            "defect_sup": rep.sup,
            "defect_holder": analysis.holder_seminorm_field(rep.defect_frame, grid.points,
                                                            model, alpha),
            "trace_min": float(np.min(rep.trace_factor)),
            "trace_max": float(np.max(rep.trace_factor)),
        })
    return rows


SCAN_FIELDS = ("t", "q", "defect_sup", "defect_holder", "trace_min", "trace_max")


def write_scan_csv(rows: list[dict], path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=SCAN_FIELDS)
        writer.writeheader()
        for row in rows:
            writer.writerow({k: row[k] for k in SCAN_FIELDS})


def write_scan_json(rows: list[dict], path, metadata: dict) -> None:
    with open(path, "w") as fh:
        json.dump({"metadata": metadata, "rows": rows}, fh, indent=2, sort_keys=True)


def tail_bound_check(provider: SpectrumProvider, t: float, policy: TruncationPolicy,
                     resolution: int = 16):
    """Truncation-tail size versus the exponential target exp(-t^(-rho/n)).

    tail = sup over the sample grid of `resolution` points per axis of
    sum_{j>q} c(t)^2 e^{-lambda_j t} |grad phi_j|^2 (the discarded gradient
    mass of the embedding); reported, with a pass flag, never asserted here.
    """
    model = provider.model
    n = model.dim
    emb = build_embedding(provider, t, policy)
    q = emb.q
    bound = float(np.exp(-t ** (-policy.rho / n)))
    if provider.count < 4 * q:
        raise SpectrumError(
            f"tail check needs >= 4x modes beyond q={q}, have {provider.count}")
    grid = geometry.sample_grid(model, resolution)
    g_inv = geometry.metric_on_grid(model, grid.points).g_inv
    weights = emb.c_norm * np.exp(-provider.lambdas[q + 1:] * t / 2.0)
    # |grad phi|^2 in the metric: g^{ij} d_i phi d_j phi, summed over the tail
    tail = np.einsum("nij,nij->n", g_inv,
                     provider.gradient_gram(q + 1, weights, grid.points))
    tail_sup = float(np.max(tail))
    return tail_sup, bound, tail_sup <= bound
