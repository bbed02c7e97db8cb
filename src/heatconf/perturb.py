"""Fixed-point perturbation of an almost-conformal embedding to a conformal one.

The solver runs on the flat-torus pseudo-spectral backend, where the shifted
Laplacian acts diagonally on tensor components and all curvature transport
terms vanish.  Given a traceless symmetric field f and a trace parameter k,
it produces v with

    grad u . grad v + grad v . grad u + grad v . grad v = f - 2 k g

exactly (up to the solver tolerance), so the trace-free defect of u + v
differs from that of u by precisely the trace-free part of f.  The quadratic
update packages all third derivatives of v under the resolvent (Delta - e)^{-1}:

    X  = -(Delta - e)^{-1} (Delta v . grad v)
    B  = (Delta - e)^{-1} L(v, v)
    L_ij = sum_a [ H_li H_lj - (Delta v) H_ij ] - (e/2) grad_i v . grad_j v
    Q(v, v) = E(X, B),        v_{l+1} = E(0, -f/2 + k g) + Q(v_l, v_l).

The sign of X and the -e/2 term in L are fixed by the requirement that
(Delta - e)(grad_i v . grad_j v) = 2 L_ij + transport terms holds identically
(test-pinned); with them the iteration's fixed point satisfies the conformal
embedding equation to rounding.  Products of grid fields are dealiased by 3/2
zero padding, and Nyquist bins are projected away throughout.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import analysis, geometry, jets
from .errors import ConfigError, ConvergenceError, PreconditionError
from .geometry import ManifoldModel

DEFAULT_THETA_THRESHOLD = 0.25


@dataclass(frozen=True)
class ResolventConfig:
    e: float = 1.0

    def __post_init__(self):
        if self.e <= 0:
            raise ConfigError("spectral shift e must be strictly positive")


class SpectralGrid:
    """Uniform FFT grid on a flat torus with exact derivative and resolvent ops.

    Fields are arrays whose first axis is the flattened grid; any trailing
    component axes broadcast through the spectral operations.
    """

    def __init__(self, model: ManifoldModel, resolution: int):
        if model.kind != geometry.FLAT_TORUS:
            raise PreconditionError("spectral backend requires a flat torus")
        self.model = model
        self.resolution = int(resolution)
        self.shape = (self.resolution,) * model.dim
        self.N = int(np.prod(self.shape))
        self.points = geometry.sample_grid(model, resolution).points
        ks = [2.0 * np.pi * np.fft.fftfreq(resolution, d=L / resolution)
              for L in model.periods]
        mesh = np.meshgrid(*ks, indexing="ij")
        self.kvecs = np.stack(mesh, axis=-1)               # [*shape, n]
        self.lam = np.sum(self.kvecs**2, axis=-1)          # [*shape]
        nyq = [np.abs(np.fft.fftfreq(resolution)) >= 0.5 - 1e-12 for _ in ks]
        mask = np.zeros(self.shape, dtype=bool)
        for ax, bad in enumerate(nyq):
            sl = [slice(None)] * model.dim
            sl[ax] = bad
            mask[tuple(sl)] = True
        self.band = ~mask                                  # open-band projector
        self.fine = int(np.ceil(1.5 * resolution))
        self.fine += self.fine % 2

    # -- transforms ---------------------------------------------------------

    def to_spec(self, values: np.ndarray) -> np.ndarray:
        arr = values.reshape(self.shape + values.shape[1:])
        spec = np.fft.fftn(arr, axes=range(self.model.dim))
        return spec * self.band.reshape(self.shape + (1,) * (values.ndim - 1))

    def from_spec(self, spec: np.ndarray) -> np.ndarray:
        arr = np.fft.ifftn(spec, axes=range(self.model.dim)).real
        return arr.reshape((self.N,) + spec.shape[self.model.dim:])

    # -- exact spectral calculus --------------------------------------------

    def grad(self, values: np.ndarray) -> np.ndarray:
        """[N, ...] -> [N, ..., n]."""
        spec = self.to_spec(values)
        sym = 1j * self.kvecs.reshape(self.shape + (1,) * (values.ndim - 1)
                                      + (self.model.dim,))
        return self.from_spec(spec[..., None] * sym)

    def laplacian(self, values: np.ndarray) -> np.ndarray:
        spec = self.to_spec(values)
        sym = -self.lam.reshape(self.shape + (1,) * (values.ndim - 1))
        return self.from_spec(spec * sym)

    def jet_fields(self, values: np.ndarray):
        """(gradient, hessian, laplacian) from a single forward transform."""
        n = self.model.dim
        spec = self.to_spec(values)
        pad1 = (1,) * (values.ndim - 1)
        ik = 1j * self.kvecs.reshape(self.shape + pad1 + (n,))
        grad = self.from_spec(spec[..., None] * ik)
        kk = np.einsum("...i,...j->...ij", self.kvecs, self.kvecs)
        hess = self.from_spec(spec[..., None, None]
                              * (-kk.reshape(self.shape + pad1 + (n, n))))
        lap = self.from_spec(spec * (-self.lam.reshape(self.shape + pad1)))
        return grad, hess, lap

    def resolvent(self, values: np.ndarray, e: float) -> np.ndarray:
        """(Delta - e)^{-1}: spectral coefficient c_lam -> c_lam / (-lam - e)."""
        if e <= 0:
            raise ConfigError("spectral shift e must be strictly positive")
        spec = self.to_spec(values)
        sym = (1.0 / (-self.lam - e)).reshape(self.shape + (1,) * (values.ndim - 1))
        return self.from_spec(spec * sym)

    # -- dealiased products ---------------------------------------------------

    def pad(self, values: np.ndarray) -> np.ndarray:
        """Physical samples on the 3/2-refined grid (trigonometric upsampling)."""
        n = self.model.dim
        spec = self.to_spec(values)
        spec = np.fft.fftshift(spec, axes=range(n))
        padw = [( (self.fine - self.resolution) // 2,) * 2] * n
        padw += [(0, 0)] * (values.ndim - 1)
        spec = np.pad(spec, padw)
        spec = np.fft.ifftshift(spec, axes=range(n))
        scale = (self.fine / self.resolution) ** n
        arr = np.fft.ifftn(spec * scale, axes=range(n)).real
        return arr.reshape((self.fine**n,) + values.shape[1:])

    def unpad(self, fine_values: np.ndarray) -> np.ndarray:
        """Project physical samples on the refined grid back to the open band."""
        n = self.model.dim
        arr = fine_values.reshape((self.fine,) * n + fine_values.shape[1:])
        spec = np.fft.fftn(arr, axes=range(n))
        spec = np.fft.fftshift(spec, axes=range(n))
        lo = (self.fine - self.resolution) // 2
        sl = tuple(slice(lo, lo + self.resolution) for _ in range(n))
        spec = spec[sl + (Ellipsis,)]
        spec = np.fft.ifftshift(spec, axes=range(n))
        scale = (self.resolution / self.fine) ** n
        spec = spec * scale * self.band.reshape(self.shape + (1,) * (fine_values.ndim - 1))
        return self.from_spec(spec)


@dataclass
class FieldRq:
    """R^q-valued field on a spectral grid, sampled as [N, q]."""

    grid: SpectralGrid
    values: np.ndarray

    @property
    def q(self) -> int:
        return self.values.shape[1]

    def sup_norm(self) -> float:
        """sup over the grid of the pointwise Euclidean norm."""
        if self.values.size == 0:
            return 0.0
        return float(np.max(np.linalg.norm(self.values, axis=1)))

    def copy(self) -> "FieldRq":
        return FieldRq(self.grid, self.values.copy())


def _quadratic_products(grid: SpectralGrid, v: np.ndarray, e: float,
                        chunk: int = 64) -> tuple[np.ndarray, np.ndarray]:
    """The dealiased products of Q(v, v) on the grid: (b [N, n], L [N, n, n]).

    b = Delta v . grad v and L is the quadratic curvature-free kernel of the
    (Delta - e)(grad v . grad v) identity.  Products are formed on the
    dealiasing grid and the contraction over components is accumulated
    chunkwise.
    """
    n = grid.model.dim
    Nf = grid.fine**n
    b_fine = np.zeros((Nf, n))
    L_fine = np.zeros((Nf, n, n))
    for a0 in range(0, v.shape[1], chunk):
        Gv, Hv, Dv = grid.jet_fields(v[:, a0:a0 + chunk])
        G, H, D = grid.pad(Gv), grid.pad(Hv), grid.pad(Dv)
        b_fine += np.einsum("fm,fmi->fi", D, G)
        L_fine += np.einsum("fmli,fmlj->fij", H, H)
        L_fine -= np.einsum("fm,fmij->fij", D, H)
        L_fine -= 0.5 * e * np.einsum("fmi,fmj->fij", G, G)
    return grid.unpad(b_fine), grid.unpad(L_fine)


def _trace_free(W: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(W - (tr W / n) I, tr W / n) for a stack W [N, n, n]."""
    n = W.shape[-1]
    tr = np.einsum("nii->n", W) / n
    return W - tr[:, None, None] * np.eye(n), tr


class ConformalSolver:
    """Workspace tying an embedding, a spectral grid, and the right inverse."""

    def __init__(self, emb, resolution: int | None = None, e: float = 1.0):
        self.emb = emb
        self.model = emb.model
        if self.model.kind != geometry.FLAT_TORUS:
            raise PreconditionError("the fixed-point solver runs on flat tori only")
        self.e = ResolventConfig(e).e
        if resolution is None:
            resolution = 48 if self.model.dim == 2 else 32
        self.grid = SpectralGrid(self.model, resolution)
        self.E = jets.PointwiseRightInverse(emb, self.grid.points)
        _, self.grad_u, _ = emb.jets_on(self.grid.points)   # [q, N, n]

    # -- building blocks ------------------------------------------------------

    def seed(self, f: np.ndarray, k: float) -> np.ndarray:
        """E(0, -f/2 + k g) over the grid; f is [N, n, n] traceless symmetric."""
        n = self.model.dim
        N = self.grid.N
        self._check_traceless(f)
        h = -0.5 * f + k * np.eye(n)
        return self.E.apply_tensor(np.zeros((N, n)), h)

    def quadratic(self, v: np.ndarray, chunk: int = 64) -> np.ndarray:
        """Q(v, v) over the grid: E applied to the resolvent-processed products."""
        grid = self.grid
        e = self.e
        b, L = _quadratic_products(grid, v, e, chunk)
        X = -grid.resolvent(b, e)
        B = grid.resolvent(L, e)
        rhs = np.concatenate([X, jets.pack_symmetric(B)], axis=-1)
        return self.E.apply(rhs)

    def conformal_residual(self, v: np.ndarray, f: np.ndarray) -> np.ndarray:
        """Trace-free part of grad u . grad v + grad v . grad u + grad v . grad v - f."""
        Gv = self.grid.grad(v)                   # [N, q, n]
        cross = np.einsum("ani,nak->nik", self.grad_u, Gv)
        quad = np.einsum("nai,nak->nik", Gv, Gv)
        return _trace_free(cross + cross.transpose(0, 2, 1) + quad - f)[0]

    def _check_traceless(self, f: np.ndarray):
        scale = max(1.0, float(np.max(np.abs(f))))
        if float(np.max(np.abs(np.einsum("nii->n", f)))) > 1e-8 * scale:
            raise PreconditionError("f must be pointwise g-traceless")


@dataclass
class IterationState:
    l: int
    v: FieldRq
    residual: float
    step_norm: float
    contraction: float
    bound_ok: bool


def fixed_point_solve(emb, f: np.ndarray, k: float = 0.0, e: float = 1.0,
                      tol: float = 1e-10, max_iter: int = 40,
                      solver: ConformalSolver | None = None,
                      theta_threshold: float = DEFAULT_THETA_THRESHOLD,
                      s: int = 2, alpha: float = 0.5,
                      v_start: np.ndarray | None = None):
    """Iterate v <- E(0, -f/2 + k g) + Q(v, v) from v_0 = 0 until steps settle.

    Returns (history, v) where history is a list of IterationState.  Entry is
    guarded by the smallness surrogate t^{-(s+alpha)/2} ||seed||_sup, and the
    induction bound ||v_l|| < 2 ||seed||_sup (the seed is E applied to half
    the defect, so this is the classical bound by the un-halved input) is
    monitored at every step.
    """
    solver = solver or ConformalSolver(emb, e=e)
    seed = solver.seed(f, k)
    seed_norm = float(np.max(np.linalg.norm(seed, axis=1))) if seed.size else 0.0
    theta = emb.t ** (-(s + alpha) / 2.0) * seed_norm
    if theta >= theta_threshold:
        raise PreconditionError(
            f"smallness condition violated: t^(-(s+a)/2) ||seed|| = {theta:.3g} "
            f">= {theta_threshold}")
    bound = 2.0 * seed_norm
    v = np.zeros_like(seed) if v_start is None else np.asarray(v_start, dtype=float)
    history: list[IterationState] = []
    prev_step = None
    slow = 0
    for l in range(1, max_iter + 1):
        v_next = seed + solver.quadratic(v)
        step = float(np.max(np.linalg.norm(v_next - v, axis=1)))
        if not np.isfinite(step):
            raise ConvergenceError(f"non-finite iterate at step {l}")
        contraction = step / prev_step if prev_step not in (None, 0.0) else float("nan")
        v = v_next
        v_norm = float(np.max(np.linalg.norm(v, axis=1)))
        residual = float(np.max(np.abs(solver.conformal_residual(v, f))))
        history.append(IterationState(
            l, FieldRq(solver.grid, v), residual, step, contraction,
            bound_ok=v_norm < bound or bound == 0.0))
        if step <= tol:
            return history, FieldRq(solver.grid, v)
        if np.isfinite(contraction) and contraction > 0.95:
            slow += 1
            if slow >= 3:
                raise ConvergenceError(
                    f"contraction ratio stayed above 0.95 for 3 steps (last {contraction:.3f})")
        else:
            slow = 0
        prev_step = step
    raise ConvergenceError(f"no convergence within {max_iter} iterations")


def family_bounds(solver: ConformalSolver, v_a: FieldRq, v_b: FieldRq,
                  dk: float) -> tuple[float, float, float]:
    """Distance of the conformal-family members k and k + dk, with its bounds.

    Returns (sup |v_b - v_a|, upper 2 sup |E(0, dk g)|, lower |dk|/4 sup |w|)
    with w the kernel generator; the distance must lie between the bounds.
    """
    distance = float(np.max(np.linalg.norm(v_b.values - v_a.values, axis=1)))
    n = solver.model.dim
    seed_g = solver.seed(np.zeros((solver.grid.N, n, n)), dk)
    upper = 2.0 * float(np.max(np.linalg.norm(seed_g, axis=1)))
    w = solver.E.kernel_generator()
    lower = 0.25 * abs(dk) * float(np.max(np.linalg.norm(w, axis=1)))
    return distance, upper, lower


@dataclass
class ConformalReport:
    residual_sup: float
    residual_holder: float
    pullback_residual_sup: float


def verify_conformal(emb, v, f: np.ndarray, solver: ConformalSolver | None = None,
                     alpha: float = 0.5) -> ConformalReport:
    """Residual of the conformal embedding equation, plus a pullback recomputation.

    The second number rebuilds the full pullback of u + v from scratch and
    reports the trace-free part of pullback(u+v) - pullback(u) - f; it is the
    independent check that the solved v does what the equation promises.
    """
    solver = solver or ConformalSolver(emb)
    values = v.values if isinstance(v, FieldRq) else np.asarray(v, dtype=float)
    res = solver.conformal_residual(values, f)
    sup = float(np.max(np.abs(res)))
    holder = analysis.holder_seminorm_field(
        res.reshape(len(res), -1), solver.grid.points, emb.model, alpha)
    grad_total = np.transpose(solver.grad_u, (1, 0, 2)) + solver.grid.grad(values)
    G_uv = np.einsum("nai,nak->nik", grad_total, grad_total)
    G_u = np.einsum("ani,nak->nik", solver.grad_u,
                    np.transpose(solver.grad_u, (1, 0, 2)))
    pull_res = float(np.max(np.abs(_trace_free(G_uv - G_u - f)[0])))
    return ConformalReport(sup, holder, pull_res)


@dataclass
class ConformalResult:
    C: FieldRq
    k: float
    defect_sup: float
    defect_holder: float
    trace_factor: np.ndarray
    injectivity: float
    injectivity_ok: bool


def assemble_C(emb, v, solver: ConformalSolver | None = None, k: float = 0.0,
               manufactured_f: np.ndarray | None = None,
               alpha: float = 0.5) -> ConformalResult:
    """Conformal immersion C = Psi^q + v with defect report and injectivity scan.

    When the defect was manufactured (f prescribed rather than measured from
    u), the report compensates the pullback by f so that the number reflects
    the solver's accuracy rather than the injected defect.
    """
    solver = solver or ConformalSolver(emb)
    values = v.values if isinstance(v, FieldRq) else np.asarray(v, dtype=float)
    grid = solver.grid
    u_vals = emb.values_on(grid.points)
    C_vals = u_vals + values
    grad_C = np.transpose(solver.grad_u, (1, 0, 2)) + grid.grad(values)  # [N, q, n]
    G = np.einsum("nai,naj->nij", grad_C, grad_C)
    if manufactured_f is not None:
        G = G - manufactured_f
    defect, tr = _trace_free(G)
    defect_sup = float(np.max(np.abs(defect)))
    defect_holder = analysis.holder_seminorm_field(
        defect.reshape(len(defect), -1), grid.points, emb.model, alpha)
    sq = np.sum(C_vals**2, axis=1)
    d2 = sq[:, None] + sq[None, :] - 2.0 * (C_vals @ C_vals.T)
    np.fill_diagonal(d2, np.inf)
    injectivity = float(np.sqrt(max(np.min(d2), 0.0)))
    return ConformalResult(FieldRq(grid, C_vals), k, defect_sup, defect_holder,
                           tr, injectivity, injectivity > 0.0)
