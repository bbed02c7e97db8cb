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
embedding equation to rounding.  Spectra are real-FFT half-spectra without
Nyquist bins.  Products are dealiased by the 3/2 rule: Q(v, v) scatters the
band of a chunk of components, component-major, into a refined half-spectrum
pruned to the band's last-axis columns, transforms it axis by axis (ifft over
the leading axes, then an irfft that zero-pads the dropped columns), and
contracts the chunk in one Gram product.  Each iterate's coarse gradient is
transformed once, where the solve loop pairs it with the values in a FieldRq;
the residual, `verify_conformal` and `assemble_C` read it from there.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import geometry, jets
from .errors import ConfigError, ConvergenceError, PreconditionError
from .geometry import ManifoldModel, conformal_defect

DEFAULT_THETA_THRESHOLD = 0.25


class SpectralGrid:
    """Uniform FFT grid on a flat torus with exact derivative and resolvent ops.

    Fields are arrays whose first axis is the flattened grid; any trailing
    component axes broadcast through the spectral operations.  Spectra are
    `rfftn` half-spectra over the grid axes (`kvecs`, `lam`, `band` alike);
    3/2-rule dealiasing moves the open band between the coarse and the refined
    half-spectrum through precomputed slice pairs (`_blocks`), for odd and
    even resolutions and any dimension alike.
    """

    def __init__(self, model: ManifoldModel, resolution: int):
        if model.kind != geometry.FLAT_TORUS:
            raise PreconditionError("spectral backend requires a flat torus")
        self.model = model
        self.resolution = N = int(resolution)
        n = model.dim
        self.shape = (N,) * n
        self.N = N**n
        self.points = geometry.sample_grid(model, N).points
        self.fine = int(np.ceil(1.5 * N))
        self.fine += self.fine % 2
        # signed integer frequencies: full axes, then the halved last axis
        full = np.rint(np.fft.fftfreq(N) * N).astype(int)
        freqs = [full] * (n - 1) + [np.arange(N // 2 + 1)]
        ks = [2.0 * np.pi / L * f for L, f in zip(model.periods, freqs)]
        self.kvecs = np.stack(np.meshgrid(*ks, indexing="ij"), axis=-1)  # [*spec, n]
        self.lam = np.sum(self.kvecs**2, axis=-1)                        # [*spec]
        # open band (Nyquist bins dropped): |f| <= h on every axis.  On each
        # leading axis it is two runs of bins, f >= 0 and f < 0, on the coarse
        # and the refined grid alike; on the halved last axis it is the first
        # h + 1 columns.  _blocks pairs the coarse and refined slices of each
        # of the 2^(n-1) boxes the band splits into.
        h = (N - 1) // 2
        runs = [((slice(0, h + 1), slice(0, h + 1)),
                 (slice(N - h, N), slice(self.fine - h, self.fine)))] * (n - 1)
        last = ((slice(0, h + 1), slice(0, h + 1)),)
        self._blocks = [tuple(zip(*box)) for box in itertools.product(*runs, last)]
        self._cols = h + 1
        self.band = np.zeros(self.lam.shape, dtype=bool)                 # band projector
        for coarse, _ in self._blocks:
            self.band[coarse] = True

    def _bcast(self, arr: np.ndarray, trailing: int) -> np.ndarray:
        """Reshape a per-bin array [*spec, ...] to broadcast over `trailing` axes."""
        spec = self.kvecs.shape[:-1]
        return arr.reshape(spec + (1,) * trailing + arr.shape[len(spec):])

    # -- transforms ---------------------------------------------------------

    def to_spec(self, values: np.ndarray) -> np.ndarray:
        arr = values.reshape(self.shape + values.shape[1:])
        spec = np.fft.rfftn(arr, axes=range(self.model.dim))
        return spec * self._bcast(self.band, values.ndim - 1)

    def from_spec(self, spec: np.ndarray) -> np.ndarray:
        n = self.model.dim
        arr = np.fft.irfftn(spec, s=self.shape, axes=range(n))
        return arr.reshape((self.N,) + spec.shape[n:])

    # -- exact spectral calculus --------------------------------------------

    def grad(self, values: np.ndarray) -> np.ndarray:
        """[N, ...] -> [N, ..., n]."""
        spec = self.to_spec(values)
        return self.from_spec(spec[..., None] * self._bcast(1j * self.kvecs, values.ndim - 1))

    def resolvent(self, values: np.ndarray, e: float) -> np.ndarray:
        """(Delta - e)^{-1}: spectral coefficient c_lam -> c_lam / (-lam - e)."""
        if e <= 0:
            raise ConfigError("spectral shift e must be strictly positive")
        spec = self.to_spec(values)
        return self.from_spec(spec * self._bcast(1.0 / (-self.lam - e), values.ndim - 1))

    # -- dealiased products ---------------------------------------------------

    def _refined_buffer(self, lead: tuple) -> np.ndarray:
        """Zeroed refined half-spectrum [*lead, fine, ..., fine, cols], pruned to
        the band's last-axis columns."""
        n = self.model.dim
        return np.zeros(lead + (self.fine,) * (n - 1) + (self._cols,), dtype=complex)

    def _refine(self, buf: np.ndarray) -> np.ndarray:
        """Samples [*lead, fine**n] on the refined grid of a pruned refined
        half-spectrum (grid axes last): ifft over the leading grid axes, then
        irfft(n=fine) over the last, which zero-pads the dropped columns."""
        n = self.model.dim
        arr = np.fft.ifftn(buf, axes=range(-n, -1)) if n > 1 else buf
        arr = np.fft.irfft(arr, n=self.fine, axis=-1)
        return arr.reshape(buf.shape[:-n] + (self.fine**n,))

    def unpad(self, fine_values: np.ndarray) -> np.ndarray:
        """Project physical samples on the refined grid back to the open band."""
        n = self.model.dim
        arr = fine_values.reshape((self.fine,) * n + fine_values.shape[1:])
        fine_spec = np.fft.rfftn(arr, axes=range(n))
        spec = np.zeros(self.kvecs.shape[:-1] + fine_values.shape[1:], dtype=complex)
        for coarse, fine in self._blocks:
            spec[coarse] = fine_spec[fine]
        spec *= (self.resolution / self.fine) ** n
        return self.from_spec(spec)


@dataclass(frozen=True)
class FieldRq:
    """R^q-valued field on a spectral grid: samples [N, q] and their coarse
    gradient [N, q, n], paired where the gradient is taken."""

    values: np.ndarray
    grad: np.ndarray


def _quadratic_products(grid: SpectralGrid, v: np.ndarray, e: float,
                        chunk: int = 64) -> tuple[np.ndarray, np.ndarray]:
    """The dealiased products of Q(v, v) on the grid: (b [N, n], L [N, n, n]).

    b = Delta v . grad v and L is the quadratic curvature-free kernel of the
    (Delta - e)(grad v . grad v) identity.  All components take one forward
    transform, in component-major layout [q, *grid].  Each chunk of components
    scatters the band of its gradient and Hessian channels F = [G_i, H_ab
    (a<=b)] into one reused pruned refined half-spectrum [m, c, *grid] and
    transforms it to the 3/2 grid, where the Gram product K = sum_m F_m F_m^T
    is accumulated.  b and L are fixed linear combinations of the entries of K
    (Delta v = tr H).
    """
    n = grid.model.dim
    k = np.moveaxis(grid.kvecs, -1, 0)                          # [n, *spec]
    iu = np.triu_indices(n)
    sym = np.concatenate([1j * k, -k[iu[0]] * k[iu[1]]]) * (grid.fine / grid.resolution) ** n
    c = len(sym)
    spec = np.fft.rfftn(v.T.reshape((-1,) + grid.shape), axes=range(1, n + 1))
    buf = grid._refined_buffer((min(chunk, len(spec)), c))
    K = np.zeros((grid.fine**n, c, c))
    for a0 in range(0, len(spec), chunk):
        part = spec[a0:a0 + chunk, None]
        out = buf[:len(part)]
        for coarse, fine in grid._blocks:
            np.multiply(part[(Ellipsis,) + coarse], sym[(Ellipsis,) + coarse],
                        out=out[(Ellipsis,) + fine])
        F = grid._refine(out)                                   # [m, c, Nf]
        K += np.einsum("mcp,mdp->pcd", F, F)
    H = np.empty((n, n), dtype=int)             # channel of H_ab
    H[iu] = H.T[iu] = np.arange(n, c)
    D = np.diagonal(H)                          # channels summing to Delta v
    b = K[:, D, :n].sum(axis=1)
    L = (K[:, H[:, :, None], H[:, None, :]].sum(axis=1)
         - K[:, D[:, None, None], H].sum(axis=1) - 0.5 * e * K[:, :n, :n])
    return grid.unpad(b), grid.unpad(L)


def manufactured_defect(points: np.ndarray, epsilon: float, f_mode) -> np.ndarray:
    """Traceless test defect f = epsilon cos(x . f_mode) diag(1, -1, 0, ...) on points [N, n].

    f_mode is padded with zeros to n entries.  Raises ConfigError when n < 2
    or f_mode has more than n entries.
    """
    n = points.shape[1]
    if n < 2:
        raise ConfigError("the manufactured defect diag(1, -1) needs a model of "
                          "dimension at least 2")
    if len(f_mode) > n:
        raise ConfigError(f"f_mode has {len(f_mode)} entries, more than the model "
                          f"dimension {n}")
    mode = np.zeros(n)
    mode[:len(f_mode)] = f_mode
    pattern = np.zeros((n, n))
    pattern[0, 0], pattern[1, 1] = 1.0, -1.0
    return epsilon * np.cos(points @ mode)[:, None, None] * pattern


class ConformalSolver:
    """The one handle of a flat-torus solve: the embedding (and its t), the
    spectral shift e, the spectral grid and the right inverse E on it."""

    def __init__(self, emb, resolution: int | None = None, e: float = 1.0):
        self.emb = emb
        self.model = emb.model
        if self.model.kind != geometry.FLAT_TORUS:
            raise PreconditionError("the fixed-point solver runs on flat tori only")
        if e <= 0:
            raise ConfigError("spectral shift e must be strictly positive")
        self.e = e
        if resolution is None:
            resolution = 48 if self.model.dim == 2 else 32
        self.grid = SpectralGrid(self.model, resolution)
        self.E = jets.PointwiseRightInverse(emb, self.grid.points)
        # the gradient rows of P: the frame of a flat torus is the identity
        n = self.model.dim
        self.grad_u = np.ascontiguousarray(self.E.P[:, :n].transpose(0, 2, 1))   # [N, q, n]

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
        if not v.any():
            return np.zeros_like(v)
        grid = self.grid
        e = self.e
        b, L = _quadratic_products(grid, v, e, chunk)
        X = -grid.resolvent(b, e)
        B = grid.resolvent(L, e)
        rhs = np.concatenate([X, jets.pack_symmetric(B)], axis=-1)
        return self.E.apply(rhs)

    def conformal_residual(self, v: FieldRq, f: np.ndarray) -> np.ndarray:
        """Trace-free part of grad u . grad v + grad v . grad u + grad v . grad v - f."""
        cross = self.grad_u.transpose(0, 2, 1) @ v.grad
        quad = v.grad.transpose(0, 2, 1) @ v.grad
        return conformal_defect(cross + cross.transpose(0, 2, 1) + quad - f,
                                np.eye(self.model.dim))[0]

    def _check_traceless(self, f: np.ndarray):
        scale = max(1.0, float(np.max(np.abs(f))))
        if float(np.max(np.abs(np.einsum("nii->n", f)))) > 1e-8 * scale:
            raise PreconditionError("f must be pointwise g-traceless")


@dataclass
class IterationState:
    l: int
    residual: float
    step_norm: float
    contraction: float
    bound_ok: bool


def fixed_point_solve(solver: ConformalSolver, f: np.ndarray, k: float = 0.0,
                      tol: float = 1e-10, max_iter: int = 40,
                      theta_threshold: float = DEFAULT_THETA_THRESHOLD,
                      s: int = 2, alpha: float = 0.5,
                      v_start: np.ndarray | None = None):
    """Iterate v <- E(0, -f/2 + k g) + Q(v, v) on the solver's grid until steps settle.

    f is the traceless defect [N, n, n] on the solver's grid; the embedding, t
    and the shift e are the solver's.  The start is v_0 = 0, or the values
    v_start [N, q].  Returns (history, v): the per-step scalars
    (IterationState) and the final iterate as a FieldRq.  Entry is guarded by
    the smallness surrogate t^{-(s+alpha)/2} ||seed||_sup, and the induction
    bound ||v_l|| < 2 ||seed||_sup (the seed is E applied to half the defect,
    so this is the classical bound by the un-halved input) is monitored at
    every step.
    """
    seed = solver.seed(f, k)
    seed_norm = float(np.max(np.linalg.norm(seed, axis=1))) if seed.size else 0.0
    theta = solver.emb.t ** (-(s + alpha) / 2.0) * seed_norm
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
        field_v = FieldRq(v, solver.grid.grad(v))
        residual = float(np.max(np.abs(solver.conformal_residual(field_v, f))))
        history.append(IterationState(l, residual, step, contraction,
                                      bound_ok=v_norm < bound or bound == 0.0))
        if step <= tol:
            return history, field_v
        if np.isfinite(contraction) and contraction > 0.95:
            slow += 1
            if slow >= 3:
                raise ConvergenceError(
                    f"contraction ratio stayed above 0.95 for 3 steps (last {contraction:.3f})")
        else:
            slow = 0
        prev_step = step
        del field_v              # peak memory: free this gradient before the next is taken
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
    pullback_residual_sup: float
    residual: np.ndarray          # [N, n, n] trace-free residual field


def verify_conformal(solver: ConformalSolver, v: FieldRq, f: np.ndarray) -> ConformalReport:
    """Residual of the conformal embedding equation, plus a pullback recomputation.

    The second number rebuilds the full pullback of u + v from scratch and
    reports the trace-free part of pullback(u+v) - pullback(u) - f; it is the
    independent check that the solved v does what the equation promises.  The
    report keeps the residual field for norms beyond the sup.
    """
    res = solver.conformal_residual(v, f)
    grad_total = solver.grad_u + v.grad                        # [N, q, n]
    G_uv = grad_total.transpose(0, 2, 1) @ grad_total
    G_u = solver.grad_u.transpose(0, 2, 1) @ solver.grad_u
    pull_res = float(np.max(np.abs(conformal_defect(G_uv - G_u - f,
                                                    np.eye(solver.model.dim))[0])))
    return ConformalReport(float(np.max(np.abs(res))), pull_res, res)


@dataclass
class ConformalResult:
    C: FieldRq
    k: float
    defect_sup: float
    defect: np.ndarray            # [N, n, n] trace-free defect field
    trace_factor: np.ndarray
    injectivity: float
    injectivity_ok: bool


def assemble_C(solver: ConformalSolver, v: FieldRq, k: float = 0.0,
               manufactured_f: np.ndarray | None = None) -> ConformalResult:
    """Conformal immersion C = Psi^q + v with defect field and injectivity scan.

    Psi^q is the solver's embedding on the solver's grid.  When the defect was
    manufactured (f prescribed rather than measured from u), the report
    compensates the pullback by f so that the number reflects the solver's
    accuracy rather than the injected defect.
    """
    C_vals = solver.emb.values_on(solver.grid.points) + v.values
    grad_C = solver.grad_u + v.grad                            # [N, q, n]
    G = grad_C.transpose(0, 2, 1) @ grad_C
    if manufactured_f is not None:
        G = G - manufactured_f
    defect, tr = conformal_defect(G, np.eye(solver.model.dim))
    injectivity = _min_pair_distance(C_vals)
    return ConformalResult(FieldRq(C_vals, grad_C), k, float(np.max(np.abs(defect))),
                           defect, tr, injectivity, injectivity > 0.0)


def _min_pair_distance(X: np.ndarray, block: int = 256) -> float:
    """Smallest distance between distinct rows of X [N, q].

    Each block of rows is compared with itself and the rows after it, through
    |a|^2 + |b|^2 - 2 a.b, so no N x N matrix is held.
    """
    sq = np.sum(X**2, axis=1)
    best = np.inf
    for i0 in range(0, len(X), block):
        rows = X[i0:i0 + block]
        d2 = sq[i0:i0 + block, None] + sq[None, i0:] - 2.0 * (rows @ X[i0:].T)
        np.fill_diagonal(d2, np.inf)
        best = min(best, float(np.min(d2)))
    return float(np.sqrt(max(best, 0.0)))
