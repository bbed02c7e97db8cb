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
embedding equation to rounding.

E = P^T (P P^T)^{-1}, so every iterate is v = P^T y with coefficients y in
R^m, m = n + n(n+1)/2.  P itself is never formed.  Every embedding mode is
one half of a cos/sin pair whose two modes carry one weight, so each pair,
read as one complex number, is the mode psi_kappa = w a exp(i kappa . x),
and D^alpha psi_kappa = (i kappa)^alpha psi_kappa.  One provider call,
`LatticeSpectrum.pairs`, gives kappa, s_kappa = (w a)^2 and psi [N, q/2] on
the grid, and refuses any other block.  Row r of P is psi times the constant
symbol S[r, kappa] = (i kappa)^alpha_r, so P^T y = psi (y S).  By the product
rule, D^delta (P^T y) is psi times the symbols A_delta[(r, gamma), kappa] =
binom(delta, gamma) (i kappa)^(alpha_r + delta - gamma) applied to the
channels D^gamma y_r (`_symbols`; A_0 at gamma = 0 is S).  Every constant of
the iteration is then one pair sum Re((X s) Z^H) of two such symbol tables
(`_pair_forms`):

* M = P P^T = Re((S s) S^H), one constant matrix on a flat torus with
  closed shells.  The set-up takes it as T s, T[(r, r'), kappa] =
  Re(S_r conj(S_r')), and checks it against the jet Gram |psi(x)|^2 T at
  every grid point;
* the Q form: K = sum_j F_j F_j^T (F_j = [grad v_j, Hess v_j]) as a
  quadratic form in the channels (y, grad y, Hess y);
* the residual's cross term sum_j grad u_j (x) grad v_j, linear in (y,
  grad y), and its quadratic term, a form in (y, grad y).

The solver iterates on y [N, m]:

    y_{l+1} = M^{-1} (0, -f/2 + k g) + M^{-1} (X, B)(P^T y_l).

Pointwise |P^T z|^2 = z^T M z, which gives the step norm, the iterate bound,
the smallness surrogate and the family bounds.  No array of q components is
read or written per iterate.

Spectra are real-FFT half-spectra without Nyquist bins.  Q(v, v) is
dealiased by the 3/2 rule: `SpectralGrid.refine` scatters the band of the
channels of y, component-major, into a refined half-spectrum pruned to the
band's last-axis columns and transforms it axis by axis (ifft over the leading
axes, then an irfft that zero-pads the dropped columns); Q evaluates the
quadratic form of b and L on the 3/2 grid and projects them back to the band.
This equals the dealiased products of v itself to rounding while v = P^T y
lies in the open band.

`assemble_C` is the one per-k pass after a solve: it forms the immersion
C = Psi + v = psi (1 + y S) and its gradient grad_i C = i kappa_i C +
psi (d_i y S) one block of grid points at a time, keeping C and the pullback
G = grad C grad C^T of each block, and from G the pair-form residual, the
independent pullback check, the trace-free defect and the injectivity.  No
array of q components is transformed, no per-point array holds m rows of q
components, and grad C is held one block at a time.  The injectivity is exact
and cheap: the pair weights make |Psi(x) - Psi(x + d)| = gap(d) depend on the
grid offset d alone, every pair at offset d lies at least gap(d) - 2 sup|v|
apart, and a scan of the offsets by that bound stops after a few (2 of 1153
on the 2-torus at N = 48^2; see `assemble_C`).

The set-up refuses, before it fetches any jets, a problem whose estimated
bytes pass MemAvailable (`geometry.check_memory`).  The grid defaults to 48
points per axis on a 2-torus and 32 above (`grid_resolution`), for the CLI
too.
"""
from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import geometry, jets
from .errors import ConfigError, ConvergenceError, PreconditionError
from .geometry import ManifoldModel, conformal_defect

DEFAULT_THETA_THRESHOLD = 0.25
# the entrywise gap, relative to max |M|, that the set-up allows between the jet
# Gram and the pair Gram M
_GRAM_RTOL = 1e-12
# sample columns per matrix product of `_quadratic_form`
_FORM_CHUNK = 4096


class SpectralGrid:
    """Uniform FFT grid on a flat torus with the exact resolvent and 3/2-rule products.

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
        spec *= self._bcast(self.band, values.ndim - 1)
        return spec

    def from_spec(self, spec: np.ndarray) -> np.ndarray:
        n = self.model.dim
        arr = np.fft.irfftn(spec, s=self.shape, axes=range(n))
        return arr.reshape((self.N,) + spec.shape[n:])

    # -- exact spectral calculus --------------------------------------------

    def resolvent(self, values: np.ndarray, e: float) -> np.ndarray:
        """(Delta - e)^{-1}: spectral coefficient c_lam -> c_lam / (-lam - e)."""
        if e <= 0:
            raise ConfigError("spectral shift e must be strictly positive")
        spec = self.to_spec(values)
        return self.from_spec(spec * self._bcast(1.0 / (-self.lam - e), values.ndim - 1))

    # -- dealiased products ---------------------------------------------------

    def refine(self, spec: np.ndarray) -> np.ndarray:
        """Samples [*lead, fine**n] on the refined grid of a band half-spectrum
        [*lead, *spec] (grid axes last).

        The band, rescaled by (fine / N)^n, is scattered into a refined
        half-spectrum pruned to the band's last-axis columns; an ifft over the
        leading grid axes and an irfft(n=fine) over the last, which zero-pads
        the dropped columns, give the samples.
        """
        n = self.model.dim
        lead = spec.shape[:-n]
        buf = np.zeros(lead + (self.fine,) * (n - 1) + (self._cols,), dtype=complex)
        scale = (self.fine / self.resolution) ** n
        for coarse, fine in self._blocks:
            np.multiply(spec[(Ellipsis,) + coarse], scale, out=buf[(Ellipsis,) + fine])
        arr = np.fft.ifftn(buf, axes=range(-n, -1)) if n > 1 else buf
        arr = np.fft.irfft(arr, n=self.fine, axis=-1)
        return arr.reshape(lead + (self.fine**n,))

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
    """R^q-valued field on a spectral grid, the type of `assemble_C`'s C:
    samples [N, q]."""

    values: np.ndarray


def _row_exponents(n: int) -> np.ndarray:
    """Derivative exponents of the rows of P, in the jets row order: e_a, then
    e_a + e_b per `jets.row_index_pairs`."""
    eye = np.eye(n, dtype=int)
    return np.array([*eye] + [eye[a] + eye[b] for a, b in jets.row_index_pairs(n)])


def _channel_exponents(n: int) -> np.ndarray:
    """Exponents of the channels of a coefficient field y: 0, e_a, then e_a + e_b
    (a <= b, upper-triangle order)."""
    eye = np.eye(n, dtype=int)
    a, b = np.triu_indices(n)
    return np.concatenate([np.zeros((1, n), dtype=int), eye, eye[a] + eye[b]])


def _symbols(kappa: np.ndarray, delta: np.ndarray) -> np.ndarray:
    """The pair symbols A_delta [m c, V] of D^delta (P^T y), channel-minor.

    By the product rule D^delta (P^T y) = sum_(r, gamma) binom(delta, gamma)
    (D^(delta - gamma) P_r) D^gamma y_r, and row r of P is (i kappa)^alpha_r
    psi_kappa on pair kappa, so on each pair D^delta (P^T y) is psi_kappa
    times sum_(r, gamma) A_delta[(r, gamma), kappa] D^gamma y_r with
    A_delta[(r, gamma), kappa] = binom(delta, gamma) (i kappa)^(alpha_r +
    delta - gamma), 0 unless gamma <= delta.  A_0 at gamma = 0 is S."""
    n = kappa.shape[1]
    alpha, gammas = _row_exponents(n), _channel_exponents(n)
    inside = np.all(gammas <= delta, axis=1)
    binom = np.array([math.prod(map(math.comb, delta, g)) if ok else 0
                      for g, ok in zip(gammas, inside)])
    beta = alpha[:, None, :] + np.where(inside[:, None], delta - gammas, 0)   # [m, c, n]
    power = np.prod((1j * kappa.T) ** beta[..., None], axis=2)              # [m, c, V]
    return (binom[:, None] * power).reshape(-1, len(kappa))


def _pair_forms(S: np.ndarray, kappa: np.ndarray, s: np.ndarray, e: float):
    """The constant tables of the y iteration, each a pair sum Re((X s) Z^H).

    For v = P^T y, sum_j D^d1 v_j D^d2 v_j sums Re(a conj(b)) over the
    pairs, a and b the complex values of D^d1 v and D^d2 v on the pair.  Each
    is psi_kappa times a column of symbols (`_symbols`) applied to the
    channels, and |psi_kappa|^2 = s_kappa at every point, so the sum is the
    form K(d1, d2) = Re((A_d1 s) A_d2^H) [R, R] in the R = m c channels
    (y, grad y, Hess y).  Returns (Q form [m, R, R], cross form [n * n, R1],
    quad form [n * n, R1, R1]), R1 = m (1 + n) channels (y, grad y).  The
    Q form gives (-b, L) packed per the jets row order, b_i = sum_d
    K(2 e_d, e_i) and L_ij = sum_a K(e_a + e_i, e_a + e_j) -
    sum_d K(2 e_d, e_i + e_j) - (e/2) K(e_i, e_j), so that (X, B) is their
    resolvent.  The cross form gives sum_j d_a u_j d_b v_j, whose X is the
    gradient row S_a of the symbols S of P, and the quad form K(e_a, e_b).
    """
    n = kappa.shape[1]
    eye = np.eye(n, dtype=int)
    symbols = functools.cache(lambda d: _symbols(kappa, np.array(d)))
    A = lambda d: symbols(tuple(d))
    form = lambda X, Z: ((X * s) @ Z.conj().T).real
    K = lambda d1, d2: form(A(d1), A(d2))
    c = len(_channel_exponents(n))
    first = np.arange(len(S) * c).reshape(-1, c)[:, :1 + n].ravel()   # channels y, grad y
    b = [-sum(K(2 * eye[d], eye[i]) for d in range(n)) for i in range(n)]
    L = [sum(K(eye[a] + eye[i], eye[a] + eye[j]) for a in range(n))
         - sum(K(2 * eye[d], eye[i] + eye[j]) for d in range(n))
         - 0.5 * e * K(eye[i], eye[j]) for i, j in jets.row_index_pairs(n)]
    cross = [form(S[a], A(eye[b])[first]) for a in range(n) for b in range(n)]
    quad = [form(A(eye[a])[first], A(eye[b])[first]) for a in range(n) for b in range(n)]
    return np.stack(b + L), np.stack(cross), np.stack(quad)


def _quadratic_form(W: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Forms W [o, R, R] at the sample columns of Y [R, P]: [o, P], out[o, p] =
    Y[:, p]^T W[o] Y[:, p], one matrix product per `_FORM_CHUNK` samples."""
    o, R, _ = W.shape
    Wt = W.transpose(0, 2, 1).reshape(o * R, R)
    out = np.empty((o, Y.shape[1]))
    for p0 in range(0, Y.shape[1], _FORM_CHUNK):
        Yc = Y[:, p0:p0 + _FORM_CHUNK]
        out[:, p0:p0 + _FORM_CHUNK] = ((Wt @ Yc).reshape(o, R, -1) * Yc).sum(axis=1)
    return out


def grid_resolution(n: int, resolution: int | None) -> int:
    """The solver grid's points per axis: `resolution`, or by default 48 on a
    2-torus and 32 above."""
    return (48 if n == 2 else 32) if resolution is None else resolution


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
    spectral shift e, the spectral grid, and from one `LatticeSpectrum.pairs`
    call the embedding on the grid as cos/sin pairs psi [N, q/2] (complex;
    `psi.view(float)` is Psi [N, q]) with the wave vector of each pair.  From
    them: the symbols S [m, q/2] of the rows of P, the jet Gram [N, m, m], and
    the constant Gram M with the pair forms of the y iteration.  The gradient
    rows of P are grad u (the frame of a flat torus is the identity), so the
    jet Gram's leading n x n block is the pullback of Psi."""

    def __init__(self, emb, resolution: int | None = None, e: float = 1.0):
        self.emb = emb
        self.model = emb.model
        if self.model.kind != geometry.FLAT_TORUS:
            raise PreconditionError("the fixed-point solver runs on flat tori only")
        if e <= 0:
            raise ConfigError("spectral shift e must be strictly positive")
        self.e = e
        self.grid = SpectralGrid(self.model, grid_resolution(self.model.dim, resolution))
        n = self.model.dim
        if not hasattr(emb.provider, "pairs"):
            raise PreconditionError("the fixed-point solver needs the cos/sin pairs "
                                    "of an analytic torus spectrum")
        # Psi, |psi|^2 and the jet Gram of the set-up, and the C of each
        # assemble_C, as if all were held at once
        m, N, q = len(_row_exponents(n)), self.grid.N, emb.q
        geometry.check_memory(8 * N * (2 * q + q // 2 + m * m),
                              f"the solver (Psi, its Gram and C at q = {q}, N = {N})")
        self._kappa, s, self.psi = emb.provider.pairs(1, emb.weights, self.grid.points)
        self._S = _symbols(self._kappa, np.zeros(n, dtype=int))[::len(_channel_exponents(n))]
        # M = T s and the jet Gram |psi|^2 T, T[(r, r'), kappa] = Re(S_r conj(S_r'))
        T = (self._S[:, None] * self._S.conj()).real.reshape(m * m, -1)   # [m m, V]
        self.M = (T @ s).reshape(m, m)
        pairs = self.psi.view(float).reshape(N, -1, 2)
        self.gram = (np.einsum("nvc,nvc->nv", pairs, pairs) @ T.T).reshape(N, m, m)
        gap = float(np.max(np.abs(self.gram - self.M)))
        if gap > _GRAM_RTOL * float(np.max(np.abs(self.M))):
            raise PreconditionError(
                f"the jet Gram is not constant on the grid: it differs from the pair "
                f"Gram by {gap:.3g}")
        self._q_form, self._cross_form, self._quad_form = _pair_forms(self._S, self._kappa, s, e)
        # channel symbols (i k)^gamma on the band, [c, *spec]
        ik = 1j * np.moveaxis(self.grid.kvecs, -1, 0)
        gammas = _channel_exponents(n).reshape((-1, n) + (1,) * n)
        self._sym = np.prod(ik ** gammas, axis=1) * self.grid.band

    @functools.cached_property
    def _offsets(self):
        """The offset table of the injectivity scan (see `assemble_C`), built
        on first use: one of each pair of grid offsets +-d != 0 (flat grid
        indices) in increasing order of gap(d) = |Psi(x0) - Psi(x0 + d)|, x0
        the grid origin, with their gaps; eps_Psi, the bound on the rounding
        of Psi at a grid point; and |Psi|, the same at every point."""
        grid, n = self.grid, self.model.dim
        flat = np.arange(grid.N)
        neg = np.ravel_multi_index(tuple(-c % grid.resolution for c in
                                         np.unravel_index(flat, grid.shape)), grid.shape)
        offsets = np.flatnonzero(flat <= neg)[1:]
        psi = self.psi.view(float)
        gaps = _distances(psi, np.zeros_like(offsets), offsets)
        order = np.argsort(gaps, kind="stable")
        norm2 = float(psi[0] @ psi[0])
        L2 = np.asarray(self.model.periods) ** 2
        eps_psi = (np.finfo(float).eps / 2) * math.sqrt(
            72 * n * float(L2 @ np.diag(self.M)[:n]) + 392 * n * n * norm2)
        return offsets[order], gaps[order], eps_psi, math.sqrt(norm2)

    # -- building blocks ------------------------------------------------------

    def _solve(self, rhs: np.ndarray) -> np.ndarray:
        """E in coefficients: y = M^{-1} rhs at every grid point, [N, m]."""
        return np.linalg.solve(self.M, rhs.T).T

    def _channels(self, y: np.ndarray) -> np.ndarray:
        """Band spectra of the channels (y, grad y, Hess y), [m, c, *spec]."""
        spec = np.fft.rfftn(y.T.reshape((-1,) + self.grid.shape),
                            axes=range(1, self.model.dim + 1))
        return spec[:, None] * self._sym

    def image(self, z: np.ndarray) -> np.ndarray:
        """P^T z [N, q] of coefficients z [N, m]: psi (z S) per cos/sin pair."""
        v = (z @ self._S.view(float)).view(complex)
        v *= self.psi
        return v.view(float)

    def sup_norm(self, z: np.ndarray) -> float:
        """sup_x |P^T z| = sup_x sqrt(z^T M z) of coefficients z [N, m]."""
        sq = np.einsum("nm,nm->n", z @ self.M, z)
        return float(np.sqrt(np.maximum(np.max(sq), 0.0)))

    def seed(self, f: np.ndarray, k: float) -> np.ndarray:
        """Coefficients of E(0, -f/2 + k g) [N, m]; f is [N, n, n] traceless symmetric."""
        n = self.model.dim
        self._check_traceless(f)
        h = -0.5 * f + k * np.eye(n)
        return self._solve(np.concatenate([np.zeros((self.grid.N, n)),
                                           jets.pack_symmetric(h)], axis=-1))

    def quadratic(self, y: np.ndarray) -> np.ndarray:
        """Coefficients of Q(v, v) for v = P^T y [N, m]: the pair form of the
        products on the 3/2 grid, projected to the band, through the resolvent
        and the constant Gram solve."""
        if not y.any():
            return np.zeros_like(y)
        grid = self.grid
        Y = grid.refine(self._channels(y)).reshape(-1, grid.fine ** self.model.dim)  # [R, Nf]
        prods = _quadratic_form(self._q_form, Y)                         # (-b, L)
        return self._solve(grid.resolvent(grid.unpad(prods.T), self.e))

    def _coarse_channels(self, y: np.ndarray) -> np.ndarray:
        """Samples of the channels (y, grad y) on the grid, [m (1 + n), N]
        channel-minor."""
        n = self.model.dim
        chan = self._channels(y)[:, :1 + n]
        return np.fft.irfftn(chan, s=self.grid.shape, axes=range(2, n + 2)).reshape(
            -1, self.grid.N)

    def conformal_residual(self, y: np.ndarray, f: np.ndarray) -> np.ndarray:
        """Trace-free part of grad u . grad v + grad v . grad u + grad v . grad v - f
        for v = P^T y, from the pair forms in the channels (y, grad y)."""
        return self._residual(self._coarse_channels(y), f)

    def _residual(self, Y: np.ndarray, f: np.ndarray) -> np.ndarray:
        """`conformal_residual` from the channel samples Y [R1, N] of
        `_coarse_channels`."""
        n = self.model.dim
        cross = (self._cross_form @ Y).T.reshape(-1, n, n)
        quad = _quadratic_form(self._quad_form, Y).T.reshape(-1, n, n)
        return conformal_defect(cross + cross.transpose(0, 2, 1) + quad - f, np.eye(n))[0]

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
                      y_start: np.ndarray | None = None):
    """Iterate y <- M^{-1}(0, -f/2 + k g) + Q(y) on the solver's grid until steps settle.

    This is v <- E(0, -f/2 + k g) + Q(v, v) for v = P^T y.  f is the traceless
    defect [N, n, n] on the solver's grid; the embedding, t and the shift e
    are the solver's.  The start is y_0 = 0, or the coefficients y_start
    [N, m].  Returns (history, y): the per-step scalars (IterationState) and
    the final coefficients [N, m]; `assemble_C` forms v and C.  Norms are
    sup_x |P^T .|.  Entry is guarded by the smallness surrogate
    t^{-(s+alpha)/2} ||seed||_sup, and the induction bound ||v_l|| < 2
    ||seed||_sup (the seed is E applied to half the defect, so this is the
    classical bound by the un-halved input) is monitored at every step.
    """
    seed = solver.seed(f, k)
    seed_norm = solver.sup_norm(seed)
    theta = solver.emb.t ** (-(s + alpha) / 2.0) * seed_norm
    if theta >= theta_threshold:
        raise PreconditionError(
            f"smallness condition violated: t^(-(s+a)/2) ||seed|| = {theta:.3g} "
            f">= {theta_threshold}")
    bound = 2.0 * seed_norm
    y = np.zeros_like(seed) if y_start is None else np.asarray(y_start, dtype=float)
    history: list[IterationState] = []
    prev_step = None
    slow = 0
    for l in range(1, max_iter + 1):
        y_next = seed + solver.quadratic(y)
        step = solver.sup_norm(y_next - y)
        if not np.isfinite(step):
            raise ConvergenceError(f"non-finite iterate at step {l}")
        contraction = step / prev_step if prev_step not in (None, 0.0) else float("nan")
        y = y_next
        residual = float(np.max(np.abs(solver.conformal_residual(y, f))))
        history.append(IterationState(l, residual, step, contraction,
                                      bound_ok=solver.sup_norm(y) < bound or bound == 0.0))
        if step <= tol:
            return history, y
        if np.isfinite(contraction) and contraction > 0.95:
            slow += 1
            if slow >= 3:
                raise ConvergenceError(
                    f"contraction ratio stayed above 0.95 for 3 steps (last {contraction:.3f})")
        else:
            slow = 0
        prev_step = step
    raise ConvergenceError(f"no convergence within {max_iter} iterations")


def family_bounds(solver: ConformalSolver, y_a: np.ndarray, y_b: np.ndarray,
                  dk: float) -> tuple[float, float, float]:
    """Distance of the conformal-family members k and k + dk, with its bounds.

    Returns (sup |P^T (y_b - y_a)|, upper 2 sup |E(0, dk g)|, lower |dk|/4
    sup |w|) with w = E(0, g) the kernel generator; the distance must lie
    between the bounds.  w has the constant coefficients c = M^{-1}(0, g), so
    |w| = sqrt(c^T M c) and |E(0, dk g)| = |dk| |w| at every point.
    """
    n = solver.model.dim
    c = np.linalg.solve(solver.M, np.concatenate([np.zeros(n),
                                                  jets.pack_symmetric(np.eye(n))]))
    w = float(np.sqrt(c @ solver.M @ c))
    return solver.sup_norm(y_b - y_a), 2.0 * abs(dk) * w, 0.25 * abs(dk) * w


@dataclass
class ConformalResult:
    C: FieldRq
    residual_sup: float
    residual: np.ndarray          # [N, n, n] trace-free pair-form residual
    pullback_residual_sup: float
    defect_sup: float
    defect: np.ndarray            # [N, n, n] trace-free defect field
    injectivity: float
    injectivity_ok: bool


def assemble_C(solver: ConformalSolver, y: np.ndarray, f: np.ndarray) -> ConformalResult:
    """The conformal immersion C = Psi + v of a k-solve, with its checks.

    C = psi (1 + y S) and grad_i C = i kappa_i C + psi (d_i y S) are formed
    on the cos/sin pairs (see the module docstring), with d_i y from the
    coarse channel samples that the pair-form residual reads, one block of
    2^15 / q grid points at a time (`_immersion_block`): each block writes
    its rows of C [N, q] (`.view(float)` of the pairs) and of the pullback
    G = grad C grad C^T [N, n, n], and its gradient [b, n, q] lives in one
    reused buffer of at most 2^15 n floats (256 n KB, sized to the cache), so
    grad C is never held whole.  From G it reports (tf the trace-free part):
    the solver's pair-form residual of y with its field; the pullback residual
    tf(G - G_u - f), G_u the pullback of Psi, which is the independent check
    that v does what the equation promises; the defect tf(G - f),
    compensated by the manufactured f so that it measures the solve rather
    than the injected defect; and the injectivity, the smallest distance
    between grid points of C.

    The injectivity is the exact minimum over all pairs, found by scanning a
    few grid offsets d.  The identity: the same pair weights make Psi(x + d)
    the rotation of Psi(x) by kappa . d in each cos/sin pair plane, so
        |Psi(x) - Psi(x + d)| = gap(d) = |Psi(x0) - Psi(x0 + d)|
    for every x, and one row of Psi gives the whole table
    (`ConformalSolver._offsets`, x0 the grid origin).  The bound: every pair
    at offset d lies at least gap(d) - 2 sup|v| apart, sup|v| =
    sup sqrt(y^T M y) being `solver.sup_norm(y)`.  The scan (`_injectivity`)
    takes one of +-d at a time, in increasing order of that bound, with the
    min over x by direct differences, and stops once the bound of the next
    offset exceeds the best distance found plus the rounding margin
        2 (V - sup|v|) + 4 eps_Psi + 2 gamma_(q+3) gap(d).
    The margin follows from the standard model of rounding, to first order in
    u = 2^-53 with gamma_k = k u / (1 - k u), and cos and sin within 4 ulp:
    - eps_Psi bounds |Psi~(x) - Psi(x)|, the stored Psi against the exact one
      at the exact lattice point i L / r.  The phase kappa_a x_a of a pair
      passes six roundings (pi, 2 pi / L_a, times k_a, L_a / r, times i, the
      product), so it is off by at most 6 u |kappa_a| L_a; the table entry
      exp(i kappa_a x_a) adds sqrt(2) 8 u, each of the n - 1 complex products
      sqrt(5) u and the amplitude and weight 2 u.  Each pair is thus off by
      at most sqrt(s_kappa) u (6 sum_a |kappa_a| L_a + 14 n), and by
      Cauchy-Schwarz eps_Psi^2 = u^2 (72 n sum_a L_a^2 M_aa + 392 n^2 |Psi|^2),
      where M_aa = sum_kappa s_kappa kappa_a^2 and |Psi|^2 = sum_kappa s_kappa.
    - V bounds sup |C~ - Psi~|, the v that the stored C holds.  With z = y S,
      |psi z|^2 = y^T G(x) y, G(x) = sum_kappa |psi_kappa|^2 T_kappa.  The
      set-up admits a computed G within 1e-12 max|M| of M entrywise; its
      rounding (|psi|^2, times T, a sum over V = q/2 pairs whose absolute
      terms sum to at most max diag G) is gamma_(V+3) max|M|, and `sup_norm`
      rounds y^T M y by gamma_2m m max|M| |y|^2, so with delta = m (1e-12 +
      gamma_(V+3) + gamma_2m) max|M| and Y = sup |y|, |psi z|^2 <=
      sup_norm(y)^2 + delta Y^2.  Each symbol is real or imaginary and z is
      the real product of y with the (re, im) columns of S, so z_kappa is off
      by at most gamma_m |y| |S_kappa|, and psi z by gamma_m |y| sqrt(tr G) <=
      gamma_m sqrt(tr M + delta) Y.  Adding 1 (u |1 + z~|) and the complex
      product (sqrt(5) u |psi| |1 + z~|) add at most 4 u |psi (1 + z~)| <=
      4 u (|Psi| + |psi z~|).  So
      V = (1 + 4 u) (sqrt(sup_norm(y)^2 + delta Y^2)
                     + gamma_m sqrt(tr M + delta) Y) + 4 u |Psi|.
    - A distance computed by direct differences is within gamma_(q+3) of the
      exact one, relatively; this counts once for gap(d) and once for the pair.
    Then |C~(x) - C~(x + d)| >= |Psi~(x) - Psi~(x + d)| - 2 V
    >= |Psi(x0) - Psi(x0 + d)| - 2 eps_Psi - 2 V >= gap(d) (1 - gamma_(q+3))
    - 4 eps_Psi - 2 V, so no computed distance at d falls below
    (1 - 2 gamma_(q+3)) gap(d) - 2 V - 4 eps_Psi, which is the bound minus the
    margin.
    """
    n, N, V = solver.model.dim, solver.grid.N, solver.psi.shape[1]
    Y = solver._coarse_channels(y)                                         # [R1, N]
    dy = Y.reshape(len(solver.M), 1 + n, N)[:, 1:].T                           # [N, n, m]
    C = np.empty((N, V), dtype=complex)
    G = np.empty((N, n, n))
    rows = max(1, 2**15 // solver.emb.q)
    grad = np.empty((rows, n, V), dtype=complex)
    for r0 in range(0, N, rows):
        block = slice(r0, min(r0 + rows, N))
        grad_b = _immersion_block(solver, y, dy, block, C, grad).view(float)   # [b, n, q]
        np.matmul(grad_b, grad_b.transpose(0, 2, 1), out=G[block])
    C = C.view(float)                                          # [N, q]
    residual = solver._residual(Y, f)
    pullback = conformal_defect(G - solver.gram[:, :n, :n] - f, np.eye(n))[0]
    defect = conformal_defect(G - f, np.eye(n))[0]
    injectivity = _injectivity(solver, C, y)
    return ConformalResult(FieldRq(C), float(np.max(np.abs(residual))), residual,
                           float(np.max(np.abs(pullback))), float(np.max(np.abs(defect))),
                           defect, injectivity, injectivity > 0.0)


def _immersion_block(solver: ConformalSolver, y: np.ndarray, dy: np.ndarray, block: slice,
                     C: np.ndarray, grad: np.ndarray) -> np.ndarray:
    """C = psi (1 + y S) and grad_i C = i kappa_i C + psi (d_i y S) on the
    cos/sin pairs at the b grid points of `block`, from the coefficients
    y [N, m] and their gradient dy [N, n, m].  Writes C[block] of C [N, V]
    (complex) and returns grad[:b] [b, n, V], written into the buffer
    grad [>= b, n, V]."""
    psi, S = solver.psi[block], solver._S.view(float)    # (re, im) columns: real products
    C_b, grad_b = C[block], grad[:len(psi)]
    np.matmul(y[block], S, out=C_b.view(float))
    C_b += 1.0
    C_b *= psi
    ik_C = np.empty_like(C_b)
    for i in range(solver.model.dim):
        np.matmul(dy[block, i], S, out=grad_b[:, i].view(float))   # d_i y S
        grad_b[:, i] *= psi
        np.multiply(C_b, 1j * solver._kappa[:, i], out=ik_C)
        grad_b[:, i] += ik_C
    return grad_b


def _gamma(k: int) -> float:
    """gamma_k = k u / (1 - k u), u = 2^-53: the relative rounding bound of k
    floating-point operations in sequence."""
    u = np.finfo(float).eps / 2
    return k * u / (1 - k * u)


def _injectivity(solver: ConformalSolver, C: np.ndarray, y: np.ndarray) -> float:
    """min over grid points x != x' of |C(x) - C(x')|, by the offset scan that
    `assemble_C` derives.

    Offsets come in increasing order of gap(d), hence of their lower bound
    (1 - 2 gamma_(q+3)) gap(d) - 2 V - 4 eps_Psi.  Offset d pairs each x with
    x + d through the rolled index grid.  The scan stops at the first offset
    whose bound exceeds the best distance found, so the minimum is exact
    however weakly the bound prunes.
    """
    offsets, gaps, eps_psi, psi_norm = solver._offsets
    grid, M = solver.grid, solver.M
    q, m, u = C.shape[1], len(M), np.finfo(float).eps / 2
    delta = m * (_GRAM_RTOL + _gamma(q // 2 + 3) + _gamma(2 * m)) * float(np.max(np.abs(M)))
    Y2 = float(np.max(np.einsum("nm,nm->n", y, y)))
    V = ((1 + 4 * u) * (math.sqrt(solver.sup_norm(y) ** 2 + delta * Y2)
                        + _gamma(m) * math.sqrt((np.trace(M) + delta) * Y2)) + 4 * u * psi_norm)
    lower = (1 - 2 * _gamma(q + 3)) * gaps - 2 * V - 4 * eps_psi
    index = np.arange(grid.N).reshape(grid.shape)
    axes = tuple(range(solver.model.dim))

    def scan(d):
        shift = [-int(c) for c in np.unravel_index(d, grid.shape)]
        return float(np.min(_distances(C, np.roll(index, shift, axis=axes).ravel())))

    best = scan(offsets[0])
    for d, bound in zip(offsets[1:], lower[1:]):
        if bound > best:
            break
        best = min(best, scan(d))
    return best


def _distances(A: np.ndarray, partner: np.ndarray, rows: np.ndarray | None = None):
    """|A[partner[k]] - A[rows[k]]| for every k (rows 0, 1, ... by default), by
    direct differences in chunks of 256 N / q pairs, so that each temporary is
    no larger than a 256-row block of the N x N distance table."""
    step = max(1, 256 * len(A) // A.shape[1])
    out = np.empty(len(partner))
    for k in range(0, len(partner), step):
        D = A[partner[k:k + step]]
        D -= A[k:k + step] if rows is None else A[rows[k:k + step]]
        out[k:k + step] = np.einsum("ij,ij->i", D, D)
        del D                                   # before the next chunk is copied
    return np.sqrt(out, out=out)
