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
`LatticeSpectrum.pairs`, gives kappa, s_kappa = (w a)^2 and one phase table
exp(i kappa_a x_a) [r, q/2] per grid axis, and refuses any other block.  psi
on the grid is never held whole: `ConformalSolver._psi` rebuilds it for any
block of grid points from the tables.  Row r of P is psi times the constant
symbol S[r, kappa] = (i kappa)^alpha_r, so P^T y = psi (y S).  By the product
rule, D^delta (P^T y) is psi times the symbols A_delta[(r, gamma), kappa] =
binom(delta, gamma) (i kappa)^(alpha_r + delta - gamma) applied to the
channels D^gamma y_r (`_symbols`; A_0 at gamma = 0 is S).  Every constant of
the iteration is then one pair sum Re((X s) Z^H) of two such symbol tables
(`_pair_forms`):

* M = P P^T = Re((S s) S^H), one constant matrix on a flat torus with
  closed shells.  The set-up takes it as T s, T[(r, r'), kappa] =
  Re(S_r conj(S_r')), and checks it against the jet Gram |psi(x)|^2 T at
  every grid point, one block of points at a time, holding none of it: M's
  leading n x n block is then the pullback of Psi on the whole grid;
* the Q form: K = sum_j F_j F_j^T (F_j = [grad v_j, Hess v_j]) as a
  quadratic form in the channels (y, grad y, Hess y);
* the residual's cross term sum_j grad u_j (x) grad v_j, linear in (y,
  grad y), and its quadratic term, a form in (y, grad y).

The solver iterates on y [N, m]:

    y_{l+1} = M^{-1} (0, -f/2 + k g) + M^{-1} (X, B)(P^T y_l).

Pointwise |P^T z|^2 = z^T M z, which gives the step norm, the iterate bound,
the smallness surrogate and the family bounds.  No array of q components is
read or written per iterate.

Fields are laid out grid axes last, [*lead, N], with real-FFT half-spectra
[*lead, *spec] without Nyquist bins.  Q(v, v) is one 3/2-rule pass from the
band to the refined grid and back: `SpectralGrid.refine` scatters the band
spectra of the channels of y (`_channels`), component-major, into a refined
half-spectrum pruned to the band's last-axis columns and transforms it axis
by axis (ifft over the leading axes, then an irfft that zero-pads the dropped
columns); Q evaluates the quadratic form of b and L there;
`SpectralGrid.project` takes the products back to the band, where the
resolvent is the band symbol 1 / (-lam - e); and one inverse transform gives
(X, B) on the grid, five FFTs in all on a 2- or 3-torus.  This equals the
dealiased products of v itself to rounding while v = P^T y lies in the open
band.  Every large intermediate of the pass (the channel spectra, the pruned
refined spectrum and the samples, the form chunk and the products, the
spectra on their way back) and of the residual goes into two work buffers
that the solver allocates once: the transforms write through numpy's `out=`
(in place for the complex ones), the matrix products too, and buffers whose
lifetimes do not overlap share memory (`_work_layout`).

`assemble_C` is the one per-k pass after a solve: one block of grid points at
a time, it forms the gradient of the immersion C = Psi + v = psi (1 + y S) by
the product rule, grad_i C = psi ((1, y, d_i y) . [i kappa_i; i kappa_i S;
S]), one real matrix product per direction, keeping only the pullback
G = grad C grad C^T of each block, and from G the pair-form residual, the
independent pullback check and the trace-free defect.  No array of q
components is transformed or held whole: C itself is a `FieldRq` of (solver,
y) that samples C [N, q] only when its `values` are read.  The injectivity is
exact and cheap: the pair weights make |Psi(x) - Psi(x + d)| = gap(d) depend
on the grid offset d alone, every pair at offset d lies at least
gap(d) - 2 sup|v| apart, and a scan of the offsets by that bound stops after
a few (2 of 1153 on the 2-torus at N = 48^2).  Each offset's distances are
one more pair sum: psi_kappa(x + d) = psi_kappa(x) exp(i kappa . d), so with
Y~ = (1, y) and S~ = [1; S], |C(x) - C(x + d)|^2 = Y~(x)^T M~ Y~(x) +
Y~(x + d)^T M~ Y~(x + d) - 2 Y~(x)^T T(d) Y~(x + d), M~ = T(0) and
T(d) = Re((S~ s exp(-i kappa . d)) S~^H) (see `assemble_C`).

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
from typing import NamedTuple

import numpy as np

from . import geometry, jets
from .errors import ConfigError, ConvergenceError, PreconditionError
from .geometry import ManifoldModel, conformal_defect

DEFAULT_THETA_THRESHOLD = 0.25
# the entrywise gap, relative to max |M|, that the set-up allows between the jet
# Gram and the pair Gram M
_GRAM_RTOL = 1e-12
# sample columns per matrix product of `_quadratic_form`
_FORM_CHUNK = 1024
# values per block of grid points (2^15 / q rows of q values, 256 KB): the
# set-up's pass, the blocks of grad C and those of C
_BLOCK = 2**15


def _block_rows(q: int) -> int:
    """Rows of q values per block of `_BLOCK` values."""
    return max(1, _BLOCK // q)


def _blocks(N: int, q: int):
    """Slices of consecutive grid points, `_block_rows(q)` at a time, covering N."""
    rows = _block_rows(q)
    return (slice(r0, min(r0 + rows, N)) for r0 in range(0, N, rows))


class SpectralGrid:
    """Uniform FFT grid on a flat torus with 3/2-rule dealiasing.

    Fields are arrays [*lead, N] whose last axis is the flattened grid;
    spectra are `rfftn` half-spectra [*lead, *spec] over the trailing grid
    axes (`kvecs`, `lam`, `band` alike), and the leading axes broadcast
    through every operation.  3/2-rule dealiasing moves the open band between
    the coarse and the refined half-spectrum through precomputed slice pairs
    (`_blocks`), for odd and even resolutions and any dimension alike.
    """

    def __init__(self, model: ManifoldModel, resolution: int):
        if model.kind != geometry.FLAT_TORUS:
            raise PreconditionError("the spectral grid and the solver run on flat tori only")
        self.model = model
        self.resolution = N = int(resolution)
        n = model.dim
        self.shape = (N,) * n
        self.N = N**n
        self.points = geometry.sample_grid(model, N).points
        self.axes = geometry.torus_axes(model, N)
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
        self.h = h                                                       # band half-width
        self.pruned = (self.fine,) * (n - 1) + (h + 1,)                  # `refine`'s spectrum
        self.band = np.zeros(self.lam.shape, dtype=bool)                 # band projector
        for coarse, _ in self._blocks:
            self.band[coarse] = True

    # -- transforms ---------------------------------------------------------
    #
    # `out` and `work`, where given, are arrays of the shapes that a transform
    # writes (the solver carves them from its work buffers, `_work_layout`);
    # where not, the transform makes new ones, as numpy's own `out=` does, so
    # a caller without buffers uses the grid as a plain transform.  The grid
    # keeps no state between calls.

    def to_spec(self, values: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """The band half-spectrum [*lead, *spec] of fields [*lead, N], with
        the Nyquist bins zeroed."""
        n = self.model.dim
        lead = values.shape[:-1]
        spec = np.fft.rfftn(values.reshape(lead + self.shape), axes=range(-n, 0), out=out)
        spec *= self.band
        return spec

    def from_spec(self, spec: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Fields [*lead, N] of a half-spectrum [*lead, *spec]; `out` is
        [*lead, *shape]."""
        n = self.model.dim
        lead = spec.shape[:-n]
        arr = np.fft.irfftn(spec, s=self.shape, axes=range(-n, 0), out=out)
        return arr.reshape(lead + (self.N,))

    # -- dealiased products ---------------------------------------------------

    def refine(self, spec: np.ndarray, out: np.ndarray | None = None,
               work: np.ndarray | None = None) -> np.ndarray:
        """Samples [*lead, fine**n] on the refined grid of a band half-spectrum
        [*lead, *spec]; `out` is [*lead, fine, ..., fine].

        The band, rescaled by (fine / N)^n, is scattered into a zeroed refined
        half-spectrum pruned to the band's last-axis columns, [*lead,
        *pruned] (`work`); an ifft over the leading grid axes, in place, and
        an irfft(n=fine) over the last, which zero-pads the dropped columns,
        give the samples.
        """
        n = self.model.dim
        lead = spec.shape[:-n]
        buf = np.empty(lead + self.pruned, complex) if work is None else work
        buf.fill(0.0)
        scale = (self.fine / self.resolution) ** n
        for coarse, fine in self._blocks:
            np.multiply(spec[(Ellipsis,) + coarse], scale, out=buf[(Ellipsis,) + fine])
        if n > 1:
            np.fft.ifftn(buf, axes=range(-n, -1), out=buf)
        arr = np.fft.irfft(buf, n=self.fine, axis=-1, out=out)
        return arr.reshape(lead + (self.fine**n,))

    def project(self, fine_values: np.ndarray, out: np.ndarray | None = None,
                work: np.ndarray | None = None) -> np.ndarray:
        """The band half-spectrum [*lead, *spec] of samples [*lead, fine**n] on
        the refined grid: their rfftn [*lead, fine, ..., fine // 2 + 1]
        (`work`), cut to the open band and rescaled by (N / fine)^n.  The
        transform has read the samples before `out` is written, so the two
        may share memory."""
        n = self.model.dim
        lead = fine_values.shape[:-1]
        fine_spec = np.fft.rfftn(fine_values.reshape(lead + (self.fine,) * n),
                                 axes=range(-n, 0), out=work)
        spec = np.empty(lead + self.lam.shape, complex) if out is None else out
        spec.fill(0.0)
        for coarse, fine in self._blocks:
            spec[(Ellipsis,) + coarse] = fine_spec[(Ellipsis,) + fine]
        spec *= (self.resolution / self.fine) ** n
        return spec


@dataclass(frozen=True)
class FieldRq:
    """The immersion C = Psi + P^T y of `assemble_C`, an R^q-valued field on
    the solver's grid held as its solver and coefficients y [N, m].  `values`
    samples C [N, q] each time it is read, one block of grid points at a time
    through `_immersion_block`."""

    solver: ConformalSolver
    y: np.ndarray

    @property
    def values(self) -> np.ndarray:
        solver = self.solver
        C = np.empty((solver.grid.N, len(solver._kappa)), dtype=complex)
        for block in _blocks(solver.grid.N, solver.emb.q):
            _immersion_block(solver, self.y, block, C[block])
        return C.view(float)


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


def _stacked(W: np.ndarray) -> np.ndarray:
    """The forms W [o, R, R] as the rows [o R, R] of `_quadratic_form`: the
    transposes W[0]^T, ..., W[o-1]^T stacked."""
    return W.transpose(0, 2, 1).reshape(-1, W.shape[2])


def _quadratic_form(Wt: np.ndarray, Y: np.ndarray, out: np.ndarray,
                    work: np.ndarray) -> np.ndarray:
    """Forms W [o, R, R], given as `_stacked` rows Wt [o R, R], at the sample
    columns of Y [R, P], into out [o, P]: out[o, p] = Y[:, p]^T W[o] Y[:, p],
    one matrix product per `_FORM_CHUNK` samples into the leading words of
    the flat buffer `work`."""
    R, P = Y.shape
    o = len(Wt) // R
    for p0 in range(0, P, _FORM_CHUNK):
        Yc = Y[:, p0:p0 + _FORM_CHUNK]
        WY = np.matmul(Wt, Yc, out=work[:len(Wt) * Yc.shape[1]].reshape(len(Wt), -1))
        WY = WY.reshape(o, R, -1)
        WY *= Yc
        np.sum(WY, axis=1, out=out[:, p0:p0 + _FORM_CHUNK])
    return out


def solver_bytes(grid: SpectralGrid) -> int:
    """The bytes that `ConformalSolver`'s preflight asks for on `grid`, 8 (3 R
    Nf + m R chunk + N) with R = m c the channels (y, grad y, Hess y), Nf =
    fine^n and chunk = min(`_FORM_CHUNK`, Nf): Q's refined channel samples
    [R, Nf] with two complex spectra of them, one `_quadratic_form` chunk
    [m R, chunk] and the gap table [N].  The count bounds the work buffers
    that a solver holds (`_work_words`, at most 2 R Nf + m R chunk words)
    with the gap table and what a solve adds to them."""
    n = grid.model.dim
    m, c = len(_row_exponents(n)), len(_channel_exponents(n))
    Nf = grid.fine ** n
    return 8 * (3 * m * c * Nf + m * m * c * min(_FORM_CHUNK, Nf) + grid.N)


def _work_layout(grid: SpectralGrid) -> dict[str, tuple[str, tuple]]:
    """Where each step of `quadratic` and `conformal_residual` writes on
    `grid`: {step: (buffer, parts)}, the solver's work buffer "samples" or
    "scratch" and the (shape, dtype) of each part, laid end to end from the
    buffer's start (`_carve`).  Each step after the first reads only what
    the step before it left in the other buffer, so the steps that share a
    buffer never need it at once.  `_work_words` sizes the buffers from this table and
    `ConformalSolver._parts` carves them."""
    n, N, fine, spec = grid.model.dim, grid.N, grid.fine, grid.lam.shape
    m, c = len(_row_exponents(n)), len(_channel_exponents(n))
    R, R1, Nf = m * c, m * (1 + n), fine ** n
    refined_spec = (fine,) * (n - 1) + (fine // 2 + 1,)
    return {
        # either call: the band spectrum of y
        "y spectrum": ("scratch", (((m,) + spec, complex),)),
        # quadratic, in order
        "channels": ("samples", (((m, c) + spec, complex),)),
        "pruned": ("scratch", (((m, c) + grid.pruned, complex),)),       # `refine`'s spectrum
        "refined": ("samples", (((m, c) + (fine,) * n, float),)),       # Q's refined samples
        "form": ("scratch", (((m * R * min(_FORM_CHUNK, Nf),), float),   # the form chunk
                             ((m, Nf), float))),                         # the products
        "refined spectrum": ("samples", (((m,) + refined_spec, complex),)),
        "band": ("scratch", (((m,) + spec, complex),)),
        "grid": ("samples", (((m,) + grid.shape, float),)),             # (X, B)
        # conformal_residual, in order
        "coarse spectra": ("samples", (((m, 1 + n) + spec, complex),)),
        "coarse": ("scratch", (((m, 1 + n) + grid.shape, float),)),     # (y, grad y)
        "terms": ("samples", (((n * n, N), float), ((n * n, N), float),  # cross, quad
                              ((N, n, n), float),                        # their sum
                              ((n * n * R1 * min(_FORM_CHUNK, N),), float))),
    }


def _words(shape: tuple, dtype) -> int:
    """The float64 words of an array of `shape` and `dtype`."""
    return math.prod(shape) * np.dtype(dtype).itemsize // 8


def _carve(words: np.ndarray, parts) -> list[np.ndarray]:
    """Consecutive stretches of the flat float64 buffer `words`, from its
    start, as arrays of the (shape, dtype) of each of `parts`."""
    arrays, at = [], 0
    for shape, dtype in parts:
        size = _words(shape, dtype)
        arrays.append(words[at:at + size].view(dtype).reshape(shape))
        at += size
    return arrays


def _work_words(grid: SpectralGrid) -> dict[str, int]:
    """The float64 words of each of a solver's two work buffers on `grid`:
    the largest step that `_work_layout` puts into it."""
    words = {"samples": 0, "scratch": 0}
    for buffer, parts in _work_layout(grid).values():
        words[buffer] = max(words[buffer], sum(_words(*part) for part in parts))
    return words


def grid_resolution(n: int, resolution: int | None) -> int:
    """The solver grid's points per axis: `resolution`, or by default 48 on a
    2-torus and 32 above."""
    return (48 if n == 2 else 32) if resolution is None else resolution


def manufactured_defect(grid: SpectralGrid, epsilon: float, f_mode) -> np.ndarray:
    """Traceless test defect f = epsilon cos(x . f_mode) diag(1, -1, 0, ...) on grid.points.

    f_mode is padded with zeros to n entries.  Raises ConfigError when n < 2,
    f_mode has more than n entries, or an entry is not 2 pi m_a / L_a with an
    integer |m_a| <= grid.h (off the lattice, or aliased by the grid).
    """
    n = grid.model.dim
    if n < 2:
        raise ConfigError("the manufactured defect diag(1, -1) needs a model of "
                          "dimension at least 2")
    if len(f_mode) > n:
        raise ConfigError(f"f_mode has {len(f_mode)} entries, more than the model "
                          f"dimension {n}")
    for f_a, L_a in zip(f_mode, grid.model.periods):
        m = f_a * L_a / (2.0 * math.pi)
        if abs(m - round(m)) > 1e-9 or abs(round(m)) > grid.h:
            raise ConfigError(f"f_mode {list(f_mode)!r} must have entries 2 pi m_a / L_a "
                              f"with integers |m_a| <= {grid.h} at resolution {grid.resolution}")
    mode = np.zeros(n)
    mode[:len(f_mode)] = f_mode
    pattern = np.zeros((n, n))
    pattern[0, 0], pattern[1, 1] = 1.0, -1.0
    return epsilon * np.cos(grid.points @ mode)[:, None, None] * pattern


class _ScanTables(NamedTuple):
    """The tables of the injectivity scan, `ConformalSolver._scan`."""

    offsets: np.ndarray       # one of each +-d, in increasing order of gap(d)
    gaps: np.ndarray          # gap(d) of each offset
    S: np.ndarray             # [m + 1, V] the symbols S~ = [1; S]
    M: np.ndarray             # [m + 1, m + 1] M~ = Re((S~ s) S~^H)
    M_abs: np.ndarray         # [m + 1, m + 1] |M~| = (|S~| s) |S~|^T
    c_psi: float              # rounding bound of psi / sqrt(s) and of the phases
    psi_norm: float           # |Psi| = sqrt(sum s)


class ConformalSolver:
    """The one handle of a flat-torus solve: the embedding (and its t), the
    spectral shift e, the spectral grid, and from one `LatticeSpectrum.pairs`
    call the embedding's cos/sin pairs as the wave vector of each pair and
    one phase table per grid axis, from which `_psi` rebuilds psi (complex;
    `.view(float)` is Psi) on any block of grid points.  From them: the
    symbols S [m, q/2] of the rows of P, the gap table |Psi(x0) - Psi(x)| [N]
    of the injectivity scan, the constant Gram M with the pair forms of the y
    iteration, and the band symbol of the resolvent.  It holds no array of q
    components per grid point.  It does hold two flat work buffers,
    "samples" and "scratch", allocated once at the end of the set-up
    (`_work_words`), and the table of where each step puts its parts in them
    (`_work_layout`).  `quadratic` and `conformal_residual` write every
    large intermediate into them, so a warm call allocates little beyond
    its result, and the preflight (`solver_bytes`) counts them.  A solver
    thus runs one solve at a time: the two calls share the buffers, so
    neither is re-entrant, and one solver serves one thread.  The set-up
    checks the jet Gram against M one block of grid points at a time and
    keeps none of it.  The gradient rows of P are grad u (the frame of a
    flat torus is the identity), so M's leading n x n block is the pullback
    of Psi at every grid point."""

    def __init__(self, emb, resolution: int | None = None, e: float = 1.0):
        self.emb = emb
        self.model = emb.model
        self.grid = SpectralGrid(self.model, grid_resolution(self.model.dim, resolution))
        if e <= 0:
            raise ConfigError("spectral shift e must be strictly positive")
        self.e = e
        n = self.model.dim
        if not hasattr(emb.provider, "pairs"):
            raise PreconditionError("the fixed-point solver needs the cos/sin pairs "
                                    "of an analytic torus spectrum")
        # Q's refined channels set the peak; psi, the jet Gram, C and grad C
        # are only ever held one block of grid points at a time
        m, N, q = len(_row_exponents(n)), self.grid.N, emb.q
        geometry.check_memory(solver_bytes(self.grid),
                              f"the solver (the refined channels of {self.grid.fine}^{n} "
                              f"points, a form chunk and the gap table at N = {N})")
        self._pairs = emb.provider.pairs(1, emb.weights, self.grid.axes)
        self._kappa = self._pairs.kappa
        self._S = _symbols(self._kappa, np.zeros(n, dtype=int))[::len(_channel_exponents(n))]
        # M = T s and the jet Gram |psi|^2 T, T[(r, r'), kappa] = Re(S_r conj(S_r'))
        T = (self._S[:, None] * self._S.conj()).real.reshape(m * m, -1)   # [m m, V]
        self.M = (T @ self._pairs.s).reshape(m, m)
        # one pass over blocks of grid points takes the jet Gram's largest
        # distance from M and fills the gaps
        gap = 0.0
        self._gaps = np.empty(N)
        psi0 = self._psi(slice(0, 1)).view(float)
        for block in _blocks(N, q):
            psi = self._psi(block).view(float)                          # [b, q]
            pairs = psi.reshape(len(psi), -1, 2)
            gram = np.einsum("nvc,nvc->nv", pairs, pairs) @ T.T            # [b, m m]
            gap = max(gap, float(np.max(np.abs(gram - self.M.ravel()))))
            D = np.subtract(psi0, psi, out=psi)
            self._gaps[block] = np.einsum("ij,ij->i", D, D)
        np.sqrt(self._gaps, out=self._gaps)
        if gap > _GRAM_RTOL * float(np.max(np.abs(self.M))):
            raise PreconditionError(
                f"the jet Gram is not constant on the grid: it differs from the pair "
                f"Gram by {gap:.3g}")
        q_form, self._cross_form, quad_form = _pair_forms(self._S, self._kappa,
                                                          self._pairs.s, e)
        self._q_form, self._quad_form = _stacked(q_form), _stacked(quad_form)
        # channel symbols (i k)^gamma, [c, *spec], and the band symbol
        # 1 / (-lam - e) of the resolvent (Delta - e)^{-1}, [*spec]
        ik = 1j * np.moveaxis(self.grid.kvecs, -1, 0)
        gammas = _channel_exponents(n).reshape((-1, n) + (1,) * n)
        self._sym = np.prod(ik ** gammas, axis=1)
        self._resolvent = self.grid.band / (-self.grid.lam - e)
        self._layout = _work_layout(self.grid)
        self._work = {buffer: np.empty(w) for buffer, w in _work_words(self.grid).items()}

    def _phases(self, rows: slice, out: np.ndarray | None = None) -> np.ndarray:
        """exp(i kappa . x) [b, V] at the grid points `rows` (a slice of flat
        indices), into `out` [b, V] where given: each point's rows of the
        phase tables of `pairs`, multiplied in axis order, one run of points
        along the last grid axis at a time, with no gather."""
        p, shape = self._pairs, self.grid.shape
        out = np.empty((rows.stop - rows.start, len(p.s)), dtype=complex) if out is None else out
        x = rows.start
        while x < rows.stop:
            line, i = divmod(x, shape[-1])
            end = min(rows.stop, x - i + shape[-1])
            run, last = out[x - rows.start:end - rows.start], p.phases[-1][i:i + end - x]
            if len(shape) > 1:
                head = functools.reduce(np.multiply, (
                    table[j] for table, j in zip(p.phases, np.unravel_index(line, shape[:-1]))))
                np.multiply(head, last, out=run)
            else:
                run[...] = last
            x = end
        return out

    def _psi(self, rows: slice, out: np.ndarray | None = None) -> np.ndarray:
        """psi [b, V] (complex) at the grid points `rows`, into `out` [b, V]
        where given: `_phases`, then times the amplitudes, then times the
        weights.  That is the provider's own multiply order, so every row
        equals the weighted jet values bit for bit."""
        psi = self._phases(rows, out)
        psi *= self._pairs.amp
        psi *= self._pairs.w
        return psi

    @functools.cached_property
    def _scan(self) -> _ScanTables:
        """The tables of the injectivity scan (see `assemble_C`), built on
        first use: one of each pair of grid offsets +-d != 0 (flat grid
        indices) in increasing order of gap(d) = |Psi(x0) - Psi(x0 + d)|, x0
        the grid origin, with their gaps from the set-up's gap table; the
        symbols S~ = [1; S] of C = psi (Y~ S~), Y~ = (1, y); the pair form
        M~ = Re((S~ s) S~^H) and its bound |M~| = (|S~| s) |S~|^T; c_psi, the
        rounding bound of psi relative to sqrt(s) and of the phase products;
        and |Psi|, the same at every point."""
        grid, n = self.grid, self.model.dim
        flat = np.arange(grid.N)
        neg = np.ravel_multi_index(tuple(-c % grid.resolution for c in
                                         np.unravel_index(flat, grid.shape)), grid.shape)
        offsets = np.flatnonzero(flat <= neg)[1:]
        gaps = self._gaps[offsets]
        order = np.argsort(gaps, kind="stable")
        s = self._pairs.s
        S = np.vstack([np.ones(len(s)), self._S])                         # [m + 1, V]
        reach = float(np.max(np.abs(self._kappa) @ np.asarray(self.model.periods)))
        return _ScanTables(offsets[order], gaps[order], S, ((S * s) @ S.conj().T).real,
                           (np.abs(S) * s) @ np.abs(S).T,
                           (np.finfo(float).eps / 2) * (6 * reach + 16 * n),
                           math.sqrt(float(np.sum(s))))

    # -- building blocks ------------------------------------------------------

    def _solve(self, rhs: np.ndarray) -> np.ndarray:
        """E in coefficients: y = M^{-1} rhs at every grid point, [N, m]."""
        return np.linalg.solve(self.M, rhs.T).T

    def _parts(self, *steps: str) -> list[np.ndarray]:
        """The parts of `steps`, in order, in the work buffers (`_work_layout`)."""
        arrays = []
        for step in steps:
            buffer, parts = self._layout[step]
            arrays += _carve(self._work[buffer], parts)
        return arrays

    def _channels(self, y: np.ndarray, step: str = "channels") -> np.ndarray:
        """Band spectra of the channels (y, grad y, Hess y), [m, c, *spec], or
        of as many as the part of `step` holds ("coarse spectra": y, grad y);
        the spectrum of y passes through "y spectrum"."""
        spec, out = self._parts("y spectrum", step)
        self.grid.to_spec(y.T, out=spec)                                    # [m, *spec]
        return np.multiply(spec[:, None], self._sym[:out.shape[1]], out=out)

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
        products on the 3/2 grid, projected to the band, times the resolvent
        symbol, back on the grid through the constant Gram solve.

        Each step writes its part of the work buffers (`_work_layout`): the
        channel spectra, `refine`'s spectrum, the refined samples Y, the
        form chunk and the products, `project`'s refined spectrum, the band
        spectra and (X, B) on the grid.  Only the result is a new array."""
        if not y.any():
            return np.zeros_like(y)
        grid = self.grid
        pruned, refined, chunk, prods, refined_spec, band, X = self._parts(
            "pruned", "refined", "form", "refined spectrum", "band", "grid")
        Y = grid.refine(self._channels(y), out=refined, work=pruned).reshape(
            -1, grid.fine ** self.model.dim)                                # [R, Nf]
        _quadratic_form(self._q_form, Y, prods, chunk)                      # (-b, L)
        spec = grid.project(prods, out=band, work=refined_spec)
        spec *= self._resolvent
        return self._solve(grid.from_spec(spec, out=X).T)

    def _coarse_channels(self, y: np.ndarray) -> np.ndarray:
        """Samples of the channels (y, grad y) on the grid, [m (1 + n), N]
        channel-minor, in the part "coarse" of the work buffers, which the
        next `quadratic`, `conformal_residual` or `_coarse_channels` call
        overwrites."""
        (out,) = self._parts("coarse")
        channels = self._channels(y, "coarse spectra")
        return self.grid.from_spec(channels, out=out).reshape(-1, self.grid.N)

    def conformal_residual(self, y: np.ndarray, f: np.ndarray) -> np.ndarray:
        """Trace-free part of grad u . grad v + grad v . grad u + grad v . grad v - f
        for v = P^T y, from the pair forms in the channels (y, grad y)."""
        return self._residual(self._coarse_channels(y), f)

    def _residual(self, Y: np.ndarray, f: np.ndarray) -> np.ndarray:
        """`conformal_residual` from the channel samples Y [R1, N] of
        `_coarse_channels`: the cross term, the quadratic term, their sum
        [N, n, n] and the form chunk in the part "terms" of the work buffers;
        only the trace-free result is a new array."""
        n, N = self.model.dim, self.grid.N
        cross, quad, total, chunk = self._parts("terms")
        cross = np.matmul(self._cross_form, Y, out=cross).reshape(n, n, N)
        _quadratic_form(self._quad_form, Y, quad, chunk)
        np.add(cross.transpose(2, 0, 1), cross.transpose(2, 1, 0), out=total)
        total += quad.reshape(n, n, N).transpose(2, 0, 1)
        total -= f
        return conformal_defect(total, np.eye(n))[0]

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

    grad_i C = psi ((1, y, d_i y) . [i kappa_i; i kappa_i S; S]) is formed on
    the cos/sin pairs (see the module docstring), with d_i y from the coarse
    channel samples that the pair-form residual reads, one block of 2^15 / q
    grid points at a time (`_gradient_blocks`): each block writes its own
    psi [b, q/2] (`ConformalSolver._psi`) and its gradient [b, n, q], one
    real product per direction, into reused buffers of at most 2^15 (n + 1)
    floats (256 (n + 1) KB, sized to the cache), and its rows of the
    pullback G = grad C grad C^T [N, n, n], so none of psi, C and grad C is
    ever held whole.  The check builds grad C at every grid point and takes
    its Gram, independently of the pair forms.  The result's C is the
    `FieldRq` (solver, y), whose `values` form C = psi (1 + y S) [N, q] one
    block at a time (`_immersion_block`) when read.  From G it reports (tf
    the trace-free part):
    the solver's pair-form residual of y with its field; the pullback residual
    tf(G - G_u - f), G_u = M[:n, :n] the pullback of Psi, which the set-up
    certified against the jet Gram at every grid point, the independent check
    that v does what the equation promises; the defect tf(G - f),
    compensated by the manufactured f so that it measures the solve rather
    than the injected defect; and the injectivity, the smallest distance
    between grid points of C.

    The injectivity is the exact minimum of the computed distances over all
    pairs of grid points, found by scanning a few grid offsets d.  The
    identity: the pair weights make psi_kappa(x + d) = psi_kappa(x)
    exp(i kappa . d) with |psi_kappa|^2 = s_kappa, so
        |Psi(x) - Psi(x + d)| = gap(d) = |Psi(x0) - Psi(x0 + d)|
    for every x, read from the set-up's gap table (`ConformalSolver._scan`,
    x0 the grid origin), and with C = psi (Y~ S~), Y~ = (1, y), S~ = [1; S],
        |C(x) - C(x + d)|^2 = Y~(x)^T M~ Y~(x) + Y~(x + d)^T M~ Y~(x + d)
                              - 2 Y~(x)^T T(d) Y~(x + d),
    M~ = Re((S~ s) S~^H), T(d) = Re((S~ s exp(-i kappa . d)) S~^H): O(V m^2)
    for T(d) and O(N m^2) for the N distances of one offset
    (`_pair_distances`), with no array of q components.  The bound: every
    pair at offset d lies at least gap(d) - 2 sup|v| apart.  The scan
    (`_injectivity`) takes one of +-d at a time, in increasing order of
    gap(d), and stops once the bound of the next offset, with its rounding
    margin,
        lower(d) = (1 - u) sqrt(max(L(d), 0)^2 - E^2)   (0 where negative),
        L(d) = (1 - gamma_(q+3)) gap(d) - 2 c_psi |Psi| - 2 nu,
    exceeds the best distance found.  The margin follows from the standard
    model of rounding, to first order in u = 2^-53 with gamma_k = k u /
    (1 - k u), and cos and sin within 4 ulp.  Let psi°_kappa =
    sqrt(s_kappa) exp(i kappa . x) exactly, at the exact lattice point
    i L / r, with the computed s; let Psi° = psi°, C° = psi° (Y~ S~) with the
    computed S and v° = C° - Psi°; and let D(x, d) = |C°(x) - C°(x + d)|.
    - c_psi bounds |psi~_kappa - psi°_kappa| / sqrt(s_kappa) for the
      computed psi~, and |e~_kappa(d) - exp(i kappa . d)| for the computed
      phase products e~ (`ConformalSolver._phases`).  The phase kappa_a x_a
      of a pair passes six roundings (pi, 2 pi / L_a, times k_a, L_a / r,
      times i, the product), so it is off by at most 6 u |kappa_a| L_a; the
      table entry exp(i kappa_a x_a) adds sqrt(2) 8 u, each of the n - 1
      complex products sqrt(5) u, the amplitude and weight 2 u, and
      sqrt(s_kappa) = |w a| (1 + 1.5 u).  So c_psi = u (6 max_kappa sum_a
      |kappa_a| L_a + 16 n), and |Psi~(x) - Psi°(x)| <= c_psi |Psi| with
      |Psi|^2 = sum_kappa s_kappa.
    - The gap table holds direct differences of Psi~, within gamma_(q+3) of
      |Psi~(x0) - Psi~(x0 + d)| relatively, so |Psi°(x) - Psi°(x + d)| >=
      (1 - gamma_(q+3)) gap(d) - 2 c_psi |Psi| at every x.
    - nu bounds sup |v°| = sup sqrt(y^T M° y), M° the exact pair Gram of the
      computed S and s.  M, a sum over V = q/2 pairs whose absolute terms sum
      to at most max|M|, is within gamma_(V+3) max|M| of M° entrywise, and
      `sup_norm` rounds y^T M y by gamma_2m m max|M| |y|^2, so with delta =
      m (gamma_(V+3) + gamma_2m) max|M| and Y = sup |y|, nu =
      sqrt(sup_norm(y)^2 + delta Y^2).  Hence D(x, d) >= L(d).
    - E^2 bounds the distance of the computed square distance from D^2.  Let
      w(x)^2 = |Y~(x)|^T |M~| |Y~(x)|, |M~| = (|S~| s) |S~|^T, and W^2 its
      max over the grid, computed within gamma_(V+2m+4).  Then |C°(x)| <=
      w(x), and by Cauchy-Schwarz sum_kappa s_kappa |a_kappa| |a'_kappa| <=
      w(x) w(x') for a = Y~(x) S~, a' = Y~(x') S~.  Each form, a sum over V
      pairs of (m + 1)^2 terms, is computed within gamma_(V+2m+10) w(x)
      w(x'); the sum A + A' - 2 X adds gamma_2 (w + w')^2; and the phase
      products move the cross form by at most 2 c_psi w w'.  So E^2 =
      (4 gamma_(V+2m+12) + 2 c_psi) W^2.
    The computed square distance is then at least D^2 - E^2 >= L(d)^2 - E^2
    where L(d) >= 0, and its rounded root is at least 1 - u times the root,
    so no computed distance at d falls below lower(d).
    """
    n, N = solver.model.dim, solver.grid.N
    # Y stays in the scratch buffer (part "coarse") while `_pullback`, which
    # uses no work buffer, and `_residual`, which writes only the samples
    # buffer, read it
    Y = solver._coarse_channels(y)                                         # [R1, N]
    G = _pullback(solver, y, Y.reshape(len(solver.M), 1 + n, N)[:, 1:].T)
    residual = solver._residual(Y, f)
    pullback = conformal_defect(G - solver.M[:n, :n] - f, np.eye(n))[0]
    defect = conformal_defect(G - f, np.eye(n))[0]
    injectivity = _injectivity(solver, y)
    return ConformalResult(FieldRq(solver, y), float(np.max(np.abs(residual))), residual,
                           float(np.max(np.abs(pullback))), float(np.max(np.abs(defect))),
                           defect, injectivity, injectivity > 0.0)


def _pullback(solver: ConformalSolver, y: np.ndarray, dy: np.ndarray) -> np.ndarray:
    """G = grad C grad C^T [N, n, n] of C = psi (1 + y S), from y [N, m] and
    its gradient dy [N, n, m]: the Gram of each block of `_gradient_blocks`."""
    n, N = solver.model.dim, solver.grid.N
    G = np.empty((N, n, n))
    for block, grad in _gradient_blocks(solver, y, dy):
        grad = grad.view(float)                                           # [b, n, q]
        np.matmul(grad, grad.transpose(0, 2, 1), out=G[block])
    return G


def _gradient_blocks(solver: ConformalSolver, y: np.ndarray, dy: np.ndarray):
    """grad C [b, n, V] (complex) of C = psi (1 + y S) on each block of grid
    points, yielded with the block as a view of a buffer that the next block
    overwrites.

    By the product rule grad_i C = i kappa_i C + psi (d_i y S) = psi ((1, y,
    d_i y) . [i kappa_i; i kappa_i S; S]): per direction one real product of
    the block's coefficient rows (1, y, d_i y) [b, 1 + 2m] with the symbols
    viewed as (re, im) columns [1 + 2m, q], then times psi, which `_psi`
    writes into a second reused buffer."""
    n, N, q = solver.model.dim, solver.grid.N, solver.emb.q
    m, V, S = len(solver.M), len(solver._kappa), solver._S
    ik = 1j * solver._kappa.T                                             # [n, V]
    symbols = [np.vstack([ik[i], ik[i] * S, S]).view(float) for i in range(n)]
    rows = _block_rows(q)
    psi, grad = np.empty((rows, V), dtype=complex), np.empty((rows, n, V), dtype=complex)
    coef = np.empty((rows, 1 + 2 * m))
    coef[:, 0] = 1.0
    for block in _blocks(N, q):
        b = block.stop - block.start
        psi_b, grad_b, coef_b = solver._psi(block, out=psi[:b]), grad[:b], coef[:b]
        coef_b[:, 1:1 + m] = y[block]
        for i in range(n):
            coef_b[:, 1 + m:] = dy[block, i]
            np.matmul(coef_b, symbols[i], out=grad_b[:, i].view(float))
            grad_b[:, i] *= psi_b
        yield block, grad_b


def _immersion_block(solver: ConformalSolver, y: np.ndarray, block: slice, C: np.ndarray):
    """C = psi (1 + y S) [b, V] (complex) on the cos/sin pairs at the b grid
    points of `block`, from the block's psi (`ConformalSolver._psi`) and the
    coefficients y [N, m], written into C [b, V]."""
    np.matmul(y[block], solver._S.view(float), out=C.view(float))   # (re, im) columns
    C += 1.0
    C *= solver._psi(block)


def _gamma(k: int) -> float:
    """gamma_k = k u / (1 - k u), u = 2^-53: the relative rounding bound of k
    floating-point operations in sequence."""
    u = np.finfo(float).eps / 2
    return k * u / (1 - k * u)


def _pair_distances(solver: ConformalSolver, y: np.ndarray):
    """The square distances of C between the grid points x and x + d, from the
    pair forms of `assemble_C`: returns (dist2, E^2, W), dist2(d) [N] for a
    flat grid offset d, with E^2 the bound on |dist2(d) - D(x, d)^2| and W
    the bound on |C°| of `assemble_C`'s margin."""
    scan, grid = solver._scan, solver.grid
    N, (m1, V) = grid.N, scan.S.shape
    Yt = np.empty((N, m1))                                                # Y~ = (1, y)
    Yt[:, 0], Yt[:, 1:] = 1.0, y
    A = np.einsum("nr,nr->n", Yt @ scan.M, Yt)                            # |C(x)|^2
    absY = np.abs(Yt)
    W2 = (1 + _gamma(V + 2 * m1 + 2)) * float(np.max(np.einsum("nr,nr->n",
                                                               absY @ scan.M_abs, absY)))
    index = np.arange(N).reshape(grid.shape)
    axes = tuple(range(solver.model.dim))

    def dist2(d):
        shift = [-int(c) for c in np.unravel_index(d, grid.shape)]
        partner = np.roll(index, shift, axis=axes).ravel()             # x -> x + d
        weight = solver._pairs.s * solver._phases(slice(d, d + 1))[0].conj()
        T = ((scan.S * weight) @ scan.S.conj().T).real
        return A + A[partner] - 2.0 * np.einsum("nr,nr->n", Yt @ T, Yt[partner])

    E2 = (4 * _gamma(V + 2 * m1 + 10) + 2 * scan.c_psi) * W2
    return dist2, E2, math.sqrt(W2)


def _injectivity(solver: ConformalSolver, y: np.ndarray) -> float:
    """min over grid points x != x' of |C(x) - C(x')|, by the offset scan that
    `assemble_C` derives.

    Offsets come in increasing order of gap(d), hence of their lower bound
    lower(d).  Offset d pairs each x with x + d through the rolled index
    grid, and its distances are pair forms (`_pair_distances`).  The scan
    stops at the first offset whose bound exceeds the best distance found, so
    the minimum is exact however weakly the bound prunes.
    """
    scan, M = solver._scan, solver.M
    q, m, V, u = solver.emb.q, len(M), len(solver._kappa), np.finfo(float).eps / 2
    dist2, E2, _ = _pair_distances(solver, y)
    delta = m * (_gamma(V + 3) + _gamma(2 * m)) * float(np.max(np.abs(M)))
    Y2 = float(np.max(np.einsum("nm,nm->n", y, y)))
    nu = math.sqrt(solver.sup_norm(y) ** 2 + delta * Y2)
    L = (1 - _gamma(q + 3)) * scan.gaps - 2 * scan.c_psi * scan.psi_norm - 2 * nu
    lower = (1 - u) * np.sqrt(np.maximum(np.maximum(L, 0.0) ** 2 - E2, 0.0))

    def scan_offset(d):
        return math.sqrt(max(float(np.min(dist2(d))), 0.0))

    best = scan_offset(scan.offsets[0])
    for d, bound in zip(scan.offsets[1:], lower[1:]):
        if bound > best:
            break
        best = min(best, scan_offset(d))
    return best
