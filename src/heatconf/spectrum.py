"""Ordered Laplace-Beltrami eigenpairs with derivative jets.

Every provider is analytic: `SpectrumProvider` is the one base of the
closed-form backends of the geometry testbeds (lattice modes on flat tori
and circles, real spherical harmonics, and their products).  A metric scaled
by a constant on each block has the spectrum of `ManifoldModel.rescaled`, so
one `analytic_spectrum` call serves corrected and uncorrected metrics alike.
`save_spectrum` dumps a provider's eigenpairs with their jets on a sample
grid to the JSON-lines eigenpair file; nothing in the package reads it back.

Each analytic backend enumerates its modes as an eigenvalue array and an
integer descriptor table, sorted once by (lambda, descriptor) with a two-key
`np.lexsort` whose second key ravels each descriptor row into one integer.
Torus and circle modes share one lattice implementation, built on one phase
builder: one exp(i kappa_a x_a) table per axis, multiplied into
exp(i kappa . x) once per lattice vector.  A block's jets gather its cos and sin parts onto the
vector's cos and sin modes; `pairs` reads each cos/sin pair with one weight
as one complex mode w a exp(i kappa . x), whose derivatives are
(i kappa)^alpha times itself, and gives it on a tensor grid as the per-axis
tables only.  The gradient Gram sum of such pairs needs no jets: it is the
constant sum over the pairs of (w a)^2 kappa kappa^T.

The S^2 x S^1 provider is built from a sphere and a circle provider of its
factors: its modes pair theirs, and its jets and gradient Gram sums multiply
the factor jets that their `jet_block` gives.

Sphere modes come from one fully normalized associated Legendre table per
block, built over the block's distinct theta: sectoral seeds Q_m^m, then the
three-term recurrence in the degree at fixed order (Holmes & Featherstone,
J. Geodesy 76 (2002) 279-299).
Its theta-derivatives come from the ladder identity
dQ_k^m/dtheta = (sqrt((k-m)(k+m+1)) Q_k^{m+1} - sqrt((k+m)(k-m+1)) Q_k^{m-1}) / 2,
applied twice, so no step divides by sin(theta) and the jets stay finite at
any degree.

Conventions fixed here (recorded in run reports):

* eigenvalues are indexed with multiplicity, lambda_0 = 0 first;
* within an eigenvalue tie, modes are ordered by descriptor tuple
  (lattice vector lexicographic / harmonic (k, m) order), cosine before sine;
* associated Legendre functions carry the Condon-Shortley sign (-1)^m,
  which is scipy's sign convention.
"""
from __future__ import annotations

import functools
import json
import math
import os
import shutil
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import geometry
from .errors import ConfigError, PreconditionError, SpectrumError
from .geometry import ManifoldModel

COS, SIN = 0, 1
# modes per jet_block call of the generic gradient_gram, and sphere factors per
# chunk of the S^2 x S^1 one; read at call time
_GRAM_CHUNK = 1024
# the count path of analytic_spectrum: Weyl's-law window for this many times
# the count, grown by this factor while it comes up short
_WEYL_SLACK, _WEYL_GROWTH = 1.2, 1.25


@dataclass(frozen=True)
class EigenPair:
    index: int
    lam: float
    descriptor: tuple


class SpectrumProvider:
    """Ordered eigenpairs of a closed-form spectrum plus vectorized jet evaluation.

    A subclass enumerates one model `kind`; another kind raises ConfigError.
    `_enumerate` returns the eigenvalues [M] and integer descriptors
    [M, width] of the modes with lambda <= lambda_max in any order; they are
    sorted here by (lambda, descriptor).  The descriptor rows, shifted by
    their column minima (lattice entries can be negative), are raveled into
    one integer key in row-major order, which orders them as the tuples do,
    so one two-key lexsort does the sort.  A window holds whole eigenvalue
    shells, so a provider never ends inside one.
    """

    def __init__(self, model: ManifoldModel, lambda_max: float):
        if model.kind != self.kind:
            raise ConfigError(f"{type(self).__name__} needs a {self.kind} model")
        self.model = model
        self.lambda_max = float(lambda_max)
        lams, desc = self._enumerate(self.lambda_max)
        low = desc.min(axis=0)
        key = np.ravel_multi_index((desc - low).T, tuple(desc.max(axis=0) - low + 1))
        order = np.lexsort((key, lams))
        self._lambdas = lams[order]
        self._descriptors = desc[order]

    @functools.cached_property
    def eigenpairs(self) -> list[EigenPair]:
        """One record per mode, built on first use; jets read the arrays."""
        return [EigenPair(i, lam, tuple(d)) for i, (lam, d) in
                enumerate(zip(self._lambdas.tolist(), self._descriptors.tolist()))]

    def _enumerate(self, lambda_max: float) -> tuple[np.ndarray, np.ndarray]:
        raise NotImplementedError

    @property
    def count(self) -> int:
        return len(self._lambdas)

    @property
    def lambdas(self) -> np.ndarray:
        return self._lambdas

    def jet_block(self, j0: int, j1: int, points: np.ndarray, deriv: int = 2):
        """Jets of modes j0..j1-1 at chart points [N, n], up to order `deriv`.

        Returns (values [m, N], gradients [m, N, n], hessians [m, N, n, n]).
        `deriv` is 0 (values), 1 (values and gradients) or 2 (all three);
        arrays above that order are not computed and come back as zero-size
        float arrays, never None.  The arrays that are returned do not depend
        on `deriv`: they equal those of the deriv=2 call bit for bit.  They
        are fresh, so the caller may scale them in place.
        """
        raise NotImplementedError

    def gradient_gram(self, j0: int, weights: np.ndarray, points: np.ndarray) -> np.ndarray:
        """sum_i (w_i grad phi_{j0+i}) outer (w_i grad phi_{j0+i}) at points [N, n].

        One mode per weight; modes past the provider's count are rejected.
        Returns [N, n, n], exactly symmetric.  This generic body serves the
        sphere provider and is the reference that the closed-form overrides
        (lattice and S^2 x S^1) are tested against: it fetches gradients in
        chunks of `_GRAM_CHUNK` modes, and each entry (a, b), a <= b, of a
        chunk's sum is one contraction along the mode axis,
        w^2 @ (d_a phi * d_b phi).
        """
        _check_range(self, j0, j0 + len(weights))
        points = np.asarray(points, dtype=float)
        N, n = points.shape
        G = np.zeros((N, n, n))
        chunk = _GRAM_CHUNK
        for lo in range(0, len(weights), chunk):
            hi = min(len(weights), lo + chunk)
            _, grads, _ = self.jet_block(j0 + lo, j0 + hi, points, deriv=1)
            w2 = weights[lo:hi] ** 2
            for a in range(n):
                for b in range(a, n):
                    G[:, a, b] += w2 @ (grads[:, :, a] * grads[:, :, b])
        for a in range(n):
            for b in range(a):
                G[:, a, b] = G[:, b, a]
        return G


def _check_deriv(deriv: int) -> None:
    if deriv not in (0, 1, 2):
        raise SpectrumError(f"derivative order must be 0, 1 or 2, got {deriv!r}")


def _check_range(provider: SpectrumProvider, j0: int, j1: int) -> None:
    if not 0 <= j0 <= j1 <= provider.count:
        raise SpectrumError(
            f"mode block [{j0}, {j1}) outside the provider's {provider.count} modes")


def _unrequested() -> np.ndarray:
    """Stand-in for a jet array above the requested derivative order."""
    return np.empty(0)


def enumerate_eigenpairs(provider: SpectrumProvider, count: int) -> list[EigenPair]:
    """First `count` eigenpairs, ascending in lambda, descriptor-tie-broken."""
    if count < 1:
        raise SpectrumError("count must be at least 1")
    if count > provider.count:
        raise SpectrumError(
            f"provider holds {provider.count} modes, {count} requested")
    return provider.eigenpairs[:count]


# ---------------------------------------------------------------------------
# analytic backends
# ---------------------------------------------------------------------------

def _cos_sin(i: np.ndarray):
    """(k, parity) at positions i of the run (0, cos), (1, cos), (1, sin), (2, cos), ..."""
    return (i + 1) // 2, np.where((i > 0) & (i % 2 == 0), SIN, COS)


def _cos_sin_position(k: np.ndarray, parity: np.ndarray) -> np.ndarray:
    """The position of (k, parity) in the `_cos_sin` run: its inverse."""
    return np.maximum(2 * k - 1 + parity, 0)


class LatticeSpectrum(SpectrumProvider):
    """Real lattice modes amp * cos/sin(kappa . x) with kappa_a = unit_a * k_a.

    Descriptors are (k_1, ..., k_n, parity).  Modes are sorted by
    (lambda, descriptor), so the cos and sin modes of one lattice vector are
    adjacent (the zero vector has cos only) and a block of modes covers one
    contiguous range of lattice vectors.  `_phases` builds one table
    exp(i kappa_a x_a) per axis over the distinct k_a of the block and
    multiplies the gathered rows into c + i s = exp(i kappa . x) once per
    lattice vector.  `jet_block` gathers the value (c or s) and the derivative
    factor (-s or c) onto the modes.  `_pair_block` admits the blocks of whole
    cos/sin pairs with one weight per pair; on them `pairs` returns, on a
    tensor grid, the per-axis tables whose product is c + i s, so that each
    pair is one complex mode without a [N, V] array, and `gradient_gram` is the
    constant closed form in kappa, without jets.  `gradient_gram` of any other
    block is the generic body.
    """

    def _init_lattice(self, unit, volume: float):
        desc = self._descriptors
        n = desc.shape[1] - 1
        self._unit = np.asarray(unit, dtype=float)
        self._parity = desc[:, n]
        first = self._parity == COS
        self._vector_of = np.cumsum(first) - 1           # mode -> lattice vector
        self._lattice = desc[first, :n]                  # [vectors, n]
        self._kappa = desc[:, :n] * self._unit           # [M, n]
        self._amp = np.where(np.any(desc[:, :n] != 0, axis=1),
                             np.sqrt(2.0 / volume), np.sqrt(1.0 / volume))

    def _vectors(self, j0, j1):
        """First lattice vector of modes j0..j1-1, and each mode's row counted from it."""
        vec = self._vector_of[j0:j1]
        v0 = vec[0] if vec.size else 0
        return v0, vec - v0

    def _axis_table(self, column, a, x):
        """exp(i kappa_a x) of the lattice column k_a [vectors] at coordinates
        x [r]: one table [distinct k_a, r] over the distinct k_a, and each
        vector's row of it."""
        ks, row = np.unique(column, return_inverse=True)
        arg = np.outer(ks * self._unit[a], x)
        table = np.empty(arg.shape, dtype=complex)
        table.real, table.imag = np.cos(arg), np.sin(arg)
        return table, row

    def _phases(self, lattice, points):
        """exp(i kappa . x) [vectors, N] of lattice vectors [vectors, n] at
        points [N, n]: one `_axis_table` per axis, gathered and multiplied
        once per vector."""
        phase = None
        for a in range(points.shape[1]):
            table, row = self._axis_table(lattice[:, a], a, points[:, a])
            if phase is None:
                phase = table[row]
            else:
                phase *= table[row]
        return phase

    def jet_block(self, j0, j1, points, deriv=2):
        _check_deriv(deriv)
        _check_range(self, j0, j1)
        points = np.asarray(points, dtype=float)
        N, n = points.shape
        v0, rows = self._vectors(j0, j1)
        phase = self._phases(self._lattice[v0:v0 + rows.max(initial=-1) + 1], points)
        cs = phase.view(float).reshape(-1, N, 2)           # (c, s) per vector
        parity = self._parity[j0:j1]
        amp = self._amp[j0:j1]
        vals = amp[:, None] * cs[rows, :, parity]
        grads = hess = _unrequested()
        K = self._kappa[j0:j1]
        if deriv >= 1:
            dfac = cs[rows, :, 1 - parity]                  # -s for cos modes, c for sin
            dfac *= np.where(parity == COS, -amp, amp)[:, None]
            del phase, cs                   # freed before the larger jet arrays
            grads = np.empty(vals.shape + (n,))
            for i in range(n):
                np.multiply(dfac, K[:, i, None], out=grads[:, :, i])
        if deriv >= 2:
            hess = np.empty(vals.shape + (n, n))
            for i in range(n):
                for j in range(n):
                    np.multiply(vals, -(K[:, i] * K[:, j])[:, None], out=hess[:, :, i, j])
        return vals, grads, hess

    def _pair_block(self, j0, weights):
        """Wave vectors [V, n], weights [V] and amplitudes [V] of the cos/sin
        pairs of the weighted modes j0, j0 + 1, ...

        The block must run cos, sin, cos, sin, ... with one weight per pair,
        which leaves out the constant mode; any other block raises
        PreconditionError.
        """
        w = np.asarray(weights, dtype=float)
        j1 = j0 + len(w)
        _check_range(self, j0, j1)
        parity = self._parity[j0:j1]
        if parity.size % 2 or np.any(parity[0::2] != COS) or np.any(parity[1::2] != SIN):
            raise PreconditionError(f"mode block [{j0}, {j1}) is not a run of whole "
                                    "cos/sin pairs")
        if np.any(w[0::2] != w[1::2]):
            raise PreconditionError("a cos/sin pair carries two weights")
        return self._kappa[j0:j1:2], w[0::2], self._amp[j0:j1:2]

    def gradient_gram(self, j0, weights, points):
        """The Gram sum of `SpectrumProvider.gradient_gram`, per cos/sin pair.

        The cos and sin modes of kappa have gradients -a kappa sin(kappa . x)
        and a kappa cos(kappa . x), so a pair with one weight w contributes
        s_kappa kappa kappa^T, s_kappa = (w a)^2, at every point.  A block of
        such pairs (`_pair_block`), as the embedding's weights e^{-lambda t/2}
        on closed shells give, sums to the constant sum_kappa s_kappa kappa
        kappa^T; any other block goes to the generic body.
        """
        try:
            kappa, w, amp = self._pair_block(j0, weights)
        except PreconditionError:
            return super().gradient_gram(j0, weights, points)
        s = (w * amp) ** 2
        N, n = np.shape(points)
        G = np.empty((N, n, n))
        for a in range(n):
            for b in range(a, n):
                G[:, a, b] = G[:, b, a] = s @ (kappa[:, a] * kappa[:, b])
        return G

    def pairs(self, j0, weights, axes):
        """The weighted modes j0, j0 + 1, ... on the tensor grid of the axis
        coordinates `axes` (n arrays [r_a]) as complex pairs.

        The block must be one that `_pair_block` admits: then the pair of wave
        vector kappa, read as one complex number w (phi_cos + i phi_sin), is
        psi_kappa = w a exp(i kappa . x), and D^alpha psi_kappa =
        (i kappa)^alpha psi_kappa.  Returns `LatticePairs`: kappa [V, n], s [V],
        one phase table exp(i kappa_a x_a) [r_a, V] per axis (`_axis_table`),
        and the amplitudes a and weights w [V].  s_kappa = (w a)^2 comes from
        the weights and amplitudes, not from |psi|^2, so a Gram built from psi
        can be checked against one built from s.  psi at the grid point
        (i_1, ..., i_n) is the product of the table rows i_1, ..., i_n in axis
        order, then times a, then times w: that is `_phases` of the point
        times a, times w, so its view(float) equals the weighted `jet_block`
        values there bit for bit.
        """
        kappa, w, amp = self._pair_block(j0, weights)
        v0, _ = self._vectors(j0, j0 + 2 * len(w))
        lattice = self._lattice[v0:v0 + len(w)]
        phases = []
        for a, x in enumerate(axes):
            table, row = self._axis_table(lattice[:, a], a, np.asarray(x, dtype=float))
            phases.append(np.ascontiguousarray(table[row].T))
        return LatticePairs(kappa, (w * amp) ** 2, phases, amp, w)


class LatticePairs(NamedTuple):
    """The cos/sin pairs of `LatticeSpectrum.pairs` on a tensor grid."""

    kappa: np.ndarray         # [V, n] wave vectors
    s: np.ndarray             # [V] (w a)^2
    phases: list              # per axis a, exp(i kappa_a x_a) [r_a, V]
    amp: np.ndarray           # [V] amplitudes a
    w: np.ndarray             # [V] weights


class TorusSpectrum(LatticeSpectrum):
    """Real lattice modes cos/sin(kappa . x) on a flat torus, kappa_i = 2 pi k_i / L_i."""

    kind = geometry.FLAT_TORUS

    def __init__(self, model, lambda_max):
        super().__init__(model, lambda_max)
        self._init_lattice(2.0 * np.pi / np.asarray(model.periods), model.volume)

    def _enumerate(self, lambda_max):
        L = np.asarray(self.model.periods)
        kmax = np.floor(np.sqrt(lambda_max) * L / (2.0 * np.pi))
        box = math.prod(2.0 * k + 1.0 for k in kmax.tolist())
        # the mesh axes, the stacked lattice, its int copy and kappa [box, n],
        # and lambda [box]
        geometry.check_memory(8 * box * (4 * len(L) + 1),
                              f"a lattice box of {box:.3g} vectors")
        axes = [np.arange(-km, km + 1) for km in kmax.astype(int)]
        lattice = geometry._mesh(axes).astype(int)
        kappa = lattice * (2.0 * np.pi / L)
        lam = np.sum(kappa * kappa, axis=1)
        # one cos/sin pair per +-k pair, on the vector whose first nonzero
        # entry is positive; the zero vector carries the constant mode only
        nonzero = lattice != 0
        lead = lattice[np.arange(len(lattice)), np.argmax(nonzero, axis=1)]
        inside = lam <= lambda_max
        cos = np.flatnonzero(inside & (lead >= 0))
        sin = np.flatnonzero(inside & (lead > 0))
        idx = np.concatenate([cos, sin])
        parity = np.repeat([COS, SIN], [cos.size, sin.size])
        return lam[idx], np.column_stack([lattice[idx], parity])


class CircleSpectrum(LatticeSpectrum):
    """cos/sin(k theta) on a circle charted by theta in [0, 2 pi), g = (L/2pi)^2.

    The 1-torus lattice modes on the theta chart: kappa unit 1, amplitude
    sqrt(2/L) (sqrt(1/L) for the constant mode).
    """

    kind = geometry.CIRCLE

    def __init__(self, model, lambda_max):
        super().__init__(model, lambda_max)
        self._init_lattice([1.0], model.length)

    def _enumerate(self, lambda_max):
        return _circle_modes(self.model.length, lambda_max)


def _circle_modes(length: float, lambda_max: float):
    """cos/sin(k s) modes of a circle of length L for k <= sqrt(lambda_max) L / 2 pi."""
    kmax = float(np.floor(np.sqrt(max(lambda_max, 0.0)) * length / (2.0 * np.pi)))
    modes = 2.0 * kmax + 1.0
    # the mode indices, k, parity, lambda and the [modes, 2] descriptors
    geometry.check_memory(48 * modes, f"{modes:.3g} circle modes")
    k, parity = _cos_sin(np.arange(2 * int(kmax) + 1))
    # float_power is libm pow, as Python's float ** 2: it keeps lambda bit for
    # bit where the x * x of ndarray ** 2 rounds differently
    lam = np.float_power(2.0 * np.pi * k / length, 2)
    return lam, np.column_stack([k, parity])


def _legendre_jets(kmax: int, theta: np.ndarray, deriv: int = 2):
    """Orthonormal Q_k^m(theta) and its theta-derivatives up to `deriv`, [k, m, T] each.

    Q_k^m = sqrt((2k+1)/(4 pi) (k-m)!/(k+m)!) P_k^m(cos theta) for
    0 <= m <= k <= kmax, and zero for m > k up to m = kmax + 1, so that the
    ladder reads Q_k^{m+1} at every m.  Values come from the sectoral seeds
    and the three-term recurrence in k at fixed m; each derivative from the
    ladder identity, so nothing divides by sin(theta).  The tables above
    `deriv` are not built and come back zero-size.
    """
    K = kmax + 1
    # run the recurrence at the angle theta' <= pi/2 to the nearer pole, with
    # cos theta' = 1 - h and h = 2 sin^2(theta'/2) kept to full relative
    # precision: rounding cos theta' near 1 would mix two slightly different
    # angles into the seeds and the recurrence, an error that grows with k
    theta = np.asarray(theta, dtype=float)
    south = theta > np.pi / 2
    half = 0.5 * np.where(south, np.pi - theta, theta)
    y, h = np.sin(2.0 * half), 2.0 * np.sin(half) ** 2
    Q = np.zeros((K, K + 1) + theta.shape)
    Q[0, 0] = 1.0 / np.sqrt(4.0 * np.pi)
    for k in range(1, K):
        diag = Q[k - 1, k - 1]
        Q[k, k] = -np.sqrt((2 * k + 1) / (2 * k)) * y * diag
        Q[k, k - 1] = np.sqrt(2 * k + 1) * (diag - h * diag)
        m = np.arange(k - 1)[:, None]
        a = np.sqrt((4 * k * k - 1) / (k * k - m * m))
        b = np.sqrt(((k - 1) ** 2 - m * m) / (4 * (k - 1) ** 2 - 1))
        prev = Q[k - 1, :k - 1]
        Q[k, :k - 1] = a * ((prev - h * prev) - b * Q[k - 2, :k - 1])
    ks, ms = np.ogrid[:K, :K + 1]
    Q[:, :, south] *= np.where((ks + ms) % 2, -1.0, 1.0)[:, :, None]   # Q_k^m(pi - theta)
    Q_t = Q_tt = _unrequested()
    if deriv == 0:
        return Q, Q_t, Q_tt
    up = np.sqrt(np.maximum((ks - ms) * (ks + ms + 1), 0))[:, :, None]

    def ladder(F):
        # dF^m = (up_m F^{m+1} - up_{m-1} F^{m-1}) / 2, with F^{-1} = -F^1
        D = np.zeros_like(F)
        D[:, :-1] = up[:, :-1] * F[:, 1:]
        D[:, 1:] -= up[:, :-1] * F[:, :-1]
        D[:, 0] += up[:, 0] * F[:, 1]
        D *= 0.5
        return D

    Q_t = ladder(Q)
    if deriv == 2:
        Q_tt = ladder(Q_t)
    return Q, Q_t, Q_tt


def _sphere_modes(radius: float, lambda_max: float):
    """Real spherical harmonics (k, m, parity) of S^2(R) with k(k+1)/R^2 <= lambda_max.

    Shell k lists (k, 0, cos), (k, 1, cos), (k, 1, sin), ..., (k, k, sin).
    """
    R2 = radius**2
    # degree count, one past the last degree inside the window
    degrees = float(np.floor(np.sqrt(max(lambda_max, 0.0) * R2))) + 2.0
    modes = degrees * degrees
    # each mode with an index, k, m, parity, lambda and 3 descriptors
    geometry.check_memory(72 * modes, f"{modes:.3g} sphere modes")
    k = np.arange(int(degrees))
    lam = k * (k + 1) / R2
    inside = lam <= lambda_max
    k, lam, size = k[inside], lam[inside], 2 * k[inside] + 1
    start = np.cumsum(size) - size
    m, parity = _cos_sin(np.arange(size.sum()) - np.repeat(start, size))
    return np.repeat(lam, size), np.column_stack([np.repeat(k, size), m, parity])


class SphereSpectrum(SpectrumProvider):
    """Real spherical harmonics on the round 2-sphere, lambda = k(k+1)/R^2."""

    kind = geometry.SPHERE2

    def __init__(self, model, lambda_max):
        super().__init__(model, lambda_max)
        desc = self._descriptors
        self._k, self._m = desc[:, 0], desc[:, 1]
        self._even = desc[:, 2] == COS

    def _enumerate(self, lambda_max):
        return _sphere_modes(self.model.radius, lambda_max)

    def jet_block(self, j0, j1, points, deriv=2):
        """The jets of `SpectrumProvider.jet_block` in (theta, phi), at points
        [N, >= 2].  Legendre and trigonometric tables are built over the
        distinct theta and phi of the points and gathered onto the modes."""
        _check_deriv(deriv)
        _check_range(self, j0, j1)
        kk, mm, even = self._k[j0:j1], self._m[j0:j1], self._even[j0:j1]
        points = np.asarray(points, dtype=float)
        theta, it = np.unique(points[:, 0], return_inverse=True)
        phi, ip = np.unique(points[:, 1], return_inverse=True)
        kmax = int(kk.max(initial=0))
        Q, Q_t, Q_tt = _legendre_jets(kmax, theta, deriv)
        ang = np.arange(kmax + 1.0)[:, None] * phi
        trig = np.stack([np.cos(ang), np.sin(ang)])       # [cos/sin, m, phi]
        parity = np.where(even, COS, SIN)[:, None]
        legendre = (kk[:, None], mm[:, None], it)
        A = (np.where(mm > 0, np.sqrt(2.0), 1.0) / self.model.radius)[:, None]
        mf = mm.astype(float)[:, None]
        T = trig[parity, mm[:, None], ip]
        P = A * Q[legendre]
        vals = P * T
        grads = hess = _unrequested()
        if deriv >= 1:
            dT = trig[1 - parity, mm[:, None], ip]          # -sin for cos modes, cos for sin
            dT *= np.where(even[:, None], -mf, mf)
            Pt = A * Q_t[legendre]
            grads = np.empty(vals.shape + (2,))
            np.multiply(Pt, T, out=grads[:, :, 0])
            np.multiply(P, dT, out=grads[:, :, 1])
        if deriv >= 2:
            hess = np.empty(vals.shape + (2, 2))
            np.multiply(A * Q_tt[legendre], T, out=hess[:, :, 0, 0])
            np.multiply(Pt, dT, out=hess[:, :, 0, 1])
            hess[:, :, 1, 0] = hess[:, :, 0, 1]
            np.multiply(vals, -(mf * mf), out=hess[:, :, 1, 1])
        return vals, grads, hess


class ProductSpectrum(SpectrumProvider):
    """Separable modes Y_km(theta, phi) * c_j(s) on S^2(R) x S^1(L).

    The product of a `SphereSpectrum` and a `CircleSpectrum` of the model's
    `factors`, both enumerated over the product's window: a mode is a pair
    of factor modes whose eigenvalues sum to at most lambda_max.  Every
    sphere mode of the window pairs with the constant circle mode and every
    circle mode with the constant sphere mode, so the factor providers hold
    exactly the factors that occur, and a mode's factor index, its factor's
    position in the factor provider, is k^2 plus the `_cos_sin` position of
    (m, ps) in shell k, and the `_cos_sin` position of (j, pc).

    Many modes share a sphere or a circle factor, and many points share a
    (theta, phi) row or an s.  `jet_block` and `gradient_gram` take the
    factor jets from the factor providers' `jet_block`, each distinct factor
    once per distinct (theta, phi) row or s, and multiply them.
    """

    kind = geometry.PRODUCT_SPHERE_CIRCLE

    def __init__(self, model, lambda_max):
        super().__init__(model, lambda_max)
        k, m, ps, j, pc = self._descriptors.T
        self._sphere_of = k * k + _cos_sin_position(m, ps)
        self._circle_of = _cos_sin_position(j, pc)

    def _enumerate(self, lambda_max):
        sphere, circle = self.model.factors
        self._sphere = SphereSpectrum(sphere, lambda_max)
        self._circle = CircleSpectrum(circle, lambda_max)
        # every (sphere mode, circle mode) pair whose eigenvalues sum to <= lambda_max
        lam_s, lam_c = self._sphere.lambdas, self._circle.lambdas
        box = lam_s.size * lam_c.size
        # the [sphere, circle] eigenvalue box, its mask and the kept index pairs
        geometry.check_memory(25 * box, f"a box of {box:.3g} sphere x circle modes")
        lam = lam_s[:, None] + lam_c[None, :]
        si, ci = np.nonzero(lam <= lambda_max)
        return lam[si, ci], np.column_stack([self._sphere._descriptors[si],
                                             self._circle._descriptors[ci]])

    def _factors(self, j0, j1):
        """Distinct sphere and circle factors of modes j0..j1-1, and each mode's
        index among them: (fs, si, fc, ci)."""
        return (*_distinct(self._sphere_of[j0:j1], self._sphere.count),
                *_distinct(self._circle_of[j0:j1], self._circle.count))

    def jet_block(self, j0, j1, points, deriv=2):
        _check_deriv(deriv)
        _check_range(self, j0, j1)
        points = np.asarray(points, dtype=float)
        N = points.shape[0]
        fs, si, fc, ci = self._factors(j0, j1)
        rows, x, s, y = _product_points(points)
        sv, sg, sh = _factor_jets(self._sphere, fs, rows, deriv)
        c, dc, d2c = _factor_jets(self._circle, fc, s[:, None], deriv)
        # gather the factor tables onto (mode, point)
        on_x, on_y = np.ix_(si, x), np.ix_(ci, y)
        sv, c = sv[on_x], c[on_y]
        vals = sv * c
        grads = hess = _unrequested()
        M = vals.shape[0]
        if deriv >= 1:
            sg, dc = sg[on_x], dc[:, :, 0][on_y]
            grads = np.empty((M, N, 3))
            grads[:, :, :2] = sg * c[:, :, None]
            grads[:, :, 2] = sv * dc
        if deriv >= 2:
            hess = np.empty((M, N, 3, 3))
            hess[:, :, :2, :2] = sh[on_x] * c[:, :, None, None]
            hess[:, :, :2, 2] = sg * dc[:, :, None]
            hess[:, :, 2, :2] = hess[:, :, :2, 2]
            hess[:, :, 2, 2] = sv * d2c[:, :, 0, 0][on_y]
        return vals, grads, hess

    def gradient_gram(self, j0, weights, points):
        """The Gram sum of `SpectrumProvider.gradient_gram`, contracted per factor.

        grad (Y c) = (c grad Y, Y c'), so each entry a <= b pairs a sphere
        product P_ab (d_aY d_bY, d_aY Y or Y^2) with a circle product B_ab
        (c^2, c c' or c'^2).  With W[s, c] the squared weight of the one mode
        whose factors are s and c, G_ab at a point on (theta, phi) row x and
        circle angle y is sum_c (P_ab^T W)[x, c] B_ab[c, y].  Sphere factors
        are evaluated on the distinct rows in chunks of `_GRAM_CHUNK`, and the sum
        over c is taken per point, so no [rows, angles] table is formed.
        """
        points = np.asarray(points, dtype=float)
        w = np.asarray(weights, dtype=float)
        _check_range(self, j0, j0 + len(w))
        fs, si, fc, ci = self._factors(j0, j0 + len(w))
        W = np.zeros((fs.size, fc.size))
        W[si, ci] = w * w
        rows, x, s, y = _product_points(points)
        c, dc, _ = _factor_jets(self._circle, fc, s[:, None], 1)
        dc = dc[:, :, 0]
        cc, cd, dd = c * c, c * dc, dc * dc
        # (a, b, circle product); sphere factor 2 below is Y itself
        entries = [(0, 0, cc), (0, 1, cc), (1, 1, cc), (0, 2, cd), (1, 2, cd), (2, 2, dd)]
        A = np.zeros((len(entries), len(rows), fc.size))
        chunk = _GRAM_CHUNK
        for lo in range(0, fs.size, chunk):
            sv, sg, _ = _factor_jets(self._sphere, fs[lo:lo + chunk], rows, 1)
            F = (sg[:, :, 0], sg[:, :, 1], sv)
            for e, (a, b, _) in enumerate(entries):
                A[e] += (F[a] * F[b]).T @ W[lo:lo + chunk]
        G = np.empty((len(points), 3, 3))
        for e, (a, b, B) in enumerate(entries):
            G[:, a, b] = G[:, b, a] = np.einsum("pc,pc->p", A[e][x], B.T[y])
        return G


def _factor_jets(provider: SpectrumProvider, f: np.ndarray, points: np.ndarray, deriv: int):
    """Jets of the provider's modes f (ascending, distinct) at points: one
    `jet_block` over [f[0], f[-1] + 1), gathered onto f where f has gaps."""
    j0, j1 = (int(f[0]), int(f[-1]) + 1) if f.size else (0, 0)
    jets = provider.jet_block(j0, j1, points, deriv)
    if j1 - j0 == f.size:
        return jets
    return tuple(a[f - j0] if a.ndim > 1 else a for a in jets)


def _distinct(index: np.ndarray, count: int):
    """`np.unique(index, return_inverse=True)` of indices into [0, count): the
    distinct indices, ascending, and each entry's position among them, from
    one mark per index and its running count instead of a sort."""
    mark = np.zeros(count, dtype=bool)
    mark[index] = True
    return np.flatnonzero(mark), np.cumsum(mark)[index] - 1


def _product_points(points: np.ndarray):
    """Distinct (theta, phi) rows and distinct s of S^2 x S^1 chart points [N, 3],
    and each point's index into them: (rows [X, 2], x [N], s [S], y [N])."""
    theta, it = np.unique(points[:, 0], return_inverse=True)
    phi, ip = np.unique(points[:, 1], return_inverse=True)
    pairs, x = _distinct_rows(np.column_stack([it, ip]))
    s, y = np.unique(points[:, 2], return_inverse=True)
    return np.column_stack([theta[pairs[:, 0]], phi[pairs[:, 1]]]), x, s, y


def _distinct_rows(cols: np.ndarray):
    """Distinct rows of a nonnegative integer table, and each row's index among them."""
    key = np.ravel_multi_index(cols.T, cols.max(axis=0, initial=0) + 1)
    _, first, inverse = np.unique(key, return_index=True, return_inverse=True)
    return cols[first], inverse


_ANALYTIC = {cls.kind: cls for cls in (TorusSpectrum, CircleSpectrum, SphereSpectrum,
                                        ProductSpectrum)}


def analytic_spectrum(model: ManifoldModel, count: int | None = None,
                      lambda_max: float | None = None) -> SpectrumProvider:
    """Analytic provider holding at least `count` modes (or all with lambda <= lambda_max).

    Whole eigenvalue shells are always enumerated, so the provider may hold a
    few more modes than requested.  A count is met by the eigenvalue window
    of Weyl's law, N(lambda) ~ omega_n vol lambda^(n/2) / (2 pi)^n with
    omega_n = pi^(n/2) / Gamma(n/2 + 1) the volume of the unit n-ball, solved
    for `_WEYL_SLACK` times the count; a window that comes up short grows by
    `_WEYL_GROWTH` until it holds the count.  On the testbeds the first window
    holds at most about 1.4 times the count (tests/test_spectrum.py).
    """
    if count is None and lambda_max is None:
        raise ConfigError("need count or lambda_max")
    if count is not None and count < 1:
        raise SpectrumError(f"count must be at least 1, got {count!r}")
    if count is not None:
        # a provider holds lambda and at least two descriptor columns per mode
        geometry.check_memory(24 * count, f"a spectrum of {count:.3g} modes")
    cls = _ANALYTIC[model.kind]
    if lambda_max is not None:
        prov = cls(model, lambda_max)
        if count is not None and prov.count < count:
            raise SpectrumError(
                f"lambda_max={lambda_max} yields {prov.count} modes < count={count}")
        return prov
    n = model.dim
    ball = math.pi ** (n / 2.0) / math.gamma(n / 2.0 + 1.0)
    lam = ((_WEYL_SLACK * count / ball) ** (2.0 / n)
           * (2.0 * math.pi) ** 2 / model.volume ** (2.0 / n))
    for _ in range(60):
        prov = cls(model, lam)
        if prov.count >= count:
            return prov
        lam *= _WEYL_GROWTH
    raise SpectrumError(f"could not enumerate {count} modes")   # pragma: no cover


# ---------------------------------------------------------------------------
# the eigenpair file (JSON lines)
# ---------------------------------------------------------------------------

# the grid orthonormality that `save_spectrum` checks before it writes, and
# records as the eigenpair file's `tolerance`
_SAVED_TOLERANCE = 1e-6
# bytes per number in the eigenpair file's size estimate: half the fewest
# measured (16.3 on S^2 x S^1, up to 23 on the circle), so that no file that
# would fit is refused
_SAVED_NUMBER_BYTES = 8


def save_spectrum(provider: SpectrumProvider, path, grid: geometry.SampleGrid,
                  count: int | None = None) -> None:
    """Dump eigenpairs with tabulated jets to the JSON-lines eigenpair file.

    A header {"n", "tolerance", "model", "grid": {"points", "weights"}} is
    followed by one record {"j", "lambda", "descriptor", "values",
    "gradients", "hessians"} per mode, row-major over the header grid.  The
    weighted Gram matrix of the mode values on the grid must differ from the
    identity by at most `tolerance` (`_SAVED_TOLERANCE`) in every entry, so a
    grid too coarse for the modes raises SpectrumError before anything is
    written.  Its [count, G] value table is refused by `geometry.check_memory`,
    and a file of count·G·(1 + n + n²) numbers that the free disk of its
    directory cannot hold with PreconditionError, before the first jet is built.
    """
    count = provider.count if count is None else count
    points, n = len(grid.points), provider.model.dim
    geometry.check_memory(8 * count * points,
                          f"the values of {count} modes on {points} grid points")
    need = _SAVED_NUMBER_BYTES * count * points * (1 + n + n * n)
    free = shutil.disk_usage(os.path.dirname(path) or ".").free
    if need > free:
        raise PreconditionError(
            f"the eigenpair file of {count} modes on {points} grid points needs about "
            f"{need / 1e9:.3g} GB of disk, more than the {free / 1e9:.3g} GB free")
    chunk = 256
    values = np.concatenate([
        provider.jet_block(j0, min(count, j0 + chunk), grid.points, deriv=0)[0]
        for j0 in range(0, count, chunk)])
    err = np.max(np.abs((values * np.asarray(grid.weights)) @ values.T - np.eye(count)))
    if err > _SAVED_TOLERANCE:
        raise SpectrumError(f"orthonormality check failed: max Gram error {err:.3e} > "
                            f"{_SAVED_TOLERANCE}")
    header = {
        "n": provider.model.dim,
        "tolerance": _SAVED_TOLERANCE,
        "model": provider.model.to_config(),
        "grid": {"points": np.asarray(grid.points).tolist(),
                 "weights": np.asarray(grid.weights).tolist()},
    }
    with open(path, "w") as fh:
        fh.write(json.dumps(header) + "\n")
        for j0 in range(0, count, chunk):
            j1 = min(count, j0 + chunk)
            vals, grads, hess = provider.jet_block(j0, j1, grid.points)
            for i, ep in enumerate(provider.eigenpairs[j0:j1]):
                rec = {
                    "j": ep.index,
                    "lambda": ep.lam,
                    "descriptor": list(ep.descriptor),
                    "values": vals[i].tolist(),
                    "gradients": grads[i].tolist(),
                    "hessians": hess[i].tolist(),
                }
                fh.write(json.dumps(rec) + "\n")
