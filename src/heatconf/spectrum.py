"""Ordered Laplace-Beltrami eigenpairs with derivative jets.

Analytic backends cover the geometry testbeds (lattice modes on flat tori
and circles, real spherical harmonics, and their products).  Externally
computed spectra are ingested from a JSON-lines file and served from the
tabulated grid.

Conventions fixed here (recorded in run reports):

* eigenvalues are indexed with multiplicity, lambda_0 = 0 first;
* within an eigenvalue tie, modes are ordered by descriptor tuple
  (lattice vector lexicographic / harmonic (k, m) order), cosine before sine;
* associated Legendre functions follow scipy's sign convention.
"""
from __future__ import annotations

import itertools
import json
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

try:
    from scipy.special import assoc_legendre_p_all

    def _legendre_all(kmax: int, x: float):
        """P_k^m(x) and dP/dx as [k, m] tables for 0 <= m <= k <= kmax."""
        out = assoc_legendre_p_all(kmax, kmax, x, diff_n=1)
        return out[0][:, :kmax + 1], out[1][:, :kmax + 1]
except ImportError:                                    # scipy < 1.15
    from scipy.special import lpmn

    def _legendre_all(kmax: int, x: float):
        P, dP = lpmn(kmax, kmax, x)
        return P.T.copy(), dP.T.copy()

from . import geometry
from .errors import ConfigError, SpectrumError
from .geometry import ManifoldModel

COS, SIN = 0, 1


@dataclass(frozen=True)
class EigenPair:
    index: int
    lam: float
    descriptor: tuple


@dataclass
class JetEvaluation:
    """Value and chart-coordinate derivatives of one eigenfunction at a point."""

    value: float
    gradient: np.ndarray
    hessian: np.ndarray


class SpectrumProvider:
    """Common interface: ordered eigenpairs plus vectorized jet evaluation."""

    model: ManifoldModel
    backing: str

    @property
    def count(self) -> int:
        return len(self.eigenpairs)

    @property
    def lambdas(self) -> np.ndarray:
        return self._lambdas

    def eval_jet(self, j: int, x) -> JetEvaluation:
        if not 0 <= j < self.count:
            raise SpectrumError(f"mode index {j} out of range (count {self.count})")
        x = geometry.wrap_point(self.model, x)
        vals, grads, hess = self.jet_block(j, j + 1, x[None, :])
        return JetEvaluation(float(vals[0, 0]), grads[0, 0].copy(), hess[0, 0].copy())

    def jet_block(self, j0: int, j1: int, points: np.ndarray, deriv: int = 2):
        """Jets of modes j0..j1-1 at chart points [N, n], up to order `deriv`.

        Returns (values [m, N], gradients [m, N, n], hessians [m, N, n, n]).
        `deriv` is 0 (values), 1 (values and gradients) or 2 (all three);
        arrays above that order are not computed and come back as zero-size
        float arrays, never None.  The arrays that are returned do not depend
        on `deriv`: they equal those of the deriv=2 call bit for bit.
        """
        raise NotImplementedError

    def gram_matrix(self, grid: geometry.SampleGrid, j0: int = 0, j1: int | None = None):
        """Quadrature Gram matrix of modes j0..j1-1 (orthonormality check)."""
        j1 = self.count if j1 is None else j1
        vals, _, _ = self.jet_block(j0, j1, grid.points, deriv=0)
        return (vals * grid.weights) @ vals.T


def _check_deriv(deriv: int) -> None:
    if deriv not in (0, 1, 2):
        raise SpectrumError(f"derivative order must be 0, 1 or 2, got {deriv!r}")


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

class AnalyticSpectrum(SpectrumProvider):
    """Base for closed-form spectra; subclasses fill the mode table."""

    backing = "analytic"

    def __init__(self, model: ManifoldModel, lambda_max: float):
        self.model = model
        self.lambda_max = float(lambda_max)
        modes = self._enumerate(self.lambda_max)
        modes.sort(key=lambda md: (md[0], md[1]))
        self.eigenpairs = [EigenPair(i, lam, desc) for i, (lam, desc) in enumerate(modes)]
        self._lambdas = np.array([lam for lam, _ in modes])

    def _enumerate(self, lambda_max: float) -> list[tuple[float, tuple]]:
        raise NotImplementedError

    def _descriptor_table(self) -> np.ndarray:
        """Integer descriptors as a table [count, descriptor length]."""
        width = len(self.eigenpairs[0].descriptor)
        flat = itertools.chain.from_iterable(ep.descriptor for ep in self.eigenpairs)
        return np.fromiter(flat, dtype=int, count=width * self.count).reshape(-1, width)


class TorusSpectrum(AnalyticSpectrum):
    """Real lattice modes cos/sin(kappa . x) on a flat torus, kappa_i = 2 pi k_i / L_i."""

    def __init__(self, model, lambda_max):
        if model.kind != geometry.FLAT_TORUS:
            raise ConfigError("TorusSpectrum needs a flat_torus model")
        super().__init__(model, lambda_max)
        self._freqs = np.array([self._freq(ep.descriptor) for ep in self.eigenpairs])
        self._parity = np.array([ep.descriptor[-1] for ep in self.eigenpairs])
        self._amp = np.where(
            np.any(self._freqs != 0.0, axis=1),
            np.sqrt(2.0 / model.volume),
            np.sqrt(1.0 / model.volume))

    def _freq(self, desc):
        ks = desc[:-1]
        return np.array([2.0 * np.pi * k / L for k, L in zip(ks, self.model.periods)])

    def _enumerate(self, lambda_max):
        L = np.asarray(self.model.periods)
        kmax = np.floor(np.sqrt(lambda_max) * L / (2.0 * np.pi)).astype(int)
        axes = [np.arange(-km, km + 1) for km in kmax]
        lattice = geometry._mesh(axes).astype(int)
        kappa = lattice * (2.0 * np.pi / L)
        lam = np.sum(kappa * kappa, axis=1)
        modes = []
        for kvec, lv in zip(lattice, lam):
            if lv > lambda_max:
                continue
            nz = kvec[kvec != 0]
            if nz.size == 0:
                modes.append((0.0, tuple(kvec.tolist()) + (COS,)))
                continue
            if nz[0] < 0:   # canonical representative of the +-k pair
                continue
            modes.append((float(lv), tuple(kvec.tolist()) + (COS,)))
            modes.append((float(lv), tuple(kvec.tolist()) + (SIN,)))
        return modes

    def jet_block(self, j0, j1, points, deriv=2):
        _check_deriv(deriv)
        points = np.asarray(points, dtype=float)
        K = self._freqs[j0:j1]                        # [m, n]
        amp = self._amp[j0:j1, None]
        even = (self._parity[j0:j1] == COS)[:, None]
        phase = K @ points.T                          # [m, N]
        c, s = np.cos(phase), np.sin(phase)
        vals = amp * np.where(even, c, s)
        grads = hess = _unrequested()
        if deriv >= 1:
            grads = (amp * np.where(even, -s, c))[:, :, None] * K[:, None, :]
        if deriv >= 2:
            vals_neg = amp * np.where(even, -c, -s)
            hess = vals_neg[:, :, None, None] * (K[:, :, None] * K[:, None, :])[:, None]
        return vals, grads, hess


class CircleSpectrum(AnalyticSpectrum):
    """cos/sin(k theta) on a circle charted by theta in [0, 2 pi), g = (L/2pi)^2."""

    def __init__(self, model, lambda_max):
        if model.kind != geometry.CIRCLE:
            raise ConfigError("CircleSpectrum needs a circle model")
        super().__init__(model, lambda_max)
        self._ks = np.array([ep.descriptor[0] for ep in self.eigenpairs], dtype=float)
        self._parity = np.array([ep.descriptor[1] for ep in self.eigenpairs])
        self._amp = np.where(self._ks > 0,
                             np.sqrt(2.0 / model.length),
                             np.sqrt(1.0 / model.length))

    def _enumerate(self, lambda_max):
        L = self.model.length
        kmax = int(np.floor(np.sqrt(lambda_max) * L / (2.0 * np.pi)))
        modes = [(0.0, (0, COS))]
        for k in range(1, kmax + 1):
            lam = (2.0 * np.pi * k / L) ** 2
            modes.append((lam, (k, COS)))
            modes.append((lam, (k, SIN)))
        return modes

    def jet_block(self, j0, j1, points, deriv=2):
        _check_deriv(deriv)
        points = np.asarray(points, dtype=float)
        ks = self._ks[j0:j1]
        amp = self._amp[j0:j1]
        even = (self._parity[j0:j1] == COS)[:, None]
        phase = ks[:, None] * points[:, 0][None, :]
        c, s = np.cos(phase), np.sin(phase)
        vals = amp[:, None] * np.where(even, c, s)
        grads = hess = _unrequested()
        if deriv >= 1:
            grads = ((amp * ks)[:, None] * np.where(even, -s, c))[:, :, None]
        if deriv >= 2:
            hess = (-(ks * ks)[:, None] * vals)[:, :, None, None]
        return vals, grads, hess


class _LegendreTable:
    """P_k^m(cos theta) with first and second theta-derivatives at fixed theta."""

    def __init__(self, kmax: int, theta: float):
        x = np.cos(theta)
        st = np.sin(theta)
        self.P, dPdx = _legendre_all(kmax, x)         # [k, m]
        ks = np.arange(kmax + 1)[:, None]
        ms = np.arange(kmax + 1)[None, :]
        with np.errstate(divide="ignore", invalid="ignore"):
            # Legendre ODE: (1-x^2) P'' = 2x P' - [k(k+1) - m^2/(1-x^2)] P
            d2Pdx2 = (2.0 * x * dPdx
                      - (ks * (ks + 1) - ms * ms / (1.0 - x * x)) * self.P) / (1.0 - x * x)
        d2Pdx2 = np.where(ms <= ks, d2Pdx2, 0.0)
        self.P_t = -st * dPdx
        self.P_tt = st * st * d2Pdx2 - x * dPdx


def _sphere_norms(kmax: int) -> np.ndarray:
    """Orthonormalization constants for real spherical harmonics, [k, m]."""
    ks = np.arange(kmax + 1)[:, None]
    ms = np.arange(kmax + 1)[None, :]
    logratio = gammaln(ks - ms + 1) - gammaln(ks + ms + 1)
    norm = np.sqrt((2 * ks + 1) / (4.0 * np.pi) * np.exp(logratio))
    norm = np.where(ms <= ks, norm, 0.0)
    return norm * np.where(ms > 0, np.sqrt(2.0), 1.0)


class _SphereBasis:
    """Jet evaluation of real spherical harmonics on S^2(R), vectorized per point set."""

    def __init__(self, radius: float, kmax: int):
        self.radius = radius
        self.kmax = kmax
        self.norms = _sphere_norms(kmax)
        self._tables: dict[float, _LegendreTable] = {}

    def table(self, theta: float) -> _LegendreTable:
        key = round(float(theta), 14)
        if key not in self._tables:
            self._tables[key] = _LegendreTable(self.kmax, theta)
        return self._tables[key]

    def jets(self, kk, mm, even, points, deriv=2):
        """Jets of the sphere modes (kk, mm, even) at points [N, >=2].

        kk, mm are integer arrays of degree and order, `even` is True for the
        cos(m phi) modes.  Returns (vals [M, N], grads [M, N, 2],
        hess [M, N, 2, 2]) in (theta, phi), with the arrays above `deriv`
        zero-size.  Vectorized over modes; Legendre tables are shared per
        distinct theta.
        """
        points = np.asarray(points, dtype=float)
        N = points.shape[0]
        M = kk.size
        even = even[:, None]
        A = (self.norms[kk, mm] / self.radius)[:, None]
        mf = mm.astype(float)[:, None]
        vals = np.empty((M, N))
        grads = np.empty((M, N, 2)) if deriv >= 1 else _unrequested()
        hess = np.empty((M, N, 2, 2)) if deriv >= 2 else _unrequested()
        thetas = points[:, 0]
        order = np.argsort(thetas, kind="stable")
        for pts in _group_by_value(thetas, order):
            tab = self.table(thetas[pts[0]])
            ang = mf * points[pts, 1][None, :]
            c, s = np.cos(ang), np.sin(ang)
            T = np.where(even, c, s)
            P = tab.P[kk, mm][:, None]
            vals[:, pts] = A * P * T
            if deriv >= 1:
                dT = mf * np.where(even, -s, c)
                Pt = tab.P_t[kk, mm][:, None]
                grads[:, pts, 0] = A * Pt * T
                grads[:, pts, 1] = A * P * dT
            if deriv >= 2:
                Ptt = tab.P_tt[kk, mm][:, None]
                hess[:, pts, 0, 0] = A * Ptt * T
                hess[:, pts, 0, 1] = hess[:, pts, 1, 0] = A * Pt * dT
                hess[:, pts, 1, 1] = -(mf * mf) * A * P * T
        return vals, grads, hess


def _group_by_value(values, order):
    groups = []
    start = 0
    ordered = values[order]
    for i in range(1, len(order) + 1):
        if i == len(order) or ordered[i] != ordered[start]:
            groups.append(order[start:i])
            start = i
    return groups


class SphereSpectrum(AnalyticSpectrum):
    """Real spherical harmonics on the round 2-sphere, lambda = k(k+1)/R^2."""

    def __init__(self, model, lambda_max):
        if model.kind != geometry.SPHERE2:
            raise ConfigError("SphereSpectrum needs a sphere2 model")
        super().__init__(model, lambda_max)
        desc = self._descriptor_table()
        self._k, self._m = desc[:, 0], desc[:, 1]
        self._even = desc[:, 2] == COS
        self._basis = _SphereBasis(model.radius, int(self._k.max()))

    def _enumerate(self, lambda_max):
        R2 = self.model.radius**2
        modes = []
        k = 0
        while k * (k + 1) / R2 <= lambda_max:
            lam = k * (k + 1) / R2
            for m in range(0, k + 1):
                modes.append((lam, (k, m, COS)))
                if m > 0:
                    modes.append((lam, (k, m, SIN)))
            k += 1
        return modes

    def jet_block(self, j0, j1, points, deriv=2):
        _check_deriv(deriv)
        return self._basis.jets(self._k[j0:j1], self._m[j0:j1], self._even[j0:j1],
                                points, deriv)


class ProductSpectrum(AnalyticSpectrum):
    """Separable modes Y_km(theta, phi) * c_j(s) on S^2(R) x S^1(L).

    Many modes share a sphere factor (k, m, ps) or a circle factor (j, pc), so
    `jet_block` evaluates each distinct factor of the block once and gathers
    the factor jets onto the modes.
    """

    def __init__(self, model, lambda_max):
        if model.kind != geometry.PRODUCT_SPHERE_CIRCLE:
            raise ConfigError("ProductSpectrum needs a product_sphere_circle model")
        super().__init__(model, lambda_max)
        desc = self._descriptor_table()
        sphere, self._sphere_of = _distinct_rows(desc[:, :3])
        circle, self._circle_of = _distinct_rows(desc[:, 3:])
        self._sk, self._sm = sphere[:, 0], sphere[:, 1]
        self._seven = sphere[:, 2] == COS
        L = model.length
        self._cj = circle[:, 0].astype(float)
        self._ceven = circle[:, 1] == COS
        self._camp = np.where(self._cj > 0, np.sqrt(2.0 / L), np.sqrt(1.0 / L))
        self._basis = _SphereBasis(model.radius, int(self._sk.max()))

    def _enumerate(self, lambda_max):
        R2 = self.model.radius**2
        L = self.model.length
        jmax = int(np.floor(np.sqrt(max(lambda_max, 0.0)) * L / (2.0 * np.pi)))
        modes = []
        k = 0
        while k * (k + 1) / R2 <= lambda_max:
            lam_s = k * (k + 1) / R2
            for j in range(0, jmax + 1):
                lam = lam_s + (2.0 * np.pi * j / L) ** 2
                if lam > lambda_max:
                    break
                for m in range(0, k + 1):
                    for ps in (COS, SIN) if m > 0 else (COS,):
                        for pc in (COS, SIN) if j > 0 else (COS,):
                            modes.append((lam, (k, m, ps, j, pc)))
            k += 1
        return modes

    def jet_block(self, j0, j1, points, deriv=2):
        _check_deriv(deriv)
        points = np.asarray(points, dtype=float)
        N = points.shape[0]
        # distinct factors of the block, and each mode's index among them
        fs, si = np.unique(self._sphere_of[j0:j1], return_inverse=True)
        fc, ci = np.unique(self._circle_of[j0:j1], return_inverse=True)
        sv, sg, sh = self._basis.jets(self._sk[fs], self._sm[fs], self._seven[fs],
                                      points[:, :2], deriv)
        jj = self._cj[fc][:, None]
        even = self._ceven[fc][:, None]
        amp = self._camp[fc][:, None]
        ang = jj * points[:, 2][None, :]
        cw, sw = np.cos(ang), np.sin(ang)
        c = amp * np.where(even, cw, sw)
        sv, c = sv[si], c[ci]
        vals = sv * c
        grads = hess = _unrequested()
        M = vals.shape[0]
        if deriv >= 1:
            sg = sg[si]
            dc = (amp * jj * np.where(even, -sw, cw))[ci]
            grads = np.empty((M, N, 3))
            grads[:, :, :2] = sg * c[:, :, None]
            grads[:, :, 2] = sv * dc
        if deriv >= 2:
            d2c = (-(jj * jj))[ci] * c
            hess = np.empty((M, N, 3, 3))
            hess[:, :, :2, :2] = sh[si] * c[:, :, None, None]
            hess[:, :, :2, 2] = sg * dc[:, :, None]
            hess[:, :, 2, :2] = hess[:, :, :2, 2]
            hess[:, :, 2, 2] = sv * d2c
        return vals, grads, hess


def _distinct_rows(cols: np.ndarray):
    """Distinct rows of a nonnegative integer table, and each row's index among them."""
    key = np.ravel_multi_index(cols.T, cols.max(axis=0) + 1)
    _, first, inverse = np.unique(key, return_index=True, return_inverse=True)
    return cols[first], inverse


_ANALYTIC = {
    geometry.FLAT_TORUS: TorusSpectrum,
    geometry.CIRCLE: CircleSpectrum,
    geometry.SPHERE2: SphereSpectrum,
    geometry.PRODUCT_SPHERE_CIRCLE: ProductSpectrum,
}


def analytic_spectrum(model: ManifoldModel, count: int | None = None,
                      lambda_max: float | None = None) -> AnalyticSpectrum:
    """Analytic provider holding at least `count` modes (or all with lambda <= lambda_max).

    Whole eigenvalue shells are always enumerated, so the provider may hold a
    few more modes than requested.
    """
    if count is None and lambda_max is None:
        raise ConfigError("need count or lambda_max")
    cls = _ANALYTIC[model.kind]
    if lambda_max is not None:
        prov = cls(model, lambda_max)
        if count is not None and prov.count < count:
            raise SpectrumError(
                f"lambda_max={lambda_max} yields {prov.count} modes < count={count}")
        return prov
    # grow the eigenvalue window until the requested count is covered
    n = model.dim
    lam = max(4.0, (count ** (2.0 / n)) * (2.0 * np.pi) ** 2 / model.volume ** (2.0 / n))
    for _ in range(60):
        prov = cls(model, lam)
        if prov.count >= count:
            return prov
        lam *= 2.0
    raise SpectrumError(f"could not enumerate {count} modes")   # pragma: no cover


def rescaled_provider(provider: SpectrumProvider, factor_per_block) -> SpectrumProvider:
    """Provider of the metric rescaled by constant factors per product block.

    Dividing each block's metric by its factor scales that block's eigenvalues
    by 1/factor and renormalizes eigenfunctions through the volume change;
    both are realized exactly by the analytic provider of the rescaled model.
    """
    factors = np.atleast_1d(np.asarray(factor_per_block, dtype=float))
    if np.any(factors <= 0):
        raise ConfigError("metric block factors must be strictly positive")
    if not isinstance(provider, AnalyticSpectrum):
        raise SpectrumError("rescaling is only supported for analytic spectra")
    model = provider.model
    if model.kind == geometry.FLAT_TORUS:
        (c,) = factors
        scaled = ManifoldModel.flat_torus([L * np.sqrt(c) for L in model.periods])
        lam_max = provider.lambda_max / c
    elif model.kind == geometry.CIRCLE:
        (c,) = factors
        scaled = ManifoldModel.circle(model.length * np.sqrt(c))
        lam_max = provider.lambda_max / c
    elif model.kind == geometry.SPHERE2:
        (c,) = factors
        scaled = ManifoldModel.sphere2(model.radius * np.sqrt(c))
        lam_max = provider.lambda_max / c
    else:
        cs, cc = factors
        scaled = ManifoldModel.product_sphere_circle(
            model.radius * np.sqrt(cs), model.length * np.sqrt(cc))
        lam_max = provider.lambda_max / min(cs, cc)
    return _ANALYTIC[scaled.kind](scaled, lam_max)


# ---------------------------------------------------------------------------
# external spectra (JSON lines)
# ---------------------------------------------------------------------------

class ExternalSpectrum(SpectrumProvider):
    """Spectrum tabulated on a fixed grid; off-grid queries are rejected."""

    backing = "external"

    def __init__(self, model, grid, tolerance, eigenpairs, vals, grads, hess):
        self.model = model
        self.grid = grid
        self.tolerance = tolerance
        self.eigenpairs = eigenpairs
        self._lambdas = np.array([ep.lam for ep in eigenpairs])
        self._vals = vals
        self._grads = grads
        self._hess = hess

    def _locate(self, points):
        points = np.asarray(points, dtype=float)
        idx = np.empty(points.shape[0], dtype=int)
        for i, x in enumerate(points):
            d = np.max(np.abs(self.grid.points - x[None, :]), axis=1)
            j = int(np.argmin(d))
            if d[j] > 1e-9:
                raise SpectrumError(
                    "external spectra are tabulated; off-grid query rejected")
            idx[i] = j
        return idx

    def jet_block(self, j0, j1, points, deriv=2):
        _check_deriv(deriv)
        idx = self._locate(points)
        tables = (self._vals, self._grads, self._hess)
        return tuple(tab[j0:j1][:, idx] if order <= deriv else _unrequested()
                     for order, tab in enumerate(tables))


def save_spectrum(provider: SpectrumProvider, path, grid: geometry.SampleGrid,
                  tolerance: float = 1e-6, count: int | None = None) -> None:
    """Dump eigenpairs with tabulated jets to the JSON-lines eigenpair file."""
    count = provider.count if count is None else count
    header = {
        "n": provider.model.dim,
        "tolerance": tolerance,
        "model": provider.model.to_config(),
        "grid": {"points": np.asarray(grid.points).tolist(),
                 "weights": np.asarray(grid.weights).tolist()},
    }
    with open(path, "w") as fh:
        fh.write(json.dumps(header) + "\n")
        chunk = 256
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


def load_external_spectrum(path) -> ExternalSpectrum:
    """Load an eigenpair file, checking monotonicity and grid orthonormality."""
    with open(path) as fh:
        lines = fh.readlines()
    if not lines:
        raise ConfigError(f"empty eigenpair file {path}")
    try:
        header = json.loads(lines[0])
        n = int(header["n"])
        tolerance = float(header["tolerance"])
        gp = np.asarray(header["grid"]["points"], dtype=float)
        gw = np.asarray(header["grid"]["weights"], dtype=float)
    except (KeyError, ValueError, TypeError) as exc:
        raise ConfigError(f"malformed eigenpair header: {exc}") from exc
    model = (ManifoldModel.from_config(header["model"])
             if "model" in header else None)
    grid = geometry.SampleGrid(gp, gw)
    pairs, vals, grads, hess = [], [], [], []
    for ln in lines[1:]:
        if not ln.strip():
            continue
        try:
            rec = json.loads(ln)
            lam = float(rec["lambda"])
            v = np.asarray(rec["values"], dtype=float)
            g = np.asarray(rec["gradients"], dtype=float)
            h = np.asarray(rec["hessians"], dtype=float)
        except (KeyError, ValueError, TypeError) as exc:
            raise ConfigError(f"malformed eigenpair record: {exc}") from exc
        if v.shape != (len(grid),) or g.shape != (len(grid), n) or \
                h.shape != (len(grid), n, n):
            raise ConfigError("eigenpair record shapes do not match the grid")
        desc = tuple(rec.get("descriptor", (len(pairs),)))
        pairs.append(EigenPair(len(pairs), lam, desc))
        vals.append(v)
        grads.append(g)
        hess.append(h)
    if not pairs:
        raise ConfigError("eigenpair file holds no modes")
    lams = np.array([p.lam for p in pairs])
    if lams[0] != 0.0 or np.any(lams < 0):
        raise SpectrumError("eigenvalues must start at 0 and be nonnegative")
    if np.any(np.diff(lams) < -1e-12 * (1.0 + lams[:-1])):
        bad = int(np.argmax(np.diff(lams) < 0)) + 1
        raise SpectrumError(
            f"eigenvalues decrease at index {bad}: {lams[bad - 1]} -> {lams[bad]}")
    V = np.stack(vals)
    gram = (V * gw) @ V.T
    err = np.max(np.abs(gram - np.eye(len(pairs))))
    if err > tolerance:
        raise SpectrumError(
            f"orthonormality check failed: max Gram error {err:.3e} > {tolerance}")
    return ExternalSpectrum(model, grid, tolerance, pairs,
                            V, np.stack(grads), np.stack(hess))
