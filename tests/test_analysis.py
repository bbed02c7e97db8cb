"""Norm surrogates and order fitting."""
import itertools

import numpy as np
import pytest
from numpy.testing import assert_allclose

from heatconf import analysis, fit_order, geometry
from heatconf.errors import ConfigError

TWO_PI = 2.0 * np.pi


def test_holder_constant_field(circle, torus2):
    """A constant field has quotient 0, on the pair list and the lattice path,
    whatever its trailing component shape."""
    grid = geometry.sample_grid(circle, 64)
    assert analysis.holder_seminorm_field(np.full(len(grid), -2.5), grid.points,
                                          circle, 0.5) == 0.0
    lattice = geometry.sample_grid(torus2, 12)
    assert analysis.holder_seminorm_field(np.full((len(lattice), 2, 2), 0.7),
                                          lattice.points, torus2, 0.5) == 0.0


def test_holder_single_mode(circle):
    """cos x on the N-point circle: |cos x - cos y| = 2 |sin((x+y)/2) sin(d/2)|,
    and over grid pairs at offset m h the first factor peaks at 1 for even m and
    at cos(h/2) for odd m."""
    N, alpha = 256, 0.5
    grid = geometry.sample_grid(circle, N)
    got = analysis.holder_seminorm_field(np.cos(grid.points[:, 0]), grid.points,
                                         circle, alpha)
    h = TWO_PI / N
    m = np.arange(1, int(circle.injectivity_surrogate / 2.0 / h * (1 + 1e-12)) + 1)
    peak = np.where(m % 2 == 0, 1.0, np.cos(h / 2.0))
    want = np.max(2.0 * np.sin(m * h / 2.0) * peak / (m * h) ** alpha)
    assert_allclose(got, want, rtol=1e-12)


def test_holder_seminorm_dense_pair_oracle(circle):
    grid = geometry.sample_grid(circle, 256)
    x = grid.points[:, 0]
    vals = np.sin(3 * x) + 0.2 * np.cos(7 * x)
    alpha = 0.5
    capped = analysis.holder_seminorm_field(vals, grid.points, circle, alpha)
    # dense brute force over every admissible pair
    radius = circle.injectivity_surrogate / 2.0
    best = 0.0
    for i in range(len(x)):
        for j in range(i + 1, len(x)):
            d = geometry.geodesic_distance(circle, grid.points[i], grid.points[j])
            if 0 < d <= radius:
                best = max(best, abs(vals[i] - vals[j]) / d**alpha)
    assert_allclose(capped, best, rtol=1e-12)


def test_holder_monotone_under_refinement(circle):
    coarse = geometry.sample_grid(circle, 64)
    fine = geometry.sample_grid(circle, 128)   # contains the coarse points
    f = lambda p: np.sin(2 * p[:, 0]) + 0.1 * np.sin(9 * p[:, 0])
    h_coarse = analysis.holder_seminorm_field(f(coarse.points), coarse.points,
                                              circle, 0.5)
    h_fine = analysis.holder_seminorm_field(f(fine.points), fine.points,
                                            circle, 0.5)
    assert h_fine >= h_coarse - 1e-12


def test_holder_pair_cap(circle, monkeypatch):
    grid = geometry.sample_grid(circle, 256)
    vals = np.sin(grid.points[:, 0])
    full = analysis.holder_seminorm_field(vals, grid.points, circle, 0.5)
    monkeypatch.setattr(analysis, "PAIR_CAP", 2000)
    capped = analysis.holder_seminorm_field(vals, grid.points, circle, 0.5)
    assert 0 < capped <= full * (1 + 1e-12)


def test_fit_order_powers():
    t = np.array([0.1, 0.05, 0.02, 0.01, 0.005])
    fit = fit_order(t, t**2)
    assert abs(fit.slope - 2.0) <= 1e-6
    assert fit.r_squared >= 1 - 1e-9
    fit = fit_order(t, 3.0 * t)
    assert_allclose(fit.slope, 1.0, atol=1e-10)
    assert_allclose(fit.intercept, np.log(3.0), atol=1e-10)
    t2 = np.linspace(0.01, 0.1, 8)
    fit = fit_order(t2, t2 + 0.05 * t2**2)
    assert 1.0 < fit.slope < 1.05
    # constant sequences fit to slope zero
    flat = fit_order([0.1, 0.05, 0.02], [2.0, 2.0, 2.0])
    assert_allclose(flat.slope, 0.0, atol=1e-12)


def test_fit_order_validation():
    with pytest.raises(ConfigError):
        fit_order([0.1, 0.2], [1.0, 2.0])
    with pytest.raises(ConfigError):
        fit_order([0.1, 0.2, 0.3], [1.0, -2.0, 3.0])


def test_fit_order_residual_orthogonality():
    rng = np.random.default_rng(3)
    t = np.array([0.1, 0.07, 0.03, 0.01, 0.004])
    y = 2.7 * t**1.3 * np.exp(0.05 * rng.standard_normal(5))
    fit = fit_order(t, y)
    lt = np.log(t)
    resid = np.log(y) - (fit.slope * lt + fit.intercept)
    assert abs(np.dot(resid, lt)) <= 1e-10
    assert abs(np.sum(resid)) <= 1e-10
    assert 0 <= fit.r_squared <= 1


def test_fit_order_scale_equivariance():
    t = np.array([0.1, 0.05, 0.02, 0.01])
    y = t**1.7
    f1 = fit_order(t, y)
    f2 = fit_order(t, 5.0 * y)
    assert_allclose(f2.slope, f1.slope, atol=1e-12)
    assert_allclose(f2.intercept - f1.intercept, np.log(5.0), atol=1e-12)


@pytest.mark.parametrize("periods, r", [((TWO_PI, 3.1), 12), ((TWO_PI, 5.0, 4.2), 6)],
                         ids=["torus2-12", "torus3-6"])
def test_lattice_holder_matches_all_pairs(periods, r):
    """On its sample lattice the torus quotient covers every pair in the radius;
    pairs lying on the radius count up to rounding (slack 1e-12)."""
    model = geometry.ManifoldModel.flat_torus(periods)
    grid = geometry.sample_grid(model, r)
    assert analysis._lattice_resolution(grid.points, model) == r
    vals = np.random.default_rng(9).standard_normal((len(grid), 3))
    alpha = 0.45
    got = analysis.holder_seminorm_field(vals, grid.points, model, alpha)
    p = grid.points
    d = geometry.geodesic_distance(model, p[:, None, :], p[None, :, :])
    diff = np.max(np.abs(vals[:, None, :] - vals[None, :, :]), axis=-1)
    radius = model.injectivity_surrogate / 2.0
    close = (d > 0) & (d <= radius * (1 + 1e-12))
    assert_allclose(got, np.max(diff[close] / d[close] ** alpha), rtol=1e-12)


def lattice_holder_roll(values, model, r, radius, alpha):
    """Oracle: the lattice quotient with one np.roll copy of the field per offset."""
    n = model.dim
    h = np.asarray(model.periods) / r
    reach = radius * (1.0 + 1e-12)
    field = values.reshape((r,) * n + values.shape[1:])
    box = [np.arange(-int(reach / h_a), int(reach / h_a) + 1) for h_a in h]
    best = 0.0
    for o in itertools.product(*box):
        nonzero = [x for x in o if x]
        if not nonzero or nonzero[0] < 0:
            continue
        d = float(np.sqrt(np.sum((np.array(o) * h) ** 2)))
        if d > reach:
            continue
        diff = np.max(np.abs(field - np.roll(field, o, axis=tuple(range(n)))))
        best = max(best, float(diff) / d**alpha)
    return best


@pytest.mark.parametrize("periods, r, comps", [((TWO_PI, 3.1), 48, 4),
                                               ((TWO_PI, 5.0, 4.2), 10, 3)],
                         ids=["torus2-48", "torus3-10"])
def test_lattice_holder_matches_roll_oracle(periods, r, comps):
    """The slice views of the wrap-padded field give the np.roll quotient bit
    for bit."""
    model = geometry.ManifoldModel.flat_torus(periods)
    radius = model.injectivity_surrogate / 2.0
    rng = np.random.default_rng(r)
    for alpha in (0.3, 0.5):
        vals = rng.standard_normal((r ** len(periods), comps))
        assert (analysis._lattice_holder(vals, model, r, radius, alpha)
                == lattice_holder_roll(vals, model, r, radius, alpha))


def test_lattice_path_needs_the_sample_lattice(circle):
    model = geometry.ManifoldModel.flat_torus((TWO_PI, 3.1))
    pts = geometry.sample_grid(model, 12).points
    assert analysis._lattice_resolution(pts, model) == 12
    rng = np.random.default_rng(2)
    assert analysis._lattice_resolution(pts[rng.permutation(len(pts))], model) is None
    assert analysis._lattice_resolution(pts[:-1], model) is None
    other = geometry.ManifoldModel.flat_torus((TWO_PI, 3.2))
    assert analysis._lattice_resolution(pts, other) is None
    line = geometry.sample_grid(circle, 64).points
    assert analysis._lattice_resolution(line, circle) is None
