"""Closed-form metric/curvature evaluators against finite-difference oracles."""
import dataclasses

import numpy as np
import pytest
from numpy.testing import assert_allclose

from heatconf import ManifoldModel, metric_on_grid, sample_grid
from heatconf.errors import ConfigError, DomainError
from heatconf import geometry

TWO_PI = 2.0 * np.pi


def fd_christoffel(model, X, h=1e-5):
    """Gamma^k_ij = (1/2) g^{kl} (d_i g_jl + d_j g_il - d_l g_ij) by central
    differences of the batched metric, over chart points X [N, n]."""
    N, n = X.shape
    dg = np.zeros((N, n, n, n))     # dg[:, l, i, j] = d_l g_ij
    for l in range(n):
        e = np.zeros(n)
        e[l] = h
        dg[:, l] = (metric_on_grid(model, X + e).g - metric_on_grid(model, X - e).g) / (2 * h)
    # T[:, i, j, l] = d_i g_jl + d_j g_il - d_l g_ij
    T = dg + dg.transpose(0, 2, 1, 3) - dg.transpose(0, 2, 3, 1)
    return 0.5 * np.einsum("nkl,nijl->nkij", metric_on_grid(model, X).g_inv, T)


def fd_curvature(model, X, h=1e-5):
    """Ricci [N, n, n] and scalar [N] from central differences of the batched
    closed-form connection, over chart points X [N, n]."""
    N, n = X.shape

    def gamma(Y):
        return metric_on_grid(model, Y).christoffel

    dgamma = np.zeros((N, n, n, n, n))   # dgamma[:, m, k, i, j] = d_m Gamma^k_ij
    for m in range(n):
        e = np.zeros(n)
        e[m] = h
        dgamma[:, m] = (gamma(X + e) - gamma(X - e)) / (2 * h)
    G = gamma(X)
    # R^r_{s mu nu} = d_mu G^r_{nu s} - d_nu G^r_{mu s} + G^r_{mu l} G^l_{nu s} - (mu <-> nu)
    half = (np.einsum("nmrvs->nrsmv", dgamma)
            + np.einsum("nrml,nlvs->nrsmv", G, G))
    riem = half - half.transpose(0, 1, 2, 4, 3)
    ric = np.einsum("nrsrv->nsv", riem)
    scal = np.einsum("nij,nij->n", metric_on_grid(model, X).g_inv, ric)
    return ric, scal


def frame_components(m, T):
    """F^T T F per point: a tensor stack [N, n, n] in the orthonormal frame."""
    return np.einsum("nia,nij,njb->nab", m.frame, T, m.frame)


@pytest.fixture(scope="module")
def models(torus2, circle, sphere, product):
    return [torus2, circle, sphere, product]


def random_points(model, count, seed=11):
    rng = np.random.default_rng(seed)
    if model.kind == "flat_torus":
        return rng.uniform(0, TWO_PI, size=(count, model.dim))
    if model.kind == "circle":
        return rng.uniform(0, TWO_PI, size=(count, 1))
    if model.kind == "sphere2":
        return np.column_stack([rng.uniform(0.4, np.pi - 0.4, count),
                                rng.uniform(0, TWO_PI, count)])
    return np.column_stack([rng.uniform(0.4, np.pi - 0.4, count),
                            rng.uniform(0, TWO_PI, count),
                            rng.uniform(0, TWO_PI, count)])


def test_model_validation():
    with pytest.raises(ConfigError):
        ManifoldModel.flat_torus([])
    with pytest.raises(ConfigError):
        ManifoldModel.circle(-1.0)
    with pytest.raises(ConfigError):
        ManifoldModel.sphere2(0.0)
    with pytest.raises(ConfigError):
        ManifoldModel("hyperbolic")
    assert ManifoldModel.flat_torus([1.0, 2.0, 3.0]).dim == 3


def test_flat_torus_metric(torus2):
    m = metric_on_grid(torus2, random_points(torus2, 4))
    assert_allclose(m.g, np.broadcast_to(np.eye(2), (4, 2, 2)))
    assert np.all(m.christoffel == 0)
    assert np.all(m.ricci == 0)
    assert np.all(m.scalar == 0.0)


def test_metric_inverse_identity(models):
    for model in models:
        m = metric_on_grid(model, random_points(model, 3))
        n = model.dim
        assert m.g.shape == m.g_inv.shape == m.frame.shape == m.ricci.shape == (3, n, n)
        assert m.christoffel.shape == (3, n, n, n) and m.scalar.shape == (3,)
        assert_allclose(m.g @ m.g_inv, np.broadcast_to(np.eye(n), (3, n, n)), atol=1e-12)
        assert_allclose(m.christoffel, np.transpose(m.christoffel, (0, 1, 3, 2)),
                        atol=1e-14)
        assert_allclose(m.ricci, np.transpose(m.ricci, (0, 2, 1)), atol=1e-14)


def test_sphere_curvature_against_fd_oracle(sphere):
    X = random_points(sphere, 4)
    m = metric_on_grid(sphere, X)
    ric, scal = fd_curvature(sphere, X)
    assert_allclose(m.ricci, ric, atol=1e-6)
    assert_allclose(m.scalar, scal, atol=1e-6)
    # unit round sphere: S = 2 and Ric = g
    assert_allclose(m.scalar, 2.0, atol=1e-12)
    assert_allclose(m.ricci, m.g, atol=1e-12)
    # Ric - (S/2) g = 0 exactly in dimension 2
    assert_allclose(m.ricci - 0.5 * m.scalar[:, None, None] * m.g, 0.0, atol=1e-12)


def test_product_curvature_against_fd_oracle(product):
    X = random_points(product, 3)
    m = metric_on_grid(product, X)
    ric, scal = fd_curvature(product, X)
    assert_allclose(m.ricci, ric, atol=1e-6)
    assert_allclose(m.scalar, scal, atol=1e-6)
    assert_allclose(frame_components(m, m.ricci),
                    np.broadcast_to(np.diag([1.0, 1.0, 0.0]), (3, 3, 3)), atol=1e-12)
    assert_allclose(m.scalar, 2.0, atol=1e-12)


def test_flat_curvature_against_fd_oracle(torus2, circle):
    for model in (torus2, circle, ManifoldModel.flat_torus([TWO_PI, 3.0, 1.5])):
        X = random_points(model, 3)
        m = metric_on_grid(model, X)
        ric, scal = fd_curvature(model, X)
        assert_allclose(m.ricci, ric, atol=1e-6)
        assert_allclose(m.scalar, scal, atol=1e-6)


def test_christoffel_against_fd(models):
    for model in models:
        X = random_points(model, 3, seed=5)
        assert_allclose(metric_on_grid(model, X).christoffel,
                        fd_christoffel(model, X), atol=1e-6)


def test_a1_against_fd_curvature(models):
    # a1 = (1/3)(S g / 2 - Ric) with Ric and S from the finite-difference oracle
    for model in models:
        X = random_points(model, 3, seed=8)
        m = metric_on_grid(model, X)
        ric, scal = fd_curvature(model, X)
        assert_allclose(m.a1, (0.5 * scal[:, None, None] * m.g - ric) / 3.0, atol=1e-6)


def test_a1_flat_torus_zero(torus2):
    assert_allclose(metric_on_grid(torus2, random_points(torus2, 4)).a1, 0.0, atol=1e-15)


def test_a1_vanishes_in_dimension_two(sphere, circle):
    # Ric = (S/2) g identically in dimension 2 forces a vanishing first correction
    for model in (sphere, circle):
        assert_allclose(metric_on_grid(model, random_points(model, 4, seed=3)).a1,
                        0.0, atol=1e-12)


def test_a1_product_value(product):
    m = metric_on_grid(product, random_points(product, 4, seed=2))
    assert_allclose(frame_components(m, m.a1),
                    np.broadcast_to(np.diag([0.0, 0.0, 1.0 / 3.0]), (4, 3, 3)), atol=1e-12)


def test_a1_frame_covariance(product):
    # rotating the orthonormal frame conjugates the component matrix
    m = metric_on_grid(product, random_points(product, 3, seed=6))
    rng = np.random.default_rng(0)
    Q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    comp = frame_components(m, m.a1)
    FQ = m.frame @ Q
    comp_rot = np.einsum("nia,nij,njb->nab", FQ, m.a1, FQ)
    assert_allclose(comp_rot, Q.T @ comp @ Q, atol=1e-12)


def test_orthonormal_frames(models):
    for model in models:
        m = metric_on_grid(model, random_points(model, 2, seed=9))
        n = model.dim
        assert np.all(m.frame == np.einsum("nii->ni", m.frame)[:, :, None] * np.eye(n))
        assert_allclose(frame_components(m, m.g),
                        np.broadcast_to(np.eye(n), (2, n, n)), atol=1e-12)


def test_circle_frame_normalization():
    model = ManifoldModel.circle(3.0)
    m = metric_on_grid(model, np.array([[0.2], [5.0]]))
    assert_allclose(m.frame[:, 0, 0], TWO_PI / 3.0)


def test_sample_grid_weights(torus2, circle, sphere, product):
    g = sample_grid(torus2, 32)
    assert len(g) == 32**2
    assert_allclose(g.weights.sum(), TWO_PI**2, rtol=1e-12)
    assert_allclose(sample_grid(circle, 64).weights.sum(), TWO_PI, rtol=1e-12)
    assert_allclose(sample_grid(sphere, 32).weights.sum(), 4 * np.pi, rtol=1e-8)
    assert_allclose(sample_grid(product, 8).weights.sum(),
                    4 * np.pi * TWO_PI, rtol=1e-8)
    assert np.all(g.weights > 0)


def test_sample_grid_resolution_floor(torus2):
    with pytest.raises(ConfigError):
        sample_grid(torus2, 3)


def test_chart_domain(sphere, product, torus2):
    # a pole anywhere in the batch is rejected, as is a point inside the margin
    for theta in (0.0, np.pi, 0.5e-9, np.pi - 0.5e-9, np.nan):
        with pytest.raises(DomainError):
            metric_on_grid(sphere, np.array([[1.0, 0.5], [theta, 1.0]]))
        with pytest.raises(DomainError):
            metric_on_grid(product, np.array([[theta, 1.0, 2.0]]))
    # point width must be the model dimension, on a batch axis
    with pytest.raises(DomainError):
        metric_on_grid(sphere, np.array([[1.0, 0.5, 0.2]]))
    with pytest.raises(DomainError):
        metric_on_grid(torus2, np.array([0.3, 1.0]))
    with pytest.raises(DomainError):
        metric_on_grid(product, np.zeros((2, 2)))
    # flat charts are periodic: points outside the fundamental domain need no wrap
    m = metric_on_grid(torus2, np.array([[TWO_PI + 0.3, -0.2]]))
    assert_allclose(m.g[0], np.eye(2))


def test_geodesic_distance(torus2, sphere):
    d = geometry.geodesic_distance(torus2, np.array([0.1, 0.0]),
                                   np.array([TWO_PI - 0.1, 0.0]))
    assert_allclose(d, 0.2, atol=1e-12)
    d = geometry.geodesic_distance(sphere, np.array([np.pi / 2, 0.0]),
                                   np.array([np.pi / 2, np.pi]))
    assert_allclose(d, np.pi, atol=1e-12)


@pytest.mark.parametrize("R, L, resolution", [(1.0, TWO_PI, 6), (0.8, 3.0, 7)])
def test_product_grid_is_the_tensor_product_of_the_factor_grids(R, L, resolution):
    """The S^2 x S^1 grid is the sphere grid times the circle grid, sphere
    points slowest, with the weights multiplied: bit for bit."""
    grid = sample_grid(ManifoldModel.product_sphere_circle(R, L), resolution)
    sphere = sample_grid(ManifoldModel.sphere2(R), resolution)
    circle = sample_grid(ManifoldModel.circle(L), resolution)
    i, j = np.divmod(np.arange(len(sphere) * len(circle)), len(circle))
    assert np.array_equal(grid.points, np.column_stack([sphere.points[i], circle.points[j]]))
    assert np.array_equal(grid.weights, sphere.weights[i] * circle.weights[j])


def test_product_distance_composes_the_factor_distances():
    """The S^2 x S^1 distance is sqrt(ds^2 + dc^2) of the sphere and circle
    distances, bit for bit, and has the closed form along each factor."""
    R, L = 0.8, 3.0
    product = ManifoldModel.product_sphere_circle(R, L)
    x = random_points(product, 40, seed=3)
    y = random_points(product, 40, seed=4)
    d = geometry.geodesic_distance(product, x[:, None, :], y[None, :, :])
    ds = geometry.geodesic_distance(ManifoldModel.sphere2(R), x[:, None, :2], y[None, :, :2])
    dc = geometry.geodesic_distance(ManifoldModel.circle(L), x[:, None, 2:], y[None, :, 2:])
    assert d.shape == (40, 40)
    assert np.array_equal(d, np.sqrt(ds * ds + dc * dc))
    base = np.array([1.0, 2.0, 0.5])
    assert_allclose(geometry.geodesic_distance(product, base, base + [0.3, 0.0, 0.0]),
                    0.3 * R, rtol=1e-12)
    assert_allclose(geometry.geodesic_distance(product, base, base + [0.0, 0.0, np.pi]),
                    L / 2, rtol=1e-12)


def test_factors_are_the_block_models(models):
    """One model per metric block: the sphere and circle of the product, the
    model itself elsewhere."""
    for model in models:
        assert len(model.factors) == len(model.blocks)
        assert [f.dim for f in model.factors] == [len(b) for b in model.blocks]
    product = ManifoldModel.product_sphere_circle(0.8, 3.0)
    assert product.factors == (ManifoldModel.sphere2(0.8), ManifoldModel.circle(3.0))
    assert models[0].factors == (models[0],)


def test_product_factors_are_built_once(monkeypatch):
    """A product builds its two factor models on first use and keeps them:
    later dim, volume, blocks and injectivity_surrogate calls build no model.
    A rescaled product's factors carry its own radius and length, and the
    kept factors leave equality and hash unchanged."""
    built = []
    post_init = ManifoldModel.__post_init__

    def counting(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(ManifoldModel, "__post_init__", counting)
    product = ManifoldModel.product_sphere_circle(0.8, 3.0)
    factors = product.factors
    assert [m.kind for m in built] == [geometry.PRODUCT_SPHERE_CIRCLE, geometry.SPHERE2,
                                       geometry.CIRCLE]
    built.clear()
    for _ in range(3):
        assert (product.dim, product.blocks) == (3, ((0, 1), (2,)))
        assert product.volume == 4.0 * np.pi * 0.8**2 * 3.0
        assert product.injectivity_surrogate == 1.5
        assert product.factors is factors
    assert built == []
    scaled = product.rescaled((1.21, 0.64))
    assert scaled.factors == (ManifoldModel.sphere2(0.8 * 1.1), ManifoldModel.circle(3.0 * 0.8))
    fields = tuple(getattr(product, f.name) for f in dataclasses.fields(product))
    assert hash(product) == hash(fields) and product == ManifoldModel(*fields)
    assert scaled != product and product.rescaled((1.0, 1.0)) == product


@pytest.mark.parametrize("R, L", [(1.0, TWO_PI), (0.8, 5.0)])
def test_product_model_composes_its_factors(R, L):
    """S^2(R) x S^1(L) has no closed forms of its own: its dim is the sum of
    its factors' dims, its volume their product (4 pi R^2) L, its injectivity
    surrogate their min, and its blocks their consecutive coordinate ranges."""
    product = ManifoldModel.product_sphere_circle(R, L)
    sphere, circle = ManifoldModel.sphere2(R), ManifoldModel.circle(L)
    assert product.factors == (sphere, circle)
    assert product.dim == sphere.dim + circle.dim == 3
    assert product.volume == sphere.volume * circle.volume == (4.0 * np.pi * R**2) * L
    assert product.injectivity_surrogate == min(np.pi * R, L / 2.0)
    assert product.blocks == ((0, 1), (2,))


@pytest.mark.parametrize("R, L", [(1.0, TWO_PI), (0.8, 5.0)])
def test_product_metric_is_the_block_diagonal_of_its_factors(R, L):
    """On S^2(R) x S^1(L), g, g_inv, the frame, the connection and Ricci are
    bit for bit the block-diagonal of the sphere's and the circle's, the
    scalar curvature is 0 + their sum, and A1 is (S g / 2 - Ric) / 3 of
    those (not the block-diagonal of the factors' A1: S couples the blocks)."""
    product = ManifoldModel.product_sphere_circle(R, L)
    pts = sample_grid(product, 5).points
    got = metric_on_grid(product, pts)
    N = len(pts)
    rows = np.arange(N)
    want = {name: np.zeros_like(getattr(got, name))
            for name in ("g", "g_inv", "frame", "christoffel", "ricci")}
    scalar = np.zeros(N)
    for factor, blk in ((ManifoldModel.sphere2(R), [0, 1]), (ManifoldModel.circle(L), [2])):
        data = metric_on_grid(factor, pts[:, blk])
        for name in ("g", "g_inv", "frame", "ricci"):
            want[name][np.ix_(rows, blk, blk)] = getattr(data, name)
        want["christoffel"][np.ix_(rows, blk, blk, blk)] = data.christoffel
        scalar += data.scalar
    want["scalar"] = scalar
    want["a1"] = (0.5 * scalar[:, None, None] * want["g"] - want["ricci"]) / 3.0
    assert len(want) == len(geometry.MetricData.__dataclass_fields__) == 7
    for name, value in want.items():
        assert np.array_equal(getattr(got, name), value), name


def test_config_roundtrip(models):
    """from_config inverts to_config on every kind, and each kind's params
    keep the order eigenpair-file headers are written in."""
    order = {"flat_torus": ["periods"], "circle": ["length"], "sphere2": ["radius"],
             "product_sphere_circle": ["length", "radius"]}
    assert [m.kind for m in models] == list(order)
    for model in models:
        cfg = model.to_config()
        assert list(cfg["params"]) == order[model.kind]
        assert ManifoldModel.from_config(cfg) == model


def test_blocks_partition_the_chart(models):
    """The metric blocks partition range(dim), and unit factors leave the
    model unchanged."""
    for model in models:
        coords = [i for blk in model.blocks for i in blk]
        assert sorted(coords) == list(range(model.dim))
        assert model.rescaled([1.0] * len(model.blocks)) == model
    assert models[3].blocks == ((0, 1), (2,))
