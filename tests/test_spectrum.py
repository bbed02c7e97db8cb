"""Eigenpair enumeration, jets, external files, and rescaling."""
from collections import namedtuple

import numpy as np
import pytest
from numpy.testing import assert_allclose

from heatconf import (ManifoldModel, analytic_spectrum, enumerate_eigenpairs,
                      load_external_spectrum, save_spectrum)
from heatconf import geometry, spectrum
from heatconf.spectrum import ExternalSpectrum, rescaled_model
from heatconf.errors import ConfigError, PreconditionError, SpectrumError

TWO_PI = 2.0 * np.pi

JetEvaluation = namedtuple("JetEvaluation", "value gradient hessian")


def eval_jet(provider, j, x):
    """Value, gradient and Hessian of mode j at one chart point, from jet_block."""
    x = np.asarray(x, dtype=float)
    vals, grads, hess = provider.jet_block(j, j + 1, x[None, :])
    return JetEvaluation(vals[0, 0], grads[0, 0], hess[0, 0])


def gram_matrix(provider, grid, j0, j1):
    """Quadrature Gram matrix of modes j0..j1-1 (orthonormality check)."""
    vals, _, _ = provider.jet_block(j0, j1, grid.points, deriv=0)
    return (vals * grid.weights) @ vals.T


@pytest.fixture(scope="module")
def circle_spec(circle):
    return analytic_spectrum(circle, count=64)


@pytest.fixture(scope="module")
def torus_spec(torus2):
    return analytic_spectrum(torus2, count=200)


@pytest.fixture(scope="module")
def sphere_spec(sphere):
    return analytic_spectrum(sphere, count=100)


def test_circle_sequence(circle_spec):
    pairs = enumerate_eigenpairs(circle_spec, 7)
    assert [p.lam for p in pairs] == [0.0, 1.0, 1.0, 4.0, 4.0, 9.0, 9.0]
    # cosine precedes sine within each level
    assert pairs[1].descriptor == (1, spectrum.COS)
    assert pairs[2].descriptor == (1, spectrum.SIN)


def test_torus_first_shell(torus_spec):
    lams = torus_spec.lambdas
    assert lams[0] == 0.0
    assert np.sum(lams == 1.0) == 4
    assert lams[1] == 1.0 and lams[5] == 2.0


def test_sphere_multiplicities(sphere_spec):
    lams = sphere_spec.lambdas
    for k in range(0, 7):
        assert np.sum(np.isclose(lams, k * (k + 1))) == 2 * k + 1


def test_count_exhaustion(circle_spec, product):
    with pytest.raises(SpectrumError):
        enumerate_eigenpairs(circle_spec, circle_spec.count + 1)
    with pytest.raises(SpectrumError):
        enumerate_eigenpairs(circle_spec, 0)
    with pytest.raises(SpectrumError, match="count must be at least 1"):
        analytic_spectrum(product, count=-5)


def test_circle_jet_values(circle_spec):
    jet = eval_jet(circle_spec, 1, [0.0])     # cos(x)/sqrt(pi)
    assert_allclose(jet.value, 1.0 / np.sqrt(np.pi), atol=1e-14)
    assert_allclose(jet.gradient, [0.0], atol=1e-14)
    assert_allclose(jet.hessian, [[-1.0 / np.sqrt(np.pi)]], atol=1e-14)


def test_quadrature_orthonormality(torus_spec, sphere_spec, product):
    grid = geometry.sample_grid(torus_spec.model, 24)
    G = gram_matrix(torus_spec, grid, 0, 30)
    assert_allclose(G, np.eye(30), atol=1e-6)
    sgrid = geometry.sample_grid(sphere_spec.model, 16)
    G = gram_matrix(sphere_spec, sgrid, 0, 36)
    assert_allclose(G, np.eye(36), atol=1e-6)
    pspec = analytic_spectrum(product, count=40)
    pgrid = geometry.sample_grid(product, 12)
    G = gram_matrix(pspec, pgrid, 0, 40)
    assert_allclose(G, np.eye(40), atol=1e-6)


def eigen_residual(provider, j, x):
    m = geometry.metric_on_grid(provider.model, np.asarray(x, dtype=float)[None, :])
    jet = eval_jet(provider, j, x)
    lap = (np.einsum("ij,ij->", m.g_inv[0], jet.hessian)
           - np.einsum("ij,kij,k->", m.g_inv[0], m.christoffel[0], jet.gradient))
    return abs(lap + provider.lambdas[j] * jet.value)


def test_eigen_relation(torus_spec, sphere_spec, product):
    rng = np.random.default_rng(1)
    for prov, x in [
        (torus_spec, rng.uniform(0, TWO_PI, 2)),
        (sphere_spec, np.array([1.1, 0.7])),
        (analytic_spectrum(product, count=60), np.array([1.3, 0.2, 4.0])),
    ]:
        for j in range(min(prov.count, 25)):
            lam = prov.lambdas[j]
            assert eigen_residual(prov, j, x) <= 1e-8 * (1.0 + lam)


def test_hessian_symmetry(sphere_spec):
    jet = eval_jet(sphere_spec, 7, [0.9, 2.5])
    assert_allclose(jet.hessian, jet.hessian.T, atol=1e-13)


def test_weyl_count_torus(torus2):
    # lattice count at Lambda = 100 against the Gauss-circle area pi*Lambda
    prov = analytic_spectrum(torus2, lambda_max=100.0)
    count = int(np.sum(prov.lambdas <= 100.0))
    brute = sum(1 for a in range(-11, 12) for b in range(-11, 12)
                if a * a + b * b <= 100)
    assert count == brute
    assert abs(count - np.pi * 100) <= 0.15 * np.pi * 100


def test_external_roundtrip(tmp_path, circle_spec, circle):
    grid = geometry.sample_grid(circle, 32)
    path = tmp_path / "circle.jsonl"
    save_spectrum(circle_spec, path, grid, count=9)
    prov = load_external_spectrum(path)
    assert prov.count == 9
    assert isinstance(prov, ExternalSpectrum)
    for j in (0, 3, 8):
        for x in grid.points[:5]:
            a = eval_jet(circle_spec, j, x)
            b = eval_jet(prov, j, x)
            assert_allclose(b.value, a.value, atol=1e-12)
            assert_allclose(b.gradient, a.gradient, atol=1e-12)
            assert_allclose(b.hessian, a.hessian, atol=1e-12)


def test_external_rejects_off_grid(tmp_path, circle_spec, circle):
    grid = geometry.sample_grid(circle, 16)
    path = tmp_path / "c.jsonl"
    save_spectrum(circle_spec, path, grid, count=5)
    prov = load_external_spectrum(path)
    with pytest.raises(SpectrumError):
        eval_jet(prov, 1, [0.1234567])


def test_external_rejects_decreasing_lambda(tmp_path, circle_spec, circle):
    grid = geometry.sample_grid(circle, 16)
    path = tmp_path / "c.jsonl"
    save_spectrum(circle_spec, path, grid, count=5)
    lines = path.read_text().splitlines()
    import json
    rec = json.loads(lines[2])
    rec["lambda"] = 99.0
    lines[2] = json.dumps(rec)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(SpectrumError, match="decrease"):
        load_external_spectrum(path)


def test_external_rejects_orthonormality_violation(tmp_path, circle_spec, circle):
    grid = geometry.sample_grid(circle, 16)
    path = tmp_path / "c.jsonl"
    save_spectrum(circle_spec, path, grid, count=5)
    lines = path.read_text().splitlines()
    import json
    rec = json.loads(lines[3])
    rec["values"] = [2.0 * v for v in rec["values"]]
    lines[3] = json.dumps(rec)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(SpectrumError, match="rthonormality"):
        load_external_spectrum(path)


@pytest.mark.parametrize("name", ["torus2", "circle", "sphere", "product", "external"])
def test_mode_blocks_outside_the_provider_rejected(name, request, tmp_path, circle_spec):
    """jet_block and gradient_gram reject blocks that are not inside
    0 <= j0 <= j1 <= count; an empty block at the end is legal."""
    if name == "external":
        grid = geometry.sample_grid(request.getfixturevalue("circle"), 16)
        save_spectrum(circle_spec, tmp_path / "c.jsonl", grid, count=9)
        prov = load_external_spectrum(tmp_path / "c.jsonl")
        pts = grid.points[:3]
    else:
        model = request.getfixturevalue(name)
        prov = analytic_spectrum(model, count=40)
        pts = geometry.sample_grid(model, 4).points[:3]
    M, n = prov.count, pts.shape[1]
    for j0, j1 in ((M - 2, M + 5), (-1, 3), (5, 3), (M + 1, M + 1)):
        with pytest.raises(SpectrumError, match="outside"):
            prov.jet_block(j0, j1, pts)
    for j0, size in ((M - 2, 7), (-1, 3), (M + 1, 0)):
        with pytest.raises(SpectrumError, match="outside"):
            prov.gradient_gram(j0, np.ones(size), pts)
    vals, grads, hess = prov.jet_block(M, M, pts)
    assert (vals.shape, grads.shape, hess.shape) == ((0, 3), (0, 3, n), (0, 3, n, n))
    assert np.array_equal(prov.gradient_gram(M, np.ones(0), pts), np.zeros((3, n, n)))


def test_rescaled_circle(circle):
    base = analytic_spectrum(circle, count=20)
    c2 = 1.21
    scaled = analytic_spectrum(rescaled_model(circle, [c2]), count=20)
    assert_allclose(scaled.lambdas[1], 1.0 / c2, rtol=1e-12)
    # eigenfunctions renormalized by 1/sqrt(c): value scales as c^{-1/4}
    a = eval_jet(base, 1, [0.0]).value
    b = eval_jet(scaled, 1, [0.0]).value
    assert_allclose(b, a / c2**0.25, rtol=1e-12)


def test_rescaled_identity(torus2):
    base = analytic_spectrum(torus2, count=30)
    same = analytic_spectrum(rescaled_model(torus2, [1.0]), count=30)
    assert_allclose(same.lambdas[:30], base.lambdas[:30], rtol=0, atol=0)


def test_rescaled_product_orthonormal(product):
    t = 0.09
    factors = (1 + t / 9.0, 1 - 2 * t / 9.0)
    scaled = analytic_spectrum(rescaled_model(product, factors), count=40)
    # block eigenvalues divide by their factors
    sphere_lam = 2.0 / factors[0]       # degree-1 level of the sphere block
    circle_lam = 1.0 / factors[1]
    assert np.any(np.isclose(scaled.lambdas, sphere_lam, rtol=1e-12))
    assert np.any(np.isclose(scaled.lambdas, circle_lam, rtol=1e-12))
    # orthonormality holds in the rescaled volume measure
    grid = geometry.sample_grid(scaled.model, 12)
    G = gram_matrix(scaled, grid, 0, 30)
    assert_allclose(G, np.eye(30), atol=1e-6)


def test_rescaled_rejects_bad_input(circle):
    with pytest.raises(ConfigError, match="strictly positive"):
        rescaled_model(circle, [-1.0])


def test_completeness_tail(torus2, circle):
    """Discarded gradient mass decays below exp(-t^(-rho/n)) at policy q."""
    from heatconf import TruncationPolicy, tail_bound_check
    prov = analytic_spectrum(circle, count=600)
    tail, bound, ok = tail_bound_check(prov, 0.1, TruncationPolicy(rho=1.0),
                                       resolution=32)
    assert ok and tail <= bound
    tprov = analytic_spectrum(torus2, count=10100)
    tail, bound, ok = tail_bound_check(tprov, 0.02, TruncationPolicy(rho=1.0),
                                       resolution=16)
    assert ok and tail <= bound


@pytest.fixture(scope="module")
def deriv_providers(torus2, circle, sphere, product, tmp_path_factory):
    """Providers of every backing, keyed by name, with a grid to query them on."""
    torus = analytic_spectrum(torus2, count=200)
    prod = analytic_spectrum(product, count=200)
    tgrid = geometry.sample_grid(torus2, 8)
    path = tmp_path_factory.mktemp("deriv") / "torus.jsonl"
    save_spectrum(torus, path, tgrid, count=21)
    return {
        "torus": (torus, tgrid),
        "circle": (analytic_spectrum(circle, count=64), geometry.sample_grid(circle, 16)),
        "sphere": (analytic_spectrum(sphere, count=100), geometry.sample_grid(sphere, 6)),
        "product": (prod, geometry.sample_grid(product, 6)),
        "rescaled_product": (analytic_spectrum(rescaled_model(product, (1.1, 0.8)), count=200),
                             geometry.sample_grid(product, 6)),
        "external": (load_external_spectrum(path), tgrid),
    }


@pytest.mark.parametrize("name", ["torus", "circle", "sphere", "product",
                                  "rescaled_product", "external"])
def test_jet_block_derivative_order(deriv_providers, name):
    """Lower orders return the leading arrays of the full jets exactly and
    leave the others zero-size."""
    prov, grid = deriv_providers[name]
    j0, j1 = 3, min(prov.count, 40)
    assert prov.lambdas[j0] < prov.lambdas[j1 - 1]       # the block crosses a shell
    full = prov.jet_block(j0, j1, grid.points)
    for deriv in (0, 1):
        out = prov.jet_block(j0, j1, grid.points, deriv=deriv)
        assert len(out) == 3
        for order, (got, want) in enumerate(zip(out, full)):
            if order <= deriv:
                assert got.shape == want.shape
                assert np.array_equal(got, want)
            else:
                assert got.size == 0 and got.dtype == np.float64
    with pytest.raises(SpectrumError, match="derivative order"):
        prov.jet_block(j0, j1, grid.points, deriv=3)


def test_product_jets_are_factor_products():
    """S^2(R) x S^1(L) jets over a 1024-mode block against products of
    independently built sphere and circle jets, matched by descriptor."""
    R, L = 0.8, 3.0
    prov = analytic_spectrum(ManifoldModel.product_sphere_circle(R, L), count=1600)
    sph = spectrum.SphereSpectrum(ManifoldModel.sphere2(R), prov.lambda_max)
    circ = spectrum.CircleSpectrum(ManifoldModel.circle(L), prov.lambda_max)
    rng = np.random.default_rng(5)
    pts = np.column_stack([rng.uniform(0.2, np.pi - 0.2, 40),
                           rng.uniform(0.0, TWO_PI, 40), rng.uniform(0.0, TWO_PI, 40)])
    j0, j1 = 500, 1524
    vals, grads, hess = prov.jet_block(j0, j1, pts)
    sv, sg, sh = sph.jet_block(0, sph.count, pts[:, :2])
    cv, cg, ch = circ.jet_block(0, circ.count, pts[:, 2:])
    s_index = {ep.descriptor: ep.index for ep in sph.eigenpairs}
    c_index = {ep.descriptor: ep.index for ep in circ.eigenpairs}
    si = np.array([s_index[ep.descriptor[:3]] for ep in prov.eigenpairs[j0:j1]])
    ci = np.array([c_index[ep.descriptor[3:]] for ep in prov.eigenpairs[j0:j1]])
    Y, dY, HY = sv[si], sg[si], sh[si]
    c, dc, d2c = cv[ci], cg[ci, :, 0], ch[ci, :, 0, 0]
    want_grads = np.concatenate([dY * c[..., None], (Y * dc)[..., None]], axis=-1)
    want_hess = np.empty_like(hess)
    want_hess[..., :2, :2] = HY * c[..., None, None]
    want_hess[..., :2, 2] = want_hess[..., 2, :2] = dY * dc[..., None]
    want_hess[..., 2, 2] = Y * d2c
    for got, want in [(vals, Y * c), (grads, want_grads), (hess, want_hess)]:
        assert_allclose(got, want, rtol=1e-14, atol=1e-14 * np.max(np.abs(want)))


def test_product_jets_gather_repeated_points():
    """Repeated and reordered points get bit-identical jet columns: each
    distinct (theta, phi) row and s is evaluated once and gathered."""
    prov = analytic_spectrum(ManifoldModel.product_sphere_circle(0.8, 3.0), count=300)
    pts = geometry.sample_grid(prov.model, 6).points
    rng = np.random.default_rng(9)
    order = rng.permutation(np.concatenate([np.arange(len(pts)), rng.integers(0, len(pts), 50)]))
    for full, gathered in zip(prov.jet_block(5, 290, pts), prov.jet_block(5, 290, pts[order])):
        assert np.array_equal(gathered, full[:, order])


def test_legendre_jets_build_only_requested_tables():
    """Lower orders return the deriv=2 tables bit for bit and leave the
    others unbuilt (zero-size)."""
    theta = np.array([0.05, 1.0, np.pi / 2, 2.0, np.pi - 0.05])
    full = spectrum._legendre_jets(40, theta, 2)
    for deriv in (0, 1):
        for order, (got, want) in enumerate(zip(spectrum._legendre_jets(40, theta, deriv),
                                                full)):
            if order <= deriv:
                assert np.array_equal(got, want)
            else:
                assert got.size == 0


def _reference_torus_modes(periods, lambda_max):
    """Lattice modes by a per-vector loop and a tuple sort, as (lambdas, descriptors)."""
    L = np.asarray(periods)
    kmax = np.floor(np.sqrt(lambda_max) * L / TWO_PI).astype(int)
    lattice = geometry._mesh([np.arange(-km, km + 1) for km in kmax]).astype(int)
    kappa = lattice * (TWO_PI / L)
    lam = np.sum(kappa * kappa, axis=1)
    modes = []
    for kvec, lv in zip(lattice, lam):
        nz = kvec[kvec != 0]
        if lv > lambda_max or (nz.size and nz[0] < 0):
            continue
        modes.append((float(lv), tuple(kvec.tolist()) + (spectrum.COS,)))
        if nz.size:
            modes.append((float(lv), tuple(kvec.tolist()) + (spectrum.SIN,)))
    modes.sort()
    return [lam for lam, _ in modes], [desc for _, desc in modes]


@pytest.mark.parametrize("periods, lambda_max", [
    ([TWO_PI, TWO_PI], 150.0),
    ([TWO_PI, 3.1], 150.0),
    ([TWO_PI, 3.1, 4.0], 60.0),
])
def test_torus_enumeration_matches_reference(periods, lambda_max):
    prov = spectrum.TorusSpectrum(ManifoldModel.flat_torus(periods), lambda_max)
    lams, descs = _reference_torus_modes(periods, lambda_max)
    assert prov.lambdas.tolist() == lams
    assert [ep.lam for ep in prov.eigenpairs] == lams
    assert [ep.descriptor for ep in prov.eigenpairs] == descs
    assert all(type(k) is int for ep in prov.eigenpairs for k in ep.descriptor)


def _direct_torus_jets(prov, j0, j1, points):
    """amp * cos/sin(kappa . x) and its closed-form derivatives, mode by mode."""
    L = np.asarray(prov.model.periods)
    vals, grads, hess = [], [], []
    for ep in prov.eigenpairs[j0:j1]:
        k = np.array(ep.descriptor[:-1])
        kappa = TWO_PI * k / L
        amp = np.sqrt((2.0 if k.any() else 1.0) / prov.model.volume)
        phase = points @ kappa
        if ep.descriptor[-1] == spectrum.COS:
            f, df = amp * np.cos(phase), -amp * np.sin(phase)
        else:
            f, df = amp * np.sin(phase), amp * np.cos(phase)
        vals.append(f)
        grads.append(df[:, None] * kappa)
        hess.append(-f[:, None, None] * np.outer(kappa, kappa))
    return np.array(vals), np.array(grads), np.array(hess)


def _assert_close_scaled(got, want, rtol):
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= rtol * np.max(np.abs(want))


def test_torus_jets_match_direct_trig():
    """Lattice jets against amp * cos/sin(kappa . x) at off-lattice points."""
    rng = np.random.default_rng(11)
    cases = []
    prov2 = spectrum.TorusSpectrum(ManifoldModel.flat_torus([TWO_PI, 3.1]), 150.0)
    pts2 = rng.uniform(0.0, 1.0, (37, 2)) * [TWO_PI, 3.1]
    sin_mode = next(ep.index for ep in prov2.eigenpairs[50:]
                    if ep.descriptor[-1] == spectrum.SIN)
    cos_mode = next(ep.index for ep in prov2.eigenpairs[200:]
                    if ep.descriptor[-1] == spectrum.COS)
    # j0 on a sin mode, j1 splitting the next pair; the zero mode; the whole table
    cases += [(prov2, sin_mode, cos_mode + 1, pts2), (prov2, 0, 1, pts2),
              (prov2, 0, prov2.count, pts2)]
    prov3 = spectrum.TorusSpectrum(ManifoldModel.flat_torus([TWO_PI, 3.1, 4.0]), 60.0)
    pts3 = geometry._mesh([np.sort(rng.uniform(0.0, L, 5)) for L in (TWO_PI, 3.1, 4.0)])
    assert pts3.shape == (125, 3)
    cases += [(prov3, 1, prov3.count, pts3), (prov3, 0, 7, pts3)]
    for prov, j0, j1, pts in cases:
        for got, want in zip(prov.jet_block(j0, j1, pts), _direct_torus_jets(prov, j0, j1, pts)):
            _assert_close_scaled(got, want, 1e-12)
    x = pts2[3]
    for j in (0, sin_mode, cos_mode):
        jet = eval_jet(prov2, j, x)
        want = [a[0, 0] for a in _direct_torus_jets(prov2, j, j + 1, x[None, :])]
        for got, ref in zip((jet.value, jet.gradient, jet.hessian), want):
            _assert_close_scaled(np.asarray(got), ref, 1e-12)


def _jet_exponents(n, order):
    """Every exponent vector of n entries with |e| <= order."""
    return [np.array(e) for e in np.ndindex(*(order + 1,) * n) if sum(e) <= order]


def _direct_derivative(prov, j0, j1, points, alpha):
    """D^alpha of amp * cos/sin(kappa . x), mode by mode: the real and
    imaginary part of amp i^|alpha| kappa^alpha exp(i kappa . x)."""
    out = []
    for j in range(j0, j1):
        kappa = prov._kappa[j]
        wave = (1j ** int(alpha.sum()) * np.prod(kappa ** alpha)
                * np.exp(1j * (points @ kappa)) * prov._amp[j])
        out.append(wave.real if prov._parity[j] == spectrum.COS else wave.imag)
    return np.array(out)


def _whole_pair_block(periods, t):
    """A lattice provider on `periods`, the end j1 of its longest run of whole
    cos/sin pairs from mode 1, and weights exp(-t lambda) of modes 1..j1-1."""
    n = len(periods)
    model = (ManifoldModel.circle(TWO_PI) if n == 1
             else ManifoldModel.flat_torus(periods))
    prov = analytic_spectrum(model, count={1: 30, 2: 300, 3: 120}[n])
    j1 = prov.count - (prov._parity[prov.count - 1] == spectrum.COS)
    return prov, j1, np.exp(-t * prov.lambdas[1:j1])


@pytest.mark.parametrize("periods", [[TWO_PI, TWO_PI], [TWO_PI, 3.1],
                                     [TWO_PI, TWO_PI, TWO_PI], [TWO_PI]],
                         ids=["torus2", "torus2-3.1", "torus3", "circle"])
def test_jet_moments_match_brute_force_sums(periods):
    """The jet pair sums sum_j w_j^2 D^a phi_j D^b phi_j at random points equal
    the pair sums sum_kappa s_kappa Re((i kappa)^a conj((i kappa)^b)) of
    `pairs`: from jet_block for |a|, |b| <= 2, and from direct trig
    derivatives up to |a|, |b| <= 4."""
    n = len(periods)
    prov, j1, w = _whole_pair_block(periods, 0.05)
    rng = np.random.default_rng(5)
    pts = rng.uniform(0.0, 1.0, (7, n)) * np.asarray(periods)
    kappa, s, _ = prov.pairs(1, w, pts)
    vals, grads, hess = prov.jet_block(1, j1, pts)
    eye = np.eye(n, dtype=int)
    jets = [(np.zeros(n, dtype=int), vals)]
    jets += [(eye[a], grads[:, :, a]) for a in range(n)]
    jets += [(eye[a] + eye[b], hess[:, :, a, b]) for a in range(n) for b in range(n)]
    direct = [(e, _direct_derivative(prov, 1, j1, pts, e)) for e in _jet_exponents(n, 4)]
    symbol = lambda e: np.prod((1j * kappa) ** e, axis=1)                # [V]
    sums = [((a, b), (w**2) @ (A * B), s @ (symbol(a) * symbol(b).conj()).real)
            for table in (jets, direct) for (a, A) in table for (b, B) in table]
    scale = max(abs(pair_sum) for _, _, pair_sum in sums)
    for key, brute, pair_sum in sums:
        assert np.max(np.abs(brute - pair_sum)) <= 1e-12 * scale, key


@pytest.mark.parametrize("periods", [[TWO_PI, TWO_PI], [TWO_PI, 3.1],
                                     [TWO_PI, TWO_PI, TWO_PI], [TWO_PI]],
                         ids=["torus2", "torus2-3.1", "torus3", "circle"])
def test_pair_kappas_give_the_gradients(periods):
    """`pairs` reads the weighted (cos, sin) rows of jet_block as the complex
    modes w a exp(i kappa . x): psi equals them bit for bit, |psi|^2 = s to
    1e-15, and d_a psi = i kappa_a psi matches their gradients to 1e-13."""
    n = len(periods)
    prov, j1, w = _whole_pair_block(periods, 0.1)
    pts = np.random.default_rng(6).uniform(0.0, 1.0, (9, n)) * np.asarray(periods)
    kappa, s, psi = prov.pairs(1, w, pts)
    assert kappa.shape == ((j1 - 1) // 2, n) and psi.shape == (len(pts), len(kappa))
    vals, grads, _ = prov.jet_block(1, j1, pts, deriv=1)
    vals *= w[:, None]
    grads *= w[:, None, None]
    assert np.array_equal(psi.view(float), vals.T)
    assert_allclose(np.abs(psi) ** 2, np.broadcast_to(s, psi.shape), rtol=1e-15)
    dpsi = np.ascontiguousarray(grads.transpose(1, 2, 0)).view(complex)  # [N, n, V]
    assert np.max(np.abs(dpsi - 1j * kappa.T * psi[:, None])) <= 1e-13 * np.max(np.abs(dpsi))


def test_jet_moments_reject_split_pairs(torus_spec):
    """`pairs` refuses a block that holds the constant mode, starts on a sin
    mode or ends on a cos mode, or gives a pair two weights: such a block
    has no complex-pair reading, and its jet sums vary in x."""
    q = 100
    assert torus_spec._parity[2] == spectrum.SIN and torus_spec._parity[q - 1] == spectrum.COS
    pts = np.random.default_rng(7).uniform(0.0, TWO_PI, (3, 2))
    w = np.ones(q)
    for j0, weights in ((0, w[:q - 1]), (0, w[:1]), (2, w[:q - 2]), (1, w[:q - 1])):
        with pytest.raises(PreconditionError, match="not a run of whole cos/sin pairs"):
            torus_spec.pairs(j0, weights, pts)
    uneven = w[:q - 2].copy()
    uneven[1] = 2.0
    with pytest.raises(PreconditionError, match="two weights"):
        torus_spec.pairs(1, uneven, pts)
    kappa, s, psi = torus_spec.pairs(1, w[:q - 2], pts)
    assert kappa.shape == ((q - 2) // 2, 2) and psi.shape == (3, (q - 2) // 2)


@pytest.mark.parametrize("kind, lambda_max, what", [
    ("torus2", 1e14, "a lattice box of 4e+14 vectors"),
    ("torus3", 1e300, "a lattice box of inf vectors"),
    ("circle", 1e14, "2e+07 circle modes"),
    ("sphere", 1e14, "1e+14 sphere modes"),
    ("product", 1e5, "sphere x circle modes"),
])
def test_enumeration_refuses_a_window_past_memory(kind, lambda_max, what, monkeypatch):
    """Each provider refuses an eigenvalue window whose candidate modes would
    not fit in memory before building them; so does a count past memory.  On
    S^2 x S^1 at lambda_max = 1e5 the sphere and circle modes fit, and the
    [sphere, circle] box does not."""
    model = {"torus2": ManifoldModel.flat_torus([TWO_PI] * 2),
             "torus3": ManifoldModel.flat_torus([TWO_PI] * 3),
             "circle": ManifoldModel.circle(TWO_PI),
             "sphere": ManifoldModel.sphere2(1.0),
             "product": ManifoldModel.product_sphere_circle(1.0, TWO_PI)}[kind]
    monkeypatch.setattr(geometry, "available_bytes", lambda: 2**24)
    with pytest.raises(PreconditionError, match="GB available") as exc:
        analytic_spectrum(model, lambda_max=lambda_max)
    assert what in str(exc.value)
    with pytest.raises(PreconditionError, match="a spectrum of 1e\\+12 modes"):
        analytic_spectrum(model, count=10**12)


def _reference_product_modes(R, L, lambda_max):
    """S^2(R) x S^1(L) modes by nested loops over (k, j, m, parities) and a tuple sort."""
    jmax = int(np.floor(np.sqrt(lambda_max) * L / TWO_PI))
    modes = []
    k = 0
    while k * (k + 1) / R**2 <= lambda_max:
        for j in range(jmax + 1):
            lam = k * (k + 1) / R**2 + (TWO_PI * j / L) ** 2
            if lam > lambda_max:
                break
            for m in range(k + 1):
                for ps in (spectrum.COS, spectrum.SIN) if m > 0 else (spectrum.COS,):
                    for pc in (spectrum.COS, spectrum.SIN) if j > 0 else (spectrum.COS,):
                        modes.append((lam, (k, m, ps, j, pc)))
        k += 1
    modes.sort()
    return [lam for lam, _ in modes], [desc for _, desc in modes]


def _reference_sphere_modes(R, lambda_max):
    """S^2(R) modes (k, m, parity) by a loop over degree and order."""
    R2 = R**2
    modes = []
    k = 0
    while k * (k + 1) / R2 <= lambda_max:
        lam = k * (k + 1) / R2
        for m in range(0, k + 1):
            modes.append((lam, (k, m, spectrum.COS)))
            if m > 0:
                modes.append((lam, (k, m, spectrum.SIN)))
        k += 1
    return modes


def _reference_circle_modes(L, lambda_max):
    """S^1(L) modes (k, parity) by a loop over the wavenumber."""
    kmax = int(np.floor(np.sqrt(max(lambda_max, 0.0)) * L / TWO_PI))
    modes = [(0.0, (0, spectrum.COS))]
    for k in range(1, kmax + 1):
        lam = (2.0 * np.pi * k / L) ** 2
        modes.append((lam, (k, spectrum.COS)))
        modes.append((lam, (k, spectrum.SIN)))
    return modes


@pytest.mark.parametrize("enumerate_modes, reference, size, lambda_max", [
    (spectrum._sphere_modes, _reference_sphere_modes, 1.0, 160.0),
    (spectrum._sphere_modes, _reference_sphere_modes, 0.8, 90.0),
    (spectrum._sphere_modes, _reference_sphere_modes, 1.3, 200 * 201 / 1.3**2),
    (spectrum._sphere_modes, _reference_sphere_modes, 1.0, 0.0),
    # lambda = (2 pi k / L)^2 where x * x and libm pow(x, 2) round apart:
    # k = 595 at L = 3 and k = 305 at L = 6.3
    (spectrum._circle_modes, _reference_circle_modes, 3.0, 1.6e6),
    (spectrum._circle_modes, _reference_circle_modes, 6.3, 1e5),
    (spectrum._circle_modes, _reference_circle_modes, TWO_PI, 0.5),
], ids=["s1", "s0.8", "s1.3-deg200", "s-constant", "c3", "c6.3", "c-constant"])
def test_factor_enumeration_matches_reference(enumerate_modes, reference, size,
                                              lambda_max):
    """Array enumeration of the sphere and circle factors reproduces the mode
    loop, eigenvalues bit for bit and in the same order."""
    lams, desc = enumerate_modes(size, lambda_max)
    modes = reference(size, lambda_max)
    assert np.array_equal(lams, [lam for lam, _ in modes])
    assert desc.dtype.kind == "i"
    assert np.array_equal(desc, [d for _, d in modes])


@pytest.mark.parametrize("R, L, lambda_max", [(1.0, TWO_PI, 160.0), (0.8, 3.0, 90.0)])
def test_product_enumeration_matches_reference(R, L, lambda_max):
    prov = spectrum.ProductSpectrum(ManifoldModel.product_sphere_circle(R, L), lambda_max)
    lams, descs = _reference_product_modes(R, L, lambda_max)
    assert prov.lambdas.tolist() == lams
    assert [(ep.lam, ep.descriptor) for ep in prov.eigenpairs] == list(zip(lams, descs))


def _scipy_sphere_jets(radius, desc, points):
    """Real spherical-harmonic jets from scipy's fully normalized P_k^m(x) and
    its x-derivatives at x = cos(theta), mode by mode: the test oracle."""
    from scipy.special import assoc_legendre_p_all

    kk, mm, even = desc[:, 0], desc[:, 1], (desc[:, 2] == spectrum.COS)[:, None]
    theta, phi = points[:, 0], points[:, 1]
    kmax = int(kk.max())
    P, dP, d2P = (t[kk, mm] / np.sqrt(TWO_PI) for t in
                  assoc_legendre_p_all(kmax, kmax, np.cos(theta), norm=True, diff_n=2))
    s, c = np.sin(theta), np.cos(theta)
    P_t, P_tt = -s * dP, s * s * d2P - c * dP
    A = np.where(mm > 0, np.sqrt(2.0), 1.0)[:, None] / radius
    m = mm[:, None]
    T = np.where(even, np.cos(m * phi), np.sin(m * phi))
    dT = m * np.where(even, -np.sin(m * phi), np.cos(m * phi))
    hess = np.empty(T.shape + (2, 2))
    hess[..., 0, 0], hess[..., 1, 1] = A * P_tt * T, -m * m * A * P * T
    hess[..., 0, 1] = hess[..., 1, 0] = A * P_t * dT
    return A * P * T, np.stack([A * P_t * T, A * P * dT], axis=-1), hess


def _shell(prov, k):
    """Mode range [j0, j1) of sphere degree k."""
    j0, j1 = k * k, (k + 1) ** 2
    assert np.all(prov.lambdas[j0:j1] == k * (k + 1) / prov.model.radius**2)
    return j0, j1


def test_sphere_jets_match_scipy_normalized_legendre():
    """Values, gradients and Hessians of whole shells up to degree 200 against
    scipy's normalized Legendre functions, the error of order p scaled by
    sqrt((2k+1)/4pi) (k+1)^p / R."""
    R = 1.3
    prov = spectrum.SphereSpectrum(ManifoldModel.sphere2(R), 200 * 201 / R**2)
    pts = np.vstack([geometry.sample_grid(prov.model, 8).points,
                     [[0.2, 0.4], [np.pi - 0.2, 5.0]]])
    for k in (0, 1, 2, 3, 10, 45, 87, 88, 95, 130, 160, 200):
        j0, j1 = _shell(prov, k)
        desc = np.array([ep.descriptor for ep in prov.eigenpairs[j0:j1]])
        for p, (got, want) in enumerate(zip(prov.jet_block(j0, j1, pts),
                                            _scipy_sphere_jets(R, desc, pts))):
            scale = np.sqrt((2 * k + 1) / (4 * np.pi)) * (k + 1) ** p / R
            assert np.max(np.abs(got - want)) <= 1e-12 * scale, (k, p)


def _addition_theorem_errors(prov, k, points):
    """Relative errors of sum_m Y_km^2 = (2k+1)/(4 pi R^2) and of
    sum_m |grad Y_km|^2 = lambda_k (2k+1)/(4 pi R^2), per point."""
    j0, j1 = _shell(prov, k)
    vals, grads, _ = prov.jet_block(j0, j1, points, deriv=1)
    frame = geometry.metric_on_grid(prov.model, points).frame
    density = (2 * k + 1) / (4 * np.pi * prov.model.radius**2)
    frame_grads = np.einsum("mpi,pia->mpa", grads, frame)
    return (np.abs(np.sum(vals**2, axis=0) / density - 1.0),
            np.abs(np.sum(frame_grads**2, axis=(0, 2)) / (prov.lambdas[j0] * density) - 1.0))


def test_sphere_addition_theorem_at_high_degree():
    """Degrees 87-120 on the 8-grid, where gammaln-scaled tables lose accuracy."""
    prov = spectrum.SphereSpectrum(ManifoldModel.sphere2(1.3), 120 * 121 / 1.3**2)
    pts = geometry.sample_grid(prov.model, 8).points
    for k in range(87, 121):
        for err in _addition_theorem_errors(prov, k, pts):
            assert np.max(err) <= 1e-12, k


def test_sphere_jets_finite_at_degree_1000():
    prov = spectrum.SphereSpectrum(ManifoldModel.sphere2(1.0), 1000 * 1001)
    theta = np.array([0.05, 1.0, 2.0, np.pi - 0.05])
    pts = np.column_stack([theta, [0.3, 2.0, 4.1, 5.9]])
    for err in _addition_theorem_errors(prov, 1000, pts):
        assert np.all(np.isfinite(err)) and np.max(err) <= 1e-12


def test_sphere_jets_do_not_import_scipy_special(tmp_path):
    """The CLI and an S^2 x S^1 jet block load no scipy.special, and a CLI run
    loads no scipy and no jsonschema."""
    import json
    import os
    import subprocess
    import sys
    from pathlib import Path

    import heatconf

    cfg = tmp_path / "circle.json"
    cfg.write_text(json.dumps({"model": {"kind": "circle", "params": {"length": 6.3}},
                               "spectrum": {"count": 3}}))
    code = ("import sys\n"
            "import numpy as np\n"
            "import heatconf.cli\n"
            "from heatconf import ManifoldModel, analytic_spectrum\n"
            "prov = analytic_spectrum(ManifoldModel.product_sphere_circle(1.0, 6.3), count=60)\n"
            "prov.jet_block(0, prov.count, np.array([[0.5, 1.0, 2.0], [2.0, 3.0, 1.0]]))\n"
            "assert heatconf.cli.main(['--config', sys.argv[1], '--out', sys.argv[2],\n"
            "                          'spectrum']) == 0\n"
            "assert 'scipy.special' not in sys.modules\n"
            "assert 'scipy' not in sys.modules\n"
            "assert 'jsonschema' not in sys.modules\n")
    src = str(Path(heatconf.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    proc = subprocess.run([sys.executable, "-c", code, str(cfg), str(tmp_path / "out")],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
