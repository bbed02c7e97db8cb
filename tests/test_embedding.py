"""Embedding construction, pullback metrics, defect, correction, tails."""
import copy
import dataclasses
import json
import re

import numpy as np
import pytest
from numpy.testing import assert_allclose

from heatconf import (CorrectionSpec, ManifoldModel, TruncationPolicy, analytic_spectrum,
                      build_embedding, conformal_defect, corrected_model, defect_scan,
                      h1_solve, tail_bound_check)
from heatconf import acceptance, analysis, cli, embedding, geometry, spectrum
from heatconf.errors import ConfigError, PreconditionError, SpectrumError

TWO_PI = 2.0 * np.pi


def pullback_at(emb, x) -> np.ndarray:
    """Pullback metric at one chart point, a batch of one."""
    return emb.pullback_on(np.asarray(x, dtype=float)[None, :])[0]


def test_normalization_constant():
    model = ManifoldModel.circle(TWO_PI)
    prov = analytic_spectrum(model, count=40)
    with pytest.warns(UserWarning):      # t = 1 is flagged as non-asymptotic
        emb = build_embedding(prov, 1.0, TruncationPolicy(q_override=8))
    assert_allclose(emb.c_norm, np.sqrt(2.0) * (4 * np.pi) ** 0.25, rtol=1e-14)


def test_policy_arithmetic():
    pol = TruncationPolicy(rho=1.0)
    assert pol.q(0.1, 1) == 32            # ceil(0.1^-1.5)
    assert pol.q(0.05, 2) == 400
    with pytest.raises(ConfigError):
        TruncationPolicy(q_override=0)
    with pytest.raises(ConfigError):
        TruncationPolicy(q_override=3).q(0.1, 2)   # below the freeness floor
    with pytest.raises(ConfigError):
        TruncationPolicy(rho=-1.0)
    with pytest.raises(ConfigError, match="t must be positive"):
        TruncationPolicy().q(0.0, 2)
    with pytest.raises(ConfigError, match="t must be positive"):
        TruncationPolicy(rho=0.5).q(-0.1, 2)


def test_build_embedding_needs_spectrum(circle):
    prov = analytic_spectrum(circle, count=10)
    with pytest.raises(SpectrumError, match="insufficient"):
        build_embedding(prov, 0.1, TruncationPolicy(rho=1.0))
    with pytest.raises(ConfigError):
        build_embedding(prov, -0.1, TruncationPolicy(q_override=5))


def test_shell_closing(torus2):
    # q = 5 lands inside the first shell (lambda = 1 has multiplicity 4,
    # lambda = 2 has multiplicity 4): component 5 splits it, so q extends to 8
    prov = analytic_spectrum(torus2, count=40)
    emb = build_embedding(prov, 0.3, TruncationPolicy(q_override=6))
    assert emb.q == 8
    assert prov.lambdas[emb.q] < prov.lambdas[emb.q + 1]


def test_circle_pullback_poisson(circle):
    """Full-sum scale factor is 1 up to e^{-pi^2/t}; truncation adds ~6e-12."""
    prov = analytic_spectrum(circle, count=120)
    emb = build_embedding(prov, 0.1, TruncationPolicy(rho=1.0))
    assert emb.q >= 32
    grid = geometry.sample_grid(circle, 32)
    G = emb.pullback_on(grid.points)
    # independent oracle: direct extended summation of the mode series
    ks = np.arange(1, (emb.q // 2) + 1)
    oracle = (4 * 0.1**1.5 / np.sqrt(np.pi)) * np.sum(ks**2 * np.exp(-ks**2 * 0.1))
    assert_allclose(G[:, 0, 0], oracle, rtol=1e-13)
    assert np.max(np.abs(G[:, 0, 0] - 1.0)) <= 1e-8


def test_torus_pullback_symmetry(torus2):
    prov = analytic_spectrum(torus2, count=500)
    emb = build_embedding(prov, 0.1, TruncationPolicy(rho=1.0))
    grid = geometry.sample_grid(torus2, 16)
    G = emb.pullback_on(grid.points)
    assert np.max(np.abs(G[:, 0, 1])) <= 1e-12
    assert np.max(np.abs(G[:, 0, 0] - G[:, 1, 1])) <= 1e-12
    # lattice-symmetry oracle: each lattice vector pair {m, -m} carries one
    # cosine and one sine mode whose gradient outer products sum to m m^T/(2 pi^2)
    lam_max = emb.provider.lambdas[emb.q] + 1e-9
    ms = [(a, b) for a in range(-40, 41) for b in range(-40, 41)
          if (a, b) != (0, 0) and a * a + b * b <= lam_max]
    assert len(ms) == emb.q
    s = np.zeros((2, 2))
    for a, b in ms:
        s += np.exp(-(a * a + b * b) * 0.1) * np.outer([a, b], [a, b])
    oracle = emb.c_norm**2 * s / (2 * np.pi**2) / 2.0
    assert_allclose(G[0], oracle, rtol=1e-10, atol=1e-14)


def test_pullback_empty_sum(torus2):
    # test hook: zero retained components give the zero matrix
    prov = analytic_spectrum(torus2, count=30)
    emb = embedding.EmbeddingMap(prov, 0.1, 0)
    assert_allclose(emb.pullback_on(np.array([[0.1, 0.2]])), 0.0)


def test_pullback_single_point_matches_grid(torus2, torus_embedding):
    pts = geometry.sample_grid(torus2, 6).points
    G = torus_embedding.pullback_on(pts)
    for i in (0, 7, 35):
        assert_allclose(pullback_at(torus_embedding, pts[i]), G[i], rtol=1e-14,
                        atol=1e-14 * np.max(np.abs(G)))


def test_conformal_defect_basics():
    g = np.eye(2)
    assert_allclose(conformal_defect(g, g)[0], 0.0, atol=1e-15)
    d, tr = conformal_defect(7.0 * g, g)
    assert_allclose(d, 0.0, atol=1e-15)
    assert tr == 7.0
    eps = 1e-3
    d, tr = conformal_defect(np.diag([1 + eps, 1.0]), g)
    assert_allclose(d, np.diag([eps / 2, -eps / 2]), atol=1e-15)
    assert_allclose(tr, 1 + eps / 2, rtol=1e-15)
    # a batch of curved reference metrics, with and without the inverse given
    g = np.array([np.diag([2.0, 0.5]), np.diag([1.0, 4.0])])
    for g_inv in (None, np.array([np.diag([0.5, 2.0]), np.diag([1.0, 0.25])])):
        d, tr = conformal_defect(3.0 * g, g, g_inv)
        assert_allclose(d, 0.0, atol=1e-15)
        assert_allclose(tr, [3.0, 3.0], rtol=1e-15)


def test_conformal_defect_identity_metric_is_diagonal_trace():
    """With g = I the shared trace-free part, which the flat-torus solver
    calls, is W - (tr W / n) I bit for bit, for n = 2 and 3."""
    rng = np.random.default_rng(12)
    for n in (2, 3):
        W = rng.standard_normal((500, n, n))
        W = W + W.transpose(0, 2, 1)
        eye = np.eye(n)
        d, tr = conformal_defect(W, eye)
        want_tr = np.einsum("nii->n", W) / n
        assert np.array_equal(tr, want_tr)
        assert np.array_equal(d, W - want_tr[:, None, None] * eye)


def test_conformal_defect_idempotent():
    rng = np.random.default_rng(2)
    g = np.eye(3)
    G = rng.standard_normal((3, 3))
    G = G + G.T
    d1, _ = conformal_defect(G, g)
    d2, tr2 = conformal_defect(d1, g)
    assert_allclose(d2, d1, atol=1e-12)
    assert_allclose(tr2, 0.0, atol=1e-12)


def test_conformal_defect_singular_metric():
    with pytest.raises(PreconditionError):
        conformal_defect(np.eye(2), np.zeros((2, 2)))


def test_h1_solve(product):
    m = geometry.metric_on_grid(product, np.array([[1.2, 0.3, 0.8], [0.5, 2.0, 4.0]]))
    assert_allclose(h1_solve(np.zeros((2, 3, 3)), m.g, 0.0), 0.0, atol=1e-15)
    rng = np.random.default_rng(4)
    A1 = rng.standard_normal((2, 3, 3))
    A1 = A1 + A1.transpose(0, 2, 1)
    eta1 = 0.37
    h1 = h1_solve(A1, m.g, eta1)
    tr = np.einsum("nij,nij->n", m.g_inv, h1) / 3.0
    assert_allclose(tr, eta1, atol=1e-12)
    # trace-free parts cancel: tf(h1) = -tf(A1)
    assert_allclose(conformal_defect(h1, m.g)[0], -conformal_defect(A1, m.g)[0], atol=1e-12)


def test_corrected_model_product(product):
    h1 = np.diag([1 / 9.0, 1 / 9.0, -2 / 9.0])
    model2 = corrected_model(product, h1, 0.09, 0.0)
    assert_allclose(model2.radius**2, 1.01, rtol=1e-12)
    assert_allclose((model2.length / TWO_PI) ** 2, 0.98, rtol=1e-12)
    assert corrected_model(product, h1, 0.0, 0.0) == product


def test_corrected_model_torus_uniform(torus2):
    eta1 = 0.25
    h1 = eta1 * np.eye(2)
    model2 = corrected_model(torus2, h1, 0.1, eta1)
    assert_allclose(np.array(model2.periods),
                    np.array(torus2.periods) * np.sqrt(1 + 0.1 * eta1), rtol=1e-12)
    prov2 = analytic_spectrum(model2, count=20)
    assert_allclose(prov2.lambdas[1], 1.0 / (1 + 0.1 * eta1), rtol=1e-12)


def test_large_t_flagged(circle):
    prov = analytic_spectrum(circle, count=30)
    with pytest.warns(UserWarning, match="asymptotic"):
        build_embedding(prov, 1.5, TruncationPolicy(q_override=8))


def test_corrected_model_rejects_degenerate(torus2):
    with pytest.raises(PreconditionError, match="degenerate"):
        corrected_model(torus2, -20.0 * np.eye(2), 0.1, -20.0)
    with pytest.raises(PreconditionError):
        corrected_model(torus2, np.array([[0.0, 1.0], [1.0, 0.0]]), 0.1, 0.0)


def product_defect_oracle(t, lam_cut, corrected):
    """Separable (degree, wavenumber)-level sums for S^2(1) x S^1(2 pi)."""
    if corrected:
        fs, fc = 1 + t / 9.0, 1 - 2 * t / 9.0
    else:
        fs = fc = 1.0
    R2, L = fs, TWO_PI * np.sqrt(fc)
    cn2 = 2 * (4 * np.pi) ** 1.5 * t**2.5
    A = B = 0.0
    k = 0
    while k * (k + 1) / R2 <= lam_cut:
        lam_s = k * (k + 1) / R2
        u_k = (2 * k + 1) / (4 * np.pi * R2)
        j = 0
        while lam_s + (2 * np.pi * j / L) ** 2 <= lam_cut:
            lam_c = (2 * np.pi * j / L) ** 2
            w0 = (2.0 if j > 0 else 1.0) / L
            e = np.exp(-(lam_s + lam_c) * t)
            A += e * (lam_s * u_k / 2.0) * w0
            B += e * u_k * (lam_c * w0)
            j += 1
        k += 1
    Gs, Gc = cn2 * A * fs, cn2 * B * fc
    tr = (2 * Gs + Gc) / 3.0
    return np.array([Gs, Gs, Gc]), max(abs(Gs - tr), abs(Gc - tr))


def test_product_pullback_against_level_sum_oracle(product):
    t = 0.05
    lam_cut = 16.0 / t
    prov = analytic_spectrum(product, lambda_max=lam_cut)
    emb = build_embedding(prov, t, TruncationPolicy(q_override=prov.count - 1))
    x = np.array([1.0, 2.0, 0.5])
    G = pullback_at(emb, x)
    F = geometry.metric_on_grid(product, x[None, :]).frame[0]
    frame_diag, defect_sup = product_defect_oracle(t, lam_cut, corrected=False)
    assert_allclose(np.diag(F.T @ G @ F), frame_diag, rtol=1e-10)
    # every frame entry at every grid point, the zero off-diagonals included
    grid = geometry.sample_grid(product, 6)
    metric = geometry.metric_on_grid(product, grid.points)
    frames = metric.frame
    G_frame = frames.transpose(0, 2, 1) @ emb.pullback_on(grid.points) @ frames
    want = np.broadcast_to(np.diag(frame_diag), G_frame.shape)
    assert_allclose(G_frame, want, rtol=1e-12, atol=1e-12 * np.max(frame_diag))
    rep = embedding.pullback_report(emb, grid.points, metric)
    assert_allclose(rep.sup, defect_sup, rtol=1e-8)


def test_sphere_pullback_against_addition_theorem():
    """On S^2(R) each degree-k shell contributes (2k+1) lam_k / (8 pi R^2) g,
    from sum_m |grad Y_km|^2 = lam_k (2k+1) / (4 pi R^2) and isotropy."""
    R, t, kmax = 0.8, 0.02, 33
    model = ManifoldModel.sphere2(R)
    prov = analytic_spectrum(model, lambda_max=kmax * (kmax + 1) / R**2)
    emb = build_embedding(prov, t, TruncationPolicy(q_override=prov.count - 1))
    assert emb.q > 1024                                   # more than one chunk
    k = np.arange(1, kmax + 1)
    lam = k * (k + 1) / R**2
    scale = np.sum(emb.c_norm**2 * np.exp(-lam * t) * (2 * k + 1) * lam
                   / (8 * np.pi * R**2))
    grid = geometry.sample_grid(model, 6)
    frames = geometry.metric_on_grid(model, grid.points).frame
    G_frame = frames.transpose(0, 2, 1) @ emb.pullback_on(grid.points) @ frames
    want = np.broadcast_to(scale * np.eye(2), G_frame.shape)
    assert_allclose(G_frame, want, rtol=1e-12, atol=1e-12 * scale)


def test_first_order_expansion(product):
    """(pullback - g)/t approaches the first curvature correction entrywise."""
    t = 0.01
    prov = analytic_spectrum(product, lambda_max=16.0 / t)
    emb = build_embedding(prov, t, TruncationPolicy(q_override=prov.count - 1))
    X = np.array([[1.0, 0.4, 2.0], [2.0, 3.0, 0.1]])
    m = geometry.metric_on_grid(product, X)
    G = np.einsum("nia,nij,njb->nab", m.frame, emb.pullback_on(X), m.frame)
    A1 = np.einsum("nia,nij,njb->nab", m.frame, m.a1, m.frame)
    assert np.max(np.abs((G - np.eye(3)) / t - A1)) <= 0.1 * np.max(np.abs(A1))


def test_homothety_models(circle, sphere, torus2):
    """Isometry-group transitivity forces exact homothety on symmetric models."""
    cases = [(circle, 64, 0.2), (circle, 64, 0.05),
             (sphere, 12, 0.2), (sphere, 12, 0.05),
             (torus2, 12, 0.1)]
    for model, res, t in cases:
        prov = analytic_spectrum(model, count=TruncationPolicy(rho=1.0).q(t, model.dim) + 10)
        emb = build_embedding(prov, t, TruncationPolicy(rho=1.0))
        points = geometry.sample_grid(model, res).points
        rep = embedding.pullback_report(emb, points, geometry.metric_on_grid(model, points))
        assert rep.sup <= 1e-10, (model.kind, t, rep.sup)


def test_pullback_scaling_law(torus2):
    prov = analytic_spectrum(torus2, count=120)
    emb = build_embedding(prov, 0.1, TruncationPolicy(q_override=40))
    x = np.array([0.5, 0.7])
    G1 = pullback_at(emb, x)
    emb2 = build_embedding(prov, 0.1, TruncationPolicy(q_override=40))
    emb2.weights = 2.0 * emb2.weights       # doubled normalization constant
    G2 = pullback_at(emb2, x)
    assert_allclose(G2, 4.0 * G1, rtol=1e-13)
    g = np.eye(2)
    d1, tr1 = conformal_defect(G1, g)
    d2, tr2 = conformal_defect(G2, g)
    assert_allclose(d2 / tr2, d1 / tr1, atol=1e-13)


def test_defect_scan_torus(torus2):
    rows = defect_scan(torus2, [0.05, 0.02], TruncationPolicy(rho=1.0), resolution=16)
    assert [r["t"] for r in rows] == [0.05, 0.02]
    for r in rows:
        assert r["defect_sup"] <= 1e-10
        assert r["trace_min"] <= r["trace_max"]
    with pytest.raises(ConfigError):
        defect_scan(torus2, [0.02, 0.05], TruncationPolicy())
    with pytest.raises(ConfigError):
        defect_scan(torus2, [1.5], TruncationPolicy())


def test_defect_scan_refuses_q_override_with_a_window(tmp_path, capsys, monkeypatch):
    """A window keeps every mode it holds, so a policy that also fixes q, or
    sets both windows, is refused when it is constructed: a defect-scan
    config that asks for one exits 2 with the policy's one line before any
    provider is built, not silently overruled."""
    def no_build(*args, **kwargs):
        raise AssertionError("spectrum built before the policy was checked")

    monkeypatch.setattr(spectrum, "analytic_spectrum", no_build)
    keeps = "a window keeps every mode it holds; set one of them"
    for fields, message in [
            ({"lambda_max": 50.0, "lambda_t_margin": 16.0},
             "spectrum.lambda_max and spectrum.lambda_t_margin both set a scan window; "
             "set one of them"),
            ({"q_override": 40, "lambda_t_margin": 16.0},
             f"q_override and spectrum.lambda_t_margin both set the scan's q: {keeps}"),
            ({"q_override": 40, "lambda_max": 100.0},
             f"q_override and spectrum.lambda_max both set the scan's q: {keeps}")]:
        with pytest.raises(ConfigError, match=re.escape(message)):
            TruncationPolicy(**fields)
        q_override = fields.pop("q_override", None)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"model": {"kind": "circle", "params": {"length": TWO_PI}},
                                      "t_grid": [0.1, 0.05], "q_override": q_override,
                                      "spectrum": fields}))
        capsys.readouterr()
        code = cli.main(["--config", str(config), "--out", str(tmp_path / "o"), "defect-scan"])
        assert (code, capsys.readouterr().err) == (2, f"config error: {message}\n")


def test_defect_scan_emitters(tmp_path, torus2):
    rows = defect_scan(torus2, [0.1, 0.05], TruncationPolicy(rho=1.0), resolution=8)
    csv_path = tmp_path / "scan.csv"
    embedding.write_scan_csv(rows, csv_path)
    header = csv_path.read_text().splitlines()[0]
    assert header == "t,q,defect_sup,defect_holder,trace_min,trace_max"
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"model": torus2.to_config(), "t_grid": [0.1, 0.05],
                                  "resolution": 8}))
    assert cli.main(["--config", str(config), "--out", str(tmp_path / "o"), "defect-scan"]) == 0
    payload = json.loads((tmp_path / "o" / "tables" / "defect_scan.json").read_text())
    assert payload["metadata"]["model"]["kind"] == "flat_torus"
    assert payload["rows"] == rows


def test_corrected_scan_uses_original_reference(product):
    rows = defect_scan(product, [0.1, 0.07], TruncationPolicy(rho=1.0, lambda_t_margin=12.0),
                       correction=CorrectionSpec(l=2, eta=(0.0,)), resolution=6)
    # corrected defect is an order of magnitude below the uncorrected one
    base = defect_scan(product, [0.1, 0.07], TruncationPolicy(rho=1.0, lambda_t_margin=12.0),
                       resolution=6)
    assert rows[0]["defect_sup"] < 0.05 * base[0]["defect_sup"]


def test_corrected_scan_leaves_spec_unchanged(product):
    spec = CorrectionSpec(l=2, eta=(0.0,))
    before = copy.deepcopy(spec)
    defect_scan(product, [0.1], TruncationPolicy(rho=1.0, lambda_t_margin=8.0),
                correction=spec, resolution=4)
    assert spec == before


def test_correction_spec_validation():
    with pytest.raises(ConfigError):
        CorrectionSpec(l=0)
    with pytest.raises(ConfigError):
        CorrectionSpec(l=3, eta=(0.0, 0.0))
    with pytest.raises(ConfigError):
        CorrectionSpec(l=2, eta=())


def test_h1_requires_constant_frame_components(torus2, product, monkeypatch):
    # A1 = 0 on a flat torus, so h1 = eta1 g, constant in the frame
    h1 = embedding.h1_frame_constant(torus2, 0.5)
    assert_allclose(h1, 0.5 * np.eye(2), atol=1e-12)
    # the analytic testbeds are homogeneous; a non-constant A1, here changed at
    # the last point of the 8-grid only, is rejected
    evaluate = geometry.metric_on_grid

    def uneven(model, points):
        m = evaluate(model, points)
        a1 = m.a1.copy()
        a1[-1, 2, 2] += 1e-6
        return dataclasses.replace(m, a1=a1)

    monkeypatch.setattr(geometry, "metric_on_grid", uneven)
    with pytest.raises(PreconditionError, match="not constant"):
        embedding.h1_frame_constant(product, 0.0)


def test_tail_bound_modes(circle, torus2):
    prov = analytic_spectrum(circle, count=600)
    pol = TruncationPolicy(rho=1.0)
    tail, bound, ok = tail_bound_check(prov, 0.1, pol, resolution=32)
    assert ok
    # independent direct summation oracle for the tail
    emb = build_embedding(prov, 0.1, pol)
    ks = np.arange(1, 300)
    lam = np.repeat(ks**2, 2)[:prov.count - 1]
    have = lam[emb.q:]                # provider indices q+1 .. count-1
    oracle = emb.c_norm**2 * np.sum(have * np.exp(-have * 0.1)) / (2 * np.pi)
    assert_allclose(tail, oracle, rtol=1e-10)
    # a truncation with no tail left to measure is refused, not passed
    small = analytic_spectrum(circle, count=40)
    with pytest.raises(SpectrumError, match="4x modes"):
        tail_bound_check(small, 0.1, TruncationPolicy(rho=1.0, q_override=small.count - 1))
    # reports without asserting: this configuration may fail the bound
    t1, b1, ok1 = tail_bound_check(prov, 0.5, TruncationPolicy(rho=0.01),
                                   resolution=16)
    assert t1 >= 0.0 and b1 > 0.0
    with pytest.raises(SpectrumError):
        tail_bound_check(analytic_spectrum(torus2, count=300), 0.05,
                         TruncationPolicy(rho=1.0))


def _gram_case(name):
    """(provider, j0, weights, points) of one gradient Gram case; by default
    96 random weights from j0 = 2."""
    rng = np.random.default_rng(3)
    if name == "n1":
        model = ManifoldModel.circle(TWO_PI)
    elif name == "n2_pair_weights":
        model = ManifoldModel.flat_torus([TWO_PI, TWO_PI])
    elif name.startswith("n2"):
        model = ManifoldModel.flat_torus([TWO_PI, 3.1])
    elif name == "n3_torus":
        model = ManifoldModel.flat_torus([TWO_PI, 3.0, 5.0])
    else:
        model = ManifoldModel.product_sphere_circle(0.8, 3.0)
    prov = analytic_spectrum(model, count=100)
    pts = geometry.sample_grid(model, 5).points + rng.uniform(0.0, 0.1, model.dim)
    j0, w = 2, np.random.default_rng(4).uniform(0.5, 2.0, 96)
    if name == "n3_scattered":
        # points that share no theta, phi or s
        pts = np.column_stack([rng.uniform(0.05, np.pi - 0.05, 50),
                               rng.uniform(0.0, TWO_PI, 50), rng.uniform(0.0, 3.0, 50)])
    elif name == "n3_mid_shell":
        prov = analytic_spectrum(model, count=400)
        j0 = int(np.searchsorted(prov.lambdas, prov.lambdas[250])) + 5
        assert prov.lambdas[j0 - 1] == prov.lambdas[j0]
    elif name == "n3_rescaled":
        prov = analytic_spectrum(model.rescaled((1.1, 0.8)), count=100)
    elif name == "n2_pair_weights":
        # the embedding's weights e^{-lambda t/2} at large q, as in the
        # homothety criterion, on a few points
        prov = analytic_spectrum(model, count=10100)
        j0, w = 1, np.exp(-prov.lambdas[1:] * 0.01 / 2.0)
        pts = rng.uniform(0.0, TWO_PI, (4, 2))
    elif name == "n2_split_pairs":
        # starts on a sin mode whose cos is outside, ends on a cos mode whose
        # sin is outside
        parity = np.array([ep.descriptor[-1] for ep in prov.eigenpairs])
        j0 = int(np.flatnonzero(parity == spectrum.SIN)[1])
        j1 = int(np.flatnonzero(parity == spectrum.COS)[-3]) + 1
        assert parity[j0 - 1] == spectrum.COS and parity[j1] == spectrum.SIN
        w = w[:j1 - j0]
    elif name == "n3_torus":
        pts = rng.uniform(0.0, 5.0, (40, 3))
    elif name == "n2_empty":
        w = w[:0]
    return prov, j0, w, pts


@pytest.mark.parametrize("name", ["n1", "n2", "n2_pair_weights", "n2_split_pairs",
                                  "n2_empty", "n3_torus", "n3", "n3_scattered",
                                  "n3_mid_shell", "n3_rescaled"])
@pytest.mark.parametrize("chunk", [24, 25])
def test_gradient_gram_matches_einsum(name, chunk, monkeypatch):
    """The provider's Gram sum is symmetric and equals one einsum, with chunks
    that do (24) and do not (25) divide the 96 modes.  The closed-form
    lattice and separable S^2 x S^1 overrides also equal the generic chunked
    body; on lattice blocks that are not whole cos/sin pairs with one weight
    per pair the lattice provider is that body, bit for bit."""
    prov, j0, w, pts = _gram_case(name)
    monkeypatch.setattr(spectrum, "_GRAM_CHUNK", chunk)
    G = prov.gradient_gram(j0, w, pts)
    _, grads, _ = prov.jet_block(j0, j0 + len(w), pts, deriv=1)
    want = np.einsum("m,mpi,mpj->pij", w * w, grads, grads)
    assert np.array_equal(G, G.transpose(0, 2, 1))
    assert np.max(np.abs(G - want)) <= 1e-13 * np.max(np.abs(want))
    base = spectrum.SpectrumProvider.gradient_gram(prov, j0, w, pts)
    assert np.max(np.abs(G - base)) <= 1e-13 * np.max(np.abs(base))
    if name in ("n1", "n2", "n2_split_pairs", "n3_torus"):
        assert np.array_equal(G, base)
    if name == "n2_pair_weights":
        # partners share lambda, so only the constant term of the closed form is left
        assert np.array_equal(G, np.broadcast_to(G[0], G.shape))


def _count_jet_blocks(monkeypatch, cls):
    """List that records the (j0, j1) of every `cls.jet_block` call."""
    calls = []
    jet_block = cls.jet_block

    def counting_jet_block(self, *args, **kwargs):
        calls.append(args[:2])
        return jet_block(self, *args, **kwargs)

    monkeypatch.setattr(cls, "jet_block", counting_jet_block)
    return calls


@pytest.mark.parametrize("name", ["circle", "torus2"])
def test_lattice_pullback_and_tail_build_no_jets(name, request, monkeypatch):
    """Torus and circle pullbacks and truncation tails come from the closed
    lattice form of `gradient_gram`: no mode jets are built."""
    calls = _count_jet_blocks(monkeypatch, spectrum.LatticeSpectrum)
    model = request.getfixturevalue(name)
    prov = analytic_spectrum(model, count=600)
    policy = TruncationPolicy(rho=1.0)
    emb = build_embedding(prov, 0.1, policy)
    G = emb.pullback_on(geometry.sample_grid(model, 8).points)
    tail, _, _ = tail_bound_check(prov, 0.1, policy, resolution=8)
    assert calls == []
    assert G.shape[1:] == (model.dim, model.dim) and tail > 0.0


def test_torus_tail_rows_match_lattice_sum():
    """The flat-torus rows of the tail_bound criterion are the exact lattice
    tails c(t)^2 / V sum_{lambda_q < lambda <= lambda_max} lambda e^{-lambda t},
    summed here over every k in Z^2 (both signs), and round to the documented
    0.34 and 0.025."""
    rows = [r for r in acceptance.check_tail_bound().details["rows"]
            if r["model"] == "flat_torus"]
    prov = analytic_spectrum(acceptance.TORUS_2PI, count=10100)
    K = int(np.sqrt(prov.lambda_max)) + 1
    k = np.mgrid[-K:K + 1, -K:K + 1].reshape(2, -1)
    lam = np.sum(k * k, axis=0).astype(float)          # periods 2 pi: kappa = k
    volume = (2.0 * np.pi) ** 2
    for row in rows:
        t = row["t"]
        lam_q = prov.lambdas[build_embedding(prov, t, TruncationPolicy(rho=1.0)).q]
        c2 = 2.0 * (4.0 * np.pi) * t ** 2                 # c(t)^2 at n = 2
        tail = lam[(lam > lam_q) & (lam <= prov.lambda_max)]
        assert_allclose(row["tail"], c2 / volume * np.sum(tail * np.exp(-tail * t)),
                        rtol=1e-12)
    assert [r["t"] for r in rows] == [0.1, 0.05, 0.02]
    assert (round(rows[0]["tail"], 2), round(rows[1]["tail"], 3)) == (0.34, 0.025)


@pytest.mark.parametrize("corrected", [False, True], ids=["l1", "l2"])
def test_product_scan_matches_level_sum_oracle(product, monkeypatch, corrected):
    """S^2 x S^1 defect_scan rows at margin 16 and the defect_law t against the
    closed-form level sums; the scan builds no per-mode jets."""
    calls = _count_jet_blocks(monkeypatch, spectrum.ProductSpectrum)
    ts, margin = [0.1, 0.07, 0.05, 0.035, 0.025], 16.0
    correction = CorrectionSpec(l=2, eta=(0.0,)) if corrected else None
    rows = defect_scan(product, ts, TruncationPolicy(rho=1.0, lambda_t_margin=margin),
                       correction=correction, resolution=6)
    assert calls == []
    # the corrected defect is a 1e-5 difference of O(1) block constants
    rtol = 1e-8 if corrected else 1e-12
    for t, row in zip(ts, rows):
        frame_diag, defect_sup = product_defect_oracle(t, margin / t, corrected)
        trace = (2 * frame_diag[0] + frame_diag[2]) / 3.0
        assert_allclose(row["defect_sup"], defect_sup, rtol=rtol)
        assert_allclose([row["trace_min"], row["trace_max"]], trace, rtol=1e-12)


def _count_enumerations(monkeypatch):
    """Record (model, count, lambda_max, provider) of each analytic_spectrum call."""
    built = []
    enumerate_ = spectrum.analytic_spectrum

    def counting(model, count=None, lambda_max=None):
        prov = enumerate_(model, count=count, lambda_max=lambda_max)
        built.append((model, count, lambda_max, prov))
        return prov

    monkeypatch.setattr(spectrum, "analytic_spectrum", counting)
    return built


def test_scan_enumerates_one_provider_per_row_model(product, circle, monkeypatch):
    """A scan, by a margin window, a fixed lambda_max or the count policy,
    enumerates one analytic provider per distinct row model, for the largest
    request among that model's rows: once uncorrected, once per t corrected on
    S^2 x S^1, where h1 rescales the blocks.  A windowed row keeps every
    non-constant mode of its own window, and a corrected circle scan at
    eta = 0, whose h1 vanishes, enumerates once."""
    built = _count_enumerations(monkeypatch)
    ts = [0.1, 0.08, 0.06, 0.05, 0.04]
    h1 = embedding.h1_frame_constant(product, 0.0)
    for window, policy in ((lambda t: 7.0 / t, TruncationPolicy(rho=1.0, lambda_t_margin=7.0)),
                           (lambda t: 70.0, TruncationPolicy(rho=1.0, lambda_max=70.0)),
                           (None, TruncationPolicy(rho=1.0))):
        for correction in (None, CorrectionSpec(l=2, eta=(0.0,))):
            built.clear()
            rows = defect_scan(product, ts, policy, correction=correction, resolution=4)
            row_models = [product.rescaled((1.0, 1.0) if correction is None else
                                           (1.0 + t * h1[0, 0], 1.0 + t * h1[2, 2]))
                          for t in ts]
            assert [m for m, *_ in built] == list(dict.fromkeys(row_models))
            assert len(built) == (1 if correction is None else 5)
            for model, count, lam_max, prov in built:
                mine = [t for t, m in zip(ts, row_models) if m == model]
                if window is None:
                    assert (count, lam_max) == (max(policy.q(t, 3) for t in mine) + 1, None)
                else:
                    assert (count, lam_max) == (None, max(window(t) for t in mine))
            if window is not None:
                for t, row, model in zip(ts, rows, row_models):
                    prov = next(p for m, *_, p in built if m == model)
                    assert row["q"] == np.count_nonzero(prov.lambdas <= window(t)) - 1
    built.clear()
    defect_scan(circle, [0.1, 0.05, 0.02], TruncationPolicy(rho=1.0, lambda_t_margin=16.0),
                correction=CorrectionSpec(l=2, eta=(0.0,)))
    assert [(m, lam_max) for m, _, lam_max, _ in built] == [(circle, 16.0 / 0.02)]


def _per_row_scan(model, t_grid, policy, window=None, correction=None, resolution=8,
                  alpha=0.5):
    """The defect scan as one analytic provider per t, each row keeping every
    mode of its window(t) or the count policy's shell-closed q(t): the
    reference that `defect_scan`'s shared providers must reproduce bit for bit."""
    grid = geometry.sample_grid(model, resolution)
    metric = geometry.metric_on_grid(model, grid.points)
    pairs = analysis.holder_pairs(model, resolution)
    h1 = eta1 = None
    if correction is not None and correction.l >= 2:
        eta1 = correction.eta[0]
        h1 = embedding.h1_frame_constant(model, eta1)
    rows = []
    for t in t_grid:
        scaled = model if h1 is None else corrected_model(model, h1, t, eta1)
        if window is None:
            provider = analytic_spectrum(scaled, count=policy.q(t, model.dim) + 1)
            eff_policy = policy
        else:
            provider = analytic_spectrum(scaled, lambda_max=window(t))
            eff_policy = TruncationPolicy(rho=policy.rho, q_override=provider.count - 1)
        emb = build_embedding(provider, t, eff_policy)
        rep = embedding.pullback_report(emb, grid.points, metric)
        rows.append({
            "t": t,
            "q": emb.q,
            "defect_sup": rep.sup,
            "defect_holder": analysis.holder_seminorm_field(rep.defect_frame, pairs, alpha),
            "trace_min": float(np.min(rep.trace_factor)),
            "trace_max": float(np.max(rep.trace_factor)),
        })
    return rows


_PRODUCT_TS = [0.1, 0.07, 0.05, 0.035, 0.025]


@pytest.mark.parametrize("model, ts, fields, window, kwargs", [
    (ManifoldModel.product_sphere_circle(1.0, TWO_PI), _PRODUCT_TS,
     {"lambda_t_margin": 16.0}, lambda t: 16.0 / t, {"resolution": 6}),
    (ManifoldModel.product_sphere_circle(1.0, TWO_PI), _PRODUCT_TS,
     {"lambda_t_margin": 16.0}, lambda t: 16.0 / t,
     {"resolution": 6, "correction": CorrectionSpec(l=2, eta=(0.0,))}),
    (ManifoldModel.product_sphere_circle(1.0, TWO_PI), [0.1, 0.07], {}, None,
     {"resolution": 6}),
    (ManifoldModel.flat_torus([TWO_PI, 3.1]), [0.1, 0.05, 0.025],
     {"lambda_t_margin": 16.0}, lambda t: 16.0 / t, {"resolution": 12}),
    (ManifoldModel.circle(TWO_PI), [0.1, 0.05, 0.02], {"lambda_max": 50.0}, lambda t: 50.0,
     {}),
    (ManifoldModel.sphere2(1.0), [0.1, 0.05], {}, None, {"resolution": 8}),
], ids=["s2xs1-margin", "s2xs1-margin-l2", "s2xs1-count", "rect-torus-margin",
        "circle-lambda-max", "sphere-count"])
def test_scan_rows_equal_the_per_row_providers(model, ts, fields, window, kwargs):
    """Every row of a scan that shares one provider per row model equals, field
    for field and bit for bit, the row of a provider enumerated for that t
    alone: the window rows keep the modes lambda <= window(t), and the count
    rows close the same shell."""
    got = defect_scan(model, ts, TruncationPolicy(rho=1.0, **fields), **kwargs)
    want = _per_row_scan(model, ts, TruncationPolicy(rho=1.0), window=window, **kwargs)
    assert [list(row) for row in got] == [list(row) for row in want]
    for row, ref in zip(got, want):
        assert all(row[key] == ref[key] for key in ref), (row, ref)


@pytest.mark.parametrize("fields", [{"lambda_t_margin": 16.0}, {"lambda_max": 60.0}, {}],
                         ids=["margin", "lambda-max", "count"])
def test_every_scan_row_is_one_build_embedding(product, monkeypatch, fields):
    """Window, constant-window and count rows alike take their q from one
    `build_embedding` call per row, in the order of t_grid."""
    calls, build = [], embedding.build_embedding

    def recording(provider, t, policy):
        emb = build(provider, t, policy)
        calls.append((t, emb.q))
        return emb

    monkeypatch.setattr(embedding, "build_embedding", recording)
    rows = defect_scan(product, [0.1, 0.07, 0.05], TruncationPolicy(rho=1.0, **fields),
                       resolution=4)
    assert calls == [(row["t"], row["q"]) for row in rows]


def test_margin_window_keeps_the_modes_on_its_edge(product):
    """At t = 0.1 the margin-16 window of S^2 x S^1 ends on the eigenvalue 160,
    k(k+1) + j^2 at (12, 2), whose modes the row keeps."""
    lams = analytic_spectrum(product, lambda_max=160.0).lambdas
    on_edge = np.count_nonzero(lams == 16.0 / 0.1)
    assert on_edge == 50
    rows = defect_scan(product, [0.1, 0.05], TruncationPolicy(rho=1.0, lambda_t_margin=16.0),
                       resolution=4)
    assert rows[0]["q"] == lams.size - 1 == 2786


def test_scan_builds_one_holder_pair_table(product, monkeypatch):
    """A five-row S^2 x S^1 scan finds its close pairs once, and each row's
    defect_holder equals the quotient over a table built for that field alone."""
    close_pairs, holder = analysis._close_pairs, analysis.holder_seminorm_field
    found, fields = [], []

    def counting(*args, **kwargs):
        found.append(args)
        return close_pairs(*args, **kwargs)

    def recording(values, pairs, alpha):
        fields.append(values)
        return holder(values, pairs, alpha)

    monkeypatch.setattr(analysis, "_close_pairs", counting)
    monkeypatch.setattr(analysis, "holder_seminorm_field", recording)
    ts, alpha = [0.1, 0.08, 0.06, 0.05, 0.04], 0.45
    rows = defect_scan(product, ts, TruncationPolicy(rho=1.0, lambda_t_margin=12.0),
                       correction=CorrectionSpec(l=2, eta=(0.0,)), resolution=6, alpha=alpha)
    assert len(rows) == len(fields) == 5 and len(found) == 1
    for row, field in zip(rows, fields):
        assert row["defect_holder"] == holder(field, analysis.holder_pairs(product, 6), alpha)
    assert len(found) == 6          # one table for each one-shot quotient


def test_jets_scale_fresh_jets(torus2):
    """EmbeddingMap.jets weights the jet_block arrays bit for bit, at every order."""
    prov = analytic_spectrum(torus2, count=80)
    emb = build_embedding(prov, 0.1, TruncationPolicy(q_override=40))
    pts = geometry.sample_grid(torus2, 6).points
    raw = prov.jet_block(1, emb.q + 1, pts)
    w = emb.weights
    for arr, ref in zip(emb.jets(pts), raw):
        assert np.array_equal(arr, w.reshape((-1,) + (1,) * (ref.ndim - 1)) * ref)
