"""Jet operators P/P_c, Gram structure, right inverses, and Xi matrices."""
import numpy as np
import pytest
from numpy.testing import assert_allclose

from heatconf import (PointwiseRightInverse, TruncationPolicy, analytic_spectrum,
                      block_inverse, build_embedding, trace_free_rows, xi_inverse, xi_matrix)
from heatconf import analysis, geometry, jets
from heatconf.errors import PreconditionError

TWO_PI = 2.0 * np.pi
X0 = np.array([0.7, 1.9])
G_RHS = np.array([0.0, 0.0, 0.0, 1.0, 1.0])     # (0, identity) packed, n = 2


def right_inverse_at(emb, x) -> PointwiseRightInverse:
    """E on the single chart point x, a batch of one."""
    return PointwiseRightInverse(emb, np.atleast_1d(np.asarray(x, dtype=float))[None, :])


def P_at(emb, x) -> np.ndarray:
    return right_inverse_at(emb, x).P[0]


def Pc_at(emb, x) -> np.ndarray:
    return trace_free_rows(P_at(emb, x), emb.model.dim)


def solve_at(emb, x, rhs) -> np.ndarray:
    return right_inverse_at(emb, x).apply(np.asarray(rhs, dtype=float)[None, :])[0]


def unpack_symmetric(packed: np.ndarray, n: int) -> np.ndarray:
    """Inverse of jets.pack_symmetric, written from the row contract."""
    out = np.zeros(packed.shape[:-1] + (n, n))
    for idx, (a, b) in enumerate(jets.row_index_pairs(n)):
        out[..., a, b] = packed[..., idx]
        out[..., b, a] = packed[..., idx]
    return out


def test_row_ordering_contract():
    assert jets.row_index_pairs(2) == [(0, 1), (0, 0), (1, 1)]
    assert jets.row_index_pairs(3) == [(0, 1), (0, 2), (1, 2), (0, 0), (1, 1), (2, 2)]
    h = np.array([[1.0, 4.0], [4.0, 2.0]])
    packed = jets.pack_symmetric(h)
    assert_allclose(packed, [4.0, 1.0, 2.0])
    assert_allclose(unpack_symmetric(packed, 2), h)
    stack = np.random.default_rng(4).standard_normal((5, 3, 3))
    stack = stack + stack.transpose(0, 2, 1)
    assert np.array_equal(unpack_symmetric(jets.pack_symmetric(stack), 3), stack)


def test_row_counts(torus_embedding, circle):
    P = P_at(torus_embedding, X0)
    assert P.shape == (5, torus_embedding.q)    # n (n+3) / 2 = 5
    cprov = analytic_spectrum(circle, count=60)
    cemb = build_embedding(cprov, 0.1, TruncationPolicy(rho=1.0))
    Pc = P_at(cemb, np.array([0.4]))
    assert Pc.shape == (2, cemb.q)              # n = 1: 1 + 1 rows


def test_torus_covariant_equals_coordinate(torus_embedding):
    # flat torus: vanishing connection makes covariant = coordinate derivatives
    vals, grads, hess = (a[:, 0] for a in torus_embedding.jets(X0[None, :]))
    P = P_at(torus_embedding, X0)
    assert_allclose(P[0], grads[:, 0], atol=1e-15)
    assert_allclose(P[2], hess[:, 0, 1], atol=1e-15)   # row (0,1)
    assert_allclose(P[3], hess[:, 0, 0], atol=1e-15)   # row (0,0)


def test_sphere_covariant_correction(sphere):
    # on the sphere the connection term is nonzero and must be subtracted
    prov = analytic_spectrum(sphere, count=50)
    emb = build_embedding(prov, 0.15, TruncationPolicy(q_override=24))
    x = np.array([1.0, 2.0])
    P = P_at(emb, x)
    m = geometry.metric_on_grid(sphere, x[None, :])
    F = m.frame[0]
    vals, grads, hess = (a[:, 0] for a in emb.jets(x[None, :]))
    hess_cov = hess - np.einsum("kij,qk->qij", m.christoffel[0], grads)
    expected = np.einsum("ia,qij,jb->qab", F, hess_cov, F)
    assert_allclose(P[2], expected[:, 0, 1], atol=1e-13)


def test_P_full_rank(torus_embedding):
    sv = np.linalg.svd(P_at(torus_embedding, X0), compute_uv=False)
    assert sv[4] > 1e-3 * np.sqrt(2 * 0.05)    # smallest of the O(sqrt(1/2t)) scale split


def test_Pc_loses_exactly_one_rank(torus_embedding):
    P = P_at(torus_embedding, X0)
    Pc = Pc_at(torus_embedding, X0)
    sv = np.linalg.svd(P, compute_uv=False)
    svc = np.linalg.svd(Pc, compute_uv=False)
    thresh = 1e-8
    rank = np.sum(sv > thresh * sv[0])
    rank_c = np.sum(svc > thresh * svc[0])
    assert rank == 5 and rank_c == 4
    # the trace-projected diagonal rows sum to the zero row
    assert np.max(np.abs(Pc[-2:].sum(axis=0))) <= 1e-10 * np.max(np.abs(Pc))


def test_Pc_is_projection_of_P(torus_embedding):
    P = P_at(torus_embedding, X0)
    Pc = Pc_at(torus_embedding, X0)
    n = 2
    D = np.zeros((5, 5))
    D[3:, 3:] = np.ones((2, 2))       # selector of the repeated-derivative rows
    assert_allclose(Pc, P - D @ P / n, atol=1e-12 * np.max(np.abs(P)))


def test_gram_blocks_small_t(torus2):
    t = 0.02
    prov = analytic_spectrum(torus2, count=2700)
    emb = build_embedding(prov, t, TruncationPolicy(rho=1.0))
    P = P_at(emb, X0)
    G = P @ P.T
    assert_allclose(G[:2, :2], np.eye(2), atol=5 * t)
    lower = 2 * t * G[2:, 2:]
    target = np.eye(3)
    target[1:, 1:] = 3.0 * xi_matrix(2, 1.0 / 3.0)
    assert_allclose(lower, target, atol=5 * t)
    Pc = Pc_at(emb, X0)
    Gc = Pc @ Pc.T
    target_c = np.eye(3)
    target_c[1:, 1:] = 1.0 * xi_matrix(2, -1.0)     # (2n-2)/n Xi(-1/(n-1)), n = 2
    assert_allclose(2 * t * Gc[2:, 2:], target_c, atol=5 * t)


def test_gram_inverse_asymptotics(torus2):
    t = 0.02
    prov = analytic_spectrum(torus2, count=2700)
    emb = build_embedding(prov, t, TruncationPolicy(rho=1.0))
    P = P_at(emb, X0)
    G_inv = np.linalg.inv(P @ P.T)
    assert_allclose(G_inv[:2, :2], np.eye(2), atol=5 * t)
    target = np.eye(3)
    target[1:, 1:] = np.linalg.inv(3.0 * xi_matrix(2, 1.0 / 3.0))
    assert_allclose(G_inv[2:, 2:] / (2 * t), target, atol=5 * t)


def test_block_inverse_identity_and_oracle():
    rng = np.random.default_rng(8)
    assert_allclose(block_inverse(np.eye(2), 2 * np.eye(3), np.zeros((3, 2))),
                    np.diag([1, 1, 0.5, 0.5, 0.5]), atol=1e-14)
    for _ in range(100):
        A1 = rng.standard_normal((3, 3))
        A1 = A1 @ A1.T + 3 * np.eye(3)
        A2 = rng.standard_normal((3, 3))
        A2 = A2 @ A2.T + 3 * np.eye(3)
        b = 0.1 * rng.standard_normal((3, 3))
        M = np.block([[A1, b.T], [b, A2]])
        inv = block_inverse(A1, A2, b)
        assert_allclose(inv, np.linalg.inv(M), atol=1e-10)
        assert_allclose(M @ inv, np.eye(6), atol=1e-10)
        # coupling-norm inequality
        c = np.linalg.inv(A2) @ b @ np.linalg.inv(A1)
        bound = (np.linalg.norm(np.linalg.inv(A2), 2) * np.linalg.norm(b, 2)
                 * np.linalg.norm(np.linalg.inv(A1), 2))
        assert np.linalg.norm(c, 2) <= bound * (1 + 1e-12)


def test_block_inverse_rejects_singular():
    with pytest.raises(PreconditionError):
        block_inverse(np.zeros((2, 2)), np.eye(2), np.zeros((2, 2)))


def spd_stack(rng, lead, m):
    A = rng.standard_normal(lead + (m, m))
    return A @ np.swapaxes(A, -1, -2) + m * np.eye(m)


def test_block_inverse_stack_equals_its_members():
    """A stack of triples, couplings from zero to 0.5, inverts each member to
    the numbers its own 2-D call gives; a 2-D call is a one-member stack."""
    rng = np.random.default_rng(21)
    lead = (2, 3)
    A1, A2 = spd_stack(rng, lead, 3), spd_stack(rng, lead, 2)
    scale = np.array([0.0, 1e-3, 0.05, 0.1, 0.3, 0.5]).reshape(lead + (1, 1))
    b = scale * rng.standard_normal(lead + (2, 3))
    inv = block_inverse(A1, A2, b)
    assert inv.shape == lead + (5, 5)
    for idx in np.ndindex(*lead):
        assert np.array_equal(inv[idx], block_inverse(A1[idx], A2[idx], b[idx]))
    one = block_inverse(A1[:1, 0], A2[:1, 0], b[:1, 0])
    assert one.shape == (1, 5, 5)
    assert np.array_equal(one[0], block_inverse(A1[0, 0], A2[0, 0], b[0, 0]))
    # a shared A1 broadcasts against stacked A2 and b
    shared = block_inverse(A1[0, 0], A2[0], b[0])
    for j in range(lead[1]):
        assert np.array_equal(shared[j], block_inverse(A1[0, 0], A2[0, j], b[0, j]))


def test_block_inverse_stack_rejects_one_bad_member():
    """One singular A1, one member whose I + b^T c is singular, or one member
    off the lemma at its own scale fails the whole stack, whatever the others."""
    rng = np.random.default_rng(22)
    A1, A2 = spd_stack(rng, (4,), 2), spd_stack(rng, (4,), 2)
    b = 0.05 * rng.standard_normal((4, 2, 2))
    block_inverse(A1, A2, b)
    singular = A1.copy()
    singular[2] = 0.0
    with pytest.raises(PreconditionError, match="invertible"):
        block_inverse(singular, A2, b)
    # A1 = A2 = b = I: c = -I and I + b^T c = 0
    coupled_A1, coupled_A2, coupled_b = A1.copy(), A2.copy(), b.copy()
    coupled_A1[1] = coupled_A2[1] = coupled_b[1] = np.eye(2)
    with pytest.raises(PreconditionError, match="singular"):
        block_inverse(coupled_A1, coupled_A2, coupled_b)
    # a non-symmetric A1 puts an O(1e-4) residual on a unit-sized member; a
    # member of size 1e3 beside it must not lift the tolerance it is held to
    big_A1, skew_A1 = 1e3 * np.eye(2), np.array([[1.0, 1e-2], [0.0, 1.0]])
    pair_A1, pair_A2 = np.stack([big_A1, skew_A1]), np.stack([1e3 * np.eye(2), np.eye(2)])
    pair_b = np.stack([np.zeros((2, 2)), 1e-2 * np.eye(2)])
    block_inverse(pair_A1[:1], pair_A2[:1], pair_b[:1])
    with pytest.raises(PreconditionError, match="block-inverse route"):
        block_inverse(pair_A1, pair_A2, pair_b)


def test_one_point_apply_broadcasts_over_right_hand_sides(torus_embedding):
    E = right_inverse_at(torus_embedding, X0)
    rhs = np.random.default_rng(23).standard_normal((7, 5))
    many = E.apply(rhs)
    assert many.shape == (7, E.P.shape[-1])
    for r, v in zip(rhs, many):
        assert_allclose(v, E.apply(r[None, :])[0], rtol=0, atol=1e-15)


def test_apply_E_right_inverse(torus_embedding):
    rng = np.random.default_rng(12)
    E = right_inverse_at(torus_embedding, X0)
    P = E.P[0]
    assert_allclose(E.apply(np.zeros((1, 5))), 0.0)
    for _ in range(100):
        rhs = rng.standard_normal(5)
        v = E.apply(rhs[None, :])[0]
        assert np.linalg.norm(P @ v - rhs) <= 1e-9 * np.linalg.norm(rhs)


def test_apply_E_orthogonal_to_kernel(torus_embedding):
    # null-space basis from the singular value decomposition as the oracle
    P = P_at(torus_embedding, X0)
    _, _, VT = np.linalg.svd(P, full_matrices=True)
    kernel = VT[5:]
    rng = np.random.default_rng(13)
    v = solve_at(torus_embedding, X0, rng.standard_normal(5))
    overlap = kernel @ v
    assert np.max(np.abs(overlap)) <= 1e-9 * np.linalg.norm(v)


def test_kernel_generator(torus_embedding):
    Pc = Pc_at(torus_embedding, X0)
    P = P_at(torus_embedding, X0)
    w = right_inverse_at(torus_embedding, X0).kernel_generator()[0]
    assert np.linalg.norm(Pc @ w) <= 1e-9 * np.sqrt(2.0)
    assert w @ w > 0
    assert_allclose(P @ w, G_RHS, atol=1e-9)
    _, _, VT = np.linalg.svd(P, full_matrices=True)
    assert np.max(np.abs(VT[5:] @ w)) <= 1e-9 * np.linalg.norm(w)


def test_apply_Ec_family(torus_embedding):
    """E(0, h) + k E(0, g) has one P_c image for every k, and w is E(0, g)."""
    h = np.array([[0.4, 0.6], [0.6, -0.4]])
    E = right_inverse_at(torus_embedding, X0)
    Pc = trace_free_rows(E.P[0], 2)
    w = E.kernel_generator()[0]
    base = E.apply_tensor(np.zeros((1, 2)), h[None])[0]
    rhs0 = np.concatenate([np.zeros(2), jets.pack_symmetric(h)])
    assert_allclose(base, E.apply(rhs0[None, :])[0], atol=1e-15)
    assert np.array_equal(w, E.apply(G_RHS[None, :])[0])
    images = []
    for k in (-1.0, 0.5, 2.0):
        v = E.apply_tensor(np.zeros((1, 2)), (h + k * np.eye(2))[None])[0]
        assert_allclose(v - base, k * w, atol=1e-12)
        images.append(Pc @ v)
    for img in images[1:]:
        assert_allclose(img, images[0], atol=1e-10)


def test_kernel_dimension_gap(torus_embedding):
    """dim Ker P_c - dim Ker P = 1 by singular-value counting."""
    rng = np.random.default_rng(5)
    for _ in range(4):
        x = rng.uniform(0, TWO_PI, 2)
        P = P_at(torus_embedding, x)
        Pc = Pc_at(torus_embedding, x)
        q = P.shape[1]
        sv = np.linalg.svd(P, compute_uv=False)
        svc = np.linalg.svd(Pc, compute_uv=False)
        ker = q - np.sum(sv > 1e-8 * sv[0])
        ker_c = q - np.sum(svc > 1e-8 * svc[0])
        assert ker_c - ker == 1


def test_xi_matrices():
    assert_allclose(xi_matrix(4, 0.0), np.eye(4))
    Xi = xi_matrix(3, 1.0 / 3.0)
    inv = xi_inverse(3, 1.0 / 3.0)
    assert_allclose(inv, 1.5 * (np.eye(3) - np.ones((3, 3)) / 5.0), atol=1e-15)
    assert_allclose(Xi @ inv, np.eye(3), atol=1e-14)
    for n in range(2, 7):
        sv = np.linalg.svd(xi_matrix(n, -1.0 / (n - 1)), compute_uv=False)
        assert np.sum(sv > 1e-12 * sv[0]) == n - 1
    with pytest.raises(PreconditionError):
        xi_inverse(3, -0.5)
    with pytest.raises(PreconditionError):
        xi_inverse(3, 1.0)


def test_nI_minus_J_spectrum():
    for n in range(2, 7):
        eig = np.sort(np.linalg.eigvalsh(n * np.eye(n) - np.ones((n, n))))
        assert_allclose(eig[0], 0.0, atol=1e-12)
        assert_allclose(eig[1:], n, atol=1e-12)


def test_E_operator_norm_scaling(torus2):
    """Fitted decay of the right-inverse norm stays within the allowed rate."""
    rng = np.random.default_rng(77)
    ts = [0.1, 0.05, 0.02, 0.01]
    prov = analytic_spectrum(torus2, count=10100)
    norms = []
    for t in ts:
        emb = build_embedding(prov, t, TruncationPolicy(rho=1.0))
        vals = []
        for _ in range(6):
            rhs = rng.standard_normal(5)
            x = rng.uniform(0, TWO_PI, 2)
            vals.append(np.linalg.norm(solve_at(emb, x, rhs)) / np.linalg.norm(rhs))
        norms.append(max(vals))
    fit = analysis.fit_order(ts, norms)
    assert fit.slope >= -(0 + 0.5) / 2 - 0.2


def test_pointwise_right_inverse_batch(torus2, torus_embedding):
    """The batched E solves P v = rhs, and row i of an N-point batch equals a
    batch of one at point i: P, its Gram, E, w and E(0, h).

    t = 0.02 is the regime a separate block-inverse route once served.
    """
    small_t = build_embedding(analytic_spectrum(torus2, count=2700), 0.02,
                              TruncationPolicy(rho=1.0))
    pts = geometry.sample_grid(torus2, 8).points
    rng = np.random.default_rng(3)
    h = np.array([[0.4, 0.6], [0.6, -0.4]])
    for emb in (torus_embedding, small_t):
        E = PointwiseRightInverse(emb, pts)
        rhs = rng.standard_normal((len(pts), 5))
        sol = E.apply(rhs)
        resid = np.einsum("nmq,nq->nm", E.P, sol) - rhs
        assert np.max(np.abs(resid)) <= 1e-9
        w = E.kernel_generator()
        Eh = E.apply_tensor(np.zeros((len(pts), 2)), np.broadcast_to(h, (len(pts), 2, 2)))
        for i in (0, 5, 27, 63):
            one = right_inverse_at(emb, pts[i])
            pairs = [(one.P[0], E.P[i]), (one.gram[0], E.gram[i]),
                     (one.apply(rhs[i][None, :])[0], sol[i]),
                     (one.kernel_generator()[0], w[i]),
                     (one.apply_tensor(np.zeros((1, 2)), h[None])[0], Eh[i])]
            for single, row in pairs:
                assert np.linalg.norm(single - row) <= 1e-13 * np.linalg.norm(row)


def test_singular_gram_is_precondition_failure(torus_embedding):
    E = jets.PointwiseRightInverse(torus_embedding, np.array([X0]))
    E.gram = np.zeros_like(E.gram)      # stands in for a rank-deficient jet matrix
    with pytest.raises(PreconditionError, match="singular jet Gram matrix"):
        E.apply(np.ones((1, 5)))


def jet_rows_oracle(emb, points):
    """P [N, m, q] from the generic tensor formulas: Christoffel correction and
    frame rotation as full einsums, no use of the diagonal frame."""
    model, n = emb.model, emb.model.dim
    _, grads, hess = emb.jets(points)
    m = geometry.metric_on_grid(model, points)
    gamma, frame = m.christoffel, m.frame
    hess_cov = hess - np.einsum("nkij,qnk->qnij", gamma, grads)
    grads_f = np.einsum("qni,nia->qna", grads, frame)
    hess_f = np.einsum("nia,qnij,njb->qnab", frame, hess_cov, frame)
    rows = [grads_f[:, :, a] for a in range(n)]
    rows += [hess_f[:, :, a, b] for a, b in jets.row_index_pairs(n)]
    return np.stack(rows, axis=0).transpose(2, 0, 1)


@pytest.mark.parametrize("kind", ["torus", "circle", "sphere", "product"])
def test_jet_rows_match_generic_formula(kind):
    rng = np.random.default_rng(17)
    N = 40
    theta = rng.uniform(0.2, np.pi - 0.2, N)
    if kind == "torus":
        model = geometry.ManifoldModel.flat_torus([TWO_PI, 3.1])
        pts = rng.uniform(0, 1, (N, 2)) * np.array(model.periods)
    elif kind == "circle":
        model = geometry.ManifoldModel.circle(3.7)
        pts = rng.uniform(0, TWO_PI, (N, 1))
    elif kind == "sphere":
        model = geometry.ManifoldModel.sphere2(1.3)
        pts = np.column_stack([theta, rng.uniform(0, TWO_PI, N)])
    else:
        model = geometry.ManifoldModel.product_sphere_circle(1.3, 5.0)
        pts = np.column_stack([theta, rng.uniform(0, TWO_PI, (N, 2))])
    prov = analytic_spectrum(model, count=90)
    emb = build_embedding(prov, 0.1, TruncationPolicy(q_override=60))
    want = jet_rows_oracle(emb, pts)
    got = jets._jet_rows(emb, pts)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
