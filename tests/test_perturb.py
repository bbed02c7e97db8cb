"""Spectral backend, quadratic assembly, and the conformal fixed point.

The v-space Q(v, v) products and residual below (`quadratic_products_v`,
`quadratic_v`, `residual_v`) are test oracles: the solver iterates on the
coefficients y of v = P^T y, and its pair forms are checked against them.
`verify_oracle` recomputes the residual and the pullback check of
`assemble_C` from v and its FFT gradient on the grid (`fft_grad`), as
separate steps.  `min_pair_distance`, the row-block all-pairs scan, is the
oracle of `assemble_C`'s offset-pruned injectivity.  The solver never forms
P: `right_inverse` builds it on the solver's grid through the generic jet
path (`jets.PointwiseRightInverse`), the oracle that the complex-pair form is
pinned against.
"""
import functools
import tracemalloc
from collections import namedtuple

import numpy as np
import pytest
from numpy.testing import assert_allclose

from heatconf import (ManifoldModel, TruncationPolicy, analytic_spectrum,
                      build_embedding, fixed_point_solve)
from heatconf import geometry, jets, perturb, spectrum
from heatconf.errors import ConfigError, ConvergenceError, PreconditionError
from heatconf.geometry import conformal_defect

TWO_PI = 2.0 * np.pi


@pytest.fixture(scope="module")
def sgrid(torus2):
    return perturb.SpectralGrid(torus2, 32)


@pytest.fixture(scope="module", params=[(2, 32), (2, 33), (3, 12)],
                ids=["torus2-N32", "torus2-N33", "torus3-N12"])
def any_grid(request):
    """Even and odd resolutions on the 2-torus, and a 3-torus."""
    dim, resolution = request.param
    return perturb.SpectralGrid(ManifoldModel.flat_torus([TWO_PI] * dim), resolution)


@pytest.fixture(scope="module")
def solver(torus_embedding):
    return perturb.ConformalSolver(torus_embedding, resolution=48, e=1.0)


@pytest.fixture(scope="module")
def manufactured(solver):
    return perturb.manufactured_defect(solver.grid.points, 1e-3, [1, 0])


@pytest.fixture(scope="module")
def solved(solver, manufactured):
    return fixed_point_solve(solver, manufactured, k=0.0, tol=1e-11)


def fft_grad(grid, values):
    """Oracle: the FFT gradient [N, ..., n] of grid samples [N, ...] on the band."""
    return grid.from_spec(grid.to_spec(values)[..., None]
                          * grid._bcast(1j * grid.kvecs, values.ndim - 1))


Field = namedtuple("Field", "values grad")


def as_field(grid, values):
    """A Field of plain samples [N, q], with their FFT gradient on the grid [N, n, q]."""
    return Field(values, np.moveaxis(fft_grad(grid, values), -1, 1))


def immersion(solver, y):
    """C [N, q] and grad C [N, n, q] of coefficients y [N, m], from the block
    helper of `assemble_C` called once over the whole grid."""
    n, N = solver.model.dim, solver.grid.N
    dy = solver._coarse_channels(y).reshape(len(solver.M), 1 + n, N)[:, 1:].T
    C = np.empty_like(solver.psi)
    grad = np.empty((N, n, C.shape[1]), dtype=complex)
    perturb._immersion_block(solver, y, dy, slice(0, N), C, grad)
    return C.view(float), grad.view(float)


@functools.lru_cache(maxsize=2)
def right_inverse(solver):
    """Oracle: P [N, m, q] and its Gram on the solver's grid, from the deriv-2
    jets of the generic per-point path."""
    return jets.PointwiseRightInverse(solver.emb, solver.grid.points)


def lift(solver, y):
    """v = P^T y [N, q] of coefficients y [N, m] through the oracle P, with its
    FFT gradient."""
    return as_field(solver.grid, np.einsum("nmq,nm->nq", right_inverse(solver).P, y))


def grad_u(solver):
    """The gradient rows of the oracle P as the embedding's gradient [N, n, q]."""
    return right_inverse(solver).P[:, :solver.model.dim]


def verify_oracle(solver, y, v, f):
    """Oracle: (residual sup, pullback residual sup, residual field) of v = P^T y.

    The residual is the solver's, from y.  The pullback check rebuilds the
    pullbacks of u + v and of u from their gradients and takes the trace-free
    part of pullback(u + v) - pullback(u) - f.
    """
    res = solver.conformal_residual(y, f)
    gu = grad_u(solver)                                        # [N, n, q]
    grad_total = gu + v.grad
    G_uv = grad_total @ grad_total.transpose(0, 2, 1)
    G_u = gu @ gu.transpose(0, 2, 1)
    pull_res = float(np.max(np.abs(conformal_defect(G_uv - G_u - f,
                                                    np.eye(solver.model.dim))[0])))
    return float(np.max(np.abs(res))), pull_res, res


def quadratic_products_v(grid, v, e, chunk=64):
    """Oracle: the dealiased products of Q(v, v) of v [N, q] on the grid,
    (b [N, n], L [N, n, n]).

    b = Delta v . grad v and L is the quadratic curvature-free kernel of the
    (Delta - e)(grad v . grad v) identity.  All components take one forward
    transform, in component-major layout [q, *grid].  Each chunk of components
    refines the band of its gradient and Hessian channels F = [G_i, H_ab
    (a<=b)], [m, c, *grid], to the 3/2 grid, where the Gram product
    K = sum_m F_m F_m^T is accumulated.  b and L are fixed linear combinations
    of the entries of K (Delta v = tr H).
    """
    n = grid.model.dim
    k = np.moveaxis(grid.kvecs, -1, 0)                          # [n, *spec]
    iu = np.triu_indices(n)
    sym = np.concatenate([1j * k, -k[iu[0]] * k[iu[1]]])
    c = len(sym)
    spec = np.fft.rfftn(v.T.reshape((-1,) + grid.shape), axes=range(1, n + 1))
    K = np.zeros((grid.fine**n, c, c))
    for a0 in range(0, len(spec), chunk):
        F = grid.refine(spec[a0:a0 + chunk, None] * sym)        # [m, c, Nf]
        K += np.einsum("mcp,mdp->pcd", F, F)
    H = np.empty((n, n), dtype=int)             # channel of H_ab
    H[iu] = H.T[iu] = np.arange(n, c)
    D = np.diagonal(H)                          # channels summing to Delta v
    b = K[:, D, :n].sum(axis=1)
    L = (K[:, H[:, :, None], H[:, None, :]].sum(axis=1)
         - K[:, D[:, None, None], H].sum(axis=1) - 0.5 * e * K[:, :n, :n])
    return grid.unpad(b), grid.unpad(L)


def quadratic_v(solver, v):
    """Oracle: Q(v, v) [N, q], E applied pointwise to the resolvent-processed products."""
    grid = solver.grid
    b, L = quadratic_products_v(grid, v, solver.e)
    X = -grid.resolvent(b, solver.e)
    B = grid.resolvent(L, solver.e)
    return right_inverse(solver).apply(np.concatenate([X, jets.pack_symmetric(B)], axis=-1))


def residual_v(solver, v, f):
    """Oracle: trace-free part of grad u . grad v + grad v . grad u + grad v . grad v - f
    from the grid gradient of v (a Field)."""
    cross = grad_u(solver) @ v.grad.transpose(0, 2, 1)
    quad = v.grad @ v.grad.transpose(0, 2, 1)
    return conformal_defect(cross + cross.transpose(0, 2, 1) + quad - f,
                            np.eye(solver.model.dim))[0]


def band_limited_y(grid, seed, kmax, scale=1.0):
    """Random coefficients y [N, m]: a few lattice cosines per channel with
    |k_a| <= kmax, periodic on any flat torus."""
    rng = np.random.default_rng(seed)
    n = grid.model.dim
    y = np.zeros((grid.N, n * (n + 3) // 2))
    unit = 2.0 * np.pi / np.asarray(grid.model.periods)
    for c in range(y.shape[1]):
        for _ in range(4):
            k = rng.integers(-kmax, kmax + 1, size=n)
            y[:, c] += scale * rng.standard_normal() * np.cos(
                grid.points @ (unit * k) + rng.uniform(0, TWO_PI))
    return y


def pad(grid, values):
    """Oracle upsampler: trigonometric interpolation of grid samples [N, ...]
    onto the 3/2-refined grid, through full complex FFTs with the Nyquist bins
    dropped."""
    n, N, M = grid.model.dim, grid.resolution, grid.fine
    arr = values.reshape(grid.shape + values.shape[1:])
    f = np.rint(np.fft.fftfreq(N) * N).astype(int)
    f = f[np.abs(f) < N / 2]
    fine = np.zeros((M,) * n + values.shape[1:], dtype=complex)
    fine[np.ix_(*[f % M] * n)] = np.fft.fftn(arr, axes=range(n))[np.ix_(*[f % N] * n)]
    out = np.fft.ifftn(fine, axes=range(n)).real * (M / N) ** n
    return out.reshape((M**n,) + values.shape[1:])


def laplacian(grid, values):
    """Exact spectral Laplacian of grid samples [N, ...]: c_lam -> -lam c_lam."""
    lam = grid.lam.reshape(grid.lam.shape + (1,) * (values.ndim - 1))
    return grid.from_spec(grid.to_spec(values) * -lam)


def band_limited_field(grid, seed, comps=3, kmax=5):
    rng = np.random.default_rng(seed)
    v = np.zeros((grid.N, comps))
    x = grid.points
    for c in range(comps):
        for _ in range(4):
            k = rng.integers(-kmax, kmax + 1, size=grid.model.dim)
            v[:, c] += rng.standard_normal() * np.cos(x @ k + rng.uniform(0, TWO_PI))
    return v


def test_backend_requires_flat(sphere):
    prov = analytic_spectrum(sphere, count=40)
    emb = build_embedding(prov, 0.2, TruncationPolicy(q_override=24))
    with pytest.raises(PreconditionError, match="flat"):
        perturb.ConformalSolver(emb)
    with pytest.raises(PreconditionError):
        perturb.SpectralGrid(sphere, 16)


def test_round_trip_and_derivative_exactness(any_grid):
    grid = any_grid
    v = band_limited_field(grid, 1)
    assert_allclose(grid.from_spec(grid.to_spec(v)), v, atol=1e-12)
    # a single mode: the gradient and Laplacian are exact
    m = np.array([3, -2, 1])[:grid.model.dim]
    lam = float(m @ m)
    phase = grid.points @ m
    mode = np.cos(phase)[:, None]
    assert_allclose(laplacian(grid, mode), -lam * mode, atol=1e-13 * lam)
    assert_allclose(fft_grad(grid, mode)[:, 0], -np.sin(phase)[:, None] * m, atol=1e-13 * lam)
    # differentiation commutes with the transform
    g1 = fft_grad(grid, v)
    g2 = grid.from_spec(grid.to_spec(fft_grad(grid, v)))
    assert_allclose(g1, g2, atol=1e-12)


def test_dealiased_product_projection(any_grid):
    # pad/unpad reproduces the exact band-limited projection of a product
    grid = any_grid
    kmax = (grid.resolution // 2 - 1) // 2
    a = band_limited_field(grid, 2, comps=1, kmax=kmax)[:, 0]
    b = band_limited_field(grid, 3, comps=1, kmax=kmax)[:, 0]
    prod = grid.unpad(pad(grid, a[:, None]) * pad(grid, b[:, None]))[:, 0]
    direct = grid.from_spec(grid.to_spec((a * b)[:, None]))[:, 0]
    # frequencies |k| <= 2 kmax < Nyquist survive both paths identically
    assert_allclose(prod, direct, atol=1e-11)


def test_quadratic_products_alias_free_oracle(any_grid):
    """Modes with |k_a| < N/4: the plain coarse-grid products are alias-free,
    so they equal the dealiased accumulator without going through pad."""
    grid = any_grid
    e = 1.3
    v = band_limited_field(grid, 11, comps=3, kmax=(grid.resolution - 1) // 4)
    b, L = quadratic_products_v(grid, v, e, chunk=2)
    G = fft_grad(grid, v)                                # [N, m, n]
    H = fft_grad(grid, G)                                # [N, m, n, n]
    D = laplacian(grid, v)                               # [N, m]
    b_ref = np.einsum("nm,nmi->ni", D, G)
    L_ref = (np.einsum("nmli,nmlj->nij", H, H) - np.einsum("nm,nmij->nij", D, H)
             - 0.5 * e * np.einsum("nmi,nmj->nij", G, G))
    assert_allclose(b, b_ref, rtol=0, atol=1e-12 * np.max(np.abs(b_ref)))
    assert_allclose(L, L_ref, rtol=0, atol=1e-12 * np.max(np.abs(L_ref)))


def test_resolvent(sgrid):
    const = np.full((sgrid.N, 1), 3.0)
    assert_allclose(sgrid.resolvent(const, 2.0), -1.5, atol=1e-13)
    mode = np.cos(sgrid.points @ np.array([1, 0]))[:, None]
    assert_allclose(sgrid.resolvent(mode, 1.0), -mode / 2.0, atol=1e-13)
    v = band_limited_field(sgrid, 4)
    out = sgrid.resolvent(v, 1.7)
    back = laplacian(sgrid, out) - 1.7 * out
    assert_allclose(back, v, atol=1e-12)
    with pytest.raises(Exception):
        sgrid.resolvent(v, -1.0)


def test_Lij_trivial_inputs(sgrid):
    zero = np.zeros((sgrid.N, 2))
    for out in quadratic_products_v(sgrid, zero, 1.0):
        assert_allclose(out, 0.0, atol=1e-15)
    const = np.full((sgrid.N, 2), 1.3)
    for out in quadratic_products_v(sgrid, const, 1.0):
        assert_allclose(out, 0.0, atol=1e-13)


def test_Lij_single_mode_closed_form(sgrid):
    """One cosine component: the second-derivative products cancel and only
    the shift term -(e/2) grad v grad v survives."""
    e = 1.4
    m = np.array([2, 1])
    amp = 0.7
    v = amp * np.cos(sgrid.points @ m)[:, None]
    _, L = quadratic_products_v(sgrid, v, e)
    s2 = np.sin(sgrid.points @ m) ** 2
    expected = -(e / 2) * amp**2 * s2[:, None, None] * np.outer(m, m)
    assert_allclose(L, expected, atol=1e-10)


def test_Lij_spectral_identity(sgrid):
    """(Delta - e)(grad_i v . grad_j v) = 2 L_ij + transport terms.

    Both sides are computed by independent spectral routes on a random
    band-limited field; this pins the sign of the shift term in L.
    """
    e = 0.9
    v = band_limited_field(sgrid, 7, comps=2, kmax=4)
    Gv = fft_grad(sgrid, v)                              # [N, c, n]
    S = np.einsum("nci,ncj->nij", Gv, Gv)
    lhs = laplacian(sgrid, S) - e * S
    _, L = quadratic_products_v(sgrid, v, e)
    Dv = laplacian(sgrid, v)
    T = np.einsum("nc,nci->ni", Dv, Gv)                  # Delta v . grad v
    gradT = fft_grad(sgrid, T)                           # [N, i, j] = d_j T_i
    rhs = 2.0 * L + gradT + np.transpose(gradT, (0, 2, 1))
    # products leave the grid band; compare their band-limited projections
    lhs_p = sgrid.from_spec(sgrid.to_spec(lhs))
    rhs_p = sgrid.from_spec(sgrid.to_spec(rhs))
    assert np.max(np.abs(lhs_p - rhs_p)) <= 1e-7 * np.max(np.abs(lhs_p))


def test_quadratic_defining_equation(solver):
    """P(u) Q(v,v) reproduces the resolvent-processed right-hand side."""
    assert_allclose(solver.quadratic(np.zeros((solver.grid.N, 5))), 0.0, atol=1e-15)
    y = band_limited_y(solver.grid, 21, kmax=4, scale=1e-2)
    v = lift(solver, y).values
    P = right_inverse(solver).P
    Q = np.einsum("nmq,nm->nq", P, solver.quadratic(y))
    grid = solver.grid
    Dv, Gv = laplacian(grid, v), fft_grad(grid, v)
    prod = grid.unpad(np.einsum("fm,fmi->fi", pad(grid, Dv), pad(grid, Gv)))
    b, L = quadratic_products_v(grid, v, solver.e)
    assert_allclose(b, prod, atol=1e-12 * np.max(np.abs(prod)))
    X = -grid.resolvent(b, solver.e)
    B = grid.resolvent(L, solver.e)
    rhs = np.concatenate([X, jets.pack_symmetric(B)], axis=-1)
    img = np.einsum("nmq,nq->nm", P, Q)
    assert np.max(np.abs(img - rhs)) <= 1e-9 * max(1.0, np.max(np.abs(rhs)))


def test_quadratic_of_zero_is_exact_zero(solver):
    zero = np.zeros((solver.grid.N, 5))
    out = solver.quadratic(zero)
    assert out.shape == zero.shape and not out.any()


def test_quadratic_bilinear_bound(torus2):
    """Difference bound with a stable constant across random pairs."""
    prov = analytic_spectrum(torus2, count=80)
    emb = build_embedding(prov, 0.05, TruncationPolicy(q_override=48))
    small = perturb.ConformalSolver(emb, resolution=32, e=1.0)
    rng = np.random.default_rng(31)
    t = emb.t
    ratios = []
    for _ in range(20):
        v = 1e-3 * rng.standard_normal((small.grid.N, 5))
        u = 1e-3 * rng.standard_normal((small.grid.N, 5))
        dv = small.sup_norm(v - u)
        sv = small.sup_norm(v) + small.sup_norm(u)
        dq = small.sup_norm(small.quadratic(v) - small.quadratic(u))
        ratios.append(dq / (t ** (-1.25) * dv * sv))
    ratios = np.array(ratios)
    assert np.all(ratios > 0)
    assert ratios.max() / ratios.min() < 100.0
    assert ratios.max() < 10.0


def test_fixed_point_trivial(solver):
    f = np.zeros((solver.grid.N, 2, 2))
    history, y = fixed_point_solve(solver, f, k=0.0)
    assert len(history) == 1
    assert solver.sup_norm(y) == 0.0


def test_fixed_point_converges(solved):
    history, v = solved
    assert len(history) <= 20
    for st in history[1:]:
        assert st.contraction <= 0.5
    assert all(st.bound_ok for st in history)
    assert history[-1].residual <= 1e-10


def test_odd_resolution_converges(torus_embedding):
    odd = perturb.ConformalSolver(torus_embedding, resolution=33, e=1.0)
    f = perturb.manufactured_defect(odd.grid.points, 1e-3, [1, 0])
    history, _ = fixed_point_solve(odd, f, k=0.0, tol=1e-11)
    assert len(history) <= 20
    assert history[-1].residual <= 1e-10


def test_fixed_point_residual_identity(solver, manufactured, solved):
    # at convergence v solves its own defining equation to the tolerance
    _, y = solved
    seed = solver.seed(manufactured, 0.0)
    gap = y - seed - solver.quadratic(y)
    assert solver.sup_norm(gap) <= 1e-11


def test_verify_conformal(solver, manufactured, solved):
    """The verify numbers of assemble_C: the pair-form residual equals the
    step-by-step oracle bit for bit.  The pullback check, whose grad C comes
    from the pair identity, equals the oracle's from the FFT gradient of v to
    1e-15 where v lies in the open band (the solved and the zero y), and
    catches a corrupted y as the pair-form residual does."""
    _, y = solved
    rep = perturb.assemble_C(solver, y, manufactured)
    assert rep.residual_sup <= 1e-8
    assert rep.pullback_residual_sup <= 1e-8
    assert rep.residual.shape == (solver.grid.N, 2, 2)
    assert rep.residual_sup == np.max(np.abs(rep.residual))
    zero = np.zeros_like(y)
    rep0 = perturb.assemble_C(solver, zero, np.zeros_like(manufactured))
    assert rep0.residual_sup <= 1e-14
    corrupted = y.copy()
    corrupted[0, 2] += 1e-3
    repc = perturb.assemble_C(solver, corrupted, manufactured)
    assert repc.residual_sup > 1e-5
    assert repc.pullback_residual_sup > 1e-5
    for got, yy, f in ((rep, y, manufactured), (rep0, zero, np.zeros_like(manufactured)),
                       (repc, corrupted, manufactured)):
        want = verify_oracle(solver, yy, lift(solver, yy), f)
        assert got.residual_sup == want[0]
        assert np.array_equal(got.residual, want[2])
        if got is not repc:
            assert abs(got.pullback_residual_sup - want[1]) <= 1e-15


def test_theta_condition_rejection(solver):
    f = np.zeros((solver.grid.N, 2, 2))
    f[:, 0, 0] = 3.0 * np.cos(solver.grid.points[:, 0])
    f[:, 1, 1] = -f[:, 0, 0]
    with pytest.raises(PreconditionError, match="smallness"):
        fixed_point_solve(solver, f)


def test_traceless_rejection(solver):
    f = np.ones((solver.grid.N, 2, 2)) * 1e-3
    with pytest.raises(PreconditionError, match="traceless"):
        fixed_point_solve(solver, f)


def test_divergence_guard(solver, manufactured):
    with pytest.raises(ConvergenceError):
        fixed_point_solve(solver, manufactured, tol=1e-30, max_iter=5)


def test_non_finite_iterate_stops(solver, manufactured):
    start = np.full((solver.grid.N, 5), np.nan)
    with pytest.raises(ConvergenceError, match="non-finite iterate at step 1$"):
        fixed_point_solve(solver, manufactured, max_iter=40, y_start=start)


def test_assemble_C(solver, torus_embedding, manufactured, solved):
    """C and its checks at N = 48^2, q = 400; grad C is held one block of grid
    points at a time, so the traced peak of a call stays below the bytes of a
    whole grad C."""
    _, y = solved
    v = lift(solver, y)
    res = perturb.assemble_C(solver, y, manufactured)
    assert res.defect_sup <= 1e-10
    assert res.defect_sup == np.max(np.abs(res.defect))
    assert res.injectivity > 0 and res.injectivity_ok
    N, q = solver.grid.N, torus_embedding.q
    assert res.C.values.shape == (N, q)
    assert immersion(solver, y)[1].shape == (N, 2, q)
    tracemalloc.start()
    try:
        perturb.assemble_C(solver, y, manufactured)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * N * q * 8
    # C = psi (1 + y S) is Psi + P^T y of the oracle P to rounding
    psi = torus_embedding.jets(solver.grid.points)[0].T
    want = psi + v.values
    assert np.max(np.abs(res.C.values - want)) <= 1e-14 * np.max(np.abs(want))
    # v = 0: C is the embedding itself, still injective on the grid
    res0 = perturb.assemble_C(solver, np.zeros_like(y), np.zeros_like(manufactured))
    assert res0.injectivity > 0


def test_field_norms(sgrid):
    v = as_field(sgrid, np.zeros((sgrid.N, 4)))
    assert np.max(np.linalg.norm(v.values, axis=1)) == 0.0
    assert not v.grad.any()
    v2 = as_field(sgrid, np.ones((sgrid.N, 4)))
    assert_allclose(np.max(np.linalg.norm(v2.values, axis=1)), 2.0)
    assert_allclose(v2.grad, 0.0, atol=1e-15)


def test_solver_rejects_nonpositive_shift(torus_embedding):
    for e in (0.0, -1.0):
        with pytest.raises(ConfigError, match="spectral shift"):
            perturb.ConformalSolver(torus_embedding, resolution=8, e=e)


@pytest.mark.parametrize("dim, resolution", [(1, 10), (1, 9), (2, 8), (2, 7), (3, 6), (3, 5)])
def test_pruned_refinement_matches_oracle_upsampler(dim, resolution):
    """Band scatter into the pruned half-spectrum, then ifft/irfft, equals
    trigonometric upsampling, for every dimension and odd or even N."""
    model = ManifoldModel.flat_torus([TWO_PI, 3.1, 4.2][:dim])
    grid = perturb.SpectralGrid(model, resolution)
    v = np.random.default_rng(3).standard_normal((grid.N, 3))
    spec = np.fft.rfftn(v.T.reshape((-1,) + grid.shape), axes=range(1, dim + 1))
    assert grid._cols == (resolution - 1) // 2 + 1
    assert_allclose(grid.refine(spec).T, pad(grid, grid.from_spec(grid.to_spec(v))),
                    atol=1e-12)


@pytest.mark.parametrize("resolution", [16, 17])
def test_quadratic_products_on_a_circle_torus(resolution):
    """The 1-torus takes the same product path (no leading grid axes)."""
    grid = perturb.SpectralGrid(ManifoldModel.flat_torus([TWO_PI]), resolution)
    e = 0.8
    v = band_limited_field(grid, 5, comps=4, kmax=(resolution - 1) // 4)
    b, L = quadratic_products_v(grid, v, e, chunk=3)
    G = fft_grad(grid, v)
    D = laplacian(grid, v)
    H = fft_grad(grid, G)
    b_ref = np.einsum("nm,nmi->ni", D, G)
    L_ref = (np.einsum("nmli,nmlj->nij", H, H) - np.einsum("nm,nmij->nij", D, H)
             - 0.5 * e * np.einsum("nmi,nmj->nij", G, G))
    assert_allclose(b, b_ref, rtol=0, atol=1e-12 * np.max(np.abs(b_ref)))
    assert_allclose(L, L_ref, rtol=0, atol=1e-12 * np.max(np.abs(L_ref)))


def test_one_gradient_per_iterate(solver, manufactured, monkeypatch):
    """No FFT of a q-component field: the iterates are coefficients y whose
    channels Q and the residual take from their own transforms, and
    assemble_C takes grad C from the complex pairs.  At N = 48, where C lies
    in the open band, its block helper's grad C matches the FFT gradient of C
    to 1e-13 relative."""
    q, shapes = solver.emb.q, []
    for name in ("rfftn", "irfftn", "ifftn", "irfft"):
        def counted(a, *args, _transform=getattr(np.fft, name), **kwargs):
            shapes.append(np.shape(a))
            return _transform(a, *args, **kwargs)
        monkeypatch.setattr(np.fft, name, counted)
    history, y = fixed_point_solve(solver, manufactured, k=0.0, tol=1e-11)
    result = perturb.assemble_C(solver, y, manufactured)
    monkeypatch.undo()
    assert len(history) > 1 and shapes and not any(q in shape for shape in shapes)
    assert result.residual_sup == history[-1].residual
    C, grad_C = immersion(solver, y)
    assert np.array_equal(C, result.C.values)
    want = as_field(solver.grid, C).grad
    assert np.max(np.abs(grad_C - want)) <= 1e-13 * np.max(np.abs(want))


def test_pullback_check_on_a_coarse_grid(torus_embedding):
    """The smoke config of the CLI (t = 0.05, q = 400, resolution 16), where
    v = P^T y has content past the open band of the grid: the pullback check
    and the defect agree with the pair-form residual to 1e-12 at both k."""
    built = perturb.ConformalSolver(torus_embedding, resolution=16, e=1.0)
    f = perturb.manufactured_defect(built.grid.points, 1e-3, [1, 0])
    for k in (0.0, 1e-3):
        _, y = fixed_point_solve(built, f, k=k)
        res = perturb.assemble_C(built, y, f)
        assert res.residual_sup <= 1e-12
        assert res.pullback_residual_sup <= 1e-12
        assert res.defect_sup <= 1e-12


def test_solver_fetches_grid_jets_once(torus_embedding, monkeypatch):
    """Building the solver makes one `pairs` call on its grid, for psi, and no
    jet_block call; assemble_C makes neither.  psi is the embedding's values
    on the grid bit for bit, and its complex view pairs each cos column with
    its sin column."""
    provider = torus_embedding.provider
    calls = []
    jet_block, pairs = type(provider).jet_block, type(provider).pairs

    def counted_jets(self, j0, j1, points, deriv=2):
        calls.append("jet_block")
        return jet_block(self, j0, j1, points, deriv)

    def counted_pairs(self, j0, weights, points):
        calls.append("pairs")
        return pairs(self, j0, weights, points)

    monkeypatch.setattr(type(provider), "jet_block", counted_jets)
    monkeypatch.setattr(type(provider), "pairs", counted_pairs)
    built = perturb.ConformalSolver(torus_embedding, resolution=16)
    assert calls == ["pairs"]
    N = built.grid.N
    perturb.assemble_C(built, np.zeros((N, 5)), np.zeros((N, 2, 2)))
    assert calls == ["pairs"]
    monkeypatch.undo()
    values = torus_embedding.jets(built.grid.points)[0].T
    assert built.psi.shape == (N, torus_embedding.q // 2)
    assert np.array_equal(built.psi.view(float), values)
    assert np.array_equal(built.psi.real, values[:, 0::2])
    assert np.array_equal(built.psi.imag, values[:, 1::2])


@pytest.mark.parametrize("periods, t, resolution, count", [
    ([TWO_PI, TWO_PI], 0.05, 16, 600), ([TWO_PI, TWO_PI], 0.05, 33, 600),
    ([TWO_PI, 3.1], 0.1, 24, 200), ([TWO_PI] * 3, 0.2, 12, 200)],
    ids=["torus2-N16", "torus2-N33", "torus2-3.1-N24", "torus3-N12"])
def test_complex_pairs_match_the_jet_path(periods, t, resolution, count):
    """C, grad C and the jet Gram of the complex-pair form equal the generic
    jet path to 1e-14 relative: C = Psi + P^T y with the oracle P, grad C_j =
    sigma_j kappa_j C_p(j) + (P^T grad y)_j for the cos/sin partner p(j)
    (sigma = -1 for cos, +1 for sin), and the Gram P P^T at every point.
    grad C is the block helper's over the whole grid.  assemble_C's pullback
    check and defect, from its blocks of grid points (the last one partial on
    each grid here), equal those of the whole-array G = grad C grad C^T to
    1e-14 relative."""
    model = ManifoldModel.flat_torus(periods)
    emb = build_embedding(analytic_spectrum(model, count=count), t, TruncationPolicy(rho=1.0))
    built = perturb.ConformalSolver(emb, resolution=resolution, e=1.0)
    n, N, q = built.model.dim, built.grid.N, emb.q
    y = band_limited_y(built.grid, 23, kmax=3, scale=1e-2)
    res = perturb.assemble_C(built, y, np.zeros((N, n, n)))
    E = jets.PointwiseRightInverse(emb, built.grid.points)
    C = emb.jets(built.grid.points)[0].T + np.einsum("nmq,nm->nq", E.P, y)
    cos = emb.provider._parity[1:q + 1] == spectrum.COS
    partner = np.where(cos, np.arange(q) + 1, np.arange(q) - 1)
    sk = np.where(cos, -1.0, 1.0)[:, None] * emb.provider._kappa[1:q + 1]      # [q, n]
    dy = built._coarse_channels(y).reshape(len(built.M), 1 + n, N)[:, 1:]      # [m, n, N]
    grad_C = np.einsum("xrq,rix->xiq", E.P, dy) + sk.T * C[:, None, partner]
    grad = immersion(built, y)[1]
    for got, want in ((res.C.values, C), (grad, grad_C), (built.gram, E.gram)):
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
    G = grad @ grad.transpose(0, 2, 1)
    pullback = conformal_defect(G - built.gram[:, :n, :n], np.eye(n))[0]
    defect = conformal_defect(G, np.eye(n))[0]
    for got, want in ((res.pullback_residual_sup, np.max(np.abs(pullback))),
                      (res.defect, defect)):
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


def min_pair_distance(X: np.ndarray, block: int = 256) -> float:
    """Oracle: the smallest distance between distinct rows of X [N, q].

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


def test_min_pair_distance_in_blocks():
    rng = np.random.default_rng(12)
    X = rng.standard_normal((300, 7))
    X[123] = X[45] + 1e-3
    diff = X[:, None, :] - X[None, :, :]
    d = np.sqrt(np.sum(diff**2, axis=-1))
    np.fill_diagonal(d, np.inf)
    for block in (1, 7, 64, 256, 1000):
        assert_allclose(min_pair_distance(X, block), d.min(), rtol=1e-6)


@pytest.fixture(scope="module", params=[([TWO_PI, TWO_PI], 0.05, 48, 600),
                                        ([TWO_PI, 3.1], 0.1, 24, 200),
                                        ([TWO_PI] * 3, 0.2, 12, 200)],
                ids=["torus2-N48", "torus2-3.1-N24", "torus3-N12"])
def injectivity_case(request):
    """A solver, its manufactured defect and the solved y at k = 0 and 0.001."""
    periods, t, resolution, count = request.param
    model = ManifoldModel.flat_torus(periods)
    emb = build_embedding(analytic_spectrum(model, count=count), t, TruncationPolicy(rho=1.0))
    built = perturb.ConformalSolver(emb, resolution=resolution, e=1.0)
    f = perturb.manufactured_defect(built.grid.points, 1e-3, [1, 0])
    ys = {k: fixed_point_solve(built, f, k=k, tol=1e-10)[1] for k in (0.0, 1e-3)}
    return built, f, ys


@pytest.mark.parametrize("scale", [1, 30, 300])
@pytest.mark.parametrize("k", [0.0, 1e-3])
def test_injectivity_matches_pair_oracle(injectivity_case, k, scale):
    """The offset scan's injectivity equals the all-pairs oracle to 1e-12
    relative, for the solved y and for y scaled up until the bound prunes
    weakly (the 3-torus at y x 300)."""
    built, f, ys = injectivity_case
    if built.model.dim == 2 and built.grid.N == 48**2:
        assert built.emb.q == 400
    res = perturb.assemble_C(built, scale * ys[k], f)
    assert_allclose(res.injectivity, min_pair_distance(res.C.values), rtol=1e-12)


def test_manufactured_defect(sgrid):
    """epsilon cos(x . f_mode) diag(1, -1, 0...): along x it is the hand-built
    field bit for bit; f_mode is zero-padded to the model dimension.  Points
    of one column and an f_mode longer than the point width are config errors."""
    x = sgrid.points
    f = perturb.manufactured_defect(x, 1e-3, [1, 0])
    want = np.zeros((sgrid.N, 2, 2))
    want[:, 0, 0] = 1e-3 * np.cos(x[:, 0])
    want[:, 1, 1] = -1e-3 * np.cos(x[:, 0])
    assert np.array_equal(f, want)
    assert_allclose(perturb.manufactured_defect(x, 0.5, [0, 2])[:, 0, 0],
                    0.5 * np.cos(2 * x[:, 1]), rtol=1e-15)
    pts3 = np.array([[0.3, 1.0, 2.0], [4.0, 0.2, 5.0]])
    f3 = perturb.manufactured_defect(pts3, 2.0, [1])
    assert_allclose(f3, 2.0 * np.cos(pts3[:, 0])[:, None, None] * np.diag([1.0, -1.0, 0.0]),
                    rtol=1e-15)
    with pytest.raises(ConfigError, match="dimension at least 2"):
        perturb.manufactured_defect(np.zeros((3, 1)), 1.0, [1])
    with pytest.raises(ConfigError, match="3 entries, more than the model dimension 2"):
        perturb.manufactured_defect(x, 1e-3, [1, 0, 0])


@pytest.fixture(scope="module", params=[([TWO_PI, TWO_PI], 0.05, 48, 4),
                                        ([TWO_PI, 3.1], 0.05, 48, 4),
                                        ([TWO_PI] * 3, 0.2, 12, 2)],
                ids=["torus2-N48", "torus2-3.1-N48", "torus3-N12"])
def oracle_case(request):
    """A solver and random coefficients y whose v = P^T y lies in the open band."""
    periods, t, resolution, kmax = request.param
    model = ManifoldModel.flat_torus(periods)
    emb = build_embedding(analytic_spectrum(model, count=700 if len(periods) == 2 else 200),
                          t, TruncationPolicy(rho=1.0))
    built = perturb.ConformalSolver(emb, resolution=resolution, e=1.0)
    y = band_limited_y(built.grid, 17, kmax=kmax, scale=1e-3)
    return built, y


def test_y_space_matches_v_oracles(oracle_case):
    """Q and the residual from the pair forms in y equal the v-space oracles
    on v = P^T y to 1e-12 relative."""
    built, y = oracle_case
    grid = built.grid
    v = lift(built, y)
    spec = np.fft.rfftn(v.values.reshape(grid.shape + (-1,)), axes=range(grid.model.dim))
    assert np.max(np.abs(spec[~grid.band])) <= 1e-13 * np.max(np.abs(spec))
    want = quadratic_v(built, v.values)
    got = np.einsum("nmq,nm->nq", right_inverse(built).P, built.quadratic(y))
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
    f = perturb.manufactured_defect(grid.points, 1e-3, [1, 0])
    want = residual_v(built, v, f)
    assert np.max(np.abs(built.conformal_residual(y, f) - want)) <= 1e-12 * np.max(np.abs(want))


def test_family_bounds_match_v_formulas(oracle_case):
    """Distance sup |v_b - v_a|, upper 2 sup |E(0, dk g)| and lower |dk|/4 sup |w|
    from the constant coefficients equal the v-space numbers."""
    built, y_a = oracle_case
    y_b = y_a + band_limited_y(built.grid, 18, kmax=1, scale=1e-4)
    N, n, dk = built.grid.N, built.model.dim, 2e-3
    E = right_inverse(built)
    want = (np.max(np.linalg.norm(lift(built, y_b).values - lift(built, y_a).values, axis=1)),
            2.0 * np.max(np.linalg.norm(E.apply_tensor(np.zeros((N, n)),
                                                       np.broadcast_to(dk * np.eye(n), (N, n, n))),
                                        axis=1)),
            0.25 * dk * np.max(np.linalg.norm(E.kernel_generator(), axis=1)))
    assert_allclose(perturb.family_bounds(built, y_a, y_b, dk), want, rtol=1e-12)


def test_solver_needs_a_constant_gram(torus_embedding, monkeypatch):
    """A jet Gram that varies over the grid (one pair's value bumped at one
    grid point), or a provider without cos/sin pairs, is a precondition
    failure."""
    provider = torus_embedding.provider
    pairs = type(provider).pairs

    def bumped(self, j0, weights, points):
        kappa, s, psi = pairs(self, j0, weights, points)
        # the first cos/sin pair at x_7, whose Gram terms are about 1e-4 max|M|
        psi[7, 0] *= 1.0 + 1e-7
        return kappa, s, psi

    monkeypatch.setattr(type(provider), "pairs", bumped)
    with pytest.raises(PreconditionError, match="not constant"):
        perturb.ConformalSolver(torus_embedding, resolution=16)
    monkeypatch.undo()
    monkeypatch.delattr(spectrum.LatticeSpectrum, "pairs")
    with pytest.raises(PreconditionError, match="needs the cos/sin pairs"):
        perturb.ConformalSolver(torus_embedding, resolution=16)


def test_preflight_refuses_before_any_jets(torus_embedding, monkeypatch):
    """The 3-torus default (resolution 32, t = 0.05, q >= 1789) asks for Psi,
    |psi|^2 and C, with the jet Gram: against 1 GiB it is refused with one
    line giving both byte counts before `pairs` runs; the 2-torus
    acceptance solver fits in 0.2 GB; an unreadable meminfo skips the check."""
    assert geometry.available_bytes() is None or geometry.available_bytes() > 0
    model = ManifoldModel.flat_torus([TWO_PI] * 3)
    policy = TruncationPolicy(rho=1.0)
    assert policy.q(0.05, 3) == 1789
    emb = build_embedding(analytic_spectrum(model, count=2200), 0.05, policy)

    def no_pairs(*args, **kwargs):
        raise AssertionError("pairs called")

    monkeypatch.setattr(geometry, "available_bytes", lambda: 2**30)
    monkeypatch.setattr(type(emb.provider), "pairs", no_pairs)
    with pytest.raises(PreconditionError) as exc:
        perturb.ConformalSolver(emb)
    need = 8 * 32**3 * (2 * emb.q + emb.q // 2 + 81)
    msg = str(exc.value)
    assert f"about {need / 1e9:.2f} GB" in msg and "the 1.07 GB available" in msg
    assert "\n" not in msg and 2**30 < need < 2 * 2**30
    monkeypatch.setattr(geometry, "available_bytes", lambda: None)
    with pytest.raises(AssertionError, match="pairs called"):
        perturb.ConformalSolver(emb)
    monkeypatch.undo()
    monkeypatch.setattr(geometry, "available_bytes", lambda: 2 * 10**8)
    perturb.ConformalSolver(torus_embedding, resolution=48)


def test_solver_setup_peaks_below_its_preflight(torus_embedding):
    """Building the solver at N = 48^2, q = 400 peaks, traced, below its own
    preflight estimate 8 N (2 q + q/2 + m^2) (18.9 MB): the set-up holds psi,
    |psi|^2 and the jet Gram, and no jet values beside them."""
    tracemalloc.start()
    try:
        built = perturb.ConformalSolver(torus_embedding, resolution=48)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    N, q, m = built.grid.N, torus_embedding.q, len(built.M)
    assert peak < 8 * N * (2 * q + q // 2 + m * m)
