"""Pointwise jet operators of an embedding and their right inverses.

At a chart point x the operator P(u)(x) stacks the first and second covariant
derivatives of the embedding components into an m x q matrix,
m = n + n(n+1)/2, expressed in the orthonormal frame (which coincides with
normal coordinates at x to the orders used).  Row ordering contract:

    rows 0..n-1                first derivatives, frame directions ascending
    rows n..n+n(n-1)/2-1       mixed second derivatives (a, b), a < b, lexicographic
    remaining n rows           repeated second derivatives (a, a), a ascending

P_c(u) replaces each repeated row by its trace-free part and loses exactly
one rank; the lost direction is recovered by the kernel generator w solving
P w = (0, identity).  E = P^T (P P^T)^{-1} is the minimum-norm right inverse;
it is never materialized as a q x m matrix.  PointwiseRightInverse builds P
and its Gram over a point set and applies E pointwise; a single point is a
batch of one.  Its `gram_blocks` are the Grams of P and P_c with their
singular values, which the rank-law check and `heatconf gram` read.  On flat tori the fixed-point solver applies E through the
constant Gram and never forms P: each row is the embedding's complex cos/sin
pairs times a constant symbol (see `perturb`; the tests pin it to this class).
The frame is diagonal in the chart, so the rows of P are per-entry scalings
of the chart jets, with a Christoffel term only where Gamma is nonzero.  The
block inverse and the Xi matrices of the Gram asymptotics live here too.
"""
from __future__ import annotations

import numpy as np

from . import geometry
from .errors import PreconditionError


def row_index_pairs(n: int) -> list[tuple[int, int]]:
    """Second-derivative row ordering: off-diagonal pairs first, then diagonals."""
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    pairs += [(a, a) for a in range(n)]
    return pairs


def pack_symmetric(h: np.ndarray) -> np.ndarray:
    """Symmetric [..., n, n] -> packed [..., n(n+1)/2] per the row contract."""
    n = h.shape[-1]
    pairs = row_index_pairs(n)
    return np.stack([h[..., a, b] for a, b in pairs], axis=-1)


def _jet_rows(emb, points: np.ndarray):
    """The batched P matrices [N, m, q] in the orthonormal frame, from one
    jet call.

    The frame is diagonal in the chart (basis convention), so each row is its
    chart derivative scaled per point: d_a / sqrt(g_aa) for a gradient row and
    (d_a d_b - Gamma^k_ab d_k) / sqrt(g_aa g_bb) for a Hessian row.  The
    Christoffel term is subtracted only for the (k, a, b) where Gamma is
    nonzero somewhere on the point set; on flat models there are none.
    """
    points = np.asarray(points, dtype=float)
    model = emb.model
    n = model.dim
    grads, hess = emb.jets(points)[1:]                    # [q, N, n], [q, N, n, n]
    metric = geometry.metric_on_grid(model, points)
    gamma = metric.christoffel                            # [N, k, i, j]
    fr = np.einsum("nii->ni", metric.frame)               # [N, n]
    N, q = points.shape[0], grads.shape[0]
    m = n * (n + 3) // 2
    P = np.empty((N, m, q))
    for a in range(n):
        P[:, a] = (grads[:, :, a] * fr[:, a]).T
    for idx, (a, b) in enumerate(row_index_pairs(n)):
        row = hess[:, :, a, b]
        for k in np.flatnonzero(np.any(gamma[:, :, a, b] != 0, axis=0)):
            row = row - gamma[:, k, a, b] * grads[:, :, k]
        P[:, n + idx] = (row * (fr[:, a] * fr[:, b])).T
    return P


def trace_free_rows(P: np.ndarray, n: int) -> np.ndarray:
    """P_c from a P stack [..., m, q]: each repeated-derivative row minus their mean.

    The n repeated rows of the result sum to zero.
    """
    Pc = P.copy()
    diag = Pc[..., -n:, :]
    diag -= np.mean(diag, axis=-2, keepdims=True)
    return Pc


def block_inverse(A1: np.ndarray, A2: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Inverse of [[A1, b^T], [b, A2]] through the small-coupling factorization.

    With c = -A2^{-1} b A1^{-1} the inverse is
    [[A1^{-1}, c^T], [c, A2^{-1}]] . diag((I + b^T c)^{-1}, (I + b c^T)^{-1})
    exactly for symmetric A1, A2 (checked against dense inversion), and
    ||c|| <= ||A2^{-1}|| ||b|| ||A1^{-1}||.

    Takes stacks: A1 [..., m1, m1], A2 [..., m2, m2] and b [..., m2, m1] with
    broadcasting leading axes give [..., m1 + m2, m1 + m2], each member the
    inverse of its own triple; a 2-D triple is the stack with no leading axes.
    Every member must pass the residual check at its own scale, else the
    whole call raises.
    """
    A1 = np.asarray(A1, dtype=float)
    A2 = np.asarray(A2, dtype=float)
    b = np.asarray(b, dtype=float)
    m1, m2 = A1.shape[-1], A2.shape[-1]
    lead = np.broadcast_shapes(A1.shape[:-2], A2.shape[:-2], b.shape[:-2])
    b_t = np.swapaxes(b, -1, -2)
    try:
        A1_inv = np.linalg.inv(A1)
        A2_inv = np.linalg.inv(A2)
    except np.linalg.LinAlgError as exc:
        raise PreconditionError("diagonal blocks must be invertible") from exc
    c = -A2_inv @ b @ A1_inv
    c_t = np.swapaxes(c, -1, -2)
    left = np.zeros(lead + (m1 + m2, m1 + m2))
    left[..., :m1, :m1] = A1_inv
    left[..., :m1, m1:] = c_t
    left[..., m1:, :m1] = c
    left[..., m1:, m1:] = A2_inv
    try:
        right = np.zeros_like(left)
        right[..., :m1, :m1] = np.linalg.inv(np.eye(m1) + b_t @ c)
        right[..., m1:, m1:] = np.linalg.inv(np.eye(m2) + b @ c_t)
    except np.linalg.LinAlgError as exc:
        raise PreconditionError("coupling too large: I + b^T c is singular") from exc
    inv = left @ right
    M = np.zeros_like(left)
    M[..., :m1, :m1] = A1
    M[..., :m1, m1:] = b_t
    M[..., m1:, :m1] = b
    M[..., m1:, m1:] = A2
    resid = np.max(np.abs(M @ inv - np.eye(m1 + m2)), axis=(-2, -1))
    if np.any(resid > 1e-6 * np.maximum(1.0, np.max(np.abs(M), axis=(-2, -1)))):
        raise PreconditionError("coupling too large for the block-inverse route")
    return inv


class PointwiseRightInverse:
    """Batched E over a point set: builds every P(u)(x) and its Gram once.

    Each apply solves all Gram systems with one batched np.linalg.solve.
    """

    def __init__(self, emb, points: np.ndarray):
        self.emb = emb
        self.n = emb.model.dim
        self.points = np.asarray(points, dtype=float)
        self.P = _jet_rows(emb, self.points)            # [N, m, q]
        self.gram = self.P @ self.P.transpose(0, 2, 1)  # [N, m, m]

    def apply(self, rhs: np.ndarray) -> np.ndarray:
        """rhs [N, m] -> min-norm solutions [N, q].

        A one-point E broadcasts: rhs [K, m] gives the K solutions [K, q] at
        its point, each the same numbers as a single-row apply.
        """
        try:
            y = np.linalg.solve(self.gram, rhs[..., None])[..., 0]
        except np.linalg.LinAlgError as exc:
            raise PreconditionError("singular jet Gram matrix") from exc
        return np.einsum("nmq,nm->nq", self.P, y)

    def apply_tensor(self, f_vecs: np.ndarray, h_mats: np.ndarray) -> np.ndarray:
        rhs = np.concatenate([f_vecs, pack_symmetric(h_mats)], axis=-1)
        return self.apply(rhs)

    def gram_blocks(self):
        """The Grams of P and P_c at each point and their singular values:
        (G [N, m, m], G_c [N, m, m], sv [N, m], sv_c [N, m]), sv descending."""
        Pc = trace_free_rows(self.P, self.n)
        gram_c = Pc @ Pc.transpose(0, 2, 1)
        return (self.gram, gram_c, np.linalg.svd(self.gram, compute_uv=False),
                np.linalg.svd(gram_c, compute_uv=False))

    def kernel_generator(self) -> np.ndarray:
        """w over the whole grid, [N, q]."""
        N = len(self.points)
        eye = np.broadcast_to(np.eye(self.n), (N, self.n, self.n))
        return self.apply_tensor(np.zeros((N, self.n)), eye)


def xi_matrix(n: int, sigma: float) -> np.ndarray:
    """n x n matrix with unit diagonal and constant off-diagonal sigma."""
    return np.full((n, n), float(sigma)) + (1.0 - sigma) * np.eye(n)


def xi_inverse(n: int, sigma: float) -> np.ndarray:
    """Closed-form inverse (1/(1-sigma)) (I - sigma/(1+(n-1) sigma) J).

    Valid exactly on sigma in (-1/(n-1), 1); the boundary value loses rank.
    """
    lo = -1.0 / (n - 1)
    if not lo < sigma < 1.0:
        raise PreconditionError(
            f"sigma={sigma} outside the invertibility interval ({lo}, 1)")
    J = np.ones((n, n))
    return (np.eye(n) - (sigma / (1.0 + (n - 1) * sigma)) * J) / (1.0 - sigma)
