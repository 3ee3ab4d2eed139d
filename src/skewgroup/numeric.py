"""Dense complex linear algebra with tolerance-aware rank decisions.

Everything downstream funnels its rank/kernel questions through this module so
that a single relative-threshold convention applies across the library.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidInput

DEFAULT_TOL = 1e-9
DEFAULT_SEED = 1


def as_complex(m) -> np.ndarray:
    """Return a complex128 ndarray copy, rejecting non-finite entries."""
    a = np.asarray(m, dtype=np.complex128)
    if a.size and not np.all(np.isfinite(a)):
        raise InvalidInput("non-finite matrix entries")
    return a


def rank(m, tol: float = DEFAULT_TOL) -> int:
    """Number of singular values above tol relative to the largest one."""
    if tol <= 0:
        raise InvalidInput("tol must be positive")
    a = as_complex(m)
    if a.size == 0:
        return 0
    s = np.linalg.svd(a, compute_uv=False)
    scale = s[0] if s.size and s[0] > 0 else 1.0
    return int(np.sum(s > tol * scale))


def nullspace(m, tol: float = DEFAULT_TOL, scale_floor: float = 0.0) -> np.ndarray:
    """Orthonormal basis of the right kernel, columns of the returned matrix.

    The column count is cols - rank; an empty kernel gives a (cols, 0) array.
    `scale_floor` sets a lower bound on the scale used for the relative
    singular-value cutoff, for matrices that are differences of comparable
    quantities and may consist entirely of rounding noise.
    """
    if tol <= 0:
        raise InvalidInput("tol must be positive")
    a = as_complex(m)
    if a.shape[0] == 0:
        return np.eye(a.shape[1], dtype=np.complex128)
    _, s, vh = np.linalg.svd(a, full_matrices=True)
    scale = s[0] if s.size and s[0] > 0 else 1.0
    scale = max(scale, scale_floor)
    r = int(np.sum(s > tol * scale))
    return vh[r:].conj().T.copy()


def orthonormal_column_basis(m, tol: float = DEFAULT_TOL,
                             scale_floor: float = 0.0) -> np.ndarray:
    """Orthonormal basis of the column span of m.

    `scale_floor` bounds the scale of the relative singular-value cutoff from
    below, for inputs (e.g. idempotents) whose significant singular values
    have a known magnitude and which may degenerate to pure rounding noise.
    """
    a = as_complex(m)
    if a.size == 0:
        return np.zeros((a.shape[0], 0), dtype=np.complex128)
    u, s, _ = np.linalg.svd(a, full_matrices=False)
    scale = s[0] if s.size and s[0] > 0 else 1.0
    scale = max(scale, scale_floor)
    r = int(np.sum(s > tol * scale))
    return u[:, :r].copy()


def eig_hermitian(m, tol: float = DEFAULT_TOL):
    """Eigen-decomposition of a Hermitian matrix, eigenvalues ascending."""
    a = as_complex(m)
    if a.shape[0] != a.shape[1]:
        raise InvalidInput("matrix must be square")
    scale = max(np.linalg.norm(a), 1.0)
    if np.linalg.norm(a - a.conj().T) > tol * scale:
        raise InvalidInput("matrix is not Hermitian within tolerance")
    w, v = np.linalg.eigh((a + a.conj().T) / 2)
    return w, v


def solve_sandwich(pairs, tol: float = DEFAULT_TOL) -> list[np.ndarray]:
    """All X with X @ P_i == Q_i @ X for every pair (P_i, Q_i).

    Returns an orthonormal (as vectorized matrices) basis of the joint
    solution space, computed as the kernel of the stacked linear system.
    X has shape (rows of Q, rows of P).
    """
    if not pairs:
        raise InvalidInput("need at least one (P, Q) pair")
    mats = [(as_complex(p), as_complex(q)) for p, q in pairs]
    d = mats[0][0].shape[0]
    dp = mats[0][1].shape[0]
    if any(p.shape != (d, d) or q.shape != (dp, dp) for p, q in mats):
        raise InvalidInput("inconsistent pair dimensions")
    ps = np.stack([p for p, _ in mats])
    qs = np.stack([q for _, q in mats])
    floor = max(1.0, float(np.abs(ps).max()), float(np.abs(qs).max()))
    # row-major vec: vec(X @ P) = kron(I, P.T) vec(X), vec(Q @ X) = kron(Q, I) vec(X).
    # Summed over the pairs, the Gram matrix of these blocks is
    # I (x) sum conj(P) P.T + (sum Q^H Q) (x) I - S - S^H, S = sum kron(Q, conj(P)),
    # assembled from the factors without forming any (dp*d)^2 block.
    k, n = len(mats), dp * d
    s = (qs.reshape(k, -1).T @ ps.conj().reshape(k, -1)).reshape(dp, dp, d, d)
    s = s.transpose(0, 2, 1, 3).reshape(n, n)
    gram = (np.kron(np.eye(dp), (ps.conj() @ ps.transpose(0, 2, 1)).sum(axis=0))
            + np.kron((qs.conj().transpose(0, 2, 1) @ qs).sum(axis=0), np.eye(d))
            - s - s.conj().T)
    # Joint kernel via the normal-equations Gram matrix: one Hermitian
    # eigenproblem of size dp*d instead of an SVD of the tall stack.  The
    # cutoff scale is floored by the input magnitudes because the blocks are
    # differences of comparable products and may be pure rounding noise.
    w, v = np.linalg.eigh((gram + gram.conj().T) / 2)
    scale = max(float(w[-1]), floor * floor) if w.size else 1.0
    keep = w <= tol * scale
    ker = v[:, keep]
    return [ker[:, j].reshape(dp, d) for j in range(ker.shape[1])]


def rel_residual(delta, scale: float) -> float:
    """Frobenius norm of delta relative to max(scale, 1)."""
    return float(np.linalg.norm(delta) / max(scale, 1.0))
