"""Dense complex linear algebra with tolerance-aware rank decisions.

Everything downstream funnels its rank/kernel questions through this module so
that a single relative-threshold convention applies across the library.
"""

from __future__ import annotations

import math
from functools import cached_property

import numpy as np

from .errors import InvalidInput, brief

DEFAULT_TOL = 1e-9
DEFAULT_SEED = 1
# Largest entry modulus an input may hold: the validators' residual scales
# are at most cubic in the entries, so below it they stay finite.
ENTRY_BOUND = 1e100


def as_complex(m) -> np.ndarray:
    """Return m as a complex128 ndarray, rejecting non-finite entries.

    No copy is made when m already is one: callers that keep the array must
    copy it themselves.
    """
    a = np.asarray(m, dtype=np.complex128)
    if a.size and not np.isfinite(a).all():
        raise InvalidInput("non-finite matrix entries")
    return a


def check_entry_bound(a: np.ndarray, label) -> None:
    """Reject an array with an entry of modulus above ENTRY_BOUND; label(at)
    names the first such entry, at its index tuple at."""
    modulus = np.abs(a)
    if modulus.size and modulus.max() > ENTRY_BOUND:
        at = tuple(np.argwhere(modulus > ENTRY_BOUND)[0].tolist())
        raise InvalidInput(f"{label(at)} = {a[at]:.3g} exceeds {ENTRY_BOUND:g} "
                           f"in modulus")


def check_tol(tol) -> None:
    """Reject a tolerance outside (0, 1), where every rank would read 0."""
    if not 0 < tol < 1:
        raise InvalidInput(f"tol must be a number in (0, 1), got {brief(tol)}")


def complex_probes(rng, count: int, arity: int, dim: int):
    """The count probes of the generator rng, each an (arity, dim) stack of
    complex vectors: every vector's real part, then its imaginary part.
    Each probe is drawn when it is reached, so only one is held; the
    stream is that of one (count, arity, 2, dim) draw, bit for bit."""
    for _ in range(count):
        probe = rng.standard_normal((arity, 2, dim))
        yield probe[:, 0] + 1j * probe[:, 1]


def _scale(s, scale_floor: float = 0.0) -> float:
    """Scale of every relative singular-value cutoff: the largest of the
    descending singular values s (1 when none is positive), floored."""
    return max(s[0] if s.size and s[0] > 0 else 1.0, scale_floor)


def rank(m, tol: float) -> int | list[int]:
    """Number of singular values above tol relative to the largest one.

    A (count, rows, cols) stack gives the list of the count ranks, from one
    SVD call; each is decided as the rank of that matrix alone.
    """
    check_tol(tol)
    a = as_complex(m)
    if a.size == 0:
        return [0] * len(a) if a.ndim == 3 else 0
    s = np.linalg.svd(a, compute_uv=False)
    if a.ndim == 3:
        return [int(np.sum(r > tol * _scale(r))) for r in s]
    return int(np.sum(s > tol * _scale(s)))


def nullspace(m, tol: float, scale_floor: float = 0.0) -> np.ndarray:
    """Orthonormal basis of the right kernel, columns of the returned matrix.

    The column count is cols - rank; an empty kernel gives a (cols, 0) array.
    `scale_floor` sets a lower bound on the scale used for the relative
    singular-value cutoff, for matrices that are differences of comparable
    quantities and may consist entirely of rounding noise.
    """
    check_tol(tol)
    a = as_complex(m)
    if a.shape[0] == 0:
        return np.eye(a.shape[1], dtype=np.complex128)
    # A thin SVD already gives all right singular vectors of a matrix with at
    # least as many rows as columns, without forming a (rows, rows) U.
    _, s, vh = np.linalg.svd(a, full_matrices=a.shape[0] < a.shape[1])
    r = int(np.sum(s > tol * _scale(s, scale_floor)))
    return vh[r:].conj().T.copy()


def orthonormal_column_basis(m, tol: float,
                             scale_floor: float = 0.0) -> np.ndarray:
    """Orthonormal basis of the column span of m.

    `scale_floor` bounds the scale of the relative singular-value cutoff from
    below, for inputs (e.g. idempotents) whose significant singular values
    have a known magnitude and which may degenerate to pure rounding noise.
    """
    check_tol(tol)
    a = as_complex(m)
    if a.size == 0:
        return np.zeros((a.shape[0], 0), dtype=np.complex128)
    u, s, _ = np.linalg.svd(a, full_matrices=False)
    r = int(np.sum(s > tol * _scale(s, scale_floor)))
    return u[:, :r].copy()


def _diagonal_blocks(mats: np.ndarray) -> list[slice]:
    """Finest contiguous diagonal-block split shared by a (k, n, n) stack.

    Every entry of every matrix off the returned blocks is exactly zero.  The
    index r closes a block when no row or column up to r reaches past r.
    """
    n = mats.shape[1]
    if n == 1:
        return [slice(0, 1)]
    touch = (mats != 0).any(axis=0)
    touch |= touch.T
    touch.flat[::n + 1] = True
    reach = np.maximum.accumulate(n - 1 - touch[:, ::-1].argmax(axis=1))
    ends = ((reach == np.arange(n)).nonzero()[0] + 1).tolist()
    return [slice(lo, hi) for lo, hi in zip([0] + ends[:-1], ends)]


def _gram(ps: np.ndarray, qs: np.ndarray) -> np.ndarray:
    """Gram matrix of the stacked system X P_i - Q_i X, X row-major vectorized.

    vec(X @ P) = kron(I, P.T) vec(X) and vec(Q @ X) = kron(Q, I) vec(X);
    summed over the pairs the Gram matrix of these blocks is
    I (x) sum conj(P) P.T + (sum Q^H Q) (x) I - S - S^H, S = sum kron(Q, conj(P)),
    assembled from the factors without forming the kron product of any pair.
    """
    k, d, dp = ps.shape[0], ps.shape[1], qs.shape[1]
    n = dp * d
    s = (qs.reshape(k, -1).T @ ps.conj().reshape(k, -1)).reshape(dp, dp, d, d)
    s = s.transpose(0, 2, 1, 3).reshape(n, n)
    a = (ps.conj() @ ps.transpose(0, 2, 1)).sum(axis=0)
    b = (qs.conj().transpose(0, 2, 1) @ qs).sum(axis=0)
    left = np.eye(dp)[:, None, :, None] * a[:, None, :]
    right = b[:, None, :, None] * np.eye(d)[:, None, :]
    g = (left + right).reshape(n, n) - s - s.conj().T
    return (g + g.conj().T) / 2


class Side:
    """One side of an intertwiner system X P_i = Q_i X: k square (dim, dim)
    matrices, held as stacks of their diagonal blocks.

    `blocks` holds (slice, (k, b, b) stack) pairs in order along the
    diagonal; every entry off the blocks is exactly zero.
    """

    def __init__(self, dim: int, blocks):
        self.dim = dim
        self.blocks = tuple(blocks)
        if len({len(stack) for _, stack in self.blocks}) != 1:
            raise InvalidInput("blocks of one side hold different numbers "
                               "of matrices")

    @classmethod
    def split(cls, mats) -> Side:
        """The side of a stack of matrices along its finest diagonal-block
        split, checked square and finite; the blocks are views of the stack."""
        try:
            a = as_complex(mats)
        except ValueError:
            raise InvalidInput("inconsistent pair dimensions")
        if a.ndim != 3 or a.shape[1] != a.shape[2]:
            raise InvalidInput("inconsistent pair dimensions")
        return cls(a.shape[1], [(s, a[:, s, s]) for s in _diagonal_blocks(a)])

    @classmethod
    def direct_sum(cls, sides) -> Side:
        """The side of block-diagonal matrices with the given sides as
        blocks: their blocks, shifted and never copied."""
        blocks, lo = [], 0
        for side in sides:
            blocks += [(slice(s.start + lo, s.stop + lo), stack)
                       for s, stack in side.blocks]
            lo += side.dim
        return cls(lo, blocks)

    def __len__(self) -> int:
        return len(self.blocks[0][1])

    def __getitem__(self, t) -> np.ndarray:
        """Matrix t, spread to (dim, dim)."""
        out = np.zeros((self.dim, self.dim), dtype=np.complex128)
        for s, stack in self.blocks:
            out[s, s] = stack[t]
        return out

    @cached_property
    def largest(self) -> float:
        """Largest entry modulus over all matrices."""
        return max(float(np.abs(stack).max()) for _, stack in self.blocks)

    @cached_property
    def widest(self) -> int:
        """Size of the largest block."""
        return max(s.stop - s.start for s, _ in self.blocks)


class Pairs:
    """The pairs (P_i, Q_i) of an intertwiner system, held as its two sides.

    A sequence: pairs[t] is (P_t, Q_t) spread to dense matrices.
    """

    def __init__(self, p: Side, q: Side):
        if len(p) != len(q):
            raise InvalidInput(f"sides hold {len(p)} and {len(q)} matrices")
        self.p, self.q = p, q

    def __len__(self) -> int:
        return len(self.p)

    def __getitem__(self, t) -> tuple:
        return self.p[t], self.q[t]


def solve_sandwich(pairs, tol: float) -> list[np.ndarray]:
    """All X with X @ P_i == Q_i @ X for every pair (P_i, Q_i).

    `pairs` is a list of matrix pairs or a `Pairs`.  Returns an orthonormal
    (as vectorized matrices) basis of the joint solution space, computed as
    the kernel of the stacked linear system.  X has shape (rows of Q, rows
    of P).
    """
    if not pairs:
        raise InvalidInput("need at least one (P, Q) pair")
    if not isinstance(pairs, Pairs):
        pairs = Pairs(Side.split([p for p, _ in pairs]),
                      Side.split([q for _, q in pairs]))
    p, q = pairs.p, pairs.q
    d, dp = p.dim, q.dim
    # Off-block entries are exact zeros, so this is the largest entry of all
    # the matrices.
    floor = max(1.0, p.largest, q.largest)
    # Exact diagonal blocks shared by all Q_i split the rows of X, those of
    # the P_i its columns, and the system decouples into one sub-system per
    # (row block, column block): its Gram matrix is block-diagonal.
    # Joint kernel via the normal-equations Gram matrix: one Hermitian
    # eigenproblem per block instead of an SVD of the tall stack.  All blocks
    # share the cutoff one eigh of the whole Gram matrix would apply; its
    # scale is floored by the input magnitudes because the blocks are
    # differences of comparable products and may be pure rounding noise.
    # That scale is known only once every block is solved, so each block
    # keeps just the eigenvectors below the cutoff at a bound of the scale:
    # a block's Gram matrix is a sum over the k pairs of A_i^H A_i, and
    # ||A_i||_2 is at most the sum of the Frobenius norms of its P and Q
    # blocks, each at most its size times the largest entry.  The factor 2
    # covers rounding.  eigh sorts the eigenvalues ascending, so those below
    # a cutoff lead.
    reach = p.widest * p.largest + q.widest * q.largest
    bound = 2 * max(floor * floor, len(p) * reach * reach)
    solved = []
    for r, qb in q.blocks:
        for c, pb in p.blocks:
            w, v = np.linalg.eigh(_gram(pb, qb))
            n = w.searchsorted(tol * bound, "right")
            solved.append((r, c, w, v[:, :n].copy()))
    scale = max(max(float(w[-1]) for _, _, w, _ in solved), floor * floor)
    kept = [(w[j], r, c, v[:, j]) for r, c, w, v in solved
            for j in range(w.searchsorted(tol * scale, "right"))]
    out = []
    for _, r, c, vec in sorted(kept, key=lambda t: t[0]):
        x = np.zeros((dp, d), dtype=np.complex128)
        x[r, c] = vec.reshape(r.stop - r.start, c.stop - c.start)
        out.append(x)
    return out


def kron_stack(x, y) -> np.ndarray:
    """np.kron of the matching matrices of two stacks, (..., p, p') and
    (..., q, q') with broadcastable leading axes, as one broadcast product:
    out[..., a q + c, b q' + e] = x[..., a, b] y[..., c, e]."""
    out = x[..., :, None, :, None] * y[..., None, :, None, :]
    return out.reshape(out.shape[:-4] + (x.shape[-2] * y.shape[-2],
                                         x.shape[-1] * y.shape[-1]))


def scatter(idx, w, n) -> np.ndarray:
    """out[idx[t]] += w[t] over n complex entries, or n rows when w has rows,
    summed in the order of t."""
    out = np.zeros((n,) + np.shape(w)[1:], dtype=np.complex128)
    np.add.at(out, idx, w)
    return out


# a sum of squares that overflows is inf here, not a warning: it is handled
# below (as a decorator, errstate costs half what a with block costs per call)
@np.errstate(over="ignore")
def frobenius(x) -> float:
    """Frobenius norm of an array: sqrt(re.re + im.im) over its entries in
    memory order, the formula np.linalg.norm applies, without its argument
    handling.  When that sum of squares overflows, the norm of x scaled by
    its largest modulus, scaled back.
    """
    x = np.asarray(x).ravel(order="K")
    if x.dtype.kind == "c":
        re, im = x.real, x.imag
        total = re.dot(re) + im.dot(im)
    else:
        x = x.astype(float, copy=False)
        total = x.dot(x)
    if math.isfinite(total):
        return math.sqrt(total)
    largest = float(np.abs(x).max())
    if not largest < math.inf:            # an inf or nan entry
        return math.sqrt(total)
    return largest * frobenius(x / largest)


def rel_residual(delta, scale: float) -> float:
    """Frobenius norm of delta relative to max(scale, 1)."""
    return frobenius(delta) / max(scale, 1.0)
