"""Dense linear-algebra kernel with tolerance-gated decisions.

Everything downstream reduces to complex matrix work: SVD-based rank and
nullspace calls, orthonormalization, eigenvalue clustering for spectral
projections, and seeded randomness.  All routines are deterministic for a
fixed input and seed on a fixed platform; nothing here keeps global state.
"""

import numpy as np

from .errors import InvalidInnerProduct, InvalidInput

EPS_REL = 1e-9    # residual acceptance for linear identities
EPS_RANK = 1e-10  # relative singular-value cutoff for rank decisions
GAP_TOL = 1e-6    # relative gap separating eigenvalue clusters


def rng_from_seed(seed=0):
    """Fresh numpy Generator for ``seed``; callers thread it explicitly."""
    return np.random.default_rng(seed)


def operator_norm(a):
    a = np.asarray(a)
    if a.size == 0:
        return 0.0
    return float(np.linalg.norm(a, 2))


def hermitian_norm(h):
    """Operator norm of a Hermitian matrix, read off its eigenvalues."""
    return float(np.max(np.abs(np.linalg.eigvalsh(h)), initial=0.0))


def rank(a, eps=EPS_RANK):
    """Numerical rank by singular values above eps * max(1, s_max)."""
    a = np.asarray(a, dtype=complex)
    if a.size == 0:
        return 0
    s = np.linalg.svd(a, compute_uv=False)
    cutoff = eps * max(1.0, float(s[0]))
    return int(np.count_nonzero(s > cutoff))


def nullspace(a, eps=EPS_RANK):
    """Orthonormal columns spanning the right kernel of ``a``.

    Uses the same cutoff rule as :func:`rank`, so rank + nullity always
    equals the column count.  The square U factor is only formed when rows <
    cols, where vh needs padding to a full cols x cols basis.
    """
    a = np.asarray(a, dtype=complex)
    if a.size == 0:
        return np.eye(a.shape[1], dtype=complex)
    _, s, vh = np.linalg.svd(a, full_matrices=a.shape[0] < a.shape[1])
    cutoff = eps * max(1.0, float(s[0]) if s.size else 0.0)
    r = int(np.count_nonzero(s > cutoff))
    return vh[r:].conj().T


def orthonormal_columns(a, eps=EPS_RANK):
    """Orthonormal basis of the column space of ``a`` (SVD based)."""
    a = np.asarray(a, dtype=complex)
    if a.size == 0 or not np.any(a):
        return np.zeros((a.shape[0], 0), dtype=complex)
    u, s, _ = np.linalg.svd(a, full_matrices=False)
    cutoff = eps * max(1.0, float(s[0]))
    r = int(np.count_nonzero(s > cutoff))
    return u[:, :r]


def gram_schmidt(vectors, inner=None, eps=1e-10):
    """Modified Gram-Schmidt against a user inner product.

    ``inner(x, y)`` must be linear in ``x`` and conjugate-linear in ``y``;
    the default is the standard complex dot product.  Dependent vectors are
    dropped, the independent ones keep their order.  Raises
    InvalidInnerProduct if the form fails a Hermitian-positivity check.
    """
    if inner is None:
        inner = lambda x, y: complex(np.vdot(y, x))
    out = []
    for v in vectors:
        w = np.array(v, dtype=complex)
        nrm2 = inner(w, w)
        if abs(nrm2.imag) > 1e-10 * (1.0 + abs(nrm2)) or nrm2.real < -1e-10:
            raise InvalidInnerProduct("inner(v, v) must be real nonnegative, got %r" % (nrm2,))
        # two MGS passes keep orthogonality near machine precision
        for _ in range(2):
            for u in out:
                w = w - inner(w, u) * u
        nrm2 = inner(w, w).real
        if nrm2 > eps * eps:
            out.append(w / np.sqrt(nrm2))
    return out


def cluster_values(values, gap=GAP_TOL):
    """Group real values into clusters separated by relative gap.

    Returns a list of (mean, index_array) pairs in increasing order of mean.
    """
    vals = np.asarray(values, dtype=float)
    if vals.size == 0:
        return []
    order = np.argsort(vals, kind="stable")
    sorted_vals = vals[order]
    scale = max(1.0, float(np.max(np.abs(vals))))
    groups = []
    start = 0
    for i in range(1, vals.size):
        if sorted_vals[i] - sorted_vals[i - 1] > gap * scale:
            groups.append(order[start:i])
            start = i
    groups.append(order[start:])
    return [(float(np.mean(vals[g])), np.array(g)) for g in groups]


def random_hermitian(n, rng):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (g + g.conj().T) / 2.0


def random_unitary(n, rng):
    """Haar-ish unitary via QR with the standard phase fix (deterministic)."""
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(g)
    d = np.diagonal(r)
    ph = d / np.abs(d)
    return q * ph


def block_diag(blocks):
    blocks = [np.asarray(b, dtype=complex) for b in blocks]
    if not blocks:
        return np.zeros((0, 0), dtype=complex)
    rows = sum(b.shape[0] for b in blocks)
    cols = sum(b.shape[1] for b in blocks)
    out = np.zeros((rows, cols), dtype=complex)
    r = c = 0
    for b in blocks:
        out[r:r + b.shape[0], c:c + b.shape[1]] = b
        r += b.shape[0]
        c += b.shape[1]
    return out


def check_square(a, name="matrix"):
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise InvalidInput("%s must be square, got shape %r" % (name, a.shape))
    return a


def projection_residuals(p):
    """(idempotency, self-adjointness) operator-norm residuals of ``p``."""
    p = np.asarray(p, dtype=complex)
    return operator_norm(p @ p - p), hermitian_norm(1j * (p - p.conj().T))


def is_projection_matrix(p, tol=1e-8):
    r1, r2 = projection_residuals(p)
    scale = 1.0 + operator_norm(p)
    return r1 <= tol * scale and r2 <= tol * scale
