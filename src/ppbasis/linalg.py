"""Dense linear-algebra kernel and the tolerance table of the package.

Everything downstream reduces to complex matrix work: SVD-based rank and
nullspace calls, orthonormalization, eigenvalue clustering for spectral
projections, and seeded randomness.  All routines are deterministic for a
fixed input and seed on a fixed platform; nothing here keeps global state.

Every numerical decision in ``ppbasis`` compares a residual against one of
the constants below, one name per role; a scaled test multiplies it by
1 + a norm at the site.  A ``tol`` parameter remains only where callers set
it: the flag decisions reached from a scenario's ``eps`` (or ``--eps``) and
the comparison predicates such as ``AlgebraElement.allclose``.
"""

import functools
import numbers

import numpy as np

from .errors import FactorizationFailed, InvalidInput

EPS_TRACE = 1e-12  # trace normalization sum n_i t_i = 1, same_structure, Perron positivity
EPS_RANK = 1e-10   # relative singular-value cutoff: rank, nullspace, orthonormal_columns
EPS_INPUT = 1e-10  # exactness of structural input: unitary blocks, trace compatibility, actions, allclose
EPS_REL = 1e-9     # linear identities: span closure, pushdown, Perron gap, commuting-square and expect floors
EPS_FLAG = 1e-8    # default of every flag decision (system, basis, normalizer, projection, ...); integer entries
EPS_WEDD = 1e-7    # acceptance of a Wedderburn attempt: minimal projections and matrix-unit relations
GAP_TOL = 1e-6     # relative gap separating eigenvalue clusters; integrality of ranks and traces
WEDD_TRIES = 5     # seeded attempts before wedderburn gives up


def _typed(f):
    """``f`` raising FactorizationFailed where numpy raises LinAlgError."""
    @functools.wraps(f)
    def wrapped(*args):
        try:
            return f(*args)
        except np.linalg.LinAlgError as exc:
            raise FactorizationFailed(str(exc)) from exc
    return wrapped


eigh = _typed(lambda h: np.linalg.eigh(h))


def check_tol(tol):
    """InvalidInput naming ``tol`` unless it is a real number, not a bool, with 0 < tol < inf;
    a non-finite tolerance would pass or fail every flag, and a string would escape as a TypeError."""
    if isinstance(tol, bool) or not isinstance(tol, numbers.Real) or not 0 < tol < np.inf:  # nan fails too
        raise InvalidInput("tol must be finite and positive, got %r" % (tol,))


def rng_from_seed(seed=0):
    """Fresh numpy Generator for ``seed``; callers thread it explicitly."""
    return np.random.default_rng(seed)


@_typed
def operator_norm(a):
    """Operator norm; a stack of matrices is read as its block-diagonal sum,
    whose norm is the largest block norm."""
    a = np.asarray(a)
    if a.size == 0:
        return 0.0
    return float(np.linalg.svd(a, compute_uv=False)[..., 0].max())


@_typed
def hermitian_norm(h):
    """Operator norm of a Hermitian matrix (or a stack of them), read off its eigenvalues."""
    return float(np.max(np.abs(np.linalg.eigvalsh(h)), initial=0.0))


@_typed
def rank(a):
    """Numerical rank by singular values above EPS_RANK * max(1, s_max)."""
    a = np.asarray(a, dtype=complex)
    if a.size == 0:
        return 0
    s = np.linalg.svd(a, compute_uv=False)
    cutoff = EPS_RANK * max(1.0, float(s[0]))
    return int(np.count_nonzero(s > cutoff))


@_typed
def nullspace(a):
    """Orthonormal columns spanning the right kernel of ``a``.

    Uses the same cutoff rule as :func:`rank`, so rank + nullity always
    equals the column count.  The square U factor is only formed when rows <
    cols, where vh needs padding to a full cols x cols basis.
    """
    a = np.asarray(a, dtype=complex)
    if a.size == 0:
        return np.eye(a.shape[1], dtype=complex)
    _, s, vh = np.linalg.svd(a, full_matrices=a.shape[0] < a.shape[1])
    cutoff = EPS_RANK * max(1.0, float(s[0]) if s.size else 0.0)
    r = int(np.count_nonzero(s > cutoff))
    return vh[r:].conj().T


@_typed
def orthonormal_columns(a):
    """Orthonormal basis of the column space of ``a`` (SVD based)."""
    a = np.asarray(a, dtype=complex)
    if a.size == 0 or not np.any(a):
        return np.zeros((a.shape[0], 0), dtype=complex)
    u, s, _ = np.linalg.svd(a, full_matrices=False)
    cutoff = EPS_RANK * max(1.0, float(s[0]))
    r = int(np.count_nonzero(s > cutoff))
    return u[:, :r]


def cluster_values(values):
    """Group real values into clusters separated by a relative gap above GAP_TOL.

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
        if sorted_vals[i] - sorted_vals[i - 1] > GAP_TOL * scale:
            groups.append(order[start:i])
            start = i
    groups.append(order[start:])
    return [(float(np.mean(vals[g])), np.array(g)) for g in groups]


@_typed
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


def projection_residuals(p):
    """(idempotency, self-adjointness) operator-norm residuals of ``p``; a stack
    of matrices is read as its block-diagonal sum."""
    p = np.asarray(p, dtype=complex)
    return operator_norm(p @ p - p), hermitian_norm(1j * (p - p.conj().swapaxes(-2, -1)))


def integer_matrix(a, what):
    """``a`` as an int matrix; InvalidInput unless its entries are nonnegative integers to EPS_FLAG."""
    a = np.asarray(a)
    if a.ndim != 2 or np.any(a < 0) or not np.allclose(a, np.round(a), rtol=0, atol=EPS_FLAG):
        raise InvalidInput("%s must be a matrix of nonnegative integers" % what)
    return np.round(a).astype(int)


def integer_trace(block, error):
    """The rank of a projection block from its trace; ``error`` unless that is an integer to GAP_TOL."""
    t = float(np.trace(block).real)
    if abs(t - round(t)) > GAP_TOL:
        raise error("projection block has non-integer trace %.6g" % t)
    return int(round(t))
