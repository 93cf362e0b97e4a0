"""Basic construction for a unital inclusion with a fixed trace.

For N inside M acting on the GNS space L2(M) of dimension D, e1 is the
orthogonal projection onto the closure of N, and M1 = <M, e1> is the
commutant of the right action R of N (Jones: M1 = J N' J).  An element of M1
enters and leaves this module, ``systems``, ``intermediate`` and ``scenarios``
as its list of blocks C_i, one k_i-square array per block of M1.

M1 is read off N's matrix units e^i_{pq} in closed form once per N
(``m1_wedderburn``), with no D x D operator.  On block j of M, R(e^i_{00}) is
1_{n_j} (x) conj(e^i_{00}), so the isometry V_i onto its range is
1_{n_j} (x) conj(v_ij) for the basis v_ij of the range of block j of e^i_{00}
kept on N (``WedderburnData.ranges``, which N' cap M and R read too);
W_{i,p} = R(e^i_{0p}) V_i, and M1 = {sum_{i,p} W_{i,p} C_i W_{i,p}^*}.  So M1 is
the direct sum of M_{(Lambda n)_i} (Goodman, de la Harpe and Jones), block i
sits over N's block i, and C_i's rows on block j of M are ordered (r, a) with
r < n_j and a < Lambda_ij.  An element of M1 acts on columns through the W's
(``M1Wedderburn.apply``), and a projection cols cols^* in M1, such as e1 or a
support, has blocks read off row 0 (``M1Wedderburn.outer_blocks``).  An element
v = L_x e1 is pushed down as x = v 1^ (Pimsner and Popa: M1 e1 = M e1).

The Markov extension is a closed form in the blocks: with w_i = trace_sub[i]/beta,
tr2(C) = sum_i w_i Tr C_i, and E_M(C) on block j of M is
sum_i w_i Tr_{Lambda_ij}(C_i^{(jj)}) / sum_i w_i Lambda_ij, a partial trace of
the (n_j Lambda_ij)-square diagonal piece of each C_i over block j.
"""

import functools
from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import InvalidInput, NonConnected, NotSupportedOnE1


@dataclass
class MarkovData:
    """Perron data of an inclusion matrix: tr(sub) = Lambda tr(amb)."""

    beta: float
    trace_sub: np.ndarray
    trace_amb: np.ndarray


def markov_trace(inclusion, sub_dims):
    """Markov trace pair for an inclusion matrix and subalgebra dims.

    Solves Lambda^T Lambda t = beta t for the Perron eigenvalue beta and
    strictly positive eigenvector, normalized so the ambient trace is a
    state.  Raises NonConnected when the inclusion graph is disconnected
    (zero row/column, degenerate Perron eigenvalue, or a non-positive
    eigenvector).
    """
    lam = linalg.integer_matrix(inclusion, "inclusion matrix")
    if np.any(lam.sum(axis=1) == 0) or np.any(lam.sum(axis=0) == 0):
        raise NonConnected("inclusion matrix has a zero row or column")
    m = linalg.integers(sub_dims, "sub_dims")
    if m.shape != (lam.shape[0],) or np.any(m < 1):
        raise InvalidInput("sub_dims must list one positive dimension per row of the inclusion matrix")
    n = lam.T @ m
    s = (lam.T @ lam).astype(float)
    vals, vecs = linalg.eigh(s)
    beta = float(vals[-1])
    if s.shape[0] >= 2 and vals[-2] > beta * (1.0 - linalg.EPS_REL):
        raise NonConnected("Perron eigenvalue is degenerate; inclusion graph is disconnected")
    v = vecs[:, -1]
    v = v * np.sign(v[np.argmax(np.abs(v))])
    if np.min(v) <= linalg.EPS_TRACE * np.max(v):
        raise NonConnected("Perron eigenvector is not strictly positive")
    t_amb = v / float(n @ v)
    t_sub = lam @ t_amb
    return MarkovData(beta=beta, trace_sub=t_sub, trace_amb=t_amb)


class BasicConstruction:
    """e1, M1 and the pushdown map for an inclusion N <= M, in M1's blocks.

    Nothing is computed up front; M1's blocks are read off N's matrix units on
    first use (``m1_wedd``), and e1 is its blocks there.
    """

    def __init__(self, sub, seed=0):
        self.sub = sub
        self.amb = sub.ambient
        self.seed = seed

    @property
    def gns_dim(self):
        return self.amb.gns_dim

    @property
    def sub_wedd(self):
        """Wedderburn data of N (kept on N); block i of M1 sits over its block i."""
        return self.sub.wedderburn_data(self.seed)

    @property
    def m1_wedd(self):
        return m1_wedderburn(self.sub, self.seed)

    @functools.cached_property
    def e1(self):
        """e1's blocks in M1, read-only: the projection Q Q^* onto N's closure, Q = sub.mat."""
        blocks = self.m1_wedd.outer_blocks(self.sub.mat)
        for c in blocks:
            c.flags.writeable = False
        return blocks

    @functools.cached_property
    def _one_and_q(self):
        """[1^, Q]: the GNS vector of 1, then N's orthonormal basis Q = sub.mat."""
        return np.concatenate([self.amb.vec(self.amb.identity())[:, None], self.sub.mat], axis=1)

    def pushdown(self, v):
        """The unique x in M with v = L_x e1, for v in M1 given by its blocks with v e1 = v: x = v 1^."""
        wd = self.m1_wedd
        v = wd._checked(v)
        scale = 1.0 + m1_norm(v)
        if m1_norm([c @ e - c for c, e in zip(v, self.e1)]) > linalg.EPS_REL * scale:
            raise NotSupportedOnE1("pushdown input must satisfy v e1 = v")
        # v = v e1 and L_x e1 vanish off e1's range Q: compare them on Q
        cols = wd.apply(v, self._one_and_q)
        x = self.amb.unvec(cols[:, 0])
        r = self.amb.products(self.amb.vec(x)[:, None], self.sub.mat) - cols[:, 1:]
        if np.sqrt(linalg.hermitian_norm(r.conj().T @ r)) > linalg.EPS_FLAG * scale:  # ||r|| from the dim N-square r* r
            raise InvalidInput("pushdown reconstruction failed; input is not of the form L_x e1")
        return x

    def markov_extension(self, markov):
        """Trace on M1 extending the ambient trace in Markov mode."""
        return M1Trace(self, markov)


def m1_norm(blocks):
    """Operator norm of the element of M1 with these blocks: its largest block norm, one call per block size."""
    return max(linalg.operator_norm(s) for s in linalg.stacks(blocks))


def m1_wedderburn(sub, seed=0):
    """M1's block data over N, built from ``sub.wedderburn_data(seed)`` once and kept on N."""
    if sub._m1 is None:
        sub._m1 = M1Wedderburn(sub.wedderburn_data(seed))
    return sub._m1


def _kron_eye(n, v):
    """1_n (x) v, without np.kron's overhead."""
    out = np.zeros((n, v.shape[0], n, v.shape[1]), dtype=complex)
    out[np.arange(n), :, np.arange(n)] = v
    return out.reshape(n * v.shape[0], -1)


class M1Wedderburn:
    """Block structure of M1 read off N's matrix units; block i sits over N's block i.

    ``isometries[i]`` is the D x (m_i k_i) matrix [W_{i,0}, ..., W_{i,m_i-1}]
    with W_{i,p} = R(e^i_{0p}) V_i, and V_i is 1_{n_j} (x) conj(v_j) on block j
    of M for v_j in ``sub_wedd.ranges`` (see the module docstring).  Its columns
    are an orthonormal basis of the range of the i-th central projection, and in
    them an operator of M1 is 1_{m_i} (x) C_i; C_i is the operator's abstract block.  ``apply`` acts with
    an element of M1 on columns from its blocks, one product per block.
    """

    def __init__(self, sub_wedd):
        amb = sub_wedd.subalgebra.ambient
        self.gns_dim, self.mults, self._amb = amb.gns_dim, tuple(sub_wedd.block_dims), amb
        self._rows = [units[0] for units in sub_wedd.units]
        self._v = [  # V_i = W_{i,0}
            linalg.block_diag([_kron_eye(n, v.conj()) for n, v in zip(amb.dims, vs)]) for vs in sub_wedd.ranges]
        self.block_dims = tuple(v.shape[1] for v in self._v)
        # the V_i^* stacked by block size, so that blocks of one size come from one batched product
        self._sizes = [(k, [i for i, d in enumerate(self.block_dims) if d == k]) for k in sorted(set(self.block_dims))]
        self._row0h = np.concatenate([self._v[i] for _, grp in self._sizes for i in grp], axis=1).conj().T

    @functools.cached_property
    def isometries(self):
        """The [W_{i,0}, ..., W_{i,m_i-1}], built on first use: ``outer_blocks`` reads only the V_i."""
        return [np.concatenate([self._amb.products(v, u.vec()[:, None]) for u in row], axis=1)
                for v, row in zip(self._v, self._rows)]

    def outer_blocks(self, cols):
        """Blocks C_i = W_{i,0}^* cols cols^* W_{i,0} of cols cols^*, which must lie in M1:
        a support W W^*, e1 (cols = N's basis) or e_P for P >= N (cols = P's basis)."""
        rows, out, lo = self._row0h @ cols, [None] * len(self.block_dims), 0
        for k, grp in self._sizes:
            r = rows[lo:lo + k * len(grp)].reshape(len(grp), k, -1)
            lo += k * len(grp)
            for i, c in zip(grp, r @ r.conj().transpose(0, 2, 1)):
                out[i] = c
        return out

    def _checked(self, blocks):
        """``blocks`` as complex arrays; InvalidInput unless they are finite and one k_i-square array per block."""
        shapes = [np.shape(c) for c in blocks]
        if shapes != [(k, k) for k in self.block_dims]:
            raise InvalidInput("M1's blocks must be %d arrays of shapes %s" % (len(self.block_dims), self.block_dims))
        out = [np.asarray(c, dtype=complex) for c in blocks]
        if not all(np.isfinite(c).all() for c in out):
            raise InvalidInput("M1's blocks must be finite")
        return out

    def apply(self, blocks, cols):
        """sum_{i,p} W_{i,p} C_i W_{i,p}^* cols: the element of M1 with abstract blocks C_i
        (checked by the caller) applied to the columns of ``cols``, without forming it."""
        out = np.zeros(cols.shape, dtype=complex)
        for w, m, k, c in zip(self.isometries, self.mults, self.block_dims, blocks):
            out += w @ (c @ (w.conj().T @ cols).reshape(m, k, -1)).reshape(m * k, -1)
        return out

    def from_abstract(self, blocks):
        """The D x D operator sum_i W_i (1_{m_i} (x) C_i) W_i^* of M1."""
        out = np.zeros((self.gns_dim, self.gns_dim), dtype=complex)
        for w, m, k, c in zip(self.isometries, self.mults, self.block_dims, self._checked(blocks)):
            out += (w.reshape(-1, m, k) @ c).reshape(-1, m * k) @ w.conj().T
        return out


class M1Trace:
    """The Markov extension tr2 = (trace of sub)/beta on the blocks of M1.

    With w_i = trace_sub[i]/beta, tr2(C) = sum_i w_i Tr C_i, so tr2(L_x) weighs
    block j of M by c_j = sum_i w_i Lambda_ij.  The tr2-preserving expectation
    E_M: M1 -> M is, on block j, sum_i w_i Tr_{Lambda_ij}(C_i^{(jj)}) / c_j, the
    partial trace over a of the diagonal piece of C_i with rows (r, a) on block j.
    """

    def __init__(self, bc, markov):
        self.bc = bc
        self.markov = markov
        # M1 block i sits over block i of bc.sub_wedd; markov.trace_sub follows that order
        if len(markov.trace_sub) != len(bc.m1_wedd.block_dims):
            raise InvalidInput("the Markov data needs one trace per block of the subalgebra")
        self._w = np.asarray(markov.trace_sub, dtype=float) / markov.beta
        self._lam = np.array([[v.shape[1] for v in vs] for vs in bc.sub_wedd.ranges])  # Lambda_ij
        self._c = self._w @ self._lam

    def trace(self, blocks):
        """tr2 of the element of M1 with these blocks."""
        return complex(sum(w * np.trace(c) for w, c in zip(self._w, self.bc.m1_wedd._checked(blocks))))

    def expect_onto_ambient(self, blocks):
        """Trace-preserving conditional expectation onto the ambient algebra of the element of M1 with these blocks."""
        dims = self.bc.amb.dims
        out = [np.zeros((n, n), dtype=complex) for n in dims]
        for w, lam, c in zip(self._w, self._lam, self.bc.m1_wedd._checked(blocks)):
            lo = 0
            for j, (n, k) in enumerate(zip(dims, lam)):
                out[j] += w * np.einsum("rasa->rs", c[lo:lo + n * k, lo:lo + n * k].reshape(n, k, n, k))
                lo += n * k
        return self.bc.amb.element([x / c for x, c in zip(out, self._c)])


@dataclass
class WatataniData:
    element: object
    is_central: bool
    scalar: object  # float when the index is a scalar multiple of 1, else None


def watatani_index(elements, tol=linalg.EPS_FLAG):
    """Sum of lambda_i lambda_i* with centrality and scalarity flags."""
    linalg.check_tol(tol)
    if not elements:
        raise InvalidInput("need at least one element")
    alg = elements[0].alg
    for lam in elements:
        alg.check_owns(lam)
    # block j of the sum is L L* for the n_j x (count n_j) matrix L = [lam_1, lam_2, ...] of the blocks j
    rows = [np.concatenate([lam.blocks[j] for lam in elements], axis=1) for j in range(alg.nblocks)]
    acc = alg.element([r @ r.conj().T for r in rows])
    scale = 1.0 + acc.op_norm()
    # the commutators [acc, e] with every matrix unit e, whose coordinates are the columns of units
    a, units = alg.vec(acc)[:, None], np.diag(alg.gns_weights)
    central = bool(np.linalg.norm(alg.products(a, units) - alg.products(units, a), axis=0).max() <= tol * scale)
    c = acc.trace().real
    scalar = None
    if (acc - alg.scalar(c)).norm() <= tol * scale:
        scalar = float(c)
    return WatataniData(element=acc, is_central=central, scalar=scalar)
