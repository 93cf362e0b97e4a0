"""Basic construction for a unital inclusion with a fixed trace.

For N inside M acting on the GNS space L2(M) of dimension D, e1 is the
orthogonal projection onto the closure of N, and M1 = <M, e1> is the
commutant of the right action R of N (Jones: M1 = J N' J).  Members of M1
are their abstract blocks, or plain D x D arrays over the GNS coordinates.

Only e1 is computed eagerly.  M1 is read off N's matrix units e^i_{pq} in
closed form once per N (``m1_wedderburn``), with no D x D operator.  On block j
of M, R(e^i_{00}) is 1_{n_j} (x) conj(e^i_{00}), so the isometry V_i onto its
range is 1_{n_j} (x) conj(v_j) for the basis v_j of the range of block j of
e^i_{00} kept on N (``WedderburnData.ranges``, which N' cap M and R read too);
W_{i,p} = R(e^i_{0p}) V_i, and M1 = {sum_{i,p} W_{i,p} C_i W_{i,p}^*}.  So M1 is
the direct sum of M_{(Lambda n)_i}, block i sits over N's block i, and an
element of M1 given by its blocks C_i acts on columns through the W's
(``M1Wedderburn.apply``).  A Pimsner-Popa element v = L_x e1 is pushed
down as x = v 1^ (Pimsner and Popa), so the support construction reads each x
off v's blocks, and a projection cols cols^* in M1 has blocks read off row 0
(``M1Wedderburn.outer_blocks``).  The D^2-row Subalgebra ``m1`` is built only
when a caller reads it.

The Markov extension is a closed form in M1's central projections W_i W_i^*:
tr2 = Tr(. Z) with Z = sum_i (trace_sub[i] / (beta m_i)) W_i W_i^*, and the
expectation E_M: M1 -> M is a partial trace of T Z on each block of M.
"""

import functools
from dataclasses import dataclass

import numpy as np

from . import linalg
from .algebra import MultiMatrixAlgebra, Subalgebra
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
    m = np.asarray(sub_dims, dtype=float)
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
    """e1, M1 and the pushdown map for an inclusion N <= M.

    Only e1 is computed up front; M1 is built from N's matrix units on first
    use (``m1_wedd``), and the D^2-row ``m1`` only when a caller reads it.
    """

    def __init__(self, sub, seed=0):
        self.sub = sub
        self.amb = sub.ambient
        self.seed = seed
        self.e1 = sub.projection_matrix()
        self._identity_vec = self.amb.vec(self.amb.identity())

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
    def m1(self):
        """M1 as a Subalgebra of the D x D operators, spanned by its matrix units
        sum_p W_{i,p}[:, a] W_{i,p}[:, b]^* (D^2 rows; built on demand)."""
        wd, d = self.m1_wedd, self.gns_dim
        cols = []
        for w, m, k in zip(wd.isometries, wd.mults, wd.block_dims):
            w = w.reshape(-1, m, k)
            units = np.einsum("xpa,ypb->abxy", w, w.conj()).reshape(k * k, -1)
            # each unit has HS norm sqrt(m), and GNS vec scales by 1/sqrt(D)
            cols.append(units.T / np.sqrt(m))
        return Subalgebra(MultiMatrixAlgebra((d,), (1.0 / d,)), np.concatenate(cols, axis=1))

    def pushdown(self, v):
        """The unique x in M with v = L_x e1, for v in M1 satisfying v e1 = v."""
        v = np.asarray(v, dtype=complex)
        scale = 1.0 + linalg.operator_norm(v)
        if linalg.operator_norm(v @ self.e1 - v) > linalg.EPS_REL * scale:
            raise NotSupportedOnE1("pushdown input must satisfy v e1 = v")
        if self.m1_wedd.roundtrip_residual(v) > linalg.EPS_REL * scale:
            raise InvalidInput("pushdown input must lie in M1")
        x = self.amb.unvec(v @ self._identity_vec)
        q = self.sub.mat  # v = v e1 and L_x e1 vanish off e1's range Q: compare them on Q
        if linalg.operator_norm(self.amb.products(self.amb.vec(x)[:, None], q) - v @ q) > linalg.EPS_FLAG * scale:
            raise InvalidInput("pushdown reconstruction failed; input is not of the form L_x e1")
        return x

    def markov_extension(self, markov):
        """Trace on M1 extending the ambient trace in Markov mode."""
        return M1Trace(self, markov)


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

    def to_abstract(self, t):
        """Blocks C_i = (1/m_i) sum_p W_{i,p}^* T W_{i,p} of an operator T."""
        out = []
        for w, m, k in zip(self.isometries, self.mults, self.block_dims):
            s = (w.conj().T @ t @ w).reshape(m, k, m, k)
            out.append(np.einsum("papb->ab", s) / m)
        return out

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
        shapes = [np.shape(c) for c in blocks]
        if shapes != [(k, k) for k in self.block_dims]:
            raise InvalidInput("abstract blocks have the wrong shapes")
        return [np.asarray(c, dtype=complex) for c in blocks]

    def apply(self, blocks, cols):
        """sum_{i,p} W_{i,p} C_i W_{i,p}^* cols: the element of M1 with abstract blocks C_i
        applied to the columns of ``cols``, without forming it."""
        out = np.zeros(cols.shape, dtype=complex)
        for w, m, k, c in zip(self.isometries, self.mults, self.block_dims, self._checked(blocks)):
            out += w @ (c @ (w.conj().T @ cols).reshape(m, k, -1)).reshape(m * k, -1)
        return out

    def from_abstract(self, blocks):
        """The D x D operator sum_i W_i (1_{m_i} (x) C_i) W_i^* of M1."""
        out = np.zeros((self.gns_dim, self.gns_dim), dtype=complex)
        for w, m, k, c in zip(self.isometries, self.mults, self.block_dims, self._checked(blocks)):
            out += (w.reshape(-1, m, k) @ c).reshape(-1, m * k) @ w.conj().T
        return out

    def roundtrip_residual(self, t):
        """||T - E_M1(T)||_HS / sqrt(D), with E_M1(T) = from_abstract(to_abstract(T))."""
        t = np.asarray(t, dtype=complex)
        return float(np.linalg.norm(t - self.from_abstract(self.to_abstract(t)))) / np.sqrt(self.gns_dim)


class M1Trace:
    """The Markov extension tr2 = (trace of sub)/beta on the blocks of M1.

    With W_i W_i^* M1's central projections and w_i = trace_sub[i]/beta, tr2 is
    Tr(. Z) for Z = sum_i (w_i/m_i) W_i W_i^*.  Z is central in M1, so on L(M) tr2
    weighs block j of M by c_j = Tr(Z_jj)/n_j, and the tr2-preserving
    expectation E_M: M1 -> M is, on block j, the partial trace of (T Z)_jj
    over its right tensor factor, divided by c_j.
    """

    def __init__(self, bc, markov):
        self.bc = bc
        self.markov = markov
        wd = bc.m1_wedd
        # M1 block i sits over block i of bc.sub_wedd; markov.trace_sub follows that order
        if len(markov.trace_sub) != len(wd.block_dims):
            raise InvalidInput("the Markov data needs one trace per block of the subalgebra")
        w = np.asarray(markov.trace_sub, dtype=float) / markov.beta
        self.z = sum(wi / m * (u @ u.conj().T) for wi, m, u in zip(w, wd.mults, wd.isometries))
        offs = np.cumsum([0] + [n * n for n in bc.amb.dims])
        self._cuts = list(zip(bc.amb.dims, offs, offs[1:]))
        # c_j, the weight of block j of M: tr2(L_x) = sum_j c_j Tr(x_j)
        self._c = [np.trace(self.z[lo:hi, lo:hi]).real / n for n, lo, hi in self._cuts]

    def trace(self, mat):
        """tr2 of an operator in M1."""
        return complex(np.sum(np.asarray(mat, dtype=complex) * self.z.T))

    def expect_onto_ambient(self, mat):
        """Trace-preserving conditional expectation of M1 onto the ambient algebra."""
        tz = np.asarray(mat, dtype=complex) @ self.z
        blocks = [
            np.einsum("prqr->pq", tz[lo:hi, lo:hi].reshape(n, n, n, n)) / c
            for (n, lo, hi), c in zip(self._cuts, self._c)
        ]
        return self.bc.amb.element(blocks)


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
