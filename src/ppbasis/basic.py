"""Basic construction for a unital inclusion with a fixed trace.

For N inside M acting on the GNS space L2(M) of dimension D, e1 is the
orthogonal projection onto the closure of N, and M1 = <M, e1> = J N' J is the
sum of the M_{(Lambda n)_i} over N's blocks i (Goodman, de la Harpe and Jones).
An element of M1 enters and leaves this module, ``systems``, ``intermediate``
and ``scenarios`` as its list of blocks C_i, one k_i-square array per block.

On block j of M the e^i_p0 v_a, for the basis v_a of the range of e^i_00 there,
are the columns of a unitary, the frame U_j (``WedderburnData.frames``).  A GNS
column X, read as the n_j-square matrix X_j on each block j, rotates to X_j U_j,
whose columns (i, p, a) hold W_{i,p}^* X with rows (r, a): W_{i,p} = R(e^i_0p) V_i
for V_i = 1_{n_j} (x) conj(v_ij), and M1 = {sum_{i,p} W_{i,p} C_i W_{i,p}^*}.  The
Gram matrix and the support of a family, e1 (the support of {1}), e_P, the action
of M1 and the pushdown x = v 1^ (Pimsner and Popa: M1 e1 = M e1) are contractions
of that one rotation (``M1Wedderburn.rows``).  The Markov extension is a closed
form in the blocks (``M1Trace``).  M1's block data (``wd.m1``, with ``markov`` and ``e1``) is kept on N's
Wedderburn data beside Lambda and the inner basis of R over N (``wd.lam``, ``wd.inner_basis``): ``algebra``
imports this module, and this module nothing from it.
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

    Nothing is computed up front; M1's blocks, e1 among them, are read off N's
    matrix units on first use and kept on N's Wedderburn data (``m1_wedd``).
    """

    def __init__(self, sub, seed=0):
        self.sub = sub
        self.amb = sub.ambient
        self.seed = seed

    @property
    def m1_wedd(self):
        """``wd.m1`` for N's Wedderburn data wd; block i of M1 sits over N's block i."""
        return self.sub.wedderburn_data(self.seed).m1

    @property
    def e1(self):
        """e1's blocks in M1, read-only and kept on N (``M1Wedderburn.e1``)."""
        return self.m1_wedd.e1

    def pushdown(self, v):
        """The unique x in M with v = L_x e1, for v in M1 given by its blocks with v e1 = v: x = v 1^."""
        wd = self.m1_wedd
        v = wd._checked(v)
        scale = 1.0 + linalg.block_norm(v)
        if linalg.block_norm([c @ e - c for c, e in zip(v, self.e1)]) > linalg.EPS_REL * scale:
            raise NotSupportedOnE1("pushdown input must satisfy v e1 = v")
        one = self.amb.vec(self.amb.identity())[:, None]
        x = wd.apply(v, one)
        lift = wd.support(wd.rows(x), wd.rows(one))  # L_x e1, from the rows of x^ and of 1^
        if linalg.block_norm([a - c for a, c in zip(lift, v)]) > linalg.EPS_FLAG * scale:
            raise InvalidInput("pushdown reconstruction failed; input is not of the form L_x e1")
        return self.amb.unvec(x[:, 0])

    def markov_extension(self):
        """Trace on M1 extending the ambient trace in Markov mode, from the kept ``m1_wedd.markov``."""
        return M1Trace(self)


class M1Wedderburn:
    """Block structure of M1 read off N's matrix units; block i sits over N's block i.

    ``rows`` rotates columns into the frames of ``sub_wedd`` (see the module docstring), and an
    element of M1 acts as C_i on each (i, p) slice of the rows, W_{i,p}^* cols (``apply``).
    Lambda's Markov data and e1 are kept here once per N, on first use (``markov``, ``e1``).
    """

    def __init__(self, sub_wedd):
        amb, lam = sub_wedd.subalgebra.ambient, sub_wedd.lam  # Lambda_ij
        self.sub_wedd, self.gns_dim, self.dims = sub_wedd, amb.gns_dim, amb.dims
        self.mults, self.traces = tuple(sub_wedd.block_dims), sub_wedd.block_traces
        self.block_dims = tuple(int(k) for k in lam @ amb.dims)
        self._frames = sub_wedd.frames
        self._offsets = np.cumsum((0,) + tuple(n * n for n in amb.dims))
        # rows takes the rotated coordinates (j, r, c) of a column, c = (i, p, a), to the order (i, p, j, r, a)
        ip = np.repeat(np.arange(len(self.mults)), self.mults)  # N's block i of each pair (i, p)
        pair = [np.tile(np.repeat(np.arange(len(ip)), lam[ip, j]), n) for j, n in enumerate(amb.dims)]
        self._perm = np.argsort(np.concatenate(pair), kind="stable")
        ends = np.cumsum(np.multiply(self.mults, self.block_dims)).tolist()
        self._slices = [(lo, hi, m) for lo, hi, m in zip([0] + ends, ends, self.mults)]  # block i's columns of rows

    def __setstate__(self, state):
        self.__dict__.update(state)
        linalg.read_only(state.get("e1", []))  # a pickle drops the flag

    @functools.cached_property
    def markov(self):
        """``markov_trace`` of Lambda, kept once found: a disconnected N raises NonConnected on every read."""
        return markov_trace(self.sub_wedd.lam, self.mults)

    @functools.cached_property
    def e1(self):
        """e1's blocks in M1, read-only: the support of the family {1}."""
        return linalg.read_only(self.support(self.rows(self.sub_wedd.subalgebra.ambient.identity().vec()[:, None])))

    def _rotate(self, x, inverse=False):
        """Each row of the (ncols, D) array ``x``, an n_j-square X_j on block j, sent to X_j U_j (or X_j U_j^*)."""
        out = [(x[:, lo:hi].reshape(-1, n, n) @ (u.conj().T if inverse else u)).reshape(len(x), -1)
               for n, u, lo, hi in zip(self.dims, self._frames, self._offsets, self._offsets[1:])]
        return np.concatenate(out, axis=1)

    def rows(self, cols):
        """W_{i,p}^* cols for every block i of M1 and p < m_i, as one (ncols, m_i, k_i) array per i."""
        y = self._rotate(cols.T)[:, self._perm]
        return [y[:, lo:hi].reshape(len(y), m, -1) for lo, hi, m in self._slices]

    def support(self, rows, right=None):
        """Blocks sum_{s,p} r[s, p] r'[s, p]^* / T_i, r' = r unless ``right`` is given: the support
        sum_s L_s e1 L_s^* of the family with rows r, or L_x e1 for the rows r of x^ and r' of 1^."""
        right = rows if right is None else right
        return [r.reshape(-1, r.shape[-1]).T @ q.reshape(-1, q.shape[-1]).conj() / t
                for r, q, t in zip(rows, right, self.traces)]

    def outer_blocks(self, cols):
        """Blocks W_{i,0}^* cols cols^* W_{i,0} of a projection cols cols^* in M1, e_P from P >= N's basis."""
        return [r[:, 0].T @ r[:, 0].conj() for r in self.rows(cols)]

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
        """sum_{i,p} W_{i,p} C_i W_{i,p}^* cols: the element of M1 with abstract blocks C_i (checked by
        the caller) applied to the columns of ``cols``, without forming it: C_i on the rows, rotated back."""
        z = [(r @ c.T).reshape(cols.shape[1], -1) for r, c in zip(self.rows(cols), blocks)]
        y = np.empty((cols.shape[1], self.gns_dim), dtype=complex)
        y[:, self._perm] = np.concatenate(z, axis=1)
        return self._rotate(y, inverse=True).T

    def from_abstract(self, blocks):
        """The D x D operator sum_{i,p} W_{i,p} C_i W_{i,p}^* of M1."""
        return self.apply(self._checked(blocks), np.eye(self.gns_dim))


class M1Trace:
    """The Markov extension tr2 = (trace of sub)/beta on the blocks of M1.

    With w_i = trace_sub[i]/beta, tr2(C) = sum_i w_i Tr C_i, so tr2(L_x) weighs
    block j of M by c_j = sum_i w_i Lambda_ij.  The tr2-preserving expectation
    E_M: M1 -> M is, on block j, sum_i w_i Tr_{Lambda_ij}(C_i^{(jj)}) / c_j, the
    partial trace over a of the diagonal piece of C_i with rows (r, a) on block j.
    """

    def __init__(self, bc):
        self.bc = bc
        self.markov = bc.m1_wedd.markov  # M1 block i sits over N's block i, and trace_sub follows that order
        self._w = np.asarray(self.markov.trace_sub, dtype=float) / self.markov.beta
        self._c = self._w @ bc.m1_wedd.sub_wedd.lam

    def trace(self, blocks):
        """tr2 of the element of M1 with these blocks."""
        return complex(sum(w * np.trace(c) for w, c in zip(self._w, self.bc.m1_wedd._checked(blocks))))

    def expect_onto_ambient(self, blocks):
        """Trace-preserving conditional expectation onto the ambient algebra of the element of M1 with these blocks."""
        dims, m1 = self.bc.amb.dims, self.bc.m1_wedd
        out = [np.zeros((n, n), dtype=complex) for n in dims]
        for w, lam, c in zip(self._w, m1.sub_wedd.lam, m1._checked(blocks)):
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
    """Sum A = sum lambda_i lambda_i* with centrality and scalarity flags; for a unit e_pq of a block B of A of weight
    t, ||[A, e_pq]||_2^2 = t (||column p of B off the diagonal||^2 + ||row q off it||^2 + |B_pp - B_qq|^2)."""
    linalg.check_tol(tol)
    if not elements:
        raise InvalidInput("need at least one element")
    alg = elements[0].alg
    for lam in elements:
        alg.check_owns(lam)
    # block j of the sum is L L* for the n_j x (count n_j) matrix L = [lam_1, lam_2, ...] of the blocks j
    rows = [np.concatenate([lam.blocks[j] for lam in elements], axis=1) for j in range(alg.nblocks)]
    with np.errstate(over="ignore", invalid="ignore"):  # a nan, an inf or an overflow is named below
        acc = alg.element([r @ r.conj().T for r in rows])
    if not all(np.isfinite(b).all() for b in acc.blocks):  # checked before any factorization
        bad = [k for k, lam in enumerate(elements) if not all(np.isfinite(b).all() for b in lam.blocks)]
        raise InvalidInput("element %d has a non-finite block" % bad[0] if bad else "the Watatani sum overflows")
    scale = 1.0 + linalg.hermitian_block_norm(acc.blocks)  # acc is positive
    worst = []  # the largest ||[A, e_pq]||_2^2 = ||[sqrt(t) B, e_pq]||_F^2 over the blocks B of each size
    for a in linalg.stacks([np.sqrt(t) * b for t, b in zip(alg.trace_vector, acc.blocks)]):
        d, off = np.diagonal(a, axis1=1, axis2=2), np.abs(a) ** 2 * (1.0 - np.eye(a.shape[-1]))  # off-diagonal squares
        worst.append((off.sum(1)[:, :, None] + off.sum(2)[:, None] + np.abs(d[:, :, None] - d[:, None]) ** 2).max())
    central = bool(np.sqrt(np.max(worst)) <= tol * scale)  # a nan reads as not central
    c = acc.trace().real
    scalar = float(c) if (acc - alg.scalar(c)).norm() <= tol * scale else None
    return WatataniData(element=acc, is_central=central, scalar=scalar)
