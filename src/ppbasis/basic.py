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
of that one rotation (``M1Wedderburn.rows``), one matmul per block size of M, whose
rows come per group of M1's blocks of one shape (m_i, k_i): each contraction is one
batched product per group, listed per block as views.  The Markov extension is a closed
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
        rows = wd.rows(np.concatenate([x, one], axis=1))
        lift = wd.per_block(wd.support([r[:, :1] for r in rows], [r[:, 1:] for r in rows]))  # L_x e1: x^'s rows, 1^'s
        if linalg.block_norm([a - c for a, c in zip(lift, v)]) > linalg.EPS_FLAG * scale:
            raise InvalidInput("pushdown reconstruction failed; input is not of the form L_x e1")
        return self.amb.unvec(x[:, 0])

    def markov_extension(self):
        """Trace on M1 extending the ambient trace in Markov mode, from the kept ``m1_wedd.markov``."""
        return M1Trace(self)


class M1Wedderburn:
    """Block structure of M1 read off N's matrix units; block i sits over N's block i.

    ``rows`` rotates columns into the frames of ``sub_wedd`` (see the module docstring), per group of M1's blocks
    of one shape, and every contraction of the rows is one batched product per group, listed per block in block
    order (``per_block``); an element of M1 acts as C_i on each (i, p) slice of the rows, W_{i,p}^* cols (``apply``).
    Lambda's Markov data and e1 are kept here once per N, on first use (``markov``, ``e1``).
    """

    def __init__(self, sub_wedd):
        amb, lam = sub_wedd.subalgebra.ambient, sub_wedd.lam  # Lambda_ij
        self.sub_wedd, self.gns_dim, self.dims = sub_wedd, amb.gns_dim, amb.dims
        self.mults, self.traces = tuple(sub_wedd.block_dims), sub_wedd.block_traces
        self.block_dims = tuple(int(k) for k in lam @ amb.dims)
        # M's blocks of one size rotate together, their frames stacked; rows takes the rotated coordinates (j, r, c)
        # of a column, c = (i, p, a), to the order (i, p, j, r, a), with M1's blocks i grouped by shape (m_i, k_i)
        self._frames = [(c, np.stack([sub_wedd.frames[j] for j in js])) for js, c in amb.size_groups]
        keys = list(zip(self.mults, self.block_dims))
        shapes = {key: [i for i, k in enumerate(keys) if k == key] for key in dict.fromkeys(keys)}
        ip = np.repeat(np.arange(len(self.mults)), self.mults)  # N's block i of each pair (i, p)
        pair = np.concatenate([np.tile(np.repeat(np.arange(len(ip)), lam[ip, j]), n) for j, n in enumerate(amb.dims)])
        self._perm = np.lexsort((pair, np.argsort(sum(shapes.values(), []))[ip[pair]]))  # stable: (j, r, a) kept
        cut = np.cumsum([0] + [len(idx) * m * k for (m, k), idx in shapes.items()])
        self._groups = [(idx, m, k, lo, hi) for ((m, k), idx), lo, hi in zip(shapes.items(), cut, cut[1:])]
        self._traces = [np.array(self.traces)[idx] for idx in shapes.values()]  # T_i of each group's blocks
        self._where = sorted((i, (g, p)) for g, idx in enumerate(shapes.values()) for p, i in enumerate(idx))

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
        one = self.sub_wedd.subalgebra.ambient.identity().vec()[:, None]
        return linalg.read_only(self.per_block(self.support(self.rows(one))))

    def _rotate(self, x, inverse=False):
        """Each row of the (ncols, D) array ``x``, an n_j-square X_j on block j, sent to X_j U_j (or X_j U_j^*)."""
        y = np.empty(x.shape, dtype=complex)
        for c, u in self._frames:  # one matmul per block size of M
            u = u.conj().swapaxes(1, 2) if inverse else u
            y[:, c] = (x[:, c].reshape(len(x), *u.shape) @ u).reshape(len(x), -1)
        return y

    def rows(self, cols):
        """W_{i,p}^* cols for every block i of M1 and p < m_i, one (g, ncols, m, k) array per group (``_groups``)."""
        y = self._rotate(cols.T)[:, self._perm]
        return [y[:, lo:hi].reshape(len(y), len(idx), m, k).swapaxes(0, 1) for idx, m, k, lo, hi in self._groups]

    def per_block(self, stacks):
        """The per-group ``stacks`` (group axis first) as one array per block of M1, in block order, as views."""
        return [stacks[g][p] for _, (g, p) in self._where]

    def support(self, rows, right=None):
        """Per group, the blocks sum_{s,p} r[s, p] r'[s, p]^* / T_i (r' = r unless ``right`` is given, and leading
        axes kept): the support sum_s L_s e1 L_s^* of the family with rows r, or L_x e1 for x^'s rows r, 1^'s r'."""
        right = rows if right is None else right
        flat = [[a.reshape(*a.shape[:-3], -1, a.shape[-1]) for a in pair] for pair in zip(rows, right)]
        return [r.swapaxes(-1, -2) @ q.conj() / t[:, None, None] for (r, q), t in zip(flat, self._traces)]

    def outer_blocks(self, cols):
        """Blocks W_{i,0}^* cols cols^* W_{i,0} of a projection cols cols^* in M1, e_P from P >= N's basis."""
        return self.per_block([r[:, :, 0].swapaxes(1, 2) @ r[:, :, 0].conj() for r in self.rows(cols)])

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
        z = [(r @ np.array([blocks[i].T for i in idx])[:, None]).swapaxes(0, 1).reshape(cols.shape[1], -1)
             for r, (idx, *_) in zip(self.rows(cols), self._groups)]
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
    stacks = alg.stacked(elements)  # block j of the sum is L L* for L = [lam_1, lam_2, ...] of the blocks j, per size
    rows = [s.transpose(1, 2, 0, 3).reshape(s.shape[1], s.shape[2], -1) for s in stacks]
    with np.errstate(over="ignore", invalid="ignore"):  # a nan, an inf or an overflow is named below
        sums = [r @ r.conj().swapaxes(1, 2) for r in rows]
    if not all(np.isfinite(b).all() for b in sums):  # checked before any factorization
        bad = np.flatnonzero(~np.all([np.isfinite(s).all(axis=(1, 2, 3)) for s in stacks], axis=0))
        raise InvalidInput("element %d has a non-finite block" % bad[0] if len(bad) else "the Watatani sum overflows")
    acc = alg.unstacked([a[None] for a in sums])[0]
    scale = 1.0 + max(float(np.abs(linalg.eigvalsh(a)).max()) for a in sums)  # acc is positive
    c, worst, dev = acc.trace().real, [], 0.0  # dev: ||A - c 1||_2^2, from the blocks of each size
    for (js, _), b in zip(alg.size_groups, sums):  # the largest ||[A, e_pq]||_2^2 = ||[sqrt(t) B, e_pq]||_F^2
        a, eye = np.sqrt(alg.trace_vector[js])[:, None, None] * b, np.eye(b.shape[-1])
        d, off = np.diagonal(a, axis1=1, axis2=2), np.abs(a) ** 2 * (1.0 - eye)  # off-diagonal squares
        worst.append((off.sum(1)[:, :, None] + off.sum(2)[:, None] + np.abs(d[:, :, None] - d[:, None]) ** 2).max())
        dev += float(alg.trace_vector[js] @ (np.abs(b - c * eye) ** 2).sum(axis=(1, 2)))
    central = bool(np.sqrt(np.max(worst)) <= tol * scale)  # a nan reads as not central
    scalar = float(c) if np.sqrt(dev) <= tol * scale else None
    return WatataniData(element=acc, is_central=central, scalar=scalar)
