"""Dense oracles for M1 = <M, e1> on the GNS space L2(M) of dimension D.

The library takes and returns M1's elements as their blocks C_i and reads every
one of them off the family rotated into M's frames (``M1Wedderburn``).  These
oracles take the dense route instead: the D-row isometries W_{i,p} of each block,
the blocks of a projection cols cols^* from V_i^* cols, and the Gram matrix from
one product pass against N's matrix units.  They also read a D x D operator into
blocks and measure how far it lies from M1, build M1 as a D^2-row subalgebra or as
the nullspace of the commutator with N's right action, lift x in M to the blocks of
L_x e1, and compute the Markov extension from a Gram system over M's matrix units.
Dense and O(D^4) or worse; small models only.  The Gram projection test and the
unitarity defects are also measured through singular values, the route that the
library's eigenvalues of these Hermitian matrices replaced.  The dense left and right
actions of M on its GNS space, N's units as a nested list, the coefficients of an
element of N in them and the SVD rank are here too: no path of the library uses them.
"""

import functools

import numpy as np

from ppbasis import MultiMatrixAlgebra, Subalgebra, linalg


def left_op(alg, x):
    """Matrix of left multiplication by ``x`` on the GNS space of ``alg``."""
    return linalg.block_diag([np.kron(x.blocks[i], np.eye(n)) for i, n in enumerate(alg.dims)])


def right_op(alg, x):
    """Matrix of right multiplication by ``x`` on the GNS space of ``alg``."""
    return linalg.block_diag([np.kron(np.eye(n), x.blocks[i].T) for i, n in enumerate(alg.dims)])


@linalg._typed
def rank(a):
    """Numerical rank by singular values above EPS_RANK * max(1, s_max), the cutoff of ``nullspace``."""
    a = np.asarray(a, dtype=complex)
    if a.size == 0:
        return 0
    s = np.linalg.svd(a, compute_uv=False)
    return int(np.count_nonzero(s > linalg.EPS_RANK * max(1.0, float(s[0]))))


def units(wd):
    """The matrix units of a ``WedderburnData`` as elements, ``units(wd)[b][p][q]`` = ``wd.unit(b, p, q)``."""
    return [[[wd.unit(b, p, q) for q in range(d)] for p in range(d)] for b, d in enumerate(wd.block_dims)]


def unit_coefficients(wd, x):
    """Coefficient blocks of the element ``x`` in the matrix units of a ``WedderburnData``: those of E_N(x)."""
    return wd.abstract_blocks((x.vec().conj() @ wd.unit_mat).conj())


def unit_roundtrip_residual(wd, x):
    """||x - E_N(x)||_2 through the matrix units: zero exactly on N."""
    return (x - wd.from_abstract(unit_coefficients(wd, x))).norm()


def e1_matrix(bc):
    """e1 as a D x D array: the GNS projection onto N's closure."""
    return bc.sub.projection_matrix()


def _kron_eye(n, v):
    """1_n (x) v, without np.kron's overhead."""
    out = np.zeros((n, v.shape[0], n, v.shape[1]), dtype=complex)
    out[np.arange(n), :, np.arange(n)] = v
    return out.reshape(n * v.shape[0], -1)


def range_isometries(wd):
    """The D x k_i isometries V_i = 1_{n_j} (x) conj(v_ij) on block j of M onto the ranges of
    R(e^i_00), for ``wd`` an ``M1Wedderburn`` and v_ij its ``sub_wedd.ranges``."""
    return [linalg.block_diag([_kron_eye(n, v.conj()) for n, v in zip(wd.dims, vs)]) for vs in wd.sub_wedd.ranges]


@functools.lru_cache(maxsize=8)
def isometries(wd):
    """The D x (m_i k_i) matrices [W_{i,0}, ..., W_{i,m_i-1}], W_{i,p} = R(e^i_0p) V_i, from one
    D-row product pass per unit; their columns are an orthonormal basis of the i-th central
    projection of M1, in which an operator of M1 is 1_{m_i} (x) C_i."""
    sw = wd.sub_wedd
    return [np.concatenate([sw.subalgebra.ambient.products(v, sw.unit_mat[:, [s + q]]) for q in range(m)], axis=1)
            for v, s, m in zip(range_isometries(wd), sw._starts, sw.block_dims)]


def outer_blocks(wd, cols):
    """Blocks (V_i^* cols)(V_i^* cols)^* of a projection cols cols^* in M1, from the stacked V_i^*."""
    out = []
    for v in range_isometries(wd):
        r = v.conj().T @ cols
        out.append(r @ r.conj().T)
    return out


def family_columns(elements, sub, side):
    """GNS coordinates of the family, or with side "left" of its adjoints, as a D x n array."""
    amb = sub.ambient
    x = np.stack([amb.vec(e) for e in elements], axis=1)
    return x if side == "right" else amb.modular_conjugation(x)


def product_gram(elements, sub, side):
    """Gram entries in N's units, (n, n, m_i, m_i) arrays, from the pairings <x_t, x_s e_pq> of one
    product pass of the family into N's matrix units (``unit_mat``)."""
    x, wd = family_columns(elements, sub, side), sub.wedderburn_data()
    pairs = sub.ambient.products(x, wd.unit_mat).conj().T @ x
    return wd.abstract_blocks(pairs.reshape(x.shape[1], -1, x.shape[1]).transpose(0, 2, 1))


def product_support(elements, sub, side):
    """Blocks of the support W W^*, column (s, u) of W the product x_s q_u with N's basis Q = sub.mat."""
    return outer_blocks(sub.wedderburn_data().m1, sub.ambient.products(family_columns(elements, sub, side), sub.mat))


def entry_norms(blocks, wd):
    """GNS 2-norms of the elements stacked in per-block arrays (..., m_i, m_i) of coefficients in ``wd``'s units."""
    return np.sqrt(sum(t * np.sum((a.conj() * a).real, axis=(-2, -1)) for t, a in zip(wd.block_traces, blocks)))


def gram_residuals(blocks, wd):
    """The Gram residuals of a classification, block by block: projection residual and 1 + norm of the Hermitian
    Gram matrix G from the eigenvalues l of its n m_i-square blocks (max |l^2 - l|, next to ||i(G - G*)||, and
    max |l|); largest GNS 2-norms, from N's ``wd``, of the off-diagonal entries, of q^2 - q or q - q* for the
    diagonal entries q, and of q - 1.  The library reads the same numbers off its Gram matrices batched by the
    shape of M1's blocks, both sides at once."""
    n = blocks[0].shape[0]
    stacks = linalg.stacks([g.transpose(0, 2, 1, 3).reshape(n * g.shape[2], -1) for g in blocks])
    vals = [linalg.eigvalsh(s) for s in stacks]
    norm = max(float(np.abs(v).max()) for v in vals)
    res = max(max(float(np.abs(v * v - v).max()), linalg.hermitian_norm(1j * (s - s.conj().swapaxes(-2, -1))))
              for v, s in zip(vals, stacks))
    diag = [g[np.arange(n), np.arange(n)] for g in blocks]
    off = entry_norms(blocks, wd)[~np.eye(n, dtype=bool)].max(initial=0.0)
    proj = entry_norms([np.concatenate([q @ q - q, q - q.conj().transpose(0, 2, 1)]) for q in diag], wd).max()
    one = entry_norms([q - np.eye(q.shape[-1]) for q in diag], wd).max()
    return res, 1.0 + norm, float(off), float(proj), float(one)


def svd_gram_residuals(blocks):
    """Projection residual and 1 + norm of the Gram matrix from its (n, n, m_i, m_i) arrays, through singular
    values: ``projection_residuals`` and ``operator_norm`` of its n m_i-square matrices, stacked by size."""
    n = blocks[0].shape[0]
    stacks = linalg.stacks([g.transpose(0, 2, 1, 3).reshape(n * g.shape[2], -1) for g in blocks])
    return max(max(linalg.projection_residuals(s)) for s in stacks), 1.0 + max(linalg.operator_norm(s) for s in stacks)


def svd_unitarity_residuals(blocks):
    """max(||u u* - 1||, ||u* u - 1||) for each element u of a family stacked per block, one
    (n, n_j, n_j) array per block, from the largest singular values; an overflow reads as inf."""
    res = 0.0
    for u in blocks:
        uh = u.conj().transpose(0, 2, 1)
        with np.errstate(over="ignore", invalid="ignore"):
            dev = np.concatenate([u @ uh, uh @ u]) - np.eye(u.shape[-1])
        finite = np.isfinite(dev).all(axis=(1, 2))
        norms = np.full(len(dev), np.inf)
        norms[finite] = linalg.operator_norms(dev[finite])
        res = np.maximum(res, norms.reshape(2, -1).max(axis=0))
    return res


def apply(wd, blocks, cols):
    """sum_{i,p} W_{i,p} C_i W_{i,p}^* cols through the dense isometries."""
    out = np.zeros(cols.shape, dtype=complex)
    for w, m, k, c in zip(isometries(wd), wd.mults, wd.block_dims, blocks):
        out += w @ (c @ (w.conj().T @ cols).reshape(m, k, -1)).reshape(m * k, -1)
    return out


def from_abstract(wd, blocks):
    """The D x D operator sum_i W_i (1_{m_i} (x) C_i) W_i^*."""
    return sum(w @ np.kron(np.eye(m), c) @ w.conj().T for w, m, c in zip(isometries(wd), wd.mults, blocks))


def to_abstract(wd, t):
    """Blocks C_i = (1/m_i) sum_p W_{i,p}^* T W_{i,p} of an operator T, for ``wd`` an ``M1Wedderburn``."""
    out = []
    for w, m, k in zip(isometries(wd), wd.mults, wd.block_dims):
        s = (w.conj().T @ np.asarray(t, dtype=complex) @ w).reshape(m, k, m, k)
        out.append(np.einsum("papb->ab", s) / m)
    return out


def roundtrip_residual(wd, t):
    """||T - E_M1(T)||_HS / sqrt(D), with E_M1(T) = from_abstract(to_abstract(T)): zero exactly on M1."""
    t = np.asarray(t, dtype=complex)
    return float(np.linalg.norm(t - from_abstract(wd, to_abstract(wd, t)))) / np.sqrt(wd.gns_dim)


def lift(bc, x):
    """M1's blocks of L_x e1, through the D x D operators."""
    return to_abstract(bc.m1_wedd, left_op(bc.amb, x) @ e1_matrix(bc))


def m1_subalgebra(bc):
    """M1 as a Subalgebra of the D x D operators, spanned by its matrix units
    sum_p W_{i,p}[:, a] W_{i,p}[:, b]^* (D^2 rows)."""
    wd, d = bc.m1_wedd, bc.amb.gns_dim
    cols = []
    for w, m, k in zip(isometries(wd), wd.mults, wd.block_dims):
        w = w.reshape(-1, m, k)
        units = np.einsum("xpa,ypb->abxy", w, w.conj()).reshape(k * k, -1)
        # each unit has HS norm sqrt(m), and GNS vec scales by 1/sqrt(D)
        cols.append(units.T / np.sqrt(m))
    return Subalgebra(MultiMatrixAlgebra((d,), (1.0 / d,)), np.concatenate(cols, axis=1))


def nullspace_m1(bc):
    """M1 as the commutant of N's right action: a D^2 x D^2 nullspace.

    Orthonormal columns are row-major vecs of D x D operators T solving
    T R_b = R_b T for a basis b of N.  Dense and O(D^6).
    """
    d = bc.amb.gns_dim
    eye = np.eye(d)
    maps = []
    for b in bc.sub.basis_elements():
        r = right_op(bc.amb, b)
        maps.append(np.kron(eye, r.T) - np.kron(r, eye))
    return linalg.nullspace(np.vstack(maps))


class GramM1Trace:
    """Reference Markov extension on D x D operators: tr2 = sum_i (trace_sub[i]/beta)
    Tr(C_i) on the blocks read by ``to_abstract``, and E_M(T) from the Gram system
    tr2(L_a* L_b) over all D matrix units of M.  O(D^4) set-up."""

    def __init__(self, bc, markov):
        self.bc = bc
        self.weights = np.asarray(markov.trace_sub) / markov.beta
        self.units = bc.amb.units()
        self.ops = [left_op(bc.amb, u) for u in self.units]
        self.gram = np.array([[self.trace(a.conj().T @ b) for b in self.ops] for a in self.ops])

    def trace(self, mat):
        blocks = to_abstract(self.bc.m1_wedd, mat)
        return complex(sum(w * np.trace(b) for w, b in zip(self.weights, blocks)))

    def expect_onto_ambient(self, mat):
        coeff = np.linalg.solve(self.gram, [self.trace(op.conj().T @ mat) for op in self.ops])
        acc = self.bc.amb.zero()
        for c, u in zip(coeff, self.units):
            acc = acc + c * u
        return acc
