"""D x D oracles for M1 = <M, e1> on the GNS space L2(M) of dimension D.

The library takes and returns M1's elements as their blocks C_i
(``M1Wedderburn``).  These oracles form the operators themselves: they read a
D x D operator into blocks and measure how far it lies from M1, build M1 as a
D^2-row subalgebra or as the nullspace of the commutator with N's right action,
lift x in M to the blocks of L_x e1, and compute the Markov extension from a
Gram system over M's matrix units.  Dense and O(D^4) or worse; small models only.
"""

import numpy as np

from ppbasis import MultiMatrixAlgebra, Subalgebra, linalg


def e1_matrix(bc):
    """e1 as a D x D array: the GNS projection onto N's closure."""
    return bc.sub.projection_matrix()


def to_abstract(wd, t):
    """Blocks C_i = (1/m_i) sum_p W_{i,p}^* T W_{i,p} of an operator T, for ``wd`` an ``M1Wedderburn``."""
    out = []
    for w, m, k in zip(wd.isometries, wd.mults, wd.block_dims):
        s = (w.conj().T @ np.asarray(t, dtype=complex) @ w).reshape(m, k, m, k)
        out.append(np.einsum("papb->ab", s) / m)
    return out


def roundtrip_residual(wd, t):
    """||T - E_M1(T)||_HS / sqrt(D), with E_M1(T) = from_abstract(to_abstract(T)): zero exactly on M1."""
    t = np.asarray(t, dtype=complex)
    return float(np.linalg.norm(t - wd.from_abstract(to_abstract(wd, t)))) / np.sqrt(wd.gns_dim)


def lift(bc, x):
    """M1's blocks of L_x e1, through the D x D operators."""
    return to_abstract(bc.m1_wedd, bc.amb.left_op(x) @ e1_matrix(bc))


def m1_subalgebra(bc):
    """M1 as a Subalgebra of the D x D operators, spanned by its matrix units
    sum_p W_{i,p}[:, a] W_{i,p}[:, b]^* (D^2 rows)."""
    wd, d = bc.m1_wedd, bc.gns_dim
    cols = []
    for w, m, k in zip(wd.isometries, wd.mults, wd.block_dims):
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
    d = bc.gns_dim
    eye = np.eye(d)
    maps = []
    for b in bc.sub.basis_elements():
        r = bc.amb.right_op(b)
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
        self.ops = [bc.amb.left_op(u) for u in self.units]
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
