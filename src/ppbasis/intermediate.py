"""Intermediate subalgebras N <= P <= M: their GNS projections, the
interchange operator built from a pair of bases, and commuting squares.

For bases (lambda_i) of P over N and (mu_j) of Q over N, the interchange
operator is p = sum_ij L(lambda_i mu_j) e1 L(lambda_i mu_j)*.  It is a
projection exactly when the two intermediate algebras commute in the right
way; modular conjugation swaps the two arguments.  Each basis is checked by
``systems.require_basis`` against e_P's blocks in M1, which also checks N <= P.
The interchange operators are returned as D x D arrays; e_P as its blocks in M1.
"""

import numpy as np

from . import linalg
from .errors import InvalidInput, NotIntermediate
from .linalg import EPS_FLAG, EPS_REL
from .systems import _rows, check_intermediate, require_basis


def intermediate_projection(mid, bc, tol=EPS_FLAG):
    """Blocks in M1 of the GNS projection e_P of an intermediate algebra; checks e1 <= e_P there."""
    check_intermediate(bc.sub, mid, tol)
    ep = bc.m1_wedd.outer_blocks(mid.mat)
    res = linalg.block_norm([p @ e - e for p, e in zip(ep, bc.e1)])
    if res > tol:
        raise NotIntermediate("e1 is not dominated by e_P (residual %.3g)" % res)
    return ep


def interchange_operator(p_sub, basis_p, q_sub, basis_q, bc, tol=EPS_FLAG, check=True):
    """p(P, Q) = sum_ij L(lambda_i) L(mu_j) e1 L(mu_j)* L(lambda_i)*, the right
    support of the products lambda_i mu_j, formed as a D x D array from its
    blocks in M1.

    ``basis_p`` must be a right basis of P over N and ``basis_q`` one of Q
    over N; with ``check`` the basis property is verified first.
    """
    if check:
        for mid, basis, label in ((p_sub, basis_p, "first"), (q_sub, basis_q, "second")):
            require_basis(basis, bc.sub, mid, side="right", tol=tol, label=label)
    m1, products = bc.m1_wedd, bc.amb.stacked([lam * mu for lam in basis_p for mu in basis_q])
    return m1.from_abstract(m1.per_block([s[0] for s in m1.support(_rows(products, bc.sub, ("right",)))]))


def interchange_pair(p_sub, basis_p, q_sub, basis_q, bc, tol=EPS_FLAG):
    """Both interchange operators and the modular-conjugation symmetry residual.

    Both bases are checked first.  Returns (p(P,Q), p(Q,P), residual of
    J p(P,Q) J - p(Q,P)).
    """
    pq = interchange_operator(p_sub, basis_p, q_sub, basis_q, bc, tol)
    qp = interchange_operator(q_sub, basis_q, p_sub, basis_p, bc, tol, check=False)
    j_res = linalg.operator_norm(bc.amb.sandwich_j(pq) - qp)
    return pq, qp, j_res


def is_commuting_square(n_sub, p_sub, q_sub, tol=EPS_REL):
    """Whether E_P E_Q = E_N = E_Q E_P on the ambient algebra.

    Tested on all matrix units of the ambient algebra at once: the largest
    GNS norm of a column of e_P e_Q - e_N or e_Q e_P - e_N times the GNS weight
    of that column, the unit's one coordinate; returns (flag, worst residual).
    """
    linalg.check_tol(tol)
    amb = p_sub.ambient
    if q_sub.ambient is not amb or n_sub.ambient is not amb:
        raise InvalidInput("subalgebras live in different ambient algebras")
    ep, eq, en = (s.projection_matrix() for s in (p_sub, q_sub, n_sub))
    worst = max(float((np.linalg.norm(a @ b - en, axis=0) * amb.gns_weights).max()) for a, b in ((ep, eq), (eq, ep)))
    return worst <= tol, worst
