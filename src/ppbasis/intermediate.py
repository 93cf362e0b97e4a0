"""Intermediate subalgebras N <= P <= M: their GNS projections, the
interchange operator built from a pair of bases, and commuting squares.

For bases (lambda_i) of P over N and (mu_j) of Q over N, the interchange
operator is p = sum_ij L(lambda_i mu_j) e1 L(lambda_i mu_j)*.  It is a
projection exactly when the two intermediate algebras commute in the right
way; modular conjugation swaps the two arguments.  Each basis is checked by
``systems.require_basis`` against e_P, after ``intermediate_projection``.
"""

import numpy as np

from . import linalg
from .errors import InvalidInput, NotIntermediate
from .linalg import EPS_FLAG, EPS_REL
from .systems import _Family, require_basis


def check_intermediate(sub, mid, tol=EPS_FLAG):
    """Verify N <= P inside the common ambient algebra; returns the residual."""
    linalg.check_tol(tol)
    if mid.ambient is not sub.ambient:
        raise InvalidInput("subalgebras live in different ambient algebras")
    res = float(mid.residuals(sub.mat).max())
    if res > tol:
        raise NotIntermediate("containment fails with residual %.3g" % res)
    return res


def intermediate_projection(mid, bc, tol=EPS_FLAG):
    """GNS projection e_P of an intermediate algebra; checks e1 <= e_P."""
    check_intermediate(bc.sub, mid, tol)
    ep = mid.projection_matrix()
    res = linalg.operator_norm(ep @ bc.e1 - bc.e1)
    if res > tol:
        raise NotIntermediate("e1 is not dominated by e_P (residual %.3g)" % res)
    return ep


def interchange_operator(p_sub, basis_p, q_sub, basis_q, bc, tol=EPS_FLAG, check=True):
    """p(P, Q) = sum_ij L(lambda_i) L(mu_j) e1 L(mu_j)* L(lambda_i)*, the right
    support of the products lambda_i mu_j.

    ``basis_p`` must be a right basis of P over N and ``basis_q`` one of Q
    over N; with ``check`` the basis property is verified first.
    """
    if check:
        for mid, basis, label in ((p_sub, basis_p, "first"), (q_sub, basis_q, "second")):
            intermediate_projection(mid, bc, tol)
            require_basis(basis, bc.sub, mid, side="right", tol=tol, label=label)
    return _Family([lam * mu for lam in basis_p for mu in basis_q], bc.sub, "right").support()


def interchange_pair(p_sub, basis_p, q_sub, basis_q, bc, tol=EPS_FLAG, check=True):
    """Both interchange operators and the modular-conjugation symmetry residual.

    Returns (p(P,Q), p(Q,P), residual of J p(P,Q) J - p(Q,P)).
    """
    pq = interchange_operator(p_sub, basis_p, q_sub, basis_q, bc, tol, check)
    qp = interchange_operator(q_sub, basis_q, p_sub, basis_p, bc, tol, check=False)
    j_res = linalg.operator_norm(bc.amb.sandwich_j(pq) - qp)
    return pq, qp, j_res


def is_commuting_square(n_sub, p_sub, q_sub, tol=EPS_REL):
    """Whether E_P E_Q = E_N = E_Q E_P on the ambient algebra.

    Tested on all matrix units of the ambient algebra at once: the largest
    GNS norm of a column of (e_P e_Q - e_N) U or (e_Q e_P - e_N) U, where the
    columns of U are the units' coordinates; returns (flag, worst residual).
    """
    linalg.check_tol(tol)
    amb = p_sub.ambient
    if q_sub.ambient is not amb or n_sub.ambient is not amb:
        raise InvalidInput("subalgebras live in different ambient algebras")
    ep, eq, en = (s.projection_matrix() for s in (p_sub, q_sub, n_sub))
    units = np.diag(amb.gns_weights)
    worst = max(float(np.linalg.norm((a @ b - en) @ units, axis=0).max()) for a, b in ((ep, eq), (eq, ep)))
    return worst <= tol, worst
