"""Intermediate subalgebras N <= P <= M: their GNS projections, the
interchange operator built from a pair of bases, and commuting squares.

For bases (lambda_i) of P over N and (mu_j) of Q over N, the interchange
operator is p = sum_ij L(lambda_i mu_j) e1 L(lambda_i mu_j)*.  It is a
projection exactly when the two intermediate algebras commute in the right
way; modular conjugation swaps the two arguments.
"""

from . import linalg
from .errors import InvalidInput, NotABasis, NotIntermediate
from .systems import _Family, classify

EPS_INT = 1e-8


def check_intermediate(sub, mid, tol=EPS_INT):
    """Verify N <= P inside the common ambient algebra; returns the residual."""
    if mid.ambient is not sub.ambient:
        raise InvalidInput("subalgebras live in different ambient algebras")
    res = 0.0
    for x in sub.basis_elements():
        res = max(res, mid.residual(x))
    if res > tol:
        raise NotIntermediate("containment fails with residual %.3g" % res)
    return res


def intermediate_projection(mid, bc, tol=EPS_INT):
    """GNS projection e_P of an intermediate algebra; checks e1 <= e_P."""
    check_intermediate(bc.sub, mid, tol)
    ep = mid.projection_matrix()
    res = linalg.operator_norm(ep @ bc.e1 - bc.e1)
    if res > tol:
        raise NotIntermediate("e1 is not dominated by e_P (residual %.3g)" % res)
    return ep


def _require_basis(elements, sub, mid, bc, tol, label):
    """Elements must lie in mid and their right support must equal e_P."""
    for x in elements:
        if mid.residual(x) > tol:
            raise NotABasis("%s element leaves the intermediate algebra" % label)
    sys = classify(elements, sub, side="right", bc=bc, tol=tol)
    if not sys.flags["system"]:
        raise NotABasis("%s family is not a system" % label)
    ep = intermediate_projection(mid, bc, tol)
    res = linalg.operator_norm(sys.support["right"] - ep)
    if res > tol * (1.0 + linalg.operator_norm(ep)):
        raise NotABasis("%s family does not span its algebra over the base (residual %.3g)" % (label, res))
    return sys


def interchange_operator(p_sub, basis_p, q_sub, basis_q, bc, tol=EPS_INT, check=True):
    """p(P, Q) = sum_ij L(lambda_i) L(mu_j) e1 L(mu_j)* L(lambda_i)*, the right
    support of the products lambda_i mu_j.

    ``basis_p`` must be a right basis of P over N and ``basis_q`` one of Q
    over N; with ``check`` the basis property is verified first.
    """
    if check:
        _require_basis(basis_p, bc.sub, p_sub, bc, tol, "first")
        _require_basis(basis_q, bc.sub, q_sub, bc, tol, "second")
    return _Family([lam * mu for lam in basis_p for mu in basis_q], bc.sub, "right").support()


def interchange_pair(p_sub, basis_p, q_sub, basis_q, bc, tol=EPS_INT, check=True):
    """Both interchange operators and the modular-conjugation symmetry residual.

    Returns (p(P,Q), p(Q,P), residual of J p(P,Q) J - p(Q,P)).
    """
    pq = interchange_operator(p_sub, basis_p, q_sub, basis_q, bc, tol, check)
    qp = interchange_operator(q_sub, basis_q, p_sub, basis_p, bc, tol, check=False)
    j_res = linalg.operator_norm(bc.amb.sandwich_j(pq) - qp)
    return pq, qp, j_res


def is_commuting_square(n_sub, p_sub, q_sub, tol=1e-9):
    """Whether E_P E_Q = E_N = E_Q E_P on the ambient algebra.

    Tested on all matrix units of the ambient algebra; returns
    (flag, worst residual).
    """
    amb = p_sub.ambient
    if q_sub.ambient is not amb or n_sub.ambient is not amb:
        raise InvalidInput("subalgebras live in different ambient algebras")
    worst = 0.0
    for u in amb.units():
        en = n_sub.expect(u)
        worst = max(
            worst,
            (p_sub.expect(q_sub.expect(u)) - en).norm(),
            (q_sub.expect(p_sub.expect(u)) - en).norm(),
        )
    return worst <= tol, worst
