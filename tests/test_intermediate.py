import numpy as np
import pytest

from ppbasis import (
    BasicConstruction,
    Subalgebra,
    check_intermediate,
    interchange_operator,
    interchange_pair,
    intermediate_projection,
    is_commuting_square,
)
from ppbasis import linalg, models
from ppbasis.errors import InvalidInput, NotABasis, NotIntermediate
from oracles import e1_matrix, to_abstract


def test_check_intermediate_accepts_and_rejects():
    q = models.masa_quadruple()
    assert check_intermediate(q.n_sub, q.p_sub) < 1e-12
    with pytest.raises(NotIntermediate):
        check_intermediate(q.p_sub, q.n_sub)  # masa is not inside the scalars
    other = models.diagonal_in_matrix(2)
    with pytest.raises(InvalidInput):
        check_intermediate(q.n_sub, other.sub)


def test_intermediate_projection_dominates_e1():
    q = models.masa_quadruple()
    bc = BasicConstruction(q.n_sub)
    ep = intermediate_projection(q.p_sub, bc)
    # e_P's blocks in M1 are those of the D x D projection; block C_i occurs m_i times in M1
    assert max(np.abs(a - b).max() for a, b in zip(ep, to_abstract(bc.m1_wedd, q.p_sub.projection_matrix()))) <= 1e-12
    assert max(max(linalg.projection_residuals(c)) for c in ep) <= 1e-10
    assert round(sum(m * np.trace(c).real for m, c in zip(bc.m1_wedd.mults, ep))) == q.p_sub.dim
    assert max(linalg.operator_norm(p @ e - e) for p, e in zip(ep, bc.e1)) < 1e-10


def test_interchange_check_rejects_a_non_intermediate_algebra():
    # over the diagonal, span{1, flip} is no intermediate algebra; its family
    # {1, flip} would fail only as a basis, so the containment test comes first
    q = models.masa_quadruple()
    bc = BasicConstruction(q.p_sub)
    with pytest.raises(NotIntermediate):
        interchange_operator(q.q_sub, q.bases_q[1], q.p_sub, [q.ambient.identity()], bc)


def test_checked_interchange_forms_each_projection_once(monkeypatch):
    # the checked interchange compares supports with e_P's blocks in M1, read off
    # P's basis, and intermediate_projection returns those blocks: neither forms
    # a D x D projection
    q = models.masa_quadruple()
    bc = BasicConstruction(q.n_sub)
    formed = []
    original = Subalgebra.projection_matrix

    def recording(sub):
        formed.append((sub, original(sub)))
        return formed[-1][1]

    monkeypatch.setattr(Subalgebra, "projection_matrix", recording)
    interchange_operator(q.p_sub, q.bases_p[0], q.q_sub, q.bases_q[0], bc)
    assert formed == []
    for mid in (q.p_sub, q.q_sub):
        intermediate_projection(mid, bc)
    assert formed == []
    ep = q.p_sub.projection_matrix()  # is_commuting_square's e_P: formed once per algebra, kept read-only
    assert ep is q.p_sub.projection_matrix() and not ep.flags.writeable


def test_interchange_is_projection_for_masa_pair():
    q = models.masa_quadruple()
    bc = BasicConstruction(q.n_sub)
    pq, qp, j_res = interchange_pair(q.p_sub, q.bases_p[0], q.q_sub, q.bases_q[0], bc)
    r1, r2 = linalg.projection_residuals(pq)
    assert max(r1, r2) < 1e-10
    assert j_res < 1e-10
    r1, r2 = linalg.projection_residuals(qp)
    assert max(r1, r2) < 1e-10


def test_interchange_independent_of_basis_choice():
    q = models.masa_quadruple()
    bc = BasicConstruction(q.n_sub)
    ref = interchange_operator(q.p_sub, q.bases_p[0], q.q_sub, q.bases_q[0], bc)
    for bp in q.bases_p:
        for bq in q.bases_q:
            alt = interchange_operator(q.p_sub, bp, q.q_sub, bq, bc)
            assert linalg.operator_norm(ref - alt) < 1e-10


def test_interchange_rotated_basis_same_operator():
    # multiply a basis elementwise by phases from N: the operator is unchanged
    q = models.masa_quadruple()
    bc = BasicConstruction(q.n_sub)
    ref = interchange_operator(q.p_sub, q.bases_p[0], q.q_sub, q.bases_q[0], bc)
    rng = linalg.rng_from_seed(17)
    for _ in range(5):
        phases = np.exp(2j * np.pi * rng.random(len(q.bases_p[0])))
        rotated = [c * lam for c, lam in zip(phases, q.bases_p[0])]
        alt = interchange_operator(q.p_sub, rotated, q.q_sub, q.bases_q[0], bc)
        assert linalg.operator_norm(ref - alt) < 1e-10


def test_interchange_degenerate_pair_is_far_from_projection():
    d = models.degenerate_quadruple()
    bc = BasicConstruction(d.n_sub)
    pp = interchange_operator(d.p_sub, d.bases_p[0], d.q_sub, d.bases_q[0], bc)
    r1, _ = linalg.projection_residuals(pp)
    assert abs(r1 - 2.0) < 1e-10  # numerically exact failure, not a tolerance issue


def test_interchange_checks_bases():
    q = models.masa_quadruple()
    bc = BasicConstruction(q.n_sub)
    with pytest.raises(NotABasis):
        # half a basis has support e1 != e_P
        interchange_operator(q.p_sub, q.bases_p[0][:1], q.q_sub, q.bases_q[0], bc)
    with pytest.raises(NotABasis):
        # elements outside the claimed intermediate algebra
        interchange_operator(q.p_sub, q.bases_q[1], q.q_sub, q.bases_q[0], bc)


def test_commuting_square_flags():
    q = models.masa_quadruple()
    ok, worst = is_commuting_square(q.n_sub, q.p_sub, q.q_sub)
    assert ok and worst < 1e-12
    d = models.degenerate_quadruple()
    ok2, worst2 = is_commuting_square(d.n_sub, d.p_sub, d.q_sub)
    assert not ok2
    assert abs(worst2 - 0.5) < 1e-12


def test_commuting_square_rejects_mixed_ambients():
    q = models.masa_quadruple()
    other = models.diagonal_in_matrix(2)
    with pytest.raises(InvalidInput):
        is_commuting_square(q.n_sub, q.p_sub, other.sub)


def test_trivial_intermediate_cases():
    # N <= N <= M: e_P = e1 and the interchange with the N-basis {1} is e1
    mp = models.diagonal_in_matrix(2)
    bc = BasicConstruction(mp.sub)
    ep = intermediate_projection(mp.sub, bc)
    assert max(linalg.operator_norm(a - b) for a, b in zip(ep, bc.e1)) < 1e-12
    one = [mp.ambient.identity()]
    p = interchange_operator(mp.sub, one, mp.sub, one, bc)
    assert linalg.operator_norm(p - e1_matrix(bc)) < 1e-12
