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
from ppbasis import intermediate, linalg, models
from ppbasis.algebra import AlgebraElement
from ppbasis.basic import M1Wedderburn
from ppbasis.errors import InvalidInput, NotABasis, NotIntermediate
import oracles
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
    for basis_p, basis_q in (((), ()), ((), q.bases_q[0]), (q.bases_p[0], ())):  # unchecked, no products
        with pytest.raises(InvalidInput):
            interchange_operator(q.p_sub, basis_p, q.q_sub, basis_q, bc, check=False)


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


def _m5_masa():
    """The diagonal and the Fourier MASA of M5 over the scalars, with the bases sqrt(5) e_ii and the shifts S^j."""
    m5 = models.scalar_in_full(5)
    amb, shift = m5.ambient, np.roll(np.eye(5), 1, axis=0)
    units = [amb.unit(0, i, i) for i in range(5)]
    shifts = [amb.element([np.linalg.matrix_power(shift, j)]) for j in range(5)]
    diag, fourier = Subalgebra.span(amb, units, check=False), Subalgebra.span(amb, shifts, check=False)
    return BasicConstruction(m5.sub), diag, tuple(np.sqrt(5.0) * e for e in units), fourier, tuple(shifts)


def _interchange_cases():
    q, d = models.masa_quadruple(), models.degenerate_quadruple()
    return {"masa": (BasicConstruction(q.n_sub), q.p_sub, q.bases_p[0], q.q_sub, q.bases_q[0]),
            "degenerate": (BasicConstruction(d.n_sub), d.p_sub, d.bases_p[0], d.q_sub, d.bases_q[0]),
            "m5-masa": _m5_masa()}


@pytest.mark.parametrize("name", ["masa", "degenerate", "m5-masa"])
def test_interchange_pair_matches_the_per_pair_oracle(name):
    # both orders of the products from one stacked pass against one element product per pair and one pass per order
    bc, p_sub, basis_p, q_sub, basis_q = _interchange_cases()[name]
    got = interchange_pair(p_sub, basis_p, q_sub, basis_q, bc)
    want = oracles.interchange_pair(p_sub, basis_p, q_sub, basis_q, bc)
    for g, w in zip(got, want):
        assert np.abs(np.asarray(g) - w).max() <= 1e-12
    one = interchange_operator(p_sub, basis_p, q_sub, basis_q, bc)
    assert np.abs(one - oracles.interchange_operator(p_sub, basis_p, q_sub, basis_q, bc)).max() <= 1e-12


@pytest.mark.parametrize("name", ["masa", "m5-masa"])
def test_interchange_pair_is_one_pass(monkeypatch, name):
    # both operators: one rows pass of both product families, one apply of both M1 operators, and no element
    # product per pair; one interchange_operator call per order made two of each and 2 |P| |Q| products
    bc, p_sub, basis_p, q_sub, basis_q = _interchange_cases()[name]
    calls, rows, apply, mul = [], intermediate._rows, M1Wedderburn.apply, AlgebraElement.__mul__
    monkeypatch.setattr(intermediate, "_rows", lambda *a: calls.append("rows") or rows(*a))
    monkeypatch.setattr(M1Wedderburn, "apply", lambda self, *a: calls.append("apply") or apply(self, *a))
    monkeypatch.setattr(AlgebraElement, "__mul__", lambda self, other: calls.append("mul") or mul(self, other))
    pq, qp, _ = interchange_pair(p_sub, basis_p, q_sub, basis_q, bc)
    assert sorted(calls) == ["apply", "rows"] and pq.shape == qp.shape == (bc.amb.gns_dim,) * 2
