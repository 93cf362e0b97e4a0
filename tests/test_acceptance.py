"""End-to-end acceptance checks.

Each test covers one numbered criterion and prints a single PASS/FAIL line
past the capture, so a verbose run shows the whole scorecard.  Expensive
pipeline runs are shared through a lazy cache.
"""

import numpy as np
import pytest

from ppbasis import (
    BasicConstruction,
    MultiMatrixAlgebra,
    Subalgebra,
    classify,
    complete_to_basis,
    construct_system_with_support,
    interchange_operator,
    interchange_pair,
    markov_trace,
    regular_pipeline,
    scalar_basis,
    watatani_index,
)
from ppbasis import linalg, models, scenarios
from ppbasis.regular import II1_NOTE
from oracles import e1_matrix, left_op, lift, to_abstract


@pytest.fixture
def report(capsys):
    def _line(text):
        with capsys.disabled():
            print(text)

    return _line


def _criterion(report, name, body):
    try:
        body()
    except BaseException:
        report("%s: FAIL" % name)
        raise
    report("%s: PASS" % name)


_cache = {}


def _pipeline(key):
    if key not in _cache:
        builders = {
            "diag2": lambda: models.diagonal_in_matrix(2),
            "diag3": lambda: models.diagonal_in_matrix(3),
            "two_block": models.two_block_over_factor,
        }
        mp = builders[key]()
        _cache[key] = regular_pipeline(mp.sub, candidates=mp.candidates)
    return _cache[key]


def _klein():
    """Diagonal masa of M4 with the Klein four-group of permutation unitaries."""
    if "klein" not in _cache:
        mp = models.diagonal_in_matrix(4)
        amb = mp.ambient
        s2 = np.array([[0.0, 1.0], [1.0, 0.0]])
        blockshift = amb.element([linalg.block_diag([s2, s2])])
        w = np.zeros((4, 4))
        w[2:, :2] = np.eye(2)
        w[:2, 2:] = np.eye(2)
        bigswap = amb.element([w])
        rep = regular_pipeline(mp.sub, candidates=(bigswap, blockshift, bigswap * blockshift))
        _cache["klein"] = (mp, blockshift, rep)
    return _cache["klein"]


def _path_models():
    return (models.path_cc_m2(), models.path_c_cm2(), models.path_cm2_m3())


def test_criterion_01_expectation_closed_form(report):
    def body():
        for pm in _path_models():
            mid = pm.middle_subalgebra()
            for bp in pm.diagram.block_paths:
                for lam in bp:
                    for mu in bp:
                        closed = pm.expect_unit(lam, mu)
                        gns = mid.expect(pm.unit(lam, mu))
                        assert (closed - gns).norm() <= 1e-9

    _criterion(report, "criterion 01 closed-form expectation matches projection", body)


def test_criterion_02_path_orthogonal_system(report):
    def body():
        for pm in _path_models():
            mid = pm.middle_subalgebra()
            for block in range(len(pm.diagram.middle_dims)):
                jp = pm.j_projection(block)
                assert (jp * jp - jp).norm() <= 1e-10
                assert (jp - jp.adjoint()).norm() <= 1e-10
            labels, elems = pm.orthogonal_system()
            for i, (kap, _) in enumerate(labels):
                for k in range(len(elems)):
                    got = mid.expect(elems[i] * elems[k].adjoint())
                    want = pm.j_projection(kap.source) if i == k else pm.bottom.zero()
                    assert (got - want).norm() <= 1e-9

    _criterion(report, "criterion 02 path system left Gram is diagonal of averaged projections", body)


def test_criterion_03_scalar_bases_three_traces(report):
    def body():
        for t in ((0.2, 0.4), (1.0 / 3, 1.0 / 3), (0.6, 0.2)):
            alg = MultiMatrixAlgebra((1, 2), t)
            scal = Subalgebra.span(alg, [alg.identity()])
            sys = classify(scalar_basis(alg), scal, side="two-sided")
            assert sys.flags["basis"]
            assert sys.residuals["right_support_identity"] <= 1e-8
            assert sys.residuals["left_support_identity"] <= 1e-8
            if abs(t[0] - 0.2) < 1e-14:  # canonical trace: index is the sum of squared dims
                wat = watatani_index(sys.elements)
                assert wat.scalar is not None
                assert abs(wat.scalar - 5.0) <= 1e-8

    _criterion(report, "criterion 03 scaled matrix units form two-sided bases", body)


def _random_support(bc, rng):
    """Random projection in M1: a spectral cut of a random hermitian per block."""
    wd = bc.m1_wedd
    blocks = []
    for d in wd.block_dims:
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        h = (g + g.conj().T) / 2.0
        vals, vecs = np.linalg.eigh(h)
        keep = vecs[:, vals > 0]
        blocks.append(keep @ keep.conj().T)
    if max(linalg.operator_norm(b) for b in blocks) < 0.5:  # the zero projection: take 1 instead
        blocks = [np.eye(d) for d in wd.block_dims]
    return blocks


def test_criterion_04_constructed_supports_and_completion(report):
    def body():
        pool = [
            models.diagonal_in_matrix(2),
            models.diagonal_in_matrix(3),
            models.two_block_over_factor(),
        ]
        bcs = [BasicConstruction(mp.sub) for mp in pool]
        for i in range(50):
            bc = bcs[i % 3]
            f = _random_support(bc, linalg.rng_from_seed(100 + i))
            sys = construct_system_with_support(f, bc)
            # supports are M1's blocks; an element of M1 has the norm of its largest block
            assert max(linalg.operator_norm(c @ c - c) for c in sys.support["right"]) <= 1e-8
            full = complete_to_basis(sys, bc)
            assert max(linalg.operator_norm(c - np.eye(len(c))) for c in full.support["right"]) <= 1e-8
            assert full.elements[: sys.size] == sys.elements

    _criterion(report, "criterion 04 fifty constructed systems complete to bases", body)


def test_criterion_05_gram_projection_property(report):
    def body():
        # families with: f dominating e1, support equal to f, and every
        # element commuting with f on the GNS space
        instances = []

        q = models.masa_quadruple()
        bc_q = BasicConstruction(q.n_sub)
        for basis in q.bases_p:
            instances.append((basis, q.n_sub, bc_q, q.p_sub.projection_matrix()))
        for basis in q.bases_q:
            instances.append((basis, q.n_sub, bc_q, q.q_sub.projection_matrix()))

        kp, blockshift, krep = _klein()
        bc_k = BasicConstruction(kp.sub)
        mid = Subalgebra.generated(kp.ambient, list(kp.sub.basis_elements()) + [blockshift])
        instances.append(([kp.ambient.identity(), blockshift], kp.sub, bc_k, mid.projection_matrix()))
        instances.append((krep.patched.elements, kp.sub, bc_k, np.eye(bc_k.amb.gns_dim)))

        for key in ("diag2", "diag3", "two_block"):
            rep = _pipeline(key)
            bc = BasicConstruction(rep.sub)
            instances.append((rep.patched.elements, rep.sub, bc, np.eye(bc.amb.gns_dim)))

        sp = models.scalar_in_full(2)
        bc_s = BasicConstruction(sp.sub)
        instances.append((scalar_basis(sp.ambient), sp.sub, bc_s, np.eye(bc_s.amb.gns_dim)))
        alg5 = MultiMatrixAlgebra((1, 2), (0.2, 0.4))
        scal5 = Subalgebra.span(alg5, [alg5.identity()])
        bc_5 = BasicConstruction(scal5)
        instances.append((scalar_basis(alg5), scal5, bc_5, np.eye(bc_5.amb.gns_dim)))

        mp2 = models.diagonal_in_matrix(2)
        bc2 = BasicConstruction(mp2.sub)
        mp3 = models.diagonal_in_matrix(3)
        bc3 = BasicConstruction(mp3.sub)
        singles = [(mp2, bc2), (mp3, bc3), (models.two_block_over_factor(), None), (sp, bc_s)]
        for mp, bc in singles:
            bc = bc or BasicConstruction(mp.sub)
            instances.append(([mp.ambient.identity()], mp.sub, bc, e1_matrix(bc)))
        rng = linalg.rng_from_seed(33)
        for _ in range(3):  # diagonal phase unitaries live in the masa
            ph = np.exp(2j * np.pi * rng.random(2))
            u = mp2.ambient.element([np.diag(ph)])
            instances.append(([u], mp2.sub, bc2, e1_matrix(bc2)))
        for _ in range(2):
            ph = np.exp(2j * np.pi * rng.random(3))
            u = mp3.ambient.element([np.diag(ph)])
            instances.append(([u], mp3.sub, bc3, e1_matrix(bc3)))

        assert len(instances) == 20
        for elements, sub, bc, f in instances:
            e1 = e1_matrix(bc)
            assert linalg.operator_norm(f @ e1 - e1) <= 1e-8
            sys = classify(elements, sub, side="right", bc=bc)
            f_abs = to_abstract(bc.m1_wedd, f)  # f lies in M1: e1, 1 or e_P for P >= N
            assert max(linalg.operator_norm(c - b) for c, b in zip(sys.support["right"], f_abs)) <= 1e-7
            for lam in elements:
                ll = left_op(bc.amb, lam)
                assert linalg.operator_norm(ll @ f - f @ ll) <= 1e-8
            assert sys.residuals["right_gram_projection"] <= 1e-8

    _criterion(report, "criterion 05 twenty hypothesis-satisfying families pass the Gram test", body)


def test_criterion_06_markov_values(report):
    def body():
        for n in (2, 3, 4):
            mk = markov_trace([[n]], (1,))
            assert abs(mk.beta - n * n) <= 1e-12
        for k in (2, 3, 4):
            mk = markov_trace([[1]] * k, (1,) * k)
            assert abs(mk.beta - k) <= 1e-12
            lam = np.ones((k, 1))
            resid = np.linalg.norm(lam @ lam.T @ mk.trace_sub - mk.beta * mk.trace_sub)
            assert resid <= 1e-10

    _criterion(report, "criterion 06 Perron data of full and diagonal inclusions", body)


def test_criterion_07_watatani_basis_independence(report):
    def body():
        # diagonal masa of M2: index 2, two unrelated bases
        mp = models.diagonal_in_matrix(2)
        bc_a = BasicConstruction(mp.sub, seed=0)
        basis_a = complete_to_basis(construct_system_with_support(bc_a.e1, bc_a), bc_a)
        bc_b = BasicConstruction(mp.sub, seed=3)
        raw = construct_system_with_support([np.eye(k) for k in bc_b.m1_wedd.block_dims], bc_b)
        ph = np.exp(2j * np.pi * linalg.rng_from_seed(8).random(2))
        u = mp.ambient.element([np.diag(ph)])
        basis_b = classify([lam * u for lam in raw.elements], mp.sub, side="right", bc=bc_b)
        assert basis_a.flags["basis"] and basis_b.flags["basis"]
        wa, wb = watatani_index(basis_a.elements), watatani_index(basis_b.elements)
        assert (wa.element - wb.element).norm() <= 1e-8
        assert abs(wa.scalar - 2.0) <= 1e-8

        # scalars in M2: index 4, matrix units against a constructed basis
        sp = models.scalar_in_full(2)
        bc_c = BasicConstruction(sp.sub, seed=0)
        basis_c = classify(scalar_basis(sp.ambient), sp.sub, side="right", bc=bc_c)
        basis_d = construct_system_with_support([np.eye(k) for k in bc_c.m1_wedd.block_dims], bc_c)
        assert basis_c.flags["basis"] and basis_d.flags["basis"]
        wc, wd = watatani_index(basis_c.elements), watatani_index(basis_d.elements)
        assert (wc.element - wd.element).norm() <= 1e-8
        assert abs(wc.scalar - 4.0) <= 1e-8

    _criterion(report, "criterion 07 index is independent of the basis", body)


def test_criterion_08_regular_pipeline(report):
    def body():
        for key, k in (("diag2", 2), ("diag3", 3)):
            rep = _pipeline(key)
            assert rep.flags["regular"]
            assert rep.flags["patched_basis_two_sided"]
            assert len(rep.patched.elements) == k
            for i, u in enumerate(rep.reps):
                for j, v in enumerate(rep.reps):
                    if i != j:
                        assert rep.sub.expect(u * v.adjoint()).norm() <= 1e-9
        rep = _pipeline("two_block")
        assert abs(rep.numbers["beta"] - 2.0) <= 1e-10
        assert rep.numbers["reps"] == 1
        assert rep.numbers["dim_commutant"] == 2
        assert rep.numbers["product"] == 2
        assert rep.flags["patched_basis_two_sided"]
        lines = _pipeline("diag2").format_lines()
        assert "beta = 2" in lines
        assert "|reps| * dim(N' cap M) = 2 * 2 = 4" in lines
        assert II1_NOTE in lines

    _criterion(report, "criterion 08 regular pipeline on masa and factor models", body)


def test_criterion_09_interchange_operators(report):
    def body():
        q = models.masa_quadruple()
        bc = BasicConstruction(q.n_sub)
        ref, _, j_res = interchange_pair(q.p_sub, q.bases_p[0], q.q_sub, q.bases_q[0], bc)
        assert j_res <= 1e-8
        for bp in q.bases_p:
            for bq in q.bases_q:
                alt = interchange_operator(q.p_sub, bp, q.q_sub, bq, bc)
                assert linalg.operator_norm(ref - alt) <= 1e-8
        assert linalg.operator_norm(ref @ ref - ref) <= 1e-8
        d = models.degenerate_quadruple()
        bcd = BasicConstruction(d.n_sub)
        pp = interchange_operator(d.p_sub, d.bases_p[0], d.q_sub, d.bases_q[0], bcd)
        assert linalg.operator_norm(pp @ pp - pp) >= 0.05

    _criterion(report, "criterion 09 interchange operators and the commuting-square dichotomy", body)


def test_criterion_10_balanced_sums(report):
    def body():
        cases = []
        alg = MultiMatrixAlgebra((1, 2), (0.2, 0.4))
        scal = Subalgebra.span(alg, [alg.identity()])
        cases.append((scalar_basis(alg), scal, 5.0))
        sp = models.scalar_in_full(2)
        cases.append((scalar_basis(sp.ambient), sp.sub, 4.0))
        for key, beta in (("diag2", 2.0), ("diag3", 3.0), ("two_block", 2.0)):
            rep = _pipeline(key)
            cases.append((rep.patched.elements, rep.sub, beta))
        kp, _, krep = _klein()
        cases.append((krep.patched.elements, kp.sub, 4.0))
        for elements, sub, beta in cases:
            sys = classify(elements, sub, side="two-sided")
            assert sys.flags["basis"]
            amb = sub.ambient
            right = amb.zero()
            left = amb.zero()
            for lam in elements:
                right = right + lam.adjoint() * lam
                left = left + lam * lam.adjoint()
            assert (right - amb.scalar(beta)).norm() <= 1e-8
            assert (left - amb.scalar(beta)).norm() <= 1e-8

    _criterion(report, "criterion 10 two-sided bases have balanced scalar sums", body)


def test_criterion_11_pushdown_roundtrip(report):
    def body():
        pool = [
            models.diagonal_in_matrix(2),
            models.diagonal_in_matrix(3),
            models.two_block_over_factor(),
            models.scalar_in_full(2),
        ]
        bcs = [BasicConstruction(mp.sub) for mp in pool]
        rng = linalg.rng_from_seed(55)
        for i in range(50):
            mp = pool[i % 4]
            bc = bcs[i % 4]
            x = mp.ambient.random_element(rng)
            y = bc.pushdown([lift(bc, x)])[0]
            worst = max(np.max(np.abs(a - b)) for a, b in zip(y.blocks, x.blocks))
            assert worst <= 1e-12

    _criterion(report, "criterion 11 fifty pushdown roundtrips at machine precision", body)


def test_criterion_12_selftest_determinism(report):
    def body():
        rep1, _ = scenarios.run_selftest()
        rep2, _ = scenarios.run_selftest()
        assert rep1["pass"] is True
        assert scenarios.dump_report(rep1) == scenarios.dump_report(rep2)

    _criterion(report, "criterion 12 selftest passes twice with identical reports", body)
