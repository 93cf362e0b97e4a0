import numpy as np
import pytest
from hypothesis import given, settings

from ppbasis import (
    BasicConstruction,
    MultiMatrixAlgebra,
    Subalgebra,
    check_intermediate,
    classify,
    complete_to_basis,
    construct_system_with_support,
    gram_matrix,
    interchange_operator,
    intermediate_projection,
    is_commuting_square,
    scalar_basis,
    watatani_index,
)
from ppbasis import linalg, models
from ppbasis.algebra import join_wedderburn
from ppbasis.errors import (
    InfeasibleSupport,
    InvalidInput,
    NotABasis,
    NotAProjection,
    NotASystem,
)
from ppbasis.regular import GroupTable
from ppbasis.systems import _gram_residuals, require_basis
from test_closure import connected_pairs


def scalars_in_m2():
    amb = models.scalar_in_full(2).ambient
    return amb, Subalgebra.span(amb, [amb.identity()])


def test_classify_identity_over_itself():
    amb, _ = scalars_in_m2()
    whole = Subalgebra.span(amb, list(amb.units()), check=False)
    sys = classify([amb.identity()], whole, side="two-sided")
    # over the whole algebra the identity alone is an orthonormal basis
    assert sys.flags == {"system": True, "orthogonal": True, "orthonormal": True, "basis": True}
    assert sys.size == 1


def test_classify_scalar_basis():
    amb, scal = scalars_in_m2()
    sys = classify(scalar_basis(amb), scal, side="two-sided")
    assert sys.flags["basis"]
    assert sys.flags["orthonormal"]
    for key, val in sys.residuals.items():
        assert val < 1e-10, key


def test_classify_flags_non_system():
    amb, scal = scalars_in_m2()
    x = amb.element([np.array([[1.0, 0], [0, 0]], dtype=complex)])
    sys = classify([x], scal, side="right")
    # E(x* x) = (1/2) 1 is not a projection
    assert not sys.flags["system"]
    assert not sys.flags["orthogonal"]
    assert not sys.flags["basis"]
    assert sys.residuals["right_diag_projection"] > 0.1


def test_classify_input_validation():
    amb, scal = scalars_in_m2()
    with pytest.raises(InvalidInput):
        classify([], scal)
    with pytest.raises(InvalidInput):
        classify([amb.identity()], scal, side="up")


def test_gram_matrix_entries_live_in_sub():
    mp = models.diagonal_in_matrix(2)
    rng = linalg.rng_from_seed(0)
    elems = [mp.ambient.random_element(rng) for _ in range(2)]
    for side in ("right", "left"):
        g = gram_matrix(elems, mp.sub, side)
        for row in g:
            for q in row:
                assert mp.sub.contains(q)
    with pytest.raises(InvalidInput):
        gram_matrix(elems, mp.sub, side="middle")


def test_construct_with_support_e1():
    mp = models.diagonal_in_matrix(2)
    bc = BasicConstruction(mp.sub)
    sys = construct_system_with_support(bc.e1, bc)
    assert sys.size == 1
    assert sys.flags["system"] and sys.flags["orthonormal"]
    assert sys.residuals["support_match"] < 1e-10


def test_construct_with_full_support_is_basis():
    mp = models.diagonal_in_matrix(2)
    bc = BasicConstruction(mp.sub)
    one = np.eye(bc.gns_dim)
    for mode in ("general", "orthogonal"):
        sys = construct_system_with_support(one, bc, mode=mode)
        assert sys.size == 2
        assert sys.flags["basis"]
        assert sys.flags["orthogonal"]
        assert sys.residuals["support_match"] < 1e-9


def test_construct_orthonormal_padded_full_support():
    mp = models.diagonal_in_matrix(2)
    bc = BasicConstruction(mp.sub)
    sys = construct_system_with_support(np.eye(bc.gns_dim), bc, mode="orthonormal-padded")
    assert sys.size == 2
    assert sys.flags["orthonormal"]
    assert sys.flags["basis"]


def test_construct_rejects_non_projection():
    mp = models.diagonal_in_matrix(2)
    bc = BasicConstruction(mp.sub)
    with pytest.raises(NotAProjection):
        construct_system_with_support(0.5 * bc.e1, bc)
    with pytest.raises(InvalidInput):
        construct_system_with_support(bc.e1, bc, mode="banana")


def test_construct_rejects_support_outside_m1():
    mp = models.diagonal_in_matrix(2)
    bc = BasicConstruction(mp.sub)
    # rank-one projector mixing two GNS coordinates moved by the right action
    v = np.zeros(bc.gns_dim, dtype=complex)
    v[0] = v[1] = 1.0 / np.sqrt(2)
    p = np.outer(v, v.conj())
    assert bc.m1_wedd.roundtrip_residual(p) > 1e-6
    with pytest.raises(InvalidInput):
        construct_system_with_support(p, bc)


def test_construct_padded_infeasible_reports_deficits():
    # one central summand of M1 needs two steps, the other can't fill them
    mp = models.diagonal_in_matrix(2)
    bc = BasicConstruction(mp.sub)
    w0 = bc.m1_wedd.isometries[0]
    z0 = w0 @ w0.conj().T
    with pytest.raises(InfeasibleSupport) as ei:
        construct_system_with_support(z0, bc, mode="orthonormal-padded")
    deficits = ei.value.deficits
    assert len(deficits) == 1
    assert list(deficits.values()) == [1]
    # the general mode accepts the same support
    sys = construct_system_with_support(z0, bc, mode="general")
    assert sys.residuals["support_match"] < 1e-9


def test_complete_to_basis_extends_and_preserves_prefix():
    mp = models.diagonal_in_matrix(2)
    bc = BasicConstruction(mp.sub)
    start = construct_system_with_support(bc.e1, bc)
    full = complete_to_basis(start, bc)
    assert full.size == 2
    assert full.flags["basis"]
    assert full.elements[: start.size] == start.elements
    # completing a basis returns it unchanged
    again = complete_to_basis(full, bc)
    assert again is full


def test_complete_to_basis_guards():
    amb, scal = scalars_in_m2()
    bc = BasicConstruction(scal)
    x = amb.element([np.array([[1.0, 0], [0, 0]], dtype=complex)])
    bad = classify([x], scal, side="right", bc=bc)
    with pytest.raises(NotASystem):
        complete_to_basis(bad, bc)
    with pytest.raises(InvalidInput):
        complete_to_basis("not a system")
    left = classify([amb.identity()], scal, side="left", bc=bc)
    with pytest.raises(InvalidInput):
        complete_to_basis(left, bc)


def test_basis_survives_subalgebra_unitary_rotation():
    mp = models.diagonal_in_matrix(2)
    bc = BasicConstruction(mp.sub)
    base = complete_to_basis(construct_system_with_support(bc.e1, bc), bc)
    rng = linalg.rng_from_seed(11)
    for _ in range(5):
        # random unitary of N: diagonal phases
        ph = np.exp(2j * np.pi * rng.random(2))
        u = mp.ambient.element([np.diag(ph)])
        rotated = classify([lam * u for lam in base.elements], mp.sub, side="right", bc=bc)
        assert rotated.flags["basis"]
        shifted = classify([u * lam for lam in base.elements], mp.sub, side="right", bc=bc)
        assert shifted.flags["basis"]


def test_random_supports_roundtrip():
    # spectral projections of random hermitians in M1 are valid supports
    mp = models.diagonal_in_matrix(2)
    bc = BasicConstruction(mp.sub)
    wd = bc.m1_wedd
    rng = linalg.rng_from_seed(21)
    built = 0
    for _ in range(10):
        proj_blocks = []
        for d in wd.block_dims:
            g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            vals, vecs = np.linalg.eigh((g + g.conj().T) / 2.0)
            keep = vecs[:, vals > 0]
            proj_blocks.append(keep @ keep.conj().T)
        f = wd.from_abstract(proj_blocks)
        if linalg.operator_norm(f) < 0.5:
            continue
        sys = construct_system_with_support(f, bc)
        assert sys.flags["system"]
        assert sys.residuals["support_match"] < 1e-8
        built += 1
    assert built >= 5


# -- left-regular oracles ----------------------------------------------------
# The reference construction writes every Gram entry as its D x D left
# multiplication operator and sums L e1 L* element by element; the fast path
# must reproduce its flags exactly and its residuals to 1e-12.


def oracle_classify(elements, sub, bc, tol=1e-8):
    """Two-sided flags and residuals through the left-regular representation."""
    alg = sub.ambient
    one, eye = alg.identity(), np.eye(bc.gns_dim)
    residuals = {}
    flags = {"system": True, "orthogonal": True, "orthonormal": True, "basis": True}
    for s in ("right", "left"):
        g = [
            [sub.expect(x.adjoint() * y if s == "right" else x * y.adjoint()) for y in elements]
            for x in elements
        ]
        big = np.block([[alg.left_op(q) for q in row] for row in g])
        scale = 1.0 + linalg.operator_norm(big)
        r = max(linalg.operator_norm(big @ big - big), linalg.operator_norm(big - big.conj().T))
        residuals[s + "_gram_projection"] = r / scale
        flags["system"] &= r <= tol * scale
        off = max((g[i][j].norm() for i in range(len(g)) for j in range(len(g)) if i != j), default=0.0)
        proj = max(max(((q * q) - q).norm(), (q - q.adjoint()).norm()) for q in (row[i] for i, row in enumerate(g)))
        ident = max((row[i] - one).norm() for i, row in enumerate(g))
        residuals[s + "_offdiag"] = off
        residuals[s + "_diag_projection"] = proj
        residuals[s + "_diag_identity"] = ident
        flags["orthogonal"] &= off <= tol and proj <= tol
        flags["orthonormal"] &= ident <= tol
        residuals[s + "_support_identity"] = linalg.operator_norm(oracle_support(elements, bc, s) - eye)
        flags["basis"] &= residuals[s + "_support_identity"] <= tol
    flags["orthonormal"] = flags["orthonormal"] and flags["orthogonal"]
    flags["basis"] = flags["basis"] and flags["system"]
    return flags, residuals


def oracle_support(elements, bc, side):
    acc = np.zeros((bc.gns_dim, bc.gns_dim), dtype=complex)
    for lam in elements:
        ll = bc.amb.left_op(lam)
        acc += ll @ bc.e1 @ ll.conj().T if side == "right" else ll.conj().T @ bc.e1 @ ll
    return acc


def oracle_interchange(basis_p, basis_q, bc):
    acc = np.zeros((bc.gns_dim, bc.gns_dim), dtype=complex)
    for lam in basis_p:
        ll = bc.amb.left_op(lam)
        for mu in basis_q:
            w = ll @ bc.amb.left_op(mu)
            acc += w @ bc.e1 @ w.conj().T
    return acc


def _oracle_families():
    m5 = models.scalar_in_full(5)
    rng = linalg.rng_from_seed(1)
    scalar = scalar_basis(m5.ambient)
    u = m5.ambient.element([linalg.random_unitary(5, rng)])
    broken = list(scalar)
    broken[7] = 1.1 * broken[7]
    z16 = models.group_algebra_pair(GroupTable.cyclic(16), [0])
    d4 = models.diagonal_in_matrix(4)
    cp3 = models.crossed_product_diag(3)
    c_cm2 = models.explicit_pair((1,), [[1, 2]])
    d3 = models.diagonal_in_matrix(3)
    cm2_m3 = models.explicit_pair((1, 2), [[1], [1]])
    z4_z2 = models.group_algebra_pair(GroupTable.cyclic(4), [0, 2])
    two = models.two_block_over_factor()
    # R = N v (N' cap M) with its closed-form units: N itself here, all of M2 + M2 there
    r_cp3 = join_wedderburn(cp3.sub.wedderburn_data()).subalgebra
    r_two = join_wedderburn(two.sub.wedderburn_data()).subalgebra
    return {
        "m5-scalar": (m5.sub, scalar),
        "m5-conjugated": (m5.sub, [x.conj_by(u) for x in scalar]),
        "m5-broken": (m5.sub, broken),
        "z16-unitaries": (z16.sub, z16.candidates),
        "d4-shifts": (d4.sub, d4.candidates),
        "d4-scalar": (d4.sub, scalar_basis(d4.ambient)),
        "crossed-product-diag-3": (cp3.sub, cp3.candidates),
        "c-in-c+m2-scalar": (c_cm2.sub, scalar_basis(c_cm2.ambient)),
        "d3-random": (d3.sub, [d3.ambient.random_element(rng) for _ in range(3)]),
        # N = C + M2 is not abelian, so the layout of the Gram blocks matters
        "c+m2-in-m3-random": (cm2_m3.sub, [cm2_m3.ambient.random_element(rng) for _ in range(3)]),
        # span-only N of dimension > 1, decomposed by wedderburn: C + M2 (a copy
        # of the one above, so its units are not kept) and C[Z2] inside C[Z4]
        "c+m2-span-in-m3-random": (
            Subalgebra(cm2_m3.ambient, cm2_m3.sub.mat),
            [cm2_m3.ambient.random_element(rng) for _ in range(3)],
        ),
        "z4-over-z2-unitaries": (z4_z2.sub, z4_z2.candidates),
        "r-of-crossed-product-diag-3": (r_cp3, cp3.candidates),
        "r-of-m2-in-m2+m2": (r_two, list(two.candidates) + [two.ambient.random_element(rng) for _ in range(2)]),
    }


ORACLE_FAMILIES = _oracle_families()


# every flag of these families is known in closed form
VERDICTS = {
    "m5-scalar": True,
    "m5-conjugated": True,
    "m5-broken": False,
    "z16-unitaries": True,
    "d4-shifts": True,
    "d4-scalar": False,
}


@pytest.mark.parametrize("name", sorted(ORACLE_FAMILIES))
def test_classify_matches_left_regular_oracle(name):
    sub, elements = ORACLE_FAMILIES[name]
    bc = BasicConstruction(sub)
    sys = classify(elements, sub, side="two-sided", bc=bc)
    flags, residuals = oracle_classify(tuple(elements), sub, bc)
    assert sys.flags == flags
    if name in VERDICTS:
        assert flags == dict.fromkeys(("system", "orthogonal", "orthonormal", "basis"), VERDICTS[name])
    assert sys.residuals.keys() == residuals.keys()
    for key, val in residuals.items():
        assert abs(sys.residuals[key] - val) <= 1e-12, (key, sys.residuals[key], val)
    for side in ("right", "left"):
        assert np.abs(sys.support[side] - oracle_support(elements, bc, side)).max() <= 1e-12


def test_gram_matrix_matches_entrywise_expectation():
    sub, elements = ORACLE_FAMILIES["d3-random"]
    for side in ("right", "left"):
        g = gram_matrix(elements, sub, side)
        for i, x in enumerate(elements):
            for j, y in enumerate(elements):
                ref = sub.expect(x.adjoint() * y if side == "right" else x * y.adjoint())
                assert g[i][j].allclose(ref, tol=1e-12)


@pytest.mark.parametrize("which", ["masa", "degenerate"])
def test_interchange_matches_double_loop_oracle(which):
    q = models.masa_quadruple() if which == "masa" else models.degenerate_quadruple()
    bc = BasicConstruction(q.n_sub)
    for bp in q.bases_p:
        for bq in q.bases_q:
            fast = interchange_operator(q.p_sub, bp, q.q_sub, bq, bc, check=False)
            assert np.abs(fast - oracle_interchange(bp, bq, bc)).max() <= 1e-12


def test_interchange_of_non_commuting_families_matches_oracle():
    # without the basis check any two families are accepted; the order of the
    # products lambda_i mu_j matters once they do not commute
    q = models.masa_quadruple()
    bc = BasicConstruction(q.n_sub)
    rng = linalg.rng_from_seed(9)
    fam_p = [q.ambient.random_element(rng) for _ in range(2)]
    fam_q = [q.ambient.random_element(rng) for _ in range(3)]
    fast = interchange_operator(q.p_sub, fam_p, q.q_sub, fam_q, bc, check=False)
    assert np.abs(fast - oracle_interchange(fam_p, fam_q, bc)).max() <= 1e-12


def test_scalar_basis_of_m8_is_a_two_sided_basis():
    # 64 elements over C in M8: the left-regular Gram operator would be 4096 x 4096
    m8 = models.scalar_in_full(8)
    sys = classify(scalar_basis(m8.ambient), m8.sub, side="two-sided")
    assert sys.size == 64
    assert sys.flags == {"system": True, "orthogonal": True, "orthonormal": True, "basis": True}


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_non_finite_element_block_is_invalid_input(value):
    d3 = models.diagonal_in_matrix(3)
    bad = list(d3.candidates)
    blocks = [b.copy() for b in bad[1].blocks]
    blocks[0][0, 0] = value
    bad[1] = d3.ambient.element(blocks)
    with pytest.raises(InvalidInput, match="non-finite element"):
        classify(bad, d3.sub)
    with pytest.raises(InvalidInput, match="non-finite element"):
        gram_matrix(bad, d3.sub, "left")


def test_overflowing_gram_entry_is_invalid_input():
    d2 = models.diagonal_in_matrix(2)
    huge = d2.ambient.element([1e200 * np.eye(2)])
    with pytest.raises(InvalidInput, match="non-finite Gram entry"):
        classify([huge], d2.sub)
    with pytest.raises(InvalidInput, match="non-finite Gram entry"):
        gram_matrix([huge], d2.sub)


def test_require_basis_reports_the_first_failed_check():
    q = models.masa_quadruple()
    diag = q.bases_p[0]  # sqrt(2) e11, sqrt(2) e22: a right basis of the diagonal over C
    with pytest.raises(NotABasis, match="element 0 leaves its algebra"):
        require_basis(diag, q.n_sub, q.q_sub, side="right", label="diag")
    with pytest.raises(NotABasis, match="fails the Gram projection test"):
        require_basis([2.0 * q.ambient.identity()], q.n_sub, side="right")
    with pytest.raises(NotABasis, match="wrong right support"):
        require_basis(diag, q.n_sub, side="right")  # support e_P, not 1
    sys = require_basis(diag, q.n_sub, q.p_sub, side="right")
    assert sys.residuals["right_support_target"] < 1e-12
    assert "left_support_target" not in sys.residuals
    full = require_basis(scalar_basis(q.ambient), q.n_sub)
    assert max(full.residuals["right_support_target"], full.residuals["left_support_target"]) < 1e-12


@pytest.mark.parametrize("tol", [np.nan, np.inf, -1.0, 0.0, "1e-8", None, True, [1e-8]])
def test_non_finite_or_non_positive_tol_is_invalid_input(tol):
    # inf would pass every flag and nan fail every one; a string once escaped as a
    # TypeError, and True passed as 1.0.  With nan, watatani_index once reported a
    # non-central index and check_intermediate passed
    amb, scal = scalars_in_m2()
    bc = BasicConstruction(scal)
    basis = scalar_basis(amb)
    start = classify(basis[:1], scal, side="right", bc=bc)
    for call in (
        lambda: classify(basis, scal, tol=tol),
        lambda: require_basis(basis, scal, scal, tol=tol),
        lambda: construct_system_with_support(bc.e1, bc, tol=tol),
        lambda: complete_to_basis(start, bc, tol=tol),
        lambda: watatani_index(basis, tol=tol),
        lambda: is_commuting_square(scal, scal, scal, tol=tol),
        lambda: check_intermediate(scal, scal, tol=tol),
        lambda: intermediate_projection(scal, bc, tol=tol),
    ):
        with pytest.raises(InvalidInput, match="tol must be finite and positive, got"):
            call()
    assert classify(basis, scal, tol=np.float64(1e-8)).flags["basis"]  # a numpy float is a real number


# -- n^2-product oracle ------------------------------------------------------
# The reference Gram forms all n^2 ambient products x_i* x_j, one einsum per
# ambient block, and projects them onto N's matrix units; the reference support
# multiplies each block of every x_i into N's orthonormal basis.  The fast path
# reads both off two product passes and must match every Gram block, support
# entry and residual to 1e-12.


def oracle_gram_and_support(elements, sub, side):
    amb, wd, n = sub.ambient, sub.wedderburn_data(), len(elements)
    stacks = [np.stack([x.blocks[k] for x in elements]) for k in range(amb.nblocks)]
    if side == "left":
        stacks = [s.conj().transpose(0, 2, 1) for s in stacks]
    prods = [
        np.sqrt(t) * np.einsum("iba,jbc->ijac", s.conj(), s).reshape(n, n, -1) for t, s in zip(amb.trace_vector, stacks)
    ]
    gram = wd.abstract_blocks(np.concatenate(prods, axis=2) @ wd.unit_mat.conj())
    qs = np.split(sub.mat, np.cumsum([s.shape[1] ** 2 for s in stacks])[:-1])
    w = np.concatenate(
        [np.einsum("iab,bcs->acis", s, q.reshape(*s.shape[1:], -1)).reshape(len(q), -1) for s, q in zip(stacks, qs)]
    )
    return gram, w @ w.conj().T


def check_against_product_oracle(elements, sub):
    sys = classify(elements, sub, side="two-sided")
    for side in ("right", "left"):
        gram, support = oracle_gram_and_support(elements, sub, side)
        assert [g.shape for g in sys.gram[side]] == [g.shape for g in gram]
        for got, want in zip(sys.gram[side], gram):
            assert np.abs(got - want).max() <= 1e-12
        assert np.abs(sys.support[side] - support).max() <= 1e-12
        r, scale, off, proj, one = _gram_residuals(gram, sub.wedderburn_data())
        want = {
            "gram_projection": r / scale,
            "offdiag": off,
            "diag_projection": proj,
            "diag_identity": one,
            "support_identity": linalg.hermitian_norm(support - np.eye(sub.ambient.gns_dim)),
        }
        for key, val in want.items():
            assert abs(sys.residuals["%s_%s" % (side, key)] - val) <= 1e-12, (side, key)


@pytest.mark.parametrize("name", sorted(ORACLE_FAMILIES))
def test_classify_matches_product_oracle(name):
    # the six bases-benchmark families, span-only N (through wedderburn), multi-block N
    sub, elements = ORACLE_FAMILIES[name]
    check_against_product_oracle(tuple(elements), sub)


@settings(max_examples=25)
@given(connected_pairs())
def test_drawn_inclusions_match_product_oracle(mp):
    rng = linalg.rng_from_seed(0)
    family = tuple(scalar_basis(mp.ambient)) + tuple(mp.ambient.random_element(rng) for _ in range(2))
    check_against_product_oracle(family, mp.sub)


@pytest.mark.parametrize("k", [2, 3, 5])
def test_classify_makes_two_product_passes_per_side(monkeypatch, k):
    # the Gram (the x_i e_pq) and the support (the x_i q_s) take one pass of
    # n * dim N products each; the n^2 products x_i* x_j are never formed
    mk = models.scalar_in_full(k)
    mk.sub.wedderburn_data()
    pairs, products = [], MultiMatrixAlgebra.products

    def counted(self, a, b):
        pairs.append(a.shape[1] * b.shape[1])
        return products(self, a, b)

    monkeypatch.setattr(MultiMatrixAlgebra, "products", counted)
    sys = classify(scalar_basis(mk.ambient), mk.sub, side="two-sided")
    assert sys.flags["basis"]
    assert pairs == [k * k * mk.sub.dim] * 4
