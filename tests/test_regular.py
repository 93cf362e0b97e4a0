import pickle
import warnings

import numpy as np
import pytest
from hypothesis import given, settings

from ppbasis import (
    Automorphism,
    BasicConstruction,
    CrossedProductModel,
    GroupTable,
    MultiMatrixAlgebra,
    Subalgebra,
    check_normalizer,
    coset_distinct,
    coset_system,
    patch_bases,
    regular_pipeline,
    relative_commutant,
    scalar_basis,
)
from ppbasis import algebra, basic, linalg, models, regular, scenarios, systems
from ppbasis.errors import (
    DuplicateCoset,
    InvalidInput,
    InvalidSubgroup,
    NonConnected,
    NotAnAction,
    NotANormalizer,
    NotUnitary,
)
from ppbasis.regular import II1_NOTE, normalizer_residual
from ppbasis.systems import classify, require_basis
import oracles
from oracles import left_op, unit_coefficients
from test_closure import PIPELINE_MODELS, connected_pairs


# ---------------------------------------------------------------- group tables


def test_cyclic_group_table():
    g = GroupTable.cyclic(4)
    assert len(g) == 4
    assert g.mult(3, 2) == 1
    assert g.inverse(1) == 3
    assert g.inverse(0) == 0


def test_group_table_validation():
    with pytest.raises(InvalidInput):
        GroupTable([[0, 1]])  # not square
    with pytest.raises(InvalidInput):
        GroupTable([[1, 0], [0, 1]])  # 0 is not the identity
    with pytest.raises(InvalidInput):
        GroupTable([[0, 1], [1, 1]])  # row 1 not a permutation
    with pytest.raises(InvalidInput):
        GroupTable([[0, 1], [1, 2]])  # entry out of range
    # a Latin square with identity that is not a group: 1 * 1 = 0 forces an
    # order-2 element, impossible in a group of order 5
    loop5 = [
        [0, 1, 2, 3, 4],
        [1, 0, 3, 4, 2],
        [2, 3, 4, 0, 1],
        [3, 4, 1, 2, 0],
        [4, 2, 0, 1, 3],
    ]
    with pytest.raises(InvalidInput) as ei:
        GroupTable(loop5)
    assert "associative" in str(ei.value)


def test_direct_product_klein():
    z2 = GroupTable.cyclic(2)
    v4 = GroupTable.direct_product(z2, z2)
    assert len(v4) == 4
    for g in range(4):
        assert v4.inverse(g) == g  # every element self-inverse
    assert v4.mult(1, 2) == 3


def test_from_permutations():
    g, order = GroupTable.from_permutations([(1, 0), (0, 1)])
    assert len(g) == 2
    assert order[0] == (0, 1)  # identity reindexed to the front
    assert g.mult(1, 1) == 0
    with pytest.raises(InvalidInput):
        GroupTable.from_permutations([(0, 1, 2), (1, 2, 0)])  # not closed
    with pytest.raises(InvalidInput):
        GroupTable.from_permutations([(1, 2, 0), (2, 0, 1)])  # no identity
    with pytest.raises(InvalidInput):
        GroupTable.from_permutations([(0, 0)])


# --------------------------------------------------------------- automorphisms


def m2():
    return MultiMatrixAlgebra((2,), (0.5,))


def test_automorphism_apply_and_compose():
    alg = m2()
    flip = Automorphism(alg, unitaries=[np.diag([1.0, -1.0])])
    e01 = alg.unit(0, 0, 1)
    assert flip.apply(e01).allclose(-e01)
    assert flip.compose(flip).distance(Automorphism.identity(alg)) < 1e-12
    rng = linalg.rng_from_seed(0)
    x, y = alg.random_element(rng), alg.random_element(rng)
    # automorphisms are multiplicative
    assert flip.apply(x * y).allclose(flip.apply(x) * flip.apply(y), tol=1e-12)


def test_automorphism_block_permutation():
    alg = MultiMatrixAlgebra((1, 1), (0.5, 0.5))
    swap = Automorphism(alg, perm=(1, 0))
    x = alg.element([np.array([[2.0]]), np.array([[3.0]])])
    y = swap.apply(x)
    assert abs(y.blocks[0][0, 0] - 3.0) < 1e-14
    assert abs(y.blocks[1][0, 0] - 2.0) < 1e-14


def test_cyclic_shifts_move_block_j_minus_g_to_block_j():
    alg = MultiMatrixAlgebra((1,) * 4, (0.25,) * 4)
    shifts = Automorphism.cyclic_shifts(alg)
    assert [a.perm for a in shifts] == [tuple((j - g) % 4 for j in range(4)) for g in range(4)]
    x = alg.element([np.array([[v]]) for v in (1.0, 2.0, 3.0, 4.0)])
    assert [b[0, 0].real for b in shifts[1].apply(x).blocks] == [4.0, 1.0, 2.0, 3.0]


def test_automorphism_rejections():
    alg = MultiMatrixAlgebra((1, 2), (0.2, 0.4))
    with pytest.raises(NotAnAction):
        Automorphism(alg, perm=(1, 0))  # block sizes differ
    skew = MultiMatrixAlgebra((1, 1), (0.3, 0.7))
    with pytest.raises(NotAnAction):
        Automorphism(skew, perm=(1, 0))  # trace weights differ
    with pytest.raises(NotAnAction):
        Automorphism(m2(), perm=(0, 0))
    with pytest.raises(NotUnitary):
        Automorphism(m2(), unitaries=[np.ones((2, 2))])


# ------------------------------------------------------------ crossed products


def test_crossed_product_m2_by_flip():
    base = m2()
    flip = Automorphism(base, unitaries=[np.diag([1.0, -1.0])])
    cp = CrossedProductModel(base, GroupTable.cyclic(2), [Automorphism.identity(base), flip])
    # inner Z2 action on M2 splits the covariance algebra into two 2x2 blocks
    assert tuple(sorted(cp.algebra.dims)) == (2, 2)
    assert np.allclose(cp.algebra.trace_vector, [0.25, 0.25])


def test_crossed_product_trivial_group_is_base():
    base = m2()
    cp = CrossedProductModel(base, GroupTable.cyclic(1), [Automorphism.identity(base)])
    assert cp.algebra.dims == (2,)
    assert np.allclose(cp.algebra.trace_vector, [0.5])


def test_crossed_product_diag_is_full_matrix():
    for k in (2, 3):
        mp = models.crossed_product_diag(k)
        assert mp.ambient.dims == (k,)
        assert np.allclose(mp.ambient.trace_vector, [1.0 / k])
        assert mp.sub.dim == k


def test_crossed_product_embedding_properties():
    base = m2()
    flip = Automorphism(base, unitaries=[np.diag([1.0, -1.0])])
    cp = CrossedProductModel(base, GroupTable.cyclic(2), [Automorphism.identity(base), flip])
    rng = linalg.rng_from_seed(5)
    for _ in range(5):
        x, y = base.random_element(rng), base.random_element(rng)
        assert cp.embed(x * y).allclose(cp.embed(x) * cp.embed(y), tol=1e-10)
        assert abs(cp.embed(x).trace() - x.trace()) < 1e-10
    # group unitaries multiply by the table and implement the action
    u0, u1 = cp.unitaries
    assert (u1 * u1).allclose(u0, tol=1e-10)
    assert u1.is_unitary()
    conj = u1 * cp.embed(x) * u1.adjoint()
    assert conj.allclose(cp.embed(flip.apply(x)), tol=1e-9)
    # off-identity group elements have zero canonical trace
    assert abs(u1.trace()) < 1e-10


def test_crossed_product_rejects_bad_actions():
    base = m2()
    ident = Automorphism.identity(base)
    flip = Automorphism(base, unitaries=[np.diag([1.0, -1.0])])
    z3 = GroupTable.cyclic(3)
    with pytest.raises(NotAnAction):
        CrossedProductModel(base, z3, [ident, flip])  # wrong count
    with pytest.raises(NotAnAction):
        CrossedProductModel(base, GroupTable.cyclic(2), [flip, ident])  # identity must act trivially
    with pytest.raises(NotAnAction):
        CrossedProductModel(base, z3, [ident, flip, flip])  # flip has order 2, not 3


def crossed_product_oracle(base, group, autos, seed=0):
    """B x| G as it was built on |G| copies of L2(B): pi(b) has the diagonal blocks
    L(alpha_{h^-1}(b)) and u_g moves block h to block gh, the span of the pi(b) u_g is
    decomposed in the one-block algebra of those operators, and the canonical trace of a
    minimal projection is read off its (e, e) corner.  Returns (algebra, base image, unitaries)."""
    n, db, units = len(group), base.gns_dim, base.units()
    dv = db * n
    coords = np.array([[regular._coords(autos[g].apply(b)) for b in units] for g in range(n)])
    inv = [group.inverse(g) for g in range(n)]
    pi = np.einsum("hbc,cxy->bhxy", coords[inv], np.array([left_op(base, e) for e in units]))
    pi = np.einsum("bkxy,kl->bkxly", pi, np.eye(n)).reshape(db, dv, dv)
    u = np.kron(group.table[:, None, :] == np.arange(n)[None, :, None], np.eye(db))
    op_alg = MultiMatrixAlgebra((dv,), (1.0 / dv,))
    wd = Subalgebra.span(op_alg, [op_alg.element([x @ ug]) for x in pi for ug in u], check=False).wedderburn_data(seed)
    traces = [base.unvec(e[0][0].blocks[0][:db, :db] @ base.vec(base.identity())).trace().real
              for e in oracles.units(wd)]
    total = sum(d * t for d, t in zip(wd.block_dims, traces))
    alg = MultiMatrixAlgebra(wd.block_dims, [t / total for t in traces])

    def to_model(mat):
        return alg.element(unit_coefficients(wd, op_alg.element([mat])))

    image = Subalgebra.embedded(alg, base, lambda b: to_model(np.tensordot(regular._coords(b), pi, 1)))
    return alg, image, tuple(to_model(ug) for ug in u)


def _oracle_actions():
    def diag(k):
        base = MultiMatrixAlgebra((1,) * k, (1.0 / k,) * k)
        return base, GroupTable.cyclic(k), Automorphism.cyclic_shifts(base)

    point, base_m2, base = MultiMatrixAlgebra((1,), (1.0,)), m2(), MultiMatrixAlgebra((2, 1, 1), (0.3, 0.2, 0.2))
    flip = Automorphism(base_m2, unitaries=[np.diag([1.0, -1.0])])
    ident = Automorphism.identity(base)
    swap = Automorphism(base, perm=(0, 2, 1))
    turn = Automorphism(base, perm=(0, 2, 1), unitaries=[[[0.0, -1.0], [1.0, 0.0]], np.eye(1), np.eye(1)])
    c, s = np.cos(np.pi / 4), np.sin(np.pi / 4)
    turn4 = Automorphism(base, perm=(0, 2, 1), unitaries=[[[c, -s], [s, c]], np.eye(1), np.eye(1)])
    s3, perms = GroupTable.from_permutations([(0, 1, 2), (1, 0, 2), (0, 2, 1), (2, 1, 0), (1, 2, 0), (2, 0, 1)])
    c3 = MultiMatrixAlgebra((1,) * 3, (1.0 / 3,) * 3)
    moves = [Automorphism(c3, perm=np.argsort(p)) for p in perms]  # block i goes to block p(i)
    return {
        **{"crossed-diag-%d" % k: diag(k) for k in (2, 3, 4, 5, 6)},
        **{"z%d-over-e" % n: (point, GroupTable.cyclic(n), [Automorphism.identity(point)] * n) for n in (2, 3, 6, 8)},
        "klein-over-e": (point, GroupTable.direct_product(*[GroupTable.cyclic(2)] * 2), [Automorphism.identity(point)] * 4),
        "s3-over-e": (point, s3, [Automorphism.identity(point)] * 6),
        "s3-on-c3": (c3, s3, moves),
        "m2-by-inner-flip": (base_m2, GroupTable.cyclic(2), [Automorphism.identity(base_m2), flip]),
        "m2-trivial-z2": (base_m2, GroupTable.cyclic(2), [Automorphism.identity(base_m2)] * 2),
        "211-swap": (base, GroupTable.cyclic(2), [ident, swap]),
        "211-turn": (base, GroupTable.cyclic(2), [ident, turn]),
        "211-turn-z4": (base, GroupTable.cyclic(4), [ident, turn4, turn4.compose(turn4), turn4.compose(turn4).compose(turn4)]),
    }


@pytest.mark.parametrize("name", list(_oracle_actions()))
def test_crossed_product_matches_the_copies_of_l2b_oracle(name):
    # the model inside M_|G|(B) and the operators on |G| copies of L2(B): the same
    # (block dim, trace) multiset and inclusion matrix up to block order, and the same
    # pipeline verdict (or error) on B with the group unitaries; the GNS space has |G|^2 dim B rows
    base, group, autos = _oracle_actions()[name]
    cp = CrossedProductModel(base, group, autos)
    alg, image, unitaries = crossed_product_oracle(base, group, autos)
    assert cp.span.ambient.gns_dim == len(group) ** 2 * base.dim

    def blocks(amb, sub):
        lam = sub.wedderburn_data().lam
        return sorted(zip(amb.dims, amb.trace_vector, map(tuple, lam.T)), key=lambda b: (b[0], round(b[1], 9), b[2]))

    got, want = blocks(cp.algebra, cp.base_image), blocks(alg, image)
    assert [(d, col) for d, _, col in got] == [(d, col) for d, _, col in want]
    assert max(abs(a[1] - b[1]) for a, b in zip(got, want)) <= 1e-12
    assert _verdict(cp.base_image, cp.unitaries) == _verdict(image, unitaries)


def _verdict(sub, candidates):
    """The pipeline's flags, |reps| and issues, or the error it raises (B = M2 + C + C
    under the swap is not connected in B x| Z2 = M2 + M2 + M2)."""
    try:
        rep = regular_pipeline(sub, candidates)
    except NonConnected as exc:
        return str(exc)
    return rep.flags, rep.numbers["reps"], rep.issues


def test_group_algebra_pair_and_subgroup_check():
    mp = models.group_algebra_pair(GroupTable.cyclic(2), [0])
    assert tuple(sorted(mp.ambient.dims)) == (1, 1)
    assert mp.sub.dim == 1
    z4 = GroupTable.cyclic(4)
    mp2 = models.group_algebra_pair(z4, [0, 2])  # genuine subgroup
    assert mp2.sub.dim == 2
    with pytest.raises(InvalidSubgroup):
        models.group_algebra_pair(z4, [0, 1])  # not closed: 1 + 1 = 2
    with pytest.raises(InvalidSubgroup):
        models.group_algebra_pair(z4, [2])  # missing identity
    with pytest.raises(InvalidSubgroup):
        models.group_algebra_pair(z4, [0, 9])


# ------------------------------------------------------- normalizers and cosets


def test_check_normalizer_accepts_shift():
    mp = models.diagonal_in_matrix(2)
    shift = mp.ambient.element([np.array([[0.0, 1.0], [1.0, 0.0]])])
    assert check_normalizer(shift, mp.sub)


def test_check_normalizer_rejects_generic_unitary():
    mp = models.diagonal_in_matrix(3)
    u = mp.ambient.element([linalg.random_unitary(3, linalg.rng_from_seed(1))])
    assert normalizer_residual(u, mp.sub) > 0.1
    assert not check_normalizer(u, mp.sub)
    with pytest.raises(NotUnitary):
        check_normalizer(2.0 * u, mp.sub)


def test_normalizer_of_sub_normalizes_r():
    # anything normalizing N also normalizes R = N v (N' cap M)
    for mp, us in (
        (models.diagonal_in_matrix(3), models.diagonal_in_matrix(3).candidates),
        (models.crossed_product_diag(3), models.crossed_product_diag(3).candidates),
    ):
        comm = relative_commutant(mp.sub)
        r = Subalgebra.generated(
            mp.ambient, list(mp.sub.basis_elements()) + list(comm.basis_elements())
        )
        for u in us:
            if check_normalizer(u, mp.sub):
                assert check_normalizer(u, r)


def test_coset_distinct():
    # the candidate list leads with the identity; the shift follows
    mp = models.crossed_product_diag(2)
    one = mp.ambient.identity()
    u = mp.candidates[1]
    assert coset_distinct(u, one, mp.sub)
    assert not coset_distinct(u, u, mp.sub)
    # a phase rotation of a representative stays in its coset
    assert not coset_distinct(u, 1j * u, mp.sub)


def test_coset_system_classification():
    mp = models.crossed_product_diag(3)
    reps = tuple(mp.candidates)
    sys = coset_system(reps, mp.sub)
    assert sys.flags["system"]
    assert sys.flags["orthonormal"]
    assert not any(key.startswith("over_n_") for key in sys.residuals)
    assert sys.residuals.keys() == classify(reps, mp.sub).residuals.keys()


@pytest.mark.parametrize("build", [b for _, b in PIPELINE_MODELS], ids=[n for n, _ in PIPELINE_MODELS])
def test_coset_system_over_r_is_orthonormal_over_n(build):
    # the Gram matrix over N is (id (x) E_N) of the one over R, a contraction: wherever
    # coset_system finds the reps orthonormal over R, a classification over N (the oracle)
    # finds them orthonormal too, with no larger residual
    mp = build()
    try:
        rep = regular_pipeline(mp.sub, candidates=mp.candidates)
    except NonConnected:  # z2-in-z2xz2: the chain stops at the Markov trace
        return
    assert rep.flags["coset_system_orthonormal"]
    over_n = classify(rep.reps, mp.sub)
    assert over_n.flags["system"] and over_n.flags["orthonormal"]
    for key in ("offdiag", "diag_identity"):  # E_N(E_R(y)) = E_N(y), and E_N(q) - 1 = E_N(q - 1)
        for side in ("right", "left"):
            name = "%s_%s" % (side, key)
            assert over_n.residuals[name] <= rep.coset.residuals[name] + 1e-12


def test_coset_system_rejects_duplicates():
    mp = models.crossed_product_diag(2)
    one = mp.ambient.identity()
    with pytest.raises(DuplicateCoset):
        coset_system((one, 1j * one), mp.sub)


def test_coset_system_names_the_first_duplicate_pair():
    mp = models.crossed_product_diag(3)
    u0, u1 = mp.candidates[:2]
    # pairs (1, 2) and (0, 3) are both duplicates; (0, 3) comes first
    with pytest.raises(DuplicateCoset, match="representatives 0 and 3"):
        coset_system((u0, u1, 1j * u1, -u0), mp.sub)


def test_coset_expectations_vanish_both_orders():
    # distinct representatives have E_N(u v*) = 0 = E_N(u* v)
    mp = models.crossed_product_diag(3)
    reps = tuple(mp.candidates)
    for i, u in enumerate(reps):
        for j, v in enumerate(reps):
            if i == j:
                continue
            assert mp.sub.expect(u * v.adjoint()).norm() < 1e-9
            assert mp.sub.expect(u.adjoint() * v).norm() < 1e-9


# ----------------------------------------------------------------- patch bases


def klein_setup():
    """Diagonal C^4 in M4 with the block masa M2 + M2 in the middle."""
    mp = models.diagonal_in_matrix(4)
    amb = mp.ambient
    s2 = np.array([[0.0, 1.0], [1.0, 0.0]])
    blockshift = amb.element([linalg.block_diag([s2, s2])])
    w = np.zeros((4, 4))
    w[2:, :2] = np.eye(2)
    w[:2, 2:] = np.eye(2)
    bigswap = amb.element([w])
    p_basis = [amb.element([np.eye(4)]), blockshift]
    p_sub = Subalgebra.generated(amb, list(mp.sub.basis_elements()) + [blockshift])
    return mp, p_sub, p_basis, bigswap


def test_patch_bases_three_level():
    mp, p_sub, inner, bigswap = klein_setup()
    outer = [mp.ambient.identity(), bigswap]
    patched = patch_bases(inner, outer, mp.sub, p_sub)
    assert patched.size == 4
    assert patched.flags["basis"]
    assert patched.flags["orthonormal"]


def test_patch_bases_rejections():
    from ppbasis import scalar_basis
    from ppbasis.errors import NotABasis

    mp, p_sub, inner, bigswap = klein_setup()
    one = mp.ambient.identity()
    with pytest.raises(InvalidInput):
        patch_bases([], [one], mp.sub, p_sub)
    # scaling an outer element breaks the basis property before anything else
    with pytest.raises(NotABasis):
        patch_bases(inner, [one, 2.0 * bigswap], mp.sub, p_sub)
    # swap twisted inside the blocks still normalizes P but moves N
    h = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2)
    tw = np.zeros((4, 4))
    tw[2:, :2] = h
    tw[:2, 2:] = h
    twisted = mp.ambient.element([tw])
    assert twisted.is_unitary()
    with pytest.raises(NotANormalizer):
        patch_bases(inner, [one, twisted], mp.sub, p_sub)
    # a genuine basis made of non-unitaries trips the unitarity requirement
    amb2 = models.scalar_in_full(2).ambient
    scal = Subalgebra.span(amb2, [amb2.identity()])
    with pytest.raises(NotUnitary):
        patch_bases([amb2.identity()], scalar_basis(amb2), scal, scal)


# -------------------------------------------------------------------- pipeline


def test_pipeline_diag_in_m2():
    mp = models.diagonal_in_matrix(2)
    rep = regular_pipeline(mp.sub, candidates=mp.candidates)
    assert rep.flags == {
        "regular": True,
        "coset_system_orthonormal": True,
        "support_equals_eP": True,
        "patched_basis_two_sided": True,
    }
    assert rep.numbers["beta"] == pytest.approx(2.0, abs=1e-10)
    assert rep.numbers["dim_commutant"] == 2
    assert rep.numbers["reps"] == 2
    assert rep.numbers["product"] == 4
    assert rep.issues == ()
    assert len(rep.patched.elements) == 2
    assert rep.watatani.scalar == pytest.approx(2.0, abs=1e-8)


def test_pipeline_report_lines():
    mp = models.diagonal_in_matrix(2)
    rep = regular_pipeline(mp.sub, candidates=mp.candidates)
    lines = rep.format_lines()
    assert "beta = 2" in lines
    assert "dim(N' cap M) = 2" in lines
    assert "|reps| = 2" in lines
    assert "|reps| * dim(N' cap M) = 2 * 2 = 4" in lines
    assert II1_NOTE in lines
    assert "regular = true" in lines
    assert "patched basis size = 2" in lines
    assert "watatani index = 2" in lines


def test_pipeline_factor_over_factor():
    mp = models.two_block_over_factor()
    rep = regular_pipeline(mp.sub, candidates=mp.candidates)
    # R is everything, so one coset carries the whole commutant
    assert rep.numbers["beta"] == pytest.approx(2.0, abs=1e-10)
    assert rep.numbers["dim_commutant"] == 2
    assert rep.numbers["reps"] == 1
    assert rep.numbers["product"] == 2
    assert rep.flags["regular"]
    assert rep.flags["patched_basis_two_sided"]
    assert len(rep.patched.elements) == 2
    assert rep.watatani.scalar == pytest.approx(2.0, abs=1e-8)


def test_pipeline_without_candidates_reports_not_regular():
    mp = models.diagonal_in_matrix(2)
    rep = regular_pipeline(mp.sub)
    assert not rep.flags["regular"]
    assert rep.issues == ("NotRegular",)
    assert rep.patched is None
    assert rep.watatani is None
    assert rep.numbers["reps"] == 1
    lines = rep.format_lines()
    assert "issue: NotRegular" in lines
    assert "regular = false" in lines


def test_pipeline_incomplete_cosets():
    mp, p_sub, inner, bigswap = klein_setup()
    blockshift = inner[1]
    rep = regular_pipeline(mp.sub, candidates=(bigswap, blockshift))
    # two Klein generators make the inclusion regular but miss one coset
    assert rep.flags["regular"]
    assert not rep.flags["support_equals_eP"]
    assert rep.issues == ("IncompleteCosets",)
    assert rep.patched is None
    assert rep.numbers["reps"] == 3


def test_pipeline_full_klein_group():
    mp, p_sub, inner, bigswap = klein_setup()
    blockshift = inner[1]
    third = bigswap * blockshift
    rep = regular_pipeline(mp.sub, candidates=(bigswap, blockshift, third))
    assert rep.flags["regular"]
    assert rep.flags["patched_basis_two_sided"]
    assert rep.numbers["reps"] == 4
    assert rep.numbers["product"] == 16
    assert len(rep.patched.elements) == 4
    assert rep.watatani.scalar == pytest.approx(4.0, abs=1e-8)


def test_pipeline_rejects_non_unitary_candidate():
    mp = models.diagonal_in_matrix(2)
    bad = 0.5 * mp.ambient.identity()
    with pytest.raises(NotUnitary):
        regular_pipeline(mp.sub, candidates=(bad,))


def test_pipeline_rejects_bad_candidates_with_typed_errors():
    # every candidate must be a finite element of M before any product is formed, then
    # all are tested for unitarity, and only then for normalizing N; the first bad index
    # is named and no warning is raised (a NaN once ended as FactorizationFailed after a
    # matmul warning).  The public single-candidate tests reject the same inputs
    mp = models.diagonal_in_matrix(3)
    amb, shift = mp.ambient, mp.candidates[1]
    nan = amb.element([np.full((3, 3), np.nan)])
    block = shift.blocks[0].copy()
    block[0, 1] = np.inf
    inf = amb.element([block])
    foreign = MultiMatrixAlgebra((2,), (0.5,)).identity()
    half = 0.5 * amb.identity()
    generic = amb.element([linalg.random_unitary(3, linalg.rng_from_seed(4))])
    cases = [
        ((shift, nan), InvalidInput, "candidate 1 is not a finite element of the ambient algebra"),
        ((inf, shift), InvalidInput, "candidate 0 is not a finite element"),
        ((shift, foreign), InvalidInput, "candidate 1 is not a finite element"),
        ((half, shift, nan), InvalidInput, "candidate 2 is not a finite element"),
        ((shift, 1e200 * shift, half), NotUnitary, "candidate 1 is not unitary"),
        ((generic, half), NotUnitary, "candidate 1 is not unitary"),
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for candidates, error, match in cases:
            with pytest.raises(error, match=match):
                regular_pipeline(mp.sub, candidates=candidates)
        for bad in (nan, inf, foreign):
            for call in (normalizer_residual, check_normalizer, lambda u, sub: coset_distinct(u, shift, sub)):
                with pytest.raises(InvalidInput):
                    call(bad, mp.sub)
        with pytest.raises(NotUnitary):
            check_normalizer(1e200 * shift, mp.sub)


def test_pipeline_candidate_free_verdicts():
    # U(N' cap M) normalizes N, so the scalars in M3 are regular with no candidates:
    # one coset, and the trace-scaled units of N' cap M = M3 are a two-sided basis.
    # The closure from N alone read NotRegular.  Where N' cap M = N (the diagonal
    # of M3, and C + C in M2), no candidate still means no regularity
    rep = regular_pipeline(models.scalar_in_full(3).sub)
    assert all(rep.flags.values()) and rep.issues == ()
    assert rep.numbers["reps"] == 1 and rep.numbers["dim_commutant"] == 9
    assert len(rep.patched.elements) == 9
    assert rep.watatani.scalar == pytest.approx(9.0, abs=1e-8)
    for mp in (models.diagonal_in_matrix(3), models.explicit_pair((1, 1), [[1], [1]])):
        rep = regular_pipeline(mp.sub)
        assert rep.issues == ("NotRegular",) and not rep.flags["regular"]


def test_pipeline_keeps_the_markov_data_on_n(monkeypatch):
    # what is read off N is built once per N and kept on its Wedderburn data: Lambda, N' cap M,
    # R, the inner basis of R over N and M1's data, which keeps the Markov data and e1.  Two
    # pipeline calls, two basic constructions, a Markov extension and a markov task read them;
    # Lambda and M1's data over R, which the coset tests use, are built once too.  A
    # disconnected inclusion keeps no Markov data and raises NonConnected on every call
    calls = {"lam": [], "markov": [], "closed": [], "m1": [], "inner": []}

    def counting(original, key):
        def spy(*args, **kwargs):
            calls[key].append(args + tuple(kwargs.values()))
            return original(*args, **kwargs)

        return spy

    for module, name, key in ((basic, "markov_trace", "markov"), (algebra, "_closed_form", "closed"),
                              (algebra, "M1Wedderburn", "m1")):
        monkeypatch.setattr(module, name, counting(getattr(module, name), key))
    for name, key in (("lam", "lam"), ("inner_basis", "inner")):  # the kept properties' own functions
        prop = vars(algebra.WedderburnData)[name]
        monkeypatch.setattr(prop, "func", counting(prop.func, key))
    mp = models.diagonal_in_matrix(3)
    wd = mp.sub.wedderburn_data()
    first = regular_pipeline(mp.sub, candidates=mp.candidates)
    second = regular_pipeline(mp.sub, candidates=mp.candidates)
    bcs = [BasicConstruction(mp.sub), BasicConstruction(mp.sub, seed=1)]
    tr2 = bcs[0].markov_extension()
    task = scenarios._task_markov({"task": "markov"}, mp, 1e-8)
    m1 = wd.m1
    assert bcs[0].e1 is bcs[1].e1 is m1.e1 and all(bc.m1_wedd is m1 for bc in bcs)
    r_wd = first.r_algebra.wedderburn_data()
    assert calls["closed"] == [(wd, False), (wd, True)]
    assert (wd.commutant.subalgebra, r_wd) == (first.commutant, wd.join)
    assert second.commutant is first.commutant and second.r_algebra is first.r_algebra
    assert calls["m1"] == calls["lam"] == [(wd,), (r_wd,)]
    assert calls["inner"] == [(wd,)] and second.inner is first.inner is wd.inner_basis
    assert len(calls["markov"]) == 1 and second.markov is first.markov is tr2.markov is m1.markov
    assert task["numbers"]["beta"] == m1.markov.beta
    z2 = GroupTable.cyclic(2)
    pair = models.group_algebra_pair(GroupTable.direct_product(z2, z2), [0, 1])
    for count in (2, 3):
        with pytest.raises(NonConnected):
            regular_pipeline(pair.sub, candidates=pair.candidates)
        assert len(calls["markov"]) == count
    with pytest.raises(NonConnected):
        pair.sub.wedderburn_data().m1.markov
    assert len(calls["markov"]) == 4


def _pipeline_outcome(sub, candidates):
    """The flags, numbers and number of reps of ``regular_pipeline``, or the name of its typed error."""
    try:
        rep = regular_pipeline(sub, candidates=candidates)
    except NonConnected:
        return "NonConnected"
    return rep.flags, rep.numbers, len(rep.reps)


@pytest.mark.parametrize("build", [b for _, b in PIPELINE_MODELS], ids=[n for n, _ in PIPELINE_MODELS])
def test_kept_structure_survives_pickling(monkeypatch, build):
    # the benchmark pickles its set-up state: N's units, N' cap M, R, the inner basis, M1's
    # data over N and R and the Markov data travel with N, so the pipeline on the loaded copy
    # reads the same answer without a decomposition, a closed form or an M1 build; what is
    # kept read-only (N's projection, e1's blocks, the inner basis) stays read-only
    mp = build()
    want = _pipeline_outcome(mp.sub, mp.candidates)
    wd = mp.sub.wedderburn_data()
    mp.sub.projection_matrix(), wd.m1.e1, wd.inner_basis  # what is kept read-only, built before the round trip
    sub, candidates = pickle.loads(pickle.dumps((mp.sub, mp.candidates)))
    built = []
    for module, name in ((algebra, "wedderburn"), (algebra, "_closed_form"), (algebra, "M1Wedderburn")):
        original = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *args, name=name, original=original, **kwargs:
                            built.append(name) or original(*args, **kwargs))
    assert _pipeline_outcome(sub, candidates) == want
    assert built == []
    wd = sub.wedderburn_data()
    kept = [sub.projection_matrix(), *wd.m1.e1, *(b for x in wd.inner_basis for b in x.blocks)]
    assert built == [] and not any(a.flags.writeable for a in kept)


def test_pipeline_records_rejected_candidates():
    mp = models.diagonal_in_matrix(3)
    u = mp.ambient.element([linalg.random_unitary(3, linalg.rng_from_seed(4))])
    rep = regular_pipeline(mp.sub, candidates=(u,) + tuple(mp.candidates))
    assert len(rep.rejected) == 1
    assert rep.rejected[0][0] == 0
    assert rep.rejected[0][1] > 0.1
    assert rep.numbers["reps"] == 3  # the genuine shifts still arrive


def test_rejected_candidates_take_no_part_in_the_regularity_test():
    # C + M2 in M3: the normalizer is U(N), so N is not regular.  A random
    # unitary fails the normalizer test; generating with it would give all of M.
    mp = models.explicit_pair((1, 2), [[1], [1]])
    u = mp.ambient.element([linalg.random_unitary(3, linalg.rng_from_seed(0))])
    rep = regular_pipeline(mp.sub, candidates=(u,))
    assert [idx for idx, _ in rep.rejected] == [0]
    assert not rep.flags["regular"]
    assert rep.issues == ("NotRegular",) == regular_pipeline(mp.sub).issues


def _not_regular_with_inner_basis(sub):
    """The candidate-free pipeline on an N with N < R < M: NotRegular, no patched basis,
    and the closed-form inner family a two-sided basis of R over N (require_basis raises if not)."""
    rep = regular_pipeline(sub)
    assert sub.dim < rep.r_algebra.dim < sub.ambient.dim
    assert rep.issues == ("NotRegular",) and not rep.flags["regular"]
    assert rep.patched is None and rep.watatani is None
    require_basis(rep.inner, sub, rep.r_algebra)


def test_pipeline_degenerate_commutant_model():
    # N spanned by diag(x, x, y) in M3: R = M2 + C sits strictly between.  The normalizer
    # cannot swap blocks of unequal rank, so it generates R only, while the inner family
    # (the units of N' cap M at sqrt(T_i / t_j), not at 1/sqrt(tr f)) is a basis of R over N
    amb = MultiMatrixAlgebra((3,), (1.0 / 3,))
    a = amb.element([np.diag([1.0, 1.0, 0.0])])
    b = amb.element([np.diag([0.0, 0.0, 1.0])])
    _not_regular_with_inner_basis(Subalgebra.span(amb, [a, b]))


@pytest.mark.parametrize(
    "dims, inclusion",
    [((1, 1), [[1], [2]]), ((1, 2), [[1, 1], [1, 0]]), ((2, 1), [[1], [2]])],
    ids=["1-1-over-m3", "1-2-over-m3+c", "2-1-over-m4"],
)
def test_pipeline_degenerate_commutant_model_explicit_pairs(dims, inclusion):
    # Markov-trace pairs with N < R < M strictly: with no candidate they read NotRegular,
    # and the inner family is a basis of R over N
    mp = models.explicit_pair(dims, inclusion)
    comm = relative_commutant(mp.sub)
    r_alg = Subalgebra.generated(mp.ambient, list(mp.sub.basis_elements()) + list(comm.basis_elements()))
    assert mp.sub.dim < r_alg.dim < mp.ambient.dim
    _not_regular_with_inner_basis(mp.sub)


def _block_swap_pair(k):
    """C^2 with multiplicity k in M_2k (N = diag(a 1_k, b 1_k)), with the swap of the two
    k x k blocks as candidate: R = M_k + M_k lies strictly between N and M."""
    mp = models.explicit_pair((1, 1), [[k], [k]])
    w = np.zeros((2 * k, 2 * k))
    w[k:, :k] = w[:k, k:] = np.eye(k)
    mp.candidates = (mp.ambient.element([w]),)
    return mp


@pytest.mark.parametrize("k", [2, 3])
def test_pipeline_patches_when_r_lies_strictly_between(k):
    # the paper's case N < R < M: the inner basis of R over N (2 k^2 elements) times the
    # two coset representatives is a two-sided basis of M over N with Watatani index beta
    # = 2 k^2
    mp = _block_swap_pair(k)
    rep = regular_pipeline(mp.sub, candidates=mp.candidates)
    beta = 2 * k * k
    assert mp.sub.dim < rep.r_algebra.dim < mp.ambient.dim
    assert all(rep.flags.values()), rep.flags
    assert rep.issues == ()
    assert rep.numbers["beta"] == pytest.approx(beta, abs=1e-10)
    assert rep.numbers["reps"] == 2 and rep.numbers["dim_commutant"] == beta
    assert len(rep.inner) == beta and len(rep.patched.elements) == 4 * k * k
    assert rep.watatani.is_central and rep.watatani.scalar == pytest.approx(beta, abs=1e-8)
    # the public, checked patching accepts the same families and gives the same basis
    checked = patch_bases(rep.inner, rep.reps, mp.sub, rep.r_algebra)
    assert checked.flags == rep.patched.flags
    for x, y in zip(checked.elements, rep.patched.elements):
        assert all(np.array_equal(a, b) for a, b in zip(x.blocks, y.blocks))
    # without the swap the normalizer generates R only
    assert regular_pipeline(mp.sub).issues == ("NotRegular",)


@settings(max_examples=25)
@given(connected_pairs())
def test_drawn_inner_family_is_a_basis_of_r_over_n(mp):
    # require_basis is the oracle of the closed-form inner family: on every drawn connected
    # inclusion (random traces and block unitaries included) the family passes
    # require_basis(inner, N, R) two-sided, with E_N(x* x) = z_i for each of its elements
    wd_n = mp.sub.wedderburn_data()
    r_alg, inner = wd_n.join.subalgebra, wd_n.inner_basis
    same = r_alg.dim == mp.sub.dim  # R = N: the kept basis is {1}, with E_N(1* 1) = 1
    assert len(inner) == (1 if same else wd_n.commutant.subalgebra.dim)
    require_basis(inner, mp.sub, r_alg)
    zs = [sum((u[p][p] for p in range(len(u))), mp.ambient.zero()) for u in oracles.units(wd_n)]
    zs = [mp.ambient.identity()] if same else zs
    for x in inner:
        e = mp.sub.expect(x.adjoint() * x)
        assert min((e - z).norm() for z in zs) <= 1e-12


def test_pipeline_group_algebra():
    mp = models.group_algebra_pair(GroupTable.cyclic(2), [0])
    rep = regular_pipeline(mp.sub, candidates=mp.candidates)
    assert rep.flags["regular"]
    assert rep.numbers["beta"] == pytest.approx(2.0, abs=1e-10)
    assert rep.numbers["reps"] == 1
    assert rep.numbers["product"] == 2
    assert len(rep.patched.elements) == 2


def test_pipeline_crossed_product():
    mp = models.crossed_product_diag(3)
    rep = regular_pipeline(mp.sub, candidates=mp.candidates)
    assert rep.flags["regular"]
    assert rep.flags["patched_basis_two_sided"]
    assert rep.numbers["beta"] == pytest.approx(3.0, abs=1e-10)
    assert rep.numbers["reps"] == 3
    assert len(rep.patched.elements) == 3
    assert rep.watatani.scalar == pytest.approx(3.0, abs=1e-8)


def _klein_full():
    mp, _, inner, bigswap = klein_setup()
    mp.candidates = (bigswap, inner[1], bigswap * inner[1])
    return mp


def _klein_group():
    z2 = GroupTable.cyclic(2)
    return GroupTable.direct_product(z2, z2)


PATCH_ORACLE_MODELS = [
    *(("diag-in-m%d" % k, lambda k=k: models.diagonal_in_matrix(k)) for k in (2, 3, 4)),
    ("z2-over-e", lambda: models.group_algebra_pair(GroupTable.cyclic(2), [0])),
    ("z4-over-e", lambda: models.group_algebra_pair(GroupTable.cyclic(4), [0])),
    ("klein-over-e", lambda: models.group_algebra_pair(_klein_group(), [0])),
    ("crossed-product-diag-3", lambda: models.crossed_product_diag(3)),
    ("two-block-over-factor", models.two_block_over_factor),
    ("full-klein", _klein_full),
]


@pytest.mark.parametrize("build", [b for _, b in PATCH_ORACLE_MODELS], ids=[n for n, _ in PATCH_ORACLE_MODELS])
def test_pipeline_patching_matches_checked_patch_bases(build):
    # the pipeline patches without re-testing its preconditions; the checked
    # public path must accept the same families and give the same basis
    mp = build()
    rep = regular_pipeline(mp.sub, candidates=mp.candidates)
    assert rep.flags["patched_basis_two_sided"]
    checked = patch_bases(rep.inner, rep.reps, mp.sub, rep.r_algebra)
    assert len(checked.elements) == len(rep.patched.elements)
    for x, y in zip(checked.elements, rep.patched.elements):
        assert all(np.array_equal(a, b) for a, b in zip(x.blocks, y.blocks))
    # the coset classification the pipeline reuses when R = N carries the flags and
    # residual keys of a fresh classify of the products, and no others
    assert checked.flags == rep.patched.flags
    assert checked.residuals.keys() == rep.patched.residuals.keys()
    for key, val in checked.residuals.items():
        assert abs(rep.patched.residuals[key] - val) <= 1e-12


@pytest.mark.parametrize(
    "build, count",
    [
        (lambda: models.diagonal_in_matrix(3), 1),
        (lambda: models.diagonal_in_matrix(4), 1),
        (lambda: models.group_algebra_pair(GroupTable.cyclic(4), [0]), 2),
        (models.two_block_over_factor, 2),
        (lambda: _block_swap_pair(2), 2),
    ],
    ids=["diag-in-m3", "diag-in-m4", "z4-over-e", "m2-in-m2+m2", "swap-in-m4"],
)
def test_pipeline_classifies_each_family_once(monkeypatch, build, count):
    # the coset system over R, and the products mu * lam when R != N: no precondition
    # is classified, and nothing a second time (R = N on the diagonals: the coset
    # system is the patched basis); every classification, classify's and the
    # pipeline's own over R, goes through systems._classified
    mp = build()
    calls = []
    original = systems._classified

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(systems, "_classified", counting)
    monkeypatch.setattr(regular, "_classified", counting)
    rep = regular_pipeline(mp.sub, candidates=mp.candidates)
    assert rep.flags["patched_basis_two_sided"]
    assert len(calls) == count


def test_pipeline_reads_the_decomposition_kept_on_n(monkeypatch):
    mp = models.group_algebra_pair(GroupTable.cyclic(2), [0])
    decomposed = []
    original = algebra.wedderburn

    def counting(sub, *args, **kwargs):
        decomposed.append(sub)
        return original(sub, *args, **kwargs)

    monkeypatch.setattr(algebra, "wedderburn", counting)
    bc = BasicConstruction(mp.sub, seed=0)
    assert bc.m1_wedd.sub_wedd is mp.sub.wedderburn_data(0)
    regular_pipeline(mp.sub, candidates=mp.candidates, seed=0)
    assert sum(sub is mp.sub for sub in decomposed) == 1
    assert mp.sub.wedderburn_data(1) is bc.m1_wedd.sub_wedd  # one decomposition per object, whatever the seed


def test_pipeline_tests_each_coset_pair_once(monkeypatch):
    # on diag-in-M5 the coset filter reads every pair of [1] + the 5 normalizers off
    # one left rotation over R, with no coset_distinct call; that rotation also
    # holds the reps' left side, so the classification of the 5 reps over R takes
    # one more rotation, of their right side: 2 rotations, 6 left columns and 5 right
    mp = models.diagonal_in_matrix(5)
    calls, rows, sides = [], [], []
    original, original_rows, original_sides = regular.coset_distinct, basic.M1Wedderburn.rows, systems._rows

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    def rotation(m1, cols):
        rows.append(cols.shape[1])
        return original_rows(m1, cols)

    def family_rows(stacks, sub, which):
        sides.append((which, len(stacks[0])))
        return original_sides(stacks, sub, which)

    monkeypatch.setattr(regular, "coset_distinct", counting)
    monkeypatch.setattr(basic.M1Wedderburn, "rows", rotation)
    monkeypatch.setattr(regular, "_rows", family_rows)
    rep = regular_pipeline(mp.sub, candidates=mp.candidates)
    assert rep.flags["patched_basis_two_sided"]
    assert calls == []
    assert rows == [6, 5]
    assert sides == [(("left",), 6), (("right",), 5)]


@pytest.mark.parametrize(
    "build, model_built",
    [
        (lambda: models.diagonal_in_matrix(4), True),
        (lambda: models.group_algebra_pair(GroupTable.cyclic(4), [0]), False),
        (lambda: models.crossed_product_diag(4), True),
    ],
    ids=["diag-in-m4", "z4-over-e", "crossed-diag-4"],
)
def test_pipeline_decomposes_only_n(monkeypatch, build, model_built):
    # N' cap M comes from N's matrix units: no nullspace of relative_commutant
    # in the pipeline.  An N built by an embedding or a crossed product keeps
    # its units and is never decomposed; a span-only N (C[H] here, or a copy)
    # is decomposed once, by one wedderburn call, at any seed: classify over N
    # reads that decomposition, and R gets closed-form units, never wedderburn.
    models_by_seed = {seed: build() for seed in (0, 1)}
    calls = {"relative_commutant": [], "wedderburn": []}
    inside = []
    orig_commutant, orig_wedderburn = algebra.relative_commutant, algebra.wedderburn

    def commutant(*args, **kwargs):
        if not inside:  # wedderburn's own call finds the centre of the algebra it decomposes
            calls["relative_commutant"].append(args)
        return orig_commutant(*args, **kwargs)

    def wedderburn(sub, *args, **kwargs):
        calls["wedderburn"].append(sub)
        inside.append(sub)
        try:
            return orig_wedderburn(sub, *args, **kwargs)
        finally:
            inside.pop()

    monkeypatch.setattr(algebra, "relative_commutant", commutant)
    monkeypatch.setattr(algebra, "wedderburn", wedderburn)
    assert not hasattr(regular, "relative_commutant") and not hasattr(regular, "wedderburn")
    for seed, mp in models_by_seed.items():
        copy = Subalgebra(mp.ambient, mp.sub.mat)
        for sub, decomposed in ((mp.sub, [] if model_built else [mp.sub]), (copy, [copy])):
            rep = regular_pipeline(sub, candidates=mp.candidates, seed=seed)
            assert rep.flags["patched_basis_two_sided"]
            assert calls == {"relative_commutant": [], "wedderburn": decomposed}
            assert rep.r_algebra.wedderburn_data() is sub.wedderburn_data().join
            calls["wedderburn"].clear()
            regular_pipeline(sub, candidates=mp.candidates, seed=seed)
            assert calls == {"relative_commutant": [], "wedderburn": []}


@pytest.mark.parametrize("build", [lambda: models.crossed_product_diag(6), lambda: models.diagonal_in_matrix(6)],
                         ids=["crossed-diag-6", "diag-in-m6"])
def test_bases_are_read_off_structure(monkeypatch, build):
    # the covariance span is scaled column by column, embedded and closed-form units are
    # their own basis, and the ranges of N's minimal projections come from one batched eigh
    # per block of M, shared by N' cap M, R and M1: nothing is orthonormalized
    calls = {"orthonormal_columns": 0, "eigh": 0}
    for name in calls:
        def spy(*args, name=name, original=getattr(linalg, name)):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(linalg, name, spy)
    mp = build()
    calls["eigh"] = 0
    wd = mp.sub.wedderburn_data()
    comm, r_alg, m1 = wd.commutant, wd.join, wd.m1
    assert calls == {"orthonormal_columns": 0, "eigh": mp.ambient.nblocks}
    assert (comm.block_dims, r_alg.block_dims, m1.block_dims) == ((1,) * 6, (1,) * 6, (6,) * 6)


@pytest.mark.parametrize("build", [b for _, b in PIPELINE_MODELS], ids=[n for n, _ in PIPELINE_MODELS])
def test_bases_read_off_structure_are_orthonormal(monkeypatch, build):
    # the span of a crossed product or group algebra, N, N' cap M and R, all to 1e-12
    spans = []

    class Recording(CrossedProductModel):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            spans.append(self.span)

    monkeypatch.setattr(models, "CrossedProductModel", Recording)
    mp = build()
    wd = mp.sub.wedderburn_data()
    for sub in spans + [mp.sub, wd.commutant.subalgebra, wd.join.subalgebra]:
        assert linalg.hermitian_norm(sub.mat.conj().T @ sub.mat - np.eye(sub.dim)) <= 1e-12


def test_coset_system_classifies_once_when_r_is_n(monkeypatch):
    # diag-in-M4: N' cap M = N, so R = N and one classification of the coset
    # system serves over R, over N and as the patched basis (the products
    # mu * 1 are the reps): 1 classification (systems._classified, behind classify
    # and the pipeline's coset system), with every flag and residual of a
    # classification over N, the oracle
    mp = models.diagonal_in_matrix(4)
    calls = []
    original = systems._classified

    def counting(family, sub, *args, **kwargs):
        calls.append(sub)
        return original(family, sub, *args, **kwargs)

    monkeypatch.setattr(systems, "_classified", counting)
    monkeypatch.setattr(regular, "_classified", counting)
    rep = regular_pipeline(mp.sub, candidates=mp.candidates)
    assert rep.r_algebra.dim == mp.sub.dim
    assert len(calls) == 1
    monkeypatch.undo()
    over_n = classify(rep.reps, mp.sub, side="two-sided")
    assert rep.coset.flags == over_n.flags and over_n.flags["orthonormal"]
    assert rep.coset.residuals.keys() == over_n.residuals.keys()
    for key, val in over_n.residuals.items():
        assert abs(rep.coset.residuals[key] - val) <= 1e-12
    assert rep.patched is rep.coset
    assert all(rep.flags.values())


@pytest.mark.parametrize(
    "build, beta, dim_commutant, reps",
    [
        (lambda: models.diagonal_in_matrix(8), 8, 8, 8),
        (lambda: models.group_algebra_pair(GroupTable.cyclic(16), [0]), 16, 16, 1),
    ],
    ids=["diag-in-m8", "z16-over-e"],
)
def test_pipeline_at_scale(build, beta, dim_commutant, reps):
    mp = build()
    rep = regular_pipeline(mp.sub, candidates=mp.candidates)
    assert rep.numbers["beta"] == pytest.approx(beta, abs=1e-9)
    assert rep.numbers["dim_commutant"] == dim_commutant
    assert rep.numbers["reps"] == reps
    assert all(rep.flags.values()), rep.flags
    assert len(rep.patched.elements) == beta
    assert rep.watatani.scalar == pytest.approx(beta, abs=1e-8)


def test_crossed_product_action_check_matches_compose():
    # the stacked action check names the first failing pair and its deviation
    # as the loop over Automorphism.compose and distance does, with the GNS
    # weights of unequal blocks
    base = MultiMatrixAlgebra((2, 1, 1), (0.3, 0.2, 0.2))
    rot = np.array([[np.cos(0.4), -np.sin(0.4)], [np.sin(0.4), np.cos(0.4)]])
    ident = Automorphism.identity(base)
    swap = Automorphism(base, perm=(0, 2, 1))
    turn = Automorphism(base, perm=(0, 2, 1), unitaries=[rot, np.eye(1), np.eye(1)])
    z2, z3 = GroupTable.cyclic(2), GroupTable.cyclic(3)
    for group, autos in ((z2, [ident, swap]), (z2, [ident, turn]), (z3, [ident, swap, swap]), (z2, [swap, ident])):
        n = len(group)
        if autos[0].distance(ident) > linalg.EPS_INPUT:
            with pytest.raises(NotAnAction, match="identity element must act trivially"):
                CrossedProductModel(base, group, autos)
            continue
        devs = [(g, h, autos[g].compose(autos[h]).distance(autos[group.mult(g, h)])) for g in range(n) for h in range(n)]
        bad = [d for d in devs if d[2] > linalg.EPS_INPUT]
        if not bad:
            CrossedProductModel(base, group, autos)
            continue
        with pytest.raises(NotAnAction, match=r"not multiplicative at \(%d, %d\): deviation %s$" % (bad[0][0], bad[0][1], "%.3g" % bad[0][2])):
            CrossedProductModel(base, group, autos)


@pytest.mark.parametrize("tol", [np.nan, np.inf, -1.0, 0.0, "1e-8", None, True, [1e-8]])
def test_non_finite_or_non_positive_tol_is_invalid_input(tol):
    # nan once ended as "candidate 0 is not unitary", also in check_normalizer;
    # inf would pass every flag, and passed check_normalizer and coset_distinct
    mp = models.crossed_product_diag(2)
    reps, one = tuple(mp.candidates), mp.ambient.identity()
    for call in (
        lambda: regular_pipeline(mp.sub, candidates=mp.candidates, tol=tol),
        lambda: coset_system(reps, mp.sub, tol=tol),
        lambda: patch_bases([one], reps, mp.sub, mp.sub, tol=tol),
        lambda: check_normalizer(reps[1], mp.sub, tol=tol),
        lambda: coset_distinct(reps[0], reps[1], mp.sub, tol=tol),
    ):
        with pytest.raises(InvalidInput, match="tol must be finite and positive, got"):
            call()


def test_pipeline_takes_no_norm_of_a_projection(monkeypatch):
    # when the cosets do not fill M, the e_P test is scaled by 2 = 1 + ||e_P||, and it
    # compares M1's blocks, so no D x D operator reaches operator_norm at all
    mp = models.diagonal_in_matrix(4)
    d, seen, norm = mp.ambient.gns_dim, [], linalg.operator_norm

    def spy(a):
        a = np.asarray(a)
        if a.shape == (d, d):
            idem, adj = np.abs(a @ a - a).max(), np.abs(a - a.conj().T).max()
            seen.append(idem <= 1e-9 and adj <= 1e-9 and np.trace(a).real >= 0.5)
        return norm(a)

    monkeypatch.setattr(linalg, "operator_norm", spy)
    rep = regular_pipeline(mp.sub, candidates=mp.candidates[:2])
    assert rep.issues == ("IncompleteCosets",)
    assert not seen


# the pipeline models whose coset representatives fill M: all but z2-in-z2xz2, which is not connected
FILL_MODELS = [(name, build) for name, build in PIPELINE_MODELS if name != "z2-in-z2xz2"]


def _pipeline_flags(mp):
    """The flags of the pipeline, of its coset and patched systems, of coset_system and of the Watatani index."""
    rep = regular_pipeline(mp.sub, candidates=mp.candidates)
    wat = basic.watatani_index(rep.patched.elements)
    return (rep.flags, rep.coset.flags, rep.patched.flags, coset_system(rep.reps, rep.r_algebra).flags,
            wat.is_central, wat.scalar is not None)


def _basis_flags(mp):
    """The flags of the two-sided tests of the scalar basis: classify, require_basis, coset_system and Watatani."""
    basis = scalar_basis(mp.ambient)
    wat = basic.watatani_index(basis)
    return (classify(basis, mp.sub).flags, require_basis(basis, mp.sub).flags, coset_system(basis, mp.sub).flags,
            wat.is_central, wat.scalar is not None)


@pytest.mark.parametrize("name", [name for name, _ in FILL_MODELS] + ["m5-scalar-basis"])
def test_flags_take_no_svd(monkeypatch, name):
    # every matrix these flags test is Hermitian by construction (Gram stacks, supports, the
    # unitarity defects, the Watatani sum), so eigenvalues decide them and the blocks decide
    # centrality: with the models built, no singular value is needed.  Every flag is true here:
    # the cosets fill M, and the scalar basis is an orthonormal two-sided basis
    if name == "m5-scalar-basis":
        mp, run = models.scalar_in_full(5), _basis_flags
    else:
        mp, run = dict(FILL_MODELS)[name](), _pipeline_flags

    def forbidden(*args, **kwargs):
        raise AssertionError("an SVD on a flag path")

    monkeypatch.setattr(np.linalg, "svd", forbidden)
    assert all(all(f.values()) if isinstance(f, dict) else f for f in run(mp))
