import numpy as np
import pytest

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
)
from ppbasis import algebra, linalg, models, regular, systems
from ppbasis.errors import (
    DegenerateCommutantModel,
    DuplicateCoset,
    InvalidInput,
    InvalidSubgroup,
    NotAnAction,
    NotANormalizer,
    NotUnitary,
)
from ppbasis.regular import II1_NOTE, normalizer_residual
from ppbasis.systems import classify


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
    sys = coset_system(reps, mp.sub, mp.sub)
    assert sys.flags["system"]
    assert sys.flags["orthonormal"]
    assert sys.flags["orthonormal_over_n"]
    assert "over_n_right_offdiag" in sys.residuals


def test_coset_system_rejects_duplicates():
    mp = models.crossed_product_diag(2)
    one = mp.ambient.identity()
    with pytest.raises(DuplicateCoset):
        coset_system((one, 1j * one), mp.sub, mp.sub)


def test_coset_system_names_the_first_duplicate_pair():
    mp = models.crossed_product_diag(3)
    u0, u1 = mp.candidates[:2]
    # pairs (1, 2) and (0, 3) are both duplicates; (0, 3) comes first
    with pytest.raises(DuplicateCoset, match="representatives 0 and 3"):
        coset_system((u0, u1, 1j * u1, -u0), mp.sub, mp.sub)


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
    d = rep.to_dict()
    assert d["numbers"]["product"] == 4
    assert d["patched_size"] == 2
    assert d["watatani_scalar"] == pytest.approx(2.0, abs=1e-8)


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


def test_pipeline_degenerate_commutant_model():
    # N spanned by diag(x, x, y) in M3: R = M2 + C sits strictly between,
    # and the trace-scaled commutant units fail the Gram projection test
    amb = MultiMatrixAlgebra((3,), (1.0 / 3,))
    a = amb.element([np.diag([1.0, 1.0, 0.0])])
    b = amb.element([np.diag([0.0, 0.0, 1.0])])
    sub = Subalgebra.span(amb, [a, b])
    with pytest.raises(DegenerateCommutantModel):
        regular_pipeline(sub)


@pytest.mark.parametrize(
    "dims, inclusion",
    [((1, 1), [[1], [2]]), ((1, 2), [[1, 1], [1, 0]]), ((2, 1), [[1], [2]])],
    ids=["1-1-over-m3", "1-2-over-m3+c", "2-1-over-m4"],
)
def test_pipeline_degenerate_commutant_model_explicit_pairs(dims, inclusion):
    # Markov-trace pairs with N < R < M strictly: the scalar commutant family
    # is tested against e_R on L2(M) and fails
    mp = models.explicit_pair(dims, inclusion)
    comm = relative_commutant(mp.sub)
    r_alg = Subalgebra.generated(mp.ambient, list(mp.sub.basis_elements()) + list(comm.basis_elements()))
    assert mp.sub.dim < r_alg.dim < mp.ambient.dim
    with pytest.raises(DegenerateCommutantModel):
        regular_pipeline(mp.sub)


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
    checked = patch_bases(rep.inner, rep.reps, mp.sub, rep.r_algebra, check=True)
    assert len(checked.elements) == len(rep.patched.elements)
    for x, y in zip(checked.elements, rep.patched.elements):
        assert all(np.array_equal(a, b) for a, b in zip(x.blocks, y.blocks))
    assert checked.flags == rep.patched.flags


@pytest.mark.parametrize(
    "build, most",
    [
        (lambda: models.diagonal_in_matrix(3), 3),
        (lambda: models.group_algebra_pair(GroupTable.cyclic(4), [0]), 4),
    ],
    ids=["diag-in-m3", "z4-over-e"],
)
def test_pipeline_classifies_each_family_once(monkeypatch, build, most):
    # inner basis, coset system over R and over N, and the patched basis:
    # no precondition is classified a second time
    mp = build()
    calls = []
    original = systems.classify

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(systems, "classify", counting)
    monkeypatch.setattr(regular, "classify", counting)
    rep = regular_pipeline(mp.sub, candidates=mp.candidates)
    assert rep.flags["patched_basis_two_sided"]
    assert len(calls) <= most


def test_pipeline_reads_the_decomposition_kept_on_n(monkeypatch):
    mp = models.group_algebra_pair(GroupTable.cyclic(2), [0])
    decomposed = []
    original = algebra.wedderburn

    def counting(sub, *args, **kwargs):
        decomposed.append(sub)
        return original(sub, *args, **kwargs)

    monkeypatch.setattr(algebra, "wedderburn", counting)
    bc = BasicConstruction(mp.sub, seed=0)
    assert bc.sub_wedd is mp.sub.wedderburn_data(0)
    regular_pipeline(mp.sub, candidates=mp.candidates, seed=0)
    assert sum(sub is mp.sub for sub in decomposed) == 1
    assert mp.sub.wedderburn_data(1) is bc.sub_wedd  # one decomposition per object, whatever the seed


def test_pipeline_tests_each_coset_pair_once(monkeypatch):
    # on diag-in-M5 the candidate loop makes 1 + 1 + 2 + 3 + 4 coset tests;
    # coset_system reads its 10 pairs off the Gram matrix over R
    mp = models.diagonal_in_matrix(5)
    calls = []
    original = regular.coset_distinct

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(regular, "coset_distinct", counting)
    rep = regular_pipeline(mp.sub, candidates=mp.candidates)
    assert rep.flags["patched_basis_two_sided"]
    assert len(calls) == 11


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
            assert rep.r_algebra.wedderburn_data() is rep.r_algebra._units
            calls["wedderburn"].clear()
            regular_pipeline(sub, candidates=mp.candidates, seed=seed)
            assert calls == {"relative_commutant": [], "wedderburn": []}


def test_coset_system_classifies_once_when_r_is_n(monkeypatch):
    # diag-in-M4: N' cap M = N, so R = N and one classification of the coset
    # system serves over R and over N: 2 classify calls (coset system,
    # patching), not 3, with every flag and over_n residual as over N
    mp = models.diagonal_in_matrix(4)
    calls = []
    original = systems.classify

    def counting(family, sub, *args, **kwargs):
        calls.append(sub)
        return original(family, sub, *args, **kwargs)

    monkeypatch.setattr(systems, "classify", counting)
    monkeypatch.setattr(regular, "classify", counting)
    rep = regular_pipeline(mp.sub, candidates=mp.candidates)
    assert rep.r_algebra.dim == mp.sub.dim
    assert len(calls) == 2
    monkeypatch.undo()
    over_n = classify(rep.reps, mp.sub, side="two-sided")
    assert rep.coset.flags["orthonormal_over_n"] == (over_n.flags["system"] and over_n.flags["orthonormal"])
    assert rep.coset.flags["orthonormal_over_n"]
    for key, val in over_n.residuals.items():
        assert abs(rep.coset.residuals["over_n_" + key] - val) <= 1e-12
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
        lambda: coset_system(reps, mp.sub, mp.sub, tol=tol),
        lambda: patch_bases([one], reps, mp.sub, mp.sub, tol=tol),
        lambda: patch_bases([one], reps, mp.sub, mp.sub, tol=tol, check=False),
        lambda: check_normalizer(reps[1], mp.sub, tol=tol),
        lambda: coset_distinct(reps[0], reps[1], mp.sub, tol=tol),
    ):
        with pytest.raises(InvalidInput, match="tol must be finite and positive, got"):
            call()


def test_pipeline_takes_no_norm_of_a_projection(monkeypatch):
    # when the cosets do not fill M, the e_P test is scaled by 2 = 1 + ||e_P||
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
    assert seen and not any(seen)
