import numpy as np
import pytest

from ppbasis import (
    AlgebraElement,
    GroupTable,
    MultiMatrixAlgebra,
    PathModel,
    Subalgebra,
    UnitalEmbedding,
    relative_commutant,
    wedderburn,
)
from ppbasis import algebra, linalg, models
from ppbasis.errors import (
    InvalidInput,
    NonUnitalInclusion,
    NotSubalgebra,
    NotUnitary,
)
from oracles import left_op, right_op, unit_coefficients, unit_roundtrip_residual, units


def two_one():
    # M2 + C with trace weights (0.3, 0.4): 2*0.3 + 1*0.4 = 1
    return MultiMatrixAlgebra((2, 1), (0.3, 0.4))


def test_trace_vector_validation():
    with pytest.raises(InvalidInput):
        MultiMatrixAlgebra((2,), (0.4,))  # sums to 0.8
    with pytest.raises(InvalidInput):
        MultiMatrixAlgebra((2, 1), (0.5,))  # wrong length
    with pytest.raises(InvalidInput):
        MultiMatrixAlgebra((1, 1), (1.0, 0.0))  # not faithful
    with pytest.raises(InvalidInput):
        MultiMatrixAlgebra((0, 1), (0.5, 0.5))


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_trace_vector_rejects_non_finite(bad):
    with pytest.raises(InvalidInput, match="finite"):
        MultiMatrixAlgebra((1, 1), (bad, 0.5))


def test_element_arithmetic_and_trace():
    alg = two_one()
    x = alg.element([np.array([[1, 2], [3, 4]], dtype=complex), np.array([[5.0]])])
    y = alg.identity()
    assert abs((x + y).trace() - (x.trace() + 1.0)) < 1e-14
    assert abs(x.trace() - (0.3 * 5 + 0.4 * 5)) < 1e-14
    z = 2.0 * x - x * 2.0
    assert z.norm() < 1e-14
    assert (x * y).allclose(x)
    assert (-x + x).norm() == 0.0
    assert (x / 2.0).allclose(0.5 * x)


def test_adjoint_and_hermitian_checks():
    alg = two_one()
    rng = linalg.rng_from_seed(1)
    x = alg.random_element(rng)
    h = x + x.adjoint()
    assert all(np.array_equal(b, b.conj().T) for b in h.blocks)
    assert not all(np.allclose(b, b.conj().T) for b in x.blocks)
    u = alg.element([linalg.random_unitary(2, rng), linalg.random_unitary(1, rng)])
    assert u.is_unitary()
    assert not x.is_unitary()


def test_units_are_matrix_units():
    alg = two_one()
    us = alg.units()
    assert len(us) == 5  # 4 + 1
    e01 = alg.unit(0, 0, 1)
    e11 = alg.unit(0, 1, 1)
    assert (e01 * e01.adjoint()).allclose(alg.unit(0, 0, 0))
    assert (e01.adjoint() * e01).allclose(e11)
    with pytest.raises(InvalidInput):
        alg.unit(1, 0, 1)


@pytest.mark.parametrize("block", [-1, 2])
@pytest.mark.parametrize("owner", ["algebra", "wedderburn-data"])
def test_unit_checks_its_block_index(owner, block):
    # on dims (1, 2), block -1 would read the last block's unit and block 2 would raise a raw
    # IndexError; the algebra's units and N's kept units (C + M2 in M3) both raise InvalidInput
    if owner == "algebra":
        units = MultiMatrixAlgebra((1, 2), (1.0 / 3, 1.0 / 3))
    else:
        units = models.explicit_pair((1, 2), [[1], [1]]).sub.wedderburn_data()
        assert units.block_dims == (1, 2) and units.unit(1, 0, 1).allclose(units.unit(1, 1, 0).adjoint(), tol=0.0)
    with pytest.raises(InvalidInput, match="out of range"):
        units.unit(block, 0, 0)
    with pytest.raises(InvalidInput, match="out of range"):
        units.unit(0, 0, 1)


def test_vec_unvec_roundtrip_and_inner_product():
    alg = two_one()
    rng = linalg.rng_from_seed(5)
    for _ in range(20):
        x = alg.random_element(rng)
        y = alg.random_element(rng)
        assert alg.unvec(alg.vec(x)).allclose(x, tol=1e-13)
        # GNS inner product agrees with the trace form tr(y* x)
        ip = np.vdot(alg.vec(y), alg.vec(x))
        assert abs(ip - (y.adjoint() * x).trace()) < 1e-12


def test_unvec_reads_back_the_middle_units_exactly():
    # unvec divides the weights out of re and im apart, as the kept units are read back:
    # a complex division turned an entry 1 into 1 + 1.1e-16 on some of these units
    pm = PathModel(models.explicit_pair((2, 1), [[2, 1], [1, 0]]).embedding)
    amb = pm.bottom
    for block in units(pm.middle_subalgebra().wedderburn_data()):
        for x in (x for row in block for x in row):
            assert amb.unvec(amb.vec(x)).allclose(x, tol=0)


def test_left_right_actions_commute():
    alg = two_one()
    rng = linalg.rng_from_seed(9)
    for _ in range(10):
        x = alg.random_element(rng)
        y = alg.random_element(rng)
        z = alg.random_element(rng)
        lv = left_op(alg, x) @ alg.vec(y)
        assert np.linalg.norm(lv - alg.vec(x * y)) < 1e-12
        rv = right_op(alg, x) @ alg.vec(y)
        assert np.linalg.norm(rv - alg.vec(y * x)) < 1e-12
        comm = left_op(alg, x) @ right_op(alg, z) - right_op(alg, z) @ left_op(alg, x)
        assert linalg.operator_norm(comm) < 1e-12


def test_modular_conjugation():
    alg = two_one()
    rng = linalg.rng_from_seed(4)
    for _ in range(10):
        x = alg.random_element(rng)
        jv = alg.modular_conjugation(alg.vec(x))
        assert np.linalg.norm(jv - alg.vec(x.adjoint())) < 1e-12
        # J L_x J is right multiplication by x*
        d = alg.sandwich_j(left_op(alg, x)) - right_op(alg, x.adjoint())
        assert linalg.operator_norm(d) < 1e-12


def conj_perm_matrix(alg):
    """Reference J: the dense permutation matrix P with vec(x*) = P conj(vec(x)),
    from a double loop over each block's entries."""
    p = np.zeros((alg.gns_dim, alg.gns_dim))
    off = 0
    for n in alg.dims:
        for a in range(n):
            for b in range(n):
                p[off + a * n + b, off + b * n + a] = 1.0
        off += n * n
    return p


@pytest.mark.parametrize("alg", [two_one(), MultiMatrixAlgebra((2, 1, 3), (0.2, 0.3, 0.1))], ids=["2+1", "2+1+3"])
def test_modular_conjugation_matches_permutation_matrix(alg):
    p = conj_perm_matrix(alg)
    rng = linalg.rng_from_seed(6)
    d = alg.gns_dim
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    stack = rng.standard_normal((d, 3)) + 1j * rng.standard_normal((d, 3))
    op = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    assert np.array_equal(alg.modular_conjugation(v), p @ np.conj(v))
    assert np.array_equal(alg.modular_conjugation(stack), p @ np.conj(stack))
    assert np.array_equal(alg.sandwich_j(op), p @ np.conj(op) @ p)


def test_embedding_requires_unitality():
    amb = MultiMatrixAlgebra((3,), (1.0 / 3,))
    with pytest.raises(NonUnitalInclusion) as ei:
        UnitalEmbedding((1, 1), amb, [[1], [1]])
    assert "inclusion^T" in str(ei.value)
    with pytest.raises(NonUnitalInclusion):
        UnitalEmbedding((1, 2), amb, [[1], [0]])
    # a zero row would give the source a zero trace weight; it reads as the annihilated block it is
    with pytest.raises(NonUnitalInclusion, match="annihilated"):
        UnitalEmbedding((1, 1), MultiMatrixAlgebra((1,), (1.0,)), [[1], [0]])
    # correct column sums work, and the source carries the restricted trace
    emb = UnitalEmbedding((1, 2), amb, [[1], [1]])
    assert emb.source.same_structure(MultiMatrixAlgebra((1, 2), (1.0 / 3, 1.0 / 3)))


@pytest.mark.parametrize("inclusion", [[[1, 1]], [[1], [1]], [[[1]]]])
def test_embedding_refuses_an_inclusion_of_the_wrong_shape(inclusion):
    # one row per source block and one column per target block; a wrong column count is
    # a malformed matrix, not a unitality failure
    with pytest.raises(InvalidInput):
        UnitalEmbedding((1,), MultiMatrixAlgebra((1,), (1.0,)), inclusion)


def test_embedding_rejects_bad_unitaries():
    amb = MultiMatrixAlgebra((2,), (0.5,))
    with pytest.raises(NotUnitary):
        UnitalEmbedding((1, 1), amb, [[1], [1]], block_unitaries=[np.ones((2, 2))])


def test_embedding_is_star_homomorphism():
    mp = models.two_block_over_factor()
    emb = mp.embedding
    rng = linalg.rng_from_seed(3)
    for _ in range(10):
        x = emb.source.random_element(rng)
        y = emb.source.random_element(rng)
        assert emb.apply(x * y).allclose(emb.apply(x) * emb.apply(y), tol=1e-12)
        assert emb.apply(x.adjoint()).allclose(emb.apply(x).adjoint(), tol=1e-12)
        # trace-preserving by the compatibility condition
        assert abs(emb.apply(x).trace() - x.trace()) < 1e-12
    assert emb.apply(emb.source.identity()).allclose(emb.target.identity())


def test_span_and_generated():
    alg = two_one()
    sub = Subalgebra.span(alg, [alg.identity()])
    assert sub.dim == 1
    gen = Subalgebra.generated(alg, [alg.unit(0, 0, 1)])
    # e01 generates all of M2 plus nothing in the second block except 0... the
    # unital closure adds the identity, so the C block appears too
    assert gen.dim == 5
    x = alg.element([np.array([[0, 1], [0, 0]], dtype=complex), np.array([[0.0]])])
    with pytest.raises(NotSubalgebra):
        Subalgebra.span(alg, [alg.identity(), x])


def test_expectation_properties():
    mp = models.diagonal_in_matrix(3)
    sub, amb = mp.sub, mp.ambient
    rng = linalg.rng_from_seed(8)
    for _ in range(15):
        x = amb.random_element(rng)
        ex = sub.expect(x)
        assert sub.contains(ex)
        # idempotent, trace preserving, identity fixed
        assert sub.expect(ex).allclose(ex, tol=1e-10)
        assert abs(ex.trace() - x.trace()) < 1e-12
        # bimodule property over the subalgebra
        a = sub.expect(amb.random_element(rng))
        b = sub.expect(amb.random_element(rng))
        lhs = sub.expect(a * x * b)
        rhs = a * ex * b
        assert lhs.allclose(rhs, tol=1e-10)
    assert sub.expect(amb.identity()).allclose(amb.identity())


def test_expectation_on_diagonal_kills_offdiagonal():
    mp = models.diagonal_in_matrix(2)
    amb = mp.ambient
    x = amb.element([np.array([[1, 5], [7, 2]], dtype=complex)])
    ex = mp.sub.expect(x)
    want = amb.element([np.diag([1.0, 2.0])])
    assert ex.allclose(want, tol=1e-12)


def test_relative_commutant_diagonal():
    mp = models.diagonal_in_matrix(2)
    comm = relative_commutant(mp.sub)
    assert comm.dim == 2  # the diagonal is its own commutant (a masa)
    for b in comm.basis_elements():
        assert mp.sub.contains(b)


def test_relative_commutant_scalars_and_center():
    mp = models.scalar_in_full(3)
    comm = relative_commutant(mp.sub)
    assert comm.dim == 9
    z = relative_commutant(comm, within=comm)
    assert z.dim == 1
    mp2 = models.two_block_over_factor()
    comm2 = relative_commutant(mp2.sub)
    assert comm2.dim == 2  # one scalar per ambient block
    z2 = relative_commutant(mp2.sub, within=mp2.sub)
    assert relative_commutant(z2, within=z2).dim == 1


def test_wedderburn_recovers_structure():
    mp = models.two_block_over_factor()
    wd = wedderburn(mp.sub, seed=0)
    assert wd.block_dims == (2,)
    assert abs(wd.block_traces[0] - 0.5) < 1e-10
    ab = wd.abstract()
    assert ab.dims == (2,)
    lam = wd.lam
    assert lam.tolist() == [[1, 1]]


def test_wedderburn_units_multiply_correctly():
    mp = models.diagonal_in_matrix(3)
    wd = wedderburn(mp.sub, seed=0)
    assert wd.block_dims == (1, 1, 1)
    rng = linalg.rng_from_seed(2)
    for _ in range(10):
        x = mp.sub.expect(mp.ambient.random_element(rng))
        assert unit_roundtrip_residual(wd, x) < 1e-9


def test_wedderburn_abstract_transport_is_homomorphism():
    mp = models.two_block_over_factor()
    wd = wedderburn(mp.sub, seed=0)
    rng = linalg.rng_from_seed(6)
    for _ in range(5):
        x = mp.sub.expect(mp.ambient.random_element(rng))
        y = mp.sub.expect(mp.ambient.random_element(rng))
        ab = wd.abstract()
        ax, ay, axy = (ab.element(unit_coefficients(wd, z)) for z in (x, y, x * y))
        assert (ax * ay).allclose(axy, tol=1e-9)


def test_one_dimensional_wedderburn_draws_no_random_numbers(monkeypatch):
    # C in C[Z16] is span-only and one-dimensional: its centre and its corner
    # are C, so the decomposition needs no random element and makes no generator
    sub = models.group_algebra_pair(GroupTable.cyclic(16), [0]).sub

    def no_generator(seed):
        raise AssertionError("wedderburn made a random generator for seed %r" % (seed,))

    monkeypatch.setattr(linalg, "rng_from_seed", no_generator)
    wd = wedderburn(sub)
    assert wd.block_dims == (1,)
    assert (wd.unit(0, 0, 0) - sub.ambient.identity()).norm() <= 1e-12


def test_inclusion_matrix_diagonal_in_matrix():
    mp = models.diagonal_in_matrix(3)
    wd = wedderburn(mp.sub, seed=0)
    lam = wd.lam
    assert lam.shape == (3, 1)
    assert lam.tolist() == [[1], [1], [1]]


def test_contains_subalgebra():
    # containment of one subalgebra in another is one residuals call on its basis
    mp = models.diagonal_in_matrix(2)
    scal = Subalgebra.span(mp.ambient, [mp.ambient.identity()])
    assert mp.sub.residuals(scal.mat).max() <= 1e-12
    assert scal.residuals(mp.sub.mat).max() > 0.1


def unit_residual_oracle(sub, u, p):
    """The matrix-unit check of ``wedderburn`` before the row-0 check: one
    element product per (p, q, r, s), and the block's units summed against p."""
    worst = 0.0
    acc = u[0][0].alg.zero()
    for a in range(len(u)):
        acc = acc + u[a][a]
        worst = max(worst, (u[a][0].adjoint() - u[0][a]).norm())
        for b in range(len(u)):
            worst = max(worst, sub.residual(u[a][b]))
            for c in range(len(u)):
                for d in range(len(u)):
                    want = u[a][d] if b == c else u[a][d].alg.zero()
                    worst = max(worst, (u[a][b] * u[c][d] - want).norm())
    return max(worst, (acc - p).norm())


# On the perturbations below, the d^4 oracle lies between 1/ROW_RATIO and ROW_RATIO
# times the row-0 residual.  Measured on span-only copies of the pipeline models at
# seeds 0-4, with 20 seeds of the outside element: 0.31 to 2.25, the top from a
# perturbation of the leader w_0 = q_0, which the row-0 check no longer takes.
ROW_RATIO = 4.0


def check_row_residual(sub, wd, outside):
    """``_row_residuals`` of each block's row 0 u_0p, against its units u_pp, and the
    d^4 oracle of the units u_0p* u_0q built from it: both within 1e-12 on valid units,
    and exactly 0 from the row-0 check of a 1 x 1 block, which forms no relation; on a
    block of size d >= 2, both above EPS_WEDD, and within ROW_RATIO of each other, on
    row 0 with w_{d-1} moved by 0.1i times ``outside`` or scaled by 1 + 1e-5."""
    for u in units(wd):
        row, qs = list(u[0]), [u[p][p] for p in range(len(u))]
        p = sum(qs[1:], qs[0])
        broken = [row[:-1] + [row[-1] + 0.1j * outside], row[:-1] + [row[-1] * (1 + 1e-5)]] if len(row) > 1 else []
        for k, w in enumerate([row] + broken):
            new = algebra._row_residuals(sub, [w], [qs])[0]
            old = unit_residual_oracle(sub, [[a.adjoint() * b for b in w] for a in w], p)
            if k == 0:
                assert max(new, old) <= 1e-12
                assert len(row) > 1 or new == 0.0
            else:
                assert min(new, old) > linalg.EPS_WEDD
                assert new / ROW_RATIO <= old <= ROW_RATIO * new


def test_eigenvector_check_certifies_the_leader():
    # the row-0 check takes no relation of w_0 = q_0 = V V*: with dev = ||V* V - 1||,
    # ||q^2 - q|| = ||V (V* V - 1) V*|| <= ||V||^2 dev <= (1 + dev) dev
    rng = linalg.rng_from_seed(4)
    for eps in (1e-12, 1e-9, 1e-6, 1e-3):
        v = np.linalg.qr(rng.standard_normal((6, 3)))[0] + eps * rng.standard_normal((6, 3))
        dev = linalg.hermitian_norm(v.conj().T @ v - np.eye(3))
        q = v @ v.conj().T
        assert linalg.operator_norm(q @ q - q) <= (1 + dev) * dev + 1e-14  # and rounding
        assert linalg.operator_norm(q @ q - q) >= 0.5 * dev  # and the check is not vacuous


@pytest.mark.parametrize("build", [models.two_block_over_factor, lambda: models.explicit_pair((2, 1), [[1, 1], [1, 0]])])
def test_batched_unit_check_matches_loop(build):
    # the row-0 check and the d^4 loop pass valid units and fail row 0 broken in
    # each relation (a scaled projection, a partial isometry moved outside the
    # subalgebra, a slightly scaled partial isometry)
    mp = build()
    sub = Subalgebra(mp.ambient, mp.sub.mat)
    check_row_residual(sub, wedderburn(sub), mp.ambient.random_element(linalg.rng_from_seed(1)))


def test_wedderburn_forms_no_block_sized_product_pass(monkeypatch):
    # the d x d block of crossed_product_diag(6) is checked from its row 0: no
    # product pass inside wedderburn returns more than d^2 = 36 columns (the d^4
    # check returned 1296)
    inside, seen, widths = [], [], []
    products, decompose = MultiMatrixAlgebra.products, algebra.wedderburn

    def spy_products(self, a, b):
        out = products(self, a, b)
        if inside:
            widths.append(out.shape[1])
        return out

    def spy_wedderburn(sub, seed=0):
        inside.append(sub.dim)
        seen.append(sub.dim)
        try:
            return decompose(sub, seed)
        finally:
            inside.pop()

    monkeypatch.setattr(MultiMatrixAlgebra, "products", spy_products)
    monkeypatch.setattr(algebra, "wedderburn", spy_wedderburn)
    mp = models.crossed_product_diag(6)
    assert seen == [36] and mp.ambient.dims == (6,)  # one decomposition, of M_6 in its covariance span
    assert max(widths, default=0) <= 36
