import numpy as np
import pytest
from hypothesis import given, settings

from ppbasis import (
    BasicConstruction,
    GroupTable,
    MultiMatrixAlgebra,
    Subalgebra,
    classify,
    complete_to_basis,
    construct_system_with_support,
    intermediate_projection,
    markov_trace,
    relative_commutant,
    scalar_basis,
    watatani_index,
    wedderburn,
)
from ppbasis import linalg, models
from ppbasis.basic import M1Wedderburn
from ppbasis.errors import InfeasibleSupport, InvalidInput, NonConnected, NotSupportedOnE1
from ppbasis.scenarios import run_scenario_dict
import oracles
from oracles import (
    GramM1Trace, e1_matrix, left_op, lift, m1_subalgebra, nullspace_m1, right_op, roundtrip_residual, to_abstract
)
from test_closure import connected_pairs


def test_markov_trace_values():
    mk = markov_trace([[1], [1]], (1, 1))  # diagonal in M2
    assert abs(mk.beta - 2.0) < 1e-12
    assert np.allclose(mk.trace_amb, [0.5])
    assert np.allclose(mk.trace_sub, [0.5, 0.5])
    mk2 = markov_trace([[2]], (1,))  # scalars in M2
    assert abs(mk2.beta - 4.0) < 1e-12
    mk3 = markov_trace([[1, 1]], (2,))  # M2 in M2 + M2
    assert abs(mk3.beta - 2.0) < 1e-12
    assert np.allclose(mk3.trace_amb, [0.25, 0.25])


def test_markov_trace_eigen_equation():
    for lam, dims in (
        ([[1], [1]], (1, 1)),
        ([[1, 1], [0, 1]], (1, 2)),
        ([[2, 1]], (1,)),
    ):
        mk = markov_trace(lam, dims)
        l = np.asarray(lam)
        # amb trace is the Perron vector of Lambda^T Lambda
        resid = np.linalg.norm(l.T @ l @ mk.trace_amb - mk.beta * mk.trace_amb)
        assert resid < 1e-10
        assert np.allclose(mk.trace_sub, l @ mk.trace_amb)
        # state normalization on the ambient side
        n = l.T @ np.asarray(dims)
        assert abs(float(n @ mk.trace_amb) - 1.0) < 1e-12


def test_markov_trace_rejects_disconnected():
    with pytest.raises(NonConnected):
        markov_trace([[1, 0], [0, 1]], (1, 1))  # two components
    with pytest.raises(NonConnected):
        markov_trace([[1, 0], [0, 0]], (1, 1))  # zero row
    with pytest.raises(InvalidInput):
        markov_trace([[0.5]], (1,))


def test_e1_implements_expectation():
    mp = models.diagonal_in_matrix(2)
    bc = BasicConstruction(mp.sub)
    e1 = e1_matrix(bc)
    rng = linalg.rng_from_seed(3)
    for _ in range(10):
        x = mp.ambient.random_element(rng)
        assert mp.ambient.unvec(e1 @ mp.ambient.vec(x)).allclose(mp.sub.expect(x), tol=1e-11)
    # e1's blocks in M1 are those of the D x D projection, a projection of rank dim(N):
    # block C_i occurs m_i times in M1
    assert max(np.abs(a - b).max() for a, b in zip(bc.e1, to_abstract(bc.m1_wedd, e1))) <= 1e-12
    assert max(max(linalg.projection_residuals(s)) for s in linalg.stacks(bc.e1)) <= 1e-10
    assert bc.e1 is bc.e1 and not any(c.flags.writeable for c in bc.e1)  # kept, and shared read-only
    assert round(sum(m * np.trace(c).real for m, c in zip(bc.m1_wedd.mults, bc.e1))) == bc.sub.dim == 2


def test_e1_commutes_with_subalgebra_action():
    mp = models.diagonal_in_matrix(3)
    bc = BasicConstruction(mp.sub)
    e1 = e1_matrix(bc)
    for b in mp.sub.basis_elements():
        lb = left_op(bc.amb, b)
        assert linalg.operator_norm(lb @ e1 - e1 @ lb) < 1e-10


def test_e1_conjugation_relation():
    # e1 x e1 = E(x) e1 as GNS operators
    mp = models.diagonal_in_matrix(2)
    bc = BasicConstruction(mp.sub)
    e1 = e1_matrix(bc)
    rng = linalg.rng_from_seed(1)
    for _ in range(10):
        x = mp.ambient.random_element(rng)
        lhs = e1 @ left_op(bc.amb, x) @ e1
        rhs = left_op(bc.amb, mp.sub.expect(x)) @ e1
        assert linalg.operator_norm(lhs - rhs) < 1e-10


def test_m1_is_commutant_of_jnj():
    mp = models.diagonal_in_matrix(2)
    bc = BasicConstruction(mp.sub)
    amb = mp.ambient
    # M1 contains both L_M and e1
    for u in amb.units():
        assert roundtrip_residual(bc.m1_wedd, left_op(bc.amb, u)) < 1e-9
    assert roundtrip_residual(bc.m1_wedd, e1_matrix(bc)) < 1e-9
    # JNJ commutes with everything in M1
    for b in mp.sub.basis_elements():
        r = amb.sandwich_j(left_op(amb, b))
        for el in m1_subalgebra(bc).basis_elements():
            m = el.blocks[0]
            assert linalg.operator_norm(r @ m - m @ r) < 1e-8


def test_m1_dimension_diag_in_m2():
    # M1 for diagonal in M2 is M2 + M2 acting on a 4-dim GNS space
    bc = BasicConstruction(models.diagonal_in_matrix(2).sub)
    assert m1_subalgebra(bc).dim == 8
    assert tuple(sorted(bc.m1_wedd.block_dims)) == (2, 2)


ORACLE_MODELS = [
    *(("diag-in-m%d" % k, lambda k=k: models.diagonal_in_matrix(k)) for k in (2, 3, 4, 5)),
    ("two-block-over-factor", models.two_block_over_factor),
    ("c-in-c+m2", lambda: models.explicit_pair((1,), [[1, 2]])),
    ("z4-over-e", lambda: models.group_algebra_pair(GroupTable.cyclic(4), [0])),
    ("crossed-product-diag-3", lambda: models.crossed_product_diag(3)),
]


@pytest.mark.parametrize("build", [b for _, b in ORACLE_MODELS], ids=[n for n, _ in ORACLE_MODELS])
def test_closed_form_m1_matches_nullspace_oracle(build):
    mp = build()
    bc = BasicConstruction(mp.sub)
    ker = nullspace_m1(bc)
    d = bc.amb.gns_dim
    # block i of M1 sits over N's block i with size (Lambda n)_i
    lam = mp.sub.wedderburn_data().lam
    dims = tuple(int(k) for k in lam @ np.asarray(mp.ambient.dims))
    assert bc.m1_wedd.block_dims == dims
    m1 = m1_subalgebra(bc)
    assert ker.shape[1] == m1.dim == sum(k * k for k in dims)
    # same subspace of the D^2-dim operator space: every principal cosine is 1
    cosines = np.linalg.svd(ker.conj().T @ m1.mat, compute_uv=False)
    assert cosines.min() >= 1.0 - 1e-12
    # the closed-form projection agrees with the oracle's orthogonal projection
    rng = linalg.rng_from_seed(5)
    for _ in range(5):
        t = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        v = t.reshape(-1)
        ref = np.linalg.norm(v - ker @ (ker.conj().T @ v)) / np.sqrt(d)
        assert abs(roundtrip_residual(bc.m1_wedd, t) - ref) <= 1e-12


def test_construction_is_lazy(monkeypatch):
    mp = models.diagonal_in_matrix(3)

    def forbidden(*args, **kwargs):
        raise AssertionError("the basic construction must not take a nullspace")

    monkeypatch.setattr(linalg, "nullspace", forbidden)
    bc = BasicConstruction(mp.sub)
    assert vars(bc).keys() == {"sub", "amb", "seed"}  # nothing is formed up front
    assert bc.pushdown(bc.e1).allclose(mp.ambient.identity(), tol=1e-12)  # e1 = L_1 e1
    monkeypatch.undo()
    assert m1_subalgebra(bc).dim == 27


def test_closed_form_m1_at_diag_in_m6():
    # D = 36: the nullspace route would need a 46656 x 1296 SVD
    mp = models.diagonal_in_matrix(6)
    bc = BasicConstruction(mp.sub)
    assert bc.m1_wedd.block_dims == (6,) * 6
    sys = construct_system_with_support([np.eye(6)] * 6, bc)
    assert sys.size == 6
    assert sys.flags["basis"]
    rng = linalg.rng_from_seed(4)
    for _ in range(3):
        x = mp.ambient.random_element(rng)
        assert bc.pushdown(lift(bc, x)).allclose(x, tol=1e-10)


def test_pushdown_lift_roundtrip():
    for mp in (models.diagonal_in_matrix(2), models.two_block_over_factor()):
        bc = BasicConstruction(mp.sub)
        rng = linalg.rng_from_seed(7)
        for _ in range(10):
            x = mp.ambient.random_element(rng)
            y = bc.pushdown(lift(bc, x))
            assert y.allclose(x, tol=1e-10)


def test_pushdown_rejects_bad_input():
    bc = BasicConstruction(models.diagonal_in_matrix(2).sub)
    with pytest.raises(NotSupportedOnE1):
        bc.pushdown([np.eye(k) for k in bc.m1_wedd.block_dims])  # the identity is not supported on e1
    with pytest.raises(InvalidInput, match="M1's blocks must be"):
        bc.pushdown(e1_matrix(bc))  # a D x D array is no list of M1's blocks


def test_markov_extension_trace_values():
    mp = models.diagonal_in_matrix(2)
    bc = BasicConstruction(mp.sub)
    mk = markov_trace([[1], [1]], (1, 1))
    tr2 = bc.markov_extension()  # from the Markov data kept on N
    assert tr2.markov.beta == pytest.approx(mk.beta, abs=1e-12)
    assert np.allclose(tr2.markov.trace_sub, mk.trace_sub, rtol=0, atol=1e-12)
    # normalized: tr2(1) = 1, tr2(e1) = 1/beta
    assert abs(tr2.trace([np.eye(k) for k in bc.m1_wedd.block_dims]) - 1.0) < 1e-10
    assert abs(tr2.trace(bc.e1) - 0.5) < 1e-10
    # extends the ambient trace through the left action
    rng = linalg.rng_from_seed(2)
    for _ in range(10):
        x = mp.ambient.random_element(rng)
        assert abs(tr2.trace(_left(bc, x)) - x.trace()) < 1e-10


def test_markov_extension_expectation():
    mp = models.diagonal_in_matrix(2)
    bc = BasicConstruction(mp.sub)
    tr2 = bc.markov_extension()
    rng = linalg.rng_from_seed(9)
    # E(e1) = 1/beta, and the expectation preserves tr2
    ex = tr2.expect_onto_ambient(bc.e1)
    assert ex.allclose(mp.ambient.scalar(0.5), tol=1e-9)
    for _ in range(5):
        x = mp.ambient.random_element(rng)
        m = lift(bc, x)
        ey = tr2.expect_onto_ambient(m)
        assert abs(ey.trace() - tr2.trace(m)) < 1e-9


MARKOV_MODELS = [
    ("diag-in-m2", lambda: models.diagonal_in_matrix(2)),
    ("diag-in-m4", lambda: models.diagonal_in_matrix(4)),
    ("m2-in-m2+m2", lambda: models.explicit_pair((2,), [[1, 1]])),
    ("c-in-c+m2", lambda: models.explicit_pair((1,), [[1, 2]])),
    ("c+m2-in-m3", lambda: models.explicit_pair((1, 2), [[1], [1]])),
    ("non-markov-trace", lambda: models.explicit_pair((1, 2), [[1, 1], [1, 0]], trace=(0.2, 0.4))),
    ("z4-over-e", lambda: models.group_algebra_pair(GroupTable.cyclic(4), [0])),
    ("crossed-product-diag-3", lambda: models.crossed_product_diag(3)),
]


def _left(bc, x):
    """M1's blocks of L_x, through the D x D operator."""
    return to_abstract(bc.m1_wedd, left_op(bc.amb, x))


@pytest.mark.parametrize(
    "build",
    [lambda: models.diagonal_in_matrix(3), lambda: models.explicit_pair((1, 2), [[1], [1]])],
    ids=["diag-in-m3", "c+m2-in-m3"],
)
def test_m1_from_abstract_matches_kron_form(build):
    # sum_p W_p C W_p* from one rotation into M's frames, against W (1_m (x) C) W* through the dense isometries
    wd = BasicConstruction(build().sub).m1_wedd
    rng = linalg.rng_from_seed(4)
    blocks = [rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k)) for k in wd.block_dims]
    assert np.abs(wd.from_abstract(blocks) - oracles.from_abstract(wd, blocks)).max() <= 1e-12


# -- M1 in closed form against the right-operator route -----------------------
# V_i was an orthonormal basis of the range of the D x D operator R(e^i_00),
# and W_{i,p} = R(e^i_0p) V_i; the frames give every W_{i,p}^* from N's blocks:
# the rows of the identity's columns are the conjugates of the W's entries.


def oracle_isometries(bc):
    """The W_i through D x D right operators and D-row SVDs."""
    out = []
    for units in oracles.units(bc.m1_wedd.sub_wedd):
        v = linalg.orthonormal_columns(right_op(bc.amb, units[0][0]))
        out.append(np.concatenate([right_op(bc.amb, u) @ v for u in units[0]], axis=1))
    return out


def _rotated_pair():
    rng = linalg.rng_from_seed(8)
    return models.explicit_pair((1, 2), [[1, 1], [1, 0]], unitaries=[linalg.random_unitary(n, rng) for n in (3, 1)])


def _interleaved_pair():
    # M = M2 + C + M2: the blocks of size 2 are not adjacent; rotated, so the frames are not permutations
    rng = linalg.rng_from_seed(9)
    unitaries = [linalg.random_unitary(n, rng) for n in (2, 1, 2)]
    return models.explicit_pair((1, 1), [[1, 1, 1], [1, 0, 1]], unitaries=unitaries)


ISOMETRY_MODELS = [
    ("diag-in-m3", lambda: models.diagonal_in_matrix(3)),
    ("c+m2-in-m3", lambda: models.explicit_pair((1, 2), [[1], [1]])),
    ("m2-in-m2+m2", lambda: models.explicit_pair((2,), [[1, 1]])),
    ("c+m2-in-m3+c-rotated", _rotated_pair),
    ("z4-over-z2-span", lambda: models.group_algebra_pair(GroupTable.cyclic(4), [0, 2])),
    ("c+c-in-m2+c+m2-rotated", _interleaved_pair),
]


def check_isometries(sub):
    bc = BasicConstruction(sub)
    wd, ref = bc.m1_wedd, oracle_isometries(bc)
    assert wd.block_dims == tuple(r.shape[1] // m for r, m in zip(ref, wd.mults))
    for w, r in zip(wd.per_block(wd.rows(np.eye(bc.amb.gns_dim))), ref):  # rows per group, listed per block
        w = w.reshape(len(w), -1).conj()
        assert w.shape == r.shape
        assert np.abs(w @ w.conj().T - r @ r.conj().T).max() <= 1e-12
        assert np.abs(w.conj().T @ w - np.eye(w.shape[1])).max() <= 1e-12


@pytest.mark.parametrize("build", [b for _, b in ISOMETRY_MODELS], ids=[n for n, _ in ISOMETRY_MODELS])
def test_closed_form_isometries_match_right_operator_oracle(build):
    check_isometries(build().sub)


@settings(max_examples=25)
@given(connected_pairs())
def test_drawn_inclusions_isometries_match_right_operator_oracle(mp):
    check_isometries(mp.sub)


@pytest.mark.parametrize("build", [b for _, b in ISOMETRY_MODELS], ids=[n for n, _ in ISOMETRY_MODELS])
def test_apply_to_one_matches_pushdown(build):
    # x = v 1^ read off v's blocks by pushdown, against v applied to 1^ through the dense isometries
    bc = BasicConstruction(build().sub)
    wd = bc.m1_wedd
    one = bc.amb.vec(bc.amb.identity())
    rng = linalg.rng_from_seed(6)
    for _ in range(3):
        blocks = [(rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))) @ e
                  for k, e in zip(wd.block_dims, bc.e1)]
        got = bc.pushdown(blocks)
        want = bc.amb.unvec(oracles.apply(wd, blocks, one[:, None])[:, 0])
        assert max(np.abs(a - b).max() for a, b in zip(got.blocks, want.blocks)) <= 1e-12


def test_m1_and_support_construction_form_no_gns_operators(monkeypatch):
    # M1's isometries take n_j-square eigendecompositions only; the construction
    # takes f as M1's blocks and pushes down from them, so it factors no D-row
    # matrix, whatever the size of the family
    bc = BasicConstruction(models.diagonal_in_matrix(3).sub)
    d, rows = bc.amb.gns_dim, []

    for name in ("svd", "eigh"):

        def spy(a, *args, real=getattr(np.linalg, name), **kwargs):
            rows.append(np.shape(a)[-2])
            return real(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, spy)
    assert not hasattr(MultiMatrixAlgebra, "right_op")  # the D x D right operator is a test oracle only
    bc.m1_wedd
    assert rows and d not in rows
    for f, size in ((bc.e1, 1), ([np.eye(3)] * 3, 3)):
        rows.clear()
        assert construct_system_with_support(f, bc).size == size
        assert rows and d not in rows


@pytest.mark.parametrize("mode", ["general", "orthonormal-padded"])
@pytest.mark.parametrize("build", [b for _, b in ISOMETRY_MODELS], ids=[n for n, _ in ISOMETRY_MODELS])
def test_support_match_on_e1_one_and_central_projections(build, mode):
    bc = BasicConstruction(build().sub)
    dims = bc.m1_wedd.block_dims
    central = [[np.eye(k) * (i == b) for i, k in enumerate(dims)] for b in range(len(dims))]
    supports = [bc.e1, [np.eye(k) for k in dims]] + central
    built = 0
    for f in supports:
        try:
            sys = construct_system_with_support(f, bc, mode=mode)
        except InfeasibleSupport:
            assert mode == "orthonormal-padded"  # one padding count must fit every block
            continue
        assert sys.flags["system"]
        assert sys.residuals["support_match"] <= 1e-12
        built += 1
    assert built == len(supports) or (mode == "orthonormal-padded" and built >= 1)  # e1 always fits


def _random_m1(bc, rng):
    """T = L_x e1 L_y + L_z for random x, y, z in M, a generic element of M1, as a D x D array."""
    amb = bc.amb
    x, y, z = (amb.random_element(rng) for _ in range(3))
    return left_op(amb, x) @ e1_matrix(bc) @ left_op(amb, y) + left_op(amb, z)


def check_markov_extension(bc, rng, count=3):
    """tr2 and E_M of 1, e1 and ``count`` generic elements against ``GramM1Trace``, to 1e-12."""
    tr2, ref = bc.markov_extension(), GramM1Trace(bc, bc.m1_wedd.markov)
    for t in [np.eye(bc.amb.gns_dim), e1_matrix(bc)] + [_random_m1(bc, rng) for _ in range(count)]:
        blocks = to_abstract(bc.m1_wedd, t)
        assert abs(tr2.trace(blocks) - ref.trace(t)) <= 1e-12
        assert (tr2.expect_onto_ambient(blocks) - ref.expect_onto_ambient(t)).norm() <= 1e-12


@pytest.mark.parametrize("build", [b for _, b in MARKOV_MODELS], ids=[n for n, _ in MARKOV_MODELS])
def test_markov_extension_matches_gram_oracle(build):
    check_markov_extension(BasicConstruction(build().sub), linalg.rng_from_seed(13))


@pytest.mark.parametrize("build", [b for _, b in MARKOV_MODELS], ids=[n for n, _ in MARKOV_MODELS])
def test_markov_expectation_is_a_bimodule_projection(build):
    bc = BasicConstruction(build().sub)
    amb = bc.amb
    tr2 = bc.markov_extension()
    rng = linalg.rng_from_seed(17)
    for _ in range(3):
        t = _random_m1(bc, rng)
        a, b, x = (amb.random_element(rng) for _ in range(3))
        scale = 1.0 + linalg.operator_norm(t)
        blocks = to_abstract(bc.m1_wedd, t)
        et = tr2.expect_onto_ambient(blocks)
        # E(L_a T L_b) = a E(T) b
        got = tr2.expect_onto_ambient(to_abstract(bc.m1_wedd, left_op(amb, a) @ t @ left_op(amb, b)))
        assert (got - a * et * b).norm() <= 1e-10 * scale * (1.0 + a.op_norm()) * (1.0 + b.op_norm())
        # tr2(L_{E(T)}) = tr2(T)
        assert abs(tr2.trace(_left(bc, et)) - tr2.trace(blocks)) <= 1e-10 * scale
        # E(L_x) = x
        assert (tr2.expect_onto_ambient(_left(bc, x)) - x).norm() <= 1e-10 * (1.0 + x.op_norm())


def test_markov_extension_builds_no_left_operators():
    bc = BasicConstruction(models.diagonal_in_matrix(3).sub)
    amb = bc.amb
    t = to_abstract(bc.m1_wedd, _random_m1(bc, linalg.rng_from_seed(19)))
    x = amb.random_element(linalg.rng_from_seed(20))
    lx = _left(bc, x)
    assert not hasattr(MultiMatrixAlgebra, "left_op")  # the D x D left operator is a test oracle only
    tr2 = bc.markov_extension()
    tr2.trace(t)
    tr2.expect_onto_ambient(t)
    tr2.expect_onto_ambient(bc.e1)
    assert tr2.expect_onto_ambient(lx).allclose(x, tol=1e-10)


def test_watatani_index_scalar_case():
    amb = models.scalar_in_full(2).ambient
    basis = scalar_basis(amb)
    wat = watatani_index(basis)
    assert wat.is_central
    assert wat.scalar is not None
    assert abs(wat.scalar - 4.0) < 1e-10


def test_watatani_index_non_scalar_case():
    # a single projection summand: central in the diagonal but not scalar in M2
    amb = models.diagonal_in_matrix(2).ambient
    e = amb.element([np.diag([1.0, 0.0])])
    wat = watatani_index([e])
    assert wat.scalar is None
    assert not wat.is_central
    with pytest.raises(InvalidInput):
        watatani_index([])


def test_watatani_sum_matches_the_elementwise_sum():
    # the sum is one product per block of M over the stacked blocks; the oracle adds
    # lambda lambda* one element at a time.  An element of another algebra is InvalidInput
    rng = linalg.rng_from_seed(3)
    for alg in (MultiMatrixAlgebra((1, 2, 3), (0.1, 0.15, 0.2)), models.diagonal_in_matrix(4).ambient):
        family = [alg.random_element(rng) for _ in range(5)]
        oracle = alg.zero()
        for lam in family:
            oracle = oracle + lam * lam.adjoint()
        wat = watatani_index(family)
        assert (wat.element - oracle).norm() <= 1e-12 * (1.0 + oracle.norm())
        with pytest.raises(InvalidInput):
            watatani_index(family + [MultiMatrixAlgebra((2,), (0.5,)).identity()])


@pytest.mark.parametrize("value, message", [(np.nan, "element 9 "), (np.inf, "element 9 "), (1e200, "sum overflows")],
                         ids=["nan", "inf", "overflow"])
def test_watatani_index_rejects_non_finite_input(monkeypatch, value, message):
    # a nan or inf entry names its element and a sum that overflows says so: InvalidInput before
    # any factorization, and no numpy warning on the way (pytest turns warnings into errors)
    alg = MultiMatrixAlgebra((3,), (1.0 / 3,))
    x = alg.identity()
    x.blocks[0][0, 1] = value
    for name in ("svd", "eigh", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, lambda *args, name=name, **kwargs: pytest.fail("%s was called" % name))
    with pytest.raises(InvalidInput, match=message):
        watatani_index(scalar_basis(alg) + [x])


def test_watatani_independent_of_basis_choice():
    # two different two-sided bases of the same inclusion agree on the index
    mp = models.diagonal_in_matrix(2)
    bc = BasicConstruction(mp.sub)
    basis1 = scalar_basis(mp.ambient)  # over scalars, size 4: not what we want
    del basis1
    sys1 = complete_to_basis(construct_system_with_support(bc.e1, bc), bc)
    w1 = watatani_index(sys1.elements)
    # rotate by a unitary of N: lambda_i -> lambda_i u stays a basis
    u = mp.ambient.element([np.diag([1.0, -1.0])])
    sys2 = classify([lam * u for lam in sys1.elements], mp.sub, side="right", bc=bc)
    assert sys2.flags["basis"]
    w2 = watatani_index(sys2.elements)
    assert (w1.element - w2.element).norm() < 1e-9
    assert abs(w1.scalar - 2.0) < 1e-8 and abs(w2.scalar - 2.0) < 1e-8


@pytest.mark.parametrize("bad", [2.5, "3", -1, np.nan])
def test_non_integer_subalgebra_dims_are_invalid_input(bad):
    # 2.5 once gave Markov data and "3" a beta of 4; explicit_pair named the trace sum
    with pytest.raises(InvalidInput, match="^sub_dims must be nonnegative integers"):
        markov_trace([[1]], (bad,))
    with pytest.raises(InvalidInput, match="^dims must be nonnegative integers"):
        models.explicit_pair((bad,), [[1]])


def _malformed(dims, kind):
    """M1's blocks broken in one way: one block short, each one row and column too large, nan or inf."""
    good = [np.eye(k) for k in dims]
    if kind == "count":
        return good[:-1]
    if kind == "shape":
        return [np.eye(k + 1) for k in dims]
    good[-1][0, 0] = np.nan if kind == "nan" else np.inf
    return good


@pytest.mark.parametrize("kind", ["count", "shape", "nan", "inf"])
@pytest.mark.parametrize("entry", ["construct_system_with_support", "pushdown", "trace", "expect_onto_ambient"])
def test_malformed_m1_blocks_are_invalid_input(entry, kind):
    bc = BasicConstruction(models.explicit_pair((1, 2), [[1], [1]]).sub)  # M1 = M2 + M3
    tr2 = bc.markov_extension()
    call = {
        "construct_system_with_support": lambda f: construct_system_with_support(f, bc),
        "pushdown": bc.pushdown,
        "trace": tr2.trace,
        "expect_onto_ambient": tr2.expect_onto_ambient,
    }[entry]
    with pytest.raises(InvalidInput, match="M1's blocks must be"):
        call(_malformed(bc.m1_wedd.block_dims, kind))


def test_block_paths_form_no_gns_operator(monkeypatch):
    # e1, prescribed supports, pushdown, the Markov extension and e_P go in and out
    # as M1's blocks: no D x D projection onto a subalgebra and no D x D element of M1
    def forbidden(*args, **kwargs):
        raise AssertionError("a D x D operator formed on a block path")

    monkeypatch.setattr(Subalgebra, "projection_matrix", forbidden)
    monkeypatch.setattr(M1Wedderburn, "from_abstract", forbidden)
    mp = models.diagonal_in_matrix(3)
    bc = BasicConstruction(mp.sub)
    dims = bc.m1_wedd.block_dims
    assert [c.shape for c in bc.e1] == [(k, k) for k in dims]
    central = [np.eye(k) * (i == 0) for i, k in enumerate(dims)]
    for f, size in ((bc.e1, 1), ([np.eye(k) for k in dims], 3), (central, 3)):
        sys = construct_system_with_support(f, bc)
        assert sys.size == size and sys.residuals["support_match"] <= 1e-12
    full = complete_to_basis(construct_system_with_support(bc.e1, bc), bc)
    assert full.flags["basis"]
    assert bc.pushdown(bc.e1).allclose(mp.ambient.identity(), tol=1e-12)
    tr2 = bc.markov_extension()
    assert abs(tr2.trace(bc.e1) - 1.0 / 3.0) <= 1e-12
    assert tr2.expect_onto_ambient(bc.e1).allclose(mp.ambient.scalar(1.0 / 3.0), tol=1e-12)
    q = models.masa_quadruple()
    assert len(intermediate_projection(q.p_sub, BasicConstruction(q.n_sub))) == 1
    tasks = [{"task": "construct_with_support", "f": f} for f in ("e1", "one", {"m1_central": 1})]
    tasks += [{"task": "complete_to_basis", "f": "e1", "expect": {"basis": True}}]
    report, _ = run_scenario_dict({"model": {"kind": "diagonal_in_matrix", "k": 3}, "tasks": tasks})
    assert [r["pass"] for r in report["results"]] == [True] * 4


# -- the paper's identities on drawn connected inclusions ----------------------


@settings(max_examples=10)
@given(connected_pairs())
def test_drawn_pushdown_round_trip(mp):
    # x -> the blocks of L_x e1 (through the D x D operators) -> pushdown gives x back
    bc = BasicConstruction(mp.sub)
    rng = linalg.rng_from_seed(0)
    for _ in range(2):
        x = mp.ambient.random_element(rng)
        assert max(np.abs(a - b).max() for a, b in zip(bc.pushdown(lift(bc, x)).blocks, x.blocks)) <= 1e-12


@settings(max_examples=10)
@given(connected_pairs())
def test_drawn_construct_then_complete_is_a_basis(mp):
    # from f = 1 the construction is a right basis already, and completion keeps it;
    # from f = e1 completion extends it to one, keeping its elements
    bc = BasicConstruction(mp.sub)
    full = construct_system_with_support([np.eye(k) for k in bc.m1_wedd.block_dims], bc)
    assert full.flags["basis"] and complete_to_basis(full, bc) is full
    start = construct_system_with_support(bc.e1, bc)
    done = complete_to_basis(start, bc)
    assert done.flags["basis"] and done.elements[: start.size] == start.elements


@settings(max_examples=10)
@given(connected_pairs())
def test_drawn_markov_extension_matches_gram_oracle(mp):
    check_markov_extension(BasicConstruction(mp.sub), linalg.rng_from_seed(0), count=1)
