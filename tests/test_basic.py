import numpy as np
import pytest
from hypothesis import given, settings

from ppbasis import (
    BasicConstruction,
    GroupTable,
    MultiMatrixAlgebra,
    Subalgebra,
    classify,
    construct_system_with_support,
    inclusion_matrix,
    markov_trace,
    relative_commutant,
    scalar_basis,
    watatani_index,
    wedderburn,
)
from ppbasis import linalg, models
from ppbasis.errors import InfeasibleSupport, InvalidInput, NonConnected, NotSupportedOnE1
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
    rng = linalg.rng_from_seed(3)
    for _ in range(10):
        x = mp.ambient.random_element(rng)
        assert mp.ambient.unvec(bc.e1 @ mp.ambient.vec(x)).allclose(mp.sub.expect(x), tol=1e-11)
    # e1 is a projection of rank dim(N)
    assert max(linalg.projection_residuals(bc.e1)) <= 1e-10
    assert linalg.rank(bc.e1) == bc.sub.dim == 2


def test_e1_commutes_with_subalgebra_action():
    mp = models.diagonal_in_matrix(3)
    bc = BasicConstruction(mp.sub)
    for b in mp.sub.basis_elements():
        lb = bc.amb.left_op(b)
        assert linalg.operator_norm(lb @ bc.e1 - bc.e1 @ lb) < 1e-10


def test_e1_conjugation_relation():
    # e1 x e1 = E(x) e1 as GNS operators
    mp = models.diagonal_in_matrix(2)
    bc = BasicConstruction(mp.sub)
    rng = linalg.rng_from_seed(1)
    for _ in range(10):
        x = mp.ambient.random_element(rng)
        lhs = bc.e1 @ bc.amb.left_op(x) @ bc.e1
        rhs = bc.amb.left_op(mp.sub.expect(x)) @ bc.e1
        assert linalg.operator_norm(lhs - rhs) < 1e-10


def test_m1_is_commutant_of_jnj():
    mp = models.diagonal_in_matrix(2)
    bc = BasicConstruction(mp.sub)
    amb = mp.ambient
    # M1 contains both L_M and e1
    for u in amb.units():
        assert bc.m1_wedd.roundtrip_residual(bc.amb.left_op(u)) < 1e-9
    assert bc.m1_wedd.roundtrip_residual(bc.e1) < 1e-9
    # JNJ commutes with everything in M1
    for b in mp.sub.basis_elements():
        r = amb.sandwich_j(amb.left_op(b))
        for el in bc.m1.basis_elements():
            m = el.blocks[0]
            assert linalg.operator_norm(r @ m - m @ r) < 1e-8


def test_m1_dimension_diag_in_m2():
    # M1 for diagonal in M2 is M2 + M2 acting on a 4-dim GNS space
    bc = BasicConstruction(models.diagonal_in_matrix(2).sub)
    assert bc.m1.dim == 8
    assert tuple(sorted(bc.m1_wedd.block_dims)) == (2, 2)


def nullspace_m1(bc):
    """Reference M1: the commutant of N's right action as a D^2 x D^2 nullspace.

    Orthonormal columns are row-major vecs of D x D operators T solving
    T R_b = R_b T for a basis b of N.  Dense and O(D^6); an oracle for the
    closed-form construction on small models only.
    """
    d = bc.gns_dim
    eye = np.eye(d)
    maps = []
    for b in bc.sub.basis_elements():
        r = bc.amb.right_op(b)
        maps.append(np.kron(eye, r.T) - np.kron(r, eye))
    return linalg.nullspace(np.vstack(maps))


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
    d = bc.gns_dim
    # block i of M1 sits over N's block i with size (Lambda n)_i
    lam = inclusion_matrix(bc.sub_wedd)
    dims = tuple(int(k) for k in lam @ np.asarray(mp.ambient.dims))
    assert bc.m1_wedd.block_dims == dims
    assert ker.shape[1] == bc.m1.dim == sum(k * k for k in dims)
    # same subspace of the D^2-dim operator space: every principal cosine is 1
    cosines = np.linalg.svd(ker.conj().T @ bc.m1.mat, compute_uv=False)
    assert cosines.min() >= 1.0 - 1e-12
    # the closed-form projection agrees with the oracle's orthogonal projection
    rng = linalg.rng_from_seed(5)
    for _ in range(5):
        t = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        v = t.reshape(-1)
        ref = np.linalg.norm(v - ker @ (ker.conj().T @ v)) / np.sqrt(d)
        assert abs(bc.m1_wedd.roundtrip_residual(t) - ref) <= 1e-12


def test_construction_is_lazy(monkeypatch):
    mp = models.diagonal_in_matrix(3)

    def forbidden(*args, **kwargs):
        raise AssertionError("BasicConstruction() must not take a nullspace")

    monkeypatch.setattr(linalg, "nullspace", forbidden)
    bc = BasicConstruction(mp.sub)
    monkeypatch.undo()
    bc.pushdown(bc.amb.left_op(mp.ambient.identity()) @ bc.e1)
    assert "m1" not in vars(bc)  # projection onto M1 never forms the D^2-row matrix
    assert bc.m1.dim == 27


def test_closed_form_m1_at_diag_in_m6():
    # D = 36: the nullspace route would need a 46656 x 1296 SVD
    mp = models.diagonal_in_matrix(6)
    bc = BasicConstruction(mp.sub)
    assert bc.m1_wedd.block_dims == (6,) * 6
    sys = construct_system_with_support(np.eye(36), bc)
    assert sys.size == 6
    assert sys.flags["basis"]
    rng = linalg.rng_from_seed(4)
    for _ in range(3):
        x = mp.ambient.random_element(rng)
        assert bc.pushdown(bc.amb.left_op(x) @ bc.e1).allclose(x, tol=1e-10)


def test_pushdown_lift_roundtrip():
    for mp in (models.diagonal_in_matrix(2), models.two_block_over_factor()):
        bc = BasicConstruction(mp.sub)
        rng = linalg.rng_from_seed(7)
        for _ in range(10):
            x = mp.ambient.random_element(rng)
            y = bc.pushdown(bc.amb.left_op(x) @ bc.e1)
            assert y.allclose(x, tol=1e-10)


def test_pushdown_rejects_bad_input():
    bc = BasicConstruction(models.diagonal_in_matrix(2).sub)
    with pytest.raises(NotSupportedOnE1):
        bc.pushdown(np.eye(bc.gns_dim))  # identity is not supported on e1
    # something supported on e1 but outside M1: e1 compressed by a rank-one
    v = np.zeros((bc.gns_dim, bc.gns_dim))
    v[0, 0] = 1.0
    probe = v @ bc.e1
    if linalg.operator_norm(probe @ bc.e1 - probe) < 1e-12 and bc.m1_wedd.roundtrip_residual(probe) > 1e-6:
        with pytest.raises(InvalidInput):
            bc.pushdown(probe)


def test_markov_extension_trace_values():
    mp = models.diagonal_in_matrix(2)
    bc = BasicConstruction(mp.sub)
    mk = markov_trace([[1], [1]], (1, 1))
    tr2 = bc.markov_extension(mk)
    # normalized: tr2(1) = 1, tr2(e1) = 1/beta
    assert abs(tr2.trace(np.eye(bc.gns_dim)) - 1.0) < 1e-10
    assert abs(tr2.trace(bc.e1) - 0.5) < 1e-10
    # extends the ambient trace through the left action
    rng = linalg.rng_from_seed(2)
    for _ in range(10):
        x = mp.ambient.random_element(rng)
        assert abs(tr2.trace(bc.amb.left_op(x)) - x.trace()) < 1e-10


def test_markov_extension_expectation():
    mp = models.diagonal_in_matrix(2)
    bc = BasicConstruction(mp.sub)
    tr2 = bc.markov_extension(markov_trace([[1], [1]], (1, 1)))
    rng = linalg.rng_from_seed(9)
    # E(e1) = 1/beta, and the expectation preserves tr2
    ex = tr2.expect_onto_ambient(bc.e1)
    assert ex.allclose(mp.ambient.scalar(0.5), tol=1e-9)
    for _ in range(5):
        x = mp.ambient.random_element(rng)
        m = bc.amb.left_op(x) @ bc.e1
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


def markov_of(bc):
    wd = bc.sub_wedd
    return markov_trace(inclusion_matrix(wd), wd.block_dims)


class GramM1Trace:
    """Reference Markov extension: tr2 = sum_i (trace_sub[i]/beta) Tr(C_i) on M1's
    abstract blocks, and E_M(T) from the Gram system tr2(L_a* L_b) over all D
    matrix units of M.  O(D^4) set-up; an oracle for M1Trace's closed forms."""

    def __init__(self, bc, markov):
        self.bc = bc
        self.weights = np.asarray(markov.trace_sub) / markov.beta
        self.units = bc.amb.units()
        self.ops = [bc.amb.left_op(u) for u in self.units]
        self.gram = np.array([[self.trace(a.conj().T @ b) for b in self.ops] for a in self.ops])

    def trace(self, mat):
        blocks = self.bc.m1_wedd.to_abstract(mat)
        return complex(sum(w * np.trace(b) for w, b in zip(self.weights, blocks)))

    def expect_onto_ambient(self, mat):
        coeff = np.linalg.solve(self.gram, [self.trace(op.conj().T @ mat) for op in self.ops])
        acc = self.bc.amb.zero()
        for c, u in zip(coeff, self.units):
            acc = acc + c * u
        return acc


@pytest.mark.parametrize(
    "build",
    [lambda: models.diagonal_in_matrix(3), lambda: models.explicit_pair((1, 2), [[1], [1]])],
    ids=["diag-in-m3", "c+m2-in-m3"],
)
def test_m1_from_abstract_matches_kron_form(build):
    # sum_p W_p C W_p* from one batched product per block, against W (1_m (x) C) W*
    wd = BasicConstruction(build().sub).m1_wedd
    rng = linalg.rng_from_seed(4)
    blocks = [rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k)) for k in wd.block_dims]
    ref = sum(w @ np.kron(np.eye(m), c) @ w.conj().T for w, m, c in zip(wd.isometries, wd.mults, blocks))
    assert np.abs(wd.from_abstract(blocks) - ref).max() <= 1e-12


# -- M1 in closed form against the right-operator route -----------------------
# V_i was an orthonormal basis of the range of the D x D operator R(e^i_00),
# and W_{i,p} = R(e^i_0p) V_i; the closed form reads both off N's blocks.


def oracle_isometries(bc):
    """The W_i through D x D right operators and D-row SVDs."""
    out = []
    for units in bc.sub_wedd.units:
        v = linalg.orthonormal_columns(bc.amb.right_op(units[0][0]))
        out.append(np.concatenate([bc.amb.right_op(u) @ v for u in units[0]], axis=1))
    return out


def _rotated_pair():
    rng = linalg.rng_from_seed(8)
    return models.explicit_pair((1, 2), [[1, 1], [1, 0]], unitaries=[linalg.random_unitary(n, rng) for n in (3, 1)])


ISOMETRY_MODELS = [
    ("diag-in-m3", lambda: models.diagonal_in_matrix(3)),
    ("c+m2-in-m3", lambda: models.explicit_pair((1, 2), [[1], [1]])),
    ("m2-in-m2+m2", lambda: models.explicit_pair((2,), [[1, 1]])),
    ("c+m2-in-m3+c-rotated", _rotated_pair),
    ("z4-over-z2-span", lambda: models.group_algebra_pair(GroupTable.cyclic(4), [0, 2])),
]


def check_isometries(sub):
    bc = BasicConstruction(sub)
    wd, ref = bc.m1_wedd, oracle_isometries(bc)
    assert wd.block_dims == tuple(r.shape[1] // m for r, m in zip(ref, wd.mults))
    for w, r in zip(wd.isometries, ref):
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
    # x = v 1^ read off v's blocks, against the D x D route through pushdown
    bc = BasicConstruction(build().sub)
    wd = bc.m1_wedd
    e_abs = wd.to_abstract(bc.e1)
    one = bc.amb.vec(bc.amb.identity())[:, None]
    rng = linalg.rng_from_seed(6)
    for _ in range(3):
        blocks = [(rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))) @ e for k, e in zip(wd.block_dims, e_abs)]
        assert max(linalg.operator_norm(c @ e - c) for c, e in zip(blocks, e_abs)) <= 1e-12
        got = bc.amb.unvec(wd.apply(blocks, one)[:, 0])
        want = bc.pushdown(wd.from_abstract(blocks))
        assert max(np.abs(a - b).max() for a, b in zip(got.blocks, want.blocks)) <= 1e-12


def test_m1_and_support_construction_form_no_gns_operators(monkeypatch):
    # M1's isometries take n_j-square SVDs only; the construction pushes down
    # from M1's blocks, so its D-row SVDs are f's norm, f's idempotency and
    # support_match, whatever the size of the family
    bc = BasicConstruction(models.diagonal_in_matrix(3).sub)
    d, rows, svd = bc.gns_dim, [], np.linalg.svd

    def spy(a, *args, **kwargs):
        rows.append(np.shape(a)[-2])
        return svd(a, *args, **kwargs)

    def forbidden(*args, **kwargs):
        raise AssertionError("no D x D right operator and no pushdown")

    monkeypatch.setattr(np.linalg, "svd", spy)
    monkeypatch.setattr(MultiMatrixAlgebra, "right_op", forbidden)
    monkeypatch.setattr(BasicConstruction, "pushdown", forbidden)
    bc.m1_wedd
    assert rows and d not in rows
    for f, size in ((bc.e1, 1), (np.eye(d), 3)):
        rows.clear()
        assert construct_system_with_support(f, bc).size == size
        assert rows.count(d) == 3


@pytest.mark.parametrize("mode", ["general", "orthogonal", "orthonormal-padded"])
@pytest.mark.parametrize("build", [b for _, b in ISOMETRY_MODELS], ids=[n for n, _ in ISOMETRY_MODELS])
def test_support_match_on_e1_one_and_central_projections(build, mode):
    bc = BasicConstruction(build().sub)
    supports = [bc.e1, np.eye(bc.gns_dim)] + [w @ w.conj().T for w in bc.m1_wedd.isometries]
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
    """T = L_x e1 L_y + L_z for random x, y, z in M: a generic element of M1."""
    amb = bc.amb
    x, y, z = (amb.random_element(rng) for _ in range(3))
    return amb.left_op(x) @ bc.e1 @ amb.left_op(y) + amb.left_op(z)


@pytest.mark.parametrize("build", [b for _, b in MARKOV_MODELS], ids=[n for n, _ in MARKOV_MODELS])
def test_markov_extension_matches_gram_oracle(build):
    bc = BasicConstruction(build().sub)
    mk = markov_of(bc)
    tr2, ref = bc.markov_extension(mk), GramM1Trace(bc, mk)
    rng = linalg.rng_from_seed(13)
    for t in [np.eye(bc.gns_dim), bc.e1] + [_random_m1(bc, rng) for _ in range(3)]:
        assert abs(tr2.trace(t) - ref.trace(t)) <= 1e-12
        assert (tr2.expect_onto_ambient(t) - ref.expect_onto_ambient(t)).norm() <= 1e-12


@pytest.mark.parametrize("build", [b for _, b in MARKOV_MODELS], ids=[n for n, _ in MARKOV_MODELS])
def test_markov_expectation_is_a_bimodule_projection(build):
    bc = BasicConstruction(build().sub)
    amb = bc.amb
    tr2 = bc.markov_extension(markov_of(bc))
    rng = linalg.rng_from_seed(17)
    for _ in range(3):
        t = _random_m1(bc, rng)
        a, b, x = (amb.random_element(rng) for _ in range(3))
        scale = 1.0 + linalg.operator_norm(t)
        et = tr2.expect_onto_ambient(t)
        # E(L_a T L_b) = a E(T) b
        got = tr2.expect_onto_ambient(amb.left_op(a) @ t @ amb.left_op(b))
        assert (got - a * et * b).norm() <= 1e-10 * scale * (1.0 + a.op_norm()) * (1.0 + b.op_norm())
        # tr2(L_{E(T)}) = tr2(T)
        assert abs(tr2.trace(amb.left_op(et)) - tr2.trace(t)) <= 1e-10 * scale
        # E(L_x) = x
        assert (tr2.expect_onto_ambient(amb.left_op(x)) - x).norm() <= 1e-10 * (1.0 + x.op_norm())


def test_markov_extension_builds_no_left_operators(monkeypatch):
    bc = BasicConstruction(models.diagonal_in_matrix(3).sub)
    amb = bc.amb
    t = _random_m1(bc, linalg.rng_from_seed(19))
    x = amb.random_element(linalg.rng_from_seed(20))
    bc.m1_wedd  # M1's block structure is paid before counting
    calls = []
    real = MultiMatrixAlgebra.left_op

    def counting(self, y):
        calls.append(y)
        return real(self, y)

    monkeypatch.setattr(MultiMatrixAlgebra, "left_op", counting)
    tr2 = bc.markov_extension(markov_of(bc))
    tr2.trace(t)
    tr2.expect_onto_ambient(t)
    tr2.expect_onto_ambient(bc.e1)
    monkeypatch.undo()
    assert calls == []
    assert tr2.expect_onto_ambient(amb.left_op(x)).allclose(x, tol=1e-10)


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


def test_watatani_independent_of_basis_choice():
    # two different two-sided bases of the same inclusion agree on the index
    mp = models.diagonal_in_matrix(2)
    bc = BasicConstruction(mp.sub)
    basis1 = scalar_basis(mp.ambient)  # over scalars, size 4: not what we want
    del basis1
    from ppbasis import complete_to_basis, construct_system_with_support

    sys1 = complete_to_basis(construct_system_with_support(bc.e1, bc), bc)
    w1 = watatani_index(sys1.elements)
    # rotate by a unitary of N: lambda_i -> lambda_i u stays a basis
    u = mp.ambient.element([np.diag([1.0, -1.0])])
    sys2 = classify([lam * u for lam in sys1.elements], mp.sub, side="right", bc=bc)
    assert sys2.flags["basis"]
    w2 = watatani_index(sys2.elements)
    assert (w1.element - w2.element).norm() < 1e-9
    assert abs(w1.scalar - 2.0) < 1e-8 and abs(w2.scalar - 2.0) < 1e-8
