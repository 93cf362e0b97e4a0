"""The regular pipeline's structure against its oracles.

The Krylov closure of ``Subalgebra.generated``, the closed-form matrix units
of N' cap M and of R = N v (N' cap M), and the count that skips the closure
of R with the coset representatives are checked against the brute-force span
closure, the product pass they replaced, the closure itself and the nullspace
of ``relative_commutant``; the batched commutator stack of
``relative_commutant`` against the per-element GNS operators it replaced; and
the matrix units a model-built N keeps against ``wedderburn`` of a span-only
copy at seeds 0-4, whose row-0 unit check meets the d^4 loop it replaced.  All
run on the benchmark's pipeline models and on drawn explicit inclusions; the
draws also check rank e1 = dim N and the Perron residual of ``markov_trace``.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ppbasis import (
    Automorphism,
    BasicConstruction,
    CrossedProductModel,
    GroupTable,
    MultiMatrixAlgebra,
    Subalgebra,
    inclusion_matrix,
    linalg,
    markov_trace,
    models,
    regular_pipeline,
    relative_commutant,
    wedderburn,
)
from ppbasis.algebra import commutant_wedderburn
from ppbasis.errors import AlgebraError, NonConnected
from test_algebra import check_row_residual

TOL = 1e-12


def generated_oracle(ambient, elements):
    """The span closure ``Subalgebra.generated`` used before the Krylov closure:
    every round forms all pairwise products of the current basis."""
    work = [ambient.identity()]
    work.extend(elements)
    work.extend(e.adjoint() for e in elements)
    mat = linalg.orthonormal_columns(np.stack([e.vec() for e in work], axis=1))
    for _ in range(ambient.gns_dim + 1):
        basis = [ambient.unvec(mat[:, i]) for i in range(mat.shape[1])]
        prods = [a * b for a in basis for b in basis]
        cols = np.concatenate([mat, np.stack([p.vec() for p in prods], axis=1)], axis=1)
        new = linalg.orthonormal_columns(cols)
        if new.shape[1] == mat.shape[1]:
            return Subalgebra(ambient, new)
        mat = new
    raise AssertionError("span closure failed to stabilize")


def relative_commutant_oracle(sub, within=None):
    """``relative_commutant`` as it was before the batched commutator stack:
    one dense left_op - right_op operator on the GNS space per basis element."""
    amb = sub.ambient
    maps = [amb.left_op(b) - amb.right_op(b) for b in sub.basis_elements()]
    if within is None:
        ker = linalg.nullspace(np.vstack(maps))
        return Subalgebra(amb, linalg.orthonormal_columns(ker))
    stacked = np.vstack([m @ within.mat for m in maps])
    coeff = linalg.nullspace(stacked)
    return Subalgebra(amb, linalg.orthonormal_columns(within.mat @ coeff))


def _klein():
    z2 = GroupTable.cyclic(2)
    return GroupTable.direct_product(z2, z2)


# the fifteen inclusions of the benchmark's pipeline workload
PIPELINE_MODELS = [
    *(("diag-in-m%d" % k, lambda k=k: models.diagonal_in_matrix(k)) for k in (2, 3, 4, 5)),
    *(("z%d-over-e" % n, lambda n=n: models.group_algebra_pair(GroupTable.cyclic(n), [0])) for n in (2, 3, 4, 6, 8)),
    ("z2xz2-over-e", lambda: models.group_algebra_pair(_klein(), [0])),
    *(("crossed-diag-%d" % k, lambda k=k: models.crossed_product_diag(k)) for k in (2, 3, 4)),
    ("m2-in-m2+m2", models.two_block_over_factor),
    ("z2-in-z2xz2", lambda: models.group_algebra_pair(_klein(), [0, 1])),
]


def projection_gap(a, b):
    return linalg.operator_norm(a.projection_matrix() - b.projection_matrix())


def check_matrix_units(wd):
    """Matrix-unit relations and block traces of ``wd`` within 1e-12, with the
    u_pp of all blocks summing to 1; every unit lies in the subalgebra."""
    amb = wd.subalgebra.ambient
    unit_sum = amb.zero()
    for d, t, units in zip(wd.block_dims, wd.block_traces, wd.units):
        for p in range(d):
            unit_sum = unit_sum + units[p][p]
            assert abs(units[p][p].trace().real - t) <= TOL
            for q in range(d):
                assert (units[p][q].adjoint() - units[q][p]).norm() <= TOL
                for r in range(d):
                    for s in range(d):
                        want = units[p][s] if q == r else amb.zero()
                        assert (units[p][q] * units[r][s] - want).norm() <= TOL
                assert wd.subalgebra.residual(units[p][q]) <= TOL
    assert (unit_sum - amb.identity()).norm() <= TOL


def check_commutant_units(sub):
    """The closed-form units of N' cap M: relations, dimension and trace."""
    wd_n = sub.wedderburn_data(0)
    wd = commutant_wedderburn(wd_n)
    lam = inclusion_matrix(wd_n)
    assert sorted(wd.block_dims) == sorted(int(x) for x in lam.reshape(-1) if x)
    assert wd.subalgebra.dim == int(np.sum(lam ** 2))
    check_matrix_units(wd)
    q = wd.subalgebra.mat
    assert np.abs(q.conj().T @ q - np.eye(q.shape[1])).max() <= TOL
    return wd.subalgebra


def _pipeline_numbers(sub, candidates, seed):
    """The pipeline's flags, beta, dim N' cap M and |reps|, or the name of its error."""
    try:
        rep = regular_pipeline(sub, candidates=candidates, seed=seed)
    except AlgebraError as exc:  # NonConnected, or a trace under which N' cap M gives no basis
        return type(exc).__name__
    return rep.flags, rep.numbers["beta"], rep.numbers["dim_commutant"], rep.numbers["reps"]


def check_seeded_units(sub, candidates=(), seed=0):
    """The units N keeps against ``wedderburn`` of a span-only copy at ``seed``: the
    same (block dim, trace) multiset, valid units, the same inclusion matrix up to
    block order and the same pipeline verdict; the copy's row-0 check against the
    d^4 oracle (``check_row_residual``)."""
    wd = sub.wedderburn_data(seed)
    if sub._units is not None:
        assert sub.wedderburn_data(seed + 3) is wd
    copy = Subalgebra(sub.ambient, sub.mat)
    ref = wedderburn(copy, seed=seed)
    check_row_residual(copy, ref, sub.ambient.random_element(linalg.rng_from_seed(seed)))
    got, want = sorted(zip(wd.block_dims, wd.block_traces)), sorted(zip(ref.block_dims, ref.block_traces))
    assert [d for d, _ in got] == [d for d, _ in want]
    assert max(abs(t - u) for (_, t), (_, u) in zip(got, want)) <= TOL
    check_matrix_units(wd)
    assert sorted(map(tuple, inclusion_matrix(wd))) == sorted(map(tuple, inclusion_matrix(ref)))
    got, want = _pipeline_numbers(sub, candidates, seed), _pipeline_numbers(copy, candidates, seed)
    assert type(got) is type(want)
    if isinstance(got, str):
        assert got == want
    else:
        assert got[0] == want[0] and got[2:] == want[2:] and abs(got[1] - want[1]) <= TOL


def check_against_oracles(sub, candidates=()):
    amb = sub.ambient
    comm = check_commutant_units(sub)
    assert projection_gap(comm, relative_commutant(sub)) <= TOL
    n_basis = list(sub.basis_elements())
    r_alg = Subalgebra(amb, linalg.orthonormal_columns(amb.products(sub.mat, comm.mat)))
    r_oracle = generated_oracle(amb, n_basis + list(comm.basis_elements()))
    assert projection_gap(r_alg, r_oracle) <= TOL
    for elements in (n_basis + list(candidates), list(r_alg.basis_elements()) + list(candidates)):
        gen = Subalgebra.generated(amb, elements)
        assert projection_gap(gen, generated_oracle(amb, elements)) <= TOL
        assert np.abs(gen.mat.conj().T @ gen.mat - np.eye(gen.dim)).max() <= TOL
    return comm, r_alg


@pytest.mark.parametrize("build", [b for _, b in PIPELINE_MODELS], ids=[n for n, _ in PIPELINE_MODELS])
def test_pipeline_structure_matches_oracles(build):
    mp = build()
    comm, r_alg = check_against_oracles(mp.sub, mp.candidates)
    try:
        rep = regular_pipeline(mp.sub, candidates=mp.candidates)
    except NonConnected:  # z2-in-z2xz2: the chain stops at the Markov trace
        return
    assert projection_gap(rep.commutant, comm) <= TOL
    assert projection_gap(rep.r_algebra, r_alg) <= TOL
    check_matrix_units(rep.r_algebra.wedderburn_data())  # R's closed-form units, kept on R


def _two_shifts():
    mp = models.diagonal_in_matrix(4)
    mp.candidates = mp.candidates[:2]  # 2 cosets of 4: the count falls short and the closure runs
    return mp


@pytest.mark.parametrize(
    "build", [b for _, b in PIPELINE_MODELS] + [_two_shifts], ids=[n for n, _ in PIPELINE_MODELS] + ["diag-in-m4-two-shifts"]
)
def test_coset_support_matches_the_closure(monkeypatch, build):
    # the pipeline runs the closure P = <R, reps> only when |reps| dim R < dim M;
    # otherwise it takes e_P = 1.  The closure, kept here as the oracle, gives the
    # same support_equals_eP flag and residual
    mp = build()
    closures = []
    original = Subalgebra.generated.__func__

    def counting(cls, amb, elements):
        closures.append(len(elements))
        return original(cls, amb, elements)

    monkeypatch.setattr(Subalgebra, "generated", classmethod(counting))
    try:
        rep = regular_pipeline(mp.sub, candidates=mp.candidates)
    except NonConnected:  # z2-in-z2xz2: the chain stops at the Markov trace
        return
    monkeypatch.undo()
    amb, r_alg = mp.ambient, rep.r_algebra
    settled = len(rep.reps) * r_alg.dim == amb.dim
    assert len(closures) == (1 if settled else 2)
    ep = Subalgebra.generated(amb, list(r_alg.basis_elements()) + list(rep.reps)).projection_matrix()
    res = linalg.operator_norm(rep.coset.support["right"] - ep)
    assert abs(rep.numbers["support_eP_residual"] - res) <= TOL
    assert rep.flags["support_equals_eP"] == (res <= linalg.EPS_FLAG * (1.0 + linalg.operator_norm(ep)))
    assert rep.flags["support_equals_eP"] == settled


@pytest.mark.parametrize("name, build", PIPELINE_MODELS, ids=[n for n, _ in PIPELINE_MODELS])
def test_seeded_units_match_wedderburn(name, build):
    # N keeps units when an embedding or a crossed product built it; C[H] is a span,
    # decomposed at the seed of its first call, so each seed takes a fresh build
    for seed in range(5):
        mp = build()
        assert (mp.sub._units is not None) == name.startswith(("diag", "crossed", "m2-in"))
        check_seeded_units(mp.sub, mp.candidates, seed)


@pytest.mark.parametrize("build", [b for _, b in PIPELINE_MODELS], ids=[n for n, _ in PIPELINE_MODELS])
def test_batched_commutant_matches_operator_oracle(build):
    sub = build().sub
    assert projection_gap(relative_commutant(sub), relative_commutant_oracle(sub)) <= TOL
    assert projection_gap(relative_commutant(sub, within=sub), relative_commutant_oracle(sub, within=sub)) <= TOL


def _covariance_spans():
    diag3 = MultiMatrixAlgebra((1,) * 3, (1.0 / 3,) * 3)
    point = MultiMatrixAlgebra((1,), (1.0,))
    m2 = MultiMatrixAlgebra((2,), (0.5,))
    return {
        "crossed-diag-3": (diag3, GroupTable.cyclic(3), [Automorphism(diag3, perm=[(j - g) % 3 for j in range(3)]) for g in range(3)]),
        "z6-over-e": (point, GroupTable.cyclic(6), [Automorphism.identity(point)] * 6),
        "m2-trivial-z2": (m2, GroupTable.cyclic(2), [Automorphism.identity(m2)] * 2),
    }


@pytest.mark.parametrize("name", sorted(_covariance_spans()))
def test_batched_commutant_on_covariance_spans(name):
    span = CrossedProductModel(*_covariance_spans()[name]).op_span
    centre = relative_commutant(span, within=span)
    assert projection_gap(centre, relative_commutant_oracle(span, within=span)) <= TOL
    assert projection_gap(relative_commutant(span), relative_commutant_oracle(span)) <= TOL


def test_no_gns_operator_inside_commutant_and_wedderburn(monkeypatch):
    # the commutator stack and the unit check are batched products: no
    # left_op/right_op inside relative_commutant or wedderburn, and none on
    # the operator algebra of Z16 over {e} (one 16 x 16 block) at all
    calls = []
    for name in ("left_op", "right_op"):
        orig = getattr(MultiMatrixAlgebra, name)
        monkeypatch.setattr(
            MultiMatrixAlgebra, name, lambda self, x, orig=orig, name=name: calls.append((name, self.dims)) or orig(self, x)
        )
    models.group_algebra_pair(GroupTable.cyclic(16), [0])
    assert calls and all(dims != (16,) for _, dims in calls)
    subs = [models.diagonal_in_matrix(4).sub, models.two_block_over_factor().sub, models.group_algebra_pair(_klein(), [0, 1]).sub]
    calls.clear()
    for sub in subs:
        span = Subalgebra(sub.ambient, sub.mat)
        relative_commutant(span)
        relative_commutant(span, within=span)
        wedderburn(span)
    assert calls == []


def test_generated_from_nothing_is_the_scalars():
    amb = models.diagonal_in_matrix(3).ambient
    gen = Subalgebra.generated(amb, [])
    assert gen.dim == 1
    assert projection_gap(gen, generated_oracle(amb, [])) <= TOL


@st.composite
def connected_pairs(draw):
    """Connected explicit inclusions: Lambda at most 3 x 3 with entries at most 2,
    the Markov trace or a random faithful one, and random block unitaries."""
    rows = draw(st.integers(1, 3))
    cols = draw(st.integers(1, 3))
    lam = np.array(draw(st.lists(st.integers(0, 2), min_size=rows * cols, max_size=rows * cols))).reshape(rows, cols)
    dims = tuple(draw(st.lists(st.integers(1, 2), min_size=rows, max_size=rows)))
    amb_dims = lam.T @ np.asarray(dims)
    assume(np.all(lam.sum(axis=1)) and np.all(amb_dims) and np.sum(amb_dims ** 2) <= 40)
    try:
        markov_trace(lam, dims)
    except NonConnected:
        assume(False)
    rng = linalg.rng_from_seed(draw(st.integers(0, 2 ** 16)))
    if draw(st.booleans()):
        trace = "markov"
    else:
        w = rng.uniform(0.2, 1.0, cols)
        trace = w / float(amb_dims @ w)
    unitaries = [linalg.random_unitary(int(n), rng) for n in amb_dims]
    return models.explicit_pair(dims, lam, trace=trace, unitaries=unitaries)


@settings(max_examples=25)
@given(connected_pairs())
def test_drawn_inclusions_match_oracles(mp):
    check_against_oracles(mp.sub)


@settings(max_examples=25)
@given(connected_pairs())
def test_drawn_seeded_units_match_wedderburn(mp):
    assert mp.sub._units is not None
    for seed in range(5):
        check_seeded_units(mp.sub, seed=seed)
    assert projection_gap(relative_commutant(mp.sub), relative_commutant_oracle(mp.sub)) <= TOL


@settings(max_examples=25)
@given(connected_pairs())
def test_drawn_e1_rank_and_perron_residual(mp):
    # rank e1 = dim N, and the Markov trace solves Lambda^T Lambda t = beta t to EPS_REL beta
    wd = mp.sub.wedderburn_data()
    assert linalg.rank(BasicConstruction(mp.sub).e1) == mp.sub.dim
    lam = inclusion_matrix(wd)
    md = markov_trace(lam, wd.block_dims)
    assert np.linalg.norm(lam.T @ lam @ md.trace_amb - md.beta * md.trace_amb) <= linalg.EPS_REL * md.beta
