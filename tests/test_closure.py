"""The regular pipeline's structure against its oracles.

The Krylov closure of ``Subalgebra.generated``, the closed-form matrix units
of N' cap M and of R = N v (N' cap M), and the coset count that skips both
closures of the pipeline (R with the representatives, R with the normalizers)
are checked against the brute-force span closure, the product pass they
replaced, the closures themselves (the regular flag against the closure from N
and the normalizers, also on the selftest's pipeline scenarios) and the
nullspace of ``relative_commutant``; the batched commutator stack of
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
    linalg,
    markov_trace,
    models,
    regular_pipeline,
    relative_commutant,
    wedderburn,
)
from ppbasis.errors import AlgebraError, NonConnected
from ppbasis.scenarios import build_model, selftest_corpus
import oracles
from oracles import left_op, rank, right_op, roundtrip_residual, to_abstract
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
    maps = [left_op(amb, b) - right_op(amb, b) for b in sub.basis_elements()]
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
    for d, t, units in zip(wd.block_dims, wd.block_traces, oracles.units(wd)):
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
    wd = wd_n.commutant
    lam = wd_n.lam
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
    except AlgebraError as exc:  # NonConnected
        return type(exc).__name__
    return rep.flags, rep.numbers["beta"], rep.numbers["dim_commutant"], rep.numbers["reps"]


def check_seeded_units(sub, candidates=(), seed=0):
    """The units N keeps against ``wedderburn`` of a span-only copy at ``seed``: the
    same (block dim, trace) multiset, valid units, the same inclusion matrix up to
    block order and the same pipeline verdict; the copy's row-0 check against the
    d^4 oracle (``check_row_residual``)."""
    wd = sub.wedderburn_data(seed)
    assert sub.wedderburn_data(seed + 3) is wd
    copy = Subalgebra(sub.ambient, sub.mat)
    ref = wedderburn(copy, seed=seed)
    check_row_residual(copy, ref, sub.ambient.random_element(linalg.rng_from_seed(seed)))
    got, want = sorted(zip(wd.block_dims, wd.block_traces)), sorted(zip(ref.block_dims, ref.block_traces))
    assert [d for d, _ in got] == [d for d, _ in want]
    assert max(abs(t - u) for (_, t), (_, u) in zip(got, want)) <= TOL
    check_matrix_units(wd)
    assert sorted(map(tuple, wd.lam)) == sorted(map(tuple, ref.lam))
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
    # the pipeline runs the closures P = <R, reps> and <R, normalizers> only when
    # |reps| dim R < dim M; otherwise it takes e_P = 1 and runs none.  The closure P,
    # kept here as the oracle, gives the same support_equals_eP flag and residual
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
    assert len(closures) == (0 if settled else 2)
    ep = Subalgebra.generated(amb, list(r_alg.basis_elements()) + list(rep.reps)).projection_matrix()
    # the dense support W W* over R, W = [L_i Q_R], is the reference; the coset system keeps its blocks
    w = amb.products(np.stack([amb.vec(u) for u in rep.reps], axis=1), r_alg.mat)
    support = w @ w.conj().T
    m1 = r_alg.wedderburn_data().m1
    assert roundtrip_residual(m1, support) <= TOL
    for got, want in zip(rep.coset.support["right"], to_abstract(m1, support)):
        assert np.abs(got - want).max() <= TOL
    res = linalg.operator_norm(support - ep)
    assert abs(rep.numbers["support_eP_residual"] - res) <= TOL
    assert rep.flags["support_equals_eP"] == (res <= linalg.EPS_FLAG * (1.0 + linalg.operator_norm(ep)))
    assert rep.flags["support_equals_eP"] == settled


# the pipeline models and the selftest scenarios that run the pipeline, each built as (pair, seed)
REGULARITY_CASES = [(name, lambda build=build: (build(), 0)) for name, build in PIPELINE_MODELS] + [
    ("selftest-" + d["name"], lambda d=d: (build_model(d["model"], seed=d["seed"]), d["seed"]))
    for d in selftest_corpus()
    if any(task["task"] == "regular_pipeline" for task in d["tasks"])
]


@pytest.mark.parametrize("build", [b for _, b in REGULARITY_CASES], ids=[n for n, _ in REGULARITY_CASES])
def test_regular_flag_matches_the_closure_from_n(build):
    # the closure from N and the normalizers, which the pipeline ran before it read
    # regularity off the coset count, is the oracle of the regular flag
    mp, seed = build()
    try:
        rep = regular_pipeline(mp.sub, candidates=mp.candidates, seed=seed)
    except NonConnected:  # z2-in-z2xz2: the chain stops at the Markov trace
        return
    rejected = {idx for idx, _ in rep.rejected}
    normalizers = [u for idx, u in enumerate(mp.candidates) if idx not in rejected]
    gen = Subalgebra.generated(mp.ambient, list(mp.sub.basis_elements()) + normalizers)
    assert rep.flags["regular"] == (gen.dim == mp.ambient.dim)


@pytest.mark.parametrize("build", [b for _, b in PIPELINE_MODELS], ids=[n for n, _ in PIPELINE_MODELS])
def test_pipeline_runs_no_closure_when_the_cosets_fill_m(monkeypatch, build):
    # on every pipeline model the coset representatives fill M, which shows that N is
    # regular: Subalgebra.generated is never called
    mp = build()

    def closure(cls, amb, elements):
        raise AssertionError("Subalgebra.generated was called")

    monkeypatch.setattr(Subalgebra, "generated", classmethod(closure))
    try:
        rep = regular_pipeline(mp.sub, candidates=mp.candidates)
    except NonConnected:  # z2-in-z2xz2: the chain stops at the Markov trace
        return
    assert len(rep.reps) * rep.r_algebra.dim == mp.ambient.dim
    assert all(rep.flags.values())


@pytest.mark.parametrize("name, build", PIPELINE_MODELS, ids=[n for n, _ in PIPELINE_MODELS])
def test_seeded_units_match_wedderburn(name, build):
    # N keeps units when an embedding or a crossed product built it; C[H] is a span,
    # decomposed at the seed of its first call, so each seed takes a fresh build
    for seed in range(5):
        mp = build()
        assert (mp.sub._wedd is not None) == name.startswith(("diag", "crossed", "m2-in"))
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
        "crossed-diag-3": (diag3, GroupTable.cyclic(3), Automorphism.cyclic_shifts(diag3)),
        "z6-over-e": (point, GroupTable.cyclic(6), [Automorphism.identity(point)] * 6),
        "m2-trivial-z2": (m2, GroupTable.cyclic(2), [Automorphism.identity(m2)] * 2),
    }


@pytest.mark.parametrize("name", sorted(_covariance_spans()))
def test_batched_commutant_on_covariance_spans(name):
    span = CrossedProductModel(*_covariance_spans()[name]).span
    centre = relative_commutant(span, within=span)
    assert projection_gap(centre, relative_commutant_oracle(span, within=span)) <= TOL
    assert projection_gap(relative_commutant(span), relative_commutant_oracle(span)) <= TOL


def test_no_gns_operator_inside_commutant_and_wedderburn():
    # the commutator stack and the unit check are batched products: the dense
    # left_op/right_op are test oracles (tests/oracles.py), so nothing inside
    # relative_commutant or wedderburn, or C[Z16] or crossed_product_diag(6) built
    # inside M_|G|(B), can form one
    assert not any(hasattr(MultiMatrixAlgebra, name) for name in ("left_op", "right_op"))
    models.group_algebra_pair(GroupTable.cyclic(16), [0])
    models.crossed_product_diag(6)
    subs = [models.diagonal_in_matrix(4).sub, models.two_block_over_factor().sub, models.group_algebra_pair(_klein(), [0, 1]).sub]
    for sub in subs:
        span = Subalgebra(sub.ambient, sub.mat)
        relative_commutant(span)
        relative_commutant(span, within=span)
        wedderburn(span)


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
    assert mp.sub._wedd is not None
    for seed in range(5):
        check_seeded_units(mp.sub, seed=seed)
    assert projection_gap(relative_commutant(mp.sub), relative_commutant_oracle(mp.sub)) <= TOL


@settings(max_examples=25)
@given(connected_pairs())
def test_drawn_e1_rank_and_perron_residual(mp):
    # rank e1 = dim N, and the Markov trace solves Lambda^T Lambda t = beta t to EPS_REL beta
    wd = mp.sub.wedderburn_data()
    bc = BasicConstruction(mp.sub)  # e1's block C_i occurs m_i times in M1
    assert sum(m * rank(c) for m, c in zip(bc.m1_wedd.mults, bc.e1)) == mp.sub.dim
    lam = wd.lam
    md = markov_trace(lam, wd.block_dims)
    assert np.linalg.norm(lam.T @ lam @ md.trace_amb - md.beta * md.trace_amb) <= linalg.EPS_REL * md.beta
