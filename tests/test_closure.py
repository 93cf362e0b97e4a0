"""The regular pipeline's structure against its oracles.

The Krylov closure of ``Subalgebra.generated``, the product pass that gives
R = N v (N' cap M) and the closed-form matrix units of N' cap M are checked
against the brute-force span closure they replaced and against the nullspace
of ``relative_commutant``, on the benchmark's pipeline models and on drawn
explicit inclusions.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ppbasis import (
    GroupTable,
    Subalgebra,
    inclusion_matrix,
    linalg,
    markov_trace,
    models,
    regular_pipeline,
    relative_commutant,
)
from ppbasis.algebra import commutant_wedderburn
from ppbasis.errors import NonConnected

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


def check_commutant_units(sub):
    """The closed-form units of N' cap M: relations, dimension and trace."""
    wd_n = sub.wedderburn_data(0)
    wd = commutant_wedderburn(wd_n)
    lam = inclusion_matrix(wd_n)
    amb = sub.ambient
    assert sorted(wd.block_dims) == sorted(int(x) for x in lam.reshape(-1) if x)
    assert wd.subalgebra.dim == int(np.sum(lam ** 2))
    unit_sum = amb.zero()
    for d, t, units, z in zip(wd.block_dims, wd.block_traces, wd.units, wd.central_projections):
        block_sum = amb.zero()
        for p in range(d):
            block_sum = block_sum + units[p][p]
            assert abs(units[p][p].trace().real - t) <= TOL
            for q in range(d):
                assert (units[p][q].adjoint() - units[q][p]).norm() <= TOL
                for r in range(d):
                    for s in range(d):
                        want = units[p][s] if q == r else amb.zero()
                        assert (units[p][q] * units[r][s] - want).norm() <= TOL
        assert (block_sum - z).norm() <= TOL
        unit_sum = unit_sum + z
    assert (unit_sum - amb.identity()).norm() <= TOL
    q = wd.subalgebra.mat
    assert np.abs(q.conj().T @ q - np.eye(q.shape[1])).max() <= TOL
    return wd.subalgebra


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


@settings(max_examples=25, derandomize=True, deadline=None)
@given(connected_pairs())
def test_drawn_inclusions_match_oracles(mp):
    check_against_oracles(mp.sub)
