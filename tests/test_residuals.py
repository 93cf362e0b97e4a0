"""The batched subalgebra tests against the per-element loops they replaced.

``Subalgebra.residuals`` projects coordinate columns once; the normalizer,
intermediate, membership and closure tests read it, and the commuting-square
and Watatani centrality tests are batched expressions on the stacked matrix
units.  Each old loop body is kept here as the oracle of its site, run on the
benchmark's pipeline models, the masa and degenerate quadruples, the pair of
mutually unbiased MASAs of M5 and a noncommuting pair of MASAs of M3.  The element traffic of ``classify`` and
``coset_system``, ``op_norm``'s stacked norm, the centre-free ``wedderburn`` and its
retry on a non-generic draw, and the typed rejection of foreign families are pinned too.
"""

import functools
import itertools

import numpy as np
import pytest
from test_closure import PIPELINE_MODELS

from ppbasis import (
    GroupTable,
    MultiMatrixAlgebra,
    Subalgebra,
    algebra,
    classify,
    coset_system,
    gram_matrix,
    linalg,
    models,
    scalar_basis,
    wedderburn,
)
from ppbasis.algebra import AlgebraElement, commutant_wedderburn
from ppbasis.basic import watatani_index
from ppbasis.errors import DegenerateSpectrum, InvalidInput, NotABasis, NotSubalgebra
from ppbasis.intermediate import check_intermediate, is_commuting_square
from ppbasis.regular import normalizer_residual
from ppbasis.systems import require_basis

TOL = 1e-12


# ---------------------------------------------------------------- the old loops


def residual_oracle(sub, x):
    """``Subalgebra.residual`` before the kernel: the GNS norm of x - E(x), through elements."""
    return (x - sub.expect(x)).norm()


def normalizer_oracle(u, sub):
    ua = u.adjoint()
    worst = 0.0
    for x in sub.basis_elements():
        worst = max(worst, residual_oracle(sub, u * x * ua))
    return worst


def intermediate_oracle(sub, mid):
    res = 0.0
    for x in sub.basis_elements():
        res = max(res, residual_oracle(mid, x))
    return res


def commuting_square_oracle(n_sub, p_sub, q_sub):
    worst = 0.0
    for u in p_sub.ambient.units():
        en = n_sub.expect(u)
        worst = max(
            worst,
            (p_sub.expect(q_sub.expect(u)) - en).norm(),
            (q_sub.expect(p_sub.expect(u)) - en).norm(),
        )
    return worst


def centrality_oracle(elements):
    """The largest GNS norm of [sum lambda lambda*, e] over the matrix units e, and the scale 1 + ||sum||."""
    alg = elements[0].alg
    acc = alg.zero()
    for lam in elements:
        acc = acc + lam * lam.adjoint()
    return max(((acc * u) - (u * acc)).norm() for u in alg.units()), 1.0 + acc.op_norm()


def membership_oracle(elements, target, tol, label):
    """The message of ``require_basis``'s membership test, or None when every element passes."""
    for k, x in enumerate(elements):
        res = residual_oracle(target, x)
        if res > tol:
            return "%s element %d leaves its algebra (residual %.3g)" % (label, k, res)
    return None


def closure_oracle(sub):
    """Whether ``_verify_closure`` accepted the span before the kernel."""
    basis = sub.basis_elements()
    worst = residual_oracle(sub, sub.ambient.identity())
    for e in basis:
        worst = max(worst, residual_oracle(sub, e.adjoint()))
    for a in basis:
        for b in basis:
            worst = max(worst, residual_oracle(sub, a * b))
    return worst <= linalg.EPS_REL


# ---------------------------------------------------------------- the cases


def _pipeline_case(build):
    """N, N' cap M and R of a pipeline model, with its candidates as elements."""
    mp = build()
    amb = mp.ambient
    comm = commutant_wedderburn(mp.sub.wedderburn_data(0)).subalgebra
    r_alg = Subalgebra(amb, linalg.orthonormal_columns(amb.products(mp.sub.mat, comm.mat)))
    return [mp.sub, comm, r_alg], list(mp.candidates)


def _quadruple_case(build):
    q = build()
    elements = [x for bases in (q.bases_p, q.bases_q) for basis in bases for x in basis]
    return [q.n_sub, q.p_sub, q.q_sub], elements


def _m5_masa_case():
    """The scalars, the diagonal and its Fourier transform in M5, with the
    trace-scaled diagonal units and the shifts as elements."""
    amb = models.scalar_in_full(5).ambient
    units = [amb.unit(0, i, i) for i in range(5)]
    shift = np.roll(np.eye(5), 1, axis=0)
    shifts = [amb.element([np.linalg.matrix_power(shift, j)]) for j in range(5)]
    scalars = Subalgebra.span(amb, [amb.identity()], check=False)
    diag = Subalgebra.span(amb, units, check=False)
    fourier = Subalgebra.span(amb, shifts, check=False)
    return [scalars, diag, fourier], [np.sqrt(5.0) * e for e in units] + shifts


def _m3_rotated_masa_case():
    """The scalars, the diagonal of M3 and a random rotation of it, which do not
    commute: the two orders of the commuting-square test give different residuals."""
    amb = models.scalar_in_full(3).ambient
    u = amb.element([linalg.random_unitary(3, linalg.rng_from_seed(3))])
    units = [amb.unit(0, i, i) for i in range(3)]
    rotated = [x.conj_by(u) for x in units]
    subs = [Subalgebra.span(amb, family, check=False) for family in ([amb.identity()], units, rotated)]
    return subs, [np.sqrt(3.0) * x for x in rotated] + [u]


CASES = {
    **{name: (lambda build=build: _pipeline_case(build)) for name, build in PIPELINE_MODELS},
    "masa-quadruple": lambda: _quadruple_case(models.masa_quadruple),
    "degenerate-quadruple": lambda: _quadruple_case(models.degenerate_quadruple),
    "m5-masa-pair": _m5_masa_case,
    "m3-rotated-masa-pair": _m3_rotated_masa_case,
}


@functools.cache
def _case(name):
    """The subalgebras and elements of a case, built once and shared read-only."""
    subs, elements = CASES[name]()
    return tuple(subs), tuple(elements)


def _families(subs, elements):
    """Each subalgebra's basis, the elements, and the first basis followed by each element."""
    bases = [list(s.basis_elements()) for s in subs]
    return bases + [list(elements)] + [bases[0] + [x] for x in elements]


@pytest.mark.parametrize("name", sorted(CASES))
def test_normalizer_residual_matches_loop(name):
    subs, elements = _case(name)
    for u in elements + (subs[0].ambient.identity(),):
        for s in subs:
            assert abs(normalizer_residual(u, s) - normalizer_oracle(u, s)) <= TOL


@pytest.mark.parametrize("name", sorted(CASES))
def test_check_intermediate_matches_loop(name):
    # the largest finite tol, which no residual exceeds (inf is invalid input)
    subs, _ = _case(name)
    for a, b in itertools.product(subs, repeat=2):
        assert abs(check_intermediate(a, b, tol=np.finfo(float).max) - intermediate_oracle(a, b)) <= TOL


@pytest.mark.parametrize("name", sorted(CASES))
def test_commuting_square_matches_loop(name):
    subs, _ = _case(name)
    for n_sub, p_sub, q_sub in itertools.product(subs, repeat=3):
        flag, worst = is_commuting_square(n_sub, p_sub, q_sub)
        want = commuting_square_oracle(n_sub, p_sub, q_sub)
        assert abs(worst - want) <= TOL
        assert flag == (want <= linalg.EPS_REL)


@pytest.mark.parametrize("name", sorted(CASES))
def test_watatani_centrality_matches_loop(name):
    # the flag flips where the oracle's residual crosses tol * scale, to within TOL
    subs, elements = _case(name)
    for family in _families(subs, elements):
        res, scale = centrality_oracle(family)
        assert watatani_index(family, tol=(res + TOL) / scale).is_central
        if res > TOL:
            assert not watatani_index(family, tol=(res - TOL) / scale).is_central


@pytest.mark.parametrize("name", sorted(CASES))
def test_require_basis_membership_matches_loop(name):
    subs, elements = _case(name)
    for target in subs:
        for family in _families(subs, elements):
            want = membership_oracle(family, target, linalg.EPS_FLAG, "probe")
            try:
                require_basis(family, subs[0], target, label="probe")
                got = None
            except NotABasis as exc:
                got = str(exc)
            if want is None:
                assert got is None or "leaves its algebra" not in got
            else:
                assert got == want


@pytest.mark.parametrize("name", sorted(CASES))
def test_verify_closure_matches_loop(name):
    subs, elements = _case(name)
    amb = subs[0].ambient
    verdicts = []
    for family in _families(subs, elements):
        want = closure_oracle(Subalgebra.span(amb, family, check=False))
        try:
            Subalgebra.span(amb, family)
            got = True
        except NotSubalgebra:
            got = False
        assert got == want
        verdicts.append(got)
    assert any(verdicts)


def test_membership_names_the_first_element_that_leaves():
    mp = models.diagonal_in_matrix(3)
    shift = mp.candidates[1]
    family = [mp.ambient.identity(), 2.0 * shift, shift]
    want = membership_oracle(family, mp.sub, linalg.EPS_FLAG, "probe")
    assert want.startswith("probe element 1 leaves its algebra")
    with pytest.raises(NotABasis) as exc:
        require_basis(family, mp.sub, mp.sub, label="probe")
    assert str(exc.value) == want


def test_normalizer_residual_rejects_a_foreign_candidate():
    mp = models.diagonal_in_matrix(3)
    other = MultiMatrixAlgebra((2,), (0.5,))
    with pytest.raises(InvalidInput):
        normalizer_residual(other.identity(), mp.sub)


# ---------------------------------------------------------------- op_norm


def test_op_norm_matches_block_loop():
    rng = linalg.rng_from_seed(7)
    for dims in ((1, 2, 2, 3), (3, 1, 3), (2,), (1, 1, 4, 1, 2)):
        alg = MultiMatrixAlgebra(dims, np.full(len(dims), 1.0 / sum(dims)))
        for _ in range(5):
            x = alg.random_element(rng)
            assert abs(x.op_norm() - max(linalg.operator_norm(b) for b in x.blocks)) <= 1e-15


def test_op_norm_is_one_stacked_call_per_block_size(monkeypatch):
    # the ambient algebra of Z32 over {e}: C[Z32], 32 blocks of size 1 under the uniform trace
    amb = MultiMatrixAlgebra((1,) * 32, (1.0 / 32,) * 32)
    calls = []
    original = linalg.operator_norm
    monkeypatch.setattr(linalg, "operator_norm", lambda a: calls.append(np.shape(a)) or original(a))
    amb.random_element(linalg.rng_from_seed(1)).op_norm()
    assert calls == [(32, 1, 1)]


# ---------------------------------------------------------------- wedderburn without a centre


def _span_only(sub):
    return Subalgebra(sub.ambient, sub.mat)


def test_wedderburn_forms_no_centre(monkeypatch):
    # the minimal projections come from one generic element: no commutator stack
    # and no nullspace, on the covariance span of Z16 over {e} (commutative, in M16),
    # a span-only copy of all of M4 and a span-only copy of C + M2 inside M3
    def refuse(*args, **kwargs):
        raise AssertionError("wedderburn formed a centre")

    monkeypatch.setattr(algebra, "relative_commutant", refuse)
    monkeypatch.setattr(linalg, "nullspace", refuse)
    z16 = models.group_algebra_pair(GroupTable.cyclic(16), [0])
    assert z16.ambient.dims == (1,) * 16
    m4 = MultiMatrixAlgebra((4,), (0.25,))
    assert wedderburn(Subalgebra(m4, np.eye(16))).block_dims == (4,)
    pair = models.explicit_pair((1, 2), [[1], [1]])
    wd = wedderburn(_span_only(pair.sub))
    assert wd.block_dims == (1, 2)
    assert algebra.inclusion_matrix(wd).tolist() == [[1], [1]]


def _identity_draws(monkeypatch, attempts):
    """Make the Hermitian element of the first ``attempts`` attempts the identity:
    one spectral projection, which the sum d^2 = dim A count rejects."""
    draws = []
    original = algebra._random_combination

    def draw(sub, rng, hermitian=True):
        if hermitian:
            draws.append(sub)
            if len(draws) <= attempts:
                return sub.ambient.identity()
        return original(sub, rng, hermitian)

    monkeypatch.setattr(algebra, "_random_combination", draw)
    return draws


def test_non_generic_draw_is_rejected_and_retried(monkeypatch):
    pair = models.explicit_pair((1, 2), [[1], [1]])
    draws = _identity_draws(monkeypatch, 1)
    wd = wedderburn(_span_only(pair.sub))
    assert len(draws) == 2
    assert wd.block_dims == (1, 2)
    assert algebra.inclusion_matrix(wd).tolist() == [[1], [1]]


def test_non_generic_draws_exhaust_the_attempts(monkeypatch):
    pair = models.explicit_pair((1, 2), [[1], [1]])
    draws = _identity_draws(monkeypatch, linalg.WEDD_TRIES)
    with pytest.raises(DegenerateSpectrum) as exc:
        wedderburn(_span_only(pair.sub))
    assert len(draws) == linalg.WEDD_TRIES == 5
    assert str(exc.value) == (
        "wedderburn failed after 5 attempts: block dimensions do not add up to the subalgebra dimension"
    )


# ---------------------------------------------------------------- foreign families


def test_classify_rejects_an_element_of_a_different_sized_algebra():
    sub = models.scalar_in_full(3).sub
    other = MultiMatrixAlgebra((2,), (0.5,))
    with pytest.raises(InvalidInput):
        classify([other.identity()], sub)
    with pytest.raises(InvalidInput):
        gram_matrix([other.identity()], sub)


def test_classify_rejects_an_element_of_an_algebra_with_another_trace():
    amb = MultiMatrixAlgebra((1, 1), (0.5, 0.5))
    other = MultiMatrixAlgebra((1, 1), (0.25, 0.75))
    sub = Subalgebra(amb, np.eye(2))
    assert all(classify([amb.identity()], sub).flags.values())
    with pytest.raises(InvalidInput):
        classify([other.identity()], sub)
    with pytest.raises(InvalidInput):
        gram_matrix([other.identity()], sub)


# ---------------------------------------------------------------- element traffic


@pytest.fixture
def built(monkeypatch):
    """A list that grows by one for each AlgebraElement built."""
    count = []
    original = AlgebraElement.__init__

    def counting(self, *args, **kwargs):
        count.append(1)
        original(self, *args, **kwargs)

    monkeypatch.setattr(AlgebraElement, "__init__", counting)
    return count


def test_classify_of_the_m5_scalar_basis_builds_no_element(built):
    m5 = models.scalar_in_full(5)
    family = scalar_basis(m5.ambient)
    built.clear()
    sys = classify(family, m5.sub, side="two-sided")
    assert sys.flags["basis"] and sys.flags["orthonormal"]
    assert built == []
    # M_25(N) for N = C: one 25 x 25 block of scalar coefficients, not M_25(M5)
    assert [g.shape for g in sys.gram["right"]] == [(25, 25, 1, 1)]


def test_coset_system_of_the_m4_shifts_builds_no_element(built):
    d4 = models.diagonal_in_matrix(4)
    reps = tuple(d4.candidates)
    built.clear()
    sys = coset_system(reps, d4.sub, d4.sub)
    assert sys.flags["basis"] and sys.flags["orthonormal_over_n"]
    assert built == []
