import numpy as np
import pytest

from ppbasis import linalg
from ppbasis.errors import AlgebraError, FactorizationFailed
from oracles import rank


def test_operator_norm_matches_singular_value():
    rng = linalg.rng_from_seed(3)
    for _ in range(10):
        a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        s = np.linalg.svd(a, compute_uv=False)
        assert abs(linalg.operator_norm(a) - s[0]) < 1e-12


def test_rank_and_nullspace():
    # rank-2 outer product construction, nullspace has dim 3
    rng = linalg.rng_from_seed(7)
    u = rng.standard_normal((5, 2)) + 1j * rng.standard_normal((5, 2))
    v = rng.standard_normal((2, 5)) + 1j * rng.standard_normal((2, 5))
    a = u @ v
    assert rank(a) == 2
    ns = linalg.nullspace(a)
    assert ns.shape == (5, 3)
    assert np.linalg.norm(a @ ns) < 1e-10
    # columns come back orthonormal
    assert np.linalg.norm(ns.conj().T @ ns - np.eye(3)) < 1e-10


def test_nullspace_of_invertible_is_empty():
    ns = linalg.nullspace(np.eye(4))
    assert ns.shape == (4, 0)


def test_orthonormal_columns_spans_range():
    rng = linalg.rng_from_seed(11)
    a = rng.standard_normal((6, 4)) + 1j * rng.standard_normal((6, 4))
    a[:, 3] = a[:, 0] + a[:, 1]  # force a dependency
    q = linalg.orthonormal_columns(a)
    assert q.shape == (6, 3)
    assert np.linalg.norm(q.conj().T @ q - np.eye(3)) < 1e-10
    # original columns lie in the span of q
    proj = q @ q.conj().T
    assert np.linalg.norm(proj @ a - a) < 1e-8


def test_cluster_values_groups_by_gap():
    vals = [1.0, 1.0 + 1e-9, 2.0, 2.0 - 1e-9, 5.0]
    groups = linalg.cluster_values(vals)
    assert len(groups) == 3
    means = [m for m, _ in groups]
    assert abs(means[0] - 1.0) < 1e-8
    assert abs(means[1] - 2.0) < 1e-8
    assert abs(means[2] - 5.0) < 1e-8
    sizes = sorted(len(idx) for _, idx in groups)
    assert sizes == [1, 2, 2]


def test_cluster_values_empty():
    assert linalg.cluster_values([]) == []


def test_random_unitary_is_unitary_and_deterministic():
    for seed in range(5):
        u = linalg.random_unitary(4, linalg.rng_from_seed(seed))
        assert np.linalg.norm(u @ u.conj().T - np.eye(4)) < 1e-12
        v = linalg.random_unitary(4, linalg.rng_from_seed(seed))
        assert np.array_equal(u, v)


def test_block_diag_shapes_and_content():
    a = np.ones((2, 2))
    b = 2 * np.ones((1, 3))
    out = linalg.block_diag([a, b])
    assert out.shape == (3, 5)
    assert np.array_equal(out[:2, :2], a)
    assert np.array_equal(out[2:, 2:], b)
    assert np.linalg.norm(out[:2, 2:]) == 0.0
    assert linalg.block_diag([]).shape == (0, 0)


def test_projection_predicates():
    p = np.diag([1.0, 1.0, 0.0])
    r1, r2 = linalg.projection_residuals(p)
    assert r1 == 0.0 and r2 == 0.0
    # a non-idempotent hermitian matrix fails the first test only
    r1, r2 = linalg.projection_residuals(np.diag([0.5, 1.0, 0.0]))
    assert r1 == 0.25 and r2 == 0.0
    # a non-selfadjoint idempotent fails the second test only
    r1, r2 = linalg.projection_residuals(np.array([[1.0, 1.0], [0.0, 0.0]]))
    assert r1 == 0.0 and r2 > 0.5


def test_projection_residuals_of_a_stack_are_its_largest_block_residuals():
    # the Gram tests stack blocks of one size into one call
    rng = linalg.rng_from_seed(5)
    stack = rng.standard_normal((3, 4, 4)) + 1j * rng.standard_normal((3, 4, 4))
    got = linalg.projection_residuals(stack)
    for r, parts in zip(got, zip(*(linalg.projection_residuals(b) for b in stack))):
        assert abs(r - max(parts)) <= 1e-12 * max(parts)


def _no_convergence(*args, **kwargs):
    raise np.linalg.LinAlgError("did not converge")


@pytest.mark.parametrize("factor", ["svd", "eigh", "eigvalsh", "qr"])
def test_failed_factorization_is_typed(monkeypatch, factor):
    # every helper that factorizes raises FactorizationFailed, an AlgebraError
    monkeypatch.setattr(np.linalg, factor, _no_convergence)
    a = np.eye(3) + 0.5
    calls = {
        "svd": [
            lambda: rank(a),
            lambda: linalg.nullspace(a),
            lambda: linalg.orthonormal_columns(a),
            lambda: linalg.operator_norm(a),
        ],
        "eigh": [lambda: linalg.eigh(a)],
        "eigvalsh": [lambda: linalg.hermitian_norm(a)],
        "qr": [lambda: linalg.random_unitary(3, linalg.rng_from_seed(0))],
    }[factor]
    for call in calls:
        with pytest.raises(FactorizationFailed, match="did not converge"):
            call()
    assert issubclass(FactorizationFailed, AlgebraError)


def test_operator_norm_of_a_stack_is_the_block_diagonal_norm():
    rng = linalg.rng_from_seed(5)
    stack = rng.standard_normal((3, 4, 4)) + 1j * rng.standard_normal((3, 4, 4))
    assert abs(linalg.operator_norm(stack) - linalg.operator_norm(linalg.block_diag(list(stack)))) < 1e-12


def test_operator_norm_is_the_largest_singular_value_bitwise():
    # the same SVD as np.linalg.norm(a, 2), without its moveaxis wrapper
    rng = linalg.rng_from_seed(13)
    for shape in [(1, 1), (4, 4), (3, 6), (7, 2), (5, 3, 3), (2, 4, 5)]:
        for _ in range(10):
            a = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            assert linalg.operator_norm(a) == float(np.linalg.norm(a, 2, axis=(-2, -1)).max())
    assert linalg.operator_norm(np.zeros((0, 3))) == 0.0
    assert linalg.operator_norm(np.zeros((2, 0, 0))) == 0.0

