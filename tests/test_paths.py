import numpy as np
import pytest

from ppbasis import BratteliDiagram, PathModel, Subalgebra, classify, markov_trace, scalar_basis
from ppbasis import algebra, linalg, models
from ppbasis.errors import (
    InvalidInput,
    InvalidPathPair,
    NonUnitalInclusion,
)
from ppbasis.paths import Path


def test_diagram_validation():
    with pytest.raises(InvalidInput):
        BratteliDiagram((), [[1]])
    with pytest.raises(InvalidInput):
        BratteliDiagram((1,), [[-1]])
    with pytest.raises(NonUnitalInclusion):
        BratteliDiagram((1, 2), [[1], [0]])  # middle block with no edges out
    with pytest.raises(NonUnitalInclusion):
        BratteliDiagram((1,), [[1, 0]])  # bottom block receives nothing


def test_diagram_path_count():
    # C + M2 inside M3: bottom dim 3 = 1*1 + 1*2, paths count matches
    d = BratteliDiagram((1, 2), [[1], [1]])
    assert d.bottom_dims == (3,)
    assert len(d.paths) == 3
    assert [len(bp) for bp in d.block_paths] == [3]
    d2 = BratteliDiagram((1,), [[2, 1]])
    assert d2.bottom_dims == (2, 1)
    assert len(d2.paths) == 3


def test_path_model_middle_trace_validation():
    # the path model reads the middle units off an untwisted embedding only
    twisted = models.explicit_pair((1, 1), [[1], [1]], unitaries=[[[0.6, 0.8], [-0.8, 0.6]]]).embedding
    with pytest.raises(InvalidInput):
        PathModel(twisted)


def test_unit_indexing_errors():
    pm = models.path_c_cm2()
    d = pm.diagram
    lam = d.block_paths[0][0]
    mu = d.block_paths[1][0]
    with pytest.raises(InvalidPathPair):
        pm.unit(lam, mu)
    fake = Path(lam.head._replace(slot=99), lam.tail)
    with pytest.raises(InvalidInput):
        pm.unit(fake, lam)


def test_middle_units_multiply_like_matrix_units():
    pm = models.path_cm2_m3()
    d = pm.diagram
    e0s = d.edges0
    for a in e0s:
        for b in e0s:
            if a.block != b.block:
                with pytest.raises(InvalidPathPair):
                    pm.middle_unit(a, b)
                continue
            u = pm.middle_unit(a, b)
            for c in e0s:
                for e in e0s:
                    if c.block != e.block:
                        continue
                    v = pm.middle_unit(c, e)
                    prod = u * v
                    if b == c:
                        assert prod.allclose(pm.middle_unit(a, e), tol=1e-12)
                    else:
                        assert prod.norm() < 1e-12


def test_middle_subalgebra_dim_and_identity():
    pm = models.path_cm2_m3()
    mid = pm.middle_subalgebra()
    assert mid.dim == 5  # 1^2 + 2^2
    # sum of diagonal middle units is the bottom identity
    acc = pm.bottom.zero()
    for th in pm.diagram.edges0:
        acc = acc + pm.middle_unit(th, th)
    assert acc.allclose(pm.bottom.identity())


def test_middle_subalgebra_keeps_the_middle_units(monkeypatch):
    # the middle units are N's matrix units, so classifying over the middle
    # algebra decomposes nothing
    pm = models.path_cm2_m3()
    mid = pm.middle_subalgebra()
    wd = mid.wedderburn_data()
    assert wd.block_dims == pm.diagram.middle_dims
    for th in pm.diagram.edges0:
        for tp in pm.diagram.edges0:
            if th.block == tp.block:
                assert wd.unit(th.block, th.slot, tp.slot).allclose(pm.middle_unit(th, tp), tol=0.0)

    def no_wedderburn(*args, **kwargs):
        raise AssertionError("the middle algebra was decomposed")

    monkeypatch.setattr(algebra, "wedderburn", no_wedderburn)
    _, elems = pm.orthogonal_system()
    assert classify(elems, mid, side="left").flags["orthogonal"]


@pytest.mark.parametrize("middle_dims, inclusion", [((1, 2), [[1], [1]]), ((2, 1), [[2, 1], [1, 0]]), ((2,), [[3]])])
def test_middle_units_are_the_sums_over_common_extensions(middle_dims, inclusion):
    # the paths of each bottom block run copy before slot, the order of UnitalEmbedding's
    # copies, so the image's kept units are the sums over common extensions of two middle
    # paths, and the image of each middle unit under the embedding
    pm = PathModel(models.explicit_pair(middle_dims, inclusion).embedding)
    d = pm.diagram
    for th in d.edges0:
        for tp in d.edges0:
            if th.block != tp.block:
                continue
            ext = [pm.unit(Path(th, k), Path(tp, k)) for k in d.edges01 if k.source == th.block]
            want = sum(ext, pm.bottom.zero())
            assert pm.middle_unit(th, tp).allclose(want, tol=0.0)
            assert pm.embedding.apply(pm.middle_skeleton.unit(th.block, th.slot, tp.slot)).allclose(want, tol=0.0)
    with pytest.raises(InvalidInput):
        pm.middle_unit(d.edges0[0]._replace(slot=99), d.edges0[0])


def test_expect_unit_matches_subalgebra_expectation():
    # closed-form coefficient against the GNS projection, every unit pair
    for pm in (models.path_cc_m2(), models.path_c_cm2(), models.path_cm2_m3()):
        mid = pm.middle_subalgebra()
        for j, bp in enumerate(pm.diagram.block_paths):
            for lam in bp:
                for mu in bp:
                    closed = pm.expect_unit(lam, mu)
                    gns = mid.expect(pm.unit(lam, mu))
                    assert (closed - gns).norm() < 1e-10


def test_expect_unit_rejects_cross_block():
    pm = models.path_c_cm2()
    d = pm.diagram
    with pytest.raises(InvalidPathPair):
        pm.expect_unit(d.block_paths[0][0], d.block_paths[1][0])


def test_j_projection_is_projection_in_middle():
    pm = models.path_cm2_m3()
    mid = pm.middle_subalgebra()
    for block in range(len(pm.diagram.middle_dims)):
        jp = pm.j_projection(block)
        assert all(max(linalg.projection_residuals(b)) <= 1e-10 for b in jp.blocks)
        assert mid.contains(jp)


def test_orthogonal_system_classifies_orthogonal():
    pm = models.path_cm2_m3()
    mid = pm.middle_subalgebra()
    labels, elems = pm.orthogonal_system()
    assert len(labels) == len(elems)
    sys = classify(elems, mid, side="left")
    assert sys.flags["system"]
    assert sys.flags["orthogonal"]


def test_orthogonal_system_offdiagonal_expectations_vanish():
    pm = models.path_c_cm2()
    mid = pm.middle_subalgebra()
    _, elems = pm.orthogonal_system()
    for i, a in enumerate(elems):
        for k, b in enumerate(elems):
            ex = mid.expect(a * b.adjoint())
            if i != k:
                assert ex.norm() < 1e-10


def test_scalar_basis_is_two_sided_basis():
    alg = models.scalar_in_full(2).ambient
    scal = Subalgebra.span(alg, [alg.identity()])
    basis = scalar_basis(alg)
    assert len(basis) == 4
    sys = classify(basis, scal, side="two-sided")
    assert sys.flags["basis"]
    assert sys.flags["orthonormal"]


def test_scalar_basis_size_multi_block():
    alg = models.scalar_in_full(3, trace=None).ambient
    assert len(scalar_basis(alg)) == 9
    amb = models.path_c_cm2().bottom
    assert len(scalar_basis(amb)) == sum(n * n for n in amb.dims)


def test_markov_through_diagram():
    # beta is the Perron eigenvalue of inclusion^T inclusion
    d = BratteliDiagram((1, 2), [[1], [1]])
    assert abs(markov_trace(d.inclusion, d.middle_dims).beta - 2.0) < 1e-12
    d2 = BratteliDiagram((1,), [[1, 1]])
    assert abs(markov_trace(d2.inclusion, d2.middle_dims).beta - 2.0) < 1e-12
