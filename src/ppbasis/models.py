"""Ready-made inclusion models shared by the tests and the command line.

Each builder returns a ModelPair (ambient algebra, embedded subalgebra, the
normalizer candidates the model is known to carry) or, for the four-algebra
configurations, a MasaQuadruple with two bases per intermediate algebra.
"""

from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .algebra import MultiMatrixAlgebra, Subalgebra, UnitalEmbedding
from .basic import markov_trace
from .errors import InvalidInput, InvalidSubgroup
from .paths import PathModel
from .regular import Automorphism, CrossedProductModel, GroupTable


@dataclass
class ModelPair:
    """An inclusion with its ambient algebra and normalizer candidates."""

    name: str
    ambient: object
    sub: object
    candidates: tuple = ()
    embedding: object = field(default=None, repr=False)


def explicit_pair(dims, inclusion, trace="markov", unitaries=None, name="explicit"):
    """Inclusion from raw data: sub dims, multiplicity matrix, ambient trace.

    The one builder of an inclusion from this data; the path models view its
    embedding.  ``trace`` is either the ambient trace vector or "markov";
    ambient dims are forced by unitality.
    """
    dims, lam = linalg.integers(dims, "dims"), linalg.integer_matrix(inclusion, "inclusion matrix")
    if dims.ndim != 1 or lam.shape[0] != len(dims):
        raise InvalidInput("inclusion matrix needs one row per subalgebra block")
    if isinstance(trace, str):
        if trace != "markov":
            raise InvalidInput("trace must be a vector or the string 'markov'")
        trace = markov_trace(lam, dims).trace_amb
    ambient = MultiMatrixAlgebra(tuple((lam.T @ dims).tolist()), trace)
    emb = UnitalEmbedding(dims, ambient, lam, block_unitaries=unitaries)
    return ModelPair(name=name, ambient=ambient, sub=emb.image(), embedding=emb)


def _shift_matrix(k):
    return np.roll(np.eye(k), 1, axis=0)  # e_i -> e_{i+1 mod k}


def scalar_in_full(n, trace=None):
    """The scalars inside one full matrix block."""
    if trace is None:
        trace = (1.0 / n,)
    pair = explicit_pair((1,), [[n]], trace=trace, name="scalars-in-m%d" % n)
    return pair


def diagonal_in_matrix(k, trace="markov"):
    """Diagonal matrices inside M_k, with the cyclic shifts as candidates."""
    k = int(linalg.integers(k, "k"))
    if k < 1:
        raise InvalidInput("k must be positive")
    pair = explicit_pair((1,) * k, [[1]] * k, trace=trace, name="diag-in-m%d" % k)
    u = _shift_matrix(k)
    shifts = tuple(pair.ambient.element([np.linalg.matrix_power(u, j)]) for j in range(k))
    pair.candidates = shifts
    return pair


def two_block_over_factor():
    """One matrix factor embedded diagonally into two copies of itself.

    Candidates stay inside U(N) U(N' cap M): a rotated diagonal copy and the
    central sign z1 - z2, so the pipeline keeps a single coset.
    """
    pair = explicit_pair((2,), [[1, 1]], trace=(0.25, 0.25), name="m2-in-m2+m2")
    amb = pair.ambient
    rot = np.array([[0.0, 1.0], [-1.0, 0.0]])
    candidates = (
        amb.element([np.eye(2), -np.eye(2)]),
        amb.element([rot, rot]),
    )
    pair.candidates = candidates
    return pair


@dataclass
class MasaQuadruple:
    """Scalars, two intermediate algebras and the full 2x2 matrices."""

    ambient: object
    n_sub: object
    p_sub: object
    q_sub: object
    bases_p: tuple
    bases_q: tuple


def _diag_sub(amb):
    e11 = amb.element([np.diag([1.0, 0.0])])
    e22 = amb.element([np.diag([0.0, 1.0])])
    return Subalgebra.span(amb, [e11, e22], check=False), e11, e22


def masa_quadruple():
    """The commuting pair of maximal abelian subalgebras of M2.

    P is the diagonal, Q the span of 1 and the flip; each comes with two
    right bases over the scalars so interchange data can be cross-checked.
    """
    m2 = scalar_in_full(2)  # the scalars keep their unit, so classify over them decomposes nothing
    amb, n_sub = m2.ambient, m2.sub
    p_sub, e11, e22 = _diag_sub(amb)
    flip = amb.element([np.array([[0.0, 1.0], [1.0, 0.0]])])
    q_sub = Subalgebra.span(amb, [amb.identity(), flip], check=False)
    z = amb.element([np.diag([1.0, -1.0])])
    s2 = np.sqrt(2.0)
    qp = 0.5 * (amb.identity() + flip)
    qm = 0.5 * (amb.identity() - flip)
    bases_p = (
        (s2 * e11, s2 * e22),
        (amb.identity(), z),
    )
    bases_q = (
        (s2 * qp, s2 * qm),
        (amb.identity(), flip),
    )
    return MasaQuadruple(amb, n_sub, p_sub, q_sub, bases_p, bases_q)


def degenerate_quadruple():
    """P = Q = diagonal in M2: the interchange operator is far from idempotent."""
    m2 = scalar_in_full(2)
    amb, n_sub = m2.ambient, m2.sub
    p_sub, e11, e22 = _diag_sub(amb)
    s2 = np.sqrt(2.0)
    basis = (s2 * e11, s2 * e22)
    return MasaQuadruple(amb, n_sub, p_sub, p_sub, (basis,), (basis,))


def path_cc_m2():
    """Scalars inside M2 as a one-edge-pair path model."""
    return PathModel(explicit_pair((1,), [[2]]).embedding)

def path_c_cm2():
    """Scalars inside C + M2 (canonical trace 1/5, 2/5)."""
    return PathModel(explicit_pair((1,), [[1, 2]]).embedding)

def path_cm2_m3():
    """C + M2 inside M3."""
    return PathModel(explicit_pair((1, 2), [[1], [1]]).embedding)


def _check_subgroup(group, subset):
    subset = sorted(set(int(h) for h in subset))
    if not subset or subset[0] < 0 or subset[-1] >= len(group):
        raise InvalidSubgroup("subgroup indices out of range")
    if 0 not in subset:
        raise InvalidSubgroup("subgroup must contain the identity")
    members = set(subset)
    for a in subset:
        if group.inverse(a) not in members:
            raise InvalidSubgroup("subset is not closed under inverses")
        for b in subset:
            if group.mult(a, b) not in members:
                raise InvalidSubgroup("subset is not closed under products")
    return subset


def group_algebra_pair(group, subgroup, seed=0):
    """C[H] inside C[G] for a subgroup H, via the regular representation.

    Candidates are all group unitaries; the subalgebra is the span of the
    subgroup's unitaries.
    """
    subset = _check_subgroup(group, subgroup)
    base = MultiMatrixAlgebra((1,), (1.0,))
    autos = [Automorphism.identity(base) for _ in range(len(group))]
    pair = crossed_product_pair(base, group, autos, seed=seed, name="group-algebra-pair")
    pair.sub = Subalgebra.span(pair.ambient, [pair.candidates[h] for h in subset], check=False)
    return pair


def crossed_product_pair(base, group, autos, seed=0, name="crossed-product"):
    """B inside its crossed product by the action, with the group unitaries as candidates."""
    model = CrossedProductModel(base, group, autos, seed=seed)
    return ModelPair(name=name, ambient=model.algebra, sub=model.base_image, candidates=tuple(model.unitaries))


def crossed_product_diag(k, seed=0):
    """C^k shifted cyclically: the crossed product is a single k x k block."""
    k = int(linalg.integers(k, "k"))
    base = MultiMatrixAlgebra((1,) * k, (1.0 / k,) * k)
    autos = Automorphism.cyclic_shifts(base)
    return crossed_product_pair(base, GroupTable.cyclic(k), autos, seed=seed, name="crossed-product-diag-%d" % k)
