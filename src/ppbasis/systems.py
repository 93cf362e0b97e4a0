"""Pimsner-Popa systems: Gram matrices, classification, supports, and
construction of systems with a prescribed support projection.

For a family (lambda_i) in M over a subalgebra N, the right Gram matrix has
entries E_N(lambda_i* lambda_j) and the right support is the GNS operator
sum lambda_i e1 lambda_i*.  The family is a system when the Gram matrix is a
projection over N, orthogonal when the Gram matrix is diagonal with projection
entries, orthonormal when the diagonal entries are 1, and a basis when the
support is the identity.  Left-handed versions swap the adjoints.  Both are
contractions of the family's GNS columns x, formed once, and J x rotated together
into M's frames (``M1Wedderburn.rows``), the sides stacked along the group axis of
M1's blocks of one shape: the Gram matrix, in M_n(N) with the norms of M_n(M), as
(n, n, m_i, m_i) arrays of coefficients in N's matrix units, and the support as
blocks in M1, where an element has the norm of its largest block.  Both are Hermitian, and G = C C* and the
support C* C share their nonzero eigenvalues, so every flag reads one eigvalsh per group for both sides, of
the smaller: no product x_i* x_j, no D x D operator and no singular value.  A prescribed support
(``construct_system_with_support``) is given by its blocks, and the family is pushed down by one
``BasicConstruction.pushdown`` call per 2**18 entries; completion pushes the complement's down the same way
and classifies the extended family once.  Classification builds no basic construction (a ``bc`` passed in is
kept for completion).  ``require_basis`` is the one basis check of the regular chain and interchange.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .basic import BasicConstruction
from .errors import InfeasibleSupport, InvalidInput, NotABasis, NotAProjection, NotASystem, NotIntermediate
from .linalg import EPS_FLAG, hermitian_block_norm


def _rows(stacks, sub, sides):
    """Rows in M1's frames (``M1Wedderburn.rows``) of the GNS columns x of a ``stacked`` family (right) and of J x, the
    adjoints' (left), from one rotation: per group of M1's blocks a (S, g, n, m, k) array, the S ``sides`` first."""
    amb = sub.ambient
    if not len(stacks[0]):
        raise InvalidInput("cannot test an empty family")
    x = np.empty((amb.gns_dim, len(stacks[0])), dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):  # inf times a GNS weight, or an overflow: reported below
        for a, (_, c) in zip(stacks, amb.size_groups):
            x[c] = a.reshape(len(a), -1).T * amb.gns_weights[c, None]
    if not np.isfinite(x).all():
        raise InvalidInput("non-finite element block")
    cols = np.concatenate([x if s == "right" else amb.modular_conjugation(x) for s in sides], axis=1)
    return [np.ascontiguousarray(r.reshape(len(r), len(sides), -1, *r.shape[2:]).swapaxes(0, 1))
            for r in sub.wedderburn_data().m1.rows(cols)]


def _grams(rows, m1):
    """Gram entries E_N(x_s* x_t) in N's units, the coefficient of e^i_pq being <W_{i,q}^* x_t, W_{i,p}^* x_s> / T_i,
    one GEMM per group of ``_rows``: (S, g, n m, n m) matrices and their (S, g, n, n, m, m) view; and the GNS 2-norms
    of the entries (S, n, n)."""
    grams, norms = [], 0.0
    for r, t in zip(rows, m1._traces):
        s, g, n, m, k = r.shape
        a = r.reshape(s, g, n * m, k)
        with np.errstate(over="ignore", invalid="ignore"):  # overflow is reported below
            mat = a.conj() @ a.swapaxes(-1, -2) / t[:, None, None]
        if not np.isfinite(mat).all():
            raise InvalidInput("non-finite Gram entry")
        grams.append((mat, mat.reshape(s, g, n, m, n, m).transpose(0, 1, 2, 4, 3, 5)))
        norms = norms + _weighted_norms(grams[-1][1], t)
    return grams, np.sqrt(norms)


def _weighted_norms(blocks, traces):
    """Squared GNS 2-norms of the (S, g, a, b, m, m) blocks of a group with block traces ``traces``, summed over g."""
    return (traces[:, None, None] * (blocks.conj() * blocks).real.sum(axis=(-2, -1))).sum(axis=1)


def gram_matrix(elements, sub, side="right"):
    """n x n matrix of Gram entries in N (right: E(x_i* x_j), left: E(x_i x_j*)), as elements."""
    if side not in ("right", "left"):
        raise InvalidInput("side must be 'right' or 'left'")
    wd = sub.wedderburn_data()
    g = wd.m1.per_block([e[0] for _, e in _grams(_rows(sub.ambient.stacked(tuple(elements)), sub, (side,)), wd.m1)[0]])
    return [[wd.from_abstract([b[i, j] for b in g]) for j in range(len(g[0]))] for i in range(len(g[0]))]


@dataclass
class PPSystem:
    """A classified family over a subalgebra N; ``gram[side]`` is the list of the
    Gram matrix's (n, n, m_i, m_i) arrays, one per block M_{m_i} of N, and
    ``support[side]`` the list of the support's k_i-square blocks in M1, in ``M1Wedderburn`` order (views)."""

    elements: tuple
    sub: object
    side: str
    flags: dict
    residuals: dict
    gram: dict
    support: dict
    bc: object = field(repr=False, default=None)

    @property
    def size(self):
        return len(self.elements)


def classify(elements, sub, side="two-sided", bc=None, tol=EPS_FLAG):
    """Classify a family as system / orthogonal / orthonormal / basis.

    ``side`` is "right", "left" or "two-sided"; two-sided requires both
    handed tests to pass.  Classification is eager: Gram matrices (in N's units)
    and supports (in M1's blocks) for each requested side are kept on the result.
    ``bc`` is not read; it is kept on the result for ``complete_to_basis`` to extend in.
    """
    elements = tuple(elements)
    if side not in ("right", "left", "two-sided"):
        raise InvalidInput("side must be 'right', 'left' or 'two-sided'")
    return _classified(elements, sub, side, bc, tol)[0]


def _gram_residuals(grams, norms, supports, m1):
    """Per side, (S,) arrays from ``_grams`` and M1's ``support``, both sides at once per group: the projection residual
    and 1 + norm of G (max |l^2 - l|, next to ||i(G - G*)||, and max |l|), the largest norms of the off-diagonal
    entries, of q^2 - q or q - q* and of q - 1 for the diagonal entries q, and ||support - 1||, for the eigenvalues l of
    the smaller of G = C C* and the support C* C: G's extra zeros add 0 to the first two, the support's 1 to the last."""
    res = norm = basis = diag = 0.0
    for (mat, view), sup, t in zip(grams, supports, m1._traces):
        n, m = view.shape[2], view.shape[-1]
        q = view[:, :, np.arange(n), np.arange(n)]  # (S, g, n, m, m)
        diag = diag + _weighted_norms(np.stack([q @ q - q, q - q.conj().swapaxes(-1, -2), q - np.eye(m)], 2), t)
        vals = linalg.eigvalsh(mat if n * m <= sup.shape[-1] else sup).reshape(len(mat), -1)
        defect = 1j * (mat - mat.conj().swapaxes(-1, -2))
        herm = np.abs(linalg.eigvalsh(defect)).reshape(len(mat), -1).max(axis=1) if np.any(defect) else 0.0
        res = np.maximum(res, np.maximum(np.abs(vals * vals - vals).max(axis=1), herm))
        norm = np.maximum(norm, np.abs(vals).max(axis=1))
        basis = np.maximum(basis, np.abs(vals - 1.0).max(axis=1, initial=float(n * m < sup.shape[-1])))
    off, diag = norms[:, ~np.eye(norms.shape[-1], dtype=bool)].max(axis=1, initial=0.0), np.sqrt(diag)
    return res, 1.0 + norm, off, diag[:, :2].max(axis=(1, 2)), diag[:, 2].max(axis=1), basis


def _classified(elements, sub, side, bc, tol, rows=None):
    """``classify`` from the family's ``_rows`` (formed here unless given), and the (S, n, n) GNS 2-norms of the
    Gram entries; each side's residuals are read off its slice of ``_gram_residuals``."""
    linalg.check_tol(tol)
    sides, m1 = ("right", "left") if side == "two-sided" else (side,), sub.wedderburn_data().m1
    rows = _rows(sub.ambient.stacked(elements), sub, sides) if rows is None else rows
    (grams, norms), supports = _grams(rows, m1), m1.support(rows)
    values = _gram_residuals(grams, norms, supports, m1)
    grams_out, supports_out, residuals = {}, {}, {}
    flags = {"system": True, "orthogonal": True, "orthonormal": True, "basis": True}
    for k, s in enumerate(sides):
        grams_out[s] = m1.per_block([e[k] for _, e in grams])
        supports_out[s] = m1.per_block([x[k] for x in supports])
        r, scale, off, proj, one, basis = (float(v[k]) for v in values)
        residuals.update({s + "_gram_projection": r / scale, s + "_offdiag": off, s + "_diag_projection": proj,
                          s + "_diag_identity": one, s + "_support_identity": basis})
        flags["system"] &= r <= tol * scale
        flags["orthogonal"] &= off <= tol and proj <= tol
        flags["orthonormal"] &= one <= tol
        flags["basis"] &= basis <= tol
    flags["orthonormal"] = flags["orthonormal"] and flags["orthogonal"]
    flags["basis"] = flags["basis"] and flags["system"]
    return PPSystem(elements, sub, side, flags, residuals, grams_out, supports_out, bc), norms


def check_intermediate(sub, mid, tol=EPS_FLAG):
    """Verify N <= P inside the common ambient algebra; returns the residual."""
    linalg.check_tol(tol)
    if mid.ambient is not sub.ambient:
        raise InvalidInput("subalgebras live in different ambient algebras")
    res = float(mid.residuals(sub.mat).max())
    if res > tol:
        raise NotIntermediate("containment fails with residual %.3g" % res)
    return res


def require_basis(elements, sub, target=None, side="two-sided", tol=EPS_FLAG, label="family"):
    """Classify a family that must be a basis of ``target`` (None: all of M) over ``sub``.

    Raises at the first failed test, in this order: NotABasis if an element leaves
    the target, NotIntermediate if the target does not contain N (only then does
    e_P lie in M1), NotABasis if the family is not a system or if a tested support
    differs from e_P in M1 (the residual is kept as ``<side>_support_target``).
    """
    linalg.check_tol(tol)
    elements = tuple(elements)
    if target is not None and elements:
        res = target.residuals(np.stack([target.ambient.vec(x) for x in elements], axis=1))
        for k in np.flatnonzero(res > tol)[:1]:
            raise NotABasis("%s element %d leaves its algebra (residual %.3g)" % (label, k, res[k]))
    if target is not None:
        check_intermediate(sub, target, tol)
    sys = classify(elements, sub, side=side, tol=tol)
    if not sys.flags["system"]:
        res = max(sys.residuals[s + "_gram_projection"] for s in sys.support)
        raise NotABasis("%s family fails the Gram projection test (residual %.3g)" % (label, res))
    et = None if target is None else sub.wedderburn_data().m1.outer_blocks(target.mat)
    scale = 2.0  # 1 + the norm of e_P, which is 1 or a nonzero projection: no SVD needed
    for s, sup in sys.support.items():  # the tested sides, right before left
        res = hermitian_block_norm([c - e for c, e in zip(sup, et)]) if et else sys.residuals[s + "_support_identity"]
        sys.residuals[s + "_support_target"] = res
        if res > tol * scale:
            raise NotABasis("%s family has wrong %s support (residual %.3g)" % (label, s, res))
    return sys


def construct_system_with_support(f, bc, mode="general", tol=EPS_FLAG):
    """Build a system whose support is the prescribed projection f in M1.

    f is given by its blocks in M1 (``bc.e1``, for instance).  Partial
    isometries v_i in M1 with v_i* v_i under e1 and ranges summing to f are
    assembled in M1's blocks and pushed down together: x_i = v_i 1^.
    Mode "general" peels as much rank per step as e1 allows (always
    feasible); "orthonormal-padded" uses full copies of e1 plus one
    remainder, which requires (n-1) * rank_b(e1) <= rank_b(f) <= n * rank_b(e1)
    for a single n in every block and raises InfeasibleSupport otherwise.
    """
    f, elements = _pushed_down(f, bc, mode, tol)
    sys = classify(elements, bc.sub, side="right", bc=bc, tol=tol)
    sys.residuals["support_match"] = hermitian_block_norm([c - b for c, b in zip(sys.support["right"], f)])
    return sys


def _pushed_down(f, bc, mode, tol):
    """f's checked blocks and the elements x_i = v_i 1^ of ``construct_system_with_support``, unclassified."""
    linalg.check_tol(tol)
    if mode not in ("general", "orthonormal-padded"):
        raise InvalidInput("unknown mode %r" % (mode,))
    f = bc.m1_wedd._checked(f)
    r = max(max(linalg.projection_residuals(s)) for s in linalg.stacks(f))
    if not r <= tol * (1.0 + linalg.block_norm(f)):
        raise NotAProjection("prescribed support is not a projection (residual %.3g)" % r)
    f_vecs, e_vecs = linalg.range_vectors(f), bc.m1_wedd.e1_ranges  # f's and e1's range vectors
    ranks_f, ranks_e = [v.shape[1] for v in f_vecs], [v.shape[1] for v in e_vecs]
    bad = {b: rf for b, (rf, re) in enumerate(zip(ranks_f, ranks_e)) if rf > 0 and re == 0}
    if bad:
        raise InfeasibleSupport("support demands rank in blocks where e1 vanishes", deficits=bad)
    if mode == "orthonormal-padded":  # the steps below are then full copies of e1 and one remainder
        pad = max((math.ceil(rf / re) for rf, re in zip(ranks_f, ranks_e) if rf > 0), default=0) - 1
        deficits = {b: pad * re - rf for b, (rf, re) in enumerate(zip(ranks_f, ranks_e)) if pad * re > rf}
        if deficits:
            msg = "no single padding count fits every block (deficits %r)" % (deficits,)
            raise InfeasibleSupport(msg, deficits=deficits)
    # each step peels as much rank per block as e1 has; e1's vectors are reused each step, f's are consumed
    used, vs = np.zeros(len(f), dtype=int), []
    while (used < ranks_f).any():
        s = np.minimum(ranks_f - used, ranks_e)
        vs.append([fv[:, u:u + k] @ ev[:, :k].conj().T for fv, ev, u, k in zip(f_vecs, e_vecs, used, s)])
        used += s
    if not vs:
        raise InvalidInput("prescribed support is zero; the empty family has no classification")
    step = max(1, 2 ** 18 // sum(k * k for k in bc.m1_wedd.block_dims))  # elements per pass: its checks stay ~25 MB
    return f, [x for lo in range(0, len(vs), step) for x in bc.pushdown(vs[lo:lo + step])]  # v_i = L_{x_i} e1


def complete_to_basis(system, bc=None, tol=EPS_FLAG):
    """Extend a right system to a right basis, keeping the input elements.

    The complement 1 - support is handed to the general construction in M1's
    blocks; the returned system starts with the original elements verbatim.
    The basic construction is ``bc``, else the system's, else a new one over its N.
    """
    linalg.check_tol(tol)
    if not isinstance(system, PPSystem):
        raise InvalidInput("complete_to_basis expects a classified system")
    if system.side not in ("right",):
        raise InvalidInput("completion is implemented for right systems")
    if not system.flags["system"]:
        raise NotASystem("cannot complete: the Gram matrix is not a projection")
    if system.residuals["right_support_identity"] <= tol:  # the norm of the complement 1 - support
        return system
    bc = bc or system.bc or BasicConstruction(system.sub)
    _, extension = _pushed_down([np.eye(len(c)) - c for c in system.support["right"]], bc, "general", tol)
    out = classify(tuple(system.elements) + tuple(extension), system.sub, side="right", bc=bc, tol=tol)
    assert out.elements[: system.size] == tuple(system.elements)
    return out
