"""Pimsner-Popa systems: Gram matrices, classification, supports, and
construction of systems with a prescribed support projection.

For a family (lambda_i) in M over a subalgebra N, the right Gram matrix has
entries E_N(lambda_i* lambda_j) and the right support is the GNS operator
sum lambda_i e1 lambda_i*.  The family is a system when the Gram matrix is a
projection over N, orthogonal when the Gram matrix is diagonal with projection
entries, orthonormal when the diagonal entries are 1, and a basis when the
support is the identity.  Left-handed versions swap the adjoints.  The Gram
matrix lies in M_n(N), the sum of the M_{n m_i} over N's blocks M_{m_i}, with
the same C*-norms and trace 2-norms as in M_n(M).  It is tested there, as one
(n, n, m_i, m_i) array of coefficients in N's matrix units
(``sub.wedderburn_data()``) per block; only ``gram_matrix`` makes elements of
its entries.  The support is W W* with W = [L_1 Q, ..., L_n Q], Q = sub.mat.
Classification builds no basic construction; one passed as ``bc`` is kept for
completion.  ``require_basis`` is the one basis check of the regular chain and
interchange.
"""

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .basic import BasicConstruction
from .errors import InfeasibleSupport, InvalidInput, NotABasis, NotAProjection, NotASystem
from .linalg import EPS_FLAG


class _Family:
    """One side of a family, stacked per ambient block as (n, n_k, n_k) arrays;
    the left side stacks the adjoints, so only right-handed formulas follow."""

    def __init__(self, elements, sub, side):
        if side not in ("right", "left"):
            raise InvalidInput("side must be 'right' or 'left'")
        if not elements:
            raise InvalidInput("cannot test an empty family")
        for x in elements:
            sub.ambient.check_owns(x)
        self.sub = sub
        self.stacks = [np.stack([x.blocks[k] for x in elements]) for k in range(sub.ambient.nblocks)]
        if side == "left":
            self.stacks = [s.conj().transpose(0, 2, 1) for s in self.stacks]
        if not all(np.isfinite(s).all() for s in self.stacks):
            raise InvalidInput("non-finite element block")
        self.splits = np.cumsum([s.shape[1] ** 2 for s in self.stacks])[:-1]  # GNS row offsets between blocks

    def gram(self):
        """Gram entries E_N(x_i* x_j) in N's matrix units, as (n, n, m_i, m_i) arrays."""
        w, n = np.sqrt(self.sub.ambient.trace_vector), len(self.stacks[0])
        with np.errstate(over="ignore", invalid="ignore"):  # overflow is reported below
            prods = [wk * np.einsum("iba,jbc->ijac", s.conj(), s).reshape(n, n, -1) for wk, s in zip(w, self.stacks)]
            blocks = self.sub.wedderburn_data().abstract_blocks(np.concatenate(prods, axis=2))
        if not all(np.isfinite(g).all() for g in blocks):
            raise InvalidInput("non-finite Gram entry")
        return blocks

    def support(self):
        """sum_i L_i e1 L_i* = W W*, where column (i, s) of W is vec(x_i q_s)."""
        qs = zip(self.stacks, np.split(self.sub.mat, self.splits))
        cols = [np.einsum("iab,bcs->acis", s, q.reshape(*s.shape[1:], -1)).reshape(len(q), -1) for s, q in qs]
        w = np.concatenate(cols)
        return w @ w.conj().T


def _entry_norms(blocks, wd):
    """GNS 2-norms of the elements stacked in per-block arrays (..., m_i, m_i) of coefficients in ``wd``'s units."""
    return np.sqrt(sum(t * np.sum((a.conj() * a).real, axis=(-2, -1)) for t, a in zip(wd.block_traces, blocks)))


def _gram_residuals(blocks, wd):
    """Projection residual and 1 + norm of the Gram matrix, from its n m_i-square blocks
    (one call per size); largest GNS 2-norms, from the block traces of N's ``wd``, of the
    off-diagonal entries, of q^2 - q or q - q* for the diagonal entries q, and of q - 1."""
    n = blocks[0].shape[0]
    big = [g.transpose(0, 2, 1, 3).reshape(n * g.shape[2], -1) for g in blocks]
    stacks = [np.stack([b for b in big if len(b) == size]) for size in {len(b) for b in big}]
    norm = max(linalg.operator_norm(s) for s in stacks)
    res = max(max(linalg.projection_residuals(s)) for s in stacks)
    diag = [g[np.arange(n), np.arange(n)] for g in blocks]
    off = _entry_norms(blocks, wd)[~np.eye(n, dtype=bool)].max(initial=0.0)
    proj = _entry_norms([np.concatenate([q @ q - q, q - q.conj().transpose(0, 2, 1)]) for q in diag], wd).max()
    one = _entry_norms([q - np.eye(q.shape[-1]) for q in diag], wd).max()
    return res, 1.0 + norm, float(off), float(proj), float(one)


def gram_matrix(elements, sub, side="right"):
    """n x n matrix of Gram entries in N (right: E(x_i* x_j), left: E(x_i x_j*)), as elements."""
    g = _Family(tuple(elements), sub, side).gram()
    n, wd = len(g[0]), sub.wedderburn_data()
    return [[wd.from_abstract([b[i, j] for b in g]) for j in range(n)] for i in range(n)]


def support_operator(elements, bc, side="right"):
    """GNS support projection of a family (right: sum L e1 L*, left: sum L* e1 L).

    Warns (and still returns the operator) when the family is not a system to
    EPS_FLAG, since the projection property of the support needs that hypothesis.
    """
    family = _Family(tuple(elements), bc.sub, side)
    r, scale, *_ = _gram_residuals(family.gram(), bc.sub.wedderburn_data())
    if r > EPS_FLAG * scale:
        warnings.warn("family is not a system; support need not be a projection", stacklevel=2)
    return family.support()


@dataclass
class PPSystem:
    """A classified family over a subalgebra N; ``gram[side]`` is the list of the
    Gram matrix's (n, n, m_i, m_i) arrays, one per block M_{m_i} of N."""

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
    and supports for each requested side are computed and kept on the result.
    ``bc`` is not read; it is kept on the result for ``complete_to_basis``.
    """
    elements = tuple(elements)
    if side not in ("right", "left", "two-sided"):
        raise InvalidInput("side must be 'right', 'left' or 'two-sided'")
    sides = ("right", "left") if side == "two-sided" else (side,)
    wd = sub.wedderburn_data()
    grams, supports, residuals = {}, {}, {}
    flags = {"system": True, "orthogonal": True, "orthonormal": True, "basis": True}
    for s in sides:
        family = _Family(elements, sub, s)
        g = grams[s] = family.gram()
        r, scale, off, diag_proj, diag_one = _gram_residuals(g, wd)
        supports[s] = family.support()
        basis_res = linalg.hermitian_norm(supports[s] - np.eye(sub.ambient.gns_dim))
        residuals["%s_gram_projection" % s] = r / scale
        residuals["%s_offdiag" % s] = off
        residuals["%s_diag_projection" % s] = diag_proj
        residuals["%s_diag_identity" % s] = diag_one
        residuals["%s_support_identity" % s] = basis_res
        flags["system"] &= r <= tol * scale
        flags["orthogonal"] &= off <= tol and diag_proj <= tol
        flags["orthonormal"] &= diag_one <= tol
        flags["basis"] &= basis_res <= tol
    flags["orthonormal"] = flags["orthonormal"] and flags["orthogonal"]
    flags["basis"] = flags["basis"] and flags["system"]
    return PPSystem(elements, sub, side, flags, residuals, grams, supports, bc)


def require_basis(elements, sub, target=None, side="two-sided", tol=EPS_FLAG, label="family"):
    """Classify a family that must be a basis of ``target`` (None: all of M) over ``sub``.

    Raises NotABasis at the first failed test, in this order: an element leaves
    the target, the family is not a system, a tested support differs from the
    GNS projection of the target (its residual is kept as ``<side>_support_target``).
    """
    elements = tuple(elements)
    if target is not None and elements:
        res = target.residuals(np.stack([target.ambient.vec(x) for x in elements], axis=1))
        for k in np.flatnonzero(res > tol)[:1]:
            raise NotABasis("%s element %d leaves its algebra (residual %.3g)" % (label, k, res[k]))
    sys = classify(elements, sub, side=side, tol=tol)
    if not sys.flags["system"]:
        res = max(sys.residuals[s + "_gram_projection"] for s in sys.support)
        raise NotABasis("%s family fails the Gram projection test (residual %.3g)" % (label, res))
    et = np.eye(sub.ambient.gns_dim) if target is None else target.projection_matrix()
    scale = 1.0 + linalg.operator_norm(et)
    for s in sys.support:  # the tested sides, right before left
        res = linalg.operator_norm(sys.support[s] - et)
        sys.residuals[s + "_support_target"] = res
        if res > tol * scale:
            raise NotABasis("%s family has wrong %s support (residual %.3g)" % (label, s, res))
    return sys


def _range_vectors(block, count):
    """First ``count`` orthonormal eigenvectors of an abstract projection block."""
    vals, vecs = linalg.eigh(block)
    keep = [i for i in range(vals.size) if vals[i] > 0.5]
    if len(keep) < count:
        raise NotAProjection("projection block has rank %d < %d" % (len(keep), count))
    keep = keep[::-1]  # descending eigenvalue order, deterministic
    return vecs[:, keep[:count]]


def construct_system_with_support(f, bc, mode="general", tol=EPS_FLAG):
    """Build a system whose support is the prescribed projection f in M1.

    Partial isometries v_i in M1 with v_i* v_i under e1 and ranges summing to
    f are assembled blockwise in M1's Wedderburn coordinates and pushed down.
    Modes "general" and "orthogonal" peel as much rank per step as e1 allows
    (always feasible); "orthonormal-padded" uses full copies of e1 plus one
    remainder, which requires (n-1) * rank_b(e1) <= rank_b(f) <= n * rank_b(e1)
    for a single n in every block and raises InfeasibleSupport otherwise.
    """
    if mode not in ("general", "orthogonal", "orthonormal-padded"):
        raise InvalidInput("unknown mode %r" % (mode,))
    f = np.asarray(f, dtype=complex)
    if not linalg.is_projection_matrix(f, tol):
        res = max(linalg.projection_residuals(f))
        raise NotAProjection("prescribed support is not a projection (residual %.3g)" % res)
    scale = 1.0 + linalg.operator_norm(f)
    wd = bc.m1_wedd
    if wd.roundtrip_residual(f) > tol * scale:
        raise InvalidInput("prescribed support does not lie in M1")
    f_abs = wd.to_abstract(f)
    e_abs = wd.to_abstract(bc.e1)
    ranks_f = [linalg.integer_trace(b, NotAProjection) for b in f_abs]
    ranks_e = [linalg.integer_trace(b, NotAProjection) for b in e_abs]
    nblocks = len(ranks_f)
    bad = {b: ranks_f[b] for b in range(nblocks) if ranks_f[b] > 0 and ranks_e[b] == 0}
    if bad:
        raise InfeasibleSupport("support demands rank in blocks where e1 vanishes", deficits=bad)
    if mode == "orthonormal-padded":
        nsteps = max((math.ceil(rf / re) for rf, re in zip(ranks_f, ranks_e) if rf > 0), default=0)
        deficits = {
            b: (nsteps - 1) * ranks_e[b] - ranks_f[b]
            for b in range(nblocks)
            if (nsteps - 1) * ranks_e[b] > ranks_f[b]
        }
        if deficits:
            raise InfeasibleSupport(
                "no single padding count fits every block (deficits %r)" % (deficits,), deficits=deficits
            )
        steps = [list(ranks_e)] * (nsteps - 1) if nsteps > 1 else []
        last = [rf - (nsteps - 1) * re for rf, re in zip(ranks_f, ranks_e)]
        if any(last):
            steps = steps + [last]
    else:
        steps = []
        rem = list(ranks_f)
        while any(rem):
            s = [min(r, e) for r, e in zip(rem, ranks_e)]
            steps.append(s)
            rem = [r - x for r, x in zip(rem, s)]
    # eigenvector pools: e1 vectors are reused each step, f vectors are consumed
    e_vecs = [_range_vectors(e_abs[b], ranks_e[b]) if ranks_e[b] else None for b in range(nblocks)]
    f_vecs = [_range_vectors(f_abs[b], ranks_f[b]) if ranks_f[b] else None for b in range(nblocks)]
    used = [0] * nblocks
    elements = []
    for s in steps:
        blocks = []
        for b, d in enumerate(wd.block_dims):
            v = np.zeros((d, d), dtype=complex)
            if s[b]:
                w = f_vecs[b][:, used[b]:used[b] + s[b]]
                u = e_vecs[b][:, :s[b]]
                v = w @ u.conj().T
                used[b] += s[b]
            blocks.append(v)
        elements.append(bc.pushdown(wd.from_abstract(blocks)))
    if not elements:
        raise InvalidInput("prescribed support is zero; the empty family has no classification")
    sys = classify(elements, bc.sub, side="right", bc=bc, tol=tol)
    sys.residuals["support_match"] = linalg.operator_norm(sys.support["right"] - f)
    return sys


def complete_to_basis(system, bc=None, tol=EPS_FLAG):
    """Extend a right system to a right basis, keeping the input elements.

    The complement 1 - support is handed to the general construction; the
    returned system starts with the original elements verbatim.  The basic
    construction is ``bc``, else the system's, else a new one over its N.
    """
    if not isinstance(system, PPSystem):
        raise InvalidInput("complete_to_basis expects a classified system")
    if system.side not in ("right",):
        raise InvalidInput("completion is implemented for right systems")
    if not system.flags["system"]:
        raise NotASystem("cannot complete: the Gram matrix is not a projection")
    g = np.eye(system.sub.ambient.gns_dim) - system.support["right"]
    if linalg.operator_norm(g) <= tol:
        return system
    bc = bc or system.bc or BasicConstruction(system.sub)
    extension = construct_system_with_support(g, bc, mode="general", tol=tol)
    combined = tuple(system.elements) + tuple(extension.elements)
    out = classify(combined, system.sub, side="right", bc=bc, tol=tol)
    assert out.elements[: system.size] == tuple(system.elements)
    return out
