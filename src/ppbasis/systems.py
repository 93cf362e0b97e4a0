"""Pimsner-Popa systems: Gram matrices, classification, supports, and
construction of systems with a prescribed support projection.

For a family (lambda_i) in M over a subalgebra N, the right Gram matrix has
entries E_N(lambda_i* lambda_j) and the right support is the GNS operator
sum lambda_i e1 lambda_i*.  The family is a system when the Gram matrix is a
projection over N, orthogonal when the Gram matrix is diagonal with projection
entries, orthonormal when the diagonal entries are 1, and a basis when the
support is the identity.  Left-handed versions swap the adjoints.  The tests
run on M's own blocks (M_n(M) is the sum of the M_{n n_k}, with the same
C*-norms), and the support is W W* with W = [L_1 Q, ..., L_n Q], Q = sub.mat.
"""

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .basic import BasicConstruction
from .errors import InfeasibleSupport, InvalidInput, NotAProjection, NotASystem

EPS_SYS = 1e-8


class _Family:
    """One side of a family, stacked per ambient block as (n, n_k, n_k) arrays;
    the left side stacks the adjoints, so only right-handed formulas follow."""

    def __init__(self, elements, sub, side):
        if side not in ("right", "left"):
            raise InvalidInput("side must be 'right' or 'left'")
        if not elements:
            raise InvalidInput("cannot test an empty family")
        self.sub = sub
        self.stacks = [np.stack([x.blocks[k] for x in elements]) for k in range(sub.ambient.nblocks)]
        if side == "left":
            self.stacks = [s.conj().transpose(0, 2, 1) for s in self.stacks]
        if not all(np.isfinite(s).all() for s in self.stacks):
            raise InvalidInput("non-finite element block")
        self.splits = np.cumsum([s.shape[1] ** 2 for s in self.stacks])[:-1]  # GNS row offsets between blocks

    def gram(self):
        """Gram entries E_N(x_i* x_j) per ambient block, as (n, n, n_k, n_k) arrays."""
        q, w, n = self.sub.mat, np.sqrt(self.sub.ambient.trace_vector), len(self.stacks[0])
        with np.errstate(over="ignore", invalid="ignore"):  # overflow is reported below
            prods = [wk * np.einsum("iba,jbc->ijac", s.conj(), s).reshape(n, n, -1) for wk, s in zip(w, self.stacks)]
            expect = (np.concatenate(prods, axis=2) @ q.conj()) @ q.T
        if not np.isfinite(expect).all():
            raise InvalidInput("non-finite Gram entry")
        parts = zip(np.split(expect, self.splits, axis=2), self.stacks, w)
        return [e.reshape(n, n, *s.shape[1:]) / wk for e, s, wk in parts]

    def support(self):
        """sum_i L_i e1 L_i* = W W*, where column (i, s) of W is vec(x_i q_s)."""
        qs = zip(self.stacks, np.split(self.sub.mat, self.splits))
        cols = [np.einsum("iab,bcs->acis", s, q.reshape(*s.shape[1:], -1)).reshape(len(q), -1) for s, q in qs]
        w = np.concatenate(cols)
        return w @ w.conj().T


def _gram_residuals(blocks, alg):
    """Projection residual and 1 + norm of the Gram matrix, from its n n_k-square
    blocks; largest GNS 2-norms of the off-diagonal entries, of q^2 - q or
    q - q* for the diagonal entries q, and of q - 1."""
    norm = res = 0.0
    for g in blocks:
        big = g.transpose(0, 2, 1, 3).reshape(g.shape[0] * g.shape[2], -1)
        norm = max(norm, linalg.operator_norm(big))
        res = max(res, *linalg.projection_residuals(big))

    def norms(arrays):
        return np.sqrt(sum(t * np.sum((a.conj() * a).real, axis=(-2, -1)) for t, a in zip(alg.trace_vector, arrays)))

    n = blocks[0].shape[0]
    diag = [g[np.arange(n), np.arange(n)] for g in blocks]
    off = norms(blocks)[~np.eye(n, dtype=bool)].max(initial=0.0)
    proj = max(norms([q @ q - q for q in diag]).max(), norms([q - q.conj().transpose(0, 2, 1) for q in diag]).max())
    one = norms([q - np.eye(q.shape[-1]) for q in diag]).max()
    return res, 1.0 + norm, float(off), float(proj), float(one)


def _entries(blocks, alg):
    n = blocks[0].shape[0]
    return [[alg.element([g[i, j] for g in blocks]) for j in range(n)] for i in range(n)]


def gram_matrix(elements, sub, side="right"):
    """n x n matrix of Gram entries in N (right: E(x_i* x_j), left: E(x_i x_j*))."""
    return _entries(_Family(tuple(elements), sub, side).gram(), sub.ambient)


def support_operator(elements, bc, side="right", warn_tol=EPS_SYS):
    """GNS support projection of a family (right: sum L e1 L*, left: sum L* e1 L).

    Warns (and still returns the operator) when the family is not a system,
    since the projection property of the support needs that hypothesis.
    """
    family = _Family(tuple(elements), bc.sub, side)
    r, scale, *_ = _gram_residuals(family.gram(), bc.amb)
    if r > warn_tol * scale:
        warnings.warn("family is not a system; support need not be a projection", stacklevel=2)
    return family.support()


@dataclass
class PPSystem:
    """A classified family over a subalgebra."""

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

    def is_system(self):
        return self.flags["system"]

    def is_basis(self):
        return self.flags["basis"]


def classify(elements, sub, side="two-sided", bc=None, tol=EPS_SYS, seed=0):
    """Classify a family as system / orthogonal / orthonormal / basis.

    ``side`` is "right", "left" or "two-sided"; two-sided requires both
    handed tests to pass.  Classification is eager: Gram matrices and
    supports for each requested side are computed and kept on the result.
    """
    elements = tuple(elements)
    if side not in ("right", "left", "two-sided"):
        raise InvalidInput("side must be 'right', 'left' or 'two-sided'")
    if bc is None:
        bc = BasicConstruction(sub, seed=seed)
    sides = ("right", "left") if side == "two-sided" else (side,)
    grams, supports, residuals = {}, {}, {}
    flags = {"system": True, "orthogonal": True, "orthonormal": True, "basis": True}
    for s in sides:
        family = _Family(elements, sub, s)
        g = family.gram()
        grams[s] = _entries(g, sub.ambient)
        r, scale, off, diag_proj, diag_one = _gram_residuals(g, sub.ambient)
        supports[s] = family.support()
        basis_res = linalg.hermitian_norm(supports[s] - np.eye(bc.gns_dim))
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


def _abstract_ranks(blocks):
    """Blockwise ranks of an abstract projection, by rounded block traces."""
    ranks = []
    for b in blocks:
        t = float(np.trace(b).real)
        if abs(t - round(t)) > 1e-6:
            raise NotAProjection("block trace %.6g of a projection is not an integer" % t)
        ranks.append(int(round(t)))
    return ranks


def _range_vectors(block, count, tol=1e-6):
    """First ``count`` orthonormal eigenvectors of an abstract projection block."""
    vals, vecs = np.linalg.eigh(block)
    keep = [i for i in range(vals.size) if vals[i] > 0.5]
    if len(keep) < count:
        raise NotAProjection("projection block has rank %d < %d" % (len(keep), count))
    keep = keep[::-1]  # descending eigenvalue order, deterministic
    return vecs[:, keep[:count]]


def construct_system_with_support(f, bc, mode="general", tol=EPS_SYS):
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
    if hasattr(f, "blocks"):
        f = f.blocks[0]
    f = np.asarray(f, dtype=complex)
    scale = 1.0 + linalg.operator_norm(f)
    r_idem, r_adj = linalg.projection_residuals(f)
    if max(r_idem, r_adj) > tol * scale:
        raise NotAProjection("prescribed support is not a projection (residual %.3g)" % max(r_idem, r_adj))
    if bc.in_m1_residual(f) > tol * scale:
        raise InvalidInput("prescribed support does not lie in M1")
    wd = bc.m1_wedd
    f_abs = wd.to_abstract(bc.op_element(f))
    e_abs = wd.to_abstract(bc.op_element(bc.e1))
    ranks_f = _abstract_ranks(f_abs)
    ranks_e = _abstract_ranks(e_abs)
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
        vmat = wd.from_abstract(blocks).blocks[0]
        elements.append(bc.pushdown(vmat))
    if not elements:
        raise InvalidInput("prescribed support is zero; the empty family has no classification")
    sys = classify(elements, bc.sub, side="right", bc=bc, tol=tol)
    sys.residuals["support_match"] = linalg.operator_norm(sys.support["right"] - f)
    return sys


def complete_to_basis(system, bc=None, tol=EPS_SYS):
    """Extend a right system to a right basis, keeping the input elements.

    The complement 1 - support is handed to the general construction; the
    returned system starts with the original elements verbatim.
    """
    if not isinstance(system, PPSystem):
        raise InvalidInput("complete_to_basis expects a classified system")
    if system.side not in ("right",):
        raise InvalidInput("completion is implemented for right systems")
    bc = bc or system.bc
    if not system.flags["system"]:
        raise NotASystem("cannot complete: the Gram matrix is not a projection")
    supp = system.support["right"]
    g = np.eye(bc.gns_dim) - supp
    if linalg.operator_norm(g) <= tol:
        return system
    extension = construct_system_with_support(g, bc, mode="general", tol=tol)
    combined = tuple(system.elements) + tuple(extension.elements)
    out = classify(combined, system.sub, side="right", bc=bc, tol=tol)
    assert out.elements[: system.size] == tuple(system.elements)
    return out
