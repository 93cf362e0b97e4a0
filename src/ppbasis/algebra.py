"""Finite-dimensional multi-matrix *-algebras with a fixed faithful trace.

An algebra here is a direct sum of full complex matrix blocks M_{n_1} + ... +
M_{n_k}; an element carries one numpy array per block.  A trace vector
assigns a positive weight t_i to the i-th block's matrix trace, normalized so
the whole functional is a state: sum n_i t_i = 1.  The induced inner product
<x, y> = tr(y* x) makes the algebra a Hilbert space (its GNS space); vec()
maps elements to coordinates in which that inner product is the standard one,
so subalgebras, conditional expectations and commutants below are ordinary
orthogonal-projection and nullspace computations.
"""

import functools

import numpy as np

from . import linalg
from .errors import (
    DegenerateSpectrum,
    InvalidInput,
    NonUnitalInclusion,
    NotSubalgebra,
    NotUnitary,
    TraceMismatch,
)

class MultiMatrixAlgebra:
    """Direct sum of matrix blocks with a faithful tracial state."""

    def __init__(self, dims, trace_vector):
        dims = tuple(int(n) for n in dims)
        if not dims or any(n < 1 for n in dims):
            raise InvalidInput("block dims must be positive integers, got %r" % (dims,))
        t = np.asarray(trace_vector, dtype=float)
        if t.shape != (len(dims),):
            raise InvalidInput("trace vector length %d != number of blocks %d" % (t.size, len(dims)))
        if not np.all(np.isfinite(t)):
            raise InvalidInput("trace vector must be finite, got %r" % (t,))
        if np.any(t <= 0):
            raise InvalidInput("trace vector must be strictly positive, got %r" % (t,))
        total = float(np.dot(dims, t))
        if abs(total - 1.0) > linalg.EPS_TRACE:
            raise InvalidInput("trace vector must satisfy sum n_i t_i = 1, got %.17g" % total)
        self.dims = dims
        self.trace_vector = t
        self.gns_weights = np.sqrt(np.repeat(t, np.square(dims)))  # vec scales block i by sqrt(t_i)
        offs = [0]
        for n in dims:
            offs.append(offs[-1] + n * n)
        self._offsets = tuple(offs)
        self.gns_dim = offs[-1]
        # vec(x*) = conj(vec(x))[_conj_idx]: the transpose of each block's coordinates
        self._conj_idx = np.concatenate([lo + np.arange(n * n).reshape(n, n).T.ravel() for n, lo in zip(dims, offs)])

    @property
    def dim(self):
        """Linear dimension sum n_i^2 (same as the GNS dimension)."""
        return self.gns_dim

    @property
    def nblocks(self):
        return len(self.dims)

    def __repr__(self):
        return "MultiMatrixAlgebra(dims=%r)" % (list(self.dims),)

    def same_structure(self, other):
        return (
            isinstance(other, MultiMatrixAlgebra)
            and self.dims == other.dims
            and np.allclose(self.trace_vector, other.trace_vector, rtol=0, atol=linalg.EPS_TRACE)
        )

    def check_owns(self, x):
        """InvalidInput unless ``x`` is an element of this algebra or of one with the same structure."""
        if x.alg is not self and not self.same_structure(x.alg):
            raise InvalidInput("elements live in different algebras")

    # -- element factories -------------------------------------------------

    def element(self, blocks):
        return AlgebraElement(self, blocks)

    def zero(self):
        return AlgebraElement(self, [np.zeros((n, n), dtype=complex) for n in self.dims])

    def identity(self):
        return AlgebraElement(self, [np.eye(n, dtype=complex) for n in self.dims])

    def scalar(self, c):
        return AlgebraElement(self, [c * np.eye(n, dtype=complex) for n in self.dims])

    def unit(self, block, p, q):
        """Matrix unit e_{pq} inside the given block."""
        n = self.dims[block]
        if not (0 <= p < n and 0 <= q < n):
            raise InvalidInput("unit index (%d,%d) out of range for block of size %d" % (p, q, n))
        blocks = [np.zeros((m, m), dtype=complex) for m in self.dims]
        blocks[block][p, q] = 1.0
        return AlgebraElement(self, blocks)

    def units(self):
        """All matrix units, ordered by (block, row, column)."""
        out = []
        for b, n in enumerate(self.dims):
            for p in range(n):
                for q in range(n):
                    out.append(self.unit(b, p, q))
        return out

    def random_element(self, rng, hermitian=False):
        blocks = []
        for n in self.dims:
            g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            blocks.append((g + g.conj().T) / 2.0 if hermitian else g)
        return AlgebraElement(self, blocks)

    # -- GNS coordinates ---------------------------------------------------

    def vec(self, x):
        """Coordinates in which <x,y> = tr(y* x) is the standard inner product."""
        self.check_owns(x)
        return np.concatenate([b.reshape(-1) for b in x.blocks]) * self.gns_weights

    def unvec(self, v):
        v = np.asarray(v, dtype=complex)
        if v.shape != (self.gns_dim,):
            raise InvalidInput("vector length %r != GNS dimension %d" % (v.shape, self.gns_dim))
        v = v / self.gns_weights
        cuts = zip(self.dims, self._offsets, self._offsets[1:])
        return AlgebraElement(self, [v[lo:hi].reshape(n, n) for n, lo, hi in cuts])

    def products(self, a, b):
        """GNS coordinates of the products x y, with x and y over the elements whose
        coordinates are the columns of ``a`` and ``b`` (x slowest), one batched pass per block."""
        cols = []
        for n, t, lo, hi in zip(self.dims, self.trace_vector, self._offsets, self._offsets[1:]):
            x, y = (m[lo:hi].T.reshape(-1, n, n) for m in (a, b))
            cols.append((x[:, None] @ y[None]).reshape(-1, n * n).T / np.sqrt(t))
        return np.concatenate(cols)

    def left_op(self, x):
        """Matrix of left multiplication by ``x`` on the GNS space."""
        return linalg.block_diag([np.kron(x.blocks[i], np.eye(n)) for i, n in enumerate(self.dims)])

    def right_op(self, x):
        """Matrix of right multiplication by ``x`` on the GNS space."""
        return linalg.block_diag([np.kron(np.eye(n), x.blocks[i].T) for i, n in enumerate(self.dims)])

    def modular_conjugation(self, v):
        """J acting on GNS coordinates (a vector or a column stack): the conjugate-linear map x^ -> (x*)^."""
        return np.conj(np.asarray(v, dtype=complex))[self._conj_idx]

    def sandwich_j(self, op):
        """The linear operator J T J for a linear operator T on the GNS space."""
        return np.conj(np.asarray(op, dtype=complex))[self._conj_idx][:, self._conj_idx]


class AlgebraElement:
    __slots__ = ("alg", "blocks")

    def __init__(self, alg, blocks):
        blocks = [np.array(b, dtype=complex) for b in blocks]
        if len(blocks) != len(alg.dims):
            raise InvalidInput("expected %d blocks, got %d" % (len(alg.dims), len(blocks)))
        for b, n in zip(blocks, alg.dims):
            if b.shape != (n, n):
                raise InvalidInput("block shape %r != (%d, %d)" % (b.shape, n, n))
        self.alg = alg
        self.blocks = blocks

    def __add__(self, other):
        self.alg.check_owns(other)
        return AlgebraElement(self.alg, [a + b for a, b in zip(self.blocks, other.blocks)])

    def __sub__(self, other):
        self.alg.check_owns(other)
        return AlgebraElement(self.alg, [a - b for a, b in zip(self.blocks, other.blocks)])

    def __neg__(self):
        return AlgebraElement(self.alg, [-a for a in self.blocks])

    def __mul__(self, other):
        if isinstance(other, AlgebraElement):
            self.alg.check_owns(other)
            return AlgebraElement(self.alg, [a @ b for a, b in zip(self.blocks, other.blocks)])
        return AlgebraElement(self.alg, [other * a for a in self.blocks])

    def __rmul__(self, other):
        return AlgebraElement(self.alg, [other * a for a in self.blocks])

    def __truediv__(self, c):
        return AlgebraElement(self.alg, [a / c for a in self.blocks])

    def adjoint(self):
        return AlgebraElement(self.alg, [a.conj().T for a in self.blocks])

    def trace(self):
        return complex(sum(t * np.trace(b) for t, b in zip(self.alg.trace_vector, self.blocks)))

    def norm(self):
        """GNS 2-norm sqrt(tr(x* x))."""
        return float(np.sqrt(max(0.0, ((self.adjoint() * self).trace()).real)))

    def op_norm(self):
        """Largest block norm, from one stacked ``operator_norm`` call per block size."""
        return max(linalg.operator_norm(np.stack([b for b in self.blocks if len(b) == n])) for n in set(self.alg.dims))

    def vec(self):
        return self.alg.vec(self)

    def conj_by(self, u):
        """u x u* for a (typically unitary) element u."""
        return u * self * u.adjoint()

    def is_projection(self, tol=linalg.EPS_FLAG):
        scale = 1.0 + self.op_norm()
        return ((self * self) - self).op_norm() <= tol * scale and (self - self.adjoint()).op_norm() <= tol * scale

    def is_unitary(self, tol=linalg.EPS_FLAG):
        one = self.alg.identity()
        return ((self * self.adjoint()) - one).op_norm() <= tol and ((self.adjoint() * self) - one).op_norm() <= tol

    def allclose(self, other, tol=linalg.EPS_INPUT):
        self.alg.check_owns(other)
        return all(np.allclose(a, b, rtol=0, atol=tol) for a, b in zip(self.blocks, other.blocks))

    def __repr__(self):
        return "AlgebraElement(dims=%r, norm=%.6g)" % (list(self.alg.dims), self.norm())


def check_unital_dims(source_dims, inclusion, ambient_dims):
    """Dims side of unitality: ambient dims must equal inclusion^T @ source dims."""
    lam = np.round(np.asarray(inclusion)).astype(int)
    if lam.ndim != 2 or lam.shape[0] != len(source_dims):
        raise InvalidInput("inclusion matrix needs one row per source block")
    expected = lam.T @ np.asarray(source_dims)
    if not np.array_equal(expected, np.asarray(ambient_dims)):
        raise NonUnitalInclusion(
            "unitality requires ambient dims = inclusion^T @ source dims: got %r, need %r"
            % (list(ambient_dims), list(expected))
        )


class UnitalEmbedding:
    """Canonical unital *-embedding described by a multiplicity matrix.

    ``inclusion[i, j]`` counts how many times source block i repeats inside
    target block j.  Unitality forces n_j = sum_i inclusion[i, j] * m_i and
    trace compatibility forces t_src = inclusion @ t_tgt; both are validated.
    Optional per-target-block unitaries rotate the embedded copy.
    """

    def __init__(self, source, target, inclusion, block_unitaries=None):
        lam = np.asarray(inclusion)
        if lam.shape != (source.nblocks, target.nblocks):
            raise InvalidInput("inclusion matrix shape %r != (%d, %d)" % (lam.shape, source.nblocks, target.nblocks))
        lam = linalg.integer_matrix(lam, "inclusion matrix")
        if np.any(lam.sum(axis=1) == 0):
            raise NonUnitalInclusion("a source block is annihilated (zero row in the inclusion matrix)")
        check_unital_dims(source.dims, lam, target.dims)
        restricted = lam @ target.trace_vector
        if np.max(np.abs(restricted - source.trace_vector)) > linalg.EPS_INPUT:
            raise TraceMismatch(
                "source trace %r != inclusion @ target trace %r" % (list(source.trace_vector), list(restricted))
            )
        if block_unitaries is not None:
            block_unitaries = [np.asarray(u, dtype=complex) for u in block_unitaries]
            if len(block_unitaries) != target.nblocks:
                raise InvalidInput("need one unitary per target block")
            for u, n in zip(block_unitaries, target.dims):
                if u.shape != (n, n) or linalg.operator_norm(u @ u.conj().T - np.eye(n)) > linalg.EPS_INPUT:
                    raise NotUnitary("block unitary is not a unitary of the right size")
        self.source = source
        self.target = target
        self.inclusion = lam
        self.block_unitaries = block_unitaries
        self._image = None

    @classmethod
    def canonical(cls, source_dims, target, inclusion, block_unitaries=None):
        """Build the source algebra with the restricted trace, then embed."""
        lam = np.asarray(inclusion)
        # check shape and unitality up front so a dims mismatch is reported
        # as such rather than as a trace normalization failure
        check_unital_dims(source_dims, lam, target.dims)
        t_src = lam @ target.trace_vector
        source = MultiMatrixAlgebra(source_dims, t_src)
        return cls(source, target, lam, block_unitaries)

    def apply(self, x):
        blocks = []
        for j, n in enumerate(self.target.dims):
            parts = []
            for i in range(self.source.nblocks):
                mult = self.inclusion[i, j]
                if mult > 0:
                    parts.append(np.kron(np.eye(mult), x.blocks[i]))
            blk = linalg.block_diag(parts)
            if self.block_unitaries is not None:
                u = self.block_unitaries[j]
                blk = u @ blk @ u.conj().T
            blocks.append(blk)
        return AlgebraElement(self.target, blocks)

    def image(self):
        """The embedded copy of the source, as a Subalgebra of the target that
        keeps the images of the source's matrix units."""
        if self._image is None:
            self._image = Subalgebra.embedded(self.target, self.source, self.apply)
        return self._image


class Subalgebra:
    """A unital *-subalgebra held as an orthonormal GNS basis of its span."""

    def __init__(self, ambient, basis_matrix):
        self.ambient = ambient
        self.mat = np.asarray(basis_matrix, dtype=complex)
        if self.mat.ndim != 2 or self.mat.shape[0] != ambient.gns_dim:
            raise InvalidInput("basis matrix must be GNS-dim x s")
        self._elements = None
        self._projection = None
        self._wedderburn = None
        self._units = None

    @classmethod
    def span(cls, ambient, elements, check=True):
        if not elements:
            raise InvalidInput("need at least one spanning element")
        cols = np.stack([e.vec() for e in elements], axis=1)
        sub = cls(ambient, linalg.orthonormal_columns(cols))
        if check:
            sub._verify_closure()
        return sub

    @classmethod
    def embedded(cls, ambient, source, embed):
        """The image of ``source`` under the unital *-embedding ``embed``, which
        keeps the images of the matrix units of ``source`` as its Wedderburn data."""
        units = [[[embed(source.unit(i, p, q)) for q in range(m)] for p in range(m)] for i, m in enumerate(source.dims)]
        sub = cls.span(ambient, [x for block in units for row in block for x in row], check=False)
        sub._units = WedderburnData(sub, source.dims, [u[0][0].trace().real for u in units], units)
        return sub

    @classmethod
    def generated(cls, ambient, elements):
        """Smallest unital *-subalgebra containing the given elements.

        Krylov closure: the algebra generated by a *-closed set S is the least
        subspace holding 1 that S maps into itself by left multiplication.  From
        1, each round multiplies an orthonormal basis of span(S) into the
        vectors the last round added (``products``), projects the products
        off the basis, keeps what passes the EPS_RANK cut, and stops when a
        round adds nothing or the span is all of the ambient algebra.
        """
        work = [ambient.identity()] + list(elements) + [e.adjoint() for e in elements]
        gens = linalg.orthonormal_columns(np.stack([e.vec() for e in work], axis=1))
        mat = new = linalg.orthonormal_columns(ambient.identity().vec()[:, None])
        while new.shape[1] and mat.shape[1] < ambient.dim:
            cand = ambient.products(gens, new)
            for _ in range(2):
                cand = cand - mat @ (mat.conj().T @ cand)
            new = linalg.orthonormal_columns(cand)
            new = new - mat @ (mat.conj().T @ new)  # the SVD's U leaks a few ulps into the cut directions
            mat = np.concatenate([mat, new], axis=1)
        return cls(ambient, mat)

    def _verify_closure(self):
        """NotSubalgebra unless 1, the adjoints (J of the basis columns) and the products of the basis lie in the span."""
        amb, q = self.ambient, self.mat
        cols = [amb.vec(amb.identity())[:, None], amb.modular_conjugation(q), amb.products(q, q)]
        worst = float(self.residuals(np.concatenate(cols, axis=1)).max())
        if worst > linalg.EPS_REL:
            raise NotSubalgebra("span is not a unital *-subalgebra (residual %.3g)" % worst)

    @property
    def dim(self):
        return self.mat.shape[1]

    def basis_elements(self):
        if self._elements is None:
            self._elements = [self.ambient.unvec(self.mat[:, i]) for i in range(self.mat.shape[1])]
        return self._elements

    def wedderburn_data(self, seed=0):
        """The kept matrix units of a subalgebra built from them (``embedded``, ``_closed_form``);
        otherwise ``wedderburn(self, seed)``, decomposed once, at the seed of the first call."""
        if self._units is not None:
            return self._units
        if self._wedderburn is None:
            self._wedderburn = wedderburn(self, seed=seed)
        return self._wedderburn

    def projection_matrix(self):
        """Orthogonal projection of the GNS space onto the subalgebra, formed
        once and kept as a read-only array."""
        if self._projection is None:
            self._projection = self.mat @ self.mat.conj().T
            self._projection.flags.writeable = False
        return self._projection

    def expect(self, x):
        """Trace-preserving conditional expectation onto this subalgebra."""
        v = x.vec()
        return self.ambient.unvec(self.mat @ (self.mat.conj().T @ v))

    def residuals(self, cols):
        """GNS distances to the subalgebra of the elements whose coordinates are the columns of ``cols``."""
        return np.linalg.norm(cols - self.mat @ (self.mat.conj().T @ cols), axis=0)

    def residual(self, x):
        return float(self.residuals(self.ambient.vec(x)[:, None])[0])

    def contains(self, x):
        return self.residual(x) <= linalg.EPS_FLAG * (1.0 + x.norm())


def relative_commutant(sub, within=None):
    """Elements of ``within`` (default: the ambient algebra) commuting with ``sub``:
    the nullspace of the commutators [b, w] of their bases, from two batched
    product passes (b w and w b), with no operator on the GNS space."""
    amb = sub.ambient
    w = np.eye(amb.dim, dtype=complex) if within is None else within.mat
    bw = amb.products(sub.mat, w).reshape(-1, sub.dim, w.shape[1])
    wb = amb.products(w, sub.mat).reshape(-1, w.shape[1], sub.dim)
    coeff = linalg.nullspace((bw - wb.transpose(0, 2, 1)).reshape(-1, w.shape[1]))
    return Subalgebra(amb, linalg.orthonormal_columns(w @ coeff))


def _in_block(alg, j, x):
    """The element of ``alg`` with block j equal to x and every other block zero."""
    return AlgebraElement(alg, [x if k == j else np.zeros((n, n)) for k, n in enumerate(alg.dims)])


def _closed_form(wd, join):
    """N' cap M, or with ``join`` R = N v (N' cap M), keeping matrix units read off N's
    (Goodman, de la Harpe and Jones).  For N's block i and M's block j, with v_a an
    orthonormal basis of the range of e^i_00 in block j, the (e^i_p0 v_a)(e^i_q0 v_b)*
    = e^i_pq f_ab are the units of R's block M_{m_i Lambda_ij}, of trace t_j; their
    sums over p = q, the f_ab, those of the block M_{Lambda_ij} of N' cap M, of trace m_i t_j."""
    amb = wd.subalgebra.ambient
    traces, units = [], []
    for m, e in zip(wd.block_dims, wd.units):
        for j, t in enumerate(amb.trace_vector):
            v = linalg.orthonormal_columns(e[0][0].blocks[j])
            if not v.shape[1]:
                continue
            w = np.stack([e[p][0].blocks[j] @ v for p in range(m)])  # the e^i_p0 v_a, as (m, n_j, Lambda_ij)
            f = np.einsum("pxa,qyb->paqbxy", w, w.conj())
            f = f.reshape(m * v.shape[1], m * v.shape[1], *f.shape[-2:]) if join else np.einsum("papbxy->abxy", f)
            units.append([[_in_block(amb, j, x) for x in row] for row in f])
            traces.append(t if join else m * t)
    # the units scaled by 1/sqrt(trace) are orthonormal
    mat = np.stack([x.vec() / np.sqrt(t) for t, block in zip(traces, units) for row in block for x in row], axis=1)
    sub = Subalgebra(amb, mat)
    sub._units = WedderburnData(sub, [len(u) for u in units], traces, units)
    return sub._units


def commutant_wedderburn(wd):
    """Matrix units of N' cap M = sum of the M_{Lambda_ij}, in closed form from N's."""
    return _closed_form(wd, join=False)


def join_wedderburn(wd):
    """Matrix units of R = N v (N' cap M) = sum of the M_{m_i Lambda_ij}, in closed form from N's."""
    return _closed_form(wd, join=True)


class WedderburnData:
    """Block structure of a subalgebra: its block dims and matrix units.

    ``units[b][p][q]`` are elements of the ambient algebra satisfying the matrix-unit
    relations inside block b, with the units[b][p][p] summing to 1; ``block_traces[b]``
    is the ambient trace of a minimal projection of that block, so the abstract copy
    carries the restricted trace; the columns of ``unit_mat`` are the units' GNS coordinates.
    """

    def __init__(self, subalgebra, block_dims, block_traces, units):
        self.subalgebra = subalgebra
        self.block_dims = tuple(block_dims)
        self.block_traces = tuple(block_traces)
        self.units = units
        self.unit_mat = np.stack([x.vec() for block in units for row in block for x in row], axis=1)
        self._scale = np.repeat(self.block_traces, [d * d for d in self.block_dims])
        self._cuts = np.cumsum([d * d for d in self.block_dims])[:-1]

    def abstract(self):
        # renormalize away float drift so the trace-sum check stays exact
        total = sum(d * t for d, t in zip(self.block_dims, self.block_traces))
        return MultiMatrixAlgebra(self.block_dims, tuple(t / total for t in self.block_traces))

    def abstract_blocks(self, pairings):
        """Coefficient blocks of E(x) in the matrix-unit basis, one (..., d, d) array per block,
        for the elements x whose pairings <x, e_pq> = tr(e_qp x) run along the last axis."""
        coeffs = np.split(pairings / self._scale, self._cuts, axis=-1)
        return [c.reshape(*pairings.shape[:-1], d, d) for c, d in zip(coeffs, self.block_dims)]

    def to_abstract(self, x):
        """Coefficient blocks of ``x`` in the matrix-unit basis."""
        return self.abstract_blocks((x.vec().conj() @ self.unit_mat).conj())

    def from_abstract(self, blocks):
        flat = np.concatenate([np.asarray(b, dtype=complex).reshape(-1) for b in blocks])
        if flat.shape != (self.unit_mat.shape[1],):
            raise InvalidInput("abstract blocks have the wrong shapes")
        return self.subalgebra.ambient.unvec(self.unit_mat @ flat)

    def roundtrip_residual(self, x):
        return (x - self.from_abstract(self.to_abstract(x))).norm()


def _spectral_split(h):
    """Spectral data of a Hermitian element: (means, vecs, masks).  ``vecs`` holds the
    eigenvectors of each block; ``masks[i][:, c]`` marks the columns of vecs[i] in
    cluster c, the eigenvalues of all blocks grouped by ``cluster_values`` (means
    increasing).  The columns of a cluster span one spectral projection of h; for a
    generic Hermitian h in a subalgebra A, these are the minimal projections of A."""
    eigdata = [linalg.eigh(blk) for blk in h.blocks]
    clusters = linalg.cluster_values(np.concatenate([vals for vals, _ in eigdata]))
    member = np.zeros((sum(h.alg.dims), len(clusters)), dtype=bool)
    for c, (_, idx) in enumerate(clusters):
        member[idx, c] = True
    return [m for m, _ in clusters], [v for _, v in eigdata], np.split(member, np.cumsum(h.alg.dims)[:-1])


def _row_residual(sub, row, qs):
    """Largest GNS-norm residual of row 0 of a block's matrix units, the partial
    isometries w_p = u_0p: each w_p lies in the subalgebra, w_p w_p* = u_00 = q_0 and
    w_p* w_p = q_p, the block's p-th minimal projection.  The units u_pq = w_p* w_q
    then satisfy every matrix-unit relation, from 2d products instead of d^4."""
    adj = [w.adjoint() for w in row]
    res = [(w * a - qs[0]).norm() for w, a in zip(row, adj)] + [(a * w - q).norm() for w, a, q in zip(row, adj, qs)]
    return max(float(sub.residuals(np.stack([w.vec() for w in row], axis=1)).max()), *res)


def _random_combination(sub, rng, hermitian=True):
    """Random combination of the basis of ``sub``; the generator ``rng()`` is made on first use."""
    x = sub.ambient.unvec(sub.mat @ (rng().standard_normal(sub.dim) + 1j * rng().standard_normal(sub.dim)))
    return (x + x.adjoint()) * 0.5 if hermitian else x


def _attempt_wedderburn(sub, rng):
    """One seeded pass: the spectral projections q_c of a random Hermitian h in A, and
    a random g in A, whose links q_a g q_c are nonzero exactly within a block.  Each q_c
    joins the first block whose leader q_0 links to it; the normalized links q_0 g q_c are
    row 0 of the block's units, checked before the u_pq = u_0p* u_0q are formed.  A = C 1
    draws no random numbers."""
    amb = sub.ambient
    if sub.dim == 1:
        h = g = amb.identity()
    else:
        h, g = _random_combination(sub, rng), _random_combination(sub, rng, hermitian=False)
    means, vecs, masks = _spectral_split(h)
    qs = []
    for c in range(len(means)):
        cols = [v[:, m[:, c]] for v, m in zip(vecs, masks)]
        qs.append(AlgebraElement(amb, [x @ x.conj().T for x in cols]))
        if not qs[c].is_projection(linalg.EPS_WEDD) or sub.residual(qs[c]) > linalg.EPS_WEDD:
            raise DegenerateSpectrum("spectral projection left the subalgebra")
    # the GNS norms of all q_a g q_c, read off g in the eigenbases: sum over blocks of t |V_a* g V_c|^2
    links = np.sqrt(sum(t * m.T @ np.abs(v.conj().T @ x @ v) ** 2 @ m
                        for t, v, m, x in zip(amb.trace_vector, vecs, masks, g.blocks)))
    groups = []
    for c in range(len(qs)):
        grp = next((grp for grp in groups if links[grp[0], c] >= linalg.EPS_FLAG), None)
        if grp is None:
            groups.append([c])
        else:
            grp.append(c)
    if sum(len(grp) ** 2 for grp in groups) != sub.dim:
        raise DegenerateSpectrum("block dimensions do not add up to the subalgebra dimension")
    blocks = []
    for grp in groups:
        row0 = [qs[grp[0]]]
        for c in grp[1:]:
            w = row0[0] * g * qs[c]
            row0.append(w / np.sqrt((w * w.adjoint()).trace().real / row0[0].trace().real))
        worst = _row_residual(sub, row0, [qs[c] for c in grp])
        if worst > linalg.EPS_WEDD:
            raise DegenerateSpectrum("matrix-unit relations violated (residual %.3g)" % worst)
        d = len(row0)
        units = [[row0[p].adjoint() * row0[q] for q in range(d)] for p in range(d)]
        blocks.append({"mean": means[grp[0]], "d": d, "t": units[0][0].trace().real, "units": units})
    # deterministic ordering independent of the random eigenvalues where possible
    blocks.sort(key=lambda b: (b["d"], round(b["t"], 9), b["mean"]))
    return WedderburnData(sub, *([b[key] for b in blocks] for key in ("d", "t", "units")))


def wedderburn(sub, seed=0):
    """Decompose a subalgebra into matrix blocks with explicit matrix units.

    No centre is formed: the minimal projections are the spectral projections
    of one random Hermitian element, and one random element links those of a
    block (Murota, Kanno, Kojima and Kojima, JJIAM 27, 2010).  An attempt is
    accepted when each projection lies in the subalgebra, the block dims give
    sum d^2 = dim and each block's row 0 passes ``_row_residual``, all to
    EPS_WEDD; WEDD_TRIES seeds before DegenerateSpectrum.
    """
    last = None
    for attempt in range(linalg.WEDD_TRIES):
        rng = functools.cache(functools.partial(linalg.rng_from_seed, (seed, attempt)))
        try:
            return _attempt_wedderburn(sub, rng)
        except DegenerateSpectrum as exc:
            last = exc
    raise DegenerateSpectrum("wedderburn failed after %d attempts: %s" % (linalg.WEDD_TRIES, last))


def inclusion_matrix(wd):
    """Multiplicity matrix of the subalgebra's blocks inside the ambient blocks.

    Entry (i, j) is the rank of the j-th ambient block of a minimal projection
    of subalgebra block i.
    """
    amb = wd.subalgebra.ambient
    lam = np.array([[linalg.integer_trace(b, InvalidInput) for b in u[0][0].blocks] for u in wd.units], dtype=int)
    if not np.array_equal(lam.T @ np.asarray(wd.block_dims), np.asarray(amb.dims)):
        raise NonUnitalInclusion("block multiplicities inconsistent with a unital inclusion")
    return lam
