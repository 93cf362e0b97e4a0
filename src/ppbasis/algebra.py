"""Finite-dimensional multi-matrix *-algebras with a fixed faithful trace.

An algebra here is a direct sum of full complex matrix blocks M_{n_1} + ... +
M_{n_k}; an element carries one numpy array per block.  A trace vector
assigns a positive weight t_i to the i-th block's matrix trace, normalized so
the whole functional is a state: sum n_i t_i = 1.  The induced inner product
<x, y> = tr(y* x) makes the algebra a Hilbert space (its GNS space); vec()
maps elements to coordinates in which that inner product is the standard one,
so subalgebras and conditional expectations below are orthogonal projections
onto orthonormal bases, read off matrix units or eigenvectors wherever they give one.
Matrix units are kept as GNS columns (``wd.unit_mat``, one read back by ``wd.unit(b, p, q)``), and what
is read off N's is kept on them once (``wd.lam``, ``wd.m1``, ``wd.commutant``, ``wd.join``, ``wd.inner_basis``).
An inclusion is embedded one way, by ``UnitalEmbedding(source_dims, target, inclusion)``: its source carries the
restricted trace inclusion @ t_target, compatible by construction.
"""

import functools

import numpy as np

from . import linalg
from .basic import M1Wedderburn
from .errors import (
    DegenerateSpectrum,
    InvalidInput,
    NonUnitalInclusion,
    NotSubalgebra,
    NotUnitary,
)

def _check_unit(dims, b, p, q):
    """InvalidInput unless (b, p, q) names a matrix unit e^b_pq of blocks of the sizes ``dims``."""
    if not (0 <= b < len(dims) and 0 <= p < dims[b] and 0 <= q < dims[b]):
        raise InvalidInput("unit (%d, %d, %d) out of range for blocks of sizes %r" % (b, p, q, tuple(dims)))


class MultiMatrixAlgebra:
    """Direct sum of matrix blocks with a faithful tracial state."""

    def __init__(self, dims, trace_vector):
        dims = tuple(linalg.integers(dims, "block dims").tolist())
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

    @functools.cached_property
    def size_groups(self):
        """Per block size, in order of first appearance: (block indices, GNS coordinates, a slice if adjacent)."""
        groups = [[j for j, d in enumerate(self.dims) if d == n] for n in dict.fromkeys(self.dims)]
        coords = [np.concatenate([np.arange(*self._offsets[j:j + 2]) for j in js]) for js in groups]
        return [(js, slice(c[0], c[-1] + 1) if np.all(np.diff(c) == 1) else c) for js, c in zip(groups, coords)]

    def stacked(self, elements):
        """The elements' blocks as one (count, g, n, n) array per ``size_groups`` entry; ``unstacked`` reverses it."""
        for x in elements:
            self.check_owns(x)
        return [np.array([[x.blocks[j] for j in js] for x in elements]) for js, _ in self.size_groups]

    def unstacked(self, stacks):
        where = sorted((j, g, p) for g, (js, _) in enumerate(self.size_groups) for p, j in enumerate(js))
        return [AlgebraElement(self, [stacks[g][k, p] for _, g, p in where]) for k in range(len(stacks[0]))]

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
        """Matrix unit e_{pq} inside the given block; InvalidInput for an index out of range."""
        _check_unit(self.dims, block, p, q)
        blocks = [np.zeros((m, m), dtype=complex) for m in self.dims]
        blocks[block][p, q] = 1.0
        return AlgebraElement(self, blocks)

    def units(self):
        """All matrix units, ordered by (block, row, column)."""
        return [self.unit(b, p, q) for b, n in enumerate(self.dims) for p in range(n) for q in range(n)]

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
        return AlgebraElement(self, self._read_back(v))

    def _read_back(self, v):
        """The blocks of the element with GNS coordinates ``v``, the weights divided out of re and im apart:
        a complex division would round, and a 1 stays exact."""
        v = v.real / self.gns_weights + 1j * (v.imag / self.gns_weights)
        return [v[lo:hi].reshape(n, n) for n, lo, hi in zip(self.dims, self._offsets, self._offsets[1:])]

    def products(self, a, b):
        """GNS coordinates of the products x y, with x and y over the elements whose
        coordinates are the columns of ``a`` and ``b`` (x slowest), one batched pass per block."""
        cols = []
        for n, t, lo, hi in zip(self.dims, self.trace_vector, self._offsets, self._offsets[1:]):
            x, y = (m[lo:hi].T.reshape(-1, n, n) for m in (a, b))
            cols.append((x[:, None] @ y[None]).reshape(-1, n * n).T / np.sqrt(t))
        return np.concatenate(cols)

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
        return linalg.block_norm(self.blocks)

    def vec(self):
        return self.alg.vec(self)

    def conj_by(self, u):
        """u x u* for a (typically unitary) element u."""
        return u * self * u.adjoint()

    def is_unitary(self, tol=linalg.EPS_FLAG):
        return bool(_unitarity_residuals(self.alg.stacked([self]))[0] <= tol)

    def allclose(self, other, tol=linalg.EPS_INPUT):
        self.alg.check_owns(other)
        return all(np.allclose(a, b, rtol=0, atol=tol) for a, b in zip(self.blocks, other.blocks))

    def __repr__(self):
        return "AlgebraElement(dims=%r, norm=%.6g)" % (list(self.alg.dims), self.norm())


def _unitarity_residuals(blocks):
    """max(||u u* - 1||, ||u* u - 1||) for each element u of a family whose blocks are stacked, one (n, ..., d, d) array
    per block size (``stacked``) or block: one eigvalsh of the stacked Hermitian defects each; overflow reads as inf."""
    res = 0.0
    for u in blocks:
        uh = u.conj().swapaxes(-1, -2)
        with np.errstate(over="ignore", invalid="ignore"):
            dev = (np.concatenate([u @ uh, uh @ u]) - np.eye(u.shape[-1])).reshape(2 * len(u), -1, *u.shape[-2:])
        finite = np.isfinite(dev).all(axis=(1, 2, 3))
        norms = np.full(len(dev), np.inf)
        norms[finite] = np.abs(linalg.eigvalsh(dev[finite])).max(axis=(1, 2))
        res = np.maximum(res, norms.reshape(2, -1).max(axis=0))
    return res


def check_unital_dims(source_dims, inclusion, ambient_dims):
    """The checked inclusion matrix Lambda, one row per source block and one column per ambient block;
    NonUnitalInclusion unless the ambient dims are Lambda^T @ the source dims."""
    lam = linalg.integer_matrix(inclusion, "inclusion matrix")
    if lam.shape != (len(source_dims), len(ambient_dims)):
        raise InvalidInput("inclusion matrix shape %r != (%d, %d)" % (lam.shape, len(source_dims), len(ambient_dims)))
    expected = lam.T @ np.asarray(source_dims)
    if not np.array_equal(expected, np.asarray(ambient_dims)):
        raise NonUnitalInclusion(
            "unitality requires ambient dims = inclusion^T @ source dims: got %r, need %r"
            % (list(ambient_dims), list(expected))
        )
    return lam


class UnitalEmbedding:
    """Canonical unital *-embedding of the blocks ``source_dims`` into ``target``.

    ``inclusion[i, j]`` counts how many times source block i repeats inside
    target block j.  Unitality forces n_j = sum_i inclusion[i, j] * m_i, which
    is validated, and the source carries the restricted trace inclusion @ t_tgt.
    Optional per-target-block unitaries rotate the embedded copy.
    """

    def __init__(self, source_dims, target, inclusion, block_unitaries=None):
        # dims and unitality first, so a dims mismatch is reported as such
        # rather than as a trace normalization failure
        lam = check_unital_dims(source_dims, inclusion, target.dims)
        if np.any(lam.sum(axis=1) == 0):
            raise NonUnitalInclusion("a source block is annihilated (zero row in the inclusion matrix)")
        self.source = MultiMatrixAlgebra(source_dims, lam @ target.trace_vector)
        if block_unitaries is not None:
            block_unitaries = [np.asarray(u, dtype=complex) for u in block_unitaries]
            if len(block_unitaries) != target.nblocks:
                raise InvalidInput("need one unitary per target block")
            for u, n in zip(block_unitaries, target.dims):
                if u.shape != (n, n) or _unitarity_residuals([u[None]])[0] > linalg.EPS_INPUT:
                    raise NotUnitary("block unitary is not a unitary of the right size")
        self.target = target
        self.inclusion = lam
        self.block_unitaries = block_unitaries
        self._image = None

    def apply(self, x):
        blocks = []
        for j, u in enumerate(self.block_unitaries or [None] * self.target.nblocks):
            blk = linalg.block_diag([x.blocks[i] for i, mult in enumerate(self.inclusion[:, j]) for _ in range(mult)])
            blocks.append(blk if u is None else u @ blk @ u.conj().T)
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
        self._wedd = None  # its Wedderburn data: the units it was built from, or one wedderburn call

    def __setstate__(self, state):
        self.__dict__.update(state)
        linalg.read_only([] if self._projection is None else [self._projection])  # a pickle drops the flag

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
    def from_units(cls, ambient, dims, traces, unit_mat):
        """The span of the units in the columns of ``unit_mat`` (``WedderburnData``), kept as its Wedderburn data:
        ||e_pq||^2 = traces[b], the trace of their block, so the e_pq / sqrt(traces[b]) are orthonormal."""
        sub = cls(ambient, unit_mat / np.sqrt(np.repeat(traces, np.square(dims))))
        sub._wedd = WedderburnData(sub, dims, traces, unit_mat)
        return sub

    @classmethod
    def embedded(cls, ambient, source, embed):
        """The image of ``source`` under the unital *-embedding ``embed``, which
        keeps the images of the matrix units of ``source`` as its Wedderburn data."""
        units = [[embed(source.unit(i, p, q)) for p in range(m) for q in range(m)] for i, m in enumerate(source.dims)]
        cols = np.stack([x.vec() for block in units for x in block], axis=1)
        return cls.from_units(ambient, source.dims, [block[0].trace().real for block in units], cols)

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
        """The kept matrix units of a subalgebra built from them (``from_units``);
        otherwise ``wedderburn(self, seed)``, decomposed once, at the seed of the first call."""
        if self._wedd is None:
            self._wedd = wedderburn(self, seed=seed)
        return self._wedd

    def projection_matrix(self):
        """Orthogonal projection of the GNS space onto the subalgebra, formed
        once and kept as a read-only array."""
        if self._projection is None:
            self._projection = linalg.read_only([self.mat @ self.mat.conj().T])[0]
        return self._projection

    def expect(self, x):
        """Trace-preserving conditional expectation onto this subalgebra."""
        v = x.vec()
        return self.ambient.unvec(self.mat @ (self.mat.conj().T @ v))

    def residuals(self, cols):
        """GNS distances to the subalgebra of the elements whose coordinates are the columns of ``cols``."""
        return np.linalg.norm(cols - self.mat @ (cols.conj().T @ self.mat).conj().T, axis=0)

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


def _closed_form(wd, join):
    """N' cap M, or with ``join`` R = N v (N' cap M), as the Wedderburn data of units read off N's (Goodman, de la
    Harpe and Jones).  For N's block i and the columns w_pa = e^i_p0 v_a of ``wd.frames[j]``, the w_pa w_qb* = e^i_pq
    f_ab are the units of R's block M_{m_i Lambda_ij}, of trace t_j, and their sums over p = q, the f_ab, those of
    N' cap M's block M_{Lambda_ij}, of trace m_i t_j; each is written straight into its GNS column."""
    amb, m, lam = wd.subalgebra.ambient, np.array(wd.block_dims)[:, None], wd.lam
    sizes, first = m * lam if join else lam, np.cumsum(m * lam, axis=0) - m * lam  # first: N's block i in frames[j]
    unit_mat, col = np.zeros((amb.gns_dim, int(np.sum(sizes ** 2))), dtype=complex), 0
    for i, j in np.argwhere(lam):
        n, k, d, rows = amb.dims[j], lam[i, j], sizes[i, j], slice(amb._offsets[j], amb._offsets[j + 1])
        w = wd.frames[j][:, first[i, j]:first[i, j] + m[i, 0] * k].reshape(n, m[i, 0], k).transpose(1, 0, 2)
        f = np.einsum("pxa,qyb->paqbxy", w, w.conj())  # the e^i_p0 v_a are w[p, :, a]
        f = (f if join else np.einsum("papbxy->abxy", f)).reshape(d * d, -1).T
        np.multiply(f, amb.gns_weights[rows, None], out=unit_mat[rows, col:col + d * d])
        col += d * d
    traces = (np.where(join, 1, m) * amb.trace_vector)[lam > 0]
    return Subalgebra.from_units(amb, sizes[lam > 0].tolist(), traces, unit_mat).wedderburn_data()


class WedderburnData:
    """Block structure of a subalgebra: its block dims and matrix units.

    The columns of ``unit_mat``, ordered by (b, p, q), are the GNS coordinates of the matrix units e^b_pq
    (``unit(b, p, q)``), with the matrix-unit relations inside block b and the e^b_pp summing to 1;
    ``block_traces[b]`` is the ambient trace of a minimal projection of block b, so the abstract copy carries
    the restricted trace.  What is read off the units is kept here once: Lambda (``lam``), N' cap M and
    R = N v (N' cap M) (``commutant``, ``join``), the basis of R over N (``inner_basis``) and M1 (``m1``).
    """

    def __init__(self, subalgebra, block_dims, block_traces, unit_mat):
        self.subalgebra = subalgebra
        self.block_dims = tuple(block_dims)
        self.block_traces = tuple(block_traces)
        self.unit_mat = unit_mat
        self._starts = np.cumsum((0,) + tuple(d * d for d in self.block_dims))  # the column of each block's e_00
        self._scale = np.repeat(self.block_traces, [d * d for d in self.block_dims])

    def __setstate__(self, state):
        self.__dict__.update(state)
        for x in state.get("inner_basis", ()):
            linalg.read_only(x.blocks)  # a pickle drops the flag

    def unit(self, b, p, q):
        """The matrix unit e^b_pq as an element of the ambient algebra; InvalidInput for an index out of range."""
        _check_unit(self.block_dims, b, p, q)
        return self.subalgebra.ambient.element(self._blocks(self._starts[b] + p * self.block_dims[b] + q))

    def _blocks(self, col):  # the blocks of the unit in column ``col``
        return self.subalgebra.ambient._read_back(self.unit_mat[:, col])

    @functools.cached_property
    def lam(self):
        """Multiplicity matrix Lambda of the blocks inside the ambient blocks: Lambda_ij is the rank of block j
        of a minimal projection e^i_00 of block i, the column count of ``ranges[i][j]``."""
        lam = np.array([[v.shape[1] for v in vs] for vs in self.ranges])
        if not np.array_equal(lam.T @ np.asarray(self.block_dims), np.asarray(self.subalgebra.ambient.dims)):
            raise NonUnitalInclusion("block multiplicities inconsistent with a unital inclusion")
        return lam

    @functools.cached_property
    def m1(self):
        """M1's block data over this subalgebra (``basic.M1Wedderburn``), with Lambda's Markov data and e1."""
        return M1Wedderburn(self)

    @functools.cached_property
    def commutant(self):
        """Wedderburn data of N' cap M = sum of the M_{Lambda_ij} (``_closed_form``)."""
        return _closed_form(self, join=False)

    @functools.cached_property
    def join(self):
        """Wedderburn data of R = N v (N' cap M) = sum of the M_{m_i Lambda_ij} (``_closed_form``)."""
        return _closed_form(self, join=True)

    @functools.cached_property
    def inner_basis(self):
        """Two-sided basis of R over N, with read-only blocks: 1 when R = N, else sqrt(T_i / t_j) f_ab for each
        unit column f_ab of the block (i, j) of N' cap M, whose blocks follow the nonzero Lambda_ij row by row.
        E_N(f_bb) = (t_j / T_i) z_i, since f_bb <= z_i commutes with N and has trace m_i t_j; so
        E_N(x* y) = sqrt(t_j / T_i) n_ab for y = sum n_ab f_ab in R's block (i, j), and sum x E_N(x* y) = y."""
        amb, comm = self.subalgebra.ambient, self.commutant
        if self.join.subalgebra.dim == self.subalgebra.dim:
            out = (amb.identity(),)
        else:
            scales = [np.sqrt(self.block_traces[i] / amb.trace_vector[j]) for i, j in np.argwhere(self.lam)]
            cols = enumerate(np.repeat(scales, np.square(comm.block_dims)))
            out = tuple(amb.element([s * b for b in comm._blocks(c)]) for c, s in cols)
        for x in out:
            linalg.read_only(x.blocks)
        return out

    @functools.cached_property
    def ranges(self):
        """``ranges[i][j]``: orthonormal basis of the range of block j of e^i_00, one batched eigh per block of M."""
        eig = [linalg.eigh(np.stack(blocks)) for blocks in zip(*map(self._blocks, self._starts[:-1]))]
        return [[vecs[i][:, vals[i] > 0.5] for vals, vecs in eig] for i in range(len(self.block_dims))]

    @functools.cached_property
    def frames(self):
        """``frames[j]``: the unitary with the columns e^i_p0 v_a over i, p < m_i and v_a in ``ranges[i][j]``,
        on which e^i_pq is |i,p><i,q| (x) 1."""
        heads = [(i, self._blocks(self._starts[i] + p * d)) for i, d in enumerate(self.block_dims) for p in range(d)]
        return [np.concatenate([e[j] @ self.ranges[i][j] for i, e in heads], axis=1) for j in range(len(self.ranges[0]))]

    def abstract(self):
        # renormalize away float drift so the trace-sum check stays exact
        total = sum(d * t for d, t in zip(self.block_dims, self.block_traces))
        return MultiMatrixAlgebra(self.block_dims, tuple(t / total for t in self.block_traces))

    def abstract_blocks(self, pairings):
        """Coefficient blocks of E(x) in the matrix-unit basis, one (..., d, d) array per block,
        for the elements x whose pairings <x, e_pq> = tr(e_qp x) run along the last axis."""
        coeffs = np.split(pairings / self._scale, self._starts[1:-1], axis=-1)
        return [c.reshape(*pairings.shape[:-1], d, d) for c, d in zip(coeffs, self.block_dims)]

    def from_abstract(self, blocks):
        flat = np.concatenate([np.asarray(b, dtype=complex).reshape(-1) for b in blocks])
        if flat.shape != (self.unit_mat.shape[1],):
            raise InvalidInput("abstract blocks have the wrong shapes")
        return self.subalgebra.ambient.unvec(self.unit_mat @ flat)

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


def _row_residuals(sub, rows, qss):
    """Largest GNS-norm residual of row 0 of each block's matrix units, the partial
    isometries w_p = u_0p: each link w_p, p >= 1, lies in the subalgebra (one ``residuals``
    call for every block), w_p w_p* = u_00 = q_0 and w_p* w_p = q_p, the block's p-th
    minimal projection.  The units u_pq = w_p* w_q then satisfy every matrix-unit
    relation, from 2d products instead of d^4.  The leader w_0 = q_0 is not tested here:
    its relations restate q_0^2 = q_0, which the eigenvector check of ``_attempt_wedderburn``
    certifies, ||q^2 - q||_2 <= ||q^2 - q||_op <= (1 + dev) dev, and its membership is
    tested with the spectral projections; a 1 x 1 block forms no relation."""
    links = [w.vec() for row in rows for w in row[1:]]
    member = sub.residuals(np.stack(links, axis=1)) if links else np.zeros(0)
    out = []
    for row, qs, res in zip(rows, qss, np.split(member, np.cumsum([len(row) - 1 for row in rows])[:-1])):
        rel = [max((w * w.adjoint() - qs[0]).norm(), (w.adjoint() * w - q).norm()) for w, q in zip(row[1:], qs[1:])]
        out.append(max([float(res.max(initial=0.0)), *rel]))
    return out


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
    # q_c^2 - q_c = V_c (V_c* V_c - 1) V_c*: eigh's eigenvectors certify every spectral projection at once
    dev = max(linalg.hermitian_norm(v.conj().T @ v - np.eye(len(v))) for v in vecs)
    if dev > linalg.EPS_WEDD:
        raise DegenerateSpectrum("eigenvectors are not orthonormal (residual %.3g)" % dev)
    qs = []
    for c in range(len(means)):
        cols = [v[:, m[:, c]] for v, m in zip(vecs, masks)]
        qs.append(AlgebraElement(amb, [x @ x.conj().T for x in cols]))
    member = sub.residuals(np.stack([q.vec() for q in qs], axis=1))  # one call for every projection
    if member.max() > linalg.EPS_WEDD:
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
    rows = []
    for grp in groups:
        ws = [qs[grp[0]] * g * qs[c] for c in grp[1:]]
        rows.append([qs[grp[0]]] + [w / np.sqrt((w * w.adjoint()).trace().real / qs[grp[0]].trace().real) for w in ws])
    for worst in _row_residuals(sub, rows, [[qs[c] for c in grp] for grp in groups]):
        if worst > linalg.EPS_WEDD:
            raise DegenerateSpectrum("matrix-unit relations violated (residual %.3g)" % worst)
    units = [[a.adjoint() * b for a in row for b in row] for row in rows]  # u_pq at p d + q
    traces = [u[0].trace().real for u in units]
    # deterministic ordering independent of the random eigenvalues where possible
    order = sorted(range(len(units)), key=lambda k: (len(rows[k]), round(traces[k], 9), means[groups[k][0]]))
    cols = np.stack([x.vec() for k in order for x in units[k]], axis=1)
    return WedderburnData(sub, [len(rows[k]) for k in order], [traces[k] for k in order], cols)


def wedderburn(sub, seed=0):
    """Decompose a subalgebra into matrix blocks with explicit matrix units.

    No centre is formed: the minimal projections are the spectral projections
    of one random Hermitian element, and one random element links those of a
    block (Murota, Kanno, Kojima and Kojima, JJIAM 27, 2010).  An attempt is
    accepted when the eigenvectors are orthonormal (so each q_c = V_c V_c* is a
    projection) and each q_c lies in the subalgebra, the block dims give
    sum d^2 = dim and each block's row 0 passes ``_row_residuals``, all to
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

