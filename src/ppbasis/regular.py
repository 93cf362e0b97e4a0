"""Regular inclusions: crossed products, normalizer tests, coset systems over
R = N v (N' cap M), basis patching, and a pipeline that assembles the whole
chain into one report.

Lambda and its Markov data, N' cap M, R and the inner basis of R over N (in
closed form, from the units of N' cap M) are read off N's matrix units once and
kept on N's Wedderburn data wd (``wd.lam``, ``wd.m1.markov``, ``wd.commutant``,
``wd.join``, ``wd.inner_basis``).  The candidates are tested together, from
their blocks stacked per block size of M, and cosets of the normalizer are
separated by the vanishing of E_R(u v*), read off one left Gram matrix over R,
whose rotation also holds the representatives' left side; representatives are
filtered from model-supplied candidates rather than enumerated.
U(N' cap M) normalizes N, so N is regular when R and the normalizers generate
M: the coset system shows it when the R u_i fill M, and otherwise a Krylov
closure (``Subalgebra.generated``) decides.  A NotRegular verdict is relative
to the candidates.  The coset system is classified over R only, and the patched
basis is that classification when R = N, else one of the products, formed by
one matmul per block size; the chain builds no ``BasicConstruction``.  A crossed
product B x| G is the span of the pi(b) u_g inside M_|G|(B), whose own trace is
the canonical trace there; its units are read off the action when that permutes
B's blocks with abelian stabilizers, and otherwise off a seeded ``wedderburn``.
Flags compare against ``tol``; automorphisms and a crossed product's covariance
must hold to EPS_INPUT.
"""

from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .algebra import MultiMatrixAlgebra, Subalgebra, _unitarity_residuals
from .basic import _watatani
from .errors import DuplicateCoset, InvalidInput, NotANormalizer, NotAnAction, NotUnitary
from .linalg import EPS_FLAG
from .systems import _classified, _grams, _rows, check_intermediate, classify, require_basis

II1_NOTE = (
    "equality of beta with |reps| * dim(N' cap M) is the statement for regular "
    "inclusions of II1 factors; both numbers are reported here without asserting it"
)


class GroupTable:
    """A finite group as a multiplication table with identity 0."""

    def __init__(self, table):
        t = linalg.integer_matrix(table, "multiplication table")
        if t.shape[0] != t.shape[1]:
            raise InvalidInput("multiplication table must be square")
        n = t.shape[0]
        if n == 0:
            raise InvalidInput("group must be nonempty")
        if t.max() >= n:
            raise InvalidInput("table entries must index group elements")
        if not (np.array_equal(t[0], np.arange(n)) and np.array_equal(t[:, 0], np.arange(n))):
            raise InvalidInput("element 0 must be the identity")
        for g in range(n):
            if sorted(t[g]) != list(range(n)) or sorted(t[:, g]) != list(range(n)):
                raise InvalidInput("row or column %d is not a permutation" % g)
        bad = np.argwhere(t[t] != t[:, t])  # (t[t])[a, b, c] = (ab)c and t[:, t][a, b, c] = a(bc)
        if bad.size:
            raise InvalidInput("table is not associative at (%d, %d, %d)" % tuple(bad[0]))
        self.table = t
        self.n = n
        self._inv = np.argmax(t == 0, axis=1)

    def __len__(self):
        return self.n

    def mult(self, g, h):
        return int(self.table[g, h])

    def inverse(self, g):
        return int(self._inv[g])

    def characters(self, members):
        """The characters chi(s) = exp(2 pi i k / |S|) of the subgroup S = ``members`` as integer exponents k, one row
        per character and one column per member, or None unless S is abelian.  Exact extension from H = {e}: for a not
        in H with a^r in H, each psi of H extends to the a^j h by the r-th roots of psi(a^r)."""
        sub, n = self.table[np.ix_(members, members)], len(members)
        if not np.array_equal(sub, sub.T):
            return None
        elems, chars = [0], np.zeros((1, 1), dtype=int)
        for a in members:
            powers = [0, a]
            while powers[-1] not in elems:
                powers.append(self.mult(powers[-1], a))
            r, j = len(powers) - 1, np.arange(len(powers) - 1)
            roots = (chars[:, elems.index(powers[-1])][:, None] + n * j) // r  # psi'(a) for each psi and root
            chars = ((j[:, None] * roots[:, :, None, None] + chars[:, None, None]) % n).reshape(r * len(chars), -1)
            elems = [self.mult(p, h) for p in powers[:-1] for h in elems]
        return chars[:, [elems.index(s) for s in members]]

    @classmethod
    def cyclic(cls, n):
        n = int(linalg.integers(n, "group order"))
        return cls([[(g + h) % n for h in range(n)] for g in range(n)])

    @classmethod
    def direct_product(cls, a, b):
        """Product group on pairs, ordered (g, h) -> g * len(b) + h."""
        t = a.table[:, None, :, None] * len(b) + b.table[None, :, None, :]  # t[g, h, g', h'] = (g g') len(b) + h h'
        return cls(t.reshape(len(a) * len(b), -1))

    @classmethod
    def from_permutations(cls, perms):
        """Group of permutations given as tuples; identity is reindexed to 0.

        Products compose left-over-right: (p * q)(i) = p(q(i)).
        """
        perms = [tuple(linalg.integers(p, "permutation %d" % k).tolist()) for k, p in enumerate(perms)]
        if not perms:
            raise InvalidInput("permutation list is empty")
        m = len(perms[0])
        for p in perms:
            if sorted(p) != list(range(m)):
                raise InvalidInput("entry %r is not a permutation of 0..%d" % (p, m - 1))
        if len(set(perms)) != len(perms):
            raise InvalidInput("permutation list has duplicates")
        ident = tuple(range(m))
        if ident not in perms:
            raise InvalidInput("permutation list lacks the identity")
        order = [ident] + [p for p in perms if p != ident]
        index = {p: i for i, p in enumerate(order)}
        t = [[index.get(tuple(p[v] for v in q), -1) for q in order] for p in order]  # p after q
        if min(map(min, t)) < 0:
            raise InvalidInput("permutations are not closed under composition")
        return cls(t), order


class Automorphism:
    """*-automorphism of a multi-matrix algebra: block permutation, then
    per-block unitary conjugation.  Block j of the image is u_j x_{perm[j]} u_j*.
    """

    def __init__(self, alg, perm=None, unitaries=None):
        self.alg = alg
        k = alg.nblocks
        perm = tuple(range(k)) if perm is None else tuple(linalg.integers(perm, "block permutation").tolist())
        if sorted(perm) != list(range(k)):
            raise NotAnAction("block permutation must permute the %d blocks" % k)
        for j, s in enumerate(perm):
            if alg.dims[j] != alg.dims[s]:
                raise NotAnAction("permutation maps a block of size %d onto size %d" % (alg.dims[s], alg.dims[j]))
            if abs(alg.trace_vector[j] - alg.trace_vector[s]) > linalg.EPS_INPUT:
                raise NotAnAction("automorphism must preserve the trace vector")
        us = [np.identity(n, complex) for n in alg.dims] if unitaries is None else [np.asarray(u, complex) for u in unitaries]
        for j in [j for j in range(max(k, len(us))) if j >= min(k, len(us)) or us[j].shape != (alg.dims[j],) * 2][:1]:
            raise NotAnAction("unitary %d is missing or has the wrong shape" % j)
        res = np.zeros(k)  # the identity is unitary; given blocks are checked with one stacked call per block size
        for js, _ in alg.size_groups if unitaries is not None else ():
            res[js] = _unitarity_residuals([np.array([us[j] for j in js])[:, None]])
        for j in np.flatnonzero(res > linalg.EPS_INPUT)[:1]:
            raise NotUnitary("block %d of the automorphism is not unitary" % j)
        self.perm = perm
        self.unitaries = tuple(us)

    @classmethod
    def identity(cls, alg):
        return cls(alg)

    @classmethod
    def cyclic_shifts(cls, alg):
        """The k cyclic shifts of the k blocks: shift g moves block j - g to block j."""
        k = alg.nblocks
        return [cls(alg, perm=tuple((j - g) % k for j in range(k))) for g in range(k)]

    def apply(self, x):
        blocks = [u @ x.blocks[s] @ u.conj().T for u, s in zip(self.unitaries, self.perm)]
        return self.alg.element(blocks)

    def compose(self, other):
        """self after other."""
        perm = tuple(other.perm[s] for s in self.perm)
        units = [u @ other.unitaries[s] for u, s in zip(self.unitaries, self.perm)]
        return Automorphism(self.alg, perm, units)

    def distance(self, other):
        """Largest deviation on matrix units; zero iff equal as maps."""
        return max((self.apply(e) - other.apply(e)).norm() for e in self.alg.units())


class CrossedProductModel:
    """B acted on by a finite group, realized inside M_|G|(B) = sum of the M_{|G| n_i} with B's trace vector over |G|:
    pi(b) holds alpha_{h^-1}(b) at copy h, and u_g moves copy h to copy gh (Jones and Sunder, 1997).  Each alpha
    preserves tr_B and u_g moves every copy for g != e, so the ambient trace restricts to the canonical one,
    b_g -> tr_B(b_e); the blocks carry it, and the copy of B keeps the images of B's matrix units.  The span of
    {pi(b) u_g} takes its units in closed form when the action permutes B's blocks with abelian stabilizers
    (``_action_span``); otherwise ``wedderburn`` decomposes it at ``seed``, the one place ``seed`` is read.
    <pi(e_b) u_g, pi(e_c) u_h> = delta_gh delta_bc t_b for B's matrix units, as different g fill disjoint pairs of
    copies and each alpha preserves tr_B: the columns scaled to norm 1 are orthonormal.  The action and the
    covariance (one stacked norm of u_g pi(b) u_g* - pi(alpha_g(b)) over the copies, per block size of B, the modulus
    on 1 x 1 blocks) must hold to EPS_INPUT.
    """

    def __init__(self, base, group, autos, seed=0):
        if len(autos) != len(group):
            raise NotAnAction("need one automorphism per group element")
        self.base, self.group, self.autos = base, group, list(autos)
        n, db, units = len(group), base.gns_dim, base.units()
        # coords[g, b] holds alpha_g(e_b) in the matrix units; the GNS norm weights block i by sqrt(t_i)
        coords = np.array([[_coords(autos[g].apply(b)) for b in units] for g in range(n)])
        weight = base.gns_weights
        if np.linalg.norm((coords[0] - np.eye(db)) * weight, axis=-1).max() > linalg.EPS_INPUT:
            raise NotAnAction("the identity element must act trivially")
        dev = np.linalg.norm((np.einsum("hbc,gcd->ghbd", coords, coords) - coords[group.table]) * weight, axis=-1).max(-1)
        for g, h in np.argwhere(dev > linalg.EPS_INPUT)[:1]:
            raise NotAnAction("action is not multiplicative at (%d, %d): deviation %.3g" % (g, h, dev[g, h]))
        # pi[k, b] is copy k of pi(e_b), alpha_{k^-1}(e_b); copy k of u_g pi(e_b) u_g* is copy g^-1 k of pi(e_b)
        inv = [group.inverse(g) for g in range(n)]
        pi = coords[inv]
        cov = pi[group.table[inv]].transpose(0, 2, 1, 3) - np.einsum("gbc,kcd->gbkd", coords, pi)
        stacks = (cov[..., c].reshape(n, -1, base.dims[js[0]], base.dims[js[0]]) for js, c in base.size_groups)
        dev = [(np.abs(x[..., 0, 0]) if x.shape[-1] == 1 else linalg.operator_norms(x)).max(1) for x in stacks]
        for g in np.flatnonzero(np.max(dev, 0) > linalg.EPS_INPUT)[:1]:  # one SVD per block size, |x| on size 1
            raise NotAnAction("covariance fails for group element %d" % g)
        # block i of pi(e_b) u_g holds copy k of pi(e_b)'s block i at copies (k, h) with k = gh: cols[(k, p, h, q), b, g]
        amb = MultiMatrixAlgebra(tuple(n * d for d in base.dims), base.trace_vector / n)
        cols, (gs, hs) = np.zeros((amb.dim, db, n), dtype=complex), np.indices((n, n))
        for d, lo, hi, a in zip(base.dims, base._offsets, base._offsets[1:], amb._offsets):
            blk = pi[group.table, :, lo:hi].reshape(n, n, db, d, d).transpose(0, 1, 3, 4, 2)
            cols[a:a + n * d * n * d].reshape(n, d, n, d, db, n)[group.table, :, hs, :, :, gs] = blk
        cols *= amb.gns_weights[:, None, None]
        flat = cols.reshape(amb.dim, -1)
        self.span = _action_span(base, group, autos, flat, amb) or Subalgebra(amb, flat / np.linalg.norm(flat, axis=0))
        self.wedd = self.span.wedderburn_data(seed)
        self.algebra = self.wedd.abstract()
        self.unitaries = tuple(self._to_model(cols.transpose(0, 2, 1) @ _coords(base.identity())))
        self.base_image = Subalgebra.embedded(self.algebra, base, self._to_model(cols[:, :, 0]))  # pi(e_b), one pass

    def embed(self, b):
        """The copy of a base element inside the crossed product."""
        return self.base_image.wedderburn_data().from_abstract(b.blocks)  # sum_b c_b pi(e_b), from the kept pi(e_b)

    def _to_model(self, vecs):
        """The elements of the model whose coordinates in M_|G|(B) are the columns of ``vecs``."""
        blocks = self.wedd.abstract_blocks((vecs.conj().T @ self.wedd.unit_mat).conj())
        return [self.algebra.element(x) for x in zip(*blocks)]


def _action_span(base, group, autos, flat, amb):
    """B x| G in ``amb`` with its units read off the action (``from_units``), or None unless each alpha_g permutes
    B's blocks with identity unitaries (to EPS_INPUT) and the stabilizer S of the first block i of each orbit O is
    abelian.  For a character chi of S and the first c_x with c_x i = x, the E_(x,p),(y,q) = |S|^-1 sum_s
    conj(chi(s)) pi(e^x_pq) u_{c_x s c_y^-1} are the units of a block M_{n_i |O|} of trace t_i / |S| (Jones and
    Sunder, 1997): each is a sum of |S| columns of ``flat``, whose column b |G| + g is pi(e_b) u_g."""
    if any(np.abs(u - np.eye(len(u))).max() > linalg.EPS_INPUT for a in autos for u in a.unitaries):
        return None
    n, t, offs = len(group), group.table, np.array(base._offsets)
    act = np.argsort([a.perm for a in autos], axis=1)  # act[g, x]: the block to which alpha_g moves block x
    dims, traces, unit_mat, col = [], [], np.empty_like(flat), 0
    for i in np.flatnonzero(act.min(axis=0) == np.arange(base.nblocks)):  # the first block of each orbit
        orbit, stab = np.flatnonzero(np.bincount(act[:, i], minlength=base.nblocks)), np.flatnonzero(act[:, i] == i)
        chars, m, s, d = group.characters(stab), base.dims[i], len(stab), base.dims[i] * len(orbit)
        if chars is None:
            return None
        c = np.argmax(act[:, i] == orbit[:, None], axis=1)
        g = t[t[np.ix_(c, stab)].T[:, :, None], group._inv[c]]  # g[s, x, y] = c_x s c_y^-1
        b = offs[orbit, None, None] + np.arange(m * m).reshape(m, m)  # b[x, p, q]: the unit e^x_pq
        w, idx = np.exp(-2j * np.pi * chars / s) / s, (b[None, :, :, None] * n + g[:, :, None, :, None]).reshape(s, -1)
        np.matmul(w, flat.take(idx, axis=1), out=unit_mat[:, col:col + s * d * d].reshape(len(flat), s, d * d))
        dims, traces, col = dims + [d] * s, traces + [float(base.trace_vector[i]) / s] * s, col + s * d * d
    return Subalgebra.from_units(amb, dims, traces, unit_mat)


def _coords(x):
    """Coefficients of ``x`` in the matrix units of its algebra, in ``units()`` order."""
    return np.concatenate([blk.reshape(-1) for blk in x.blocks])


def _stacked(elements, amb):
    """The elements' blocks stacked per block size (``MultiMatrixAlgebra.stacked``), checked: InvalidInput names
    the first element that is not a finite element of M."""
    for k, u in enumerate(elements):
        if u.alg is not amb and not amb.same_structure(u.alg):
            raise InvalidInput("candidate %d is not a finite element of the ambient algebra" % k)
    stacks = amb.stacked(elements)
    for k in np.flatnonzero(~np.all([np.isfinite(s).all(axis=(1, 2, 3)) for s in stacks], axis=0))[:1]:
        raise InvalidInput("candidate %d is not a finite element of the ambient algebra" % k)
    return stacks


def _normalizer_residuals(stacks, sub):
    """How far u sub u* leaves the subalgebra, for each u of a ``_stacked`` family: the largest
    residual of u b u* over the basis b, from one product per block size of M and one ``residuals`` call
    (on block j, b's GNS coordinates are its entries times sqrt(t_j), and so are u b u*'s)."""
    amb, cols = sub.ambient, np.empty((sub.ambient.gns_dim, len(stacks[0]) * sub.dim), dtype=complex)
    for u, (_, idx) in zip(stacks, amb.size_groups):
        b = sub.mat[idx].T.reshape(-1, *u.shape[1:])
        cols[idx] = (u[:, None] @ b @ u.conj().swapaxes(-1, -2)[:, None]).reshape(cols.shape[1], -1).T
    return sub.residuals(cols).reshape(len(stacks[0]), sub.dim).max(axis=1)


def normalizer_residual(u, sub):
    """How far u sub u* leaves the subalgebra: the largest residual of u b u* over its basis b."""
    return float(_normalizer_residuals(_stacked([u], sub.ambient), sub)[0])


def check_normalizer(u, sub, tol=EPS_FLAG):
    linalg.check_tol(tol)
    blocks = _stacked([u], sub.ambient)
    if _unitarity_residuals(blocks)[0] > tol:
        raise NotUnitary("normalizer candidate is not unitary")
    return _normalizer_residuals(blocks, sub)[0] <= tol


def coset_distinct(u, v, r_sub, tol=EPS_FLAG):
    """Whether u, v fall in distinct cosets: E_R(u v*) must vanish."""
    linalg.check_tol(tol)
    left = _rows(r_sub.ambient.stacked((u, v)), r_sub, ("left",))  # E_R(u v*) from one left Gram matrix over R
    return _grams(left, r_sub.wedderburn_data().m1)[1][0, 0, 1] <= tol


def coset_system(reps, r_sub, tol=EPS_FLAG):
    """Classify pairwise-distinct coset representatives as a system over R.

    The coset test of each pair reads the GNS norm of E_R(u_i u_j*) off the
    left Gram blocks; the first pair above ``tol`` raises DuplicateCoset.  No
    second classification over N is needed: for N <= R the Gram matrix over N
    is (id (x) E_N) of the one over R, a contraction, so every residual over N
    is at most the one over R, and orthonormal over R implies orthonormal over N.
    """
    sys_r, norms = _classified(tuple(reps), r_sub, "two-sided", None, tol)
    for i, j in np.argwhere(np.triu(norms[1] > tol, 1))[:1]:
        raise DuplicateCoset("representatives %d and %d fall in the same coset" % (i, j))
    return sys_r


def patch_bases(inner, outer, n_sub, p_sub, tol=EPS_FLAG):
    """Patch a basis of P over N with a basis of M over P into one of M over N.

    Outer elements must be unitaries normalizing both N and P; the returned
    family is the products mu * lam, outer index slowest.  The preconditions
    are verified first, including that each conjugate {mu lam mu*} is again a
    basis of P over N.
    """
    inner = tuple(inner)
    outer = tuple(outer)
    if not inner or not outer:
        raise InvalidInput("both families must be nonempty")
    require_basis(inner, n_sub, p_sub, tol=tol, label="inner")
    require_basis(outer, p_sub, tol=tol, label="outer")
    blocks = _stacked(outer, n_sub.ambient)  # require_basis has checked them
    res = zip(_unitarity_residuals(blocks), _normalizer_residuals(blocks, n_sub), _normalizer_residuals(blocks, p_sub))
    for j, (mu, (unit, res_n, res_p)) in enumerate(zip(outer, res)):
        if unit > tol:
            raise NotUnitary("outer element %d is not unitary" % j)
        if res_n > tol:
            raise NotANormalizer("outer element %d does not normalize the base algebra" % j)
        if res_p > tol:
            raise NotANormalizer("outer element %d does not normalize the intermediate algebra" % j)
        conj = [mu * lam * mu.adjoint() for lam in inner]
        require_basis(conj, n_sub, p_sub, tol=tol, label="conjugated inner")
    return classify([mu * lam for mu in outer for lam in inner], n_sub, side="two-sided", tol=tol)


@dataclass
class WeylReport:
    """Everything the pipeline establishes about one inclusion."""

    sub: object
    commutant: object
    r_algebra: object
    inner: tuple
    reps: tuple
    rejected: tuple
    coset: object
    patched: object
    watatani: object
    flags: dict
    numbers: dict
    issues: tuple = ()
    markov: object = field(default=None, repr=False)

    def format_lines(self):
        n = self.numbers
        lines = [
            "beta = %.12g" % n["beta"],
            "dim(N' cap M) = %d" % n["dim_commutant"],
            "|reps| = %d" % n["reps"],
            "|reps| * dim(N' cap M) = %d * %d = %d" % (n["reps"], n["dim_commutant"], n["product"]),
            II1_NOTE,
        ]
        for key in ("regular", "coset_system_orthonormal", "support_equals_eP", "patched_basis_two_sided"):
            lines.append("%s = %s" % (key, "true" if self.flags[key] else "false"))
        if self.patched is not None:
            lines.append("patched basis size = %d" % len(self.patched.elements))
        if self.watatani is not None and self.watatani.scalar is not None:
            lines.append("watatani index = %.12g" % self.watatani.scalar)
        for issue in self.issues:
            lines.append("issue: %s" % issue)
        return lines


def regular_pipeline(sub, candidates=(), seed=0, tol=EPS_FLAG):
    """Run the full chain for N inside its ambient algebra.

    Reads the Markov data, N' cap M, R and the basis of R over N off N's matrix
    units, then tests the candidates together: each must be a finite element of M
    (InvalidInput) and unitary (NotUnitary); those that do not normalize N are
    recorded as rejected and take no part further on.  The normalizers are
    filtered into coset representatives, which must fill M for regularity to
    need no closure, and, when N is regular and the cosets complete, patched
    with the inner basis into a two-sided basis with its Watatani index.
    Failed regularity or incomplete cosets leave a partial report, not an error.
    """
    linalg.check_tol(tol)
    amb, candidates, wd_n = sub.ambient, tuple(candidates), sub.wedderburn_data(seed)
    markov, comm, r_alg, inner = wd_n.m1.markov, wd_n.commutant.subalgebra, wd_n.join.subalgebra, wd_n.inner_basis

    one = amb.identity()
    rejected, normalizers, stacks = [], [], amb.stacked([one])  # stacks: the blocks of [1] + the normalizers
    if candidates:
        blocks = _stacked(candidates, amb)
        for idx in np.flatnonzero(_unitarity_residuals(blocks) > tol)[:1]:
            raise NotUnitary("candidate %d is not unitary" % idx)
        res = _normalizer_residuals(blocks, sub)
        rejected = [(idx, float(r)) for idx, r in enumerate(res) if r > tol]
        normalizers = [u for u, r in zip(candidates, res) if r <= tol]
        stacks = [np.concatenate([e, b[res <= tol]]) for e, b in zip(stacks, blocks)]
    family, left = [one] + normalizers, _rows(stacks, r_alg, ("left",))  # the left rows over R of the family and reps
    same = _grams(left, r_alg.wedderburn_data().m1)[1][0] > tol  # E_R(u v*) does not vanish: first come, first kept
    keep = [0]
    for k in range(1, len(family)):
        if not same[k, keep].any():
            keep.append(k)
    reps, stacks = tuple(family[k] for k in keep), [s[keep] for s in stacks]

    # coset_system's classification over R, with no DuplicateCoset check: the filter kept no pair with E_R(u v*) != 0
    rows = [np.concatenate([r, q[:, :, keep]]) for r, q in zip(_rows(stacks, r_alg, ("right",)), left)]
    sys_r = _classified(reps, r_alg, "two-sided", None, tol, rows)[0]
    orthonormal = sys_r.flags["system"] and sys_r.flags["orthonormal"]
    if len(reps) * r_alg.dim == amb.dim:
        # sys_r showed E_R(u_i u_j*) = 0: the R u_i are orthogonal, of dim R each, so they fill M and e_P = 1.
        # N and U(N' cap M), which normalizes N, generate R, so the normalizer of N generates M: N is regular
        regular, ep_res = True, sys_r.residuals["right_support_identity"]
    else:
        regular = Subalgebra.generated(amb, list(r_alg.basis_elements()) + normalizers).dim == amb.dim
        p_alg = Subalgebra.generated(amb, list(r_alg.basis_elements()) + list(reps))
        check_intermediate(r_alg, p_alg, tol)  # e_P lies in <M, e_R>, where the supports over R do, only for P >= R
        ep = r_alg.wedderburn_data().m1.outer_blocks(p_alg.mat)
        ep_res = linalg.hermitian_block_norm([c - e for c, e in zip(sys_r.support["right"], ep)])
    issues = [] if regular else ["NotRegular"]
    support_eq = ep_res <= tol * 2.0  # 1 + the norm of e_P, a nonzero projection: no SVD needed

    patched = wat = None
    if regular and sys_r.flags["basis"]:
        if r_alg.dim == sub.dim:  # R = N: the products mu * 1 are the reps, classified over R = N above
            patched = sys_r
        else:  # the products mu * lam, mu slowest, one matmul per block size, classified and indexed from their blocks
            stacks = [(a[:, None] @ b[None]).reshape(-1, *a.shape[1:]) for a, b in zip(stacks, wd_n.inner_stacks)]
            rows = _rows(stacks, sub, ("right", "left"))
            patched = _classified(tuple(amb.unstacked(stacks)), sub, "two-sided", None, tol, rows)[0]
        wat = _watatani(amb, stacks, tol)
    elif regular:
        issues.append("IncompleteCosets")

    two_sided = bool(patched is not None and patched.flags["system"] and patched.flags["basis"])
    flags = {"regular": regular, "coset_system_orthonormal": orthonormal, "support_equals_eP": support_eq,
             "patched_basis_two_sided": two_sided}
    numbers = {"beta": markov.beta, "dim_commutant": comm.dim, "reps": len(reps), "product": len(reps) * comm.dim,
               "support_eP_residual": ep_res}
    return WeylReport(sub=sub, commutant=comm, r_algebra=r_alg, inner=inner, reps=reps, rejected=tuple(rejected),
                      coset=sys_r, patched=patched, watatani=wat, flags=flags, numbers=numbers, issues=tuple(issues),
                      markov=markov)
