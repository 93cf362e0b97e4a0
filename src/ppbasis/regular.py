"""Regular inclusions: crossed products, normalizer tests, coset systems over
R = N v (N' cap M), basis patching, and a pipeline that assembles the whole
chain into one report.

N' cap M and R are read off N's matrix units in closed form, and the algebras
that N and R generate with the normalizers are Krylov closures
(``Subalgebra.generated``), R's only when |reps| dim R < dim M.  Cosets of the
normalizer are separated by the vanishing of E_R(u v*); representatives are
filtered from model-supplied candidates rather than enumerated, and
regularity is certified relative to those candidates: N and the ones that
pass the normalizer test must generate M.  Every test is a ``classify`` (``require_basis`` for a
basis), so the chain builds no basic construction and verifies each
precondition of the patching once.  Flags compare against ``tol``;
automorphisms and a crossed product's covariance must hold to EPS_INPUT.
"""

from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .algebra import MultiMatrixAlgebra, Subalgebra, commutant_wedderburn, inclusion_matrix, join_wedderburn
from .basic import markov_trace, watatani_index
from .errors import (
    DegenerateCommutantModel,
    DuplicateCoset,
    InvalidInput,
    NotABasis,
    NotANormalizer,
    NotAnAction,
    NotUnitary,
)
from .linalg import EPS_FLAG
from .systems import _entry_norms, classify, require_basis

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

    @classmethod
    def cyclic(cls, n):
        return cls([[(g + h) % n for h in range(n)] for g in range(n)])

    @classmethod
    def direct_product(cls, a, b):
        """Product group on pairs, ordered (g, h) -> g * len(b) + h."""
        nb = len(b)
        size = len(a) * nb
        t = np.empty((size, size), dtype=int)
        for x in range(size):
            for y in range(size):
                g = a.mult(x // nb, y // nb)
                h = b.mult(x % nb, y % nb)
                t[x, y] = g * nb + h
        return cls(t)

    @classmethod
    def from_permutations(cls, perms):
        """Group of permutations given as tuples; identity is reindexed to 0.

        Products compose left-over-right: (p * q)(i) = p(q(i)).
        """
        perms = [tuple(int(v) for v in p) for p in perms]
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
        t = np.empty((len(order), len(order)), dtype=int)
        for i, p in enumerate(order):
            for j, q in enumerate(order):
                comp = tuple(p[q[v]] for v in range(m))
                if comp not in index:
                    raise InvalidInput("permutations are not closed under composition")
                t[i, j] = index[comp]
        return cls(t), order


class Automorphism:
    """*-automorphism of a multi-matrix algebra: block permutation, then
    per-block unitary conjugation.  Block j of the image is u_j x_{perm[j]} u_j*.
    """

    def __init__(self, alg, perm=None, unitaries=None):
        self.alg = alg
        k = alg.nblocks
        perm = tuple(range(k)) if perm is None else tuple(int(p) for p in perm)
        if sorted(perm) != list(range(k)):
            raise NotAnAction("block permutation must permute the %d blocks" % k)
        for j, s in enumerate(perm):
            if alg.dims[j] != alg.dims[s]:
                raise NotAnAction("permutation maps a block of size %d onto size %d" % (alg.dims[s], alg.dims[j]))
            if abs(alg.trace_vector[j] - alg.trace_vector[s]) > linalg.EPS_INPUT:
                raise NotAnAction("automorphism must preserve the trace vector")
        if unitaries is None:
            unitaries = [np.eye(alg.dims[j]) for j in range(k)]
        us = []
        for j, u in enumerate(unitaries):
            u = np.asarray(u, dtype=complex)
            if u.shape != (alg.dims[j], alg.dims[j]):
                raise NotAnAction("unitary %d has the wrong shape" % j)
            if linalg.operator_norm(u @ u.conj().T - np.eye(alg.dims[j])) > linalg.EPS_INPUT:
                raise NotUnitary("block %d of the automorphism is not unitary" % j)
            us.append(u)
        self.perm = perm
        self.unitaries = tuple(us)

    @classmethod
    def identity(cls, alg):
        return cls(alg)

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
        worst = 0.0
        for e in self.alg.units():
            worst = max(worst, (self.apply(e) - other.apply(e)).norm())
        return worst


class CrossedProductModel:
    """B acted on by a finite group, realized inside one ambient algebra.

    The covariance algebra acts on |G| copies of L2(B): pi(b), formed once per
    matrix unit of B, has diagonal blocks L(alpha_{h^-1}(b)), and u_g moves
    block h to block gh.  The span of {pi(b) u_g} is decomposed into blocks;
    the ambient algebra carries the trace b_g -> tr_B(b_e), so the copy of B
    sits trace compatibly inside M and keeps the images of B's matrix units.
    The action and the covariance (one stacked norm of the diagonal blocks of
    u_g pi(b) u_g* - pi(alpha_g(b))) must hold to EPS_INPUT.
    """

    def __init__(self, base, group, autos, seed=0):
        if len(autos) != len(group):
            raise NotAnAction("need one automorphism per group element")
        self.base, self.group, self.autos = base, group, list(autos)
        n, db, units = len(group), base.gns_dim, base.units()
        dv = db * n
        # coords[g, b] holds alpha_g(e_b) in the matrix units; the GNS norm weights block i by sqrt(t_i)
        coords = np.array([[_coords(autos[g].apply(b)) for b in units] for g in range(n)])
        weight = base.gns_weights
        if np.linalg.norm((coords[0] - np.eye(db)) * weight, axis=-1).max() > linalg.EPS_INPUT:
            raise NotAnAction("the identity element must act trivially")
        dev = np.linalg.norm((np.einsum("hbc,gcd->ghbd", coords, coords) - coords[group.table]) * weight, axis=-1).max(-1)
        for g, h in np.argwhere(dev > linalg.EPS_INPUT)[:1]:
            raise NotAnAction("action is not multiplicative at (%d, %d): deviation %.3g" % (g, h, dev[g, h]))
        # pi is linear: block h of pi(e_b) is L(alpha_{h^-1}(e_b)), as (unit b, block h, db, db)
        inv = [group.inverse(g) for g in range(n)]
        pi = np.einsum("hbc,cxy->bhxy", coords[inv], np.array([base.left_op(e) for e in units]))
        # block k of u_g pi(b) u_g* is block g^-1 k of pi(b)
        cov = pi[:, group.table[inv]].transpose(1, 0, 2, 3, 4) - np.einsum("gbc,ckxy->gbkxy", coords, pi)
        if linalg.operator_norm(cov) > linalg.EPS_INPUT:
            g = next(g for g in range(n) if linalg.operator_norm(cov[g]) > linalg.EPS_INPUT)
            raise NotAnAction("covariance fails for group element %d" % g)
        self._pi = np.einsum("bkxy,kl->bkxly", pi, np.eye(n)).reshape(db, dv, dv)
        # u[g] is the identity on the blocks (gh, h) and zero elsewhere
        u = np.kron(group.table[:, None, :] == np.arange(n)[None, :, None], np.eye(db))
        op_alg = MultiMatrixAlgebra((dv,), (1.0 / dv,))
        spanning = [op_alg.element([x @ ug]) for x in self._pi for ug in u]
        span = Subalgebra.span(op_alg, spanning, check=False)
        if span.dim != base.dim * n:
            raise NotAnAction("covariance span has dimension %d, expected %d" % (span.dim, base.dim * n))
        self.op_span = span
        self.wedd = span.wedderburn_data(seed)
        # the canonical trace of a minimal projection reads its (e, e) corner
        traces = [base.unvec(e[0][0].blocks[0][:db, :db] @ base.vec(base.identity())).trace() for e in self.wedd.units]
        if any(t.real <= 0 or abs(t.imag) > linalg.EPS_INPUT for t in traces):
            raise NotAnAction("canonical trace is not faithful on the span")
        traces = [t.real for t in traces]
        total = sum(d * t for d, t in zip(self.wedd.block_dims, traces))
        self.algebra = MultiMatrixAlgebra(self.wedd.block_dims, tuple(t / total for t in traces))
        self.unitaries = tuple(self.to_model(ug) for ug in u)
        self.base_image = Subalgebra.embedded(self.algebra, base, self.embed)

    def embed(self, b):
        """The copy of a base element inside the ambient algebra."""
        return self.to_model(np.tensordot(_coords(b), self._pi, 1))

    def to_model(self, mat):
        op = self.op_span.ambient.element([np.asarray(mat, dtype=complex)])
        return self.algebra.element(self.wedd.to_abstract(op))


def _coords(x):
    """Coefficients of ``x`` in the matrix units of its algebra, in ``units()`` order."""
    return np.concatenate([blk.reshape(-1) for blk in x.blocks])


def normalizer_residual(u, sub):
    """How far u sub u* leaves the subalgebra: the largest residual of u b u* over
    its basis b, from two product passes (u b, then (u b) u*)."""
    amb = sub.ambient
    conj = amb.products(amb.products(amb.vec(u)[:, None], sub.mat), amb.vec(u.adjoint())[:, None])
    return float(sub.residuals(conj).max())


def check_normalizer(u, sub, tol=EPS_FLAG):
    linalg.check_tol(tol)
    if not u.is_unitary(tol):
        raise NotUnitary("normalizer candidate is not unitary")
    return normalizer_residual(u, sub) <= tol


def coset_distinct(u, v, r_sub, tol=EPS_FLAG):
    """Whether u, v fall in distinct cosets: E_R(u v*) must vanish."""
    linalg.check_tol(tol)
    return r_sub.expect(u * v.adjoint()).norm() <= tol


def coset_system(reps, n_sub, r_sub, tol=EPS_FLAG):
    """Classify pairwise-distinct coset representatives as a system over R.

    The coset test of each pair reads the GNS norm of E_R(u_i u_j*) off the
    left Gram blocks; the first pair above ``tol`` raises DuplicateCoset.  The
    classification over N (the one over R when R = N) is folded in under
    ``over_n`` keys; the primary data is over R.
    """
    sys_r = classify(reps, r_sub, side="two-sided", tol=tol)
    norms = _entry_norms(sys_r.gram["left"], r_sub.wedderburn_data())
    for i, j in np.argwhere(np.triu(norms > tol, 1))[:1]:
        raise DuplicateCoset("representatives %d and %d fall in the same coset" % (i, j))
    sys_n = sys_r if r_sub.dim == n_sub.dim else classify(reps, n_sub, side="two-sided", tol=tol)
    for key, val in list(sys_n.residuals.items()):
        sys_r.residuals["over_n_" + key] = val
    sys_r.flags["orthonormal_over_n"] = sys_n.flags["system"] and sys_n.flags["orthonormal"]
    return sys_r


def patch_bases(inner, outer, n_sub, p_sub, tol=EPS_FLAG, check=True):
    """Patch a basis of P over N with a basis of M over P into one of M over N.

    Outer elements must be unitaries normalizing both N and P; the returned
    family is the products mu * lam, outer index slowest.  With ``check`` the
    preconditions are verified, including that each conjugate {mu lam mu*}
    is again a basis of P over N.
    """
    inner = tuple(inner)
    outer = tuple(outer)
    if not inner or not outer:
        raise InvalidInput("both families must be nonempty")
    if check:
        require_basis(inner, n_sub, p_sub, tol=tol, label="inner")
        require_basis(outer, p_sub, tol=tol, label="outer")
        for j, mu in enumerate(outer):
            if not mu.is_unitary(tol):
                raise NotUnitary("outer element %d is not unitary" % j)
            if normalizer_residual(mu, n_sub) > tol:
                raise NotANormalizer("outer element %d does not normalize the base algebra" % j)
            if normalizer_residual(mu, p_sub) > tol:
                raise NotANormalizer("outer element %d does not normalize the intermediate algebra" % j)
            conj = [mu * lam * mu.adjoint() for lam in inner]
            require_basis(conj, n_sub, p_sub, tol=tol, label="conjugated inner")
    products = [mu * lam for mu in outer for lam in inner]
    return classify(products, n_sub, side="two-sided", tol=tol)


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
    note: str = II1_NOTE
    markov: object = field(default=None, repr=False)

    def format_lines(self):
        n = self.numbers
        lines = [
            "beta = %.12g" % n["beta"],
            "dim(N' cap M) = %d" % n["dim_commutant"],
            "|reps| = %d" % n["reps"],
            "|reps| * dim(N' cap M) = %d * %d = %d" % (n["reps"], n["dim_commutant"], n["product"]),
            self.note,
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

    def to_dict(self):
        out = {
            "flags": dict(self.flags),
            "numbers": dict(self.numbers),
            "issues": list(self.issues),
            "note": self.note,
        }
        if self.patched is not None:
            out["patched_size"] = len(self.patched.elements)
        if self.watatani is not None:
            out["watatani_scalar"] = self.watatani.scalar
        return out


def _inner_basis(sub, comm, r_alg, tol):
    """Two-sided basis of R over N built from the relative commutant.

    When R = N the unit alone is a basis.  Otherwise the inner family is the
    basis of ``comm``, the trace-scaled matrix units of N' cap M; both its
    supports must equal e_R on L2(M), which for a family inside R is support 1
    on L2(R).  Failure is reported as a degenerate commutant model.
    """
    if r_alg.dim == sub.dim:
        return (sub.ambient.identity(),)
    inner = comm.basis_elements()
    try:
        require_basis(inner, sub, r_alg, tol=tol, label="commutant")
    except NotABasis as exc:
        raise DegenerateCommutantModel(str(exc)) from exc
    return inner


def regular_pipeline(sub, candidates=(), seed=0, tol=EPS_FLAG):
    """Run the full chain for N inside its ambient algebra.

    Computes N' cap M and R from N's matrix units, the scalar basis of R over
    N, the coset representatives filtered from the candidates, the regularity
    and coset-completeness checks, and, when both pass, the patched two-sided
    basis with its Watatani index.  Non-normalizer candidates are recorded
    and take no part in the regularity test; failed regularity or incomplete
    cosets leave a partial report rather than raising.
    """
    linalg.check_tol(tol)
    amb = sub.ambient
    candidates = tuple(candidates)
    wd_n = sub.wedderburn_data(seed)
    markov = markov_trace(inclusion_matrix(wd_n), wd_n.block_dims)
    comm = commutant_wedderburn(wd_n).subalgebra
    r_alg = join_wedderburn(wd_n).subalgebra
    inner = _inner_basis(sub, comm, r_alg, tol)

    reps = [amb.identity()]
    normalizers = []
    rejected = []
    for idx, u in enumerate(candidates):
        if not u.is_unitary(tol):
            raise NotUnitary("candidate %d is not unitary" % idx)
        res = normalizer_residual(u, sub)
        if res > tol:
            rejected.append((idx, res))
            continue
        normalizers.append(u)
        if all(coset_distinct(u, v, r_alg, tol) for v in reps):
            reps.append(u)
    reps = tuple(reps)

    gen = Subalgebra.generated(amb, list(sub.basis_elements()) + normalizers)
    regular = gen.dim == amb.dim
    issues = [] if regular else ["NotRegular"]

    sys_r = coset_system(reps, sub, r_alg, tol=tol)
    orthonormal = sys_r.flags["system"] and sys_r.flags["orthonormal"] and sys_r.flags["orthonormal_over_n"]
    if len(reps) * r_alg.dim == amb.dim:
        # coset_system showed E_R(u_i u_j*) = 0: the R u_i are orthogonal, of dim R each, so they fill M and e_P = 1
        ep_res, ep_scale = sys_r.residuals["right_support_identity"], 2.0
    else:
        ep = Subalgebra.generated(amb, list(r_alg.basis_elements()) + list(reps)).projection_matrix()
        # 1 + the norm of e_P, a nonzero projection: no SVD needed
        ep_res, ep_scale = linalg.operator_norm(sys_r.support["right"] - ep), 2.0
    support_eq = ep_res <= tol * ep_scale
    complete = sys_r.flags["basis"]

    patched = None
    wat = None
    if regular and complete:
        patched = patch_bases(inner, reps, sub, r_alg, tol=tol, check=False)  # preconditions settled above
        wat = watatani_index(patched.elements)
    elif regular:
        issues.append("IncompleteCosets")

    flags = {
        "regular": regular,
        "coset_system_orthonormal": orthonormal,
        "support_equals_eP": support_eq,
        "patched_basis_two_sided": bool(patched is not None and patched.flags["system"] and patched.flags["basis"]),
    }
    numbers = {
        "beta": markov.beta,
        "dim_commutant": comm.dim,
        "reps": len(reps),
        "product": len(reps) * comm.dim,
        "support_eP_residual": ep_res,
    }
    return WeylReport(
        sub=sub,
        commutant=comm,
        r_algebra=r_alg,
        inner=tuple(inner),
        reps=reps,
        rejected=tuple(rejected),
        coset=sys_r,
        patched=patched,
        watatani=wat,
        flags=flags,
        numbers=numbers,
        issues=tuple(issues),
        markov=markov,
    )
