"""Two-level path models for unital inclusions of multi-matrix algebras.

A diagram has a single top vertex, a middle layer of blocks with dimensions
m_i, and a bottom layer determined by a nonnegative integer inclusion matrix;
m_i parallel edges join the top vertex to middle block i and inclusion[i, j]
edges join middle block i to bottom block j.  Paths from the top to the
bottom index the matrix units of the bottom algebra; summing over extensions
of shorter paths realizes the middle algebra inside it.  A PathModel is a
view of an untwisted UnitalEmbedding (``models.explicit_pair(...).embedding``):
its diagram is read off the embedding's dims and inclusion matrix, and its
algebras, traces and middle units are the embedding's.  The conditional
expectation onto the middle algebra acts on matrix units by a closed-form
coefficient, and suitably normalized sums of units over middle paths give
path-indexed orthogonal systems and scalar two-sided bases.
"""

from collections import namedtuple

import numpy as np

from . import linalg
from .errors import InvalidInput, InvalidPathPair, NonUnitalInclusion

Edge0 = namedtuple("Edge0", "block slot")
Edge01 = namedtuple("Edge01", "source target slot")
Path = namedtuple("Path", "head tail")


class BratteliDiagram:
    """Two-level diagram: middle dims plus an inclusion matrix to the bottom."""

    def __init__(self, middle_dims, inclusion):
        m = tuple(linalg.integers(middle_dims, "middle dims").tolist())
        if not m or any(x < 1 for x in m):
            raise InvalidInput("middle dims must be positive integers")
        lam = linalg.integer_matrix(inclusion, "inclusion matrix")
        if lam.shape[0] != len(m):
            raise InvalidInput("inclusion matrix must have one row per middle block")
        if np.any(lam.sum(axis=1) == 0):
            raise NonUnitalInclusion("a middle block has no outgoing edges")
        if np.any(lam.sum(axis=0) == 0):
            raise NonUnitalInclusion("a bottom block receives no edges")
        self.middle_dims = m
        self.inclusion = lam
        self.bottom_dims = tuple(int(x) for x in (lam.T @ np.asarray(m)))
        self.edges0 = [Edge0(i, a) for i in range(len(m)) for a in range(m[i])]
        self.edges01 = [Edge01(i, j, c) for (i, j), k in np.ndenumerate(lam) for c in range(k)]
        # full paths of each bottom block, copy before slot: the order of UnitalEmbedding's copies
        self.paths = []
        self.block_paths = [[] for _ in self.bottom_dims]
        self.pos = {}
        for j in range(lam.shape[1]):
            for i in range(lam.shape[0]):
                for c in range(lam[i, j]):
                    for a in range(m[i]):
                        p = Path(Edge0(i, a), Edge01(i, j, c))
                        self.pos[p] = (j, len(self.block_paths[j]))
                        self.block_paths[j].append(p)
                        self.paths.append(p)
        for j, n in enumerate(self.bottom_dims):
            assert len(self.block_paths[j]) == n


class PathModel:
    """Path-algebra view of an untwisted unital embedding of the middle algebra into the bottom one.

    The diagram is read off the embedding's source dims and inclusion matrix;
    the bottom algebra is its target, and the middle trace the restriction of
    the bottom one through the inclusion matrix.
    """

    def __init__(self, embedding):
        if embedding.block_unitaries is not None:
            raise InvalidInput("a path model reads an untwisted embedding, not one with block unitaries")
        self.embedding = embedding
        self.diagram = BratteliDiagram(embedding.source.dims, embedding.inclusion)
        self.bottom, self.middle_skeleton = embedding.target, embedding.source
        self.t1, self.t0 = self.bottom.trace_vector, self.middle_skeleton.trace_vector

    def unit(self, lam, mu):
        """Matrix unit of the bottom algebra indexed by two full paths."""
        if lam not in self.diagram.pos or mu not in self.diagram.pos:
            raise InvalidInput("unknown path")
        (j1, p) = self.diagram.pos[lam]
        (j2, q) = self.diagram.pos[mu]
        if j1 != j2:
            raise InvalidPathPair("paths end at different bottom blocks (%d vs %d)" % (j1, j2))
        return self.bottom.unit(j1, p, q)

    def middle_unit(self, th, tp):
        """Embedded matrix unit of the middle algebra: the sum over common extensions,
        kept by the embedding's image."""
        if th not in self.diagram.edges0 or tp not in self.diagram.edges0:
            raise InvalidInput("unknown middle path")
        if th.block != tp.block:
            raise InvalidPathPair("middle paths end at different middle blocks")
        return self.middle_subalgebra().wedderburn_data().unit(th.block, th.slot, tp.slot)

    def middle_subalgebra(self):
        """The middle algebra inside the bottom one; it keeps the middle units as its matrix units."""
        return self.embedding.image()

    def expect_unit(self, lam, mu):
        """Closed-form conditional expectation of a matrix unit onto the middle.

        Zero unless the two paths share their bottom edge; otherwise the
        middle unit of the truncated paths scaled by t1[target]/t0[source].
        """
        (j1, _) = self.diagram.pos[lam]
        (j2, _) = self.diagram.pos[mu]
        if j1 != j2:
            raise InvalidPathPair("paths end at different bottom blocks")
        if lam.tail != mu.tail:
            return self.bottom.zero()
        coeff = self.t1[lam.tail.target] / self.t0[lam.head.block]
        return coeff * self.middle_unit(lam.head, mu.head)

    def j_projection(self, block):
        """Averaged middle projection (1/m_p) sum of all middle units at p."""
        ends = [th for th in self.diagram.edges0 if th.block == block]
        return sum((self.middle_unit(th, tp) for th in ends for tp in ends), self.bottom.zero()) / len(ends)

    def orthogonal_system(self):
        """Path-indexed orthogonal system over the middle algebra.

        One element per pair (kappa, beta) of a middle-to-bottom edge and a
        full path with the same bottom block: the normalized sum over top
        extensions of kappa.  Returns (labels, elements).
        """
        labels, elements = [], []
        for kappa in self.diagram.edges01:
            for beta in self.diagram.block_paths[kappa.target]:
                tops = (self.unit(Path(th, kappa), beta) for th in self.diagram.edges0 if th.block == kappa.source)
                c = self.diagram.middle_dims[kappa.source] * self.t1[kappa.target] / self.t0[kappa.source]
                labels.append((kappa, beta))
                elements.append((c ** -0.5) * sum(tops, self.bottom.zero()))
        return labels, elements


def scalar_basis(alg):
    """Two-sided basis of an algebra over the scalars: units scaled by t^(-1/2).

    Size is the sum of squared block dims; ordered by (block, row, column).
    """
    scales = 1.0 / np.sqrt(alg.trace_vector)
    return [scales[j] * alg.unit(j, p, q) for j, n in enumerate(alg.dims) for p in range(n) for q in range(n)]
