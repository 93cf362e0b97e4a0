"""Exception hierarchy for the multi-matrix algebra toolkit.

Every domain failure raises a subclass of AlgebraError so callers (and the
command line driver) can separate mathematical verification failures from
malformed input.
"""


class AlgebraError(Exception):
    """Base class for all errors raised by this package."""


class InvalidInput(AlgebraError):
    """Structurally invalid data: bad dims, mismatched shapes, bad trace vector."""


class NotSubalgebra(AlgebraError):
    """A spanning family failed the unital *-closure test."""


class DegenerateSpectrum(AlgebraError):
    """Randomized spectral splitting failed to separate after retries."""


class FactorizationFailed(AlgebraError):
    """A numpy factorization (SVD, eigendecomposition, QR) did not converge."""


class NonUnitalInclusion(AlgebraError):
    """Inclusion data whose multiplicities cannot describe a unital embedding."""


class InvalidPathPair(AlgebraError):
    """Two paths that do not share an endpoint cannot index a matrix unit."""


class NonConnected(AlgebraError):
    """Inclusion graph disconnected; the Perron eigenvector is ambiguous."""


class NotAProjection(AlgebraError):
    """An operator expected to be an orthogonal projection is not one."""


class NotSupportedOnE1(AlgebraError):
    """Pushdown input does not satisfy v = v e1."""


class InfeasibleSupport(AlgebraError):
    """No family with the prescribed support exists in the requested mode.

    ``deficits`` maps block index to the missing rank.
    """

    def __init__(self, message, deficits=None):
        super().__init__(message)
        self.deficits = dict(deficits or {})


class NotASystem(AlgebraError):
    """The Gram matrix is not a projection."""


class NotABasis(AlgebraError):
    """A family expected to be a basis fails the support test."""


class NotIntermediate(AlgebraError):
    """A subalgebra does not sit between the given pair."""


class NotUnitary(AlgebraError):
    """An element expected to be unitary is not."""


class NotANormalizer(AlgebraError):
    """A unitary does not normalize the given subalgebra."""


class NotAnAction(AlgebraError):
    """Group action data fails the automorphism or homomorphism checks."""


class DuplicateCoset(AlgebraError):
    """Two coset representatives lie in the same coset."""


class InvalidSubgroup(AlgebraError):
    """A subset of a group table is not closed under products and inverses."""


class ScenarioError(AlgebraError):
    """Malformed scenario file or unknown task."""
