"""Finite-dimensional inclusions of multi-matrix algebras: conditional
expectations, basic constructions, Pimsner-Popa systems and bases, path
models, interchange operators and regular-inclusion basis patching.
"""

from types import ModuleType as _ModuleType

from .algebra import (
    AlgebraElement,
    MultiMatrixAlgebra,
    Subalgebra,
    UnitalEmbedding,
    WedderburnData,
    relative_commutant,
    wedderburn,
)
from .basic import BasicConstruction, M1Trace, MarkovData, WatataniData, markov_trace, watatani_index
from .errors import AlgebraError
from .intermediate import (
    check_intermediate,
    interchange_operator,
    interchange_pair,
    intermediate_projection,
    is_commuting_square,
)
from .paths import BratteliDiagram, PathModel, scalar_basis
from .regular import (
    Automorphism,
    CrossedProductModel,
    GroupTable,
    WeylReport,
    check_normalizer,
    coset_distinct,
    coset_system,
    patch_bases,
    regular_pipeline,
)
from .systems import PPSystem, classify, complete_to_basis, construct_system_with_support, gram_matrix

__version__ = "0.1.0"

# every public name imported above, so the list cannot drift from the imports
__all__ = sorted(name for name, obj in globals().items() if not name.startswith("_") and not isinstance(obj, _ModuleType))
