"""The package's public names, pinned: each addition or removal shows in the diff of this list."""

import ppbasis

PUBLIC = [
    "AlgebraElement", "AlgebraError", "Automorphism", "BasicConstruction", "BratteliDiagram", "CrossedProductModel",
    "GroupTable", "M1Trace", "MarkovData", "MultiMatrixAlgebra", "PPSystem", "PathModel", "Subalgebra",
    "UnitalEmbedding", "WatataniData", "WedderburnData", "WeylReport", "check_intermediate", "check_normalizer",
    "classify", "complete_to_basis", "construct_system_with_support", "coset_distinct", "coset_system", "gram_matrix",
    "interchange_operator", "interchange_pair", "intermediate_projection", "is_commuting_square", "markov_trace",
    "patch_bases", "regular_pipeline", "relative_commutant", "scalar_basis", "watatani_index", "wedderburn",
]


def test_public_api_is_pinned():
    assert sorted(ppbasis.__all__) == PUBLIC
