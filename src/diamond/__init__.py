"""diamond: exact noncommutative rewriting over free algebras.

Construct presentations from defining polynomial data, orient them under
well-founded monomial orders, enumerate and resolve all overlap/inclusion
ambiguities, enumerate standard-word bases, and verify the structural
claims (coalgebra compatibility, centrality, growth, tensor quotients)
with exact arithmetic throughout.
"""

__version__ = "0.1.0"

from .freealg import (
    Alphabet,
    NcPoly,
    TensorPoly,
    Word,
    bidegree_sum,
    check_splitting_identity,
    render_word,
)
from .ordering import GrlexPlus, ProductGrlex, check_compatibility
from .presentations import (
    AX,
    DefiningPolynomial,
    Presentation,
    build_quantum_plane,
    build_system,
    build_tensor_presentation,
    defining_relation,
    downup_relations,
    leading_filtered_part,
    rescale_letter,
)
from .rewrite import (
    Ambiguity,
    ConfluenceReport,
    ReductionBudgetExceeded,
    ReductionSystem,
    Rule,
    check_confluence,
    find_ambiguities,
    normal_form,
    resolve_ambiguity,
)
from .scalars import (
    Cyclotomic,
    CyclotomicField,
    cyclotomic_polynomial,
    euler_phi,
)

__all__ = [
    "Alphabet",
    "Ambiguity",
    "AX",
    "bidegree_sum",
    "build_quantum_plane",
    "build_system",
    "build_tensor_presentation",
    "check_compatibility",
    "check_confluence",
    "check_splitting_identity",
    "ConfluenceReport",
    "Cyclotomic",
    "cyclotomic_polynomial",
    "CyclotomicField",
    "DefiningPolynomial",
    "defining_relation",
    "downup_relations",
    "euler_phi",
    "find_ambiguities",
    "GrlexPlus",
    "leading_filtered_part",
    "NcPoly",
    "normal_form",
    "Presentation",
    "ProductGrlex",
    "ReductionBudgetExceeded",
    "ReductionSystem",
    "render_word",
    "rescale_letter",
    "resolve_ambiguity",
    "Rule",
    "TensorPoly",
    "Word",
]
