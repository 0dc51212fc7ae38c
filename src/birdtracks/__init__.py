"""Singlet projectors for mixed tensor powers of SU(N) at symbolic N.

States live on tensor products of k fundamental and k antifundamental
factors.  Operators are finite sums of permutation diagrams with exact
coefficients in Q(N), extended by square roots where normalization
demands them.  Everything symbolic can be specialized to integer N and
cross-checked against dense tensors.
"""

from .coefficients import (
    N,
    ONE,
    RadicalCoefficient,
    RationalFunction,
    ZERO,
    rf,
    sqrt,
)
from .diagrams import (
    ANTI,
    FUND,
    InvariantElement,
    PrimitiveDiagram,
    Signature,
    compose,
    format_cycles,
    identity,
    inner_product,
    ket_signature,
    ketbra,
    operator_signature,
    parse_cycles,
    permutation_element,
    tensor,
    zero,
)
from .epsilon import (
    TransientParams,
    epsilon_tensor,
    leibniz_translate,
    lr_decomposition,
    lr_pair_projector,
    pieri_add_antifundamental,
    shape_dimension,
    transient_singlet_params,
    transient_singlet_projector,
    translated_singlet_ket,
    verify_baryon_equivalence,
)
from .errors import BirdtrackError
from .checks import CHECKS, run_checks
from .numeric import (
    ExactTensor,
    evaluate,
    evaluate_float,
    exact_rank,
)
from .singlets import (
    SOURCES,
    SingletOperator,
    basis_states,
    gram_matrix,
    rank_one_product,
    singlet_basis,
    singlet_count,
    singlet_projector,
    singlet_table,
)
from .symmetrizers import (
    YoungShape,
    antisymmetrizer,
    builtin_orthogonal_basis,
    irrep_dimension,
    symmetrizer,
)
from .tracebasis import (
    CycleDecomposition,
    adjoint_pair_diagram,
    all_decompositions,
    derangement_states,
    normalized_trace_basis,
    pair_singlet_projector,
    raw_trace_states,
    trace_basis_state,
)

__version__ = "0.1.0"

__all__ = [
    "ANTI",
    "BirdtrackError",
    "CHECKS",
    "CycleDecomposition",
    "ExactTensor",
    "FUND",
    "InvariantElement",
    "N",
    "ONE",
    "PrimitiveDiagram",
    "RadicalCoefficient",
    "RationalFunction",
    "SOURCES",
    "Signature",
    "SingletOperator",
    "TransientParams",
    "YoungShape",
    "ZERO",
    "adjoint_pair_diagram",
    "all_decompositions",
    "antisymmetrizer",
    "basis_states",
    "builtin_orthogonal_basis",
    "compose",
    "derangement_states",
    "epsilon_tensor",
    "evaluate",
    "evaluate_float",
    "exact_rank",
    "format_cycles",
    "gram_matrix",
    "identity",
    "inner_product",
    "irrep_dimension",
    "ket_signature",
    "ketbra",
    "leibniz_translate",
    "lr_decomposition",
    "lr_pair_projector",
    "normalized_trace_basis",
    "operator_signature",
    "pair_singlet_projector",
    "parse_cycles",
    "permutation_element",
    "pieri_add_antifundamental",
    "rank_one_product",
    "raw_trace_states",
    "rf",
    "run_checks",
    "shape_dimension",
    "singlet_basis",
    "singlet_count",
    "singlet_projector",
    "singlet_table",
    "sqrt",
    "symmetrizer",
    "tensor",
    "trace_basis_state",
    "transient_singlet_params",
    "transient_singlet_projector",
    "translated_singlet_ket",
    "verify_baryon_equivalence",
    "zero",
]
