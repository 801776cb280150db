"""Weighted backward shifts on directed trees.

Realizes the backward shift B on weighted l^p and c0 spaces over lazily
generated rooted and unrooted directed trees, together with horizon-bounded
evaluations of the dynamical weight criteria (boundedness, transitivity and
recurrence along Furstenberg families, scaled-orbit density, orbital limit
points) and constructive witnesses for return sets.
"""

from .errors import (
    CriterionTooWeakError,
    EmptyFiberError,
    EmptyIndexSetError,
    FloatRangeError,
    InvalidAddressError,
    RootedTreeError,
    TreeShiftError,
    TreeSpecError,
    UnknownPresetError,
    WorkBudgetError,
)
from .trees import (
    ANCHOR,
    ROOTED,
    UNROOTED,
    EdgeData,
    TreeModel,
    Truncation,
    VertexAddress,
    VertexTypes,
    canonicalize,
    children,
    chi_n,
    enumerate_truncation,
    format_address,
    p_n,
    parent,
    parse_address,
    tree_from_edge_data,
    validate,
)
from .presets import (
    PRESETS,
    bi_infinite_path,
    chain_vertex,
    example_4_1,
    example_7_2,
    example_7_2_vector,
    full_binary,
    make_preset,
    spine_vertex,
    unary_path,
)
from .spaces import (
    DualExponent,
    SpaceSpec,
    SparseVector,
    basis,
    dump_vector,
    fiber_mass,
    load_vector,
    norm,
    norm_powered,
    pairing,
)
from .shifts import (
    BallSpec,
    OperatorNormResult,
    OrbitPoint,
    ReturnSetReport,
    apply_B,
    apply_B_pow,
    apply_S,
    operator_norm,
    orbit,
    return_set_report,
    witness_return,
)
from .simplex import (
    InUnrootedResult,
    RecurrentSynthesis,
    SimplexInstance,
    TailBudget,
    build_In_unrooted,
    build_recurrent_vector,
    build_Sn,
    fiber_simplex_inf,
    simplex_inf,
    simplex_inf_powered,
    simplex_optimizer,
)
from .families import (
    FamilySpec,
    Verdict,
    cofinite_family,
    family_verdict,
    generated_filter,
    infinite_family,
    syndetic_family,
    thick_family,
    tilde_family,
)
from .criteria import (
    DynamicsReport,
    GammaSpec,
    I_set,
    I_sets,
    J_set,
    LimitPointReport,
    SupercyclicityReport,
    default_sample_sets,
    dynamics_report,
    gamma_constant,
    gamma_powers,
    j_value,
    limit_point_report,
    q_value,
    supercyclicity_report,
    transitivity_filter_base,
)
from .treespec import TreeSpecDocument, load_tree_spec, parse_tree_spec, resolve_model

__version__ = "0.1.0"
