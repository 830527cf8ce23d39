"""Exact computations for representations of Dynkin quivers.

Everything is exact: representations live over small prime fields,
hom/ext dimensions come from closed formulas on root enumerations, and
Grassmannians of subrepresentations are enumerated point by point.  On
top of that sit the degeneration order, extension sets with generic
extensions, component labels of quiver Grassmannians, the repetition
quiver with its pairing calculus, and the decision procedures for
induction products of simple modules.
"""

from .extensions import (
    METHOD_FILTER,
    METHOD_U,
    ExtSetResult,
    StratumDimReport,
    d_lambda,
    degree_bound,
    e_lambda,
    ext_min,
    ext_set,
    generic_ext,
    hom_omega_dim,
    orbit_dim,
    pair_stratum_dim,
    stratum_dim_report,
)
from .grassmannian import (
    StrataReport,
    StratumEntry,
    a2_component_range,
    ext_ger,
    ext_pairs,
    generic_pairs,
    point_count,
    realized_pairs,
    strata,
    stratum_dim,
    subreps,
)
from .homs import (
    HomTable,
    ext_dim,
    hom_dim,
    hom_ext_pair,
    hom_table,
    projective_resolution,
    typeA_ext_dim,
    typeA_hom_dim,
)
from .klr import (
    DegreeReport,
    HeadSocleBounds,
    LengthTwoReport,
    SimplicityVerdict,
    SoclePrediction,
    SupportPairResult,
    TwoSidedSupportPairResult,
    degree_report,
    head_socle_bounds,
    is_support_pair,
    length_two_report,
    rigid_simplicity,
    semicuspidal_pairs,
    simplicity_necessary,
    socle_prediction,
    two_sided_support_pair,
)
from .linalg import (
    CapExceeded,
    DEFAULT_CAP,
    SUPPORTED_FIELDS,
    enumerate_subspaces,
    gaussian_binomial,
)
from .order import (
    hom_vector,
    interval,
    is_rigid,
    leq,
    lt,
    typeA_leq,
)
from .quiver import (
    DynkinQuiver,
    KostantPartition,
    PartitionError,
    QuiverError,
    RootTable,
    adapted_reduced_word,
    build_quiver,
    coxeter_number,
    dim_add,
    dim_leq,
    dim_sub,
    euler_form,
    format_quiver_spec,
    injective_root,
    kp_count,
    kp_enumerate,
    kp_format,
    kp_from_segments,
    kp_from_vectors,
    kp_parse,
    kp_single,
    kp_zero,
    load_quiver,
    parse_dim_vector,
    parse_quiver_spec,
    positive_root_count,
    positive_roots,
    projective_root,
    root_segment,
    segment_root,
    segments_of,
    simple_reflection,
    standard_quiver,
    weight,
)
from .repetition import (
    GradedDimVector,
    RepetitionError,
    RepetitionQuiver,
    V_COORDINATE_SHIFT,
    build_repetition,
    cartan_q,
    coxeter_tau,
    coxeter_tau_inv,
    d_value,
    epsilon,
    pairing,
    v_lambda,
    w_gamma,
)
from .reps import (
    Rep,
    build,
    chain_rep,
    direct_sum,
    hom_basis,
    hom_space_dim,
    identify,
    indecomposable,
    sub_quotient,
    zero_rep,
)

__version__ = "0.1.0"
