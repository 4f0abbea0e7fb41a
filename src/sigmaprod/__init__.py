"""Exact combinatorics of products of spaces of finite sets.

The objects are the compact spaces of at-most-n-element subsets of a ground
set and their finite and countable products.  The package materializes, at
desk scale and in exact rational arithmetic, the machinery that classifies
them: averaging operators for the union map, the symbolic clopen box algebra,
the binary encoding of the positive l1 ball, delta-system extraction, and the
homeomorphism decision procedure with its decomposition witnesses.
"""

from .ground import (
    EMPTY,
    OMEGA,
    BudgetExceeded,
    Point,
    ProductDescriptor,
    ProductPoint,
    TauSequence,
    i_of,
    j_of,
    materialize,
    parse_point,
    parse_tau,
)
from .clopen import (
    BasicBox,
    ClopenSet,
    box_contains,
    box_intersect,
    box_is_empty,
    box_reduce,
    preimage_under_union,
    union_membership_cover,
)
from .averaging import (
    AveragingOperator,
    UnionMap,
    apply_union,
    build_operator,
    enumerate_L,
    fiber_map,
    locality_profile,
    product_operator,
    restrict_operator,
)
from .uec import (
    BinaryArray,
    SignedVector,
    embed_u,
    in_L0,
    level_bounds,
    phi,
    phi_preimage,
    pipeline_check,
    support_counts,
)
from .deltasystem import (
    DeltaSystem,
    NeighborhoodSpec,
    SetFamily,
    common_point_witness,
    extract_delta_system,
    free_transversal,
    neighborhood_emptiness_bound,
)
from .classification import (
    ClassificationVerdict,
    Decomposition,
    NormalForm,
    SpaceExpression,
    cb_derivative,
    cb_invariants,
    classify,
    decompose_absorb_small,
    decompose_classif_k,
    embed_product_into_sigma,
    max_power_embeddable,
    normal_form,
    recover_tau,
    retract_witness,
)

__version__ = "0.1.0"
