"""Tempered duals of GL(n) over R and C, their K-theory, and the
base-change / automorphic-induction maps, all in exact arithmetic."""

from .errors import (
    BudgetExceeded,
    DegreeMismatch,
    InvalidLabel,
    InvalidN,
    InvalidTruncation,
    LabelMismatch,
    RingMismatch,
    SideMismatch,
    UnknownGenerator,
    UsageError,
)
from .weil import (
    COMPLEX,
    REAL,
    ComplexCharacter,
    LParameter,
    RealCharacter,
    RealDiscreteSummand,
    canonical_form,
    complex_parameter,
    decompose,
    direct_sum,
    equivalent,
    galois_conjugate,
    hom_dim,
    induce_to_R,
    real_parameter,
    restrict_to_C,
)
from .dual import (
    SIGN_ID,
    SIGN_SGN,
    ComplexComponent,
    ComponentListing,
    IsotropyDescriptor,
    ListingBlock,
    RealComponent,
    TemperedPoint,
    canonicalize_point,
    component_of,
    complex_components,
    component_sort_key,
    enumerate_components_complex,
    enumerate_components_real,
    is_cone,
    isotropy,
    levi_classes,
    real_components,
)
from .langlands import (
    auto_induce_point,
    base_change_point,
    llc_complex,
    llc_complex_inv,
    llc_real,
    llc_real_inv,
)
from .ktheory import (
    RING_U1,
    RING_Z2,
    GradedKGroup,
    KClass,
    KHomomorphism,
    RepRingElement,
    apply_hom,
    k_ai_hom,
    k_bc_hom,
    k_group,
    k_ranks_component,
    repring_bc,
)

__version__ = "0.1.0"
