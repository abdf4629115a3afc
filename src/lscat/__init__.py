"""Exact Lusternik-Schnirelmann category and min-max critical point
bounds on finite topological spaces, plus a numeric gradient-flow
backend for the Palais-Smale bridge."""

__version__ = "0.1.0"

from .poset import (  # noqa: F401
    EmptySpace,
    FenceCertificate,
    FiniteSpace,
    NotAPartialOrder,
    SizeCapExceeded,
    SpaceMap,
    core,
    enumerate_maps,
    homotopic,
    is_contractible_in,
    is_homotopy_equivalence,
    validate_space,
)
from .action import (  # noqa: F401
    GroupAction,
    HomogeneousClass,
    G_homotopic,
    NotAnAutomorphism,
    orbit_equivalent,
    validate_action,
)
from .category import (  # noqa: F401
    CatQuery,
    CatResult,
    INFINITE,
    cat,
    cat_classB,
    cat_closed,
    cat_mod,
    cat_pair,
    cat_semi,
    check_preimage_categorical,
    closed_category_report,
    cover_category,
    cuplength_lower_bound,
    is_categorical,
)
from .engine import (  # noqa: F401
    IndexFunction,
    band_escape_exponent,
    check_axioms,
    check_supervariance,
    critical_values,
    make_truncated_index,
    random_instance,
    sublevel_entry_margin,
    verify_index_bound,
)
from .dynamics import (  # noqa: F401
    DynamicalPair,
    TheoremReport,
    check_discrete_palais_smale,
    detect_nondeformable_slice,
    is_lyapunov,
    verify_band_bound,
    verify_global_bound,
    verify_homeo_band_bound,
    verify_identity_band_bound,
    verify_semiflow,
)
from .simplicial import (  # noqa: F401
    SimplicialComplex,
    cuplength,
    face_poset,
    order_complex,
    star_cover_upper_bound,
)
from .numeric import (  # noqa: F401
    FlowConfig,
    ScalarField,
    check_condition_C,
    check_energy_identity,
    field_V,
    flow_map,
    truncation_g,
    verify_prop_app,
)
