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
    is_contractible_in,
    is_homotopy_equivalence,
    validate_space,
)
from .action import (  # noqa: F401
    GroupAction,
    HomogeneousClass,
    NotAnAutomorphism,
    orbit_equivalent,
    validate_action,
)
from .category import (  # noqa: F401
    CatQuery,
    CatResult,
    INFINITE,
    cat,
    cat_mod,
    cat_pair,
    cover_category,
    is_categorical,
)
from .engine import (  # noqa: F401
    IndexFunction,
    band_escape_exponent,
    check_axioms,
    check_supervariance,
    make_truncated_index,
    random_instance,
    verify_index_bound,
)
from .dynamics import (  # noqa: F401
    DynamicalPair,
    TheoremReport,
    check_discrete_palais_smale,
    verify_band_bound,
    verify_global_bound,
    verify_homeo_band_bound,
    verify_identity_band_bound,
    verify_semiflow,
)
from .simplicial import (  # noqa: F401
    SimplicialComplex,
    cuplength,
    cuplength_lower_bound,
    order_complex,
    star_cover_upper_bound,
)
from .numeric import (  # noqa: F401
    FlowConfig,
    ScalarField,
    check_energy_identity,
    field_V,
    flow_map,
    truncation_g,
    verify_prop_app,
)
