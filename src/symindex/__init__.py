"""Maslov-type index iteration for symplectic paths.

Exact iteration formulas driven by normal-form data, an independent
geometric crossing-count oracle, and a common-index-jump search over
the induced torus vector, exercised end to end on the non-resonant
ellipsoid model.
"""

from .scalars import (  # noqa: F401
    PrecisionError,
    Scalar,
    detect_rational,
    get_precision,
    parse_scalar,
    set_precision,
)
from .normal_forms import (  # noqa: F401
    BasicNormalForm,
    NormalFormError,
    SymplecticMatrix,
    diamond,
    nu_omega,
    realize,
    realize_decomposition,
)
from .iteration import (  # noqa: F401
    C_of_M,
    DecompositionError,
    I_value,
    NormalFormDecomposition,
    PathIndexData,
    S_plus_one,
    SplittingPair,
    index_iterate,
    index_iterate_via_splitting,
    mean_index,
    nullity_iterate,
    splitting_numbers,
    unit_spectrum,
    validate,
)
from .oracle import (  # noqa: F401
    OracleError,
    SampledSymplecticPath,
    cz_index,
    estimate_splitting,
    extend_with_xi,
    iterate_path,
    path_from_quadratic_hamiltonian,
)
from .jump import (  # noqa: F401
    JumpError,
    JumpSolution,
    JumpVector,
    build_jump_vector,
    compute_m,
    delta_k,
    mean_ratio_classify,
    search_N,
    theorem211_report,
    varrho,
)
from .ellipsoid import (  # noqa: F401
    EllipsoidError,
    EllipsoidSpec,
    orbit_data,
    run_pipeline,
)

__version__ = "0.1.0"
