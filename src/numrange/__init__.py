"""Numerical ranges of compressed shifts for finite Blaschke products.

The package builds model operators in the Takenaka basis, computes
numerical ranges and radii by independent routes (closed formulas,
trigonometric root systems, dense eigenvalue sweeps), constructs the
circumscribing polygons coming from unitary dilations, and certifies the
Schwarz-Pick and Haagerup-de la Harpe inequalities for nilpotent
contractions, and measures the angles between model spaces.
"""

from .blaschke import (
    BlaschkeProduct,
    TaylorSeries,
    default_truncation,
    evaluate,
    poisson_kernel,
    real_part_symbol,
    takenaka_basis,
    takenaka_taylor,
)
from .errors import (
    AlphaOutOfRangeError,
    BracketFailureError,
    CommonZeroError,
    ConstantMapError,
    IndexOutOfRangeError,
    LambdaOnBoundaryError,
    NonHermitianError,
    NonSquareError,
    NotNilpotentError,
    NotRankOneError,
    NotSingleZeroError,
    NumrangeError,
    PhaseSearchFailureError,
    SelfMapViolationError,
    SingularMatrixError,
    TOutOfRangeError,
    TruncationInsufficientError,
    UnsupportedDegreeError,
)
from .inequalities import (
    AnalyticSelfMap,
    InequalityCheck,
    NilpotentContraction,
    SchwarzPickChain,
    haagerup_harpe_check,
    operator_mobius,
    polynomial_apply,
    random_nilpotent_contraction,
    schwarz_pick_chain,
    schwarz_pick_check,
    schwarz_pick_transform,
    vanishing_order,
)
from .kms import (
    KmsRootSystem,
    eigenvalue_equation,
    kms_eigenvalues,
    kms_matrix,
    kms_root_system,
    parity_equation,
    real_part_spectrum,
    solve_root,
)
from .linalg import (
    HermitianEig,
    determinant,
    hermitian_eig,
    norm_inf,
    rdiv,
    singular_values,
    solve,
    spectral_norm,
)
from .model_operator import (
    ModelOperator,
    char_det_closed_form,
    char_det_recurrence,
    compress_shift_adjoint,
    shift_adjoint_matrix,
    shift_matrix,
    single_zero_matrix,
)
from .numerical_range import (
    BoundarySample,
    boundary,
    numerical_radius,
    rotated_real_part,
    support_function,
    support_sweep,
)
from .poncelet import (
    circumscription_check,
    defect_vectors,
    edge_support_gaps,
    poncelet_polygon,
    unitary_dilation,
    unitary_eigensystem,
)
from .radius import radius_closed_form, radius_poisson_form, radius_single_zero
from .report import VERSION, RunReport, boundary_csv, boundary_svg
from .subspaces import (
    AngleReport,
    RadiusEstimate,
    cross_gram,
    radius_estimate,
    sin_angle_lower_bound,
    subspace_cos_angle,
    taylor_cross_gram,
)

__version__ = VERSION
