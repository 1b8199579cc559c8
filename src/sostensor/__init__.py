"""Sum-of-squares certification and spectral bounds for symmetric tensors."""

from .tensor import (
    EigenPair,
    HomogeneousPolynomial,
    SymmetricTensor,
    TensorError,
    absolute_tensor,
    all_one_tensor,
    build_special,
    canonicalize,
    comparison_tensor,
    eigen_residual,
    from_polynomial,
    identity_tensor,
    multiplicity,
    partially_all_one,
    rank_one_tensor,
    sym_outer_square,
)
from .structured import (
    ClassificationReport,
    ExtendedZResult,
    b0_split,
    cauchy_cp_approx,
    cauchy_is_psd,
    cauchy_tensor,
    classify,
    classify_b_family,
    delta_index_set,
    detect_extended_z,
    double_b_quantities,
    is_b0,
    is_diagonally_dominated,
    is_h_tensor,
    spectral_radius_nonnegative,
)
from .sos import (
    CertifyOptions,
    NotCertified,
    SosCertificate,
    bd_exponent,
    certify_sos,
    extract_sos_terms,
    f_hat,
    gershgorin_lower_bound,
    gram_system,
    lambda_bound,
    monomial_basis,
    single_mixed_term_sos,
    sos_rank_bounds,
)
from .sdp import SdpProblem, SdpSolution, SolveOptions, psd_project, solve
from .spectral import (
    EigMinOptions,
    EigMinResult,
    brute_force_min,
    generate_procedure1,
    is_positive_definite,
    min_h_eigenvalue,
)

__version__ = "0.1.0"
