"""Digital nets over Z_b with digit-reflection symmetrization.

Construction and exact analysis of digital nets in any dimension, with
exact rational points: character sums, dual nets and Dick weights,
planar L_p star discrepancy, and worst-case integration error in
Walsh-based kernel spaces.
"""

from .badic import (
    GElement,
    GVector,
    g_add,
    g_sub,
    in_E,
    int_digits,
    project_pi,
    section_sigma,
)
from .walsh import (
    CharacterSum,
    UnityExponent,
    character,
    character_sum_over,
    walsh_eval,
    walsh_exponent,
)
from .nets import (
    DigitalNet,
    PointSet,
    enumerate_points,
    hammersley_matrices,
    hammersley_point_set,
    net_from_json,
    net_to_json,
    points_to_csv,
    sym_hammersley_points,
    symmetrize_matrices,
    to_point_set,
    truncated_sym_hammersley,
)
from .dual import (
    IndependenceReport,
    Rho2Result,
    WeightProfile,
    certify_rho2_via_independence,
    check_independence_sets,
    dual_contains,
    dual_enumerate_below,
    mu2,
    rho2_min_weight,
)
from .discrepancy import (
    DiscrepancyResult,
    l2_star,
    linf_star,
    lp_star,
    truncation_bound,
)
from .rkhs import (
    BandLimitedKernel,
    IntegrationResult,
    SpectralDiagonalKernel,
    WceResult,
    khat,
    ms_wce_spectral,
    qmc_integrate,
    random_digital_shift,
    wce_direct,
    wce_spectral,
)

__version__ = "0.1.0"
