"""Fisher information operators, efficiency bounds, and LAN diagnostics for
nonlinear PDE regression models on the torus."""

__version__ = "0.1.0"

from .spectral import (
    DIV_FREE,
    FULL,
    MEAN_ZERO,
    EigenSystem,
    FourierCoeffs,
    build_eigensystem,
    pairing,
    sobolev_norm,
)
from .noise import (
    FisherMatrix,
    fisher_matrix,
    make_noise,
    sqrt_density_h1_check,
)
from .forward import (
    BumpReaction,
    HeatModel,
    NavierStokesModel,
    ReactionDiffusionModel,
    SpaceTimeField,
    TimeMesh,
    qmd_remainder_slope,
)
from .information import (
    DesignMeasure,
    InformationMatrix,
    assemble_information_matrix,
    l2lambda_norm,
    lan_norm,
    lan_norm_direct,
    norm_equivalence_diagnostic,
    orthonormalize_h,
    s_norm_truncated,
)
from .gaussian import (
    GaussianSampleBatch,
    functional_pushforward_bound,
    sample_efficient_gaussian,
    support_diagnostic,
)
from .inference import (
    Dataset,
    efficiency_report,
    lan_montecarlo,
    log_likelihood_ratio,
    simulate_dataset,
)
