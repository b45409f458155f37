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
    lan_norm,
    norm_equivalence_diagnostic,
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
