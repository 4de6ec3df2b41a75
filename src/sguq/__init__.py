"""Sparse-grid surrogates and the three-stage uncertainty-quantification workflow.

Subpackages cover multi-index sets, nested Leja collocation points,
sparse-grid surrogates built in Newton form on the lower set of degrees (the
combination coefficients only order the points and are serialized with the
index set), variance-based sensitivity indices, Bayesian inverse analysis
with a Laplace posterior, and data-informed forward propagation with density
estimates.
"""

__version__ = "0.1.0"

from .indices import (
    MultiIndexSet,
    combination_coefficients,
    explicit_index_set,
    generate_index_set,
    is_downward_closed,
)
from .knots import (
    knots_for_level,
    level_to_knots,
    symmetric_gaussian_leja,
    symmetric_leja,
)
from .surrogate import (
    Dim,
    ExtrapolationWarning,
    Gaussian,
    ParameterSpace,
    SparseGrid,
    Surrogate,
    Uniform,
    build_sparse_grid,
    surrogate_from_json_dict,
    surrogate_to_json_dict,
    validation_errors,
)
from .sobol import SobolResult, rank_parameters, sobol_indices
from .models import (
    BuiltinModel,
    ExternalModel,
    ExternalModelError,
    register_builtin,
)
from .inversion import (
    InversionError,
    LaplaceCovariance,
    MapResult,
    Measurements,
    PosteriorSpec,
    build_posterior,
    find_map,
    laplace_covariance,
    least_squares,
    log_likelihood,
    profile_likelihood,
    sigma_map,
    synthesize_data,
)
from .forward import (
    BandComparison,
    DensityEstimate,
    estimate_densities,
    estimate_density,
    propagate,
    sample_posterior,
    uncertainty_bands,
)
