"""Phase-space analysis of signal datasets: data operators, operator
convolutions, time-frequency augmentation, and entropy-based effective
dimensionality."""

from .augmentation import (
    Domain,
    augment_dataset,
    finite_rank_approx,
    full_domain,
    make_cells_domain,
    make_rect_domain,
    mixed_state_localization,
    scale_domain,
)
from .experiments import ExperimentConfig, ResultTable, run_experiment
from .io import (
    domain_from_json,
    domain_to_json,
    read_signals,
    write_signals,
)
from .datasets import (
    DataSet,
    gen_chirps,
    gen_gaussian_combos,
    gen_hermite_pair_state,
    gen_local_components,
    gen_random_tf_weighted,
    normalize_dataset,
)
from .metrics import (
    CheckResult,
    alc,
    asymptotic_alc_scan,
    check_bounds,
    data_entropy_and_rank,
    differential_entropy,
    effective_dimension,
    localize,
    projection_functional_spectral,
    von_neumann_entropy,
)
from .operators import (
    HermitianOperator,
    cohen_class,
    conv_layer_identity,
    data_operator,
    fn_op_convolve,
    op_op_convolve,
    tensor_product,
    total_correlation,
)
from .tf_core import (
    gaussian_window,
    grid_convolve,
    grid_integrate,
    hermite,
    spectrogram,
    stft,
    tf_shift,
)

__version__ = "0.1.0"
