"""Universal robustness bounds for classifiers over quantized image
spaces: exact verification, brute-force oracles, bound tables, and
perturbation search."""

from .bounds import (
    AvgDistanceConstants,
    BoundQuery,
    BoundResult,
    avg_distance_constant,
    avg_distance_lower_bound,
    bounds_table,
    empirical_crossover_n,
    evaluate_bounds,
    lower_bound_size,
    upper_bound_size,
)
from .classifiers import (
    ClassifierHandle,
    ClassSummary,
    class_sizes,
    is_interesting,
    parse_classifier_spec,
    random_classifier,
    sum_classifier,
)
from .exactmath import (
    DiscretePMF,
    anti_concentration_holds,
    binom,
    binomial_spread_holds,
    harper_rhs,
    hoeffding_ratio_holds,
    mode_bound_holds,
    pmf_iid_sum,
    pmf_uniform_levels,
    solve_p_for_tail,
    tail_ratio,
    tail_table,
)
from .gaussian import GaussianChecksReport, gaussian_checks, grid_range
from .hamming import (
    GraphParams,
    HammingSubset,
    check_hamgraph_theorem,
    expand,
    expand_k,
    harper_check,
    interior_k,
)
from .image_space import (
    ImageTensor,
    PerturbationBudget,
    SpaceParams,
    decode_image,
    encode_image,
    enumerate_space,
    flatten,
    image_from_rank,
    norm_distance,
    sample_uniform,
    value_of_level,
)
from .perturb import (
    PerturbationOutcome,
    attack_sum_classifier,
    failure_rate,
    find_perturbation,
    minimal_perturbation,
)
from .robustness import (
    RobustnessReport,
    class_robust_fraction,
    first_reduction_violation,
    image_is_robust,
    sum_exact_fraction_L1,
    theorem1_holds,
)
from .verify import SUITES, VerifyConfig, run_suites

__all__ = [name for name in dir() if not name.startswith("_")]
