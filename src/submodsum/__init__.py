"""Submodular information measures for extractive summarization.

Ground-set items are scored by a chosen set function family; the mutual
information I_f(A; Q) = f(A) + f(Q) - f(A u Q), conditional gain
f(A | P) = f(A u P) - f(P), and their combination steer a greedy
maximizer toward query-relevant, privacy-respecting, or update summaries.
A max-margin trainer fits mixtures of these measures to reference
summaries, and the bench module provides count-overlap metrics plus
seeded synthetic studies.
"""

__version__ = "0.1.0"

from .errors import (
    ConfigError,
    FormatError,
    NumericError,
    SizeError,
    SubmodsumError,
    UnsupportedError,
)
from .data import (
    AuxiliarySet,
    Collection,
    ConceptUniverse,
    GroundSet,
    SimilarityKernel,
    build_kernel,
    count_matrix,
    coverage_matrix,
    load_collection,
)
from .functions import (
    FAMILY_ALIASES,
    EvalContext,
    Family,
    FunctionSpec,
    MeasureMode,
    definitional_oracle,
    evaluate,
    make_state,
    modes_supported,
    parse_family,
    partials,
)
from .optimize import (
    CompositeObjective,
    Flavor,
    MeasureObjective,
    Selection,
    brute_force_opt,
    flavor_sets,
    greedy_maximize,
    master_solve,
    parse_flavor,
)
from .learning import (
    MixtureModel,
    TrainConfig,
    TrainingExample,
    finite_diff_check,
    gradients,
    hinge_loss,
    init_mixture,
    loss_augmented_inference,
    mixture_eval,
    summarize_with_mixture,
    train,
)
from .bench import (
    BehaviorReport,
    SyntheticConfig,
    behavior_metrics,
    make_collection,
    plot_csv,
    random_instance,
    rouge_q,
    summary_counts,
    synth_context,
    synth_generate,
    vrouge,
)

__all__ = [
    "__version__",
    "SubmodsumError", "ConfigError", "FormatError",
    "NumericError", "SizeError", "UnsupportedError",
    "GroundSet", "AuxiliarySet", "ConceptUniverse",
    "SimilarityKernel", "Collection", "build_kernel",
    "count_matrix", "coverage_matrix", "load_collection",
    "Family", "FunctionSpec", "MeasureMode", "FAMILY_ALIASES", "parse_family",
    "EvalContext", "evaluate", "make_state", "partials",
    "modes_supported", "definitional_oracle",
    "Flavor", "parse_flavor", "Selection", "MeasureObjective",
    "CompositeObjective", "greedy_maximize",
    "brute_force_opt", "flavor_sets", "master_solve",
    "MixtureModel", "TrainingExample", "TrainConfig", "init_mixture",
    "mixture_eval", "hinge_loss", "loss_augmented_inference", "gradients",
    "finite_diff_check", "train", "summarize_with_mixture",
    "rouge_q", "summary_counts", "vrouge", "SyntheticConfig",
    "synth_generate", "synth_context", "BehaviorReport", "behavior_metrics",
    "random_instance", "make_collection", "plot_csv",
]
