"""Domain generalization by aggregating per-domain weight posteriors.

Small float64 networks with hand-rolled gradients, a diagonal Gaussian
posterior layer, moment-matched aggregation across training domains, exact
finite-model verification, synthetic multi-domain benchmarks and the sweep
harness that compares the procedures.
"""
from .aggregate import (
    AggregateResult,
    CovReport,
    coefficient_of_variation,
    cov_dropout,
    map_mean,
    mean_and_cov,
    moment_match,
)
from .datasets import (
    DomainDataset,
    DomainSpec,
    gen_rotated_moons,
    gen_spurious_blobs,
    load_dataset_csv,
    save_dataset_csv,
    split_train_val,
)
from .harness import (
    ExperimentConfig,
    ResultRow,
    Selection,
    default_benchmark_config,
    load_config,
    read_results_csv,
    run_experiment,
    select_model,
    summarize,
    write_results_csv,
)
from .nets import (
    AdamState,
    NetworkSpec,
    TrainingDiverged,
    WeightSet,
    adam_step,
    backward,
    cross_entropy,
    forward,
    init_weights,
    load_weights,
    loss_and_gradients,
    save_weights,
    softmax,
)
from .oracles import (
    DiscreteGenerativeModel,
    data_conditioned_gap,
    identity_gap,
    invariant_posterior_aggregated,
    invariant_posterior_exact,
    mixture_moments_mc,
    posterior_given,
    random_model,
    total_variation,
)
from .training import (
    ALGORITHMS,
    FeaturizerBank,
    TrainConfig,
    accuracy,
    erm_bayesian_train,
    erm_train,
    predict,
    ptg_lite_train,
    ptg_train,
    train_algorithm,
)
from .variational import (
    GaussianVariational,
    PriorSpec,
    elbo_loss,
    init_from_deterministic,
    kl_to_prior,
    load_gaussian,
    sample_weights,
    save_gaussian,
    softplus,
    softplus_inv,
)

__version__ = "0.1.0"
