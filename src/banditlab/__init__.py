"""Simulation laboratory for Lipschitz bandit and experts problems on
explicitly represented metric spaces."""

from .errors import (
    BanditLabError,
    InvalidScheduleError,
    ResolutionError,
    StructuralError,
    UnsupportedCapabilityError,
    ValidationError,
)
from .spaces import (
    Ball,
    BallTree,
    ball_tree_violations,
    build_ball_tree,
    cb_rank,
    cover_oracle,
    covering_number,
    covering_oracle,
    depth_oracle,
    estimate_dimension,
    ordering_oracle,
    rank_covering_oracle,
    space_from_descriptor,
    uniform_tree_branching,
    ConvergentSpace,
    ConvergentUnionSpace,
    DepthLevel,
    DepthStructure,
    FiniteSpace,
    IntervalSpace,
    NestedConvergentSpace,
    TreeSpace,
)
from .instances import (
    instance_from_descriptor,
    monte_carlo_mean,
    ArmsInstance,
    ConstantInstance,
    LineageInstance,
    LogTEnsembleInstance,
    MaxMinLCDInstance,
    NoncompactInstance,
    PeakInstance,
)
from .bandits import (
    dyadic_rounding,
    identity_rounding,
    CBBanditSession,
    CompletionAdapterSession,
    ExplPrimeRun,
    ExplRun,
    PhasedExplSession,
    PhasedUCB1Session,
    UCB1Session,
)
from .experts import (
    DoubleFeedbackExpert,
    MaxMinLCDExperts,
    NaiveExperts,
)
from .verify import (
    claim9_check,
    ensemble_check,
    kl_bounds_report,
    kl_chain_check,
    kl_divergence,
    lb_time_threshold,
    lipschitz_certify,
    make_sibling_ensemble,
)
from .harness import (
    ExperimentConfig,
    RegretTrace,
    aggregate_traces,
    export_csv,
    export_json,
    fit_exponent,
    import_json,
    run_match,
    run_replicates,
)

__version__ = "0.1.0"
