"""Fundamental quantities of finite Markov systems from one shifted solve.

For a discrete chain P and any row vector r with r.e != 0, the matrix
I - P + e r is invertible; its inverse generalizes the classical
fundamental matrix (I - P + e pi)^-1 without pre-computing pi. One
factorization yields potentials, the stationary distribution, and (on
the state-action chain of an MDP) Q-factors. The continuous-time
analogue shifts the rate matrix: B + e r. An online estimator recovers
potentials from simulated sample paths.
"""

from .config import DEFAULT, Tolerances
from .ctmc import (
    ctmc_potentials,
    ctmc_potentials_classic,
    ctmc_stationary,
    verify_generator_spectrum,
)
from .errors import (
    DimensionMismatchError,
    EstimateDivergentError,
    GammaTooSmallError,
    GfmError,
    ModelError,
    ModelFormatError,
    NearSingularError,
    NegativeEntryError,
    NegativeOffDiagonalError,
    NonSquareError,
    NotAperiodicError,
    NotErgodicError,
    NotIrreducibleError,
    NumericalError,
    ReferenceDegenerateError,
    ReferenceNotDistributionLikeError,
    RowSumViolationError,
    ScheduleInvalidError,
    SeriesDivergentError,
)
from .estimator import (
    EstimateTrace,
    SimulationConfig,
    StepSchedule,
    online_potentials,
    simulate_chain,
    truncated_accumulated_reward,
    write_trace_csv,
)
from .gfm import (
    NORM_ETA,
    NORM_MINUS_ETA,
    NORM_ZERO,
    FundamentalMatrix,
    PotentialSolution,
    SpectralRadiusEstimate,
    StationaryDistribution,
    fundamental_matrix,
    potentials,
    potentials_classic,
    potentials_reference_level,
    renormalize_potentials,
    series_fundamental,
    spectral_radius_estimate,
    stationary,
    verify_spectral_shift,
)
from .model import (
    ChainDiagnostics,
    GeneratorMatrix,
    MdpModel,
    ReferenceVector,
    RewardVector,
    StochasticMatrix,
    diagnose_chain,
    e1_reference,
    min_uniformization_rate,
    reference_vector,
    reward_vector,
    uniform_reference,
    uniformize,
    validate_generator,
    validate_mdp,
    validate_stochastic,
)
from .modelio import LoadedModel, dumps_document, load_model
from .qfactors import (
    ActionTransitionMatrix,
    PolicyMatrix,
    QSolution,
    StateActionChain,
    action_transition_matrix,
    build_policy_matrix,
    build_state_action_chain,
    q_consistency_report,
    qfactors_solve,
)
from .report import CheckResult, VerificationReport

__version__ = "0.1.0"
