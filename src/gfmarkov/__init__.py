"""Fundamental quantities of finite Markov systems from one shifted solve.

For a discrete chain P and any row vector r with r.e != 0, the matrix
I - P + e r is invertible; its inverse generalizes the classical
fundamental matrix (I - P + e pi)^-1 without pre-computing pi. One
factorization yields potentials, the stationary distribution, and (on
the state-action chain of an MDP) Q-factors. The continuous-time
analogue shifts the rate matrix: B + e r. An online estimator recovers
potentials from simulated sample paths.

``import gfmarkov`` runs the discrete-chain core (``config``, ``errors``,
``model``, ``gfm``, ``modelio``, ``report``) and no scipy. The
continuous-time solver ``ctmc``, the Q-factor module ``qfactors`` and
the online ``estimator`` are run at the first use of one of their
names, through the module ``__getattr__`` (PEP 562), so a process that
never calls them never compiles or runs them. ``dir()`` and
``from gfmarkov import *`` list those names all the same.
"""

from .config import DEFAULT, Tolerances
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
from .report import CheckResult, VerificationReport

__version__ = "0.1.0"

# the submodules that import on first use, with the public names of each
_LAZY = {
    "ctmc": ("ctmc_potentials", "ctmc_potentials_classic", "ctmc_stationary",
             "verify_generator_spectrum"),
    "estimator": ("EstimateTrace", "SimulationConfig", "StepSchedule",
                  "online_potentials", "simulate_chain",
                  "truncated_accumulated_reward", "write_trace_csv"),
    "qfactors": ("ActionTransitionMatrix", "PolicyMatrix", "QSolution",
                 "StateActionChain", "action_transition_matrix",
                 "build_policy_matrix", "build_state_action_chain",
                 "q_consistency_report", "qfactors_solve"),
}
# each lazy submodule and public name, to the submodule that holds it
_LAZY_OWNER = {name: module for module, names in _LAZY.items()
               for name in (module, *names)}

# every public name and submodule, loaded or not
__all__ = sorted({name for name in globals() if not name.startswith("_")}
                 | _LAZY_OWNER.keys())


def __getattr__(name: str):
    if name not in _LAZY_OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    module = import_module(f".{_LAZY_OWNER[name]}", __name__)
    return module if name in _LAZY else getattr(module, name)


def __dir__() -> list[str]:
    return sorted(globals().keys() | __all__)
