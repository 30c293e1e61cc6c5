"""Two-way entanglement purification with noisy apparatus.

Simulation and analysis of the recurrence-style 2-EPP under Pauli-diagonal
noise: exact bit algebra of the protocol, derivation of the flagged
16-variable recurrence map from any noise channel, fixpoint and stability
analysis, critical-noise searches, regime classification, and a pair-level
Monte Carlo of the distillation process with per-pair error flags.
"""

from .bellbits import (
    ALL_BELLS,
    ALL_FLAGS,
    ALL_PAULIS,
    BellIndex,
    FlagPair,
    PauliIndex,
    bcnot,
    bilateral_xrot,
    epp_unitary,
    epp_with_errors,
    error_corrector,
    flag_flip,
    flag_update,
    keep_predicate,
    pauli_on_bell,
)
from .dynamics import (
    FixpointResult,
    Regime,
    binary_family,
    binary_fixpoint_analytic,
    classify_regime,
    find_critical,
    fit_intermediate,
    iterate_to_fixpoint,
    jacobian,
    regime_scan,
    secure_by_stability,
    spectral_radius,
    white_noise_family,
)
from .montecarlo import (
    MCConfig,
    RoundStats,
    analytic_trajectory,
    init_ensemble,
    purification_round,
    resource_curve,
    resources,
)
from .noisemodels import (
    BinaryNoiseModel,
    NoiseModel,
    compose,
    from_p1_p2,
    noise_from_config,
    one_qubit_white,
    product,
)
from .recurrence import (
    CIRCUIT,
    COEFF_NAMES,
    BellDiagonalState,
    BinaryFlaggedState,
    EnsembleAnnihilated,
    FlaggedEnsembleState,
    QuadraticMap,
    binary_quadratic_map,
    binary_step,
    embed,
    generate_map,
    ideal_step,
    step,
)

__version__ = "0.1.0"
