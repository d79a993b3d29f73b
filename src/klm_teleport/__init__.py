"""Linear-optical teleportation with tunable entangled resources.

Simulates the n-photon teleportation protocol (sparse Fock states, mode
Fourier transforms applied by creation-operator expansion, with permanents
kept as the tests' reference), its probabilistic amplitude correction, the
polarization-encoded variant with its optical correction circuit, and
optimization of the resource coefficients for success probability or
Haar-averaged fidelity.  Every analytic formula ships with an independent
cross-check: a full interferometer simulation, a brute-force sum, or a Monte
Carlo estimate.
"""

from .correction import (
    ExtremaClassification,
    KrausPair,
    PlateauError,
    adjacent_minima_sum,
    classify_sequence,
    extrema_formula,
    kraus_for,
    p_success_given_m,
)
from .fock import (
    MeasurementOutcome,
    PureState,
    QubitAmplitudes,
    measure_photon_counts,
    tensor,
)
from .optics import (
    ModeUnitary,
    apply,
    fourier_unitary,
    permanent,
    transition_amplitude,
)
from .optimize import (
    AvgFidelityEstimate,
    FailureConvention,
    OptimalityCertificate,
    OptimizationReport,
    SimplexPoint,
    average_fidelity_for_qubit,
    avg_fidelity_closed_form,
    certify_klm_bound,
    maximize,
    objective_avg_fidelity,
    optimal_avg_fidelity,
    optimal_fidelity_profile,
)
from .polarization import (
    HORIZONTAL,
    VERTICAL,
    CircuitResult,
    PolarizedPhotonState,
    RotatedPBS,
    correction_circuit,
    dual_rail,
    run_oracle_polarization,
    slot_index,
    teleported_state,
)
from .teleport import (
    OracleMismatchError,
    PatternRecord,
    ResourceCoefficients,
    TeleportOutcome,
    build_resource_state,
    derive_phase_correction,
    load_coefficients,
    oracle_deviation,
    run_analytic,
    run_oracle,
)

__version__ = "0.1.0"

__all__ = [
    "HORIZONTAL",
    "VERTICAL",
    "AvgFidelityEstimate",
    "CircuitResult",
    "ExtremaClassification",
    "FailureConvention",
    "KrausPair",
    "MeasurementOutcome",
    "ModeUnitary",
    "OptimalityCertificate",
    "OptimizationReport",
    "OracleMismatchError",
    "PatternRecord",
    "PlateauError",
    "PolarizedPhotonState",
    "PureState",
    "QubitAmplitudes",
    "ResourceCoefficients",
    "RotatedPBS",
    "SimplexPoint",
    "TeleportOutcome",
    "adjacent_minima_sum",
    "apply",
    "average_fidelity_for_qubit",
    "avg_fidelity_closed_form",
    "build_resource_state",
    "certify_klm_bound",
    "classify_sequence",
    "correction_circuit",
    "derive_phase_correction",
    "dual_rail",
    "extrema_formula",
    "fourier_unitary",
    "kraus_for",
    "load_coefficients",
    "maximize",
    "measure_photon_counts",
    "objective_avg_fidelity",
    "optimal_avg_fidelity",
    "optimal_fidelity_profile",
    "oracle_deviation",
    "p_success_given_m",
    "permanent",
    "run_analytic",
    "run_oracle",
    "run_oracle_polarization",
    "slot_index",
    "teleported_state",
    "tensor",
    "transition_amplitude",
]
