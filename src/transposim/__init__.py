"""Optimal physical approximation of the transpose map from quantum two-designs.

Builds the approximate transpose channel, its measure-and-prepare realizations
from SIC and MUB two-designs, the two-step measurement circuit and a
linear-optics pipeline implementing it, and approximate entanglement witnesses
with exact, locally-decomposed, and shot-sampled evaluation.

The namespace is lazy (PEP 562): `import transposim` loads no submodule, and
the first access to an exported name imports the submodule that defines it.
A CLI start therefore loads only the modules its subcommand runs.
"""

import importlib

# submodule -> the names the package exports from it
_EXPORTS = {
    "channels": (
        "Channel",
        "MeasurePrepare",
        "apply_channel",
        "apply_to_factor",
        "approx_transpose",
        "channel_from_measure_prepare",
        "cj_distance",
        "kraus_ops",
        "measure_prepare_from_design",
        "pointwise_transpose_fidelity",
    ),
    "designs": (
        "Design",
        "Fiducial",
        "builtin_fiducial",
        "fiducial_search",
        "frame_potential",
        "hw_orbit",
        "load_fiducial",
        "mub_prime",
        "orbit_certificate",
        "save_fiducial",
        "sic_from_fiducial",
        "two_design_frame_potential",
    ),
    "errors": (
        "CalibrationError",
        "ConventionMismatch",
        "DomainError",
        "NotPrimeError",
        "NotSICError",
        "NotTracePreserving",
        "ParseError",
        "SearchFailed",
        "ValidationError",
    ),
    "estimator": (
        "EstimatorVerdict",
        "ShotResult",
        "detect_with_confidence",
        "hoeffding_epsilon",
        "sample_overlap",
        "swap_test_probability",
    ),
    "fileio": ("parse_state_file", "save_state"),
    "linalg": (
        "DensityMatrix",
        "Ket",
        "Operator",
        "basis_ket",
        "haar_random_density",
        "haar_random_ket",
        "identity",
        "kron",
        "kron_ket",
        "outer",
        "partial_trace",
        "partial_transpose",
        "permute_subsystems",
        "phase_free_distance",
        "real_trace_product",
        "swap_operator",
    ),
    "optics": (
        "Fig2Pipeline",
        "build_fig2_pipeline",
        "phase_report",
        "run_pipeline",
    ),
    "twostep": (
        "CorrectionSet",
        "TwoStepMeasurement",
        "build_two_step",
        "correction_set",
        "simulate_circuit",
        "verify_corrections",
    ),
    "witness": (
        "ApproxWitness",
        "CutResult",
        "DetectionReport",
        "SeparableDecomposition",
        "Witness",
        "aew",
        "detect",
        "evaluate_tripartite_example",
        "ghz_ket",
        "locc_expectation",
        "multipartite_aew",
        "multipartite_closed_forms",
        "ppt_check",
        "report_to_dict",
        "separable_decomposition_of_transpose_aew",
        "spa_pmin",
        "transpose_witness",
        "tripartite_example_state",
    ),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_SOURCE)
__version__ = "0.1.0"


def __getattr__(name: str):
    try:
        module = _SOURCE[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    # bound here, the next lookup is a plain global and never reaches __getattr__
    globals()[name] = value
    return value


def __dir__() -> list:
    return sorted({*globals(), *__all__})
