"""The package namespace: the exported names, and where each one comes from."""

import importlib

import pytest

import transposim

# the names `import transposim` exports, grouped by the submodule defining them
EXPORTED = {
    "channels": [
        "Channel", "MeasurePrepare", "apply_channel", "apply_to_factor", "approx_transpose",
        "channel_from_measure_prepare", "cj_distance", "kraus_ops",
        "measure_prepare_from_design", "pointwise_transpose_fidelity",
    ],
    "designs": [
        "Design", "Fiducial", "builtin_fiducial", "fiducial_search", "frame_potential",
        "hw_orbit", "load_fiducial", "mub_prime", "orbit_certificate",
        "save_fiducial", "sic_from_fiducial", "two_design_frame_potential",
    ],
    "errors": [
        "CalibrationError", "ConventionMismatch", "DomainError", "NotPrimeError", "NotSICError",
        "NotTracePreserving", "ParseError", "SearchFailed", "ValidationError",
    ],
    "estimator": [
        "EstimatorVerdict", "ShotResult", "detect_with_confidence", "hoeffding_epsilon",
        "sample_overlap", "swap_test_probability",
    ],
    "fileio": ["parse_state_file", "save_state"],
    "linalg": [
        "DensityMatrix", "Ket", "Operator", "basis_ket", "haar_random_density",
        "haar_random_ket", "identity", "kron", "kron_ket", "outer", "partial_trace",
        "partial_transpose", "permute_subsystems", "phase_free_distance", "real_trace_product",
        "swap_operator",
    ],
    "optics": [
        "Fig2Pipeline", "build_fig2_pipeline", "phase_report", "run_pipeline",
    ],
    "twostep": [
        "CorrectionSet", "TwoStepMeasurement", "build_two_step", "correction_set",
        "simulate_circuit", "verify_corrections",
    ],
    "witness": [
        "ApproxWitness", "CutResult", "DetectionReport", "SeparableDecomposition", "Witness",
        "aew", "detect", "evaluate_tripartite_example", "ghz_ket", "locc_expectation",
        "multipartite_aew", "multipartite_closed_forms", "ppt_check", "report_to_dict",
        "separable_decomposition_of_transpose_aew", "spa_pmin", "transpose_witness",
        "tripartite_example_state",
    ],
}
ALL_NAMES = [name for names in EXPORTED.values() for name in names]


def test_all_lists_exactly_the_exported_names():
    assert transposim.__all__ == ALL_NAMES


@pytest.mark.parametrize("module", sorted(EXPORTED))
def test_each_name_is_its_submodules_object(module):
    mod = importlib.import_module(f"transposim.{module}")
    for name in EXPORTED[module]:
        assert getattr(transposim, name) is getattr(mod, name), name


def test_star_import_binds_every_name():
    ns = {}
    exec("from transposim import *", ns)
    assert set(ALL_NAMES) <= set(ns)
    for name in ALL_NAMES:
        assert ns[name] is getattr(transposim, name), name


def test_dir_lists_every_name():
    assert set(ALL_NAMES) <= set(dir(transposim))
    assert "__version__" in dir(transposim)


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        getattr(transposim, "no_such_name")
    assert not hasattr(transposim, "no_such_name")
