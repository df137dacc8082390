import numpy as np
import pytest

from transposim import (
    DensityMatrix,
    DomainError,
    apply_channel,
    approx_transpose,
    build_fig2_pipeline,
    builtin_fiducial,
    cj_distance,
    element_matrix,
    haar_random_density,
    haar_random_ket,
    hw_orbit,
    hwp,
    output_channel,
    path_probabilities,
    pbs,
    phase_free_distance,
    phase_report,
    phase_shifter,
    pointwise_transpose_fidelity,
    ppbs,
    run_pipeline,
)
from transposim.optics import OpticalElement, coupler


def trace_distance(a, b):
    return 0.5 * float(np.abs(np.linalg.eigvalsh(a - b)).sum())


def test_hwp_at_22_5_degrees_is_fourier():
    h = element_matrix(hwp(np.pi / 8)).mat
    target = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    assert np.abs(h - target).max() < 1e-12


def test_hwp_involution():
    h = element_matrix(hwp(np.pi / 8)).mat
    assert np.abs(h @ h - np.eye(2)).max() < 1e-12


def test_hwp_at_zero():
    h = element_matrix(hwp(0.0)).mat
    assert np.abs(h - np.diag([1.0, -1.0])).max() < 1e-12


def test_ppbs_with_published_amplitudes_is_unitary():
    alphas = builtin_fiducial(2).alphas
    e = ppbs(t_v=alphas[0], r_v=alphas[1])
    m = element_matrix(e).mat
    assert np.abs(m.conj().T @ m - np.eye(4)).max() < 1e-12
    assert abs(abs(e.params["t_v"]) ** 2 + abs(e.params["r_v"]) ** 2 - 1.0) < 1e-12
    assert e.params["t_h"] == e.params["r_v"]
    assert e.params["r_h"] == e.params["t_v"]


def test_ppbs_rejects_unnormalized():
    with pytest.raises(DomainError):
        ppbs(t_v=1.0, r_v=1.0)


def test_pbs_routes_polarizations():
    m = element_matrix(pbs()).mat
    # horizontal keeps its path, vertical swaps paths
    assert np.abs(m @ np.eye(4)[:, 0] - np.eye(4)[:, 0]).max() == 0.0  # |0,h>
    assert np.abs(m @ np.eye(4)[:, 1] - np.eye(4)[:, 3]).max() == 0.0  # |0,v> -> |1,v>
    assert np.abs(m.conj().T @ m - np.eye(4)).max() < 1e-12


def test_phase_shifter():
    m = element_matrix(phase_shifter(np.pi / 2)).mat
    assert np.abs(m - np.diag([1.0, 1j])).max() < 1e-12
    assert np.abs(m.conj().T @ m - np.eye(2)).max() < 1e-12


def test_coupler_has_no_matrix():
    with pytest.raises(DomainError):
        element_matrix(coupler())


def test_unknown_element_kind():
    with pytest.raises(DomainError):
        element_matrix(OpticalElement("LENS", (0,), None))


def test_pipeline_path_probabilities_match_projectors():
    f = builtin_fiducial(2)
    pipe = build_fig2_pipeline(f)
    orbit = hw_orbit(f)
    for i in range(30):
        rho = haar_random_density(2, 7000 + i)
        probs = path_probabilities(pipe, rho)
        want = np.array([np.real(s.conj() @ rho.mat @ s) / 2 for s in orbit])
        assert np.abs(probs - want).max() < 1e-12
        assert abs(probs.sum() - 1.0) < 1e-12


def test_pipeline_uniform_input():
    pipe = build_fig2_pipeline(builtin_fiducial(2))
    probs = path_probabilities(pipe, DensityMatrix(np.eye(2) / 2))
    assert np.abs(probs - 0.25).max() < 1e-12


def test_path_states_before_correction_are_orbit_states():
    f = builtin_fiducial(2)
    pipe = build_fig2_pipeline(f)
    orbit = hw_orbit(f)
    for k, s in zip(pipe.analyzer_states, orbit):
        assert phase_free_distance(k.vec, s) < 1e-10


def test_prepared_states_are_conjugates():
    f = builtin_fiducial(2)
    pipe = build_fig2_pipeline(f)
    orbit = hw_orbit(f)
    for k, s in zip(pipe.prepared_stack, orbit):
        assert phase_free_distance(k, s.conj()) < 1e-10


def test_coupler_output_is_the_prepared_mixture():
    f = builtin_fiducial(2)
    pipe = build_fig2_pipeline(f)
    rho = haar_random_density(2, 42)
    probs, out = run_pipeline(pipe, rho)
    manual = sum(
        p * np.outer(k, k.conj()) for p, k in zip(probs, pipe.prepared_stack)
    )
    assert np.abs(out.mat - manual).max() == 0.0


def test_output_channel_equals_approx_transpose():
    pipe = build_fig2_pipeline(builtin_fiducial(2))
    assert cj_distance(output_channel(pipe), approx_transpose(2)) < 1e-10


def test_output_states_match_on_haar_inputs():
    pipe = build_fig2_pipeline(builtin_fiducial(2))
    ch = approx_transpose(2)
    for i in range(100):
        rho = haar_random_density(2, 8000 + i)
        _, out = run_pipeline(pipe, rho)
        want = apply_channel(ch, rho)
        assert trace_distance(out.mat, want.mat) < 1e-10


def test_basis_input_gives_expected_output():
    pipe = build_fig2_pipeline(builtin_fiducial(2))
    _, out = run_pipeline(pipe, DensityMatrix(np.diag([1.0, 0.0])))
    assert np.abs(out.mat - np.diag([2 / 3, 1 / 3])).max() < 1e-10


def test_fidelity_two_thirds():
    ch = output_channel(build_fig2_pipeline(builtin_fiducial(2)))
    for i in range(20):
        f = pointwise_transpose_fidelity(ch, haar_random_ket(2, 300 + i))
        assert abs(f - 2 / 3) < 1e-12


def test_solved_phases_are_half_pi():
    pipe = build_fig2_pipeline(builtin_fiducial(2))
    rep = phase_report(pipe)
    values = sorted(rep["solved_phases"].values())
    assert np.abs(np.array(values) - np.array([-np.pi / 2, -np.pi / 2, np.pi / 2, np.pi / 2])).max() < 1e-9
    assert abs(rep["nominal_shift"] + np.pi / 4) < 1e-15
    assert rep["matches_nominal"] is False


def test_pipeline_rejects_non_qubit():
    with pytest.raises(DomainError):
        build_fig2_pipeline(builtin_fiducial(3))
