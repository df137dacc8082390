import dataclasses

import numpy as np
import pytest

from transposim import (
    CalibrationError,
    DensityMatrix,
    DomainError,
    apply_channel,
    approx_transpose,
    build_fig2_pipeline,
    builtin_fiducial,
    channel_from_measure_prepare,
    cj_distance,
    haar_random_density,
    haar_random_ket,
    hw_orbit,
    phase_free_distance,
    phase_report,
    pointwise_transpose_fidelity,
    run_pipeline,
    save_state,
)
from transposim import optics
from transposim.cli import main


def trace_distance(a, b):
    return 0.5 * float(np.abs(np.linalg.eigvalsh(a - b)).sum())


def test_pipeline_path_probabilities_match_projectors():
    f = builtin_fiducial(2)
    pipe = build_fig2_pipeline(f)
    orbit = hw_orbit(f)
    for i in range(30):
        rho = haar_random_density(2, 7000 + i)
        probs = run_pipeline(pipe, rho)[0]
        want = np.array([np.real(s.conj() @ rho.mat @ s) / 2 for s in orbit])
        assert np.abs(probs - want).max() < 1e-12
        assert abs(probs.sum() - 1.0) < 1e-12


def test_pipeline_uniform_input():
    pipe = build_fig2_pipeline(builtin_fiducial(2))
    probs = run_pipeline(pipe, DensityMatrix(np.eye(2) / 2))[0]
    assert np.abs(probs - 0.25).max() < 1e-12


def test_path_states_before_correction_are_orbit_states():
    # the state on path p before its phase shifter is the one its effect projects on
    f = builtin_fiducial(2)
    pipe = build_fig2_pipeline(f)
    orbit = hw_orbit(f)
    for effect, s in zip(pipe.effect_stack, orbit):
        vals, vecs = np.linalg.eigh(2 * effect)
        assert np.abs(vals - [0.0, 1.0]).max() < 1e-12
        assert phase_free_distance(vecs[:, 1], s) < 1e-10


def test_prepared_states_are_conjugates():
    f = builtin_fiducial(2)
    pipe = build_fig2_pipeline(f)
    orbit = hw_orbit(f)
    for k, s in zip(pipe.preparation_stack, orbit):
        assert phase_free_distance(k, s.conj()) < 1e-10


def test_coupler_output_is_the_prepared_mixture():
    f = builtin_fiducial(2)
    pipe = build_fig2_pipeline(f)
    rho = haar_random_density(2, 42)
    probs, out = run_pipeline(pipe, rho)
    manual = sum(
        p * np.outer(k, k.conj()) for p, k in zip(probs, pipe.preparation_stack)
    )
    assert np.abs(out.mat - manual).max() == 0.0


def test_pipeline_channel_equals_approx_transpose():
    pipe = build_fig2_pipeline(builtin_fiducial(2))
    assert cj_distance(channel_from_measure_prepare(pipe), approx_transpose(2)) < 1e-10


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
    ch = channel_from_measure_prepare(build_fig2_pipeline(builtin_fiducial(2)))
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


@pytest.mark.parametrize("n, d", [(9, 3), (4, 3), (2, 2), (6, 2)],
                         ids=["qutrit-sic", "four-qutrit-paths", "two-paths", "six-paths"])
def test_a_pipeline_refuses_anything_but_four_qubit_paths(n, d):
    # a hand-built record with qutrit SIC stacks passed as the Fig. 2 scheme
    pipe = build_fig2_pipeline(builtin_fiducial(2))
    effects, preps = np.tile(np.eye(d) / n, (n, 1, 1)), np.tile(np.eye(d)[0], (n, 1))
    with pytest.raises(DomainError, match=r"expected \(4, 2, 2\) with \(4, 2\)"):
        dataclasses.replace(pipe, effect_stack=effects, preparation_stack=preps)


def miscalibrate(monkeypatch):
    """Offset every solved phase by 0.5 rad, so no path state is conjugated."""
    solve = optics._solve_conjugation_phase
    monkeypatch.setattr(optics, "_solve_conjugation_phase", lambda s: solve(s) + 0.5)


def test_a_phase_that_misses_the_conjugate_is_a_calibration_error(monkeypatch):
    miscalibrate(monkeypatch)
    with pytest.raises(CalibrationError, match="path 0: no phase shifter setting"):
        build_fig2_pipeline(builtin_fiducial(2))


def test_cli_apply_on_a_qubit_exits_1_on_a_calibration_miss(monkeypatch, tmp_path, capsys):
    path = tmp_path / "zero.json"
    save_state(DensityMatrix(np.diag([1.0, 0.0])), str(path))
    miscalibrate(monkeypatch)
    assert main(["apply-approx-transpose", "--state", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: path 0: no phase shifter setting")
    assert captured.err.count("\n") == 1
