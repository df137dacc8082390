import numpy as np
import pytest

from transposim import (
    DensityMatrix,
    DomainError,
    Ket,
    NotSICError,
    apply_channel,
    approx_transpose,
    build_two_step,
    builtin_fiducial,
    channel_from_measure_prepare,
    cj_distance,
    build_fig2_pipeline,
    correction_set,
    fiducial_search,
    haar_random_density,
    hw_orbit,
    phase_free_distance,
    run_pipeline,
    simulate_circuit,
    verify_corrections,
)
from transposim import designs, optics, twostep
from transposim.designs import Fiducial


def test_first_step_kraus_structure_d2():
    ts = build_two_step(builtin_fiducial(2))
    alphas = builtin_fiducial(2).alphas
    a0 = np.diag(ts.kraus_diagonals[0])
    a1 = np.diag(ts.kraus_diagonals[1])
    assert np.abs(a0 - np.diag(a0.diagonal())).max() == 0.0
    assert np.abs(a1 - np.diag(a1.diagonal())).max() == 0.0
    # amplitude magnitudes sit on the plain/shifted diagonals
    assert np.abs(np.abs(a0.diagonal()) - np.abs(alphas)).max() < 1e-12
    assert np.abs(np.abs(a1.diagonal()) - np.abs(alphas[::-1])).max() < 1e-12


def test_second_step_is_fourier_basis_d2():
    ts = build_two_step(builtin_fiducial(2))
    plus = np.array([1.0, 1.0]) / np.sqrt(2)
    minus = np.array([1.0, -1.0]) / np.sqrt(2)
    assert np.abs(ts.fourier_effects[0] - np.outer(plus, plus)).max() < 1e-12
    assert np.abs(ts.fourier_effects[1] - np.outer(minus, minus)).max() < 1e-12


@pytest.mark.parametrize("d", [2, 3, 4])
def test_assembled_effects_match_orbit_projectors(d):
    f = builtin_fiducial(d) if d in (2, 3) else fiducial_search(d, seed=11)
    ts = build_two_step(f)
    orbit = hw_orbit(f)
    for idx in range(d * d):
        target = np.outer(orbit[idx], orbit[idx].conj()) / d
        assert np.abs(ts.effect_stack[idx] - target).max() < 1e-10


@pytest.mark.parametrize("d", [2, 3])
def test_exact_decomposition_and_completeness(d):
    ts = build_two_step(builtin_fiducial(d))
    kraus = [np.diag(a) for a in ts.kraus_diagonals]
    for k in range(d):
        for l in range(d):
            prod = kraus[k].conj().T @ ts.fourier_effects[l] @ kraus[k]
            assert np.linalg.norm(ts.effect_stack[k * d + l] - prod) < 1e-10
    total = sum(ts.effect_stack)
    assert np.linalg.norm(total - np.eye(d)) < 1e-10
    kraus_total = sum(a.conj().T @ a for a in kraus)
    assert np.abs(kraus_total - np.eye(d)).max() < 1e-10


def test_convention_resolution_is_recorded():
    assert "conjugated" in build_two_step(builtin_fiducial(2)).convention
    assert "plain" in build_two_step(builtin_fiducial(3)).convention


def test_build_rejects_non_sic_fiducial():
    with pytest.raises(NotSICError):
        build_two_step(Fiducial(2, Ket([1.0, 0.0])))


def test_phi_for_qubit_fiducial():
    cs = correction_set(builtin_fiducial(2))
    # alpha_1 = e^{i pi/4} |alpha_1|, so conj(alpha_1)/alpha_1 = e^{-i pi/2}
    assert np.abs(cs.phi.mat - np.diag([1.0, np.exp(-1j * np.pi / 2)])).max() < 1e-12
    assert not cs.partial_isometry


def test_corrections_are_unitary_for_nonvanishing_amplitudes():
    cs = correction_set(builtin_fiducial(2))
    for u in cs.unitaries:
        assert np.abs(u.mat @ u.mat.conj().T - np.eye(2)).max() < 1e-10


def test_qubit_corrections_ignore_the_clock_power():
    # Z^{-2l} is the identity at d = 2, so U_{k,l} depends on k only
    cs = correction_set(builtin_fiducial(2))
    assert np.abs(cs.unitaries[0].mat - cs.unitaries[1].mat).max() < 1e-12
    assert np.abs(cs.unitaries[2].mat - cs.unitaries[3].mat).max() < 1e-12


def test_qutrit_corrections_are_partial_isometries():
    cs = correction_set(builtin_fiducial(3))
    assert cs.partial_isometry
    assert np.abs(cs.phi.mat.diagonal() - np.array([0.0, 1.0, 1.0])).max() < 1e-12


@pytest.mark.parametrize("build", [hw_orbit, correction_set])
def test_weyl_actions_refuse_dimension_one(build):
    with pytest.raises(DomainError, match="dimension >= 2"):
        build(Fiducial(1, Ket([1.0])))


@pytest.mark.parametrize("d", [2, 3])
def test_conjugation_condition(d):
    assert verify_corrections(builtin_fiducial(d)) < 1e-10


@pytest.mark.parametrize("d", [2, 3])
def test_correction_maps_each_orbit_state(d):
    f = builtin_fiducial(d)
    cs = correction_set(f)
    orbit = hw_orbit(f)
    for u, s in zip(cs.unitaries, orbit):
        assert phase_free_distance(u.mat @ s, s.conj()) < 1e-10


def test_simulate_maximally_mixed():
    probs, out = simulate_circuit(builtin_fiducial(2), DensityMatrix(np.eye(2) / 2))
    assert np.abs(probs - 0.25).max() < 1e-12
    assert np.abs(out.mat - np.eye(2) / 2).max() < 1e-12


def test_simulate_basis_state():
    _, out = simulate_circuit(builtin_fiducial(2), DensityMatrix(np.diag([1.0, 0.0])))
    assert np.abs(out.mat - np.diag([2 / 3, 1 / 3])).max() < 1e-10


def test_simulate_matches_channel_on_haar_states():
    f = builtin_fiducial(2)
    ch = approx_transpose(2)
    for i in range(100):
        rho = haar_random_density(2, 4000 + i)
        probs, out = simulate_circuit(f, rho)
        assert abs(probs.sum() - 1.0) < 1e-12
        assert abs(np.trace(out.mat).real - 1.0) < 1e-12
        want = apply_channel(ch, rho)
        assert np.abs(out.mat - want.mat).max() < 1e-10


@pytest.mark.parametrize(
    "run",
    [simulate_circuit, lambda f, rho: run_pipeline(build_fig2_pipeline(f), rho)],
    ids=["simulate_circuit", "run_pipeline"],
)
def test_simulate_dimension_guard(run):
    # both go through the one measure-and-prepare kernel and its one state check
    with pytest.raises(DomainError, match="state dimension 3 does not match"):
        run(builtin_fiducial(2), DensityMatrix(np.eye(3) / 3))


@pytest.mark.parametrize("d", [2, 3])
def test_circuit_channel_equals_approx_transpose(d):
    ts = build_two_step(builtin_fiducial(d))
    assert cj_distance(channel_from_measure_prepare(ts), approx_transpose(d)) < 1e-10


@pytest.mark.parametrize(
    "run",
    [
        lambda f: simulate_circuit(f, DensityMatrix(np.eye(2) / 2)),
        lambda f: channel_from_measure_prepare(build_two_step(f)),
        build_fig2_pipeline,
    ],
    ids=["simulate_circuit", "channel_from_measure_prepare", "build_fig2_pipeline"],
)
def test_each_realization_computes_the_orbit_once(monkeypatch, run):
    calls = []
    original = designs.hw_orbit

    def counting(f):
        calls.append(f)
        return original(f)

    for module in (designs, twostep, optics):
        monkeypatch.setattr(module, "hw_orbit", counting, raising=False)
    run(builtin_fiducial(2))
    assert len(calls) == 1


def test_searched_complex_fiducial_uses_the_conjugated_convention():
    ts = build_two_step(fiducial_search(4, seed=11))
    assert ts.convention == "amplitudes=conjugated, l_sign=+1, k_sign=+1"
    assert not ts.preparation_stack.flags.writeable
