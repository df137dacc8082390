import numpy as np
import pytest

from transposim import (
    DensityMatrix,
    DomainError,
    NotTracePreserving,
    Operator,
    ParseError,
    apply_channel,
    apply_to_factor,
    approx_transpose,
    basis_ket,
    builtin_fiducial,
    channel_from_cj,
    cj_distance,
    cj_state,
    depolarize_to_identity,
    haar_random_density,
    haar_random_ket,
    kraus_ops,
    load_channel,
    make_design,
    measure_prepare_from_design,
    mub_prime,
    phase_free_distance,
    pointwise_transpose_fidelity,
    save_channel,
    sic_from_fiducial,
    swap_operator,
    transpose_map,
)
from transposim import channels, linalg


def naive_approx_transpose(x: np.ndarray) -> np.ndarray:
    """Independent oracle: (X^T + tr(X) I) / (d + 1)."""
    d = x.shape[0]
    return (x.T + np.trace(x) * np.eye(d)) / (d + 1)


def test_transpose_cj_spectrum():
    eigs = np.linalg.eigvalsh(transpose_map(2).cj.mat)
    assert np.abs(np.sort(eigs) - np.array([-0.5, 0.5, 0.5, 0.5])).max() < 1e-12


def test_transpose_action_on_matrix_unit():
    ch = transpose_map(2)
    unit = np.zeros((2, 2), dtype=complex)
    unit[0, 1] = 1.0
    out = apply_channel(ch, Operator(unit))
    want = np.zeros((2, 2), dtype=complex)
    want[1, 0] = 1.0
    assert np.abs(out.mat - want).max() < 1e-12


def test_transpose_squares_to_identity():
    ch = transpose_map(3)
    rng = np.random.default_rng(0)
    x = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    twice = apply_channel(ch, apply_channel(ch, Operator(x)))
    assert np.abs(twice.mat - x).max() < 1e-12


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_transpose_is_flagged_unphysical(d):
    ch = transpose_map(d)
    assert not ch.cptp
    min_eig = float(np.linalg.eigvalsh(ch.cj.mat)[0])
    assert abs(min_eig + 1.0 / d) < 1e-10


def test_depolarize():
    ch = depolarize_to_identity(2)
    out = apply_channel(ch, DensityMatrix(np.diag([1.0, 0.0])))
    assert np.abs(out.mat - np.eye(2) / 2).max() < 1e-12
    assert np.abs(depolarize_to_identity(3).cj.mat - np.eye(9) / 9).max() < 1e-15
    assert ch.cptp


def test_approx_transpose_on_basis_state():
    out = apply_channel(approx_transpose(2), DensityMatrix(np.diag([1.0, 0.0])))
    # (1/3)|0><0| + (2/3) I/2 = diag(2/3, 1/3)
    assert np.abs(out.mat - np.diag([2 / 3, 1 / 3])).max() < 1e-12


def test_approx_transpose_unitality():
    for d in (2, 3, 4):
        out = apply_channel(approx_transpose(d), DensityMatrix(np.eye(d) / d))
        assert np.abs(out.mat - np.eye(d) / d).max() < 1e-12


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_cj_state_identity(d):
    target = (np.eye(d * d) + swap_operator(d).mat) / (d * (d + 1))
    assert np.linalg.norm(cj_state(approx_transpose(d)).mat - target) < 1e-10


def test_cj_state_of_identity_channel():
    d = 3
    phi = sum(np.kron(basis_ket(d, i).vec, basis_ket(d, i).vec) for i in range(d)) / np.sqrt(d)
    chi = DensityMatrix(np.outer(phi, phi.conj()), dims=(d, d))
    ch = channel_from_cj(chi)
    assert np.abs(cj_state(ch).mat - chi.mat).max() < 1e-12
    rho = haar_random_density(d, 1)
    assert np.abs(apply_channel(ch, rho).mat - rho.mat).max() < 1e-10


def test_cj_state_rejects_unphysical():
    with pytest.raises(DomainError):
        cj_state(transpose_map(2))


def test_channel_from_cj_reproduces_approx_transpose():
    chi = DensityMatrix((np.eye(4) + swap_operator(2).mat) / 6, dims=(2, 2))
    ch = channel_from_cj(chi)
    units = []
    for i in range(2):
        for j in range(2):
            u = np.zeros((2, 2), dtype=complex)
            u[i, j] = 1.0
            units.append(u)
    for u in units:
        got = apply_channel(ch, Operator(u))
        assert np.abs(got.mat - naive_approx_transpose(u)).max() < 1e-10


def test_channel_from_cj_depolarizing():
    ch = channel_from_cj(DensityMatrix(np.eye(4) / 4, dims=(2, 2)))
    assert cj_distance(ch, depolarize_to_identity(2)) < 1e-12


def test_channel_from_cj_marginal_guard():
    bad = DensityMatrix(np.diag([1.0, 0, 0, 0]), dims=(2, 2))
    with pytest.raises(NotTracePreserving):
        channel_from_cj(bad)


def test_channel_from_cj_runs_one_psd_test(monkeypatch):
    chi = cj_state(approx_transpose(3))
    calls, psd_violation = [], linalg._psd_violation

    def counting(m):
        calls.append(m.shape)
        return psd_violation(m)

    monkeypatch.setattr(linalg, "_psd_violation", counting)
    monkeypatch.setattr(channels, "_psd_violation", counting)
    channel_from_cj(chi)
    assert calls == [(9, 9)]


def test_cj_roundtrip_on_action():
    ch = approx_transpose(3)
    back = channel_from_cj(cj_state(ch))
    rng = np.random.default_rng(2)
    for _ in range(5):
        x = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        a = apply_channel(ch, Operator(x))
        b = apply_channel(back, Operator(x))
        assert np.abs(a.mat - b.mat).max() < 1e-10


def test_kraus_view():
    for ch in (approx_transpose(3), depolarize_to_identity(2)):
        ks = kraus_ops(ch)
        d = ch.d_in
        total = sum(k.conj().T @ k for k in ks)
        assert np.abs(total - np.eye(d)).max() < 1e-10
        rebuilt = np.zeros((d * d, d * d), dtype=complex)
        phi = sum(np.kron(basis_ket(d, i).vec, basis_ket(d, i).vec) for i in range(d)) / np.sqrt(d)
        proj = np.outer(phi, phi.conj())
        for k in ks:
            big = np.kron(np.eye(d), k)
            rebuilt += big @ proj @ big.conj().T
        assert np.abs(rebuilt - ch.cj.mat).max() < 1e-10


def test_kraus_rejects_unphysical():
    with pytest.raises(DomainError):
        kraus_ops(transpose_map(2))


@pytest.mark.parametrize("factor", [1.0, True, np.float64(1.0), "1", None, [1]])
def test_apply_to_factor_refuses_a_non_integer_factor(factor):
    # 1.0 ended in a TypeError and True was read as factor 1
    rho = haar_random_density(4, 3, dims=(2, 2))
    with pytest.raises(DomainError):
        apply_to_factor(approx_transpose(2), rho, factor)


@pytest.mark.parametrize("factor", [-1, 2])
def test_apply_to_factor_refuses_an_out_of_range_factor(factor):
    rho = haar_random_density(4, 3, dims=(2, 2))
    with pytest.raises(IndexError):
        apply_to_factor(approx_transpose(2), rho, factor)


def test_apply_to_factor_accepts_a_numpy_integer():
    rho = haar_random_density(4, 3, dims=(2, 2))
    ch = approx_transpose(2)
    assert np.array_equal(apply_to_factor(ch, rho, np.int64(1)).mat, apply_to_factor(ch, rho, 1).mat)


def test_measure_prepare_sic_qubit():
    g = sic_from_fiducial(builtin_fiducial(2))
    mp, ch = measure_prepare_from_design(g)
    for eff, vec in zip(mp.effect_stack, g.vector_stack):
        assert np.abs(eff - np.outer(vec, vec.conj()) / 2).max() < 1e-12
    assert cj_distance(ch, approx_transpose(2)) < 1e-10


def test_measure_prepare_mub_qubit_conjugation_rule():
    g = mub_prime(2)
    mp, ch = measure_prepare_from_design(g)
    for eff in mp.effect_stack:
        assert np.abs(np.trace(eff) - 1 / 3) < 1e-12
    arr, preps = g.vector_stack, mp.preparation_stack
    # conjugation fixes the z and x eigenbases and flips the two y eigenvectors
    for i in (0, 1, 2, 3):
        assert phase_free_distance(preps[i], arr[i]) < 1e-12
    assert phase_free_distance(preps[4], arr[5]) < 1e-12
    assert phase_free_distance(preps[5], arr[4]) < 1e-12
    assert cj_distance(ch, approx_transpose(2)) < 1e-10


def test_measure_prepare_mub_d5():
    _, ch = measure_prepare_from_design(mub_prime(5))
    assert cj_distance(ch, approx_transpose(5)) < 1e-10


def test_measure_prepare_rejects_bad_design():
    basis = make_design(np.eye(2, dtype=complex))
    with pytest.raises(DomainError):
        measure_prepare_from_design(basis)


def test_design_independence():
    _, a = measure_prepare_from_design(sic_from_fiducial(builtin_fiducial(2)))
    _, b = measure_prepare_from_design(mub_prime(2))
    assert cj_distance(a, b) < 1e-9


def test_fidelity_values():
    ch2 = approx_transpose(2)
    for i in range(100):
        f = pointwise_transpose_fidelity(ch2, haar_random_ket(2, i))
        assert abs(f - 2 / 3) < 1e-12
    f4 = pointwise_transpose_fidelity(approx_transpose(4), haar_random_ket(4, 0))
    assert abs(f4 - 2 / 5) < 1e-12
    fdep = pointwise_transpose_fidelity(depolarize_to_identity(2), haar_random_ket(2, 1))
    assert abs(fdep - 1 / 2) < 1e-12


def test_linearity():
    ch = approx_transpose(2)
    rng = np.random.default_rng(3)
    for i in range(10):
        r1 = haar_random_density(2, 100 + i)
        r2 = haar_random_density(2, 200 + i)
        alpha = rng.uniform()
        mix = Operator(alpha * r1.mat + (1 - alpha) * r2.mat)
        lhs = apply_channel(ch, mix).mat
        rhs = alpha * apply_channel(ch, r1).mat + (1 - alpha) * apply_channel(ch, r2).mat
        assert np.abs(lhs - rhs).max() < 1e-10


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_cptp_certificate(d):
    assert approx_transpose(d).cptp


def test_channel_file_roundtrip(tmp_path):
    ch = approx_transpose(3)
    path = tmp_path / "channel.json"
    save_channel(ch, str(path))
    back = load_channel(str(path))
    assert cj_distance(ch, back) == 0.0
    assert back.cptp


def test_channel_file_rejects_malformed(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("[1, 2]")
    with pytest.raises(ParseError):
        load_channel(str(path))
    path.write_text('{"d_in": 2, "d_out": 2, "cj": [[0, 1]]}')
    with pytest.raises(ParseError):
        load_channel(str(path))


@pytest.mark.parametrize("d", [2, 3])
def test_load_channel_names_the_min_eigenvalue_of_a_non_psd_cj(d, tmp_path):
    path = tmp_path / "transpose.json"
    save_channel(transpose_map(d), str(path))
    cj = transpose_map(d).cj.mat
    min_eig = np.linalg.eigvalsh((cj + cj.conj().T) / 2)[0]
    with pytest.raises(DomainError) as err:
        load_channel(str(path))
    assert str(err.value) == f"CJ matrix is not PSD (min eigenvalue {min_eig:.3e})"
    assert f"{min_eig:.3e}".startswith("-")
