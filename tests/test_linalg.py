import numpy as np
import pytest

from transposim import (
    Channel,
    DensityMatrix,
    DomainError,
    Ket,
    Operator,
    Witness,
    basis_ket,
    haar_random_density,
    haar_random_ket,
    identity,
    kron,
    kron_ket,
    outer,
    partial_trace,
    partial_transpose,
    permute_subsystems,
    phase_free_distance,
    swap_operator,
)
from transposim.errors import ValidationError
from transposim.linalg import PSD_TOL, _check_hermitian, _psd_violation


def random_hermitian(d, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return Operator((a + a.conj().T) / 2, None)


def test_kron_identity():
    assert np.array_equal(kron(identity((2,)), identity((2,))).mat, np.eye(4))


def test_kron_basis_projectors():
    p = kron(outer(basis_ket(2, 0)), outer(basis_ket(2, 1)))
    assert np.array_equal(p.mat, np.diag([0.0, 1.0, 0.0, 0.0]))


def test_kron_dims_law():
    a = Operator(np.eye(2), (2,))
    b = Operator(np.eye(3), (3,))
    out = kron(a, b)
    assert out.dims == (2, 3)
    assert out.dim == 6


def test_kron_associativity():
    a, b, c = (random_hermitian(2, s) for s in (0, 1, 2))
    left = kron(kron(a, b), c)
    right = kron(a, kron(b, c))
    assert np.abs(left.mat - right.mat).max() < 1e-14


def test_partial_trace_maximally_entangled():
    phi = (kron_ket(basis_ket(2, 0), basis_ket(2, 0)).vec
           + kron_ket(basis_ket(2, 1), basis_ket(2, 1)).vec) / np.sqrt(2)
    red = partial_trace(Operator(np.outer(phi, phi.conj()), (2, 2)), keep=[0])
    assert np.abs(red.mat - np.eye(2) / 2).max() < 1e-14


def test_partial_trace_product_law():
    a = random_hermitian(2, 3)
    b = random_hermitian(3, 4)
    got = partial_trace(kron(a, b), keep=[1])
    assert np.abs(got.mat - np.trace(a.mat) * b.mat).max() < 1e-12
    got = partial_trace(kron(a, b), keep=[0])
    assert np.abs(got.mat - np.trace(b.mat) * a.mat).max() < 1e-12


def test_partial_trace_of_symmetric_cj_state():
    # direct 4x4 arithmetic oracle: block-diagonal sums of (I + V)/6
    m = (np.eye(4) + swap_operator(2).mat) / 6
    oracle = np.array(
        [[m[0, 0] + m[1, 1], m[0, 2] + m[1, 3]], [m[2, 0] + m[3, 1], m[2, 2] + m[3, 3]]]
    )
    assert np.abs(oracle - np.eye(2) / 2).max() < 1e-15
    got = partial_trace(Operator(m, (2, 2)), keep=[0])
    assert np.abs(got.mat - oracle).max() < 1e-15


def test_partial_trace_preserves_trace():
    m = random_hermitian(12, 5)
    m = Operator(m.mat, (2, 3, 2))
    for keep in ([0], [1], [2], [0, 2]):
        red = partial_trace(m, keep)
        assert abs(np.trace(red.mat) - np.trace(m.mat)) < 1e-12


def test_partial_trace_bad_index():
    m = Operator(np.eye(4), (2, 2))
    with pytest.raises(IndexError):
        partial_trace(m, keep=[2])
    with pytest.raises(IndexError):
        partial_trace(m, keep=[])


def test_partial_transpose_matrix_unit():
    m = np.zeros((4, 4), dtype=complex)
    m[1, 2] = 1.0  # |01><10|
    got = partial_transpose(Operator(m, (2, 2)), 0)
    want = np.zeros((4, 4), dtype=complex)
    want[3, 0] = 1.0  # |11><00|
    assert np.array_equal(got.mat, want)


def test_partial_transpose_singlet_spectrum():
    v = np.zeros(4, dtype=complex)
    v[1], v[2] = 1 / np.sqrt(2), -1 / np.sqrt(2)
    pt = partial_transpose(Operator(np.outer(v, v.conj()), (2, 2)), 0)
    eigs = np.linalg.eigvalsh(pt.mat)
    assert abs(eigs[0] + 0.5) < 1e-12


def test_partial_transpose_involution():
    m = random_hermitian(6, 6)
    m = Operator(m.mat, (2, 3))
    back = partial_transpose(partial_transpose(m, 1), 1)
    assert np.array_equal(back.mat, m.mat)


def test_partial_transpose_bad_index():
    with pytest.raises(IndexError):
        partial_transpose(Operator(np.eye(4), (2, 2)), 5)


def test_partial_transpose_of_a_factor_set_matches_single_factor_calls():
    m = Operator(random_hermitian(12, 8).mat, (2, 3, 2))
    sequential = partial_transpose(partial_transpose(m, 0), 2).mat
    for subs in ([0, 2], (2, 0), np.array([0, 2])):
        got = partial_transpose(m, subs)
        assert got.dims == m.dims
        assert got.mat.tobytes() == sequential.tobytes()
    full = partial_transpose(m, [0, 1, 2]).mat
    assert full.tobytes() == m.mat.T.copy().tobytes()


def test_partial_transpose_returns_a_frozen_copy():
    m = Operator(random_hermitian(4, 9).mat, (2, 2))
    before = m.mat.copy()
    pt = partial_transpose(m, 1)
    with pytest.raises(ValueError):
        pt.mat[0, 0] = 2.0
    assert not np.shares_memory(pt.mat, m.mat)
    assert np.array_equal(m.mat, before)


@pytest.mark.parametrize("sub", [np.int64(1), np.int32(1), [np.int8(1)], np.array([1])])
def test_subsystem_indices_accept_numpy_integers(sub):
    m = Operator(random_hermitian(6, 10).mat, (2, 3))
    assert np.array_equal(partial_transpose(m, sub).mat, partial_transpose(m, 1).mat)
    assert np.array_equal(partial_trace(m, sub).mat, partial_trace(m, [1]).mat)


@pytest.mark.parametrize(
    "sub", [True, False, [True], np.bool_(True), 0.5, 1.0, [0, 1.0], np.float64(0.0), "0", None]
)
def test_subsystem_indices_refuse_bools_and_non_integers(sub):
    # int() would have read 0.5 as party 0 and True as party 1
    m = Operator(np.eye(4), (2, 2))
    with pytest.raises(DomainError):
        partial_transpose(m, sub)
    with pytest.raises(DomainError):
        partial_trace(m, sub)


@pytest.mark.parametrize("sub", [[0, 0], (1, 1), [0, 1, 0], [np.int64(0), 0]])
def test_partial_transpose_refuses_a_repeated_factor(sub):
    # transposing a factor twice would silently undo the transpose
    with pytest.raises(DomainError):
        partial_transpose(Operator(np.eye(4), (2, 2)), sub)


def test_partial_trace_still_deduplicates_its_keep_list():
    m = Operator(random_hermitian(6, 11).mat, (2, 3))
    assert np.array_equal(partial_trace(m, [1, 1]).mat, partial_trace(m, [1]).mat)


@pytest.mark.parametrize("sub", [-1, 2, [0, 2], [], ()])
def test_out_of_range_and_empty_subsystems_raise_index_error(sub):
    m = Operator(np.eye(4), (2, 2))
    with pytest.raises(IndexError):
        partial_transpose(m, sub)
    with pytest.raises(IndexError):
        partial_trace(m, sub)


def test_permute_subsystems_roundtrip():
    m = random_hermitian(8, 7)
    m = Operator(m.mat, (2, 2, 2))
    swapped = permute_subsystems(m, [0, 2, 1])
    assert np.abs(permute_subsystems(swapped, [0, 2, 1]).mat - m.mat).max() == 0.0
    assert np.array_equal(permute_subsystems(m, np.array([0, 2, 1])).mat, swapped.mat)


@pytest.mark.parametrize("perm", [[0, 1.5, 2], [0, 2, 1.0], [True, 0, 2], [0, 2, np.float64(1.0)]])
def test_permute_subsystems_refuses_non_integer_entries(perm):
    # int() would have read 1.5 as 1 and True as 1, and accepted a permutation
    with pytest.raises(DomainError):
        permute_subsystems(Operator(np.eye(8), (2, 2, 2)), perm)


@pytest.mark.parametrize("perm", [[0, 1], [0, 1, 1], [0, 1, 3], [-1, 0, 1]])
def test_permute_subsystems_refuses_a_non_permutation(perm):
    with pytest.raises(IndexError):
        permute_subsystems(Operator(np.eye(8), (2, 2, 2)), perm)


def test_eig_identity():
    vals = np.linalg.eigvalsh(identity((2, 2)).mat)
    assert np.abs(vals - 1.0).max() < 1e-14


def test_eig_swap_spectrum():
    # symmetric subspace has dimension 3, antisymmetric 1
    vals = np.linalg.eigvalsh(swap_operator(2).mat)
    assert np.abs(np.sort(vals) - np.array([-1.0, 1.0, 1.0, 1.0])).max() < 1e-12


def test_eig_sigma_x():
    vals = np.linalg.eigvalsh(Operator([[0, 1], [1, 0]]).mat)
    assert np.abs(vals - np.array([-1.0, 1.0])).max() < 1e-14


def test_eig_rejects_non_hermitian():
    with pytest.raises(DomainError):
        _check_hermitian(Operator([[0, 1], [0, 0]]).mat)


def test_haar_ket_norm_and_determinism():
    for seed in (0, 1, 17):
        k = haar_random_ket(5, seed)
        assert abs(k.norm() - 1.0) < 1e-12
        again = haar_random_ket(5, seed)
        assert np.array_equal(k.vec, again.vec)


def test_haar_ket_zero_dim():
    with pytest.raises(DomainError):
        haar_random_ket(0, 0)


def test_haar_first_component_moment():
    # |<0|psi>|^2 is Beta(1, d-1) under the Haar measure: mean 1/4, var 3/80 at d=4
    n = 10_000
    vals = np.array([abs(haar_random_ket(4, seed).vec[0]) ** 2 for seed in range(n)])
    se = np.sqrt(3 / 80 / n)
    assert abs(vals.mean() - 0.25) < 5 * se


def test_haar_density_is_valid_state():
    rho = haar_random_density(4, 3, dims=(2, 2))
    # a state is an Operator itself, not a wrapper around one
    assert isinstance(rho, Operator) and not hasattr(rho, "op")
    assert rho.dims == (2, 2)
    assert abs(np.trace(rho.mat) - 1.0) < 1e-12
    assert np.linalg.eigvalsh(rho.mat)[0] > -1e-12


def test_phase_free_distance_zero_iff_phase_related():
    k = haar_random_ket(4, 9)
    rotated = Ket(np.exp(1j * 0.7) * k.vec)
    assert phase_free_distance(k, rotated) < 1e-15
    other = haar_random_ket(4, 10)
    assert phase_free_distance(k, other) > 1e-2
    # the naive sqrt(2 - 2|ip|) formula would floor out near 1e-8 here
    assert phase_free_distance(k, k) < 1e-15


def test_density_matrix_validation():
    with pytest.raises(DomainError):
        DensityMatrix(np.diag([0.9, 0.2]))  # trace 1.1
    with pytest.raises(DomainError):
        DensityMatrix(np.array([[0.5, 0.3], [0.1, 0.5]]))  # not Hermitian
    with pytest.raises(DomainError):
        DensityMatrix(np.diag([1.5, -0.5]))  # negative eigenvalue


def hermitian_and_trace_rule(m):
    """Reference for the first two state checks: (check, residual) of the first failure."""
    herm = float(np.abs(m - m.conj().T).max())
    if herm > 1e-10:
        return "hermitian", herm
    tr = abs(complex(np.trace(m)) - 1.0)
    return ("trace", tr) if tr > 1e-10 else None


@pytest.mark.parametrize("seed", range(8))
def test_density_matrix_residuals_match_the_reference_bit_for_bit(seed):
    rng = np.random.default_rng(seed)
    dim = [2, 3, 4, 8, 9, 16, 27, 64][seed]
    rho = seeded_state(dim, 1 + seed % dim, seed)
    skew = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    cases = [rho, rho + 1e-9 * skew, rho + 2e-11 * skew, rho * (1 + 1e-9), rho * (1 + 1e-11)]
    # an anti-Hermitian diagonal inside the Hermitian tolerance moves only Im tr
    cases.append(rho + 4e-11j * np.eye(dim))
    for m in cases:
        expected = hermitian_and_trace_rule(Operator(m).mat)
        if expected is None:
            assert DensityMatrix(m).mat.tobytes() == Operator(m).mat.tobytes()
            continue
        with pytest.raises(ValidationError) as err:
            DensityMatrix(m)
        assert (err.value.check, err.value.residual) == expected


def test_operator_rejects_non_finite():
    with pytest.raises(DomainError):
        Operator(np.array([[np.nan, 0], [0, 1]]))


def test_arrays_are_frozen():
    k = haar_random_ket(3, 0)
    with pytest.raises(ValueError):
        k.vec[0] = 0.0
    m = identity((3,))
    with pytest.raises(ValueError):
        m.mat[0, 0] = 2.0


def eigvalsh_rule(m):
    """Reference PSD rule: -lambda_min of the Hermitian part if below -PSD_TOL * max|lambda|."""
    eigs = np.linalg.eigvalsh((m + m.conj().T) / 2)
    floor = -PSD_TOL * max(1e-30, float(np.abs(eigs).max()))
    return float(-eigs[0]) if eigs[0] < floor else None


def assert_state_check_matches_rule(m):
    assert _psd_violation(m) == eigvalsh_rule(m)
    # a DensityMatrix checks its complex copy, so the rule is applied to that copy
    expected = eigvalsh_rule(Operator(m).mat)
    if expected is None:
        DensityMatrix(m)
    else:
        with pytest.raises(ValidationError) as err:
            DensityMatrix(m)
        assert err.value.check == "psd"
        assert err.value.residual == expected


def seeded_state(dim, rank, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


@pytest.mark.parametrize("dim", [2, 4, 8, 9, 27, 64])
def test_psd_check_accepts_states_of_every_rank_without_an_eigensolve(dim, monkeypatch):
    states = [seeded_state(dim, rank, 100 * dim + rank) for rank in range(1, dim + 1)]
    for rho in states:
        assert_state_check_matches_rule(rho)
    calls = []
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda *a, **k: calls.append(a))
    for rho in states:
        DensityMatrix(rho)
    assert calls == []


@pytest.mark.parametrize("dim", [2, 3, 8, 16, 64])
@pytest.mark.parametrize("field", ["real", "complex"])
@pytest.mark.parametrize("times_floor", [0.5, 0.999, 1.001, 2.0])
def test_psd_check_matches_eigvalsh_at_the_floor(dim, field, times_floor):
    rng = np.random.default_rng(dim)
    g = rng.standard_normal((dim, dim))
    if field == "complex":
        g = g + 1j * rng.standard_normal((dim, dim))
    u, _ = np.linalg.qr(g)
    spectrum = rng.uniform(0.1, 1.0, dim)
    spectrum[0] = times_floor * -PSD_TOL * spectrum.max()
    m = (u * spectrum) @ u.conj().T
    assert_state_check_matches_rule(m / np.trace(m).real)


@pytest.mark.parametrize(
    "m",
    [np.diag([1.0, -PSD_TOL]), np.array([[0.0, 1.0], [1.0, 0.0]]), np.zeros((3, 3))],
    ids=["at-floor", "sigma-x", "zero"],
)
def test_psd_check_matches_eigvalsh_on_edge_matrices(m):
    assert _psd_violation(m) == eigvalsh_rule(m)


def signed_zero_cases():
    """States whose zero entries carry every sign, accepted, near the floor and refused."""
    zeros = [complex(-0.0, -0.0), complex(-0.0, 0.0), complex(0.0, -0.0)]
    blocks = [seeded_state(dim, rank, 7 * dim + rank) for dim in (1, 2, 3) for rank in (1, dim)]
    blocks += [np.diag([1.0, -PSD_TOL * t]) / (1 - PSD_TOL * t) for t in (0.5, 0.999, 1.001, 2.0)]
    blocks += [np.diag([1.5, -0.5]), np.diag([1.0, 0.0])]
    cases = []
    for i, b in enumerate(blocks):
        n = len(b) + 2
        m = np.full((n, n), zeros[i % 3])                 # signed zeros off the block
        m[:2, :2] = np.diag([0.0, 0.0])                   # and a zero block on the diagonal
        m[0, 0], m[1, 1] = complex(-0.0, -0.0), complex(0.0, -0.0)
        m[2:, 2:] = b
        cases.append(m)
    return cases


@pytest.mark.parametrize("m", signed_zero_cases())
def test_signed_zeros_leave_the_state_check_unchanged(m):
    # DensityMatrix halves its Hermitian part with *= 0.5, not /= 2: the two
    # differ only in the sign of exact zeros, so every case is accepted or
    # refused as by the /= 2 form of `_psd_violation`, with the same residual
    mat = Operator(m).mat
    h_div, h_mul = mat + mat.conj().T, mat + mat.conj().T
    h_div /= 2
    h_mul *= 0.5
    assert np.array_equal(h_div, h_mul)
    expected = _psd_violation(mat)
    if expected is None:
        DensityMatrix(m)
    else:
        with pytest.raises(ValidationError) as err:
            DensityMatrix(m)
        assert (err.value.check, err.value.residual) == ("psd", expected)


# each record with factor dims, as a function of the dims, on a valid 4-dimensional input
DIMS_RECORDS = {
    "Ket": lambda dims: Ket(np.ones(4) / 2, dims=dims),
    "Operator": lambda dims: Operator(np.eye(4), dims=dims),
    "DensityMatrix": lambda dims: DensityMatrix(np.eye(4) / 4, dims=dims),
    "Witness": lambda dims: Witness(swap_operator(2).mat / 2, dims=dims),
    "Channel": lambda dims: Channel(np.eye(4) / 4, dims),
    "identity": identity,
}


@pytest.mark.parametrize("record", DIMS_RECORDS)
@pytest.mark.parametrize(
    "dims", [(2.5, 2), (2.9, 2), (2.0, 2), (np.float64(2.0), 2), (True, 4), (2, np.True_)],
    ids=str,
)
def test_factor_dims_follow_the_integer_rule(record, dims):
    # int() read (2.5, 2) and (2.9, 2) as (2, 2) and (True, 4) as (1, 4)
    with pytest.raises(DomainError, match="factor dimension must be an integer"):
        DIMS_RECORDS[record](dims)


@pytest.mark.parametrize("record", DIMS_RECORDS)
def test_numpy_integer_factor_dims_become_ints(record):
    dims = DIMS_RECORDS[record]((np.int64(2), np.int32(2))).dims
    assert dims == (2, 2) and all(type(d) is int for d in dims)
