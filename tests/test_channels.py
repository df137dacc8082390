import dataclasses
import gc
import weakref

import numpy as np
import pytest

from transposim import (
    Channel,
    Design,
    DensityMatrix,
    DomainError,
    NotTracePreserving,
    Operator,
    MeasurePrepare,
    ValidationError,
    apply_channel,
    apply_to_factor,
    approx_transpose,
    basis_ket,
    build_fig2_pipeline,
    build_two_step,
    builtin_fiducial,
    channel_from_measure_prepare,
    cj_distance,
    haar_random_density,
    haar_random_ket,
    kraus_ops,
    measure_prepare_from_design,
    mub_prime,
    phase_free_distance,
    pointwise_transpose_fidelity,
    run_pipeline,
    sic_from_fiducial,
    simulate_circuit,
    swap_operator,
)
from transposim import channels, linalg
from test_kernels import count_constructions


def naive_approx_transpose(x: np.ndarray) -> np.ndarray:
    """Independent oracle: (X^T + tr(X) I) / (d + 1)."""
    d = x.shape[0]
    return (x.T + np.trace(x) * np.eye(d)) / (d + 1)


def depolarizing(d):
    """The channel sending every state to identity/d, built from its CJ matrix identity/d^2."""
    return Channel(np.eye(d * d) / (d * d), (d, d))


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_the_transpose_cj_is_refused_as_not_psd(d):
    # the transpose's CJ matrix V/d has the eigenvalue -1/d on the antisymmetric subspace;
    # at d = 2 three Kraus operators with sum K^dag K off the identity by 0.5 were accepted
    # the one state check names it: psd, with residual -lambda_min = 1/d
    with pytest.raises(ValidationError) as err:
        Channel(swap_operator(d).mat / d, (d, d))
    assert err.value.check == "psd"
    assert err.value.residual == pytest.approx(1 / d, rel=1e-12)


def test_a_non_hermitian_cj_is_refused():
    # its Hermitian part is the approximate transpose's CJ matrix, PSD and trace
    # preserving, so it was accepted: kraus_ops described only that part, and
    # apply_channel failed on its output's state check
    z = np.diag([1.0, -1.0])
    cj = (np.eye(4) + swap_operator(2).mat) / 6 + 0.05j * np.kron(z, z)
    with pytest.raises(ValidationError) as err:
        Channel(cj, (2, 2))
    assert err.value.check == "hermitian"
    assert err.value.residual == pytest.approx(0.1)


def test_a_non_trace_preserving_cj_is_refused():
    # PSD, but its trace over the output factor is diag(1, 0), not identity/2:
    # the residual is d_in ||diag(1/2, -1/2)||_F = sqrt(2)
    with pytest.raises(NotTracePreserving) as err:
        Channel(np.diag([1.0, 0, 0, 0]), (2, 2))
    assert err.value.residual == pytest.approx(np.sqrt(2), abs=1e-15)


def test_a_cj_off_in_trace_by_its_whole_marginal_is_refused():
    # each entry of the marginal misses identity/8 by only CJ_TOL = 1e-10, and
    # the channel was accepted; its output on |+><+| had |tr - 1| = 6.4e-9,
    # which DensityMatrix refuses as `trace`.  The CJ state's own trace is off
    # by tr(Delta) = 8e-10, so the state check refuses it before the marginal
    # (whose residual d_in ||Delta||_F, with Delta = 1e-10 J, is 6.4e-9)
    d = 8
    chi = (np.eye(d * d) + swap_operator(d).mat) / (d * (d + 1))
    chi = chi + 1e-10 / d * np.kron(np.ones((d, d)), np.eye(d))
    with pytest.raises(ValidationError) as err:
        Channel(chi, (d, d))
    assert err.value.check == "trace"
    assert err.value.residual == pytest.approx(8e-10, rel=1e-5)


@pytest.mark.parametrize(
    "d_in, d_out, size",
    [(2, 2, 3), (2, 3, 4), (0, 4, 4), (-2, -2, 4), (2.0, 2, 4), (True, 4, 4)],
    ids=["odd-size", "size-mismatch", "zero", "negative", "float", "bool"],
)
def test_a_channel_refuses_dimensions_that_do_not_fit_its_cj(d_in, d_out, size):
    with pytest.raises(DomainError):
        Channel(np.eye(size) / size, (d_in, d_out))


@pytest.mark.parametrize("dims", [(4,), (2, 2, 1), (1, 2, 2)], ids=str)
def test_a_channel_is_a_cj_state_of_exactly_two_factors(dims):
    # Channel(2, 2, Operator(cj, (4,))) was accepted, holding cj.dims == (4,)
    with pytest.raises(DomainError, match=r"\(d_in, d_out\)"):
        Channel(approx_transpose(2).mat, dims)


@pytest.mark.parametrize("d", range(2, 9))
def test_a_channel_is_its_cj_state(d):
    ch = approx_transpose(d)
    assert isinstance(ch, DensityMatrix) and ch.dims == (d, d)
    assert (ch.d_in, ch.d_out) == (d, d)
    assert not hasattr(ch, "cj")


def test_a_channel_from_a_numpy_integer_holds_ints():
    ch = Channel(approx_transpose(2).mat, (np.int64(2), np.int64(2)))
    assert type(ch.d_in) is int and type(ch.d_out) is int


def test_a_non_square_channel_is_checked_on_its_own_dimensions():
    # trace and replace: rho (dimension 2) -> identity/3; CJ = identity/2 (x) identity/3 / 2
    ch = Channel(np.eye(6) / 6, (2, 3))
    out = apply_channel(ch, DensityMatrix(np.diag([1.0, 0.0])))
    assert out.dims == (3,) and np.abs(out.mat - np.eye(3) / 3).max() < 1e-15


def test_depolarize():
    ch = depolarizing(2)
    out = apply_channel(ch, DensityMatrix(np.diag([1.0, 0.0])))
    assert np.abs(out.mat - np.eye(2) / 2).max() < 1e-12


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
    assert np.linalg.norm(approx_transpose(d).mat - target) < 1e-10


def test_cj_state_of_identity_channel():
    d = 3
    phi = sum(np.kron(basis_ket(d, i).vec, basis_ket(d, i).vec) for i in range(d)) / np.sqrt(d)
    chi = DensityMatrix(np.outer(phi, phi.conj()), dims=(d, d))
    ch = Channel(chi.mat, (d, d))
    assert np.abs(ch.mat - chi.mat).max() < 1e-12
    rho = haar_random_density(d, 1)
    assert np.abs(apply_channel(ch, rho).mat - rho.mat).max() < 1e-10


def test_a_channel_of_the_cj_state_reproduces_approx_transpose():
    chi = DensityMatrix((np.eye(4) + swap_operator(2).mat) / 6, dims=(2, 2))
    ch = Channel(chi.mat, chi.dims)
    units = []
    for i in range(2):
        for j in range(2):
            u = np.zeros((2, 2), dtype=complex)
            u[i, j] = 1.0
            units.append(u)
    for u in units:
        got = apply_channel(ch, Operator(u))
        assert np.abs(got.mat - naive_approx_transpose(u)).max() < 1e-10


def test_building_a_channel_runs_one_psd_test(monkeypatch):
    chi = approx_transpose(3)
    calls, psd_violation = [], linalg._psd_violation

    def counting(m, h=None):
        calls.append(m.shape)
        return psd_violation(m, h)

    monkeypatch.setattr(linalg, "_psd_violation", counting)
    Channel(chi.mat, chi.dims)
    assert calls == [(9, 9)]


def test_cj_roundtrip_on_action():
    ch = approx_transpose(3)
    back = Channel(ch.mat, ch.dims)
    rng = np.random.default_rng(2)
    for _ in range(5):
        x = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        a = apply_channel(ch, Operator(x))
        b = apply_channel(back, Operator(x))
        assert np.abs(a.mat - b.mat).max() < 1e-10


# every way the package builds a channel (the formula, each design, the two-step
# circuit and the optics pipeline) and one built by hand from its CJ matrix
BUILT_CHANNELS = {
    **{f"formula-d{d}": (lambda d=d: approx_transpose(d)) for d in range(2, 9)},
    **{f"sic-d{d}": (lambda d=d: measure_prepare_from_design(
        sic_from_fiducial(builtin_fiducial(d)))[1]) for d in (2, 3)},
    **{f"mub-d{d}": (lambda d=d: measure_prepare_from_design(mub_prime(d))[1])
       for d in (2, 3, 5, 7)},
    **{f"two-step-d{d}": (lambda d=d: channel_from_measure_prepare(
        build_two_step(builtin_fiducial(d)))) for d in (2, 3)},
    "optics-d2": lambda: channel_from_measure_prepare(build_fig2_pipeline(builtin_fiducial(2))),
    "depolarizing-d2": lambda: depolarizing(2),
}


@pytest.mark.parametrize("build", BUILT_CHANNELS.values(), ids=BUILT_CHANNELS.keys())
def test_kraus_view(build):
    ch = build()
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
    assert np.abs(rebuilt - ch.mat).max() < 1e-10


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
    basis = Design(np.eye(2, dtype=complex))
    with pytest.raises(DomainError):
        measure_prepare_from_design(basis)


def test_a_design_with_claimed_certificates_cannot_pass_as_a_two_design():
    # Design(2, np.eye(2), "custom", 0.0, 0.0) held the caller's zero residuals, and
    # measure_prepare_from_design returned the completely dephasing channel, at CJ
    # distance 0.408 from the approximate transpose
    basis = Design(np.eye(2))
    assert basis.two_design_residual == pytest.approx(np.sqrt(1 / 6), rel=1e-12)
    with pytest.raises(DomainError, match="two-design"):
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
    fdep = pointwise_transpose_fidelity(depolarizing(2), haar_random_ket(2, 1))
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
    # checked here without the constructor's own test: PSD spectrum and marginal identity/d
    cj = approx_transpose(d).mat
    assert np.linalg.eigvalsh(cj)[0] > -1e-12
    marginal = np.einsum("abcb->ac", cj.reshape(d, d, d, d))
    assert np.abs(marginal - np.eye(d) / d).max() < 1e-12


# ---------------------------------------------------------------------------
# a checked channel's output on a checked state is a state, and is not checked again
# ---------------------------------------------------------------------------


def min_eigenvalue(m):
    return float(np.linalg.eigvalsh((m + m.conj().T) / 2)[0])


def negative_mass(m):
    """||rho_-||_1: a CPTP map's output has lambda_min >= -||rho_-||_1."""
    eigs = np.linalg.eigvalsh((m + m.conj().T) / 2)
    return float(-eigs[eigs < 0].sum())


def test_a_near_floor_state_goes_through_apply_to_factor():
    # DensityMatrix accepts rho, but the channel shrinks the largest eigenvalue
    # to 2/3 and the relative PSD floor with it: a state check of the output
    # refused it with "psd (residual 9.000e-10)"
    eps = 9e-10
    rho = DensityMatrix(np.diag([1 + 2 * eps, -eps, 0, -eps]), dims=(2, 2))
    for factor in (0, 1):
        out = apply_to_factor(approx_transpose(2), rho, factor)
        assert min_eigenvalue(out.mat) >= -2 * eps - 1e-15


def near_floor_state(rng, dim):
    """A state with negative eigenvalues just above DensityMatrix's floor -PSD_TOL * max|lambda|."""
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    u = np.linalg.qr(g)[0]
    eigs = rng.uniform(0, 1, dim)
    eigs[0] = 1.0
    n_neg = int(rng.integers(1, dim))
    eigs[1:1 + n_neg] = -linalg.PSD_TOL * rng.uniform(0.5, 0.95, n_neg)
    m = (u * eigs) @ u.conj().T
    return m / np.trace(m).real


@pytest.mark.parametrize("dims, d", [((2, 2), 2), ((2, 2, 2), 2), ((3, 3), 3)])
def test_outputs_on_near_floor_states_keep_the_trace_norm_bound(dims, d):
    rng = np.random.default_rng(23)
    big_d = int(np.prod(dims))
    for _ in range(20):
        rho = DensityMatrix(near_floor_state(rng, big_d), dims=dims)
        bound = -negative_mass(rho.mat) - 1e-15
        assert min_eigenvalue(apply_channel(approx_transpose(big_d), rho).mat) >= bound
        for factor in range(len(dims)):
            out = apply_to_factor(approx_transpose(d), rho, factor)
            assert min_eigenvalue(out.mat) >= bound


def test_applying_a_channel_to_a_state_builds_no_wrapper(monkeypatch):
    ch2, ch4 = approx_transpose(2), approx_transpose(4)
    rho = haar_random_density(4, 5, dims=(2, 2))
    counts = count_constructions(monkeypatch, ("Ket", "Operator", "DensityMatrix"))
    apply_channel(ch4, rho)
    apply_to_factor(ch2, rho, 1)
    assert counts == {"Ket": 0, "Operator": 0, "DensityMatrix": 0}


def random_state(rng, dim, rank):
    g = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    m = g @ g.conj().T
    return m / np.trace(m).real


def factor_contraction(e, rho, factor):
    """apply_to_factor's contraction written out: the stacked Kraus operators on one factor."""
    dims = rho.dims
    left, right = int(np.prod(dims[:factor])), int(np.prod(dims[factor + 1:]))
    k = np.stack(kraus_ops(e))
    t = rho.mat.reshape(left, e.d_in, right, left, e.d_in, right)
    t = np.einsum("kim,ambcnd->kaibcnd", k, t)
    out = np.einsum("kaibcnd,kjn->aibcjd", t, k.conj())
    size = left * e.d_out * right
    return out.reshape(size, size)


# realize-transpose's state shapes: one factor of d = 2..8, and two multipartite ones
OUTPUT_SHAPES = [(d,) for d in range(2, 9)] + [(2, 2, 2), (3, 3)]


@pytest.mark.parametrize("dims", OUTPUT_SHAPES, ids=str)
def test_a_channel_output_is_a_state_as_computed(dims):
    # every channel the package builds, on seeded states of every rank: each
    # output would have passed the state check, and holds the computed matrix
    # bit for bit in an array that cannot be made writable
    rng = np.random.default_rng(list(dims))
    big_d = int(np.prod(dims))
    built = [build() for build in BUILT_CHANNELS.values()]
    outputs = []
    for rank in range(1, big_d + 1):
        rho = DensityMatrix(random_state(rng, big_d, rank), dims=dims)
        if len(dims) == 1:
            for ch in (c for c in built if c.d_in == big_d):
                # the Operator path wraps the same product through Operator's own check
                expected = apply_channel(ch, Operator(rho.mat)).mat
                outputs.append((apply_channel(ch, rho), expected))
        else:
            for factor, d in enumerate(dims):
                for ch in (c for c in built if c.d_in == d):
                    expected = factor_contraction(ch, rho, factor)
                    outputs.append((apply_to_factor(ch, rho, factor), expected))
    assert outputs
    for out, expected in outputs:
        assert isinstance(out, DensityMatrix) and isinstance(out, Operator) and out.dims == dims
        assert not hasattr(out, "op")
        DensityMatrix(out.mat, dims=out.dims)
        assert out.mat.tobytes() == np.ascontiguousarray(expected).tobytes()
        with pytest.raises(ValueError):
            out.mat.setflags(write=True)


# every measure-and-prepare record the package builds, each applied by its own entry point
MP_RECORDS = {
    **{f"sic-d{d}": (lambda d=d: measure_prepare_from_design(
        sic_from_fiducial(builtin_fiducial(d)))[0]) for d in (2, 3)},
    **{f"mub-d{d}": (lambda d=d: measure_prepare_from_design(mub_prime(d))[0])
       for d in (2, 3, 5, 7)},
    **{f"two-step-d{d}": (lambda d=d: build_two_step(builtin_fiducial(d))) for d in (2, 3)},
    "optics-d2": lambda: build_fig2_pipeline(builtin_fiducial(2)),
}


def apply_record(name, mp, rho):
    if name.startswith("two-step"):
        return simulate_circuit(mp.fiducial, rho)
    if name.startswith("optics"):
        return run_pipeline(mp, rho)
    return channels._measure_and_prepare(mp, rho)


@pytest.mark.parametrize("name", MP_RECORDS)
def test_a_measure_and_prepare_output_is_a_state_as_computed(name):
    # the output is no longer checked: on seeded states of every rank it would
    # have passed the state check, is read-only, and is the mixture
    # sum_k p_k |p_k><p_k| computed here, bit for bit
    mp = MP_RECORDS[name]()
    preps = mp.preparation_stack
    d = preps.shape[1]
    rng = np.random.default_rng([d, len(preps)])
    projectors = preps[:, :, None] * preps[:, None, :].conj()
    for rank in range(1, d + 1):
        rho = DensityMatrix(random_state(rng, d, rank))
        probs, out = apply_record(name, mp, rho)
        expected_probs = np.einsum("kij,ji->k", mp.effect_stack, rho.mat).real
        mixture = (expected_probs[:, None, None] * projectors).sum(axis=0)
        assert probs.tobytes() == expected_probs.tobytes()
        assert isinstance(out, DensityMatrix) and out.dims == (d,)
        DensityMatrix(out.mat)
        assert out.mat.tobytes() == mixture.tobytes()
        with pytest.raises(ValueError):
            out.mat.setflags(write=True)


QUBIT_BASIS = np.eye(2, dtype=complex)
SKEW = np.array([[0.0, 0.1], [0.0, 0.0]])

# stacks that a MeasurePrepare refused only when a channel was asked of it, or never:
# (effects, preparations, the ValidationError check or None for DomainError, residual)
NOT_POVM = {
    # sums to the identity; its output on |0><0| was diag(1.5, -0.5)
    "non-psd": ([np.diag([1.5, 0.0]), np.diag([-0.5, 1.0])], QUBIT_BASIS, "psd", 0.5),
    "non-hermitian": ([np.eye(2) / 2 + SKEW, np.eye(2) / 2 - SKEW], QUBIT_BASIS, "hermitian", 0.1),
    "off-identity": ([np.diag([1.0, 0.0]), np.diag([0.0, 0.9])], QUBIT_BASIS, None, None),
    "non-unit-preparation": ([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])],
                             np.array([[1.0, 0.0], [0.0, 1.1]]), "norm", 0.1),
}


@pytest.mark.parametrize("case", NOT_POVM)
def test_a_measure_prepare_that_is_not_a_povm_is_refused_when_built(case):
    effects, preps, check, residual = NOT_POVM[case]
    if check is None:
        with pytest.raises(DomainError, match="effects do not sum to the identity"):
            MeasurePrepare(np.array(effects), preps)
        return
    with pytest.raises(ValidationError) as err:
        MeasurePrepare(np.array(effects), preps)
    assert err.value.check == check and err.value.residual == pytest.approx(residual)


def test_a_povm_with_a_zero_effect_is_accepted():
    # the zero effect fails the shifted Cholesky (no shift) and passes the eigvalsh rule
    mp = MeasurePrepare(np.array([np.eye(2), np.zeros((2, 2))]), QUBIT_BASIS)
    probs, out = channels._measure_and_prepare(mp, DensityMatrix(np.eye(2) / 2))
    assert probs.tolist() == [1.0, 0.0]
    assert np.array_equal(out.mat, np.diag([1.0, 0.0]))


@pytest.mark.parametrize("record", ["two-step-d2", "optics-d2"])
def test_every_realization_record_checks_its_povm(record):
    rec = MP_RECORDS[record]()
    with pytest.raises(DomainError, match="effects do not sum to the identity"):
        dataclasses.replace(rec, effect_stack=rec.effect_stack * 1.1)
    with pytest.raises(ValidationError, match="norm"):
        dataclasses.replace(rec, preparation_stack=rec.preparation_stack * 1.1)


def einsum_channel(e, x):
    """The channel's action written from its CJ tensor: d_in sum_ac chi[a, b, c, d] x[a, c]."""
    d_in, d_out = e.dims
    return d_in * np.einsum("abcd,ac->bd", e.mat.reshape(d_in, d_out, d_in, d_out), x)


def non_square_channel():
    """chi = I/2 (x) sigma: the channel from a qubit to a qutrit that prepares sigma."""
    sigma = random_state(np.random.default_rng(23), 3, 2)
    return Channel(np.kron(np.eye(2) / 2, sigma), (2, 3))


SUPEROPERATOR_CHANNELS = {**BUILT_CHANNELS, "prepare-sigma-2to3": non_square_channel}


@pytest.mark.parametrize("build", SUPEROPERATOR_CHANNELS.values(),
                         ids=SUPEROPERATOR_CHANNELS.keys())
def test_the_held_superoperator_matches_the_cj_contraction(build):
    ch = build()
    rng = np.random.default_rng(ch.d_in)
    for rank in range(1, ch.d_in + 1):
        rho = DensityMatrix(random_state(rng, ch.d_in, rank))
        x = rng.standard_normal((ch.d_in, ch.d_in)) + 1j * rng.standard_normal((ch.d_in, ch.d_in))
        for m in (rho, Operator(x), x):
            out = apply_channel(ch, m)
            assert out.dims == (ch.d_out,)
            arr = m.mat if isinstance(m, Operator) else m
            assert np.abs(out.mat - einsum_channel(ch, arr)).max() <= 1e-15


@pytest.mark.parametrize("build, shared", [(lambda: approx_transpose(3), True),
                                           (lambda: approx_transpose(9), False),
                                           (non_square_channel, False)],
                         ids=["shared", "fresh", "non-square"])
def test_the_superoperator_is_built_once_per_channel(build, shared):
    ch = build()
    rho = DensityMatrix(np.eye(ch.d_in) / ch.d_in)
    apply_channel(ch, rho)
    s = vars(ch)["_superoperator"]
    assert s.shape == (ch.d_in ** 2, ch.d_out ** 2)
    for _ in range(3):
        apply_channel(ch, rho)
        assert channels._superoperator(ch) is s
    # a shared channel is the same record on every call; a fresh one builds its own on first use
    if shared:
        assert vars(build())["_superoperator"] is s
    else:
        assert "_superoperator" not in vars(build())


def test_a_fresh_channels_superoperator_goes_away_with_it():
    ch = approx_transpose(9)                              # d > 8: not a shared channel
    apply_channel(ch, DensityMatrix(np.eye(9) / 9))
    refs = weakref.ref(ch), weakref.ref(channels._superoperator(ch))
    del ch
    gc.collect()
    assert [r() for r in refs] == [None, None]
