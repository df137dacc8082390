"""Stacked-array kernels against per-element references written out here.

Each reference is the one-vector-at-a-time form (explicit np.kron, outer
products and matrix powers).  Where the kernel keeps the arithmetic of the
loop it must agree exactly; where it reorders a sum or replaces repeated
matrix products by closed-form phases it must agree to 1e-12.
"""

import itertools

import numpy as np
import pytest

from transposim import (
    DensityMatrix,
    DomainError,
    Fiducial,
    Ket,
    MeasurePrepare,
    Operator,
    ValidationError,
    apply_to_factor,
    build_fig2_pipeline,
    builtin_fiducial,
    channel_from_cj,
    channel_from_measure_prepare,
    design_matrix,
    haar_random_density,
    hw_orbit,
    kraus_ops,
    make_design,
    mub_prime,
    path_probabilities,
    run_pipeline,
    sic_from_fiducial,
    simulate_circuit,
    swap_operator,
)
from transposim.designs import _pair_projector_sum, two_design_residual
from transposim.twostep import _assemble, _fourier_effects

TOL = 1e-12


def random_unit_vectors(n, d, seed):
    rng = np.random.default_rng(seed)
    v = rng.standard_normal((n, d)) + 1j * rng.standard_normal((n, d))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def ref_pair_projector_sum(vectors):
    d = vectors.shape[1]
    total = np.zeros((d * d, d * d), dtype=complex)
    for v in vectors:
        vv = np.kron(v, v)
        total += np.outer(vv, vv.conj())
    return total / len(vectors)


def ref_two_design_residual(vectors):
    d = vectors.shape[1]
    target = (np.eye(d * d) + swap_operator(d).mat) / (d * (d + 1))
    return float(np.linalg.norm(ref_pair_projector_sum(vectors) - target))


def ref_hw_orbit(fid):
    d = fid.size
    omega = np.exp(2j * np.pi / d)
    x = np.zeros((d, d), dtype=complex)
    for n in range(d):
        x[(n + 1) % d, n] = 1.0
    z = np.diag(omega ** np.arange(d))
    return np.stack(
        [
            np.linalg.matrix_power(x, k) @ np.linalg.matrix_power(z, l) @ fid
            for k in range(d)
            for l in range(d)
        ]
    )


VECTOR_FAMILIES = {
    "sic2": lambda: hw_orbit(builtin_fiducial(2)),
    "sic3": lambda: hw_orbit(builtin_fiducial(3)),
    "mub2": lambda: design_matrix(mub_prime(2)),
    "mub3": lambda: design_matrix(mub_prime(3)),
    "mub5": lambda: design_matrix(mub_prime(5)),
    # not designs: the residuals are non-zero and must still agree
    "random-5x3": lambda: random_unit_vectors(5, 3, 1),
    "random-12x4": lambda: random_unit_vectors(12, 4, 2),
    "basis-4": lambda: np.eye(4, dtype=complex),
    "two-mub3-bases": lambda: design_matrix(mub_prime(3))[:6],
}


@pytest.mark.parametrize("name", sorted(VECTOR_FAMILIES))
def test_pair_projector_sum_matches_kron_loop(name):
    vectors = VECTOR_FAMILIES[name]()
    assert np.abs(_pair_projector_sum(vectors) - ref_pair_projector_sum(vectors)).max() < TOL
    res, ref = two_design_residual(vectors, vectors.shape[1]), ref_two_design_residual(vectors)
    assert abs(res - ref) < TOL
    if not name.startswith(("sic", "mub")):
        assert ref > 1e-3


@pytest.mark.parametrize("d", [2, 3, 4, 5, 7])
def test_hw_orbit_matches_matrix_powers(d):
    fid = builtin_fiducial(d).alphas if d in (2, 3) else random_unit_vectors(1, d, d)[0]
    got = hw_orbit(Fiducial(d, Ket(fid)))
    assert got.shape == (d * d, d)
    assert np.abs(got - ref_hw_orbit(fid)).max() < TOL


@pytest.mark.parametrize("d", [3, 5, 7])
def test_mub_prime_matches_gauss_sum_loop(d):
    omega = np.exp(2j * np.pi / d)
    m = np.arange(d)
    rows = list(np.eye(d, dtype=complex))
    for a in range(d):
        for b in range(d):
            rows.append(omega ** ((a * m * m + b * m) % d) / np.sqrt(d))
    assert np.array_equal(design_matrix(mub_prime(d)), np.array(rows))


def test_make_design_reports_failures_in_vector_order():
    good = random_unit_vectors(3, 3, 5)
    scaled = good[1] * 1.5
    with pytest.raises(ValidationError) as err:
        make_design([good[0], scaled, good[2]])
    assert err.value.check == "norm"
    assert abs(err.value.residual - abs(np.linalg.norm(scaled) - 1.0)) < TOL
    # a norm failure ahead of a dimension mismatch is reported first, and the
    # mismatch ahead of a norm failure
    with pytest.raises(ValidationError):
        make_design([good[0], scaled, np.array([1.0, 0.0])])
    with pytest.raises(DomainError, match="vector 1 has dimension 2"):
        make_design([good[0], np.array([1.0, 0.0]), scaled])


def ref_measure_prepare_cj(effects, preps):
    d = effects[0].shape[0]
    cj = np.zeros((d * d, d * d), dtype=complex)
    for e, p in zip(effects, preps):
        cj += np.kron(e.T / d, np.outer(p, p.conj()))
    return cj


def random_povm(n, d, seed):
    """Effects S^(-1/2) |v_k><v_k| S^(-1/2) for random vectors, with S their frame operator."""
    v = random_unit_vectors(n, d, seed)
    s = v.T @ v.conj()
    w, u = np.linalg.eigh(s)
    s_inv_half = u @ np.diag(w**-0.5) @ u.conj().T
    return [s_inv_half @ np.outer(x, x.conj()) @ s_inv_half for x in v]


def design_measure_prepare(vectors):
    n, d = vectors.shape
    return [(d / n) * np.outer(v, v.conj()) for v in vectors], list(vectors.conj())


MP_CASES = {
    "sic2": lambda: design_measure_prepare(VECTOR_FAMILIES["sic2"]()),
    "sic3": lambda: design_measure_prepare(VECTOR_FAMILIES["sic3"]()),
    "mub3": lambda: design_measure_prepare(VECTOR_FAMILIES["mub3"]()),
    "mub5": lambda: design_measure_prepare(VECTOR_FAMILIES["mub5"]()),
    # a POVM that is no design, prepared into unrelated random states
    "random-povm": lambda: (random_povm(7, 3, 8), list(random_unit_vectors(7, 3, 9))),
    "basis-4": lambda: design_measure_prepare(np.eye(4, dtype=complex)),
}


@pytest.mark.parametrize("name", sorted(MP_CASES))
def test_channel_from_measure_prepare_matches_kron_loop(name):
    effects, preps = MP_CASES[name]()
    mp = MeasurePrepare(tuple(Operator(e) for e in effects), tuple(Ket(p) for p in preps))
    got = channel_from_measure_prepare(mp).cj.mat
    assert np.abs(got - ref_measure_prepare_cj(effects, preps)).max() < TOL


def test_channel_from_measure_prepare_rejects_unpaired_outcomes():
    effects, preps = MP_CASES["sic2"]()
    mp = MeasurePrepare(tuple(Operator(e) for e in effects), tuple(Ket(p) for p in preps[:-1]))
    with pytest.raises(DomainError, match="4 effects but 3 prepared states"):
        channel_from_measure_prepare(mp)


def ref_assemble(amps, l_sign, k_sign):
    d = amps.size
    omega = np.exp(2j * np.pi / d)
    fourier = [omega ** (np.arange(d) * l) / np.sqrt(d) for l in range(d)]
    effects = [np.outer(f, f.conj()) for f in fourier]
    kraus = []
    for k in range(d):
        a = np.zeros((d, d), dtype=complex)
        for m in range(d):
            j = (m + k_sign * k) % d
            a[j, j] = amps[m]
        kraus.append(a)
    assembled = [
        kraus[k].conj().T @ effects[(l_sign * l) % d] @ kraus[k]
        for k in range(d)
        for l in range(d)
    ]
    return np.array(kraus), np.array(effects), np.array(assembled)


@pytest.mark.parametrize("d", [2, 3, 4])
@pytest.mark.parametrize(
    "conjugate, l_sign, k_sign", list(itertools.product((False, True), (1, -1), (1, -1)))
)
def test_two_step_assembly_matches_loop_for_every_convention(d, conjugate, l_sign, k_sign):
    amps = builtin_fiducial(d).alphas if d in (2, 3) else random_unit_vectors(1, d, 4)[0]
    amps = amps.conj() if conjugate else amps
    effects = _fourier_effects(d)
    diag, assembled = _assemble(amps, l_sign, k_sign, effects)
    ref_kraus, ref_effects, ref_assembled = ref_assemble(amps, l_sign, k_sign)
    assert np.array_equal(np.array([np.diag(a) for a in diag]), ref_kraus)
    assert np.array_equal(effects, ref_effects)
    assert np.abs(assembled - ref_assembled).max() < TOL


def ref_measure_and_prepare(effects, preps, rho):
    probs = np.array([np.real(np.trace(e @ rho)) for e in effects])
    out = sum(p * np.outer(s, s.conj()) for p, s in zip(probs, preps))
    return probs, out


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_simulate_circuit_matches_loop(d, seed):
    f = builtin_fiducial(d)
    rho = haar_random_density(d, seed)
    probs, out = simulate_circuit(f, rho)
    sic = sic_from_fiducial(f)
    orbit = design_matrix(sic)
    effects = [np.outer(v, v.conj()) / d for v in orbit]
    ref_probs, ref_out = ref_measure_and_prepare(effects, orbit.conj(), rho.mat)
    assert np.abs(probs - ref_probs).max() < TOL
    assert np.abs(out.mat - ref_out).max() < TOL


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_pipeline_probabilities_match_loop(seed):
    pipe = build_fig2_pipeline(builtin_fiducial(2))
    rho = haar_random_density(2, seed)
    effects = [m.mat for m in pipe.effects]
    preps = [k.vec for k in pipe.prepared_states]
    ref_probs, ref_out = ref_measure_and_prepare(effects, preps, rho.mat)
    assert np.abs(path_probabilities(pipe, rho) - ref_probs).max() < TOL
    probs, out = run_pipeline(pipe, rho)
    assert np.abs(probs - ref_probs).max() < TOL
    assert np.abs(out.mat - ref_out).max() < TOL


def random_cptp_channel(d, seed):
    """Random channel: a random CJ state rescaled on the reference copy to marginal I/d."""
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((d * d, d * d)) + 1j * rng.standard_normal((d * d, d * d))
    x = g @ g.conj().T
    marg = np.einsum("abcb->ac", x.reshape(d, d, d, d))
    w, u = np.linalg.eigh(marg)
    m = np.kron(u @ np.diag(w**-0.5) @ u.conj().T / np.sqrt(d), np.eye(d))
    chi = m @ x @ m.conj().T
    return channel_from_cj(DensityMatrix((chi + chi.conj().T) / 2, dims=(d, d)))


@pytest.mark.parametrize("factor", [0, 1, 2])
def test_apply_to_factor_matches_dense_kron_loop(factor):
    dims = (2, 3, 2)
    rho = haar_random_density(12, 17, dims=dims)
    e = random_cptp_channel(dims[factor], 30 + factor)
    left = int(np.prod(dims[:factor]))
    right = int(np.prod(dims[factor + 1:]))
    ref = np.zeros((12, 12), dtype=complex)
    for k in kraus_ops(e):
        big = np.kron(np.kron(np.eye(left), k), np.eye(right))
        ref += big @ rho.mat @ big.conj().T
    out = apply_to_factor(e, rho, factor)
    assert out.dims == dims
    assert np.abs(out.mat - ref).max() < TOL
