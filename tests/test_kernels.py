"""Stacked-array kernels against per-element references written out here.

Each reference is the one-vector-at-a-time form (explicit np.kron, outer
products and matrix powers).  Where the kernel keeps the arithmetic of the
loop it must agree exactly; where it reorders a sum or replaces repeated
matrix products by closed-form phases it must agree to 1e-12.
"""

import dataclasses
import itertools

import numpy as np
import pytest

from transposim import (
    Channel,
    Design,
    DomainError,
    Fiducial,
    Ket,
    MeasurePrepare,
    ValidationError,
    apply_to_factor,
    build_fig2_pipeline,
    build_two_step,
    builtin_fiducial,
    channel_from_measure_prepare,
    correction_set,
    fiducial_search,
    haar_random_density,
    hw_orbit,
    kraus_ops,
    measure_prepare_from_design,
    mub_prime,
    run_pipeline,
    sic_from_fiducial,
    simulate_circuit,
    swap_operator,
)
from transposim import linalg
from transposim.designs import (
    _orbit_fp_and_grad,
    _overlap_dev_and_grad,
    _pair_projector_sum,
    two_design_residual,
)
from transposim.twostep import TwoStepMeasurement, _assemble, _fourier_effects

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


def ref_weyl_pair(d):
    omega = np.exp(2j * np.pi / d)
    x = np.zeros((d, d), dtype=complex)
    for n in range(d):
        x[(n + 1) % d, n] = 1.0
    return x, np.diag(omega ** np.arange(d))


def ref_displacements(d):
    """Dense X^k Z^l stacked (d^2, d, d) at index k*d + l."""
    x, z = ref_weyl_pair(d)
    return np.stack(
        [
            np.linalg.matrix_power(x, k) @ np.linalg.matrix_power(z, l)
            for k in range(d)
            for l in range(d)
        ]
    )


def ref_hw_orbit(fid):
    return ref_displacements(fid.size) @ fid


def ref_objective_terms(x, d):
    """psi, <psi|psi>, t_a = <psi|D_a|psi>, D_a psi and D_a^dag psi from dense D_a."""
    disp = ref_displacements(d)
    psi = x[:d] + 1j * x[d:]
    dpsi = disp @ psi
    dagpsi = disp.conj().transpose(0, 2, 1) @ psi
    return psi, np.vdot(psi, psi).real, dpsi @ psi.conj(), dpsi, dagpsi


def ref_orbit_fp_and_grad(x, d):
    psi, n, t, dpsi, dagpsi = ref_objective_terms(x, d)
    t2 = np.abs(t) ** 2
    # d/dpsi* of sum |t_a|^4 with both terms written out
    g = 2.0 * ((t2 * t.conj()) @ dpsi + (t2 * t) @ dagpsi)
    g = d * d * (g / n**4 - 4.0 * (np.sum(t2**2) / n**5) * psi)
    return d * d * np.sum(t2**2) / n**4, np.concatenate([2.0 * g.real, 2.0 * g.imag])


def ref_overlap_dev_and_grad(x, d):
    psi, n, t, dpsi, dagpsi = ref_objective_terms(x, d)
    delta = np.abs(t) ** 2 / n**2 - 1.0 / (d + 1)
    delta[0] = 0.0
    coeff = 2.0 * delta
    g = (coeff * t.conj()) @ dpsi + (coeff * t) @ dagpsi
    g = g / n**2 - (2.0 * np.sum(coeff * np.abs(t) ** 2) / n**3) * psi
    return np.sum(delta**2), np.concatenate([2.0 * g.real, 2.0 * g.imag])


VECTOR_FAMILIES = {
    "sic2": lambda: hw_orbit(builtin_fiducial(2)),
    "sic3": lambda: hw_orbit(builtin_fiducial(3)),
    "mub2": lambda: mub_prime(2).vector_stack,
    "mub3": lambda: mub_prime(3).vector_stack,
    "mub5": lambda: mub_prime(5).vector_stack,
    # not designs: the residuals are non-zero and must still agree
    "random-5x3": lambda: random_unit_vectors(5, 3, 1),
    "random-12x4": lambda: random_unit_vectors(12, 4, 2),
    "basis-4": lambda: np.eye(4, dtype=complex),
    "two-mub3-bases": lambda: mub_prime(3).vector_stack[:6],
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


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6, 7])
@pytest.mark.parametrize(
    "objective, reference",
    [(_orbit_fp_and_grad, ref_orbit_fp_and_grad),
     (_overlap_dev_and_grad, ref_overlap_dev_and_grad)],
    ids=["frame-potential", "overlap-deviation"],
)
def test_search_objectives_match_dense_displacements(objective, reference, d):
    for seed in range(3):
        x = np.random.default_rng([d, seed]).standard_normal(2 * d)
        val, grad = objective(x, d)
        ref_val, ref_grad = reference(x, d)
        assert abs(val - ref_val) <= TOL * abs(ref_val)
        assert np.abs(grad - ref_grad).max() <= TOL * np.abs(ref_grad).max()


@pytest.mark.parametrize("d", [2, 3, 5])
def test_correction_set_matches_matrix_powers(d):
    f = builtin_fiducial(d) if d in (2, 3) else fiducial_search(d, seed=0)
    amps = f.alphas
    zero = np.abs(amps) < 1e-14
    phi = np.diag(np.where(zero, 0.0, amps.conj() / np.where(zero, 1.0, amps)))
    x, z = ref_weyl_pair(d)
    cs = correction_set(f)
    assert np.array_equal(cs.phi.mat, phi)
    assert cs.partial_isometry == bool(zero.any())
    for k in range(d):
        xk = np.linalg.matrix_power(x, k)
        for l in range(d):
            want = xk @ phi @ np.linalg.matrix_power(z.conj().T, (2 * l) % d) @ xk.conj().T
            assert np.abs(cs.unitaries[k * d + l].mat - want).max() < TOL


@pytest.mark.parametrize("d", [3, 5, 7])
def test_mub_prime_matches_gauss_sum_loop(d):
    omega = np.exp(2j * np.pi / d)
    m = np.arange(d)
    rows = list(np.eye(d, dtype=complex))
    for a in range(d):
        for b in range(d):
            rows.append(omega ** ((a * m * m + b * m) % d) / np.sqrt(d))
    assert np.array_equal(mub_prime(d).vector_stack, np.array(rows))


def test_a_design_checks_an_array_as_one_stack():
    good = random_unit_vectors(3, 3, 5)
    scaled = good.copy()
    scaled[2] *= 1.5
    with pytest.raises(ValidationError) as err:
        Design(scaled)
    assert err.value.check == "norm"
    assert abs(err.value.residual - abs(np.linalg.norm(scaled[2]) - 1.0)) < TOL
    # a non-finite entry is refused before any norm
    bad = good.copy()
    bad[0] *= 1.5
    bad[1, 0] = np.nan
    with pytest.raises(DomainError, match="non-finite"):
        Design(bad)
    # anything but an (N, d) stack is refused
    for not_a_stack in (good[0], good[None], []):
        with pytest.raises(DomainError, match=r"\(N, d\) array"):
            Design(not_a_stack)


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
    mp = MeasurePrepare(np.array(effects), np.array(preps))
    got = channel_from_measure_prepare(mp).mat
    assert np.abs(got - ref_measure_prepare_cj(effects, preps)).max() < TOL


def test_channel_from_measure_prepare_rejects_unpaired_outcomes():
    # the record refuses the unpaired stacks, so no channel is ever asked for
    effects, preps = MP_CASES["sic2"]()
    with pytest.raises(DomainError, match=r"\(4, 2, 2\) with preparations of shape \(3, 2\)"):
        MeasurePrepare(np.array(effects), np.array(preps[:-1]))


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
    # the kernel builds the derived convention, both signs +1; a sign variant
    # only relabels the outcomes, as A_{k_sign*k} and B_{l_sign*l}
    amps = builtin_fiducial(d).alphas if d in (2, 3) else random_unit_vectors(1, d, 4)[0]
    amps = amps.conj() if conjugate else amps
    effects = _fourier_effects(d)
    diag, assembled = _assemble(amps, effects)
    ref_kraus, ref_effects, ref_assembled = ref_assemble(amps, l_sign, k_sign)
    k = (k_sign * np.arange(d)) % d
    l = (l_sign * np.arange(d)) % d
    assert np.array_equal(np.array([np.diag(a) for a in diag])[k], ref_kraus)
    assert np.array_equal(effects, ref_effects)
    relabelled = assembled.reshape(d, d, d, d)[k][:, l].reshape(d * d, d, d)
    assert np.abs(relabelled - ref_assembled).max() < TOL


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
    orbit = sic.vector_stack
    effects = [np.outer(v, v.conj()) / d for v in orbit]
    ref_probs, ref_out = ref_measure_and_prepare(effects, orbit.conj(), rho.mat)
    assert np.abs(probs - ref_probs).max() < TOL
    assert np.abs(out.mat - ref_out).max() < TOL


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_pipeline_probabilities_match_loop(seed):
    pipe = build_fig2_pipeline(builtin_fiducial(2))
    rho = haar_random_density(2, seed)
    effects = list(pipe.effect_stack)
    preps = list(pipe.preparation_stack)
    ref_probs, ref_out = ref_measure_and_prepare(effects, preps, rho.mat)
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
    return Channel((chi + chi.conj().T) / 2, (d, d))


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


def realization_records():
    """A MUB design and its measure-and-prepare pair, a qutrit two-step measurement, the optics."""
    g = mub_prime(5)
    mp, _ = measure_prepare_from_design(g)
    return g, mp, build_two_step(builtin_fiducial(3)), build_fig2_pipeline(builtin_fiducial(2))


def test_record_views_equal_their_stacks_bit_for_bit():
    # `assembled` is the one tuple view a record still derives
    _, _, ts, _ = realization_records()
    assert np.array([m.mat for m in ts.assembled]).tobytes() == ts.effect_stack.tobytes()
    assert ts.assembled is ts.assembled


def test_record_stacks_are_read_only():
    g, mp, ts, pipe = realization_records()
    stacks = [
        g.vector_stack, mp.effect_stack, mp.preparation_stack, ts.kraus_diagonals,
        ts.fourier_effects, ts.effect_stack, ts.preparation_stack, pipe.effect_stack,
        pipe.preparation_stack,
    ]
    for stack in stacks:
        with pytest.raises(ValueError):
            stack[0] = 0


def test_record_constructors_check_and_copy_read_only_arrays():
    g, mp, ts, pipe = realization_records()
    effects = mp.effect_stack.copy()
    rec = MeasurePrepare(effects, mp.preparation_stack)
    effects[0] = 0  # a writable input is copied
    assert np.array_equal(rec.effect_stack, mp.effect_stack)
    owned = mp.preparation_stack.copy()
    owned.setflags(write=False)
    rec = MeasurePrepare(mp.effect_stack, owned)
    owned.setflags(write=True)
    owned[0] = 0  # a read-only input is copied too, not shared
    assert np.array_equal(rec.preparation_stack, mp.preparation_stack)
    owned[0] = np.nan
    owned.setflags(write=False)
    with pytest.raises(DomainError, match="non-finite"):
        MeasurePrepare(mp.effect_stack, owned)
    rebuilt = TwoStepMeasurement(
        effect_stack=ts.effect_stack, preparation_stack=ts.preparation_stack, d=ts.d,
        fiducial=ts.fiducial, kraus_diagonals=ts.kraus_diagonals,
        fourier_effects=ts.fourier_effects, convention=ts.convention,
    )
    assert rebuilt.kraus_diagonals.tobytes() == ts.kraus_diagonals.tobytes()
    full = np.array([np.diag(a) for a in ts.kraus_diagonals])  # (d, d, d), not the (d, d) diagonals
    with pytest.raises(DomainError, match="kraus_diagonals"):
        dataclasses.replace(ts, kraus_diagonals=full)
    with pytest.raises(DomainError, match="effects of shape"):
        dataclasses.replace(ts, effect_stack=ts.effect_stack[:-1])
    with pytest.raises(DomainError, match="kraus_diagonals"):
        dataclasses.replace(ts, kraus_diagonals=ts.kraus_diagonals[:-1])


def malformed(effects, preps):
    """Stack pairs that break the shape rule, each from a valid (N, d, d), (N, d) pair."""
    pad = np.zeros((len(preps), 1))
    return {
        "non-square effects": (effects[:, :, :-1], preps),
        "1-D preparations": (effects, preps.reshape(-1)),
        "unequal N": (effects, preps[:-1]),
        "preparation dimension": (effects, np.hstack([preps, pad])),
        "zero dimension": (effects[:, :0, :0], preps[:, :0]),
    }


@pytest.mark.parametrize("case", ["non-square effects", "1-D preparations", "unequal N",
                                  "preparation dimension", "zero dimension"])
@pytest.mark.parametrize("record", ["MeasurePrepare", "TwoStepMeasurement", "Fig2Pipeline"])
def test_every_realization_record_refuses_malformed_stacks(record, case):
    _, mp, ts, pipe = realization_records()
    valid = {"MeasurePrepare": mp, "TwoStepMeasurement": ts, "Fig2Pipeline": pipe}[record]
    effects, preps = malformed(valid.effect_stack, valid.preparation_stack)[case]
    with pytest.raises(DomainError, match=r"expected \(N, d, d\) with \(N, d\)"):
        dataclasses.replace(valid, effect_stack=effects, preparation_stack=preps)


def count_constructions(monkeypatch, names=("Ket", "Operator")):
    counts = dict.fromkeys(names, 0)
    for name in counts:
        cls = getattr(linalg, name)

        def counting(self, *args, _name=name, _init=cls.__init__, **kwargs):
            counts[_name] += 1
            _init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counting)
    return counts


@pytest.mark.parametrize("d", [3, 5, 7])
def test_design_realization_builds_no_per_vector_wrappers(d, monkeypatch):
    # a fresh design: the shared mub_prime(d) may already hold its pair
    g = Design(mub_prime(d).vector_stack, kind="MUB")
    counts = count_constructions(monkeypatch)
    measure_prepare_from_design(g)
    # only the CJ matrix: the two-design check's target is a plain real array
    assert counts == {"Ket": 0, "Operator": 1}
    measure_prepare_from_design(g)  # the held pair: nothing is built again
    assert counts == {"Ket": 0, "Operator": 1}


def test_simulate_circuit_builds_no_assembled_operators(monkeypatch):
    f, rho = builtin_fiducial(3), haar_random_density(3, 4)
    counts = count_constructions(monkeypatch)
    simulate_circuit(f, rho)
    # the output state is derived from the checked record, so nothing is wrapped
    assert counts == {"Ket": 0, "Operator": 0}
