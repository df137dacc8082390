import functools
import tracemalloc

import numpy as np
import pytest
from test_kernels import count_constructions

from transposim import (
    DensityMatrix,
    DomainError,
    Operator,
    aew,
    apply_to_factor,
    basis_ket,
    builtin_fiducial,
    detect,
    evaluate_tripartite_example,
    ghz_ket,
    haar_random_density,
    kron_ket,
    locc_expectation,
    make_design,
    measure_prepare_from_design,
    mub_prime,
    multipartite_aew,
    multipartite_closed_forms,
    permute_subsystems,
    ppt_check,
    real_trace_product,
    report_to_dict,
    separable_decomposition_of_transpose_aew,
    sic_from_fiducial,
    spa_pmin,
    swap_operator,
    transpose_witness,
    tripartite_example_state,
)
from transposim import witness
from transposim.witness import ApproxWitness, Witness


def singlet():
    v = np.zeros(4, dtype=complex)
    v[1], v[2] = 1 / np.sqrt(2), -1 / np.sqrt(2)
    return DensityMatrix(np.outer(v, v.conj()), dims=(2, 2))


def product_00():
    return DensityMatrix(np.diag([1.0, 0, 0, 0]), dims=(2, 2))


def werner_boundary():
    # visibility 1/3 sits exactly on the positivity edge of the partial transpose
    return DensityMatrix(singlet().mat / 3 + (2 / 3) * np.eye(4) / 4, dims=(2, 2))


def test_transpose_witness_values():
    w = transpose_witness(2)
    # a witness is an Operator itself, not a wrapper around one
    assert isinstance(w, Operator) and not hasattr(w, "op")
    assert abs(real_trace_product(w, singlet()) + 0.5) < 1e-12
    assert abs(real_trace_product(w, product_00()) - 0.5) < 1e-12
    for d in (2, 3, 4, 5):
        assert abs(np.trace(transpose_witness(d).mat) - 1.0) < 1e-12


def test_witness_validation():
    with pytest.raises(DomainError):
        Witness(np.diag([1.0, 1.0]))  # trace 2
    with pytest.raises(DomainError):
        Witness(np.array([[1.0, 1.0], [0.0, 0.0]]))  # not Hermitian


@pytest.mark.parametrize("d,expected", [(2, 2 / 3), (3, 3 / 4), (4, 4 / 5), (5, 5 / 6)])
def test_pmin_values(d, expected):
    assert abs(spa_pmin(transpose_witness(d)) - expected) < 1e-12


def test_pmin_of_positive_witness_is_zero():
    w = Witness(np.eye(4) / 4, (2, 2))
    assert spa_pmin(w) == 0.0


@pytest.mark.parametrize("d", [2, 3, 4])
def test_pmin_certificate_is_sharp(d):
    w = transpose_witness(d)
    p = spa_pmin(w)
    big_d = d * d
    at_p = np.linalg.eigvalsh((1 - p) * w.mat + p * np.eye(big_d) / big_d)[0]
    below = p * (1 - 1e-6)
    at_below = np.linalg.eigvalsh((1 - below) * w.mat + below * np.eye(big_d) / big_d)[0]
    assert at_p >= -1e-12
    assert at_below < -1e-12


def test_aew_qubit_state_and_threshold():
    a = aew(transpose_witness(2))
    # (1/3)(V/2) + (2/3)(I/4) = (I + V)/6
    target = (np.eye(4) + swap_operator(2).mat) / 6
    assert np.abs(a.state.mat - target).max() < 1e-12
    assert abs(a.threshold - 1 / 6) < 1e-15
    assert abs(a.p_min - 2 / 3) < 1e-15


def test_detection_equivalence_affine_identity():
    a = aew(transpose_witness(2))
    w = transpose_witness(2)
    for i in range(200):
        rho = haar_random_density(4, 30_000 + i, dims=(2, 2))
        lhs = real_trace_product(rho, a.state)
        rhs = (1 - a.p_min) * real_trace_product(rho, w) + a.p_min / 4
        assert abs(lhs - rhs) < 1e-12
        assert (real_trace_product(rho, w) < 0) == (lhs < a.threshold)


def test_detect_singlet_and_product():
    a = aew(transpose_witness(2))
    s = detect(singlet(), a)
    assert s.verdict == "detected"
    assert abs(s.value) < 1e-12
    assert s.ppt == "NPT"
    p = detect(product_00(), a)
    assert p.verdict == "not-detected"
    assert abs(p.value - 1 / 3) < 1e-12
    assert p.ppt == "PPT"


def test_detect_boundary_werner():
    a = aew(transpose_witness(2))
    res = detect(werner_boundary(), a)
    assert res.verdict == "boundary"
    assert abs(res.value - 1 / 6) < 1e-12
    verdict, min_eig = ppt_check(werner_boundary(), [0])
    assert verdict == "PPT"
    assert abs(min_eig) < 1e-12


def test_detect_trusts_its_validated_input(monkeypatch):
    # the PPT cross-check is the only eigensolve; rho is not validated again
    # and, with the witness's dims, not wrapped again either
    cases = [
        (singlet(), aew(transpose_witness(2))),
        (tripartite_example_state(), multipartite_aew(3, 2, 0)),
    ]
    real = np.linalg.eigvalsh
    for rho, a in cases:
        calls = []
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda m: calls.append(m.shape) or real(m))
        counts = count_constructions(monkeypatch)
        detect(rho, a)
        monkeypatch.undo()
        assert calls == [(rho.dim, rho.dim)]
        assert counts == {"Ket": 0, "Operator": 0}


def test_detect_rewraps_only_a_state_with_other_factor_dims(monkeypatch):
    rho, a = DensityMatrix(singlet().mat), aew(transpose_witness(2))  # rho: one factor of dim 4
    counts = count_constructions(monkeypatch)
    res = detect(rho, a)
    assert counts == {"Ket": 0, "Operator": 1}
    assert (res.ppt, res.min_pt_eigenvalue) == ppt_check(singlet(), [0])


def test_ppt_check_transposes_a_factor_set_once(monkeypatch):
    calls = []
    real = witness.partial_transpose
    monkeypatch.setattr(witness, "partial_transpose", lambda m, s: calls.append(s) or real(m, s))
    rho = tripartite_example_state()
    ppt_check(rho, (0, 1))
    ppt_check(rho, 2)
    assert len(calls) == 2


def test_detect_dimension_guard():
    a = aew(transpose_witness(2))
    with pytest.raises(DomainError):
        detect(DensityMatrix(np.eye(2) / 2), a)


def test_separable_decomposition_sic_and_mub():
    sic = separable_decomposition_of_transpose_aew(sic_from_fiducial(builtin_fiducial(2)))
    assert len(sic.weights) == 4
    target = (np.eye(4) + swap_operator(2).mat) / 6
    assert np.linalg.norm(sic.reconstruct().mat - target) < 1e-10
    mub3 = separable_decomposition_of_transpose_aew(mub_prime(3))
    assert len(mub3.weights) == 12
    target3 = (np.eye(9) + swap_operator(3).mat) / 12
    assert np.linalg.norm(mub3.reconstruct().mat - target3) < 1e-10
    # the SIC decomposition is the smaller one
    assert len(sic.weights) < len(separable_decomposition_of_transpose_aew(mub_prime(2)).weights)


def test_separable_decomposition_rejects_bad_design():
    with pytest.raises(DomainError):
        separable_decomposition_of_transpose_aew(make_design(np.eye(2, dtype=complex)))


def test_locc_matches_direct_trace():
    dec = separable_decomposition_of_transpose_aew(sic_from_fiducial(builtin_fiducial(2)))
    target = dec.reconstruct()
    assert abs(locc_expectation(singlet(), dec)) < 1e-12
    assert abs(locc_expectation(DensityMatrix(np.eye(4) / 4, dims=(2, 2)), dec) - 0.25) < 1e-12
    for i in range(100):
        rho = haar_random_density(4, 60_000 + i, dims=(2, 2))
        assert abs(locc_expectation(rho, dec) - real_trace_product(rho, target)) < 1e-12


def test_locc_dimension_guard():
    dec = separable_decomposition_of_transpose_aew(sic_from_fiducial(builtin_fiducial(2)))
    with pytest.raises(DomainError):
        locc_expectation(DensityMatrix(np.eye(2) / 2), dec)


def test_ghz_ket():
    g = ghz_ket(3, 2)
    want = np.zeros(8)
    want[0] = want[7] = 1 / np.sqrt(2)
    assert np.abs(g.vec - want).max() < 1e-15
    g3 = ghz_ket(2, 3)
    assert abs(g3.norm() - 1.0) < 1e-12
    assert g3.dims == (3, 3)


def test_bipartite_multipartite_aew_reduces_to_cj_state():
    a = multipartite_aew(2, 2, 1)
    target = (np.eye(4) + swap_operator(2).mat) / 6
    assert np.abs(a.state.mat - target).max() < 1e-10
    assert abs(a.threshold - 1 / 6) < 1e-15
    # same construction on the first factor by symmetry of the target
    a0 = multipartite_aew(2, 2, 0)
    assert np.abs(a0.state.mat - target).max() < 1e-10


def test_multipartite_closed_form_conjugated_variant_matches_oracle():
    g = sic_from_fiducial(builtin_fiducial(2))
    a = multipartite_aew(3, 2, 0)
    plain, conj = multipartite_closed_forms(3, 2, 0, g)
    assert np.linalg.norm(conj.mat - a.state.mat) < 1e-10
    # the plain variant is the partial transpose of the oracle on the cut factor
    from transposim import partial_transpose

    assert np.linalg.norm(partial_transpose(Operator(a.state.mat, (2, 2, 2)), 0).mat - plain.mat) < 1e-10


def test_multipartite_aew_trace_one():
    for n, d in ((2, 2), (3, 2), (2, 3)):
        for cut in range(n):
            a = multipartite_aew(n, d, cut)
            assert abs(np.trace(a.state.mat) - 1.0) < 1e-10


def test_multipartite_aew_cut_guard():
    with pytest.raises(DomainError):
        multipartite_aew(3, 2, 3)
    with pytest.raises(DomainError):
        multipartite_aew(1, 2, 0)


@pytest.mark.parametrize("cut", [1.0, True, np.float64(0.0), "1", None])
def test_multipartite_cut_must_be_an_integer(cut):
    # 1.0 ended in a TypeError and True was stored as cut (True,)
    g = sic_from_fiducial(builtin_fiducial(2))
    with pytest.raises(DomainError):
        multipartite_aew(3, 2, cut)
    with pytest.raises(DomainError):
        multipartite_closed_forms(3, 2, cut, g)


def test_multipartite_cut_accepts_a_numpy_integer_and_stores_an_int():
    g = sic_from_fiducial(builtin_fiducial(2))
    a = multipartite_aew(3, 2, np.int64(1))
    assert a.cut == (1,) and type(a.cut[0]) is int
    assert np.array_equal(a.state.mat, multipartite_aew(3, 2, 1).state.mat)
    with pytest.raises(IndexError):
        multipartite_closed_forms(3, 2, 3, g)


@pytest.mark.parametrize("n, d", [(7, 2), (9, 2), (2, 9), (4, 3), (10**9, 2)])
def test_the_multipartite_witness_refuses_a_total_dimension_over_64(n, d):
    # multipartite_aew(7, 2, 0) built a 128-dimensional state; the refusal allocates nothing
    g = sic_from_fiducial(builtin_fiducial(2))
    tracemalloc.start()
    try:
        for build in (lambda: ghz_ket(n, d), lambda: multipartite_aew(n, d, 0),
                      lambda: multipartite_closed_forms(n, d, 0, g)):
            with pytest.raises(DomainError, match="total dimension limit 64"):
                build()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100_000


@pytest.mark.parametrize("n, d", [(6, 2), (3, 4), (2, 8)])
def test_a_total_dimension_of_64_is_accepted(n, d):
    assert ghz_ket(n, d).dims == (d,) * n


@pytest.mark.parametrize("n, d", [(1, 2), (0, 2), (3, 1), (2.0, 2), (3, 2.0), (True, 2)])
def test_multipartite_closed_forms_checks_parties_and_dimension(n, d):
    # (2.0, 2) ended in a TypeError and (1, 2) returned a 2x2 operator
    g = sic_from_fiducial(builtin_fiducial(2))
    with pytest.raises(DomainError):
        multipartite_closed_forms(n, d, 0, g)


def test_multipartite_oracle_design_independence():
    # realize the local channel through a design measurement instead of the formula
    _, ch = measure_prepare_from_design(mub_prime(2))
    ghz = ghz_ket(3, 2)
    ghz_dm = DensityMatrix(np.outer(ghz.vec, ghz.vec.conj()), dims=(2, 2, 2))
    via_design = apply_to_factor(ch, ghz_dm, 0)
    a = multipartite_aew(3, 2, 0)
    assert np.abs(via_design.mat - a.state.mat).max() < 1e-10


def test_tripartite_state_spectrum_and_symmetry():
    rho = tripartite_example_state()
    assert abs(np.trace(rho.mat) - 1.0) < 1e-14
    eigs = np.sort(np.linalg.eigvalsh(rho.mat))
    want = np.sort([1 / 3, 1 / 6, 1 / 6, 1 / 6, 1 / 6, 0, 0, 0])
    assert np.abs(eigs - want).max() < 1e-12
    swapped = permute_subsystems(rho, [0, 2, 1])
    assert np.abs(swapped.mat - rho.mat).max() < 1e-12


def test_tripartite_ppt_pattern():
    rho = tripartite_example_state()
    verdict_a, min_a = ppt_check(rho, [0])
    assert verdict_a == "NPT" and min_a < -0.1
    assert ppt_check(rho, [1])[0] == "PPT"
    assert ppt_check(rho, [2])[0] == "PPT"


def oracle_value_via_matrix_units():
    """Independent derivation: expand the local channel on the GHZ matrix units."""
    rho = tripartite_example_state().mat
    witness = np.zeros((8, 8), dtype=complex)
    for i in range(2):
        for j in range(2):
            unit = np.zeros((2, 2), dtype=complex)
            unit[i, j] = 1.0
            image = (unit.T + np.trace(unit) * np.eye(2)) / 3  # approximate transpose at d=2
            rest = np.zeros((4, 4), dtype=complex)
            rest[3 * i, 3 * j] = 1.0  # |ii><jj| on the two remaining qubits
            witness += 0.5 * np.kron(image, rest)
    return float(np.real(np.trace(rho @ witness)))


def test_tripartite_example_values():
    rep = evaluate_tripartite_example()
    by_cut = {c.cut: c for c in rep.cuts}
    assert abs(by_cut["B|CA"].value - 1 / 6) < 1e-10
    assert abs(by_cut["C|AB"].value - 1 / 6) < 1e-10
    assert by_cut["B|CA"].verdict == "boundary"
    assert by_cut["C|AB"].verdict == "boundary"
    a = by_cut["A|BC"]
    assert a.verdict == "detected"
    assert a.value < 1 / 6
    assert abs(a.value - 1 / 9) < 1e-10
    assert abs(a.value - oracle_value_via_matrix_units()) < 1e-12
    assert a.ppt == "NPT"
    assert by_cut["B|CA"].ppt == "PPT"
    assert any("1/18" in note for note in rep.notes)


def test_product_state_caveat():
    a = multipartite_aew(3, 2, 0)
    v = kron_ket(kron_ket(basis_ket(2, 0), basis_ket(2, 1)), basis_ket(2, 0))
    rho = DensityMatrix(np.outer(v.vec, v.vec.conj()), dims=(2, 2, 2))
    res = detect(rho, a, cut_label="A|BC")
    assert abs(res.value) < 1e-12
    assert res.verdict == "detected"
    assert res.ppt == "PPT"
    assert res.caveat


def test_soundness_sweep():
    a = aew(transpose_witness(2))
    for i in range(300):
        rho = haar_random_density(4, 10_000 + i, dims=(2, 2))
        res = detect(rho, a)
        if res.verdict == "detected":
            assert res.ppt == "NPT"


def test_ppt_check_basics():
    assert ppt_check(singlet(), [0]) == ("NPT", pytest.approx(-0.5, abs=1e-12))
    assert ppt_check(product_00(), [0])[0] == "PPT"
    with pytest.raises(DomainError):
        ppt_check(singlet(), [])


def test_ppt_check_refuses_repeated_and_non_integer_subsystems():
    rho = DensityMatrix(np.eye(4) / 4, dims=(2, 2))
    # [0, 0] used to transpose party 0 twice and report rho's own spectrum as PPT
    for cut in ([0, 0], 0.5, True, [1.0], "0"):
        with pytest.raises(DomainError):
            ppt_check(rho, cut)
    for cut in (2, [-1], [0, 2]):
        with pytest.raises(IndexError):
            ppt_check(rho, cut)
    assert ppt_check(singlet(), np.int64(1)) == ppt_check(singlet(), 1)
    assert ppt_check(singlet(), [np.int32(0)]) == ppt_check(singlet(), [0])


def bits(x) -> bytes:
    return np.float64(x).tobytes()


def ref_partial_transpose(m, dims, sub):
    n = len(dims)
    return m.reshape(dims + dims).swapaxes(sub, sub + n).reshape(m.shape)


def ref_detect(rho, a, subs):
    """The detection path written out: value, threshold rule, then the PPT test
    by sequential single-factor transposes, (m + m^dag)/2 and eigvalsh."""
    value = float(np.real(np.sum(rho.mat.T * a.state.mat)))
    t = a.threshold
    if abs(value - t) <= 1e-9:
        verdict = "boundary"
    else:
        verdict = "detected" if value < t else "not-detected"
    m = rho.mat
    for s in subs:
        m = ref_partial_transpose(m, a.state.dims, s)
    min_eig = float(np.linalg.eigvalsh((m + m.conj().T) / 2)[0])
    ppt = "NPT" if min_eig < -1e-9 else "PPT"
    return bits(value), verdict, ppt, bits(min_eig), verdict == "detected" and ppt == "PPT"


@functools.lru_cache(maxsize=None)
def parity_witnesses(dims):
    if len(dims) == 2:
        return (aew(transpose_witness(dims[0])),)
    return tuple(multipartite_aew(3, dims[0], c) for c in range(3))


def seeded_state(dims, rank, seed):
    rng = np.random.default_rng(seed)
    big_d = int(np.prod(dims))
    a = rng.standard_normal((big_d, rank)) + 1j * rng.standard_normal((big_d, rank))
    rho = a @ a.conj().T
    return DensityMatrix(rho / np.trace(rho).real, dims=dims)


@pytest.mark.parametrize("dims", [(2, 2), (3, 3), (2, 2, 2), (4, 4, 4)])
def test_detection_matches_sequential_transposes_bit_for_bit(dims):
    wits = parity_witnesses(dims)
    factor_sets = [(0, 1)] if len(dims) == 2 else [(0, 1), (0, 2)]
    seen = set()
    big_d = int(np.prod(dims))
    states = [seeded_state(dims, rank, 1000 * big_d + rank) for rank in range(1, big_d + 1)]
    # white noise makes the last ones PPT across every cut
    states += [DensityMatrix(0.05 * states[-1].mat + 0.95 * np.eye(big_d) / big_d, dims=dims),
               DensityMatrix(np.eye(big_d) / big_d, dims=dims)]
    for rank, rho in enumerate(states, start=1):
        for a in wits:
            r = detect(rho, a)
            got = (bits(r.value), r.verdict, r.ppt, bits(r.min_pt_eigenvalue), r.caveat)
            assert got == ref_detect(rho, a, a.cut), (rank, a.cut)
            seen.add(r.ppt)
        # every single-factor cut and the multi-factor ones, through ppt_check itself
        for subs in [(s,) for s in range(len(dims))] + factor_sets:
            ppt, min_eig = ppt_check(rho, subs)
            assert (ppt, bits(min_eig)) == ref_detect(rho, wits[0], subs)[2:4], (rank, subs)
            seen.add(ppt)
    assert seen == {"NPT", "PPT"}


def test_detection_parity_reaches_every_verdict():
    # a witness state whose threshold sits on tr{rho rho_W} of the maximally mixed state
    mixed = DensityMatrix(np.eye(4) / 4, dims=(2, 2))
    a = aew(transpose_witness(2))
    on_band = ApproxWitness(state=a.state, p_min=a.p_min, threshold=0.25, cut=(0,))
    for w, rho, verdict in ((a, singlet(), "detected"), (a, product_00(), "not-detected"),
                            (on_band, mixed, "boundary")):
        r = detect(rho, w)
        assert r.verdict == verdict
        assert (bits(r.value), r.verdict, r.ppt, bits(r.min_pt_eigenvalue), r.caveat) == \
            ref_detect(rho, w, w.cut)


def test_report_serialization():
    rep = evaluate_tripartite_example()
    doc = report_to_dict(rep)
    assert set(doc) >= {"cuts", "caveats"}
    assert len(doc["cuts"]) == 3
    for entry in doc["cuts"]:
        assert set(entry) == {"cut", "value", "threshold", "verdict", "ppt"}
