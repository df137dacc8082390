import itertools
import time
import tracemalloc

import numpy as np
import pytest

from transposim import (
    Design,
    DomainError,
    Ket,
    NotPrimeError,
    NotSICError,
    ParseError,
    SearchFailed,
    ValidationError,
    approx_transpose,
    builtin_fiducial,
    fiducial_search,
    frame_potential,
    haar_random_density,
    hw_orbit,
    load_fiducial,
    mub_prime,
    orbit_certificate,
    phase_free_distance,
    save_fiducial,
    sic_from_fiducial,
    swap_operator,
    transpose_witness,
    two_design_frame_potential,
)
from transposim import channels, designs, linalg, witness
from transposim.designs import Fiducial, _orbit_fp_and_grad, _overlap_dev_and_grad
from transposim.fileio import write_json
from test_kernels import ref_weyl_pair


@pytest.mark.parametrize("d", range(2, 13))
def test_identity_plus_swap_is_real_and_bit_identical(d):
    got = designs._identity_plus_swap(d)
    ref = (np.eye(d * d) + swap_operator(d).mat) / (d * (d + 1))
    assert got.dtype == np.float64
    assert not ref.imag.any()
    assert got.tobytes() == ref.real.tobytes()


# the dense shift/clock pair is the tests' oracle (`ref_weyl_pair`); the
# package applies the group action by index arithmetic in `_weyl_orbit`
def test_weyl_pair_qubit():
    x, z = ref_weyl_pair(2)
    assert np.array_equal(x, np.array([[0, 1], [1, 0]]))
    assert np.abs(z - np.diag([1.0, -1.0])).max() < 1e-15


def test_weyl_commutation_d3():
    x, z = ref_weyl_pair(3)
    lhs = z @ x @ np.linalg.inv(z) @ np.linalg.inv(x)
    assert np.abs(lhs - np.exp(2j * np.pi / 3) * np.eye(3)).max() < 1e-12


@pytest.mark.parametrize("d", [2, 3, 4, 5, 7])
def test_weyl_cyclicity(d):
    x, z = ref_weyl_pair(d)
    assert np.abs(np.linalg.matrix_power(x, d) - np.eye(d)).max() < 1e-12
    assert np.abs(np.linalg.matrix_power(z, d) - np.eye(d)).max() < 1e-12


def test_weyl_pair_guard():
    with pytest.raises(DomainError, match="dimension >= 2"):
        designs._weyl_orbit(np.ones(1, dtype=complex))


def test_sic_qubit_overlaps():
    g = sic_from_fiducial(builtin_fiducial(2))
    assert g.n == 4
    arr = g.vector_stack
    for j, k in itertools.combinations(range(4), 2):
        assert abs(abs(np.vdot(arr[j], arr[k])) ** 2 - 1 / 3) < 1e-12


def test_sic_qutrit_overlaps():
    g = sic_from_fiducial(builtin_fiducial(3))
    assert g.n == 9
    arr = g.vector_stack
    for j, k in itertools.combinations(range(9), 2):
        assert abs(abs(np.vdot(arr[j], arr[k])) ** 2 - 1 / 4) < 1e-12


@pytest.mark.parametrize("d, n", [(2, 3), (3, 2)])
def test_fiducial_refuses_a_vector_of_another_dimension(d, n):
    with pytest.raises(DomainError, match=f"dimension {n}, expected {d}"):
        Fiducial(d, Ket(np.eye(n)[0]))


@pytest.mark.parametrize("ket, name", [(np.array([1, 0]), "ndarray"), ([1, 0], "list"),
                                       (None, "NoneType")], ids=["ndarray", "list", "None"])
def test_fiducial_refuses_a_ket_that_is_not_a_ket(ket, name):
    # each used to end in AttributeError: ... has no attribute 'dim'
    with pytest.raises(DomainError, match=f"must be a Ket, got {name}"):
        Fiducial(2, ket)


def test_sic_rejects_basis_fiducial():
    # Z|0> = |0>, so the orbit collides and the overlap is 1 instead of 1/3
    with pytest.raises(NotSICError) as err:
        sic_from_fiducial(Fiducial(2, Ket([1.0, 0.0])))
    assert err.value.deviation > 0.1
    assert err.value.worst_pair[0] != err.value.worst_pair[1]


def test_mub_qubit_is_pauli_eigenbases():
    g = mub_prime(2)
    assert g.n == 6
    arr = g.vector_stack
    s = 1 / np.sqrt(2)
    expected = [
        [1, 0], [0, 1], [s, s], [s, -s], [s, 1j * s], [s, -1j * s],
    ]
    for got, want in zip(arr, expected):
        assert phase_free_distance(got, np.array(want, dtype=complex)) < 1e-12


@pytest.mark.parametrize("d", [2, 3, 5, 7])
def test_mub_overlap_structure(d):
    g = mub_prime(d)
    assert g.n == d * (d + 1)
    arr = g.vector_stack
    for b1 in range(d + 1):
        basis1 = arr[b1 * d:(b1 + 1) * d]
        gram = basis1 @ basis1.conj().T
        assert np.abs(gram - np.eye(d)).max() < 1e-12
        for b2 in range(b1 + 1, d + 1):
            basis2 = arr[b2 * d:(b2 + 1) * d]
            cross = np.abs(basis1 @ basis2.conj().T) ** 2
            assert np.abs(cross - 1 / d).max() < 1e-10


def test_mub_rejects_non_prime():
    with pytest.raises(NotPrimeError):
        mub_prime(4)
    with pytest.raises(NotPrimeError):
        mub_prime(1)


def test_two_design_check_passes_for_sic_and_mub():
    assert sic_from_fiducial(builtin_fiducial(2)).two_design_residual < 1e-10
    assert mub_prime(3).two_design_residual < 1e-10


def test_two_design_check_fails_for_computational_basis():
    g = Design(np.eye(2, dtype=complex))
    assert g.two_design_residual > 0.1


def test_a_design_derives_its_dimension_and_certificates_from_its_vectors():
    # Design(3, np.eye(2), ...) held d = 3 for vectors of length 2
    g = Design(np.eye(2), kind="basis")
    assert (g.d, g.n, g.kind) == (2, 2, "basis") and type(g.d) is int
    assert g.two_design_residual == designs.two_design_residual(g.vector_stack, 2)
    assert g.coherence_residual == designs.coherence_residual(g.vector_stack, 2)
    assert Design(np.eye(2)).kind == "custom"
    with pytest.raises(TypeError):
        Design(3, np.eye(2), "custom", 0.0, 0.0)


def test_coherence_sums():
    g2 = sic_from_fiducial(builtin_fiducial(2))
    arr = g2.vector_stack
    total = sum(np.outer(v, v.conj()) for v in arr)
    assert np.abs(total - 2 * np.eye(2)).max() < 1e-10
    m2 = mub_prime(2)
    total = sum(np.outer(v, v.conj()) for v in m2.vector_stack)
    assert np.abs(total - 3 * np.eye(2)).max() < 1e-10


def test_coherence_fails_for_skewed_family():
    s = 1 / np.sqrt(2)
    g = Design(np.array([[1, 0], [0, 1], [s, s]], dtype=complex))
    # projector sum has equal diagonal 3/2 but off-diagonal 1/2
    assert g.coherence_residual > 0.5


def test_frame_potentials():
    assert abs(frame_potential(sic_from_fiducial(builtin_fiducial(2))) - 16 / 3) < 1e-10
    assert abs(frame_potential(mub_prime(2)) - 12.0) < 1e-10
    single = Design(np.array([[1.0, 0.0]], dtype=complex))
    assert abs(frame_potential(single) - 1.0) < 1e-15


def test_two_design_iff_frame_potential_minimum():
    for g in (sic_from_fiducial(builtin_fiducial(2)), mub_prime(2), mub_prime(3)):
        assert g.two_design_residual < 1e-10
        assert abs(frame_potential(g) - two_design_frame_potential(g.n, g.d)) < 1e-9
    basis = Design(np.eye(2, dtype=complex))
    assert basis.two_design_residual > 1e-10
    assert abs(frame_potential(basis) - two_design_frame_potential(2, 2)) > 1e-9


def test_conjugate_design_also_passes():
    g = sic_from_fiducial(builtin_fiducial(2))
    conj = Design(g.vector_stack.conj())
    assert conj.two_design_residual < 1e-10


def test_hw_covariance():
    f = builtin_fiducial(2)
    orbit = hw_orbit(f)
    x, _ = ref_weyl_pair(2)
    d = 2
    for k in range(d):
        for l in range(d):
            shifted = x @ orbit[k * d + l]
            target = orbit[((k + 1) % d) * d + l]
            assert phase_free_distance(shifted, target) < 1e-12


def test_design_cardinality_bound():
    g = sic_from_fiducial(builtin_fiducial(2))
    assert g.n >= g.d * (g.d + 1) // 2


@pytest.mark.parametrize(
    "build",
    [
        lambda: Design(np.eye(65)),
        lambda: sic_from_fiducial(Fiducial(101, Ket(np.eye(101)[0]))),
        lambda: approx_transpose(65),
        lambda: transpose_witness(65),
        lambda: swap_operator(65),
        lambda: haar_random_density(65, 0),
    ],
    ids=["Design", "sic_from_fiducial", "approx_transpose", "transpose_witness",
         "swap_operator", "haar_random_density"],
)
def test_designs_beyond_dimension_64_are_refused_before_allocation(build, monkeypatch):
    def no_allocation(*args):
        raise AssertionError("a d^4 check ran")

    monkeypatch.setattr(designs, "_pair_projector_sum", no_allocation)
    monkeypatch.setattr(designs, "hw_orbit", no_allocation)
    # the channels' d^2 x d^2 CJ matrices
    monkeypatch.setattr(channels, "_identity_plus_swap", no_allocation)
    monkeypatch.setattr(channels, "Channel", no_allocation)
    monkeypatch.setattr(witness, "swap_operator", no_allocation)
    # swap_operator's identity on the doubled space, haar_random_density's projector on it
    eye = np.eye

    def small_eye(n, *args, **kwargs):
        return no_allocation() if n > 64 * 64 else eye(n, *args, **kwargs)

    monkeypatch.setattr(np, "eye", small_eye)
    monkeypatch.setattr(linalg, "outer", no_allocation)
    with pytest.raises(DomainError, match="limited to dimension <= 64"):
        build()


@pytest.mark.parametrize("objective", [_orbit_fp_and_grad, _overlap_dev_and_grad])
def test_search_gradients_match_finite_differences(objective):
    d = 3
    rng = np.random.default_rng(4)
    x = rng.standard_normal(2 * d)
    _, grad = objective(x, d)
    eps = 1e-6
    for i in range(2 * d):
        dx = np.zeros_like(x)
        dx[i] = eps
        fp, _ = objective(x + dx, d)
        fm, _ = objective(x - dx, d)
        assert abs((fp - fm) / (2 * eps) - grad[i]) < 1e-5


@pytest.mark.parametrize("objective", [_orbit_fp_and_grad, _overlap_dev_and_grad])
def test_search_objective_at_dimension_32_holds_no_d4_array(objective):
    d = 32
    x = np.random.default_rng(1).standard_normal(2 * d)
    objective(x, d)  # warm up numpy's lazily created internals
    tracemalloc.start()
    try:
        objective(x, d)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a (d^2, d, d) complex stack alone is 16 MiB; the orbit is 0.5 MiB
    assert peak < 4 * 2**20


def _quadratic(x):
    a = np.array([[4.0, 1.0, 0.0], [1.0, 3.0, 0.5], [0.0, 0.5, 2.0]])
    e = x - np.array([1.0, -2.0, 0.5])
    return 0.5 * e @ a @ e, a @ e


def _rosenbrock(x):
    r = x[1] - x[0] ** 2
    f = (1 - x[0]) ** 2 + 100 * r**2
    return f, np.array([-2 * (1 - x[0]) - 400 * x[0] * r, 200 * r])


@pytest.mark.parametrize(
    "fun, x0, x_min",
    [(_quadratic, np.zeros(3), np.array([1.0, -2.0, 0.5])),
     (_rosenbrock, np.array([-1.2, 1.0]), np.ones(2))],
    ids=["quadratic", "rosenbrock"],
)
def test_minimize_reaches_the_gradient_tolerance(fun, x0, x_min):
    res = designs.minimize(fun, x0, maxiter=1000, ftol=0.0, gtol=1e-10)
    assert np.abs(fun(res.x)[1]).max() <= 1e-10
    assert np.allclose(res.x, x_min, atol=1e-8)
    assert 0 < res.nit < 1000


def test_minimize_stops_at_maxiter():
    res = designs.minimize(_rosenbrock, np.array([-1.2, 1.0]), maxiter=1)
    assert res.nit == 1


def test_minimize_is_bit_identical_across_runs():
    d = 5
    x0 = np.random.default_rng(2).standard_normal(2 * d)
    runs = [designs.minimize(_orbit_fp_and_grad, x0, args=(d,), maxiter=800,
                             ftol=1e-18, gtol=1e-14) for _ in range(2)]
    assert runs[0].x.tobytes() == runs[1].x.tobytes()
    assert runs[0].nit == runs[1].nit


def test_fiducial_search_certifies_small_dimensions_quickly():
    start = time.perf_counter()
    for d in range(2, 9):
        for seed in range(3):
            excess, dev = orbit_certificate(fiducial_search(d, seed=seed))
            assert abs(excess) < 1e-10 and dev < 1e-10, (d, seed)
    assert time.perf_counter() - start < 1.0


def test_fiducial_search_qubit():
    f = fiducial_search(2, seed=0)
    excess, dev = orbit_certificate(f)
    assert abs(excess) < 1e-10
    assert dev < 1e-6


def test_fiducial_search_budget_exhaustion():
    with pytest.raises(SearchFailed) as err:
        fiducial_search(4, seed=0, max_iters=1)
    assert err.value.best_residual > 0


def test_fiducial_file_roundtrip(tmp_path):
    f = builtin_fiducial(2)
    path = tmp_path / "fid.json"
    save_fiducial(f, str(path))
    back = load_fiducial(str(path))
    assert np.array_equal(back.ket.vec, f.ket.vec)
    assert back.d == 2


def test_load_rejects_malformed(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(ParseError):
        load_fiducial(str(path))
    path.write_text('{"dim": 2}')
    with pytest.raises(ParseError):
        load_fiducial(str(path))
    path.write_text('{"dim": 2, "vectors": [[[0.7, 0.0], [0.7, 0.0]]]}')
    with pytest.raises(ValidationError):
        load_fiducial(str(path))


UNIT, SHORT = [[1.0, 0.0], [0.0, 0.0]], [[0.6, 0.0], [0.0, 0.7]]


@pytest.mark.parametrize(
    "vectors, error, match",
    [
        ([UNIT, SHORT], ParseError, "exactly one vector, found 2"),   # count before norm
        ([SHORT, UNIT, UNIT], ParseError, "exactly one vector, found 3"),
        ([], ParseError, "exactly one vector, found 0"),
        ([UNIT, [[1.0, 0.0]]], ParseError, "exactly one vector, found 2"),  # count before length
        ([[[0.6, 0.0]]], ParseError, "vector 0 has length 1, expected 2"),  # length before norm
    ],
    ids=["two-unnormalized", "three", "none", "two-short", "short-length"],
)
def test_a_fiducial_file_is_checked_for_count_then_length_then_norm(
    tmp_path, vectors, error, match
):
    path = tmp_path / "fiducial.json"
    write_json({"dim": 2, "vectors": vectors}, str(path))
    with pytest.raises(error, match=match):
        load_fiducial(str(path))
