import numpy as np
import pytest

from transposim import (
    DensityMatrix,
    DomainError,
    aew,
    detect_with_confidence,
    haar_random_density,
    hoeffding_epsilon,
    real_trace_product,
    sample_overlap,
    swap_test_probability,
    transpose_witness,
)


def singlet():
    v = np.zeros(4, dtype=complex)
    v[1], v[2] = 1 / np.sqrt(2), -1 / np.sqrt(2)
    return DensityMatrix(np.outer(v, v.conj()), dims=(2, 2))


def pure(vec):
    vec = np.asarray(vec, dtype=complex)
    vec = vec / np.linalg.norm(vec)
    return DensityMatrix(np.outer(vec, vec.conj()))


def test_probability_equal_pure_states():
    rho = pure([1.0, 1.0])
    assert abs(swap_test_probability(rho, rho) - 1.0) < 1e-15


def test_probability_orthogonal_states():
    assert abs(swap_test_probability(pure([1, 0]), pure([0, 1])) - 0.5) < 1e-15


def test_probability_singlet_vs_witness_state():
    a = aew(transpose_witness(2))
    assert abs(swap_test_probability(singlet(), a.state) - 0.5) < 1e-15


def test_probabilities_sum_to_one():
    for i in range(20):
        rho = haar_random_density(4, 300 + i, dims=(2, 2))
        sig = haar_random_density(4, 400 + i, dims=(2, 2))
        p0 = swap_test_probability(rho, sig)
        tr = real_trace_product(rho, sig)
        assert abs(p0 - (1 + tr) / 2) < 1e-15
        assert abs(p0 + (1 - tr) / 2 - 1.0) < 1e-15


def test_probability_dimension_guard():
    with pytest.raises(DomainError):
        swap_test_probability(pure([1, 0]), singlet())


def test_sampling_determinism():
    a = aew(transpose_witness(2))
    r1 = sample_overlap(singlet(), a.state, 1000, seed=3)
    r2 = sample_overlap(singlet(), a.state, 1000, seed=3)
    assert r1 == r2
    assert r1.zeros <= r1.shots
    assert abs(r1.estimate - (2 * r1.zeros / r1.shots - 1)) < 1e-15
    lo, hi = r1.confidence_interval
    assert lo <= r1.estimate <= hi


def test_sampling_pure_state_no_variance():
    rho = pure([1.0, 1j])
    res = sample_overlap(rho, rho, 500, seed=0)
    assert res.zeros == 500
    assert res.estimate == 1.0
    assert res.std_error == 0.0


def test_sampling_zero_shots_guard():
    with pytest.raises(DomainError):
        sample_overlap(singlet(), singlet(), 0, seed=0)


def test_sampling_concentration():
    # overlap 0 means p0 = 1/2; 4 standard errors at 1e5 shots is about 0.0127
    a = aew(transpose_witness(2))
    bound = 4 * 2 * np.sqrt(0.25 / 100_000)
    hits = sum(
        abs(sample_overlap(singlet(), a.state, 100_000, seed).estimate) < bound
        for seed in range(100)
    )
    assert hits >= 95


def test_exactness_link_at_high_shots():
    a = aew(transpose_witness(2))
    rho = haar_random_density(4, 12, dims=(2, 2))
    exact = real_trace_product(rho, a.state)
    p0 = (1 + exact) / 2
    se = 2 * np.sqrt(p0 * (1 - p0) / 1_000_000)
    hits = sum(
        abs(sample_overlap(rho, a.state, 1_000_000, seed).estimate - exact) < 5 * se
        for seed in range(100)
    )
    assert hits >= 99


def test_hoeffding_width_monotone():
    widths = [hoeffding_epsilon(n, 0.99) for n in (10, 100, 1000, 10_000)]
    assert all(a > b for a, b in zip(widths, widths[1:]))


def test_hoeffding_guards():
    with pytest.raises(DomainError):
        hoeffding_epsilon(0, 0.5)
    with pytest.raises(DomainError):
        hoeffding_epsilon(10, 1.5)


def test_confident_detection_of_singlet():
    a = aew(transpose_witness(2))
    res = detect_with_confidence(singlet(), a, shots=10_000, seed=0, level=0.99)
    assert res.verdict == "detected"
    assert res.upper_bound < a.threshold
    # the half width at this level is about 0.0304, far below the 1/6 gap
    assert res.upper_bound - res.lower_bound < 0.07


def test_boundary_state_is_inconclusive():
    a = aew(transpose_witness(2))
    werner = DensityMatrix(singlet().mat / 3 + (2 / 3) * np.eye(4) / 4, dims=(2, 2))
    outcomes = [
        detect_with_confidence(werner, a, shots=10_000, seed=seed, level=0.99).verdict
        for seed in range(100)
    ]
    assert outcomes.count("inconclusive") >= 90


def test_not_detected_with_confidence():
    a = aew(transpose_witness(2))
    rho = DensityMatrix(np.diag([1.0, 0, 0, 0]), dims=(2, 2))  # value 1/3 > 1/6
    res = detect_with_confidence(rho, a, shots=100_000, seed=1, level=0.99)
    assert res.verdict == "not-detected"


def test_confidence_level_guard():
    a = aew(transpose_witness(2))
    with pytest.raises(DomainError):
        detect_with_confidence(singlet(), a, shots=100, seed=0, level=1.5)
    with pytest.raises(DomainError):
        detect_with_confidence(singlet(), a, shots=100, seed=0, level=0.0)


def test_estimate_unbiasedness():
    # average over many seeds approaches the exact overlap
    a = aew(transpose_witness(2))
    rho = haar_random_density(4, 77, dims=(2, 2))
    exact = real_trace_product(rho, a.state)
    estimates = [
        sample_overlap(rho, a.state, 2000, seed).estimate for seed in range(300)
    ]
    se = 2 * np.sqrt(0.25 / 2000 / 300)
    assert abs(np.mean(estimates) - exact) < 5 * se


def test_a_shot_count_numpy_cannot_sample_is_refused():
    # 2**63 overflowed numpy's int64 binomial count with an OverflowError traceback
    a = aew(transpose_witness(2))
    for call in (
        lambda: hoeffding_epsilon(2**63, 0.99),
        lambda: sample_overlap(singlet(), singlet(), 2**63, 0),
        lambda: detect_with_confidence(singlet(), a, shots=2**63, seed=0),
    ):
        with pytest.raises(DomainError, match="shot count"):
            call()
    # the largest count numpy takes is sampled
    res = sample_overlap(singlet(), a.state, 2**63 - 1, 0)
    assert res.shots == 2**63 - 1 and type(res.shots) is int
