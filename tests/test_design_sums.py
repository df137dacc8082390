"""One kernel for every design sum sum_k w_k A_k (x) B_k, against references written out here.

`linalg._kron_sum` computes the sum as one matrix product.  The measure-and-
prepare CJ matrix, the reconstruction of a separable decomposition and the
multipartite closed forms all go through it; the LOCC value does not, since
it must stay an independent per-term sum.  Each reference below is the
one-term-at-a-time form and shares no code with the package.
"""

import dataclasses

import numpy as np
import pytest

from transposim import (
    DomainError,
    SeparableDecomposition,
    builtin_fiducial,
    haar_random_density,
    locc_expectation,
    measure_prepare_from_design,
    mub_prime,
    multipartite_aew,
    multipartite_closed_forms,
    separable_decomposition_of_transpose_aew,
    sic_from_fiducial,
)
from transposim import channels, linalg, witness
from transposim.witness import ApproxWitness


def random_stack(rng, n, a):
    return rng.standard_normal((n, a, a)) + 1j * rng.standard_normal((n, a, a))


def projector_stack(vectors):
    return np.array([np.outer(v, v.conj()) for v in vectors])


def design(name):
    if name.startswith("SIC"):
        return sic_from_fiducial(builtin_fiducial(int(name[-1])))
    return mub_prime(int(name[-1]))


# ---------------------------------------------------------------------------
# the kernel
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n, a, b", [(1, 2, 3), (1, 3, 2), (4, 2, 3), (7, 3, 2), (5, 4, 1)])
def test_kron_sum_matches_kron_loop(n, a, b):
    rng = np.random.default_rng(100 * n + 10 * a + b)
    left, right = random_stack(rng, n, a), random_stack(rng, n, b)
    want = np.zeros((a * b, a * b), dtype=complex)
    for k in range(n):
        want += np.kron(left[k], right[k])
    got = linalg._kron_sum(left, right)
    assert got.shape == (a * b, a * b)
    assert np.abs(got - want).max() < 1e-12


def prior_inline_cj(effects, preps):
    """The measure-and-prepare CJ product as it was written before the kernel."""
    n, d = len(effects), effects.shape[1]
    projectors = preps[:, :, None] * preps[:, None, :].conj()
    t = effects.transpose(0, 2, 1).reshape(n, d * d).T @ projectors.reshape(n, d * d)
    return (t / d).reshape(d, d, d, d).transpose(0, 2, 1, 3).reshape(d * d, d * d)


@pytest.mark.parametrize("name", ["SIC d=2", "SIC d=3", "MUB d=2", "MUB d=5", "MUB d=7"])
def test_measure_prepare_cj_is_bit_identical_to_the_prior_product(name):
    mp, ch = measure_prepare_from_design(design(name))
    assert ch.cj.mat.tobytes() == prior_inline_cj(mp.effect_stack, mp.preparation_stack).tobytes()


# ---------------------------------------------------------------------------
# the separable decomposition
# ---------------------------------------------------------------------------


def ref_reconstruct(weights, left, right):
    return sum(q * np.kron(t, s) for q, t, s in zip(weights, left, right))


def ref_locc(rho, weights, left, right):
    a, b = left.shape[1], right.shape[1]
    r = rho.mat.reshape(a, b, a, b)
    total = 0.0
    for q, tau, sig in zip(weights, left, right):
        total += q * float(np.real(np.einsum("abcd,ca,db->", r, tau, sig)))
    return total


@pytest.mark.parametrize("name", ["SIC d=2", "SIC d=3", "MUB d=2", "MUB d=3"])
def test_decomposition_stacks_reconstruct_and_locc_match_term_loops(name):
    g = design(name)
    dec = separable_decomposition_of_transpose_aew(g)
    projectors = projector_stack(g.vector_stack)
    assert dec.left_stack.shape == dec.right_stack.shape == (g.n, g.d, g.d)
    assert np.abs(dec.left_stack - projectors).max() < 1e-15
    got = dec.reconstruct()
    assert got.dims == (g.d, g.d)
    assert np.abs(got.mat - ref_reconstruct(dec.weights, projectors, projectors)).max() < 1e-15
    for seed in range(20):
        rho = haar_random_density(g.d * g.d, 80_000 + seed, dims=(g.d, g.d))
        want = ref_locc(rho, dec.weights, projectors, projectors)
        assert abs(locc_expectation(rho, dec) - want) < 1e-15


def test_locc_on_unequal_factors_matches_the_term_loop():
    rng = np.random.default_rng(5)
    left = projector_stack(rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2)))
    right = projector_stack(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
    weights = np.array([0.5, 0.25, 0.25])
    dec = SeparableDecomposition(weights, left, right)
    assert dec.reconstruct().dims == (2, 3)
    rho = haar_random_density(6, 11, dims=(2, 3))
    assert abs(locc_expectation(rho, dec) - ref_locc(rho, weights, left, right)) < 1e-15
    assert np.abs(dec.reconstruct().mat - ref_reconstruct(weights, left, right)).max() < 1e-15


def test_locc_is_a_per_term_sum_independent_of_the_reconstruction(monkeypatch):
    dec = separable_decomposition_of_transpose_aew(design("SIC d=2"))
    rho = haar_random_density(4, 3, dims=(2, 2))
    want = locc_expectation(rho, dec)

    def refused(*args):
        raise AssertionError("the LOCC value read the reconstructed operator")

    monkeypatch.setattr(SeparableDecomposition, "reconstruct", refused)
    monkeypatch.setattr(witness, "_kron_sum", refused)
    assert locc_expectation(rho, dec) == want


def test_decomposition_holds_read_only_copies():
    left = projector_stack(np.eye(2, dtype=complex))
    weights = np.array([0.5, 0.5])
    dec = SeparableDecomposition(weights, left, left)
    for arr in (dec.weights, dec.left_stack, dec.right_stack):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 0
    weights[0], left[0, 0, 0] = 0.0, 7.0                 # the caller's arrays stay theirs
    assert weights.flags.writeable and left.flags.writeable
    assert dec.weights[0] == 0.5 and dec.left_stack[0, 0, 0] == 1.0


@pytest.mark.parametrize(
    "weights, n_left, n_right, match",
    [
        ([1.5, -0.5], 2, 2, "nonnegative"),
        ([0.5, 0.25], 2, 2, "sum to"),
        # NaN < 0 and |NaN - 1| > 1e-12 are both false, so this was accepted
        ([np.nan], 1, 1, "nonnegative"),
        ([np.inf, 0.0], 2, 2, "sum to"),
        ([0.5, 0.5], 2, 3, "equal length"),
        ([0.5, 0.5], 3, 3, "equal length"),
        ([[0.5, 0.5]], 2, 2, "equal length"),
    ],
)
def test_decomposition_refuses_bad_weights(weights, n_left, n_right, match):
    stack = projector_stack(np.eye(3, dtype=complex))
    with pytest.raises(DomainError, match=match):
        SeparableDecomposition(weights, stack[:n_left], stack[:n_right])


@pytest.mark.parametrize("shape", [(2, 2), (2, 2, 3), (2, 2, 2, 2)])
def test_decomposition_refuses_a_stack_that_is_not_square_matrices(shape):
    good = projector_stack(np.eye(2, dtype=complex))
    with pytest.raises(DomainError, match="factor stack"):
        SeparableDecomposition([0.5, 0.5], np.zeros(shape), good)
    with pytest.raises(DomainError, match="factor stack"):
        SeparableDecomposition([0.5, 0.5], good, np.zeros(shape))


# ---------------------------------------------------------------------------
# the multipartite closed forms
# ---------------------------------------------------------------------------


def ref_closed_forms(n, d, cut, vectors):
    """Per vector: kron(|c><c|, |psi><psi|) with psi = sum_j conj(s)_j |j...j>, then cut moved."""
    out = []
    for conjugate_cut in (False, True):
        total = np.zeros((d**n, d**n), dtype=complex)
        for s in vectors:
            psi = np.zeros(d ** (n - 1), dtype=complex)
            for j in range(d):
                psi[int("".join([str(j)] * (n - 1)), d)] = s[j].conjugate()
            c = s.conj() if conjugate_cut else s
            total += np.kron(np.outer(c, c.conj()), np.outer(psi, psi.conj()))
        total /= d * d
        order = [cut] + [i for i in range(n) if i != cut]        # party at each current axis
        axes = [order.index(q) for q in range(n)]
        t = total.reshape((d,) * (2 * n)).transpose(axes + [a + n for a in axes])
        out.append(t.reshape(d**n, d**n))
    return out


@pytest.mark.parametrize("n, d", [(2, 2), (3, 2), (4, 2), (5, 2), (6, 2), (3, 3)])
def test_closed_forms_match_the_per_vector_kron_form(n, d):
    g = sic_from_fiducial(builtin_fiducial(d))
    for cut in range(n):
        got = multipartite_closed_forms(n, d, cut, g)
        for op, want in zip(got, ref_closed_forms(n, d, cut, g.vector_stack)):
            assert op.dims == (d,) * n
            assert np.abs(op.mat - want).max() < 1e-15


@pytest.mark.parametrize("n, d", [(2, 2), (3, 2), (4, 2), (3, 3)])
def test_conjugated_closed_form_is_the_witness_state_and_the_plain_one_is_not(n, d):
    g = sic_from_fiducial(builtin_fiducial(d))
    for cut in range(n):
        state = multipartite_aew(n, d, cut).state.mat
        plain, conj = multipartite_closed_forms(n, d, cut, g)
        assert np.linalg.norm(conj.mat - state) < 1e-10
        assert np.linalg.norm(plain.mat - state) > 1e-3


def test_every_design_sum_goes_through_the_one_kernel(monkeypatch):
    calls = []
    kernel = linalg._kron_sum

    def spy(left, right):
        calls.append((left.shape, right.shape))
        return kernel(left, right)

    monkeypatch.setattr(witness, "_kron_sum", spy)
    monkeypatch.setattr(channels, "_kron_sum", spy)
    g = sic_from_fiducial(builtin_fiducial(2))
    measure_prepare_from_design(g)
    assert calls == [((4, 2, 2), (4, 2, 2))]
    separable_decomposition_of_transpose_aew(g).reconstruct()
    assert calls[1:] == [((4, 2, 2), (4, 2, 2))] * 2      # its residual check, then the call
    calls.clear()
    multipartite_closed_forms(3, 2, 1, g)
    assert calls == [((4, 2, 2), (4, 4, 4))] * 2


def test_the_witness_state_builds_no_closed_form(monkeypatch):
    want = multipartite_aew(3, 2, 0).state.mat

    def refused(*args):
        raise AssertionError("multipartite_aew assembled a closed form")

    monkeypatch.setattr(witness, "multipartite_closed_forms", refused)
    monkeypatch.setattr(witness, "_kron_sum", refused)
    assert multipartite_aew(3, 2, 0).state.mat.tobytes() == want.tobytes()
    assert "metadata" not in {f.name for f in dataclasses.fields(ApproxWitness)}
    assert not hasattr(witness, "_closed_form_term")


def test_a_design_passed_to_the_witness_state_changes_no_bit():
    # the benchmark's detect-stream workload still passes the qubit SIC
    # positionally; its state is the design-free one, approx transpose on the GHZ cut
    g = sic_from_fiducial(builtin_fiducial(2))
    ghz = witness.ghz_ket(3, 2).vec
    ghz_dm = linalg.DensityMatrix(np.outer(ghz, ghz.conj()), dims=(2, 2, 2))
    for cut in range(3):
        a = multipartite_aew(3, 2, cut, g)
        want = channels.apply_to_factor(channels.approx_transpose(2), ghz_dm, cut)
        assert a.state.mat.tobytes() == want.mat.tobytes()
        assert (a.threshold, a.cut) == (1 / 6, (cut,))
