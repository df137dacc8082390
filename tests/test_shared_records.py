"""One shared, checked record per small dimension; one integer rule for dimensions.

`approx_transpose(d)` and `mub_prime(d)` build and check their record on the
first call for a d <= 8 (d^2 <= 64, the package's total-dimension limit) and
return that same read-only record on every later call.  The dimension is
checked on every call, before the shared record is looked up, so a refusal is
raised again each time and a numpy integer cannot plant itself in the record.
Seeds and shot counts follow the same integer rule, and a seed must be >= 0.
"""


import numpy as np
import pytest

from transposim import (
    DensityMatrix,
    DomainError,
    Fiducial,
    Ket,
    NotPrimeError,
    ValidationError,
    aew,
    approx_transpose,
    basis_ket,
    builtin_fiducial,
    detect_with_confidence,
    fiducial_search,
    ghz_ket,
    haar_random_density,
    haar_random_ket,
    hoeffding_epsilon,
    load_fiducial,
    make_design,
    mub_prime,
    multipartite_aew,
    multipartite_closed_forms,
    pointwise_transpose_fidelity,
    sample_overlap,
    save_fiducial,
    sic_from_fiducial,
    swap_operator,
    transpose_witness,
)
from transposim import channels, cli, designs, fileio, linalg

SHARED_DIMS = range(2, 9)
MUB_DIMS = (2, 3, 5, 7)


def fiducial_of_dimension(d):
    return Fiducial(d, Ket([1, 0]))


def fiducial_search_at_seed_0(d):
    return fiducial_search(d, 0)


def ghz_ket_of_two_parties(d):
    return ghz_ket(2, d)


def haar_random_ket_at_seed_0(d):
    return haar_random_ket(d, 0)


def haar_random_density_at_seed_0(d):
    return haar_random_density(d, 0)


def basis_ket_0(d):
    return basis_ket(d, 0)


def multipartite_aew_of_two_parties(d):
    return multipartite_aew(2, d, 0)


def multipartite_closed_forms_of_two_parties(d):
    return multipartite_closed_forms(2, d, 0, sic_from_fiducial(builtin_fiducial(2)))


# each constructor that takes a dimension, and where its result records it
DIMENSION_OF = {
    approx_transpose: lambda ch: ch.d_in,
    transpose_witness: lambda w: w.dims[0],
    builtin_fiducial: lambda f: f.d,
    mub_prime: lambda g: g.d,
    fiducial_of_dimension: lambda f: f.d,
    fiducial_search_at_seed_0: lambda f: f.d,
    ghz_ket_of_two_parties: lambda k: k.dims[0],
    haar_random_ket_at_seed_0: lambda k: k.dim,
    haar_random_density_at_seed_0: lambda rho: rho.dims[0],
    basis_ket_0: lambda k: k.dim,
    swap_operator: lambda v: v.dims[0],
    multipartite_aew_of_two_parties: lambda a: a.state.dims[0],
    multipartite_closed_forms_of_two_parties: lambda forms: forms[0].dims[0],
}
# each constructor that takes a number of parties n: the dims of its result for n qubits
PARTIES_OF = {
    ghz_ket: lambda n: ghz_ket(n, 2).dims,
    multipartite_aew: lambda n: multipartite_aew(n, 2, 0).state.dims,
    multipartite_closed_forms: lambda n: multipartite_closed_forms(
        n, 2, 0, sic_from_fiducial(builtin_fiducial(2))
    )[0].dims,
}


def assert_same_channel(a, b):
    assert a.cj.mat.tobytes() == b.cj.mat.tobytes()
    assert a.cj.dims == b.cj.dims
    assert (a.d_in, a.d_out) == (b.d_in, b.d_out)
    assert type(a.d_in) is int and type(a.d_out) is int


def assert_same_design(a, b):
    assert a.vector_stack.tobytes() == b.vector_stack.tobytes()
    assert (a.d, a.kind, a.two_design_residual, a.coherence_residual) == (
        b.d, b.kind, b.two_design_residual, b.coherence_residual
    )


def test_the_size_limits_derive_from_one_total_dimension():
    # the CLI keeps its own literal, since importing it must load no numpy
    assert cli.MAX_VERIFY_DIM ** 2 == linalg.MAX_DIM == designs._SHARED_MAX_DIM ** 2


@pytest.mark.parametrize("d", SHARED_DIMS)
def test_approx_transpose_is_one_record_per_small_dimension(d):
    first = approx_transpose(d)
    assert approx_transpose(d) is first
    assert approx_transpose(np.int64(d)) is first
    assert approx_transpose(np.int32(d)) is first


@pytest.mark.parametrize("d", MUB_DIMS)
def test_mub_prime_is_one_record_per_small_prime(d):
    first = mub_prime(d)
    assert mub_prime(d) is first
    assert mub_prime(np.int64(d)) is first


def test_a_larger_dimension_is_built_afresh_and_bit_identically():
    a, b = approx_transpose(9), approx_transpose(9)
    assert a is not b
    assert_same_channel(a, b)
    g, h = mub_prime(11), mub_prime(11)
    assert g is not h
    assert_same_design(g, h)


@pytest.mark.parametrize("d", SHARED_DIMS)
def test_the_shared_channel_equals_the_uncached_build(d):
    assert_same_channel(approx_transpose(d), channels._approx_transpose.__wrapped__(d))


@pytest.mark.parametrize("d", MUB_DIMS)
def test_the_shared_mub_equals_the_uncached_build(d):
    assert_same_design(mub_prime(d), designs._mub_prime.__wrapped__(d))


@pytest.mark.parametrize("d", SHARED_DIMS)
def test_the_shared_records_are_read_only(d):
    arrays = [approx_transpose(d).cj.mat]
    if d in MUB_DIMS:
        arrays.append(mub_prime(d).vector_stack)
    for arr in arrays:
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0, 0] = 0.5


@pytest.mark.parametrize(
    "build, d, error",
    [(mub_prime, 4, NotPrimeError), (mub_prime, 67, DomainError), (approx_transpose, 1, DomainError),
     (mub_prime, 1, NotPrimeError)],
)
def test_a_refusal_is_raised_on_every_call_and_never_held(build, d, error):
    held = (channels._approx_transpose.cache_info().currsize,
            designs._mub_prime.cache_info().currsize)
    for _ in range(2):
        with pytest.raises(error):
            build(d)
    assert (channels._approx_transpose.cache_info().currsize,
            designs._mub_prime.cache_info().currsize) == held


@pytest.mark.parametrize("build", DIMENSION_OF, ids=lambda f: f.__name__)
@pytest.mark.parametrize("d", [2.0, 3.0, True, "2", None])
def test_a_dimension_that_is_not_an_integer_is_a_domain_error(build, d):
    with pytest.raises(DomainError, match="dimension must be an integer"):
        build(d)


@pytest.mark.parametrize("build", DIMENSION_OF, ids=lambda f: f.__name__)
def test_a_numpy_integer_dimension_becomes_an_int(build):
    d = DIMENSION_OF[build](build(np.int64(2)))
    assert d == 2 and type(d) is int


@pytest.mark.parametrize("d", [0, -1])
def test_the_swap_operator_refuses_a_dimension_below_one(d):
    # -1 ended in numpy's ValueError from a reshape
    with pytest.raises(DomainError, match="dimension must be >= 1"):
        swap_operator(d)


@pytest.mark.parametrize("i", [0.0, True, False, None])
def test_a_basis_index_that_is_not_an_integer_is_a_domain_error(i):
    # True indexed every entry: basis_ket(2, True) was the unnormalized (1, 1)
    with pytest.raises(DomainError, match="basis index must be an integer"):
        basis_ket(2, i)


@pytest.mark.parametrize("build", PARTIES_OF, ids=lambda f: f.__name__)
@pytest.mark.parametrize("n", [2.0, 3.0, True, "2", None])
def test_a_number_of_parties_that_is_not_an_integer_is_a_domain_error(build, n):
    with pytest.raises(DomainError, match="number of parties must be an integer"):
        PARTIES_OF[build](n)


@pytest.mark.parametrize("build", PARTIES_OF, ids=lambda f: f.__name__)
def test_a_numpy_integer_number_of_parties_becomes_an_int(build):
    dims = PARTIES_OF[build](np.int64(3))
    assert dims == (2, 2, 2) and all(type(d) is int for d in dims)


def test_a_numpy_integer_dimension_never_reaches_the_shared_record():
    channels._approx_transpose.cache_clear()
    assert type(approx_transpose(np.int64(3)).d_in) is int
    assert type(approx_transpose(3).d_in) is int


def test_a_fiducial_built_from_a_numpy_integer_round_trips(tmp_path):
    f = builtin_fiducial(2)
    path, plain = tmp_path / "f.json", tmp_path / "plain.json"
    save_fiducial(Fiducial(np.int64(2), f.ket), str(path))
    save_fiducial(f, str(plain))
    assert path.read_bytes() == plain.read_bytes()
    back = load_fiducial(str(path))
    assert back.d == 2 and type(back.d) is int
    assert back.ket.vec.tobytes() == f.ket.vec.tobytes()


def test_the_dimension_checks_run_in_order():
    # the integer rule first, then the lower bound, the size limit and primality
    with pytest.raises(DomainError, match="must be an integer"):
        approx_transpose(1.0)
    with pytest.raises(DomainError, match=">= 2"):
        approx_transpose(np.int64(1))
    with pytest.raises(DomainError, match="limited to dimension <= 64"):
        approx_transpose(np.int64(65))
    with pytest.raises(DomainError, match="must be an integer"):
        mub_prime(100.0)
    with pytest.raises(DomainError, match="limited to dimension <= 64"):
        mub_prime(np.int64(100))


def qubit_pair():
    rho = DensityMatrix(np.diag([0.5, 0.25, 0.25, 0.0]), dims=(2, 2))
    return rho, aew(transpose_witness(2))


def overlap(shots, seed):
    rho, a = qubit_pair()
    return sample_overlap(rho, a.state, shots, seed)


# each entry point that takes a seed or a shot count, as a function of that value
SEEDED = {
    "haar_random_ket seed": lambda v: haar_random_ket(2, v).vec.tobytes(),
    "haar_random_density seed": lambda v: haar_random_density(2, v).mat.tobytes(),
    "fiducial_search seed": lambda v: fiducial_search(2, seed=v).ket.vec.tobytes(),
    "sample_overlap seed": lambda v: overlap(50, v),
    "sample_overlap shots": lambda v: overlap(v, 0),
    "detect_with_confidence seed": lambda v: detect_with_confidence(*qubit_pair(), 50, v),
    "detect_with_confidence shots": lambda v: detect_with_confidence(*qubit_pair(), v, 0),
    "hoeffding_epsilon shots": lambda v: hoeffding_epsilon(v, 0.95),
}


@pytest.mark.parametrize("name", SEEDED)
@pytest.mark.parametrize("value", [0.5, 2.5, True, -1])
def test_a_seed_or_shot_count_that_is_not_a_nonnegative_integer_is_a_domain_error(name, value):
    # 0.5 ended in numpy's TypeError, -1 in its ValueError, and shots=2.5 was kept
    with pytest.raises(DomainError):
        SEEDED[name](value)


@pytest.mark.parametrize("name", SEEDED)
def test_a_numpy_integer_seed_or_shot_count_acts_as_the_int(name):
    assert SEEDED[name](np.int64(3)) == SEEDED[name](3)


def test_a_numpy_integer_shot_count_is_recorded_as_an_int():
    assert type(overlap(np.int64(3), 0).shots) is int
    assert type(detect_with_confidence(*qubit_pair(), np.int64(3), 0).shot_result.shots) is int


def off_norm(dev):
    """The d = 2 SIC fiducial scaled to squared norm 1 + dev."""
    return builtin_fiducial(2).ket.vec * np.sqrt(1.0 + dev)


def load_fiducial_of(vec, tmp_path):
    path = tmp_path / "f.json"
    fileio.write_json({"dim": 2, "vectors": [[[z.real, z.imag] for z in vec]]}, str(path))
    return load_fiducial(str(path))


# each site that checks a unit norm, as a function of the vector
UNIT_NORM_SITES = {
    "make_design": lambda v, tmp: make_design(np.array([v, [0, 1]])),
    "sic_from_fiducial": lambda v, tmp: sic_from_fiducial(Fiducial(2, Ket(v))),
    "load_fiducial": load_fiducial_of,
    "pointwise_transpose_fidelity": lambda v, tmp: pointwise_transpose_fidelity(
        approx_transpose(2), Ket(v)
    ),
}


@pytest.mark.parametrize("name", UNIT_NORM_SITES)
def test_every_unit_norm_check_follows_one_rule(name, tmp_path):
    # one tolerance, 1e-12 on |norm - 1|, and one error naming the deviation
    UNIT_NORM_SITES[name](off_norm(1e-13), tmp_path)
    vec = off_norm(1e-9)
    with pytest.raises(ValidationError) as err:
        UNIT_NORM_SITES[name](vec, tmp_path)
    assert err.value.check == "norm"
    assert err.value.residual == abs(float(np.linalg.norm(vec)) - 1.0)
