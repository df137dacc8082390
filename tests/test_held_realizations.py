"""Each realization is built and checked once per record, and every record stays read-only.

`measure_prepare_from_design(g)` holds its (MeasurePrepare, Channel) pair on
the design, and `build_two_step(f)` its factorization and
`build_fig2_pipeline(f)` its calibrated pipeline on the fiducial, so later
calls, and `simulate_circuit`, the two-step channel and the pipeline, reuse
them.  A refused record holds nothing and is refused again on every call.
Every array a record holds is a copy that no caller can make writable again.
"""

import dataclasses
import gc
import weakref

import numpy as np
import pytest

from transposim import (
    CalibrationError,
    ConventionMismatch,
    DensityMatrix,
    Design,
    DomainError,
    Fiducial,
    Ket,
    MeasurePrepare,
    NotSICError,
    Operator,
    SeparableDecomposition,
    aew,
    approx_transpose,
    build_fig2_pipeline,
    build_two_step,
    builtin_fiducial,
    channel_from_measure_prepare,
    correction_set,
    haar_random_density,
    identity,
    measure_prepare_from_design,
    mub_prime,
    partial_transpose,
    separable_decomposition_of_transpose_aew,
    sic_from_fiducial,
    simulate_circuit,
    transpose_witness,
)
from transposim import channels, optics, twostep

MUB_DIMS = (2, 3, 5, 7)


def only_fields(record):
    """True if the record holds nothing beyond its dataclass fields."""
    return vars(record).keys() == {f.name for f in dataclasses.fields(record)}


def counting(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)

    def count(record):
        calls.append(record)
        return original(record)

    monkeypatch.setattr(module, name, count)
    return calls


@pytest.mark.parametrize("d", MUB_DIMS)
def test_the_shared_mub_holds_one_pair_for_the_process(d):
    pair = measure_prepare_from_design(mub_prime(d))
    assert measure_prepare_from_design(mub_prime(d)) is pair
    assert measure_prepare_from_design(mub_prime(np.int64(d))) is pair


def test_a_fresh_design_builds_its_own_pair_once(monkeypatch):
    f = builtin_fiducial(2)
    g, h = sic_from_fiducial(f), sic_from_fiducial(f)
    calls = counting(monkeypatch, channels, "_measure_prepare_from_design")
    pair = measure_prepare_from_design(g)
    assert measure_prepare_from_design(g) is pair
    other = measure_prepare_from_design(h)
    assert other is not pair
    assert [c is g for c in calls] == [True, False]
    for a, b in ((pair[0].effect_stack, other[0].effect_stack),
                 (pair[0].preparation_stack, other[0].preparation_stack),
                 (pair[1].mat, other[1].mat)):
        assert a.tobytes() == b.tobytes()


def test_the_held_pair_goes_away_with_its_design():
    g = Design(mub_prime(3).vector_stack, kind="MUB")
    mp, ch = measure_prepare_from_design(g)
    refs = weakref.ref(mp), weakref.ref(ch)
    del g, mp, ch
    gc.collect()
    assert [r() for r in refs] == [None, None]


def test_a_non_design_is_refused_on_every_call_and_holds_nothing(monkeypatch):
    g = Design(np.eye(3), kind="basis")              # coherent, not a two-design
    calls = counting(monkeypatch, channels, "_measure_prepare_from_design")
    for _ in range(2):
        with pytest.raises(DomainError, match="two-design"):
            measure_prepare_from_design(g)
    assert len(calls) == 2
    assert only_fields(g)


def test_one_factorization_per_fiducial_serves_every_two_step_caller(monkeypatch):
    f, rho = builtin_fiducial(2), haar_random_density(2, 3)
    calls = counting(monkeypatch, twostep, "_build_two_step")
    ts = build_two_step(f)
    assert build_two_step(f) is ts
    simulate_circuit(f, rho)
    channel_from_measure_prepare(build_two_step(f))
    assert build_fig2_pipeline(f).effect_stack.tobytes() == ts.effect_stack.tobytes()
    assert calls == [f]
    # another fiducial with the same vector is another record: it builds its own
    g = Fiducial(2, f.ket)
    assert build_two_step(g) is not ts
    assert calls == [f, g]


def test_the_held_factorization_gives_the_same_results_as_a_fresh_one():
    f, rho = builtin_fiducial(3), haar_random_density(3, 5)
    build_two_step(f)
    probs, out = simulate_circuit(f, rho)
    fresh_probs, fresh_out = simulate_circuit(builtin_fiducial(3), rho)
    assert probs.tobytes() == fresh_probs.tobytes()
    assert out.mat.tobytes() == fresh_out.mat.tobytes()
    assert (channel_from_measure_prepare(build_two_step(f)).mat.tobytes()
            == channel_from_measure_prepare(build_two_step(builtin_fiducial(3))).mat.tobytes())


def test_a_non_sic_fiducial_is_refused_on_every_call_and_holds_nothing(monkeypatch):
    f, rho = Fiducial(2, Ket([1, 0])), haar_random_density(2, 0)
    calls = counting(monkeypatch, twostep, "_build_two_step")
    for call in (build_two_step, lambda f: channel_from_measure_prepare(build_two_step(f)),
                 build_fig2_pipeline, lambda f: simulate_circuit(f, rho)):
        for _ in range(2):
            with pytest.raises(NotSICError):
                call(f)
    assert len(calls) == 8
    assert only_fields(f)


def test_a_convention_mismatch_is_refused_on_every_call_and_holds_nothing(monkeypatch):
    f = builtin_fiducial(2)
    monkeypatch.setattr(twostep, "ASSEMBLY_TOL", 0.0)      # no residual is below 0
    for _ in range(2):
        with pytest.raises(ConventionMismatch):
            build_two_step(f)
    assert only_fields(f)
    monkeypatch.undo()
    assert build_two_step(f) is build_two_step(f)


def test_one_pipeline_per_fiducial(monkeypatch):
    f, rho = builtin_fiducial(2), haar_random_density(2, 4)
    calls = counting(monkeypatch, optics, "_build_fig2_pipeline")
    pipe = build_fig2_pipeline(f)
    assert build_fig2_pipeline(f) is pipe
    optics.run_pipeline(build_fig2_pipeline(f), rho)
    assert calls == [f]
    # the held pipeline calibrates as a fresh one does, bit for bit
    fresh = build_fig2_pipeline(Fiducial(2, f.ket))
    assert fresh is not pipe and calls == [f, fresh.fiducial]
    assert fresh.preparation_stack.tobytes() == pipe.preparation_stack.tobytes()
    assert fresh.solved_phases == pipe.solved_phases


def miscalibrated(monkeypatch):
    solve = optics._solve_conjugation_phase
    monkeypatch.setattr(optics, "_solve_conjugation_phase", lambda s: solve(s) + 0.5)
    return builtin_fiducial(2)


@pytest.mark.parametrize(
    "refused, error",
    [(lambda mp: builtin_fiducial(3), DomainError), (miscalibrated, CalibrationError)],
    ids=["qutrit", "calibration-miss"],
)
def test_a_refused_pipeline_is_refused_on_every_call_and_never_held(monkeypatch, refused, error):
    f = refused(monkeypatch)
    calls = counting(monkeypatch, optics, "_build_fig2_pipeline")
    for _ in range(2):
        with pytest.raises(error):
            build_fig2_pipeline(f)
    assert len(calls) == 2
    assert "_fig2_pipeline" not in vars(f)


def record_arrays():
    """Every array a record type holds, the shared records' and the held realizations' included."""
    f2, f3 = builtin_fiducial(2), builtin_fiducial(3)
    g = mub_prime(3)
    mp, ch = measure_prepare_from_design(g)
    sic_mp, _ = measure_prepare_from_design(sic_from_fiducial(f3))
    ts, pipe = build_two_step(f3), build_fig2_pipeline(f2)
    dec = separable_decomposition_of_transpose_aew(g)
    rho = haar_random_density(4, 1, dims=(2, 2))
    return {
        "Ket.vec": f2.ket.vec,
        "Operator.mat": Operator(np.eye(2)).mat,
        "identity": identity((2, 2)).mat,
        "DensityMatrix.mat": rho.mat,
        "partial_transpose": partial_transpose(rho, 0).mat,
        "approx_transpose.mat": approx_transpose(2).mat,
        "mub_prime.vector_stack": g.vector_stack,
        "Design.vector_stack": sic_from_fiducial(f2).vector_stack,
        "shared MeasurePrepare.effect_stack": mp.effect_stack,
        "shared MeasurePrepare.preparation_stack": mp.preparation_stack,
        "shared Channel.mat": ch.mat,
        "shared Channel superoperator": channels._superoperator(approx_transpose(2)),
        "Channel superoperator": channels._superoperator(approx_transpose(9)),
        "MeasurePrepare.effect_stack": sic_mp.effect_stack,
        "TwoStepMeasurement.kraus_diagonals": ts.kraus_diagonals,
        "TwoStepMeasurement.fourier_effects": ts.fourier_effects,
        "TwoStepMeasurement.effect_stack": ts.effect_stack,
        "TwoStepMeasurement.preparation_stack": ts.preparation_stack,
        "Fig2Pipeline.effect_stack": pipe.effect_stack,
        "Fig2Pipeline.preparation_stack": pipe.preparation_stack,
        "SeparableDecomposition.weights": dec.weights,
        "SeparableDecomposition.left_stack": dec.left_stack,
        "SeparableDecomposition.right_stack": dec.right_stack,
    }


def test_a_record_array_cannot_be_made_writable_again():
    for name, arr in record_arrays().items():
        before = arr.tobytes()
        chain = arr
        while isinstance(chain, np.ndarray):              # the array and every base below it
            assert not chain.flags.writeable, name
            with pytest.raises(ValueError):
                chain.setflags(write=True)
            chain = chain.base
        with pytest.raises(ValueError):
            arr.reshape(-1)[0] = 7.0
        assert arr.tobytes() == before, name


def test_the_shared_channel_stays_cptp_and_unchanged():
    # writing to the shared record used to go through after setflags(write=True)
    ch = approx_transpose(2)
    with pytest.raises(ValueError):
        ch.mat.setflags(write=True)
    want = (np.eye(4) + np.eye(4)[[0, 2, 1, 3]]) / 6
    assert np.array_equal(ch.mat, want)


def test_a_record_copies_its_input_and_leaves_the_caller_array_writable():
    vec = np.array([1.0, 0.0], dtype=complex)
    k = Ket(vec)
    vec[0] = 0.0
    assert vec.flags.writeable and k.vec[0] == 1.0
    rho = np.eye(2, dtype=complex) / 2
    state = DensityMatrix(rho)
    assert not np.shares_memory(state.mat, rho)


def test_a_two_step_record_holds_a_read_only_copy_of_its_orbit():
    ts = build_two_step(builtin_fiducial(2))
    preps = np.array(ts.preparation_stack)                # the conjugated orbit
    rec = dataclasses.replace(ts, preparation_stack=preps)
    preps[0] = 0.0                                        # the caller's array stays theirs
    assert rec.preparation_stack.tobytes() == ts.preparation_stack.tobytes()
    with pytest.raises(ValueError):
        rec.preparation_stack.setflags(write=True)
    with pytest.raises(DomainError, match="preparation"):
        dataclasses.replace(ts, preparation_stack=ts.preparation_stack[:-1])


# each builder makes a new record with the same contents on every call
EQUAL_CONTENT_RECORDS = {
    "Ket": lambda: Ket([1, 0]),
    "Operator": lambda: Operator(np.eye(2)),
    "DensityMatrix": lambda: DensityMatrix(np.eye(2) / 2),
    "Channel": lambda: approx_transpose(9),               # d > 8: not a shared channel
    "MeasurePrepare": lambda: MeasurePrepare(np.eye(2)[:, :, None] * np.eye(2)[:, None, :],
                                             np.eye(2)),
    "Fiducial": lambda: builtin_fiducial(2),
    "Design": lambda: Design(mub_prime(3).vector_stack, kind="MUB"),
    "CorrectionSet": lambda: correction_set(builtin_fiducial(2)),
    "Witness": lambda: transpose_witness(2),
    "SeparableDecomposition": lambda: SeparableDecomposition([1.0], [np.eye(2) / 2],
                                                             [np.eye(2) / 2]),
    "ApproxWitness": lambda: aew(transpose_witness(2)),
    "TwoStepMeasurement": lambda: build_two_step(builtin_fiducial(2)),
    "Fig2Pipeline": lambda: build_fig2_pipeline(builtin_fiducial(2)),
}


@pytest.mark.parametrize("record", sorted(EQUAL_CONTENT_RECORDS))
def test_records_compare_by_identity_and_are_hashable(record):
    a, b = EQUAL_CONTENT_RECORDS[record](), EQUAL_CONTENT_RECORDS[record]()
    assert type(a).__name__ == record and a is not b
    assert (a == b) is False and (a != b) is True
    assert a == a
    assert len({a, b, a}) == 2 and hash(a) == hash(a)
