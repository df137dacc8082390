"""Full verification suite: one callable per criterion, shared by CLI and tests.

Every criterion returns a CriterionResult with a pass flag and a short detail
string; tolerances are fixed here, not configurable, so a pass means the same
thing everywhere.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .channels import (
    approx_transpose,
    channel_from_measure_prepare,
    cj_distance,
    cj_state,
    measure_prepare_from_design,
    pointwise_transpose_fidelity,
)
from .designs import (
    builtin_fiducial,
    fiducial_search,
    frame_potential,
    hw_orbit,
    mub_prime,
    orbit_certificate,
    sic_from_fiducial,
    two_design_frame_potential,
)
from .errors import SearchFailed
from .estimator import detect_with_confidence, sample_overlap, swap_test_probability
from .linalg import (
    DensityMatrix,
    basis_ket,
    haar_random_density,
    haar_random_ket,
    kron_ket,
    real_trace_product,
    swap_operator,
)
from .optics import build_fig2_pipeline, phase_report, run_pipeline
from .twostep import build_two_step, verify_corrections
from .witness import (
    aew,
    detect,
    evaluate_tripartite_example,
    locc_expectation,
    multipartite_aew,
    separable_decomposition_of_transpose_aew,
    spa_pmin,
    transpose_witness,
)


@dataclass(frozen=True)
class CriterionResult:
    cid: int
    name: str
    passed: bool
    details: str


def _result(cid: int, name: str, passed: bool, details: str) -> CriterionResult:
    return CriterionResult(cid, name, bool(passed), details)


def singlet() -> DensityMatrix:
    v = (kron_ket(basis_ket(2, 0), basis_ket(2, 1)).vec
         - kron_ket(basis_ket(2, 1), basis_ket(2, 0)).vec) / np.sqrt(2)
    return DensityMatrix(np.outer(v, v.conj()), dims=(2, 2))


def criterion_01_cj_identity(max_dim: int = 5) -> CriterionResult:
    worst = 0.0
    for d in range(2, max_dim + 1):
        target = (np.eye(d * d) + swap_operator(d).mat) / (d * (d + 1))
        worst = max(worst, float(np.linalg.norm(cj_state(approx_transpose(d)).mat - target)))
    return _result(
        1,
        "CJ state of the approximate transpose equals (I+V)/(d(d+1))",
        worst < 1e-10,
        f"max Frobenius residual {worst:.3e} over d=2..{max_dim}",
    )


def criterion_02_design_channels(max_dim: int = 5) -> CriterionResult:
    worst = 0.0
    cases = []
    for d in (2, 3):
        if d <= max_dim:
            cases.append((f"SIC d={d}", measure_prepare_from_design(sic_from_fiducial(builtin_fiducial(d)))[1], d))
    for d in (2, 3, 5):
        if d <= max_dim:
            cases.append((f"MUB d={d}", measure_prepare_from_design(mub_prime(d))[1], d))
    for _, ch, d in cases:
        worst = max(worst, cj_distance(ch, approx_transpose(d)))
    return _result(
        2,
        "measure-and-prepare channels from SIC and MUB match the approximate transpose",
        worst < 1e-10,
        f"max CJ distance {worst:.3e} over {[c[0] for c in cases]}",
    )


def criterion_03_fidelity(max_dim: int = 5) -> CriterionResult:
    worst = 0.0
    for d in range(2, max_dim + 1):
        ch = approx_transpose(d)
        n_states = 100 if d == 2 else 20
        for i in range(n_states):
            f = pointwise_transpose_fidelity(ch, haar_random_ket(d, 1000 * d + i))
            worst = max(worst, abs(f - 2.0 / (d + 1)))
    return _result(
        3,
        "conjugation fidelity is 2/(d+1) on every pure state",
        worst < 1e-12,
        f"max |fidelity - 2/(d+1)| = {worst:.3e} (100 Haar states at d=2)",
    )


def criterion_04_two_step(max_dim: int = 5) -> CriterionResult:
    worst_prod = 0.0
    worst_sum = 0.0
    for d in (2, 3):
        ts = build_two_step(builtin_fiducial(d))
        for k in range(d):
            a = np.diag(ts.kraus_diagonals[k])
            for l in range(d):
                prod = a.conj().T @ ts.fourier_effects[l] @ a
                worst_prod = max(
                    worst_prod,
                    float(np.linalg.norm(ts.effect_stack[k * d + l] - prod)),
                )
        total = sum(ts.effect_stack)
        worst_sum = max(worst_sum, float(np.linalg.norm(total - np.eye(d))))
    return _result(
        4,
        "two-step factorization reproduces the SIC effects and is complete",
        worst_prod < 1e-10 and worst_sum < 1e-10,
        f"max ||M - A^dag B A|| = {worst_prod:.3e}, max ||sum M - I|| = {worst_sum:.3e}",
    )


def criterion_05_corrections(max_dim: int = 5) -> CriterionResult:
    worst_phase = max(verify_corrections(builtin_fiducial(d)) for d in (2, 3))
    worst_cj = max(
        cj_distance(channel_from_measure_prepare(build_two_step(builtin_fiducial(d))),
                    approx_transpose(d))
        for d in (2, 3)
    )
    return _result(
        5,
        "correction unitaries conjugate every orbit state; circuit equals the channel",
        worst_phase < 1e-10 and worst_cj < 1e-10,
        f"max phase-free distance {worst_phase:.3e}, max CJ distance {worst_cj:.3e}",
    )


def criterion_06_optics(max_dim: int = 5) -> CriterionResult:
    pipe = build_fig2_pipeline(builtin_fiducial(2))
    cjd = cj_distance(channel_from_measure_prepare(pipe), approx_transpose(2))
    orbit = hw_orbit(builtin_fiducial(2))
    states = [DensityMatrix(np.eye(2) / 2), DensityMatrix(np.diag([1.0, 0.0]))]
    states += [haar_random_density(2, 600 + i) for i in range(20)]
    worst_prob = 0.0
    for rho in states:
        probs = run_pipeline(pipe, rho)[0]
        expected = np.array(
            [np.real(s.conj() @ rho.mat @ s) / 2 for s in orbit]
        )
        worst_prob = max(worst_prob, float(np.abs(probs - expected).max()))
    rep = phase_report(pipe)
    return _result(
        6,
        "optics pipeline equals the approximate transpose with the stated path probabilities",
        cjd < 1e-10 and worst_prob < 1e-12,
        f"CJ distance {cjd:.3e}, max path-probability error {worst_prob:.3e}, "
        f"solved phases {sorted(set(round(v, 6) for v in rep['solved_phases'].values()))} "
        f"vs nominal {rep['nominal_shift']:.6f}",
    )


def criterion_07_pmin(max_dim: int = 5) -> CriterionResult:
    worst = 0.0
    certified = True
    for d in range(2, max_dim + 1):
        w = transpose_witness(d)
        p = spa_pmin(w)
        worst = max(worst, abs(p - d / (d + 1.0)))
        big_d = d * d
        state = (1 - p) * w.mat + p * np.eye(big_d) / big_d
        at_p = float(np.linalg.eigvalsh(state)[0])
        p_low = p * (1 - 1e-6)
        below = (1 - p_low) * w.mat + p_low * np.eye(big_d) / big_d
        at_low = float(np.linalg.eigvalsh(below)[0])
        certified = certified and at_p >= -1e-12 and at_low < -1e-12
    return _result(
        7,
        "noise threshold p_min equals d/(d+1) with a sharp positivity certificate",
        worst < 1e-12 and certified,
        f"max |p_min - d/(d+1)| = {worst:.3e} over d=2..{max_dim}; certificates sharp",
    )


def criterion_08_tripartite(max_dim: int = 5) -> CriterionResult:
    rep = evaluate_tripartite_example()
    by_cut = {c.cut: c for c in rep.cuts}
    a = by_cut["A|BC"]
    b = by_cut["B|CA"]
    c = by_cut["C|AB"]
    ok = (
        abs(b.value - 1 / 6) < 1e-10
        and abs(c.value - 1 / 6) < 1e-10
        and b.verdict == "boundary"
        and c.verdict == "boundary"
        and a.verdict == "detected"
        and a.value < 1 / 6
        and abs(a.value - 1 / 9) < 1e-10
        and any("1/18" in note for note in rep.notes)
    )
    return _result(
        8,
        "three-qubit example: 1/6 boundaries, first cut detected at the documented 1/9",
        ok,
        f"values A|BC={a.value:.12g}, B|CA={b.value:.12g}, C|AB={c.value:.12g}; "
        f"notes record the 1/18 deviation",
    )


def criterion_09_soundness(max_dim: int = 5) -> CriterionResult:
    a = aew(transpose_witness(2))
    violations = 0
    detections = 0
    for i in range(1000):
        rho = haar_random_density(4, 90_000 + i, dims=(2, 2))
        res = detect(rho, a)
        if res.verdict == "detected":
            detections += 1
            if res.ppt == "PPT":
                violations += 1
    s = detect(singlet(), a)
    prod = DensityMatrix(np.diag([1.0, 0, 0, 0]), dims=(2, 2))
    p = detect(prod, a)
    ok = violations == 0 and s.verdict == "detected" and p.verdict == "not-detected"
    return _result(
        9,
        "detection never fires on PPT states over 1000 random two-qubit mixtures",
        ok,
        f"{detections} detections, {violations} PPT violations; singlet {s.verdict} "
        f"(value {s.value:.3g}), |00> {p.verdict} (value {p.value:.3g})",
    )


def criterion_10_locc(max_dim: int = 5) -> CriterionResult:
    worst = 0.0
    for name, dec in (
        ("SIC", separable_decomposition_of_transpose_aew(sic_from_fiducial(builtin_fiducial(2)))),
        ("MUB", separable_decomposition_of_transpose_aew(mub_prime(2))),
    ):
        target = dec.reconstruct()
        for i in range(100):
            rho = haar_random_density(4, 70_000 + i, dims=(2, 2))
            direct = real_trace_product(rho, target)
            worst = max(worst, abs(locc_expectation(rho, dec) - direct))
    return _result(
        10,
        "local decomposition reproduces the direct expectation value",
        worst < 1e-12,
        f"max |LOCC - direct| = {worst:.3e} over 100 states x (SIC, MUB)",
    )


def criterion_11_estimator(max_dim: int = 5) -> CriterionResult:
    worst_id = 0.0
    for i in range(50):
        rho = haar_random_density(4, 50_000 + i, dims=(2, 2))
        sig = haar_random_density(4, 51_000 + i, dims=(2, 2))
        tr = float(np.real(np.trace(rho.mat @ sig.mat)))
        worst_id = max(worst_id, abs(swap_test_probability(rho, sig) - (1 + tr) / 2))
    a = aew(transpose_witness(2))
    s = singlet()
    exact = real_trace_product(s, a.state)
    p0 = (1 + exact) / 2
    se = 2 * np.sqrt(p0 * (1 - p0) / 1e5)
    hits = sum(
        abs(sample_overlap(s, a.state, 100_000, seed).estimate - exact) < 4 * se
        for seed in range(100)
    )
    ver = detect_with_confidence(s, a, shots=10_000, seed=5, level=0.99)
    ok = worst_id < 1e-15 and hits >= 95 and ver.verdict == "detected"
    return _result(
        11,
        "estimator: exact probability identity, shot concentration, confident detection",
        ok,
        f"identity residual {worst_id:.2e}; {hits}/100 seeds within 4 SE at 1e5 shots; "
        f"singlet at 1e4 shots/99%: {ver.verdict}",
    )


def criterion_12_fiducial_search(max_dim: int = 5) -> CriterionResult:
    t0 = time.perf_counter()
    try:
        f = fiducial_search(4, seed=11, max_iters=20_000)
    except SearchFailed as exc:
        return _result(12, "fiducial search certifies a SIC orbit in dimension 4", False, str(exc))
    elapsed = time.perf_counter() - t0
    excess, dev = orbit_certificate(f)
    fp = frame_potential(sic_from_fiducial(f))
    fp_err = abs(fp - two_design_frame_potential(16, 4))
    ok = dev < 1e-6 and fp_err < 1e-8 and elapsed < 60.0
    return _result(
        12,
        "fiducial search certifies a SIC orbit in dimension 4",
        ok,
        # the wall time stays out of the details, so the report is the same on every run
        f"overlap deviation {dev:.2e}, frame-potential error {fp_err:.2e}, "
        f"{'within' if elapsed < 60.0 else 'over'} 60 s",
    )


def criterion_13_caveat(max_dim: int = 5) -> CriterionResult:
    a = multipartite_aew(3, 2, 0)
    v = kron_ket(kron_ket(basis_ket(2, 0), basis_ket(2, 1)), basis_ket(2, 0))
    rho = DensityMatrix(np.outer(v.vec, v.vec.conj()), dims=(2, 2, 2))
    res = detect(rho, a, cut_label="A|BC")
    ok = (
        abs(res.value) < 1e-12
        and res.verdict == "detected"
        and res.ppt == "PPT"
        and res.caveat
    )
    return _result(
        13,
        "documented caveat: the product state |010> trips the multipartite threshold",
        ok,
        f"value {res.value:.3g} < 1/6, verdict {res.verdict}, PPT oracle {res.ppt}, "
        f"caveat flag {res.caveat}",
    )


ALL_CRITERIA = [
    criterion_01_cj_identity,
    criterion_02_design_channels,
    criterion_03_fidelity,
    criterion_04_two_step,
    criterion_05_corrections,
    criterion_06_optics,
    criterion_07_pmin,
    criterion_08_tripartite,
    criterion_09_soundness,
    criterion_10_locc,
    criterion_11_estimator,
    criterion_12_fiducial_search,
    criterion_13_caveat,
]


def run_all(max_dim: int = 5) -> list[CriterionResult]:
    return [fn(max_dim=max_dim) for fn in ALL_CRITERIA]


def format_result(r: CriterionResult) -> str:
    tag = "PASS" if r.passed else "FAIL"
    return f"[{tag}] {r.cid:02d} {r.name}: {r.details}"
