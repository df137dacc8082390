"""Entanglement witnesses and their physical approximations.

Mixing a witness W with white noise until it becomes a quantum state gives an
operator that detects the same entanglement through a shifted threshold:
tr{rho rho_W} < p_min / D  iff  tr{rho W} < 0.  For the transpose witness the
mixed state is separable and decomposes over any coherent two-design, so the
detection value is measurable with local operations, and the multipartite
variant applies the approximate transpose to one factor of a GHZ state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import _check_dim, apply_to_factor, approx_transpose
from .designs import COHERENCE_TOL, TWO_DESIGN_TOL, Design, _identity_plus_swap
from .errors import DomainError
from .linalg import (
    MAX_DIM,
    DensityMatrix,
    Ket,
    Operator,
    _as_int,
    _check_hermitian,
    _check_index,
    _frozen,
    _kron_sum,
    _read_only,
    partial_transpose,
    permute_subsystems,
    real_trace_product,
    swap_operator,
)

BOUNDARY_BAND = 1e-9
NPT_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class Witness(Operator):
    """A normalized entanglement witness: an Operator, Hermitian with unit trace."""

    def __init__(self, mat, dims=None):
        super().__init__(mat, dims)
        _check_hermitian(self.mat, unit_trace=True)


@dataclass(frozen=True, eq=False)
class SeparableDecomposition:
    """Convex product decomposition sum_k q_k tau_k (x) sigma_k.

    Held as read-only stacks: `weights` (N,), `left_stack` (N, a, a), `right_stack` (N, b, b).
    """

    weights: np.ndarray
    left_stack: np.ndarray
    right_stack: np.ndarray

    def __init__(self, weights, left_stack, right_stack):
        weights = np.asarray(weights, dtype=float)
        # written so that a NaN weight fails both tests
        if not np.all(weights >= 0):
            raise DomainError("decomposition weights must be nonnegative numbers")
        if not abs(weights.sum() - 1.0) <= 1e-12:
            raise DomainError(f"decomposition weights sum to {weights.sum():.15g}, expected 1")
        left, right = _frozen(left_stack), _frozen(right_stack)
        for stack in (left, right):
            if stack.ndim != 3 or stack.shape[1] != stack.shape[2]:
                raise DomainError(f"a factor stack must be (N, a, a), got shape {stack.shape}")
        if not (len(left) == len(right) and weights.shape == (len(left),)):
            raise DomainError("weights and factor stacks must have equal length")
        object.__setattr__(self, "weights", _read_only(weights))
        object.__setattr__(self, "left_stack", left)
        object.__setattr__(self, "right_stack", right)

    def reconstruct(self) -> Operator:
        total = _kron_sum(self.weights[:, None, None] * self.left_stack, self.right_stack)
        return Operator(total, (self.left_stack.shape[1], self.right_stack.shape[1]))


@dataclass(frozen=True, eq=False)
class ApproxWitness:
    """A witness rendered as a quantum state, plus its detection threshold."""

    state: DensityMatrix
    p_min: float
    threshold: float
    cut: tuple[int, ...] = (0,)


@dataclass(frozen=True)
class CutResult:
    cut: str
    value: float
    threshold: float
    verdict: str  # detected | not-detected | boundary
    ppt: str | None = None  # NPT | PPT
    min_pt_eigenvalue: float | None = None
    caveat: bool = False


@dataclass(frozen=True)
class DetectionReport:
    cuts: tuple[CutResult, ...]
    caveats: tuple[str, ...] = ()
    notes: tuple[str, ...] = ()
    estimator: dict | None = None


def transpose_witness(d: int) -> Witness:
    """The swap-based witness V/d: unit trace, minimum eigenvalue -1/d."""
    d = _check_dim(d, "the transpose witness")
    return Witness(swap_operator(d).mat / d, (d, d))


def spa_pmin(w: Witness) -> float:
    """Minimal white-noise weight making (1-p) W + p I/D positive semidefinite."""
    lam = float(np.linalg.eigvalsh((w.mat + w.mat.conj().T) / 2)[0])
    if lam >= 0:
        return 0.0
    big_d = w.dim
    return abs(lam) * big_d / (1.0 + abs(lam) * big_d)


def aew(w: Witness) -> ApproxWitness:
    """The approximate witness state (1 - p_min) W + p_min I/D with its threshold."""
    p = spa_pmin(w)
    big_d = w.dim
    state = DensityMatrix((1.0 - p) * w.mat + p * np.eye(big_d) / big_d, w.dims)
    return ApproxWitness(state=state, p_min=p, threshold=p / big_d, cut=(0,))


def detect(rho: DensityMatrix, a: ApproxWitness, cut_label: str = "A|B") -> CutResult:
    """Evaluate tr{rho rho_W} against the threshold, with a PPT cross-check.

    The verdict is `detected` below threshold - 1e-9, `boundary` within the
    1e-9 band around the threshold, `not-detected` otherwise.  The caveat flag
    marks detections on states whose partial transpose stays positive.
    """
    state = a.state
    if rho.dim != state.dim:
        raise DomainError(
            f"state dimension {rho.dim} does not match witness dimension {state.dim}"
        )
    value = real_trace_product(rho, state)
    t = a.threshold
    if abs(value - t) <= BOUNDARY_BAND:
        verdict = "boundary"
    elif value < t:
        verdict = "detected"
    else:
        verdict = "not-detected"
    # rho is already a validated state; only its factor dimensions follow the witness
    op = rho if rho.dims == state.dims else Operator(rho.mat, state.dims)
    ppt_verdict, min_eig = ppt_check(op, a.cut)
    return CutResult(
        cut=cut_label,
        value=value,
        threshold=t,
        verdict=verdict,
        ppt=ppt_verdict,
        min_pt_eigenvalue=min_eig,
        caveat=(verdict == "detected" and ppt_verdict == "PPT"),
    )


def ppt_check(rho: Operator, cut) -> tuple[str, float]:
    """Partial-transpose test across the given subsystems: (NPT|PPT, min eigenvalue).

    One partial transpose moves every factor of the cut; the eigensolve runs
    on its Hermitian part.
    """
    subs = tuple(cut) if np.iterable(cut) else (cut,)
    if not subs:
        raise DomainError("PPT check needs a nonempty subsystem set")
    m = partial_transpose(rho, subs).mat
    h = m + m.conj().T
    h /= 2
    min_eig = float(np.linalg.eigvalsh(h)[0])
    return ("NPT" if min_eig < -NPT_TOL else "PPT"), min_eig


def separable_decomposition_of_transpose_aew(g: Design) -> SeparableDecomposition:
    """Product decomposition of the approximate-transpose state over a design.

    Weights 1/N with factors |x_k><x_k| on both sides; the reconstruction must
    match (identity + V) / (d(d+1)).
    """
    res2, resc = g.two_design_residual, g.coherence_residual
    if res2 >= TWO_DESIGN_TOL or resc >= COHERENCE_TOL:
        raise DomainError(
            f"design fails the required checks (two-design {res2:.3e}, coherence {resc:.3e})"
        )
    d, n, arr = g.d, g.n, g.vector_stack
    projectors = arr[:, :, None] * arr[:, None, :].conj()
    dec = SeparableDecomposition(np.full(n, 1.0 / n), projectors, projectors)
    resid = float(np.linalg.norm(dec.reconstruct().mat - _identity_plus_swap(d)))
    if resid >= TWO_DESIGN_TOL:
        raise DomainError(f"decomposition fails to reconstruct the target ({resid:.3e})")
    return dec


def locc_expectation(rho: DensityMatrix, dec: SeparableDecomposition) -> float:
    """sum_k q_k tr{rho (tau_k (x) sigma_k)}: the locally measurable detection value."""
    d_left, d_right = dec.left_stack.shape[1], dec.right_stack.shape[1]
    if rho.dim != d_left * d_right:
        raise DomainError(
            f"state dimension {rho.dim} does not match decomposition ({d_left}x{d_right})"
        )
    r = rho.mat.reshape(d_left, d_right, d_left, d_right)
    # the N local values, term by term: the reconstructed operator is never read
    local = np.einsum("abcd,kca,kdb->k", r, dec.left_stack, dec.right_stack).real
    return float((dec.weights * local).sum())


def _check_parties(n, d) -> tuple[int, int]:
    """(n, d) as ints by `_as_int`: n >= 2 parties of dimension d >= 2 with d^n <= 64.

    Anything else is refused with DomainError.
    """
    n, d = _as_int(n, "number of parties"), _as_int(d, "dimension")
    if n < 2 or d < 2:
        raise DomainError(f"need n >= 2 parties of dimension d >= 2, got n = {n}, d = {d}")
    # the state holds (d^n)^2 entries, so d^n > MAX_DIM is refused before allocating;
    # d >= 2, so n >= 7 is over the limit: min keeps a huge n from forming a huge power
    if d ** min(n, 7) > MAX_DIM:
        raise DomainError(
            f"{n} parties of dimension {d} exceed the total dimension limit {MAX_DIM}"
        )
    return n, d


def ghz_ket(n: int, d: int) -> Ket:
    """sum_j |j>^(x n) / sqrt(d), for n >= 2 parties of dimension d >= 2 with d^n <= 64."""
    n, d = _check_parties(n, d)
    v = np.zeros(d**n, dtype=complex)
    step = (d**n - 1) // (d - 1)
    v[np.arange(d) * step] = 1.0 / np.sqrt(d)
    return Ket(v, (d,) * n)


def _check_sic(g: Design, d: int) -> None:
    if g.d != d or g.n != d * d:
        raise DomainError(f"need a SIC design with d^2 = {d * d} vectors in dimension {d}")


def multipartite_closed_forms(
    n: int, d: int, cut: int, g: Design
) -> tuple[Operator, Operator]:
    """Rank-1 design-sum assemblies of the multipartite witness state: (plain, conjugated).

    Each is sum_k |c_k><c_k| (x) |psi_k><psi_k| / d^2 over the SIC vectors s_k,
    psi_k = sum_j conj(s_k)_j |j...j>, with c_k = s_k (plain) or conj(s_k)
    (conjugated), reordered so the cut factor sits at its party position.
    n and d follow `ghz_ket`'s rule.
    """
    n, d = _check_parties(n, d)
    _check_sic(g, d)
    dims = (d,) * n
    cut = _check_index(cut, dims)
    arr = g.vector_stack
    psi = np.zeros((len(arr), d ** (n - 1)), dtype=complex)
    step = (d ** (n - 1) - 1) // (d - 1)  # flat index stride of |j...j> on n-1 factors
    psi[:, np.arange(d) * step] = arr.conj()
    rest = psi[:, :, None] * psi[:, None, :].conj()
    plain = arr[:, :, None] * arr[:, None, :].conj()
    perm = [*range(1, cut + 1), 0, *range(cut + 1, n)]           # the cut factor leaves the front
    return tuple(permute_subsystems(Operator(_kron_sum(c, rest) / (d * d), dims), perm)
                 for c in (plain, plain.conj()))


def multipartite_aew(n: int, d: int, cut: int, g: Design | None = None) -> ApproxWitness:
    """Witness state for the cut-vs-rest splitting of an n-party system.

    The construction applies the approximate transpose to the cut factor of
    the GHZ state; no design enters it.  The detection threshold is
    1/(d(d+1)).  n and d follow `ghz_ket`'s rule.  `g` is ignored: it stays
    only because the benchmark's detect-stream workload
    (perfbench/workloads.py) still passes a SIC positionally.
    """
    n, d = _check_parties(n, d)
    try:
        cut = _check_index(cut, (d,) * n)
    except IndexError:
        raise DomainError(f"cut index {cut} out of range for {n} parties") from None
    ghz = ghz_ket(n, d)
    ghz_dm = DensityMatrix(np.outer(ghz.vec, ghz.vec.conj()), dims=(d,) * n)
    state = apply_to_factor(approx_transpose(d), ghz_dm, cut)
    return ApproxWitness(state, p_min=d / (d + 1.0), threshold=1.0 / (d * (d + 1)), cut=(cut,))


_CUT_LABELS = {0: "A|BC", 1: "B|CA", 2: "C|AB"}


def tripartite_example_state() -> DensityMatrix:
    """An 8x8 three-qubit state mixing a GHZ projector with four basis projectors.

    One third GHZ plus one sixth each of |001>, |010>, |101>, |110>; symmetric
    under swapping the last two parties, NPT only across the first one.
    """
    ghz = ghz_ket(3, 2)
    rho = np.outer(ghz.vec, ghz.vec.conj()) / 3.0
    for idx in (0b001, 0b010, 0b101, 0b110):
        rho[idx, idx] += 1.0 / 6.0
    return DensityMatrix(rho, dims=(2, 2, 2))


def evaluate_tripartite_example() -> DetectionReport:
    """Evaluate the worked three-qubit example; the qubit SIC enters only the note."""
    from .designs import builtin_fiducial, sic_from_fiducial

    rho = tripartite_example_state()
    cuts = []
    caveats: list[str] = []
    for i in range(3):
        a = multipartite_aew(3, 2, i)
        res = detect(rho, a, cut_label=_CUT_LABELS[i])
        cuts.append(res)
        if res.caveat:
            caveats.append(
                f"{res.cut}: threshold fired although the partial transpose is positive"
            )
    plain, conj = multipartite_closed_forms(3, 2, 0, sic_from_fiducial(builtin_fiducial(2)))
    v_plain = real_trace_product(rho, plain)
    v_conj = real_trace_product(rho, conj)
    notes = (
        f"A|BC direct value {cuts[0].value:.12g} = 1/9; the rank-1 design sum gives "
        f"{v_plain:.12g} with the plain cut factor and {v_conj:.12g} with the "
        "conjugated one; the sometimes-quoted value 1/18 is reproduced by none of "
        "these constructions.",
    )
    return DetectionReport(cuts=tuple(cuts), caveats=tuple(caveats), notes=notes)


def report_to_dict(report: DetectionReport) -> dict:
    """JSON-ready form: {"cuts": [...], "caveats": [...], ...}."""
    doc: dict = {
        "cuts": [
            {
                "cut": c.cut,
                "value": c.value,
                "threshold": c.threshold,
                "verdict": c.verdict,
                "ppt": c.ppt,
            }
            for c in report.cuts
        ],
        "caveats": list(report.caveats),
    }
    if report.notes:
        doc["notes"] = list(report.notes)
    if report.estimator is not None:
        doc["estimator"] = report.estimator
    return doc
