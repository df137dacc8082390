"""Two-step realization of the SIC measurement with outcome-controlled corrections.

The d^2-outcome SIC measurement factorizes into a first d-outcome measurement
with diagonal Kraus operators A_k (fiducial amplitudes on a cyclically shifted
diagonal) followed by a projective measurement B_l in the Fourier basis, so
that A_k^dag B_l A_k = |s_{k,l}><s_{k,l}| / d.  Conventions for amplitude
conjugation and index signs drift between formulations; the builder fixes them
by checking that defining equality directly and records which variant holds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .designs import Fiducial, hw_orbit, sic_from_fiducial, weyl_pair
from .errors import ConventionMismatch, DomainError
from .linalg import DensityMatrix, Ket, Operator, phase_free_distance

ASSEMBLY_TOL = 1e-10


@dataclass(frozen=True)
class TwoStepMeasurement:
    d: int
    fiducial: Fiducial
    first_kraus: tuple[Operator, ...]
    second_effects: tuple[Operator, ...]
    assembled: tuple[Operator, ...]  # index k*d + l
    convention: str


@dataclass(frozen=True)
class CorrectionSet:
    """Outcome-controlled unitaries mapping each orbit state to its conjugate."""

    phi: Operator
    unitaries: tuple[Operator, ...]  # index k*d + l
    partial_isometry: bool


def _fourier_effects(d: int) -> np.ndarray:
    """Projectors B_l onto the Fourier basis, stacked as (d, d, d)."""
    omega = np.exp(2j * np.pi / d)
    m = np.arange(d)
    fv = omega ** (m[:, None] * m[None, :]) / np.sqrt(d)  # row l: the l-th Fourier vector
    return fv[:, :, None] * fv[:, None, :].conj()


def _kraus_diagonals(amps: np.ndarray, k_sign: int) -> np.ndarray:
    """Row k is the diagonal of A_k: amplitude alpha_m sits at m + k_sign*k mod d."""
    d = amps.size
    j = np.arange(d)
    return amps[(j[None, :] - k_sign * j[:, None]) % d]


def _assemble(
    amps: np.ndarray, l_sign: int, k_sign: int, effects: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(Kraus diagonals (d, d), assembled A_k^dag B_{l_sign*l} A_k stacked (d^2, d, d))."""
    d = amps.size
    diag = _kraus_diagonals(amps, k_sign)
    b = effects[(l_sign * np.arange(d)) % d]
    # for diagonal A_k: (A_k^dag B A_k)_ij = conj(a_ki) B_ij a_kj
    assembled = diag.conj()[:, None, :, None] * b[None] * diag[:, None, None, :]
    return diag, assembled.reshape(d * d, d, d)


def build_two_step(f: Fiducial) -> TwoStepMeasurement:
    """Factor the SIC measurement of a fiducial's orbit into two d-outcome steps.

    Tries the plain convention first, then the finite set of amplitude
    conjugation / index-sign variants, accepting the first one for which every
    assembled effect matches the corresponding orbit projector within 1e-10.
    """
    sic_from_fiducial(f)  # raises NotSICError if the orbit is not a SIC family
    d = f.d
    orbit = hw_orbit(f)
    targets = orbit[:, :, None] * orbit[:, None, :].conj() / d
    effects = _fourier_effects(d)
    residuals: dict[str, float] = {}
    variants = [
        (amp, l_sign, k_sign)
        for amp in ("plain", "conjugated")
        for l_sign in (1, -1)
        for k_sign in (1, -1)
    ]
    for amp, l_sign, k_sign in variants:
        amps = f.alphas.conj() if amp == "conjugated" else f.alphas
        diag, assembled = _assemble(amps, l_sign, k_sign, effects)
        worst = float(np.abs(assembled - targets).max())
        name = f"amplitudes={amp}, l_sign={l_sign:+d}, k_sign={k_sign:+d}"
        residuals[name] = worst
        if worst < ASSEMBLY_TOL:
            return TwoStepMeasurement(
                d,
                f,
                tuple(Operator(np.diag(a)) for a in diag),
                tuple(Operator(b) for b in effects),
                tuple(Operator(m) for m in assembled),
                convention=name,
            )
    raise ConventionMismatch(
        "no amplitude/index convention reproduces the SIC projectors "
        f"(best residual {min(residuals.values()):.3e})",
        residuals=residuals,
    )


def correction_set(f: Fiducial) -> CorrectionSet:
    """U_{k,l} = X^k Phi Z^{-2l} X^{-k} with Phi_m = conj(alpha_m)/alpha_m.

    Phi entries are set to zero where the fiducial amplitude vanishes; the
    corrections are then partial isometries, still exact on the orbit states.
    """
    d = f.d
    wp = weyl_pair(d)
    amps = f.alphas
    zero = np.abs(amps) < 1e-14
    phi_diag = np.where(zero, 0.0, amps.conj() / np.where(zero, 1.0, amps))
    phi = np.diag(phi_diag)
    xk = [np.linalg.matrix_power(wp.x.mat, k) for k in range(d)]
    zm = np.conj(wp.z.mat.T)  # Z^{-1}
    unitaries = []
    for k in range(d):
        for l in range(d):
            u = xk[k] @ phi @ np.linalg.matrix_power(zm, (2 * l) % d) @ xk[k].conj().T
            unitaries.append(Operator(u))
    return CorrectionSet(Operator(phi), tuple(unitaries), partial_isometry=bool(zero.any()))


def simulate_circuit(f: Fiducial, rho: DensityMatrix) -> tuple[np.ndarray, DensityMatrix]:
    """Run the full measure-and-correct circuit on a state.

    Returns the d^2 outcome probabilities (index k*d + l) and the averaged
    output state sum_{k,l} p_{k,l} |s*_{k,l}><s*_{k,l}|, which realizes the
    approximate transpose without post-selection.
    """
    ts = build_two_step(f)
    d = f.d
    if rho.dim != d:
        raise DomainError(f"state dimension {rho.dim} does not match fiducial dimension {d}")
    orbit = hw_orbit(f)
    effects = np.stack([m.mat for m in ts.assembled])
    probs = np.einsum("kij,ji->k", effects, rho.mat).real
    out = np.einsum("k,ki,kj->ij", probs, orbit.conj(), orbit)  # sum_k p_k |s*_k><s*_k|
    return probs, DensityMatrix(out)


def two_step_channel(f: Fiducial):
    """The channel induced by the two-step circuit (measure M_{k,l}, prepare s*)."""
    from .channels import MeasurePrepare, channel_from_measure_prepare

    ts = build_two_step(f)
    orbit = hw_orbit(f)
    mp = MeasurePrepare(ts.assembled, tuple(Ket(s.conj()) for s in orbit))
    return channel_from_measure_prepare(mp)


def verify_corrections(f: Fiducial) -> float:
    """Worst phase-free distance between U_{k,l}|s_{k,l}> and |s*_{k,l}>."""
    cs = correction_set(f)
    orbit = hw_orbit(f)
    return max(
        phase_free_distance(u.mat @ s, s.conj()) for u, s in zip(cs.unitaries, orbit)
    )
