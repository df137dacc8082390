"""Two-step realization of the SIC measurement with outcome-controlled corrections.

The d^2-outcome SIC measurement factorizes into a first d-outcome measurement
with diagonal Kraus operators A_k followed by a projective measurement B_l in
the Fourier basis, so that A_k^dag B_l A_k = |s_{k,l}><s_{k,l}| / d.  The
convention is derived, not searched: with A_k = diag(conj(alpha_{m-k})), the
conjugated fiducial amplitudes on the diagonal shifted by k, the identity holds
by algebra for every fiducial.  Conventions for amplitude conjugation and index
signs drift between formulations, so the builder still checks the identity
against the orbit projectors and records the convention it used.  The
factorization is a `MeasurePrepare`: its effects are the assembled A_k^dag B_l
A_k and its preparations the conjugated orbit states |s*_{k,l}>, so the circuit
and its channel go through the one measure-and-prepare kernel.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .channels import MeasurePrepare, _measure_and_prepare
from .designs import Fiducial, _check_fiducial, _sic_orbit, _weyl_orbit, hw_orbit
from .errors import ConventionMismatch, DomainError
from .linalg import DensityMatrix, Operator, _frozen, _memo, phase_free_distance

ASSEMBLY_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class TwoStepMeasurement(MeasurePrepare):
    """The two measurement steps of a SIC measurement, as a measure-and-prepare record.

    `effect_stack` (d^2, d, d) holds the assembled effects A_k^dag B_l A_k and
    `preparation_stack` (d^2, d) the conjugated orbit vectors, both at index
    k*d + l; `kraus_diagonals` (d, d) holds the diagonal of A_k in row k and
    `fourier_effects` (d, d, d) the projectors B_l.  Each is held as a
    read-only copy, and a stack of another shape raises DomainError.  d is
    read from the preparations, and `fiducial` must be a `Fiducial` of that
    dimension (else DomainError).  The `assembled` tuple of `Operator`s is
    derived on first read, with dims (d,).
    """

    fiducial: Fiducial
    kraus_diagonals: np.ndarray
    fourier_effects: np.ndarray
    convention: str

    def __post_init__(self):
        super().__post_init__()
        for name in ("kraus_diagonals", "fourier_effects"):
            object.__setattr__(self, name, _frozen(getattr(self, name)))
        d = self.d
        for name, shape in (("preparation_stack", (d * d, d)), ("kraus_diagonals", (d, d)),
                            ("fourier_effects", (d, d, d))):
            if getattr(self, name).shape != shape:
                raise DomainError(f"{name} of shape {getattr(self, name).shape}, expected {shape}")
        _check_fiducial(self.fiducial, d)

    @property
    def d(self) -> int:
        return self.preparation_stack.shape[1]

    @cached_property
    def assembled(self) -> tuple[Operator, ...]:
        return tuple(Operator(m) for m in self.effect_stack)


@dataclass(frozen=True, eq=False)
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


def _kraus_diagonals(amps: np.ndarray) -> np.ndarray:
    """Row k is the diagonal of A_k: amplitude amps_m sits at m + k mod d."""
    d = amps.size
    j = np.arange(d)
    return amps[(j[None, :] - j[:, None]) % d]


def _assemble(amps: np.ndarray, effects: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(Kraus diagonals (d, d), assembled A_k^dag B_l A_k stacked (d^2, d, d))."""
    d = amps.size
    diag = _kraus_diagonals(amps)
    # for diagonal A_k: (A_k^dag B A_k)_ij = conj(a_ki) B_ij a_kj
    assembled = diag.conj()[:, None, :, None] * effects[None] * diag[:, None, None, :]
    return diag, assembled.reshape(d * d, d, d)


def build_two_step(f: Fiducial) -> TwoStepMeasurement:
    """Factor the SIC measurement of a fiducial's orbit into two d-outcome steps.

    A_k carries the conjugated fiducial amplitudes on its diagonal shifted by k
    and B_l projects on the l-th Fourier vector, with both index signs +1.
    For real amplitudes the conjugation is a no-op and the convention is
    recorded as plain.  Every assembled effect is checked against its orbit
    projector within 1e-10; a miss raises ConventionMismatch.  The first call
    on a fiducial builds and checks the factorization, and every later call
    returns that one record; a refused fiducial is refused again on every call.
    """
    return _memo(f, "_two_step", _build_two_step)


def _build_two_step(f: Fiducial) -> TwoStepMeasurement:
    orbit = _sic_orbit(f)  # raises NotSICError if the orbit is not a SIC family
    d = f.d
    real = not f.alphas.imag.any()
    effects = _fourier_effects(d)
    diag, assembled = _assemble(f.alphas if real else f.alphas.conj(), effects)
    worst = float(np.abs(assembled - orbit[:, :, None] * orbit[:, None, :].conj() / d).max())
    name = f"amplitudes={'plain' if real else 'conjugated'}, l_sign=+1, k_sign=+1"
    if worst >= ASSEMBLY_TOL:
        raise ConventionMismatch(
            f"the derived convention does not reproduce the SIC projectors (residual {worst:.3e})",
            residuals={name: worst},
        )
    return TwoStepMeasurement(assembled, orbit.conj(), f, diag, effects, convention=name)


def correction_set(f: Fiducial) -> CorrectionSet:
    """U_{k,l} = X^k Phi Z^{-2l} X^{-k} with Phi_m = conj(alpha_m)/alpha_m.

    Each U_{k,l} is diagonal: its diagonal is X^k Z^{-2l} phi, a vector of the
    Weyl orbit of phi = diag(Phi).  Phi entries are set to zero where the
    fiducial amplitude vanishes; the corrections are then partial isometries,
    still exact on the orbit states.
    """
    d = f.d
    amps = f.alphas
    zero = np.abs(amps) < 1e-14
    phi_diag = np.where(zero, 0.0, amps.conj() / np.where(zero, 1.0, amps))
    diags = _weyl_orbit(phi_diag).reshape(d, d, d)[:, (-2 * np.arange(d)) % d]
    unitaries = tuple(Operator(np.diag(u)) for u in diags.reshape(d * d, d))
    return CorrectionSet(Operator(np.diag(phi_diag)), unitaries, partial_isometry=bool(zero.any()))


def simulate_circuit(f: Fiducial, rho: DensityMatrix) -> tuple[np.ndarray, DensityMatrix]:
    """Run the full measure-and-correct circuit on a state.

    Returns the d^2 outcome probabilities (index k*d + l) and the averaged
    output state sum_{k,l} p_{k,l} |s*_{k,l}><s*_{k,l}|, which realizes the
    approximate transpose without post-selection.
    """
    return _measure_and_prepare(build_two_step(f), rho)


def verify_corrections(f: Fiducial) -> float:
    """Worst phase-free distance between U_{k,l}|s_{k,l}> and |s*_{k,l}>."""
    cs = correction_set(f)
    orbit = hw_orbit(f)
    return max(
        phase_free_distance(u.mat @ s, s.conj()) for u, s in zip(cs.unitaries, orbit)
    )
