"""Fig. 2's optical approximate transpose, as a calibrated `MeasurePrepare` record.

What is modelled is the scheme's outcome statistics.  Path p = 2k + l, with
k the arm of the first, partially-polarizing split and l the port of the
second, polarizing one, carries the effect A_k^dag B_l A_k =
|s_{k,l}><s_{k,l}| / 2 of the two-step SIC measurement.  The state prepared on
that path is the path state after its phase shifter, whose setting is solved
so that it is the conjugate |s_{k,l}*> up to a global phase (a miss is a
CalibrationError).  The coupler mixes the paths incoherently, because they are
distinguishable outcomes, so the output is sum_p tr{E_p rho} |s_p*><s_p*|, and
the pipeline's channel is `channel_from_measure_prepare` of the record.

What is not modelled is the propagation of the photon through the beam
splitters and wave plates: no element matrices are held or multiplied, and the
path probabilities are read from the effects, not from a propagated amplitude.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import MeasurePrepare, _measure_and_prepare
from .designs import Fiducial
from .errors import CalibrationError, DomainError
from .linalg import DensityMatrix, _memo, phase_free_distance
from .twostep import build_two_step

PHASE_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class Fig2Pipeline(MeasurePrepare):
    """The calibrated four-path measure-and-prepare record of Fig. 2.

    Path p = 2k + l carries the effect |s_{k,l}><s_{k,l}| / 2; the transmission
    arm is k = 0.  The path effects and the prepared (conjugated) states are
    the read-only stacks `effect_stack` (4, 2, 2) and `preparation_stack`
    (4, 2); stacks of any other shape raise DomainError.  `solved_phases`
    holds each path's phase setting.
    """

    fiducial: Fiducial
    solved_phases: tuple[float, ...]

    def __post_init__(self):
        super().__post_init__()                     # effects (N, d, d) with preparations (N, d)
        if self.preparation_stack.shape != (4, 2):
            raise DomainError(
                f"effects of shape {self.effect_stack.shape} with preparations of shape "
                f"{self.preparation_stack.shape}, expected (4, 2, 2) with (4, 2): four qubit paths"
            )


def _solve_conjugation_phase(s: np.ndarray) -> float:
    """Phase phi with diag(1, e^{i phi}) s ~ s* up to a global phase."""
    if abs(s[0]) < 1e-14 or abs(s[1]) < 1e-14:
        return 0.0
    return float(np.angle(s[0]) * 2 - np.angle(s[1]) * 2) % (2 * np.pi)


def build_fig2_pipeline(f: Fiducial) -> Fig2Pipeline:
    """Calibrate the four-path pipeline for a qubit SIC fiducial.

    The first call on a fiducial builds and calibrates the pipeline, and every
    later call returns that one record; a refused fiducial (d != 2, or a
    CalibrationError) is refused again on every call.
    """
    return _memo(f, "_fig2_pipeline", _build_fig2_pipeline)


def _build_fig2_pipeline(f: Fiducial) -> Fig2Pipeline:
    if f.d != 2:
        raise DomainError("the optical pipeline is defined for polarization qubits (d = 2)")
    ts = build_two_step(f)
    prepared, phases = [], []
    for p, s in enumerate(ts.preparation_stack.conj()):
        phi = _solve_conjugation_phase(s)
        corrected = np.diag([1.0, np.exp(1j * phi)]) @ s
        dist = phase_free_distance(corrected, s.conj())
        if dist >= PHASE_TOL:
            raise CalibrationError(
                f"path {p}: no phase shifter setting conjugates the path state "
                f"(best distance {dist:.3e})"
            )
        prepared.append(corrected)
        phases.append(phi)
    return Fig2Pipeline(
        effect_stack=ts.effect_stack,
        preparation_stack=np.array(prepared),
        fiducial=f,
        solved_phases=tuple(phases),
    )


def run_pipeline(pipe: Fig2Pipeline, rho: DensityMatrix) -> tuple[np.ndarray, DensityMatrix]:
    """Path probabilities and the coupler output state (the incoherent path mixture)."""
    return _measure_and_prepare(pipe, rho)


def phase_report(pipe: Fig2Pipeline) -> dict:
    """Solved per-path correction phases, next to the nominal single-shift value.

    A fixed e^{-i pi/4} single-component shift is sometimes quoted for this
    setup; the calibrated per-path phases are +-pi/2 and the defining
    conjugation condition is what the pipeline enforces.
    """
    wrapped = [((p + np.pi) % (2 * np.pi)) - np.pi for p in pipe.solved_phases]
    return {
        "solved_phases": {f"path_{p}": float(w) for p, w in enumerate(wrapped)},
        "nominal_shift": -np.pi / 4,
        "matches_nominal": bool(
            all(abs(abs(w) - np.pi / 4) < 1e-9 for w in wrapped)
        ),
    }
