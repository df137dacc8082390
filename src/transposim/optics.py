"""Linear-optics pipeline realizing the approximate transpose on polarization qubits.

A partially-polarizing beam splitter splits the photon over two arms carrying
the diagonal first-step Kraus operators, a half-wave plate at 22.5 degrees
Fourier-transforms the polarization in each arm, polarizing beam splitters
split each arm into two labelled paths, per-path phase shifters conjugate the
retrodicted path state, and a 4-to-1 coupler combines the paths incoherently
(the paths are distinguishable measurement outcomes).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .channels import Channel, MeasurePrepare, _measure_and_prepare, channel_from_measure_prepare
from .designs import Fiducial
from .errors import CalibrationError, DomainError
from .linalg import DensityMatrix, Ket, Operator, _frozen, phase_free_distance
from .twostep import build_two_step

PHASE_TOL = 1e-10


@dataclass(frozen=True)
class OpticalElement:
    kind: str  # PPBS | HWP | PBS | PS | COUPLER
    paths: tuple[int, ...]
    matrix: Operator | None
    params: dict = field(default_factory=dict)


def hwp(theta: float) -> OpticalElement:
    """Half-wave plate at angle theta (radians) to the optical axis."""
    c, s = np.cos(2 * theta), np.sin(2 * theta)
    return OpticalElement("HWP", (0,), Operator([[c, s], [s, -c]]), {"theta": theta})


def phase_shifter(phi: float, component: int = 1, path: int = 0) -> OpticalElement:
    """Multiply one polarization component by e^{i phi}."""
    m = np.eye(2, dtype=complex)
    m[component, component] = np.exp(1j * phi)
    return OpticalElement("PS", (path,), Operator(m), {"phi": phi, "component": component})


def pbs(paths: tuple[int, int] = (0, 1)) -> OpticalElement:
    """Polarizing beam splitter: horizontal keeps its path, vertical swaps."""
    e_h = np.diag([1.0, 0.0])
    e_v = np.diag([0.0, 1.0])
    m = np.kron(np.eye(2), e_h) + np.kron(np.array([[0, 1], [1, 0]]), e_v)
    return OpticalElement("PBS", paths, Operator(m, (2, 2)))


def ppbs(t_v: complex, r_v: complex, paths: tuple[int, int] = (0, 1)) -> OpticalElement:
    """Partially-polarizing beam splitter with t_h = r_v and r_h = t_v.

    The matrix acts on (path, polarization); per polarization the two ports
    mix through the unitary [[t, -r*], [r, t*]].
    """
    t_h, r_h = r_v, t_v
    if abs(abs(t_v) ** 2 + abs(r_v) ** 2 - 1.0) > 1e-12:
        raise DomainError("PPBS amplitudes must satisfy |t_v|^2 + |r_v|^2 = 1")
    m = np.zeros((4, 4), dtype=complex)
    for pol, (t, r) in enumerate([(t_h, r_h), (t_v, r_v)]):
        block = np.array([[t, -np.conj(r)], [r, np.conj(t)]])
        e_pol = np.zeros((2, 2))
        e_pol[pol, pol] = 1.0
        m += np.kron(block, e_pol)
    return OpticalElement(
        "PPBS", paths, Operator(m, (2, 2)), {"t_v": t_v, "r_v": r_v, "t_h": t_h, "r_h": r_h}
    )


def coupler(paths: tuple[int, ...] = (0, 1, 2, 3)) -> OpticalElement:
    """4-to-1 incoherent combiner of distinguishable output paths."""
    return OpticalElement("COUPLER", paths, None)


def element_matrix(e: OpticalElement) -> Operator:
    if e.kind in ("PPBS", "HWP", "PBS", "PS"):
        return e.matrix
    if e.kind == "COUPLER":
        raise DomainError("the coupler combines paths incoherently and has no unitary matrix")
    raise DomainError(f"unknown optical element kind {e.kind!r}")


@dataclass(frozen=True)
class Fig2Pipeline:
    """PPBS -> per-arm HWP -> per-arm PBS -> per-path PS -> 4-to-1 coupler.

    Path p = 2k + l carries the effect |s_{k,l}><s_{k,l}| / 2; the transmission
    arm is k = 0.  The path effects and the prepared (conjugated) states are
    held as read-only copies of the stacks `effect_stack` (4, 2, 2) and
    `prepared_stack` (4, 2).
    """

    fiducial: Fiducial
    elements: tuple[OpticalElement, ...]
    arm_kraus: tuple[Operator, Operator]
    effect_stack: np.ndarray
    analyzer_states: tuple[Ket, ...]  # conditional path states before the PS
    prepared_stack: np.ndarray
    solved_phases: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "effect_stack", _frozen(self.effect_stack))
        object.__setattr__(self, "prepared_stack", _frozen(self.prepared_stack))


def _solve_conjugation_phase(s: np.ndarray) -> float:
    """Phase phi with diag(1, e^{i phi}) s ~ s* up to a global phase."""
    if abs(s[0]) < 1e-14 or abs(s[1]) < 1e-14:
        return 0.0
    return float(np.angle(s[0]) * 2 - np.angle(s[1]) * 2) % (2 * np.pi)


def build_fig2_pipeline(f: Fiducial) -> Fig2Pipeline:
    """Assemble and calibrate the four-path pipeline for a qubit SIC fiducial."""
    if f.d != 2:
        raise DomainError("the optical pipeline is defined for polarization qubits (d = 2)")
    ts = build_two_step(f)
    orbit = ts.orbit
    amps = ts.kraus_diagonals[0]
    elements = [ppbs(t_v=amps[1], r_v=amps[0])]
    elements += [hwp(np.pi / 8), hwp(np.pi / 8)]
    elements += [pbs((0, 1)), pbs((2, 3))]
    analyzer, prepared, phases = [], [], []
    for p in range(4):
        s = orbit[p]
        phi = _solve_conjugation_phase(s)
        corrected = np.diag([1.0, np.exp(1j * phi)]) @ s
        dist = phase_free_distance(corrected, s.conj())
        if dist >= PHASE_TOL:
            raise CalibrationError(
                f"path {p}: no phase shifter setting conjugates the path state "
                f"(best distance {dist:.3e})"
            )
        elements.append(phase_shifter(phi, path=p))
        analyzer.append(Ket(s))
        prepared.append(corrected)
        phases.append(phi)
    elements.append(coupler())
    return Fig2Pipeline(
        fiducial=f,
        elements=tuple(elements),
        arm_kraus=tuple(Operator(np.diag(a)) for a in ts.kraus_diagonals),
        effect_stack=ts.assembled_stack,
        analyzer_states=tuple(analyzer),
        prepared_stack=np.array(prepared),
        solved_phases=tuple(phases),
    )


def path_probabilities(pipe: Fig2Pipeline, rho: DensityMatrix) -> np.ndarray:
    """Probability of the photon exiting through each of the four paths."""
    return run_pipeline(pipe, rho)[0]


def run_pipeline(pipe: Fig2Pipeline, rho: DensityMatrix) -> tuple[np.ndarray, DensityMatrix]:
    """Path probabilities and the coupler output state (the incoherent path mixture)."""
    if rho.dim != 2:
        raise DomainError(f"polarization state must be a qubit, got dimension {rho.dim}")
    probs, out = _measure_and_prepare(pipe.effect_stack, pipe.prepared_stack, rho.mat)
    return probs, DensityMatrix(out)


def output_channel(pipe: Fig2Pipeline) -> Channel:
    """The polarization channel induced by the calibrated pipeline."""
    return channel_from_measure_prepare(MeasurePrepare(pipe.effect_stack, pipe.prepared_stack))


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
