"""Coherent spherical two-designs: Heisenberg-Weyl orbits, SIC states, MUB.

A two-design here is a finite family of unit vectors whose projector pair sum
reproduces 2 P_sym / (d(d+1)); a coherent design additionally has projector sum
proportional to the identity, so it induces a measurement.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from .errors import DomainError, NotPrimeError, NotSICError, ParseError, SearchFailed, ValidationError
from .linalg import Ket, Operator, swap_operator

TWO_DESIGN_TOL = 1e-10
COHERENCE_TOL = 1e-10
SIC_OVERLAP_TOL = 1e-9


@dataclass(frozen=True)
class WeylPair:
    """Generalized Pauli pair: cyclic shift x and clock z with zx = omega xz."""

    d: int
    x: Operator
    z: Operator
    omega: complex


@dataclass(frozen=True)
class Fiducial:
    """Seed vector whose Heisenberg-Weyl orbit is intended to be a SIC family."""

    d: int
    ket: Ket

    @property
    def alphas(self) -> np.ndarray:
        return self.ket.vec


@dataclass(frozen=True)
class Design:
    d: int
    vectors: tuple[Ket, ...]
    kind: str
    two_design_residual: float
    coherence_residual: float

    @property
    def n(self) -> int:
        return len(self.vectors)


def weyl_pair(d: int) -> WeylPair:
    """Shift and clock operators: X|n> = |n+1 mod d>, Z|n> = omega^n |n>."""
    if d < 2:
        raise DomainError(f"Weyl pair needs dimension >= 2, got {d}")
    omega = np.exp(2j * np.pi / d)
    x = np.zeros((d, d), dtype=complex)
    for n in range(d):
        x[(n + 1) % d, n] = 1.0
    z = np.diag(omega ** np.arange(d))
    return WeylPair(d, Operator(x), Operator(z), complex(omega))


def design_matrix(g: Design) -> np.ndarray:
    """Stack the design vectors into an (N, d) array."""
    return np.stack([k.vec for k in g.vectors])


def _pair_projector_sum(vectors: np.ndarray) -> np.ndarray:
    """(1/N) sum_k |x_k x_k><x_k x_k| on the doubled space."""
    n, d = vectors.shape
    xx = (vectors[:, :, None] * vectors[:, None, :]).reshape(n, d * d)  # row k: x_k (x) x_k
    return (xx.T @ xx.conj()) / n


def two_design_residual(vectors: np.ndarray, d: int) -> float:
    v = swap_operator(d).mat
    target = (np.eye(d * d) + v) / (d * (d + 1))
    return float(np.linalg.norm(_pair_projector_sum(vectors) - target))


def coherence_residual(vectors: np.ndarray, d: int) -> float:
    s = np.einsum("ka,kb->ab", vectors, vectors.conj())
    return float(np.linalg.norm(s - (len(vectors) / d) * np.eye(d)))


def make_design(vectors, kind: str = "custom") -> Design:
    """Bundle unit vectors with their verified two-design/coherence residuals."""
    kets = tuple(v if isinstance(v, Ket) else Ket(v) for v in vectors)
    if not kets:
        raise DomainError("a design needs at least one vector")
    d = kets[0].dim
    # the first vector of another dimension ends the batch; a norm failure
    # before it is reported first, as a vector-by-vector scan would
    n_same = next((i for i, k in enumerate(kets) if k.dim != d), len(kets))
    arr = np.stack([k.vec for k in kets[:n_same]])
    norm_dev = np.abs(np.linalg.norm(arr, axis=1) - 1.0)
    bad = np.flatnonzero(norm_dev > 1e-12)
    if bad.size:
        raise ValidationError("norm", float(norm_dev[bad[0]]))
    if n_same < len(kets):
        k = kets[n_same]
        raise DomainError(f"vector {n_same} has dimension {k.dim}, expected {d}")
    res2 = two_design_residual(arr, d)
    resc = coherence_residual(arr, d)
    if res2 < TWO_DESIGN_TOL and len(kets) < d * (d + 1) // 2:
        raise DomainError(
            f"{len(kets)} vectors cannot form a two-design in dimension {d} "
            f"(minimum cardinality {d * (d + 1) // 2})"
        )
    return Design(d, kets, kind, res2, resc)


def verify_two_design(g: Design) -> float:
    """Frobenius residual against 2 P_sym / (d(d+1)); passes below 1e-10."""
    return two_design_residual(design_matrix(g), g.d)


def verify_coherent(g: Design) -> float:
    """Frobenius residual of sum_k |x_k><x_k| against (N/d) * identity."""
    return coherence_residual(design_matrix(g), g.d)


def frame_potential(g: Design) -> float:
    """sum_{j,k} |<x_j|x_k>|^4, including the diagonal terms."""
    gram = design_matrix(g) @ design_matrix(g).conj().T
    return float(np.sum(np.abs(gram) ** 4))


def two_design_frame_potential(n: int, d: int) -> float:
    """Minimum frame potential attained exactly by N-vector two-designs."""
    return 2.0 * n * n / (d * (d + 1))


# ---------------------------------------------------------------------------
# SIC orbits
# ---------------------------------------------------------------------------

_SQ6 = np.sqrt(6.0)
_BUILTIN_FIDUCIALS: dict[int, np.ndarray] = {
    2: np.array(
        [np.sqrt(3 + np.sqrt(3)) / _SQ6, np.exp(1j * np.pi / 4) * np.sqrt(3 - np.sqrt(3)) / _SQ6]
    ),
    3: np.array([0.0, 1.0, -1.0]) / np.sqrt(2.0),
}


def builtin_fiducial(d: int) -> Fiducial:
    """Known-good SIC fiducial for d = 2 or 3."""
    if d not in _BUILTIN_FIDUCIALS:
        raise DomainError(f"no built-in fiducial for dimension {d}; run a search or load a file")
    return Fiducial(d, Ket(_BUILTIN_FIDUCIALS[d]))


def hw_orbit(f: Fiducial) -> np.ndarray:
    """All d^2 orbit vectors X^k Z^l |fiducial>, indexed k*d + l."""
    d = f.d
    if d < 2:
        raise DomainError(f"Weyl pair needs dimension >= 2, got {d}")
    idx = np.arange(d)
    # (X^k Z^l a)_n = omega^(l m) a_m with m = n - k mod d
    m = (idx[None, :] - idx[:, None]) % d              # [k, n]
    lm = (idx[None, :, None] * m[:, None, :]) % d      # [k, l, n]
    out = np.exp(2j * np.pi * lm / d) * f.ket.vec[m][:, None, :]
    return out.reshape(d * d, d)


def sic_from_fiducial(f: Fiducial) -> Design:
    """Heisenberg-Weyl orbit of a fiducial, verified against the SIC overlap law."""
    if abs(f.ket.norm() - 1.0) > 1e-12:
        raise ValidationError("norm", abs(f.ket.norm() - 1.0))
    d = f.d
    vecs = hw_orbit(f)
    gram2 = np.abs(vecs @ vecs.conj().T) ** 2
    target = 1.0 / (d + 1)
    dev = np.abs(gram2 - target)
    np.fill_diagonal(dev, 0.0)
    worst = np.unravel_index(int(np.argmax(dev)), dev.shape)
    if dev[worst] > SIC_OVERLAP_TOL:
        raise NotSICError(
            f"orbit overlap |<s_{worst[0]}|s_{worst[1]}>|^2 = {gram2[worst]:.6g} "
            f"deviates from 1/(d+1) = {target:.6g} by {dev[worst]:.3e}",
            worst_pair=(int(worst[0]), int(worst[1])),
            deviation=float(dev[worst]),
        )
    return make_design(vecs, kind="SIC")


# ---------------------------------------------------------------------------
# MUB for prime dimensions
# ---------------------------------------------------------------------------


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    k = 3
    while k * k <= n:
        if n % k == 0:
            return False
        k += 2
    return True


def mub_prime(d: int) -> Design:
    """The complete set of d+1 mutually unbiased bases in prime dimension d.

    d = 2 uses the three Pauli eigenbases; odd primes use the quadratic
    Gauss-sum vectors with components omega^(a m^2 + b m) / sqrt(d), preceded
    by the computational basis.
    """
    if not _is_prime(d):
        raise NotPrimeError(f"MUB construction implemented for prime dimensions only, got {d}")
    if d == 2:
        s = 1 / np.sqrt(2)
        vecs = np.array(
            [
                [1, 0],
                [0, 1],
                [s, s],
                [s, -s],
                [s, 1j * s],
                [s, -1j * s],
            ],
            dtype=complex,
        )
        return make_design(vecs, kind="MUB")
    omega = np.exp(2j * np.pi / d)
    a = np.arange(d)[:, None, None]
    b = np.arange(d)[None, :, None]
    m = np.arange(d)[None, None, :]
    gauss = omega ** ((a * m * m + b * m) % d) / np.sqrt(d)  # [a, b, m]
    return make_design(
        np.concatenate([np.eye(d, dtype=complex), gauss.reshape(d * d, d)]), kind="MUB"
    )


# ---------------------------------------------------------------------------
# Fiducial search
# ---------------------------------------------------------------------------

FP_EXCESS_TOL = 1e-10
OVERLAP_DEV_TOL = 1e-6
# accepted candidates are polished well past the certificate so the orbit also
# clears the stricter SIC overlap check (1e-9) with margin
OVERLAP_DEV_ACCEPT = 1e-10


def _displacements(d: int) -> np.ndarray:
    wp = weyl_pair(d)
    xk = [np.linalg.matrix_power(wp.x.mat, k) for k in range(d)]
    zl = [np.linalg.matrix_power(wp.z.mat, l) for l in range(d)]
    return np.stack([xk[k] @ zl[l] for k in range(d) for l in range(d)])


def orbit_certificate(f: Fiducial) -> tuple[float, float]:
    """(frame-potential excess over the two-design minimum, worst overlap deviation)."""
    vecs = hw_orbit(f)
    d = f.d
    gram2 = np.abs(vecs @ vecs.conj().T) ** 2
    fp = float(np.sum(gram2**2))
    excess = fp - two_design_frame_potential(d * d, d)
    dev = np.abs(gram2 - 1.0 / (d + 1))
    np.fill_diagonal(dev, 0.0)
    return excess, float(dev.max())


def _orbit_fp_and_grad(x: np.ndarray, disp: np.ndarray, d: int) -> tuple[float, np.ndarray]:
    """Orbit frame potential (normalization built in) and its real gradient."""
    psi = x[:d] + 1j * x[d:]
    n = float(np.real(np.vdot(psi, psi)))
    dpsi = disp @ psi                                  # (d^2, d)
    t = dpsi @ psi.conj()                              # t_a = <psi|D_a|psi>
    t2 = np.abs(t) ** 2
    fp = d * d * float(np.sum(t2**2)) / n**4
    # d/dpsi* of sum |t_a|^4: 2|t_a|^2 (conj(t_a) D_a psi + t_a D_a^dag psi)
    g = 2.0 * np.einsum("a,ai->i", t2 * t.conj(), dpsi)
    g += 2.0 * np.einsum("a,ai->i", t2 * t, np.einsum("aij,j->ai", disp.conj().transpose(0, 2, 1), psi))
    g = d * d * (g / n**4 - 4.0 * (np.sum(t2**2) / n**5) * psi)
    return fp, np.concatenate([2.0 * g.real, 2.0 * g.imag])


def _overlap_dev_and_grad(x: np.ndarray, disp: np.ndarray, d: int) -> tuple[float, np.ndarray]:
    """Sum of squared deviations of the cross overlaps from 1/(d+1).

    Shares its minimizer set with the frame potential but, being a sum of
    squares of small residuals, stays numerically resolvable far below the
    frame potential's quadratic floor; used to polish candidates.
    """
    psi = x[:d] + 1j * x[d:]
    n = float(np.real(np.vdot(psi, psi)))
    dpsi = disp @ psi
    t = dpsi @ psi.conj()
    t2 = np.abs(t) ** 2 / n**2
    delta = t2 - 1.0 / (d + 1)
    delta[0] = 0.0  # the identity displacement carries overlap 1 by construction
    val = float(np.sum(delta**2))
    coeff = 2.0 * delta
    g = np.einsum("a,a,ai->i", coeff, t.conj(), dpsi)
    g += np.einsum("a,a,ai->i", coeff, t, np.einsum("aij,j->ai", disp.conj().transpose(0, 2, 1), psi))
    g = g / n**2 - (2.0 * np.sum(coeff * np.abs(t) ** 2) / n**3) * psi
    return val, np.concatenate([2.0 * g.real, 2.0 * g.imag])


def fiducial_search(
    d: int,
    seed: int,
    max_iters: int = 20000,
    start: Fiducial | None = None,
) -> Fiducial:
    """Search for a SIC fiducial by multi-restart frame-potential minimization.

    `max_iters` is the total optimizer-iteration budget across restarts.  A
    candidate is accepted only on the certificate: orbit frame potential within
    1e-10 of 2 d^3/(d+1) and every cross overlap within 1e-6 of 1/(d+1).  If
    `start` already certifies, it is returned unchanged.
    """
    if d < 2:
        raise DomainError(f"dimension must be >= 2, got {d}")
    if start is not None:
        excess, dev = orbit_certificate(start)
        if abs(excess) < FP_EXCESS_TOL and dev < OVERLAP_DEV_TOL:
            return start
    disp = _displacements(d)
    budget = int(max_iters)
    best_excess = np.inf
    restart = 0
    while budget > 0:
        rng = np.random.default_rng([seed, restart])
        if restart == 0 and start is not None:
            x0 = np.concatenate([start.ket.vec.real, start.ket.vec.imag])
        else:
            x0 = rng.standard_normal(2 * d)
        res = minimize(
            _orbit_fp_and_grad,
            x0,
            args=(disp, d),
            jac=True,
            method="L-BFGS-B",
            options={"maxiter": min(800, budget), "ftol": 1e-18, "gtol": 1e-14},
        )
        budget -= max(1, int(res.nit))
        if budget > 0:
            polish = minimize(
                _overlap_dev_and_grad,
                res.x,
                args=(disp, d),
                jac=True,
                method="L-BFGS-B",
                options={"maxiter": min(400, budget), "ftol": 1e-30, "gtol": 1e-20},
            )
            budget -= max(1, int(polish.nit))
            res = polish
        psi = res.x[:d] + 1j * res.x[d:]
        psi /= np.linalg.norm(psi)
        cand = Fiducial(d, Ket(psi))
        excess, dev = orbit_certificate(cand)
        if abs(excess) < FP_EXCESS_TOL and dev < OVERLAP_DEV_ACCEPT:
            return cand
        best_excess = min(best_excess, abs(excess))
        restart += 1
    raise SearchFailed(
        f"no SIC fiducial found in dimension {d} within {max_iters} iterations "
        f"(best frame-potential excess {best_excess:.3e})",
        best_residual=float(best_excess),
    )


# ---------------------------------------------------------------------------
# File format: {"dim": d, "vectors": [[[re, im], ...], ...]}
# ---------------------------------------------------------------------------


def _vector_to_pairs(v: np.ndarray) -> list[list[float]]:
    return [[float(c.real), float(c.imag)] for c in v]


def _pairs_to_vector(pairs) -> np.ndarray:
    try:
        out = np.array([complex(float(p[0]), float(p[1])) for p in pairs])
    except (TypeError, ValueError, IndexError) as exc:
        raise ParseError(f"vector entries must be [re, im] pairs: {exc}") from exc
    if not np.all(np.isfinite(out.view(float))):
        raise ParseError("non-finite vector entry")
    return out


def _load_vectors(path: str) -> tuple[int, list[np.ndarray]]:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    if not isinstance(doc, dict) or "dim" not in doc or "vectors" not in doc:
        raise ParseError(f"{path}: expected keys 'dim' and 'vectors'")
    try:
        d = int(doc["dim"])
    except (TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"{path}: 'dim' must be an integer, got {doc['dim']!r}") from exc
    if not isinstance(doc["vectors"], list):
        raise ParseError(f"{path}: 'vectors' must be a list of vectors")
    vecs = [_pairs_to_vector(p) for p in doc["vectors"]]
    for i, v in enumerate(vecs):
        if v.size != d:
            raise ParseError(f"{path}: vector {i} has length {v.size}, expected {d}")
        nrm = float(np.linalg.norm(v))
        if abs(nrm - 1.0) > 1e-12:
            raise ValidationError("norm", abs(nrm - 1.0))
    return d, vecs


def save_fiducial(f: Fiducial, path: str) -> None:
    try:
        with open(path, "w") as fh:
            json.dump({"dim": f.d, "vectors": [_vector_to_pairs(f.ket.vec)]}, fh, indent=2)
            fh.write("\n")
    except OSError as exc:
        raise ParseError(f"cannot write {path}: {exc}") from exc


def load_fiducial(path: str) -> Fiducial:
    d, vecs = _load_vectors(path)
    if len(vecs) != 1:
        raise ParseError(f"{path}: a fiducial file holds exactly one vector, found {len(vecs)}")
    return Fiducial(d, Ket(vecs[0]))


def save_design(g: Design, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(
            {"dim": g.d, "vectors": [_vector_to_pairs(k.vec) for k in g.vectors]}, fh, indent=2
        )
        fh.write("\n")


def load_design(path: str, kind: str = "custom") -> Design:
    d, vecs = _load_vectors(path)
    if any(v.size != d for v in vecs):
        raise ParseError(f"{path}: inconsistent vector dimensions")
    return make_design(vecs, kind=kind)
