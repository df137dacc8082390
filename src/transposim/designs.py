"""Coherent spherical two-designs: Heisenberg-Weyl orbits, SIC states, MUB.

A two-design here is a finite family of unit vectors whose projector pair sum
reproduces 2 P_sym / (d(d+1)); a coherent design additionally has projector sum
proportional to the identity, so it induces a measurement.  A `Design` holds
only its vectors and the residuals it computed from them when it was built, so
its certificates are never a caller's claim.
"""

from __future__ import annotations

import functools
import math
from collections import deque
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DomainError, NotPrimeError, NotSICError, ParseError, SearchFailed
from .fileio import _integer, _pairs, _read_json, _vector, write_json
from .linalg import MAX_DIM, Ket, _as_int, _as_seed, _check_unit_norm, _frozen, _refuse_oversized

TWO_DESIGN_TOL = 1e-10
COHERENCE_TOL = 1e-10
SIC_OVERLAP_TOL = 1e-9
# `mub_prime` and `channels.approx_transpose` build and check one record per
# dimension d <= 8, held for the life of the process and shared by every call:
# d^2 <= 64 is the package's limit on total dimension, and the records so held
# take about 150 KB (about 270 KB once each MUB set holds its measure-and-prepare
# pair).  A larger d is built afresh on every call.
_SHARED_MAX_DIM = math.isqrt(MAX_DIM)


@dataclass(frozen=True, eq=False)
class Fiducial:
    """Seed vector whose Heisenberg-Weyl orbit is intended to be a SIC family.

    `ket` must be a `Ket` of dimension d (else DomainError).
    `twostep.build_two_step` and `optics.build_fig2_pipeline` hold the records
    they build on the fiducial.
    """

    d: int
    ket: Ket

    def __post_init__(self):
        object.__setattr__(self, "d", _as_int(self.d, "dimension"))
        if not isinstance(self.ket, Ket):
            raise DomainError(f"a fiducial's ket must be a Ket, got {type(self.ket).__name__}")
        if self.ket.dim != self.d:
            raise DomainError(f"fiducial vector has dimension {self.ket.dim}, expected {self.d}")

    @property
    def alphas(self) -> np.ndarray:
        return self.ket.vec


@dataclass(frozen=True, eq=False)
class Design:
    """Unit vectors with the two-design and coherence residuals computed from them.

    `Design(vectors, kind)` checks the (N, d) array as one stack and holds a
    read-only copy as `vector_stack`: any other shape, no vectors, d above
    `linalg.MAX_DIM`, a vector off unit norm, or N < d(d+1)/2 vectors that pass
    the two-design check is refused.  `channels.measure_prepare_from_design`
    holds the pair it builds on the design.
    """

    vector_stack: np.ndarray
    kind: str
    two_design_residual: float
    coherence_residual: float

    def __init__(self, vectors, kind: str = "custom"):
        arr = _frozen(vectors)
        if arr.ndim != 2:
            raise DomainError(f"a design is an (N, d) array of vectors, got shape {arr.shape}")
        n, d = arr.shape
        if not n:
            raise DomainError("a design needs at least one vector")
        _refuse_oversized(d, "a design")
        _check_unit_norm(np.linalg.norm(arr, axis=1))
        res2 = two_design_residual(arr, d)
        resc = coherence_residual(arr, d)
        if res2 < TWO_DESIGN_TOL and n < d * (d + 1) // 2:
            raise DomainError(
                f"{n} vectors cannot form a two-design in dimension {d} "
                f"(minimum cardinality {d * (d + 1) // 2})"
            )
        object.__setattr__(self, "vector_stack", arr)
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "two_design_residual", res2)
        object.__setattr__(self, "coherence_residual", resc)

    @property
    def d(self) -> int:
        return self.vector_stack.shape[1]

    @property
    def n(self) -> int:
        return len(self.vector_stack)


def _pair_projector_sum(vectors: np.ndarray) -> np.ndarray:
    """(1/N) sum_k |x_k x_k><x_k x_k| on the doubled space."""
    n, d = vectors.shape
    xx = (vectors[:, :, None] * vectors[:, None, :]).reshape(n, d * d)  # row k: x_k (x) x_k
    return (xx.T @ xx.conj()) / n


def _identity_plus_swap(d: int) -> np.ndarray:
    """(I + V) / (d(d+1)): the CJ matrix of the approximate transpose, 2 P_sym / (d(d+1))."""
    e = np.eye(d * d).reshape(d, d, d, d)
    # real, and bit for bit the real part of (I + swap_operator(d).mat) / (d(d+1))
    return (e + e.swapaxes(0, 1)).reshape(d * d, d * d) / (d * (d + 1))


def two_design_residual(vectors: np.ndarray, d: int) -> float:
    return float(np.linalg.norm(_pair_projector_sum(vectors) - _identity_plus_swap(d)))


def coherence_residual(vectors: np.ndarray, d: int) -> float:
    s = np.einsum("ka,kb->ab", vectors, vectors.conj())
    return float(np.linalg.norm(s - (len(vectors) / d) * np.eye(d)))


def frame_potential(g: Design) -> float:
    """sum_{j,k} |<x_j|x_k>|^4, including the diagonal terms."""
    gram = g.vector_stack @ g.vector_stack.conj().T
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
    d = _as_int(d, "dimension")
    if d not in _BUILTIN_FIDUCIALS:
        raise DomainError(f"no built-in fiducial for dimension {d}; run a search or load a file")
    return Fiducial(d, Ket(_BUILTIN_FIDUCIALS[d]))


def _weyl_orbit(v: np.ndarray) -> np.ndarray:
    """All d^2 vectors X^k Z^l v, stacked (d^2, d) at index k*d + l."""
    d = v.size
    if d < 2:
        raise DomainError(f"Weyl pair needs dimension >= 2, got {d}")
    idx = np.arange(d)
    # (X^k Z^l a)_n = omega^(l m) a_m with m = n - k mod d
    m = (idx[None, :] - idx[:, None]) % d              # [k, n]
    lm = (idx[None, :, None] * m[:, None, :]) % d      # [k, l, n]
    out = np.exp(2j * np.pi * lm / d) * v[m][:, None, :]
    return out.reshape(d * d, d)


def hw_orbit(f: Fiducial) -> np.ndarray:
    """All d^2 orbit vectors X^k Z^l |fiducial>, indexed k*d + l."""
    return _weyl_orbit(f.ket.vec)


def _overlap_law(vecs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(|<s_i|s_j>|^2, its deviation from 1/(d+1) with the diagonal zeroed)."""
    gram2 = np.abs(vecs @ vecs.conj().T) ** 2
    dev = np.abs(gram2 - 1.0 / (vecs.shape[1] + 1))
    np.fill_diagonal(dev, 0.0)
    return gram2, dev


def _sic_orbit(f: Fiducial) -> np.ndarray:
    """The (d^2, d) orbit of a unit fiducial, checked against the SIC overlap law."""
    _check_unit_norm(f.ket.norm())
    d = f.d
    _refuse_oversized(d, "a SIC orbit")
    vecs = hw_orbit(f)
    gram2, dev = _overlap_law(vecs)
    target = 1.0 / (d + 1)
    worst = np.unravel_index(int(np.argmax(dev)), dev.shape)
    if dev[worst] > SIC_OVERLAP_TOL:
        raise NotSICError(
            f"orbit overlap |<s_{worst[0]}|s_{worst[1]}>|^2 = {gram2[worst]:.6g} "
            f"deviates from 1/(d+1) = {target:.6g} by {dev[worst]:.3e}",
            worst_pair=(int(worst[0]), int(worst[1])),
            deviation=float(dev[worst]),
        )
    return vecs


def sic_from_fiducial(f: Fiducial) -> Design:
    """Heisenberg-Weyl orbit of a fiducial, verified against the SIC overlap law."""
    return Design(_sic_orbit(f), kind="SIC")


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
    by the computational basis.  d is checked on every call; for d <= 8 every
    call returns the one read-only record built and checked by the first.
    """
    d = _as_int(d, "dimension")
    _refuse_oversized(d, "the MUB construction")
    if not _is_prime(d):
        raise NotPrimeError(f"MUB construction implemented for prime dimensions only, got {d}")
    return (_mub_prime if d <= _SHARED_MAX_DIM else _mub_prime.__wrapped__)(d)


@functools.cache
def _mub_prime(d: int) -> Design:
    """The checked MUB design for a prime d that `mub_prime` has already accepted."""
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
        return Design(vecs, kind="MUB")
    omega = np.exp(2j * np.pi / d)
    a = np.arange(d)[:, None, None]
    b = np.arange(d)[None, :, None]
    m = np.arange(d)[None, None, :]
    gauss = omega ** ((a * m * m + b * m) % d) / np.sqrt(d)  # [a, b, m]
    return Design(np.concatenate([np.eye(d, dtype=complex), gauss.reshape(d * d, d)]), kind="MUB")


# ---------------------------------------------------------------------------
# Fiducial search
# ---------------------------------------------------------------------------

FP_EXCESS_TOL = 1e-10
# accepted candidates are polished well past the certificate so the orbit also
# clears the stricter SIC overlap check (1e-9) with margin
OVERLAP_DEV_ACCEPT = 1e-10


LBFGS_MEMORY = 10
ARMIJO_C1 = 1e-4
LINE_SEARCH_TRIALS = 40


class Minimum(NamedTuple):
    """Where `minimize` stopped, and the iterations it took to get there."""

    x: np.ndarray
    nit: int


def _armijo_step(fun, args, x, f, p, slope):
    """The first x + p / 2^k, k < 40, that meets the Armijo condition, or None."""
    step = 1.0
    for _ in range(LINE_SEARCH_TRIALS):
        x_new = x + step * p
        if np.array_equal(x_new, x):
            return None  # the step no longer moves x: no smaller one will
        f_new, g_new = fun(x_new, *args)
        if f_new <= f + ARMIJO_C1 * step * slope:
            return x_new, f_new, g_new
        step *= 0.5
    return None


def minimize(fun, x0, args=(), maxiter: int = 15000, ftol: float = 2.2e-9,
             gtol: float = 1e-5) -> Minimum:
    """Minimize `fun(x, *args) -> (value, gradient)` over real vectors by L-BFGS.

    Two-loop recursion (Nocedal 1980) over the last 10 (s, y) pairs, with the
    initial inverse Hessian scaled by s.y / y.y. While the memory is empty it
    is 1 / max(1, |g|): a first step from far away has unit length, as in
    L-BFGS-B, and one from near a minimum is the plain gradient step. An
    update with s.y <= 0 is skipped, and a direction that does not descend
    resets the memory to steepest descent. Each step backtracks by halving
    from 1 until the Armijo condition holds (c1 = 1e-4, at most 40 trials);
    the line search fails early once the trial point equals x. Stops on
    |g|_inf <= gtol, on a relative decrease
    (f_k - f_k+1) / max(|f_k|, |f_k+1|, 1) <= ftol, on a failed line search,
    or after `maxiter` iterations.
    """
    x = np.array(x0, dtype=float)
    f, g = fun(x, *args)
    pairs: deque[tuple[np.ndarray, np.ndarray, float]] = deque(maxlen=LBFGS_MEMORY)
    nit = 0
    while nit < maxiter and np.abs(g).max() > gtol:
        q = g.copy()
        alphas = []
        for s, y, rho in reversed(pairs):
            a = rho * (s @ q)
            q -= a * y
            alphas.append(a)
        if pairs:
            s, y, _ = pairs[-1]
            q *= (s @ y) / (y @ y)
        else:
            q /= max(1.0, np.linalg.norm(g))
        for (s, y, rho), a in zip(pairs, reversed(alphas)):
            q += (a - rho * (y @ q)) * s
        p = -q
        slope = g @ p
        if not slope < 0:
            pairs.clear()
            p = -g / max(1.0, np.linalg.norm(g))
            slope = g @ p
        trial = _armijo_step(fun, args, x, f, p, slope)
        if trial is None:
            break
        x_new, f_new, g_new = trial
        s, y = x_new - x, g_new - g
        sy = s @ y
        if sy > 0:
            pairs.append((s, y, 1.0 / sy))
        nit += 1
        decrease = (f - f_new) / max(abs(f), abs(f_new), 1.0)
        x, f, g = x_new, f_new, g_new
        if decrease <= ftol:
            break
    return Minimum(x, nit)


def orbit_certificate(f: Fiducial) -> tuple[float, float]:
    """(frame-potential excess over the two-design minimum, worst overlap deviation)."""
    gram2, dev = _overlap_law(hw_orbit(f))
    excess = float(np.sum(gram2**2)) - two_design_frame_potential(f.d * f.d, f.d)
    return excess, float(dev.max())


def _orbit_fp_and_grad(x: np.ndarray, d: int) -> tuple[float, np.ndarray]:
    """Orbit frame potential (normalization built in) and its real gradient."""
    psi = x[:d] + 1j * x[d:]
    n = float(np.real(np.vdot(psi, psi)))
    dpsi = _weyl_orbit(psi)                            # (d^2, d), row a: D_a psi
    t = dpsi @ psi.conj()                              # t_a = <psi|D_a|psi>
    t2 = np.abs(t) ** 2
    fp = d * d * float(np.sum(t2**2)) / n**4
    # d/dpsi* of sum |t_a|^4 is sum_a 2|t_a|^2 (conj(t_a) D_a psi + t_a D_a^dag psi).
    # D_{k,l}^dag = omega^(kl) D_{-k,-l} and t_{-a} = omega^(-kl) conj(t_a), so
    # re-indexing a -> -a turns the second term into the first wherever the weight
    # is even in a: here |t_a|^2, in the polish delta_a (delta_{-a} = delta_a, delta_0 = 0)
    g = 4.0 * (t2 * t.conj()) @ dpsi
    g = d * d * (g / n**4 - 4.0 * (np.sum(t2**2) / n**5) * psi)
    return fp, np.concatenate([2.0 * g.real, 2.0 * g.imag])


def _overlap_dev_and_grad(x: np.ndarray, d: int) -> tuple[float, np.ndarray]:
    """Sum of squared deviations of the cross overlaps from 1/(d+1).

    Shares its minimizer set with the frame potential but, being a sum of
    squares of small residuals, stays numerically resolvable far below the
    frame potential's quadratic floor; used to polish candidates.
    """
    psi = x[:d] + 1j * x[d:]
    n = float(np.real(np.vdot(psi, psi)))
    dpsi = _weyl_orbit(psi)
    t = dpsi @ psi.conj()
    t2 = np.abs(t) ** 2 / n**2
    delta = t2 - 1.0 / (d + 1)
    delta[0] = 0.0  # the identity displacement carries overlap 1 by construction
    val = float(np.sum(delta**2))
    coeff = 2.0 * delta
    # both terms of the gradient folded into one, as in _orbit_fp_and_grad
    g = 2.0 * (coeff * t.conj()) @ dpsi
    g = g / n**2 - (2.0 * np.sum(coeff * np.abs(t) ** 2) / n**3) * psi
    return val, np.concatenate([2.0 * g.real, 2.0 * g.imag])


def fiducial_search(d: int, seed: int, max_iters: int = 20000) -> Fiducial:
    """Search for a SIC fiducial by multi-restart frame-potential minimization.

    `max_iters` is the total optimizer-iteration budget across restarts.  A
    candidate is accepted only on the certificate: orbit frame potential within
    1e-10 of 2 d^3/(d+1) and every cross overlap within 1e-10 of 1/(d+1).
    """
    d = _as_int(d, "dimension")
    if d < 2:
        raise DomainError(f"dimension must be >= 2, got {d}")
    _refuse_oversized(d, "fiducial search")
    seed = _as_seed(seed)
    budget = int(max_iters)
    best_excess = np.inf
    restart = 0
    while budget > 0:
        x0 = np.random.default_rng([seed, restart]).standard_normal(2 * d)
        res = minimize(_orbit_fp_and_grad, x0, args=(d,),
                       maxiter=min(800, budget), ftol=1e-18, gtol=1e-14)
        budget -= max(1, int(res.nit))
        if budget > 0:
            polish = minimize(_overlap_dev_and_grad, res.x, args=(d,),
                              maxiter=min(400, budget), ftol=1e-30, gtol=1e-20)
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
# File format: {"dim": d, "vectors": [[[re, im], ...]]}, holding one vector
# ---------------------------------------------------------------------------


def save_fiducial(f: Fiducial, path: str) -> None:
    write_json({"dim": f.d, "vectors": [_pairs(f.ket.vec)]}, path)


def load_fiducial(path: str) -> Fiducial:
    """Read a fiducial file: its vector count, then the vector's length, then its norm."""
    doc = _read_json(path)
    if not isinstance(doc, dict) or "dim" not in doc or "vectors" not in doc:
        raise ParseError(f"{path}: expected keys 'dim' and 'vectors'")
    d = _integer(doc["dim"], f"{path}: 'dim'")
    vecs = doc["vectors"]
    if not isinstance(vecs, list):
        raise ParseError(f"{path}: 'vectors' must be a list of vectors")
    if len(vecs) != 1:
        raise ParseError(f"{path}: a fiducial file holds exactly one vector, found {len(vecs)}")
    v = _vector(vecs[0])
    if v.size != d:
        raise ParseError(f"{path}: vector 0 has length {v.size}, expected {d}")
    _check_unit_norm(np.linalg.norm(v))
    return Fiducial(d, Ket(v))
