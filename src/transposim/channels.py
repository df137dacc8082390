"""Quantum operations in Choi-Jamiolkowski (CJ) form.

A channel is stored by its CJ matrix chi = (I (x) E)[|phi+><phi+|], with the
reference copy first and the output factor second.  The inverse direction is
E[rho] = d * tr_ref{ chi (rho^T (x) I) }.  Kraus views are derived on demand
from the CJ eigendecomposition.

The kernels work on stacked arrays rather than one operator at a time: a
measure-and-prepare CJ matrix is one (N, d^2)^T @ (N, d^2) product of the
stacked E_k^T and |p_k><p_k|, and `apply_to_factor` contracts the stacked
Kraus operators with the reshaped state instead of forming kron(I, K, I).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .designs import Design, design_matrix, verify_coherent, verify_two_design
from .errors import DomainError, NotTracePreserving, ParseError
from .linalg import DensityMatrix, Ket, Operator, swap_operator

CJ_TOL = 1e-10
PSD_TOL = 1e-9


def _cptp_flags(cj: np.ndarray, d_in: int) -> tuple[bool, bool, float, float]:
    """(psd_ok, tp_ok, min_eigenvalue, marginal_residual) for a CJ matrix."""
    eigs = np.linalg.eigvalsh((cj + cj.conj().T) / 2)
    min_eig = float(eigs[0])
    psd_ok = min_eig >= -PSD_TOL * max(1e-30, float(np.abs(eigs).max()))
    d_out = cj.shape[0] // d_in
    # the trace over the output factor must equal identity/d on the reference copy
    marg = np.einsum("abcb->ac", cj.reshape(d_in, d_out, d_in, d_out))
    residual = float(np.abs(marg - np.eye(d_in) / d_in).max())
    return psd_ok, residual <= CJ_TOL, min_eig, residual


@dataclass(frozen=True)
class Channel:
    """A linear map on operators, canonically represented by its CJ matrix."""

    d_in: int
    d_out: int
    cj: Operator
    cptp: bool

    def apply(self, m):
        return apply_channel(self, m)


@dataclass(frozen=True)
class MeasurePrepare:
    """A measure-and-prepare pair: POM effects and the states prepared per outcome."""

    effects: tuple[Operator, ...]
    preparations: tuple[Ket, ...]


def _channel(cj: np.ndarray, d: int, expect_cptp: bool = True) -> Channel:
    psd_ok, tp_ok, min_eig, residual = _cptp_flags(cj, d)
    if expect_cptp and not psd_ok:
        raise DomainError(f"CJ matrix is not PSD (min eigenvalue {min_eig:.3e})")
    if expect_cptp and not tp_ok:
        raise NotTracePreserving(
            f"CJ marginal deviates from identity/d by {residual:.3e}", residual=residual
        )
    return Channel(d, d, Operator(cj, (d, d)), cptp=psd_ok and tp_ok)


def transpose_map(d: int) -> Channel:
    """The (unphysical) transpose map rho -> rho^T; CJ matrix V/d, not PSD."""
    if d < 2:
        raise DomainError(f"dimension must be >= 2, got {d}")
    return _channel(swap_operator(d).mat / d, d, expect_cptp=False)


def depolarize_to_identity(d: int) -> Channel:
    """The map sending every state to the maximally mixed one; CJ = identity/d^2."""
    if d < 2:
        raise DomainError(f"dimension must be >= 2, got {d}")
    return _channel(np.eye(d * d) / (d * d), d)


def approx_transpose(d: int) -> Channel:
    """Best completely positive approximation of the transpose.

    The transpose is mixed with just enough depolarizing noise to be physical:
    weight 1/(d+1) on the transpose, d/(d+1) on depolarizing, equivalently
    CJ = (identity + V) / (d(d+1)).
    """
    if d < 2:
        raise DomainError(f"dimension must be >= 2, got {d}")
    cj = (np.eye(d * d) + swap_operator(d).mat) / (d * (d + 1))
    return _channel(cj, d)


def cj_state(e: Channel) -> DensityMatrix:
    """The CJ matrix as a bipartite quantum state (CPTP channels only)."""
    if not e.cptp:
        raise DomainError("CJ state is only defined for CPTP channels")
    return DensityMatrix(e.cj)


def channel_from_cj(chi: DensityMatrix) -> Channel:
    """Rebuild the channel acting as E[rho] = d tr_ref{chi (rho^T (x) I)}."""
    dims = chi.dims
    if len(dims) != 2 or dims[0] != dims[1]:
        raise DomainError(f"CJ state must live on a d x d bipartite space, got dims {dims}")
    d = dims[0]
    _, tp_ok, _, residual = _cptp_flags(chi.mat, d)
    if not tp_ok:
        raise NotTracePreserving(
            f"CJ marginal deviates from identity/d by {residual:.3e}", residual=residual
        )
    return _channel(chi.mat, d)


def apply_channel(e: Channel, m):
    """Apply the channel; DensityMatrix in -> DensityMatrix out (if CPTP)."""
    x = m.mat if not isinstance(m, np.ndarray) else m
    if x.shape != (e.d_in, e.d_in):
        raise DomainError(f"input has shape {x.shape}, channel expects {(e.d_in, e.d_in)}")
    chi = e.cj.mat.reshape(e.d_in, e.d_out, e.d_in, e.d_out)
    out = e.d_in * np.einsum("abcd,ac->bd", chi, x)
    if isinstance(m, DensityMatrix) and e.cptp:
        return DensityMatrix(out, dims=(e.d_out,))
    return Operator(out, (e.d_out,))


def kraus_ops(e: Channel, tol: float = 1e-12) -> list[np.ndarray]:
    """Kraus operators from the CJ eigendecomposition (CP channels only)."""
    if not e.cptp:
        raise DomainError("Kraus form exists only for completely positive channels")
    vals, vecs = np.linalg.eigh((e.cj.mat + e.cj.mat.conj().T) / 2)
    ops = []
    for lam, v in zip(vals, vecs.T):
        if lam > tol:
            ops.append(np.sqrt(e.d_in * lam) * v.reshape(e.d_in, e.d_out).T)
    return ops


def apply_to_factor(e: Channel, rho: DensityMatrix, factor: int) -> DensityMatrix:
    """Apply the channel to one tensor factor of a multipartite state."""
    dims = rho.dims
    if not 0 <= factor < len(dims):
        raise IndexError(f"factor {factor} out of range for dims {dims}")
    if dims[factor] != e.d_in:
        raise DomainError(f"factor {factor} has dimension {dims[factor]}, channel expects {e.d_in}")
    left = math.prod(dims[:factor])
    right = math.prod(dims[factor + 1:])
    k = np.stack(kraus_ops(e))                                  # (r, d_out, d_in)
    t = rho.mat.reshape(left, e.d_in, right, left, e.d_in, right)
    t = np.einsum("kim,ambcnd->kaibcnd", k, t)                  # K_k on the row index
    out = np.einsum("kaibcnd,kjn->aibcjd", t, k.conj())         # K_k^dag on the column
    new_dims = dims[:factor] + (e.d_out,) + dims[factor + 1:]
    size = left * e.d_out * right
    return DensityMatrix(out.reshape(size, size), dims=new_dims)


def cj_distance(a: Channel, b: Channel) -> float:
    """Frobenius distance between CJ matrices; < 1e-10 counts as equal."""
    return float(np.linalg.norm(a.cj.mat - b.cj.mat))


def measure_prepare_from_design(g: Design) -> tuple[MeasurePrepare, Channel]:
    """Measurement in a coherent two-design followed by conjugate-state preparation.

    Effects are (d/N)|x_k><x_k| (the unique trace-preserving weights), the
    prepared states are the complex conjugates |x_k*>.  The induced channel is
    the approximate transpose, independent of which design was used.
    """
    res2 = verify_two_design(g)
    resc = verify_coherent(g)
    if res2 >= 1e-10:
        raise DomainError(f"design fails the two-design check (residual {res2:.3e})")
    if resc >= 1e-10:
        raise DomainError(f"design is not coherent (projector-sum residual {resc:.3e})")
    d, n = g.d, g.n
    arr = design_matrix(g)
    projectors = arr[:, :, None] * arr[:, None, :].conj()
    effects = tuple(Operator(p) for p in (d / n) * projectors)
    preps = tuple(Ket(v) for v in arr.conj())
    mp = MeasurePrepare(effects, preps)
    return mp, channel_from_measure_prepare(mp)


def channel_from_measure_prepare(mp: MeasurePrepare) -> Channel:
    """CJ matrix of rho -> sum_k tr{E_k rho} |p_k><p_k|."""
    d, n = mp.effects[0].dim, len(mp.effects)
    if len(mp.preparations) != n:
        raise DomainError(f"{n} effects but {len(mp.preparations)} prepared states")
    effects = np.stack([e.mat for e in mp.effects])              # (N, d, d)
    if float(np.abs(effects.sum(axis=0) - np.eye(d)).max()) > 1e-10:
        raise DomainError("effects do not sum to the identity")
    preps = np.stack([p.vec for p in mp.preparations])           # (N, d)
    projectors = preps[:, :, None] * preps[:, None, :].conj()
    # (I (x) E)[|phi+><phi+|] = sum_k E_k^T / d (x) |p_k><p_k|; the product
    # below holds it as [(a, c), (b, e)] for the kron entry [(a, b), (c, e)]
    t = effects.transpose(0, 2, 1).reshape(n, d * d).T @ projectors.reshape(n, d * d)
    cj = (t / d).reshape(d, d, d, d).transpose(0, 2, 1, 3).reshape(d * d, d * d)
    return _channel(cj, d)


def pointwise_transpose_fidelity(e: Channel, psi: Ket) -> float:
    """<psi*| E[|psi><psi|] |psi*>, the conjugation fidelity on a pure state."""
    if not e.cptp:
        raise DomainError("fidelity is defined for CPTP channels")
    if abs(psi.norm() - 1.0) > 1e-12:
        raise DomainError("input state must be normalized")
    out = apply_channel(e, Operator(np.outer(psi.vec, psi.vec.conj())))
    target = psi.vec.conj()
    return float(np.real(target.conj() @ out.mat @ target))


# ---------------------------------------------------------------------------
# File format: {"d_in": d, "d_out": d, "cj": [[[re, im], ...], ...]}
# ---------------------------------------------------------------------------


def save_channel(e: Channel, path: str) -> None:
    grid = [[[float(c.real), float(c.imag)] for c in row] for row in e.cj.mat]
    with open(path, "w") as fh:
        json.dump({"d_in": e.d_in, "d_out": e.d_out, "cj": grid}, fh, indent=2)
        fh.write("\n")


def load_channel(path: str) -> Channel:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    for key in ("d_in", "d_out", "cj"):
        if not isinstance(doc, dict) or key not in doc:
            raise ParseError(f"{path}: missing key '{key}'")
    d_in, d_out = int(doc["d_in"]), int(doc["d_out"])
    if d_in != d_out:
        raise ParseError(f"{path}: only square channels are supported")
    try:
        cj = np.array(
            [[complex(float(c[0]), float(c[1])) for c in row] for row in doc["cj"]]
        )
    except (TypeError, ValueError, IndexError) as exc:
        raise ParseError(f"{path}: CJ entries must be [re, im] pairs: {exc}") from exc
    if cj.shape != (d_in * d_out, d_in * d_out):
        raise ParseError(f"{path}: CJ matrix has shape {cj.shape}")
    if not np.all(np.isfinite(cj.view(float))):
        raise ParseError(f"{path}: non-finite CJ entry")
    return _channel(cj, d_in)
