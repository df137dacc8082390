"""Quantum operations in Choi-Jamiolkowski (CJ) form.

A channel is its CJ state chi = (I (x) E)[|phi+><phi+|], a `DensityMatrix`
with dims (d_in, d_out): the reference copy first and the output factor
second.  The inverse direction is E[rho] = d * tr_ref{ chi (rho^T (x) I) }.
Every `Channel` passes the one state check and the trace-preservation
marginal when it is built, so it is completely positive and trace preserving
and no function here needs to ask.  A channel holds its superoperator, the
CJ matrix reshuffled once on first use, and `apply_channel` is one product
against it.  Kraus views are derived on demand from the CJ
eigendecomposition.  Every `MeasurePrepare` checks that its effects form a
POVM and its preparations are unit vectors when it is built, so its output
on a state needs no check either.

The kernels work on stacked arrays rather than one operator at a time: a
measure-and-prepare CJ matrix is one design sum `linalg._kron_sum` of the
stacked E_k^T and |p_k><p_k|, `_measure_and_prepare` applies a
`MeasurePrepare` record to a state, and `apply_to_factor` contracts the
stacked Kraus operators with the reshaped state instead of forming
kron(I, K, I).  The design, two-step and optics realizations are each a
`MeasurePrepare`, so this one kernel and `channel_from_measure_prepare` serve
all three.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .designs import _SHARED_MAX_DIM, COHERENCE_TOL, TWO_DESIGN_TOL, Design, _identity_plus_swap
from .errors import DomainError, NotTracePreserving, ValidationError
from .linalg import (
    HERMITIAN_TOL, PSD_TOL, DensityMatrix, Ket, Operator, _as_int, _check_index,
    _check_unit_norm, _frozen, _kron_sum, _memo, _psd_violation, _read_only, _refuse_oversized,
)

CJ_TOL = 1e-10
# CJ eigenvalues at or below this give no Kraus operator
KRAUS_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class Channel(DensityMatrix):
    """A completely positive, trace-preserving map, held as its CJ state.

    `Channel(chi, (d_in, d_out))` runs the one state check of `DensityMatrix`
    on chi, refuses dims of any other number of factors (DomainError), and
    then requires the trace over the output factor, identity/d_in + Delta, to
    have d_in ||Delta||_F <= CJ_TOL (else NotTracePreserving with that
    residual).  The output trace is 1 + d_in tr(Delta rho^T), so the residual
    bounds |tr Phi(rho) - 1| over every state.  So every Channel is CPTP, and
    `apply_channel` and `apply_to_factor` return its output on a checked
    state unchecked.
    """

    def __init__(self, mat, dims):
        super().__init__(mat, dims)
        if len(self.dims) != 2:
            raise DomainError(f"a channel's CJ state has dims (d_in, d_out), got {self.dims}")
        d_in, d_out = self.dims
        # the trace over the output factor must equal identity/d_in on the reference copy
        marg = np.einsum("abcb->ac", self.mat.reshape(d_in, d_out, d_in, d_out))
        residual = d_in * float(np.linalg.norm(marg - np.eye(d_in) / d_in))
        if not residual <= CJ_TOL:
            raise NotTracePreserving(
                f"CJ marginal misses identity/d: output trace off by up to {residual:.3e}",
                residual=residual,
            )

    @property
    def d_in(self) -> int:
        return self.dims[0]

    @property
    def d_out(self) -> int:
        return self.dims[1]


@dataclass(frozen=True, eq=False)
class MeasurePrepare:
    """A measure-and-prepare realization: POVM effects and the states prepared per outcome.

    Held as read-only copies of the stacks `effect_stack` (N, d, d) and
    `preparation_stack` (N, d), outcome k pairing E_k with |p_k>; stacks of
    any other shapes, or empty ones, raise DomainError.  The effects must
    form a POVM: each E_k Hermitian within HERMITIAN_TOL and PSD above the
    floor of `linalg._psd_violation` (else ValidationError "hermitian" or
    "psd" with the worst effect's residual), and sum_k E_k within 1e-10 of
    the identity (else DomainError).  Each |p_k> must be a unit vector
    (ValidationError "norm").  So `_measure_and_prepare` returns its output
    on a checked state unchecked.  The two-step circuit and the optics
    pipeline are subclasses that add the fields of their construction, and
    run these checks through `super().__post_init__()`.
    """

    effect_stack: np.ndarray
    preparation_stack: np.ndarray

    def __post_init__(self):
        effects, preps = _frozen(self.effect_stack), _frozen(self.preparation_stack)
        n, d = preps.shape if preps.ndim == 2 else (0, 0)
        if not (n and d and effects.shape == (n, d, d)):
            raise DomainError(
                f"effects of shape {effects.shape} with preparations of shape {preps.shape}, "
                "expected (N, d, d) with (N, d) and N, d >= 1"
            )
        _check_unit_norm(np.linalg.norm(preps, axis=1))
        eh = effects.conj().transpose(0, 2, 1)
        herm = float(np.abs(effects - eh).max())
        if herm > HERMITIAN_TOL:
            raise ValidationError("hermitian", herm)
        # every effect's shifted Cholesky at once, as `_psd_violation` shifts each;
        # only when one fails does `_psd_violation` decide effect by effect
        h = (effects + eh) * 0.5
        diag = h.reshape(n, -1)[:, :: d + 1]                   # h is new and C-ordered: a view
        diag += PSD_TOL * np.abs(diag).max(axis=1, keepdims=True)
        try:
            np.linalg.cholesky(h)
        except np.linalg.LinAlgError:
            worst = max((v for v in map(_psd_violation, effects) if v is not None), default=None)
            if worst is not None:
                raise ValidationError("psd", worst) from None
        if float(np.abs(effects.sum(axis=0) - np.eye(d)).max()) > 1e-10:
            raise DomainError("effects do not sum to the identity")
        object.__setattr__(self, "effect_stack", effects)
        object.__setattr__(self, "preparation_stack", preps)


def _check_dim(d, what: str = "a channel") -> int:
    """A channel dimension as an int: an integer (by `_as_int`) from 2 to `linalg.MAX_DIM`."""
    d = _as_int(d, "dimension")
    if d < 2:
        raise DomainError(f"dimension must be >= 2, got {d}")
    _refuse_oversized(d, what)
    return d


def approx_transpose(d: int) -> Channel:
    """Best completely positive approximation of the transpose.

    The transpose is mixed with just enough depolarizing noise to be physical:
    weight 1/(d+1) on the transpose, d/(d+1) on depolarizing, equivalently
    CJ = (identity + V) / (d(d+1)).  d is checked on every call; for d <= 8
    every call returns the one read-only channel built and checked by the first.
    """
    d = _check_dim(d)
    return (_approx_transpose if d <= _SHARED_MAX_DIM else _approx_transpose.__wrapped__)(d)


@functools.cache
def _approx_transpose(d: int) -> Channel:
    """The checked approximate transpose for a d that `approx_transpose` has already accepted."""
    return Channel(_identity_plus_swap(d), (d, d))


def _superoperator(e: Channel) -> np.ndarray:
    """The channel's read-only superoperator S, built once and held on the channel.

    S[(a, c), (b, d)] = d_in chi[(a, b), (c, d)], shape (d_in^2, d_out^2), so
    that Phi(x) = (vec(x) @ S) reshaped to (d_out, d_out).  A shared channel
    holds its S for the life of the process, and a fresh one lets it go with
    the channel.
    """
    def build(e: Channel) -> np.ndarray:
        d_in, d_out = e.dims
        # a C-ordered product, so the reshape below copies nothing
        s = np.multiply(d_in, e.mat.reshape(d_in, d_out, d_in, d_out).transpose(0, 2, 1, 3),
                        order="C")
        return _read_only(s.reshape(d_in * d_in, d_out * d_out))

    return _memo(e, "_superoperator", build)


def apply_channel(e: Channel, m):
    """Apply the channel; DensityMatrix in -> DensityMatrix out, else Operator out.

    One product of the flattened input with the channel's held superoperator.
    The output on a DensityMatrix is not checked again: a checked Channel
    sends a checked state to a state (the trace-norm bound at
    `Operator._derived`).  Any other input is wrapped as an Operator, with
    Operator's finiteness scan.
    """
    x = m.mat if not isinstance(m, np.ndarray) else m
    d_in, d_out = e.dims
    if x.shape != (d_in, d_in):
        raise DomainError(f"input has shape {x.shape}, channel expects {(d_in, d_in)}")
    out = (x.reshape(-1) @ _superoperator(e)).reshape(d_out, d_out)
    if isinstance(m, DensityMatrix):
        return DensityMatrix._derived(out, (d_out,))
    return Operator(out, (d_out,))


def kraus_ops(e: Channel) -> list[np.ndarray]:
    """Kraus operators from the CJ eigendecomposition, scaled as one (r, d_out, d_in) stack."""
    vals, vecs = np.linalg.eigh((e.mat + e.mat.conj().T) / 2)
    keep = vals > KRAUS_TOL
    k = vecs.T[keep].reshape(-1, e.d_in, e.d_out).transpose(0, 2, 1)
    return list(np.sqrt(e.d_in * vals[keep])[:, None, None] * k)


def apply_to_factor(e: Channel, rho: DensityMatrix, factor: int) -> DensityMatrix:
    """Apply the channel to one tensor factor of a multipartite state.

    The output is not checked again, as for `apply_channel` on a state.
    """
    dims = rho.dims
    factor = _check_index(factor, dims)
    d_in, d_out = e.dims
    if dims[factor] != d_in:
        raise DomainError(f"factor {factor} has dimension {dims[factor]}, channel expects {d_in}")
    left = math.prod(dims[:factor])
    right = math.prod(dims[factor + 1:])
    k = np.stack(kraus_ops(e))                                  # (r, d_out, d_in)
    t = rho.mat.reshape(left, d_in, right, left, d_in, right)
    t = np.einsum("kim,ambcnd->kaibcnd", k, t)                  # K_k on the row index
    out = np.einsum("kaibcnd,kjn->aibcjd", t, k.conj())         # K_k^dag on the column
    new_dims = dims[:factor] + (d_out,) + dims[factor + 1:]
    return DensityMatrix._derived(out, new_dims)


def cj_distance(a: Channel, b: Channel) -> float:
    """Frobenius distance between CJ matrices; < 1e-10 counts as equal."""
    return float(np.linalg.norm(a.mat - b.mat))


def measure_prepare_from_design(g: Design) -> tuple[MeasurePrepare, Channel]:
    """Measurement in a coherent two-design followed by conjugate-state preparation.

    Effects are (d/N)|x_k><x_k| (the unique trace-preserving weights), the
    prepared states are the complex conjugates |x_k*>.  The induced channel is
    the approximate transpose, independent of which design was used.  The
    first call on a design builds and checks the pair, and every later call
    returns that one tuple; a refused design is refused again on every call.
    """
    return _memo(g, "_measure_prepare", _measure_prepare_from_design)


def _measure_prepare_from_design(g: Design) -> tuple[MeasurePrepare, Channel]:
    res2, resc = g.two_design_residual, g.coherence_residual
    if res2 >= TWO_DESIGN_TOL:
        raise DomainError(f"design fails the two-design check (residual {res2:.3e})")
    if resc >= COHERENCE_TOL:
        raise DomainError(f"design is not coherent (projector-sum residual {resc:.3e})")
    arr = g.vector_stack
    projectors = arr[:, :, None] * arr[:, None, :].conj()
    mp = MeasurePrepare((g.d / g.n) * projectors, arr.conj())
    return mp, channel_from_measure_prepare(mp)


def channel_from_measure_prepare(mp: MeasurePrepare) -> Channel:
    """CJ matrix of rho -> sum_k tr{E_k rho} |p_k><p_k|."""
    effects, preps = mp.effect_stack, mp.preparation_stack      # (N, d, d), (N, d)
    d = preps.shape[1]
    projectors = preps[:, :, None] * preps[:, None, :].conj()
    # (I (x) E)[|phi+><phi+|] = sum_k E_k^T / d (x) |p_k><p_k|
    return Channel(_kron_sum(effects.transpose(0, 2, 1), projectors) / d, (d, d))


def _measure_and_prepare(
    mp: MeasurePrepare, rho: DensityMatrix
) -> tuple[np.ndarray, DensityMatrix]:
    """p_k = tr{E_k rho} and the prepared mixture sum_k p_k |p_k><p_k| (a d-dimensional state).

    The mixture is not checked again: a `MeasurePrepare` checked its POVM and
    its unit preparations when it was built, so it sends a checked state to a
    state (the measure-and-prepare argument at `Operator._derived`).
    """
    preps = mp.preparation_stack
    d = preps.shape[1]
    if rho.dim != d:
        raise DomainError(f"state dimension {rho.dim} does not match the measurement dimension {d}")
    probs = np.einsum("kij,ji->k", mp.effect_stack, rho.mat).real
    projectors = preps[:, :, None] * preps[:, None, :].conj()
    # a sum over the leading axis adds the outcomes in order, as the loop form does
    return probs, DensityMatrix._derived((probs[:, None, None] * projectors).sum(axis=0), (d,))


def pointwise_transpose_fidelity(e: Channel, psi: Ket) -> float:
    """<psi*| E[|psi><psi|] |psi*>, the conjugation fidelity on a pure state."""
    _check_unit_norm(psi.norm())
    out = apply_channel(e, Operator(np.outer(psi.vec, psi.vec.conj())))
    target = psi.vec.conj()
    return float(np.real(target.conj() @ out.mat @ target))
