"""Dense complex linear algebra over small multipartite Hilbert spaces.

Vectors and operators carry an explicit list of tensor-factor dimensions so
partial traces and partial transposes can address individual subsystems.
Everything is immutable after construction (arrays are frozen), matrices stay
small (total dimension <= 64), and all randomness is derived from explicit
seeds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

HERMITIAN_TOL = 1e-10
TRACE_TOL = 1e-10
PSD_TOL = 1e-9
NORM_TOL = 1e-12


def _frozen(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=complex)
    if not np.isfinite(out).all():
        raise DomainError("non-finite entries (NaN/Inf) are not allowed")
    out.setflags(write=False)
    return out


def _as_dims(dims, total: int) -> tuple[int, ...]:
    dims = (total,) if dims is None else tuple(int(d) for d in dims)
    if any(d < 1 for d in dims):
        raise DomainError(f"factor dimensions must be positive, got {dims}")
    if math.prod(dims) != total:
        raise DomainError(f"dims {dims} do not multiply to total dimension {total}")
    return dims


@dataclass(frozen=True)
class Ket:
    """A complex vector with attached tensor-factor dimensions."""

    vec: np.ndarray
    dims: tuple[int, ...]

    def __init__(self, vec, dims=None):
        vec = _frozen(np.asarray(vec, dtype=complex).reshape(-1))
        object.__setattr__(self, "vec", vec)
        object.__setattr__(self, "dims", _as_dims(dims, vec.size))

    @property
    def dim(self) -> int:
        return self.vec.size

    def norm(self) -> float:
        return float(np.linalg.norm(self.vec))

    def conj(self) -> "Ket":
        return Ket(self.vec.conj(), self.dims)


@dataclass(frozen=True)
class Operator:
    """A square complex matrix with attached tensor-factor dimensions."""

    mat: np.ndarray
    dims: tuple[int, ...]

    def __init__(self, mat, dims=None):
        mat = _frozen(np.asarray(mat, dtype=complex))
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise DomainError(f"operator must be square, got shape {mat.shape}")
        object.__setattr__(self, "mat", mat)
        object.__setattr__(self, "dims", _as_dims(dims, mat.shape[0]))

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    def dag(self) -> "Operator":
        return Operator(self.mat.conj().T, self.dims)

    def trace(self) -> complex:
        return complex(np.trace(self.mat))


@dataclass(frozen=True)
class DensityMatrix:
    """A validated quantum state: Hermitian, unit trace, PSD within tolerance."""

    op: Operator

    def __init__(self, op: Operator | np.ndarray, dims=None):
        if not isinstance(op, Operator):
            op = Operator(op, dims)
        m = op.mat
        herm = float(np.abs(m - m.conj().T).max())
        if herm > HERMITIAN_TOL:
            raise DomainError(f"not Hermitian (residual {herm:.3e})")
        tr = complex(np.trace(m))
        if abs(tr - 1.0) > TRACE_TOL:
            raise DomainError(f"trace is {tr:.12g}, expected 1")
        eigs = np.linalg.eigvalsh((m + m.conj().T) / 2)
        floor = -PSD_TOL * max(1e-30, float(np.abs(eigs).max()))
        if eigs[0] < floor:
            raise DomainError(f"not positive semidefinite (min eigenvalue {eigs[0]:.3e})")
        object.__setattr__(self, "op", op)

    @property
    def mat(self) -> np.ndarray:
        return self.op.mat

    @property
    def dims(self) -> tuple[int, ...]:
        return self.op.dims

    @property
    def dim(self) -> int:
        return self.op.dim


def basis_ket(d: int, i: int, dims=None) -> Ket:
    """Computational basis vector |i> in dimension d."""
    if not 0 <= i < d:
        raise IndexError(f"basis index {i} out of range for dimension {d}")
    v = np.zeros(d, dtype=complex)
    v[i] = 1.0
    return Ket(v, dims)


def identity(dims) -> Operator:
    dims = tuple(int(d) for d in dims)
    return Operator(np.eye(int(np.prod(dims))), dims)


def swap_operator(d: int) -> Operator:
    """The swap V on a d x d bipartite space: V|i,j> = |j,i>."""
    v = np.eye(d * d).reshape(d, d, d, d).swapaxes(0, 1).reshape(d * d, d * d)
    return Operator(v, (d, d))


def outer(k: Ket, b: Ket | None = None) -> Operator:
    """|k><b| (defaults to the projector |k><k|)."""
    b = k if b is None else b
    return Operator(np.outer(k.vec, b.vec.conj()), k.dims)


def kron(a: Operator, b: Operator) -> Operator:
    """Tensor product; the first factor is most significant."""
    return Operator(np.kron(a.mat, b.mat), a.dims + b.dims)


def kron_ket(a: Ket, b: Ket) -> Ket:
    return Ket(np.kron(a.vec, b.vec), a.dims + b.dims)


def _check_subsystems(dims: tuple[int, ...], subs) -> list[int]:
    subs = [int(s) for s in (subs if np.iterable(subs) else [subs])]
    for s in subs:
        if not 0 <= s < len(dims):
            raise IndexError(f"subsystem {s} out of range for dims {dims}")
    if not subs:
        raise IndexError("empty subsystem selection")
    return subs


def partial_trace(m: Operator, keep) -> Operator:
    """Trace out every tensor factor not listed in `keep`."""
    dims = m.dims
    if len(dims) < 2:
        raise IndexError("partial trace needs at least two tensor factors")
    keep = sorted(set(_check_subsystems(dims, keep)))
    n = len(dims)
    t = m.mat.reshape(dims + dims)
    letters = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"
    row = list(letters[:n])
    col = list(letters[n:2 * n])
    for i in range(n):
        if i not in keep:
            col[i] = row[i]
    expr = "".join(row) + "".join(col) + "->" + "".join(row[i] for i in keep) + "".join(
        letters[n + i] for i in keep
    )
    kept = tuple(dims[i] for i in keep)
    total = int(np.prod(kept))
    return Operator(np.einsum(expr, t).reshape(total, total), kept)


def partial_transpose(m: Operator, sub: int) -> Operator:
    """Transpose a single tensor factor, leaving the others untouched."""
    dims = m.dims
    (sub,) = _check_subsystems(dims, [sub])
    n = len(dims)
    t = m.mat.reshape(dims + dims)
    axes = list(range(2 * n))
    axes[sub], axes[sub + n] = axes[sub + n], axes[sub]
    return Operator(np.transpose(t, axes).reshape(m.dim, m.dim), dims)


def permute_subsystems(m: Operator, perm) -> Operator:
    """Reorder tensor factors; new position p holds the old factor perm[p]."""
    dims = m.dims
    perm = [int(p) for p in perm]
    if sorted(perm) != list(range(len(dims))):
        raise IndexError(f"{perm} is not a permutation of {len(dims)} factors")
    n = len(dims)
    t = m.mat.reshape(dims + dims)
    t = np.transpose(t, perm + [p + n for p in perm])
    return Operator(t.reshape(m.dim, m.dim), tuple(dims[p] for p in perm))


def eig_hermitian(m: Operator) -> tuple[np.ndarray, list[Ket]]:
    """Eigenvalues (ascending) and orthonormal eigenvectors of a Hermitian operator."""
    herm = float(np.abs(m.mat - m.mat.conj().T).max())
    if herm > HERMITIAN_TOL:
        raise DomainError(f"not Hermitian (residual {herm:.3e})")
    vals, vecs = np.linalg.eigh((m.mat + m.mat.conj().T) / 2)
    return vals, [Ket(vecs[:, i], m.dims) for i in range(m.dim)]


def haar_random_ket(d: int, seed: int, dims=None) -> Ket:
    """Haar-random unit vector: normalized complex Gaussian, deterministic per seed."""
    if d < 1:
        raise DomainError(f"dimension must be >= 1, got {d}")
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return Ket(v / np.linalg.norm(v), dims)


def haar_random_density(d: int, seed: int, dims=None) -> DensityMatrix:
    """Random mixed state: reduced state of a Haar-random pure state on a doubled space."""
    psi = haar_random_ket(d * d, seed, dims=(d, d))
    rho = partial_trace(outer(psi), keep=[0])
    return DensityMatrix(Operator(rho.mat, dims if dims is not None else (d,)))


def phase_free_distance(u: Ket | np.ndarray, v: Ket | np.ndarray) -> float:
    """min over theta of ||u - e^{i theta} v||, i.e. sqrt(2 - 2|<u|v>|) for unit vectors.

    Computed through the explicit residual vector at the optimal phase, which
    stays accurate near zero where the naive square-root formula loses half
    the working precision to cancellation.
    """
    u = u.vec if isinstance(u, Ket) else np.asarray(u, dtype=complex)
    v = v.vec if isinstance(v, Ket) else np.asarray(v, dtype=complex)
    ip = np.vdot(u, v)
    phase = 1.0 if abs(ip) < 1e-300 else ip.conjugate() / abs(ip)
    return float(np.linalg.norm(u - phase * v))


def frobenius(a: np.ndarray | Operator) -> float:
    a = a.mat if isinstance(a, Operator) else a
    return float(np.linalg.norm(a))


def real_trace_product(a: Operator | DensityMatrix, b: Operator | DensityMatrix) -> float:
    """tr{a b} for Hermitian factors (imaginary part is numerical noise)."""
    am = a.mat if not isinstance(a, np.ndarray) else a
    bm = b.mat if not isinstance(b, np.ndarray) else b
    return float(np.real(np.sum(am.T * bm)))
