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

from .errors import DomainError, ValidationError

HERMITIAN_TOL = 1e-10
TRACE_TOL = 1e-10
PSD_TOL = 1e-9
NORM_TOL = 1e-12
# the two-design, SIC overlap and search certificate checks, the channels' CJ
# matrices, swap_operator(d) and haar_random_density(d) hold d^2 x d^2
# matrices, about d^4 complex entries (268 MB at d = 64); larger dimensions
# are refused before anything is allocated
MAX_DIM = 64


def _read_only(arr: np.ndarray) -> np.ndarray:
    """A C-ordered copy of `arr` that cannot be made writable again.

    The copy lives in an immutable bytes buffer, so numpy refuses
    setflags(write=True) on it and on its base alike, and a record that holds
    it cannot be changed through it.
    """
    return np.frombuffer(arr.tobytes(), arr.dtype).reshape(arr.shape)


def _frozen(arr) -> np.ndarray:
    """A finite complex copy of `arr` by `_read_only` (non-finite entries: DomainError)."""
    out = np.asarray(arr, dtype=complex)
    if not np.isfinite(out).all():
        raise DomainError("non-finite entries (NaN/Inf) are not allowed")
    return _read_only(out)


def _memo(record, name: str, build):
    """build(record), computed once and then held on the immutable record as `name`.

    Every later call returns the same object, and it lives and dies with the
    record.  A build that raises holds nothing, so a refused record is refused
    again on every call.
    """
    held = record.__dict__
    if name not in held:
        object.__setattr__(record, name, build(record))  # the records are frozen dataclasses
    return held[name]


def _check_hermitian(m: np.ndarray, unit_trace: bool = False) -> np.ndarray:
    """Raise ValidationError("hermitian" | "trace", residual) past the tolerances.

    Returns m^dag, formed once here, for callers that go on to m's Hermitian part.
    """
    mh = m.conj().T
    herm = float(np.abs(m - mh).max())
    if herm > HERMITIAN_TOL:
        raise ValidationError("hermitian", herm)
    if unit_trace:
        tr = abs(complex(m.trace()) - 1.0)
        if tr > TRACE_TOL:
            raise ValidationError("trace", tr)
    return mh


def _psd_violation(m: np.ndarray, h: np.ndarray | None = None) -> float | None:
    """-lambda_min of the Hermitian part h of m if it lies below the floor, else None.

    The floor, the lowest eigenvalue still counted as nonnegative, is
    -PSD_TOL * max|lambda|.  A Cholesky factorization of h + delta*I, delta =
    PSD_TOL * max|h_ii|, accepts without an eigensolve: every h_ii lies in h's
    numerical range, so delta <= PSD_TOL * max|lambda| and the factorization
    proves lambda_min >= floor.  Only when it fails does eigvalsh on h decide
    and give the residual.  A caller that already holds h = (m + m^dag)/2 as a
    new C-ordered array passes it, and h is then overwritten.
    """
    if h is None:
        h = m + m.conj().T
        h /= 2
    diag = h.reshape(-1)[:: h.shape[0] + 1]                    # h is new and C-ordered: a view
    diag += PSD_TOL * float(np.abs(diag).max())
    try:
        np.linalg.cholesky(h)
        return None
    except np.linalg.LinAlgError:
        eigs = np.linalg.eigvalsh((m + m.conj().T) / 2)
    floor = -PSD_TOL * max(1e-30, float(np.abs(eigs).max()))
    return float(-eigs[0]) if eigs[0] < floor else None


def _refuse_oversized(d: int, what: str) -> None:
    if d > MAX_DIM:
        raise DomainError(f"{what} is limited to dimension <= {MAX_DIM}, got {d}")


def _as_dims(dims, total: int) -> tuple[int, ...]:
    dims = (total,) if dims is None else tuple(map(int, dims))
    if any(d < 1 for d in dims):
        raise DomainError(f"factor dimensions must be positive, got {dims}")
    if math.prod(dims) != total:
        raise DomainError(f"dims {dims} do not multiply to total dimension {total}")
    return dims


@dataclass(frozen=True, eq=False)
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


@dataclass(frozen=True, eq=False)
class Operator:
    """A square complex matrix with attached tensor-factor dimensions.

    `DensityMatrix` and `witness.Witness` are Operators that add their own
    checks to this constructor.
    """

    mat: np.ndarray
    dims: tuple[int, ...]

    def __init__(self, mat, dims=None):
        mat = _frozen(mat)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise DomainError(f"operator must be square, got shape {mat.shape}")
        object.__setattr__(self, "mat", mat)
        object.__setattr__(self, "dims", _as_dims(dims, mat.shape[0]))

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    @classmethod
    def _derived(cls, arr: np.ndarray, dims: tuple[int, ...]):
        """`arr` read-only as a `cls` of `dims`, unchecked.

        The one place that wraps a matrix the package derived from checked
        records: `_read_only` copies `arr` (any shape with prod(dims)^2
        entries), and neither Operator's finiteness scan nor the check of
        `cls` runs, so the caller vouches for both.  A permutation of a checked
        operator's entries is finite.  A checked `Channel` (Hermitian, PSD,
        trace-preserving CJ matrix) sends a checked state to a state: it maps
        Hermitian operators to Hermitian ones, keeps the trace (to CJ_TOL), and
        for rho = rho_+ - rho_- gives lambda_min(Phi(rho)) >= -tr Phi(rho_-) =
        -||rho_-||_1, since a CPTP map is contractive in trace norm.  The
        output's negative part is bounded by the input's, which `DensityMatrix`
        held above its floor.
        """
        size = math.prod(dims)
        out = object.__new__(cls)
        object.__setattr__(out, "mat", _read_only(arr).reshape(size, size))
        object.__setattr__(out, "dims", dims)
        return out


@dataclass(frozen=True, eq=False)
class DensityMatrix(Operator):
    """A validated quantum state: an Operator that is Hermitian, unit trace, PSD within tolerance.

    This is the one state check.  A failure raises ValidationError naming the
    first check that fails, in the order hermitian, trace, psd, with its
    residual: max|M - M^dag|, |tr M - 1| or -lambda_min.  M^dag is formed
    once, for the Hermitian residual and for the Hermitian part (M + M^dag)/2
    that the PSD test factors.  PSD is accepted by a Cholesky factorization
    (`_psd_violation`); eigvalsh runs only to name a failure.
    """

    def __init__(self, mat, dims=None):
        super().__init__(mat, dims)
        m = self.mat
        mh = _check_hermitian(m, unit_trace=True)
        h = m + mh
        h /= 2
        violation = _psd_violation(m, h)
        if violation is not None:
            raise ValidationError("psd", violation)


def basis_ket(d: int, i: int, dims=None) -> Ket:
    """Computational basis vector |i> in dimension d."""
    d, i = _as_int(d, "dimension"), _as_int(i, "basis index")
    if not 0 <= i < d:
        raise IndexError(f"basis index {i} out of range for dimension {d}")
    v = np.zeros(d, dtype=complex)
    v[i] = 1.0
    return Ket(v, dims)


def identity(dims) -> Operator:
    dims = tuple(int(d) for d in dims)
    return Operator(np.eye(int(np.prod(dims))), dims)


def swap_operator(d: int) -> Operator:
    """The swap V on a d x d bipartite space: V|i,j> = |j,i>, for 1 <= d <= MAX_DIM."""
    d = _as_int(d, "dimension")
    if d < 1:
        raise DomainError(f"dimension must be >= 1, got {d}")
    _refuse_oversized(d, "the swap operator")
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


def _kron_sum(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """The design sum sum_k left_k (x) right_k of stacks (N, a, a) and (N, b, b), as one product."""
    n, a, b = len(left), left.shape[1], right.shape[1]
    # the product holds the kron entry [(i, k), (j, l)] at [(i, j), (k, l)]
    t = left.reshape(n, a * a).T @ right.reshape(n, b * b)
    return t.reshape(a, a, b, b).transpose(0, 2, 1, 3).reshape(a * b, a * b)


def _as_int(value, what: str) -> int:
    """`value` as a plain int: the one integer rule for factor indices and dimensions.

    It must be a Python or numpy integer; a bool or a float is refused with
    DomainError, and a numpy integer becomes an int.
    """
    if type(value) is int:  # the common case, without the numpy ABC check
        return value
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise DomainError(f"{what} must be an integer, got {value!r}")
    return int(value)


def _as_seed(seed) -> int:
    """A random seed as an int: an integer by `_as_int`, and >= 0 (else DomainError)."""
    seed = _as_int(seed, "seed")
    if seed < 0:
        raise DomainError(f"seed must be >= 0, got {seed}")
    return seed


def _check_unit_norm(norms) -> None:
    """Raise ValidationError("norm", deviation) at the first norm off 1 by more than NORM_TOL."""
    dev = np.abs(np.ravel(norms) - 1.0)
    bad = np.flatnonzero(dev > NORM_TOL)
    if bad.size:
        raise ValidationError("norm", float(dev[bad[0]]))


def _check_index(s, dims: tuple[int, ...]) -> int:
    """A factor index of `dims` as an int, by `_as_int`, in range (else IndexError)."""
    s = _as_int(s, "subsystem index")
    if not 0 <= s < len(dims):
        raise IndexError(f"subsystem {s} out of range for dims {dims}")
    return s


def _check_subsystems(dims: tuple[int, ...], subs) -> list[int]:
    """One factor index or an iterable of them, each checked by `_check_index`.

    The selection must be nonempty (else IndexError).
    """
    subs = list(subs) if np.iterable(subs) else [subs]
    if not subs:
        raise IndexError("empty subsystem selection")
    return [_check_index(s, dims) for s in subs]


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


def partial_transpose(m: Operator, sub) -> Operator:
    """Transpose one tensor factor, or each of a set of distinct factors, leaving the others.

    One axis permutation moves every listed factor at once, with one copy of
    the entries.  A factor listed twice is refused with DomainError:
    transposing it twice would silently undo the transpose.
    """
    dims = m.dims
    subs = _check_subsystems(dims, sub)
    if len(set(subs)) < len(subs):
        raise DomainError(f"subsystem listed more than once in {subs}")
    n = len(dims)
    axes = list(range(2 * n))
    for s in subs:
        axes[s], axes[s + n] = s + n, s
    # a permutation of a checked operator's entries is finite and keeps its dims
    return Operator._derived(m.mat.reshape(dims + dims).transpose(axes), dims)


def permute_subsystems(m: Operator, perm) -> Operator:
    """Reorder tensor factors; new position p holds the old factor perm[p]."""
    dims = m.dims
    perm = [_check_index(p, dims) for p in perm]
    if sorted(perm) != list(range(len(dims))):
        raise IndexError(f"{perm} is not a permutation of {len(dims)} factors")
    n = len(dims)
    t = m.mat.reshape(dims + dims)
    t = np.transpose(t, perm + [p + n for p in perm])
    return Operator(t.reshape(m.dim, m.dim), tuple(dims[p] for p in perm))


def haar_random_ket(d: int, seed: int, dims=None) -> Ket:
    """Haar-random unit vector: normalized complex Gaussian, deterministic per seed."""
    d = _as_int(d, "dimension")
    if d < 1:
        raise DomainError(f"dimension must be >= 1, got {d}")
    rng = np.random.default_rng(_as_seed(seed))
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return Ket(v / np.linalg.norm(v), dims)


def haar_random_density(d: int, seed: int, dims=None) -> DensityMatrix:
    """Random mixed state: reduced state of a Haar-random pure state on a doubled space.

    d <= MAX_DIM, since the pure state's projector has d^4 entries.
    """
    d = _as_int(d, "dimension")
    _refuse_oversized(d, "a random density matrix")
    psi = haar_random_ket(d * d, seed, dims=(d, d))
    return DensityMatrix(partial_trace(outer(psi), keep=[0]).mat, dims)


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


def real_trace_product(a: Operator, b: Operator) -> float:
    """tr{a b} for Hermitian factors (imaginary part is numerical noise)."""
    return float((a.mat.T * b.mat).sum().real)
