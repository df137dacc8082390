"""Independent correctness oracles, written in plain numpy.

Nothing here imports transposim: every expected value is recomputed from the
generated input by a closed form, so a realization is never judged by another
realization's output.
"""

from __future__ import annotations

import math

import numpy as np

VALUE_TOL = 1e-10
STATE_TOL = 1e-9
EIG_TOL = 1e-8
SIC_TOL = 1e-6
BOUNDARY_BAND = 1e-9
NPT_TOL = 1e-9


def random_state(rng: np.random.Generator, dim: int, rank: int) -> np.ndarray:
    """Density matrix G G^dag / tr with G a complex Gaussian dim x rank matrix."""
    g = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    m = g @ g.conj().T
    m = (m + m.conj().T) / 2
    return m / np.trace(m).real


def partial_transpose(m: np.ndarray, dims, cut: int) -> np.ndarray:
    n = len(dims)
    t = np.swapaxes(m.reshape(tuple(dims) * 2), cut, cut + n)
    return t.reshape(m.shape)


def approx_transpose_on(m: np.ndarray, dims, cut: int) -> np.ndarray:
    """(rho^{T_c} + 1_c (x) tr_c rho) / (d + 1) with d = dims[cut]."""
    dims = tuple(dims)
    n, d = len(dims), dims[cut]
    t = m.reshape(dims * 2)
    pt = np.swapaxes(t, cut, cut + n)
    reduced = np.trace(t, axis1=cut, axis2=cut + n)
    reduced = np.expand_dims(np.expand_dims(reduced, cut), n + cut)
    shape = [1] * (2 * n)
    shape[cut] = shape[n + cut] = d
    ident = np.eye(d).reshape(shape)
    return ((pt + reduced * ident) / (d + 1)).reshape(m.shape)


def ghz_projector(dims) -> np.ndarray:
    d, n = dims[0], len(dims)
    v = np.zeros(d**n, dtype=complex)
    v[np.arange(d) * ((d**n - 1) // (d - 1))] = 1 / math.sqrt(d)
    return np.outer(v, v.conj())


def witness_state(dims, cut: int) -> np.ndarray:
    """Approximate-transpose witness state: the channel on the cut factor of GHZ.

    For two parties this is (I + V) / (d(d+1)), the white-noise mixture of the
    swap witness V/d at p_min = d/(d+1).
    """
    return approx_transpose_on(ghz_projector(dims), dims, cut)


def threshold(d: int) -> float:
    return 1.0 / (d * (d + 1))


def overlap(rho: np.ndarray, sigma: np.ndarray) -> float:
    return float(np.real(np.vdot(rho.conj().T, sigma)))


def min_pt_eigenvalue(m: np.ndarray, dims, cut: int) -> float:
    pt = partial_transpose(m, dims, cut)
    return float(np.linalg.eigvalsh((pt + pt.conj().T) / 2)[0])


def verdicts_allowed(value: float, thr: float) -> set[str]:
    """Verdicts consistent with the value; both sides near the band edge."""
    out = set()
    if abs(value - thr) <= BOUNDARY_BAND + 1e-12:
        out.add("boundary")
    if value < thr - BOUNDARY_BAND + 1e-12:
        out.add("detected")
    if value > thr + BOUNDARY_BAND - 1e-12:
        out.add("not-detected")
    return out


def ppt_allowed(min_eig: float) -> set[str]:
    if abs(min_eig + NPT_TOL) <= EIG_TOL:
        return {"NPT", "PPT"}
    return {"NPT"} if min_eig < -NPT_TOL else {"PPT"}


def expected_cut(rho: np.ndarray, dims, cut: int) -> dict:
    """Everything a correct detection of rho across `cut` must report."""
    value = overlap(rho, witness_state(dims, cut))
    thr = threshold(dims[cut])
    eig = min_pt_eigenvalue(rho, dims, cut)
    return {
        "value": value,
        "threshold": thr,
        "min_eig": eig,
        "verdicts": verdicts_allowed(value, thr),
        "ppt": ppt_allowed(eig),
    }


def check_cut(exp: dict, value, thr, verdict, ppt, min_eig, caveat, bipartite: bool) -> bool:
    """A CutResult agrees with the oracle and is self-consistent."""
    if abs(value - exp["value"]) > VALUE_TOL or abs(thr - exp["threshold"]) > VALUE_TOL:
        return False
    if verdict not in exp["verdicts"] or ppt not in exp["ppt"]:
        return False
    if min_eig is not None and abs(min_eig - exp["min_eig"]) > EIG_TOL:
        return False
    if caveat != (verdict == "detected" and ppt == "PPT"):
        return False
    # the bipartite transpose witness is sound: it never fires on a PPT state
    return not (bipartite and verdict == "detected" and ppt == "PPT")


def hoeffding_eps(shots: int, level: float) -> float:
    return 2.0 * math.sqrt(math.log(1.0 / (1.0 - level)) / (2.0 * shots))


def check_estimator(exact: float, thr: float, shots: int, level: float,
                    verdict: str, lower: float, upper: float, estimate: float) -> bool:
    """Shot verdict: interval estimate +- eps, the right verdict, estimate near exact.

    The estimate of tr{rho sigma} has standard error at most 1/sqrt(shots);
    six of them bound a chance miss below 1e-8.
    """
    eps = hoeffding_eps(shots, level)
    if abs(lower - (estimate - eps)) > 1e-12 or abs(upper - (estimate + eps)) > 1e-12:
        return False
    if abs(estimate - exact) > 6.0 / math.sqrt(shots):
        return False
    want = "detected" if upper < thr else "not-detected" if lower > thr else "inconclusive"
    return verdict == want


def weyl_orbit(vec: np.ndarray) -> np.ndarray:
    """All d^2 vectors X^k Z^l |vec>, indexed k*d + l (X|n> = |n+1>, Z|n> = w^n |n>)."""
    d = vec.size
    phases = np.exp(2j * np.pi * np.arange(d) / d)
    out = np.empty((d * d, d), dtype=complex)
    for k in range(d):
        for l in range(d):
            out[k * d + l] = np.roll(phases**l * vec, k)
    return out


def sic_deviation(vec: np.ndarray) -> float:
    """Worst |<s_j|s_k>|^2 - 1/(d+1) over distinct orbit pairs, from the vector alone."""
    vec = np.asarray(vec, dtype=complex)
    vec = vec / np.linalg.norm(vec)
    d = vec.size
    orbit = weyl_orbit(vec)
    gram2 = np.abs(orbit @ orbit.conj().T) ** 2
    dev = np.abs(gram2 - 1.0 / (d + 1))
    np.fill_diagonal(dev, 0.0)
    return float(dev.max())


def check_sic(vec) -> bool:
    return sic_deviation(np.asarray(vec)) <= SIC_TOL


def orbit_probabilities(rho: np.ndarray, fiducial: np.ndarray) -> np.ndarray:
    """p_{k,l} = <s_kl| rho |s_kl> / d for the SIC measurement of the orbit."""
    orbit = weyl_orbit(fiducial)
    d = fiducial.size
    return np.real(np.einsum("ka,ab,kb->k", orbit.conj(), rho, orbit)) / d


def check_state(out: np.ndarray, expected: np.ndarray) -> bool:
    out = np.asarray(out)
    return out.shape == expected.shape and float(np.abs(out - expected).max()) <= STATE_TOL


def qubit_sic_fiducial() -> np.ndarray:
    """The standard qubit SIC fiducial (tetrahedron vertex)."""
    s6 = math.sqrt(6.0)
    return np.array([
        math.sqrt(3 + math.sqrt(3)) / s6,
        np.exp(1j * math.pi / 4) * math.sqrt(3 - math.sqrt(3)) / s6,
    ])


def qutrit_sic_fiducial() -> np.ndarray:
    return np.array([0.0, 1.0, -1.0], dtype=complex) / math.sqrt(2.0)


def tripartite_example() -> np.ndarray:
    """1/3 GHZ + 1/6 each of |001>, |010>, |101>, |110> on three qubits."""
    rho = ghz_projector((2, 2, 2)) / 3.0
    for idx in (0b001, 0b010, 0b101, 0b110):
        rho[idx, idx] += 1.0 / 6.0
    return rho
