"""Exact-arithmetic oracle for the design identities that the floats assert.

The vectors are built here from radicals and exact roots of unity, and each
identity is proved entry by entry: an entry is zero when it expands to 0, or
else when its minimal polynomial over the rationals is x.  Nothing here
imports transposim, so the check shares no code with the kernels it backs.
"""

import itertools

import pytest

sp = pytest.importorskip("sympy")

X = sp.Symbol("x")


def is_zero(expr) -> bool:
    expr = sp.expand(expr)
    return expr == 0 or sp.minimal_polynomial(expr, X) == X


def assert_matrix_zero(m):
    bad = [(i, j) for i in range(m.rows) for j in range(m.cols) if not is_zero(m[i, j])]
    assert not bad, bad


def overlap2(u, v):
    """|<u|v>|^2."""
    ip = (u.H * v)[0, 0]
    return ip * sp.conjugate(ip)


def pair_projector_sum(vectors):
    """(1/N) sum_k |x_k x_k><x_k x_k| on the doubled space."""
    total = sp.zeros(vectors[0].rows ** 2)
    for v in vectors:
        vv = sp.Matrix([a * b for a in v for b in v])
        total += vv * vv.H
    return total / len(vectors)


def identity_plus_swap(d):
    """(I + V) / (d(d+1)), V|i,j> = |j,i>."""
    swap = sp.Matrix(d * d, d * d, lambda r, c: int(r == (c % d) * d + c // d))
    return (sp.eye(d * d) + swap) / (d * (d + 1))


def weyl_orbit(fiducial, omega):
    """X^k Z^l |fiducial> at index k*d + l, X|n> = |n+1 mod d>, Z|n> = omega^n |n>."""
    d = fiducial.rows
    shift = sp.Matrix(d, d, lambda i, j: int(i == (j + 1) % d))
    clock = sp.diag(*[omega**n for n in range(d)])
    return [shift**k * clock**l * fiducial for k in range(d) for l in range(d)]


def qubit_sic():
    s3, s6 = sp.sqrt(3), sp.sqrt(6)
    phase = (1 + sp.I) / sp.sqrt(2)  # e^{i pi/4}
    fiducial = sp.Matrix([sp.sqrt(3 + s3) / s6, phase * sp.sqrt(3 - s3) / s6])
    return weyl_orbit(fiducial, sp.Integer(-1))


def qutrit_mub():
    omega = sp.Rational(-1, 2) + sp.sqrt(3) * sp.I / 2
    basis = [sp.eye(3)[:, m] for m in range(3)]
    gauss = [
        sp.Matrix([omega ** ((a * m * m + b * m) % 3) for m in range(3)]) / sp.sqrt(3)
        for a in range(3)
        for b in range(3)
    ]
    return omega, basis + gauss


def test_qubit_sic_overlaps_are_one_third():
    orbit = qubit_sic()
    for i, j in itertools.product(range(4), repeat=2):
        assert is_zero(overlap2(orbit[i], orbit[j]) - (1 if i == j else sp.Rational(1, 3))), (i, j)


def test_qubit_sic_pair_sum_is_identity_plus_swap_over_six():
    # (1/4) sum_k |s_k s_k><s_k s_k| = (I + V)/6
    assert_matrix_zero(pair_projector_sum(qubit_sic()) - identity_plus_swap(2))


def test_qutrit_mub_uses_an_exact_primitive_cube_root_of_unity():
    omega, _ = qutrit_mub()
    assert is_zero(omega**3 - 1) and not is_zero(omega - 1)


def test_qutrit_mub_bases_are_orthonormal_and_unbiased():
    _, vectors = qutrit_mub()
    for i, j in itertools.product(range(12), repeat=2):
        same_basis = i // 3 == j // 3
        want = int(i == j) if same_basis else sp.Rational(1, 3)
        assert is_zero(overlap2(vectors[i], vectors[j]) - want), (i, j)


def test_qutrit_mub_meets_the_two_design_identity():
    # (1/12) sum_k |x_k x_k><x_k x_k| = (I + V)/12
    _, vectors = qutrit_mub()
    assert_matrix_zero(pair_projector_sum(vectors) - identity_plus_swap(3))
