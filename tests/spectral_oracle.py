"""Test-side reference linear algebra for :mod:`kspm.spectral`.

Faddeev-LeVerrier gives characteristic polynomials of any square matrix
by rational matrix products and traces, independently of the library's
Hessenberg recurrence.  The change-of-basis and centering builders
rebuild the window advance and the centered contraction from their
product definitions, against which the library's closed forms are
checked.  An entrywise closed form of the scaled centered contraction
checks the matrix that the library reads off its ``O(p)`` step.  The
perturbation series is summed one plain ``o @ v`` term at a time.
"""

from fractions import Fraction

import numpy as np

from kspm.errors import NoConvergence
from kspm.model import check_p
from kspm.spectral import ExactMatrix, shot_step_matrix


def identity(n: int) -> ExactMatrix:
    return ExactMatrix([[int(i == j) for j in range(n)] for i in range(n)])


def trace(m: ExactMatrix) -> Fraction:
    return sum((m.rows[i][i] for i in range(len(m.rows))), Fraction(0))


def add(a: ExactMatrix, b: ExactMatrix) -> ExactMatrix:
    return ExactMatrix([[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a.rows, b.rows)])


def to_float(m: ExactMatrix) -> np.ndarray:
    return np.array([[float(c) for c in row] for row in m.rows], dtype=float)


def faddeev_leverrier(m: ExactMatrix) -> tuple[Fraction, ...]:
    """``det(xI - m)`` of any square matrix, in rational arithmetic.

    The coefficients come back ascending, as :meth:`ExactMatrix.charpoly` gives them.

    Repeatedly multiply by the matrix and read each coefficient off a
    trace: ``c_{n-k} = -tr(m @ M_{k-1}) / k`` with
    ``M_k = m @ M_{k-1} + c_{n-k} I``.
    """
    n, cols = m.shape
    if n != cols:
        raise ValueError("characteristic polynomial needs a square matrix")
    coeffs = [Fraction(0)] * (n + 1)
    coeffs[n] = Fraction(1)
    ident = identity(n)
    mk = m
    for k in range(1, n + 1):
        ck = -trace(mk) / k
        coeffs[n - k] = ck
        if k < n:
            mk = m @ add(mk, ident.scaled(ck))
    return tuple(coeffs)


def cumulative_basis(p: int) -> ExactMatrix:
    """Lower-triangular all-ones change of basis (partial sums)."""
    check_p(p)
    n = p + 1
    return ExactMatrix([[int(j <= i) for j in range(n)] for i in range(n)])


def difference_basis(p: int) -> ExactMatrix:
    """Inverse of :func:`cumulative_basis`: ones on, minus ones below, the diagonal."""
    check_p(p)
    n = p + 1
    return ExactMatrix([[(i == j) - (i == j + 1) for j in range(n)] for i in range(n)])


def transformed_step_matrix(p: int) -> ExactMatrix:
    """The window advance conjugated into the difference basis."""
    return difference_basis(p) @ shot_step_matrix(p) @ cumulative_basis(p)


def averaging_kick(p: int) -> tuple[Fraction, ...]:
    """Slope coupling of the difference advance: 1 in the last slot."""
    check_p(p)
    return (Fraction(0),) * (p - 1) + (Fraction(1),)


def centered_scaled_entrywise(p: int) -> tuple[list[list[int]], list[int]]:
    """``p**2 O`` and ``p`` times its kick, written entry by entry.

    Centering subtracts each column's mean: ``([j >= 1] + 1/p) / p`` from
    the averaging matrix and ``1/p`` from the averaging kick.
    """
    check_p(p)
    pp = p * p
    matrix = [
        [(pp * (j == i + 1) if i < p - 1 else p) - p * (j >= 1) - 1 for j in range(p)]
        for i in range(p)
    ]
    return matrix, [p * (i == p - 1) - 1 for i in range(p)]


def mean_centering(p: int) -> ExactMatrix:
    """Projection removing the mean from a ``p``-vector."""
    check_p(p)
    return ExactMatrix(
        [[(i == j) - Fraction(1, p) for j in range(p)] for i in range(p)]
    )


def perturbation_series(
    o: np.ndarray, v: np.ndarray, tol: float, cap: int
) -> tuple[float, int]:
    """``sum_j ||o^j v||_inf`` and its number of terms, one term at a time.

    Each term is ``v = o @ v`` on the previous one, and a term below
    ``tol * max(1, total)`` is the last one summed.  More than ``cap``
    terms raise :class:`NoConvergence`.
    """
    total = 0.0
    for terms in range(1, cap + 1):
        t = float(np.abs(v).max())
        total += t
        if t < tol * max(1.0, total):
            return total, terms
        v = o @ v
    raise NoConvergence("perturbation series did not converge")
