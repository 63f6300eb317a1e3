"""Linear algebra of the window recurrences, exact where it matters.

The shot window advances by a fixed linear map plus a slope-driven kick.
Conjugating by the cumulative-sum basis turns that map into the
difference-vector system, whose matrix has row sums 1; centering by the
mean projects away the shared drift and leaves a contraction whose
nonzero spectrum is exactly the roots of a small polynomial with
positive ascending coefficients.  Those roots stay strictly inside the
unit disk (modulus at most ``(p-1)/p``), which is why the difference
vector freezes after logarithmically many columns.

Polynomials are tuples of integer coefficients in ascending order:
:func:`poly_R` is ``p`` times the root polynomial, :func:`poly_S` its
reversal, and the Bezout certificate of simple roots is an identity
between integer polynomials.  Matrices hold ``fractions.Fraction``
entries.  Characteristic polynomials come from the Hessenberg recurrence
in Python integers, after scaling by the common denominator, and are
checked in tests against Faddeev-LeVerrier and sympy.  The centered
contraction is written down once, as its ``O(p)`` integer step
:func:`kspm.dds._scaled_step` through the shift plus rank 2 form; the
dense matrix is read off that step column by column, and tests check it
against the product definition.  Floating point only enters for root
finding, the bare eigenvalues of the contraction and the perturbation
bound.  :func:`certify` decides one row of the ``spectral`` command: it
runs every certificate, measures the roots' residuals and separation,
and builds the float contraction once for the eigenvalues and the
bound.  A pile's centered trajectory is replayed through the same step
by :func:`kspm.dds.trajectory_report`, in the walk that audits its
window recurrence; :func:`z_trajectory` runs that walk and raises on a
centered mismatch.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import inf, lcm
from typing import Sequence

import numpy as np

from . import dds
from .errors import NoConvergence, RecurrenceMismatch
from .model import check_p
from .stabilizer import check_matrix


class ExactMatrix:
    """Dense matrix over the rationals with exact arithmetic."""

    __slots__ = ("rows",)

    def __init__(self, rows):
        norm = tuple(
            tuple(c if isinstance(c, Fraction) else Fraction(c) for c in row)
            for row in rows
        )
        if norm and any(len(r) != len(norm[0]) for r in norm):
            raise ValueError("rows must have equal length")
        self.rows = norm

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self.rows), len(self.rows[0]) if self.rows else 0)

    def __eq__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return self.rows == other.rows

    def __repr__(self):
        return f"ExactMatrix({[list(r) for r in self.rows]!r})"

    def scaled(self, k) -> "ExactMatrix":
        f = Fraction(k)
        return ExactMatrix([[f * a for a in row] for row in self.rows])

    def __matmul__(self, other):
        if isinstance(other, ExactMatrix):
            n, m = self.shape
            m2, q = other.shape
            if m != m2:
                raise ValueError("shape mismatch")
            cols = list(zip(*other.rows)) if other.rows else []
            return ExactMatrix(
                [
                    [sum(a * b for a, b in zip(row, col)) for col in cols]
                    for row in self.rows
                ]
            )
        vec = tuple(
            c if isinstance(c, Fraction) else Fraction(c) for c in other
        )
        if self.shape[1] != len(vec):
            raise ValueError("shape mismatch")
        return tuple(sum(a * v for a, v in zip(row, vec)) for row in self.rows)

    def charpoly(self) -> tuple[Fraction, ...]:
        """Characteristic polynomial ``det(xI - self)``, monic, exact.

        The coefficients come back ascending, as ``Fraction``s.  Only
        Hessenberg matrices (upper or lower) are accepted.  The matrix is
        scaled to integers ``h = d * self`` by the lcm ``d`` of its
        denominators, a lower Hessenberg one is transposed to upper, and
        the Hessenberg recurrence (Cohen, *A Course in Computational
        Algebraic Number Theory*, 1993, section 2.2)

            P_m = (x - h_mm) P_{m-1}
                  - sum_{i<m} h_im * (prod_{j=i+1..m} h_{j,j-1}) * P_{i-1}

        runs on integer coefficient lists.  ``det(xI - h)`` has
        coefficients ``c_k``, so ``det(xI - self)`` has ``c_k d^k / d^n``.
        """
        n, m = self.shape
        if n != m:
            raise ValueError("characteristic polynomial needs a square matrix")
        rows = self.rows
        if any(rows[i][j] for i in range(n) for j in range(i - 1)):
            if any(rows[i][j] for i in range(n) for j in range(i + 2, n)):
                raise ValueError("characteristic polynomial needs a Hessenberg matrix")
            rows = tuple(zip(*rows))
        d = lcm(*(c.denominator for row in rows for c in row))
        h = [[c.numerator * (d // c.denominator) for c in row] for row in rows]
        polys = [[1]]
        for k in range(n):
            prev = polys[k]
            new = [0] + prev
            for e, c in enumerate(prev):
                new[e] -= h[k][k] * c
            t = 1
            for i in range(k - 1, -1, -1):
                t *= h[i + 1][i]
                if not t:
                    break
                f = h[i][k] * t
                for e, c in enumerate(polys[i]):
                    new[e] -= f * c
            polys.append(new)
        dn = d**n
        return tuple(Fraction(c * d**e, dn) for e, c in enumerate(polys[n]))


def _polymul(a: Sequence[int], b: Sequence[int]) -> tuple[int, ...]:
    """Product of two polynomials given by ascending coefficients."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return tuple(out)


def poly_R(p: int) -> tuple[int, ...]:
    """``p`` times the contraction's root polynomial ``R``: ascending ``1, ..., p``.

    ``R`` itself has the coefficients ``k/p`` and leading coefficient 1.
    """
    check_p(p)
    return tuple(range(1, p + 1))


def poly_S(p: int) -> tuple[int, ...]:
    """Reciprocal companion of :func:`poly_R`: ascending ``p, p-1, ..., 1``."""
    check_p(p)
    return tuple(range(p, 0, -1))


def bezout_witness(p: int) -> bool:
    """Check ``(p+1 + (1-p) x) S + (x^2 - x) S' = p (p+1)`` in integers.

    A nonzero constant combination shows that ``S`` is coprime with its
    derivative, so ``S`` (and hence ``poly_R``, its reversal) is
    squarefree and all roots are simple.
    """
    check_p(p)
    s = poly_S(p)
    ds = [k * c for k, c in enumerate(s)][1:]
    combo = list(_polymul((p + 1, 1 - p), s))
    for e, c in enumerate(_polymul((0, -1, 1), ds)):
        combo[e] += c
    return combo == [p * (p + 1)] + [0] * p


def shot_step_matrix(p: int) -> ExactMatrix:
    """One-column advance of the shot window: shift plus balance row."""
    check_p(p)
    n = p + 1
    rows = [[Fraction(0)] * n for _ in range(n)]
    for r in range(p):
        rows[r][r + 1] = Fraction(1)
    rows[p][0] = Fraction(-1, p)
    rows[p][p] = Fraction(p + 1, p)
    return ExactMatrix(rows)


def averaging_matrix(p: int) -> ExactMatrix:
    """Advance of the difference vector: shift rows, then the mean row."""
    check_p(p)
    rows = [[Fraction(0)] * p for _ in range(p)]
    for r in range(p - 1):
        rows[r][r + 1] = Fraction(1)
    for j in range(p):
        rows[p - 1][j] = Fraction(1, p)
    return ExactMatrix(rows)


def _centered_scaled(p: int) -> tuple[list[list[int]], list[int]]:
    """``p**2`` times the centered contraction, and ``p`` times its kick.

    Both are read off :func:`kspm.dds._scaled_step`, the one place their
    coefficients are written: column ``j`` of the matrix is the step of
    the ``j``-th unit vector without a kick, and the kick is the step of
    the zero vector with ``pb = 1``.  Refuses, before building it, a
    matrix past the limits of :func:`check_matrix`.
    """
    check_p(p)
    check_matrix(p)
    columns = []
    for j in range(p):
        unit = [0] * p
        unit[j] = 1
        columns.append(dds._scaled_step(p, unit, 0))
    return [list(row) for row in zip(*columns)], dds._scaled_step(p, [0] * p, 1)


def _centered_floats(p: int) -> tuple[np.ndarray, np.ndarray]:
    """The centered contraction and its kick, rounded once to floats."""
    matrix, kick = _centered_scaled(p)
    return np.array(matrix, dtype=float) / (p * p), np.array(kick, dtype=float) / p


def centered_matrix(p: int) -> ExactMatrix:
    """The contraction governing the centered difference vector."""
    return ExactMatrix(_centered_scaled(p)[0]).scaled(Fraction(1, p * p))


def _sorted_roots(values) -> tuple[complex, ...]:
    """``values`` as complex numbers, in the order :func:`pair_distance` matches."""
    return tuple(
        sorted(map(complex, values), key=lambda z: (round(z.real, 12), round(z.imag, 12)))
    )


def roots_R(p: int) -> tuple[complex, ...]:
    """Roots of ``R``, sorted as :func:`eigvals_O` sorts its eigenvalues.

    Found as companion-matrix eigenvalues by ``numpy.roots``;
    :func:`certify` measures their residuals and separation.  A
    companion matrix past the limits of :func:`check_matrix` is refused.
    """
    check_p(p)
    check_matrix(p)
    # the coefficients k/p, descending, each correctly rounded
    return _sorted_roots(np.roots([c / p for c in reversed(poly_R(p))]))


def eigvals_O(o: np.ndarray) -> tuple[complex, ...]:
    """Eigenvalues of the float contraction ``o`` of :func:`_centered_floats`.

    They should be ``0`` and the roots of :func:`roots_R`, sorted alike;
    :func:`certify` measures that with :func:`pair_distance`.
    """
    return _sorted_roots(np.linalg.eigvals(o))


def pair_distance(xs: Sequence[complex], ys: Sequence[complex]) -> float:
    """Greedy matching distance between two root multisets of equal size."""
    ys = list(ys)
    if len(xs) != len(ys):
        raise ValueError("root sets differ in size")
    worst = 0.0
    for z in xs:
        best_i = min(range(len(ys)), key=lambda i: abs(z - ys[i]))
        worst = max(worst, abs(z - ys[best_i]))
        ys.pop(best_i)
    return worst


#: Terms of the perturbation series, one gemv each, between two checks of the stop.
_SERIES_BLOCK = 64
#: A term below this fraction of the running sum (or of 1) ends the series.
_SERIES_TOL = 1e-15
#: Terms after which the series is declared divergent.
_SERIES_CAP = 100000


def perturbation_bound(o: np.ndarray, v: np.ndarray) -> float:
    """Tail-sum bound ``sum_j ||O^j L||_inf`` for the centered recurrence.

    ``o`` and ``v`` come from :func:`_centered_floats`.  The matrix's own
    infinity norm may exceed 1, so the bound is taken over powers, which
    decay at the spectral radius ``<= (p-1)/p``.  Each term is one gemv of
    ``o`` on the term before it, so the sum is the plain ``v = o @ v``
    series bit for bit.
    """
    # terms are taken a block of rows at a time: row i + 1 is O times row i,
    # one gemv written in place through views made once per call
    rows = np.empty((_SERIES_BLOCK + 1, v.size))
    rows[0] = v
    views = tuple(rows)
    steps = tuple(zip(views, views[1:]))
    dot = o.dot
    total = 0.0
    for start in range(0, _SERIES_CAP, _SERIES_BLOCK):
        n = min(_SERIES_BLOCK, _SERIES_CAP - start)
        for x, y in steps[:n]:
            dot(x, y)
        for t in np.abs(rows[:n]).max(axis=1).tolist():
            total += t
            if t < _SERIES_TOL * max(1.0, total):
                return total
        rows[0] = rows[n]
    raise NoConvergence("perturbation series did not converge")


def certify(p: int, tol: float) -> dict:
    """One row of ``kspm spectral``: every certificate and gate at ``p``.

    A charpoly column past its cap (12 averaging, 8 window) is ``None``.
    The float ``O`` is built once, for the eigenvalues and the bound.
    """
    bezout_ok = bezout_witness(p)
    roots = roots_R(p)
    coeffs = [c / p for c in reversed(poly_R(p))]
    residuals = []
    for z in roots:
        acc = 0 * z
        for c in coeffs:
            acc = acc * z + c
        residuals.append(abs(acc))
    separation = min((abs(a - b) for a, b in combinations(roots, 2)), default=inf)
    modulus = max((abs(z) for z in roots), default=0.0)
    o, kick = _centered_floats(p)
    eigs = eigvals_O(o)
    match = pair_distance(eigs, (0j,) + roots)
    bound = (p - 1) / p
    charpoly_avg_ok = charpoly_win_ok = None
    # p * charpoly against p * (x - 1) * R, then p * (x - 1)^2 * R
    if p <= 12:
        want = _polymul((-1, 1), poly_R(p))
        charpoly_avg_ok = tuple(p * c for c in averaging_matrix(p).charpoly()) == want
    if p <= 8:
        want = _polymul((-1, 1), want)
        charpoly_win_ok = tuple(p * c for c in shot_step_matrix(p).charpoly()) == want
    max_residual = max(residuals, default=0.0)
    ok = (
        bezout_ok
        and charpoly_avg_ok is not False
        and charpoly_win_ok is not False
        and max_residual < tol
        and modulus <= bound + 1e-9
        and separation > 1e-8
        and match <= 1e-8
    )
    return {
        "p": p,
        "ok": ok,
        "bezout_ok": bezout_ok,
        "charpoly_averaging_ok": charpoly_avg_ok,
        "charpoly_window_ok": charpoly_win_ok,
        "root_count": len(roots),
        "max_root_modulus": modulus,
        "modulus_bound": bound,
        "min_separation": separation,
        "max_residual": max_residual,
        "eig_match_distance": match,
        "spectral_radius": max(map(abs, eigs)),
        "perturbation_bound": perturbation_bound(o, kick),
    }


def z_trajectory(p: int, n: int, slopes, a0: int) -> dds.TrajectoryReport:
    """Replay a pile's trajectory and require its exact centered recurrence.

    Runs :func:`kspm.dds.trajectory_report`, which replays the centered
    vectors in ``O(p)`` per column without a ``p``-by-``p`` matrix, and
    raises :class:`RecurrenceMismatch` at its first mismatching column
    (an implementation bug, not bad data).  A ``p`` past the limits of
    :func:`check_matrix` is refused up front, as ``verify`` refuses it.
    """
    check_p(p)
    check_matrix(p)
    rep = dds.trajectory_report(p, slopes, a0, n)
    if rep.centered_mismatch is not None:
        raise RecurrenceMismatch(
            f"centered recurrence mismatch at column {rep.centered_mismatch}"
        )
    return rep
