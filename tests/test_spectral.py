"""Exact linear algebra, characteristic polynomials, root finding, contraction."""

import cmath
import dataclasses
import math
import operator
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
import spectral_oracle as oracle
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kspm import dds, spectral
from kspm.errors import CapacityError, NoConvergence, NonIntegral, RecurrenceMismatch
from kspm.spectral import ExactMatrix
from kspm.stabilizer import MAX_MATRIX_WORK, check_matrix, stabilize

F = Fraction


def sym_poly(coeffs):
    """Lift ascending integer or Fraction coefficients into a sympy Poly in x."""
    x = sympy.Symbol("x")
    return sympy.Poly(
        sum(sympy.Rational(c.numerator, c.denominator) * x**k for k, c in enumerate(coeffs)),
        x,
    )


def sym_matrix(em):
    return sympy.Matrix(
        [[sympy.Rational(c.numerator, c.denominator) for c in row] for row in em.rows]
    )


# ------------------------------------------------------------ polynomials


small_coeffs = st.lists(st.integers(min_value=-9, max_value=9), min_size=1, max_size=6)


@settings(max_examples=100, deadline=None)
@given(small_coeffs, small_coeffs)
@example([1, 2, 3], [-1, 1])
def test_polymul_matches_sympy(a, b):
    got = spectral._polymul(a, b)
    assert len(got) == len(a) + len(b) - 1
    assert sym_poly(got) == sym_poly(a) * sym_poly(b)


def test_poly_R_and_S_layout():
    assert spectral.poly_R(3) == (1, 2, 3)
    assert spectral.poly_S(3) == (3, 2, 1)
    assert spectral.poly_R(1) == (1,)


@pytest.mark.parametrize("p", [2, 3, 7])
def test_R_is_reversed_rescaled_S(p):
    """x^(p-1) * (p R)(1/x) == S(x), checked symbolically."""
    x = sympy.Symbol("x")
    r = sym_poly(spectral.poly_R(p)).as_expr()
    s = sym_poly(spectral.poly_S(p)).as_expr()
    assert sympy.simplify(x ** (p - 1) * r.subs(x, 1 / x) - s) == 0


def test_bezout_witness_all_small_p():
    for p in range(1, 31):
        assert spectral.bezout_witness(p) is True, p


@pytest.mark.parametrize("p", [1, 2, 3, 5])
def test_bezout_identity_matches_sympy(p):
    """The identity the witness checks holds symbolically."""
    x = sympy.Symbol("x")
    s = sym_poly(spectral.poly_S(p)).as_expr()
    combo = (p + 1 + (1 - p) * x) * s + (x**2 - x) * sympy.diff(s, x)
    assert sympy.expand(combo) == p * (p + 1)


@pytest.mark.parametrize("p,k", [(1, 0), (3, 0), (3, 2), (6, 4)])
def test_bezout_witness_rejects_a_changed_S(monkeypatch, p, k):
    s = list(spectral.poly_S(p))
    s[k] += 1
    monkeypatch.setattr(spectral, "poly_S", lambda p: tuple(s))
    assert spectral.bezout_witness(p) is False


# ---------------------------------------------------------------- matrices


def test_exact_matrix_algebra():
    a = ExactMatrix([[1, 2], [3, 4]])
    i2 = oracle.identity(2)
    assert a @ i2 == a
    assert oracle.add(a, a.scaled(-1)) @ a == ExactMatrix([[0, 0], [0, 0]])
    assert oracle.trace(a) == 5
    assert a @ (1, 1) == (3, 7)
    assert a.scaled(F(1, 2)).rows[1] == (F(3, 2), 2)
    with pytest.raises(ValueError):
        ExactMatrix([[1, 2], [3]])


def sym_charpoly(m):
    x = sympy.Symbol("x")
    return sympy.Poly(sym_matrix(m).charpoly(x).as_expr(), x)


small_entries = st.one_of(
    st.integers(min_value=-9, max_value=9),
    st.fractions(min_value=-5, max_value=5, max_denominator=12),
)


@st.composite
def hessenberg_matrices(draw):
    """Square matrices of size 0..8, zero below the subdiagonal or above the superdiagonal."""
    n = draw(st.integers(min_value=0, max_value=8))
    lower = draw(st.booleans())
    rows = [
        [draw(small_entries) if (j <= i + 1 if lower else i <= j + 1) else 0 for j in range(n)]
        for i in range(n)
    ]
    return ExactMatrix(rows)


@settings(max_examples=150, deadline=None)
@given(hessenberg_matrices())
@example(ExactMatrix([[0, 1, 0], [0, 0, 1], [0, 0, 0]]))  # nilpotent: zero subdiagonal product
@example(ExactMatrix([[F(1, 3), F(2, 5)], [F(-7, 2), 0]]))
def test_charpoly_matches_faddeev_leverrier_and_sympy(m):
    ours = m.charpoly()
    assert ours == oracle.faddeev_leverrier(m)
    assert sym_poly(ours) == sym_charpoly(m)


def test_charpoly_small_and_refused_shapes():
    assert ExactMatrix([]).charpoly() == (1,)
    assert ExactMatrix([[F(-2, 3)]]).charpoly() == (F(2, 3), 1)
    with pytest.raises(ValueError, match="Hessenberg"):
        ExactMatrix([[1, 2, 3], [4, 5, 6], [7, 8, 9]]).charpoly()
    with pytest.raises(ValueError, match="square"):
        ExactMatrix([[1, 2]]).charpoly()
    with pytest.raises(ValueError, match="square"):
        ExactMatrix([[]]).charpoly()


@pytest.mark.parametrize("p", [1, 2, 3, 5])
def test_charpoly_matches_sympy(p):
    for build in (spectral.shot_step_matrix, spectral.averaging_matrix):
        m = build(p)
        assert sym_poly(m.charpoly()) == sym_charpoly(m), (p, build.__name__)


@pytest.mark.parametrize("p", list(range(1, 31)))
def test_averaging_charpoly_factors_exactly(p):
    """p * char(M) == (x - 1) * (p R) as integer polynomials."""
    lhs = spectral.averaging_matrix(p).charpoly()
    rhs = spectral._polymul((-1, 1), spectral.poly_R(p))
    assert tuple(p * c for c in lhs) == rhs


@pytest.mark.parametrize("p", list(range(1, 31)))
def test_shot_step_charpoly_factors_exactly(p):
    """p * char(A) == (x - 1)^2 * (p R)."""
    lhs = spectral.shot_step_matrix(p).charpoly()
    rhs = spectral._polymul((1, -2, 1), spectral.poly_R(p))
    assert tuple(p * c for c in lhs) == rhs


def test_basis_change_is_invertible():
    for p in range(1, 8):
        b = oracle.cumulative_basis(p)
        binv = oracle.difference_basis(p)
        ident = oracle.identity(p + 1)
        assert b @ binv == ident
        assert binv @ b == ident


def test_transformed_step_matrix_p2_explicit():
    got = oracle.transformed_step_matrix(2)
    assert got == ExactMatrix([[1, 1, 0], [0, 0, 1], [0, F(1, 2), F(1, 2)]])


def test_transformed_matrix_is_similar_to_original():
    for p in range(1, 7):
        a = spectral.shot_step_matrix(p)
        b = oracle.cumulative_basis(p)
        binv = oracle.difference_basis(p)
        assert oracle.transformed_step_matrix(p) == binv @ a @ b


def test_transformed_first_column_is_fixed_direction():
    # column 0 of the transformed step is e0: a one-dimensional invariant part
    for p in range(1, 8):
        aprime = oracle.transformed_step_matrix(p)
        col = tuple(row[0] for row in aprime.rows)
        assert col == (1,) + (0,) * p


def test_averaging_matrix_is_transformed_minor():
    for p in range(1, 8):
        aprime = oracle.transformed_step_matrix(p)
        minor = ExactMatrix([list(row[1:]) for row in aprime.rows[1:]])
        assert minor == spectral.averaging_matrix(p)


def test_averaging_rows_sum_to_one():
    for p in range(1, 10):
        for row in spectral.averaging_matrix(p).rows:
            assert sum(row) == 1


def test_centering_annihilates_constants():
    for p in range(2, 8):
        d = oracle.mean_centering(p)
        assert d @ ((1,) * p) == (0,) * p
        assert d @ d == d  # projection


def test_centered_matrix_absorbs_trailing_centering():
    """O @ D == O exactly, the algebraic heart of the contraction argument."""
    for p in range(1, 9):
        o = spectral.centered_matrix(p)
        d = oracle.mean_centering(p)
        assert o @ d == o


def centered_kick(p):
    """The library's integer closed-form kick, divided back by ``p``."""
    return tuple(F(v, p) for v in spectral._centered_scaled(p)[1])


@pytest.mark.parametrize("p", list(range(1, 13)) + [30])
def test_centered_closed_form_matches_product_definition(p):
    """The integer closed form equals centering applied to the averaging advance."""
    d = oracle.mean_centering(p)
    o = spectral.centered_matrix(p)
    assert o == d @ spectral.averaging_matrix(p)
    assert centered_kick(p) == d @ oracle.averaging_kick(p)
    # the floats perturbation_bound iterates are the exact entries, rounded once
    o_float, kick_float = spectral._centered_floats(p)
    assert o_float.tobytes() == oracle.to_float(o).tobytes()
    assert kick_float.tobytes() == np.array([float(c) for c in centered_kick(p)]).tobytes()


def test_averaging_kick_layout():
    assert oracle.averaging_kick(4) == (0, 0, 0, 1)
    assert sum(centered_kick(3)) == 0


# ------------------------------------------------------------ root finding


def test_roots_p1_none():
    assert spectral.roots_R(1) == ()  # poly_R(1) is the constant 1
    row = spectral.certify(1, 1e-9)
    assert (row["root_count"], row["max_root_modulus"], row["max_residual"]) == (0, 0.0, 0.0)
    assert row["min_separation"] == math.inf


def test_roots_p2_closed_form():
    roots = spectral.roots_R(2)
    assert len(roots) == 1
    assert abs(roots[0] - (-0.5)) < 1e-14
    assert spectral.certify(2, 1e-9)["max_root_modulus"] == pytest.approx(0.5, abs=1e-14)


def test_roots_p3_closed_form():
    # roots of x^2 + (2/3)x + 1/3: (-1 ± i*sqrt(2)) / 3
    roots = spectral.roots_R(3)
    want = sorted([complex(-1, -(2**0.5)) / 3, complex(-1, 2**0.5) / 3], key=lambda z: z.imag)
    got = sorted(roots, key=lambda z: z.imag)
    for g, w in zip(got, want):
        assert abs(g - w) < 1e-12
    modulus = spectral.certify(3, 1e-9)["max_root_modulus"]
    assert modulus == pytest.approx(1 / 3**0.5, abs=1e-12)


@pytest.mark.parametrize("p", list(range(2, 31)))
def test_roots_match_numpy_and_stay_inside_disc(p):
    """``roots_R`` uses ``numpy.roots``; sympy's ``nroots`` is the reference."""
    roots = spectral.roots_R(p)
    ref = sym_poly(spectral.poly_R(p)).nroots()
    assert spectral.pair_distance(roots, [complex(z) for z in ref]) < 1e-8
    row = spectral.certify(p, 1e-9)
    assert row["max_root_modulus"] <= (p - 1) / p + 1e-9
    assert row["max_residual"] < 1e-9
    if p > 2:
        assert row["min_separation"] > 1e-8


@pytest.mark.parametrize("p", [2, 5, 12, 30])
def test_eigvals_of_centered_matrix(p):
    eig = spectral.eigvals_O(spectral._centered_floats(p)[0])
    want = [0j] + list(spectral.roots_R(p))
    assert spectral.pair_distance(eig, want) < 1e-8


@pytest.mark.parametrize("p", [2, 5, 12, 30])
def test_eigenvalues_and_roots_come_in_one_order(p):
    # pair_distance matches greedily in the order of its first argument,
    # so both sets must come sorted by the same key
    eig = spectral.eigvals_O(spectral._centered_floats(p)[0])
    roots = spectral.roots_R(p)
    assert type(eig) is tuple and len(eig) == p
    assert type(roots) is tuple and len(roots) == p - 1
    for zs in (eig, roots):
        assert zs == spectral._sorted_roots(reversed(zs))


@pytest.mark.parametrize("p", [4097, 100000])
@pytest.mark.parametrize(
    "build", [spectral._centered_scaled, spectral.centered_matrix, spectral.roots_R]
)
def test_huge_p_matrices_are_refused_before_allocating(build, p):
    # p * p entries past MAX_COLUMNS = 4096**2 must not reach a list or numpy
    with pytest.raises(CapacityError, match="columns exceed"):
        build(p)


def test_matrix_work_bound_admits_p_1000_and_no_more():
    # decided by arithmetic alone: nothing is built on either side
    assert MAX_MATRIX_WORK == 1000**3
    assert check_matrix(1000) == 1000 * 1000
    with pytest.raises(CapacityError, match="matrix work"):
        check_matrix(1001)


@pytest.mark.parametrize(
    "build", [spectral._centered_scaled, spectral.centered_matrix, spectral.roots_R]
)
def test_cubic_matrix_work_is_refused_before_allocating(build):
    with pytest.raises(CapacityError, match="matrix work"):
        build(1001)


def test_pair_distance_greedy():
    assert spectral.pair_distance([1 + 0j, 2j], [2j, 1 + 0j]) < 1e-15
    assert spectral.pair_distance([0j], [1 + 0j]) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        spectral.pair_distance([0j], [0j, 1j])


def test_perturbation_bound_respects_term_cap(monkeypatch):
    monkeypatch.setattr(spectral, "_SERIES_CAP", 1)
    with pytest.raises(NoConvergence):
        spectral.perturbation_bound(*spectral._centered_floats(4))


def series(p: int) -> tuple[float, int]:
    return oracle.perturbation_series(
        *spectral._centered_floats(p), spectral._SERIES_TOL, spectral._SERIES_CAP
    )


@pytest.mark.parametrize("p", [*range(1, 41), 100, 300])
def test_perturbation_bound_is_the_plain_series_bit_for_bit(p):
    # every term the same gemv of the same float O, summed in the same order
    bound = spectral.perturbation_bound(*spectral._centered_floats(p))
    assert bound.hex() == series(p)[0].hex()


@pytest.mark.parametrize("p,terms", [(2, 50), (30, 444)])
def test_perturbation_bound_cap_counts_terms_across_blocks(monkeypatch, p, terms):
    # 50 terms end inside the first block of 64, 444 = 6 * 64 + 60 inside the seventh
    o, v = spectral._centered_floats(p)
    uncapped = spectral.perturbation_bound(o, v)
    assert series(p) == (uncapped, terms)
    monkeypatch.setattr(spectral, "_SERIES_CAP", terms)
    assert spectral.perturbation_bound(o, v) == uncapped
    monkeypatch.setattr(spectral, "_SERIES_CAP", terms - 1)
    with pytest.raises(NoConvergence):
        spectral.perturbation_bound(o, v)


def test_perturbation_bound_small_p():
    def bound(p):
        return spectral.perturbation_bound(*spectral._centered_floats(p))

    assert bound(1) == 0.0
    assert abs(bound(2) - 1.0) < 1e-12  # 1/2 + 1/4 + 1/8 + ... exactly
    assert bound(3) < 10


def test_operator_norm_can_exceed_one():
    o = oracle.to_float(spectral.centered_matrix(4))
    assert np.abs(o).sum(axis=1).max() > 1.0


# ------------------------------------------------------- exact trajectories


@pytest.mark.parametrize("p,n", [(2, 24), (4, 2000), (3, 500), (1, 64)])
def test_z_trajectory_exact_recurrence(p, n):
    fp = stabilize(p, n)
    rep = spectral.z_trajectory(p, n, fp.slopes.slopes, fp.shot_at(0))
    assert rep.spread0_identity_ok
    # one replayed advance per window step of the audited walk
    assert rep.steps == dds.trajectory_report(p, fp.slopes.slopes, fp.shot_at(0), n).steps


def test_z_trajectory_golden_p4():
    fp = stabilize(4, 2000)
    rep = spectral.z_trajectory(4, 2000, fp.slopes.slopes, fp.shot_at(0))
    assert rep.spread0 == 2000 + fp.shot_at(0) == 2476
    assert rep.steps == 41


def test_z_trajectory_p1_trivial():
    fp = stabilize(1, 17)
    rep = spectral.z_trajectory(1, 17, fp.slopes.slopes, fp.shot_at(0))
    # at p = 1 the difference vector has a single entry, so no spread
    assert (rep.steps, rep.spread0, rep.spread0_identity_ok) == (6, 0, True)


def test_z_trajectory_detects_tampered_slopes():
    fp = stabilize(3, 200)
    slopes = list(fp.slopes.slopes)
    slopes[2] += 3  # keeps every division exact, so the walk fails to close
    with pytest.raises(NonIntegral):
        spectral.z_trajectory(3, 200, tuple(slopes), fp.shot_at(0))


def test_z_trajectory_replay_detects_a_wrong_kick(monkeypatch):
    fp = stabilize(3, 200)
    scaled_step = dds._scaled_step
    monkeypatch.setattr(dds, "_scaled_step", lambda p, zs, pb: scaled_step(p, zs, 2 * pb))
    with pytest.raises(RecurrenceMismatch, match="at column 1$"):
        spectral.z_trajectory(3, 200, fp.slopes.slopes, fp.shot_at(0))


def test_the_replay_records_a_centered_mismatch_without_raising(monkeypatch):
    fp = stabilize(3, 200)
    clean = dds.trajectory_report(3, fp.slopes, fp.shot_at(0), 200)
    assert clean.centered_mismatch is None
    scaled_step = dds._scaled_step
    monkeypatch.setattr(dds, "_scaled_step", lambda p, zs, pb: scaled_step(p, zs, 2 * pb))
    rep = dds.trajectory_report(3, fp.slopes, fp.shot_at(0), 200)
    # the window audit is untouched; only the centered view fails, from column 1
    assert rep == dataclasses.replace(clean, centered_mismatch=1)


@pytest.mark.parametrize("p", list(range(1, 31)) + [100, 1000])
def test_structured_step_matches_the_dense_product(p):
    """The step is linear: it equals the dense ``p**2 O`` read off its unit
    vectors on any integer vector, centered or not, so no term may lean on
    ``sum(Z) = 0``."""
    rng = np.random.default_rng(p)
    matrix, kick = spectral._centered_scaled(p)
    for _ in range(3 if p == 1000 else 10):
        zs = [int(v) for v in rng.integers(-(10**6), 10**6, size=p)]
        product = [sum(map(operator.mul, row, zs)) for row in matrix]
        pb = int(rng.integers(-50, 50))
        for b in (0, pb):
            dense = [o + b * k for o, k in zip(product, kick)]
            assert dds._scaled_step(p, zs, b) == dense


@pytest.mark.parametrize("p", list(range(1, 31)) + [100, 1000])
def test_step_built_matrix_matches_the_entrywise_closed_form(p):
    assert spectral._centered_scaled(p) == oracle.centered_scaled_entrywise(p)


def test_z_trajectory_builds_no_dense_matrix(monkeypatch):
    def refuse(p):
        raise AssertionError("z_trajectory built the dense p^2 O")

    monkeypatch.setattr(spectral, "_centered_scaled", refuse)
    fp = stabilize(12, 54321)
    rep = spectral.z_trajectory(12, 54321, fp.slopes.slopes, fp.shot_at(0))
    assert rep.steps == 131
    # a dense p^2 O at p = 1000 holds 10**6 Python ints, tens of MiB
    fp = stabilize(1000, 10)
    tracemalloc.start()
    try:
        spectral.z_trajectory(1000, 10, fp.slopes.slopes, fp.shot_at(0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_z_trajectory_refuses_cubic_matrix_work_before_walking(monkeypatch):
    def refuse(*args):
        raise AssertionError("z_trajectory walked before its capacity check")

    monkeypatch.setattr(dds, "iter_windows", refuse)
    with pytest.raises(CapacityError, match="matrix work"):
        spectral.z_trajectory(1001, 10, (0,), 0)
