"""Exact shot-window dynamics, determinations and reconstruction."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import GOLDEN_P2_N24_SHOT, GOLDEN_P2_N24_SLOPES
from kspm import dds, spectral
from lemma_audits import uniform_index
from kspm.errors import Divergence, NonIntegral
from kspm.model import SlopeConfig
from kspm.stabilizer import stabilize

ints = st.integers(min_value=-50, max_value=50)
shots = st.integers(min_value=0, max_value=200)


def shot_with_virtuals(fp, j):
    """Shot value at offset j, honoring the virtual column convention."""
    if j == -fp.p:
        return fp.n_grains
    if j < 0:
        return 0
    return fp.shot_at(j)


def slope_from_shots(p, a_back, a_here, a_next):
    """Slope at a column by the mass balance of the three shots that see it.

    ``a_back`` is the shot ``p`` columns back (virtual ``n`` at ``i = 0``),
    ``a_here`` the shot at the column, ``a_next`` the shot one to the right.
    """
    return a_back - (p + 1) * a_here + p * a_next


def window_oracle(fp, i):
    """Window at column i read straight off the shot vector."""
    return tuple(shot_with_virtuals(fp, j) for j in range(i - fp.p, i + 1))


# ---------------------------------------------------------------- basics


def test_slope_from_shots_micro_example():
    assert slope_from_shots(4, 189, 120, 103) == 1


def test_next_shot_micro_example():
    assert dds.next_shot(4, 189, 120, 1) == 103


def test_next_shot_rejects_nondivisible():
    with pytest.raises(NonIntegral):
        dds.next_shot(4, 189, 120, 2)


def test_determine_slope_micro_example():
    assert dds.determine_slope(4, 189, 120) == 1
    assert dds.determine_slope(2, 6, 4) is None
    assert dds.determine_slope(3, 9, 9) is None


def test_determination_mod_1_always_ambiguous():
    assert dds.determine_slope(1, 13, 5) is None


@given(st.integers(min_value=1, max_value=6), shots, shots, shots)
def test_next_shot_inverts_balance(p, a_back, a_here, a_next):
    b = slope_from_shots(p, a_back, a_here, a_next)
    assert dds.next_shot(p, a_back, a_here, b) == a_next


@given(st.integers(min_value=1, max_value=6), shots, shots, shots)
def test_determination_is_sound(p, a_back, a_here, a_next):
    """Whenever the residue determines a slope, it is the true slope mod p."""
    b = slope_from_shots(p, a_back, a_here, a_next)
    det = dds.determine_slope(p, a_back, a_here)
    if det is None:
        assert b % p == 0
    else:
        assert det == b % p


def test_initial_window_layout():
    assert dds.initial_window(4, 2000, 476) == (2000, 0, 0, 0, 476)
    assert dds.initial_window(1, 24, 12) == (24, 12)


def test_to_averaging():
    assert dds.to_averaging((24, 0, 8)) == (-24, 8)
    assert dds.to_averaging((5, 5, 5)) == (0, 0)


def test_y_step_micro_example():
    assert dds.y_step(4, (-3, -5, -7, -7), 2) == (-5, -7, -7, -5)


def test_y_step_uniform_cases():
    assert dds.y_step(3, (-2, -2, -2), 0) == (-2, -2, -2)
    assert dds.y_step(3, (-2, -2, -2), 3) == (-2, -2, -1)
    with pytest.raises(NonIntegral):
        dds.y_step(3, (-2, -2, -2), 1)


def test_determine_slope_from_mean_micro_example():
    assert dds.determine_slope_from_mean(4, (-3, -5, -7, -7)) == 2
    assert dds.determine_slope_from_mean(3, (-2, -2, -2)) is None


@given(st.integers(min_value=1, max_value=5), shots, shots, st.lists(ints, min_size=0, max_size=3), shots)
def test_advancing_commutes_with_differencing(p, w0, wl, mid, a_next):
    """Differencing then stepping equals stepping then differencing."""
    mid = (mid + [0] * p)[: p - 1]
    window = (w0, *mid, wl)
    b = slope_from_shots(p, w0, wl, a_next)
    stepped = window[1:] + (dds.next_shot(p, w0, wl, b),)
    left = dds.to_averaging(stepped)
    right = dds.y_step(p, dds.to_averaging(window), b)
    assert left == right


def test_uniform_index_basics():
    assert uniform_index([(1, 2), (3, 3)]) == 1
    assert uniform_index([(5,)]) == 0  # single-entry vectors are constant
    with pytest.raises(ValueError):
        uniform_index([(1, 2), (2, 1)])


# ------------------------------------------------------- true trajectories


@pytest.mark.parametrize("p,n", [(2, 24), (4, 2000), (1, 60), (3, 500), (5, 123)])
def test_iter_windows_matches_shot_vector(p, n):
    fp = stabilize(p, n)
    count = 0
    for i, window, b in dds.iter_windows(p, fp.slopes, fp.shot_at(0), n):
        assert window == window_oracle(fp, i), (p, n, i)
        assert b == fp.slopes[i]
        count = i
    assert count >= fp.slopes.support


def test_window_walk_reproduces_golden_shot():
    fp = stabilize(2, 24)
    seen = {}
    for i, window, _ in dds.iter_windows(2, fp.slopes, 8, 24):
        seen[i] = window[-1]
    assert tuple(seen[i] for i in range(3)) == GOLDEN_P2_N24_SHOT


def test_walk_rejects_slopes_past_the_closing_window():
    # the window closes at column 5 and never reaches the 1 at column 10
    slopes = (2, 1, 2, 1, 2, 0, 0, 0, 0, 0, 1)
    with pytest.raises(NonIntegral):
        list(dds.iter_windows(2, slopes, 8, 24))
    with pytest.raises(NonIntegral):
        dds.trajectory_report(2, slopes, 8, 24)
    with pytest.raises(NonIntegral):
        spectral.z_trajectory(2, 24, slopes, 8)


@pytest.mark.parametrize("p,n", [(2, 24), (4, 2000), (1, 77), (3, 301), (6, 50)])
def test_trajectory_report_clean(p, n):
    fp = stabilize(p, n)
    rep = dds.trajectory_report(p, fp.slopes, fp.shot_at(0), n)
    assert rep.violations == ()


@pytest.mark.parametrize("p,n", [(2, 24), (4, 2000), (3, 500), (2, 1), (5, 40)])
def test_uniform_index_against_shot_vector_oracle(p, n):
    """Uniformization read from raw shot differences, no stepping involved."""
    fp = stabilize(p, n)
    ys = []
    for i in range(fp.slopes.support + p + 1):
        ys.append(dds.to_averaging(window_oracle(fp, i)))
    expect = uniform_index(ys)
    rep = dds.trajectory_report(p, fp.slopes, fp.shot_at(0), n)
    assert rep.uniform_index == expect


def test_trajectory_p1_uniform_at_zero():
    fp = stabilize(1, 100)
    rep = dds.trajectory_report(1, fp.slopes, fp.shot_at(0), 100)
    assert rep.uniform_index == 0
    assert rep.ambiguous_count == rep.steps  # mod 1 never determines


def test_trajectory_report_ambiguity_count_golden():
    fp = stabilize(2, 24)
    rep = dds.trajectory_report(2, fp.slopes, 8, 24)
    assert rep.ambiguous_count == 3  # columns 0, 2, 4


# ----------------------------------------------------------- reconstruction


def test_reconstruct_golden_with_ground_truth():
    truth = SlopeConfig(GOLDEN_P2_N24_SLOPES).__getitem__
    r = dds.reconstruct_fixed_point(2, 24, 8, truth)
    assert r.slopes.slopes == GOLDEN_P2_N24_SLOPES
    assert r.shot == GOLDEN_P2_N24_SHOT
    assert r.ambiguous_positions == (0, 2, 4)


@pytest.mark.parametrize("p,n", [(2, 100), (3, 500), (4, 2000), (5, 77), (6, 1234)])
def test_reconstruct_matches_stabilizer(p, n):
    fp = stabilize(p, n)
    r = dds.reconstruct_fixed_point(p, n, fp.shot_at(0), fp.slopes.__getitem__)
    assert r.slopes == fp.slopes
    assert r.shot == fp.shot


def test_reconstruct_n_zero():
    r = dds.reconstruct_fixed_point(3, 0, 0, lambda i: 0)
    assert r.slopes.slopes == ()
    assert r.shot == ()


def test_reconstruct_stable_pile_without_firings():
    # N = p grains: stable as dropped, every position ambiguous, truth resolves
    r = dds.reconstruct_fixed_point(2, 2, 0, SlopeConfig((2,)).__getitem__)
    assert r.slopes.slopes == (2,)
    assert r.shot == ()


def test_assume_zero_succeeds_when_ambiguous_columns_hold_zero():
    fp = stabilize(2, 4)  # slopes (1, 1, 1): the one ambiguous column is a true 0
    r = dds.reconstruct_fixed_point(2, 4, fp.shot_at(0), lambda i: 0)
    assert r.slopes == fp.slopes
    assert r.ambiguous_positions == (1,)


def test_assume_zero_diverges_when_the_truth_was_p():
    # golden pile starts with slope 2; guessing 0 sends the window negative
    with pytest.raises(Divergence):
        dds.reconstruct_fixed_point(2, 24, 8, lambda i: 0)


def test_reconstruct_divergence_on_bad_a0():
    # p=1 with a0=N keeps the window at N forever under assume-zero
    with pytest.raises(Divergence):
        dds.reconstruct_fixed_point(1, 4, 4, lambda i: 0)


def test_reconstruct_rejects_bad_resolver_value():
    class Bad:
        def __call__(self, i):
            return 1

    with pytest.raises(ValueError):
        dds.reconstruct_fixed_point(2, 24, 8, Bad())


@pytest.mark.parametrize("a0", [8.0, 8.5, "8", None, True, False, -1])
def test_every_replay_refuses_an_a0_that_is_not_a_count(a0):
    slopes = SlopeConfig(GOLDEN_P2_N24_SLOPES)
    for replay in (
        lambda: dds.iter_windows(2, slopes, a0, 24),  # at the call, not at next()
        lambda: dds.trajectory_report(2, slopes, a0, 24),
        lambda: spectral.z_trajectory(2, 24, slopes, a0),
        lambda: dds.reconstruct_fixed_point(2, 24, a0, slopes.__getitem__),
    ):
        with pytest.raises(ValueError, match="a0 must be a non-negative integer"):
            replay()


def test_reconstruct_validates_inputs():
    with pytest.raises(ValueError):
        dds.reconstruct_fixed_point(2, 24, -1, lambda i: 0)
    with pytest.raises(ValueError):
        dds.reconstruct_fixed_point(0, 24, 1, lambda i: 0)

