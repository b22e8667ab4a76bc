import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy import special
from scipy import stats as scipy_stats

from driftmon.errors import InsufficientSample
from driftmon.stats import (
    SummedValues,
    TestResult,
    _beta_continued_fraction,
    _bucket_bounds,
    _bucket_dofs,
    _dof_buckets,
    _incomplete_beta,
    _screen_bounds,
    _t_bounds,
    bic,
    gaussian_segment_cost,
    mean_equality_test,
    student_t_two_sided_p,
    welch_rejections,
    welch_test_from_moments,
)

finite_floats = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)
samples = st.lists(finite_floats, min_size=2, max_size=40)


def test_welch_hand_computed_example():
    result = mean_equality_test([1, 2, 3, 4, 5], [2, 3, 4, 5, 6], alpha=0.05)
    assert result.statistic == pytest.approx(-1.0, abs=1e-12)
    assert result.dof == pytest.approx(8.0, abs=1e-12)
    assert result.p_value == pytest.approx(0.3466, abs=5e-4)
    assert not result.reject


def test_welch_matches_scipy_on_random_samples():
    rng = np.random.default_rng(0)
    for _ in range(30):
        a = rng.normal(rng.uniform(-2, 2), rng.uniform(0.5, 3), rng.integers(3, 40))
        b = rng.normal(rng.uniform(-2, 2), rng.uniform(0.5, 3), rng.integers(3, 40))
        mine = mean_equality_test(a, b, alpha=0.05)
        t_ref, p_ref = scipy_stats.ttest_ind(a, b, equal_var=False)
        assert mine.statistic == pytest.approx(t_ref, rel=1e-12)
        assert mine.p_value == pytest.approx(p_ref, rel=1e-9)


def test_degenerate_branches():
    equal = mean_equality_test([1.0, 1.0, 1.0], [1.0, 1.0, 1.0], alpha=0.05)
    assert not equal.reject
    assert equal.p_value == 1.0
    far = mean_equality_test([0.0] * 4, [10.0] * 4, alpha=0.05)
    assert far.reject
    assert far.p_value == 0.0
    assert math.isinf(far.statistic) and far.statistic < 0


@pytest.mark.parametrize("log2c", [0, -6, -30, 30])
def test_degenerate_branch_is_scale_free(log2c):
    # a variance below an absolute floor at one scale but not at another
    # used to send one of these to the degenerate branch and not the other
    c = 2.0 ** log2c
    a, b = np.array([0.0, 0.0]), np.array([0.0, 6.103515625e-05])
    base = mean_equality_test(a, b, alpha=0.05)
    assert not base.reject and base.statistic == -1.0 and base.p_value > 0.05
    assert mean_equality_test(c * a, c * b, alpha=0.05) == base
    # the moments form, which the monitor calls, decides the same way
    moments = [(x.size, float(x.mean()), float(x.var(ddof=1))) for x in (c * a, c * b)]
    assert welch_test_from_moments(*moments[0], *moments[1], alpha=0.05) == base
    # constant samples stay degenerate at every scale
    far = mean_equality_test(c * np.zeros(4), c * np.full(4, 1e-5), alpha=0.05)
    assert far.reject and far.p_value == 0.0 and far.statistic == -math.inf
    near = mean_equality_test(c * np.ones(3), c * np.ones(3), alpha=0.05)
    assert not near.reject and near.p_value == 1.0


def test_tiny_samples_do_not_underflow_the_welch_test():
    a = np.array([1.0, 2.0, 3.0, 4.0])
    b = np.array([2.0, 3.0, 5.0, 7.0])
    base = mean_equality_test(a, b, alpha=0.05)
    for c in (2.0 ** -1000, 2.0 ** -1060, 2.0 ** 1000):
        assert mean_equality_test(c * a, c * b, alpha=0.05) == base


@st.composite
def moment_sets(draw):
    """(n1, mean1, var1, n2, mean2, var2) over the test's branches.

    Scales reach sizes outside (1e-100, 1e100), squares that overflow and
    variances that underflow; equal means give t == 0, means one part in
    1e13 apart give an x that rounds to 1, and zero or tiny variances the
    degenerate branch.
    """
    scale = draw(st.one_of(st.just(1.0), st.sampled_from(
        [2.0 ** -600, 2.0 ** -340, 1e-60, 1e60, 2.0 ** 340, 2.0 ** 506])))
    unit = st.floats(-1e3, 1e3, allow_subnormal=False)
    spread = st.one_of(st.just(0.0), st.floats(0.0, 1e-13), st.floats(0.0, 1e3))
    mean1 = draw(unit)
    mean2 = draw(st.one_of(st.just(mean1), st.just(mean1 * (1.0 + 1e-13) + 1e-13), unit))
    return (draw(st.integers(2, 10 ** 5)), scale * mean1, scale * scale * draw(spread),
            draw(st.integers(2, 10 ** 5)), scale * mean2, scale * scale * draw(spread))


@settings(max_examples=300, deadline=None)
@given(sets=st.lists(moment_sets(), min_size=1, max_size=40))
def test_welch_rejections_equal_the_scalar_test_on_every_branch(sets):
    columns = [np.array(column) for column in zip(*sets)]
    for alpha in (0.01, 0.05, 1.0):
        expected = [welch_test_from_moments(*moments, alpha).reject for moments in sets]
        assert welch_rejections(*columns, alpha).tolist() == expected


def test_continued_fraction_floors_a_zero_denominator_and_gives_up():
    # (1, 4, 0.5) makes the first denominator exactly 0, so the 1e-300 floor engages
    for a, b, x in ((1.0, 4.0, 0.5), (24.5, 0.5, 0.3), (0.5, 200.0, 0.001)):
        front = x ** a * (1.0 - x) ** b / (a * special.beta(a, b))
        expected = float(special.betainc(a, b, x)) / front
        assert _beta_continued_fraction(a, b, x) == pytest.approx(expected, rel=1e-12)
    # it does not converge in 500 iterations here
    with pytest.raises(ArithmeticError):
        _beta_continued_fraction(1e7, 1e7, 0.49999995)


def welch_dofs(n1, var1, n2, var2):
    """Each test's Welch-Satterthwaite dof, as welch_rejections buckets it."""
    se1, se2 = var1 / n1, var2 / n2
    return (se1 + se2) ** 2 / (se1 ** 2 / (n1 - 1) + se2 ** 2 / (n2 - 1))


def near_bound_ts(rng, alpha, dof, rels):
    """|t| at, just inside or just outside either screen bound of each dof's bucket."""
    t_lo, t_hi = _screen_bounds(alpha, dof)
    # a bound that screens nothing (t_lo 0, t_hi inf) gives way to the other, or to 1
    t_hi = np.where(t_hi < math.inf, t_hi, t_lo)
    t_lo = np.where(t_lo > 0.0, t_lo, t_hi)
    bound = np.where(rng.random(dof.size) < 0.5, t_lo, t_hi)
    bound = np.where(bound > 0.0, bound, 1.0)
    rel = rng.choice(rels, dof.size)
    return bound * (1.0 + rng.choice([-1.0, 1.0], dof.size) * rel)


SCREEN_ALPHAS = (5e-324, 1e-300, 1e-6, 0.01, 0.05, 0.5, 0.999, 1.0)


@settings(max_examples=400, deadline=None)
@given(alpha=st.sampled_from(SCREEN_ALPHAS), k=st.integers(1, 60), seed=st.integers(0, 2 ** 32))
def test_welch_rejections_equal_the_p_values_below_alpha(alpha, k, seed):
    # |t| at, just inside and just outside the screen bounds, or 0; one set
    # in ten degenerate, and one in three scaled by a power of two, to sizes
    # outside (1e-100, 1e100) and to subnormal variances (2**-530)
    rng = np.random.default_rng(seed)
    n1, n2 = rng.integers(2, 10 ** 5, k, endpoint=True), rng.integers(2, 500, k, endpoint=True)
    var1, var2 = 10.0 ** rng.uniform(-3, 3, k), 10.0 ** rng.uniform(-3, 3, k)
    t = near_bound_ts(rng, alpha, welch_dofs(n1, var1, n2, var2),
                      [0.0, 1e-15, 1e-12, 1e-9, 1e-7, 1e-6, 1e-5, 1e-3, 0.1])
    t[rng.random(k) < 0.1] = 0.0
    mean1 = rng.uniform(-1e3, 1e3, k)
    mean2 = mean1 - t * np.sqrt(var1 / n1 + var2 / n2)
    degenerate = rng.random(k) < 0.1
    var1[degenerate] = rng.choice([0.0, 1e-20], degenerate.sum())
    var2[degenerate] = 0.0
    mean2[degenerate] = mean1[degenerate] + rng.choice([0.0, 1e-12, 1.0], degenerate.sum())
    scale = rng.choice([1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 2.0 ** -530, 2.0 ** -400, 2.0 ** 400], k)
    moments = (n1, scale * mean1, scale * scale * var1, n2, scale * mean2, scale * scale * var2)
    expected = [welch_test_from_moments(*m, alpha).reject
                for m in zip(*(np.broadcast_to(v, k).tolist() for v in moments))]
    assert welch_rejections(*moments, alpha).tolist() == expected


def test_welch_rejections_on_wide_bands_and_edge_inputs():
    # references against batches of 50, as the null study tests them; a few
    # at each alpha below 0.5 fall between the bounds and take the scalar test
    rng = np.random.default_rng(23)
    k = 5_000
    n1 = rng.integers(50, 5_000, k)
    mean1, mean2 = rng.normal(0.0, 0.1, k), rng.normal(0.0, 0.15, k)
    var1, var2 = rng.exponential(1.0, k), rng.exponential(1.0, k)
    moments = list(zip(n1.tolist(), mean1.tolist(), var1.tolist(), [50] * k,
                       mean2.tolist(), var2.tolist()))
    for alpha in (1e-6, 0.01, 0.05, 0.5, 0.999):
        expected = [welch_test_from_moments(*m, alpha).reject for m in moments]
        assert welch_rejections(n1, mean1, var1, 50, mean2, var2, alpha).tolist() == expected
    assert welch_rejections([], [], [], [], [], [], 0.05).tolist() == []
    with pytest.raises(InsufficientSample):
        welch_rejections([5, 1], 0.0, 1.0, 5, 0.0, 1.0, 0.05)


@pytest.mark.parametrize("alpha", SCREEN_ALPHAS)
@pytest.mark.parametrize("nu", [1, 2, 49, 10 ** 6])
def test_screen_bounds_meet_their_inequalities(alpha, nu):
    # the bucket holding dof nu is [lo, hi), with exact edges
    bucket = int(_dof_buckets(np.array([float(nu)]))[0])
    lo, hi = _bucket_dofs(bucket)
    assert lo <= nu < hi
    edges = np.array([lo, np.nextafter(hi, 0.0), hi])
    assert _dof_buckets(edges).tolist() == [bucket, bucket, bucket + 1]
    # each bound holds at the edge dof where the p-value is least favourable
    t_lo, t_hi = _bucket_bounds(alpha, bucket)
    assert t_lo == 0.0 or student_t_two_sided_p(t_lo, hi) > max(alpha, 1e-280) * (1.0 + 1e-6)
    assert t_hi == math.inf or student_t_two_sided_p(t_hi, lo) <= alpha * (1.0 - 1e-6)
    assert t_lo <= t_hi
    if alpha == 0.05:
        assert t_lo == pytest.approx(scipy_stats.t.isf(0.025, hi), rel=1e-5)
        assert t_hi == pytest.approx(scipy_stats.t.isf(0.025, lo), rel=1e-5)


def test_reject_bound_search_at_the_ends_of_the_alpha_range():
    # at alpha 1 the bound lies near 1.6e-6, where a bisection that loses its
    # invariant can end on a t whose p-value is 1.0; at alpha 1e-300 and dof 1
    # it lies near 6.4e299, past the search's cap of 2**500
    lo, t = _t_bounds(1.0 - 1e-6, 1.0)
    assert student_t_two_sided_p(t, 1.0) <= 1.0 - 1e-6 < student_t_two_sided_p(lo, 1.0)
    assert 1.0 - 1e-6 < student_t_two_sided_p(0.999 * t, 1.0)
    assert _t_bounds(1e-300, 1.0) == (2.0 ** 500, math.inf)


@pytest.mark.parametrize("alpha", [0.6, 0.9, 0.999, 1.0])
@pytest.mark.parametrize("n2", [500, 5_000, 100_000])
def test_welch_rejections_equal_the_scalar_test_near_the_bounds_of_large_alphas(alpha, n2):
    # the bounds of a large alpha are small t, where a p-value taken from a
    # rounded 1 - dof / (dof + t*t) would miss the screen's margin at large
    # dof. The batch's variance is 1, so the Welch dof runs from about
    # n2 - 1 up to n1 + n2 - 2.
    rng = np.random.default_rng(n2)
    k = 400
    n1 = rng.integers(n2, 10 * n2, k, endpoint=True)
    var1, var2 = 10.0 ** rng.uniform(-3, 1, k), np.ones(k)
    t = near_bound_ts(rng, alpha, welch_dofs(n1, var1, n2, var2),
                      [0.0, 1e-15, 1e-12, 1e-9, 1e-7, 1e-6, 1e-5, 1e-3])
    mean2 = rng.choice([-1.0, 1.0], k) * t * np.sqrt(var1 / n1 + var2 / n2)
    moments = (n1, np.zeros(k), var1, np.full(k, n2), mean2, var2)
    expected = [welch_test_from_moments(*m, alpha).reject
                for m in zip(*(v.tolist() for v in moments))]
    assert welch_rejections(*moments, alpha).tolist() == expected


@pytest.mark.parametrize("t, dof", [(1e-5, 8388608.0), (3e-5, 8388608.0), (1e-5, 1e6)])
def test_t_tail_at_small_t_and_large_dof_against_scipy(t, dof):
    # dof + t*t rounds to dof here, so 1 - dof / (dof + t*t) would give p = 1
    expected = 2 * scipy_stats.t.sf(t, dof)
    assert student_t_two_sided_p(t, dof) == pytest.approx(expected, rel=1e-12)


def test_t_tail_at_zero_and_infinite_t():
    ts = [0.0, -0.0, math.inf, -math.inf]
    for dof in (0.5, 1.0, 49.0, 1e6):
        assert [student_t_two_sided_p(t, dof) for t in ts] == [1.0, 1.0, 0.0, 0.0]


def test_t_tail_lies_above_the_normal_tail_and_falls_with_dof():
    # near the critical values: the premise of welch_rejections' bounds that
    # the tail falls as the dof grows, and the normal tail as its limit
    dofs = (1.0, 1.5, 2.0, 10.0, 1e3, 1e6)
    criticals = [scipy_stats.norm.isf(alpha / 2) for alpha in (0.5, 0.05, 0.01, 1e-6)]
    criticals += [scipy_stats.t.isf(alpha / 2, dof) for alpha in (0.5, 0.05, 0.01, 1e-6)
                  for dof in dofs]
    for critical in criticals:
        for t in (critical * (1.0 - 1e-3), critical, critical * (1.0 + 1e-3)):
            tails = [student_t_two_sided_p(t, dof) for dof in dofs]
            assert min(tails) >= math.erfc(t / math.sqrt(2.0))
            assert all(fewer >= more for fewer, more in zip(tails, tails[1:]))


def test_insufficient_samples():
    with pytest.raises(InsufficientSample):
        mean_equality_test([1.0], [1.0, 2.0], alpha=0.05)
    with pytest.raises(InsufficientSample):
        welch_test_from_moments(1, 0.0, 1.0, 5, 0.0, 1.0, 0.05)
    with pytest.raises(InsufficientSample):
        welch_rejections([5, 1], 0.0, 1.0, 5, 0.0, 1.0, 0.05)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("position", [1, 2, 4, 5], ids=["mean1", "var1", "mean2", "var2"])
def test_non_finite_welch_moments_raise(position, bad):
    # the second set has zero variances: the degenerate branch forms no t
    for base in ((5, 0.0, 1.0, 5, 0.0, 1.0), (5, 3.0, 0.0, 7, 3.0, 0.0)):
        moments = list(base)
        moments[position] = bad
        with pytest.raises(ValueError, match="finite"):
            welch_test_from_moments(*moments, 0.05)
        with pytest.raises(ValueError, match="finite"):
            welch_rejections(*moments, 0.05)
        # one bad test among 40: welch_rejections screens the other 39 of the
        # first set and sends all 40 degenerate ones of the second to the scalar test
        columns = [np.full(40, float(m)) for m in base]
        columns[position][17] = bad
        with pytest.raises(ValueError, match="finite"):
            welch_rejections(*columns, 0.05)


@settings(max_examples=80, deadline=None)
@given(a=samples, b=samples)
def test_swap_flips_statistic_and_preserves_p(a, b):
    fwd = mean_equality_test(a, b, alpha=0.05)
    rev = mean_equality_test(b, a, alpha=0.05)
    assert rev.statistic == -fwd.statistic or (fwd.statistic == 0.0 and rev.statistic == 0.0)
    assert rev.p_value == fwd.p_value
    assert rev.reject == fwd.reject


@settings(max_examples=60, deadline=None)
@given(a=samples, b=samples, log2c=st.integers(-20, 20))
def test_decision_invariant_under_dyadic_scaling(a, b, log2c):
    # powers of two rescale samples exactly, so the t statistic is unchanged
    c = 2.0 ** log2c
    fwd = mean_equality_test(a, b, alpha=0.05)
    scaled = mean_equality_test([c * x for x in a], [c * x for x in b], alpha=0.05)
    assert scaled.reject == fwd.reject
    if not math.isinf(fwd.statistic):
        assert scaled.p_value == pytest.approx(fwd.p_value, rel=1e-12, abs=1e-300)


def test_decision_invariant_under_generic_affine_map():
    rng = np.random.default_rng(5)
    for _ in range(20):
        a = rng.normal(0, 1, 20)
        b = rng.normal(0.4, 1.3, 25)
        base = mean_equality_test(a, b, alpha=0.05)
        if abs(base.p_value - 0.05) < 1e-6:
            continue
        mapped = mean_equality_test(1.7 * a + 3.1, 1.7 * b + 3.1, alpha=0.05)
        assert mapped.reject == base.reject


def test_incomplete_beta_against_scipy():
    worst = 0.0
    for a in (0.5, 1.0, 2.5, 4.0, 24.5, 100.0, 5000.0, 50000.0):
        for b in (0.5, 1.0, 3.0):
            for x in (1e-9, 1e-4, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99, 1 - 1e-9):
                mine = _incomplete_beta(a, b, x, 1 - x)
                ref = float(special.betainc(a, b, x))
                if ref > 0:
                    worst = max(worst, abs(mine - ref) / ref)
    assert worst < 1e-10


def test_t_distribution_against_scipy():
    for dof in (1.0, 2.3, 8.0, 49.0, 120.0, 10_000.0):
        for t in (0.0, 0.01, 0.5, 1.0, 2.0, 5.0, 20.0):
            assert student_t_two_sided_p(t, dof) == pytest.approx(
                2 * scipy_stats.t.sf(abs(t), dof), rel=1e-9, abs=1e-300)
            assert student_t_two_sided_p(-t, dof) == student_t_two_sided_p(t, dof)


def test_bic():
    assert bic(rss=10.0, n=10, k=0) == 0.0
    n = 37
    assert bic(5.0, n, 3) - bic(5.0, n, 2) == pytest.approx(math.log(n))
    assert bic(0.0, 5, 1) == bic(1e-12, 5, 1)  # floor engages
    assert bic(0.0, 5, 1, tss=4.0) == bic(4e-12, 5, 1)  # relative to tss
    with pytest.raises(ValueError):
        bic(-1.0, 5, 1)
    with pytest.raises(ValueError):
        bic(1.0, 0, 1)


def test_gaussian_segment_cost_values():
    assert gaussian_segment_cost([0.0, 2.0]) == pytest.approx(2 * (math.log(2 * math.pi) + 1))
    n = 7
    flat = gaussian_segment_cost([3.3] * n)
    assert flat == pytest.approx(n * (math.log(2 * math.pi) + math.log(1e-8) + 1))
    with pytest.raises(InsufficientSample):
        gaussian_segment_cost([1.0])
    assert gaussian_segment_cost([-1e300, 1e300]) == math.inf  # the variance overflows


def _exact_variance(values) -> Fraction:
    xs = [Fraction(v) for v in values]
    mean = sum(xs, Fraction(0)) / len(xs)
    return sum(((x - mean) ** 2 for x in xs), Fraction(0)) / len(xs)


@settings(max_examples=200, deadline=None)
@given(values=arrays(np.float64, st.integers(2, 400), elements=st.floats(-1.0, 1.0)),
       strided=st.booleans(),
       exponent=st.one_of(st.integers(-100, 100), st.integers(-170, -155)))
@example(values=np.array([0.0, 3.0]), strided=False, exponent=-160)  # variance 2.25e-320
def test_segment_cost_is_the_formula_on_the_correctly_rounded_variance(values, strided,
                                                                       exponent):
    seg = values * 10.0 ** exponent
    if strided:
        seg = np.repeat(seg, 2)[::2]
    n = seg.size
    var = float(_exact_variance(seg.tolist()))  # Fraction rounds correctly
    assert SummedValues(seg).variance(0, n) == var
    expected = n * (math.log(2 * math.pi) + math.log(max(var, 1e-8)) + 1.0)
    assert gaussian_segment_cost(seg) == expected


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_segment_cost_rejects_non_finite_values(bad):
    with pytest.raises(ValueError, match="finite"):
        gaussian_segment_cost([1.0, bad, 2.0])
    with pytest.raises(ValueError, match="finite"):
        gaussian_segment_cost(np.array([bad, 1.0]))


@settings(max_examples=60, deadline=None)
@given(seg=st.lists(finite_floats, min_size=2, max_size=30), shift=finite_floats)
def test_segment_cost_shift_invariance(seg, shift):
    base = gaussian_segment_cost(seg)
    moved = gaussian_segment_cost([x + shift for x in seg])
    assert moved == pytest.approx(base, rel=1e-9, abs=1e-7)


@settings(max_examples=80, deadline=None)
@given(left=st.lists(finite_floats, min_size=2, max_size=20),
       right=st.lists(finite_floats, min_size=2, max_size=20))
def test_segment_cost_subadditive(left, right):
    whole = gaussian_segment_cost(left + right)
    parts = gaussian_segment_cost(left) + gaussian_segment_cost(right)
    assert whole >= parts - 1e-8 * max(1.0, abs(whole))


def test_test_result_validation():
    with pytest.raises(ValueError):
        TestResult(statistic=0.0, dof=1.0, p_value=1.5, reject=False)
