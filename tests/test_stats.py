import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy import special
from scipy import stats as scipy_stats

from driftmon.errors import InsufficientSample
from driftmon.stats import (
    TestResult,
    _beta_continued_fraction,
    _beta_continued_fractions,
    bic,
    gaussian_segment_cost,
    mean_equality_test,
    regularized_incomplete_beta,
    student_t_cdf,
    student_t_two_sided_p,
    welch_p_values,
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
def test_array_welch_p_values_equal_the_scalar_test(sets):
    p = welch_p_values(*map(np.array, zip(*sets)))
    for moments, p_value in zip(sets, p.tolist()):
        for alpha in (0.01, 0.05, 1.0):
            scalar = welch_test_from_moments(*moments, alpha)
            assert p_value == scalar.p_value
            assert (p_value < alpha) == scalar.reject


def test_array_welch_p_values_equal_the_scalar_test_on_random_moments():
    # a reference against a batch, as the monitor tests them; numpy's log,
    # log1p and exp differ from math's on about 1% of these
    rng = np.random.default_rng(17)
    k = 3_000
    n1, n2 = rng.integers(2, 3_000, k), rng.integers(2, 200, k)
    mean1 = rng.normal(0.0, 1.0, k)
    mean2 = mean1 + rng.normal(0.0, 0.3, k)
    var1, var2 = rng.exponential(1.0, k), rng.exponential(1.0, k)
    p = welch_p_values(n1, mean1, var1, n2, mean2, var2)
    sets = zip(*(v.tolist() for v in (n1, mean1, var1, n2, mean2, var2)))
    assert p.tolist() == [welch_test_from_moments(*m, 0.05).p_value for m in sets]


def test_array_welch_squares_the_welch_dof_numerator_as_python_does():
    # Python's x ** 2 is libm pow. With glibc 2.36 it rounds this set's
    # (se1 + se2) ** 2 differently from x * x, which moves the p-value
    # from 0.013439428761593172 to 0.013439428761593286.
    moments = (134, -0.09305224801631141, 0.5814706582982921,
               34, -0.8608053074446795, 2.821716314130389)
    scalar = welch_test_from_moments(*moments, 0.05)
    assert welch_p_values(*moments).tolist() == [scalar.p_value]


@pytest.mark.parametrize("width", [1, 40])  # below and above the scalar tail
def test_array_continued_fraction_equals_the_scalar_loop(width):
    # (1, 4, 0.5) makes the first denominator exactly 0, so the 1e-300 floor engages
    for a, b, x in ((1.0, 4.0, 0.5), (24.5, 0.5, 0.3), (0.5, 200.0, 0.999)):
        expected = _beta_continued_fraction(a, b, x)
        got = _beta_continued_fractions(np.full(width, a), np.full(width, b), np.full(width, x))
        assert got.tolist() == [expected] * width
    # neither converges in 500 iterations here
    with pytest.raises(ArithmeticError):
        _beta_continued_fraction(1e7, 1e7, 0.49999995)
    with pytest.raises(ArithmeticError):
        _beta_continued_fractions(np.full(width, 1e7), np.full(width, 1e7),
                                  np.full(width, 0.49999995))


def test_insufficient_samples():
    with pytest.raises(InsufficientSample):
        mean_equality_test([1.0], [1.0, 2.0], alpha=0.05)
    with pytest.raises(InsufficientSample):
        welch_test_from_moments(1, 0.0, 1.0, 5, 0.0, 1.0, 0.05)
    with pytest.raises(InsufficientSample):
        welch_p_values([5, 1], 0.0, 1.0, 5, 0.0, 1.0)


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
                mine = regularized_incomplete_beta(a, b, x)
                ref = float(special.betainc(a, b, x))
                if ref > 0:
                    worst = max(worst, abs(mine - ref) / ref)
    assert worst < 1e-10


def test_t_distribution_against_scipy():
    for dof in (1.0, 2.3, 8.0, 49.0, 120.0, 10_000.0):
        for t in (0.0, 0.01, 0.5, 1.0, 2.0, 5.0, 20.0):
            assert student_t_two_sided_p(t, dof) == pytest.approx(
                2 * scipy_stats.t.sf(abs(t), dof), rel=1e-9, abs=1e-300)
            assert student_t_cdf(t, dof) == pytest.approx(
                scipy_stats.t.cdf(t, dof), rel=1e-9)
            assert student_t_cdf(-t, dof) == pytest.approx(
                scipy_stats.t.cdf(-t, dof), rel=1e-9)


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


@settings(max_examples=200, deadline=None)
@given(values=arrays(np.float64, st.integers(2, 400),
                     elements=st.floats(-1.0, 1.0, allow_subnormal=False)),
       strided=st.booleans(), exponent=st.integers(-100, 100))
def test_segment_cost_equals_the_np_var_formula_exactly(values, strided, exponent):
    seg = values * 10.0 ** exponent
    if strided:
        seg = np.repeat(seg, 2)[::2]
    n = seg.size
    expected = n * (math.log(2 * math.pi) + math.log(max(float(np.var(seg)), 1e-8)) + 1.0)
    assert gaussian_segment_cost(seg) == expected


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
