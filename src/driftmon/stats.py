"""Statistical kernels: two-sample mean test, BIC, Gaussian segment cost.

The two-sample test is the unequal-variance (Welch) t-test with the
Welch-Satterthwaite degrees of freedom and a two-sided p-value. The t
distribution's tail probability is computed here via the regularized
incomplete beta function (continued fraction, double precision) so the
runtime needs no external numerics library.

A degenerate branch handles the zero-variance corner that squared-error
losses of a perfect forecaster can produce: when both sample variances fall
below 1e-12 the decision reduces to comparing means with a 1e-9 gap, and the
p-value is pinned to 0 or 1. Both thresholds are relative to the samples'
magnitude, sqrt(mean1² + mean2² + var1 + var2), so rescaling both samples by
a power of two leaves the decision unchanged. Moments far from 1 are first
divided by a power of two, which is exact and leaves the statistic as it
is, so that no square in the test under- or overflows.

BIC floors the residual sum of squares relative to a total sum of squares
the caller passes, so a selection by BIC does not depend on the scale of the
target. The Gaussian segment cost makes the ufunc calls of ``np.var`` itself,
in the same order, so it equals the ``np.var`` formula bit for bit at a
fraction of the call overhead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InsufficientSample

# Relative: to the squared magnitude of the samples and to their magnitude.
DEGENERATE_VAR = 1e-12
DEGENERATE_MEAN_GAP = 1e-9
# Relative to the total sum of squares passed to bic.
RSS_FLOOR = 1e-12
SEGMENT_VAR_FLOOR = 1e-8

_LOG_2PI = math.log(2.0 * math.pi)


@dataclass(frozen=True)
class TestResult:
    """Outcome of a two-sided equality-of-means test at a given size."""

    __test__ = False  # keep pytest from collecting this as a test class

    statistic: float
    dof: float
    p_value: float
    reject: bool

    def __post_init__(self):
        if not 0.0 <= self.p_value <= 1.0:
            raise ValueError("p_value must lie in [0, 1]")


# ---------------------------------------------------------------------------
# Regularized incomplete beta / Student-t tail
# ---------------------------------------------------------------------------

def _beta_continued_fraction(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta, modified Lentz iteration."""
    max_iter = 500
    eps = 1e-16
    fpmin = 1e-300
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < fpmin:
        d = fpmin
    d = 1.0 / d
    h = d
    for m in range(1, max_iter + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < fpmin:
            d = fpmin
        c = 1.0 + aa / c
        if abs(c) < fpmin:
            c = fpmin
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < fpmin:
            d = fpmin
        c = 1.0 + aa / c
        if abs(c) < fpmin:
            c = fpmin
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < eps:
            return h
    raise ArithmeticError(f"incomplete beta did not converge for a={a}, b={b}, x={x}")


def regularized_incomplete_beta(a: float, b: float, x: float) -> float:
    """I_x(a, b) for a, b > 0 and x in [0, 1]."""
    if a <= 0.0 or b <= 0.0:
        raise ValueError("a and b must be positive")
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    ln_front = (math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                + a * math.log(x) + b * math.log1p(-x))
    # Switch to the symmetric form where the continued fraction converges fast.
    if x < (a + 1.0) / (a + b + 2.0):
        return math.exp(ln_front) * _beta_continued_fraction(a, b, x) / a
    return 1.0 - math.exp(ln_front) * _beta_continued_fraction(b, a, 1.0 - x) / b


def student_t_two_sided_p(t: float, dof: float) -> float:
    """P(|T_dof| >= |t|) for the Student t distribution."""
    if dof <= 0.0:
        raise ValueError("dof must be positive")
    if t == 0.0:
        return 1.0
    if math.isinf(t):
        return 0.0
    x = dof / (dof + t * t)
    p = regularized_incomplete_beta(0.5 * dof, 0.5, x)
    return min(max(p, 0.0), 1.0)


def student_t_cdf(t: float, dof: float) -> float:
    """P(T_dof <= t)."""
    half_p = 0.5 * student_t_two_sided_p(t, dof)
    return 1.0 - half_p if t >= 0.0 else half_p


# ---------------------------------------------------------------------------
# Welch two-sample test
# ---------------------------------------------------------------------------

def welch_test_from_moments(n1: int, mean1: float, var1: float,
                            n2: int, mean2: float, var2: float,
                            alpha: float) -> TestResult:
    """Welch test from sample sizes, means and (ddof=1) variances.

    This moments form is what a streaming monitor maintains incrementally;
    ``mean_equality_test`` is the array-facing wrapper.
    """
    if n1 < 2 or n2 < 2:
        raise InsufficientSample(f"need >= 2 observations per sample, got {n1} and {n2}")
    size = mean1 * mean1 + mean2 * mean2 + var1 + var2
    if not 1e-100 < size < 1e100:
        # keep the squares here and in the Welch dof from under- or overflowing
        _, exp = math.frexp(max(abs(mean1), abs(mean2), math.sqrt(max(var1, var2))))
        mean1, mean2 = math.ldexp(mean1, -exp), math.ldexp(mean2, -exp)
        var1, var2 = math.ldexp(var1, -2 * exp), math.ldexp(var2, -2 * exp)
        size = mean1 * mean1 + mean2 * mean2 + var1 + var2
    diff = mean1 - mean2
    if var1 <= DEGENERATE_VAR * size and var2 <= DEGENERATE_VAR * size:
        dof = float(n1 + n2 - 2)
        if diff * diff > DEGENERATE_MEAN_GAP ** 2 * size:
            stat = math.copysign(math.inf, diff)
            return TestResult(statistic=stat, dof=dof, p_value=0.0, reject=0.0 < alpha)
        return TestResult(statistic=0.0, dof=dof, p_value=1.0, reject=1.0 < alpha)
    se1 = var1 / n1
    se2 = var2 / n2
    se = math.sqrt(se1 + se2)
    t = diff / se
    dof = (se1 + se2) ** 2 / (se1 * se1 / (n1 - 1) + se2 * se2 / (n2 - 1))
    p = student_t_two_sided_p(t, dof)
    return TestResult(statistic=t, dof=dof, p_value=p, reject=p < alpha)


def mean_equality_test(a, b, alpha: float) -> TestResult:
    """Two-sided Welch test of H0: the two samples share a mean.

    The samples are first divided by the power of two just above their
    largest magnitude. That is exact, and it keeps tiny samples' variances
    out of the subnormal range, where they would lose precision.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.size < 2 or b.size < 2:
        raise InsufficientSample(f"need >= 2 observations per sample, got {a.size} and {b.size}")
    _, exp = math.frexp(float(max(np.abs(a).max(), np.abs(b).max())))
    a, b = np.ldexp(a, -exp), np.ldexp(b, -exp)
    return welch_test_from_moments(
        a.size, float(a.mean()), float(a.var(ddof=1)),
        b.size, float(b.mean()), float(b.var(ddof=1)),
        alpha,
    )


# ---------------------------------------------------------------------------
# Model-selection and segmentation costs
# ---------------------------------------------------------------------------

def bic(rss: float, n: int, k: int, tss: float = 1.0) -> float:
    """n * log(rss/n) + k * log(n), with rss floored at 1e-12 * tss.

    ``tss`` is the scale the floor is relative to; a lasso path passes the
    centred target's sum of squares, so its selection does not depend on the
    scale of y.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if rss < 0.0:
        raise ValueError("rss must be >= 0")
    rss = max(rss, RSS_FLOOR * tss)
    return n * math.log(rss / n) + k * math.log(n)


def gaussian_segment_cost(segment) -> float:
    """Twice the negative maximized Gaussian log-likelihood of a segment.

    n * (log(2*pi) + log(max(var_mle, 1e-8)) + 1). The variance floor keeps
    constant segments finite; the cost stays subadditive under it, which is
    what exact pruning in the changepoint search relies on.

    The MLE variance is ``np.var``'s own sequence of ufunc calls (mean,
    deviations, their squares, summed and divided by n), without its
    Python-level dispatch, so it equals ``np.var(segment)`` bit for bit.
    """
    segment = np.asarray(segment, dtype=float)
    n = segment.size
    if n < 2:
        raise InsufficientSample(f"segment needs >= 2 observations, got {n}")
    dev = segment - np.add.reduce(segment, axis=None) / n
    var = float(np.add.reduce(dev * dev, axis=None) / n)
    var = max(var, SEGMENT_VAR_FLOOR)
    return n * (_LOG_2PI + math.log(var) + 1.0)
