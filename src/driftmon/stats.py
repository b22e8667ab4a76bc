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
is, so that no square in the test under- or overflows. ``welch_p_values``
runs many such tests at once; each p-value equals the scalar test's bit
for bit.

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

_CF_MAX_ITER = 500
_CF_EPS = 1e-16
_CF_FPMIN = 1e-300
# Lentz iterations whose coefficients an array continued fraction computes
# at once, and the elements left at which it finishes each in the scalar loop.
_CF_BLOCK = 8
_CF_SCALAR_TAIL = 16


def _beta_continued_fraction(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta, modified Lentz iteration."""
    d = 1.0 - (a + b) * x / (a + 1.0)
    if abs(d) < _CF_FPMIN:
        d = _CF_FPMIN
    d = 1.0 / d
    return _lentz_iterations(a, b, x, 1, 1.0, d, d)


def _lentz_iterations(a: float, b: float, x: float, first: int,
                      c: float, d: float, h: float) -> float:
    """The Lentz iterations ``first`` .. 500, from the state (c, d, h) before ``first``."""
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    for m in range(first, _CF_MAX_ITER + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < _CF_FPMIN:
            d = _CF_FPMIN
        c = 1.0 + aa / c
        if abs(c) < _CF_FPMIN:
            c = _CF_FPMIN
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < _CF_FPMIN:
            d = _CF_FPMIN
        c = 1.0 + aa / c
        if abs(c) < _CF_FPMIN:
            c = _CF_FPMIN
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _CF_EPS:
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


def welch_p_values(n1, mean1, var1, n2, mean2, var2) -> np.ndarray:
    """Two-sided Welch p-values of many tests at once, from their moments.

    Element i equals ``welch_test_from_moments(n1[i], mean1[i], var1[i], n2[i],
    mean2[i], var2[i], alpha).p_value`` bit for bit, and that test rejects
    exactly when the p-value is below ``alpha``. Arguments broadcast against
    each other. Every step is the scalar test's arithmetic in its order:
    numpy's +, -, *, / and sqrt round as Python's do, frexp and ldexp are
    exact, and each element leaves the continued fraction at its own
    iteration. What numpy would compute differently goes through Python
    element by element: the transcendentals (``np.log``, ``np.log1p`` and
    ``np.exp`` differ from ``math`` on some inputs) and the square in the
    Welch dof (Python's ``x ** 2`` is libm ``pow``, numpy's is ``x * x``).
    """
    n1, mean1, var1, n2, mean2, var2 = np.broadcast_arrays(n1, mean1, var1, n2, mean2, var2)
    n1, n2 = n1.ravel(), n2.ravel()
    if n1.size and min(n1.min(), n2.min()) < 2:
        raise InsufficientSample("need >= 2 observations per sample")
    # copies: the rescaling below writes into them
    mean1, var1, mean2, var2 = (v.astype(float).ravel() for v in (mean1, var1, mean2, var2))
    with np.errstate(over="ignore"):  # Python's squares overflow to inf silently too
        size = mean1 * mean1 + mean2 * mean2 + var1 + var2
    far = ~((1e-100 < size) & (size < 1e100))
    if far.any():
        # keep the squares here and in the Welch dof from under- or overflowing
        m1, m2, v1, v2 = mean1[far], mean2[far], var1[far], var2[far]
        _, exp = np.frexp(np.maximum(np.maximum(np.abs(m1), np.abs(m2)),
                                     np.sqrt(np.maximum(v1, v2))))
        m1, m2 = np.ldexp(m1, -exp), np.ldexp(m2, -exp)
        v1, v2 = np.ldexp(v1, -2 * exp), np.ldexp(v2, -2 * exp)
        mean1[far], mean2[far], var1[far], var2[far] = m1, m2, v1, v2
        size[far] = m1 * m1 + m2 * m2 + v1 + v2
    diff = mean1 - mean2
    p = np.empty(size.shape)
    degenerate = (var1 <= DEGENERATE_VAR * size) & (var2 <= DEGENERATE_VAR * size)
    gap = diff[degenerate]
    p[degenerate] = np.where(gap * gap > DEGENERATE_MEAN_GAP ** 2 * size[degenerate], 0.0, 1.0)
    live = ~degenerate
    n1, n2, diff = n1[live], n2[live], diff[live]
    se1 = var1[live] / n1
    se2 = var2[live] / n2
    se_sum = se1 + se2
    t = diff / np.sqrt(se_sum)
    dof = _each(_square, se_sum) / (se1 * se1 / (n1 - 1) + se2 * se2 / (n2 - 1))
    p[live] = _student_t_two_sided_ps(t, dof)
    return p


def _each(f, x: np.ndarray) -> np.ndarray:
    """``f`` of each element of ``x``, as Python floats."""
    return np.fromiter(map(f, x.tolist()), float, x.size)


def _square(v: float) -> float:
    return v ** 2


def _student_t_two_sided_ps(t: np.ndarray, dof: np.ndarray) -> np.ndarray:
    """``student_t_two_sided_p`` of each (t, dof) pair, bit for bit; every dof > 0."""
    p = np.where(t == 0.0, 1.0, 0.0)  # an infinite t leaves 0
    tail = (t != 0.0) & ~np.isinf(t)
    t, dof = t[tail], dof[tail]
    x = dof / (dof + t * t)
    p[tail] = np.minimum(np.maximum(_regularized_incomplete_betas(0.5 * dof, 0.5, x), 0.0), 1.0)
    return p


def _regularized_incomplete_betas(a: np.ndarray, b: float, x: np.ndarray) -> np.ndarray:
    """``regularized_incomplete_beta(a[i], b, x[i])`` for each i, bit for bit; every a > 0."""
    out = np.where(x <= 0.0, 0.0, 1.0)  # x >= 1 leaves 1
    inner = (0.0 < x) & (x < 1.0)
    a, x = a[inner], x[inner]
    ln_front = (_each(math.lgamma, a + b) - _each(math.lgamma, a) - math.lgamma(b)
                + a * _each(math.log, x) + b * _each(math.log1p, -x))
    front = _each(math.exp, ln_front)
    # the symmetric form where the continued fraction converges fast
    lower = x < (a + 1.0) / (a + b + 2.0)
    cf = _beta_continued_fractions(np.where(lower, a, b), np.where(lower, b, a),
                                   np.where(lower, x, 1.0 - x))
    out[inner] = np.where(lower, front * cf / a, 1.0 - front * cf / b)
    return out


def _beta_continued_fractions(a: np.ndarray, b: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``_beta_continued_fraction`` of each (a, b, x), bit for bit.

    The iterations run in blocks of _CF_BLOCK, whose coefficients are
    computed in one go; an element's result is its h at the iteration where
    the scalar loop returns. After each block the arrays shrink to the
    elements still iterating, and once few are left, each finishes in the
    scalar loop from its state.
    """
    out = np.empty(x.shape)
    index = np.arange(x.size)
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = np.ones(x.shape)
    d = 1.0 - qab * x / qap
    d = 1.0 / np.where(np.abs(d) < _CF_FPMIN, _CF_FPMIN, d)
    h = d
    for first in range(1, _CF_MAX_ITER + 1, _CF_BLOCK):
        if index.size <= _CF_SCALAR_TAIL:
            for i, *state in zip(*(v.tolist() for v in (index, a, b, x)), [first] * index.size,
                                 *(v.tolist() for v in (c, d, h))):
                out[i] = _lentz_iterations(*state)
            return out
        m = np.arange(first, min(first + _CF_BLOCK, _CF_MAX_ITER + 1))[:, None]
        m2 = 2 * m
        am2 = a + m2
        odd = m * (b - m) * x / ((qam + m2) * am2)
        even = -(a + m) * (qab + m) * x / (am2 * (qap + m2))
        hs = np.empty(odd.shape)
        deltas = np.empty(odd.shape)
        dc = np.stack([d, c])  # row 0: d before its reciprocal; row 1: c
        for k, aa in enumerate(odd):
            d = _lentz_half_step(aa, dc, d)
            h = h * (d * dc[1])
            d = _lentz_half_step(even[k], dc, d)
            h = np.multiply(h, np.multiply(d, dc[1], out=deltas[k]), out=hs[k])
        c = dc[1]
        converged = np.abs(deltas - 1.0) < _CF_EPS
        done = converged.any(axis=0)
        if done.any():
            cols = np.flatnonzero(done)
            out[index[cols]] = hs[converged.argmax(axis=0)[cols], cols]
            going = ~done
            index, a, b, x, qab, qap, qam, c, d, h = (
                v[going] for v in (index, a, b, x, qab, qap, qam, c, d, h))
    raise ArithmeticError(f"incomplete beta did not converge for a={a[0]}, b={b[0]}, x={x[0]}")


def _lentz_half_step(aa: np.ndarray, dc: np.ndarray, d: np.ndarray) -> np.ndarray:
    """One coefficient's update of d and of c = ``dc[1]``, as in ``_lentz_iterations``.

    Updates ``dc[1]`` in place and returns the new d.
    """
    np.multiply(aa, d, out=dc[0])
    np.divide(aa, dc[1], out=dc[1])
    np.add(dc, 1.0, out=dc)
    if np.abs(dc).min() < _CF_FPMIN:
        dc[np.abs(dc) < _CF_FPMIN] = _CF_FPMIN
    return 1.0 / dc[0]


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
