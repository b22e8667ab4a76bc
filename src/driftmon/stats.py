"""Statistical kernels: two-sample mean test, BIC, Gaussian segment cost.

The two-sample test is the unequal-variance (Welch) t-test with the
Welch-Satterthwaite degrees of freedom and a two-sided p-value. The t
distribution's tail probability is computed here via the regularized
incomplete beta function (continued fraction, double precision) so the
runtime needs no external numerics library. For x = dof / (dof + t*t) it
reads 1 - x as t*t / (dof + t*t), so no small t rounds away.

A degenerate branch handles the zero-variance corner that squared-error
losses of a perfect forecaster can produce: when both sample variances fall
below 1e-12 the decision reduces to comparing means with a 1e-9 gap, and the
p-value is pinned to 0 or 1. Both thresholds are relative to the samples'
magnitude, sqrt(mean1² + mean2² + var1 + var2), so rescaling both samples by
a power of two leaves the decision unchanged. Moments far from 1 are first
divided by a power of two, which is exact and leaves the statistic as it
is, so that no square in the test under- or overflows. A nan or infinite
mean or variance leaves the rescaled size non-finite, and the test raises
ValueError; tests that need no rescaling pay nothing for that check.
``welch_p_values`` runs many such tests at once; each p-value equals the
scalar test's bit for bit. ``welch_rejections`` gives only the decisions,
the same ones, at every alpha: most tests are decided from |t| alone, below
a normal and above a Student-t critical bound that hold for every Welch
dof, and only the tests between the bounds get a p-value.

BIC floors the residual sum of squares relative to a total sum of squares
the caller passes, so a selection by BIC does not depend on the scale of the
target. The Gaussian segment cost's MLE variance is the exact variance of
the segment's floats, correctly rounded: floats are dyadic rationals, so
scaled to a common power of two they are exact ints, and one int/int
division rounds the exact ratio once. ``SummedValues`` keeps exact prefix
sums of its values and their squares, so the cost of any of its segments
(a ``Segment`` view) takes O(1), and equals the cost of the same values as
a slice bit for bit.
"""

from __future__ import annotations

import functools
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
_NON_FINITE = "Welch moments must be finite"


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


def _incomplete_beta(a: float, b: float, x: float, y: float) -> float:
    """I_x(a, b) for a, b > 0; the symmetric form reads y = 1 - x, not a rounded 1.0 - x."""
    if x <= 0.0:
        return 0.0
    if y <= 0.0:
        return 1.0
    ln_beta = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    # Switch to the symmetric form where the continued fraction converges fast.
    if x < (a + 1.0) / (a + b + 2.0):
        front = math.exp(ln_beta + a * math.log(x) + b * math.log1p(-x))
        return front * _beta_continued_fraction(a, b, x) / a
    front = math.exp(ln_beta + a * math.log1p(-y) + b * math.log(y))
    return 1.0 - front * _beta_continued_fraction(b, a, y) / b


def student_t_two_sided_p(t: float, dof: float) -> float:
    """P(|T_dof| >= |t|) for the Student t distribution."""
    if dof <= 0.0:
        raise ValueError("dof must be positive")
    u = t * t  # 1 - x as u / (dof + u) keeps a t that dof + u rounds away
    p = _incomplete_beta(0.5 * dof, 0.5, dof / (dof + u), u / (dof + u))
    return min(max(p, 0.0), 1.0)


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
        if not math.isfinite(size):  # finite moments rescale to a size of at most 4
            raise ValueError(_NON_FINITE)
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
        if not np.isfinite(size[far]).all():
            raise ValueError(_NON_FINITE)
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


# A screen decides a test from t alone only where the bound's p-value is off
# alpha by this relative margin, far above a computed p-value's rounding error.
_SCREEN_MARGIN = 1e-6
# Below this, p-values near a bound may be subnormal and lose their relative
# precision: the accept bound stops at it, and no reject bound lies under it.
_SCREEN_P_FLOOR = 1e-280
# Tests with more than this many values together are not screened: math.lgamma's
# absolute error grows with its argument, and so the p-value's relative error.
_SCREEN_MAX_N = 2 ** 24
# The reject bound's search gives up past this t, whose square still is finite.
_SCREEN_MAX_T = 2.0 ** 500
# Unscreened tests up to this many take the scalar test, one by one; more take
# welch_p_values, whose numpy calls cost about as much as this many scalar tests.
_SCALAR_BAND = 32


def welch_rejections(n1, mean1, var1, n2, mean2, var2, alpha: float) -> np.ndarray:
    """Whether each Welch test rejects at ``alpha``: ``welch_p_values(...) < alpha``.

    Arguments broadcast as in ``welch_p_values``, and element i equals its
    element i ``< alpha``. Most tests are decided from |t| alone, by two
    bounds on the two-sided p-value P(|T_dof| >= t) that hold for every
    Welch dof; only the tests between them get a p-value.

    - Accept below z, where erfc(z / sqrt(2)) >= alpha * (1 + 1e-6). For
      every real dof > 0, P(|T_dof| >= t) >= P(|Z| >= t) = erfc(t / sqrt(2)):
      T_dof is Z / sqrt(S) with S = chi2_dof / dof independent of Z and
      E[S] = 1, so P(|T_dof| >= t) = E[g(S)] with g(s) = erfc(t * sqrt(s / 2)).
      For t > 0, g''(s) = t * phi(t * sqrt(s)) * (t**2 * s + 1) / (2 * s**1.5) > 0,
      so g is convex and Jensen gives E[g(S)] >= g(E[S]) = g(1).
    - Reject above t_hi, where ``student_t_two_sided_p(t_hi, nu) <=
      alpha * (1 - 1e-6)`` for nu = min(n1, n2) - 1 over all the tests. The
      Welch dof is at least nu: with f = min(n1, n2) - 1 and se_i = var_i / n_i,
      se1**2 / (n1 - 1) + se2**2 / (n2 - 1) <= (se1**2 + se2**2) / f
      <= (se1 + se2)**2 / f. And P(|T_dof| >= t) falls as dof grows: chi2_dof / dof
      keeps its mean 1 and shrinks in the convex order as dof grows (gamma
      laws of one mean, ordered by shape), and g above is convex.
    - The margin of 1e-6 covers the computed p-value's error, and a Welch
      dof that rounds a few ulps below nu. That error stays below 1e-7 at
      every alpha: x and 1 - x of the t tail are each formed to a few ulps
      at any t, which moves the p-value by dof / 2 times that at most; a
      test has at most 2**24 values, so math.lgamma's error stays small;
      and no bound's p-value lies below 1e-280, far from the subnormals.

    Every other test takes the exact path: those with degenerate moments,
    with moments whose size lies outside (1e-100, 1e100), with more than
    2**24 values, or with |t| in [z, t_hi]. Up to 32 go through the scalar
    test, more through ``welch_p_values``. A nan or infinite moment leaves
    the size outside that range, so its test raises ValueError there. The
    bounds are computed once per (alpha, nu).
    """
    n1, mean1, var1, n2, mean2, var2 = np.broadcast_arrays(n1, mean1, var1, n2, mean2, var2)
    n1, n2 = n1.ravel(), n2.ravel()
    if not n1.size:
        return np.zeros(0, dtype=bool)
    nu = int(min(n1.min(), n2.min())) - 1
    if nu < 1:
        raise InsufficientSample("need >= 2 observations per sample")
    mean1, var1, mean2, var2 = (np.asarray(v, dtype=float).ravel()
                                for v in (mean1, var1, mean2, var2))
    # a smaller nu keeps a valid reject bound; no screened test has a larger one
    z, t_hi = _screen_bounds(float(alpha), min(nu, _SCREEN_MAX_N // 2))
    # t as welch_p_values computes it; degenerate and far moments may divide
    # by zero or overflow here, and take the exact path
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        size = mean1 * mean1 + mean2 * mean2 + var1 + var2
        t = np.abs(mean1 - mean2) / np.sqrt(var1 / n1 + var2 / n2)
        screened = ((1e-100 < size) & (size < 1e100) & (n1 + n2 <= _SCREEN_MAX_N)
                    & ((var1 > DEGENERATE_VAR * size) | (var2 > DEGENERATE_VAR * size)))
    reject = screened & (t > t_hi)
    exact = np.flatnonzero(~(reject | (screened & (t < z))))
    if exact.size > _SCALAR_BAND:
        reject[exact] = welch_p_values(n1[exact], mean1[exact], var1[exact],
                                       n2[exact], mean2[exact], var2[exact]) < alpha
    elif exact.size:
        columns = [v[exact].tolist() for v in (n1, mean1, var1, n2, mean2, var2)]
        reject[exact] = [welch_test_from_moments(*moments, alpha).reject
                         for moments in zip(*columns)]
    return reject


@functools.lru_cache(maxsize=256)
def _screen_bounds(alpha: float, nu: int) -> tuple[float, float]:
    """(z, t_hi) of ``welch_rejections``: accept |t| < z, reject |t| > t_hi.

    t_hi = inf means no reject screen, and z = 0 no accept screen, which
    comes of an alpha within about 1e-6 of 1 or above it.
    """
    accept = max(alpha, _SCREEN_P_FLOOR) * (1.0 + _SCREEN_MARGIN)
    # erfc(40 / sqrt(2)) rounds to 0, below any target
    z, _ = _bisect(lambda s: math.erfc(s / math.sqrt(2.0)) >= accept, 0.0, 40.0)
    reject = alpha * (1.0 - _SCREEN_MARGIN)
    return z, _t_bound(reject, float(nu)) if reject >= _SCREEN_P_FLOOR else math.inf


def _t_bound(target: float, dof: float) -> float:
    """A t with ``student_t_two_sided_p(t, dof) <= target``, within 1e-12 of the
    least, or inf when none lies below 2**500."""
    lo, hi = 0.0, 1.0
    while not student_t_two_sided_p(hi, dof) <= target:
        if hi >= _SCREEN_MAX_T:
            return math.inf
        lo, hi = hi, 2.0 * hi
    _, hi = _bisect(lambda s: not student_t_two_sided_p(s, dof) <= target, lo, hi)
    # the bisection keeps the inequality at hi; check it once more all the same
    return hi if student_t_two_sided_p(hi, dof) <= target else math.inf


def _bisect(below, lo: float, hi: float) -> tuple[float, float]:
    """[lo, hi] narrowed to 1e-12 * hi, moving lo to each midpoint ``below`` holds at."""
    while hi - lo > 1e-12 * hi:
        mid = 0.5 * (lo + hi)
        if below(mid):
            lo = mid
        else:
            hi = mid
    return lo, hi


def _each(f, x: np.ndarray) -> np.ndarray:
    """``f`` of each element of ``x``, as Python floats."""
    return np.fromiter(map(f, x.tolist()), float, x.size)


def _square(v: float) -> float:
    return v ** 2


def _student_t_two_sided_ps(t: np.ndarray, dof: np.ndarray) -> np.ndarray:
    """``student_t_two_sided_p`` of each (t, dof) pair, bit for bit; every dof > 0."""
    with np.errstate(over="ignore", invalid="ignore"):  # an infinite t * t: x 0, y nan
        u = t * t
        x, y = dof / (dof + u), u / (dof + u)
    return np.minimum(np.maximum(_incomplete_betas(0.5 * dof, 0.5, x, y), 0.0), 1.0)


def _incomplete_betas(a: np.ndarray, b: float, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``_incomplete_beta(a[i], b, x[i], y[i])`` for each i, bit for bit."""
    out = np.where(x <= 0.0, 0.0, 1.0)  # y <= 0 leaves 1
    inner = (0.0 < x) & (0.0 < y)
    a, x, y = a[inner], x[inner], y[inner]
    # the symmetric form where the continued fraction converges fast, in y
    lower = x < (a + 1.0) / (a + b + 2.0)
    s = np.where(lower, x, y)
    log_s, log1m_s = _each(math.log, s), _each(math.log1p, -s)
    ln_front = (_each(math.lgamma, a + b) - _each(math.lgamma, a) - math.lgamma(b)
                + a * np.where(lower, log_s, log1m_s) + b * np.where(lower, log1m_s, log_s))
    front = _each(math.exp, ln_front)
    cf = _beta_continued_fractions(np.where(lower, a, b), np.where(lower, b, a), s)
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


class SummedValues(list):
    """Finite floats with exact integer prefix sums of the values and their squares.

    Each value times ``2**scale`` is an int: a float is ``p / 2**k``, so any
    scale at least every value's ``k`` makes all of them exact. ``s1[i]`` and
    ``s2[i]`` sum the first ``i`` scaled values and their squares. A value
    that needs a finer scale shifts the sums left, which is exact, so the
    scale only grows. Only ``append`` keeps the sums valid.
    """

    __slots__ = ("scale", "s1", "s2")

    def __init__(self, values=()):
        super().__init__()
        self.scale = 0
        self.s1 = [0]
        self.s2 = [0]
        for value in values:
            self.append(value)

    def append(self, value) -> None:
        """Append a finite float; ``nan`` and ``inf`` raise ValueError."""
        value = float(value)
        if not math.isfinite(value):
            raise ValueError(f"segment values must be finite, got {value}")
        p, q = value.as_integer_ratio()
        k = q.bit_length() - 1
        if k > self.scale:
            shift = k - self.scale
            self.s1 = [s << shift for s in self.s1]
            self.s2 = [s << 2 * shift for s in self.s2]
            self.scale = k
        x = p << (self.scale - k)
        self.s1.append(self.s1[-1] + x)
        self.s2.append(self.s2[-1] + x * x)
        super().append(value)

    def variance(self, start: int, end: int) -> float:
        """The MLE (ddof=0) variance of ``self[start:end]``, exact and correctly rounded.

        ``(n*S2 - S1**2) / (n**2 * 4**scale)`` over the segment's sums, in one
        int/int true division, which Python rounds correctly, subnormals
        included; a variance past the float range is inf.
        """
        n = end - start
        s1 = self.s1[end] - self.s1[start]
        try:
            return (n * (self.s2[end] - self.s2[start]) - s1 * s1) / (n * n << 2 * self.scale)
        except OverflowError:
            return math.inf


class Segment:
    """The view ``values[start:end]`` of a SummedValues, costed from its prefix sums."""

    __slots__ = ("values", "start", "end")

    def __init__(self, values: SummedValues, start: int, end: int):
        self.values = values
        self.start = start
        self.end = end

    @property
    def size(self) -> int:
        return self.end - self.start


def gaussian_segment_cost(segment) -> float:
    """Twice the negative maximized Gaussian log-likelihood of a segment.

    n * (log(2*pi) + log(max(var_mle, 1e-8)) + 1). The variance floor keeps
    constant segments finite; the cost stays subadditive under it, which is
    what exact pruning in the changepoint search relies on.

    ``var_mle`` is the exact variance of the segment's floats, correctly
    rounded (``SummedValues.variance``). A Segment view reads it from its
    values' prefix sums in O(1) and never touches the values; any other
    sequence of finite floats is summed the same way first, so both give the
    same cost bit for bit. ``nan`` or ``inf`` raises ValueError.
    """
    if not isinstance(segment, Segment):
        values = SummedValues(np.asarray(segment, dtype=float).ravel().tolist())
        segment = Segment(values, 0, len(values))
    n = segment.size
    if n < 2:
        raise InsufficientSample(f"segment needs >= 2 observations, got {n}")
    var = max(segment.values.variance(segment.start, segment.end), SEGMENT_VAR_FLOOR)
    return n * (_LOG_2PI + math.log(var) + 1.0)
