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
``welch_rejections`` decides many such tests at once, each as the scalar
test does, at every alpha: most are decided from |t| alone, below an accept
and above a reject bound taken at the test's own Welch dof, and only the
tests between the bounds take the scalar test.

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


def _beta_continued_fraction(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta, modified Lentz iteration."""
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _CF_FPMIN:
        d = _CF_FPMIN
    d = 1.0 / d
    h = d
    for m in range(1, _CF_MAX_ITER + 1):
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


# A screen decides a test from t alone only where the bound's p-value is off
# alpha by this relative margin, far above a computed p-value's rounding error.
_SCREEN_MARGIN = 1e-6
# Below this, p-values near a bound may be subnormal and lose their relative
# precision: the accept bound stops at it, and no reject bound lies under it.
_SCREEN_P_FLOOR = 1e-280
# Tests with more than this many values together are not screened: math.lgamma's
# absolute error grows with its argument, and so the p-value's relative error.
_SCREEN_MAX_N = 2 ** 24
# The bound search gives up past this t, whose square still is finite.
_SCREEN_MAX_T = 2.0 ** 500
# Welch dof buckets per octave. A bucket's bounds hold for every dof in it, so
# more buckets narrow the band between them and cost more bound searches.
_DOF_STEPS = 8


def welch_rejections(n1, mean1, var1, n2, mean2, var2, alpha: float) -> np.ndarray:
    """Whether each Welch test rejects at ``alpha``, from the tests' moments.

    Arguments broadcast against each other, and element i equals
    ``welch_test_from_moments(n1[i], mean1[i], var1[i], n2[i], mean2[i],
    var2[i], alpha).reject``. Most tests are decided from |t| alone. A
    test's Welch dof falls in a bucket [lo, hi), one of eight per octave,
    and the bucket has two bounds. Both rest only on the two-sided p-value
    P(|T_dof| >= t) falling as t grows and as dof grows:

    - Accept below t_lo, where ``student_t_two_sided_p(t_lo, hi) >
      max(alpha, 1e-280) * (1 + 1e-6)``: for |t| < t_lo and dof < hi the
      p-value is at least that.
    - Reject above t_hi, where ``student_t_two_sided_p(t_hi, lo) <=
      alpha * (1 - 1e-6)``: for |t| > t_hi and dof >= lo the p-value is at
      most that.
    - The margin of 1e-6 covers the computed p-value's error, and a Welch
      dof that the scalar test rounds a few ulps outside the bucket. That
      error stays below 1e-7 at every alpha: x and 1 - x of the t tail are
      each formed to a few ulps at any t, which moves the p-value by
      dof / 2 times that at most; a test has at most 2**24 values, so
      math.lgamma's error stays small; and no bound's p-value lies below
      1e-280, far from the subnormals.

    Every other test takes the scalar test: those with degenerate moments,
    with moments whose size lies outside (1e-100, 1e100), with more than
    2**24 values, or with |t| in [t_lo, t_hi]. A nan or infinite moment
    leaves the size outside that range, so its test raises ValueError
    there. The bounds are computed once per (alpha, bucket).
    """
    n1, mean1, var1, n2, mean2, var2 = np.broadcast_arrays(n1, mean1, var1, n2, mean2, var2)
    n1, n2 = n1.ravel(), n2.ravel()
    if not n1.size:
        return np.zeros(0, dtype=bool)
    if min(n1.min(), n2.min()) < 2:
        raise InsufficientSample("need >= 2 observations per sample")
    mean1, var1, mean2, var2 = (np.asarray(v, dtype=float).ravel()
                                for v in (mean1, var1, mean2, var2))
    # t and the Welch dof as the scalar test computes them, to a few ulps of
    # the dof; degenerate and far moments may divide by zero or overflow
    # here, and take the scalar test
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        size = mean1 * mean1 + mean2 * mean2 + var1 + var2
        se1, se2 = var1 / n1, var2 / n2
        se = se1 + se2
        t = np.abs(mean1 - mean2) / np.sqrt(se)
        dof = se * se / (se1 * se1 / (n1 - 1) + se2 * se2 / (n2 - 1))
        screened = ((1e-100 < size) & (size < 1e100) & (n1 + n2 <= _SCREEN_MAX_N)
                    & ((var1 > DEGENERATE_VAR * size) | (var2 > DEGENERATE_VAR * size)))
    t_lo, t_hi = _screen_bounds(float(alpha), np.where(screened, dof, 1.0))
    reject = screened & (t > t_hi)
    scalar = np.flatnonzero(~(reject | (screened & (t < t_lo))))
    if scalar.size:
        columns = [v[scalar].tolist() for v in (n1, mean1, var1, n2, mean2, var2)]
        reject[scalar] = [welch_test_from_moments(*moments, alpha).reject
                          for moments in zip(*columns)]
    return reject


def _dof_buckets(dof: np.ndarray) -> np.ndarray:
    """The bucket of each dof >= 0.5: ``_DOF_STEPS`` times its frexp exponent,
    plus the step of the octave its mantissa lies in. Exact: the mantissa
    lies in [0.5, 1), so (mantissa - 0.5) * 2 * _DOF_STEPS is formed exactly."""
    mantissa, exponent = np.frexp(dof)
    steps = ((mantissa - 0.5) * (2 * _DOF_STEPS)).astype(np.int64)
    return exponent * _DOF_STEPS + steps


def _bucket_dofs(bucket: int) -> tuple[float, float]:
    """(lo, hi): bucket ``bucket`` holds the dofs in [lo, hi)."""
    exponent, step = divmod(bucket, _DOF_STEPS)
    return tuple(math.ldexp(0.5 + k / (2 * _DOF_STEPS), exponent) for k in (step, step + 1))


def _screen_bounds(alpha: float, dof: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(t_lo, t_hi) of ``welch_rejections`` for each dof, from its bucket."""
    buckets = _dof_buckets(dof)
    present = np.flatnonzero(np.bincount(buckets))
    table = np.empty((present[-1] + 1, 2))
    table[present] = [_bucket_bounds(alpha, bucket) for bucket in present.tolist()]
    return tuple(table[buckets].T)


@functools.lru_cache(maxsize=1024)
def _bucket_bounds(alpha: float, bucket: int) -> tuple[float, float]:
    """(t_lo, t_hi) of ``welch_rejections`` for the dofs of bucket ``bucket``.

    t_lo = 0 means no accept screen, which comes of an alpha within about
    1e-6 of 1 or above it, and t_hi = inf no reject screen.
    """
    lo, hi = _bucket_dofs(bucket)
    accept = max(alpha, _SCREEN_P_FLOOR) * (1.0 + _SCREEN_MARGIN)
    reject = alpha * (1.0 - _SCREEN_MARGIN)
    return (_t_bounds(accept, hi)[0] if accept < 1.0 else 0.0,
            _t_bounds(reject, lo)[1] if reject >= _SCREEN_P_FLOOR else math.inf)


def _t_bounds(target: float, dof: float) -> tuple[float, float]:
    """(lo, hi) about the least t with ``student_t_two_sided_p(t, dof) <= target``.

    The p-value exceeds target at lo, 0 included when target < 1, and is at
    most target at hi, within 1e-6 * hi of lo; that slack widens a bucket's
    band by at most 1e-6 of t. When no such t lies below 2**500, hi is inf
    and lo is 2**500.
    """
    lo, hi = 0.0, 1.0
    while not student_t_two_sided_p(hi, dof) <= target:
        if hi >= _SCREEN_MAX_T:
            return hi, math.inf
        lo, hi = hi, 2.0 * hi
    while hi - lo > 1e-6 * hi:
        mid = 0.5 * (lo + hi)
        if student_t_two_sided_p(mid, dof) <= target:
            hi = mid
        else:
            lo = mid
    return lo, hi


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
    constant segments finite.

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
