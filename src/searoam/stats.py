"""Statistics for the roaming study: normality screening, correlations,
and simple linear regression with a mean-response confidence band.

The normality test is a Kolmogorov-Smirnov test against a normal
distribution with mean and standard deviation estimated from the sample,
so the p-value comes from seeded Monte-Carlo resampling of the null
distribution rather than the classical asymptotic formula.  That null
depends only on the sample size (Lilliefors, 1967), so a study draws one
and counts every variable's statistic against it; one kernel computes the
statistics of the samples and of the null alike.  Following the usual
reporting convention of stats packages, p-values above 0.2 carry a
``capped`` display flag; the true Monte-Carlo p is always kept.

Correlation tests use the t approximation with n-2 degrees of freedom for
two-sided p-values.  Spearman is the Pearson correlation of average ranks.

Only numpy and the standard library are used: the normal CDF is math.erf
and math.erfc in the branches of scipy.special.ndtr, evaluated only at the
ranks that a logistic screen leaves in play (see _ks_rows); the t
distribution is the regularized incomplete beta (continued fraction, and
DiDonato & Morris's asymptotic expansion for large degrees of freedom),
and its quantile Hill's Algorithm 396 polished by Newton steps.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass

import numpy as np


class UndefinedCorrelationError(ValueError):
    """Raised when a correlation is undefined (zero variance input)."""


class DegenerateSampleError(ValueError):
    """Raised when a sample cannot be tested for normality (zero variance)."""


class UndefinedFitError(ValueError):
    """Raised when a regression fit is undefined (zero predictor variance)."""


DEFAULT_KS_REPLICATES = 10_000
# Limit on the Monte-Carlo replicates of the null.  A replicate costs about
# 1.5-2 us at n = 50 (2-CPU x86 machine; about 6 us at n = 200), so analyze's
# one shared null at the limit takes about 2 s; p-values finer than 1e-6
# change no decision at any usable alpha.  Only the counts, not the null,
# are kept.
MAX_KS_REPLICATES = 1_000_000
# Values per null block: the block of draws and _ks_rows's scratch, two
# (KS_BLOCK_VALUES // n, n) float buffers of at least one row, take at most
# 200 KB each (512 rows at n = 50), small enough to stay in cache.  They are
# the only block-sized buffers: _ks_rows screens in the block and keeps the
# sorted values in the scratch, and its other temporaries (a boolean mask,
# 25 KB, and arrays of about one value per row) stay below 128 KB.
KS_BLOCK_VALUES = 25_600
# Margin of the K-S candidate screen: Bowling et al.'s logistic
# 1 / (1 + exp(-(1.5976 z + 0.070566 z^3))) is within 1.41e-4 of the normal
# CDF everywhere (JIEM 2009); 2^-12 covers that and the rounding.
KS_SCREEN_EPS = 2.0 ** -12
P_DISPLAY_CAP = 0.2
SQRT1_2 = math.sqrt(0.5)
LN_SQRT_PI = 0.5 * math.log(math.pi)  # ln Gamma(1/2)


def _as_sample(x, min_n: int, what: str = "sample") -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"{what} must be one-dimensional")
    if len(arr) < min_n:
        raise ValueError(f"{what} needs at least {min_n} observations, got {len(arr)}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{what} must be finite")
    with np.errstate(over="ignore", invalid="ignore"):
        dev = arr - arr.mean()
        spread = float(np.dot(dev, dev))
    if not math.isfinite(spread):
        raise ValueError(f"{what} is too large: its sum of squared deviations overflows")
    return arr


@dataclass(frozen=True)
class CorrelationResult:
    method: str
    r: float
    p_value: float
    n: int

    def to_dict(self) -> dict:
        return {"method": self.method, "r": self.r, "p_value": self.p_value, "n": self.n}


@dataclass(frozen=True)
class NormalityResult:
    """K-S statistic against the fitted normal, with Monte-Carlo p-value."""

    d: float
    p_value: float
    n: int

    @property
    def capped(self) -> bool:
        return self.p_value > P_DISPLAY_CAP

    @property
    def p_display(self) -> float:
        return min(self.p_value, P_DISPLAY_CAP)

    def to_dict(self) -> dict:
        return {
            "D": self.d,
            "p_value": self.p_value,
            "p_display": self.p_display,
            "capped": self.capped,
            "n": self.n,
        }


def _as_pair(x, y) -> tuple[np.ndarray, np.ndarray]:
    """Two paired samples of at least 3 observations each, equally long."""
    x = _as_sample(x, 3, "x")
    y = _as_sample(y, 3, "y")
    if len(x) != len(y):
        raise ValueError(f"x and y lengths differ: {len(x)} vs {len(y)}")
    return x, y


def _log_gamma_ratio(a: float) -> float:
    """ln Gamma(a + 1/2) - ln Gamma(a) for a >= 1/2, to about 1e-15.  Above 10
    the difference is taken inside Stirling's series, where the two
    math.lgamma values, each about a ln a, would lose a ulp of that size."""
    if a < 10.0:
        return math.lgamma(a + 0.5) - math.lgamma(a)

    def rest(x):  # ln Gamma(x) - (x - 1/2) ln x + x - ln sqrt(2 pi)
        w = 1.0 / (x * x)
        return (1 / 12 - w * (1 / 360 - w * (1 / 1260 - w * (
            1 / 1680 - w * (1 / 1188 - w * 691 / 360360))))) / x

    return a * math.log1p(0.5 / a) + 0.5 * math.log(a) - 0.5 + rest(a + 0.5) - rest(a)


def _beta_fraction(a: float, b: float, x: float) -> float:
    """Continued fraction of I_x(a, b) / (x^a (1 - x)^b / (a B(a, b))) by the
    modified Lentz method; it converges fast for x < (a + 1) / (a + b + 2)."""
    tiny = 1e-300
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    h = d
    for m in range(1, 1000):
        for coef in (m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
                     -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))):
            d = 1.0 + coef * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + coef / c
            c = c if abs(c) > tiny else tiny
            h *= c * d
        if abs(c * d - 1.0) < 1e-15:
            break
    return h


def _beta_expansion(a: float, lnx: float) -> float:
    """I_x(a, 1/2) for a >= 15 by DiDonato & Morris's asymptotic expansion
    (BGRAT, ACM TOMS 1992), a series in incomplete gamma functions of
    z = -(a - 1/4) ln x.  Unlike the continued fraction near x = 1, its error
    does not grow with a."""
    nu = a - 0.25
    z = -nu * lnx
    r = math.sqrt(z / math.pi) * math.exp(-z)
    u = r * math.exp(_log_gamma_ratio(a)) / math.sqrt(nu)
    v, t2 = 0.25 / (nu * nu), 0.25 * lnx * lnx
    j = math.erfc(math.sqrt(z)) / r
    total, t, cn, c, d = j, 1.0, 1.0, [], []
    for n in range(1, 31):
        bp2n = 2 * n - 1.5
        j = (bp2n * (bp2n + 1) * j + (z + bp2n + 1) * t) * v
        t *= t2
        cn /= 2 * n * (2 * n + 1)
        c.append(cn)
        d.append(-0.5 * cn + sum((0.5 * i - n) * c[i - 1] * d[n - 1 - i] for i in range(1, n)) / n)
        total += d[-1] * j
        if abs(d[-1] * j) <= 1e-15 * total:
            break
    return u * total


def _t_two_sided_p(t_stat: float, dof: float) -> float:
    """P(|T| >= |t|) for Student's t: I_x(dof/2, 1/2) at x = dof / (dof + t^2),
    twice scipy.special.stdtr(dof, -|t|), and exactly 0.0 at |t| = inf.

    y = 1 - x and ln x are formed from t^2 / dof without cancellation.  Near
    t = 0 the tail is 1 - I_y(1/2, dof/2) by the continued fraction in y.
    Beyond, the continued fraction in x loses about dof/2 ulps as x nears 1,
    so from dof = 30 to x = 0.7 the asymptotic expansion takes over, short
    of tails below e^-700, where exp(-z) in it would underflow."""
    tt = t_stat * t_stat
    if tt == 0.0:
        return 1.0
    a = 0.5 * dof
    x, y = 1.0 / (1.0 + tt / dof), 1.0 / (1.0 + dof / tt)
    lnx = -math.log1p(tt / dof)
    # x^a y^(1/2) / B(a, 1/2)
    front = math.exp(a * lnx - 0.5 * math.log1p(dof / tt) - LN_SQRT_PI + _log_gamma_ratio(a))
    if x >= (a + 1.0) / (a + 2.5):
        return 1.0 - 2.0 * front * _beta_fraction(0.5, a, y)
    if a >= 15.0 and y < 0.3 and -a * lnx < 700.0:
        return _beta_expansion(a, lnx)
    return front / a * _beta_fraction(a, 0.5, x)


def _hill_t_quantile(p2: float, n: int) -> float:
    """Hill's Algorithm 396 (CACM 1970): t with P(|T| > t) near p2, n degrees
    of freedom; the normal deviate is Abramowitz & Stegun's 26.2.23."""
    if n == 2:
        return math.sqrt(2.0 / (p2 * (2.0 - p2)) - 2.0)
    if n == 1:
        return 1.0 / math.tan(p2 * math.pi / 2)
    a = 1.0 / (n - 0.5)
    b = 48.0 / (a * a)
    c = ((20700.0 * a / b - 98.0) * a - 16.0) * a + 96.36
    d = ((94.5 / (b + c) - 3.0) / b + 1.0) * math.sqrt(a * math.pi / 2) * n
    y = (d * p2) ** (2.0 / n)
    if y > 0.05 + a:  # asymptotic inverse expansion about the normal
        s = math.sqrt(-2.0 * math.log(0.5 * p2))
        x = s - (2.515517 + s * (0.802853 + s * 0.010328)) / (
            1.0 + s * (1.432788 + s * (0.189269 + s * 0.001308)))
        if n < 5:
            c += 0.3 * (n - 4.5) * (x + 0.6)
        c = (((0.05 * d * x - 5.0) * x - 7.0) * x - 2.0) * x + b + c
        y = x * x
        y = (((((0.4 * y + 6.3) * y + 36.0) * y + 94.5) / c - y - 3.0) / b + 1.0) * x
        y = math.expm1(a * y * y)
    else:
        y = ((1.0 / (((n + 6.0) / (n * y) - 0.089 * d - 0.822) * (n + 2.0) * 3.0)
              + 0.5 / (n + 4.0)) * y - 1.0) * (n + 1.0) / (n + 2.0) + 1.0 / y
    return math.sqrt(n * y)


def _t_quantile(p: float, dof: int) -> float:
    """The t with P(T <= t) = p (scipy.special.stdtrit): Hill's start, then
    Newton steps on the tail q = min(p, 1 - p), which is exact in floating
    point, until a step moves t by at most 1e-10 of itself (quadratic
    convergence leaves an error far below a ulp after such a step)."""
    q = min(p, 1.0 - p)
    if q == 0.5 or q == 0.0:
        return math.copysign(0.0 if q else math.inf, p - 0.5)
    t = _hill_t_quantile(2.0 * q, dof)
    a = 0.5 * dof
    for _ in range(10):
        log_density = -(a + 0.5) * math.log1p(t * t / dof) + _log_gamma_ratio(a) - LN_SQRT_PI
        step = (0.5 * _t_two_sided_p(t, dof) - q) / math.exp(log_density) * math.sqrt(dof)
        t += step
        if abs(step) <= 1e-10 * t:
            break
    return t if p > 0.5 else -t


def pearson(x, y) -> CorrelationResult:
    """Pearson correlation with two-sided p from the t distribution (n-2 df)."""
    x, y = _as_pair(x, y)
    n = len(x)
    dx = x - x.mean()
    dy = y - y.mean()
    sxx = float(np.dot(dx, dx))
    syy = float(np.dot(dy, dy))
    if sxx == 0.0 or syy == 0.0:
        raise UndefinedCorrelationError("correlation undefined for zero-variance input")
    r = float(np.dot(dx, dy) / math.sqrt(sxx * syy))
    r = max(-1.0, min(1.0, r))
    if abs(r) == 1.0:
        t_stat = math.inf
    else:
        t_stat = r * math.sqrt((n - 2) / (1.0 - r * r))
    return CorrelationResult("pearson", r, _t_two_sided_p(t_stat, n - 2), n)


def average_ranks(x) -> np.ndarray:
    """Ranks 1..n with tied values sharing the average of their positions."""
    x = np.asarray(x, dtype=float)
    order = np.argsort(x, kind="stable")
    ordered = x[order]
    # A tie group starts where the sorted value changes (NaN never ties).
    first = np.flatnonzero(np.concatenate(([True], ordered[1:] != ordered[:-1])))
    last = np.append(first[1:], len(x)) - 1
    ranks = np.empty(len(x))
    ranks[order] = np.repeat(0.5 * (first + last) + 1.0, last - first + 1)
    return ranks


def spearman(x, y) -> CorrelationResult:
    """Spearman rank correlation (average ranks for ties), t-approximated p."""
    x, y = _as_pair(x, y)
    result = pearson(average_ranks(x), average_ranks(y))
    return CorrelationResult("spearman", result.r, result.p_value, result.n)


def _ndtr(z: np.ndarray) -> np.ndarray:
    """Standard normal CDF of each value of z by math.erf and math.erfc, in the
    branches of scipy.special.ndtr: with x = z / sqrt(2), 1/2 + erf(x)/2 where
    |x| < sqrt(1/2), else erfc(|x|)/2 reflected to the sign of x."""
    x = z * SQRT1_2
    ax = np.abs(x)
    central = ax < SQRT1_2
    cdf = np.empty_like(x)
    cdf[central] = np.fromiter(map(math.erf, x[central].tolist()), float) * 0.5 + 0.5
    tail = ~central
    half = np.fromiter(map(math.erfc, ax[tail].tolist()), float) * 0.5
    cdf[tail] = np.where(x[tail] > 0, 1.0 - half, half)
    return cdf


def _ks_rows(z: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """K-S statistic of each row of z (C-contiguous) against the normal fitted to it.

    Works in place: each row of z is standardized and sorted, and both z
    and scratch, a flat buffer of at least z.size floats, are overwritten.
    The row means and the centered values are computed once and reused for
    the variance: z.std(axis=1, ddof=1) does the same mean, subtract,
    square, sum and divide, so the bits are those of (z - mean) / std, and
    a row whose scale is 0 raises DegenerateSampleError.

    With mid = (i + 1/2) / n at rank i, the larger of the two deviations
    (i + 1) / n - Phi and Phi - i / n is 1 / (2n) + |Phi - mid|, so the rank
    that attains D maximizes |Phi - mid|.  A screen finds the ranks that
    can: the sorted values go to scratch as an (n, rows) transpose, and z's
    buffer, seen as (n, rows), takes 2 |Phi~ - mid| for the logistic Phi~
    of KS_SCREEN_EPS, computed as |tanh(y / 2) - (2 mid - 1)| since
    1 / (1 + exp(-y)) = (1 + tanh(y / 2)) / 2, which cannot overflow.  The
    exact CDF (_ndtr) is evaluated only at the ranks whose |Phi~ - mid| is
    within 2 KS_SCREEN_EPS of their row's largest, about 1.05 per row, and
    D is the largest of their exact deviations: the same float as
    evaluating every rank, since the rank that attains D always passes.
    """
    rows, n = z.shape
    center = z.sum(axis=1, keepdims=True)
    center /= n
    z -= center
    squares = scratch[:z.size].reshape(rows, n)
    np.multiply(z, z, out=squares)
    scale = squares.sum(axis=1, keepdims=True)
    scale /= n - 1
    np.sqrt(scale, out=scale)
    if not scale.all():
        raise DegenerateSampleError("normality test undefined for zero-variance sample")
    z /= scale
    z.sort(axis=1)
    ranked = scratch[:z.size].reshape(n, rows)
    np.copyto(ranked, z.T)
    screen = z.reshape(n, rows)
    np.multiply(ranked, ranked, out=screen)
    screen *= 0.070566 / 2
    screen += 1.5976 / 2
    screen *= ranked
    np.tanh(screen, out=screen)
    screen -= ((2 * np.arange(n) + 1) / n - 1)[:, None]
    np.abs(screen, out=screen)
    # Proof that the rank i attaining D passes: with e = |Phi - mid| and e~ its
    # screen value, |e~ - e| <= eps at every rank, so for every rank j
    # e~_i >= e_i - eps >= e_j - eps >= e~_j - 2 eps, i.e. e~_i >= max e~ - 2 eps.
    floor = np.maximum.reduce(screen, axis=0)
    floor -= 2 * (2 * KS_SCREEN_EPS)  # screen values are 2 e~
    candidates = np.flatnonzero(screen >= floor)  # rank * rows + row
    rank = candidates // rows
    cdf = _ndtr(ranked.ravel()[candidates])
    d = np.zeros(rows)
    np.maximum.at(d, candidates - rank * rows, np.maximum((rank + 1) / n - cdf, cdf - rank / n))
    return d


def ks_statistic_normal(x) -> float:
    """Largest deviation between the sample ECDF and the fitted normal CDF."""
    x = _as_sample(x, 4)
    return float(_ks_rows(x[None, :].copy(), np.empty(len(x)))[0])


def _check_null(n: int, replicates: int) -> None:
    if n < 4:
        raise ValueError(f"need n >= 4, got {n}")
    if replicates < 1:
        raise ValueError(f"need at least 1 replicate, got {replicates}")
    if replicates > MAX_KS_REPLICATES:
        raise ValueError(f"{replicates} replicates exceed the limit of {MAX_KS_REPLICATES}")


def _normality(samples: np.ndarray, replicates: int, seed: int) -> list[NormalityResult]:
    """Normality test of each row of the (k, n) samples against one seeded Lilliefors null.

    The null's standard-normal samples of size n are drawn and reduced
    KS_BLOCK_VALUES // n at a time (at least one) into reused buffers,
    which consumes the stream as one (replicates, n) draw does; each
    block's statistics are counted against all k.
    """
    k, n = samples.shape
    _check_null(n, replicates)
    ds = _ks_rows(samples.copy(), np.empty(samples.size))
    rng = np.random.default_rng(seed)
    rows = min(replicates, max(1, KS_BLOCK_VALUES // n))
    block, scratch = np.empty((rows, n)), np.empty(rows * n)
    counts = np.zeros(k, dtype=np.int64)
    for start in range(0, replicates, rows):
        null = _ks_rows(rng.standard_normal(out=block[:min(rows, replicates - start)]), scratch)
        counts += np.count_nonzero(null[:, None] >= ds, axis=0)
    return [NormalityResult(d=d, p_value=(1 + exceed) / (replicates + 1), n=n)
            for d, exceed in zip(ds.tolist(), counts.tolist())]


def ks_normality(x, replicates: int = DEFAULT_KS_REPLICATES, seed: int = 0) -> NormalityResult:
    """Normality test, parameters estimated: add-one Monte-Carlo p (1 + #{null >= d}) / (B + 1)."""
    return _normality(_as_sample(x, 4)[None, :], replicates, seed)[0]


@dataclass(frozen=True)
class RegressionFit:
    """Ordinary least squares line with a mean-response confidence band."""

    slope: float
    intercept: float
    n: int
    x_mean: float
    sxx: float
    resid_std: float
    confidence: float
    t_crit: float

    def predict(self, x):
        return self.intercept + self.slope * np.asarray(x, dtype=float)

    def band(self, x):
        """(lower, upper) of the confidence band for the mean response at x."""
        x = np.asarray(x, dtype=float)
        fitted = self.predict(x)
        margin = self.t_crit * self.resid_std * np.sqrt(
            1.0 / self.n + (x - self.x_mean) ** 2 / self.sxx
        )
        return fitted - margin, fitted + margin


def linear_fit_with_band(x, y, confidence: float = 0.95) -> RegressionFit:
    """Fit y = intercept + slope*x by least squares with a confidence band.

    The band covers the mean response: half-width
    t_{1-alpha/2, n-2} * s * sqrt(1/n + (x - xbar)^2 / Sxx), narrowest at
    the predictor mean.
    """
    x, y = _as_pair(x, y)
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must be in (0, 1), got {confidence!r}")
    n = len(x)
    dx = x - x.mean()
    sxx = float(np.dot(dx, dx))
    if sxx == 0.0:
        raise UndefinedFitError("regression undefined for zero-variance x")
    slope = float(np.dot(dx, y - y.mean()) / sxx)
    intercept = float(y.mean() - slope * x.mean())
    resid = y - (intercept + slope * x)
    resid_std = math.sqrt(float(np.dot(resid, resid)) / (n - 2))
    t_crit = _t_quantile(0.5 + confidence / 2.0, n - 2)
    return RegressionFit(
        slope=slope,
        intercept=intercept,
        n=n,
        x_mean=float(x.mean()),
        sxx=sxx,
        resid_std=resid_std,
        confidence=confidence,
        t_crit=t_crit,
    )


# --- study data -----------------------------------------------------------

STUDY_HEADER = ["participant", "enjoyment", "engagement", "time_s", "collisions", "accuracy"]
STUDY_VARIABLES = tuple(STUDY_HEADER[1:])

# Questionnaire scores are sums of five 1-5 items.
SCORE_MIN, SCORE_MAX = 5, 25


def _study_row(row: list[str]) -> tuple:
    """One data row's values, typed and checked in column order."""
    values = (row[0], int(row[1]), int(row[2]), float(row[3]), int(row[4]), float(row[5]))
    _, enjoyment, engagement, time_s, collisions, accuracy = values
    for name, score in (("enjoyment", enjoyment), ("engagement", engagement)):
        if not SCORE_MIN <= score <= SCORE_MAX:
            raise ValueError(
                f"{name} must be an integer in [{SCORE_MIN}, {SCORE_MAX}], got {score!r}"
            )
    if not (math.isfinite(time_s) and time_s >= 0):
        raise ValueError(f"time_s must be >= 0, got {time_s!r}")
    if collisions < 0:
        raise ValueError(f"collisions must be a nonnegative integer, got {collisions!r}")
    if not (math.isfinite(accuracy) and 0.0 <= accuracy <= 1.0):
        raise ValueError(f"accuracy must be in [0, 1], got {accuracy!r}")
    return values


def load_study(source: str) -> dict[str, tuple]:
    """Parse study CSV content (header: participant,enjoyment,engagement,
    time_s,collisions,accuracy) into one tuple per column: participant
    strings, int scores and collisions, float time_s and accuracy.  Data
    rows are numbered from 1 in errors."""
    try:
        rows = [r for r in csv.reader(io.StringIO(source)) if r]
    except csv.Error as exc:  # a cell longer than csv.field_size_limit(), say
        raise ValueError(f"study file is not valid CSV: {exc}") from None
    if not rows:
        raise ValueError("study file is empty")
    header = [c.strip().lower() for c in rows[0]]
    if header != STUDY_HEADER:
        raise ValueError(
            f"expected header '{','.join(STUDY_HEADER)}', got {','.join(header)}"
        )
    parsed = []
    for i, row in enumerate(rows[1:], start=1):
        if len(row) != len(STUDY_HEADER):
            raise ValueError(f"row {i}: expected {len(STUDY_HEADER)} columns, got {len(row)}")
        try:
            parsed.append(_study_row(row))
        except ValueError as exc:
            raise ValueError(f"row {i}: {exc}") from None
    return {name: tuple(row[j] for row in parsed) for j, name in enumerate(STUDY_HEADER)}


def serialize_study(study: dict[str, tuple]) -> str:
    """The CSV text of a study's columns (load_study's inverse)."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(STUDY_HEADER)
    writer.writerows(zip(*(study[name] for name in STUDY_HEADER)))
    return out.getvalue()


CORRELATION_PAIRS = (
    ("engagement", "enjoyment"),
    ("engagement", "time_s"),
    ("engagement", "collisions"),
    ("engagement", "accuracy"),
)


@dataclass(frozen=True)
class StatsReport:
    """Normality screen plus the four engagement correlations."""

    n: int
    alpha: float
    normality: dict[str, NormalityResult]
    correlations: dict[str, CorrelationResult]

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "alpha": self.alpha,
            "normality": {k: v.to_dict() for k, v in self.normality.items()},
            "correlations": {k: v.to_dict() for k, v in self.correlations.items()},
        }


def analyze_study(
    study: dict[str, tuple],
    alpha: float = 0.05,
    seed: int = 0,
    replicates: int = DEFAULT_KS_REPLICATES,
) -> StatsReport:
    """Run the study pipeline: normality screen, then gated correlations.

    Each variable is K-S tested against a fitted normal; a correlation pair
    uses Pearson when both variables pass (p > alpha) and Spearman when
    either fails.  The five columns, which must be equally long, are
    tested as one (5, n) array whose statistics are counted against one
    Monte-Carlo null drawn from ``seed``, so each variable's result is
    ``ks_normality(column, replicates, seed)``.
    """
    if not (math.isfinite(alpha) and 0.0 < alpha < 1.0):
        raise ValueError(f"alpha must be in (0, 1), got {alpha!r}")
    columns = {name: np.array(study[name], dtype=float) for name in STUDY_VARIABLES}
    n = len(columns["engagement"])
    if n < 4:
        raise ValueError(f"insufficient sample: need at least 4 study records, got {n}")
    _check_null(n, replicates)
    for name, values in columns.items():
        _as_sample(values, 4, f"column '{name}'")
        if len(values) != n:
            raise ValueError(f"column '{name}' has {len(values)} values, expected {n}")
        if values.max() == values.min():
            raise UndefinedCorrelationError(
                f"column '{name}' has zero variance; correlation undefined"
            )

    normality = dict(zip(STUDY_VARIABLES, _normality(np.stack(list(columns.values())),
                                                     replicates, seed)))
    is_normal = {name: normality[name].p_value > alpha for name in STUDY_VARIABLES}

    correlations = {}
    for a, b in CORRELATION_PAIRS:
        test = pearson if (is_normal[a] and is_normal[b]) else spearman
        correlations[f"{a}_vs_{b}"] = test(columns[a], columns[b])

    return StatsReport(n=n, alpha=alpha, normality=normality, correlations=correlations)


DEFAULT_STUDY_SEED = 26
DEFAULT_STUDY_SIZE = 50


def synthesize_study(
    n: int = DEFAULT_STUDY_SIZE, seed: int = DEFAULT_STUDY_SEED
) -> dict[str, tuple]:
    """Generate a seeded synthetic study dataset, as load_study's columns.

    A latent skill variable drives all columns so that engagement
    correlates positively with enjoyment and accuracy and negatively with
    completion time and collisions; collisions are Poisson counts (skewed,
    non-normal) while the other variables stay approximately normal.
    """
    if n < 4:
        raise ValueError(f"need at least 4 participants, got {n}")
    rng = np.random.default_rng(seed)
    skill = rng.standard_normal(n)

    engagement = np.clip(np.rint(18.5 + 3.2 * skill + rng.normal(0.0, 1.5, n)), 5, 25)
    enjoyment = np.clip(np.rint(20.3 + 2.6 * skill + rng.normal(0.0, 1.6, n)), 5, 25)
    time_s = 220.0 - 6.0 * (engagement - 18.5) + rng.normal(0.0, 16.0, n)
    time_s = np.maximum(time_s, 30.0)
    rate = np.exp(0.8 - 0.22 * (engagement - 18.5))
    collisions = rng.poisson(rate)
    accuracy = np.clip(
        0.72 + 0.035 * (engagement - 18.5) + rng.normal(0.0, 0.09, n), 0.0, 1.0
    )

    return {
        "participant": tuple(f"P{i + 1:02d}" for i in range(n)),
        "enjoyment": tuple(enjoyment.astype(int).tolist()),
        "engagement": tuple(engagement.astype(int).tolist()),
        "time_s": tuple(np.round(time_s, 3).tolist()),
        "collisions": tuple(collisions.tolist()),
        "accuracy": tuple(np.round(accuracy, 4).tolist()),
    }
