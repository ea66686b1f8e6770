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
# 1.5 us at n = 50 (2-CPU x86 machine; about 7 us at n = 200), so analyze's
# one shared null at the limit takes about 1.5 s; p-values finer than 1e-6
# change no decision at any usable alpha.  Only the counts, not the null,
# are kept.
MAX_KS_REPLICATES = 1_000_000
# Values per null block: the block of draws and _ks_rows's scratch, two
# (KS_BLOCK_VALUES // n, n) float buffers of at least one row, take at most
# 200 KB each (512 rows at n = 50), small enough to stay in cache.
KS_BLOCK_VALUES = 25_600
P_DISPLAY_CAP = 0.2


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


def _t_two_sided_p(t_stat: float, dof: int) -> float:
    from scipy.special import stdtr

    return float(2.0 * stdtr(dof, -abs(t_stat)))


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


def _ks_rows(z: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """K-S statistic of each row of z (C-contiguous) against the normal fitted to it.

    Works in place: each row of z is standardized, sorted and mapped through
    ndtr, and scratch, a flat buffer of at least z.size floats, is
    overwritten.  The row means and the centered values are computed once
    and reused for the variance: z.std(axis=1, ddof=1) does the same mean,
    subtract, square, sum and divide, so the bits are those of
    (z - mean) / std, and a row whose scale is 0 raises
    DegenerateSampleError.  The two deviations are reduced over a transposed
    (n, rows) view of scratch; max is exact, so its order does not matter.
    """
    from scipy.special import ndtr

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
    ndtr(z, out=z)
    dev = scratch[:z.size].reshape(n, rows)
    np.subtract((np.arange(1, n + 1) / n)[:, None], z.T, out=dev)
    d = np.maximum.reduce(dev, axis=0)
    np.subtract(z.T, (np.arange(0, n) / n)[:, None], out=dev)
    return np.maximum(d, np.maximum.reduce(dev, axis=0), out=d)


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
    from scipy.special import stdtrit

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
    t_crit = float(stdtrit(n - 2, 0.5 + confidence / 2.0))
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
