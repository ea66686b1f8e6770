import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.integrate import quad

from searoam import stats
from searoam.stats import (
    DEFAULT_KS_REPLICATES,
    MAX_KS_REPLICATES,
    DegenerateSampleError,
    UndefinedCorrelationError,
    UndefinedFitError,
    analyze_study,
    average_ranks,
    ks_normality,
    ks_statistic_normal,
    linear_fit_with_band,
    load_study,
    pearson,
    serialize_study,
    spearman,
    synthesize_study,
)

from conftest import (
    DATA_DIR,
    reference_exceedances,
    reference_ks_rows,
    reference_lilliefors_null,
    reference_pvalue,
)


# --- independent oracles ----------------------------------------------------

def pearson_oracle(x, y):
    """Direct covariance-formula oracle using compensated summation."""
    n = len(x)
    mx = math.fsum(x) / n
    my = math.fsum(y) / n
    sxy = math.fsum((a - mx) * (b - my) for a, b in zip(x, y))
    sxx = math.fsum((a - mx) ** 2 for a in x)
    syy = math.fsum((b - my) ** 2 for b in y)
    return sxy / math.sqrt(sxx * syy)


def brute_force_ranks(x):
    """O(n^2) average ranks: 1 + #less + (#equal - 1)/2."""
    return [
        1.0 + sum(1 for b in x if b < a) + (sum(1 for b in x if b == a) - 1) / 2.0
        for a in x
    ]


def t_two_sided_p_oracle(t_val, df):
    """Two-sided t-test p-value by quadrature of the explicit t density."""
    c = math.gamma((df + 1) / 2) / (math.sqrt(df * math.pi) * math.gamma(df / 2))
    pdf = lambda u: c * (1.0 + u * u / df) ** (-(df + 1) / 2)
    tail, _ = quad(pdf, abs(t_val), np.inf)
    return 2.0 * tail


def normal_equations_oracle(x, y):
    """Solve the 2x2 least-squares normal equations explicitly."""
    n = len(x)
    sx = math.fsum(x)
    sxx = math.fsum(a * a for a in x)
    sy = math.fsum(y)
    sxy = math.fsum(a * b for a, b in zip(x, y))
    det = n * sxx - sx * sx
    slope = (n * sxy - sx * sy) / det
    intercept = (sxx * sy - sx * sxy) / det
    return slope, intercept


# --- pearson ----------------------------------------------------------------

def test_pearson_perfect_line():
    x = np.arange(1, 11, dtype=float)
    res = pearson(x, 2 * x + 1)
    assert res.r == 1.0
    assert res.p_value == 0.0
    res = pearson(x, -x)
    assert res.r == -1.0
    assert res.p_value == 0.0


def test_pearson_pinned_case():
    # hand oracle: dx=(-2,-1,0,1,2), dy=(-1,-2,1,0,2), sum dx*dy=8,
    # sum dx^2 = sum dy^2 = 10, so r = 8/10
    res = pearson([1, 2, 3, 4, 5], [2, 1, 4, 3, 5])
    assert res.r == pytest.approx(0.8, abs=1e-15)
    t_val = 0.8 * math.sqrt(3 / (1 - 0.64))
    assert res.p_value == pytest.approx(t_two_sided_p_oracle(t_val, 3), abs=1e-10)


def test_pearson_matches_direct_formula_oracle():
    rng = np.random.default_rng(2)
    for _ in range(100):
        n = rng.integers(3, 21)
        x = rng.normal(size=n)
        y = rng.normal(size=n)
        assert pearson(x, y).r == pytest.approx(pearson_oracle(x, y), abs=1e-12)


def test_pearson_p_matches_density_quadrature():
    rng = np.random.default_rng(8)
    for _ in range(20):
        n = int(rng.integers(5, 30))
        x = rng.normal(size=n)
        y = rng.normal(size=n) + 0.5 * x
        res = pearson(x, y)
        t_val = res.r * math.sqrt((n - 2) / (1 - res.r**2))
        assert res.p_value == pytest.approx(t_two_sided_p_oracle(t_val, n - 2), abs=1e-10)


def test_pearson_affine_images_are_exactly_pm1():
    rng = np.random.default_rng(4)
    for _ in range(50):
        x = rng.normal(size=10)
        a = rng.uniform(0.1, 5)
        b = rng.uniform(-5, 5)
        assert abs(pearson(x, a * x + b).r - 1.0) <= 1e-12
        assert abs(pearson(x, -a * x + b).r + 1.0) <= 1e-12


def test_pearson_errors():
    with pytest.raises(UndefinedCorrelationError):
        pearson([1, 1, 1], [1, 2, 3])
    with pytest.raises(ValueError):
        pearson([1, 2], [1, 2])
    with pytest.raises(ValueError):
        pearson([1, 2, 3], [1, 2])
    with pytest.raises(ValueError, match="^x must be one-dimensional$"):
        pearson([[1, 2], [3, 4], [5, 6]], [1, 2, 3])
    with pytest.raises(ValueError, match="^y must be finite$"):
        pearson([1, 2, 3], [1, math.inf, 3])
    with pytest.raises(ValueError, match="^x and y lengths differ: 4 vs 3$"):
        pearson([1, 2, 3, 4], [1, 2, 3])


# --- spearman ---------------------------------------------------------------

def test_average_ranks_match_brute_force():
    rng = np.random.default_rng(6)
    for _ in range(100):
        n = rng.integers(3, 21)
        x = rng.integers(0, 6, size=n).astype(float)  # plenty of ties
        assert average_ranks(x).tobytes() == np.array(brute_force_ranks(x)).tobytes()


def test_spearman_monotone_pairs():
    assert spearman([1, 2, 3, 4], [10, 20, 25, 90]).r == pytest.approx(1.0, abs=1e-15)
    assert spearman([1, 2, 3, 4], [90, 25, 20, 10]).r == pytest.approx(-1.0, abs=1e-15)


def test_spearman_pinned_tie_case():
    # ranks of y=(9,9,1) are (2.5, 2.5, 1); Pearson of ranks gives
    # -1.5/sqrt(2*1.5) = -sqrt(3)/2
    res = spearman([1, 2, 3], [9, 9, 1])
    assert res.r == pytest.approx(-math.sqrt(3) / 2, abs=1e-12)


def test_spearman_matches_rank_oracle():
    rng = np.random.default_rng(9)
    for _ in range(100):
        n = rng.integers(3, 21)
        x = rng.integers(0, 8, size=n).astype(float)
        y = rng.normal(size=n)
        if np.ptp(x) == 0:
            continue
        expected = pearson_oracle(brute_force_ranks(x), brute_force_ranks(y))
        assert spearman(x, y).r == pytest.approx(expected, abs=1e-12)


def test_reversing_y_negates_spearman():
    rng = np.random.default_rng(10)
    x = rng.normal(size=15)
    y = rng.normal(size=15)
    assert spearman(x, -y).r == pytest.approx(-spearman(x, y).r, abs=1e-12)


@given(
    st.lists(st.integers(min_value=-100, max_value=100),
             min_size=4, max_size=20, unique=True),
    st.sampled_from(["exp", "cube", "shift"]),
)
def test_spearman_invariant_under_monotone_transforms(x, transform):
    # integer inputs keep the transforms strictly monotone in floating point
    rng = np.random.default_rng(len(x))
    y = rng.normal(size=len(x))
    fns = {"exp": lambda v: math.exp(v / 50), "cube": lambda v: v**3, "shift": lambda v: 3 * v + 7}
    fx = [fns[transform](float(v)) for v in x]
    assert spearman(fx, y).r == pytest.approx(spearman([float(v) for v in x], y).r, abs=1e-12)


def test_pearson_equals_spearman_on_tie_free_ranks():
    rng = np.random.default_rng(12)
    for _ in range(20):
        n = int(rng.integers(4, 15))
        x = rng.permutation(np.arange(1.0, n + 1))
        y = rng.permutation(np.arange(1.0, n + 1))
        assert spearman(x, y).r == pearson(x, y).r


def test_spearman_all_equal_error():
    with pytest.raises(UndefinedCorrelationError):
        spearman([2, 2, 2], [1, 2, 3])


# --- normality --------------------------------------------------------------

def test_ks_statistic_affine_invariance():
    rng = np.random.default_rng(14)
    x = rng.normal(size=60)
    d0 = ks_statistic_normal(x)
    for a, b in ((2.0, 3.0), (0.01, -77.0), (-4.0, 5.0)):
        assert ks_statistic_normal(a * x + b) == pytest.approx(d0, abs=1e-12)


def test_ks_statistic_brute_force_cross_check():
    # sup |ECDF - fitted normal CDF| by direct evaluation at the jumps
    rng = np.random.default_rng(15)
    x = rng.normal(size=25)
    z = np.sort((x - x.mean()) / x.std(ddof=1))
    cdf = [0.5 * (1 + math.erf(v / math.sqrt(2))) for v in z]
    n = len(z)
    sup = max(
        max(abs((i + 1) / n - cdf[i]), abs(i / n - cdf[i]))
        for i in range(n)
    )
    assert ks_statistic_normal(x) == pytest.approx(sup, abs=1e-12)


def test_ks_p_is_self_consistent_across_mc_seeds():
    # one large normal sample: the Monte-Carlo p must not flap with the
    # replicate seed, so every seed keeps it far above 0.05
    x = np.random.default_rng(16).standard_normal(1000)
    ps = [ks_normality(x, replicates=1000, seed=seed).p_value for seed in range(50)]
    assert min(ps) > 0.05
    assert max(ps) - min(ps) < 0.1


def test_ks_two_point_distribution_rejected():
    rng = np.random.default_rng(18)
    x = rng.choice([0.0, 1.0], size=100)
    assert ks_normality(x, replicates=2000, seed=5).p_value < 0.01


def test_ks_p_display_capped():
    res = ks_normality(np.random.default_rng(16).standard_normal(1000),
                       replicates=2000, seed=1)
    assert res.p_value > 0.2
    assert res.capped
    assert res.p_display == 0.2
    doc = res.to_dict()
    assert doc["p_display"] == 0.2 and doc["capped"] is True and doc["p_value"] > 0.2


def test_ks_errors():
    with pytest.raises(DegenerateSampleError):
        ks_statistic_normal([3, 3, 3, 3])
    with pytest.raises(ValueError):
        ks_statistic_normal([1, 2, 3])


def test_lilliefors_pvalue_add_one_convention():
    null = np.array([0.1, 0.2, 0.3, 0.4])
    assert reference_pvalue(0.35, null) == pytest.approx(2 / 5)
    assert reference_pvalue(0.05, null) == pytest.approx(5 / 5)
    assert reference_pvalue(0.45, null) == pytest.approx(1 / 5)
    # ks_normality's p is (1 + k) / (B + 1) for a count k in [0, B].
    x = np.random.default_rng(7).standard_normal(30)
    for replicates in (1, 4, 999):
        p = ks_normality(x, replicates, seed=2).p_value
        k = round(p * (replicates + 1)) - 1
        assert 0 <= k <= replicates and p == (1 + k) / (replicates + 1)


def test_lilliefors_null_is_seeded():
    a = reference_lilliefors_null(20, replicates=500, seed=3)
    b = reference_lilliefors_null(20, replicates=500, seed=3)
    c = reference_lilliefors_null(20, replicates=500, seed=4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    x = np.random.default_rng(5).standard_normal(20)
    p = [ks_normality(x, replicates=500, seed=seed).p_value for seed in (3, 3, 4)]
    assert p[0] == p[1] != p[2]


def normality_of_statistics(ds, n, replicates, seed):
    """_normality's results with the sample statistics replaced by ds: its
    first kernel call, on the samples, returns ds; the null's calls run."""
    kernel = stats._ks_rows
    calls = []

    def samples_then_null(z, scratch):
        calls.append(z.shape)
        return np.array(ds, dtype=float) if len(calls) == 1 else kernel(z, scratch)

    with mock.patch.object(stats, "_ks_rows", samples_then_null):
        results = stats._normality(np.zeros((len(ds), n)), replicates, seed)
    assert calls[0] == (len(ds), n)
    return results


def assert_counted(results, ds, null):
    # Each p is (1 + the reference count) / (B + 1), bit for bit.
    assert [r.d for r in results] == [float(d) for d in ds]
    assert [r.p_value for r in results] == [
        (1 + reference_exceedances(d, null)) / (len(null) + 1) for d in ds]


@settings(max_examples=60, deadline=None)
@given(n=st.integers(4, 200),
       replicates=st.integers(1, 3000) | st.sampled_from([511, 512, 513, 1024, 1537]),
       seed=st.integers(0, 2**64 - 1),
       power=st.sampled_from([1, 2, 3]))
def test_blocked_lilliefors_null_equals_reference(n, replicates, seed, power):
    # The blocked, counted null gives the p of the unblocked sorted one, bit
    # for bit, and so do several samples tested on one draw; squares and
    # cubes of a normal sample give small p as well as large.
    null = reference_lilliefors_null(n, replicates, seed)
    x = np.random.default_rng(seed ^ 1).standard_normal(n)
    samples = np.stack([x ** k for k in (1, 2, 3)])
    ds = [ks_statistic_normal(row) for row in samples]
    assert_counted(stats._normality(samples, replicates, seed), ds, null)
    tie = null[len(null) // 2]
    ties = [tie, np.nextafter(tie, -np.inf), np.nextafter(tie, np.inf)]
    assert_counted(normality_of_statistics(ties, n, replicates, seed), ties, null)
    assert ks_normality(x ** power, replicates, seed).p_value == reference_pvalue(ds[power - 1], null)


@settings(max_examples=30, deadline=None)
@given(n=st.integers(4, 200), replicates=st.integers(1, 40), seed=st.integers(0, 2**64 - 1))
def test_null_exceedances_count_ties_and_their_neighbours(n, replicates, seed):
    # The null's own draws, tested as samples, tie its statistics exactly;
    # the statistics' float neighbours are counted on either side.
    null = reference_lilliefors_null(n, replicates, seed)
    draws = np.random.default_rng(seed).standard_normal((replicates, n))
    assert_counted(stats._normality(draws, replicates, seed),
                   reference_ks_rows(draws.copy()), null)
    ds = np.concatenate([null, np.nextafter(null, -np.inf), np.nextafter(null, np.inf)])
    assert_counted(normality_of_statistics(ds, n, replicates, seed), ds, null)


@settings(max_examples=100, deadline=None)
@given(x=st.lists(st.floats(-1e6, 1e6), min_size=4, max_size=300).filter(
    lambda v: np.std(v, ddof=1) > 0.0))
def test_ks_statistic_equals_reference_and_keeps_its_input(x):
    x = np.array(x)
    before = x.tobytes()
    d = ks_statistic_normal(x)
    assert x.tobytes() == before
    assert d == float(reference_ks_rows(x[None, :].copy())[0])


@settings(max_examples=100, deadline=None)
@given(k=st.integers(1, 6), n=st.integers(4, 300), seed=st.integers(0, 2**32 - 1),
       levels=st.sampled_from([None, 2, 3, 10]))
def test_stacked_ks_rows_equal_one_row_calls(k, n, seed, levels):
    # One (k, n) kernel call gives each row's statistic bit for bit as a
    # one-row call does; rounded to a few levels, the rows have ties.
    z = np.random.default_rng(seed).standard_normal((k, n))
    if levels is not None:
        z = np.round(z * levels)
    assume(np.all(z.max(axis=1) > z.min(axis=1)))
    stacked = stats._ks_rows(z.copy(), np.empty(z.size))
    rows = [stats._ks_rows(row[None, :].copy(), np.empty(n)) for row in z]
    assert stacked.tobytes() == np.concatenate(rows).tobytes()


# The K-S kernel screens the ranks with a logistic CDF and evaluates the
# exact one only where it can decide D.  Extreme rows: heavy tails, one huge
# outlier (the other ranks nearly tie), two levels, and scales far from 1.
EXTREME_ROWS = {
    "normal": lambda rng, shape: rng.standard_normal(shape),
    "cauchy": lambda rng, shape: rng.standard_cauchy(shape),
    "outlier": lambda rng, shape: np.concatenate(
        [rng.standard_normal((shape[0], shape[1] - 1)), np.full((shape[0], 1), 1e12)], axis=1),
    "two levels": lambda rng, shape: rng.integers(0, 2, shape).astype(float),
    "tiny": lambda rng, shape: rng.standard_normal(shape) * 1e-150,
    "huge": lambda rng, shape: rng.standard_normal(shape) * 1e150 + 1e151,
}


@settings(max_examples=100, deadline=None)
@given(n=st.integers(4, 300), fill=st.floats(0.0, 1.0), seed=st.integers(0, 2**32 - 1),
       kind=st.sampled_from(sorted(EXTREME_ROWS)), levels=st.sampled_from([None, 2, 3, 10]))
def test_ks_rows_screen_equals_every_rank_exact(n, fill, seed, kind, levels):
    # Up to one null block of rows; rounded to a few levels, rows have ties.
    from scipy.special import ndtr

    rows = 1 + round(fill * (stats.KS_BLOCK_VALUES // n - 1))
    z = EXTREME_ROWS[kind](np.random.default_rng(seed), (rows, n))
    if levels is not None:
        z = np.round(z * levels)
    z = z[z.max(axis=1) > z.min(axis=1)]
    assume(len(z) > 0)
    d = stats._ks_rows(z.copy(), np.empty(z.size))
    assert d.tobytes() == reference_ks_rows(z.copy()).tobytes()
    assert np.abs(d - reference_ks_rows(z.copy(), ndtr)).max() <= 2.0 ** -45


def test_ndtr_matches_scipy_within_two_to_the_minus_52():
    # 2^-52 is two ulps of values in [1/2, 1); scipy's ndtr changes formula at |z| = 1.
    from scipy.special import ndtr

    edges = np.array([-1.0, 1.0])
    z = np.concatenate([np.linspace(-40.0, 40.0, 400_001),
                        np.random.default_rng(3).uniform(-40.0, 40.0, 100_000),
                        edges, np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf)])
    assert np.abs(stats._ndtr(z) - ndtr(z)).max() <= 2.0 ** -52


def log_uniform(low, high):
    return st.floats(math.log(low), math.log(high)).map(math.exp)


@settings(max_examples=300, deadline=None)
@given(dof=st.integers(1, 10_000) | st.sampled_from([1, 2, 29, 30, 31, 10_000]),
       t=log_uniform(1e-3, 1e3) | st.sampled_from([1e-3, 1.0, 2.0, 1e3]))
def test_t_two_sided_p_matches_scipy(dof, t):
    # Below |t| = 1e-3 scipy's stdtr at one degree of freedom is itself off by
    # up to 3e-12 (against 40-digit arithmetic); the quadrature oracle covers it.
    from scipy.special import stdtr

    expected = 2.0 * stdtr(dof, -t)
    assert stats._t_two_sided_p(t, dof) == pytest.approx(expected, rel=1e-12, abs=1e-300)
    assert stats._t_two_sided_p(-t, dof) == stats._t_two_sided_p(t, dof)


@pytest.mark.parametrize("dof", [30, 1_000, 3_001, 10_000])
def test_t_two_sided_p_keeps_large_dof_tails_exact(dof):
    # For |t| < 2 scipy sums a finite series, exact to a few ulps.  There the
    # continued fraction in x alone, near x = 1, is off by up to 1e-12 at
    # large dof; the asymptotic expansion keeps to 1e-13.
    from scipy.special import stdtr

    t = np.linspace(1.0, 2.0, 201)[:-1]
    p = np.array([stats._t_two_sided_p(v, dof) for v in t])
    assert np.abs(p / (2.0 * stdtr(dof, -t)) - 1.0).max() <= 1e-13


def test_t_two_sided_p_ends():
    for dof in (1, 2, 48, 10_000):
        assert stats._t_two_sided_p(math.inf, dof) == 0.0
        assert stats._t_two_sided_p(-math.inf, dof) == 0.0
        assert stats._t_two_sided_p(0.0, dof) == 1.0


@settings(max_examples=300, deadline=None)
@given(dof=st.integers(1, 10_000) | st.sampled_from([1, 2, 3, 4, 5, 48, 10_000]),
       t=log_uniform(0.5, 1e3), sign=st.sampled_from([-1.0, 1.0]))
def test_t_quantile_matches_scipy(dof, t, sign):
    # scipy's stdtrit loses relative accuracy as t nears 0 (1e-10 at
    # t = 1e-3 against 40-digit arithmetic), so the comparison starts at 0.5.
    from scipy.special import stdtr, stdtrit

    p = float(stdtr(dof, sign * t))
    assume(1e-300 < p < 1.0)
    assert stats._t_quantile(p, dof) == pytest.approx(stdtrit(dof, p), rel=1e-12)


@settings(max_examples=100, deadline=None)
@given(dof=st.integers(1, 10_000), t=log_uniform(1e-9, 0.5))
def test_t_quantile_inverts_the_tail_near_zero(dof, t):
    p = 1.0 - 0.5 * stats._t_two_sided_p(t, dof)
    assert stats._t_quantile(p, dof) == pytest.approx(t, rel=1e-9, abs=1e-14)
    assert stats._t_quantile(1.0 - p, dof) == -stats._t_quantile(p, dof)
    assert stats._t_quantile(0.5, dof) == 0.0


@pytest.mark.parametrize("replicates, message", [
    (0, "^need at least 1 replicate, got 0$"),
    (-3, "^need at least 1 replicate, got -3$"),
    (MAX_KS_REPLICATES + 1, f"exceed the limit of {MAX_KS_REPLICATES}$"),
])
def test_null_is_refused_before_any_draw(monkeypatch, replicates, message):
    def never(*args, **kwargs):
        raise AssertionError("reached past the replicate check")

    x = np.random.default_rng(4).standard_normal(10)
    study = synthesize_study(10, seed=1)
    monkeypatch.setattr(stats, "_ks_rows", never)
    monkeypatch.setattr(np.random, "default_rng", never)
    with pytest.raises(ValueError, match=message):
        ks_normality(x, replicates)
    with pytest.raises(ValueError, match=message):
        analyze_study(study, replicates=replicates)


def test_subnormal_sum_of_squares_is_zero_variance():
    # The squared deviations sum to one subnormal, which the division by
    # n - 1 rounds to 0: the scale, like x.std(ddof=1), is 0.
    x = np.array([0.0] * 9 + [2e-162])
    dev = x - x.mean()
    assert np.dot(dev, dev) > 0.0 and x.std(ddof=1) == 0.0
    message = "^normality test undefined for zero-variance sample$"
    with pytest.raises(DegenerateSampleError, match=message):
        ks_statistic_normal(x)
    with pytest.raises(DegenerateSampleError, match=message):
        ks_normality(x, 10)
    study = {**synthesize_study(10, seed=1), "accuracy": tuple(x.tolist())}
    with pytest.raises(DegenerateSampleError, match=message):
        analyze_study(study, replicates=10)


def test_null_refuses_fewer_than_four_values():
    with pytest.raises(ValueError, match="^need n >= 4, got 3$"):
        stats._check_null(3, 10)


def traced_null_peak(n, replicates):
    x = np.random.default_rng(n).standard_normal(n)
    ks_normality(x, 1)  # one untraced call first, so numpy's one-time set-up is not counted
    tracemalloc.start()
    try:
        ks_normality(x, replicates)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def traced_analyze_peak(replicates):
    study = synthesize_study(50)
    analyze_study(study, replicates=1)
    tracemalloc.start()
    try:
        analyze_study(study, replicates=replicates)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_lilliefors_null_memory_stays_below_a_megabyte():
    assert traced_null_peak(50, DEFAULT_KS_REPLICATES) < 1 << 20
    assert traced_analyze_peak(DEFAULT_KS_REPLICATES) < 1 << 20


def test_lilliefors_null_memory_does_not_grow_with_study_size():
    # Fixed 512-replicate blocks would take 8 KB per participant: 40 MB here.
    assert traced_null_peak(5_000, 1_000) < 1 << 20


def test_lilliefors_null_memory_does_not_grow_with_replicates():
    # A sorted null of 200,000 statistics alone would take 1.6 MB.
    assert traced_null_peak(50, 200_000) < 1 << 20
    # Keeping a study's 100,000 null statistics would add 800 KB.
    assert traced_analyze_peak(100_000) < traced_analyze_peak(10_000) + (1 << 16)


# --- regression --------------------------------------------------------------

def test_fit_matches_normal_equations_oracle():
    rng = np.random.default_rng(20)
    for _ in range(50):
        n = int(rng.integers(3, 40))
        x = rng.uniform(-10, 10, size=n)
        if np.ptp(x) == 0:
            continue
        y = rng.uniform(-10, 10, size=n)
        fit = linear_fit_with_band(x, y)
        slope, intercept = normal_equations_oracle(x, y)
        assert fit.slope == pytest.approx(slope, rel=1e-10, abs=1e-12)
        assert fit.intercept == pytest.approx(intercept, rel=1e-10, abs=1e-12)


def test_perfect_line_has_zero_width_band():
    x = np.arange(1.0, 11.0)
    fit = linear_fit_with_band(x, 3 * x - 2)
    assert fit.slope == pytest.approx(3.0, abs=1e-12)
    assert fit.intercept == pytest.approx(-2.0, abs=1e-12)
    lower, upper = fit.band(x)
    assert np.all(upper - lower < 1e-9)
    assert np.all(lower <= fit.predict(x) + 1e-12)
    assert np.all(fit.predict(x) <= upper + 1e-12)


def test_band_is_narrowest_at_x_mean():
    rng = np.random.default_rng(21)
    x = rng.uniform(0, 10, size=30)
    y = 2 * x + rng.normal(size=30)
    fit = linear_fit_with_band(x, y)
    grid = np.linspace(0, 10, 101)
    lower, upper = fit.band(grid)
    width = upper - lower
    nearest_to_mean = np.argmin(np.abs(grid - fit.x_mean))
    assert np.argmin(width) == nearest_to_mean


def test_band_coverage_at_x_mean_is_calibrated():
    # y = 3x + N(0,1): the 95% mean-response interval at xbar should cover
    # the true mean there ~95% of the time
    rng = np.random.default_rng(22)
    n, trials = 50, 2000
    x = np.linspace(0, 1, n)
    dx = x - x.mean()
    true_at_mean = 3 * x.mean()
    covered = 0
    from scipy.special import stdtrit

    t_crit = stdtrit(n - 2, 0.975)
    for _ in range(trials):
        y = 3 * x + rng.standard_normal(n)
        slope = float(dx @ (y - y.mean()) / (dx @ dx))
        intercept = float(y.mean() - slope * x.mean())
        resid = y - intercept - slope * x
        s = math.sqrt(float(resid @ resid) / (n - 2))
        half = t_crit * s / math.sqrt(n)
        center = intercept + slope * x.mean()
        covered += abs(center - true_at_mean) <= half
    assert 0.935 <= covered / trials <= 0.965


def test_overflowing_sample_is_refused():
    # Finite values whose squared deviations overflow: r, the fit and D
    # would be NaN.  The error names the sample and no warning escapes.
    huge = [1e200 * (1.0 + i / 8) for i in range(12)]
    plain = [float(i) for i in range(12)]
    for call, name in [
        (lambda: pearson(huge, plain), "x"),
        (lambda: pearson(plain, huge), "y"),
        (lambda: linear_fit_with_band(huge, plain), "x"),
        (lambda: linear_fit_with_band(plain, huge), "y"),
        (lambda: ks_normality(huge, replicates=100), "sample"),
    ]:
        with pytest.raises(ValueError, match=f"^{name} is too large: .* overflows"):
            call()


def study_columns(rows):
    """load_study's columns of the given (participant, enjoyment, engagement,
    time_s, collisions, accuracy) rows."""
    return dict(zip(stats.STUDY_HEADER, zip(*rows)))


def test_analyze_overflowing_column_names_it():
    study = study_columns(
        (f"P{i}", 15 + (i % 5), 12 + i, (10 + i) * 1e199, i % 3, 0.5 + 0.01 * i)
        for i in range(12)
    )
    with pytest.raises(ValueError, match="^column 'time_s' is too large"):
        analyze_study(study, replicates=100)


def test_fit_errors():
    with pytest.raises(UndefinedFitError):
        linear_fit_with_band([2, 2, 2], [1, 2, 3])
    with pytest.raises(ValueError):
        linear_fit_with_band([1, 2, 3], [1, 2, 3], confidence=1.5)


# --- study table and pipeline ------------------------------------------------

STUDY_CSV_HEADER = "participant,enjoyment,engagement,time_s,collisions,accuracy\n"


def test_study_record_validation():
    # Each row is checked in column order; the message names the column.
    for row, message in [
        ("p,4,20,100.0,0,0.5", "enjoyment must be an integer in [5, 25], got 4"),  # below scale sum
        ("p,20,26,100.0,0,0.5", "engagement must be an integer in [5, 25], got 26"),
        ("p,20,20,100.0,-1,0.5", "collisions must be a nonnegative integer, got -1"),
        ("p,20,20,100.0,0,1.5", "accuracy must be in [0, 1], got 1.5"),
        ("p,20,20,-1,0,0.5", "time_s must be >= 0, got -1.0"),
        ("p,20,20,nan,0,0.5", "time_s must be >= 0, got nan"),
        ("p,20,20,100.0,0,nan", "accuracy must be in [0, 1], got nan"),
        ("p,4,26,-1,-1,1.5", "enjoyment must be an integer in [5, 25], got 4"),
        ("p,20.5,20,100.0,0,0.5", "invalid literal for int() with base 10: '20.5'"),
        ("p,4,20,fast,0,0.5", "could not convert string to float: 'fast'"),
        ("p,20,20,100.0,0", "expected 6 columns, got 5"),
    ]:
        with pytest.raises(ValueError) as exc:
            load_study(f"{STUDY_CSV_HEADER}P0,20,18,200,2,0.8\n{row}\n")
        assert str(exc.value) == f"row 2: {message}"


@pytest.mark.parametrize("text, message", [
    ("", "study file is empty"),
    ("participant,enjoyment\n", "expected header 'participant,enjoyment,engagement,time_s,"
                                 "collisions,accuracy', got participant,enjoyment"),
])
def test_study_file_validation(text, message):
    with pytest.raises(ValueError) as exc:
        load_study(text)
    assert str(exc.value) == message


def test_study_round_trip():
    study = synthesize_study(12, seed=5)
    loaded = load_study(serialize_study(study))
    assert loaded == study
    assert [type(v) for v in next(zip(*loaded.values()))] == [str, int, int, float, int, float]


def test_load_study_row_diagnostics():
    text = (
        "participant,enjoyment,engagement,time_s,collisions,accuracy\n"
        "P1,20,18,200,2,0.8\n"
        "P2,20,18,200,2,oops\n"
    )
    with pytest.raises(ValueError) as exc:
        load_study(text)
    assert "row 2" in str(exc.value)


def test_analyze_insufficient_sample():
    with pytest.raises(ValueError) as exc:
        analyze_study({k: v[:2] for k, v in synthesize_study(12, seed=5).items()})
    assert "insufficient sample" in str(exc.value)


def test_analyze_constant_column_names_it():
    study = study_columns(
        (f"P{i}", 15 + (i % 5), 18, 100.0 + i, i % 3, 0.5 + 0.01 * i) for i in range(10)
    )
    with pytest.raises(UndefinedCorrelationError) as exc:
        analyze_study(study)
    assert "engagement" in str(exc.value)


def test_analyze_unequal_column_names_it_before_any_draw(monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("drew a null")

    study = synthesize_study(50, seed=1)
    study["time_s"] = study["time_s"][:49]
    monkeypatch.setattr(np.random, "default_rng", never)
    with pytest.raises(ValueError, match="^column 'time_s' has 49 values, expected 50$"):
        analyze_study(study, replicates=100)


def test_analyze_gating_uses_spearman_for_non_normal_collisions():
    report = analyze_study(synthesize_study(50, seed=26), seed=0, replicates=2000)
    assert report.normality["collisions"].p_value <= 0.05
    assert report.correlations["engagement_vs_collisions"].method == "spearman"
    for pair in ("engagement_vs_enjoyment", "engagement_vs_time_s", "engagement_vs_accuracy"):
        assert report.correlations[pair].method == "pearson"


def test_analyze_report_dict_shape():
    report = analyze_study(synthesize_study(30, seed=3), replicates=500)
    doc = report.to_dict()
    assert set(doc["normality"]) == {"enjoyment", "engagement", "time_s", "collisions", "accuracy"}
    assert set(doc["correlations"]) == {
        "engagement_vs_enjoyment", "engagement_vs_time_s",
        "engagement_vs_collisions", "engagement_vs_accuracy",
    }
    for res in doc["correlations"].values():
        assert -1.0 <= res["r"] <= 1.0
        assert 0.0 <= res["p_value"] <= 1.0


def serial_reference_report(study, seed, replicates):
    """analyze_study's report from one ks_normality per variable and a plain gating loop."""
    columns = {name: np.array(study[name], dtype=float) for name in stats.STUDY_VARIABLES}
    normality = {name: ks_normality(columns[name], replicates, seed)
                 for name in stats.STUDY_VARIABLES}
    correlations = {}
    for a, b in stats.CORRELATION_PAIRS:
        normal = normality[a].p_value > 0.05 and normality[b].p_value > 0.05
        correlations[f"{a}_vs_{b}"] = (pearson if normal else spearman)(columns[a], columns[b])
    return stats.StatsReport(len(columns["engagement"]), 0.05, normality, correlations)


@pytest.mark.parametrize("n, replicates, seed", [
    *((n, replicates, seed) for n in (4, 50) for replicates in (1, 200, 10_000) for seed in (0, 1, 7)),
    (stats.KS_BLOCK_VALUES + 1, 3, 1),
])
def test_analyze_study_equals_serial_reference(n, replicates, seed):
    # The five variables share one null, and each gets ks_normality's result
    # on its own column at the same seed, every float's repr alike.
    study = synthesize_study(n)
    report = analyze_study(study, seed=seed, replicates=replicates)
    assert repr(report.to_dict()) == repr(serial_reference_report(study, seed, replicates).to_dict())


@pytest.mark.parametrize("n, replicates", [(50, 1), (50, 1_000), (stats.KS_BLOCK_VALUES + 1, 2)])
def test_analyze_study_draws_one_null(monkeypatch, n, replicates):
    # One null per variable would build five generators, or draw five times
    # as many normals from one, and give the same p-values.
    study = synthesize_study(n)
    default_rng = np.random.default_rng
    built = []

    class CountingGenerator:
        def __init__(self, seed):
            self.rng, self.normals = default_rng(seed), 0
            built.append(self)

        def standard_normal(self, *args, **kwargs):
            values = self.rng.standard_normal(*args, **kwargs)
            self.normals += values.size
            return values

    monkeypatch.setattr(np.random, "default_rng", CountingGenerator)
    analyze_study(study, seed=3, replicates=replicates)
    assert [g.normals for g in built] == [replicates * n]


def test_synthesize_study_is_deterministic():
    assert synthesize_study(20, seed=1) == synthesize_study(20, seed=1)
    assert synthesize_study(20, seed=1) != synthesize_study(20, seed=2)


def test_bundled_dataset_matches_generator_defaults():
    bundled = (DATA_DIR / "synthetic_study.csv").read_text()
    assert bundled == serialize_study(synthesize_study())
