"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -s`` to see them).
"""

import time

import numpy as np
from scipy.special import ndtr

from searoam.camera import smoothness
from searoam.cli import main
from searoam.spline import PathCurve
from searoam.stats import (
    analyze_study,
    lilliefors_null,
    lilliefors_pvalue,
    linear_fit_with_band,
    load_study,
    pearson,
    spearman,
)

from conftest import DATA_DIR, DEMO_ROUTE, chordal_arc_length
from test_stats import brute_force_ranks, normal_equations_oracle, pearson_oracle

ROUTE_PTS = np.array(DEMO_ROUTE)


def report(num: int, name: str, ok: bool) -> None:
    print(f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion {num} failed: {name}"


def test_01_keypoint_interpolation():
    start = time.perf_counter()
    curve = PathCurve.catmull_rom(ROUTE_PTS)
    knots = np.linspace(0.0, 1.0, 6)
    err = np.abs(curve.positions(knots) - ROUTE_PTS).max()
    elapsed = time.perf_counter() - start
    report(1, "catmull-rom interpolates all six route keypoints",
           err < 1e-9 and elapsed < 1.0)


def test_02_bezier_non_interpolation():
    curve = PathCurve.bezier(ROUTE_PTS)
    sampled = curve.positions(np.linspace(0.0, 1.0, 100_000))
    min_dists = [
        float(np.linalg.norm(sampled - ROUTE_PTS[k], axis=1).min())
        for k in range(1, 5)
    ]
    report(2, "degree-5 bezier misses every interior keypoint by > 1e-3",
           min(min_dists) > 1e-3)


def test_03_view_continuity_vs_polyline_corners():
    cat = smoothness(PathCurve.catmull_rom(ROUTE_PTS), "tangent", 64)
    poly = smoothness(PathCurve.polyline(ROUTE_PTS), "next_node", 64)
    report(3, "tangent view is C1 while next-node polyline view jumps",
           cat.max_angular_jump < 1e-9 and poly.max_angular_jump > 0.1)


def test_04_segment_boundary_conditions():
    # The middle segment of a four-point catmull-rom curve runs from P1 to
    # P2 over s = (1 + u) / 3, so its end tangents are dP/ds = 3 m0, 3 m1.
    rng = np.random.default_rng(1001)
    ends = np.array([1.0, 2.0]) / 3.0
    worst = 0.0
    for _ in range(1000):
        pts = rng.uniform(-10.0, 10.0, size=(4, 3))
        tension = rng.uniform(0.0, 1.0)
        curve = PathCurve.catmull_rom(pts, tension)
        m0 = tension * (pts[2] - pts[0])
        m1 = tension * (pts[3] - pts[1])
        (start, end), (d_start, d_end) = curve.positions(ends), curve.tangents(ends)
        for actual, expected in (
            (start, pts[1]),
            (end, pts[2]),
            (d_start, 3.0 * m0),
            (d_end, 3.0 * m1),
        ):
            rel = np.linalg.norm(actual - expected) / max(1.0, np.linalg.norm(expected))
            worst = max(worst, rel)
    report(4, "segment end positions and tangents match the boundary conditions",
           worst <= 1e-12)


def test_05_zero_tension_chord_degeneration():
    rng = np.random.default_rng(1002)
    ss = (1.0 + np.linspace(0.0, 1.0, 21)) / 3.0  # the middle segment of four points
    worst = 0.0
    for _ in range(1000):
        pts = rng.uniform(-10.0, 10.0, size=(4, 3))
        curve = PathCurve.catmull_rom(pts, 0.0)
        chord = pts[2] - pts[1]
        rel = curve.positions(ss) - pts[1]
        cross = np.linalg.norm(np.cross(rel, chord), axis=1) / np.linalg.norm(chord)
        worst = max(worst, float(cross.max()))
    report(5, "zero-tension segments collapse onto their chords", worst <= 1e-12)


def test_06_arc_length_vs_chordal_oracle():
    ok = True
    for kind in ("polyline", "bezier", "catmull_rom"):
        curve = PathCurve(kind, ROUTE_PTS, 0.5)
        oracle = chordal_arc_length(curve, n=10**6)
        rel = abs(curve.arc_length() - oracle) / oracle
        ok = ok and rel < 1e-6
    report(6, "adaptive quadrature matches the 1e6-point chordal sum", ok)


def test_07_statistics_oracles():
    rng = np.random.default_rng(1003)
    ok = True
    for _ in range(100):
        n = int(rng.integers(3, 21))
        x = rng.normal(size=n)
        y = rng.normal(size=n)
        ok = ok and abs(pearson(x, y).r - pearson_oracle(x, y)) <= 1e-12
        xt = rng.integers(0, 6, size=n).astype(float)
        if np.ptp(xt) > 0:
            expected = pearson_oracle(brute_force_ranks(xt), brute_force_ranks(y))
            ok = ok and abs(spearman(xt, y).r - expected) <= 1e-12
    for _ in range(100):
        n = int(rng.integers(3, 40))
        x = rng.uniform(-5.0, 5.0, size=n)
        if np.ptp(x) == 0:
            continue
        y = rng.uniform(-5.0, 5.0, size=n)
        fit = linear_fit_with_band(x, y)
        slope, intercept = normal_equations_oracle(x, y)
        ok = ok and abs(fit.slope - slope) <= 1e-10 * max(1.0, abs(slope))
        ok = ok and abs(fit.intercept - intercept) <= 1e-10 * max(1.0, abs(intercept))
    report(7, "correlation and regression match their independent oracles", ok)


def test_08_ks_calibration():
    # The Monte-Carlo null of the statistic does not depend on the observed
    # sample, so one seeded null set (exactly what ks_normality computes per
    # call) is shared by all 10,000 trials.
    n, trials = 50, 10_000
    null = lilliefors_null(n, replicates=10_000, seed=202)
    rng = np.random.default_rng(303)
    z = rng.standard_normal((trials, n))
    z = (z - z.mean(axis=1, keepdims=True)) / z.std(axis=1, ddof=1, keepdims=True)
    z.sort(axis=1)
    cdf = ndtr(z)
    hi = np.arange(1, n + 1) / n
    lo = np.arange(0, n) / n
    d = np.maximum((hi - cdf).max(axis=1), (cdf - lo).max(axis=1))
    rate = float(np.mean([lilliefors_pvalue(v, null) <= 0.05 for v in d]))
    report(8, f"normality test rejects normal samples at {rate:.4f} (target 0.05 +- 0.01)",
           0.04 <= rate <= 0.06)


def test_09_band_coverage():
    n, trials = 50, 10_000
    x = np.linspace(0.0, 1.0, n)
    true_at_mean = 3.0 * float(x.mean())
    rng = np.random.default_rng(404)
    covered = 0
    for _ in range(trials):
        y = 3.0 * x + rng.standard_normal(n)
        fit = linear_fit_with_band(x, y, confidence=0.95)
        lower, upper = fit.band(x.mean())
        covered += bool(lower <= true_at_mean <= upper)
    rate = covered / trials
    report(9, f"95% band covers the true mean line at x-bar in {rate:.4f} of trials",
           0.94 <= rate <= 0.96)


def test_10_determinism(tmp_path):
    route = str(DATA_DIR / "demo_route_speeds.csv")
    scene = str(DATA_DIR / "demo_scene.json")
    study = str(DATA_DIR / "synthetic_study.csv")
    runs = {}
    for tag in ("a", "b"):
        sim_out = tmp_path / f"sim_{tag}"
        fig_out = tmp_path / f"fig_{tag}"
        study_out = tmp_path / f"study_{tag}"
        assert main(["sim", "run", route, scene, "--dt", "0.005", "--seed", "9",
                     "--sigma", "0.25", "--out", str(sim_out)]) == 0
        assert main(["path", "compare", route, "--out", str(fig_out)]) == 0
        assert main(["study", "analyze", study, "--replicates", "2000",
                     "--out", str(study_out)]) == 0
        runs[tag] = {
            p.name: p.read_bytes()
            for folder in (sim_out, fig_out, study_out)
            for p in sorted(folder.iterdir())
        }
    report(10, "sim runs and all renders are byte-identical across invocations",
           runs["a"] == runs["b"])


def test_11_bundled_study_sign_pattern():
    # Individual human-subject results exist only as published findings and
    # cannot be recomputed here, so the shipped seeded dataset stands in:
    # its analysis must reproduce the expected correlation sign pattern.
    records = load_study((DATA_DIR / "synthetic_study.csv").read_text())
    rep = analyze_study(records, alpha=0.05, seed=0, replicates=10_000)
    corr = rep.correlations
    signs_ok = (
        corr["engagement_vs_enjoyment"].r > 0.5
        and corr["engagement_vs_time_s"].r < -0.5
        and corr["engagement_vs_collisions"].r < -0.5
        and corr["engagement_vs_accuracy"].r > 0.5
    )
    spearman_for_collisions = corr["engagement_vs_collisions"].method == "spearman"
    report(11, "bundled study reproduces the (+, -, -, +) pattern with |r| > 0.5",
           signs_ok and spearman_for_collisions)
