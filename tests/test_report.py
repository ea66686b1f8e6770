import xml.etree.ElementTree as ET

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from searoam import report
from searoam.geo import PathTooShortError
from searoam.report import (
    render_path_compare,
    render_scatter_band,
    smoothness_csv,
)
from searoam.camera import smoothness
from searoam.spline import KINDS, PathCurve
from searoam.stats import linear_fit_with_band, synthesize_study

from conftest import GOLDEN_DIR

SVG_NS = "{http://www.w3.org/2000/svg}"


def compare(keypoints, tension=0.5, samples=64):
    """render_path_compare over the three curve kinds, as path compare builds them."""
    return render_path_compare([PathCurve(kind, keypoints, tension) for kind in KINDS], samples)


def series_elements(svg_text):
    root = ET.fromstring(svg_text)
    return [el for el in root.iter() if el.get("class") == "series"]


def test_compare_golden_bytes(demo_pts):
    svg = compare(demo_pts)
    golden = (GOLDEN_DIR / "compare_demo_route.svg").read_text()
    assert svg == golden


def test_compare_is_well_formed_with_three_series(demo_pts):
    svg = compare(demo_pts)
    assert len(series_elements(svg)) == 3
    root = ET.fromstring(svg)
    assert root.tag == f"{SVG_NS}svg"


def test_compare_catmull_panel_passes_through_markers(demo_pts):
    svg = compare(demo_pts)
    root = ET.fromstring(svg)
    panel = next(g for g in root.iter(f"{SVG_NS}g") if g.get("id") == "panel-catmull_rom")
    polyline = next(el for el in panel.iter(f"{SVG_NS}polyline"))
    curve_xy = np.array([
        [float(v) for v in pair.split(",")]
        for pair in polyline.get("points").split()
    ])
    markers = np.array([
        [float(c.get("cx")), float(c.get("cy"))]
        for c in panel.iter(f"{SVG_NS}circle")
    ])
    assert len(markers) == 6
    for marker in markers:
        assert np.linalg.norm(curve_xy - marker, axis=1).min() < 1e-3


def test_compare_two_collinear_keypoints_gives_identical_straight_panels():
    svg = compare([(0, 0, 0), (10, 5, 0)], samples=16)
    root = ET.fromstring(svg)
    endpoints = []
    for el in root.iter(f"{SVG_NS}polyline"):
        if el.get("class") != "series":
            continue
        xy = np.array([
            [float(v) for v in pair.split(",")] for pair in el.get("points").split()
        ])
        # every sampled point lies on the chord between the endpoints
        chord = xy[-1] - xy[0]
        rel = xy - xy[0]
        cross = np.abs(rel[:, 0] * chord[1] - rel[:, 1] * chord[0]) / np.linalg.norm(chord)
        assert cross.max() < 0.01  # pixel units, after 6-digit formatting
        endpoints.append((xy[0] - [el_offset(xy), 0], xy[-1] - [el_offset(xy), 0]))
    # panels draw the same segment relative to their own frame
    first = endpoints[0]
    for start, end in endpoints[1:]:
        assert np.allclose(start, first[0], atol=0.01)
        assert np.allclose(end, first[1], atol=0.01)


def el_offset(xy):
    return xy[:, 0].min()


def test_compare_rejects_single_keypoint():
    with pytest.raises(PathTooShortError):
        compare([(0, 0, 0)])


def test_compare_rejects_low_sampling(demo_pts):
    with pytest.raises(ValueError):
        compare(demo_pts, samples=8)


def test_compare_deterministic(demo_pts):
    a = compare(demo_pts, tension=0.3, samples=32)
    b = compare(demo_pts, tension=0.3, samples=32)
    assert a == b


def scatter_inputs():
    study = synthesize_study()
    x = np.array(study["engagement"], dtype=float)
    y = np.array(study["enjoyment"], dtype=float)
    return x, y, linear_fit_with_band(x, y)


def test_scatter_golden_bytes():
    x, y, fit = scatter_inputs()
    svg = render_scatter_band(x, y, fit, x_label="engagement score", y_label="enjoyment score")
    golden = (GOLDEN_DIR / "scatter_engagement_vs_enjoyment.svg").read_text()
    assert svg == golden


def test_scatter_has_four_series_and_escapes_labels():
    x, y, fit = scatter_inputs()
    svg = render_scatter_band(x, y, fit, x_label="a & b", y_label="c < d")
    assert len(series_elements(svg)) == 4
    assert "a &amp; b" in svg
    assert "c &lt; d" in svg


def test_scatter_band_straddles_line_for_perfect_fit():
    x = np.arange(1.0, 9.0)
    y = 2 * x + 1
    fit = linear_fit_with_band(x, y)
    svg = render_scatter_band(x, y, fit)
    root = ET.fromstring(svg)
    by_id = {el.get("id"): el for el in root.iter(f"{SVG_NS}polyline")}
    line_pts = by_id["fit-line"].get("points")
    # perfect fit: band boundaries coincide with the line after formatting
    assert by_id["band-lower"].get("points") == line_pts
    assert by_id["band-upper"].get("points") == line_pts


def test_scatter_rejects_empty_series():
    x, y, fit = scatter_inputs()
    with pytest.raises(ValueError):
        render_scatter_band([], [], fit)


def test_scatter_rejects_mismatched_fit():
    x, y, fit = scatter_inputs()
    with pytest.raises(ValueError):
        render_scatter_band(x[:-1], y[:-1], fit)


def test_scatter_rejects_unequal_series():
    x, y, fit = scatter_inputs()
    with pytest.raises(ValueError, match="^x and y must be equal-length 1-D series$"):
        render_scatter_band(x, y[:-1], fit)


def test_smoothness_csv_layout(demo_pts):
    rep = smoothness(PathCurve.polyline(demo_pts), "next_node", 16)
    text = smoothness_csv([("polyline", "next_node", rep)])
    lines = text.splitlines()
    assert lines[0] == (
        "kind,view_model,max_angular_jump,mean_angular_speed,max_angular_speed,corner_angles"
    )
    fields = lines[1].split(",")
    assert fields[0] == "polyline"
    assert fields[1] == "next_node"
    assert float(fields[2]) > 0.1
    assert len(fields[5].split(";")) == 4


svg_number = st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from([
    0.0, -0.0, 5e-324, -5e-324, 2.0 ** -1022, 1e-300, -1e-300, 1e300, -1e300,
    float("inf"), float("-inf"), float("nan"), 123456.5, 0.0001234565,
])


@settings(max_examples=300, deadline=None)
@given(points=st.lists(st.tuples(svg_number, svg_number), max_size=40))
def test_points_attr_equals_per_number_format(points):
    xs = np.array([x for x, _ in points], dtype=float)
    ys = np.array([y for _, y in points], dtype=float)
    expected = " ".join(f"{format(float(x), '.6g')},{format(float(y), '.6g')}"
                        for x, y in zip(xs, ys))
    assert report._points_attr(xs, ys) == expected
