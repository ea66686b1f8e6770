import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from searoam.geo import (
    KeypointParseError,
    PathTooShortError,
    Projection,
    load_keypoints,
    project,
)

DEMO_CSV = """longitude,latitude,height
121.47,31.23,10000
123.00,20.00,50000
135.00,10.00,50000
170.00,13.00,50000
180.00,-5.00,50000
200.00,-13.50,50000
"""


def test_project_raw_is_identity():
    kp = (121.47, 31.23, 10000.0, 1.0)
    assert project(kp, Projection.raw()).tolist() == [121.47, 31.23, 10000.0]
    # bit for bit, signed zero and subnormals included
    kp = (-0.0, 5e-324, 1.7976931348623157e308, 1.0)
    assert [math.copysign(1.0, v) for v in project(kp)] == [-1.0, 1.0, 1.0]
    assert project(kp).tolist() == [-0.0, 5e-324, 1.7976931348623157e308]


def test_project_origin():
    assert project((0.0, 0.0, 0.0, 1.0)).tolist() == [0.0, 0.0, 0.0]


def test_project_scaled_componentwise():
    kp = (123.0, 20.0, 50000.0, 1.0)
    assert project(kp, Projection((1, 1, 0.001))).tolist() == [123.0, 20.0, 50.0]


def test_project_array_equals_rows():
    kps = load_keypoints(DEMO_CSV)
    proj = Projection((2.0, 0.5, 0.001))
    points = project(kps, proj)
    assert points.shape == (6, 3)
    assert points.tobytes() == np.array([project(kp, proj) for kp in kps]).tobytes()


def test_projection_rejects_nonpositive_scale():
    with pytest.raises(ValueError):
        Projection((1.0, 0.0, 1.0))
    with pytest.raises(ValueError):
        Projection((1.0, -2.0, 1.0))


def test_projection_needs_three_factors():
    with pytest.raises(ValueError, match="^scale must have exactly three factors$"):
        Projection((1.0, 2.0))


def test_keypoint_invariants():
    header = "longitude,latitude,height,speed\n0,0,0,1\n"
    with pytest.raises(ValueError, match="row 2: height must be >= 0, got -1.0"):
        load_keypoints(header + "0,0,-1,1\n")
    with pytest.raises(ValueError, match="row 2: speed must be > 0, got 0.0"):
        load_keypoints(header + "0,0,0,0\n")
    with pytest.raises(ValueError, match="row 2: longitude must be finite, got nan"):
        load_keypoints(header + "nan,0,0,1\n")
    with pytest.raises(ValueError, match="x must be finite"):
        project((1e308, 0.0, 0.0, 1.0), Projection((10.0, 1.0, 1.0)))
    # in an array the first overflowing coordinate in row order is named
    with pytest.raises(ValueError, match="y must be finite, got -inf"):
        project([(0.0, 0.0, 0.0), (1.0, -1e308, 1e308)], Projection((1.0, 10.0, 10.0)))


def test_load_demo_route():
    kps = load_keypoints(DEMO_CSV)
    assert kps.shape == (6, 4)
    assert kps[0].tolist() == [121.47, 31.23, 10000.0, 1.0]
    assert kps[5, 0] == 200.00  # longitudes beyond 180 pass through unwrapped
    assert kps[5, 1] == -13.50


def test_load_empty_file_is_path_too_short():
    with pytest.raises(PathTooShortError):
        load_keypoints("")
    with pytest.raises(PathTooShortError):
        load_keypoints("longitude,latitude,height\n1,2,3\n")


def test_load_malformed_row_cites_row_index():
    bad = (
        "longitude,latitude,height\n"
        "1,2,3\n"
        "4,5,6\n"
        "abc,8,9\n"
        "10,11,12\n"
    )
    with pytest.raises(KeypointParseError) as exc:
        load_keypoints(bad)
    assert exc.value.row == 3
    assert "row 3" in str(exc.value)
    assert "longitude" in str(exc.value)


def test_load_bad_header():
    with pytest.raises(KeypointParseError):
        load_keypoints("lon,lat,h\n1,2,3\n4,5,6\n")


def test_load_speed_column():
    kps = load_keypoints("longitude,latitude,height,speed\n1,2,3,4\n5,6,7,8\n")
    assert kps[:, 3].tolist() == [4.0, 8.0]


def test_load_rejects_invalid_speed_with_row():
    with pytest.raises(KeypointParseError) as exc:
        load_keypoints("longitude,latitude,height,speed\n1,2,3,1\n5,6,7,0\n")
    assert exc.value.row == 2


finite_coord = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


@given(
    st.lists(
        st.tuples(
            finite_coord,
            finite_coord,
            st.floats(min_value=0, max_value=1e6, allow_nan=False),
            st.floats(min_value=1e-3, max_value=1e3, allow_nan=False),
        ),
        min_size=2,
        max_size=12,
    )
)
def test_repr_csv_load_round_trip(rows):
    text = "longitude,latitude,height,speed\n" + "".join(
        ",".join(repr(v) for v in row) + "\n" for row in rows)
    assert load_keypoints(text).tolist() == [list(row) for row in rows]


def test_load_reads_repr_floats_exactly():
    kps = load_keypoints(
        "longitude,latitude,height,speed\n"
        "0.1,-179.99999999999997,5e-324,0.001\n"
        "1.7976931348623157e+308,-33.333333333333336,123456.78901234567,1000.0\n"
    )
    assert kps.tolist() == [
        [0.1, -179.99999999999997, 5e-324, 0.001],
        [1.7976931348623157e308, -33.333333333333336, 123456.78901234567, 1000.0],
    ]


@given(finite_coord, finite_coord, st.floats(min_value=0, max_value=1e6, allow_nan=False))
def test_project_injective_on_distinct_inputs(lon, lat, h):
    proj = Projection((2.0, 3.0, 0.5))
    base = project((lon, lat, h), proj)
    shifted = project((lon + 1.0, lat, h), proj)
    assert base.tolist() != shifted.tolist()
