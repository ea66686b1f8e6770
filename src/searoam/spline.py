"""Piecewise path curves through waypoint lists.

Three curve kinds are supported and share one evaluation interface:

* ``polyline`` -- straight chords between consecutive keypoints,
* ``bezier`` -- a single degree-(N-1) curve with the N keypoints as its
  control polygon (interpolates only the first and last keypoint),
* ``catmull_rom`` -- an interpolating cubic whose segment from P0 to P1 is
  the Hermite cubic with end tangents m0 = t*(P1 - P_prev) and
  m1 = t*(P_next - P0), where t is the tension in [0, 1].

The global curve parameter s runs over [0, 1].  For polyline and
catmull_rom it is partitioned uniformly across the N-1 segments (segment i
covers [i/(N-1), (i+1)/(N-1)]); the bezier curve is one span.  Missing
neighbors for the boundary Catmull-Rom segments come from duplicating the
first and last keypoints as phantom endpoints.

Arc length integrates |dP/ds| by vectorized adaptive Gauss-Lobatto
quadrature, so the module needs numpy alone.
"""

from __future__ import annotations

import math

import numpy as np

from .geo import PathTooShortError

KINDS = ("polyline", "bezier", "catmull_rom")
DEFAULT_TENSION = 0.5

# Tolerance of the adaptive arc-length quadrature over the whole range:
# max(ARC_LENGTH_ABS_TOL, ARC_LENGTH_REL_TOL * length).
ARC_LENGTH_REL_TOL = 1e-8
ARC_LENGTH_ABS_TOL = 1e-12
# Bounds on the adaptive subdivision: how many intervals one quadrature
# pass may cover (about 80 MB of catmull_rom temporaries at the limit) and
# how many times an interval may be halved.
ARC_LENGTH_MAX_INTERVALS = 1 << 16
ARC_LENGTH_MAX_DEPTH = 60
# The one message of every length that overflows, arc_length's and the sim's.
_LENGTH_OVERFLOWS = "path length overflows (keypoint coordinates too large)"

# The 10-point Gauss-Lobatto rule on [-1, 1]: both ends and the roots of
# P'_9, the derivative of the Legendre polynomial of degree 9, with weights
# 2 / (90 P_9(x)^2); exact to degree 17.  The nodes are not quite symmetric:
# these are the bits numpy's Legendre root finder gave them (see the tests).
_LOBATTO_NODES = np.array([
    -1.0, -0.9195339081664605, -0.7387738651055052, -0.4779249498104439,
    -0.16527895766638742, 0.1652789576663872, 0.47792494981044475, 0.7387738651055051,
    0.9195339081664591, 1.0])
_LOBATTO_WEIGHTS = np.array([
    0.022222222222222185, 0.13330599085107028, 0.22488934206312652, 0.2920426836796838,
    0.32753976118389744, 0.32753976118389744, 0.2920426836796838, 0.22488934206312663,
    0.1333059908510702, 0.022222222222222185])

# Parameter values per evaluation block: every kind's temporaries are a few
# 96 KB arrays, whatever the number of parameters and keypoints.
EVAL_ROWS = 1 << 12


class ArcLengthError(ValueError):
    """The arc length cannot be computed: the length overflows, or the
    quadrature exceeds its bounds before it reaches its tolerance."""


def check_tension(tension: float) -> float:
    tension = float(tension)
    if not math.isfinite(tension) or not 0.0 <= tension <= 1.0:
        raise ValueError(f"tension must be in [0, 1], got {tension!r}")
    return tension


def _hermite_weights(u):
    """Cubic Hermite basis (h00, h10, h01, h11) at u.

    h00 and h01 are computed from the shared polynomial q = 2u^3 - 3u^2 so
    that h00 + h01 == 1 holds exactly in floating point; at u = 0 and u = 1
    the weights are exactly (1,0,0,0) and (0,0,1,0).
    """
    u2 = u * u
    u3 = u2 * u
    q = 2.0 * u3 - 3.0 * u2
    return q + 1.0, u3 - 2.0 * u2 + u, -q, u3 - u2


def _hermite_weights_deriv(u):
    """Derivatives of the Hermite basis with respect to u."""
    u2 = u * u
    qd = 6.0 * u2 - 6.0 * u
    return qd, 3.0 * u2 - 4.0 * u + 1.0, -qd, 3.0 * u2 - 2.0 * u


def _check_parameters(ss) -> np.ndarray:
    ss = np.atleast_1d(np.asarray(ss, dtype=float))
    if ss.size and not (0.0 <= ss.min() and ss.max() <= 1.0):  # a NaN fails too
        raise ValueError("curve parameter s must lie in [0, 1]")
    return ss


class PathCurve:
    """A piecewise curve of one of the three kinds over fixed keypoints.

    Immutable after construction; evaluation methods are pure.
    """

    def __init__(self, kind: str, keypoints, tension: float = DEFAULT_TENSION):
        if kind not in KINDS:
            raise ValueError(f"unknown curve kind {kind!r}; expected one of {KINDS}")
        pts = np.array(keypoints, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 3:
            raise ValueError(f"expected an (N, 3) point array, got shape {pts.shape}")
        if not np.all(np.isfinite(pts)):
            raise ValueError("points must be finite")
        if len(pts) < 2:
            raise PathTooShortError(f"a path needs at least 2 keypoints, got {len(pts)}")
        self.kind = kind
        self.keypoints = pts
        self.keypoints.setflags(write=False)
        self.n_segments = len(pts) - 1
        self.tension = check_tension(tension) if kind == "catmull_rom" else None

        # Differences of finite keypoints may overflow; the callers' named
        # checks (ArcLengthError, ViewOverflowError) reject such curves.
        with np.errstate(over="ignore"):
            if kind == "catmull_rom":
                # Segment i runs from padded[i+1] to padded[i+2], with end
                # tangents m0 = t*(P[i+2] - P[i]) and m1 = t*(P[i+3] - P[i+1]).
                padded = np.vstack([pts[:1], pts, pts[-1:]])
                self._p0, self._p1 = padded[1:-2], padded[2:-1]
                self._m0 = self.tension * (padded[2:-1] - padded[:-3])
                self._m1 = self.tension * (padded[3:] - padded[1:-2])
            else:  # polyline chords, or the bezier's control differences
                self._starts, self._diffs = pts[:-1], pts[1:] - pts[:-1]
                self._chords = _row_norms(self._diffs)  # their lengths

    @classmethod
    def polyline(cls, keypoints) -> "PathCurve":
        return cls("polyline", keypoints)

    @classmethod
    def bezier(cls, keypoints) -> "PathCurve":
        return cls("bezier", keypoints)

    @classmethod
    def catmull_rom(cls, keypoints, tension: float = DEFAULT_TENSION) -> "PathCurve":
        return cls("catmull_rom", keypoints, tension)

    def grid(self, samples: int) -> np.ndarray:
        """Global s at u = j/samples (j = 0..samples-1) in every segment, then 1.

        Knots land exactly on the grid.  The bezier curve is divided like
        a polyline over the same keypoints.
        """
        u = np.arange(samples) / samples
        return np.append(((np.arange(self.n_segments)[:, None] + u) / self.n_segments).ravel(), 1.0)

    def _locate(self, ss: np.ndarray):
        """Map global parameters to (segment index, local u)."""
        x = ss * self.n_segments
        idx = np.minimum(np.floor(x).astype(int), self.n_segments - 1)
        return idx, x - idx

    def _evaluate(self, ss, deriv: bool) -> np.ndarray:
        """Positions (deriv False) or dP/ds (deriv True) at global parameters.

        Evaluated EVAL_ROWS parameters at a time; rows are independent, so
        the blocking does not change any result bit.  Overflowing curve
        data gives inf and NaN rows (0 * inf) without a warning; the
        callers' named checks reject them.
        """
        ss = _check_parameters(ss)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            out = np.empty((len(ss), 3))
            term = np.empty((min(len(ss), EVAL_ROWS), 3))
            for start in range(0, len(ss), EVAL_ROWS):
                block = slice(start, start + EVAL_ROWS)
                self._evaluate_block(ss[block], deriv, out[block], term)
            return out

    def _evaluate_block(self, ss, deriv: bool, out: np.ndarray, term: np.ndarray) -> None:
        """_evaluate on one block, into out, with term as scratch.

        Polyline and catmull_rom: in place, the same products as the plain
        expressions, summed in the same order, so the same bits.  Bezier:
        _wozny_chudy over P_0..P_m, or, for dP/ds, m times it over the
        differences, in (3, rows) temporaries whatever the degree m.  At
        t = 1, where every h is 1 and the sums round, P_m is set.
        """
        if self.kind == "bezier":
            control = (self._diffs if deriv else self.keypoints)[:, :, None]
            q = term[:len(ss)].reshape(3, -1)  # coordinate-major
            q[:] = control[0]
            out[:] = _wozny_chudy(control, (1.0 - ss) / ss, q).T  # rest: inf at t = 0
            out[ss == 1.0] = control[-1, :, 0]
        elif self.kind == "polyline":
            idx, u = self._locate(ss)
            np.take(self._diffs, idx, axis=0, out=out)
            if not deriv:
                out *= u[:, None]
                out += np.take(self._starts, idx, axis=0, out=term[:len(ss)])
        else:
            idx, u = self._locate(ss)
            term = term[:len(ss)]
            h00, h10, h01, h11 = (_hermite_weights_deriv if deriv else _hermite_weights)(u)
            np.take(self._p0, idx, axis=0, out=out)
            out *= h00[:, None]
            for h, rows in ((h10, self._m0), (h01, self._p1), (h11, self._m1)):
                np.take(rows, idx, axis=0, out=term)
                term *= h[:, None]
                out += term
        if deriv:
            out *= self.n_segments

    def positions(self, ss) -> np.ndarray:
        """Evaluate the curve at an array of global parameters in [0, 1]."""
        return self._evaluate(ss, False)

    def position(self, s: float) -> np.ndarray:
        """Evaluate the curve at one global parameter in [0, 1]."""
        return self.positions(float(s))[0]

    def tangents(self, ss) -> np.ndarray:
        """Unnormalized derivative dP/ds at an array of global parameters.

        At polyline knots the right-hand segment direction wins (the final
        knot s=1 belongs to the last segment).
        """
        return self._evaluate(ss, True)

    def tangent(self, s: float) -> np.ndarray:
        """Unnormalized derivative dP/ds at one global parameter."""
        return self.tangents(float(s))[0]

    def sample(self, samples: int) -> tuple[np.ndarray, np.ndarray]:
        """positions and tangents at grid(samples)."""
        ss = self.grid(samples)
        return self.positions(ss), self.tangents(ss)

    def arc_length(self, s0: float = 0.0, s1: float = 1.0) -> float:
        """Arc length between two global parameters.

        Polyline lengths are exact chord sums.  Bezier and catmull_rom
        integrate |dP/ds| by adaptive Gauss-Lobatto quadrature to
        ARC_LENGTH_REL_TOL relative or ARC_LENGTH_ABS_TOL absolute, split at
        the catmull_rom segment knots and wherever a coordinate of dP/ds
        changes sign.  Raises ArcLengthError if the length overflows or the
        subdivision exceeds its bounds.
        """
        s0, s1 = float(s0), float(s1)
        if not (math.isfinite(s0) and math.isfinite(s1)) or not 0.0 <= s0 <= s1 <= 1.0:
            raise ValueError(f"need 0 <= s0 <= s1 <= 1, got ({s0!r}, {s1!r})")
        if s0 == s1:
            return 0.0

        if self.kind == "polyline":
            x0, x1 = s0 * self.n_segments, s1 * self.n_segments
            i0 = min(int(math.floor(x0)), self.n_segments - 1)
            i1 = min(int(math.floor(x1)), self.n_segments - 1)
            with np.errstate(over="ignore", invalid="ignore"):
                total = self._chords[i0] * ((x1 if i0 == i1 else i0 + 1) - x0)
                if i0 < i1 < x1:  # no share of chord i1, maybe NaN, when s1 is on its knot
                    total += self._chords[i1] * (x1 - i1)
                total += self._chords[i0 + 1:i1].sum()
            if not math.isfinite(total):
                raise ArcLengthError(_LENGTH_OVERFLOWS)
            return float(total)

        knots = self.grid(1) if self.kind == "catmull_rom" else np.empty(0)
        return _adaptive_lobatto(self, np.hstack((s0, knots[(knots > s0) & (knots < s1)], s1)))

    def _speed_kinks(self) -> np.ndarray:
        """Global parameters in (0, 1) where a coordinate of dP/ds changes sign.

        |dP/ds| can only have a kink (a cusp of the curve) where every
        coordinate of dP/ds is zero, and a narrow dip only near such a
        zero, so splitting the quadrature here puts each kink and dip at
        an interval end, where a Lobatto node samples it.
        Catmull-rom coordinates are quadratics per segment, solved in
        closed form.  A bezier's are Bernstein polynomials of degree N-2
        whose coefficients are the control polygon's differences,
        (N-1)(P[i+1] - P[i]); _bernstein_roots isolates and brackets their
        roots, unsorted.  A bezier whose differences overflow gets none:
        its speed does too, which the quadrature rejects.
        """
        if self.kind == "catmull_rom":
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                # dP/du = a2*u^2 + a1*u + a0 on each segment, per coordinate.
                a2 = 6.0 * (self._p0 - self._p1) + 3.0 * (self._m0 + self._m1)
                a1 = 6.0 * (self._p1 - self._p0) - 4.0 * self._m0 - 2.0 * self._m1
                a0 = self._m0
                q = -0.5 * (a1 + np.copysign(np.sqrt(a1 * a1 - 4.0 * a2 * a0), a1))
                u = np.where(a2 != 0.0, [q / a2, a0 / q], [-a0 / a1, np.full_like(a0, np.nan)])
            segment = np.broadcast_to(np.arange(self.n_segments)[:, None], u.shape)
            inside = (u > 0.0) & (u < 1.0)
            return (segment[inside] + u[inside]) / self.n_segments
        rows = self._diffs.T
        if rows.shape[1] < 2 or not np.all(np.isfinite(rows)):
            return np.empty(0)
        rows = rows[rows.any(axis=1)]
        # Powers of two bring each row's largest |coefficient| into [0.5, 1).
        return _bernstein_roots(np.ldexp(rows, -np.frexp(np.abs(rows).max(axis=1))[1][:, None]))

    def __repr__(self):
        extra = f", tension={self.tension}" if self.kind == "catmull_rom" else ""
        return f"PathCurve({self.kind!r}, {len(self.keypoints)} keypoints{extra})"


def _row_norms(v: np.ndarray, norms: np.ndarray | None = None) -> np.ndarray:
    """Euclidean norm of each row of the (k, 3) array v, finite whenever the
    norm is: every Euclidean length in searoam goes through here.

    The plain norm sums the squares by columns, sqrt((x*x + y*y) + z*z), the
    order and bits of np.linalg.norm(v, axis=1).  A caller whose plain norm
    is np.sqrt(_rowdot(v, v)) (np.dot's bits) passes it as norms instead,
    and gets it back updated in place.  Rows whose plain norm is not finite
    (squares overflow beyond about 1e154) are recomputed scaled by their
    largest |component|.
    """
    def plain(rows):
        out, part = rows[:, 0] * rows[:, 0], np.empty(len(rows))
        for a in (1, 2):
            out += np.multiply(rows[:, a], rows[:, a], out=part)
        return np.sqrt(out, out=out)

    with np.errstate(over="ignore", invalid="ignore"):
        norms = plain(v) if norms is None else norms
        big = ~np.isfinite(norms)
        if big.any():
            rows = v[big]
            scale = np.abs(rows).max(axis=1)
            norms[big] = scale * plain(rows / scale[:, None])
    return norms


def _rowdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.dot(a[i], b[i]) for each row i of two (k, 3) arrays, bit for bit.

    matmul's vector-vector loop is the kernel np.dot uses (a BLAS ddot,
    which may fuse multiply-adds), so np.sqrt(_rowdot(v, v)) equals
    np.linalg.norm(v[i]) too.  einsum and plain sums can round differently.
    """
    return np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]


# np.cross's column order: (a x b)[j] = a[_NEXT[j]] * b[_PREV[j]] - a[_PREV[j]] * b[_NEXT[j]].
_NEXT, _PREV = np.array([1, 2, 0]), np.array([2, 0, 1])


def _cross_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.cross of each row pair of two (k, 3) arrays: its products and
    differences in its order, without its per-call overhead."""
    return a[:, _NEXT] * b[:, _PREV] - a[:, _PREV] * b[:, _NEXT]


def _lobatto(curve: PathCurve, lo: np.ndarray, hi: np.ndarray):
    """Gauss-Lobatto integrals of the curve's speed |dP/ds| over each
    interval [lo, hi], and the (k, nodes) speeds they were summed from.

    All intervals are evaluated in one tangents call.  The end nodes are set
    to lo and hi exactly, so rounding never takes a node out of [0, 1], and
    each row's first and last speed is the speed at lo and at hi.
    """
    if len(lo) > ARC_LENGTH_MAX_INTERVALS:
        raise ArcLengthError(
            f"arc length needs more than {ARC_LENGTH_MAX_INTERVALS} quadrature intervals")
    half = 0.5 * (hi - lo)
    nodes = (0.5 * (lo + hi))[:, None] + half[:, None] * _LOBATTO_NODES
    nodes[:, 0], nodes[:, -1] = lo, hi
    values = _row_norms(curve.tangents(nodes.ravel())).reshape(nodes.shape)
    return half * (values @ _LOBATTO_WEIGHTS), values


def _adaptive_lobatto(curve: PathCurve, knots: np.ndarray, accepted: list | None = None) -> float:
    """The curve's arc length from knots[0] to knots[-1], integrated between
    the knots (ascending, distinct) and its speed kinks among them (_cuts).

    Adaptive bisection after Guenter & Parent, "Computing the arc length of
    parametric curves" (IEEE CG&A 1990), one level at a time.  Every
    pending interval's estimate is compared with the sum of its two halves.
    An interval of width w is accepted with the halves' sum when that
    difference is at most max(ARC_LENGTH_ABS_TOL, ARC_LENGTH_REL_TOL * L)
    * w / W, where L is the current estimate of the whole integral and W
    the whole width, so the accepted differences add up to at most the
    tolerance of the whole range; the rest are halved again.  Each level
    costs one tangents call over all pending intervals.  A list given as
    accepted gets, per level, the accepted halves as (starts, stops, the
    (k, 10) speeds at their Lobatto nodes).  A length that overflows raises
    ArcLengthError.

    The rule is Lobatto, not Gauss-Legendre, because its nodes include the
    interval's ends.  Near-cusps sit at the cuts, so at interval ends, and
    a Gauss-Legendre rule, whose outer nodes stop short of the ends, can
    miss one in the whole and in both halves alike.
    """
    kinks = curve._speed_kinks()
    cuts = _cuts(knots, kinks[(kinks > knots[0]) & (kinks < knots[-1])])
    lo, hi = cuts[:-1], cuts[1:]
    span = hi[-1] - lo[0]
    whole = _lobatto(curve, lo, hi)[0]
    total = 0.0
    for _ in range(ARC_LENGTH_MAX_DEPTH):
        mid = 0.5 * (lo + hi)
        n = len(lo)
        starts, stops = np.concatenate((lo, mid)), np.concatenate((mid, hi))
        halves, values = _lobatto(curve, starts, stops)
        left, right = halves[:n], halves[n:]
        both = left + right
        estimate = total + float(both.sum())
        if not math.isfinite(estimate):  # checked at once: NaN never converges
            raise ArcLengthError(_LENGTH_OVERFLOWS)
        # A subnormal span can overflow the budget to inf, which accepts
        # every interval: the span is then below the tolerance / 1.8e308, so
        # at a finite speed the whole length is below the tolerance too.
        with np.errstate(over="ignore"):
            budget = max(ARC_LENGTH_ABS_TOL, ARC_LENGTH_REL_TOL * estimate) / span
        done = np.abs(both - whole) <= budget * (hi - lo)
        total += float(both[done].sum())
        if accepted is not None:
            kept = np.concatenate((done, done))
            accepted.append((starts[kept], stops[kept], values[kept]))
        if done.all():
            return total
        todo = ~done
        lo = np.concatenate((lo[todo], mid[todo]))
        hi = np.concatenate((mid[todo], hi[todo]))
        whole = np.concatenate((left[todo], right[todo]))
    raise ArcLengthError(
        f"arc length did not converge within {ARC_LENGTH_MAX_DEPTH} interval halvings")


def _cuts(knots: np.ndarray, kinks: np.ndarray) -> np.ndarray:
    """The quadrature's interval ends, ascending: the knots (ascending and
    distinct) and each kink more than 4 ulps from its left neighbour and
    from a knot on its right, so that no interval's halves reach width 0."""
    cuts = np.concatenate((knots, kinks))
    order = np.argsort(cuts, kind="stable")
    cuts, knot = cuts[order], order < len(knots)
    near = np.diff(cuts) <= 4.0 * np.spacing(cuts[1:])
    return cuts[knot | ~(np.append(False, near) | np.append(near & knot[1:], False))]


# Coefficients, highest power first, in x on [-1, 1], of the polynomial
# through values at the ten Lobatto nodes (_NODE_MONOMIALS @ values), the one
# the rule integrates; times _INTEGRATE, those of its antiderivative
# x * np.polyval(length, x).
_NODE_MONOMIALS = np.linalg.inv(np.vander(_LOBATTO_NODES, increasing=True))[::-1]
_INTEGRATE = (1.0 / np.arange(1, len(_LOBATTO_NODES) + 1))[::-1]


def _arc_table(curve: PathCurve) -> tuple:
    """The sim's arc-length table (lengths, rows): the cumulative length at
    every entry s, from 0 at s = 0, each keypoint knot an entry, and per
    interval the row (l0, h, s0, c1, c2, c3) of sim._s_at.  A polyline's
    intervals are its segments and _row_norms chords, inverted linearly,
    which is exact; the other kinds' come from _refine.  Raises ArcLengthError
    if the total overflows or a level adds over ARC_LENGTH_MAX_INTERVALS."""
    knots = curve.grid(1)
    if curve.kind == "polyline":
        done = [(knots[:-1], np.diff(knots), curve._chords, *np.zeros((2, curve.n_segments)))]
    else:
        done = _refine(curve, knots)
    s0, w, h, b0, b1 = (np.concatenate(part) for part in zip(*done))
    order = np.argsort(s0)
    s0, w, h, b0, b1 = s0[order], w[order], np.maximum(h[order], 0.0), b0[order], b1[order]
    with np.errstate(over="ignore"):  # the refined sum may round past 1.8e308
        lengths = np.append(0.0, np.cumsum(h))
    if not math.isfinite(lengths[-1]):
        raise ArcLengthError(_LENGTH_OVERFLOWS)
    return lengths, np.stack(
        (lengths[:-1], h, s0, w * (1.0 + b0), -w * (b0 + b0 + b1), w * (b0 + b1)))


def _hermite_slopes(w, h, v0, v1):
    """The end slopes (b0, b1) of sim._s_at on intervals of widths w,
    lengths h and end speeds |dP/ds| v0, v1: ds/dl = 1/|dP/ds| over the
    mean w/h, minus 1.  Both are 0, a linear inversion, where either ratio
    lies outside (0, 3], so the cubic could fall back (Fritsch & Carlson,
    SIAM J. Numer. Anal. 1980): at a cusp (|dP/ds| = 0) and at length 0."""
    a0, a1 = h / w / v0, h / w / v1
    rises = (a0 > 0.0) & (a0 <= 3.0) & (a1 > 0.0) & (a1 <= 3.0)
    return np.where(rises, a0 - 1.0, 0.0), np.where(rises, a1 - 1.0, 0.0)


def _refine(curve: PathCurve, knots: np.ndarray) -> list:
    """_arc_table's intervals for a bezier or catmull_rom, as (s0, w, h,
    b0, b1) per level: start, width, length and _hermite_slopes.

    They start as the halves that _adaptive_lobatto accepts over the knots.
    Each interval's inverse cubic Hermite is checked where it puts half the
    interval's length.  If the length up to that s misses the half by more
    than ARC_LENGTH_REL_TOL * L (at least ARC_LENGTH_ABS_TOL; L the route
    length), the interval is split into m equal widths, m from the miss,
    which shrinks about as the width to the fourth; the pieces are checked
    at the next level (Wang, Kearney & Atkinson, "Arc-length parameterized
    spline curves for real-time simulation", 2002).  Inside a half, lengths
    and speeds come from the polynomial through the speeds its Lobatto rule
    summed and from its antiderivative, so nothing evaluates the curve.  A
    miss below the rounding of those polynomials or of s passes; pieces
    still missing after ARC_LENGTH_MAX_DEPTH levels are kept.
    """
    accepted = []
    _adaptive_lobatto(curve, knots, accepted)
    starts, stops, values = (np.concatenate(part) for part in zip(*accepted))
    order = np.argsort(starts)
    order = order[stops[order] > starts[order]]  # a half of width 0 has nothing to invert
    s0, s1 = starts[order], stops[order]
    done = []
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        speeds = _NODE_MONOMIALS @ values[order].T
        length = speeds * _INTEGRATE[:, None]
        both = np.stack((length, speeds), axis=1)  # (10, 2, K): one np.polyval for both
        center, radius = 0.5 * (s0 + s1), 0.5 * (s1 - s0)
        # Pending pieces: their half k, ends s0 and s1, the antiderivative
        # x * np.polyval(length, x) at their ends, length and end speeds.
        a0, a1 = -np.polyval(length, -1.0), np.polyval(length, 1.0)
        v0, v1 = np.polyval(speeds, -1.0), np.polyval(speeds, 1.0)
        k, h = np.arange(len(s0)), radius * (a1 - a0)
        budget = max(ARC_LENGTH_ABS_TOL, ARC_LENGTH_REL_TOL * float(h.sum()))
        floor = 2.0 ** -40 * h  # the rounding of each half's polynomials
        for _ in range(ARC_LENGTH_MAX_DEPTH):
            w = s1 - s0
            b0, b1 = _hermite_slopes(w, h, v0, v1)
            x = (s0 + w * (0.5 + 0.125 * (b0 - b1)) - center[k]) / radius[k]  # _s_at at h / 2
            miss = np.abs(radius[k] * (x * np.polyval(length.take(k, axis=1), x) - a0) - 0.5 * h)
            # s itself rounds by up to 4 ulp of 1 at the larger end speed.
            bad = miss > np.maximum(budget, floor[k] + 2.0 ** -50 * np.maximum(v0, v1))
            done.append((s0[~bad], w[~bad], h[~bad], b0[~bad], b1[~bad]))
            if not bad.any():
                return done
            m = np.minimum(np.ceil(2.0 * np.sqrt(np.sqrt(miss[bad] / budget))), 256).astype(np.intp)
            if m.sum() > ARC_LENGTH_MAX_INTERVALS:
                raise ArcLengthError(f"the arc-length table needs more than "
                                     f"{ARC_LENGTH_MAX_INTERVALS} new intervals at once; use "
                                     "fewer keypoints or, for catmull_rom, a higher tension")
            # Piece j of an interval's m runs from lo[j] to lo[j + 1].
            owner = np.repeat(np.arange(len(m)), m)
            j = np.arange(len(owner)) - np.repeat(np.cumsum(m) - m, m)
            first, last = j == 0, j == m[owner] - 1
            k, s0, s1, w = k[bad], s0[bad], s1[bad], w[bad]
            lo = s0[owner] + w[owner] * (j / m[owner])
            k = k[owner]
            x = (lo - center[k]) / radius[k]
            a_lo, v_lo = np.polyval(both.take(k, axis=2), x)
            a_lo *= x
            a_lo[first], v_lo[first] = a0[bad], v0[bad]
            hi, a_hi, v_hi = (np.append(part[1:], 0.0) for part in (lo, a_lo, v_lo))
            hi[last], a_hi[last], v_hi[last] = s1, a1[bad], v1[bad]
            wide = hi > lo  # m steps across a few ulps round to fewer
            k, s0, s1, a0, a1, v0, v1 = (
                part[wide] for part in (k, lo, hi, a_lo, a_hi, v_lo, v_hi))
            h = radius[k] * (a1 - a0)
        return done + [(s0, s1 - s0, h, *_hermite_slopes(s1 - s0, h, v0, v1))]


# A piece of the kink search whose coefficients still change sign more than
# once at depth _KINK_DEPTH, 2**-20 wide, holds a double root or roots within
# about 1e-6 of each other, and one cut at its midpoint serves them all.  A
# root takes at most _KINK_STEPS bracketing steps, about 10 in practice.
_KINK_DEPTH, _KINK_STEPS = 20, 100


def _bernstein_roots(rows: np.ndarray) -> np.ndarray:
    """The parameters in (0, 1) where the polynomials with Bernstein
    coefficients rows (k, m + 1), all of magnitude at most 1, change sign.

    Subdivision after Lane & Riesenfeld (IEEE PAMI 1981), in the Bernstein
    form, the stable one (Farouki & Rajan, CAGD 1987).  A piece's
    coefficients change sign at least as often as the polynomial does on it
    (variation diminishing), so a piece with one change holds one root, which
    _bracket_root narrows; one with more is halved at its midpoint,
    as one product with H[k, j] = C(k, j) / 2**k; a zero coefficient at a
    piece's right end is a root there.  The halves' changes add up to at
    most their piece's, so at most _KINK_DEPTH * (k m // 2) pieces are
    halved, each in O(m^2); past that, as at _KINK_DEPTH, a piece is cut at
    its midpoint.  At most k m roots take O(m) per bracketing step, each
    value by _wozny_chudy, the recurrence that evaluates the curve.
    """
    m = rows.shape[1] - 1
    half, splits = None, _KINK_DEPTH * ((rows.size - len(rows)) // 2)
    roots, pieces = [], [(0.0, 1.0, row) for row in rows]
    while pieces:
        start, width, row = pieces.pop()
        c = row.tolist()
        if c[-1] == 0.0 and start + width < 1.0:
            roots.append(start + width)
        changes = _sign_changes(c)
        if changes == 1:
            roots.append(_bracket_root(c, start, width))
        elif changes > 1 and (width <= 2.0**-_KINK_DEPTH or not splits):
            roots.append(start + 0.5 * width)
        elif changes > 1:
            if half is None:
                half = np.zeros((m + 1, m + 1))
                half[0, 0] = 1.0
                for k in range(1, m + 1):  # halved pairwise sums: no entry overflows
                    np.add(half[k - 1, 1:], half[k - 1, :-1], out=half[k, 1:])
                    half[k, 0] = half[k - 1, 0]
                    half[k] *= 0.5
            halves = half @ np.stack((row, row[::-1]), axis=1)
            halves[m, 1] = halves[m, 0]  # both halves hold the same midpoint value
            splits, width = splits - 1, 0.5 * width
            pieces += [(start + width, width, halves[::-1, 1]), (start, width, halves[:, 0])]
    return np.array(roots)


def _sign_changes(c: list) -> int:
    """Sign changes in the sequence c, zeros skipped."""
    changes, negative = -1, None
    for x in c:
        if x and (x < 0.0) is not negative:
            changes, negative = changes + 1, x < 0.0
    return max(changes, 0)


def _bracket_root(c: list, start: float, width: float) -> float:
    """The one root in (start, start + width) of the polynomial with
    Bernstein coefficients c on that piece.

    Illinois steps (Dowell & Jarratt, BIT 1971) in the piece's parameter,
    kept 2 ulps inside the bracket, and a bisection where two steps did not
    halve it, until the bracket is 4 ulps wide, so every step evaluates
    the piece by _wozny_chudy at a t in (0, 1).  A zero end coefficient (a
    repeated control point) takes its sign from the first nonzero one.
    """
    lo, hi, f_lo, f_hi = 0.0, 1.0, c[0], c[-1]
    negative = next(x for x in c if x) < 0.0
    side, widths = 0, [2.0, 2.0]
    for _ in range(_KINK_STEPS):
        nudge = 2.0 * math.ulp(start + width * hi) / width
        if hi - lo <= 2.0 * nudge:
            break
        if f_lo == f_hi or hi - lo > 0.5 * widths[0]:
            t = 0.5 * (lo + hi)
        else:
            t = min(max((lo * f_hi - hi * f_lo) / (f_hi - f_lo), lo + nudge), hi - nudge)
        widths = [widths[1], hi - lo]
        f = _wozny_chudy(c, (1.0 - t) / t, c[0])
        if f == 0.0:
            return start + width * t
        if (f < 0.0) == negative:
            lo, f_lo = t, f
            if side < 0:  # hi kept twice: halve its value
                f_hi *= 0.5
            side = -1
        else:
            hi, f_hi = t, f
            if side > 0:
                f_lo *= 0.5
            side = 1
    return start + width * (0.5 * (lo + hi))


def _wozny_chudy(control, rest, q):
    """The polynomial of degree m = len(control) - 1 with Bernstein
    coefficients control at t, given rest = (1 - t) / t and q = control[0],
    by the linear-time recurrence of Wozny & Chudy (CAD 2020): h_0 = 1 and,
    for k = 1..m, h_k = (m-k+1) t h_{k-1} / (k (1-t) + (m-k+1) t h_{k-1}),
    here divided through by k t, and Q_k = Q_{k-1} + h_k (P_k - Q_{k-1}).
    Every h lies in [0, 1], so no term overflows at any degree; rest = inf
    (t = 0) gives h = 0 and control[0] exactly.  It runs on Python floats,
    and on numpy arrays, where q is updated in place.
    """
    n, h = len(control), 1.0
    for k in range(1, n):
        a = h * ((n - k) / k)  # n - k = m - k + 1
        h = a / (a + rest)
        q += h * (control[k] - q)
    return q
