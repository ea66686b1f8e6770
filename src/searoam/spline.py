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
quadrature (nodes from numpy.polynomial.legendre), so the module needs
numpy alone.
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
# Gauss-Lobatto nodes per interval, and the bounds on the adaptive
# subdivision: how many intervals one quadrature pass may cover (about
# 80 MB of catmull_rom temporaries at the limit) and how many times an
# interval may be halved.
ARC_LENGTH_NODES = 10
ARC_LENGTH_MAX_INTERVALS = 1 << 16
ARC_LENGTH_MAX_DEPTH = 60


def _lobatto_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """n-point Gauss-Lobatto nodes and weights on [-1, 1].

    The nodes are both ends and the roots of P'_{n-1}, the derivative of
    the Legendre polynomial of degree n-1; the rule is exact to degree
    2n-3.
    """
    legendre = np.polynomial.legendre.Legendre.basis(n - 1)
    x = np.concatenate(([-1.0], np.sort(legendre.deriv().roots()), [1.0]))
    return x, 2.0 / (n * (n - 1) * legendre(x) ** 2)


_LOBATTO_NODES, _LOBATTO_WEIGHTS = _lobatto_rule(ARC_LENGTH_NODES)

# Parameter values per evaluation block: a bezier evaluation holds two
# arrays of at most N x DE_CASTELJAU_ROWS x 3 floats at once, 96 KB per
# control point, small enough to stay in cache; polyline and catmull_rom
# temporaries stay at 96 KB whatever the number of parameters.
DE_CASTELJAU_ROWS = 1 << 12


class ArcLengthError(ValueError):
    """The arc length cannot be computed: the speed overflows, or the
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
    if not np.all(np.isfinite(ss)) or np.any(ss < 0.0) or np.any(ss > 1.0):
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
            elif kind == "polyline":
                self._starts = pts[:-1]
                self._diffs = pts[1:] - pts[:-1]
            else:  # bezier
                self._control = pts

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

        Evaluated DE_CASTELJAU_ROWS parameters at a time; rows are
        independent, so the blocking does not change any result bit.
        Overflowing curve data gives inf and NaN rows (0 * inf) without a
        warning; the callers' named checks reject them.
        """
        ss = _check_parameters(ss)
        with np.errstate(over="ignore", invalid="ignore"):
            if self.kind == "bezier":
                return _de_casteljau(self._control, ss)[deriv]
            out = np.empty((len(ss), 3))
            term = np.empty((min(len(ss), DE_CASTELJAU_ROWS), 3))
            for start in range(0, len(ss), DE_CASTELJAU_ROWS):
                block = slice(start, start + DE_CASTELJAU_ROWS)
                self._evaluate_block(ss[block], deriv, out[block], term)
            return out

    def _evaluate_block(self, ss, deriv: bool, out: np.ndarray, term: np.ndarray) -> None:
        """_evaluate for polyline and catmull_rom on one block, into out.

        In place, with term as scratch: the same products as the plain
        expressions, summed in the same order, so the same bits.
        """
        idx, u = self._locate(ss)
        term = term[:len(ss)]
        if self.kind == "polyline":
            np.take(self._diffs, idx, axis=0, out=out)
            if deriv:
                out *= self.n_segments
            else:
                out *= u[:, None]
                out += np.take(self._starts, idx, axis=0, out=term)
            return
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
        """positions and tangents at grid(samples); for bezier both come
        from one de Casteljau pass, with the bits of the two calls."""
        ss = self.grid(samples)
        if self.kind == "bezier":
            with np.errstate(over="ignore", invalid="ignore"):
                return _de_casteljau(self._control, ss)
        return self.positions(ss), self.tangents(ss)

    def arc_length(self, s0: float = 0.0, s1: float = 1.0) -> float:
        """Arc length between two global parameters.

        Polyline lengths are exact chord sums.  Bezier and catmull_rom
        integrate |dP/ds| by adaptive Gauss-Lobatto quadrature to
        ARC_LENGTH_REL_TOL relative or ARC_LENGTH_ABS_TOL absolute, split at
        the catmull_rom segment knots and wherever a coordinate of dP/ds
        changes sign.  Raises ArcLengthError if the speed overflows or the
        subdivision exceeds its bounds.
        """
        s0, s1 = float(s0), float(s1)
        if not (math.isfinite(s0) and math.isfinite(s1)) or not 0.0 <= s0 <= s1 <= 1.0:
            raise ValueError(f"need 0 <= s0 <= s1 <= 1, got ({s0!r}, {s1!r})")
        if s0 == s1:
            return 0.0

        if self.kind == "polyline":
            chord = _row_norms(self._diffs)
            x0, x1 = s0 * self.n_segments, s1 * self.n_segments
            i0 = min(int(math.floor(x0)), self.n_segments - 1)
            i1 = min(int(math.floor(x1)), self.n_segments - 1)
            if i0 == i1:
                return float(chord[i0] * (x1 - x0))
            total = chord[i0] * (i0 + 1 - x0) + chord[i1] * (x1 - i1)
            total += chord[i0 + 1:i1].sum()
            return float(total)

        inner = self._speed_kinks()
        if self.kind == "catmull_rom":
            inner = np.concatenate((np.arange(1, self.n_segments) / self.n_segments, inner))
        cuts = np.unique(np.concatenate(([s0, s1], inner[(inner > s0) & (inner < s1)])))
        speeds = lambda ss: _row_norms(self.tangents(ss))
        return _adaptive_lobatto(speeds, cuts[:-1], cuts[1:])

    def _speed_kinks(self) -> np.ndarray:
        """Global parameters where a coordinate of dP/ds changes sign.

        |dP/ds| can only have a kink (a cusp of the curve) where every
        coordinate of dP/ds is zero, and a narrow dip only near such a
        zero, so splitting the quadrature here puts each kink and dip at
        an interval end, where a Lobatto node samples it.
        Catmull-rom coordinates are quadratics per segment, solved in
        closed form; bezier coordinates are one polynomial of degree N-2,
        interpolated at Chebyshev points and solved by its colleague
        matrix.  Roots may be approximate: a cut near a kink is enough.
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
        degree = len(self.keypoints) - 2
        x = np.polynomial.chebyshev.chebpts1(degree + 1)
        tan = self.tangents((x + 1.0) / 2.0)
        if degree < 1 or not np.all(np.isfinite(tan)):
            return np.empty(0)  # no roots, or a speed the quadrature rejects
        roots = np.concatenate([  # each coordinate scaled to 1, so the fit cannot overflow
            np.polynomial.Chebyshev.fit(x, coord / np.abs(coord).max(), degree,
                                        domain=[-1.0, 1.0]).roots()
            for coord in tan.T if coord.any()
        ] + [np.empty(0)])
        u = (roots.real[np.abs(roots.imag) <= 1e-6] + 1.0) / 2.0
        return u[(u > 0.0) & (u < 1.0)]

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


def _lobatto(speeds, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Gauss-Lobatto integrals of speeds over each interval [lo, hi].

    All intervals are evaluated in one speeds call.  The end nodes are set
    to lo and hi exactly, so rounding never takes a node out of [0, 1].
    """
    if len(lo) > ARC_LENGTH_MAX_INTERVALS:
        raise ArcLengthError(
            f"arc length needs more than {ARC_LENGTH_MAX_INTERVALS} quadrature intervals")
    half = 0.5 * (hi - lo)
    nodes = (0.5 * (lo + hi))[:, None] + half[:, None] * _LOBATTO_NODES
    nodes[:, 0], nodes[:, -1] = lo, hi
    return half * (speeds(nodes.ravel()).reshape(nodes.shape) @ _LOBATTO_WEIGHTS)


def _adaptive_lobatto(speeds, lo: np.ndarray, hi: np.ndarray) -> float:
    """Integral of speeds over the adjacent intervals [lo[i], hi[i]], summed.

    Adaptive bisection after Guenter & Parent, "Computing the arc length of
    parametric curves" (IEEE CG&A 1990), one level at a time.  Every
    pending interval's estimate is compared with the sum of its two halves.
    An interval of width w is accepted with the halves' sum when that
    difference is at most max(ARC_LENGTH_ABS_TOL, ARC_LENGTH_REL_TOL * L)
    * w / W, where L is the current estimate of the whole integral and W
    the whole width, so the accepted differences add up to at most the
    tolerance of the whole range; the rest are halved again.  Each level
    costs one speeds call over all pending intervals.

    The rule is Lobatto, not Gauss-Legendre, because its nodes include the
    interval's ends.  Near-cusps sit at the cuts, so at interval ends, and
    a Gauss-Legendre rule, whose outer nodes stop short of the ends, can
    miss one in the whole and in both halves alike.
    """
    span = hi[-1] - lo[0]
    whole = _lobatto(speeds, lo, hi)
    total = 0.0
    for _ in range(ARC_LENGTH_MAX_DEPTH):
        mid = 0.5 * (lo + hi)
        n = len(lo)
        halves = _lobatto(speeds, np.concatenate((lo, mid)), np.concatenate((mid, hi)))
        left, right = halves[:n], halves[n:]
        both = left + right
        estimate = total + float(both.sum())
        if not math.isfinite(estimate):  # checked at once: NaN never converges
            raise ArcLengthError("arc length: the curve speed overflows (coordinates too large)")
        # A subnormal span can overflow the budget to inf, which accepts
        # every interval: the span is then below the tolerance / 1.8e308, so
        # at a finite speed the whole length is below the tolerance too.
        with np.errstate(over="ignore"):
            budget = max(ARC_LENGTH_ABS_TOL, ARC_LENGTH_REL_TOL * estimate) / span
        done = np.abs(both - whole) <= budget * (hi - lo)
        total += float(both[done].sum())
        if done.all():
            return total
        todo = ~done
        lo = np.concatenate((lo[todo], mid[todo]))
        hi = np.concatenate((mid[todo], hi[todo]))
        whole = np.concatenate((left[todo], right[todo]))
    raise ArcLengthError(
        f"arc length did not converge within {ARC_LENGTH_MAX_DEPTH} interval halvings")


def _de_casteljau(control: np.ndarray, u: np.ndarray):
    """Evaluate a Bezier curve and its derivative by de Casteljau recursion.

    Returns (positions, derivatives), each (len(u), 3), for control points
    of shape (n+1, 3) evaluated at parameters u in [0, 1].  The parameters
    are processed in blocks of DE_CASTELJAU_ROWS; rows are independent, so
    the blocking does not change any result bit.

    The working array is point-major, (n+1, rows, 3), and each recursion
    step overwrites it with (1-w)*a + w*b, computed as w*b into a scratch
    array, then a *= (1-w) and a += w*b: the same products and sum, so the
    same bits.  The working, scratch and weight arrays are allocated once
    and reused by every block.
    """
    n = len(control) - 1
    pos = np.empty((len(u), 3))
    deriv = np.empty((len(u), 3))
    if n < 1:
        pos[:] = control[0]
        deriv[:] = 0.0
        return pos, deriv
    rows = max(1, min(len(u), DE_CASTELJAU_ROWS))
    b_buf = np.empty((n + 1) * rows * 3)
    scratch_buf = np.empty(n * rows * 3)
    # Weights as full (rows, 3) rows: broadcasting them over a length-3
    # axis is several times slower.
    w_buf = np.empty(rows * 3)
    one_minus_w_buf = np.empty(rows * 3)
    for start in range(0, len(u), rows):
        block = slice(start, start + rows)
        r = min(rows, len(u) - start)
        b = b_buf[:(n + 1) * r * 3].reshape(n + 1, r, 3)
        scratch = scratch_buf[:n * r * 3].reshape(n, r, 3)
        w = w_buf[:r * 3].reshape(r, 3)
        one_minus_w = one_minus_w_buf[:r * 3].reshape(r, 3)
        b[:] = control[:, None, :]
        w[:] = u[block, None]
        np.subtract(1.0, w, out=one_minus_w)
        for step in range(n - 1):
            m = n - step
            np.multiply(w, b[1:m + 1], out=scratch[:m])
            b[:m] *= one_minus_w
            b[:m] += scratch[:m]
        np.subtract(b[1], b[0], out=deriv[block])
        deriv[block] *= n
        np.multiply(one_minus_w, b[0], out=pos[block])
        np.multiply(w, b[1], out=scratch[0])
        pos[block] += scratch[0]
    return pos, deriv
