"""Closed-form DoF regions and per-scheme DoF values.

A region is stored dually as an ordered vertex list plus half-space
inequalities ``coeffs . d <= bound``; the two descriptions are
cross-checked at construction.  Every function takes its CSIT quality as
plain exponents, alpha for the current CSIT and, under quantized delayed
CSIT, beta for the feedback, each checked by ``channel.exponent``.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .channel import exponent

MEMBERSHIP_TOL = 1e-9


class Scheme(str, Enum):
    TDMA = "tdma"
    ZF = "zf"
    MAT = "mat"
    RS_ZF = "rszf"
    PROPOSED = "proposed"


@dataclass(frozen=True)
class DofRegion:
    """Convex polygon/polyhedron of achievable DoF tuples."""

    vertices: np.ndarray           # (k, dim), ordered (counterclockwise in 2-D)
    inequalities: tuple            # of (coeffs ndarray (dim,), bound float)

    @property
    def dim(self):
        return self.vertices.shape[1]

    def contains(self, point, tol=MEMBERSHIP_TOL):
        point = np.asarray(point, dtype=float)
        if point.shape != (self.dim,):
            raise ValueError(f"point of dimension {point.shape} in a {self.dim}-D region")
        return all(float(c @ point) <= b + tol for c, b in self.inequalities)

    def active_constraints(self, point, tol=MEMBERSHIP_TOL):
        point = np.asarray(point, dtype=float)
        return sum(1 for c, b in self.inequalities if abs(float(c @ point) - b) <= tol)


def _dedup_ordered(points, tol=1e-12):
    kept = []
    for p in points:
        p = tuple(float(v) for v in p)
        if not any(max(abs(a - b) for a, b in zip(p, q)) <= tol for q in kept):
            kept.append(p)
    return kept


def _make_region(vertices, inequalities):
    verts = np.array(_dedup_ordered(vertices), dtype=float)
    ineqs = tuple((np.asarray(c, dtype=float), float(b)) for c, b in inequalities)
    region = DofRegion(vertices=verts, inequalities=ineqs)
    _check_consistency(region)
    return region


def _check_consistency(region):
    # Every vertex must satisfy all inequalities and sit on at least `dim`
    # active constraints; failure means the dual descriptions drifted apart.
    for v in region.vertices:
        for c, b in region.inequalities:
            if float(c @ v) > b + MEMBERSHIP_TOL:
                raise AssertionError(f"vertex {v} violates inequality ({c}, {b})")
        if region.active_constraints(v) < region.dim:
            raise AssertionError(f"vertex {v} is not a corner of the inequality system")


def region_main(alpha):
    """Optimal (d1, d2) region with perfect delayed and imperfect current CSIT.

    Polygon {d >= 0, d1 <= 1, d2 <= 1, d1 + 2 d2 <= 2 + alpha,
    2 d1 + d2 <= 2 + alpha}; alpha above 1 is truncated to 1.
    """
    a = exponent(alpha)
    s = (2.0 + a) / 3.0
    vertices = [(0.0, 0.0), (1.0, 0.0), (1.0, a), (s, s), (a, 1.0), (0.0, 1.0)]
    inequalities = [
        ((1.0, 0.0), 1.0),
        ((0.0, 1.0), 1.0),
        ((1.0, 2.0), 2.0 + a),
        ((2.0, 1.0), 2.0 + a),
        ((-1.0, 0.0), 0.0),
        ((0.0, -1.0), 0.0),
    ]
    return _make_region(vertices, inequalities)


def region_common_message(alpha):
    """Optimal (d0, d1, d2) region when a common message is added.

    Polyhedron {d >= 0, d0 + d1 <= 1, d0 + d2 <= 1,
    2 d0 + d1 + 2 d2 <= 2 + alpha, 2 d0 + 2 d1 + d2 <= 2 + alpha}.
    """
    a = exponent(alpha)
    s = (2.0 + a) / 3.0
    vertices = [
        (0.0, 0.0, 0.0),
        (1.0, 0.0, 0.0),
        (0.0, 1.0, 0.0),
        (0.0, 0.0, 1.0),
        (0.0, 1.0, a),
        (0.0, a, 1.0),
        (0.0, s, s),
        (1.0 - a, a, a),
    ]
    inequalities = [
        ((1.0, 1.0, 0.0), 1.0),
        ((1.0, 0.0, 1.0), 1.0),
        ((2.0, 1.0, 2.0), 2.0 + a),
        ((2.0, 2.0, 1.0), 2.0 + a),
        ((-1.0, 0.0, 0.0), 0.0),
        ((0.0, -1.0, 0.0), 0.0),
        ((0.0, 0.0, -1.0), 0.0),
    ]
    return _make_region(vertices, inequalities)


def dof_scheme(scheme, alpha):
    """Symmetric per-user DoF achieved by a given transmission scheme."""
    a = exponent(alpha)
    scheme = Scheme(scheme)
    if scheme is Scheme.TDMA:
        return 0.5
    if scheme is Scheme.ZF:
        return a
    if scheme is Scheme.MAT:
        return 2.0 / 3.0
    if scheme is Scheme.RS_ZF:
        return (1.0 + a) / 2.0
    return (2.0 + a) / 3.0


def dof_imperfect_delayed(alpha, beta):
    """Achievable symmetric DoF and corner points under quantized delayed CSIT.

    ``alpha`` is the current-CSIT exponent and ``beta`` the exponent of the
    feedback quantization noise, both checked (and truncated to 1) by
    ``channel.exponent``; the prediction usable by the transmitter has the
    aggregated exponent alpha' = min(alpha, beta).  Returns ``(sym,
    corners)`` with sym = (1 + alpha' + beta) / 3 and corners [(1, alpha'),
    (alpha', 1)].  The output is achievable, not claimed optimal.
    """
    alpha, beta = exponent(alpha), exponent(beta, "beta")
    a_prime = min(alpha, beta)
    sym = (1.0 + a_prime + beta) / 3.0
    corners = [(1.0, a_prime), (a_prime, 1.0)]
    return sym, corners


def region_imperfect_delayed(alpha, beta):
    """Achievable (d1, d2) region under quantized delayed CSIT.

    Convex hull of the corner points, the symmetric point, and the
    single-user/axis points.
    """
    sym, corners = dof_imperfect_delayed(alpha, beta)
    points = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), corners[0], corners[1], (sym, sym)]
    hull = _convex_hull_2d(points)
    inequalities = _edge_inequalities(hull)
    return _make_region(hull, inequalities)


def _convex_hull_2d(points, eps=1e-12):
    """Andrew monotone chain; collinear boundary points are dropped."""
    pts = sorted(set((float(x), float(y)) for x, y in points))
    if len(pts) <= 2:
        return pts

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower = []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= eps:
            lower.pop()
        lower.append(p)
    upper = []
    for p in reversed(pts):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= eps:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]


def _edge_inequalities(hull):
    # Outward normal of each counterclockwise edge, scaled to unit max-norm.
    ineqs = []
    k = len(hull)
    for i in range(k):
        p = np.asarray(hull[i])
        q = np.asarray(hull[(i + 1) % k])
        t = q - p
        normal = np.array([t[1], -t[0]])
        normal = normal / np.max(np.abs(normal)) + 0.0  # + 0.0 turns -0.0 into 0.0
        ineqs.append((normal, float(normal @ p) + 0.0))
    return ineqs
