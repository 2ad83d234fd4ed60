"""Loop permutations against an enclosure oracle.

Hypothesis draws polygons in a (zeta, xi) slice with one vertex at the
origin, orders the vertices counter-clockwise about their centroid and
keeps 0.05 clear of every EP of the slice (``oracles.slice_zeros``).  The
loop starts and ends at the origin.

The oracle cuts the plane along a ray from each in-domain EP away from the
origin.  On the cut plane each band is one analytic sheet, and crossing an
EP's cut exchanges two sheets, always the same two.  So a loop's
permutation is the product of those transpositions in the order the loop
crosses the cuts, and an EP is enclosed when the loop crosses its cut an
odd number of times (ray casting).  Enclosing no EP gives the identity,
one EP a transposition, and both a 3-cycle, which of the two set by the
order of the crossings: at eta = 0.33, 312 when the loop crosses the
negative EP's cut first, 231 when it crosses the positive one's first.
The discriminant's exact winding counts the enclosed EPs.
"""
import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from eptriad.loops import interpolate_loop
from eptriad.model import ParamPoint
from eptriad.permutations import PermutationElement, compose
from eptriad.transport import root_winding, transport
from oracles import slice_zeros

# (eta, g): the transpositions of the cuts of the EP with zeta > 0 and of the one with zeta < 0
SLICES = {
    (0.33, 0.61): ("213", "132"),
    (0.0, 0.61): ("132", "321"),        # the slice of the mu2 preset
    (0.2, -0.4): ("132", "213"),
}
CLEARANCE = 0.05

# a 0.05 grid: Hypothesis draws its points about evenly, and no edge is too short to square
coordinate = st.sampled_from([k / 20 for k in range(-20, 21)])
# both EPs of every slice enclosed, the loop crossing the positive EP's cut first, then the negative one's first
BOTH_POSITIVE_FIRST = [(0.9, -0.9), (0.8, 1.0), (-0.8, 1.0), (-0.9, -0.9)]
BOTH_NEGATIVE_FIRST = [(-0.9, 0.9), (-0.8, -1.0), (0.8, -1.0), (0.9, 0.9)]


def slice_eps(eta: float, g: float) -> np.ndarray:
    """(zeta, xi) of the slice's in-domain EPs, the one with zeta > 0 first."""
    b = slice_zeros(eta, g)
    b = b[np.maximum(abs(b.real), abs(b.imag)) <= 1.5]
    return np.array(sorted(zip(b.imag, b.real), reverse=True))


def cut_crossings(polygon: np.ndarray, eps: np.ndarray) -> list[int]:
    """Indices of the EPs whose cuts the closed ``polygon`` crosses, in order."""
    crossed = []
    for k, e in enumerate(eps):
        d = e / np.linalg.norm(e)
        # each vertex's distance along the cut's line, and its side of that line
        u, v = ((polygon - e) @ np.array([d, (-d[1], d[0])]).T).T
        u1, v1 = np.roll(u, -1), np.roll(v, -1)
        # s, where the edge meets the line, is finite on the edges that cross it
        with np.errstate(divide="ignore", invalid="ignore"):
            s = v / (v - v1)
            hit = ((v >= 0) != (v1 >= 0)) & (u + s * (u1 - u) > 0)
        crossed += [(i + s[i], k) for i in np.flatnonzero(hit)]
    return [k for _, k in sorted(crossed)]


def clearance(polygon: np.ndarray, eps: np.ndarray) -> float:
    a, ab = polygon, np.roll(polygon, -1, axis=0) - polygon
    t = np.clip(np.einsum("ekj,kj->ek", eps[:, None] - a, ab) / np.einsum("kj,kj->k", ab, ab), 0, 1)
    return float(np.min(np.linalg.norm(eps[:, None] - (a + t[..., None] * ab), axis=-1)))


def drawn_polygon(eta, g, vertices):
    """The origin and the drawn vertices ordered counter-clockwise about their
    centroid, starting at the origin, and the slice's EPs; Hypothesis
    rejects a draw without a clear order or that comes too close to an EP."""
    points = np.array([(0.0, 0.0), *vertices])
    centroid = points.mean(axis=0)
    angles = np.arctan2(*(points - centroid).T[::-1])
    assume(len(np.unique(angles)) == len(points) and np.min(np.hypot(*(points - centroid).T)) > 1e-6)
    order = np.argsort(angles)
    polygon = np.roll(points[order], -int(np.flatnonzero(order == 0)[0]), axis=0)
    eps = slice_eps(eta, g)
    assume(clearance(polygon, eps) >= CLEARANCE)
    return polygon, eps


@pytest.mark.parametrize("eta, g", list(SLICES))
@settings(max_examples=80, deadline=None)
@given(vertices=st.lists(st.tuples(coordinate, coordinate), min_size=2, max_size=4, unique=True))
@example(vertices=BOTH_POSITIVE_FIRST)
@example(vertices=BOTH_NEGATIVE_FIRST)
def test_permutation_is_the_product_of_the_crossed_cuts(eta, g, vertices):
    polygon, eps = drawn_polygon(eta, g, vertices)
    crossed = cut_crossings(polygon, eps)
    want = PermutationElement.identity()
    for k in crossed:
        want = compose(PermutationElement.from_string(SLICES[eta, g][k]), want)
    enclosed = sum(crossed.count(k) % 2 for k in range(len(eps)))
    waypoints = [ParamPoint(eta, z, x, g) for z, x in [*polygon, polygon[0]]]
    result = transport(interpolate_loop(waypoints, steps_per_segment=64))
    assert result.reliable
    assert result.permutation.as_string() == want.as_string()
    assert result.permutation.order() == (1, 2, 3)[enclosed]


@pytest.mark.parametrize("eta, g", list(SLICES))
@settings(max_examples=200, deadline=None)
@given(vertices=st.lists(st.tuples(coordinate, coordinate), min_size=2, max_size=4, unique=True))
@example(vertices=BOTH_POSITIVE_FIRST)
@example(vertices=BOTH_NEGATIVE_FIRST)
def test_exact_winding_counts_the_enclosed_eps(eta, g, vertices):
    """The discriminant is a polynomial in xi + i zeta with a simple zero at
    each EP of the slice, so the exact winding (from each segment's roots)
    is minus the number of EPs the loop encloses: (zeta, xi) to xi + i zeta
    reverses the orientation."""
    polygon, eps = drawn_polygon(eta, g, vertices)
    crossed = cut_crossings(polygon, eps)
    enclosed = sum(crossed.count(k) % 2 for k in range(len(eps)))
    loop = interpolate_loop([ParamPoint(eta, z, x, g) for z, x in [*polygon, polygon[0]]], steps_per_segment=8)
    assert abs(root_winding(loop.roots) + enclosed) < 1e-9
