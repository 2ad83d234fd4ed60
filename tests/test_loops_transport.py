from dataclasses import replace

import numpy as np
import pytest

from conftest import circular_distance
from eptriad.errors import AmbiguousMatch, AnchorMismatch, NonUnimodularDeterminant, PathTouchesEP
from eptriad.loops import (
    PRESET_NAMES,
    concat_loops,
    interpolate_loop,
    preset_loop,
    preset_waypoints,
    reverse_loop,
)
from eptriad.model import ParamPoint, discriminant_roots, discriminant_values, eigensystem, eigensystems
from eptriad.permutations import element, identify, to_matrix
from eptriad.transport import (
    DEFAULT_OVERLAP_FLOOR,
    eigenvalue_vorticity,
    match_assignment,
    root_winding,
    transport,
    transport_eigensystems,
)
from oracles import berry_phase

G = 0.61
PI = np.pi


def pattern_close(u, perm_label, tol=0.05):
    return np.max(np.abs(np.abs(u) - to_matrix(element(perm_label)))) < tol


class TestLoopConstruction:
    def test_step_count(self):
        wps = preset_waypoints("rho1")
        assert len(wps) == 17
        loop = interpolate_loop(wps, 10)
        assert loop.n_steps == 161

    def test_mu2_table_closes(self):
        wps = preset_waypoints("mu2")
        assert len(wps) == 9
        assert wps[0] == wps[-1]

    def test_two_waypoints_rejected(self):
        a, b = ParamPoint(0.33, 0, 0, G), ParamPoint(0.33, 0.5, 0, G)
        with pytest.raises(ValueError):
            interpolate_loop([a, b, a], 10)

    def test_open_path_rejected(self):
        pts = [ParamPoint(0.33, z, x, G) for z, x in ((0, 0), (0.1, 0), (0.1, 0.1), (0, 0.1))]
        with pytest.raises(ValueError):
            interpolate_loop(pts, 10)

    def test_minimum_step_count(self):
        pts = [ParamPoint(0.33, z, x, G) for z, x in ((0, 0), (0.1, 0), (0.1, 0.1), (0, 0))]
        with pytest.raises(ValueError):
            interpolate_loop(pts, 2)       # 3 segments x 2 + 1 = 7 < 8
        assert interpolate_loop(pts, 3).n_steps == 10

    def test_mixed_g_rejected(self):
        pts = [
            ParamPoint(0.33, 0, 0, G),
            ParamPoint(0.33, 0.1, 0, 0.5),
            ParamPoint(0.33, 0.1, 0.1, G),
            ParamPoint(0.33, 0, 0, G),
        ]
        with pytest.raises(ValueError):
            interpolate_loop(pts, 10)

    def test_path_through_ep_rejected(self):
        from eptriad.locate import refine_ep

        ep = refine_ep(ParamPoint(0.33, 0.54, 0.40, G)).point
        z, x = ep.zeta, ep.xi
        pts = [
            ParamPoint(0.33, zz, xx, G)
            for zz, xx in ((z - 0.1, x), (z, x), (z + 0.1, x), (z, x + 0.1), (z - 0.1, x))
        ]
        with pytest.raises(PathTouchesEP):
            interpolate_loop(pts, 4)

    def test_concat_requires_shared_anchor(self):
        mu1 = preset_loop("mu1", 20)
        shifted = interpolate_loop(
            [replace(p, zeta=p.zeta + 0.05) for p in preset_waypoints("mu3")], 20
        )
        with pytest.raises(AnchorMismatch):
            concat_loops(mu1, shifted)


class TestCanonicalScenarios:
    def test_generators(self, canonical_transports):
        r1, r3 = canonical_transports["mu1"], canonical_transports["mu3"]
        assert r1.permutation.as_string() == "132"
        assert r3.permutation.as_string() == "213"
        assert pattern_close(r1.holonomy, "mu1")
        assert pattern_close(r3.holonomy, "mu3")
        assert circular_distance(r1.berry_phase, -PI) < 1e-3
        assert circular_distance(r3.berry_phase, -PI) < 1e-3

    def test_three_cycles(self, canonical_transports):
        rr1, rr2 = canonical_transports["rho1"], canonical_transports["rho2"]
        assert rr1.permutation.as_string() == "231"
        assert rr2.permutation.as_string() == "312"
        assert pattern_close(rr1.holonomy, "rho1")
        assert pattern_close(rr2.holonomy, "rho2")
        assert circular_distance(rr1.berry_phase, 0.0) < 1e-3
        assert circular_distance(rr2.berry_phase, 0.0) < 1e-3
        assert rr1.permutation != rr2.permutation

    def test_outer_swap(self, canonical_transports):
        r2 = canonical_transports["mu2"]
        assert r2.permutation.as_string() == "321"
        assert pattern_close(r2.holonomy, "mu2")
        assert circular_distance(r2.berry_phase, -PI) < 1e-3

    def test_big_loop_cycles(self, canonical_transports):
        rb = canonical_transports["big"]
        assert rb.permutation.order() == 3

    def test_non_enclosing_loop_trivial(self):
        pts = [ParamPoint(0.33, z, x, G) for z, x in ((0.02, 0.02), (0.1, 0.02), (0.1, 0.1), (0.02, 0.1), (0.02, 0.02))]
        res = transport(interpolate_loop(pts, 40))
        assert res.permutation.as_string() == "123"
        assert res.min_overlap > 0.99
        assert res.permutation.order() == 1
        assert pattern_close(res.holonomy, "e")
        assert abs(res.disc_winding) < 1e-3
        for pair in ((1, 2), (1, 3), (2, 3)):
            assert abs(eigenvalue_vorticity(res, pair)) < 1e-3

    def test_reliability_and_determinant(self, canonical_transports):
        for res in canonical_transports.values():
            assert res.reliable and res.min_overlap > 0.9
            det = np.linalg.det(res.holonomy)
            assert abs(abs(det) - 1.0) < 1e-6
            assert np.max(np.abs(res.holonomy.conj().T @ res.holonomy - np.eye(3))) < 1e-6

    def test_canonical_nabp_is_pattern(self, canonical_transports):
        r1 = canonical_transports["mu1"]
        assert np.array_equal(to_matrix(r1.permutation).astype(complex), to_matrix(element("mu1")).astype(complex))


class TestBerryPhaseFunction:
    def test_printed_swap_matrix(self):
        assert np.isclose(berry_phase(to_matrix(element("mu1"))), -PI)

    def test_identity(self):
        assert berry_phase(np.eye(3)) == 0.0

    def test_printed_cycle_matrix(self):
        assert np.isclose(berry_phase(to_matrix(element("rho1"))), 0.0)

    def test_non_unimodular_rejected(self):
        with pytest.raises(NonUnimodularDeterminant):
            berry_phase(np.diag([2.0, 1.0, 1.0]))


class TestComposition:
    def test_concat_matches_matrix_product(self, canonical_transports):
        mu1 = preset_loop("mu1", 128)
        mu3 = preset_loop("mu3", 128)
        res = transport(concat_loops(mu1, mu3))     # mu3 first
        assert res.permutation.as_string() == "231"
        u1 = canonical_transports["mu1"].holonomy
        u3 = canonical_transports["mu3"].holonomy
        assert np.max(np.abs(np.abs(res.holonomy) - np.abs(u1 @ u3))) < 0.05

    def test_reverse_order(self):
        mu1 = preset_loop("mu1", 128)
        mu3 = preset_loop("mu3", 128)
        res = transport(concat_loops(mu3, mu1))     # mu1 first
        assert res.permutation.as_string() == "312"

    def test_double_traversal_restores(self):
        mu1 = preset_loop("mu1", 200)
        res2 = transport(concat_loops(mu1, mu1))
        assert res2.permutation.as_string() == "123"
        single = transport(mu1)
        assert circular_distance(res2.berry_phase, 2 * single.berry_phase) < 1e-3
        # the swapped pair picks up a pi phase over the double loop
        diag = np.angle(np.diag(res2.holonomy))
        assert circular_distance(diag[1], PI) < 1e-2
        assert circular_distance(diag[2], PI) < 1e-2


class TestInvariances:
    def test_step_doubling(self):
        a = transport(preset_loop("mu1", 160))
        b = transport(preset_loop("mu1", 320))
        assert a.permutation == b.permutation
        assert np.max(np.abs(np.abs(a.holonomy) - np.abs(b.holonomy))) < 0.05
        assert circular_distance(a.berry_phase, b.berry_phase) < 1e-3

    def test_gauge_invariance(self):
        loop = preset_loop("mu1", 200)
        stack = eigensystems(loop.params)
        base = transport_eigensystems(stack)

        rng = np.random.default_rng(5)
        phases = np.exp(1j * rng.uniform(0, 2 * np.pi, 3))
        # re-phase the anchor frame, which closes the loop too
        right, left = stack.right_vectors.copy(), stack.left_vectors.copy()
        right[[0, -1]] = right[0] * phases[None, :]
        left[[0, -1]] = left[0] / phases[:, None]
        alt = transport_eigensystems(replace(stack, right_vectors=right, left_vectors=left))
        assert alt.permutation == base.permutation
        assert np.max(np.abs(np.abs(alt.holonomy) - np.abs(base.holonomy))) < 1e-9
        assert abs(np.linalg.det(alt.holonomy) - np.linalg.det(base.holonomy)) < 1e-9
        assert circular_distance(alt.berry_phase, base.berry_phase) < 1e-9

    def test_reversal(self):
        loop = preset_loop("mu1", 200)
        fwd = transport(loop)
        rev = transport(reverse_loop(loop))
        # a transposition is its own inverse
        assert rev.permutation == fwd.permutation.inverse() == fwd.permutation
        prod = np.abs(rev.holonomy @ fwd.holonomy)
        assert np.max(np.abs(prod - np.eye(3))) < 0.05

    def test_reversal_of_cycle(self):
        loop = preset_loop("rho1", 128)
        fwd = transport(loop)
        rev = transport(reverse_loop(loop))
        assert rev.permutation == fwd.permutation.inverse()
        assert identify(rev.permutation) == "rho2"

    def test_homotopy_two_rectangles(self):
        """Two different rectangles around the same arc crossing agree."""
        small = [(-0.35, -0.25), (-0.75, -0.25), (-0.75, -0.55), (-0.35, -0.55), (-0.35, -0.25)]
        loops = [preset_loop("mu1", 200)]
        loops.append(
            interpolate_loop([ParamPoint(0.33, z, x, G) for z, x in small], 200, label="alt")
        )
        results = [transport(lp) for lp in loops]
        assert results[0].permutation == results[1].permutation
        assert circular_distance(results[0].berry_phase, results[1].berry_phase) < 1e-3


class TestVorticity:
    def test_half_winding_for_swapped_pair(self, canonical_transports):
        res = canonical_transports["mu1"]
        assert abs(abs(eigenvalue_vorticity(res, (2, 3))) - 0.5) < 1e-3
        assert abs(abs(res.disc_winding) - 1.0) < 1e-3

    def test_cycle_loops_same_vorticity_multiset(self, canonical_transports):
        r1, r2 = canonical_transports["rho1"], canonical_transports["rho2"]
        v1 = sorted(eigenvalue_vorticity(r1, p) for p in ((1, 2), (1, 3), (2, 3)))
        v2 = sorted(eigenvalue_vorticity(r2, p) for p in ((1, 2), (1, 3), (2, 3)))
        assert np.allclose(v1, v2, atol=5e-3)
        assert abs(r1.disc_winding - r2.disc_winding) < 1e-3

    def test_winding_sum_is_half_disc_winding(self, canonical_transports):
        for res in canonical_transports.values():
            s = sum(eigenvalue_vorticity(res, p) for p in ((1, 2), (1, 3), (2, 3)))
            assert abs(s - res.disc_winding / 2) < 1e-3


@pytest.mark.kernels
class TestDiscriminantRoots:
    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_exact_winding_equals_the_finely_sampled_winding(self, name):
        """The winding from each segment's roots against the phase sum of the
        discriminant sampled at 1000 steps per segment."""
        loop = preset_loop(name, 1000)
        disc = discriminant_values(*loop.params.T)
        sampled = np.angle(disc[1:] / disc[:-1]).sum() / (2 * PI)
        assert abs(root_winding(loop.roots) - sampled) < 1e-9
        assert round(sampled) == (-1 if name.startswith("mu") else -2)

    def test_a_zero_leading_coefficient_lowers_the_degree(self, monkeypatch):
        """On a segment at fixed eta and g the discriminant has degree 4 in t;
        with its two top coefficients exactly 0, the roots are those of the
        degree-4 polynomial, and the rest are inf."""
        import eptriad.model as model

        ends = np.array([p.as_array() for p in preset_waypoints("mu1")])
        want = discriminant_roots(ends)
        inverse = model._INV_VANDERMONDE.copy()
        inverse[5:] = 0.0
        monkeypatch.setattr(model, "_INV_VANDERMONDE", inverse)
        got = discriminant_roots(ends)
        assert np.isinf(got[:, 4:]).all() and np.isfinite(got[:, :4]).all() and np.isfinite(want).all()
        assert abs(root_winding(got) - root_winding(want)) < 1e-12
        gaps = [np.abs(r - np.clip(r.real, 0, 1)).min(axis=1) for r in (got, want)]
        assert np.allclose(*gaps, rtol=1e-9, atol=0)


class TestExchangeDecomposition:
    """The outer-pair-swap loop (mu2) shifted off the eta = 0 plane.

    At eta = 0.055 the single merged crossing splits into three separate
    branch-cut crossings whose transpositions compose to the same net
    exchange of bands 1 and 3; at eta = 0 the crossings merge.
    """

    @staticmethod
    def shifted_mu2(eta: float):
        return transport(preset_loop("mu2", steps_per_segment=200, eta=eta))

    def test_shifted_plane_has_three_crossings(self):
        res = self.shifted_mu2(0.055)
        assert res.n_exchanges == 3
        assert res.permutation.as_string() == "321"
        # lower pair, upper pair, lower pair: the generator chain of the swap
        assert [e.swapped_ranks for e in res.events] == [(0, 1), (1, 2), (0, 1)]

    def test_crossings_merge_at_zero(self):
        res = self.shifted_mu2(0.0)
        assert res.permutation.as_string() == "321"
        assert res.n_exchanges == 1
        assert [e.swapped_ranks for e in res.events] == [(0, 2)]

    def test_far_plane_gives_different_outcome(self):
        """At eta = 0.33 the same (zeta, xi) loop no longer swaps bands 1, 3."""
        assert self.shifted_mu2(0.33).permutation.as_string() != "321"


class TestErrorPaths:
    @staticmethod
    def frames(n):
        """The eigensystem stack of one point repeated n times."""
        return eigensystems(np.repeat([[0.33, 0.1, 0.1, G]], n, axis=0))

    def test_ambiguous_match_raises_without_refinement(self):
        stack = self.frames(3)
        # rotate two right vectors of the middle frame by 45 degrees so both assignments tie
        right, left = stack.right_vectors.copy(), stack.left_vectors.copy()
        mix = np.array([[1, -1], [1, 1]]) / np.sqrt(2)
        right[1, :, 1:] = right[1, :, 1:] @ mix
        left[1] = np.linalg.inv(right[1])
        with pytest.raises(AmbiguousMatch):
            transport_eigensystems(replace(stack, right_vectors=right, left_vectors=left))

    def test_singular_final_frame_raises(self):
        stack = self.frames(4)
        right = stack.right_vectors.copy()
        right[3, :, 2] = 0.0
        with pytest.raises(NonUnimodularDeterminant):
            transport_eigensystems(replace(stack, right_vectors=right))


@pytest.mark.kernels
class TestRootRefinement:
    """A thin triangle at g = -0.4 that passes close to an exceptional arc.
    Sampled as given, at 3 to 5 steps per segment, it steps over its
    exchange or has ambiguous steps; transport first inserts midpoints until
    each step is no longer, in t, than its distance to the nearest root of
    its segment's discriminant, and every step count then gives the
    permutation (2 1 3) of the fine loop."""

    G = -0.4
    CORNERS = [(-0.152923, 0.383999, -0.371626), (-0.194721, 0.442178, -0.505061), (-0.139757, 0.477862, -0.424061)]

    def loop(self, steps_per_segment):
        wps = [ParamPoint(*c, self.G) for c in self.CORNERS]
        return interpolate_loop(wps + wps[:1], steps_per_segment)

    @pytest.mark.parametrize("steps_per_segment", [3, 4, 5, 6, 10, 64, 200])
    def test_every_step_count_is_reliable_with_the_exchange(self, steps_per_segment):
        loop = self.loop(steps_per_segment)
        res = transport(loop)
        assert res.permutation.as_string() == "213"
        assert res.reliable and res.min_overlap > DEFAULT_OVERLAP_FLOOR
        assert abs(res.disc_winding + 1) < 1e-12
        assert res.tracked_eigenvalues.shape[0] > loop.n_steps

    @pytest.mark.parametrize("steps_per_segment", [3, 4])
    def test_the_unrefined_steps_miss_the_exchange(self, steps_per_segment):
        """Every margin and overlap clears its bound, but the even (1 2 3)
        disagrees with the discriminant's odd winding."""
        loop = self.loop(steps_per_segment)
        res = transport_eigensystems(eigensystems(loop.params), roots=loop.roots)
        assert res.permutation.as_string() == "123"
        assert res.min_overlap > DEFAULT_OVERLAP_FLOOR
        assert not res.reliable

    def test_the_unrefined_steps_are_refused(self):
        with pytest.raises(AmbiguousMatch):
            transport_eigensystems(eigensystems(self.loop(5).params))

    def test_the_winding_reads_the_loops_roots(self):
        """Transport takes the loop's winding from the roots of its waypoint
        segments, whatever its steps; the polygon of its steps winds alike."""
        coarse, fine = self.loop(3), self.loop(200)
        assert np.array_equal(coarse.roots, fine.roots)
        assert transport(coarse).disc_winding == transport(fine).disc_winding == root_winding(fine.roots)
        assert abs(root_winding(discriminant_roots(fine.params)) + 1) < 1e-12


class TestMatchAssignment:
    def test_returns_overlap_matrix(self):
        a = eigensystem(ParamPoint(0.33, 0.1, 0.1, G))
        b = eigensystem(ParamPoint(0.33, 0.11, 0.1, G))
        assign, overlap, margin = match_assignment(a, b)
        assert assign == (0, 1, 2)
        assert np.array_equal(overlap, a.left_vectors @ b.right_vectors)
        assert 1.5 < margin <= 2.0 + 1e-9

    def test_transport_logs_the_matched_overlaps(self):
        loop = preset_loop("mu1", 16)
        res = transport(loop)
        assert res.step_overlaps.shape == (loop.n_steps - 1, 3)
        assert res.tracked_eigenvalues.shape[0] == loop.n_steps       # no step was bisected
        assert res.step_overlaps.min() == res.min_overlap
        frames = eigensystems(loop.params, exact=[0, -1])         # the frames transport solves
        systems = [frames.row(l) for l in range(len(frames))]
        for a, b, matched in zip(systems[:-1], systems[1:], res.step_overlaps):
            assign, overlap, _ = match_assignment(a, b)
            # the same three entries, one per row and column, in tracked order
            want = np.abs(overlap[[0, 1, 2], assign])
            assert np.allclose(np.sort(matched), np.sort(want), rtol=0, atol=1e-15)


def _cycles(image):
    """The cycles of a permutation given as its image, each from its smallest band."""
    cycles, seen = [], set()
    for start in (1, 2, 3):
        cycle, j = [], start
        while j not in seen:
            seen.add(j)
            cycle.append(j)
            j = image[j - 1]
        if cycle:
            cycles.append(tuple(cycle))
    return cycles


#: limits, as N grows, of N x the phase deviation of each cycle's product
#: (N steps per segment; measured on N = 64 ... 400, they move by at most 1e-4)
CYCLE_PHASE_LIMITS = {
    "mu1": {(1,): -0.0029, (2, 3): -0.1564},
    "mu2": {(1, 3): 0.0088, (2,): 0.0008},
    "mu3": {(1, 2): 0.0928, (3,): -0.0002},
    "rho1": {(1, 3, 2): -0.0668},
    "rho2": {(1, 2, 3): 0.0007},
    "big": {(1, 3, 2): -0.3136},
}


class TestCyclePhases:
    """Per-cycle holonomy phases: an oracle for the phase compensation.

    Along each cycle of the permutation, the product of the on-pattern
    holonomy entries is anchor-gauge-invariant, and its phase tends to
    (length - 1) * pi: a fixed band to 0, a swapped pair to pi (the sign a
    band picks up by encircling an EP twice), a 3-cycle to 0.  The deviation
    shrinks as 1/N, so N x deviation must hold one signed limit across N.
    None of this depends on the last bits of the transport.
    """

    @staticmethod
    def scaled_deviations(name: str, n: int) -> dict[tuple[int, ...], float]:
        res = transport(preset_loop(name, n))
        image = res.permutation.image
        scaled = {}
        for cycle in _cycles(image):
            product = np.prod([res.holonomy[image[j - 1] - 1, j - 1] for j in cycle])
            dev = (np.angle(product) - (len(cycle) - 1) * PI + PI) % (2 * PI) - PI
            scaled[cycle] = n * dev
        return scaled

    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_deviation_shrinks_as_one_over_n_to_its_limit(self, name):
        coarse, fine = self.scaled_deviations(name, 64), self.scaled_deviations(name, 200)
        limits = CYCLE_PHASE_LIMITS[name]
        assert coarse.keys() == fine.keys() == limits.keys()
        for cycle, limit in limits.items():
            for scaled in (coarse[cycle], fine[cycle]):
                assert abs(scaled) < 0.5
                assert abs(scaled - limit) <= 1e-3, (cycle, scaled)
            assert abs(coarse[cycle] - fine[cycle]) <= 1e-3, cycle
