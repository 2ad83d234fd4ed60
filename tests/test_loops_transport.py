import numpy as np
import pytest

from conftest import circular_distance
from eptriad.errors import AmbiguousMatch, AnchorMismatch, NonUnimodularDeterminant, PathTouchesEP
from eptriad.loops import concat_loops, interpolate_loop, preset_loop, preset_waypoints, reverse_loop
from eptriad.model import ParamPoint, eigensystem
from eptriad.permutations import element, identify, to_matrix
from eptriad.transport import (
    berry_phase,
    canonical_nabp,
    cycles_to_identity,
    discriminant_winding,
    eigenvalue_vorticity,
    match_assignment,
    mu2_decomposition_run,
    nabp,
    transport,
    transport_eigensystems,
)

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
            [p.replace(zeta=p.zeta + 0.05) for p in preset_waypoints("mu3")], 20
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
        assert cycles_to_identity(rb) == 3
        assert rb.permutation.order() == 3

    def test_non_enclosing_loop_trivial(self):
        pts = [ParamPoint(0.33, z, x, G) for z, x in ((0.02, 0.02), (0.1, 0.02), (0.1, 0.1), (0.02, 0.1), (0.02, 0.02))]
        res = transport(interpolate_loop(pts, 40))
        assert res.permutation.as_string() == "123"
        assert res.min_overlap > 0.99
        assert cycles_to_identity(res) == 1
        assert pattern_close(res.holonomy, "e")
        assert abs(discriminant_winding(res)) < 1e-3
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
        assert np.array_equal(canonical_nabp(r1), to_matrix(element("mu1")).astype(complex))


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
        systems = [eigensystem(q) for q in loop.steps]
        base = transport_eigensystems(systems, refine=False)

        rng = np.random.default_rng(5)
        phases = np.exp(1j * rng.uniform(0, 2 * np.pi, 3))
        from dataclasses import replace

        anchor = systems[0]
        regauged = replace(
            anchor,
            right_vectors=anchor.right_vectors * phases[None, :],
            left_vectors=anchor.left_vectors / phases[:, None],
        )
        systems2 = [regauged] + systems[1:-1] + [regauged]
        alt = transport_eigensystems(systems2, refine=False)
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
        assert abs(abs(discriminant_winding(res)) - 1.0) < 1e-3

    def test_cycle_loops_same_vorticity_multiset(self, canonical_transports):
        r1, r2 = canonical_transports["rho1"], canonical_transports["rho2"]
        v1 = sorted(eigenvalue_vorticity(r1, p) for p in ((1, 2), (1, 3), (2, 3)))
        v2 = sorted(eigenvalue_vorticity(r2, p) for p in ((1, 2), (1, 3), (2, 3)))
        assert np.allclose(v1, v2, atol=5e-3)
        assert abs(discriminant_winding(r1) - discriminant_winding(r2)) < 1e-3

    def test_winding_sum_is_half_disc_winding(self, canonical_transports):
        for res in canonical_transports.values():
            s = sum(eigenvalue_vorticity(res, p) for p in ((1, 2), (1, 3), (2, 3)))
            assert abs(s - discriminant_winding(res) / 2) < 1e-3


class TestExchangeDecomposition:
    def test_shifted_plane_has_three_crossings(self):
        rep = mu2_decomposition_run(eta=0.055, steps_per_segment=200)
        assert rep.n_exchanges == 3
        assert rep.permutation == "321"
        # lower pair, upper pair, lower pair: the generator chain of the swap
        assert rep.swapped_rank_pairs == [(0, 1), (1, 2), (0, 1)]

    def test_crossings_merge_at_zero(self):
        rep = mu2_decomposition_run(eta=0.0, steps_per_segment=200)
        assert rep.permutation == "321"
        assert rep.n_exchanges == 1
        assert rep.swapped_rank_pairs == [(0, 2)]

    def test_far_plane_gives_different_outcome(self):
        """At eta = 0.33 the same (zeta, xi) loop no longer swaps bands 1, 3."""
        rep = mu2_decomposition_run(eta=0.33, steps_per_segment=200)
        assert rep.permutation != "321"


class TestErrorPaths:
    def test_ambiguous_match_raises_without_refinement(self):
        from dataclasses import replace

        es = eigensystem(ParamPoint(0.33, 0.1, 0.1, G))
        # rotate two right vectors by 45 degrees so both assignments tie
        v = es.right_vectors.copy()
        mix = np.array([[1, -1], [1, 1]]) / np.sqrt(2)
        v[:, 1:] = v[:, 1:] @ mix
        left = np.linalg.inv(v)
        rotated = replace(es, right_vectors=v, left_vectors=left)
        with pytest.raises(AmbiguousMatch):
            transport_eigensystems([es, rotated, es], refine=False)

    def test_singular_final_frame_raises(self):
        from dataclasses import replace

        es = eigensystem(ParamPoint(0.33, 0.1, 0.1, G))
        v = es.right_vectors.copy()
        v[:, 2] = 0.0
        singular = replace(es, right_vectors=v)
        with pytest.raises(NonUnimodularDeterminant):
            transport_eigensystems([es, es, es, singular], refine=False)

    def test_nabp_requires_reliable_result(self):
        res = transport(preset_loop("mu1", 200))
        assert nabp(res) is res.holonomy


class TestMatchAssignment:
    def test_returns_overlap_matrix(self):
        a = eigensystem(ParamPoint(0.33, 0.1, 0.1, G))
        b = eigensystem(ParamPoint(0.33, 0.11, 0.1, G))
        assign, overlap, margin = match_assignment(a, b)
        assert assign == (0, 1, 2)
        assert np.array_equal(overlap, a.left_vectors @ b.right_vectors)
        assert 1.5 < margin <= 2.0 + 1e-9

    def test_transport_logs_the_matched_overlaps(self):
        res = transport(preset_loop("mu1", 16))
        assert res.step_transfer.shape == (res.tracked_eigenvalues.shape[0] - 1, 3, 3)
        assert res.step_overlaps.min() == res.min_overlap
        for transfer, matched in zip(res.step_transfer, res.step_overlaps):
            # one matched entry per row, each in its own column
            cols = [int(np.argmin(np.abs(np.abs(row) - m))) for row, m in zip(transfer, matched)]
            assert sorted(cols) == [0, 1, 2]
