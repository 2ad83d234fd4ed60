from pathlib import Path

import numpy as np
import pytest

from eptriad.errors import NoConvergence, NotAnEP, RegimeWarning
from eptriad.locate import (
    DOMAIN_BOUND,
    EP_MEMBERSHIP_TOL,
    ORDER3_TOL,
    _branches,
    _ep_arrays,
    _ep_points,
    _slice_eps,
    arc_starts,
    branch_cut_trace,
    refine_ep,
    seed_eps_in_slice,
    trace_ea,
    track_sheets,
)
from eptriad.model import ParamPoint, discriminant_formula, eigensystem
from oracles import char_poly, discriminant, repeated_root, slice_zeros

G = 0.61

# regression fixtures: slice crossings of the two arcs, computed by a Newton
# refinement and frozen (the source text never prints them)
EP_SLICE_033 = (0.540816844, 0.396296821)
EP_SLICE_000 = (0.559949094, 0.0)
EP_SLICE_0055 = (0.559375966, 0.065185721)


class TestSeeding:
    def test_two_clusters_at_eta_033(self):
        cands = seed_eps_in_slice(0.33, G, ((-1, 1), (-1, 1)), 64)
        assert len(cands) == 2

    def test_two_clusters_at_eta_0(self):
        cands = seed_eps_in_slice(0.0, G, ((-1, 1), (-1, 1)), 64)
        assert len(cands) == 2

    def test_empty_window(self):
        cands = seed_eps_in_slice(0.9, G, ((-0.1, 0.1), (-0.1, 0.1)), 32)
        assert cands == []

    def test_resolution_floor(self):
        with pytest.raises(ValueError):
            seed_eps_in_slice(0.0, G, ((-1, 1), (-1, 1)), 16)


class TestRefinement:
    def test_eta_033_fixtures(self):
        eps = [refine_ep(c) for c in seed_eps_in_slice(0.33, G, ((-1, 1), (-1, 1)), 64)]
        found = sorted((e.point.zeta, e.point.xi) for e in eps)
        z, x = EP_SLICE_033
        assert np.allclose(found, [(-z, -x), (z, x)], atol=1e-6)
        for e in eps:
            assert e.order == 2
            assert e.residual < 1e-10

    def test_eta_0_fixtures(self):
        eps = [refine_ep(c) for c in seed_eps_in_slice(0.0, G, ((-1, 1), (-1, 1)), 64)]
        found = sorted((e.point.zeta, e.point.xi) for e in eps)
        z, x = EP_SLICE_000
        assert np.allclose(found, [(-z, -x), (z, x)], atol=1e-6)

    def test_repeated_eigenvalue_is_double_root(self):
        e = refine_ep(ParamPoint(0.33, -0.54, -0.40, G))
        co = char_poly(e.point)
        assert abs(co(e.repeated_eigenvalue)) < 1e-6
        assert abs(co.derivative(e.repeated_eigenvalue)) < 1e-5

    def test_origin_is_order_3(self):
        e = refine_ep(ParamPoint(0, 0, 0, 0))
        assert e.order == 3
        assert abs(e.point.zeta) < 1e-12 and abs(e.point.xi) < 1e-12

    @pytest.mark.parametrize("g", [-0.65, -0.3, 0.0, 0.13, 0.61])
    def test_refined_point_keeps_the_seed_slice(self, g):
        """The closed form solves for zeta and xi only: eta and g come back exactly."""
        seeds = [c for eta in (-0.5, 0.0, 0.25, 0.5)
                 for c in seed_eps_in_slice(eta, g, ((-1.4, 1.4), (-1.4, 1.4)), 64)]
        assert seeds
        for seed in seeds:
            p = refine_ep(seed).point
            assert (p.eta, p.g) == (seed.eta, seed.g)

    def test_hopeless_seed_raises(self):
        bad = ParamPoint(0.9, 1.4, 1.4, G)
        assert abs(discriminant_formula(bad)) > 1e3
        with pytest.raises(NoConvergence):
            refine_ep(bad)

    @pytest.mark.parametrize("eta", [1e80, 1e110])
    def test_overflowing_seed_is_outside_the_basin(self, eta):
        """A seed whose discriminant overflows fails typed, not with OverflowError."""
        with pytest.raises(NoConvergence, match="outside basin"):
            refine_ep(ParamPoint(eta, 0.3, 0.2, 0.6))


class TestOrderClassification:
    def test_origin(self):
        assert ep_points(ParamPoint(0, 0, 0, 0))[0].order == 3

    def test_slice_ep_is_order_2(self):
        e = refine_ep(ParamPoint(0.33, 0.54, 0.40, G))
        assert ep_points(e.point)[0].order == 2

    def test_non_ep_rejected(self):
        with pytest.raises(NotAnEP):
            ep_points(ParamPoint(0.33, 0, 0, G))

    def test_rows_are_checked_like_param_points(self):
        """A row that is not finite raises; an overflowing |disc| (nan here)
        is no EP; rows outside |p| <= 1 warn once per call, at the caller."""
        with pytest.raises(ValueError, match="non-finite"):
            _ep_arrays(np.array([[0.33, 0.5, 0.4, G], [0.33, np.nan, 0.0, G]]))
        with pytest.raises(NotAnEP, match="nan"), pytest.warns(RegimeWarning):
            _ep_arrays(np.array([[1e150, 0.0, 0.0, 0.0]]))
        b = _slice_eps(1.2, G)[0]
        rows = np.array([[1.2, b.imag, b.real, G]] * 3)
        with pytest.warns(RegimeWarning) as record:
            _ep_arrays(rows)
        assert [Path(w.filename).name for w in record] == ["test_locate.py"]


@pytest.fixture(scope="module")
def arcs_g061():
    eps = [refine_ep(c) for c in seed_eps_in_slice(0.0, G, ((-1, 1), (-1, 1)), 64)]
    return [trace_ea(G, e, step=0.02) for e in eps]


def _bits(w: complex) -> tuple[str, str]:
    return float(w.real).hex(), float(w.imag).hex()


def ep_points(*points: ParamPoint) -> list:
    """The EPPoints of the locator's closed-form helper at ``points``, in one call."""
    params = np.array([p.as_array() for p in points]).reshape(-1, 4)
    return _ep_points(params, *_ep_arrays(params))


@pytest.fixture(scope="module")
def arcs_g0():
    """Every arc ``ea --g 0`` traces: the nexus, and one branch out of it on each side."""
    return [trace_ea(0.0, s, step=0.02) for s in arc_starts(0.0)]


class TestEPPointHelper:
    """``_ep_arrays`` takes each repeated root from the closed-form double
    root of the cubic; it must agree with the per-point ``np.roots`` oracle
    and give the same order."""

    @staticmethod
    def assert_matches_separate_calls(p: ParamPoint, q) -> None:
        co = char_poly(p)
        w = repeated_root(p)
        flat = abs(co.derivative(w)) < ORDER3_TOL and abs(co.second_derivative(w)) < ORDER3_TOL
        assert q.point == p
        assert abs(q.repeated_eigenvalue - w) <= 1e-12 * max(1.0, abs(w))
        assert q.order == (3 if flat else 2)
        assert q.residual <= EP_MEMBERSHIP_TOL and abs(discriminant(p)) < EP_MEMBERSHIP_TOL

    def test_arc_points(self, arcs_g061):
        for arc in arcs_g061:
            for q in arc.points:
                assert q.order == 2
                self.assert_matches_separate_calls(q.point, q)

    def test_g0_arcs_and_nexus(self, arcs_g0):
        points = [q for arc in arcs_g0 for q in arc.points]
        assert sum(q.order == 3 for q in points) >= 1
        for q in points:
            self.assert_matches_separate_calls(q.point, q)

    def test_one_batch_equals_single_points(self, arcs_g061, arcs_g0):
        points = [q.point for arc in arcs_g061 + arcs_g0 for q in arc.points]
        batch = ep_points(*points)
        assert [(q.point, _bits(q.repeated_eigenvalue), q.order, q.residual) for q in batch] == [
            (q.point, _bits(q.repeated_eigenvalue), q.order, q.residual) for p in points for q in ep_points(p)
        ]
        assert ep_points() == []

    def test_refined_seed(self):
        e = refine_ep(ParamPoint(0.33, 0.54, 0.40, G))
        self.assert_matches_separate_calls(e.point, e)

    def test_nexus(self):
        p = ParamPoint(0, 0, 0, 0)
        (q,) = ep_points(p)
        assert q.order == 3
        self.assert_matches_separate_calls(p, q)

    def test_off_arc_raises_like_a_single_point(self):
        p = ParamPoint(0.33, 0.0, 0.0, G)
        with pytest.raises(NotAnEP) as batch:
            ep_points(refine_ep(ParamPoint(0.33, 0.54, 0.40, G)).point, p)
        with pytest.raises(NotAnEP) as single:
            ep_points(p)
        assert str(batch.value) == str(single.value) == f"|disc| = {abs(discriminant_formula(p)):.3e} at {p}"


class TestArcTracing:
    def test_two_disjoint_open_arcs(self, arcs_g061):
        assert len(arcs_g061) == 2
        for arc in arcs_g061:
            assert arc.terminated == "boundary"
            spacing = np.linalg.norm(np.diff(arc.coords(), axis=0), axis=1)
            assert spacing.max() < 1.6 * 0.02   # consecutive points within step bound
        a, b = (arc.coords() for arc in arcs_g061)
        # arcs stay on opposite sides of the zeta = 0 plane
        assert (a[:, 1] > 0).all() != (b[:, 1] > 0).all()
        gap = np.min(np.linalg.norm(a[:, None, :] - b[None, :, :], axis=2))
        assert gap > 0.5

    def test_no_drift(self, arcs_g061):
        for arc in arcs_g061:
            assert max(q.residual for q in arc.points) < 1e-10

    def test_slice_consistency(self, arcs_g061):
        """Arc crossings of the eta = 0.33 plane match the slice refinement."""
        targets = np.array([[EP_SLICE_033[0], EP_SLICE_033[1]], [-EP_SLICE_033[0], -EP_SLICE_033[1]]])
        hits = []
        for arc in arcs_g061:
            co = arc.coords()
            k = np.argmin(np.abs(co[:, 0] - 0.33))
            seed = ParamPoint(0.33, co[k, 1], co[k, 2], G)
            refined = refine_ep(seed)
            hits.append([refined.point.zeta, refined.point.xi])
        hits = np.array(sorted(hits, key=lambda h: h[0]))
        targets = np.array(sorted(targets.tolist(), key=lambda h: h[0]))
        assert np.allclose(hits, targets, atol=1e-6)

    def test_step_halving_converges(self):
        e = refine_ep(ParamPoint(0.0, 0.56, 0.0, G))
        coarse = trace_ea(G, e, step=0.04).coords()
        fine = trace_ea(G, e, step=0.02).coords()
        # every coarse point lies on the finely traced curve
        d = np.min(np.linalg.norm(fine[None, :, :] - coarse[:, None, :], axis=2), axis=1)
        assert np.max(d) < 1e-3

    def test_nexus_termination_at_g0(self):
        e = refine_ep(ParamPoint(0.1, 0.03, -0.04, 0.0))
        arc = trace_ea(0.0, e, step=0.02)
        assert arc.terminated == "rank_deficient"
        hit = arc.points[0].point
        assert np.linalg.norm([hit.eta, hit.zeta, hit.xi]) < 0.05

    def test_pairing_changes_with_sign_of_g(self):
        """eta = 0 crossings sit on the zeta axis for g > 0, the xi axis for g < 0."""
        for g in (0.05, 0.2):
            zstar = np.sqrt(64 * g**3 / (27 + 72 * g))
            e = refine_ep(ParamPoint(0.0, zstar, 0.0, g))
            assert abs(e.point.xi) < 1e-8
            assert abs(e.point.zeta) > 1e-3
        for g in (-0.05, -0.2):
            xstar = np.sqrt(64 * abs(g) ** 3 / 27)
            e = refine_ep(ParamPoint(0.0, 0.0, xstar, g))
            assert abs(e.point.zeta) < 1e-8
            assert abs(e.point.xi) > 1e-3

    def test_bifurcation_structure_across_g(self):
        """Two separated arcs for g != 0; four branches meeting at the nexus at g = 0."""
        # g != 0: both traces terminate at the domain boundary and never meet
        for g in (-0.2, 0.2):
            seeds = seed_eps_in_slice(0.0, g, ((-1, 1), (-1, 1)), 64)
            assert len(seeds) == 2
            arcs = [trace_ea(g, refine_ep(c), step=0.02) for c in seeds]
            assert all(a.terminated == "boundary" for a in arcs)
        # g = 0: branches hit the rank-deficient nexus instead
        for eta0 in (0.05, -0.05):
            sign = 1.0 if eta0 > 0 else -1.0
            z = sign * np.sqrt(64 * abs(eta0) ** 3 / 54)
            e = refine_ep(ParamPoint(eta0, z, -z, 0.0))
            arc = trace_ea(0.0, e, step=0.02)
            assert arc.terminated == "rank_deficient"


_DRAWN_SLICES = np.random.default_rng(20261019).uniform((-1.5, -0.95), (1.5, 1.0), (24, 2)).tolist()


class TestClosedForm:
    @pytest.mark.parametrize("eta, g", _DRAWN_SLICES + [[0.33, G], [0.0, G], [0.0, 0.05], [0.4, 0.0]])
    def test_slice_eps_are_the_zeros_of_the_sylvester_discriminant(self, eta, g):
        found, want = _slice_eps(eta, g), slice_zeros(eta, g)
        scale = 1.0 + np.abs(want).max()
        assert np.abs(found[:, None] - want[None, :]).min(axis=0).max() < 1e-9 * scale
        assert np.abs(found[:, None] - want[None, :]).min(axis=1).max() < 1e-9 * scale

    @pytest.mark.parametrize("eta, g", _DRAWN_SLICES[:8])
    def test_refine_ep_is_the_nearest_slice_ep(self, eta, g):
        zeros = slice_zeros(eta, g)
        for seed_b in zeros + np.array([0.01, -0.01j, 0.02 + 0.01j, -0.01 - 0.02j]):
            seed = ParamPoint(eta, seed_b.imag, seed_b.real, g)
            e = refine_ep(seed)
            want = zeros[np.argmin(np.abs(zeros - seed_b))]
            assert (e.point.eta, e.point.g) == (eta, g)
            assert abs(complex(e.point.xi, e.point.zeta) - want) < 1e-9 * (1.0 + abs(want))

    @pytest.mark.parametrize("step", [0.02, 0.04])
    @pytest.mark.parametrize("g", [0.0, 0.01, -0.01, 0.05, 0.13, 0.33, 0.61, 0.9, -0.2, -0.61])
    def test_every_arc_point_is_an_ep_at_most_a_step_from_the_next(self, g, step):
        """The Sylvester oracle vanishes on every point; consecutive points lie
        ``step`` apart along the grid's polyline, which is within 1e-6 of the arc."""
        for arc in (trace_ea(g, e, step=step) for e in arc_starts(g)):
            for q in arc.points:
                assert abs(discriminant(q.point)) < 1e-10
            co = arc.coords()
            if len(co) > 1:
                assert np.linalg.norm(np.diff(co, axis=0), axis=1).max() <= step + 1e-5
            past = np.abs(co).max(axis=1) > DOMAIN_BOUND
            if arc.terminated == "boundary":
                assert past[0] and past[-1] and not past[1:-1].any()
            else:
                assert g == 0 and not past[:-1].any()

    @pytest.mark.parametrize("g", [0.61, 0.05, -0.2])
    def test_an_arc_does_not_depend_on_its_start(self, g):
        arc = trace_ea(g, arc_starts(g)[0])
        for q in arc.points[1:-1:17]:
            again = trace_ea(g, q)
            assert again.terminated == arc.terminated
            assert [(p.point, p.repeated_eigenvalue) for p in again.points] == [
                (p.point, p.repeated_eigenvalue) for p in arc.points
            ]

    def test_a_start_past_the_boundary_is_its_own_arc(self):
        b = min(_slice_eps(1.55, G), key=abs)
        start = refine_ep(ParamPoint(1.55, b.imag, b.real, G))
        arc = trace_ea(G, start)
        assert arc.points == [start] and arc.terminated == "boundary"

    @pytest.mark.parametrize("step", [0.02, 0.04])
    def test_g0_branches_end_a_step_from_the_nexus(self, step):
        """The four half-arcs at g = 0, the two that ``ea`` lists and their
        mirrors (eta, -zeta, -xi), start at |eta| = step and run to the boundary."""
        starts = [s for s in arc_starts(0.0) if s.point.eta != 0]
        starts += ep_points(*(ParamPoint(s.point.eta, -s.point.zeta, -s.point.xi, 0.0) for s in starts))
        halves = [trace_ea(0.0, s, step=step) for s in starts]
        assert len(halves) == 4
        for arc in halves:
            first = arc.points[0].point
            assert arc.terminated == "rank_deficient"
            assert abs(abs(first.eta) - step) < 1e-12
            assert np.abs(arc.coords()[-1]).max() > DOMAIN_BOUND

    @pytest.mark.parametrize("g", [1e-6, -1e-6, 4e-5, 1e-3, 0.05, 0.61, -0.61, -0.9])
    def test_branches_are_stable_under_grid_refinement(self, g):
        """Each branch continued on the tracing grid is the branch continued on a
        grid 16 times finer, so no step of the grid jumps between two EPs."""
        ((eta, coarse, _),) = _branches(g)
        fine = np.union1d(eta, (eta[:-1, None] + np.diff(eta)[:, None] * np.arange(1, 16) / 16).ravel())
        refined = _slice_eps(fine, g, continued=True)
        assert np.array_equal(coarse, refined[np.searchsorted(fine, eta)])


class TestBranchCuts:
    def test_outer_pair_cut_along_zeta_axis(self):
        pts = branch_cut_trace(0.0, G, (1, 3), ((-1, 1), (-0.3, 0.3)), 61)
        assert len(pts) > 0
        inner = pts[np.abs(pts[:, 0]) < 0.5]
        assert len(inner) > 0
        assert np.max(np.abs(inner[:, 1])) < 0.05     # parallel to the zeta axis
        assert np.max(np.abs(pts[:, 0])) < 0.60       # ends at the arc crossings

    def test_cuts_attached_to_each_ep_at_eta_033(self):
        """Each slice EP has a cut terminating on it (tracked labels are
        sweep-path dependent, so the pair carrying each cut is discovered)."""
        z, x = EP_SLICE_033
        for target in (np.array([z, x]), np.array([-z, -x])):
            best = np.inf
            for pair in ((1, 2), (1, 3), (2, 3)):
                pts = branch_cut_trace(0.33, G, pair, ((-1, 1), (-1, 1)), 61)
                if len(pts):
                    best = min(best, float(np.min(np.linalg.norm(pts - target, axis=1))))
            assert best < 0.06

    def test_empty_for_quiet_window(self):
        pts = branch_cut_trace(0.9, G, (1, 2), ((0.55, 0.95), (0.55, 0.95)), 41)
        assert pts.shape[0] == 0


class TestTrackSheets:
    def test_each_point_is_a_permutation_of_the_spectrum(self):
        zz, xx = np.linspace(-1, 1, 9), np.linspace(-1, 1, 7)
        tracked = track_sheets(0.33, G, zz, xx)
        assert tracked.shape == (9, 7, 3)
        assert np.array_equal(tracked[0, 0], eigensystem(ParamPoint(0.33, -1.0, -1.0, G)).eigenvalues)
        for a, z in enumerate(zz):
            for b, x in enumerate(xx):
                w = eigensystem(ParamPoint(0.33, z, x, G)).eigenvalues
                assert sorted(tracked[a, b].tolist(), key=lambda c: (c.real, c.imag)) == sorted(
                    w.tolist(), key=lambda c: (c.real, c.imag)
                )

    def test_branch_cut_trace_matches_the_pointwise_crossing_scan(self):
        zz, xx = np.linspace(-1, 1, 31), np.linspace(-1, 1, 31)
        f = track_sheets(0.33, G, zz, xx)
        f = f[:, :, 0].real - f[:, :, 1].real
        pts = []
        for a in range(31):
            for b in range(31):
                if b + 1 < 31 and f[a, b] * f[a, b + 1] < 0:
                    t = f[a, b] / (f[a, b] - f[a, b + 1])
                    pts.append((zz[a], xx[b] + t * (xx[b + 1] - xx[b])))
                if a + 1 < 31 and f[a, b] * f[a + 1, b] < 0:
                    t = f[a, b] / (f[a, b] - f[a + 1, b])
                    pts.append((zz[a] + t * (zz[a + 1] - zz[a]), xx[b]))
        assert len(pts) > 0
        assert np.array_equal(branch_cut_trace(0.33, G, (1, 2), resolution=31), np.array(sorted(pts)))

    def test_sheets_continue_across_a_re_crossing(self):
        """Away from EPs neighbouring tracked values stay close, even where
        the Re-sorted labels swap."""
        zz, xx = np.linspace(-1, 1, 41), np.linspace(-0.3, 0.3, 41)
        tracked = track_sheets(0.0, G, zz, xx)
        sorted_w = np.sort_complex(tracked.real + 0j)
        assert np.any(tracked.real != sorted_w.real)     # some label swaps happened
        assert np.max(np.abs(np.diff(tracked, axis=1))) < 0.2
