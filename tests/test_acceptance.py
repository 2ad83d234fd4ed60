"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines; every tolerance is pinned here.
"""
import time

import numpy as np
import pytest

from conftest import circular_distance
from eptriad.locate import refine_ep, seed_eps_in_slice, trace_ea
from eptriad.loops import concat_loops, interpolate_loop, preset_loop, reverse_loop
from eptriad.model import ParamPoint, discriminant_formula, eigensystems
from eptriad.permutations import PermutationElement, element, to_matrix, verify_group
from eptriad.spectral import CavityConfig, NoiseSpec, fit_loop, fit_step, synthesize
from eptriad.transport import eigenvalue_vorticity, transport, transport_eigensystems
from oracles import discriminant, discriminant_small_param, eigenvalues

G = 0.61
PI = np.pi


def _ok(num: int, text: str) -> None:
    print(f"ACCEPTANCE {num:2d} PASS: {text}")


@pytest.fixture(scope="module")
def runs(canonical_transports):
    extra = {}
    tiny = [ParamPoint(0.33, z, x, G) for z, x in ((0.02, 0.02), (0.1, 0.02), (0.1, 0.1), (0.02, 0.1), (0.02, 0.02))]
    extra["trivial"] = transport(interpolate_loop(tiny, 64, label="trivial"))
    return canonical_transports | extra


def test_criterion_1_nexus_existence():
    roots = eigenvalues(ParamPoint(0, 0, 0, 0))
    assert np.max(np.abs(roots)) < 1e-10
    assert refine_ep(ParamPoint(0, 0, 0, 0)).order == 3
    _ok(1, "triple coalescence at the origin with order 3")


def test_criterion_2_arc_splitting():
    slice_eps = {}
    for eta in (0.33, 0.0):
        cands = seed_eps_in_slice(eta, G, ((-1, 1), (-1, 1)), 64)
        eps = [refine_ep(c) for c in cands]
        assert len(eps) == 2
        assert all(e.order == 2 for e in eps)
        slice_eps[eta] = eps
    arcs = [trace_ea(G, e, step=0.02) for e in slice_eps[0.0]]
    assert all(a.terminated == "boundary" for a in arcs)
    a, b = (arc.coords() for arc in arcs)
    assert np.min(np.linalg.norm(a[:, None, :] - b[None, :, :], axis=2)) > 0.5
    assert max(q.residual for arc in arcs for q in arc.points) < 1e-10
    nexus_branch = refine_ep(ParamPoint(0.1, 0.03, -0.04, 0.0))
    arc0 = trace_ea(0.0, nexus_branch, step=0.02)
    assert arc0.terminated == "rank_deficient"
    hit = arc0.points[0].point
    assert np.linalg.norm([hit.eta, hit.zeta, hit.xi]) < 0.05
    _ok(2, "two disjoint order-2 arcs at g=0.61; rank-deficient stop at the g=0 nexus")


def test_criterion_3_generating_permutations(runs):
    for name, pattern in (("mu1", [[1, 0, 0], [0, 0, 1], [0, 1, 0]]),
                          ("mu3", [[0, 1, 0], [1, 0, 0], [0, 0, 1]])):
        res = runs[name]
        assert res.permutation.as_string() == {"mu1": "132", "mu3": "213"}[name]
        assert np.max(np.abs(np.abs(res.holonomy) - np.array(pattern))) < 0.05
        assert circular_distance(res.berry_phase, -PI) < 1e-3
    _ok(3, "mu1 = 132 and mu3 = 213 with printed patterns and Theta = -pi (1e-3)")


def test_criterion_4_non_abelian_composition():
    mu1 = preset_loop("mu1", 256)
    mu3 = preset_loop("mu3", 256)
    r1 = transport(concat_loops(mu1, mu3))
    r2 = transport(concat_loops(mu3, mu1))
    assert r1.permutation.as_string() == "231"
    assert r2.permutation.as_string() == "312"
    assert np.max(np.abs(np.abs(r1.holonomy) - to_matrix(element("rho1")))) < 0.05
    assert np.max(np.abs(np.abs(r2.holonomy) - to_matrix(element("rho2")))) < 0.05
    assert circular_distance(r1.berry_phase, 0.0) < 1e-3
    assert circular_distance(r2.berry_phase, 0.0) < 1e-3
    assert r1.permutation != r2.permutation
    _ok(4, "rho1 = 231 != rho2 = 312, patterns match, Theta = 0 (1e-3)")


def test_criterion_5_outer_swap_and_decomposition(runs):
    res = runs["mu2"]
    assert res.permutation.as_string() == "321"
    assert np.max(np.abs(np.abs(res.holonomy) - to_matrix(element("mu2")))) < 0.05
    assert circular_distance(res.berry_phase, -PI) < 1e-3
    shifted = transport(preset_loop("mu2", steps_per_segment=256, eta=0.055))
    assert shifted.n_exchanges == 3
    assert shifted.permutation.as_string() == "321"
    _ok(5, "mu2 = 321 at eta=0 (Theta=-pi); three exchanges compose to 321 at eta=0.055")


def test_criterion_6_cycle_structure(runs):
    assert runs["big"].permutation.order() == 3
    assert runs["mu1"].permutation.order() == 2
    assert runs["trivial"].permutation.order() == 1
    vort = eigenvalue_vorticity(runs["mu1"], (2, 3))
    assert abs(abs(vort) - 0.5) < 1e-3
    _ok(6, "cycle counts 3/2/1 and |vorticity(2,3)| = 1/2 for the pair swap")


def test_criterion_7_cycle_loop_winding_equality(runs):
    r1, r2 = runs["rho1"], runs["rho2"]
    v1 = sorted(eigenvalue_vorticity(r1, p) for p in ((1, 2), (1, 3), (2, 3)))
    v2 = sorted(eigenvalue_vorticity(r2, p) for p in ((1, 2), (1, 3), (2, 3)))
    assert np.allclose(v1, v2, atol=5e-3)
    assert abs(r1.disc_winding - r2.disc_winding) < 1e-3
    assert circular_distance(r1.berry_phase, r2.berry_phase) < 1e-3
    assert r1.permutation != r2.permutation
    _ok(7, "rho1/rho2 winding sets and Theta agree while the permutations differ")


def test_criterion_8_group_closure(runs):
    harvested = {runs[k].permutation for k in ("trivial", "mu1", "mu2", "mu3", "rho1", "rho2")}
    assert len(harvested) == 6
    report = verify_group(harvested)
    assert report.witness is not None
    for lbl, pattern in (
        ("mu1", [[1, 0, 0], [0, 0, 1], [0, 1, 0]]),
        ("mu3", [[0, 1, 0], [1, 0, 0], [0, 0, 1]]),
        ("mu2", [[0, 0, 1], [0, 1, 0], [1, 0, 0]]),
        ("rho1", [[0, 1, 0], [0, 0, 1], [1, 0, 0]]),
        ("rho2", [[0, 0, 1], [1, 0, 0], [0, 1, 0]]),
    ):
        assert to_matrix(element(lbl)).tolist() == pattern
    _ok(8, "harvested permutations close into the dihedral group; printed matrices exact")


def test_criterion_9_discriminant_oracles():
    rng = np.random.default_rng(99)
    checked = 0
    for _ in range(10_000):
        p = ParamPoint(*rng.uniform(-1, 1, 4))
        roots = eigenvalues(p)
        gaps = [abs(roots[i] - roots[j]) for i in range(3) for j in range(i + 1, 3)]
        prod = np.prod([(roots[i] - roots[j]) ** 2 for i in range(3) for j in range(i + 1, 3)])
        val = discriminant(p)
        tol = 1e-8 * abs(val) + 1e-10
        assert abs(val - prod) < tol
        checked += 1
    assert checked == 10_000

    # the cubic-order approximation shares the zero locus under rescaling
    ep_points = [
        ParamPoint(0.33, 0.540816844, 0.396296821, G),
        ParamPoint(0.33, -0.540816844, -0.396296821, G),
        ParamPoint(0.0, 0.559949094, 0.0, G),
        ParamPoint(0.0, -0.559949094, 0.0, G),
    ]
    for q in ep_points:
        base = q.as_array()
        small = ParamPoint(*(1e-4 * base))
        assert abs(discriminant_small_param(small)) < 1e-6
        ratios = [
            discriminant_formula(ParamPoint(*(t * base)))
            / discriminant_small_param(ParamPoint(*(t * base)))
            for t in (1e-3, 1e-4)
        ]
        assert abs(ratios[0] - ratios[1]) < 1e-2 * abs(ratios[1])
        assert abs(ratios[1] - 4.0) < 0.01
    _ok(9, "Sylvester = gap product on 1e4 points; small-parameter zero locus consistent")


def test_criterion_10_virtual_experiment():
    t_start = time.time()
    cfg = CavityConfig()
    truth = ParamPoint(0.33, 0.0, 0.0, G)

    # noiseless round trip
    ds0 = synthesize([truth], cfg, NoiseSpec(0.0, 0))
    fit0 = fit_step(ds0.responses[0], cfg)
    for got, want in (
        (fit0.point.eta, truth.eta),
        (fit0.point.zeta, truth.zeta),
        (fit0.point.xi, truth.xi),
        (fit0.point.g, truth.g),
    ):
        assert abs(got - want) < 1e-4
    assert abs(fit0.scale.omega0 - 19729.0) < 1e-2
    assert abs(fit0.scale.gamma0 - 83.5) < 1e-2
    assert abs(fit0.scale.kappa + 49.5) < 1e-2
    assert fit0.residual < 1e-10

    # 20-seed Monte-Carlo at 1% noise: >= 90% recover within 5% of the
    # hopping-scaled truth (0.05 in dimensionless units), scale within 1%
    good = 0
    for seed in range(20):
        ds = synthesize([truth], cfg, NoiseSpec(0.01, seed))
        fit = fit_step(ds.responses[0], cfg)
        err = max(
            abs(fit.point.eta - truth.eta),
            abs(fit.point.zeta - truth.zeta),
            abs(fit.point.xi - truth.xi),
            abs(fit.point.g - truth.g),
        )
        scale_ok = (
            abs(fit.scale.omega0 - 19729.0) / 19729.0 < 0.01
            and abs(fit.scale.gamma0 - 83.5) / 83.5 < 0.01
            and abs(fit.scale.kappa + 49.5) / 49.5 < 0.01
        )
        if err < 0.05 and scale_ok:
            good += 1
    assert good >= 18

    # full pipeline around the band-2/3 swap loop at 1% noise
    loop = preset_loop("mu1", steps_per_segment=8)
    ds = synthesize(list(loop.steps), cfg, NoiseSpec(0.01, 7))
    fits, res = fit_loop(ds)
    assert res.permutation.as_string() == "132"
    assert circular_distance(res.berry_phase, -PI) < 0.05
    elapsed = time.time() - t_start
    assert elapsed < 600
    _ok(10, f"round trip 1e-4, {good}/20 noisy recoveries, pipeline 132 with Theta=-pi (0.05) in {elapsed:.0f}s")


def test_criterion_11_robustness_suite():
    # step-doubling stability
    a = transport(preset_loop("mu1", 160))
    b = transport(preset_loop("mu1", 320))
    assert a.permutation == b.permutation
    assert np.max(np.abs(np.abs(a.holonomy) - np.abs(b.holonomy))) < 0.05
    assert circular_distance(a.berry_phase, b.berry_phase) < 1e-3

    # gauge invariance under anchor re-phasing
    from dataclasses import replace

    loop = preset_loop("mu1", 200)
    stack = eigensystems(loop.params)
    base = transport_eigensystems(stack)
    phases = np.exp(1j * np.array([0.4, -1.3, 2.2]))
    right, left = stack.right_vectors.copy(), stack.left_vectors.copy()
    right[[0, -1]] = right[0] * phases[None, :]
    left[[0, -1]] = left[0] / phases[:, None]
    alt = transport_eigensystems(replace(stack, right_vectors=right, left_vectors=left))
    assert alt.permutation == base.permutation
    assert np.max(np.abs(np.abs(alt.holonomy) - np.abs(base.holonomy))) < 1e-9
    assert circular_distance(alt.berry_phase, base.berry_phase) < 1e-9

    # loop reversal inverts the holonomy
    fwd = transport(loop)
    rev = transport(reverse_loop(loop))
    assert rev.permutation == fwd.permutation.inverse()
    assert np.max(np.abs(np.abs(rev.holonomy @ fwd.holonomy) - np.eye(3))) < 0.05

    # homotopy: a second rectangle around the same arc agrees
    alt_rect = interpolate_loop(
        [ParamPoint(0.33, z, x, G) for z, x in ((-0.35, -0.25), (-0.75, -0.25), (-0.75, -0.55), (-0.35, -0.55), (-0.35, -0.25))],
        200,
        label="alt-rect",
    )
    other = transport(alt_rect)
    assert other.permutation == fwd.permutation
    assert circular_distance(other.berry_phase, fwd.berry_phase) < 1e-3
    _ok(11, "step-doubling, gauge, reversal, and homotopy invariances hold")
