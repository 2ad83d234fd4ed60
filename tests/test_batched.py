"""Differential gate for the batched eigensystem layer.

The references below are the one-point-at-a-time implementations that the
batched layer replaced: the scalar eigensystem, the step-by-step refinement
of a loop (each step split recursively, its segment's discriminant roots
from ``np.polyfit`` and ``np.roots``), the sequential transport sweep over
the refined steps (match and reorder one step at a time), the per-step loop
interpolation and the row sweep of the sheet tracker.  The batched code must
make the same decisions (permutation, exchange steps, inserted points,
reliability) and reproduce their numbers within 1e-12.
"""
import cmath
import importlib
import itertools
import threading
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from eptriad.errors import AmbiguousMatch, InaccurateEigensystem, PathTouchesEP
from eptriad import locate, model
from eptriad.locate import refine_ep, track_sheets
from eptriad.loops import PRESET_NAMES, interpolate_loop, preset_loop, preset_waypoints
from eptriad.model import (
    DEGENERACY_GAP,
    Eigensystem,
    ParamPoint,
    discriminant_formula,
    discriminant_values,
    eigensystem,
    eigensystems,
)
from eptriad.permutations import PermutationElement, to_matrix
from eptriad.transport import transport, transport_eigensystems

# the package re-exports transport(), which shadows the module attribute
transport_module = importlib.import_module("eptriad.transport")
SQRT2 = np.sqrt(2.0)
PERMS = tuple(itertools.permutations(range(3)))
TOL = 1e-12
G = 0.61


# --------------------------------------------------------------------------
# references: the scalar, sequential implementations


def ref_hamiltonian(p):
    kappa = -1.0
    m = np.array(
        [
            [SQRT2 * (1j + p.eta), 1.0, 0.0],
            [1.0, 1j * p.zeta + p.xi, 1.0],
            [0.0, 1.0, -SQRT2 * (1j + p.eta)],
        ],
        dtype=complex,
    )
    gain = 1j * SQRT2 * np.diag([p.g, 0.0, -p.g]).astype(complex)
    return kappa * (m + gain)


def ref_eigensystem(p):
    h = ref_hamiltonian(p)
    w, v = np.linalg.eig(h)
    order = np.argsort(w.real, kind="stable")
    w = w[order]
    v = v[:, order]
    v = v / np.linalg.norm(v, axis=0)
    min_gap = min(abs(w[i] - w[j]) for i in range(3) for j in range(i + 1, 3))
    degenerate = min_gap < DEGENERACY_GAP or abs(discriminant_formula(p)) < 1e-12
    left = np.empty((3, 3), dtype=complex)
    for j in range(3):
        bil = v[:, j] @ v[:, j]
        left[j, :] = v[:, j] if degenerate and abs(bil) < 1e-12 else v[:, j] / bil
    hnorm = np.linalg.norm(h)
    for j in range(3):
        resid = np.linalg.norm(h @ v[:, j] - w[j] * v[:, j]) / max(hnorm, 1.0)
        assert resid <= 1e-10
    return Eigensystem(p, w, v, left, degenerate, min_gap)


def ref_match(es_from, es_to):
    overlap = es_from.left_vectors @ es_to.right_vectors
    scores = [sum(abs(overlap[j, pm[j]]) ** 2 for j in range(3)) for pm in PERMS]
    order = np.argsort(scores)
    return PERMS[order[-1]], overlap, scores[order[-1]] - scores[order[-2]]


def ref_reorder(es, order, phases=None):
    idx = list(order)
    right = es.right_vectors[:, idx]
    left = es.left_vectors[idx, :]
    if phases is not None:
        for j in range(3):
            right[:, j] *= np.exp(-1j * phases[j])
            left[j, :] *= np.exp(1j * phases[j])
    return Eigensystem(es.point, es.eigenvalues[idx], right, left, es.is_degenerate, es.min_gap)


def ref_roots(a, b):
    """Roots t of disc((1 - t) a + t b): a degree-6 least-squares fit at 25 points."""
    t = np.linspace(0.0, 1.0, 25)
    return np.roots(np.polyfit(t, [discriminant_values(*((1 - s) * a + s * b)) for s in t], 6))


def ref_winding(points):
    """Winding number (1/2pi) of arg(disc) along the polygon through ``points``:
    on each segment, arg(t - r) turns by the phase of (1 - r) / (0 - r)."""
    phases = [cmath.phase((1 - r) / -r) for a, b in zip(points[:-1], points[1:]) for r in ref_roots(a, b)]
    return sum(phases) / (2 * np.pi)


def ref_refined_steps(loop):
    """The loop's steps with, in each step, the midpoints that split it,
    recursively, while its length in t exceeds its distance to the nearest
    root of its segment's discriminant."""
    ends = [p.as_array() for p in loop.waypoints]

    def split(k, roots, lo, hi):
        if hi - lo <= min(abs(r - min(max(r.real, lo), hi)) for r in roots):
            return []
        t = (lo + hi) / 2
        return split(k, roots, lo, t) + [(1 - t) * ends[k] + t * ends[k + 1]] + split(k, roots, t, hi)

    steps, l = [loop.params[0]], 0
    for k, n in enumerate(loop.segment_steps):
        roots = ref_roots(ends[k], ends[k + 1])
        for i in range(n):
            l += 1
            steps += split(k, roots, i / n, (i + 1) / n) + [loop.params[l]]
    return steps


def ref_transport(systems, winding, ambiguity_margin=1e-3):
    """The sequential sweep: match each step against the tracked frame."""
    anchor = tracked = systems[0]
    m = (0, 1, 2)
    events, tracked_w, min_overlap = [], [anchor.eigenvalues], 1.0
    for l, nxt in enumerate(systems[1:]):
        assign, overlap, margin = ref_match(tracked, nxt)
        if margin < ambiguity_margin:
            raise AmbiguousMatch(f"at step {l}")
        phases = np.array([np.angle(overlap[j, assign[j]]) for j in range(3)])
        min_overlap = min(min_overlap, min(abs(overlap[j, assign[j]]) for j in range(3)))
        if assign != m:
            events.append((l + 1, tuple(nxt.point.as_array()), m, assign))
            m = assign
        tracked = ref_reorder(nxt, assign, phases)
        tracked_w.append(tracked.eigenvalues)
    permutation = PermutationElement(tuple(r + 1 for r in m))
    holonomy = anchor.left_vectors @ tracked.right_vectors
    parity = float(np.linalg.det(to_matrix(permutation)))
    theta = -np.angle(parity * np.linalg.det(holonomy))
    # reliable also needs the permutation's parity to be (-1)^round(w) for the discriminant's winding w
    return {
        "permutation": permutation,
        "events": events,
        "tracked_w": np.array(tracked_w),
        "holonomy": holonomy,
        "theta": theta,
        "min_overlap": min_overlap,
        "reliable": min_overlap > transport_module.DEFAULT_OVERLAP_FLOOR and parity == (-1) ** round(winding),
    }


def ref_track_sheets(eta, g, zz, xx):
    tracked = np.empty((len(zz), len(xx), 3), dtype=complex)
    row_start = None
    for a, z in enumerate(zz):
        prev = row_start
        for b, x in enumerate(xx):
            es = ref_eigensystem(ParamPoint(eta, z, x, g))
            if prev is not None:
                es = ref_reorder(es, ref_match(prev, es)[0])
            if b == 0:
                row_start = es
            prev = es
            tracked[a, b] = es.eigenvalues
    return tracked


def ref_steps(waypoints, steps_per_segment):
    steps = []
    for a, b in zip(waypoints[:-1], waypoints[1:]):
        va, vb = a.as_array(), b.as_array()
        for s in range(steps_per_segment):
            f = s / steps_per_segment
            steps.append((1 - f) * va + f * vb)
    steps.append(waypoints[-1].as_array())
    return np.array(steps)


def circular_distance(a, b):
    d = (a - b) % (2 * np.pi)
    return min(d, 2 * np.pi - d)


def assert_same_transport(res, ref):
    assert res.permutation == ref["permutation"]
    got = [(e.step, tuple(e.point.as_array()), e.before, e.after) for e in res.events]
    assert got == ref["events"]
    assert res.reliable == ref["reliable"]
    assert res.tracked_eigenvalues.shape == ref["tracked_w"].shape
    assert np.max(np.abs(res.tracked_eigenvalues - ref["tracked_w"])) <= TOL
    assert np.max(np.abs(res.holonomy - ref["holonomy"])) <= TOL
    assert circular_distance(res.berry_phase, ref["theta"]) <= TOL
    assert abs(res.min_overlap - ref["min_overlap"]) <= TOL


def ref_loop_transport(loop, ambiguity_margin=1e-3):
    systems = [ref_eigensystem(ParamPoint.from_row(q)) for q in ref_refined_steps(loop)]
    return ref_transport(systems, ref_winding([p.as_array() for p in loop.waypoints]), ambiguity_margin)


# --------------------------------------------------------------------------
# eigensystems


def _probe_points():
    rng = np.random.default_rng(11)
    pts = list(rng.uniform(-1.0, 1.0, (64, 4)))
    ep = refine_ep(ParamPoint(0.33, 0.54, 0.40, G)).point.as_array()
    pts += [ep, ep + [0, 1e-9, 0, 0], ep + [0, 0, 1e-7, 0], ep + [0, 1e-5, -1e-5, 0]]
    pts += [np.zeros(4), np.array([0.0, 0.0, 1e-9, 0.0])]             # the order-3 nexus
    return np.array(pts)


def test_batched_rows_equal_per_point_rows():
    params = _probe_points()
    batch = eigensystems(params)
    assert len(batch) == len(params)
    assert batch.is_degenerate[-2]
    for l, row in enumerate(params):
        p = ParamPoint(*row)
        for single in (eigensystem(p), ref_eigensystem(p)):
            assert np.array_equal(batch.eigenvalues[l], single.eigenvalues)
            assert np.array_equal(batch.right_vectors[l], single.right_vectors)
            assert np.array_equal(batch.left_vectors[l], single.left_vectors)
            assert batch.is_degenerate[l] == single.is_degenerate
            assert batch.min_gap[l] == single.min_gap


def test_one_bad_row_fails_the_whole_batch(monkeypatch):
    params = _probe_points()[:8]
    eig = np.linalg.eig

    def bad_eig(h):
        w, v = eig(h)
        v = v.copy()
        v[3, :, 0] = v[3, :, 1]
        return w, v

    monkeypatch.setattr(np.linalg, "eig", bad_eig)
    with pytest.raises(InaccurateEigensystem, match="residual") as info:
        eigensystems(params)
    assert str(ParamPoint(*params[3].tolist())) in str(info.value)


# a stack the threaded path splits into chunks of 367, 367 and 366 rows at
# three usable CPUs, with the nexus and near-EP rows in every chunk
CHUNKED_ROWS = 1100
CHUNK_LENGTHS = [367, 367, 366]


def _chunked_stack():
    params = np.random.default_rng(12).uniform(-1.0, 1.0, (CHUNKED_ROWS, 4))
    special = _probe_points()[-6:]                  # an EP, rows within 1e-9 of its arc, the nexus
    for start in (0, 367, 734):
        params[start + 100:start + 100 + len(special)] = special
    params[-1] = 0.0                                # the nexus (0, 0, 0, 0) as the last row
    return params


@pytest.fixture
def three_cpus(monkeypatch):
    """Three usable CPUs, so that any runner takes the threaded path; yields
    the lengths of the chunks each solve was given."""
    lengths = []
    solve_rows = model._solve_rows

    def recording(params):
        lengths.append(len(params))
        return solve_rows(params)

    monkeypatch.setattr(model, "_usable_cpus", lambda: 3)
    monkeypatch.setattr(model, "_solve_rows", recording)
    return lengths


def _one_solve(params, monkeypatch):
    with monkeypatch.context() as m:
        m.setattr(model, "_usable_cpus", lambda: 1)
        return eigensystems(params)


def test_chunked_stack_is_bit_equal_to_one_solve(three_cpus, monkeypatch):
    params = _chunked_stack()
    chunked = eigensystems(params)
    assert sorted(three_cpus, reverse=True) == CHUNK_LENGTHS
    serial = _one_solve(params, monkeypatch)
    assert chunked.is_degenerate[-1] and chunked.is_degenerate[100:106].any()
    fields = ("params", "eigenvalues", "right_vectors", "left_vectors", "is_degenerate", "min_gap")
    for f in fields:
        assert np.array_equal(getattr(chunked, f), getattr(serial, f)), f
    for l, row in enumerate(params):
        single = eigensystem(ParamPoint(*row))
        assert np.array_equal(chunked.params[l], single.point.as_array())
        assert np.array_equal(chunked.eigenvalues[l], single.eigenvalues)
        assert np.array_equal(chunked.right_vectors[l], single.right_vectors)
        assert np.array_equal(chunked.left_vectors[l], single.left_vectors)
        assert chunked.is_degenerate[l] == single.is_degenerate
        assert chunked.min_gap[l] == single.min_gap


def test_small_stacks_take_one_solve(three_cpus):
    params = _chunked_stack()
    eigensystems(params[:2 * model._MIN_CHUNK_ROWS - 1])
    eigensystems(params[:2 * model._MIN_CHUNK_ROWS])
    assert three_cpus == [2 * model._MIN_CHUNK_ROWS - 1] + [model._MIN_CHUNK_ROWS] * 2


def _corrupting_eig(params, bad_rows):
    """An ``np.linalg.eig`` that swaps a right vector of the rows ``bad_rows``
    of ``params``, found by their Hamiltonians in whichever chunk holds them."""
    eig = np.linalg.eig
    targets = model._hamiltonians(params[bad_rows])

    def bad_eig(h):
        w, v = eig(h)
        v = v.copy()
        hit = (h[:, None] == targets[None]).all(axis=(2, 3)).any(axis=1)
        v[hit, :, 0] = v[hit, :, 1]
        return w, v

    return bad_eig


@pytest.mark.parametrize("bad_rows", [[1050], [1050, 700], [1050, 700, 5]], ids=["last-chunk", "two-chunks", "three-chunks"])
def test_chunked_errors_name_the_first_bad_row(bad_rows, three_cpus, monkeypatch):
    params = _chunked_stack()
    monkeypatch.setattr(np.linalg, "eig", _corrupting_eig(params, bad_rows))
    with pytest.raises(InaccurateEigensystem, match="residual") as chunked:
        eigensystems(params)
    assert len(three_cpus) == 3
    with pytest.raises(InaccurateEigensystem) as serial:
        _one_solve(params, monkeypatch)
    assert str(chunked.value) == str(serial.value)
    assert str(ParamPoint(*params[min(bad_rows)].tolist())) in str(chunked.value)


def _matmul_residuals(params, w, v):
    """Relative residual norm ||H v_j - w_j v_j|| / max(||H||_F, 1) of each
    eigenpair, with H v as a stacked ``@``."""
    h = model._hamiltonians(params)
    r = h @ v - v * w[:, None, :]
    return np.linalg.norm(r, axis=1) / np.maximum(np.linalg.norm(h, axis=(1, 2)), 1.0)[:, None]


def test_written_out_residuals_equal_the_matmul_residuals():
    rng = np.random.default_rng(13)
    params = np.concatenate([
        rng.uniform(-1.0, 1.0, (2000, 4)),
        rng.uniform(-1e3, 1e3, (200, 4)),                     # ||H||_F far above 1
        *(preset_loop(name, 64).params for name in PRESET_NAMES),
        _probe_points(),                                      # near-EP rows and the nexus
    ])
    w, v, *_, resid2 = model._solve_rows(params)
    want = _matmul_residuals(params, w, v)
    assert want.max() < 1e-13
    assert np.abs(np.sqrt(resid2) - want).max() <= 8 * np.finfo(float).eps


def test_written_out_residuals_flag_bad_rows_in_every_chunk(monkeypatch):
    params, bad_rows = _chunked_stack(), [5, 700, 1050]
    monkeypatch.setattr(np.linalg, "eig", _corrupting_eig(params, bad_rows))
    chunks = np.array_split(params, len(CHUNK_LENGTHS))
    starts = np.cumsum([0] + CHUNK_LENGTHS[:-1])
    for start, chunk, bad in zip(starts, chunks, bad_rows):
        w, v, *_, resid2 = model._solve_rows(chunk)
        assert np.flatnonzero((resid2 > 1e-20).any(axis=1)).tolist() == [bad - start]
        assert np.flatnonzero((_matmul_residuals(chunk, w, v) > 1e-10).any(axis=1)).tolist() == [bad - start]


def test_workers_see_the_callers_errstate(three_cpus, monkeypatch):
    eig = np.linalg.eig
    seen = []

    def recording_eig(h):
        seen.append((threading.get_ident(), np.geterr()["over"]))
        return eig(h)

    monkeypatch.setattr(np.linalg, "eig", recording_eig)
    with np.errstate(over="raise"):
        eigensystems(_chunked_stack())
    idents = {ident for ident, _ in seen}
    assert len(seen) == 3 and threading.get_ident() in idents and len(idents) >= 2
    assert [over for _, over in seen] == ["raise"] * 3


def test_rejects_malformed_parameter_arrays():
    with pytest.raises(ValueError):
        eigensystems(np.zeros((3, 3)))
    with pytest.raises(ValueError):
        eigensystems(np.array([[0.1, np.nan, 0.0, 0.0]]))


# --------------------------------------------------------------------------
# loops and transport


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_loop_params_equal_the_per_step_interpolation(name):
    for n in (2, 64, 200):
        loop = preset_loop(name, n)
        assert np.array_equal(loop.params, ref_steps(preset_waypoints(name), n))
        assert loop.steps[5] == ParamPoint(*loop.params[5])


@pytest.mark.parametrize("n", (64, 160, 256))
@pytest.mark.parametrize("name", PRESET_NAMES)
def test_presets_match_the_sequential_sweep(name, n):
    loop = preset_loop(name, n)
    assert_same_transport(transport(loop), ref_loop_transport(loop))


@given(
    eta=st.sampled_from([0.0, 0.33]),
    corner=st.tuples(st.floats(-0.9, 0.5), st.floats(-0.9, 0.5)),
    size=st.tuples(st.floats(0.05, 0.8), st.floats(0.05, 0.8)),
    n=st.integers(8, 40),
)
@settings(max_examples=40, deadline=None)
def test_drawn_rectangles_match_the_sequential_sweep(eta, corner, size, n):
    (z0, x0), (w, h) = corner, size
    zx = [(z0, x0), (z0 + w, x0), (z0 + w, x0 + h), (z0, x0 + h), (z0, x0)]
    try:
        loop = interpolate_loop([ParamPoint(eta, z, x, G) for z, x in zx], n)
    except PathTouchesEP:
        assume(False)
    try:
        ref = ref_loop_transport(loop)
    except AmbiguousMatch:
        with pytest.raises(AmbiguousMatch):
            transport(loop)
        return
    assert_same_transport(transport(loop), ref)


def test_regauged_anchor_list_matches_the_sequential_sweep():
    """A stack whose anchor frame (first and last row) is re-phased: the
    holonomy starts from the re-phased left rows, as the sweep's does."""
    stack = eigensystems(preset_loop("mu1", 200).params)
    phases = np.exp(1j * np.random.default_rng(5).uniform(0, 2 * np.pi, 3))
    right, left = stack.right_vectors.copy(), stack.left_vectors.copy()
    right[[0, -1]] = right[0] * phases[None, :]
    left[[0, -1]] = left[0] / phases[:, None]
    regauged = replace(stack, right_vectors=right, left_vectors=left)
    res = transport_eigensystems(regauged)
    assert_same_transport(res, ref_transport([regauged.row(l) for l in range(len(regauged))],
                                             ref_winding(regauged.params)))


TRIANGLE = [(-0.152923, 0.383999, -0.371626), (-0.194721, 0.442178, -0.505061), (-0.139757, 0.477862, -0.424061)]


@pytest.mark.parametrize("loop", [
    preset_loop("mu1", 1), preset_loop("rho1", 2), preset_loop("big", 2), preset_loop("rho2", 23),
    interpolate_loop([ParamPoint(*c, -0.4) for c in TRIANGLE + TRIANGLE[:1]], 3),
    interpolate_loop([ParamPoint(*c, -0.4) for c in TRIANGLE + TRIANGLE[:1]], 200),
], ids=["mu1-1", "rho1-2", "big-2", "rho2-23", "triangle-3", "triangle-200"])
def test_refinement_inserts_the_same_points(loop):
    """Coarse loops, and the thin triangle of test_loops_transport's
    TestRootRefinement even at 200 steps per segment, get midpoints before
    the solve, on several levels; both sweeps must insert the same ones."""
    res = transport(loop)
    assert res.tracked_eigenvalues.shape[0] > loop.n_steps
    assert_same_transport(res, ref_loop_transport(loop))


def test_an_ambiguous_step_raises_like_the_sequential_sweep(monkeypatch):
    loop = preset_loop("mu1", 2)
    with pytest.raises(AmbiguousMatch, match="at step 0"):
        ref_loop_transport(loop, 2.5)
    monkeypatch.setattr(transport_module, "DEFAULT_AMBIGUITY_MARGIN", 2.5)
    with pytest.raises(AmbiguousMatch, match="at step 0 "):
        transport(loop)


def test_a_mis_chained_copy_fails_the_gate(monkeypatch):
    """Composing the raw assignments in the wrong order must not pass."""

    def mis_chained(best):
        k = [0]
        for b in best:
            k.append(int(transport_module._COMPOSE[k[-1], b]))
        return transport_module._PERM_ROWS[k]

    loop = preset_loop("rho1", 64)
    ref = ref_loop_transport(loop)
    monkeypatch.setattr(transport_module, "chain_assignments", mis_chained)
    with pytest.raises(AssertionError):
        assert_same_transport(transport(loop), ref)


def ref_chain(best):
    """Tracked band orders by the definition m[l + 1][j] = _PERMS[best[l]][m[l][j]],
    one path and one step at a time."""
    perms = list(itertools.permutations(range(3)))
    best = np.asarray(best)
    paths = best.reshape(len(best), int(np.prod(best.shape[1:]))).T
    chained = []
    for path in paths.tolist():
        orders = [(0, 1, 2)]
        for b in path:
            orders.append(tuple(perms[b][j] for j in orders[-1]))
        chained.append(orders)
    m = np.array(chained, dtype=np.intp).reshape(len(paths), len(best) + 1, 3)
    return m.transpose(1, 0, 2).reshape((len(best) + 1,) + best.shape[1:] + (3,))


def _drawn_best(shape, exchange_rate, seed):
    rng = np.random.default_rng(seed)
    return np.where(rng.random(shape) < exchange_rate, rng.integers(1, 6, shape), 0)


@pytest.mark.parametrize("exchange_rate", [0.0, 0.002, 0.05, 0.5, 1.0])
@pytest.mark.parametrize("shape", [(0,), (1,), (9,), (3697,), (0, 4), (4, 0), (1, 7), (40, 11), (100, 101)])
def test_chain_assignments_equals_the_step_by_step_chain(shape, exchange_rate):
    """Orders composed only at the exchanges, the runs between them filled,
    on 1-D (transport) and 2-D (``track_sheets``) paths, sparse to dense."""
    best = _drawn_best(shape, exchange_rate, seed=len(shape) * 1000 + int(1000 * exchange_rate))
    got = transport_module.chain_assignments(best)
    assert got.shape == (shape[0] + 1,) + shape[1:] + (3,)
    assert np.array_equal(got, ref_chain(best))


def test_chain_assignments_of_a_transposed_grid():
    """``track_sheets`` chains the transpose of its (rows, columns - 1) assignments."""
    along = _drawn_best((21, 30), 0.05, seed=3)
    assert np.array_equal(transport_module.chain_assignments(along.T), ref_chain(along.T))


def test_error_messages_name_points_with_plain_floats(monkeypatch):
    """Points in error messages, loop steps, stack rows and exchange events are
    built from Python floats, so a message reads ParamPoint(eta=0.33, ...)."""
    loop = preset_loop("mu1", 2)
    with pytest.raises(PathTouchesEP) as touching:
        ep = refine_ep(ParamPoint(0.33, 0.54, 0.40, G)).point
        interpolate_loop([ParamPoint(0.33, ep.zeta + dz, ep.xi + dx, G)
                          for dz, dx in ((-0.1, 0), (0, 0), (0.1, 0), (0, 0.1), (-0.1, 0))], 4)
    params = _probe_points()[:8]
    stack = eigensystems(params)
    events = transport(preset_loop("rho1", 64)).events
    monkeypatch.setattr(np.linalg, "eig", _corrupting_eig(params, [3]))
    with pytest.raises(InaccurateEigensystem) as inaccurate:
        eigensystems(params)
    monkeypatch.undo()
    monkeypatch.setattr(transport_module, "DEFAULT_AMBIGUITY_MARGIN", 2.5)
    with pytest.raises(AmbiguousMatch) as ambiguous:
        transport(loop)
    assert events
    texts = [str(e.value) for e in (touching, inaccurate, ambiguous)]
    texts += [repr(loop.steps[1]), repr(stack.row(3).point)] + [repr(e.point) for e in events]
    for text in texts:
        assert "ParamPoint(eta=" in text and "np.float64" not in text, text


# --------------------------------------------------------------------------
# sheet tracking


@pytest.mark.parametrize(
    "eta, g, zz, xx",
    [
        (0.33, G, np.linspace(-1, 1, 21), np.linspace(-1, 1, 21)),      # the golden slice
        (0.0, 0.0, np.linspace(-1, 1, 41), np.linspace(-1, 1, 41)),      # through the nexus
        (0.2, 0.3, np.linspace(-1, 1, 9), np.linspace(-0.5, 0.7, 7)),
        (0.33, G, np.linspace(-1, 1, 4), np.linspace(-1, 1, 1)),
        (0.33, G, np.linspace(-1, 1, 0), np.linspace(-1, 1, 5)),
        (0.33, G, np.linspace(-1, 1, 5), np.linspace(-1, 1, 0)),
        # at 1024 points per solve: blocks of 17 rows, the last one ragged
        (-1.2, 0.3, np.linspace(-1.5, 1.4, 41), np.linspace(-1.3, 1.5, 57)),
        (0.33, G, np.linspace(-1, 1, 2), np.linspace(-1, 1, 1100)),     # a row longer than a block
        # exact ties on the row zeta = 0: steps that rounding alone decides, and the closed-form
        # frames decide some of them otherwise than LAPACK's (on the OpenBLAS kernels SkylakeX and
        # Haswell at g = -0.43, Haswell and Prescott at g = -0.3), so track_sheets takes LAPACK's
        (0.0, -0.3, np.linspace(-1, 1, 101), np.linspace(-1, 1, 101)),
        (0.0, -0.43, np.linspace(-1, 1, 101), np.linspace(-1, 1, 101)),
        # a = c = 0 for the eigenvalue 0 at every point, where the middle adjugate column vanishes
        (0.0, -1.0, np.linspace(-1, 1, 101), np.linspace(-1, 1, 101)),
        # |xi| ~ 1e77 and 1e100 with |disc| finite: unscaled, the adjugate's |a c|^2 overflows; at
        # 1e100 the column of a = c = 0, scaled to (-s^2, 0, s^2), also needs its own scale
        (0.0, -0.9, np.linspace(-1, 1, 11), np.linspace(1.5e77, 2e77, 11)),
        (0.0, -1.0, np.linspace(-1, 1, 11), np.linspace(1e100, 2e100, 11)),
    ],
)
def test_track_sheets_is_bit_equal_to_the_row_sweep(eta, g, zz, xx):
    assert np.array_equal(track_sheets(eta, g, zz, xx), ref_track_sheets(eta, g, zz, xx))


def test_tie_slices_hold_steps_below_the_sure_margin():
    """The tie cases above exercise the LAPACK decision: their closed-form margins fall below it."""
    zz = np.linspace(-1, 1, 101)
    for g in (-0.3, -0.43):
        frames = model.sheet_frames(np.stack(np.broadcast_arrays(0.0, 0.0, zz, g), axis=-1))
        _, margin = transport_module.best_assignments(frames.left_vectors[:-1] @ frames.right_vectors[1:])
        assert (margin < locate.SURE_MARGIN).any()


def _slices(etas, gs, n=101):
    zz = np.linspace(-1, 1, n)
    return [np.stack(np.broadcast_arrays(eta, zz[:, None], zz, g), axis=-1).reshape(-1, 4) for eta in etas for g in gs]


def test_eigvals_gives_the_eigenvalue_bits_of_eig():
    """``sheet_frames`` takes its eigenvalues from ``np.linalg.eigvals``; the
    surface's bits rest on their being ``np.linalg.eig``'s, in its order."""
    params = np.concatenate([np.random.default_rng(14).uniform(-1.5, 1.5, (200_000, 4)),
                             *_slices((0.0, 0.33, -0.7), (-1.0, 0.0, G))])
    h = model._hamiltonians(params)
    assert np.array_equal(np.linalg.eigvals(h), np.linalg.eig(h)[0])


def test_sheet_frames_are_the_eigensystems_up_to_phase():
    params = np.concatenate([_chunked_stack(), *_slices((0.0,), (-1.0, -0.3))])
    sheets, exact = model.sheet_frames(params), eigensystems(params)
    for f in ("params", "eigenvalues", "is_degenerate", "min_gap"):
        assert np.array_equal(getattr(sheets, f), getattr(exact, f)), f
    far = exact.min_gap >= locate.SURE_GAP
    right, want = sheets.right_vectors[far], exact.right_vectors[far]
    phase = (right.conj() * want).sum(axis=1)                        # (rows, bands)
    assert np.allclose(abs(phase), 1.0, rtol=0, atol=1e-12)
    assert np.abs(right * phase[:, None, :] - want).max() < 1e-12
    assert np.abs(sheets.left_vectors[far] @ right - np.eye(3)).max() < 1e-12


def _corrupting_eigvals(params, bad_rows):
    """An ``np.linalg.eigvals`` that moves the first eigenvalue of the rows
    ``bad_rows`` of ``params`` by 1e-3, found by their Hamiltonians in
    whichever chunk holds them."""
    eigvals = np.linalg.eigvals
    targets = model._hamiltonians(params[bad_rows])

    def bad_eigvals(h):
        w = eigvals(h).copy()
        w[(h[:, None] == targets[None]).all(axis=(2, 3)).any(axis=1), 0] += 1e-3
        return w

    return bad_eigvals


def test_track_sheets_checks_the_closed_form_residuals(monkeypatch):
    eta, zz, xx = 0.33, np.linspace(-1, 1, 21), np.linspace(-1, 1, 30)     # 630 points: chunked on 2+ CPUs
    params = np.stack(np.broadcast_arrays(eta, zz[:, None], xx, G), axis=-1).reshape(-1, 4)
    monkeypatch.setattr(np.linalg, "eigvals", _corrupting_eigvals(params, [317, 500]))
    with pytest.raises(InaccurateEigensystem, match="residual") as raised:
        track_sheets(eta, G, zz, xx)
    assert f"at {ParamPoint.from_row(params[317])}" in str(raised.value)
    assert "ParamPoint(eta=" in str(raised.value) and "np.float64" not in str(raised.value)


def test_steps_with_nan_closed_form_scores_take_lapacks():
    """A NaN margin is below no bound, so ``_assignments`` must send its step
    to the LAPACK frames rather than keep the NaN scores' pick."""
    zz = np.linspace(-1, 1, 41)
    params = np.stack(np.broadcast_arrays(0.33, 0.2, zz, G), axis=-1)
    frames, exact = model.sheet_frames(params), eigensystems(params)
    start, end = np.arange(40), np.arange(1, 41)
    want, _ = transport_module.best_assignments(exact.left_vectors[:-1] @ exact.right_vectors[1:])
    assert want.any()                                                # the row holds exchanges
    spoiled = replace(frames, right_vectors=np.full_like(frames.right_vectors, np.nan))
    assert np.array_equal(locate._assignments(spoiled, start, end), want)
