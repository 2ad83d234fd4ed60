"""The arcs ``eptriad ea`` lists, against the Sylvester-discriminant oracle.

``cmd_ea`` traces one arc from each start of ``locate.arc_starts``: one per
in-domain run of each branch of the slice EPs (at g = 0, one of each mirror
pair b, -b, and the nexus).  Every point it writes must be an EP, no two
arcs may share a point, and the arcs must cross the eta = 0.33 slice at its
in-domain EPs, each one once.
"""
import json

import numpy as np
import pytest

import eptriad.cli
import eptriad.locate
from eptriad.cli import EXIT_OK, main
from eptriad.locate import DOMAIN_BOUND, arc_starts, trace_ea
from eptriad.model import ParamPoint
from oracles import discriminant, per_point_arc, per_point_arc_starts, slice_zeros

ETA_SLICE = 0.33


def ea_doc(tmp_path, g: str, step: str = "0.02") -> dict:
    assert main(["ea", "--g", g, "--step", step, "--out", str(tmp_path)]) == EXIT_OK
    return json.loads((tmp_path / "arcs.json").read_text())


def slice_crossing(points: list, eta: float):
    """b = xi + i zeta where an arc's polyline crosses ``eta``, or None."""
    for p, q in zip(points, points[1:]):
        if (p["eta"] - eta) * (q["eta"] - eta) <= 0 and p["eta"] != q["eta"]:
            t = (eta - p["eta"]) / (q["eta"] - p["eta"])
            return complex(p["xi"], p["zeta"]) + t * complex(q["xi"] - p["xi"], q["zeta"] - p["zeta"])
    return None


EA_G = ["0", "1e-6", "-1e-6", "0.01", "-0.01", "0.05", "-0.05", "0.055", "0.13", "0.61", "-0.61", "-0.65"]


@pytest.mark.parametrize("step", ["0.02", "0.04"])
@pytest.mark.parametrize("g", EA_G)
def test_arcs_are_eps_that_cross_each_slice_ep_once(tmp_path, g, step):
    doc = ea_doc(tmp_path, g, step)
    g = float(g)
    seen = set()
    for arc in doc["arcs"]:
        points = {(q["eta"], q["zeta"], q["xi"]) for q in arc["points"]}
        assert not points & seen, "two arcs share a point"
        seen |= points
        for q in arc["points"]:
            assert abs(discriminant(ParamPoint(q["eta"], q["zeta"], q["xi"], g))) < 1e-10
    zeros = slice_zeros(ETA_SLICE, g)
    zeros = zeros[np.maximum(abs(zeros.real), abs(zeros.imag)) <= DOMAIN_BOUND]
    crossings = [b for b in (slice_crossing(arc["points"], ETA_SLICE) for arc in doc["arcs"]) if b is not None]
    if g == 0:
        # ea keeps one of each mirror pair b, -b: compare them up to sign
        zeros, crossings = zeros[zeros.real > 0], [b if b.real > 0 else -b for b in crossings]
    hit = [int(np.argmin(abs(zeros - b))) for b in crossings]
    assert sorted(hit) == list(range(len(zeros)))
    for b, k in zip(crossings, hit):
        # a chord of the arc misses the curve by at most ~step^2
        assert abs(zeros[k] - b) < float(step) ** 2


def _ep_bits(q) -> tuple:
    w = q.repeated_eigenvalue
    p = (q.point.eta, q.point.zeta, q.point.xi, q.point.g)
    return tuple(float(v).hex() for v in p), (w.real.hex(), w.imag.hex()), q.order, q.residual.hex()


@pytest.mark.parametrize("step", [0.02, 0.04])
@pytest.mark.parametrize("g", EA_G)
def test_arcs_have_the_bits_of_the_per_point_path(g, step):
    """Every start, and every arc held as arrays, gives the EPPoints (point,
    repeated eigenvalue, order, residual) built one ParamPoint at a time."""
    g = float(g)
    starts = arc_starts(g)
    assert [_ep_bits(q) for q in starts] == [_ep_bits(q) for q in per_point_arc_starts(g)]
    for start in starts:
        arc = trace_ea(g, start, step=step)
        points, terminated = per_point_arc(g, start, step)
        assert arc.terminated == terminated
        assert [_ep_bits(q) for q in arc.points] == [_ep_bits(q) for q in points]


@pytest.mark.parametrize(
    "g, step, n_arcs",
    [
        # two arcs that pass within a step of each other near eta = 0
        ("0.05", "0.04", 2),
        ("0.055", "0.04", 2),
        ("-0.05", "0.04", 2),
        ("1e-6", "0.02", 2),
        ("-1e-6", "0.02", 2),
        ("0.01", "0.02", 2),
        ("-0.01", "0.02", 2),
        # four short arcs near the domain's edge, between the eta = -0.5, 0 and 0.5 slices
        ("-0.65", "0.02", 4),
        ("-0.7", "0.02", 4),
        ("0.61", "0.02", 2),
    ],
)
def test_every_arc_is_listed(tmp_path, g, step, n_arcs):
    arcs = ea_doc(tmp_path, g, step)["arcs"]
    assert [arc["terminated"] for arc in arcs] == ["boundary"] * n_arcs
    assert all(len(arc["points"]) > 2 for arc in arcs)


@pytest.mark.parametrize("g, n_arcs", [("0.61", 2), ("0", 3), ("-0.65", 4)])
def test_ea_traces_each_arc_once(tmp_path, monkeypatch, g, n_arcs):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return trace_ea(*args, **kwargs)

    monkeypatch.setattr(eptriad.cli, "trace_ea", counted)
    assert len(ea_doc(tmp_path, g)["arcs"]) == n_arcs
    assert len(calls) == n_arcs


@pytest.mark.parametrize("g, grids", [("0.61", 1), ("0", 2)])
def test_ea_continues_the_branches_once(tmp_path, monkeypatch, g, grids):
    """One ``ea`` command continues each branch grid once, for its starts and
    all its arcs, into read-only arrays; a command at another g before it
    leaves its bytes as they are alone."""
    eptriad.locate._branches_at.cache_clear()
    slice_eps, calls = eptriad.locate._slice_eps, []

    def counted(eta, g, continued=False):
        calls.append(continued)
        return slice_eps(eta, g, continued)

    monkeypatch.setattr(eptriad.locate, "_slice_eps", counted)
    ea_doc(tmp_path / "lone", g)
    assert sum(calls) == grids
    ea_doc(tmp_path / "other", "0.05")
    ea_doc(tmp_path / "after", g)
    assert (tmp_path / "after" / "arcs.json").read_bytes() == (tmp_path / "lone" / "arcs.json").read_bytes()
    assert sum(calls) == 2 * grids + 1
    for grid in eptriad.locate._branches(float(g)):
        assert not any(a.flags.writeable for a in grid)


def test_negative_g_arcs_are_found(tmp_path):
    assert main(["ea", "--g", "-0.61", "--out", str(tmp_path)]) == EXIT_OK
    assert len(json.loads((tmp_path / "arcs.json").read_text())["arcs"]) == 2


def test_negative_g_in_exponent_form_is_a_value(tmp_path):
    assert main(["ea", "--g=-1e-6", "--out", str(tmp_path / "eq")]) == EXIT_OK
    assert main(["ea", "--g", "-1e-6", "--out", str(tmp_path / "space")]) == EXIT_OK
    assert (tmp_path / "eq" / "arcs.json").read_bytes() == (tmp_path / "space" / "arcs.json").read_bytes()


@pytest.mark.parametrize("g, n_arcs", [("1e300", 0), ("5e-324", 2), ("1e-300", 2), ("-1e-300", 2)])
def test_extreme_g_finds_the_arcs_without_overflow(tmp_path, g, n_arcs):
    """The slice quartic's coefficients overflow or underflow at these g;
    the roots that are not finite fall outside the domain, and no
    RuntimeWarning (an error under this suite) escapes."""
    arcs = ea_doc(tmp_path, g)["arcs"]
    assert [(arc["terminated"], len(arc["points"])) for arc in arcs] == [("boundary", 204)] * n_arcs
