"""Span recorder for the traced benchmark run.

The program is not instrumented. Instead the recorder rebinds, for the
duration of a traced pass, the module-level names through which eptriad's
modules (and the benchmark itself) look up each layer's functions, for
example ``eptriad.transport.eigensystem`` or ``eptriad.spectral.fit_step``.
Every call through such a name records a span ``[name, start, end, parent]``.
Spans stay in memory; per-layer metrics are derived from them after the
pass. A layer's self time is its span time minus the time of its child
spans, which nest strictly because everything runs on one thread.
"""
from __future__ import annotations

import contextlib
import importlib
import statistics
import time
from collections import Counter, defaultdict


def _on_preset_loop(tracer, out, args):
    tracer.counts["loops.steps_built"] += out.n_steps


def _on_transport_eigensystems(tracer, out, args):
    steps = int(out.tracked_eigenvalues.shape[0])
    tracer.counts["transport.steps"] += steps
    tracer.counts["transport.bisections"] += steps - len(args[0])
    tracer.minimum("transport.min_overlap", out.min_overlap)


def _on_trace_ea(tracer, out, args):
    tracer.counts["locate.trace_ea.points"] += len(out.points)
    tracer.maximum("locate.arc_residual_max", max((q.residual for q in out.points), default=0.0))


def _on_de(tracer, out, args):
    tracer.counts["spectral.de.nfev"] += int(out.nfev)
    tracer.counts["spectral.de.nit"] += int(out.nit)


# (module, attribute looked up by callers, span name, observer of the result)
BINDINGS = (
    ("eptriad.cli", "main", "cli.main", None),
    ("eptriad.cli", "eigensystem", "model.eigensystem", None),
    ("eptriad.transport", "eigensystem", "model.eigensystem", None),
    # branch_cut_trace imports eigensystem from eptriad.model at call time
    ("eptriad.model", "eigensystem", "model.eigensystem", None),
    ("eptriad.cli", "discriminant_formula", "model.discriminant_formula", None),
    ("eptriad.transport", "discriminant_formula", "model.discriminant_formula", None),
    ("eptriad.loops", "discriminant_formula", "model.discriminant_formula", None),
    ("eptriad.locate", "discriminant_formula", "model.discriminant_formula", None),
    ("eptriad.cli", "preset_loop", "loops.preset_loop", _on_preset_loop),
    ("eptriad.cli", "transport", "transport.transport", None),
    ("eptriad.transport", "transport_eigensystems", "transport.transport_eigensystems",
     _on_transport_eigensystems),
    ("eptriad.cli", "match_assignment", "transport.match_assignment", None),
    ("eptriad.transport", "match_assignment", "transport.match_assignment", None),
    ("eptriad.cli", "seed_eps_in_slice", "locate.seed_eps_in_slice", None),
    ("eptriad.cli", "refine_ep", "locate.refine_ep", None),
    ("eptriad.cli", "trace_ea", "locate.trace_ea", _on_trace_ea),
    ("eptriad.locate", "branch_cut_trace", "locate.branch_cut_trace", None),
    ("eptriad.cli", "synthesize", "spectral.synthesize", None),
    ("eptriad.cli", "save_dataset", "spectral.save_dataset", None),
    ("eptriad.cli", "fit_loop", "spectral.fit_loop", None),
    ("eptriad.spectral", "fit_step", "spectral.fit_step", None),
    ("eptriad.spectral", "differential_evolution", "spectral.de", _on_de),
    ("eptriad.spectral", "_gauss_newton", "spectral.gn", None),
    ("eptriad.spectral", "_response_matrix", "spectral.forward", None),
)

PASS_SPAN = "bench.pass"
CHECK_SPAN = "bench.check"
KERNEL_SPAN = "bench.kernel"
# cli.main's self time is everything the program does outside the named
# layers, so it counts as unattributed, like the benchmark's own spans
UNATTRIBUTED = (PASS_SPAN, CHECK_SPAN, KERNEL_SPAN, "cli.main")


class Tracer:
    """Records spans and counters for one traced pass."""

    def __init__(self):
        self.spans: list[list] = []          # [name, start, end, parent index or -1]
        self._stack: list[int] = []
        self.counts: Counter = Counter()
        self.extrema: dict[str, float] = {}

    def minimum(self, key: str, value: float) -> None:
        self.extrema[key] = min(self.extrema.get(key, value), value)

    def maximum(self, key: str, value: float) -> None:
        self.extrema[key] = max(self.extrema.get(key, value), value)

    @contextlib.contextmanager
    def span(self, name: str):
        rec = [name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def kernel_probe(self, probe):
        """``probe`` run in a span of its own, so that no layer's self time holds it."""
        def traced_probe():
            with self.span(KERNEL_SPAN):
                return probe()
        return traced_probe

    def wrap(self, fn, name: str, observe=None):
        spans, stack, counts, clock = self.spans, self._stack, self.counts, time.perf_counter

        def traced(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            except Exception:
                counts[name + ".errors"] += 1
                raise
            finally:
                rec[2] = clock()
                stack.pop()
            if observe is not None:
                observe(self, out, args)
            return out

        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def installed(self, bindings=BINDINGS):
        """Rebind every name in ``bindings`` to a recording wrapper, then restore."""
        saved = []
        try:
            for module_name, attr, name, observe in bindings:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(original, name, observe))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)


def null_span(name: str):
    """The untraced stand-in for ``Tracer.span``."""
    return contextlib.nullcontext()


class _Agg:
    __slots__ = ("calls", "time", "self_time", "durations")

    def __init__(self):
        self.calls, self.time, self.self_time, self.durations = 0, 0.0, 0.0, []


def aggregate(spans) -> dict[str, _Agg]:
    """Calls, total time, self time and durations per span name."""
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict[str, _Agg] = defaultdict(_Agg)
    for (name, start, end, _), covered in zip(spans, child):
        agg = out[name]
        agg.calls += 1
        agg.time += end - start
        agg.self_time += (end - start) - covered
        agg.durations.append(end - start)
    return out


def layer_metrics(tracer: Tracer, observed: dict) -> dict[str, float]:
    """Per-layer metrics of one traced pass.

    ``observed`` holds what the pass read from the program's outputs:
    bytes written, arcs reported and the fit accuracy of the lab workload.
    The reference kernel's runs are not part of the pass. A metric of a
    layer the workload does not use reads 0.
    """
    agg = aggregate(tracer.spans)
    counts, extrema = tracer.counts, tracer.extrema

    def calls(name):
        return agg[name].calls if name in agg else 0

    def total(name):
        return agg[name].time if name in agg else 0.0

    def own(name):
        return agg[name].self_time if name in agg else 0.0

    wall = total(PASS_SPAN) - total(KERNEL_SPAN)
    fit_steps = agg["spectral.fit_step"].durations if "spectral.fit_step" in agg else []
    eig_calls = calls("model.eigensystem")
    traced_arcs = calls("locate.trace_ea")
    layer_self = sum(a.self_time for name, a in agg.items() if name not in UNATTRIBUTED)
    return {
        "cli.main.calls": calls("cli.main"),
        "cli.main.time_s": total("cli.main"),
        "cli.self_s": own("cli.main"),
        "cli.bytes_written": observed.get("bytes_written", 0),
        "model.eigensystem.calls": eig_calls,
        "model.eigensystem.time_s": total("model.eigensystem"),
        "model.eigensystem.us_per_call": 1e6 * total("model.eigensystem") / eig_calls if eig_calls else 0.0,
        "model.discriminant_formula.calls": calls("model.discriminant_formula"),
        "model.discriminant_formula.time_s": total("model.discriminant_formula"),
        "loops.preset_loop.calls": calls("loops.preset_loop"),
        "loops.preset_loop.time_s": total("loops.preset_loop"),
        "loops.steps_built": counts["loops.steps_built"],
        "transport.transport.time_s": total("transport.transport"),
        "transport.self_s": own("transport.transport") + own("transport.transport_eigensystems"),
        "transport.steps": counts["transport.steps"],
        "transport.bisections": counts["transport.bisections"],
        "transport.min_overlap": extrema.get("transport.min_overlap", 0.0),
        "transport.match_assignment.calls": calls("transport.match_assignment"),
        "transport.match_assignment.time_s": total("transport.match_assignment"),
        "transport.transport_eigensystems.time_s": total("transport.transport_eigensystems"),
        "locate.seed_eps_in_slice.time_s": total("locate.seed_eps_in_slice"),
        "locate.refine_ep.calls": calls("locate.refine_ep"),
        "locate.refine_ep.failures": counts["locate.refine_ep.errors"],
        "locate.trace_ea.calls": traced_arcs,
        "locate.trace_ea.time_s": total("locate.trace_ea"),
        "locate.trace_ea.points": counts["locate.trace_ea.points"],
        "locate.trace_ea.useful_ratio": observed.get("arcs_reported", 0) / traced_arcs if traced_arcs else 0.0,
        "locate.branch_cut_trace.time_s": total("locate.branch_cut_trace"),
        "locate.arc_residual_max": extrema.get("locate.arc_residual_max", 0.0),
        "spectral.synthesize.time_s": total("spectral.synthesize"),
        "spectral.save_dataset.time_s": total("spectral.save_dataset"),
        "spectral.fit_step.calls": calls("spectral.fit_step"),
        "spectral.fit_step.time_s": total("spectral.fit_step"),
        "spectral.fit_step.p50_s": statistics.median(fit_steps) if fit_steps else 0.0,
        "spectral.fit_step.max_s": max(fit_steps, default=0.0),
        "spectral.forward.calls": calls("spectral.forward"),
        "spectral.de.time_s": total("spectral.de"),
        "spectral.de.nfev": counts["spectral.de.nfev"],
        "spectral.de.nit": counts["spectral.de.nit"],
        # forward calls made by DE are its direct children, so its self time
        # is the optimizer's own bookkeeping
        "spectral.de.overhead_s": own("spectral.de"),
        "spectral.gn.time_s": total("spectral.gn"),
        "spectral.fit.param_err_max": observed.get("param_err_max", 0.0),
        "spectral.fit.residual_max": observed.get("residual_max", 0.0),
        "bench.check_s": total(CHECK_SPAN),
        "trace.attributed_ratio": layer_self / wall if wall else 0.0,
        "trace.spans": len(tracer.spans),
    }
