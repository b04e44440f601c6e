"""Per-layer spans recorded from outside the package, for the traced run.

The tracer replaces each public function at the module attribute its caller
looks up (``walk.solve_mve``, not ``mve.solve_mve``, for the walk's solves)
with a wrapper that records a span: name, start, end, parent span and
operation id. Spans stay in memory and are written when the run ends.
Nothing is wrapped outside a traced pass, so untraced passes run the
package unchanged.
"""

from __future__ import annotations

import contextlib
import functools
import os
import time
from collections import defaultdict

import numpy as np

from johnswalk import cli, geometry, mve, vaidya, walk


def _emitted_bytes(args, result):
    return {"bytes": os.path.getsize(args[1])}


def _oracle_answer(args, result):
    return {"kind": result.kind}


def _minimize_result(args, result):
    return {"peak_rows": result.state.peak_rows, "drops": result.state.drops}


# (module, attribute its caller looks up, span name, observer of the result).
# The span is named after the layer that does the work; the site after the
# caller, so a caller that stops calling through a site shows as zero calls.
SITES = (
    (cli, "load_polytope", "cli.load_polytope", None),
    (cli, "analytic_center", "geometry.analytic_center", None),
    (cli, "run_chain", "walk.run_chain", None),
    (cli, "run_hit_and_run", "walk.run_hit_and_run", None),
    (cli, "run_ball_walk", "walk.run_ball_walk", None),
    (cli, "emit_samples", "cli.emit_samples", _emitted_bytes),
    (walk, "init_state", "walk.init_state", None),
    (walk, "john_step", "walk.john_step", None),
    (walk, "propose", "walk.propose", None),
    (walk, "symmetrize", "geometry.symmetrize", None),
    (walk, "solve_mve", "mve.solve_mve", None),
    (walk, "local_norm", "walk.local_norm", None),
    (walk, "hit_and_run_step", "walk.hit_and_run_step", None),
    (walk, "chord", "geometry.chord", None),
    (walk, "ball_walk_step", "walk.ball_walk_step", None),
    (walk, "contains", "geometry.contains", None),
    (geometry, "symmetrize", "geometry.symmetrize", None),
    (mve, "solve_mve", "mve.solve_mve", None),
    (mve, "dikin_precondition", "mve.dikin_precondition", None),
    (mve, "separation_oracle_mve", "mve.separation_oracle_mve", _oracle_answer),
    (mve, "dual_logdet_bound", "mve.dual_logdet_bound", None),
    (vaidya, "vaidya_minimize", "vaidya.vaidya_minimize", _minimize_result),
)

# Per-layer metrics of the traced run: (name, unit, better).
PER_LAYER = (
    ("mve.solve_mve.calls", "count", "lower"),
    ("mve.solve_mve.s", "s", "lower"),
    ("mve.solve_ms.p50", "ms", "lower"),
    ("mve.solve_ms.p90", "ms", "lower"),
    ("mve.share_of_chain", "fraction", "lower"),
    ("walk.step_ms.p50", "ms", "lower"),
    ("walk.step_ms.p90", "ms", "lower"),
    ("walk.john_step.self_s", "s", "lower"),
    ("walk.propose.s", "s", "lower"),
    ("walk.local_norm.s", "s", "lower"),
    ("geometry.symmetrize.s", "s", "lower"),
    ("geometry.analytic_center.s", "s", "lower"),
    ("walk.lazy_hold", "count", "lower"),
    ("walk.reject_outside", "count", "lower"),
    ("walk.reject_reversibility", "count", "lower"),
    ("walk.reject_filter", "count", "lower"),
    ("walk.accept", "count", "higher"),
    ("walk.accept_ratio", "fraction", "higher"),
    ("walk.solves_per_step", "count/step", "lower"),
    ("diagnostics.min_ess", "count", "higher"),
    ("cli.emit_samples.s", "s", "lower"),
    ("cli.emit_samples.mb", "MB", "lower"),
    ("walk.hit_and_run_step.s", "s", "lower"),
    ("geometry.chord.s", "s", "lower"),
    ("vaidya.vaidya_minimize.s", "s", "lower"),
    ("vaidya.engine_self_s", "s", "lower"),
    ("vaidya.oracle_calls", "count", "lower"),
    ("vaidya.feasible_evals", "count", "lower"),
    ("vaidya.peak_rows", "count", "lower"),
    ("vaidya.drops", "count", "lower"),
    ("vaidya.ms_per_oracle_call", "ms", "lower"),
    ("mve.separation_oracle_mve.s", "s", "lower"),
    ("mve.dual_logdet_bound.s", "s", "lower"),
    ("mve.dikin_precondition.s", "s", "lower"),
    ("trace_overhead", "fraction", "lower"),
)


def site_name(module, attr: str) -> str:
    return f"{module.__name__}.{attr}"


class Tracer:
    """Spans timed by ``now``; run.py passes clock.Clock.program_time,
    which stops while a speed probe runs."""

    def __init__(self, now=time.perf_counter):
        self.now = now
        self.t0 = now()
        # [name, start, end, parent index or -1, operation id, attributes]
        self.spans: list = []
        self.calls = {site_name(m, attr): 0 for m, attr, _, _ in SITES}
        self._stack: list = []
        self._op = None

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, self.now(), 0.0, parent, self._op, None])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, index: int) -> None:
        self.spans[index][2] = self.now()
        self._stack.pop()

    @contextlib.contextmanager
    def _op_span(self, name: str, op_id: int):
        self._op = op_id
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)
            self._op = None

    def op_span(self, kind: str, op_id: int):
        """Zero-argument factory of the root span of one operation."""
        return functools.partial(self._op_span, f"op.{kind}", op_id)

    def _wrap(self, fn, name: str, site: str, observe):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.calls[site] += 1
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self.spans[index][5] = {"error": type(exc).__name__}
                raise
            finally:
                self._close(index)
            if observe is not None:
                self.spans[index][5] = observe(args, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every site for the duration of the block."""
        saved = []
        try:
            for module, attr, name, observe in SITES:
                fn = getattr(module, attr)
                saved.append((module, attr, fn))
                setattr(module, attr, self._wrap(fn, name, site_name(module, attr), observe))
            yield self
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)

    def self_times(self) -> list:
        """Each span's duration minus the part its child spans cover."""
        covered = [0.0] * len(self.spans)
        for _, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        return [s[2] - s[1] - c for s, c in zip(self.spans, covered)]

    def layers(self) -> dict:
        """Calls, seconds and self seconds per span name, and self seconds
        per layer (the module prefix of the name)."""
        names: dict = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        modules: dict = defaultdict(float)
        for span, own in zip(self.spans, self.self_times()):
            row = names[span[0]]
            row["calls"] += 1
            row["s"] += span[2] - span[1]
            row["self_s"] += own
            modules[span[0].split(".")[0]] += own
        return {"spans": dict(sorted(names.items())), "layer_self_s": dict(sorted(modules.items()))}

    def zero_call_sites(self) -> list:
        return sorted(site for site, count in self.calls.items() if count == 0)

    def dump(self) -> list:
        return [
            {"name": name, "start": start - self.t0, "end": end - self.t0,
             "parent": parent, "op": op, **(attrs or {})}
            for name, start, end, parent, op, attrs in self.spans
        ]


def _pct(values, q: float) -> float:
    return float(np.percentile(values, q)) if values else 0.0


def layer_metrics(tracer: Tracer, outcomes: list, ids: dict, overhead: float) -> dict:
    """The per-layer metrics of PER_LAYER from one traced pass's spans and
    outcomes; ``ids`` maps each operation to the id its spans carry. Counts
    repeat exactly for a fixed seed."""
    spans, own = tracer.spans, tracer.self_times()
    by_name: dict = defaultdict(list)
    for i, span in enumerate(spans):
        by_name[span[0]].append(i)

    def dur(i):
        return spans[i][2] - spans[i][1]

    def total(name):
        return sum(dur(i) for i in by_name[name])

    john = [o for o in outcomes if getattr(o.op, "walk", None) == "john" and o.ok]
    john_ids = {ids[o.op] for o in john}
    tallies = {k: sum(o.tallies[k] for o in john) for k in
               ("lazy_hold", "reject_outside", "reject_reversibility", "reject_filter", "accept")}
    steps = sum(o.op.steps for o in john)
    non_lazy = steps - tallies["lazy_hold"]
    solves = by_name["mve.solve_mve"]
    chain_solves = [i for i in solves if spans[i][4] in john_ids]
    john_wall = sum(dur(i) for i in by_name["op.john"] if spans[i][4] in john_ids)
    step_ms = [1000.0 * dur(i) for i in by_name["walk.john_step"]]
    solve_ms = [1000.0 * dur(i) for i in solves]
    minimize = by_name["vaidya.vaidya_minimize"]
    oracle = by_name["mve.separation_oracle_mve"]
    minimize_s = total("vaidya.vaidya_minimize")
    results = [spans[i][5] for i in minimize if spans[i][5] and "peak_rows" in spans[i][5]]
    emitted = sum(spans[i][5]["bytes"] for i in by_name["cli.emit_samples"] if spans[i][5]
                  and "bytes" in spans[i][5])

    metrics = {
        "mve.solve_mve.calls": len(solves),
        "mve.solve_mve.s": total("mve.solve_mve"),
        "mve.solve_ms.p50": _pct(solve_ms, 50),
        "mve.solve_ms.p90": _pct(solve_ms, 90),
        "mve.share_of_chain": (sum(dur(i) for i in chain_solves) / john_wall
                               if john_wall else 0.0),
        "walk.step_ms.p50": _pct(step_ms, 50),
        "walk.step_ms.p90": _pct(step_ms, 90),
        "walk.john_step.self_s": sum(own[i] for i in by_name["walk.john_step"]),
        "walk.propose.s": total("walk.propose"),
        "walk.local_norm.s": total("walk.local_norm"),
        "geometry.symmetrize.s": total("geometry.symmetrize"),
        "geometry.analytic_center.s": total("geometry.analytic_center"),
        **{f"walk.{k}": v for k, v in tallies.items()},
        "walk.accept_ratio": tallies["accept"] / non_lazy if non_lazy else 0.0,
        "walk.solves_per_step": len(chain_solves) / steps if steps else 0.0,
        "diagnostics.min_ess": sum(o.min_ess for o in john),
        "cli.emit_samples.s": total("cli.emit_samples"),
        "cli.emit_samples.mb": emitted / 1e6,
        "walk.hit_and_run_step.s": total("walk.hit_and_run_step"),
        "geometry.chord.s": total("geometry.chord"),
        "vaidya.vaidya_minimize.s": minimize_s,
        "vaidya.engine_self_s": sum(own[i] for i in minimize),
        "vaidya.oracle_calls": len(oracle),
        "vaidya.feasible_evals": sum(1 for i in oracle
                                     if (spans[i][5] or {}).get("kind") == "feasible"),
        "vaidya.peak_rows": max((r["peak_rows"] for r in results), default=0),
        "vaidya.drops": sum(r["drops"] for r in results),
        "vaidya.ms_per_oracle_call": 1000.0 * minimize_s / len(oracle) if oracle else 0.0,
        "mve.separation_oracle_mve.s": total("mve.separation_oracle_mve"),
        "mve.dual_logdet_bound.s": total("mve.dual_logdet_bound"),
        "mve.dikin_precondition.s": total("mve.dikin_precondition"),
        "trace_overhead": overhead,
    }
    return metrics
