"""Spans and counters for the traced run.

Each hook wraps one public pcfcolor function at the module (or class)
attribute its callers look up at call time, so calls made inside the
package are seen without editing it.  A span records name, start, end,
parent span and the operation it belongs to; self time is the span's
duration minus the durations of its direct children.  Spans stay in memory
and are written out once, when the run ends.

Hooks record nothing while the tracer is inactive, which is how the
benchmark's own correctness checks (run between operations) stay out of
the numbers.
"""

from __future__ import annotations

import gzip
import importlib
import json
import time
from collections import Counter

SPAN = "span"
COUNT = "count"

# metric prefix -> (hook kind, [(module, attribute path)], result handler name)
HOOKS = {
    "graphs.Graph.built": (COUNT, [("graphs", "Graph.__init__")], None),
    "graphs.subgraph": (SPAN, [("graphs", "Graph.subgraph")], None),
    "graphs.is_connected": (SPAN, [("graphs", "Graph.is_connected")], None),
    "graphs.parse_graph6": (SPAN, [("cli", "parse_graph6")], None),
    "graphs.write_graph6": (SPAN, [("cli", "write_graph6")], None),
    "kernel.verify": (SPAN, [("solver", "verify"), ("oracle", "verify"), ("cli", "verify")], None),
    "kernel.unique_colors": (COUNT, [("kernel", "unique_colors"), ("oracle", "unique_colors")], None),
    "kernel.degree_plus_k_lists": (
        SPAN, [("kernel", "degree_plus_k_lists"), ("cli", "degree_plus_k_lists")], None),
    "structure.block_decomposition": (SPAN, [("structure", "block_decomposition")], None),
    "structure.outer_embedding": (
        SPAN, [("structure", "outer_embedding"), ("cli", "outer_embedding")], None),
    "structure.find_good_ear_or_chain": (
        SPAN, [("structure", "find_good_ear_or_chain"), ("cli", "find_good_ear_or_chain")], None),
    "structure.is_outerplanar": (
        SPAN, [("solver", "is_outerplanar"), ("families", "is_outerplanar")], None),
    "structure.classify_end_block": (SPAN, [("solver", "classify_end_block")], None),
    "solver.solve": (SPAN, [("solver", "solve")], "solve"),
    "solver.color_cycle": (SPAN, [("solver", "color_cycle")], None),
    "solver.color_constrained_path": (SPAN, [("solver", "color_constrained_path")], None),
    "oracle.solve_exact": (SPAN, [("oracle", "solve_exact")], "solve_exact"),
    "oracle.pcf_chromatic_number": (SPAN, [("oracle", "pcf_chromatic_number")], None),
    "oracle.refute_choosability": (SPAN, [("oracle", "refute_choosability")], "refute"),
    "families.enumerate_connected_outerplanar": (
        SPAN, [("families", "enumerate_connected_outerplanar")], None),
    "families.random_outerplanar": (SPAN, [("families", "random_outerplanar")], None),
    "cli.main": (SPAN, [("cli", "main")], None),
}


def case_metric(case: str) -> str:
    """Trace case tag as a metric name: 'LongEar(sub1)' -> 'LongEar.sub1'."""
    return case.replace(">=", "_ge").replace("(", ".").replace(")", "")


class Tracer:
    def __init__(self):
        self.active = False
        self.phase = "setup"
        self.op_index = -1
        self.spans: list = []  # (id, name, start_ns, end_ns, parent id, op index, phase)
        self._stack: list[list[int]] = []  # [span id, child ns]
        self.self_ns: Counter = Counter()  # (phase, name) -> ns
        self.calls: Counter = Counter()  # (phase, name) -> calls
        self.counts: Counter = Counter()  # operation-phase counters from results
        self.missing: list[str] = []  # hook targets that do not exist

    # -- phases ----------------------------------------------------------------

    def begin_op(self, index: int) -> None:
        self._stack.clear()
        self.op_index = index
        self.phase = "op"
        self.active = True

    def end_op(self) -> None:
        self.active = False
        self._stack.clear()

    # -- wrappers ----------------------------------------------------------------

    def span_wrapper(self, name, fn, on_result=None):
        tracer = self
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer._stack
            sid = len(tracer.spans)
            tracer.spans.append(None)
            parent = stack[-1][0] if stack else -1
            frame = [sid, 0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                if stack and stack[-1] is frame:
                    stack.pop()
                dur = end - start
                if stack:
                    stack[-1][1] += dur
                key = (tracer.phase, name)
                tracer.self_ns[key] += dur - frame[1]
                tracer.calls[key] += 1
                tracer.spans[sid] = (sid, name, start, end, parent, tracer.op_index, tracer.phase)
            if on_result is not None and tracer.phase == "op":
                on_result(result)
            return result

        return traced

    def count_wrapper(self, name, fn):
        tracer = self

        def counted(*args, **kwargs):
            if tracer.active:
                tracer.calls[(tracer.phase, name)] += 1
            return fn(*args, **kwargs)

        return counted

    # -- result handlers -----------------------------------------------------------

    def _on_solve(self, res) -> None:
        self.counts["solver.trace_steps"] += len(res.trace)
        for step in res.trace:
            self.counts["solver.case." + case_metric(step.case)] += 1
        if res.obstruction is not None:
            self.counts["solver.obstruction." + res.obstruction.reason] += 1

    def _on_solve_exact(self, res) -> None:
        self.counts["oracle.nodes"] += res.nodes

    def _on_refute(self, res) -> None:
        self.counts["oracle.refute.assignments_checked"] += res.assignments_checked

    # -- installation ----------------------------------------------------------------

    def install(self, package: str = "pcfcolor") -> set[str]:
        """Wrap every hook target that exists; return the hook names with no target."""
        handlers = {
            "solve": self._on_solve,
            "solve_exact": self._on_solve_exact,
            "refute": self._on_refute,
        }
        absent = set()
        for name, (kind, targets, handler) in HOOKS.items():
            wrapped: dict[int, object] = {}
            installed = 0
            for module_name, path in targets:
                owner = importlib.import_module(f"{package}.{module_name}")
                *owner_path, attr = path.split(".")
                for part in owner_path:
                    owner = getattr(owner, part, None)
                orig = getattr(owner, attr, None) if owner is not None else None
                if orig is None:
                    self.missing.append(f"{module_name}.{path}")
                    continue
                if id(orig) not in wrapped:
                    if kind == COUNT:
                        wrapped[id(orig)] = self.count_wrapper(name, orig)
                    else:
                        wrapped[id(orig)] = self.span_wrapper(
                            name, orig, handlers.get(handler)
                        )
                setattr(owner, attr, wrapped[id(orig)])
                installed += 1
            if not installed:
                absent.add(name)
        return absent

    def summary(self) -> dict:
        return {
            "self_ns": [[p, n, v] for (p, n), v in self.self_ns.items()],
            "calls": [[p, n, v] for (p, n), v in self.calls.items()],
            "counts": dict(self.counts),
            "missing": self.missing,
        }

    def write_spans(self, path) -> int:
        path.parent.mkdir(parents=True, exist_ok=True)
        keys = ("id", "name", "start_ns", "end_ns", "parent", "op", "phase")
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for span in self.spans:
                if span is not None:
                    fh.write(json.dumps(dict(zip(keys, span))) + "\n")
        return len(self.spans)
