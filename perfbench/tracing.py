"""In-memory spans around the public functions of each jarlskog layer.

A layer function is wrapped at every binding that jarlskog modules hold for
it (the defining module and each consumer that imported it by name), so a
call is seen whichever name it goes through.  UnitaryMatrix validation is
wrapped on the class.  Each call records one span

    (op, span_id, parent_id, layer_index, start_ns, end_ns)

where op is the benchmark operation that caused it and parent_id the
enclosing wrapped call (-1 at the top).  Spans stay in memory until the run
ends; self time is a span's duration minus the durations of its children.

Two layers also keep exact counts: random_spectrum's redraws, read from the
SeededRng.position delta of each call, and reconstruct_J's degeneracy gate.
A layer whose function no longer exists is reported as absent (None).
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time

#: wrapped layer functions, named <module>.<function> after their defining
#: module in the jarlskog package
LAYERS = (
    "sampling.haar_unitary",
    "sampling.random_spectrum",
    "sampling.rephase",
    "linalg.UnitaryMatrix.__post_init__",
    "linalg.det",
    "determinant.det_direct",
    "determinant.det3_closed",
    "determinant.det4_closed",
    "determinant.t_factors",
    "phases.phase_table",
    "phases.unitary_relation_residuals",
    "phases.nonlinear_relation_residuals",
    "phases.n3_phase_table",
    "phases.jr_matrices",
    "phases.expand_phases",
    "phases.reconstruct_J",
    "verify.run_suite",
    "problem_io.load_problem",
    "problem_io.parse_problem",
    "cli.main",
)

ACCEPT_RATIO = "sampling.random_spectrum.accept_ratio"
GATE_PASS_RATIO = "phases.reconstruct_J.gate_pass_ratio"


def _resolve(layer):
    """(owner, attribute, function) for a layer name, or None if it is gone."""
    module_name, *path = layer.split(".")
    try:
        owner = importlib.import_module(f"jarlskog.{module_name}")
    except ImportError:
        return None
    for attr in path[:-1]:
        owner = getattr(owner, attr, None)
        if owner is None:
            return None
    fn = getattr(owner, path[-1], None)
    if not callable(fn):
        return None
    return owner, path[-1], fn


def _bindings(owner, attr, fn):
    """Every (namespace, attribute) pair that must be patched to see all calls."""
    if isinstance(owner, type):
        return [(owner, attr)]
    found = []
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "jarlskog" or name.startswith("jarlskog.")):
            continue
        for key, value in list(vars(module).items()):
            if value is fn:
                found.append((module, key))
    return found


class Tracer:
    """Spans and counts of one traced run."""

    def __init__(self):
        self.spans = []
        self.op = -1
        self.absent = []
        self._stack = []
        self._next_id = 0
        self.spectra = 0
        self.spectrum_draws = 0
        self.draws_known = True
        self.gate_total = 0
        self.gate_passed = 0
        self.gate_known = True

    def _wrap(self, index, layer, fn):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter_ns
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = tracer._next_id
            tracer._next_id += 1
            parent = stack[-1] if stack else -1
            stack.append(span_id)
            before = tracer._before(layer, args, kwargs)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((tracer.op, span_id, parent, index, start, end))
            tracer._after(layer, before, result)
            return result

        return wrapper

    def _before(self, layer, args, kwargs):
        if layer == "sampling.random_spectrum":
            n = args[0] if args else kwargs.get("n")
            rng = args[1] if len(args) > 1 else kwargs.get("rng")
            return n, rng, getattr(rng, "position", None)
        return None

    def _after(self, layer, before, result):
        if layer == "sampling.random_spectrum":
            n, rng, position = before
            if position is None or not isinstance(n, int):
                self.draws_known = False
                return
            self.spectra += 1
            self.spectrum_draws += (rng.position - position) // n
        elif layer == "phases.reconstruct_J":
            degenerate = getattr(result, "degenerate", None)
            if degenerate is None:
                self.gate_known = False
                return
            self.gate_total += 1
            self.gate_passed += not degenerate

    @contextlib.contextmanager
    def installed(self):
        """Patch every layer binding for the duration of the block."""
        patched = []
        self.absent = []
        try:
            for index, layer in enumerate(LAYERS):
                resolved = _resolve(layer)
                if resolved is None:
                    self.absent.append(layer)
                    continue
                owner, attr, fn = resolved
                wrapper = self._wrap(index, layer, fn)
                for namespace, key in _bindings(owner, attr, fn):
                    patched.append((namespace, key, fn))
                    setattr(namespace, key, wrapper)
            yield self
        finally:
            for namespace, key, fn in reversed(patched):
                setattr(namespace, key, fn)

    def layer_metrics(self, ops):
        """Per-layer metrics over `ops` traced operations: {name: (value, unit)}.

        Absent layers and ratios without a single attempt read None.
        """
        duration = {}
        child_time = {}
        for _, span_id, parent, _, start, end in self.spans:
            duration[span_id] = end - start
            if parent >= 0:
                child_time[parent] = child_time.get(parent, 0) + end - start
        calls = [0] * len(LAYERS)
        self_ns = [0] * len(LAYERS)
        for _, span_id, _, index, _, _ in self.spans:
            calls[index] += 1
            self_ns[index] += duration[span_id] - child_time.get(span_id, 0)

        metrics = {}
        for index, layer in enumerate(LAYERS):
            present = layer not in self.absent
            metrics[f"{layer}.calls_per_op"] = (
                calls[index] / ops if present else None, "count")
            metrics[f"{layer}.self_us_per_op"] = (
                self_ns[index] / 1e3 / ops if present else None, "us")
        accept = None
        if self.draws_known and self.spectrum_draws:
            accept = self.spectra / self.spectrum_draws
        gate = None
        if self.gate_known and self.gate_total:
            gate = self.gate_passed / self.gate_total
        metrics[ACCEPT_RATIO] = (accept, "ratio")
        metrics[GATE_PASS_RATIO] = (gate, "ratio")
        return metrics

    def dump(self):
        """The spans as a JSON-ready document."""
        return {
            "layers": list(LAYERS),
            "absent": list(self.absent),
            "span_fields": ["op", "span_id", "parent_id", "layer", "start_ns", "end_ns"],
            "spans": self.spans,
        }
