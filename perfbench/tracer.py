"""Spans around ccmkit's public functions, recorded from outside the code.

``Tracer.install`` replaces each function named in ``PATCHES`` with a
wrapper that records a span (name, start, end, parent).  Callers import
these functions by name, so each wrapper is installed in the namespace
of the *calling* module.  ``compile_matrix`` is wrapped where the model
and the transforms look it up, and every compiled callable it returns is
wrapped too, so each evaluation of a compiled expression table is an
``expr.eval`` span.

Spans live in memory until ``take`` summarizes and clears them, once per
operation.  Work the verifier hands to its thread pool runs with an empty
stack in the worker thread; such spans take the innermost open span of
the tracing thread as parent.  A span's self time is its duration minus
the union of the intervals its children cover, so overlapping children
from two pool threads are not subtracted twice.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import threading
from collections import defaultdict
from time import perf_counter

# (module or module.Class, attribute, span name)
PATCHES = [
    ("ccmkit.cli", "main", "cli.main"),
    ("ccmkit.cli", "load_spec_file", "model.load_spec_file"),
    ("ccmkit.model", "load_spec_file", "model.load_spec_file"),
    ("ccmkit.model", "compile_matrix", "expr.compile"),
    ("ccmkit.expr", "compile_matrix", "expr.compile"),
    ("ccmkit.model.Plant", "__init__", "model.plant_build"),
    ("ccmkit.model.Plant", "raw_batch", "model.raw_batch"),
    ("ccmkit.cli", "verify", "verifier.verify"),
    ("ccmkit.verifier", "check_metric_bounds", "model.check_metric_bounds"),
    ("ccmkit.verifier", "check_contraction", "verifier.check_contraction"),
    ("ccmkit.verifier", "check_condition1", "verifier.check_condition1"),
    ("ccmkit.verifier", "check_strong_conditions", "verifier.check_strong_conditions"),
    ("ccmkit.verifier", "fit_psi_power_law", "verifier.fit_psi_power_law"),
    ("ccmkit.verifier", "kernel_basis", "verifier.kernel_basis"),
    ("ccmkit.verifier", "construct_psi", "verifier.construct_psi"),
    ("ccmkit.transforms", "construct_psi", "verifier.construct_psi"),
    ("ccmkit.verifier", "compute_H", "differential.compute_H"),
    ("ccmkit.transforms", "compute_H", "differential.compute_H"),
    ("ccmkit.cli", "simulate_closed_loop", "simulator.simulate_closed_loop"),
    ("ccmkit.cli", "integrate", "simulator.integrate"),
    ("ccmkit.simulator", "integrate", "simulator.integrate"),
    ("ccmkit.simulator", "convergence_metrics", "simulator.convergence_metrics"),
    ("ccmkit.cli", "write_csv", "simulator.write_csv"),
    ("ccmkit.simulator", "tracking_feedback", "controller.tracking_feedback"),
    ("ccmkit.controller", "build_path", "controller.build_path"),
    ("ccmkit.controller", "path_energy", "controller.path_energy"),
    ("ccmkit.controller", "differential_feedback", "controller.differential_feedback"),
    ("ccmkit.controller", "compute_ab", "differential.compute_ab"),
    ("ccmkit.transforms", "invariance_probe", "transforms.invariance_probe"),
    ("ccmkit.transforms", "apply_feedback_transform", "transforms.apply_feedback_transform"),
]

# per-layer metric -> (span name, statistic); statistics are per traced
# operation: "calls" counts spans, "total" sums durations, "self" sums
# self times
SPAN_METRICS = {
    "verifier.check_contraction_s": ("verifier.check_contraction", "total"),
    "verifier.check_condition1_s": ("verifier.check_condition1", "total"),
    "verifier.check_strong_conditions_s": ("verifier.check_strong_conditions", "total"),
    "verifier.fit_psi_power_law_s": ("verifier.fit_psi_power_law", "total"),
    "model.check_metric_bounds_s": ("model.check_metric_bounds", "total"),
    "verifier.kernel_basis_calls": ("verifier.kernel_basis", "calls"),
    "verifier.construct_psi_calls": ("verifier.construct_psi", "calls"),
    "verifier.construct_psi_s": ("verifier.construct_psi", "total"),
    "differential.compute_H_calls": ("differential.compute_H", "calls"),
    "differential.compute_H_s": ("differential.compute_H", "total"),
    "model.raw_batch_calls": ("model.raw_batch", "calls"),
    "model.raw_batch_s": ("model.raw_batch", "total"),
    "expr.eval_calls": ("expr.eval", "calls"),
    "expr.eval_s": ("expr.eval", "total"),
    "expr.compile_calls": ("expr.compile", "calls"),
    "expr.compile_s": ("expr.compile", "total"),
    "model.load_spec_file_s": ("model.load_spec_file", "total"),
    "model.plant_build_s": ("model.plant_build", "total"),
    "controller.tracking_feedback_calls": ("controller.tracking_feedback", "calls"),
    "controller.tracking_feedback_self_s": ("controller.tracking_feedback", "self"),
    "controller.differential_feedback_calls": ("controller.differential_feedback", "calls"),
    "controller.differential_feedback_s": ("controller.differential_feedback", "total"),
    "differential.compute_ab_calls": ("differential.compute_ab", "calls"),
    "differential.compute_ab_s": ("differential.compute_ab", "total"),
    "controller.build_path_s": ("controller.build_path", "total"),
    "simulator.loop_self_s": ("simulator.simulate_closed_loop", "self"),
    "simulator.integrate_s": ("simulator.integrate", "total"),
    "simulator.convergence_metrics_s": ("simulator.convergence_metrics", "total"),
    "simulator.write_csv_s": ("simulator.write_csv", "total"),
    "transforms.invariance_probe_self_s": ("transforms.invariance_probe", "self"),
    "transforms.apply_feedback_transform_s": ("transforms.apply_feedback_transform", "total"),
    "cli.self_s": ("cli.main", "self"),
}


def _resolve(owner: str):
    try:
        return importlib.import_module(owner)
    except ModuleNotFoundError:
        module, _, cls = owner.rpartition(".")
        return getattr(importlib.import_module(module), cls)


def _union_length(intervals: list, lo: float, hi: float) -> float:
    total = 0.0
    end = lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


class Tracer:
    def __init__(self):
        self.spans: list = []        # (id, parent id, name, start, end, thread)
        self.energy_ratios: list = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._root_stack: list = []
        self._patches: list = []
        self._first_energy = None
        self._home = None

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn):
        spans = self.spans
        ids = self._ids
        root = self._root_stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else (root[-1] if root else 0)
            sid = next(ids)
            stack.append(sid)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                spans.append((sid, parent, name, t0, t1, threading.get_ident()))

        return traced

    def _wrap_compile(self, compile_matrix):
        traced_compile = self.wrap("expr.compile", compile_matrix)

        @functools.wraps(compile_matrix)
        def compile_and_wrap(*args, **kwargs):
            fn = traced_compile(*args, **kwargs)
            traced = self.wrap("expr.eval", fn)
            traced.source = getattr(fn, "source", None)
            return traced

        return compile_and_wrap

    def _wrap_build_path(self, build_path):
        traced = self.wrap("controller.build_path", build_path)

        @functools.wraps(build_path)
        def measured(*args, **kwargs):
            self._first_energy = None
            path = traced(*args, **kwargs)
            # the first energy build_path evaluates is the straight line's
            if self._first_energy:
                self.energy_ratios.append(path.energy / self._first_energy)
            return path

        return measured

    def _wrap_path_energy(self, path_energy):
        traced = self.wrap("controller.path_energy", path_energy)

        @functools.wraps(path_energy)
        def measured(*args, **kwargs):
            energy = traced(*args, **kwargs)
            if self._first_energy is None:
                self._first_energy = energy
            return energy

        return measured

    def install(self) -> None:
        """Patch every name in PATCHES; the calling thread is the one whose
        open span parents work done in pool threads."""
        self._home = threading.get_ident()
        self._local.stack = self._root_stack
        special = {"expr.compile": self._wrap_compile,
                   "controller.build_path": self._wrap_build_path,
                   "controller.path_energy": self._wrap_path_energy}
        for owner, attr, name in PATCHES:
            target = _resolve(owner)
            original = getattr(target, attr)
            make = special.get(name)
            wrapper = make(original) if make else self.wrap(name, original)
            setattr(target, attr, wrapper)
            self._patches.append((target, attr, original))

    def uninstall(self) -> None:
        while self._patches:
            target, attr, original = self._patches.pop()
            setattr(target, attr, original)

    # -- summarizing -------------------------------------------------------

    def take(self) -> tuple[dict, int]:
        """Summarize and clear the recorded spans.  Returns {name: [calls,
        total, self]} and the most pool threads any one span handed work
        to (1 when all work ran in the tracing thread)."""
        spans = self.spans[:]
        del self.spans[:]
        children = defaultdict(list)
        pool = defaultdict(set)
        for _sid, parent, _name, t0, t1, thread in spans:
            children[parent].append((t0, t1))
            if thread != self._home:
                pool[parent].add(thread)
        stats = defaultdict(lambda: [0, 0.0, 0.0])
        for sid, _parent, name, t0, t1, _thread in spans:
            s = stats[name]
            s[0] += 1
            s[1] += t1 - t0
            s[2] += t1 - t0 - _union_length(children.get(sid, ()), t0, t1)
        return dict(stats), max((len(t) for t in pool.values()), default=1)
