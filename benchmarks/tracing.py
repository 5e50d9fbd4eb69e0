"""Spans and counts around hybridlab's public functions, for the traced run.

The tracer replaces each traced function under every module name its
callers look it up by (brackets, for one, imports `to_ensemble` and
`apply_quantum` by name), and wraps `numpy.fft.fft`/`ifft` to count
transforms.  Spans are kept in memory; a span's self time is its
duration minus that of its direct children.  `installed()` puts the
originals back on exit, so untraced rounds run the program unchanged.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
from collections import Counter, defaultdict

# span name -> the (module, attribute) bindings its callers use
TRACED = {
    "grid.split_step_evolve": [("hybridlab.grid", "split_step_evolve")],
    "grid.grid_moments": [("hybridlab.grid", "grid_moments")],
    "grid.to_ensemble": [("hybridlab.grid", "to_ensemble"),
                         ("hybridlab.brackets", "to_ensemble")],
    "brackets.hybrid_bracket": [("hybridlab.brackets", "hybrid_bracket")],
    "brackets.functional_gradients": [("hybridlab.brackets", "functional_gradients")],
    "observables.apply_quantum": [("hybridlab.observables", "apply_quantum"),
                                  ("hybridlab.brackets", "apply_quantum")],
    # only the calls apply_quantum makes; grid_moments' own calls stay inside
    # its span
    "observables.apply_operator": [("hybridlab.observables", "apply_operator")],
    "gaussian.optimize_chsh": [("hybridlab.gaussian", "optimize_chsh")],
    "gaussian.evolve_gaussian": [("hybridlab.gaussian", "evolve_gaussian")],
    "gaussian.logarithmic_negativity": [("hybridlab.gaussian", "logarithmic_negativity")],
    "gaussian.mediator_moment_inversion": [("hybridlab.gaussian",
                                            "mediator_moment_inversion")],
    "scenario.run_scenario": [("hybridlab.cli", "run_scenario")],
    "scenario.validate_backends": [("hybridlab.cli", "validate_backends")],
    "scenario.tomography_demo": [("hybridlab.cli", "tomography_demo")],
    "scenario.parse_config": [("hybridlab.cli", "parse_config")],
    "scenario.report_write": [("hybridlab.scenario", "_write_tomography_csv"),
                              ("hybridlab.scenario.ScenarioReport", "write")],
}


def _resolve(path: str):
    """A module, or a class inside one ('pkg.mod.Class')."""
    try:
        return importlib.import_module(path)
    except ModuleNotFoundError:
        module, _, name = path.rpartition(".")
        return getattr(importlib.import_module(module), name)


class Tracer:
    """Spans (name, start, end, parent index) and counters."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()

    def _span(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self.stack[-1] if self.stack else -1
            index = len(self.spans)
            span = [name, time.perf_counter(), None, parent]
            self.spans.append(span)
            self.stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self.stack.pop()
        return wrapper

    def _count_steps(self, fn):
        @functools.wraps(fn)
        def wrapper(state, g1, g2, dt, steps):
            self.counts["grid.strang_steps"] += steps
            return fn(state, g1, g2, dt, steps)
        return wrapper

    def _count_fft(self, fn):
        @functools.wraps(fn)
        def wrapper(a, *args, **kwargs):
            self.counts["grid.fft_calls"] += 1
            self.counts["grid.fft_points"] += a.size
            return fn(a, *args, **kwargs)
        return wrapper

    @contextlib.contextmanager
    def installed(self):
        saved = []

        def patch(owner, attr, wrapper):
            saved.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, wrapper)

        try:
            for name, bindings in TRACED.items():
                for path, attr in bindings:
                    owner = _resolve(path)
                    fn = getattr(owner, attr)
                    if name == "grid.split_step_evolve":
                        fn = self._count_steps(fn)
                    patch(owner, attr, self._span(name, fn))
            import numpy.fft
            for attr in ("fft", "ifft"):
                patch(numpy.fft, attr, self._count_fft(getattr(numpy.fft, attr)))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def summary(self) -> dict[str, float]:
        """Per span name: calls, total seconds and self seconds."""
        child_time = defaultdict(float)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = defaultdict(int)
        for i, (name, start, end, _) in enumerate(self.spans):
            out[f"{name}.calls"] += 1
            out[f"{name}.s"] += end - start
            out[f"{name}.self_s"] += end - start - child_time[i]
        out.update(self.counts)
        return dict(out)
