"""Spans around the program's public functions, recorded from outside.

`Tracer.install` replaces module attributes, in every module that looks
a function up, with a wrapper that records a span (name, start, end,
parent, the operation's context) in memory; `Tracer.uninstall` puts the
originals back.  No file of the program changes.  Self time of a span is
its duration minus the durations of its child spans.
"""

from __future__ import annotations

import functools
import threading
import time
from dataclasses import dataclass, field
from typing import Optional


@dataclass
class Span:
    name: str
    parent: Optional["Span"]
    context: dict
    start: float = 0.0
    end: float = 0.0
    child_time: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.child_time


def _simulate_attrs(span, args, kwargs, result):
    spec, cfg = args[0], args[1]
    span.attrs["path_steps"] = cfg.n_paths * int(round(cfg.t_end / cfg.dt))
    span.attrs["dim"] = spec.dim
    if cfg.scheme == "stable_euler":
        kind = "stable"
    elif cfg.scheme == "euler_jump_thinning":
        kind = "thinning"
    elif spec.domain == "half_line" and spec.boundary == "reflect":
        kind = "em_reflect"
    elif spec.domain == "half_line" and spec.boundary == "absorb":
        kind = "em_absorb_bridge" if cfg.bridge_correction else "em_absorb"
        span.attrs["absorbed"] = int((result[:, 0] == 0.0).sum())
        span.attrs["paths"] = len(result)
    else:
        kind = span.context.get("em_kind", "em_free")
    span.attrs["kind"] = kind


def targets(dualgen):
    """(owner, attribute, span name, annotate) for every traced lookup."""
    cli, scenario, mc = dualgen.cli, dualgen.scenario, dualgen.monte_carlo
    ml = dualgen.matrix_lab
    return [
        (cli, "main", "cli.main", None),
        (cli, "load_scenario", "scenario.load_scenario", None),
        (scenario, "load_scenario", "scenario.load_scenario", None),
        (cli, "run_scenario", "scenario.run_scenario", None),
        (scenario, "closed_form_dual", "dual_builder.closed_form", None),
        (scenario, "estimate_duality", "monte_carlo.estimate_duality", None),
        (mc, "simulate_paths", "monte_carlo.simulate_paths", _simulate_attrs),
        (dualgen.order_transform.TranslationKernel, "__call__",
         "order_transform.kernel_eval", None),
        (scenario, "discretize", "generator_core.discretize", None),
        (scenario, "duality_indicator_matrix",
         "state_space.duality_indicator_matrix", None),
        (ml, "duality_indicator_matrix",
         "state_space.duality_indicator_matrix", None),
        (scenario, "semigroup", "matrix_lab.semigroup", None),
        (ml, "semigroup", "matrix_lab.semigroup", None),
        (ml, "expm", "matrix_lab.expm", None),
        (scenario, "dual_semigroup_via_F", "matrix_lab.dual_semigroup_via_F",
         None),
        (ml, "forward_F_matrix", "matrix_lab.forward_F_matrix", None),
        (ml, "inverse_F_matrix", "matrix_lab.inverse_F_matrix", None),
        (scenario, "duality_residual", "matrix_lab.duality_residual", None),
        (scenario, "dual_stochasticity_check",
         "matrix_lab.dual_stochasticity_check", None),
    ]


class Tracer:
    """Records spans in memory while installed."""

    def __init__(self):
        self.spans = []
        self.context = {}
        self._local = threading.local()
        self._saved = []

    def _stack(self):
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def wrap(self, name, fn, annotate=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            span = Span(name, stack[-1] if stack else None, dict(self.context))
            stack.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                if span.parent is not None:
                    span.parent.child_time += span.duration
                self.spans.append(span)
            if annotate is not None:
                annotate(span, args, kwargs, result)
            return result
        return traced

    def install(self, dualgen):
        for owner, attr, name, annotate in targets(dualgen):
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self.wrap(name, original, annotate))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def take(self) -> list:
        """Spans recorded since the last call."""
        spans, self.spans = self.spans, []
        return spans
