"""In-memory spans around the public calls of each layer.

The benchmark does not change the program: :meth:`Tracer.install`
replaces each public function or method named in :func:`boundaries`
with a wrapper that records a span, at the attribute where its caller
looks it up, and :meth:`Tracer.uninstall` puts the originals back.  A
span is ``[name, start, end, parent, run_id]``: ``parent`` indexes the
enclosing span (-1 at top level) and ``run_id`` groups the spans of one
(team, design) pair or one model's training run.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from contextlib import contextmanager

_MISSING = object()


def boundaries() -> list[tuple[object, str, str]]:
    """``(owner, attribute, span name)`` for every wrapped public call."""
    import repro.features.grids as grids
    import repro.nn as nn
    import repro.nn.functional as functional
    import repro.placement.density as density
    import repro.placement.nesterov as nesterov
    import repro.placement.placer as placer
    import repro.routing.maze as maze
    import repro.routing.topology as topology
    import repro.train.dataset as dataset
    from repro.models.predictor import ModelEstimator
    from repro.nn.tensor import Tensor

    return [
        (dataset, "generate_design", "netlist.generate_design"),
        (nesterov.GlobalPlacer, "run", "placement.gp_run"),
        (nesterov.GlobalPlacer, "step", "placement.gp_step"),
        (nesterov, "wa_wirelength_grad", "placement.wa_wirelength_grad"),
        (density.ElectrostaticSystem, "energy_and_forces", "placement.energy_and_forces"),
        (density.ElectrostaticSystem, "overflow", "placement.overflow"),
        (placer, "inflate_all_fields", "placement.inflate_all_fields"),
        (placer, "legalize", "placement.legalize"),
        (topology, "decompose_net", "routing.decompose_net"),
        (maze.MazeRefiner, "refine", "routing.maze_refine"),
        (grids.FeatureExtractor, "__call__", "features.extract"),
        (ModelEstimator, "__call__", "models.infer"),
        (Tensor, "backward", "nn.backward"),
        (functional, "im2col", "nn.im2col"),
        (functional, "col2im", "nn.col2im"),
        (functional, "softmax", "nn.softmax"),
        (functional, "batch_norm", "nn.batch_norm"),
        (nn.Adam, "step", "nn.optim_step"),
        (nn, "clip_grad_norm", "nn.clip_grad_norm"),
    ]


class Tracer:
    """Span recorder; install it to wrap the layer boundaries."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.run_id = ""
        self._saved: list[tuple[object, str, object]] = []
        # id(module) -> span name, for the modules whose calls are timed.
        self.modules: dict[int, str] = {}

    # -- recording ----------------------------------------------------------------

    def _open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.run_id])
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def wrap(self, fn, name: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(index)

        return traced

    def wrap_generator(self, fn, name: str):
        """Time each ``next()`` of the generator ``fn`` returns."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            iterator = fn(*args, **kwargs)
            while True:
                index = self._open(name)
                try:
                    item = next(iterator)
                except StopIteration:
                    return
                finally:
                    self._close(index)
                yield item

        return traced

    def wrap_module_call(self, call):
        """``Module.__call__`` that records spans for registered modules."""
        modules = self.modules

        @functools.wraps(call)
        def traced(module, *args, **kwargs):
            name = modules.get(id(module))
            if name is None:
                return call(module, *args, **kwargs)
            index = self._open(name)
            try:
                return call(module, *args, **kwargs)
            finally:
                self._close(index)

        return traced

    def register_model(self, model_name: str, model) -> None:
        """Time ``model``'s forward and each of its top-level children."""
        from repro.nn import ModuleList

        self.modules[id(model)] = f"models.forward.{model_name}"
        for stage, child in model._modules.items():
            # A ModuleList is iterated, never called: time its members.
            members = list(child) if isinstance(child, ModuleList) else [child]
            for member in members:
                self.modules[id(member)] = f"models.stage.{model_name}.{stage}"

    # -- patching -----------------------------------------------------------------

    def _patch(self, owner, attr: str, replacement) -> None:
        self._saved.append((owner, attr, vars(owner).get(attr, _MISSING)))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        from repro.nn.module import Module
        from repro.train.dataset import CongestionDataset

        if self._saved:
            raise RuntimeError("tracer already installed")
        for owner, attr, name in boundaries():
            self._patch(owner, attr, self.wrap(getattr(owner, attr), name))
        self._patch(
            CongestionDataset, "batches",
            self.wrap_generator(CongestionDataset.batches, "train.batches"),
        )
        self._patch(Module, "__call__", self.wrap_module_call(Module.__call__))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    # -- analysis -----------------------------------------------------------------

    def self_times(self, lo: int = 0, hi: int | None = None) -> dict[str, float]:
        """Self time per span name over spans ``[lo, hi)``.

        A span's self time is its duration minus the time its direct
        children cover; children of one span never overlap, because a
        single thread records them.
        """
        spans = self.spans[lo:hi]
        child_time = defaultdict(float)
        for name, start, end, parent, _ in spans:
            if parent >= lo:
                child_time[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        for offset, (name, start, end, _, _) in enumerate(spans):
            totals[name] += (end - start) - child_time[lo + offset]
        return dict(totals)
