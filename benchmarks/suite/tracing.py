"""Spans recorded from outside the program, around the calls into each layer.

The program carries no spans of its own (that is a later change); the suite
wraps the boundaries itself:

* **coarse spans** are recorded individually -- name, layer, start, end,
  parent and pass id -- either at the call site (``with tracer.span(...)``)
  or, for calls the program makes internally (``BroadcastSystem`` construction,
  ``PoissonWorkload.schedule_messages``, ``Simulator.run``, ...), through a
  class-level wrapper installed for the traced pass;
* **per-event spans** (``Network.send``, every component's ``on_message`` /
  ``broadcast`` / ``propose``, ``LoadTestedService.submit``,
  ``KeyValueStore.apply``, ``ResultStore.put``) fire up to millions of times,
  so they are aggregated in memory as ``(layer, parent layer) -> count,
  total, self`` instead.

Both kinds share one stack, so a span's self time is its duration minus the
time its children cover, whatever their kind.  Only public methods are
wrapped: a refactor of private helpers must not need an edit of the
benchmark.  :meth:`Tracer.remove` restores every patched attribute.

A disabled tracer (the untraced run) installs nothing and records nothing;
its :meth:`span` still measures the elapsed time, which is how the workloads
time their phases with one code path.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

import paths  # noqa: F401  (src/ on sys.path)

LayerOf = Union[str, Callable[[tuple], str]]

_clock = time.perf_counter


class Span:
    """One coarse span; usable as a context manager."""

    __slots__ = ("tracer", "name", "layer", "start", "elapsed", "_frame")

    def __init__(self, tracer: "Tracer", name: str, layer: str) -> None:
        self.tracer = tracer
        self.name = name
        self.layer = layer
        self.start = 0.0
        self.elapsed = 0.0
        self._frame: Optional[list] = None

    def __enter__(self) -> "Span":
        if self.tracer.enabled:
            self._frame = self.tracer._push(self.name, self.layer)
        self.start = _clock()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.elapsed = _clock() - self.start
        if self._frame is not None:
            self.tracer._pop(self._frame, self.start, self.elapsed)


class Tracer:
    """Span recorder of one traced pass."""

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.pass_id = 0
        #: Coarse spans: [name, layer, start, end, parent index, pass id].
        self.spans: List[list] = []
        #: (layer, parent layer) -> [count, total seconds, self seconds].
        self.aggregate: Dict[Tuple[str, str], List[float]] = {}
        # Frames are [layer, child seconds, span index]; the root frame
        # stands for the suite's own code.
        self._stack: List[list] = [["bench", 0.0, -1]]
        self._patched: List[Tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------ coarse spans

    def span(self, name: str, layer: str) -> Span:
        return Span(self, name, layer)

    def _push(self, name: str, layer: str) -> list:
        parent = self._stack[-1]
        index = len(self.spans)
        self.spans.append([name, layer, 0.0, 0.0, parent[2], self.pass_id])
        frame = [layer, 0.0, index]
        self._stack.append(frame)
        return frame

    def _pop(self, frame: list, start: float, elapsed: float) -> None:
        stack = self._stack
        stack.pop()
        parent = stack[-1]
        parent[1] += elapsed
        record = self.spans[frame[2]]
        record[2] = start
        record[3] = start + elapsed
        self._add(frame[0], parent[0], elapsed, elapsed - frame[1])

    def _add(self, layer: str, parent_layer: str, total: float, self_time: float) -> None:
        cell = self.aggregate.setdefault((layer, parent_layer), [0, 0.0, 0.0])
        cell[0] += 1
        cell[1] += total
        cell[2] += self_time

    # ------------------------------------------------------------------ wrappers

    def _coarse_wrapper(self, function: Callable[..., Any], name: str, layer: str):
        tracer = self

        def traced(*args: Any, **kwargs: Any) -> Any:
            with Span(tracer, name, layer):
                return function(*args, **kwargs)

        traced.__wrapped__ = function  # type: ignore[attr-defined]
        traced.__qualname__ = getattr(function, "__qualname__", name)
        return traced

    def _event_wrapper(self, function: Callable[..., Any], layer_of: LayerOf):
        stack = self._stack
        aggregate = self.aggregate
        dynamic = callable(layer_of)

        def traced(*args: Any, **kwargs: Any) -> Any:
            layer = layer_of(args) if dynamic else layer_of
            parent = stack[-1]
            frame = [layer, 0.0, parent[2]]
            stack.append(frame)
            start = _clock()
            try:
                return function(*args, **kwargs)
            finally:
                elapsed = _clock() - start
                stack.pop()
                parent[1] += elapsed
                # _add, inlined: this runs once per simulated message.
                key = (layer, parent[0])
                cell = aggregate.get(key)
                if cell is None:
                    aggregate[key] = [1, elapsed, elapsed - frame[1]]
                else:
                    cell[0] += 1
                    cell[1] += elapsed
                    cell[2] += elapsed - frame[1]

        traced.__wrapped__ = function  # type: ignore[attr-defined]
        # The simulator's event categories are derived from __qualname__.
        traced.__qualname__ = getattr(function, "__qualname__", "traced")
        return traced

    def _patch(self, owner: Any, attribute: str, wrapper: Callable[..., Any]) -> None:
        self._patched.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, wrapper)

    def patch_coarse(self, owner: Any, attribute: str, layer: str) -> None:
        label = f"{owner.__name__}.{attribute}".replace("repro.", "")
        self._patch(owner, attribute, self._coarse_wrapper(owner.__dict__[attribute], label, layer))

    def patch_event(self, owner: Any, attribute: str, layer_of: LayerOf) -> None:
        self._patch(owner, attribute, self._event_wrapper(owner.__dict__[attribute], layer_of))

    def install(self) -> None:
        """Install every class- and module-level wrapper of the traced pass."""
        if not self.enabled or self._patched:
            return
        import repro.campaigns.aggregate as aggregate_mod
        import repro.campaigns.columnar as columnar_mod
        import repro.experiments  # noqa: F401  (registers every Component subclass)
        from repro.campaigns.runner import CampaignRunner
        from repro.campaigns.spec import CampaignSpec
        from repro.campaigns.store import ResultStore
        from repro.load.clients import ClosedLoopClients, OpenLoopClients
        from repro.load.service import LoadTestedService
        from repro.replication.service import ReplicatedService
        from repro.replication.state_machine import KeyValueStore
        from repro.scenarios.faults import FaultSchedule
        from repro.scenarios.runner import ScenarioRunner
        from repro.sim.engine import Simulator
        from repro.sim.network import Network
        from repro.sim.process import Component
        from repro.system import BroadcastSystem
        from repro.workload.generator import PoissonWorkload

        coarse = (
            (BroadcastSystem, "__init__", "system"),
            (BroadcastSystem, "start", "system"),
            (FaultSchedule, "apply_pre", "scenarios.faults"),
            (FaultSchedule, "schedule", "scenarios.faults"),
            (PoissonWorkload, "schedule_messages", "workload"),
            (Simulator, "run", "sim.engine"),
            (ScenarioRunner, "run_steady", "scenarios.runner"),
            (ScenarioRunner, "run_steady_on", "scenarios.runner"),
            (ScenarioRunner, "run_probe", "scenarios.transient"),
            (CampaignSpec, "points", "campaigns.spec"),
            (CampaignRunner, "run", "campaigns.runner"),
            (ResultStore, "close", "campaigns.store.close"),
            (ResultStore, "compact", "campaigns.store.compact"),
            (OpenLoopClients, "schedule_requests", "load.clients"),
            (ClosedLoopClients, "start", "load.clients"),
            (columnar_mod, "write_mirror", "campaigns.columnar.write"),
            (columnar_mod, "read_mirror", "campaigns.columnar.read"),
            (aggregate_mod, "figure_from_campaign", "campaigns.aggregate.figure"),
        )
        for owner, attribute, layer in coarse:
            self.patch_coarse(owner, attribute, layer)

        self.patch_event(Network, "send", "sim.network")
        self.patch_event(LoadTestedService, "submit", "load.service")
        self.patch_event(ReplicatedService, "submit", "replication.service")
        self.patch_event(ReplicatedService, "read_local", "replication.service")
        self.patch_event(KeyValueStore, "apply", "replication.state_machine")
        self.patch_event(
            ResultStore, "put", lambda args: "campaigns.store.put." + args[0].durability
        )
        for cls in _subclasses(Component):
            layer = cls.__module__.replace("repro.", "", 1)
            for attribute in ("on_message", "broadcast", "propose"):
                if attribute in cls.__dict__:
                    self.patch_event(cls, attribute, layer)

    def remove(self) -> None:
        """Restore every attribute :meth:`install` replaced."""
        while self._patched:
            owner, attribute, original = self._patched.pop()
            setattr(owner, attribute, original)

    # ------------------------------------------------------------------ read-out

    def layer_total(self, layer: str) -> float:
        """Seconds inside ``layer``, outermost entries only."""
        return sum(
            cell[1] for (name, parent), cell in self.aggregate.items()
            if name == layer and parent != layer
        )

    def layer_self(self, layer: str) -> float:
        return sum(cell[2] for (name, _parent), cell in self.aggregate.items() if name == layer)

    def layer_count(self, layer: str) -> int:
        return int(sum(cell[0] for (name, _parent), cell in self.aggregate.items() if name == layer))

    def totals_under(self, root_name: str) -> Dict[str, float]:
        """Seconds per coarse span name among the descendants of ``root_name`` spans."""
        inside = [False] * len(self.spans)
        totals: Dict[str, float] = {}
        for index, (name, _layer, start, end, parent, _pass) in enumerate(self.spans):
            if parent >= 0 and (inside[parent] or self.spans[parent][0] == root_name):
                inside[index] = True
                totals[name] = totals.get(name, 0.0) + (end - start)
        return totals

    def as_dict(self) -> Dict[str, Any]:
        origin = self.spans[0][2] if self.spans else 0.0
        return {
            "span_columns": ["name", "layer", "start_s", "end_s", "parent", "pass"],
            "spans": [
                [name, layer, round(start - origin, 6), round(end - origin, 6), parent, pass_id]
                for name, layer, start, end, parent, pass_id in self.spans
            ],
            "layers": [
                {
                    "layer": layer,
                    "parent": parent,
                    "count": int(cell[0]),
                    "total_s": round(cell[1], 6),
                    "self_s": round(cell[2], 6),
                }
                for (layer, parent), cell in sorted(self.aggregate.items())
            ],
        }


def _subclasses(cls: type) -> List[type]:
    found: List[type] = []
    for sub in cls.__subclasses__():
        found.append(sub)
        found.extend(_subclasses(sub))
    return found
