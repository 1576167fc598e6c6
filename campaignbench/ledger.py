"""Per-layer ledger for the traced run.

:class:`Ledger` wraps each layer's public calls at the name its caller
binds (a class attribute, or the module global the caller imported),
records one span per call in memory, and charges each layer its self
time: the span's duration minus the time of wrapped calls nested in
it.  Nothing inside the program changes; :meth:`Ledger.uninstall`
puts every original back.

Pool workers are separate processes the wrappers cannot see into; a
forked worker inherits the wrappers but they pass straight through
there (the owning process id is checked on every call).
"""

from __future__ import annotations

import functools
import json
import os
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

import repro.core.evaluator as evaluator_module
from repro.core.evalcache import EvaluationCache
from repro.core.generator import Generator
from repro.core.loop import HarpocratesLoop
from repro.core.mutator import Mutator
from repro.coverage.metrics import CoverageMetric
from repro.explain.minimize import WitnessMinimizer
from repro.faults.injector import FaultInjector
from repro.gatelevel.units import GradedUnit
from repro.sim.functional import FunctionalSimulator
from repro.sim.ooo import TimingModel
from repro.util.parallel import ResilientPool

#: ``FaultInjector`` entry points; nested calls (``inject`` dispatching
#: to ``inject_gate_permanent``) count as one injection.
_INJECT_METHODS = (
    "inject",
    "inject_register_transient",
    "inject_register_intermittent",
    "inject_register_permanent",
    "inject_cache_transient",
    "inject_gate_permanent",
    "inject_gate_intermittent",
)

#: Per-layer metrics, in ``BENCHMARK.json`` order, with their units.
LAYER_METRICS: Tuple[Tuple[str, str], ...] = (
    ("generator.realize_s", "s"),
    ("generator.programs", "count"),
    ("mutator.mutate_s", "s"),
    ("screen.bound_s", "s"),
    ("screen.skips", "count"),
    ("screen.skip_ratio", "fraction"),
    ("evalcache.digest_s", "s"),
    ("evalcache.hits", "count"),
    ("evalcache.hit_ratio", "fraction"),
    ("functional.golden_s", "s"),
    ("functional.instr", "instr"),
    ("functional.instr_per_s", "instr/s"),
    ("timing.schedule_s", "s"),
    ("timing.cycles", "cycles"),
    ("timing.instr_per_s", "instr/s"),
    ("coverage.metric_s", "s"),
    ("faults.inject_s", "s"),
    ("faults.injections", "count"),
    ("faults.fastpath_ratio", "fraction"),
    ("faults.replays", "count"),
    ("faults.replay_s", "s"),
    ("faults.replay_instr", "instr"),
    ("gatelevel.diff_s", "s"),
    ("explain.minimize_s", "s"),
    ("explain.witness_instr", "instr"),
    ("pool.map_s", "s"),
    ("pool.task_s", "s"),
    ("pool.busy_ratio", "fraction"),
    ("loop.generations", "count"),
    ("loop.self_s", "s"),
)


class _Frame:
    __slots__ = ("span_id", "layer", "child_s", "duration", "replayed")

    def __init__(self, span_id: int, layer: str):
        self.span_id = span_id
        self.layer = layer
        self.child_s = 0.0
        self.duration = 0.0
        self.replayed = False


class Ledger:
    """In-memory span recorder with per-layer self time and counts."""

    def __init__(self):
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.counts: Dict[str, float] = defaultdict(float)
        #: ``(span_id, parent_id, layer, start, end)`` per call.
        self.spans: List[Tuple[int, int, str, float, float]] = []
        self._stack: List[_Frame] = []
        self._patches: List[Tuple[object, str, object]] = []
        self._next_id = 0
        self._pid = os.getpid()

    # -- recording ---------------------------------------------------------

    def _in(self, layer: str) -> Optional[_Frame]:
        for frame in reversed(self._stack):
            if frame.layer == layer:
                return frame
        return None

    def _wrap(
        self,
        fn: Callable,
        layer,
        after: Optional[Callable] = None,
    ) -> Callable:
        """``layer`` is a name, or a callable choosing one from the
        call's arguments; ``after(result, args, frame)`` records
        counts.  A call nested in a span of its own layer is part of
        that span and passes straight through."""
        ledger = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if os.getpid() != ledger._pid:
                return fn(*args, **kwargs)
            name = layer(args, kwargs) if callable(layer) else layer
            stack = ledger._stack
            if stack and stack[-1].layer == name:
                return fn(*args, **kwargs)
            frame = _Frame(ledger._next_id, name)
            ledger._next_id += 1
            parent = stack[-1].span_id if stack else -1
            stack.append(frame)
            started = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                ended = time.perf_counter()
                stack.pop()
                frame.duration = duration = ended - started
                if stack:
                    stack[-1].child_s += duration
                ledger.self_s[name] += duration - frame.child_s
                ledger.calls[name] += 1
                ledger.spans.append(
                    (frame.span_id, parent, name, started, ended)
                )
            if after is not None:
                after(result, args, frame)
            return result

        return wrapper

    def _patch(self, owner, attribute: str, layer, after=None) -> None:
        """Wrap ``owner.attribute`` (a class or a module global)."""
        original = vars(owner)[attribute]
        self._patches.append((owner, attribute, original))
        setattr(owner, attribute, self._wrap(original, layer, after))

    # -- per-layer counters --------------------------------------------------

    def _after_bound(self, bound, args, frame) -> None:
        if bound == 0.0:
            self.counts["screen.skips"] += 1

    def _after_get(self, hit, args, frame) -> None:
        self.counts["evalcache.lookups"] += 1
        if hit is not None:
            self.counts["evalcache.hits"] += 1

    def _functional_layer(self, args, kwargs) -> str:
        return "faults.replay" if self._in("faults.inject") else \
            "functional.golden"

    def _after_run(self, result, args, frame) -> None:
        if frame.layer == "faults.replay":
            self.counts["faults.replay_instr"] += result.dynamic_count
            injection = self._in("faults.inject")
            if injection is not None:
                injection.replayed = True
        else:
            self.counts["functional.instr"] += result.dynamic_count

    def _after_schedule(self, schedule, args, frame) -> None:
        self.counts["timing.cycles"] += schedule.total_cycles
        self.counts["timing.instr"] += len(args[1])

    def _after_inject(self, result, args, frame) -> None:
        if not frame.replayed:
            self.counts["faults.fastpath"] += 1

    def _after_realize(self, result, args, frame) -> None:
        self.counts["generator.programs"] += (
            len(result) if isinstance(result, list) else 1
        )

    def _after_minimize(self, result, args, frame) -> None:
        self.counts["explain.witness_instr"] += len(result.program)

    def _after_map(self, outcomes, args, frame) -> None:
        pool = args[0]
        self.counts["pool.task_s"] += sum(o.duration for o in outcomes)
        self.counts["pool.capacity_s"] += frame.duration * max(
            1, pool.workers
        )

    def _after_loop(self, result, args, frame) -> None:
        self.counts["loop.generations"] += result.iterations_run

    # -- install / uninstall -----------------------------------------------

    def install(self) -> None:
        self._patch(Generator, "realize", "generator", self._after_realize)
        self._patch(
            Generator, "initial_population", "generator",
            self._after_realize,
        )
        for cls in _subclasses(Mutator):
            if "mutate" in cls.__dict__:
                self._patch(cls, "mutate", "mutator")
        # The evaluator binds these two by name at import.
        self._patch(
            evaluator_module, "static_bound", "screen", self._after_bound
        )
        self._patch(evaluator_module, "program_digest", "evalcache")
        self._patch(
            EvaluationCache, "get", "evalcache.get", self._after_get
        )
        self._patch(
            FunctionalSimulator, "run", self._functional_layer,
            self._after_run,
        )
        self._patch(
            TimingModel, "schedule", "timing", self._after_schedule
        )
        self._patch(CoverageMetric, "__call__", "coverage")
        for method in _INJECT_METHODS:
            self._patch(
                FaultInjector, method, "faults.inject", self._after_inject
            )
        for cls in [GradedUnit] + _subclasses(GradedUnit):
            if "result_diffs" in cls.__dict__:
                self._patch(cls, "result_diffs", "gatelevel")
        self._patch(
            WitnessMinimizer, "minimize", "explain", self._after_minimize
        )
        self._patch(ResilientPool, "map", "pool", self._after_map)
        self._patch(HarpocratesLoop, "run", "loop", self._after_loop)

    def uninstall(self) -> None:
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    # -- results -------------------------------------------------------------

    def metrics(self) -> Dict[str, float]:
        """Every per-layer metric of :data:`LAYER_METRICS`."""
        s, c, n = self.self_s, self.counts, self.calls

        def ratio(part: float, whole: float) -> float:
            return part / whole if whole else 0.0

        injections = n["faults.inject"]
        return {
            "generator.realize_s": s["generator"],
            "generator.programs": c["generator.programs"],
            "mutator.mutate_s": s["mutator"],
            "screen.bound_s": s["screen"],
            "screen.skips": c["screen.skips"],
            "screen.skip_ratio": ratio(c["screen.skips"], n["screen"]),
            "evalcache.digest_s": s["evalcache"],
            "evalcache.hits": c["evalcache.hits"],
            "evalcache.hit_ratio": ratio(
                c["evalcache.hits"], c["evalcache.lookups"]
            ),
            "functional.golden_s": s["functional.golden"],
            "functional.instr": c["functional.instr"],
            "functional.instr_per_s": ratio(
                c["functional.instr"], s["functional.golden"]
            ),
            "timing.schedule_s": s["timing"],
            "timing.cycles": c["timing.cycles"],
            "timing.instr_per_s": ratio(c["timing.instr"], s["timing"]),
            "coverage.metric_s": s["coverage"],
            "faults.inject_s": s["faults.inject"],
            "faults.injections": injections,
            "faults.fastpath_ratio": ratio(
                c["faults.fastpath"], injections
            ),
            "faults.replays": n["faults.replay"],
            "faults.replay_s": s["faults.replay"],
            "faults.replay_instr": c["faults.replay_instr"],
            "gatelevel.diff_s": s["gatelevel"],
            "explain.minimize_s": s["explain"],
            "explain.witness_instr": c["explain.witness_instr"],
            "pool.map_s": s["pool"],
            "pool.task_s": c["pool.task_s"],
            "pool.busy_ratio": ratio(
                c["pool.task_s"], c["pool.capacity_s"]
            ),
            "loop.generations": c["loop.generations"],
            "loop.self_s": s["loop"],
        }

    def table(self, wall_s: float) -> str:
        """Self time per layer as a share of the traced campaign."""
        lines = [f"{'layer':<20}{'calls':>8}{'self s':>10}{'share':>8}"]
        attributed = 0.0
        for layer in sorted(self.self_s, key=self.self_s.get,
                            reverse=True):
            seconds = self.self_s[layer]
            attributed += seconds
            lines.append(
                f"{layer:<20}{self.calls[layer]:>8}{seconds:>10.3f}"
                f"{seconds / wall_s:>8.1%}"
            )
        rest = wall_s - attributed
        lines.append(
            f"{'(unattributed)':<20}{'':>8}{rest:>10.3f}"
            f"{rest / wall_s:>8.1%}"
        )
        return "\n".join(lines)

    def write_spans(self, path: str, trace_id: str) -> None:
        """One JSON object per span; spans of one round share
        ``trace``."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        origin = min((span[3] for span in self.spans), default=0.0)
        with open(path, "w") as handle:
            for span_id, parent, layer, start, end in sorted(
                self.spans, key=lambda span: span[3]
            ):
                handle.write(json.dumps({
                    "trace": trace_id,
                    "id": span_id,
                    "parent": parent,
                    "layer": layer,
                    "start_s": start - origin,
                    "end_s": end - origin,
                }, sort_keys=True) + "\n")


def _subclasses(cls) -> list:
    found = []
    for sub in cls.__subclasses__():
        found.append(sub)
        found.extend(_subclasses(sub))
    return found
