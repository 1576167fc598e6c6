"""Observability facade: metrics, tracing, and campaign status.

Everything in the hot paths goes through this module's guarded
helpers, so the cost with observability **disabled** (the default) is
one attribute check per call site::

    from repro import obs

    with obs.phase("evaluate"):          # no-op ctx when disabled
        ranked = evaluator.rank(population)
    obs.inc("repro_iterations_total")    # returns immediately

Enable with :func:`configure` (the CLI does this for ``--trace-dir`` /
``--metrics-port``)::

    obs.configure(enabled=True, trace_dir="traces/")

* **Metrics** live in a process-wide :class:`~repro.obs.metrics.
  MetricsRegistry`; :func:`render_metrics` produces the Prometheus
  text format and :func:`snapshot` the JSON form that crosses the
  distributed wire.  Worker snapshots are folded back in via
  :func:`merge_worker_snapshot`, namespaced ``repro_fleet_*`` and
  labelled by worker, so fleet series never collide with the
  coordinator's own.
* **Tracing** (off unless ``trace_dir`` is given) writes span/event
  JSONL via :class:`~repro.obs.trace.Tracer`; :func:`phase` both
  accumulates per-phase wall-clock into the
  ``repro_phase_seconds_total`` counter family and (optionally) emits
  a span.
* **Status** is the :class:`~repro.obs.status.CampaignStatus` behind
  the ``/status`` endpoint (:mod:`repro.obs.server`).

:func:`shutdown` flushes the tracer and, when tracing, dumps a final
``metrics-<pid>.json`` snapshot next to the trace log so campaigns
leave a machine-readable record even without a scraper attached.
"""

from __future__ import annotations

import json
import os
import time
from typing import Dict, Optional, Sequence

from repro.obs.metrics import (  # noqa: F401  (re-exported API)
    DEFAULT_BUCKETS,
    KIND_HISTOGRAM,
    HistogramSnapshot,
    MetricFamily,
    MetricsRegistry,
)
from repro.obs.status import CampaignStatus, operator_counters
from repro.obs.trace import NULL_CONTEXT, NULL_TRACER, NullTracer, Tracer

#: Fleet series (merged worker snapshots) get this family-name prefix
#: so they can never collide with the coordinator's own series.
FLEET_PREFIX = "repro_fleet_"
_LOCAL_PREFIX = "repro_"


class _ObsState:
    """The process-wide observability state (one instance)."""

    __slots__ = ("enabled", "registry", "tracer", "status", "trace_dir")

    def __init__(self):
        self.enabled = False
        self.registry = MetricsRegistry()
        self.tracer = NULL_TRACER
        self.status = CampaignStatus()
        self.trace_dir: Optional[str] = None


_state = _ObsState()

#: The campaign status singleton (always usable; cheap when idle).
status: CampaignStatus = _state.status


def enabled() -> bool:
    """Is observability on? Hot paths check this before any work."""
    return _state.enabled


def configure(
    enabled: bool = True, trace_dir: Optional[str] = None
) -> None:
    """Turn observability on (or off).

    ``trace_dir`` additionally enables JSONL span tracing.  Calling
    again while enabled keeps the existing registry (so a worker that
    turns metrics on per-connection never loses accumulated series)
    and only (re)opens the tracer when ``trace_dir`` changes.
    """
    if not enabled:
        disable()
        return
    _state.enabled = True
    if trace_dir is not None and trace_dir != _state.trace_dir:
        _state.tracer.close()
        _state.tracer = Tracer(trace_dir)
        _state.trace_dir = trace_dir


def enable() -> None:
    """Idempotent metrics-only enable (no tracer churn)."""
    _state.enabled = True


def disable() -> None:
    """Turn everything off; the registry is kept for inspection."""
    _state.enabled = False
    _state.tracer.close()
    _state.tracer = NULL_TRACER
    _state.trace_dir = None


def reset() -> None:
    """Fresh state: disabled, empty registry/status (test isolation)."""
    global status
    _state.tracer.close()
    _state.enabled = False
    _state.registry = MetricsRegistry()
    _state.tracer = NULL_TRACER
    _state.trace_dir = None
    _state.status.clear()
    status = _state.status


def shutdown() -> None:
    """End-of-campaign flush: final metrics snapshot + tracer close.

    When tracing, writes ``metrics-<pid>.json`` (the registry
    snapshot) into the trace directory, then disables observability.
    """
    if _state.trace_dir is not None:
        path = os.path.join(
            _state.trace_dir, f"metrics-{os.getpid()}.json"
        )
        try:
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(
                    _state.registry.snapshot(), fh,
                    indent=2, sort_keys=True,
                )
        except OSError:
            pass
    disable()


def registry() -> MetricsRegistry:
    """The process-wide registry (real even when disabled)."""
    return _state.registry


def tracer():
    """The active tracer (:data:`NULL_TRACER` when disabled)."""
    return _state.tracer


# -- guarded metric helpers (the hot-path API) ------------------------------


def inc(name: str, amount: float = 1.0, help_text: str = "", **labels):
    """Increment a counter; no-op when disabled."""
    if not _state.enabled:
        return
    family = _state.registry.counter(
        name, help_text, tuple(sorted(labels))
    )
    if labels:
        family.labels(**labels).inc(amount)
    else:
        family.inc(amount)


def set_gauge(name: str, value: float, help_text: str = "", **labels):
    """Set a gauge; no-op when disabled."""
    if not _state.enabled:
        return
    family = _state.registry.gauge(
        name, help_text, tuple(sorted(labels))
    )
    if labels:
        family.labels(**labels).set(value)
    else:
        family.set(value)


def observe(
    name: str,
    value: float,
    help_text: str = "",
    buckets: Optional[Sequence[float]] = None,
    **labels,
):
    """Observe into a histogram; no-op when disabled."""
    if not _state.enabled:
        return
    family = _state.registry.histogram(
        name, help_text, tuple(sorted(labels)), buckets
    )
    if labels:
        family.labels(**labels).observe(value)
    else:
        family.observe(value)


def event(name: str, **fields) -> None:
    """Emit a tracer point event; no-op unless tracing."""
    if _state.enabled:
        _state.tracer.event(name, **fields)


def span(name: str, **attrs):
    """A tracer span context; the shared no-op ctx when disabled."""
    if not _state.enabled:
        return NULL_CONTEXT
    return _state.tracer.span(name, **attrs)


class _PhaseTimer:
    """Times one phase into the phase counters (and maybe a span)."""

    __slots__ = ("name", "trace", "started", "_span")

    def __init__(self, name: str, trace: bool):
        self.name = name
        self.trace = trace

    def __enter__(self) -> "_PhaseTimer":
        if self.trace:
            self._span = _state.tracer.span(self.name)
            self._span.__enter__()
        else:
            self._span = None
        self.started = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        _add_phase(self.name, time.perf_counter() - self.started)
        if self._span is not None:
            self._span.__exit__(exc_type, exc, tb)
        return False


def _add_phase(name: str, seconds: float) -> None:
    registry = _state.registry
    registry.counter(
        "repro_phase_seconds_total",
        "Cumulative wall-clock per loop phase",
        ("phase",),
    ).labels(phase=name).inc(seconds)
    registry.counter(
        "repro_phase_calls_total",
        "Times each loop phase ran",
        ("phase",),
    ).labels(phase=name).inc()


def phase(name: str, trace: bool = True):
    """Time a loop phase (generate / mutate / evaluate / select / ...).

    Accumulates into ``repro_phase_seconds_total{phase=...}`` and — for
    coarse-grained phases (``trace=True``) — emits a tracer span.
    Fine-grained call sites (per-candidate sim/metric timing) pass
    ``trace=False`` to keep the JSONL log readable.  When disabled,
    returns the shared no-op context.
    """
    if not _state.enabled:
        return NULL_CONTEXT
    return _PhaseTimer(name, trace)


def add_phase_time(name: str, seconds: float) -> None:
    """Charge ``seconds`` timed elsewhere (e.g. in a pool worker, where
    observability is off) to a phase, as one :func:`phase` call would;
    no-op unless enabled."""
    if _state.enabled:
        _add_phase(name, seconds)


def histogram_snapshot(name: str) -> Optional[HistogramSnapshot]:
    """An immutable copy of the label-less histogram ``name``.

    None when the family does not exist, is not a histogram, or has no
    label-less child yet.  The experiment harness captures one before
    and one after a loop and takes the :meth:`~repro.obs.metrics.
    HistogramSnapshot.delta` to isolate that loop's latencies.
    """
    family = _state.registry.get(name)
    if family is None or family.kind != KIND_HISTOGRAM:
        return None
    for values, child in family.children():
        if values == ():
            return HistogramSnapshot.of(child)
    return None


def phase_times() -> Dict[str, float]:
    """Current cumulative seconds per phase (empty until enabled)."""
    family = _state.registry.get("repro_phase_seconds_total")
    if family is None:
        return {}
    return {
        values[0]: child.value for values, child in family.children()
    }


# -- exposition / fleet merging --------------------------------------------


def render_metrics() -> str:
    """Prometheus text format of the process registry."""
    return _state.registry.render()


def snapshot() -> Dict[str, object]:
    """JSON snapshot of the process registry (the wire form)."""
    return _state.registry.snapshot()


def status_dict() -> Dict[str, object]:
    """The `/status` JSON payload.

    Alongside the campaign/worker view, surfaces the operator-facing
    counter totals (eval-cache hits/misses, fleet joins/drains — see
    :data:`~repro.obs.status.OPERATOR_COUNTER_FAMILIES`) so a watcher
    does not have to scrape and parse ``/metrics`` for them.
    """
    payload = _state.status.as_dict()
    payload["counters"] = operator_counters(_state.registry)
    return payload


def merge_worker_snapshot(worker: str, snap: Dict[str, object]) -> None:
    """Fold one worker's metrics snapshot into fleet-wide series.

    Families are renamed ``repro_*`` → ``repro_fleet_*`` and labelled
    ``worker=<name>``; already-fleet families (an in-process loopback
    worker shares this registry) are skipped so series never nest.
    Malformed snapshots are dropped — observability must never cost
    the evaluation.
    """
    if not _state.enabled:
        return

    def rename(name: str) -> Optional[str]:
        if name.startswith(FLEET_PREFIX):
            return None
        if name.startswith(_LOCAL_PREFIX):
            return FLEET_PREFIX + name[len(_LOCAL_PREFIX):]
        return FLEET_PREFIX + name

    try:
        _state.registry.merge_snapshot(
            snap, extra_labels={"worker": worker}, rename=rename
        )
    except (KeyError, TypeError, ValueError):
        pass
