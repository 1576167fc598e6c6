"""Host-speed-normalised wall-clock.

On a shared host, ambient load slows pure-Python code by up to a
factor of two for tens of seconds at a time, and process CPU time
slows with it (the core itself runs slower, the process is not just
waiting).  Raw wall-clock figures of identical runs therefore spread
far wider than any regression worth catching.

:class:`HostClock` runs a fixed pure-Python probe kernel between
slices of campaign work and scales each slice's wall-clock by
``(REFERENCE_PROBE_S / probe) ** SPEED_EXPONENT``, where ``probe`` is
the mean of the probes on either side of the slice.  A normalised second is a second
on a host where the probe kernel takes ``REFERENCE_PROBE_S``.  The
probe is benchmark code the program under test cannot change, so a
faster program still shows as a smaller normalised time; only the
host's own speed is divided out.  Probe time is excluded from every
slice.
"""

from __future__ import annotations

import statistics
import time
from collections import defaultdict
from typing import Dict, Optional

#: Probe-kernel duration that defines a normalised second (the median
#: measured on an idle 2-vCPU Xeon KVM guest).
REFERENCE_PROBE_S = 0.0040

#: Kernel runs per probe; the probe reports their median.
PROBE_REPEATS = 5

#: The host switches between speed modes, and campaign work gains less
#: from a fast mode than the tight probe kernel does: over 128
#: alternating samples, log(slice time) against log(probe time) had
#: slopes of 0.60 (L1D fault campaigns) and 0.74 (FP-multiplier golden
#: runs), and 0.75 minimised both kinds' spread.
SPEED_EXPONENT = 0.75


class _Cell:
    __slots__ = ("key", "value")

    def __init__(self, key: int, value: int):
        self.key = key
        self.value = value


def _step(table: Dict[int, int], cell: _Cell, mask: int) -> int:
    value = table.get(cell.key, 0)
    value = (value * 31 + cell.value) & mask
    table[cell.key] = value
    return value


def _kernel(n: int = 3500) -> int:
    """Interpreter-bound work shaped like the simulators' inner loops:
    small objects, attribute reads, dict updates, masked integer
    arithmetic and short calls."""
    mask = (1 << 64) - 1
    table: Dict[int, int] = {}
    ring = []
    acc = 0
    for index in range(n):
        cell = _Cell(index % 97, (index * 2654435761) & mask)
        acc ^= _step(table, cell, mask)
        ring.append((index, acc))
        if len(ring) > 32:
            ring.pop(0)
    return acc


def normalise(raw_s: float, probe_s: float) -> float:
    """``raw_s`` seconds measured while the probe took ``probe_s``,
    in normalised seconds."""
    return raw_s * (REFERENCE_PROBE_S / probe_s) ** SPEED_EXPONENT


def probe(repeats: int = PROBE_REPEATS) -> float:
    """Median seconds of one kernel run, measured now."""
    durations = []
    for _ in range(repeats):
        started = time.perf_counter()
        _kernel()
        durations.append(time.perf_counter() - started)
    return statistics.median(durations)


class HostClock:
    """Accumulates raw and normalised seconds per named phase.

    ``start()`` probes and opens a slice; each ``lap(phase)`` closes
    the open slice, charges it to ``phase``, probes, and opens the
    next.  With ``normalise=False`` no probe runs and normalised
    seconds equal raw seconds (the traced round uses this, so the
    ledger sees only campaign work).
    """

    def __init__(self, normalise: bool = True):
        self.normalise = normalise
        self.raw: Dict[str, float] = defaultdict(float)
        self.norm: Dict[str, float] = defaultdict(float)
        self._mark: Optional[float] = None
        self._last_probe: Optional[float] = None

    def start(self) -> None:
        if self.normalise:
            self._last_probe = probe()
        self._mark = time.perf_counter()

    def lap(self, phase: str) -> None:
        if self._mark is None:
            raise RuntimeError("HostClock.lap() before start()")
        raw = time.perf_counter() - self._mark
        self.raw[phase] += raw
        if self.normalise:
            after = probe()
            self.norm[phase] += normalise(
                raw, (self._last_probe + after) / 2.0
            )
            self._last_probe = after
        else:
            self.norm[phase] += raw
        self._mark = time.perf_counter()
