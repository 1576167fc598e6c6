"""Statistical fault injection (the GeFIN-equivalent, paper §II-E).

The injector evaluates sampled faults against a program's golden run:

1. locate the fault in the golden *timing* schedule (is the faulty bit
   live? which dynamic instructions observe it?),
2. translate the fault into value :class:`~repro.sim.overrides.Overrides`,
3. re-execute only the cheap *functional* simulation under those
   overrides, and only the part of it the overrides can change: the
   replay starts at the last golden snapshot at or before its first
   override and stops as Masked at the first snapshot boundary after
   its last override where its pc and architectural state equal the
   golden ones (with no output-time override pending, an identical
   state and no later perturbation give the golden suffix), and
4. classify the outcome: Masked / SDC / Crash.

The golden snapshots come from one extra fault-free functional pass,
taken every :func:`snapshot_interval` dynamic instructions (at most 16
state copies).  An injector makes that pass only on a replay after its
first one that could start later or stop early, so an injector that
replays once pays nothing for it.

Fast paths avoid re-execution entirely when the fault provably cannot
reach the output (dead value → Masked) or provably corrupts it (flip
live in an output register or in writeback-bound dirty data → SDC).

Permanent gate faults use bit-parallel netlist evaluation to grade a
whole program's operations in one pass, falling back to per-operation
netlist evaluation only for operations whose inputs diverged during the
faulty re-run (the ``DynamicUnitFault`` hook).
"""

from __future__ import annotations

import random
from bisect import bisect_right
from typing import Dict, List, Optional, Tuple

from repro.faults.models import (
    CacheTransient,
    GateIntermittent,
    GatePermanent,
    RegisterIntermittent,
    RegisterPermanent,
    RegisterTransient,
)
from repro.faults.outcomes import DetectionReport, InjectionResult, Outcome
from repro.gatelevel.netlist import StuckAt
from repro.gatelevel.units import GradedUnit, build_graded_unit
from repro.isa.instructions import FUClass
from repro.sim.cache import residency_intervals
from repro.sim.cosim import GoldenRun
from repro.sim.functional import FunctionalSimulator, Snapshot
from repro.sim.overrides import Overrides
from repro.sim.prf import PregVersion
from repro.sim.state import ArchState
from repro.util.bitops import MASK64

#: A golden run is cut into at most this many snapshot intervals...
SNAPSHOTS = 16
#: ...of at least this many dynamic instructions each.
MIN_SNAPSHOT_INTERVAL = 32


def snapshot_interval(dynamic_count: int) -> int:
    """Dynamic instructions between two golden snapshots of a run of
    ``dynamic_count`` instructions: ``ceil(n / 16)``, at least 32."""
    return max(MIN_SNAPSHOT_INTERVAL, -(-dynamic_count // SNAPSHOTS))


class _Recorder:
    """Watch that copies the state at every boundary of a golden run."""

    def __init__(self, interval: int):
        self.interval = interval
        self.snapshots: List[Snapshot] = []

    def visit(self, dyn: int, pc: int, state: ArchState) -> bool:
        self.snapshots.append(Snapshot(dyn, pc, state.copy()))
        return False


class _Reconvergence:
    """Watch that stops a replay at the first boundary after ``after``
    where its pc and state equal the golden snapshot's."""

    def __init__(
        self, snapshots: List[Snapshot], interval: int, after: int
    ):
        self.snapshots = snapshots
        self.interval = interval
        self.after = after

    def visit(self, dyn: int, pc: int, state: ArchState) -> bool:
        index = dyn // self.interval
        if dyn <= self.after or index >= len(self.snapshots):
            return False
        golden = self.snapshots[index]
        return golden.pc == pc and golden.state == state


class DynamicUnitFault:
    """Live faulty-unit model backing permanent-fault re-runs.

    Precomputed (golden-input) diffs serve the common case; operations
    whose inputs diverged under the fault re-evaluate the netlist for
    just that operation.
    """

    def __init__(
        self,
        unit: GradedUnit,
        stuck: StuckAt,
        int_ops: Dict[int, Tuple[Tuple[int, ...], int]],
        lane_ops: Dict[int, Dict[int, Tuple[Tuple[str, int, int], int]]],
    ):
        self.unit = unit
        self.stuck = stuck
        self._int_ops = int_ops
        self._lane_ops = lane_ops
        # First and last operation with a nonzero golden-input diff:
        # outside them a replay sees golden inputs, hence golden results.
        perturbing = [dyn for dyn, (_inputs, diff) in int_ops.items() if diff]
        perturbing.extend(
            dyn for dyn, lanes in lane_ops.items()
            if any(diff for _op, diff in lanes.values())
        )
        self.span: Optional[Tuple[int, int]] = (
            (min(perturbing), max(perturbing)) if perturbing else None
        )

    def apply_int(self, dyn, inputs, golden, width):
        entry = self._int_ops.get(dyn)
        if entry is None:
            return golden
        golden_inputs, diff = entry
        if inputs != golden_inputs:
            diff = self.unit.result_diffs([inputs], self.stuck)[0]
        return golden ^ diff

    def apply_lanes(self, dyn, lane_inputs, results, lane_width, op_name):
        lanes = self._lane_ops.get(dyn)
        if lanes is None or lane_width != 32:
            return results
        patched = list(results)
        for lane_index, (golden_op, diff) in lanes.items():
            if lane_index >= len(lane_inputs):
                continue
            a_bits, b_bits = lane_inputs[lane_index]
            actual_op = (op_name, a_bits, b_bits)
            if actual_op != golden_op:
                diff = self.unit.result_diffs([actual_op], self.stuck)[0]
            patched[lane_index] = results[lane_index] ^ diff
        return patched


class FaultInjector:
    """Injects faults into one program's golden run."""

    def __init__(self, golden: GoldenRun):
        if golden.crashed:
            raise ValueError(
                "cannot inject into a program that crashes fault-free"
            )
        self.golden = golden
        self.schedule = golden.schedule
        self.machine = golden.schedule.machine
        self.total_cycles = golden.total_cycles
        self.golden_output = golden.result.output
        self._simulator = FunctionalSimulator(
            self.machine.for_program(golden.program.data_size)
        )
        self._versions_by_preg: Optional[
            Dict[int, List[PregVersion]]
        ] = None
        self._residencies = None
        self._units: Dict[FUClass, GradedUnit] = {}
        dynamic_count = golden.result.dynamic_count
        self._interval = snapshot_interval(dynamic_count)
        #: Dynamic index of the last golden snapshot.
        self._last_boundary = (
            (dynamic_count - 1) // self._interval * self._interval
        )
        self._snapshots: Optional[List[Snapshot]] = None
        self._replays = 0
        #: The value overrides behind the most recent :meth:`inject`
        #: verdict — ``None`` for masked faults, populated for every
        #: detected one (including fast-path SDC verdicts that skip the
        #: re-run).  `repro.explain.localize` replays these to diff the
        #: faulty execution against the golden trace.
        self.last_overrides: Optional[Overrides] = None

    # -- shared helpers ------------------------------------------------

    def _golden_snapshots(self) -> List[Snapshot]:
        if self._snapshots is None:
            recorder = _Recorder(self._interval)
            result = self._simulator.run(
                self.golden.program, collect_records=False, watch=recorder
            )
            # A pass that hangs under the injector's own budget gives no
            # snapshots: its replays run whole, as they would hang too.
            self._snapshots = [] if result.crashed else recorder.snapshots
        return self._snapshots

    def _replay_plan(
        self, overrides: Overrides
    ) -> Tuple[Optional[Snapshot], Optional[_Reconvergence]]:
        """Where a replay under ``overrides`` starts, and the watch that
        ends it once it reconverges (``None``: from 0, to the end)."""
        span = overrides.dyn_span()
        if span is None or not self._replays:
            return None, None
        first, last = span
        interval, last_boundary = self._interval, self._last_boundary
        start_index = min(first, last_boundary) // interval
        converges = not overrides.has_final() and last < last_boundary
        if start_index <= 0 and not converges:
            return None, None
        snapshots = self._golden_snapshots()
        if not snapshots:
            return None, None
        watch = _Reconvergence(snapshots, interval, last) \
            if converges else None
        return snapshots[start_index], watch

    def _rerun(self, overrides: Overrides, fault: object) -> InjectionResult:
        start, watch = self._replay_plan(overrides)
        self._replays += 1
        result = self._simulator.run(
            self.golden.program, overrides, collect_records=False,
            start=start, watch=watch,
        )
        if result.converged:
            return InjectionResult(fault, Outcome.MASKED)
        if result.crashed:
            outcome = InjectionResult(
                fault, Outcome.CRASH, crash_kind=result.crash.kind
            )
        elif result.output != self.golden_output:
            outcome = InjectionResult(fault, Outcome.SDC)
        else:
            return InjectionResult(fault, Outcome.MASKED)
        self.last_overrides = overrides
        return outcome

    def _preg_versions(self) -> Dict[int, List[PregVersion]]:
        if self._versions_by_preg is None:
            table: Dict[int, List[PregVersion]] = {}
            for version in self.schedule.int_versions:
                table.setdefault(version.preg, []).append(version)
            for versions in table.values():
                versions.sort(key=lambda v: v.ready_cycle)
            self._versions_by_preg = table
        return self._versions_by_preg

    def _live_version(self, preg: int, cycle: int) -> Optional[PregVersion]:
        versions = self._preg_versions().get(preg, [])
        keys = [version.ready_cycle for version in versions]
        index = bisect_right(keys, cycle) - 1
        if index < 0:
            return None
        version = versions[index]
        return version if version.live_at(cycle, self.total_cycles) else None

    def unit_for(self, fu_class: FUClass, **kwargs) -> GradedUnit:
        """The (cached) gate-level model for a unit class."""
        if fu_class not in self._units:
            self._units[fu_class] = build_graded_unit(fu_class, **kwargs)
        return self._units[fu_class]

    def use_unit(self, unit: GradedUnit) -> None:
        """Install a specific gate-level model (e.g. CLA ablation)."""
        self._units[unit.fu_class] = unit

    # -- register-file faults --------------------------------------------

    def inject_register_transient(
        self, fault: RegisterTransient
    ) -> InjectionResult:
        version = self._live_version(fault.preg, fault.cycle)
        if version is None:
            return InjectionResult(fault, Outcome.MASKED)
        xor_mask = 1 << fault.bit
        overrides = Overrides()
        instruction_hit = False
        for dyn, read_cycle in version.reads:
            if dyn >= 0 and read_cycle >= fault.cycle:
                key = (dyn, version.arch)
                overrides.reg_read_xor[key] = (
                    overrides.reg_read_xor.get(key, 0) ^ xor_mask
                )
                instruction_hit = True
        end_hit = version.end_read
        if end_hit:
            overrides.final_reg_xor[version.arch] = xor_mask
        if not instruction_hit and not end_hit:
            return InjectionResult(fault, Outcome.MASKED)
        if end_hit and not instruction_hit:
            # The flipped bit sits in an architected output register and
            # nothing consumes it earlier: the output dump exposes it.
            self.last_overrides = overrides
            return InjectionResult(fault, Outcome.SDC)
        return self._rerun(overrides, fault)

    def inject_register_intermittent(
        self, fault: RegisterIntermittent
    ) -> InjectionResult:
        xor_mask = 1 << fault.bit
        overrides = Overrides()
        hit = False
        for version in self._preg_versions().get(fault.preg, []):
            for dyn, read_cycle in version.reads:
                if dyn >= 0 and \
                        fault.start_cycle <= read_cycle < fault.end_cycle:
                    key = (dyn, version.arch)
                    overrides.reg_read_xor[key] = (
                        overrides.reg_read_xor.get(key, 0) ^ xor_mask
                    )
                    hit = True
            if version.end_read and \
                    fault.start_cycle <= self.total_cycles < fault.end_cycle:
                overrides.final_reg_xor[version.arch] = xor_mask
                hit = True
        if not hit:
            return InjectionResult(fault, Outcome.MASKED)
        return self._rerun(overrides, fault)

    def inject_register_permanent(
        self, fault: RegisterPermanent
    ) -> InjectionResult:
        bit_mask = 1 << fault.bit
        if fault.stuck_value:
            and_mask, or_mask = MASK64, bit_mask
        else:
            and_mask, or_mask = MASK64 ^ bit_mask, 0
        overrides = Overrides()
        hit = False
        for version in self._preg_versions().get(fault.preg, []):
            for dyn, _read_cycle in version.reads:
                if dyn >= 0:
                    overrides.reg_read_force[(dyn, version.arch)] = (
                        and_mask, or_mask
                    )
                    hit = True
            if version.end_read:
                overrides.final_reg_force[version.arch] = (and_mask, or_mask)
                hit = True
        if not hit:
            return InjectionResult(fault, Outcome.MASKED)
        return self._rerun(overrides, fault)

    # -- cache faults ----------------------------------------------------

    def _find_residency(self, fault: CacheTransient):
        if self._residencies is None:
            self._residencies = residency_intervals(
                self.schedule.cache_events,
                self.machine.cache,
                self.total_cycles,
            )
        for interval in self._residencies:
            if (
                interval.set_index == fault.set_index
                and interval.way == fault.way
                and interval.start_cycle <= fault.cycle < interval.end_cycle
            ):
                return interval
        return None

    def inject_cache_transient(
        self, fault: CacheTransient
    ) -> InjectionResult:
        interval = self._find_residency(fault)
        if interval is None:
            return InjectionResult(fault, Outcome.MASKED)
        address = interval.address + fault.byte_in_line
        line_base = interval.address
        line_size = self.machine.cache.line_size
        bit_mask = 1 << fault.bit_in_byte
        overrides = Overrides()
        loads_hit = False
        # Location of the faulty bit: it starts in the cache copy and
        # may migrate to memory through a dirty writeback.
        in_cache = True
        in_memory = False
        for event in self.schedule.cache_events:
            if event.cycle < fault.cycle:
                continue
            if event.kind in ("load", "store"):
                covers = event.address <= address < event.address + event.size
                if not covers:
                    continue
                if event.kind == "store":
                    return (
                        InjectionResult(fault, Outcome.MASKED)
                        if not loads_hit
                        else self._rerun(overrides, fault)
                    )
                if in_cache and event.dyn >= 0:
                    shift = (address - event.address) * 8 \
                        + fault.bit_in_byte
                    overrides.load_xor[event.dyn] = (
                        overrides.load_xor.get(event.dyn, 0)
                        ^ (1 << shift)
                    )
                    loads_hit = True
            elif event.kind in ("evict", "flush"):
                if event.address != line_base or not in_cache:
                    continue
                in_cache = False
                if event.dirty:
                    in_memory = True
                elif not in_memory:
                    break  # clean eviction: the flip is discarded
            elif event.kind == "fill":
                if event.address == line_base and in_memory:
                    in_cache = True
        layout = self.machine.memory
        if in_memory and layout.data_base <= address < layout.data_end:
            overrides.final_mem_xor[address] = bit_mask
        if overrides.is_empty():
            return InjectionResult(fault, Outcome.MASKED)
        if not loads_hit and overrides.final_mem_xor:
            # Faulty dirty data reached memory and nothing consumed it
            # earlier: the output signature over the data region flags it.
            self.last_overrides = overrides
            return InjectionResult(fault, Outcome.SDC)
        return self._rerun(overrides, fault)

    # -- functional-unit gate faults ---------------------------------------

    def _collect_unit_ops(
        self, fu_class: FUClass, instance: int,
        window: Optional[Tuple[int, int]] = None,
    ):
        """Gather the (dyn, op) stream the faulted instance executed."""
        int_entries: List[Tuple[int, Tuple[int, ...], int]] = []
        lane_entries: List[Tuple[int, int, Tuple[str, int, int], int]] = []
        for event in self.schedule.fu_events_for(fu_class, instance):
            if event.op is None:
                continue
            if window is not None and not (
                window[0] <= event.issue_cycle < window[1]
            ):
                continue
            op = event.op
            if op.lanes:
                if op.width != 32:
                    continue  # double-precision lanes bypass the f32 netlist
                for lane_index, (a_bits, b_bits) in enumerate(op.lanes):
                    lane_entries.append(
                        (
                            event.dyn,
                            lane_index,
                            (op.op_name, a_bits, b_bits),
                            op.results[lane_index],
                        )
                    )
            else:
                int_entries.append((event.dyn, op.inputs, op.results[0]))
        return int_entries, lane_entries

    def inject_gate_permanent(
        self,
        fault: GatePermanent,
        unit: Optional[GradedUnit] = None,
        window: Optional[Tuple[int, int]] = None,
        exact: bool = False,
    ) -> InjectionResult:
        unit = unit or self.unit_for(fault.fu_class)
        int_entries, lane_entries = self._collect_unit_ops(
            fault.fu_class, fault.instance, window
        )
        if not int_entries and not lane_entries:
            return InjectionResult(fault, Outcome.MASKED)
        int_ops: Dict[int, Tuple[Tuple[int, ...], int]] = {}
        lane_ops: Dict[int, Dict[int, Tuple[Tuple[str, int, int], int]]] = {}
        overrides = Overrides()
        any_diff = False
        if int_entries:
            diffs = unit.result_diffs(
                [inputs for _dyn, inputs, _res in int_entries], fault.stuck
            )
            for (dyn, inputs, result), diff in zip(int_entries, diffs):
                int_ops[dyn] = (inputs, diff)
                if diff:
                    any_diff = True
                    overrides.fu_int[dyn] = result ^ diff
        if lane_entries:
            diffs = unit.result_diffs(
                [op for _d, _l, op, _r in lane_entries], fault.stuck
            )
            for (dyn, lane, op, result), diff in zip(lane_entries, diffs):
                lane_ops.setdefault(dyn, {})[lane] = (op, diff)
                if diff:
                    any_diff = True
                    overrides.fu_lanes.setdefault(dyn, {})[lane] = (
                        result ^ diff
                    )
        if not any_diff:
            return InjectionResult(fault, Outcome.MASKED)
        if exact and window is None:
            # Exact live-unit model: operations whose inputs diverged
            # under the fault re-evaluate the faulty netlist.  Slower;
            # the static differential default applies golden-input
            # diffs, which classifies outcomes identically in almost
            # every case (see the ablation benchmark).
            overrides = Overrides(
                fu_dynamic=DynamicUnitFault(
                    unit, fault.stuck, int_ops, lane_ops
                )
            )
        return self._rerun(overrides, fault)

    def inject_gate_intermittent(
        self, fault: GateIntermittent, unit: Optional[GradedUnit] = None
    ) -> InjectionResult:
        permanent_view = GatePermanent(
            fault.fu_class, fault.instance, fault.stuck
        )
        return self.inject_gate_permanent(
            permanent_view,
            unit=unit,
            window=(fault.start_cycle, fault.end_cycle),
        )

    # -- dispatch ----------------------------------------------------------

    def inject(self, fault) -> InjectionResult:
        """Inject any supported fault model.

        Resets :attr:`last_overrides` first, so after the call it holds
        exactly the overrides behind this verdict (``None`` if masked).
        """
        self.last_overrides = None
        if isinstance(fault, RegisterTransient):
            return self.inject_register_transient(fault)
        if isinstance(fault, RegisterIntermittent):
            return self.inject_register_intermittent(fault)
        if isinstance(fault, RegisterPermanent):
            return self.inject_register_permanent(fault)
        if isinstance(fault, CacheTransient):
            return self.inject_cache_transient(fault)
        if isinstance(fault, GatePermanent):
            return self.inject_gate_permanent(fault)
        if isinstance(fault, GateIntermittent):
            return self.inject_gate_intermittent(fault)
        raise TypeError(f"unsupported fault model: {fault!r}")


# ---------------------------------------------------------------------------
# Statistical campaigns (uniform random site sampling, §III-C)
# ---------------------------------------------------------------------------


def campaign_register_transient(
    golden: GoldenRun, num_injections: int, seed: int = 0
) -> DetectionReport:
    """Transient SFI in the physical integer register file."""
    injector = FaultInjector(golden)
    rng = random.Random(seed)
    report = DetectionReport("int_register_file", "transient")
    num_pregs = golden.schedule.machine.core.num_int_pregs
    for _ in range(num_injections):
        fault = RegisterTransient(
            preg=rng.randrange(num_pregs),
            bit=rng.randrange(64),
            cycle=rng.randrange(max(1, golden.total_cycles)),
        )
        report.add(injector.inject_register_transient(fault))
    return report


def campaign_cache_transient(
    golden: GoldenRun, num_injections: int, seed: int = 0
) -> DetectionReport:
    """Transient SFI in the L1 data cache data array."""
    injector = FaultInjector(golden)
    rng = random.Random(seed)
    report = DetectionReport("l1d_cache", "transient")
    cache = golden.schedule.machine.cache
    for _ in range(num_injections):
        fault = CacheTransient(
            set_index=rng.randrange(cache.num_sets),
            way=rng.randrange(cache.associativity),
            bit_in_line=rng.randrange(cache.line_size * 8),
            cycle=rng.randrange(max(1, golden.total_cycles)),
        )
        report.add(injector.inject_cache_transient(fault))
    return report


def campaign_gate_permanent(
    golden: GoldenRun,
    fu_class: FUClass,
    num_injections: int,
    seed: int = 0,
    instance: int = 0,
    unit: Optional[GradedUnit] = None,
) -> DetectionReport:
    """Permanent stuck-at SFI in one functional unit's gate netlist."""
    injector = FaultInjector(golden)
    if unit is not None:
        injector.use_unit(unit)
    unit = unit or injector.unit_for(fu_class)
    rng = random.Random(seed)
    sites = unit.fault_sites()
    report = DetectionReport(unit.name, "permanent")
    for _ in range(num_injections):
        fault = GatePermanent(fu_class, instance, rng.choice(sites))
        report.add(injector.inject_gate_permanent(fault, unit=unit))
    return report


def campaign_register_intermittent(
    golden: GoldenRun,
    num_injections: int,
    duration: int,
    seed: int = 0,
) -> DetectionReport:
    """Intermittent SFI in the physical integer register file."""
    injector = FaultInjector(golden)
    rng = random.Random(seed)
    report = DetectionReport("int_register_file", "intermittent")
    num_pregs = golden.schedule.machine.core.num_int_pregs
    for _ in range(num_injections):
        fault = RegisterIntermittent(
            preg=rng.randrange(num_pregs),
            bit=rng.randrange(64),
            start_cycle=rng.randrange(max(1, golden.total_cycles)),
            duration=duration,
        )
        report.add(injector.inject_register_intermittent(fault))
    return report


def campaign_gate_intermittent(
    golden: GoldenRun,
    fu_class: FUClass,
    num_injections: int,
    duration: int,
    seed: int = 0,
    instance: int = 0,
    unit: Optional[GradedUnit] = None,
) -> DetectionReport:
    """Intermittent stuck-at SFI in one functional unit."""
    injector = FaultInjector(golden)
    if unit is not None:
        injector.use_unit(unit)
    unit = unit or injector.unit_for(fu_class)
    rng = random.Random(seed)
    sites = unit.fault_sites()
    report = DetectionReport(unit.name, "intermittent")
    for _ in range(num_injections):
        fault = GateIntermittent(
            fu_class,
            instance,
            rng.choice(sites),
            start_cycle=rng.randrange(max(1, golden.total_cycles)),
            duration=duration,
        )
        report.add(injector.inject_gate_intermittent(fault, unit=unit))
    return report
