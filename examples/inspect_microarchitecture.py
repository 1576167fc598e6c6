#!/usr/bin/env python3
"""Peek inside the hardware-in-the-loop evaluation engine.

Runs one OpenDCDiag-style kernel through the golden co-simulation and
prints the gem5-style statistics the Evaluator sees: IPC, L1D hit
rate, per-instance functional-unit utilization (the Fig 8 view), the
structure-specific coverage metrics, and the wrapper's output
signature.
"""

from repro.baselines.opendcdiag import build_mxm_int
from repro.coverage import ace_l1d, ace_register_file, ibr
from repro.isa import FUClass
from repro.sim import golden_run


def main() -> None:
    program = build_mxm_int(scale=6)
    golden = golden_run(program)
    assert not golden.crashed

    print(f"Program: {program.summary()}")
    print()
    print("Microarchitectural statistics:")
    for line in golden.schedule.stats_summary().splitlines():
        print(f"  {line}")
    print()

    print("Hardware-coverage metrics (the loop's fitness candidates):")
    irf = ace_register_file(golden.schedule)
    l1d = ace_l1d(golden.schedule)
    print(f"  ACE (integer register file) : {irf.vulnerability:.4f}")
    print(f"  ACE (L1 data cache)         : {l1d.vulnerability:.4f}")
    for fu_class in (FUClass.INT_ADDER, FUClass.INT_MUL,
                     FUClass.FP_ADD, FUClass.FP_MUL):
        report = ibr(golden.schedule, fu_class)
        print(f"  IBR ({fu_class.value:<10})         : "
              f"{report.ibr:.4f} ({report.op_count} ops)")
    print()

    output = golden.result.output
    print("Wrapper output signatures (detection compares the raw output):")
    print(f"  memory signature : {output.memory_signature:#018x}")
    print(f"  folded signature : {output.signature():#018x}")


if __name__ == "__main__":
    main()
