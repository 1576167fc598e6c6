"""Run one campaign-benchmark workload and print its metrics.

Usage, from the repository root::

    python3 campaignbench/run.py --workload evolve-fp_mul --seed 1 \\
        --seconds 24 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A failed
output check exits 1, and a tree without the program's ``src/`` exits
2, both without a result line.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def process_age() -> float:
    """Seconds since this process started (10 ms resolution)."""
    with open("/proc/self/stat") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
    return time.clock_gettime(time.CLOCK_BOOTTIME) - started


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    source = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(source, "repro")):
        print(f"campaignbench: no program source under {source}",
              file=sys.stderr)
        return 2
    sys.path[:0] = [source, ROOT]
    from campaignbench import bench
    from campaignbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"campaignbench: unknown workload {args.workload!r}; "
              f"choose one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    return bench.run(
        args.workload, args.seed, args.seconds, bool(args.trace),
        process_age,
    )


if __name__ == "__main__":
    sys.exit(main())
