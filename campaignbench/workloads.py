"""The benchmark's workloads: one Harpocrates campaign shape each.

Every workload builds its target the way ``harpocrates loop --scale
PRESET --seed S`` does (``scaled_targets`` at the preset's program and
loop scales, the loop seed replaced by ``S``), evolves it with
``Manager(target).run_loop``, then runs the target's fault campaign,
seeded with the preset's campaign seed as ``harpocrates loop`` seeds
it, on every program of the final elite.  That is one *round*.

A run repeats the round with loop seeds derived from the workload
seed (:func:`round_seed`), as many times as :meth:`Workload.rounds`
fits into the run's length.  Evolved programs, and with them
injection speed and detection, differ much more between loop seeds
than between repeats of one seed, so a run averages several
independent lineages rather than repeating one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict


@dataclass(frozen=True)
class Workload:
    """One campaign shape."""

    name: str
    #: ``scaled_targets`` key.
    target: str
    #: ``harpocrates loop --scale`` preset that sets program length.
    preset: str
    #: ``run_loop`` iterations.
    generations: int
    #: Faults injected into each elite program.
    injections: int
    #: Distinct detections of the best program run through
    #: ``explain_detections`` (0 = no explanation stage).
    explain_top: int = 0
    #: ``Manager(workers=...)``; above 1 the loop grades through
    #: ``util.parallel.ResilientPool``.
    workers: int = 1
    #: Wall-clock seconds of one round, its checks included, on a
    #: 2-vCPU host; sets how many rounds a run of a given length makes.
    round_s: float = 5.0

    def rounds(self, seconds: float) -> int:
        """Rounds in a run of ``seconds``: fixed by the run length
        alone, so a seed always gives the same inputs."""
        return min(MAX_ROUNDS, max(1, round(seconds / self.round_s)))


#: A loop with seed ``s`` synthesizes its initial population from seeds
#: ``s .. s + population - 1``; round seeds sit ``ROUND_STRIDE`` apart
#: so that no two rounds, and no two runs, share an initial program.
ROUND_STRIDE = 64
MAX_ROUNDS = 64


def round_seed(seed: int, index: int) -> int:
    """The loop seed of round ``index`` of a run with ``seed``."""
    return (seed * MAX_ROUNDS + index) * ROUND_STRIDE


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            name="evolve-fp_mul",
            target="fp_mul",
            preset="default",
            generations=6,
            injections=40,
            round_s=5.5,
        ),
        Workload(
            name="evolve-l1d",
            target="l1d",
            preset="smoke",
            generations=4,
            injections=2500,
            round_s=6.0,
        ),
        Workload(
            name="inject-int_adder",
            target="int_adder",
            preset="smoke",
            generations=4,
            injections=60,
            explain_top=1,
            round_s=6.0,
        ),
        Workload(
            name="evolve-fp_mul-pool",
            target="fp_mul",
            preset="default",
            generations=6,
            injections=40,
            workers=2,
            round_s=6.0,
        ),
    )
}
