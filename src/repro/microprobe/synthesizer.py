"""The Synthesizer: drives a policy to produce runnable programs.

"The generation process is driven by the synthesizer object, to which
we attach our sequence of passes (i.e., our policy)" (paper §V-A).
"""

from __future__ import annotations

import random
from typing import List, Optional, Sequence

from repro.isa.instructions import InstructionDef
from repro.isa.program import Program
from repro.microprobe.arch_module import ArchitectureModule
from repro.microprobe.ir import Microbenchmark
from repro.microprobe.policies import (
    GenerationConfig,
    Policy,
    constrained_random_policy,
    sequence_policy,
)
from repro.microprobe.wrappers import StandardWrapper


class Synthesizer:
    """Produces programs by running a policy over a fresh IR."""

    def __init__(
        self,
        arch: Optional[ArchitectureModule] = None,
        config: Optional[GenerationConfig] = None,
    ):
        self.arch = arch if arch is not None else ArchitectureModule()
        self.config = config if config is not None else GenerationConfig()

    def _synthesize(
        self, policy: Policy, seed: int, name: str
    ) -> Program:
        rng = random.Random(seed)
        benchmark = Microbenchmark(
            name=name,
            data_size=self.config.data_size,
            stride=self.config.stride,
            seed=seed,
        )
        policy.run(benchmark, rng)
        wrapper = StandardWrapper(
            init_seed=seed, data_size=self.config.data_size
        )
        program = wrapper.wrap(benchmark.instructions(), name)
        # The genome (pre-guard definition sequence) is what the
        # mutation engine rewrites between generations.
        program.metadata["genome"] = tuple(benchmark.genome())
        return program

    def synthesize_random(self, seed: int, name: str = "") -> Program:
        """One constrained-random program."""
        policy = constrained_random_policy(self.arch, self.config)
        return self._synthesize(
            policy, seed, name or f"random_{seed:08x}"
        )

    def synthesize_from_sequence(
        self,
        definitions: Sequence[InstructionDef],
        seed: int,
        name: str = "",
    ) -> Program:
        """A program realizing an externally supplied definition
        sequence (the mutation engine's output, §V-B2)."""
        policy = sequence_policy(self.arch, definitions, self.config)
        return self._synthesize(
            policy, seed, name or f"sequence_{seed:08x}"
        )

    def synthesize_population(
        self, count: int, base_seed: int = 0
    ) -> List[Program]:
        """The initial random population (loop step 0, §V-C)."""
        return [
            self.synthesize_random(base_seed + index)
            for index in range(count)
        ]
