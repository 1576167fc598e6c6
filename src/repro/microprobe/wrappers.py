"""Program wrappers: initialization and output computation (paper §V-D).

In the paper, raw generated assembly is embedded in a minimal C wrapper
that initializes registers and memory deterministically, runs warmup so
all core instructions execute under consistent hardware state, and
emits "the final state of architectural registers and a signature over
accessed memory regions" as the test output.

In this reproduction the simulator realizes the same contract: a
:class:`StandardWrapper` binds the generated instruction sequence to a
deterministic ``init_seed`` (consumed by
:func:`repro.sim.state.initial_state`) and a data-region size; the
simulator's :class:`~repro.sim.state.ProgramOutput` is the wrapper's
output computation: the final register state plus the raw data region,
compared byte for byte, with the CRC-64 memory signature computed only
when asked for.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.isa.instructions import Instruction
from repro.isa.program import Program


@dataclass(frozen=True)
class StandardWrapper:
    """Binds generated code to its deterministic execution envelope."""

    init_seed: int = 0
    data_size: int = 32 * 1024
    source: str = "muSeqGen"

    def wrap(
        self, instructions: List[Instruction], name: str
    ) -> Program:
        """Produce the final, runnable test program."""
        return Program(
            instructions=tuple(instructions),
            name=name,
            init_seed=self.init_seed,
            data_size=self.data_size,
            source=self.source,
        )

    def render_c_wrapper(self, program: Program) -> str:
        """Render the equivalent C wrapper as source text.

        Purely illustrative (the simulator executes programs directly),
        but it documents the envelope a hardware deployment would use:
        seeded init, the inline-asm core, and signature computation.
        """
        body = "\n".join(
            f'        "{instruction.to_asm()}\\n"'
            for instruction in program.instructions[:16]
        )
        elided = len(program) - 16
        if elided > 0:
            body += f"\n        /* ... {elided} more instructions ... */"
        return f"""\
#include <stdint.h>
#include "harpocrates_runtime.h"

/* auto-generated wrapper for {program.name} (seed={program.init_seed}) */
int main(void) {{
    harpocrates_init_registers({program.init_seed}UL);
    harpocrates_init_memory({program.init_seed}UL, {program.data_size});
    harpocrates_warmup();
    __asm__ volatile(
{body}
    );
    harpocrates_emit_output_signature({program.data_size});
    return 0;
}}
"""
